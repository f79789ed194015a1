#!/usr/bin/env python3
"""Linker audit of the src/ boundary: src/ holds what a binary runs.

Builds the product and paper-reproduction binaries (the roots below) at -O0
with one section per function, links them with --gc-sections, and lists
every function that a src/ library exports (nm type T) but that no root
keeps after the link. -O0 keeps a called function out of line, so a
function inlined into every caller still counts as reached.

Each unreached function must appear in tools/unreached.txt with a reason.
The audit fails when an unreached function is not listed, when a listed
function is no longer unreached (it was deleted, or a root now keeps it),
or when a line of the list is malformed. The list can only shrink
honestly: delete the line in the change that reaches or removes the
function.

Run from anywhere:  python3 tools/reach_audit.py
It configures and builds build-reach/ beside src/ (about a minute on four
cores the first time, incremental after that) and prints the unreached
functions per library. Limits: inline and template code in headers is not
counted, and a function that only tests, ablations or perfbench call shows
as unreached.
"""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD = ROOT / "build-reach"
LIST = ROOT / "tools" / "unreached.txt"

# The binaries the product and the paper reproduction run: the six
# examples, the paper's figures 6-10, and bench/loadgen, the only binary
# that starts the wire server.
ROOTS = {
    "examples": ["quickstart", "music_store", "regional_video",
                 "license_audit", "drm_simulator", "settlement_report"],
    "bench": ["fig6_groups", "fig7_validation_time", "fig8_gain",
              "fig9_insertion", "fig10_storage", "loadgen"],
}

# Why a function that no root keeps stays in src/; tools/unreached.txt's
# header says what each reason means.
REASONS = ("api", "hook", "oracle")


def run(args, **kwargs):
    return subprocess.run(args, check=True, text=True, **kwargs)


def build():
    flags = "-O0 -ffunction-sections -fdata-sections"
    run(["cmake", "-B", str(BUILD), "-S", str(ROOT),
         "-DCMAKE_BUILD_TYPE=Debug", f"-DCMAKE_CXX_FLAGS_DEBUG={flags}",
         "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
         "-DGEOLIC_BUILD_TESTS=OFF", "-DGEOLIC_BUILD_BENCHMARKS=ON",
         "-DGEOLIC_BUILD_EXAMPLES=ON"], stdout=subprocess.DEVNULL)
    targets = [name for names in ROOTS.values() for name in names]
    run(["cmake", "--build", str(BUILD), "--parallel",
         str(os.cpu_count() or 1), "--target", *targets],
        stdout=subprocess.DEVNULL)


def text_symbols(path):
    """Mangled names of the functions `path` defines (nm type T)."""
    out = run(["nm", "--defined-only", str(path)],
              stdout=subprocess.PIPE).stdout
    symbols = set()
    for line in out.splitlines():
        fields = line.split()
        if len(fields) == 3 and fields[1] == "T":
            symbols.add(fields[2])
    return symbols


def demangle(names):
    out = run(["c++filt"], input="\n".join(names) + "\n",
              stdout=subprocess.PIPE).stdout
    return dict(zip(names, out.splitlines()))


def read_list():
    """{(library, function): reason} and the malformed lines."""
    listed, errors = {}, []
    for number, line in enumerate(LIST.read_text().splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 3 or fields[0] not in REASONS:
            errors.append(f"{LIST.name}:{number}: want 'reason<TAB>library"
                          f"<TAB>function' with a reason in "
                          f"{list(REASONS)}: {line}")
            continue
        key = (fields[1], fields[2])
        if key in listed:
            errors.append(f"{LIST.name}:{number}: listed twice: {line}")
        listed[key] = fields[0]
    return listed, errors


def main():
    build()
    exported = {}  # mangled name -> library
    for archive in sorted(BUILD.glob("src/*/libgeolic_*.a")):
        library = archive.stem[len("libgeolic_"):]
        for name in text_symbols(archive):
            exported[name] = library
    kept = set()
    for directory, names in ROOTS.items():
        for name in names:
            kept |= text_symbols(BUILD / directory / name)
    unreached_names = sorted(set(exported) - kept)
    readable = demangle(unreached_names)
    # A constructor or destructor exports several symbols under one name;
    # the list names each function once.
    unreached = {(exported[n], readable[n]) for n in unreached_names}

    per_library = {}
    for library in exported.values():
        per_library.setdefault(library, [0, 0])[0] += 1
    for name in unreached_names:
        per_library[exported[name]][1] += 1
    print(f"{len(unreached_names)} of {len(exported)} exported functions in "
          f"src/ are kept by no root ({len(unreached)} distinct names)")
    for library, (total, missed) in sorted(per_library.items()):
        print(f"  {library:<11} {missed:>3} of {total}")

    listed, errors = read_list()
    unlisted = sorted(unreached - set(listed))
    stale = sorted(set(listed) - unreached)
    if unlisted:
        errors.append("unreached but not in tools/unreached.txt (delete the "
                      "function, call it from a root, or list it with a "
                      "reason):")
        errors += [f"REASON\t{lib}\t{fn}" for lib, fn in unlisted]
    if stale:
        errors.append("listed in tools/unreached.txt but no longer "
                      "unreached (delete the line):")
        errors += [f"{listed[key]}\t{key[0]}\t{key[1]}" for key in stale]
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 1
    print(f"tools/unreached.txt lists all {len(listed)}, each with a reason")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""End-to-end benchmark of the repository, one workload per invocation.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <n> --trace <0|1>

Run from the root of a checkout. The first run builds the library sources
(src/) and the benchmark binary (perfbench/*.cc) into .bench_build/ (or
$CARGO_TARGET_DIR); later runs rebuild incrementally. The binary runs
the workload on inputs generated from the seed, checks its outputs, and the
last line printed here is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics. Every run also writes its full report,
with a header naming the source, build and hardware it came from, under
.bench_build/perfbench-results/; compare.py compares two such sets.

Exit status is non-zero when the build fails, a metric is missing, any
output check fails, or an exact count differs from an earlier run of the
same source and seed.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("dense-churn", "tenants-zipf", "wire-open")
# Exact counts that must repeat bit-for-bit for a fixed seed and size.
EXACT_COUNTS = (
    "service.equations_per_op",
    "service.accept_frac",
    "validation.equations",
    "catalog.compiles",
    "catalog.loads",
    "catalog.evictions",
    "catalog.spills",
    "persist.recover_frames",
    "persist.journal_bytes_per_op",
)
BINARY_TIMEOUT_S = 170


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target)


def build(quiet=True):
    """Configures (once) and builds the binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no library sources at %s/src" % ROOT)
    build_dir = os.path.join(build_root(), "perfbench")
    out = subprocess.DEVNULL if quiet else sys.stderr
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=out, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", str(len(os.sched_getaffinity(0)))],
                   check=True, stdout=out, stderr=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def tree_digest(*dirs):
    """sha256 over the paths and contents of the code under `dirs`: every
    file but documentation (*.md) and Python bytecode caches, so a results
    comparison is not refused over an edited README."""
    digest = hashlib.sha256()
    for top in dirs:
        for base, _, files in sorted(os.walk(os.path.join(ROOT, top))):
            if os.path.basename(base) == "__pycache__":
                continue
            for name in sorted(files):
                if name.endswith(".md"):
                    continue
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha():
    # Only this checkout's own history: a checkout that is not a git
    # repository may still sit inside one.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return "none"
    return sha.stdout.strip() if sha.returncode == 0 else "none"


def cpu_model():
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return "unknown"


def fs_type(path):
    """Type of the filesystem holding `path` (longest mount-point match)."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    with open("/proc/self/mounts") as f:
        for line in f:
            fields = line.split()
            mount = fields[1].replace("\\040", " ")
            inside = path == mount or path.startswith(mount.rstrip("/") + "/")
            if inside and len(mount) > len(best):
                best, kind = mount, fields[2]
    return kind


def header(work_dir, info):
    """Where a result came from. compare.py refuses to mix results whose
    comparable fields differ; the source fields name the code measured."""
    return {
        "git_sha": git_sha(),
        "source_digest": tree_digest("src"),
        "benchmark_digest": tree_digest("perfbench"),
        "build_type": "Release",
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpus_used": info.get("cpus_used", "unknown"),
        "cpu_placement": info.get("cpu_placement", "unknown"),
        "cpu_tier": info.get("cpu_tier", "unknown"),
        "fs_type": fs_type(work_dir),
        "flush_policy": info.get("flush_policy", "unknown"),
    }


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_binary(binary, workload, seed, seconds, trace, smoke, stamp):
    """Runs one workload in a fresh work directory; returns its report."""
    scratch = os.path.join(build_root(), "perfbench-work")
    work_dir = os.path.join(scratch, "%s-%d" % (workload, os.getpid()))
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    results = os.path.join(build_root(), "perfbench-results")
    os.makedirs(results, exist_ok=True)
    spans = os.path.join(results, "%s-spans.tsv" % stamp)
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--work-dir", work_dir, "--smoke", "1" if smoke else "0"]
    if trace:
        command += ["--spans", spans]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=BINARY_TIMEOUT_S)
        sys.stderr.write(done.stderr)
        if done.returncode != 0 or not done.stdout.strip():
            raise RuntimeError("benchmark binary exited with %d"
                               % done.returncode)
        report = json.loads(done.stdout.strip().splitlines()[-1])
        return report
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def check_drift(workload, seed, seconds, smoke, counts, source):
    """Compares the exact counts with the last run of the same source, seed
    and size in this checkout; returns the names that drifted."""
    ledger_dir = os.path.join(build_root(), "perfbench-counts")
    os.makedirs(ledger_dir, exist_ok=True)
    ledger = os.path.join(ledger_dir, "%s-seed%d-s%d%s.json" % (
        workload, seed, seconds, "-smoke" if smoke else ""))
    exact = {k: v for k, v in counts.items() if k in EXACT_COUNTS}
    drifted = []
    if os.path.isfile(ledger):
        with open(ledger) as f:
            earlier = json.load(f)
        if earlier["source"] == source:
            drifted = sorted(k for k in exact
                             if k in earlier["counts"]
                             and earlier["counts"][k] != exact[k])
    if not drifted:
        with open(ledger, "w") as f:
            json.dump({"source": source, "counts": exact}, f, indent=1)
    return drifted


def run(workload, seed, seconds, trace, smoke=False, quiet_build=True):
    """Builds, runs and checks one workload; returns (result line, record)."""
    spec = load_spec()
    names = spec["per_layer" if trace else "end_to_end"]
    binary = build(quiet_build)
    stamp = "%s-seed%d-t%d-%d-%d" % (workload, seed, trace, int(time.time()),
                                     os.getpid())
    report = run_binary(binary, workload, seed, seconds, trace, smoke, stamp)
    head = header(os.path.join(build_root(), "perfbench-work"),
                  report["info"])
    problems = list(report["mismatches"])
    metrics = {}
    for entry in names:
        got = report["metrics"].get(entry["name"])
        if got is None:
            problems.append("metric %s not emitted" % entry["name"])
        elif got["unit"] != entry["unit"]:
            problems.append("metric %s has unit %s, not %s" % (
                entry["name"], got["unit"], entry["unit"]))
        else:
            metrics[entry["name"]] = got
    source = head["source_digest"] + "/" + head["benchmark_digest"]
    drifted = check_drift(workload, seed, seconds, smoke, report["counts"],
                          source)
    problems += ["exact count %s drifted" % name for name in drifted]
    correct = not problems and report["mismatch_count"] == 0
    line = {"correct": correct, "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}
    record = {"header": head, "workload": workload, "seed": seed,
              "seconds": seconds, "trace": trace, "smoke": smoke,
              "correct": correct, "problems": problems, "report": report}
    with open(os.path.join(build_root(), "perfbench-results",
                           stamp + ".json"), "w") as f:
        json.dump(record, f, indent=1)
    return line, record


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes (the self-test uses this)")
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    try:
        line, record = run(args.workload, args.seed, args.seconds,
                           args.trace, args.smoke, quiet_build=False)
    except (RuntimeError, subprocess.SubprocessError, OSError,
            ValueError) as error:
        log("no result: %s" % error)
        return 1
    print("# header: " + json.dumps(record["header"], sort_keys=True))
    for name, metric in record["report"]["metrics"].items():
        print("%-34s %.6g %s%s" % (name, metric["value"], metric["unit"],
                                   "" if name in line["metrics"]
                                   else "  (diagnostic)"))
    for problem in record["problems"]:
        log("FAILED: " + problem)
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

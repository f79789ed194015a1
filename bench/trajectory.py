#!/usr/bin/env python3
"""The committed performance trajectory: one row per change, per workload.

    python3 bench/trajectory.py row PARENT_DIR CHANGE_DIR --workload W \
        --pr N --title TEXT [--append BENCH_W.json]
    python3 bench/trajectory.py show BENCH_W.json [BENCH_W2.json ...]

PARENT_DIR and CHANGE_DIR hold result files written by perfbench/run.py
(copies of .bench_build/perfbench-results/*.json) from alternating runs of
the parent commit and the change. `row` keeps the untraced, full-size runs
of the workload, pairs them by seed, and builds one trajectory row: the
run header, then per metric each side's median and quartiles and the pairs
the change won. It prints the row, or appends it to a BENCH_<workload>.json
file with --append. `show` prints each file's trajectory, one line per row
and metric.

The script only reads perfbench's output; it never runs the benchmark.
"""

import argparse
import glob
import json
import os
import statistics
import sys

# The gated end-to-end metrics (BENCHMARK.json), then dense-churn's
# diagnostics: the paper's offline audit (D_T + V_T) and recovery.
METRICS = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "p50_us": ("us", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
    "audit_ms": ("ms", "lower"),
    "recover_s": ("s", "lower"),
}
# Header fields a row records; the source fields differ between sides.
HEADER = ("build_type", "cpu_model", "nproc", "cpus_used", "cpu_placement",
          "cpu_tier", "fs_type", "flush_policy", "benchmark_digest")


def load(directory, workload):
    """Untraced full-size records of `workload`, keyed by seed."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            record = json.load(f)
        if (record.get("workload") != workload or record.get("trace") != 0
                or record.get("smoke")):
            continue
        if record["seed"] in runs:
            sys.exit("trajectory: two %s runs of seed %s in %s"
                     % (workload, record["seed"], directory))
        runs[record["seed"]] = record
    return runs


def spread(values):
    """(q1, median, q3), as perfbench/compare.py computes them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def source(record):
    return {key: record["header"].get(key)
            for key in ("git_sha", "source_digest")}


def build_row(parent_dir, change_dir, workload, pr, title):
    parent = load(parent_dir, workload)
    change = load(change_dir, workload)
    seeds = sorted(set(parent) & set(change))
    if not seeds:
        sys.exit("trajectory: no %s seed was run on both sides" % workload)
    failed = sum(r["report"]["failed"] for r in parent.values())
    failed_change = sum(r["report"]["failed"] for r in change.values())
    header = {key: change[seeds[0]]["header"].get(key) for key in HEADER}
    for side in (parent, change):
        for seed in seeds:
            other = {key: side[seed]["header"].get(key) for key in HEADER}
            if other != header:
                sys.exit("trajectory: run headers differ (seed %s): %s vs %s"
                         % (seed, other, header))
    row = {
        "pr": pr,
        "title": title,
        "source": "paired perfbench runs",
        "header": dict(header, seconds=change[seeds[0]]["seconds"]),
        # The commit a run was built from, and the digest of its sources
        # (the one that tells an uncommitted change from its parent).
        "parent_source": source(parent[seeds[0]]),
        "change_source": source(change[seeds[0]]),
        "seeds": seeds,
        "failed_ops": {"parent": failed, "change": failed_change},
        "metrics": {},
    }
    for name, (unit, better) in METRICS.items():
        if name not in change[seeds[0]]["report"]["metrics"]:
            continue
        before = [parent[s]["report"]["metrics"][name]["value"] for s in seeds]
        after = [change[s]["report"]["metrics"][name]["value"] for s in seeds]
        won = sum(1 for b, a in zip(before, after)
                  if (a < b if better == "lower" else a > b))
        row["metrics"][name] = {
            "unit": unit,
            "better": better,
            "parent": dict(zip(("q1", "median", "q3"), spread(before))),
            "change": dict(zip(("q1", "median", "q3"), spread(after))),
            "won": "%d/%d" % (won, len(seeds)),
        }
    return row


def show(path):
    with open(path) as f:
        trajectory = json.load(f)
    print("# %s (%s)" % (trajectory["workload"], path))
    print("%4s  %-14s  %12s  %28s  %28s  %8s  %6s" % (
        "pr", "metric", "unit", "parent median [q1-q3]",
        "change median [q1-q3]", "change", "won"))
    for row in trajectory["rows"]:
        for name, metric in row["metrics"].items():
            before, after = metric["parent"], metric["change"]
            delta = ("%+.1f%%" % (100 * (after["median"] / before["median"]
                                         - 1))
                     if before["median"] else "-")
            # Seconds read as milliseconds: set-up and recovery are short.
            unit, scale = ((("ms", 1e3) if metric["unit"] == "s"
                            else (metric["unit"], 1)))
            print("%4s  %-14s  %12s  %28s  %28s  %8s  %6s" % (
                row["pr"], name, unit, fmt(before, scale),
                fmt(after, scale), delta, metric.get("won") or "-"))


def fmt(side, scale):
    if side.get("q1") is None:  # Backfilled rows may lack quartiles.
        return "%.6g" % (side["median"] * scale)
    return "%.6g [%.6g-%.6g]" % (side["median"] * scale, side["q1"] * scale,
                                 side["q3"] * scale)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    row = commands.add_parser("row")
    row.add_argument("parent_dir")
    row.add_argument("change_dir")
    row.add_argument("--workload", required=True)
    row.add_argument("--pr", type=int, required=True)
    row.add_argument("--title", required=True)
    row.add_argument("--append")
    show_parser = commands.add_parser("show")
    show_parser.add_argument("files", nargs="+")
    args = parser.parse_args(argv[1:])

    if args.command == "show":
        for path in args.files:
            show(path)
        return 0
    new_row = build_row(args.parent_dir, args.change_dir, args.workload,
                        args.pr, args.title)
    if not args.append:
        print(json.dumps(new_row, indent=2))
        return 0
    with open(args.append) as f:
        trajectory = json.load(f)
    if trajectory["workload"] != args.workload:
        sys.exit("trajectory: %s holds %s, not %s"
                 % (args.append, trajectory["workload"], args.workload))
    trajectory["rows"] = [r for r in trajectory["rows"] if r["pr"] != args.pr]
    trajectory["rows"].append(new_row)
    trajectory["rows"].sort(key=lambda r: r["pr"])
    with open(args.append, "w") as f:
        json.dump(trajectory, f, indent=2)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

#!/usr/bin/env python3
"""Compares two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py BASELINE_DIR CANDIDATE_DIR

Each directory holds result files written by run.py (copies of
.bench_build/perfbench-results/*.json). Untraced results are grouped by
workload; for every end-to-end metric the report gives each side's median
and quartiles, the change of the medians, and a verdict against the bound
in BENCHMARK.json:

  worse     the candidate's median is worse by more than the bound
  ok        it is not
  unresolved  either side's own spread (quartile distance over median)
            exceeds the bound, and the runs overlap

Results of one workload are only compared when their headers agree on the
build, the hardware, the CPUs used and the threads' placement on them, the
kernel tier, the filesystem and the flush policy, and the benchmark code
itself is identical; otherwise the script refuses (exit 2).
The source fields (git_sha, source_digest) are expected to differ.
"""

import glob
import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

# Reported beside the gated metrics, never gated (see README.md, Metrics).
DIAGNOSTICS = tuple({"name": name, "better": "lower", "bound": float("inf")}
                    for name in ("audit_ms", "recover_s", "p99_us",
                                 "p99_window_us"))
COMPARABLE = ("build_type", "cpu_model", "nproc", "cpus_used",
              "cpu_placement", "cpu_tier", "fs_type", "flush_policy",
              "benchmark_digest")


def load(directory):
    records = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            record = json.load(f)
        if record.get("trace") == 0 and not record.get("smoke"):
            records.append(record)
    return records


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    sides = [load(argv[1]), load(argv[2])]
    if not sides[0] or not sides[1]:
        print("compare: no untraced results in one of the directories",
              file=sys.stderr)
        return 2
    # Workloads place their threads differently, so headers are compared
    # within each workload.
    workloads = sorted({r["workload"] for r in sides[0] + sides[1]})
    references = {}
    for record in sides[0] + sides[1]:
        reference = references.setdefault(record["workload"],
                                          record["header"])
        for field in COMPARABLE:
            if record["header"].get(field) != reference.get(field):
                print("compare: refusing to mix results: %s differs (%r vs "
                      "%r)" % (field, record["header"].get(field),
                               reference.get(field)), file=sys.stderr)
                return 2
    spec = run.load_spec()
    print("per metric: baseline median [q1, q3], candidate median [q1, q3]")
    for workload in workloads:
        print("\n%s (runs: %s)" % (workload, " vs ".join(
            str(sum(r["workload"] == workload for r in side))
            for side in sides)))
        print("header: " + json.dumps(
            {f: references[workload].get(f) for f in COMPARABLE}))
        for metric in spec["end_to_end"] + list(DIAGNOSTICS):
            name, bound = metric["name"], metric["bound"]
            values = [[r["report"]["metrics"][name]["value"] for r in side
                       if r["workload"] == workload
                       and name in r["report"]["metrics"]] for side in sides]
            if not values[0] or not values[1]:
                continue
            (a1, a2, a3), (b1, b2, b3) = summary(values[0]), summary(values[1])
            sign = 1 if metric["better"] == "lower" else -1
            change = sign * (b2 - a2) / a2 if a2 else 0.0
            spread = max((a3 - a1) / a2 if a2 else 0.0,
                         (b3 - b1) / b2 if b2 else 0.0)
            separated = (max(values[1]) < min(values[0]) if sign > 0
                         else min(values[1]) > max(values[0]))
            if bound == float("inf"):
                verdict = "diagnostic"
            elif spread > bound and not separated:
                verdict = "unresolved"
            elif change > bound:
                verdict = "worse"
            else:
                verdict = "ok"
            print("  %-14s %12.5g [%.5g, %.5g]  %12.5g [%.5g, %.5g]  "
                  "worse by %+6.1f%%  %s" % (
                      name, a2, a1, a3, b2, b1, b3, 100 * change, verdict))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

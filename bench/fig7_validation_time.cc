// Figure 7: validation time complexity — baseline validation time V_T
// (all 2^N − 1 equations over the undivided tree, reference [10]) versus
// the proposed method's V_T (Σ_k 2^{N_k} − 1 equations over divided trees),
// and the proposed V_T + D_T (division time included) to show D_T is
// negligible for N > 2.
//
// The baseline is exponential in N; beyond --max_baseline_n (default 24)
// only the proposed method runs and the baseline column prints "-".
#include <cstdio>
#include <utility>

#include "validation/validate.h"
#include "bench/bench_util.h"
#include "util/stopwatch.h"

namespace geolic {
namespace {

// Adapters over the Validate facade (the pre-facade bare entry points
// ValidateExhaustive/ValidateExhaustiveLimited/ValidateZeta were folded
// into Validate; see validation/validate.h).
Result<ValidationReport> RunExhaustive(
    const ValidationTree& tree, const std::vector<int64_t>& aggregates) {
  ValidateOptions options;
  options.mode = ValidationMode::kExhaustive;
  Result<ValidationOutcome> outcome = Validate(tree, aggregates, options);
  if (!outcome.ok()) return outcome.status();
  return std::move(outcome->report);
}

}  // namespace
}  // namespace geolic

int main(int argc, char** argv) {
  using namespace geolic;         // NOLINT
  using namespace geolic::bench;  // NOLINT

  Flags flags(argc, argv);
  const int max_n = flags.Int("max_n", 30);
  const int max_baseline_n = flags.Int("max_baseline_n", 24);
  const int step = flags.Int("step", 2);
  flags.Finish();

  std::printf("# Figure 7: validation time vs number of redistribution "
              "licenses\n");
  std::printf("# baseline = ref [10] (2^N - 1 equations); proposed = this "
              "paper (grouped)\n");
  std::printf("%4s  %8s  %7s  %16s  %16s  %18s  %9s\n", "N", "records",
              "groups", "baseline_VT_ms", "proposed_VT_ms",
              "proposed_VT+DT_ms", "speedup");

  for (int n = 2; n <= max_n; n += step) {
    Workload workload = PaperWorkload(n);

    // Proposed: grouping + division + per-group validation.
    Result<ValidationTree> grouped_tree =
        ValidationTree::BuildFromLog(workload.log);
    GEOLIC_CHECK(grouped_tree.ok());
    Result<ValidationOutcome> grouped =
        Validate(*workload.licenses, *std::move(grouped_tree),
                 {.mode = ValidationMode::kGrouped});
    GEOLIC_CHECK(grouped.ok());
    const double proposed_vt_ms = grouped->validation_micros / 1000.0;
    const double proposed_total_ms =
        (grouped->validation_micros + grouped->division_micros) / 1000.0;

    if (n <= max_baseline_n) {
      Result<ValidationTree> baseline_tree =
          ValidationTree::BuildFromLog(workload.log);
      GEOLIC_CHECK(baseline_tree.ok());
      Stopwatch baseline_timer;
      Result<ValidationReport> baseline = RunExhaustive(
          *baseline_tree, workload.licenses->AggregateCounts());
      const double baseline_ms = baseline_timer.ElapsedMillis();
      GEOLIC_CHECK(baseline.ok());
      std::printf("%4d  %8zu  %7d  %16.3f  %16.3f  %18.3f  %8.1fx\n", n,
                  workload.log.size(), grouped->group_count, baseline_ms,
                  proposed_vt_ms, proposed_total_ms,
                  baseline_ms / (proposed_total_ms > 0 ? proposed_total_ms
                                                       : 1e-9));
    } else {
      std::printf("%4d  %8zu  %7d  %16s  %16.3f  %18.3f  %9s\n", n,
                  workload.log.size(), grouped->group_count, "-",
                  proposed_vt_ms, proposed_total_ms, "-");
    }
  }
  std::printf("# expected shape: baseline grows ~2^N; proposed tracks "
              "sum(2^N_k); DT sliver vanishes for N > 2\n");
  return 0;
}

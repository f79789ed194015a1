// Ablation: index-ordered vs frequency-ordered validation trees (the
// prefix-tree ordering idea of the paper's reference [8] lineage). On
// skewed logs, relabeling hot licenses toward the root shrinks the tree
// and the per-equation traversals.
#include <cstdio>
#include <utility>

#include "bench/bench_util.h"
#include "bench/frequency_order.h"
#include "validation/validate.h"
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
  const int max_n = flags.Int("max_n", 22);
  const int step = flags.Int("step", 4);
  flags.Finish();

  std::printf("# Ablation: index-ordered vs frequency-ordered validation "
              "tree\n");
  std::printf("%4s  %12s  %12s  %12s  %12s  %8s\n", "N", "idx_nodes",
              "freq_nodes", "idx_VT_ms", "freq_VT_ms", "node_sav");

  for (int n = 6; n <= max_n; n += step) {
    Workload workload = PaperWorkload(n);
    const std::vector<int64_t> aggregates =
        workload.licenses->AggregateCounts();

    Result<ValidationTree> plain = ValidationTree::BuildFromLog(workload.log);
    GEOLIC_CHECK(plain.ok());
    Stopwatch plain_timer;
    Result<ValidationReport> plain_report =
        RunExhaustive(*plain, aggregates);
    const double plain_ms = plain_timer.ElapsedMillis();
    GEOLIC_CHECK(plain_report.ok());

    const Result<LicensePermutation> permutation =
        LicensePermutation::ByDescendingFrequency(workload.log, n);
    GEOLIC_CHECK(permutation.ok());
    Result<ValidationTree> ordered =
        BuildFrequencyOrderedTree(workload.log, *permutation);
    GEOLIC_CHECK(ordered.ok());
    Stopwatch ordered_timer;
    Result<ValidationReport> ordered_report =
        RunExhaustive(*ordered, permutation->MapValues(aggregates));
    const double ordered_ms = ordered_timer.ElapsedMillis();
    GEOLIC_CHECK(ordered_report.ok());
    GEOLIC_CHECK(ordered_report->violations.size() ==
                 plain_report->violations.size());

    std::printf("%4d  %12zu  %12zu  %12.3f  %12.3f  %7.1f%%\n", n,
                plain->NodeCount(), ordered->NodeCount(), plain_ms,
                ordered_ms,
                100.0 * (1.0 - static_cast<double>(ordered->NodeCount()) /
                                   static_cast<double>(plain->NodeCount())));
  }
  std::printf("# expected shape: frequency ordering never grows the tree; "
              "savings depend on log skew (paper-parameter logs are fairly "
              "uniform, so expect modest gains)\n");
  return 0;
}

// Figure 8: theoretical vs experimental gain.
//
// Theoretical gain is equation 3: G ≈ (2^N − 1) / Σ_k (2^{N_k} − 1).
// Experimental gain is measured baseline V_T divided by proposed V_T. The
// paper observes experimental ≥ theoretical, because each group's equations
// traverse only that group's (smaller) tree, skipping the redundant
// traversals of the original tree.
#include <cstdio>
#include <utility>

#include "validation/validate.h"
#include "bench/bench_util.h"
#include "core/gain.h"
#include "core/grouping.h"
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
  const int step = flags.Int("step", 2);
  const int repeats = flags.Int("repeats", 3);
  flags.Finish();

  std::printf("# Figure 8: theoretical vs experimental gain\n");
  std::printf("%4s  %7s  %12s  %16s  %18s\n", "N", "groups",
              "group_sizes", "theoretical_gain", "experimental_gain");

  int below = 0;
  for (int n = 2; n <= max_n; n += step) {
    Workload workload = PaperWorkload(n);
    const LicenseGrouping grouping =
        LicenseGrouping::FromLicenses(*workload.licenses);
    const std::vector<int> sizes = GroupSizes(grouping);
    const double theoretical = TheoreticalGain(sizes);

    // Median-ish: average over repeats to stabilise small-N timings.
    double baseline_total = 0.0;
    double proposed_total = 0.0;
    for (int r = 0; r < repeats; ++r) {
      Result<ValidationTree> baseline_tree =
          ValidationTree::BuildFromLog(workload.log);
      GEOLIC_CHECK(baseline_tree.ok());
      Stopwatch baseline_timer;
      Result<ValidationReport> baseline = RunExhaustive(
          *baseline_tree, workload.licenses->AggregateCounts());
      baseline_total += baseline_timer.ElapsedMicros();
      GEOLIC_CHECK(baseline.ok());

      Result<ValidationTree> grouped_tree =
          ValidationTree::BuildFromLog(workload.log);
      GEOLIC_CHECK(grouped_tree.ok());
      Result<ValidationOutcome> grouped =
          Validate(*workload.licenses, *std::move(grouped_tree),
                   {.mode = ValidationMode::kGrouped});
      GEOLIC_CHECK(grouped.ok());
      proposed_total += grouped->validation_micros;
    }
    const double experimental =
        proposed_total > 0 ? baseline_total / proposed_total : 0.0;
    if (experimental < theoretical) {
      ++below;
    }
    std::printf("%4d  %7d  %12s  %16.2f  %18.2f\n", n,
                grouping.group_count(), SizesToString(sizes).c_str(),
                theoretical, experimental);
  }
  std::printf("# expected shape: experimental >= theoretical (tree division "
              "also removes redundant traversals); points below: %d\n",
              below);
  return 0;
}

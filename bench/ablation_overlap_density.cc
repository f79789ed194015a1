// Ablation: how overlap density drives the paper's win. Sweeping the
// license-extent fraction (how much of its cluster slab a license covers)
// changes how often licenses overlap, hence the group structure, hence the
// theoretical and measured gain. Dense overlap ⇒ one big group ⇒ gain → 1;
// sparse overlap ⇒ many small groups ⇒ large gain.
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
  const int n = flags.Int("n", 18);
  flags.Finish();

  std::printf("# Ablation: overlap density (license extent) vs groups and "
              "gain, N=%d\n", n);
  std::printf("%8s  %7s  %12s  %16s  %18s\n", "extent", "groups",
              "group_sizes", "theoretical_gain", "experimental_gain");

  for (double extent :
       {0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.5, 0.7, 0.9}) {
    WorkloadConfig config = PaperSweepConfig(n);
    config.min_extent = extent * 0.8;
    config.max_extent = extent;
    config.num_clusters = 1;  // Single arena: density alone decides groups.
    WorkloadGenerator generator(config);
    Result<Workload> workload = generator.Generate();
    GEOLIC_CHECK(workload.ok());

    const LicenseGrouping grouping =
        LicenseGrouping::FromLicenses(*workload->licenses);
    const std::vector<int> sizes = GroupSizes(grouping);

    Result<ValidationTree> baseline_tree =
        ValidationTree::BuildFromLog(workload->log);
    GEOLIC_CHECK(baseline_tree.ok());
    Stopwatch baseline_timer;
    Result<ValidationReport> baseline = RunExhaustive(
        *baseline_tree, workload->licenses->AggregateCounts());
    const double baseline_us = baseline_timer.ElapsedMicros();
    GEOLIC_CHECK(baseline.ok());

    Result<ValidationTree> grouped_tree =
        ValidationTree::BuildFromLog(workload->log);
    GEOLIC_CHECK(grouped_tree.ok());
    Result<ValidationOutcome> grouped =
        Validate(*workload->licenses, *std::move(grouped_tree),
                 {.mode = ValidationMode::kGrouped});
    GEOLIC_CHECK(grouped.ok());

    std::printf("%8.2f  %7d  %12s  %16.2f  %18.2f\n", extent,
                grouping.group_count(), SizesToString(sizes).c_str(),
                TheoreticalGain(sizes),
                grouped->validation_micros > 0
                    ? baseline_us / grouped->validation_micros
                    : 0.0);
  }
  std::printf("# expected shape: gain decays toward 1 as overlap density "
              "grows\n");
  return 0;
}

// Regional-video scenario: a VOD distributor holding twenty redistribution
// licenses for one title, validated offline at scale.
//
// Demonstrates the full offline pipeline on a generated season of issuance
// logs: build the validation tree, identify overlap groups geometrically,
// divide the tree, validate each group, and compare the equation counts and
// wall-clock against the exhaustive baseline. Also persists the log to disk
// (text + binary, under $TEST_TMPDIR, else /tmp; both removed before exit)
// and reloads it, as a validation authority would.
//
// Build & run:  ./build/examples/regional_video
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "validation/validate.h"
#include "core/gain.h"
#include "workload/workload.h"
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

// `name` in $TEST_TMPDIR when set, else in /tmp.
std::string TempPath(const std::string& name) {
  const char* dir = std::getenv("TEST_TMPDIR");
  return std::string(dir != nullptr && *dir != '\0' ? dir : "/tmp") + "/" +
         name;
}

// Removes the files it names when it goes out of scope, so every exit path
// leaves none behind.
struct RemoveOnExit {
  std::vector<std::string> paths;
  ~RemoveOnExit() {
    for (const std::string& path : paths) {
      std::remove(path.c_str());
    }
  }
};

}  // namespace
}  // namespace geolic

int main() {
  using namespace geolic;  // NOLINT

  // A season of activity: 20 redistribution licenses across 5 disjoint
  // regions/launch-windows, ~12k issued licenses.
  WorkloadConfig config;
  config.num_licenses = 20;
  config.dimensions = 4;  // window, region code, resolution, device class.
  config.num_clusters = 5;
  config.num_records = 12000;
  config.seed = 1234;
  WorkloadGenerator generator(config);
  Result<Workload> workload = generator.Generate();
  if (!workload.ok()) {
    std::fprintf(stderr, "workload: %s\n",
                 workload.status().ToString().c_str());
    return 1;
  }
  std::printf("Generated %zu issuance records over %d redistribution "
              "licenses\n",
              workload->log.size(), workload->licenses->size());

  // Persist and reload the log as the validation authority would.
  const std::string text_path = TempPath("geolic_regional_video.log");
  const std::string binary_path = TempPath("geolic_regional_video.bin");
  const RemoveOnExit persisted{{text_path, binary_path}};
  if (!workload->log.SaveText(text_path).ok() ||
      !workload->log.SaveBinary(binary_path).ok()) {
    return 1;
  }
  Result<LogStore> reloaded = LogStore::LoadBinary(binary_path);
  if (!reloaded.ok() || reloaded->size() != workload->log.size()) {
    std::fprintf(stderr, "log round-trip failed\n");
    return 1;
  }
  std::printf("Log persisted to %s (text) and %s (binary), reloaded OK\n",
              text_path.c_str(), binary_path.c_str());

  // Exhaustive baseline: 2^20 - 1 equations.
  Result<ValidationTree> baseline_tree =
      ValidationTree::BuildFromLog(*reloaded);
  if (!baseline_tree.ok()) {
    return 1;
  }
  Stopwatch baseline_timer;
  Result<ValidationReport> baseline = RunExhaustive(
      *baseline_tree, workload->licenses->AggregateCounts());
  const double baseline_ms = baseline_timer.ElapsedMillis();
  if (!baseline.ok()) {
    return 1;
  }
  std::printf("\nExhaustive baseline: %llu equations in %.2f ms — %s\n",
              static_cast<unsigned long long>(baseline->equations_evaluated),
              baseline_ms,
              baseline->all_valid()
                  ? "no violations"
                  : (std::to_string(baseline->violations.size()) +
                     " violations")
                        .c_str());

  // Proposed grouped validation.
  Result<ValidationTree> grouped_tree =
      ValidationTree::BuildFromLog(*reloaded);
  if (!grouped_tree.ok()) {
    return 1;
  }
  Result<ValidationOutcome> grouped =
      Validate(*workload->licenses, *std::move(grouped_tree),
               {.mode = ValidationMode::kGrouped});
  if (!grouped.ok()) {
    return 1;
  }
  std::printf("Grouped validation:  %llu equations in %.2f ms "
              "(+%.2f ms division) across %d groups — %s\n",
              static_cast<unsigned long long>(
                  grouped->report.equations_evaluated),
              grouped->validation_micros / 1000.0,
              grouped->division_micros / 1000.0, grouped->group_count,
              grouped->report.all_valid()
                  ? "no violations"
                  : (std::to_string(grouped->report.violations.size()) +
                     " violations")
                        .c_str());
  std::printf("Theoretical gain %.1fx; measured %.1fx\n",
              TheoreticalGain(grouped->group_sizes),
              baseline_ms > 0
                  ? baseline_ms / ((grouped->validation_micros +
                                    grouped->division_micros) /
                                   1000.0)
                  : 0.0);

  // Violation sets (if any) agree between the two validators on
  // group-internal equations; print whichever the grouped run found.
  for (const EquationResult& violation : grouped->report.violations) {
    std::printf("  violated: C<%s> = %lld > %lld\n",
                (violation.set).ToString().c_str(),
                static_cast<long long>(violation.lhs),
                static_cast<long long>(violation.rhs));
  }
  return 0;
}

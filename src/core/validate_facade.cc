// Implements the LicenseCatalog overloads of the Validate facade
// (validation/validate.h). They live in geolic_core because the grouped
// modes dispatch into grouping and tree division; the tree/log overloads
// are in validation/validate.cc.
#include <algorithm>
#include <utility>
#include <vector>

#include "core/grouping.h"
#include "core/tree_division.h"
#include "validation/validate.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace geolic {
namespace {

// The grouped pipeline: grouping + division (D_T), then per-group equation
// evaluation (V_T, Algorithm 2) — serially or with one task per group.
Result<ValidationOutcome> RunGrouped(const LicenseCatalog& licenses,
                                     ValidationTree tree, int num_threads) {
  ValidationOutcome outcome;

  Stopwatch division_timer;
  const LicenseGrouping grouping = LicenseGrouping::FromLicenses(licenses);
  outcome.group_count = grouping.group_count();
  for (int k = 0; k < grouping.group_count(); ++k) {
    outcome.group_sizes.push_back(grouping.GroupSize(k));
  }
  GEOLIC_ASSIGN_OR_RETURN(
      DividedTrees divided,
      DivideAndReindex(std::move(tree), grouping,
                       licenses.AggregateCounts()));
  outcome.division_micros = division_timer.ElapsedMicros();

  const int g = grouping.group_count();
  const auto validate_group = [&](int k) -> Result<ValidationReport> {
    const ValidationTree& group_tree = divided.trees[static_cast<size_t>(k)];
    const std::vector<int64_t>& group_aggregates =
        divided.aggregates[static_cast<size_t>(k)];
    Result<ValidationOutcome> group_outcome =
        Validate(group_tree, group_aggregates,
                 {.mode = ValidationMode::kExhaustive});
    if (!group_outcome.ok()) return group_outcome.status();
    return std::move(group_outcome->report);
  };

  Stopwatch validation_timer;
  std::vector<Result<ValidationReport>> group_reports(
      static_cast<size_t>(g), Status::Internal("not run"));
  if (num_threads > 1 && g > 1) {
    ThreadPool pool(std::min(num_threads, g));
    for (int k = 0; k < g; ++k) {
      pool.Schedule([&validate_group, &group_reports, k] {
        group_reports[static_cast<size_t>(k)] = validate_group(k);
      });
    }
    pool.Wait();
  } else {
    for (int k = 0; k < g; ++k) {
      group_reports[static_cast<size_t>(k)] = validate_group(k);
    }
  }

  // Merge in ascending group order so the report is deterministic and
  // byte-identical to the serial run.
  for (int k = 0; k < g; ++k) {
    Result<ValidationReport>& group_report =
        group_reports[static_cast<size_t>(k)];
    if (!group_report.ok()) {
      return group_report.status();
    }
    outcome.report.equations_evaluated += group_report->equations_evaluated;
    outcome.report.nodes_visited += group_report->nodes_visited;
    for (const EquationResult& violation : group_report->violations) {
      EquationResult translated = violation;
      translated.set = grouping.LocalToOriginalMask(k, violation.set);
      outcome.report.violations.push_back(translated);
    }
  }
  outcome.validation_micros = validation_timer.ElapsedMicros();
  return outcome;
}

// kAuto means kGrouped here: the licenses' geometry is at hand.
bool Ungrouped(ValidationMode mode) {
  return mode == ValidationMode::kExhaustive || mode == ValidationMode::kZeta;
}

}  // namespace

Result<ValidationOutcome> Validate(const LicenseCatalog& licenses,
                                   ValidationTree tree,
                                   const ValidateOptions& options) {
  if (Ungrouped(options.mode)) {
    return Validate(tree, licenses.AggregateCounts(), options);
  }
  const int threads = options.num_threads == 0
                          ? ThreadPool::DefaultThreadCount()
                          : options.num_threads;
  return RunGrouped(licenses, std::move(tree), threads);
}

Result<ValidationOutcome> Validate(const LicenseCatalog& licenses,
                                   const LogStore& log,
                                   const ValidateOptions& options) {
  if (Ungrouped(options.mode)) {
    return Validate(log, licenses.AggregateCounts(), options);
  }
  GEOLIC_ASSIGN_OR_RETURN(ValidationTree tree,
                          ValidationTree::BuildFromLog(log));
  return Validate(licenses, std::move(tree), options);
}

}  // namespace geolic

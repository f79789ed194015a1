#include "bench/incremental_auditor.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "validation/flat_tree.h"

namespace geolic {

IncrementalAuditor::IncrementalAuditor(const LicenseCatalog* licenses,
                                       LicenseGrouping grouping)
    : licenses_(licenses), grouping_(std::move(grouping)) {
  const int g = grouping_.group_count();
  group_trees_.resize(static_cast<size_t>(g));
  group_aggregates_.reserve(static_cast<size_t>(g));
  const std::vector<int64_t> aggregates = licenses_->AggregateCounts();
  for (int k = 0; k < g; ++k) {
    Result<std::vector<int64_t>> group = grouping_.GroupAggregates(
        k, aggregates);
    GEOLIC_CHECK(group.ok());
    group_aggregates_.push_back(*std::move(group));
  }
}

Result<IncrementalAuditor> IncrementalAuditor::Create(
    const LicenseCatalog* licenses) {
  if (licenses == nullptr || licenses->empty()) {
    return Status::InvalidArgument(
        "incremental auditor needs at least one redistribution license");
  }
  return IncrementalAuditor(licenses,
                            LicenseGrouping::FromLicenses(*licenses));
}

Result<ValidationReport> IncrementalAuditor::IngestBatch(
    const std::vector<LogRecord>& batch) {
  // Phase 1: insert the records and collect the distinct dirty seed sets
  // per group (in local positions).
  std::vector<std::unordered_set<LicenseSet>> seeds(
      static_cast<size_t>(grouping_.group_count()));
  for (const LogRecord& record : batch) {
    if (record.set.Empty() || record.count <= 0) {
      return Status::InvalidArgument("malformed log record in batch");
    }
    if (!record.set.IsSubsetOf(licenses_->AllMask())) {
      return Status::InvalidArgument(
          "record references unknown license indexes: " +
          (record.set).ToString());
    }
    const int group = grouping_.GroupOf((record.set).Lowest());
    GEOLIC_ASSIGN_OR_RETURN(
        const LicenseSet local,
        grouping_.OriginalToLocalMask(group, record.set));
    GEOLIC_RETURN_IF_ERROR(group_trees_[static_cast<size_t>(group)].Insert(
        local, record.count));
    seeds[static_cast<size_t>(group)].insert(local);
    ++records_ingested_;
  }

  // Phase 2: per group, enumerate and evaluate the dirty equations — every
  // T within the group with T ⊇ S for some seed S, deduplicated.
  ValidationReport report;
  for (int k = 0; k < grouping_.group_count(); ++k) {
    const auto& group_seeds = seeds[static_cast<size_t>(k)];
    if (group_seeds.empty()) {
      continue;
    }
    const LicenseSet group_full = LicenseSet::Full(grouping_.GroupSize(k));
    std::unordered_set<LicenseSet> dirty;
    for (const LicenseSet& seed : group_seeds) {
      for (AscendingSubsetIterator it(group_full - seed); !it.Done();
           it.Next()) {
        dirty.insert(seed | it.subset());
      }
    }
    // Deterministic order for the report.
    std::vector<LicenseSet> ordered(dirty.begin(), dirty.end());
    std::sort(ordered.begin(), ordered.end());

    // The group tree just absorbed this batch's inserts and is static for
    // the rest of the audit: compile it flat once and evaluate every dirty
    // equation against the pruned arena form.
    const FlatValidationTree flat =
        FlatValidationTree::Compile(group_trees_[static_cast<size_t>(k)]);
    const std::vector<int64_t>& aggregates =
        group_aggregates_[static_cast<size_t>(k)];
    std::vector<int64_t> sums(ordered.size(), 0);
    flat.SumSubsetsBatch(ordered, sums, &report.nodes_visited);
    for (size_t e = 0; e < ordered.size(); ++e) {
      const LicenseSet set = ordered[e];
      int64_t av = 0;
      for (int j = 0; j < grouping_.GroupSize(k); ++j) {
        if ((set).Contains(j)) {
          av += aggregates[static_cast<size_t>(j)];
        }
      }
      ++report.equations_evaluated;
      if (sums[e] > av) {
        report.violations.push_back(EquationResult{
            grouping_.LocalToOriginalMask(k, set), sums[e], av});
      }
    }
  }
  std::sort(report.violations.begin(), report.violations.end(),
            [](const EquationResult& a, const EquationResult& b) {
              return a.set < b.set;
            });
  equations_evaluated_total_ += report.equations_evaluated;
  return report;
}

}  // namespace geolic

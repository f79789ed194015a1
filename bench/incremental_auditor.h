#ifndef GEOLIC_BENCH_INCREMENTAL_AUDITOR_H_
#define GEOLIC_BENCH_INCREMENTAL_AUDITOR_H_

#include <vector>

#include "core/grouping.h"
#include "licensing/license_catalog.h"
#include "validation/log_record.h"
#include "validation/validation_report.h"
#include "validation/validation_tree.h"
#include "util/status.h"

namespace geolic {

// Incremental offline auditing. The paper runs offline validation
// periodically over the full log; between two runs only the equations
// whose LHS actually grew — supersets (within the overlap group) of the
// newly logged sets — can change verdict, because counts only increase.
// This auditor keeps the divided per-group trees from the previous run and
// re-evaluates exactly those dirty equations per batch, instead of all
// Σ_k (2^{N_k} − 1). Dirty groups are compiled into a FlatValidationTree
// once per batch, so every dirty equation runs on the pruned arena form.
//
// Guarantees (tested): after ingesting the whole log in any batch split,
// the union of reported violations equals the violations of a full
// from-scratch grouped audit, and the last-reported LHS per violated set
// equals the final audit's LHS.
class IncrementalAuditor {
 public:
  // The grouping is fixed at creation (a fresh auditor is built when the
  // license set changes).
  static Result<IncrementalAuditor> Create(const LicenseCatalog* licenses);

  // Ingests a batch of new log records and re-validates the affected
  // equations. The returned report's `equations_evaluated` counts only the
  // dirty equations; `violations` lists each violated dirty equation (in
  // original license indexes, ascending).
  Result<ValidationReport> IngestBatch(const std::vector<LogRecord>& batch);

  // Total records ingested so far.
  size_t records_ingested() const { return records_ingested_; }
  // Total equations re-evaluated over the auditor's lifetime.
  uint64_t equations_evaluated_total() const {
    return equations_evaluated_total_;
  }

  const LicenseGrouping& grouping() const { return grouping_; }

 private:
  IncrementalAuditor(const LicenseCatalog* licenses, LicenseGrouping grouping);

  const LicenseCatalog* licenses_;
  LicenseGrouping grouping_;
  // One tree per group, node indexes in group-local positions.
  std::vector<ValidationTree> group_trees_;
  std::vector<std::vector<int64_t>> group_aggregates_;
  size_t records_ingested_ = 0;
  uint64_t equations_evaluated_total_ = 0;
};

}  // namespace geolic

#endif  // GEOLIC_BENCH_INCREMENTAL_AUDITOR_H_

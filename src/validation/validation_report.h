#ifndef GEOLIC_VALIDATION_VALIDATION_REPORT_H_
#define GEOLIC_VALIDATION_VALIDATION_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/license_set.h"

namespace geolic {

// Outcome of one validation equation C⟨S⟩ ≤ A[S].
struct EquationResult {
  LicenseSet set;  // S, in original (pre-division) license indexes.
  int64_t lhs = 0;      // C⟨S⟩ — issued counts attributable to S.
  int64_t rhs = 0;      // A[S] — aggregate budget of S.

  bool valid() const { return lhs <= rhs; }
};

// Outcome of an offline aggregate validation pass.
struct ValidationReport {
  // Every violated equation (lhs > rhs), in enumeration order.
  std::vector<EquationResult> violations;
  // Number of equations evaluated (the paper's key cost metric: 2^N − 1 for
  // the baseline, Σ_k (2^{N_k} − 1) after grouping).
  uint64_t equations_evaluated = 0;
  // Tree nodes touched while computing LHS values (secondary cost metric;
  // explains why the experimental gain exceeds the theoretical one).
  uint64_t nodes_visited = 0;

  bool all_valid() const { return violations.empty(); }

  // "OK (31 equations)" or a per-violation listing.
  std::string ToString() const;
};

}  // namespace geolic

#endif  // GEOLIC_VALIDATION_VALIDATION_REPORT_H_

#ifndef GEOLIC_CORE_CAPACITY_H_
#define GEOLIC_CORE_CAPACITY_H_

#include <cstdint>

#include "core/grouping.h"
#include "licensing/license_catalog.h"
#include "validation/validation_tree.h"
#include "util/status.h"

namespace geolic {

// How many more permission counts can be issued for a given satisfying
// set S without violating any validation equation. A new issuance with set
// S and count c raises C⟨T⟩ by c for every T ⊇ S, so the headroom is
//
//   min over T ⊇ S (within S's overlap group) of A[T] − C⟨T⟩.
//
// This is the number a distributor storefront shows as "remaining
// inventory for this region/period" — and exactly the largest count
// IssuanceService::TryIssue would still accept for S (tested against it).
struct CapacityQuote {
  // Maximum additional counts issuable against S (0 when some equation is
  // already tight or violated; never negative).
  int64_t remaining = 0;
  // The binding equation's set and slack.
  LicenseSet binding_set;
  int64_t binding_slack = 0;  // May be negative if already violated.
};

// Computes the quote from the running validation tree of accepted
// issuances. `set` must be a non-empty subset of `licenses`' mask whose
// members all lie in one overlap group of `grouping` (always true for
// geometrically derived satisfying sets). Cost: 2^(N_g − |S|) equation
// evaluations.
Result<CapacityQuote> RemainingCapacity(const LicenseCatalog& licenses,
                                        const LicenseGrouping& grouping,
                                        const ValidationTree& tree,
                                        const LicenseSet& set);

}  // namespace geolic

#endif  // GEOLIC_CORE_CAPACITY_H_

#ifndef GEOLIC_SIM_REFERENCE_MODEL_H_
#define GEOLIC_SIM_REFERENCE_MODEL_H_

#include <cstdint>
#include <map>
#include <vector>

#include "licensing/license_catalog.h"
#include "util/license_set.h"
#include "util/status.h"

namespace geolic {

// Executable specification of online admission, straight from the paper's
// definitions and nothing else: a map from satisfying set to issued count,
// with every query answered by brute force. No validation tree, no
// grouping, no pruning, no sharding — eq. 1 (`C⟨S⟩ ≤ A[S]` for every
// subset S) evaluated literally. The simulation harness checks every
// optimized path (geometric instance lookup, grouped equation scoping,
// flat-tree scans, sharded admission, journal recovery) against this model
// after every step; the two may disagree only if one of the optimization
// layers is wrong.
//
// Deliberately small and slow (exponential in N): its value is being
// obviously correct. Keep it free of anything clever.
class ReferenceModel {
 public:
  // Mirror of OnlineDecision, recomputed from first principles.
  struct Decision {
    bool instance_valid = false;
    bool aggregate_valid = false;
    LicenseSet satisfying_set;
    // First violated equation in ascending-extension enumeration order
    // (meaningful only when aggregate_valid is false).
    LicenseSet limiting_set;
    int64_t limiting_lhs = 0;
    int64_t limiting_rhs = 0;

    bool accepted() const { return instance_valid && aggregate_valid; }
  };

  // `licenses` must outlive the model. Overlap components of the license
  // geometry are computed here once, from first principles (pairwise
  // rectangle overlap + union-find) — deliberately NOT from the production
  // grouping code, whose equivalence is among the things on trial.
  explicit ReferenceModel(const LicenseCatalog* licenses);

  // Decides `issued` against the current counts without recording it.
  // Definitionally: S = every redistribution license whose region contains
  // the request; accept iff for ALL T with S ⊆ T ⊆ the full license set,
  // C⟨T⟩ + count ≤ A[T]. (No grouping: Theorem 2 says scoping T to S's
  // overlap group decides identically — that equivalence is exactly what
  // conformance checking puts on trial.)
  Decision TryIssue(const License& issued) const;

  // Records an accepted issuance.
  void Apply(const LicenseSet& set, int64_t count);

  // C⟨T⟩: total count over every recorded set that is a subset of `t`,
  // by linear scan of the map.
  int64_t SumSubsets(const LicenseSet& t) const;

  // Verifies eq. 1 for EVERY subset of the license set (2^N equations —
  // keep N small). The safety property proper: if this ever fails after
  // the model mirrored only service-accepted issuances, the service
  // over-issued.
  Status CheckInvariant() const;

  const std::map<LicenseSet, int64_t>& counts() const { return counts_; }

  // The geometric overlap components (disjoint, covering all licenses).
  // Exposed so exhaustive external sweeps can factor the same way the
  // model's own enumeration does.
  const std::vector<LicenseSet>& components() const { return components_; }

 private:
  // The overlap component containing `set` (every satisfying set lies in
  // one component: its licenses all contain the request, so they pairwise
  // overlap).
  LicenseSet ComponentOf(const LicenseSet& set) const;

  const LicenseCatalog* licenses_;
  // Geometric overlap components; equation enumeration factors across
  // them (see the lemma in reference_model.cc), which is what keeps the
  // brute force feasible past a few dozen licenses.
  std::vector<LicenseSet> components_;
  std::map<LicenseSet, int64_t> counts_;
};

}  // namespace geolic

#endif  // GEOLIC_SIM_REFERENCE_MODEL_H_

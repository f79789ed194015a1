#include "sim/reference_model.h"

#include <map>
#include <string>
#include <vector>

#include "licensing/license.h"
#include "util/check.h"

namespace geolic {

// Factoring lemma (why scoping equation checks to one geometric overlap
// component is still the literal brute force, not an optimization on
// trial): every recorded set lies inside a single component, so for any T
// the sum C<T> splits as sum_c C<T ∩ c> and the budget A[T] as
// sum_c A[T ∩ c]. If every within-component equation holds, every
// cross-component equation is a sum of satisfied inequalities; and a
// violated T implies its projection onto the new issuance's component is a
// violated within-component equation that ascending enumeration reaches
// first (it is a numerically smaller subset of T). Hence both the verdict
// and the first-violation witness are unchanged — only the enumeration
// domain shrinks from 2^N to 2^{component size}.
ReferenceModel::ReferenceModel(const LicenseCatalog* licenses)
    : licenses_(licenses) {
  // Union-find over pairwise rectangle overlap, transcribed directly.
  const int n = licenses_->size();
  std::vector<int> parent(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    parent[static_cast<size_t>(i)] = i;
  }
  const auto find = [&parent](int x) {
    while (parent[static_cast<size_t>(x)] != x) {
      x = parent[static_cast<size_t>(x)];
    }
    return x;
  };
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (licenses_->at(i).rect().Overlaps(licenses_->at(j).rect())) {
        parent[static_cast<size_t>(find(i))] = find(j);
      }
    }
  }
  std::map<int, LicenseSet> by_root;
  for (int i = 0; i < n; ++i) {
    by_root[find(i)] |= LicenseSet::Singleton(i);
  }
  for (const auto& [root, component] : by_root) {
    components_.push_back(component);
  }
}

LicenseSet ReferenceModel::ComponentOf(const LicenseSet& set) const {
  for (const LicenseSet& component : components_) {
    if (set.Intersects(component)) {
      // A satisfying set never spans components.
      GEOLIC_CHECK(set.IsSubsetOf(component));
      return component;
    }
  }
  GEOLIC_CHECK(false);  // set must be non-empty and within the catalog.
  return LicenseSet();
}

ReferenceModel::Decision ReferenceModel::TryIssue(
    const License& issued) const {
  Decision decision;
  // S by definition: every redistribution license containing the request.
  for (int i = 0; i < licenses_->size(); ++i) {
    if (licenses_->at(i).InstanceContains(issued)) {
      decision.satisfying_set |= LicenseSet::Singleton(i);
    }
  }
  if (decision.satisfying_set.Empty()) {
    return decision;
  }
  decision.instance_valid = true;

  // Eq. 1 over every T ⊇ S, no scoping: accept iff all hold. Enumeration
  // walks extensions of S in ascending numeric order, the same total order
  // the optimized scans use, so "first violated equation" is comparable.
  const int64_t count = issued.aggregate_count();
  decision.aggregate_valid = true;
  for (AscendingSubsetIterator it(ComponentOf(decision.satisfying_set) -
                                  decision.satisfying_set);
       !it.Done(); it.Next()) {
    const LicenseSet t = decision.satisfying_set | it.subset();
    const int64_t lhs = SumSubsets(t) + count;
    const int64_t rhs = licenses_->AggregateSum(t);
    if (lhs > rhs) {
      decision.aggregate_valid = false;
      decision.limiting_set = t;
      decision.limiting_lhs = lhs;
      decision.limiting_rhs = rhs;
      break;
    }
  }
  return decision;
}

void ReferenceModel::Apply(const LicenseSet& set, int64_t count) {
  counts_[set] += count;
}

int64_t ReferenceModel::SumSubsets(const LicenseSet& t) const {
  int64_t sum = 0;
  for (const auto& [set, count] : counts_) {
    if (set.IsSubsetOf(t)) {
      sum += count;
    }
  }
  return sum;
}

Status ReferenceModel::CheckInvariant() const {
  // Every non-empty within-component T; cross-component equations follow
  // by the factoring lemma above.
  for (const LicenseSet& component : components_) {
    for (SubsetIterator it(component); !it.Done(); it.Next()) {
      const LicenseSet t = it.subset();
      const int64_t lhs = SumSubsets(t);
      const int64_t rhs = licenses_->AggregateSum(t);
      if (lhs > rhs) {
        return Status::Internal("eq. 1 violated: C<" + t.ToHex() +
                                "> = " + std::to_string(lhs) + " > A[T] = " +
                                std::to_string(rhs));
      }
    }
  }
  return Status::Ok();
}

}  // namespace geolic

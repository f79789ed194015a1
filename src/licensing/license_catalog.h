#ifndef GEOLIC_LICENSING_LICENSE_CATALOG_H_
#define GEOLIC_LICENSING_LICENSE_CATALOG_H_

#include <string>
#include <vector>

#include "licensing/constraint_schema.h"
#include "licensing/license.h"
#include "util/license_set.h"
#include "util/status.h"

namespace geolic {

// The N redistribution licenses a distributor holds for one content and
// permission — the paper's S^N = [L_D^1 .. L_D^N]. Licenses are addressed by
// their 0-based index (the paper's L_D^{index+1}); sets of them are
// LicenseSet bitsets. Enforces a uniform content key, permission, schema
// dimensionality, and the kMaxLicensesLarge cap.
class LicenseCatalog {
 public:
  // `schema` must outlive the set.
  explicit LicenseCatalog(const ConstraintSchema* schema) : schema_(schema) {}

  // Adds a redistribution license and returns its index. Fails if the
  // license is not a redistribution license, disagrees with the set's
  // content/permission/dimensionality, duplicates an existing id, or would
  // exceed kMaxLicensesLarge licenses.
  Result<int> Add(License license);

  // A catalog of `licenses` in order, with Add's checks and errors, in
  // O(N): duplicate ids are found through a hash set instead of Add's scan
  // of every earlier id.
  static Result<LicenseCatalog> FromLicenses(const ConstraintSchema* schema,
                                             std::vector<License> licenses);

  // This catalog minus the licenses in `removed`, survivors in index
  // order. They passed Add's checks here, so the copy is O(N) with none
  // re-run.
  LicenseCatalog Without(const LicenseSet& removed) const;

  int size() const { return static_cast<int>(licenses_.size()); }
  bool empty() const { return licenses_.empty(); }

  const License& at(int index) const {
    return licenses_[static_cast<size_t>(index)];
  }
  const std::vector<License>& licenses() const { return licenses_; }
  // Every license's hyper-rectangle by index, in place: what the
  // structures derived from the catalog's geometry are built from.
  std::vector<const HyperRect*> Rects() const;
  const ConstraintSchema& schema() const { return *schema_; }

  // Mask of all N licenses.
  LicenseSet AllMask() const { return LicenseSet::Full(size()); }

  // The paper's array A: aggregate constraint count per license, by index.
  std::vector<int64_t> AggregateCounts() const;

  // Sum of aggregate counts over the licenses in `mask` — the paper's A[S],
  // the RHS of the validation equation for S.
  int64_t AggregateSum(const LicenseSet& mask) const;

  // Index of the license with `id`, or NOT_FOUND.
  Result<int> IndexOfId(const std::string& id) const;

 private:
  // Add's checks of `license` as the catalog's next license, except the
  // duplicate id.
  Status CheckNext(const License& license) const;

  const ConstraintSchema* schema_;
  std::vector<License> licenses_;
};

}  // namespace geolic

#endif  // GEOLIC_LICENSING_LICENSE_CATALOG_H_

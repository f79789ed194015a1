#ifndef GEOLIC_CORE_INSTANCE_VALIDATOR_H_
#define GEOLIC_CORE_INSTANCE_VALIDATOR_H_

#include "geometry/rtree.h"
#include "geometry/soa_rects.h"
#include "licensing/license_catalog.h"
#include "util/license_set.h"
#include "util/status.h"

namespace geolic {

// Instance-based validation: each class below finds, for a newly generated
// license, the set S of redistribution licenses whose instance-based
// constraints it satisfies — geometrically, the licenses whose
// hyper-rectangle completely contains the new license's (paper Section
// 3.1). S is what gets appended to the log; an empty S means the license
// fails instance-based validation outright (the paper's L_U^2 in figure 2).
// The three lookups return identical sets on every input.

// O(N) scan over the license set. For a single content's N ≤ 64 licenses
// this is typically fastest.
class LinearInstanceValidator {
 public:
  // `licenses` must outlive the validator.
  explicit LinearInstanceValidator(const LicenseCatalog* licenses);

  // Mask of redistribution licenses containing `issued`.
  LicenseSet SatisfyingSet(const License& issued) const;

 private:
  const LicenseCatalog* licenses_;
};

// SoA column-sweep scan (geometry/soa_rects.h): the per-license rect loop
// becomes contiguous per-dimension sweeps through the runtime-dispatched
// SIMD kernels, with one scalar content/permission compare covering the
// whole catalog (uniform by construction). Bit-identical results to
// LinearInstanceValidator on every input.
class SoaInstanceValidator {
 public:
  // `licenses` must outlive the validator.
  explicit SoaInstanceValidator(const LicenseCatalog* licenses);

  LicenseSet SatisfyingSet(const License& issued) const;

 private:
  const LicenseCatalog* licenses_;
  SoaRects rects_;
};

// R-tree-backed lookup: candidate licenses come from a containment query on
// interval bounding boxes, then exact hyper-rectangle tests confirm. Pays
// off for large catalogues; ablated against the linear scan in bench/.
class RtreeInstanceValidator {
 public:
  // Builds the index over `licenses` (which must outlive the validator).
  static Result<RtreeInstanceValidator> Build(const LicenseCatalog* licenses);

  LicenseSet SatisfyingSet(const License& issued) const;

 private:
  RtreeInstanceValidator(const LicenseCatalog* licenses, Rtree index);

  const LicenseCatalog* licenses_;
  Rtree index_;
};

}  // namespace geolic

#endif  // GEOLIC_CORE_INSTANCE_VALIDATOR_H_

#ifndef GEOLIC_CORE_INSTANCE_VALIDATOR_H_
#define GEOLIC_CORE_INSTANCE_VALIDATOR_H_

#include "geometry/soa_rects.h"
#include "licensing/license_catalog.h"
#include "util/license_set.h"

namespace geolic {

// Instance-based validation: finds, for a newly generated license, the set
// S of redistribution licenses whose instance-based constraints it
// satisfies — geometrically, the licenses whose hyper-rectangle completely
// contains the new license's (paper Section 3.1). S is what gets appended
// to the log; an empty S means the license fails instance-based validation
// outright (the paper's L_U^2 in figure 2).
//
// SoA column-sweep scan (geometry/soa_rects.h): the per-license rect loop
// becomes contiguous per-dimension sweeps through the runtime-dispatched
// SIMD kernels, with one scalar content/permission compare covering the
// whole catalog (uniform by construction). Bit-identical to a
// License::InstanceContains loop over the catalog on every input.
class SoaInstanceValidator {
 public:
  // Compiles the catalog's geometry once; `licenses` must outlive the
  // validator, and licenses added to it later are not seen.
  explicit SoaInstanceValidator(const LicenseCatalog* licenses);

  // Mask of redistribution licenses containing `issued`.
  LicenseSet SatisfyingSet(const License& issued) const;

 private:
  const LicenseCatalog* licenses_;
  SoaRects rects_;
};

}  // namespace geolic

#endif  // GEOLIC_CORE_INSTANCE_VALIDATOR_H_

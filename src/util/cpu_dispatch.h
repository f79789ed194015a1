#ifndef GEOLIC_UTIL_CPU_DISPATCH_H_
#define GEOLIC_UTIL_CPU_DISPATCH_H_

#include "util/simd_kernels.h"

namespace geolic {
namespace simd {

// Vector ISA tiers the kernels are built for, widest last. The dispatcher
// probes the host once (first call) and every hot path reads the cached
// result — requests never re-probe.
enum class Tier {
  kScalar = 0,
  kAvx2 = 2,
};

const char* TierName(Tier tier);

// True when the host can execute `tier` (kScalar is always true). Reports
// raw hardware capability — forcing scalar does not change it.
bool TierAvailable(Tier tier);

// The tier the hot paths will use: the widest available one, unless scalar
// is forced. Scalar is forced by either the GEOLIC_FORCE_SCALAR compile
// definition (CMake -DGEOLIC_FORCE_SCALAR=ON) or a non-empty, non-"0"
// GEOLIC_FORCE_SCALAR environment variable at first use — the CI fallback
// row and the A/B rows of the ablations use the env form on an ordinary
// build. Cached after the first call; changing the env later has no
// effect.
Tier ActiveTier();

// Kernel table for ActiveTier().
const Kernels& ActiveKernels();

// Kernel table for an explicit tier — the equivalence tests and ablation
// A/B rows run every available tier over the same inputs. Callers must
// check TierAvailable first for kAvx2.
const Kernels& KernelsForTier(Tier tier);

}  // namespace simd
}  // namespace geolic

#endif  // GEOLIC_UTIL_CPU_DISPATCH_H_

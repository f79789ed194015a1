#include "util/cpu_dispatch.h"

#include <cstdlib>
#include <cstring>

namespace geolic {
namespace simd {
namespace {

bool ForceScalar() {
#ifdef GEOLIC_FORCE_SCALAR
  return true;
#else
  const char* env = std::getenv("GEOLIC_FORCE_SCALAR");
  return env != nullptr && *env != '\0' && std::strcmp(env, "0") != 0;
#endif
}

Tier Detect() {
  if (ForceScalar()) {
    return Tier::kScalar;
  }
  if (TierAvailable(Tier::kAvx2)) {
    return Tier::kAvx2;
  }
  return Tier::kScalar;
}

}  // namespace

const char* TierName(Tier tier) {
  switch (tier) {
    case Tier::kScalar:
      return "scalar";
    case Tier::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool TierAvailable(Tier tier) {
  switch (tier) {
    case Tier::kScalar:
      return true;
    case Tier::kAvx2:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
  }
  return false;
}

Tier ActiveTier() {
  static const Tier tier = Detect();
  return tier;
}

const Kernels& ActiveKernels() {
  static const Kernels& kernels = KernelsForTier(ActiveTier());
  return kernels;
}

const Kernels& KernelsForTier(Tier tier) {
  switch (tier) {
    case Tier::kScalar:
      return ScalarKernels();
    case Tier::kAvx2:
      return Avx2Kernels();
  }
  return ScalarKernels();
}

}  // namespace simd
}  // namespace geolic

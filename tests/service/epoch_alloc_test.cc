// Allocation budget of an epoch build: IssuanceService::Create reads the
// catalog in place, so its heap allocations follow the number of derived
// arrays (and of overlap groups above the dense cap), not the number of
// licenses. The counting hook (alloc_counter.h) sees every allocation in
// the process; each count is taken around one Create on this thread. Dense
// scopes' member masks come from the LicenseSet span pool; with the pool
// compiled out (GEOLIC_LICENSE_SET_NO_POOL, the sanitizer builds) they
// allocate per group and the test is skipped.
#include <cstdint>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "alloc_counter.h"
#include "licensing/license_catalog.h"
#include "service/issuance_service.h"
#include "test_util.h"

namespace geolic {
namespace {

using testing::IntervalSchema;
using testing::MakeRedistribution;

// The wire benchmark's layout: n / 2 disjoint groups of two overlapping
// one-dimensional licenses, [1000g, 1000g + 20] and [1000g + 10, 1000g + 30].
LicenseCatalog PairsCatalog(const ConstraintSchema& schema, int n) {
  LicenseCatalog licenses(&schema);
  for (int i = 0; i < n; ++i) {
    const int64_t lo = 1000 * (i / 2) + 10 * (i % 2);
    GEOLIC_CHECK(licenses
                     .Add(MakeRedistribution(schema, "L" + std::to_string(i),
                                             {{lo, lo + 20}}, 1 << 20))
                     .ok());
  }
  return licenses;
}

// Heap allocations of one Create over `licenses` (the service included),
// after one untimed Create has warmed every lazily built process state.
uint64_t CreateAllocations(const LicenseCatalog& licenses) {
  GEOLIC_CHECK(IssuanceService::Create(&licenses).ok());
  const uint64_t before = testing::AllocationCount();
  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::Create(&licenses);
  const uint64_t allocations = testing::AllocationCount() - before;
  GEOLIC_CHECK(service.ok());
  return allocations;
}

TEST(EpochAllocTest, CreateOnPairsAllocatesPerArrayNotPerLicense) {
#ifdef GEOLIC_LICENSE_SET_NO_POOL
  GTEST_SKIP() << "LicenseSet span pool compiled out (sanitizer build)";
#endif
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog pairs128 = PairsCatalog(schema, 128);
  const LicenseCatalog pairs1022 = PairsCatalog(schema, 1022);
  const uint64_t at128 = CreateAllocations(pairs128);
  const uint64_t at1022 = CreateAllocations(pairs1022);
  // 64 and 511 groups: the allocations are a fixed number of arrays (23
  // for either catalog when measured). A per-license or per-group
  // allocation would show as 64+ and 511+ more.
  EXPECT_LE(at128, 30u);
  EXPECT_EQ(at1022, at128);
}

}  // namespace
}  // namespace geolic

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_counter.h"
#include "service/issuance_service.h"
#include "test_util.h"

// Proves the steady-state admission path is zero-malloc. For an overlap
// group within kMaxDenseGroupSize the equation tables (C[S] included) are
// sized when the epoch is built, so the very first TryIssue and
// TryIssueBatch are already allocation-free — including satisfying sets
// never seen before. A group above the cap admits through the pointer tree,
// whose nodes are allocated the first time a set is seen: there a warm-up
// of the same request mix inserts every node the steady state touches.
//
// The counting hook (alloc_counter.h) sees every allocation in the
// process (including the test harness's own); the test only compares the
// counter across the steady-state window, on the single test thread.
// Pool-recycled LicenseSet spans never reach operator new, which is
// exactly the property under test — with the pool compiled out
// (GEOLIC_LICENSE_SET_NO_POOL, the sanitizer builds) the guarantee does
// not hold and the steady-state assertions are skipped.

namespace geolic {
namespace {

using testing::IntervalSchema;
using testing::MakeRedistribution;
using testing::MakeUsage;

#ifdef GEOLIC_LICENSE_SET_NO_POOL
constexpr bool kSpanPool = false;
#else
constexpr bool kSpanPool = true;
#endif

// `group_size` pairwise-overlapping licenses G0.. over [i, 100 + i], plus
// an isolated license I over [500, 520]; budgets no test exhausts.
LicenseCatalog GroupCatalog(const ConstraintSchema& schema, int group_size) {
  LicenseCatalog licenses(&schema);
  for (int i = 0; i < group_size; ++i) {
    GEOLIC_CHECK(licenses
                     .Add(MakeRedistribution(schema, "G" + std::to_string(i),
                                             {{i, 100 + i}}, int64_t{1} << 40))
                     .ok());
  }
  GEOLIC_CHECK(
      licenses.Add(MakeRedistribution(schema, "I", {{500, 520}}, 1 << 20))
          .ok());
  return licenses;
}

// Satisfying sets for GroupCatalog(group_size): the whole group, the group
// less its last license, the group less its first, the isolated license —
// each with at most two equations — and no license (the instance-reject
// path).
std::vector<License> RequestMix(const ConstraintSchema& schema,
                                int group_size) {
  return {MakeUsage(schema, "U-a", {{group_size - 1, 100}}, 1),
          MakeUsage(schema, "U-b", {{group_size - 2, 100}}, 1),
          MakeUsage(schema, "U-c", {{group_size - 1, 101}}, 1),
          MakeUsage(schema, "U-d", {{505, 515}}, 1),
          MakeUsage(schema, "U-e", {{900, 910}}, 1)};
}

constexpr int kSteady = 512;

// Heap allocations made by kSteady rounds of the request mix, each through
// TryIssue and then TryIssueBatch.
uint64_t SteadyStateAllocations(IssuanceService* service,
                                const std::vector<License>& requests) {
  const std::vector<const License*> batch = testing::PointersTo(requests);
  std::vector<OnlineDecision> decisions(requests.size());
  const uint64_t before = testing::AllocationCount();
  for (int i = 0; i < kSteady; ++i) {
    for (const License& request : requests) {
      const Result<OnlineDecision> decision = service->TryIssue(request);
      GEOLIC_CHECK(decision.ok());
    }
    GEOLIC_CHECK(service->TryIssueBatch(batch, decisions).ok());
  }
  return testing::AllocationCount() - before;
}

TEST(AllocFreeTest, DenseGroupAdmitsWithoutHeapAllocationFromFirstRequest) {
  if (!kSpanPool) {
    GTEST_SKIP() << "LicenseSet span pool compiled out (sanitizer build)";
  }
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses =
      GroupCatalog(schema, kMaxDenseGroupSize);
  Result<std::unique_ptr<IssuanceService>> created =
      IssuanceService::Create(&licenses);
  ASSERT_TRUE(created.ok());
  IssuanceService& service = **created;
  const std::vector<License> requests = RequestMix(schema, kMaxDenseGroupSize);

  // No warm-up: no request of the mix is seen before the measured window.
  const uint64_t allocations = SteadyStateAllocations(&service, requests);
  EXPECT_EQ(allocations, 0u)
      << allocations << " heap allocations in the steady-state window";
  // Four shapes of the mix admit, twice per round.
  EXPECT_EQ(service.metrics().Snap().accepted, 8u * kSteady);
}

TEST(AllocFreeTest, AboveCapGroupAdmitsWithoutHeapAllocationAfterWarmup) {
  if (!kSpanPool) {
    GTEST_SKIP() << "LicenseSet span pool compiled out (sanitizer build)";
  }
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses =
      GroupCatalog(schema, kMaxDenseGroupSize + 1);
  Result<std::unique_ptr<IssuanceService>> created =
      IssuanceService::Create(&licenses);
  ASSERT_TRUE(created.ok());
  IssuanceService& service = **created;
  const std::vector<License> requests =
      RequestMix(schema, kMaxDenseGroupSize + 1);
  constexpr int kWarmup = 64;

  // Warm-up with the same mix: every tree node the steady state will
  // touch.
  const std::vector<const License*> batch = testing::PointersTo(requests);
  std::vector<OnlineDecision> decisions(requests.size());
  for (int i = 0; i < kWarmup; ++i) {
    for (const License& request : requests) {
      ASSERT_TRUE(service.TryIssue(request).ok());
    }
    ASSERT_TRUE(service.TryIssueBatch(batch, decisions).ok());
  }

  const uint64_t allocations = SteadyStateAllocations(&service, requests);
  EXPECT_EQ(allocations, 0u)
      << allocations << " heap allocations in the steady-state window";
}

}  // namespace
}  // namespace geolic

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "service/issuance_service.h"
#include "test_util.h"
#include "util/request_arena.h"

// Proves the steady-state admission path is zero-malloc. For an overlap
// group within kMaxDenseGroupSize the equation tables are sized when the
// epoch is built, so with the log capacity reserved the very first
// TryIssue is already allocation-free — including satisfying sets never
// seen before; only the span TryIssueBatch overload's request arena needs
// one warm-up call. A group above the cap admits through the pointer tree,
// whose nodes are allocated the first time a set is seen: there a warm-up
// of the same request mix inserts every node the steady state touches.
//
// The counting hook replaces global operator new/delete, so it sees every
// allocation in the process (including the test harness's own); the test
// only compares the counter across the steady-state window, on the single
// test thread. Pool-recycled LicenseSet spans never reach operator new,
// which is exactly the property under test — with the pool compiled out
// (GEOLIC_LICENSE_SET_NO_POOL, the sanitizer builds) the guarantee does
// not hold and the steady-state assertions are skipped.
//
// The replacements must stay out of the inliner: if GCC inlines a delete
// body (sees the free) without the paired new body, -Wmismatched-new-delete
// misfires on perfectly matched replacement pairs.
#if defined(__GNUC__) || defined(__clang__)
#define GEOLIC_TEST_NOINLINE __attribute__((noinline))
#else
#define GEOLIC_TEST_NOINLINE
#endif

namespace {
std::atomic<uint64_t> g_news{0};
}  // namespace

GEOLIC_TEST_NOINLINE void* operator new(std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

GEOLIC_TEST_NOINLINE void* operator new[](std::size_t size) {
  return ::operator new(size);
}

GEOLIC_TEST_NOINLINE void* operator new(std::size_t size,
                                        const std::nothrow_t&) noexcept {
  g_news.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

GEOLIC_TEST_NOINLINE void* operator new[](std::size_t size,
                                          const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

GEOLIC_TEST_NOINLINE void operator delete(void* p) noexcept { std::free(p); }
GEOLIC_TEST_NOINLINE void operator delete[](void* p) noexcept {
  std::free(p);
}
GEOLIC_TEST_NOINLINE void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
GEOLIC_TEST_NOINLINE void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
GEOLIC_TEST_NOINLINE void operator delete(void* p,
                                          const std::nothrow_t&) noexcept {
  std::free(p);
}
GEOLIC_TEST_NOINLINE void operator delete[](void* p,
                                            const std::nothrow_t&) noexcept {
  std::free(p);
}

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
// TryIssue and then the span TryIssueBatch overload.
uint64_t SteadyStateAllocations(IssuanceService* service,
                                const std::vector<License>& requests) {
  std::vector<OnlineDecision> decisions(requests.size());
  const uint64_t before = g_news.load(std::memory_order_relaxed);
  for (int i = 0; i < kSteady; ++i) {
    for (const License& request : requests) {
      const Result<OnlineDecision> decision = service->TryIssue(request);
      GEOLIC_CHECK(decision.ok());
    }
    GEOLIC_CHECK(service
                     ->TryIssueBatch(std::span<const License>(requests),
                                     std::span<OnlineDecision>(decisions))
                     .ok());
  }
  return g_news.load(std::memory_order_relaxed) - before;
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
  // Three of the mix land in the group's shard, twice per round.
  service.ReserveLogCapacity(6 * kSteady);

  // The only warm-up: one batch of instance rejects sizes the calling
  // thread's request arena. No satisfying set of the mix is seen before
  // the measured window.
  const std::vector<License> misses(
      requests.size(), MakeUsage(schema, "U-miss", {{900, 910}}, 1));
  std::vector<OnlineDecision> decisions(misses.size());
  ASSERT_TRUE(service
                  .TryIssueBatch(std::span<const License>(misses),
                                 std::span<OnlineDecision>(decisions))
                  .ok());
  EXPECT_EQ(service.metrics().Snap().accepted, 0u);

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
  service.ReserveLogCapacity(6 * (kWarmup + kSteady));

  // Warm-up with the same mix: arena blocks and every tree node the steady
  // state will touch.
  std::vector<OnlineDecision> decisions(requests.size());
  for (int i = 0; i < kWarmup; ++i) {
    for (const License& request : requests) {
      ASSERT_TRUE(service.TryIssue(request).ok());
    }
    ASSERT_TRUE(service
                    .TryIssueBatch(std::span<const License>(requests),
                                   std::span<OnlineDecision>(decisions))
                    .ok());
  }

  const uint64_t allocations = SteadyStateAllocations(&service, requests);
  EXPECT_EQ(allocations, 0u)
      << allocations << " heap allocations in the steady-state window";
}

TEST(AllocFreeTest, RequestArenaReusesBlocksAfterReset) {
  RequestArena arena(256);
  void* first = arena.Allocate(64, 8);
  ASSERT_NE(first, nullptr);
  arena.Reset();
  // Same block, same offset: the arena retains and reuses its blocks.
  EXPECT_EQ(arena.Allocate(64, 8), first);

  const uint64_t before = g_news.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    const ArenaScope scope(&arena);
    (void)arena.AllocateArray<uint64_t>(16);
  }
  EXPECT_EQ(g_news.load(std::memory_order_relaxed) - before, 0u);
}

}  // namespace
}  // namespace geolic

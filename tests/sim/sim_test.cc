// Tests for the deterministic simulation harness itself: replayability,
// scheduler behavior, scheduled fault injection, clean sweeps, and —
// crucially — the mutation smoke check that proves the harness still has
// teeth.

#include <algorithm>
#include <string>
#include <vector>

#include "core/grouping.h"
#include "gtest/gtest.h"
#include "persist/faulty_file.h"
#include "persist/sync_file.h"
#include "service/issuance_service.h"
#include "sim/reference_model.h"
#include "sim/sim_environment.h"
#include "sim/sim_harness.h"
#include "sim/sim_scheduler.h"
#include "test_util.h"

namespace geolic {
namespace {

using geolic::testing::MakeRedistribution;
using geolic::testing::MakeUsage;
using geolic::testing::TestSeed;

std::vector<SchedulerStep> RunToyScheduler(uint64_t seed,
                                           std::vector<int>* order) {
  SimEnvironment env(seed);
  SimScheduler scheduler(&env);
  for (int t = 0; t < 3; ++t) {
    scheduler.AddTask("task" + std::to_string(t), [&scheduler, order, t] {
      for (int i = 0; i < 4; ++i) {
        order->push_back(t);
        scheduler.Yield("step");
      }
    });
  }
  scheduler.Run();
  return scheduler.steps();
}

TEST(SimSchedulerTest, SameSeedReplaysSameInterleaving) {
  std::vector<int> order_a;
  std::vector<int> order_b;
  const std::vector<SchedulerStep> steps_a = RunToyScheduler(7, &order_a);
  const std::vector<SchedulerStep> steps_b = RunToyScheduler(7, &order_b);
  EXPECT_EQ(order_a, order_b);
  ASSERT_EQ(steps_a.size(), steps_b.size());
  for (size_t i = 0; i < steps_a.size(); ++i) {
    EXPECT_EQ(steps_a[i].task, steps_b[i].task);
    EXPECT_EQ(steps_a[i].point, steps_b[i].point);
  }
  // All three tasks ran to completion.
  EXPECT_EQ(order_a.size(), 12u);
}

TEST(SimSchedulerTest, DifferentSeedsExploreDifferentInterleavings) {
  std::vector<std::vector<int>> orders;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    std::vector<int> order;
    RunToyScheduler(seed, &order);
    orders.push_back(std::move(order));
  }
  bool any_difference = false;
  for (size_t i = 1; i < orders.size(); ++i) {
    if (orders[i] != orders[0]) {
      any_difference = true;
      break;
    }
  }
  EXPECT_TRUE(any_difference)
      << "20 seeds produced a single interleaving — the schedule RNG is "
         "not reaching the chooser";
}

TEST(SimSchedulerTest, YieldOutsideScheduledTaskIsNoOp) {
  SimEnvironment env(1);
  SimScheduler scheduler(&env);
  scheduler.Yield("not_a_task");  // Must not deadlock or crash.
  scheduler.Run();                // No tasks: trivially done.
  EXPECT_TRUE(scheduler.steps().empty());
}

TEST(FaultyFileTest, ScheduledTearFiresOnExactAppend) {
  auto base = std::make_unique<InMemorySyncFile>();
  InMemorySyncFile* platter = base.get();
  FaultyFile file(std::move(base));
  file.ScheduleTearAppend(3, 2);
  EXPECT_TRUE(file.Append("aaaa").ok());
  EXPECT_TRUE(file.Append("bbbb").ok());
  EXPECT_FALSE(file.Append("cccc").ok());  // Torn: keeps "cc", disk dies.
  EXPECT_FALSE(file.Append("dddd").ok());
  EXPECT_FALSE(file.Sync().ok());
  EXPECT_EQ(platter->contents(), "aaaabbbbcc");
}

TEST(FaultyFileTest, ScheduledSyncFailurePersistsTheAppend) {
  auto base = std::make_unique<InMemorySyncFile>();
  InMemorySyncFile* platter = base.get();
  FaultyFile file(std::move(base));
  file.ScheduleFailSyncAfterAppend(2);
  EXPECT_TRUE(file.Append("aaaa").ok());
  EXPECT_TRUE(file.Sync().ok());
  EXPECT_TRUE(file.Append("bbbb").ok());  // Append persists...
  EXPECT_FALSE(file.Sync().ok());         // ...but its fsync fails,
  EXPECT_FALSE(file.Sync().ok());         // and every later one too.
  EXPECT_EQ(platter->contents(), "aaaabbbb");
}

TEST(ReferenceModelTest, BruteForceMatchesHandComputedExample) {
  ConstraintSchema schema = geolic::testing::IntervalSchema(1);
  LicenseCatalog licenses(&schema);
  ASSERT_TRUE(licenses.Add(MakeRedistribution(schema, "L1", {{0, 10}}, 3)).ok());
  ASSERT_TRUE(licenses.Add(MakeRedistribution(schema, "L2", {{5, 15}}, 2)).ok());
  ReferenceModel model(&licenses);

  // Two requests inside the overlap: S = {L1, L2}; the binding budget is
  // A[{L1,L2}] = 3 + 2 = 5, so counts of 2 + 2 both fit.
  const License both = MakeUsage(schema, "U1", {{6, 9}}, 2);
  ReferenceModel::Decision d = model.TryIssue(both);
  EXPECT_TRUE(d.instance_valid);
  EXPECT_EQ(d.satisfying_set, testing::Mask(0b11));
  EXPECT_TRUE(d.aggregate_valid);
  model.Apply(d.satisfying_set, 2);
  d = model.TryIssue(both);
  EXPECT_TRUE(d.aggregate_valid);  // C<{L1,L2}> = 2, 2 + 2 <= 5.
  model.Apply(d.satisfying_set, 2);

  // L2-only request with count 3: the singleton equation itself fails
  // (C<{L2}> = 0, 0 + 3 > A[{L2}] = 2) and is checked first in ascending
  // extension order, so it is the limiting equation.
  const License l2_only = MakeUsage(schema, "U2", {{12, 14}}, 3);
  d = model.TryIssue(l2_only);
  EXPECT_TRUE(d.instance_valid);
  EXPECT_EQ(d.satisfying_set, testing::Mask(0b10));
  EXPECT_FALSE(d.aggregate_valid);
  EXPECT_EQ(d.limiting_set, testing::Mask(0b10));
  EXPECT_EQ(d.limiting_lhs, 3);
  EXPECT_EQ(d.limiting_rhs, 2);

  // Count 2 fits the singleton (0 + 2 <= 2) but not the pair superset
  // (C<{L1,L2}> = 4, 4 + 2 > 5): the limiting set moves up to {L1,L2}.
  const License l2_two = MakeUsage(schema, "U3", {{12, 14}}, 2);
  d = model.TryIssue(l2_two);
  EXPECT_FALSE(d.aggregate_valid);
  EXPECT_EQ(d.limiting_set, testing::Mask(0b11));
  EXPECT_EQ(d.limiting_lhs, 6);
  EXPECT_EQ(d.limiting_rhs, 5);

  ASSERT_TRUE(model.CheckInvariant().ok());
}

TEST(SimHarnessTest, WorkloadGenerationIsDeterministic) {
  const SimConfig config;
  const uint64_t seed = TestSeed(11);
  const SimWorkload a = GenerateWorkload(seed, config);
  const SimWorkload b = GenerateWorkload(seed, config);
  EXPECT_EQ(a.licenses->size(), b.licenses->size());
  ASSERT_EQ(a.client_ops.size(), b.client_ops.size());
  for (size_t c = 0; c < a.client_ops.size(); ++c) {
    ASSERT_EQ(a.client_ops[c].size(), b.client_ops[c].size());
    for (size_t i = 0; i < a.client_ops[c].size(); ++i) {
      EXPECT_EQ(a.client_ops[c][i].kind, b.client_ops[c][i].kind);
      EXPECT_EQ(a.client_ops[c][i].requests.size(),
                b.client_ops[c][i].requests.size());
    }
  }
  EXPECT_EQ(a.fault_kind, b.fault_kind);
  EXPECT_EQ(a.fault_append, b.fault_append);
  EXPECT_EQ(a.fault_keep_bytes, b.fault_keep_bytes);
}

TEST(SimHarnessTest, SameSeedReplaysSameRun) {
  const SimConfig config;
  const uint64_t seed = TestSeed(3);
  const SimResult a = RunSimulation(seed, config);
  const SimResult b = RunSimulation(seed, config);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.failure, b.failure);
  EXPECT_EQ(a.op_trace, b.op_trace);
}

TEST(SimHarnessTest, SweepPassesClean) {
  const SimConfig config;
  const uint64_t base = TestSeed(1);
  for (uint64_t seed = base; seed < base + 40; ++seed) {
    const SimResult result = RunSimulation(seed, config);
    EXPECT_TRUE(result.ok) << "seed " << seed << ": " << result.failure
                           << "\nrepro: sim_runner --seed=" << seed;
    if (!result.ok) {
      break;
    }
  }
}

TEST(SimHarnessTest, ForcedFaultSweepPassesClean) {
  SimConfig config;
  config.force_fault = true;
  const uint64_t base = TestSeed(1);
  for (uint64_t seed = base; seed < base + 25; ++seed) {
    const SimResult result = RunSimulation(seed, config);
    EXPECT_TRUE(result.ok) << "seed " << seed << ": " << result.failure
                           << "\nrepro: sim_runner --seed=" << seed;
    if (!result.ok) {
      break;
    }
  }
}

// Lifecycle seeds must race reconfigurations against admissions (one
// client reconfigures while another admits, so the schedule can put
// either first) and carry equation state across the dense-table cap: some
// seeds start with a group just under it and acquire enough overlapping
// licenses to grow past it.
TEST(SimHarnessTest, LifecycleSeedsRaceReconfigurationsAndCrossTheDenseCap) {
  SimConfig config;
  config.lifecycle_ops = true;
  const uint64_t base = TestSeed(1);
  int racing = 0;
  int crossing = 0;
  for (uint64_t seed = base; seed < base + 200; ++seed) {
    const SimWorkload workload = GenerateWorkload(seed, config);
    std::vector<bool> reconfigures;
    std::vector<bool> admits;
    for (const std::vector<SimOp>& ops : workload.client_ops) {
      reconfigures.push_back(false);
      admits.push_back(false);
      for (const SimOp& op : ops) {
        const bool admission = op.kind == SimOpKind::kTryIssue ||
                               op.kind == SimOpKind::kTryIssueBatch;
        const bool reconfiguration = op.kind == SimOpKind::kAcquireLicense ||
                                     op.kind == SimOpKind::kRevokeLicense ||
                                     op.kind == SimOpKind::kExpireBefore;
        admits.back() = admits.back() || admission;
        reconfigures.back() = reconfigures.back() || reconfiguration;
      }
    }
    bool races = false;
    for (size_t a = 0; a < admits.size(); ++a) {
      for (size_t r = 0; r < reconfigures.size(); ++r) {
        races = races || (a != r && admits[a] && reconfigures[r]);
      }
    }
    racing += races ? 1 : 0;
    LicenseCatalog grown = *workload.licenses;
    int largest_start = 0;
    const LicenseGrouping start = LicenseGrouping::FromLicenses(grown);
    for (int g = 0; g < start.group_count(); ++g) {
      largest_start = std::max(largest_start, start.GroupSize(g));
    }
    for (const std::vector<SimOp>& ops : workload.client_ops) {
      for (const SimOp& op : ops) {
        if (op.kind == SimOpKind::kAcquireLicense) {
          ASSERT_TRUE(grown.Add(op.requests[0]).ok());
        }
      }
    }
    const LicenseGrouping end = LicenseGrouping::FromLicenses(grown);
    for (int g = 0; g < end.group_count(); ++g) {
      if (largest_start <= kMaxDenseGroupSize &&
          end.GroupSize(g) > kMaxDenseGroupSize) {
        ++crossing;
        break;
      }
    }
  }
  EXPECT_GE(racing, 150);
  EXPECT_GE(crossing, 10);
}

// The acceptance gate for the whole harness: plant a real accounting bug
// (skip the last aggregate equation) in the service under test and verify
// the conformance checks catch it within a bounded seed budget. If this
// test ever fails, the harness has gone blind — treat it like a broken
// smoke detector, not a flaky test.
TEST(SimHarnessTest, MutationSmokeCatchesEquationSkipBug) {
  SimConfig config;
  config.inject_equation_skip = true;
  const uint64_t base = TestSeed(1);
  uint64_t caught_at = 0;
  std::string failure;
  for (uint64_t seed = base; seed < base + 200; ++seed) {
    const SimResult result = RunSimulation(seed, config);
    if (!result.ok) {
      caught_at = seed;
      failure = result.failure;
      break;
    }
  }
  ASSERT_NE(caught_at, 0u)
      << "planted equation-skip bug survived 200 seeds undetected";
  EXPECT_FALSE(failure.empty());
}

TEST(SimHarnessTest, ShrinkReducesFailingTrace) {
  SimConfig config;
  config.inject_equation_skip = true;
  const uint64_t base = TestSeed(1);
  uint64_t caught_at = 0;
  for (uint64_t seed = base; seed < base + 200; ++seed) {
    if (!RunSimulation(seed, config).ok) {
      caught_at = seed;
      break;
    }
  }
  ASSERT_NE(caught_at, 0u);
  const ShrinkOutcome shrunk = ShrinkFailure(caught_at, config);
  EXPECT_FALSE(shrunk.failure.empty());
  ASSERT_FALSE(shrunk.minimal_ops.empty());
  EXPECT_LE(shrunk.minimal_ops.size(), shrunk.original_ops);
  EXPECT_GE(shrunk.runs_used, 2u);
  // The shrunk trace still pins the failure: every listed op was verified
  // necessary by the 1-minimal pass, so re-running the full seed fails too.
  EXPECT_FALSE(RunSimulation(caught_at, config).ok);
}

}  // namespace
}  // namespace geolic

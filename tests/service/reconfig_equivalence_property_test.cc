// Reconfiguration equivalence: after every live acquire / revoke / expire,
// a running IssuanceService must be indistinguishable from a service built
// fresh from its own catalog and log — CreateWithHistory(licenses(),
// CollectLog()) — and its log must replay into the same validation tree.
// The log itself is checked against a ReferenceModel replay of every
// accepted record, which the test carries through each reconfiguration
// on its own (cascade drop and renumbering): one record per distinct set,
// with the model's exact count, in ascending set order.
// The catalogs sit at the dense-table cap (overlap groups of 11–14
// licenses), so reconfigurations carry equation state from dense tables
// into trees and back, through merges, cascade drops and renumbering.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "service/issuance_service.h"
#include "sim/reference_model.h"
#include "test_util.h"
#include "util/random.h"

namespace geolic {
namespace {

using testing::IntervalSchema;
using testing::MakeRedistribution;
using testing::MakeUsage;
using testing::TestSeed;

// Group slots lie kSlotStride apart on C1; every license of a slot covers
// the slot's hub point (HubX(slot), kHubY), so a slot's licenses form one
// overlap group until a bridge merges slots.
constexpr int64_t kSlotStride = 1000;
constexpr int64_t kHubY = 50;
constexpr int64_t kReach = 40;  // Farthest a license edge sits from a hub.
// Largest group the test grows: above-cap groups answer from the tree by
// scanning 2^(N-k) equations, which bounds the probe cost.
constexpr int kMaxGroup = 14;

int64_t HubX(int slot) { return slot * kSlotStride + 50; }

License HubLicense(const ConstraintSchema& schema, const std::string& id,
                   int slot, int64_t budget, Rng* rng) {
  const int64_t x = HubX(slot);
  return MakeRedistribution(
      schema, id,
      {{x - rng->UniformInt(0, kReach), x + rng->UniformInt(0, kReach)},
       {kHubY - rng->UniformInt(0, kReach),
        kHubY + rng->UniformInt(0, kReach)}},
      budget);
}

// A point request near `slot`'s hub.
License PointRequest(const ConstraintSchema& schema, const std::string& id,
                     int slot, int64_t count, Rng* rng) {
  const int64_t x = HubX(slot) + rng->UniformInt(-kReach, kReach);
  const int64_t y = kHubY + rng->UniformInt(-kReach, kReach);
  return MakeUsage(schema, id, {{x, x}, {y, y}}, count);
}

// Size of the group `candidate` would form if acquired: itself plus every
// group it overlaps.
int MergedSize(const IssuanceService& service, const License& candidate) {
  const LicenseCatalog& licenses = service.licenses();
  std::vector<int> touched;
  for (int i = 0; i < licenses.size(); ++i) {
    if (licenses.at(i).rect().Overlaps(candidate.rect())) {
      const int group = service.grouping().GroupOf(i);
      if (std::find(touched.begin(), touched.end(), group) == touched.end()) {
        touched.push_back(group);
      }
    }
  }
  int size = 1;
  for (int group : touched) {
    size += service.grouping().GroupSize(group);
  }
  return size;
}

std::vector<int> GroupSizes(const LicenseGrouping& grouping) {
  std::vector<int> sizes;
  for (int g = 0; g < grouping.group_count(); ++g) {
    sizes.push_back(grouping.GroupSize(g));
  }
  return sizes;
}

// Carries `records` across a reconfiguration that removed the licenses in
// `removed` (pre-reconfiguration indexes): records touching one are
// dropped, the rest renumbered densely (paper Algorithm 5).
void RemapRecords(const LicenseSet& removed, std::vector<LogRecord>* records) {
  std::vector<LogRecord> kept;
  for (LogRecord& record : *records) {
    if (record.set.Intersects(removed)) {
      continue;
    }
    LicenseSet renumbered;
    for (int i : record.set.Indexes()) {
      int below = 0;
      for (int r : removed.Indexes()) {
        below += r < i ? 1 : 0;
      }
      renumbered.Add(i - below);
    }
    record.set = renumbered;
    kept.push_back(std::move(record));
  }
  *records = std::move(kept);
}

// CollectLog must be the compacted form of a ReferenceModel replay of
// `records`: one record per distinct set, the model's count, no id.
void ExpectLogMatchesModelReplay(const IssuanceService& service,
                                 const std::vector<LogRecord>& records) {
  ReferenceModel model(&service.licenses());
  for (const LogRecord& record : records) {
    model.Apply(record.set, record.count);
  }
  const LogStore log = service.CollectLog();
  ASSERT_EQ(log.size(), model.counts().size());
  size_t at = 0;
  for (const auto& [set, count] : model.counts()) {  // Ascending by set.
    const LogRecord& got = log.at(at++);
    ASSERT_EQ(got.set, set) << "record " << at - 1;
    ASSERT_EQ(got.count, count) << set.ToHex();
    ASSERT_TRUE(got.issued_license_id.empty()) << set.ToHex();
  }
}

struct ProbeStats {
  int accepted = 0;
  int rejected_above_s = 0;  // Limiting equation strictly above S.
};

// The check run after every step. Accepted probes are recorded by both
// services alike, so they stay equivalent for the next step, and appended
// to `records`, the accepted history the model replays.
void ExpectMatchesFreshBuild(IssuanceService* service,
                             const OnlineValidatorOptions& options,
                             const std::vector<License>& probes,
                             const std::string& context,
                             std::vector<LogRecord>* records,
                             ProbeStats* stats) {
  SCOPED_TRACE(context);
  ExpectLogMatchesModelReplay(*service, *records);
  if (::testing::Test::HasFatalFailure()) {
    return;
  }
  const LogStore log = service->CollectLog();
  Result<std::unique_ptr<IssuanceService>> fresh =
      IssuanceService::CreateWithHistory(&service->licenses(), options, log);
  ASSERT_TRUE(fresh.ok()) << fresh.status().message();
  EXPECT_EQ(GroupSizes(service->grouping()),
            GroupSizes((*fresh)->grouping()));
  EXPECT_EQ(service->dense_table_bytes(), (*fresh)->dense_table_bytes());

  const Result<ValidationTree> collected = service->CollectTree();
  const Result<ValidationTree> replayed = ValidationTree::BuildFromLog(log);
  ASSERT_TRUE(collected.ok());
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(collected->ToString(), replayed->ToString());

  for (const License& probe : probes) {
    const Result<OnlineDecision> got = service->TryIssue(probe);
    const Result<OnlineDecision> want = (*fresh)->TryIssue(probe);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(want.ok());
    ASSERT_EQ(got->satisfying_set, want->satisfying_set) << probe.id();
    ASSERT_EQ(got->aggregate_valid, want->aggregate_valid) << probe.id();
    ASSERT_EQ(got->equations_checked, want->equations_checked) << probe.id();
    ASSERT_EQ(got->limiting.set, want->limiting.set) << probe.id();
    ASSERT_EQ(got->limiting.lhs, want->limiting.lhs) << probe.id();
    ASSERT_EQ(got->limiting.rhs, want->limiting.rhs) << probe.id();
    if (got->accepted()) {
      ++stats->accepted;
      LogRecord record;
      record.set = got->satisfying_set;
      record.count = probe.aggregate_count();
      records->push_back(std::move(record));
    } else if (got->instance_valid &&
               got->limiting.set != got->satisfying_set) {
      ++stats->rejected_above_s;
    }
  }
}

// The parameter offsets the trials' seeds: two independent sweeps.
class ReconfigEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReconfigEquivalenceTest, MatchesFreshBuildAfterEveryStep) {
  const uint64_t seed_offset = GetParam();
  constexpr int kTrials = 4;
  constexpr int kSteps = 16;
  constexpr size_t kHistories[kTrials] = {0, 64, 1000, 5000};
  ProbeStats stats;
  for (int trial = 0; trial < kTrials; ++trial) {
    Rng rng(TestSeed(2024) + static_cast<uint64_t>(trial) + seed_offset);
    const ConstraintSchema schema = IntervalSchema(2);
    LicenseCatalog licenses(&schema);
    const int groups = static_cast<int>(rng.UniformInt(2, 3));
    const size_t history_size = kHistories[trial];
    // Budgets leave room for the history with slack of the same order, so
    // probes of every size both fit and overflow.
    const int64_t budget_scale =
        static_cast<int64_t>(history_size) / groups + 20;
    for (int g = 0; g < groups; ++g) {
      const int size = static_cast<int>(rng.UniformInt(11, kMaxGroup));
      for (int m = 0; m < size; ++m) {
        ASSERT_TRUE(licenses
                        .Add(HubLicense(
                            schema,
                            "G" + std::to_string(g) + "_" + std::to_string(m),
                            g, rng.UniformInt(budget_scale / 4, budget_scale),
                            &rng))
                        .ok());
      }
    }
    LogStore history;
    while (history.size() < history_size) {
      const License usage = PointRequest(
          schema, "H" + std::to_string(history.size()),
          static_cast<int>(rng.UniformInt(0, groups - 1)), 1, &rng);
      LogRecord record;
      record.issued_license_id = usage.id();
      for (int i = 0; i < licenses.size(); ++i) {
        if (licenses.at(i).InstanceContains(usage)) {
          record.set.Add(i);
        }
      }
      if (record.set.Empty()) {
        continue;
      }
      record.count = rng.UniformInt(1, 3);
      ASSERT_TRUE(history.Append(std::move(record)).ok());
    }
    // A fixed probe batch around the initial slots and the first slots
    // disjoint acquisitions occupy, with counts across four magnitudes.
    std::vector<License> probes;
    for (int p = 0; p < 16; ++p) {
      const int64_t count =
          int64_t{1} << (4 * static_cast<int>(rng.UniformInt(0, 3)));
      probes.push_back(PointRequest(
          schema, "P" + std::to_string(p),
          static_cast<int>(rng.UniformInt(0, groups + 1)), count, &rng));
    }

    const OnlineValidatorOptions options;
    Result<std::unique_ptr<IssuanceService>> created =
        IssuanceService::CreateWithHistory(&licenses, options, history);
    ASSERT_TRUE(created.ok());
    IssuanceService* service = created->get();
    const std::string trial_name = "seed offset " +
                                   std::to_string(seed_offset) +
                                   ", history " +
                                   std::to_string(history_size);
    std::vector<LogRecord> records = history.records();
    ExpectMatchesFreshBuild(service, options, probes, trial_name + ", start",
                            &records, &stats);

    int next_slot = groups;
    int acquired = 0;
    uint64_t epoch = 0;
    for (int step = 0; step < kSteps; ++step) {
      const int size = service->licenses().size();
      const int kind = static_cast<int>(rng.UniformInt(0, 6));
      std::string what;
      LicenseSet dropped;  // What the step takes out, in current indexes.
      Status status = Status::Ok();
      if (kind <= 2) {
        // 0: a new disjoint slot; 1: join an existing slot's group;
        // 2: bridge two slots. Joins and bridges that would grow a group
        // past kMaxGroup fall back to a disjoint acquisition.
        const std::string id = "A" + std::to_string(++acquired);
        const int budget = static_cast<int>(rng.UniformInt(20, 2000));
        License candidate = HubLicense(schema, id, next_slot, budget, &rng);
        what = "acquire disjoint";
        if (kind == 1) {
          License join = HubLicense(
              schema, id, static_cast<int>(rng.UniformInt(0, next_slot - 1)),
              budget, &rng);
          if (MergedSize(*service, join) <= kMaxGroup) {
            candidate = std::move(join);
            what = "acquire joining";
          }
        } else if (kind == 2) {
          const int a = static_cast<int>(rng.UniformInt(0, next_slot - 1));
          const int b = static_cast<int>(rng.UniformInt(0, next_slot - 1));
          License bridge = MakeRedistribution(
              schema, id,
              {{HubX(std::min(a, b)), HubX(std::max(a, b))}, {kHubY, kHubY}},
              budget);
          if (a != b && MergedSize(*service, bridge) <= kMaxGroup) {
            candidate = std::move(bridge);
            what = "acquire bridging";
          }
        }
        if (what == "acquire disjoint") {
          ++next_slot;
        }
        const Result<int> index = service->AcquireLicense(candidate);
        status = index.status();
        if (index.ok()) {
          EXPECT_EQ(*index, size);
        }
      } else if (kind <= 5) {
        // 3: the lowest index (renumbers every survivor), 4: a middle one,
        // 5: the highest (often a fresh acquisition no record touches).
        if (size == 1) {
          continue;
        }
        const int index = kind == 3 ? 0 : kind == 4 ? size / 2 : size - 1;
        what = "revoke " + std::to_string(index) + " of " +
               std::to_string(size);
        dropped.Add(index);
        status = service->RevokeLicense(index);
      } else {
        // Expire the licenses whose C2 interval ends lowest.
        int64_t lowest_end = INT64_MAX;
        for (const License& license : service->licenses().licenses()) {
          lowest_end =
              std::min(lowest_end, license.rect().dim(1).interval().hi());
        }
        what = "expire C2 < " + std::to_string(lowest_end + 1);
        for (int i = 0; i < size; ++i) {
          if (service->licenses().at(i).rect().dim(1).interval().hi() ==
              lowest_end) {
            dropped.Add(i);
          }
        }
        const Result<int> removed =
            service->ExpireDimensionBelow(1, lowest_end + 1);
        status = removed.status();
        if (!removed.ok() &&
            removed.status().code() == StatusCode::kFailedPrecondition) {
          continue;  // It would expire the whole catalog.
        }
        if (removed.ok()) {
          EXPECT_EQ(*removed, dropped.Size());
        }
      }
      ASSERT_TRUE(status.ok()) << what << ": " << status.message();
      EXPECT_EQ(service->catalog_epoch(), ++epoch) << what;
      RemapRecords(dropped, &records);
      ExpectMatchesFreshBuild(
          service, options, probes,
          trial_name + ", step " + std::to_string(step) + ": " + what,
          &records, &stats);
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
    }
  }
  // The probe batch must exercise both outcomes, and rejections beyond the
  // first equation, or the comparisons above prove little.
  EXPECT_GT(stats.accepted, 0);
  EXPECT_GT(stats.rejected_above_s, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReconfigEquivalenceTest,
                         ::testing::Values(uint64_t{0}, uint64_t{200}));

}  // namespace
}  // namespace geolic

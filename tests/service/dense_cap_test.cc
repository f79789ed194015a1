// IssuanceService at the dense-table cap: a group of exactly
// kMaxDenseGroupSize licenses admits from dense equation tables, a group
// of one more falls back to the pointer tree, and an acquisition that
// merges two dense groups past the cap (then a revocation that splits
// them back) moves records between the two forms. Every decision is
// checked against the brute-force sim ReferenceModel, rebuilt from an
// independently kept id-space history (testing::IdSpaceHistory) after each
// reconfiguration.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "persist/journal.h"
#include "service/issuance_service.h"
#include "sim/reference_model.h"
#include "test_util.h"
#include "util/random.h"

namespace geolic {
namespace {

using testing::IntervalSchema;
using testing::MakeRedistribution;
using testing::MakeUsage;

// Licenses prefix0..prefix{size-1}, license i over [base + i, base + 100 + i]
// with budget `budget + i % 3`: all pairwise overlapping, so they form one
// overlap group.
void AddGroup(const ConstraintSchema& schema, const std::string& prefix,
              int64_t base, int size, int64_t budget,
              std::vector<License>* out) {
  for (int i = 0; i < size; ++i) {
    out->push_back(MakeRedistribution(schema, prefix + std::to_string(i),
                                      {{base + i, base + 100 + i}},
                                      budget + i % 3));
  }
}

// A request inside a group laid out by AddGroup: [base + lo, base + hi]
// with lo ≥ size − 1 − spread and hi ≤ 100 + spread is contained in
// licenses max(0, hi − 100) .. lo — a large satisfying set, so the scan
// over its supersets stays small (at most 2^(2·spread + 1) equations in
// the group itself).
License GroupRequest(const ConstraintSchema& schema, Rng* rng, int64_t base,
                     int size, int spread, int serial) {
  const int64_t lo = rng->UniformInt(size - 1 - spread, size - 1);
  const int64_t hi = rng->UniformInt(99, 100 + spread);
  return MakeUsage(schema, "U" + std::to_string(serial),
                   {{base + lo, base + hi}}, rng->UniformInt(1, 3));
}

// The brute-force oracle for a service under lifecycle changes: a
// ReferenceModel rebuilt from the id-space history after each change.
class Mirror {
 public:
  Mirror(const ConstraintSchema* schema, std::vector<License> licenses)
      : history_(schema, std::move(licenses)) {
    Rebuild();
  }

  void Acquire(const License& license) {
    model_.reset();
    history_.Acquire(license);
    Rebuild();
  }

  void Revoke(const std::string& id) {
    model_.reset();
    history_.Revoke(id);
    Rebuild();
  }

  // Checks `got` against the model's decision for `request`, then records
  // the request if the model accepts it.
  void Check(const License& request, const OnlineDecision& got) {
    const ReferenceModel::Decision want = model_->TryIssue(request);
    ASSERT_EQ(got.instance_valid, want.instance_valid) << request.id();
    ASSERT_EQ(got.satisfying_set, want.satisfying_set) << request.id();
    ASSERT_EQ(got.aggregate_valid, want.aggregate_valid) << request.id();
    if (want.instance_valid && !want.aggregate_valid) {
      ASSERT_EQ(got.limiting.set, want.limiting_set) << request.id();
      ASSERT_EQ(got.limiting.lhs, want.limiting_lhs) << request.id();
      ASSERT_EQ(got.limiting.rhs, want.limiting_rhs) << request.id();
    }
    if (want.accepted()) {
      model_->Apply(want.satisfying_set, request.aggregate_count());
      history_.Accept(want.satisfying_set, request.aggregate_count());
      ++accepts_;
    } else if (want.instance_valid) {
      ++rejects_;
    }
  }

  int accepts() const { return accepts_; }
  int rejects() const { return rejects_; }

 private:
  void Rebuild() {
    model_ = std::make_unique<ReferenceModel>(&history_.catalog());
    const LogStore log = history_.Log();
    for (const LogRecord& record : log.records()) {
      model_->Apply(record.set, record.count);
    }
  }

  testing::IdSpaceHistory history_;
  std::unique_ptr<ReferenceModel> model_;  // Over history_'s catalog.
  int accepts_ = 0;
  int rejects_ = 0;
};

// Issues `requests` alternately one at a time and in batches of four,
// checking every decision against the mirror.
void IssueAndCheck(IssuanceService* service, Mirror* mirror,
                   const std::vector<License>& requests) {
  for (size_t at = 0; at < requests.size();) {
    if (at % 8 == 0 && at + 4 <= requests.size()) {
      std::vector<OnlineDecision> decisions(4);
      ASSERT_TRUE(service
                      ->TryIssueBatch(testing::PointersTo(
                                          std::span(&requests[at], 4)),
                                      decisions)
                      .ok());
      for (size_t k = 0; k < 4; ++k) {
        mirror->Check(requests[at + k], decisions[k]);
      }
      at += 4;
      continue;
    }
    const Result<OnlineDecision> got = service->TryIssue(requests[at]);
    ASSERT_TRUE(got.ok());
    mirror->Check(requests[at], *got);
    ++at;
  }
}

std::vector<int> SortedGroupSizes(const IssuanceService& service) {
  std::vector<int> sizes;
  for (int g = 0; g < service.grouping().group_count(); ++g) {
    sizes.push_back(service.grouping().GroupSize(g));
  }
  std::sort(sizes.begin(), sizes.end());
  return sizes;
}

TEST(DenseCapTest, GroupsAtAndAboveTheCapMatchReferenceModel) {
  const ConstraintSchema schema = IntervalSchema(1);
  std::vector<License> initial;
  AddGroup(schema, "D", 0, kMaxDenseGroupSize, 2, &initial);
  AddGroup(schema, "T", 1000, kMaxDenseGroupSize + 1, 2, &initial);
  LicenseCatalog licenses(&schema);
  for (const License& license : initial) {
    ASSERT_TRUE(licenses.Add(license).ok());
  }

  // The below-cap group answers from its dense tables, the above-cap one
  // from the pointer tree (which holds only that group's sets).
  const OnlineValidatorOptions options;
  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::Create(&licenses, options);
  ASSERT_TRUE(service.ok());
  EXPECT_EQ(SortedGroupSizes(**service),
            (std::vector<int>{kMaxDenseGroupSize, kMaxDenseGroupSize + 1}));
  const testing::ScopedTempPath journal_file("dense_cap.gjl");
  const std::string& journal_path = journal_file.path();
  Result<std::unique_ptr<JournalWriter>> journal =
      JournalWriter::Open(journal_path);
  ASSERT_TRUE(journal.ok());
  ASSERT_TRUE((*service)->AttachJournal(std::move(*journal)).ok());

  Rng rng(17);
  std::vector<License> requests;
  for (int r = 0; r < 240; ++r) {
    if (r % 40 == 39) {
      requests.push_back(MakeUsage(schema, "U" + std::to_string(r),
                                   {{5000, 5001}}, 1));  // No license.
    } else if (rng.Bernoulli(0.5)) {
      requests.push_back(
          GroupRequest(schema, &rng, 0, kMaxDenseGroupSize, 3, r));
    } else {
      requests.push_back(
          GroupRequest(schema, &rng, 1000, kMaxDenseGroupSize + 1, 3, r));
    }
  }
  Mirror mirror(&schema, initial);
  IssueAndCheck(service->get(), &mirror, requests);
  EXPECT_GT(mirror.accepts(), 20);
  EXPECT_GT(mirror.rejects(), 20);

  // Recovery rebuilds both forms and cross-checks each against a serial
  // replay; the recovered service then decides as the live one would.
  Result<std::unique_ptr<IssuanceService>> recovered =
      IssuanceService::Recover(&licenses, options, "", journal_path);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  EXPECT_EQ((*recovered)->CollectTree()->ToString(),
            (*service)->CollectTree()->ToString());
  std::vector<License> more;
  for (int r = 0; r < 40; ++r) {
    more.push_back(GroupRequest(schema, &rng, r % 2 == 0 ? 0 : 1000,
                                kMaxDenseGroupSize + r % 2, 3, 1000 + r));
  }
  IssueAndCheck(recovered->get(), &mirror, more);
}

TEST(DenseCapTest, MergeAboveTheCapAndSplitBackMatchReferenceModel) {
  constexpr int kHalf = kMaxDenseGroupSize / 2 + 1;  // Two halves + bridge.
  const ConstraintSchema schema = IntervalSchema(1);
  std::vector<License> initial;
  AddGroup(schema, "A", 0, kHalf, 8, &initial);
  AddGroup(schema, "B", 300, kHalf, 8, &initial);
  LicenseCatalog licenses(&schema);
  for (const License& license : initial) {
    ASSERT_TRUE(licenses.Add(license).ok());
  }
  Result<std::unique_ptr<IssuanceService>> created =
      IssuanceService::Create(&licenses);
  ASSERT_TRUE(created.ok());
  IssuanceService& service = **created;
  Mirror mirror(&schema, initial);
  Rng rng(29);
  int serial = 0;
  const auto requests = [&](int count) {
    std::vector<License> out;
    for (int r = 0; r < count; ++r, ++serial) {
      if (r % 5 == 4) {
        // Inside every license of the first half, and inside the bridge
        // while it is acquired.
        out.push_back(MakeUsage(schema, "U" + std::to_string(serial),
                                {{60, 65}}, 1));
      } else {
        // Spread 1: in the merged group every superset scan also ranges
        // over the other half and the bridge (2^kHalf equations and up).
        out.push_back(GroupRequest(schema, &rng, r % 2 == 0 ? 0 : 300, kHalf,
                                   1, serial));
      }
    }
    return out;
  };

  // Each phase must both accept and reject, so the tables and the tree are
  // exercised on both outcomes.
  const auto phase = [&](int count) {
    const int accepts = mirror.accepts();
    const int rejects = mirror.rejects();
    IssueAndCheck(&service, &mirror, requests(count));
    EXPECT_GT(mirror.accepts(), accepts);
    EXPECT_GT(mirror.rejects(), rejects);
  };

  IssueAndCheck(&service, &mirror, requests(20));
  EXPECT_EQ(SortedGroupSizes(service), (std::vector<int>{kHalf, kHalf}));

  // The bridge overlaps every license of both halves: one group of
  // 2·kHalf + 1 > kMaxDenseGroupSize, admitted through the pointer tree.
  const License bridge = MakeRedistribution(schema, "BRIDGE", {{50, 350}}, 4);
  ASSERT_TRUE(service.AcquireLicense(bridge).ok());
  mirror.Acquire(bridge);
  EXPECT_EQ(SortedGroupSizes(service), (std::vector<int>{2 * kHalf + 1}));
  phase(60);

  // Revoking it splits the group back into two dense halves; records that
  // used the bridge cascade away with it.
  ASSERT_TRUE(service.RevokeLicenseById("BRIDGE").ok());
  mirror.Revoke("BRIDGE");
  EXPECT_EQ(SortedGroupSizes(service), (std::vector<int>{kHalf, kHalf}));
  phase(60);
}

}  // namespace
}  // namespace geolic

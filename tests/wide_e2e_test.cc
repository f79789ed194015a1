// End-to-end at N = 256: durable issuance through the sharded service,
// crash, journal recovery — every decision and every recovered count
// checked bit-identically against the brute-force sim ReferenceModel.
//
// The catalog is 32 disjoint clusters of 8 overlapping licenses, so the
// satisfying set of any request lies in exactly one cluster. That keeps
// the reference brute force feasible (2^8 equations per decision instead
// of 2^256) without weakening it: by the paper's Theorem 2, equations
// outside the request's overlap group decide identically, and that very
// equivalence is what the optimized grouped path is being tried against.
#include <map>
#include <memory>
#include <string>
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

constexpr int kClusters = 32;
constexpr int kPerCluster = 8;
constexpr int kN = kClusters * kPerCluster;  // 256.
constexpr int64_t kSlab = 1000;              // Disjoint interval per cluster.
constexpr int64_t kBudget = 40;

int64_t ClusterLo(int cluster, int j) { return cluster * kSlab + j * 10; }
int64_t ClusterHi(int cluster, int j) { return cluster * kSlab + j * 10 + 30; }

// The full 256-license catalog; global index of cluster c's license j is
// c * kPerCluster + j (asserted at build time).
LicenseCatalog BuildWideCatalog(const ConstraintSchema& schema) {
  LicenseCatalog licenses(&schema);
  for (int c = 0; c < kClusters; ++c) {
    for (int j = 0; j < kPerCluster; ++j) {
      const std::string id = "LD" + std::to_string(c) + "_" + std::to_string(j);
      const Result<int> index = licenses.Add(MakeRedistribution(
          schema, id, {{ClusterLo(c, j), ClusterHi(c, j)}}, kBudget));
      EXPECT_TRUE(index.ok());
      EXPECT_EQ(*index, c * kPerCluster + j);
    }
  }
  return licenses;
}

// Reference mirror: one brute-force model per cluster over a local
// 8-license catalog with the same geometry and budgets.
struct ClusterReference {
  std::unique_ptr<LicenseCatalog> licenses;
  std::unique_ptr<ReferenceModel> model;
};

std::vector<ClusterReference> BuildReferences(const ConstraintSchema& schema) {
  std::vector<ClusterReference> references;
  for (int c = 0; c < kClusters; ++c) {
    ClusterReference reference;
    reference.licenses = std::make_unique<LicenseCatalog>(&schema);
    for (int j = 0; j < kPerCluster; ++j) {
      const std::string id =
          "LD" + std::to_string(c) + "_" + std::to_string(j);
      EXPECT_TRUE(reference.licenses
                      ->Add(MakeRedistribution(
                          schema, id,
                          {{ClusterLo(c, j), ClusterHi(c, j)}}, kBudget))
                      .ok());
    }
    reference.model = std::make_unique<ReferenceModel>(reference.licenses.get());
    references.push_back(std::move(reference));
  }
  return references;
}

LicenseSet LocalToGlobal(const LicenseSet& local, int cluster) {
  std::vector<int> indexes;
  for (const int index : local.Indexes()) {
    indexes.push_back(cluster * kPerCluster + index);
  }
  return LicenseSet::FromIndexes(indexes);
}

TEST(WideE2ETest, N256IssuanceAndRecoveryMatchReferenceModel) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = BuildWideCatalog(schema);
  std::vector<ClusterReference> references = BuildReferences(schema);
  const testing::ScopedTempPath journal_file("wide_e2e.gjl");
  const std::string& journal_path = journal_file.path();

  // Expected global per-set counts, mirrored from reference decisions.
  std::map<LicenseSet, int64_t> expected_counts;
  int accepted_total = 0;
  int rejected_total = 0;

  {
    Result<std::unique_ptr<IssuanceService>> service =
        IssuanceService::Create(&licenses);
    ASSERT_TRUE(service.ok());
    Result<std::unique_ptr<JournalWriter>> journal =
        JournalWriter::Open(journal_path);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE((*service)->AttachJournal(std::move(*journal)).ok());

    Rng rng(256256);
    for (int i = 0; i < 800; ++i) {
      const int cluster = static_cast<int>(rng.UniformInt(0, kClusters - 1));
      // Random subinterval inside the cluster's slab; narrow enough to sit
      // inside several of the overlapping licenses, wide enough that some
      // requests straddle edges and instance-fail.
      const int64_t lo = cluster * kSlab + rng.UniformInt(0, 90);
      const int64_t hi = lo + rng.UniformInt(1, 25);
      const int64_t count = rng.UniformInt(1, 3);
      const License usage =
          MakeUsage(schema, "LU" + std::to_string(i), {{lo, hi}}, count);

      const Result<OnlineDecision> decision = (*service)->TryIssue(usage);
      ASSERT_TRUE(decision.ok());
      const ReferenceModel::Decision reference =
          references[static_cast<size_t>(cluster)].model->TryIssue(usage);

      // Bit-identical decisions: verdict and satisfying set.
      ASSERT_EQ(decision->accepted(), reference.accepted()) << "i=" << i;
      ASSERT_EQ(decision->satisfying_set,
                LocalToGlobal(reference.satisfying_set, cluster))
          << "i=" << i;

      if (reference.accepted()) {
        references[static_cast<size_t>(cluster)].model->Apply(
            reference.satisfying_set, count);
        expected_counts[decision->satisfying_set] += count;
        ++accepted_total;
      } else {
        ++rejected_total;
      }
    }
  }  // "Crash": service dies; only the journal survives.

  // The workload must actually exercise both verdicts to mean anything.
  ASSERT_GT(accepted_total, 100);
  ASSERT_GT(rejected_total, 20);

  // The safety property holds on the model side (2^8 equations/cluster).
  for (const ClusterReference& reference : references) {
    ASSERT_TRUE(reference.model->CheckInvariant().ok());
  }

  // Recovery: rebuilt state must carry the exact per-set counts.
  RecoveryStats stats;
  Result<std::unique_ptr<IssuanceService>> recovered = IssuanceService::Recover(
      &licenses, {}, /*checkpoint_path=*/"", journal_path, &stats);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(stats.journal_records_replayed,
            static_cast<size_t>(accepted_total));

  const Result<LogStore> log = (*recovered)->CollectLog();
  ASSERT_TRUE(log.ok());
  // One record per distinct set.
  EXPECT_EQ(log->size(), expected_counts.size());
  const auto merged = log->MergedCounts();
  ASSERT_EQ(merged.size(), expected_counts.size());
  for (const auto& [set, count] : expected_counts) {
    const auto it = merged.find(set);
    ASSERT_NE(it, merged.end()) << set.ToHex();
    EXPECT_EQ(it->second, count) << set.ToHex();
  }

  // And the recovered tree answers every cluster equation exactly as the
  // brute-force model does.
  const Result<ValidationTree> tree = (*recovered)->CollectTree();
  ASSERT_TRUE(tree.ok());
  for (int c = 0; c < kClusters; ++c) {
    const ReferenceModel& model = *references[static_cast<size_t>(c)].model;
    for (SubsetIterator it(LicenseSet::Full(kPerCluster)); !it.Done();
         it.Next()) {
      const LicenseSet global = LocalToGlobal(it.subset(), c);
      ASSERT_EQ(tree->SumSubsets(global), model.SumSubsets(it.subset()))
          << "cluster=" << c << " T=" << it.subset().ToHex();
    }
  }
}

}  // namespace
}  // namespace geolic

// Locks in the paper's worked examples: Example 1's five redistribution
// licenses, Table 2's log, the Figure 1 validation tree, the Figure 3
// overlap graph and groups, Example 2's equation expansion, Figures 4/5's
// tree division and reindexing, and Section 4.2's 3.1× gain illustration.
#include <gtest/gtest.h>

#include "core/gain.h"
#include "core/grouping.h"
#include "core/instance_validator.h"
#include "core/overlap_graph.h"
#include "core/tree_division.h"
#include "licensing/license_parser.h"
#include "service/issuance_service.h"
#include "validation/validation_tree.h"
#include "validation/validate.h"

#include "test_util.h"

namespace geolic {
namespace {

// Adapters over the Validate facade (the pre-facade bare entry points
// ValidateExhaustive/ValidateExhaustiveLimited/ValidateZeta were folded
// into Validate; see validation/validate.h).
Result<ValidationReport> RunExhaustive(
    const ValidationTree& tree, const std::vector<int64_t>& aggregates) {
  ValidateOptions options;
  options.mode = ValidationMode::kExhaustive;
  Result<ValidationOutcome> outcome = Validate(tree, aggregates, options);
  if (!outcome.ok()) return outcome.status();
  return std::move(outcome->report);
}

class PaperExamplesTest : public ::testing::Test {
 protected:
  PaperExamplesTest() : schema_(ConstraintSchema::PaperExampleSchema()) {
    licenses_ = std::make_unique<LicenseCatalog>(&schema_);
    const char* texts[] = {
        "(K; Play; T=[10/03/09, 20/03/09]; R=[Asia, Europe]; A=2000)",
        "(K; Play; T=[15/03/09, 25/03/09]; R=[Asia]; A=1000)",
        "(K; Play; T=[15/03/09, 30/03/09]; R=[America]; A=3000)",
        "(K; Play; T=[15/03/09, 15/04/09]; R=[Europe]; A=4000)",
        "(K; Play; T=[25/03/09, 10/04/09]; R=[America]; A=2000)",
    };
    for (int i = 0; i < 5; ++i) {
      Result<License> license =
          ParseLicense(texts[i], schema_, LicenseType::kRedistribution,
                       "LD" + std::to_string(i + 1));
      GEOLIC_CHECK(license.ok());
      GEOLIC_CHECK(licenses_->Add(*std::move(license)).ok());
    }
  }

  // Usage license in the paper's notation.
  License Usage(const std::string& id, const std::string& period,
                const std::string& region, int64_t count) {
    Result<License> license = ParseLicense(
        "(K; Play; T=" + period + "; R=[" + region + "]; A=" +
            std::to_string(count) + ")",
        schema_, LicenseType::kUsage, id);
    GEOLIC_CHECK(license.ok());
    return *std::move(license);
  }

  // Table 2's six log records.
  LogStore Table2Log() {
    LogStore log;
    struct Row {
      const char* id;
      uint64_t mask;
      int64_t count;
    };
    const Row kRows[] = {
        {"LU1", 0b00011, 800}, {"LU2", 0b00010, 400}, {"LU3", 0b00011, 40},
        {"LU4", 0b01011, 30},  {"LU5", 0b10100, 800}, {"LU6", 0b10000, 20},
    };
    for (const Row& row : kRows) {
      GEOLIC_CHECK(
          log.Append(
                 LogRecord{row.id, LicenseSet::FromWord(row.mask), row.count})
              .ok());
    }
    return log;
  }

  ConstraintSchema schema_;
  std::unique_ptr<LicenseCatalog> licenses_;
};

TEST_F(PaperExamplesTest, Example1InstanceValidation) {
  const SoaInstanceValidator validator(licenses_.get());
  // "L_U^1 satisfies all instance based constraints for L_D^1 and L_D^2."
  const License lu1 = Usage("LU1", "[15/03/09, 19/03/09]", "India", 800);
  EXPECT_EQ(validator.SatisfyingSet(lu1), testing::Mask(0b00011));
  // "L_U^2 satisfies all the instance based constraints only for L_D^2."
  const License lu2 = Usage("LU2", "[21/03/09, 24/03/09]", "Japan", 400);
  EXPECT_EQ(validator.SatisfyingSet(lu2), testing::Mask(0b00010));
}

TEST_F(PaperExamplesTest, Example1BothLicensesValidUnderEquationValidation) {
  // The paper's point: random selection of L_D^2 for LU1 would leave only
  // 200 counts and wrongly invalidate LU2; equation-based validation
  // accepts both.
  Result<std::unique_ptr<IssuanceService>> validator =
      IssuanceService::Create(licenses_.get());
  ASSERT_TRUE(validator.ok());
  const Result<OnlineDecision> first = (*validator)->TryIssue(
      Usage("LU1", "[15/03/09, 19/03/09]", "India", 800));
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first->accepted());
  const Result<OnlineDecision> second = (*validator)->TryIssue(
      Usage("LU2", "[21/03/09, 24/03/09]", "Japan", 400));
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->accepted());
}

TEST_F(PaperExamplesTest, Table2SetCountsAfterLU6) {
  // "the value of C[{L1,L2}], C[{L2}], C[{L1,L2,L4}], C[{L3,L5}] and
  // C[{L5}] will be 840, 400, 30, 800 and 20 respectively."
  const auto merged = Table2Log().MergedCounts();
  EXPECT_EQ(merged.at(testing::Mask(0b00011)), 840);
  EXPECT_EQ(merged.at(testing::Mask(0b00010)), 400);
  EXPECT_EQ(merged.at(testing::Mask(0b01011)), 30);
  EXPECT_EQ(merged.at(testing::Mask(0b10100)), 800);
  EXPECT_EQ(merged.at(testing::Mask(0b10000)), 20);
}

TEST_F(PaperExamplesTest, AggregateSumExample) {
  // "A[{L1, L2, L3}] ... will be 2000 + 1000 + 3000 = 6000."
  EXPECT_EQ(licenses_->AggregateSum(testing::Mask(0b00111)), 6000);
}

TEST_F(PaperExamplesTest, FiveLicensesNeed31Equations) {
  // "Since there are five redistribution licenses therefore N=5 ... total
  // 2^5 − 1 = 31 validation equations are required."
  EXPECT_EQ(EquationCount(licenses_->size()), 31u);
  const Result<ValidationTree> tree =
      ValidationTree::BuildFromLog(Table2Log());
  ASSERT_TRUE(tree.ok());
  const Result<ValidationReport> report =
      RunExhaustive(*tree, licenses_->AggregateCounts());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->equations_evaluated, 31u);
  EXPECT_TRUE(report->all_valid());
}

TEST_F(PaperExamplesTest, Example2EquationExpansion) {
  // Equation for {L2, L3, L4}: Σ of C over its 7 non-empty subsets ≤ 8000.
  const LicenseSet set = testing::Mask(0b01110);
  const auto merged = Table2Log().MergedCounts();
  int64_t direct = 0;
  int subsets = 0;
  for (SubsetIterator it(set); !it.Done(); it.Next()) {
    auto found = merged.find(it.subset());
    if (found != merged.end()) {
      direct += found->second;
    }
    ++subsets;
  }
  EXPECT_EQ(subsets, 7);
  // Only C[{L2}] = 400 is non-zero among those subsets.
  EXPECT_EQ(direct, 400);
  EXPECT_EQ(licenses_->AggregateSum(set), 8000);

  const Result<ValidationTree> tree =
      ValidationTree::BuildFromLog(Table2Log());
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->SumSubsets(set), 400);
}

TEST_F(PaperExamplesTest, Figure3OverlapGraphAndGroups) {
  const AdjacencyMatrix graph = BuildOverlapGraph(*licenses_);
  // Edges: L1-L2 (share Asia in mid-March), L1-L4 (share Europe),
  // L3-L5 (share America late March). No others.
  EXPECT_TRUE(graph.HasEdge(0, 1));
  EXPECT_TRUE(graph.HasEdge(0, 3));
  EXPECT_TRUE(graph.HasEdge(2, 4));
  EXPECT_EQ(graph.EdgeCount(), 3);
  // L2-L4: periods overlap but Asia ∩ Europe = ∅.
  EXPECT_FALSE(graph.HasEdge(1, 3));

  const LicenseGrouping grouping = LicenseGrouping::FromLicenses(*licenses_);
  ASSERT_EQ(grouping.group_count(), 2);
  EXPECT_EQ(grouping.GroupMask(0), testing::Mask(0b01011));  // Group 1: (L1, L2, L4).
  EXPECT_EQ(grouping.GroupMask(1), testing::Mask(0b10100));  // Group 2: (L3, L5).
}

TEST_F(PaperExamplesTest, Theorem1NoCommonRegionMeansZeroCount) {
  // "C[{L1, L2, L3}] will always be 0": L1, L2, L3 share no common region.
  const Result<HyperRect> region = HyperRect::CommonRegion(
      {licenses_->at(0).rect(), licenses_->at(1).rect(),
       licenses_->at(2).rect()});
  ASSERT_TRUE(region.ok());
  EXPECT_TRUE(region->IsEmpty());
  // And indeed no log record can carry that set: any usage license inside
  // all three would need a region in Asia∩America.
  const auto merged = Table2Log().MergedCounts();
  EXPECT_EQ(merged.find(testing::Mask(0b00111)), merged.end());
}

TEST_F(PaperExamplesTest, Theorem2EquationDecomposition) {
  // For S = {L1..L5} = S1 ∪ S2 with S1 = {L1,L2,L4}, S2 = {L3,L5}:
  // C⟨S⟩ = C⟨S1⟩ + C⟨S2⟩ and A[S] = A[S1] + A[S2].
  const Result<ValidationTree> tree =
      ValidationTree::BuildFromLog(Table2Log());
  ASSERT_TRUE(tree.ok());
  const LicenseSet s = testing::Mask(0b11111);
  const LicenseSet s1 = testing::Mask(0b01011);
  const LicenseSet s2 = testing::Mask(0b10100);
  EXPECT_EQ(tree->SumSubsets(s), tree->SumSubsets(s1) + tree->SumSubsets(s2));
  EXPECT_EQ(licenses_->AggregateSum(s),
            licenses_->AggregateSum(s1) + licenses_->AggregateSum(s2));
}

TEST_F(PaperExamplesTest, Figures4And5DivisionAndModification) {
  const LicenseGrouping grouping = LicenseGrouping::FromLicenses(*licenses_);
  Result<ValidationTree> tree = ValidationTree::BuildFromLog(Table2Log());
  ASSERT_TRUE(tree.ok());
  const Result<DividedTrees> divided = DivideAndReindex(
      *std::move(tree), grouping, licenses_->AggregateCounts());
  ASSERT_TRUE(divided.ok());
  ASSERT_EQ(divided->trees.size(), 2u);

  // Figure 5, first tree (indexes already 1..3): branches
  // L1→L2(840)→L3(30)... in local indexes {L1→0, L2→1, L4→2}.
  const ValidationTree& first = divided->trees[0];
  EXPECT_EQ(first.CountOf(testing::Mask(0b011)), 840);
  EXPECT_EQ(first.CountOf(testing::Mask(0b010)), 400);
  EXPECT_EQ(first.CountOf(testing::Mask(0b111)), 30);
  // Figure 5, second tree: indexes 3, 5 → 1, 2.
  const ValidationTree& second = divided->trees[1];
  EXPECT_EQ(second.CountOf(testing::Mask(0b11)), 800);
  EXPECT_EQ(second.CountOf(testing::Mask(0b10)), 20);
  // A_1 = (2000, 1000, 4000), A_2 = (3000, 2000).
  EXPECT_EQ(divided->aggregates[0],
            (std::vector<int64_t>{2000, 1000, 4000}));
  EXPECT_EQ(divided->aggregates[1], (std::vector<int64_t>{3000, 2000}));
}

TEST_F(PaperExamplesTest, Section42GainIllustration) {
  // "the approximate gain in this case would be
  // (2^5−1)/((2^3−1)+(2^2−1)) = 3.1 times."
  const LicenseGrouping grouping = LicenseGrouping::FromLicenses(*licenses_);
  std::vector<int> sizes;
  for (int k = 0; k < grouping.group_count(); ++k) {
    sizes.push_back(grouping.GroupSize(k));
  }
  EXPECT_NEAR(TheoreticalGain(sizes), 3.1, 1e-9);

  Result<ValidationTree> tree = ValidationTree::BuildFromLog(Table2Log());
  ASSERT_TRUE(tree.ok());
  const Result<ValidationOutcome> grouped = Validate(
      *licenses_, *std::move(tree), {.mode = ValidationMode::kGrouped});
  ASSERT_TRUE(grouped.ok());
  EXPECT_EQ(grouped->report.equations_evaluated, 10u);  // 7 + 3 vs 31.
  EXPECT_TRUE(grouped->report.all_valid());
}

TEST_F(PaperExamplesTest, Figure2InvalidUsageLicense) {
  // A usage license not inside any redistribution license is invalid
  // outright (figure 2's L_U^2 in the geometric illustration).
  const SoaInstanceValidator validator(licenses_.get());
  // Africa is outside every example license's regions.
  const License stray = Usage("LUX", "[15/03/09, 19/03/09]", "Egypt", 10);
  EXPECT_TRUE(validator.SatisfyingSet(stray).Empty());
}

}  // namespace
}  // namespace geolic

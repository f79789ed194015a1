#include "validation/validate.h"

#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/gain.h"
#include "core/grouping.h"
#include "test_util.h"
#include "workload/workload.h"

namespace geolic {
namespace {

using testing::IntervalSchema;
using testing::MakeRedistribution;

// Three overlap groups (sizes 3, 2, 1) with budgets tight enough that the
// log below violates some equations — non-trivial reports on both paths.
LicenseCatalog Licenses(const ConstraintSchema& schema) {
  LicenseCatalog licenses(&schema);
  EXPECT_TRUE(
      licenses.Add(MakeRedistribution(schema, "L1", {{0, 20}}, 30)).ok());
  EXPECT_TRUE(
      licenses.Add(MakeRedistribution(schema, "L2", {{10, 30}}, 25)).ok());
  EXPECT_TRUE(
      licenses.Add(MakeRedistribution(schema, "L3", {{25, 40}}, 20)).ok());
  EXPECT_TRUE(
      licenses.Add(MakeRedistribution(schema, "L4", {{100, 120}}, 15)).ok());
  EXPECT_TRUE(
      licenses.Add(MakeRedistribution(schema, "L5", {{110, 130}}, 10)).ok());
  EXPECT_TRUE(
      licenses.Add(MakeRedistribution(schema, "L6", {{200, 210}}, 5)).ok());
  return licenses;
}

LogStore Log() {
  LogStore log;
  const std::vector<std::pair<LicenseSet, int64_t>> records = {
      {testing::Mask(0b000001), 12}, {testing::Mask(0b000011), 9},  {testing::Mask(0b000010), 14}, {testing::Mask(0b000110), 7},
      {testing::Mask(0b000100), 8},  {testing::Mask(0b001000), 6},  {testing::Mask(0b011000), 5},  {testing::Mask(0b010000), 9},
      {testing::Mask(0b100000), 4},  {testing::Mask(0b000011), 3},  {testing::Mask(0b001000), 2},  {testing::Mask(0b100000), 3},
  };
  int sequence = 0;
  for (const auto& [set, count] : records) {
    LogRecord record;
    record.issued_license_id = "U" + std::to_string(++sequence);
    record.set = set;
    record.count = count;
    EXPECT_TRUE(log.Append(record).ok());
  }
  return log;
}

ValidationTree Tree() {
  Result<ValidationTree> tree = ValidationTree::BuildFromLog(Log());
  EXPECT_TRUE(tree.ok());
  return std::move(*tree);
}

// The inputs every engine case runs on: the catalog above (its {L6}
// violation is local index 0 of the third group, so grouped runs must
// translate it back), an empty catalog, and generated paper-sweep
// workloads whose budgets are squeezed so that some equations fail.
std::vector<Workload> EngineInputs() {
  std::vector<Workload> inputs;
  Workload fixed;
  fixed.schema = std::make_unique<ConstraintSchema>(IntervalSchema(1));
  fixed.licenses = std::make_unique<LicenseCatalog>(Licenses(*fixed.schema));
  fixed.log = Log();
  inputs.push_back(std::move(fixed));
  Workload empty;
  empty.schema = std::make_unique<ConstraintSchema>(IntervalSchema(1));
  empty.licenses = std::make_unique<LicenseCatalog>(empty.schema.get());
  inputs.push_back(std::move(empty));
  for (int n : {1, 2, 5, 9, 12, 14}) {
    WorkloadConfig config = PaperSweepConfig(n, 37 + static_cast<uint64_t>(n));
    config.num_records = 600;
    config.aggregate_min = 50;
    config.aggregate_max = 500;
    Result<Workload> workload = WorkloadGenerator(config).Generate();
    EXPECT_TRUE(workload.ok());
    inputs.push_back(*std::move(workload));
  }
  return inputs;
}

std::vector<EquationResult> SortedBySet(std::vector<EquationResult> results) {
  std::sort(results.begin(), results.end(),
            [](const EquationResult& a, const EquationResult& b) {
              return a.set < b.set;
            });
  return results;
}

void ExpectSameViolations(const std::vector<EquationResult>& got,
                          const std::vector<EquationResult>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].set, want[i].set) << i;
    EXPECT_EQ(got[i].lhs, want[i].lhs) << i;
    EXPECT_EQ(got[i].rhs, want[i].rhs) << i;
  }
}

// One configuration of Validate and the serial run it must reproduce.
struct EngineCase {
  const char* name;
  ValidateOptions options;
  bool from_log;  // The log overload instead of a pre-built tree.
  ValidationMode reference;
};

class EngineEquivalenceTest : public ::testing::TestWithParam<EngineCase> {};

// Within one pipeline (grouped or not) a configuration must reproduce the
// serial report byte for byte. A grouped run against the exhaustive
// baseline checks Theorem 2: it reports exactly the baseline's violations that lie inside
// one overlap group, in original license indexes, and every other baseline
// violation contains one of them.
TEST_P(EngineEquivalenceTest, MatchesSerialReference) {
  const EngineCase& engine = GetParam();
  for (const Workload& input : EngineInputs()) {
    const LicenseCatalog& licenses = *input.licenses;
    SCOPED_TRACE("N = " + std::to_string(licenses.size()));
    Result<ValidationTree> tree = ValidationTree::BuildFromLog(input.log);
    Result<ValidationTree> reference_tree =
        ValidationTree::BuildFromLog(input.log);
    ASSERT_TRUE(tree.ok());
    ASSERT_TRUE(reference_tree.ok());
    const Result<ValidationOutcome> got =
        engine.from_log
            ? Validate(licenses, input.log, engine.options)
            : Validate(licenses, *std::move(tree), engine.options);
    const Result<ValidationOutcome> want = Validate(
        licenses, *std::move(reference_tree), {.mode = engine.reference});
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(want.ok()) << want.status().ToString();

    if (engine.options.mode == engine.reference) {
      EXPECT_EQ(got->group_count, want->group_count);
      EXPECT_EQ(got->group_sizes, want->group_sizes);
      EXPECT_EQ(got->report.equations_evaluated,
                want->report.equations_evaluated);
      EXPECT_EQ(got->report.nodes_visited, want->report.nodes_visited);
      ExpectSameViolations(got->report.violations, want->report.violations);
      continue;
    }
    const LicenseGrouping grouping = LicenseGrouping::FromLicenses(licenses);
    std::vector<EquationResult> in_group;
    for (const EquationResult& violation : want->report.violations) {
      const int group = grouping.GroupOf(violation.set.Lowest());
      if (violation.set.IsSubsetOf(grouping.GroupMask(group))) {
        in_group.push_back(violation);
      }
    }
    const std::vector<EquationResult> grouped =
        SortedBySet(got->report.violations);
    ExpectSameViolations(grouped, SortedBySet(in_group));
    EXPECT_EQ(got->report.all_valid(), want->report.all_valid());
    EXPECT_EQ(got->report.equations_evaluated,
              GroupedEquationCount(got->group_sizes));
    for (const EquationResult& violation : want->report.violations) {
      EXPECT_TRUE(std::any_of(grouped.begin(), grouped.end(),
                              [&](const EquationResult& local) {
                                return local.set.IsSubsetOf(violation.set);
                              }))
          << "unexplained baseline violation " << violation.set.ToString();
    }
  }

  // A log naming a license beyond the catalog fails under every
  // configuration.
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = Licenses(schema);
  LogStore beyond = Log();
  ASSERT_TRUE(beyond.Append(LogRecord{"U99", testing::Mask(0b1000000), 1})
                  .ok());
  Result<ValidationTree> beyond_tree = ValidationTree::BuildFromLog(beyond);
  ASSERT_TRUE(beyond_tree.ok());
  EXPECT_FALSE((engine.from_log
                    ? Validate(licenses, beyond, engine.options)
                    : Validate(licenses, *std::move(beyond_tree),
                               engine.options))
                   .ok());
}

INSTANTIATE_TEST_SUITE_P(
    Engines, EngineEquivalenceTest,
    ::testing::Values(
        EngineCase{"ParallelExhaustive2Threads",
                   {.mode = ValidationMode::kExhaustive, .num_threads = 2},
                   false, ValidationMode::kExhaustive},
        EngineCase{"ParallelExhaustive3Threads",
                   {.mode = ValidationMode::kExhaustive, .num_threads = 3},
                   false, ValidationMode::kExhaustive},
        EngineCase{"ParallelExhaustive8Threads",
                   {.mode = ValidationMode::kExhaustive, .num_threads = 8},
                   false, ValidationMode::kExhaustive},
        EngineCase{"GroupedFromLog", {.mode = ValidationMode::kGrouped}, true,
                   ValidationMode::kGrouped},
        EngineCase{"ParallelGrouped",
                   {.mode = ValidationMode::kGrouped, .num_threads = 4},
                   false, ValidationMode::kGrouped},
        EngineCase{"GroupedAgainstExhaustive",
                   {.mode = ValidationMode::kGrouped}, false,
                   ValidationMode::kExhaustive}),
    [](const ::testing::TestParamInfo<EngineCase>& param) {
      return std::string(param.param.name);
    });

TEST(ValidateFacadeTest, AutoModeRoutesBySize) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = Licenses(schema);
  const std::vector<int64_t> aggregates = licenses.AggregateCounts();

  // Tree overload: kAuto without geometry picks a dense ungrouped engine.
  const Result<ValidationOutcome> ungrouped = Validate(Tree(), aggregates);
  ASSERT_TRUE(ungrouped.ok());
  EXPECT_EQ(ungrouped->group_count, 0);

  // LicenseCatalog overload: kAuto runs the paper's grouped pipeline.
  const Result<ValidationOutcome> grouped = Validate(licenses, Tree());
  ASSERT_TRUE(grouped.ok());
  EXPECT_EQ(grouped->group_count, 3);
  EXPECT_EQ(grouped->group_sizes, (std::vector<int>{3, 2, 1}));

  // Both engines flag the workload; the grouped report checks only
  // within-group equations (cross-group supersets are implied — Theorem 2),
  // so its violation list is a subset of the exhaustive one.
  EXPECT_FALSE(ungrouped->report.all_valid());
  EXPECT_FALSE(grouped->report.all_valid());
  EXPECT_LE(grouped->report.violations.size(),
            ungrouped->report.violations.size());
}

TEST(ValidateFacadeTest, GroupedModeNeedsGeometry) {
  const ConstraintSchema schema = IntervalSchema(1);
  const std::vector<int64_t> aggregates =
      Licenses(schema).AggregateCounts();
  ValidateOptions options;
  options.mode = ValidationMode::kGrouped;
  const Result<ValidationOutcome> outcome =
      Validate(Tree(), aggregates, options);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace geolic

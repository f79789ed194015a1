// Cross-module integration tests: full pipelines from license text through
// online issuance, persistence, and offline auditing, checking that every
// layer agrees with every other.
#include <gtest/gtest.h>

#include "bench/incremental_auditor.h"
#include "licensing/license_parser.h"
#include "service/issuance_service.h"
#include "test_util.h"
#include "validation/validate.h"
#include "workload/workload.h"

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

Result<ValidationReport> RunZeta(const ValidationTree& tree,
                                 const std::vector<int64_t>& aggregates) {
  ValidateOptions options;
  options.mode = ValidationMode::kZeta;
  Result<ValidationOutcome> outcome = Validate(tree, aggregates, options);
  if (!outcome.ok()) return outcome.status();
  return std::move(outcome->report);
}

// Invariant: a log produced exclusively by online validation must pass
// every offline validator with zero violations — online admission only
// accepts issues that keep all equations satisfied.
TEST(IntegrationTest, OnlineAcceptedLogAlwaysAuditsClean) {
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    WorkloadConfig config = PaperSweepConfig(12, seed);
    config.num_records = 0;
    config.aggregate_min = 100;
    config.aggregate_max = 600;
    WorkloadGenerator generator(config);
    Result<Workload> workload = generator.GenerateLicensesOnly();
    ASSERT_TRUE(workload.ok());

    Result<std::unique_ptr<IssuanceService>> online =
        IssuanceService::Create(workload->licenses.get());
    ASSERT_TRUE(online.ok());
    Rng rng(seed * 31337);
    int accepted = 0;
    for (int i = 0; i < 2000; ++i) {
      const int parent = static_cast<int>(
          rng.UniformInt(0, workload->licenses->size() - 1));
      const License usage =
          generator.DrawUsageLicense(*workload, parent, &rng, i);
      const Result<OnlineDecision> decision = (*online)->TryIssue(usage);
      ASSERT_TRUE(decision.ok());
      if (decision->accepted()) {
        ++accepted;
      }
    }
    ASSERT_GT(accepted, 0);

    // Offline: exhaustive, zeta, grouped, parallel — all clean.
    const LogStore log = (*online)->CollectLog();
    const Result<ValidationTree> tree = ValidationTree::BuildFromLog(log);
    ASSERT_TRUE(tree.ok());
    const std::vector<int64_t> aggregates =
        workload->licenses->AggregateCounts();
    EXPECT_TRUE(RunExhaustive(*tree, aggregates)->all_valid());
    EXPECT_TRUE(RunZeta(*tree, aggregates)->all_valid());
    EXPECT_TRUE(Validate(*tree, aggregates,
                         {.mode = ValidationMode::kExhaustive,
                          .num_threads = 4})
                    ->report.all_valid());
    const Result<ValidationOutcome> grouped =
        Validate(*workload->licenses, log,
                 {.mode = ValidationMode::kGrouped});
    ASSERT_TRUE(grouped.ok());
    EXPECT_TRUE(grouped->report.all_valid());
  }
}

// Invariant: persistence round trips do not change any validator verdict.
TEST(IntegrationTest, VerdictsSurvivePersistenceRoundTrips) {
  WorkloadConfig config = PaperSweepConfig(10, 99);
  config.num_records = 800;
  config.aggregate_min = 50;
  config.aggregate_max = 400;  // Violations likely.
  Result<Workload> workload = WorkloadGenerator(config).Generate();
  ASSERT_TRUE(workload.ok());
  const std::vector<int64_t> aggregates =
      workload->licenses->AggregateCounts();

  // Direct verdicts.
  Result<ValidationTree> tree = ValidationTree::BuildFromLog(workload->log);
  ASSERT_TRUE(tree.ok());
  const Result<ValidationReport> direct =
      RunExhaustive(*tree, aggregates);
  ASSERT_TRUE(direct.ok());

  // Log → binary file → reload → rebuild tree.
  const testing::ScopedTempPath log_path("integration_verdicts_log.bin");
  ASSERT_TRUE(workload->log.SaveBinary(log_path.path()).ok());
  const Result<LogStore> reloaded_log = LogStore::LoadBinary(log_path.path());
  ASSERT_TRUE(reloaded_log.ok());
  const Result<ValidationTree> from_log =
      ValidationTree::BuildFromLog(*reloaded_log);
  ASSERT_TRUE(from_log.ok());

  // Compacted log → tree.
  const Result<ValidationTree> from_compacted =
      ValidationTree::BuildFromLog(workload->log.Compacted());
  ASSERT_TRUE(from_compacted.ok());

  for (const ValidationTree* variant : {&*from_log, &*from_compacted}) {
    const Result<ValidationReport> report =
        RunExhaustive(*variant, aggregates);
    ASSERT_TRUE(report.ok());
    ASSERT_EQ(report->violations.size(), direct->violations.size());
    for (size_t i = 0; i < report->violations.size(); ++i) {
      EXPECT_EQ(report->violations[i].set, direct->violations[i].set);
      EXPECT_EQ(report->violations[i].lhs, direct->violations[i].lhs);
    }
  }
}

// Invariant: the paper-text round trip (serialize → parse) preserves every
// validation-relevant property of a license set.
TEST(IntegrationTest, TextRoundTripPreservesValidation) {
  const ConstraintSchema schema = ConstraintSchema::PaperExampleSchema();
  LicenseCatalog original(&schema);
  const char* texts[] = {
      "(K; Play; T=[2009-03-10, 2009-03-20]; R={Asia, Europe}; A=2000)",
      "(K; Play; T=[2009-03-15, 2009-03-25]; R={Asia}; A=1000)",
      "(K; Play; T=[2009-03-15, 2009-03-30]; R={America}; A=3000)",
  };
  for (int i = 0; i < 3; ++i) {
    Result<License> license = ParseLicense(
        texts[i], schema, LicenseType::kRedistribution,
        "LD" + std::to_string(i + 1));
    ASSERT_TRUE(license.ok());
    ASSERT_TRUE(original.Add(*std::move(license)).ok());
  }

  LicenseCatalog reparsed(&schema);
  for (int i = 0; i < 3; ++i) {
    Result<License> license = ParseLicense(
        original.at(i).ToString(schema), schema,
        LicenseType::kRedistribution, original.at(i).id());
    ASSERT_TRUE(license.ok());
    ASSERT_TRUE(reparsed.Add(*std::move(license)).ok());
  }
  const LicenseGrouping grouping_a = LicenseGrouping::FromLicenses(original);
  const LicenseGrouping grouping_b = LicenseGrouping::FromLicenses(reparsed);
  EXPECT_EQ(grouping_a.Components().components,
            grouping_b.Components().components);
  EXPECT_EQ(original.AggregateCounts(), reparsed.AggregateCounts());
}

// Invariant: incremental auditing over an authority-style stream matches a
// final full audit even when licenses trickle in between batches is NOT
// supported (grouping fixed at creation) — but over a fixed license set,
// batch-by-batch ingestion matches the one-shot grouped validator.
TEST(IntegrationTest, IncrementalAndGroupedAgreeOnGeneratedStream) {
  WorkloadConfig config = PaperSweepConfig(14, 7);
  config.num_records = 1200;
  config.aggregate_min = 80;
  config.aggregate_max = 900;
  Result<Workload> workload = WorkloadGenerator(config).Generate();
  ASSERT_TRUE(workload.ok());

  Result<IncrementalAuditor> auditor =
      IncrementalAuditor::Create(workload->licenses.get());
  ASSERT_TRUE(auditor.ok());
  std::map<LicenseSet, EquationResult> last;
  const auto& records = workload->log.records();
  for (size_t i = 0; i < records.size(); i += 113) {
    const size_t end = std::min(records.size(), i + 113);
    const std::vector<LogRecord> batch(
        records.begin() + static_cast<long>(i),
        records.begin() + static_cast<long>(end));
    const Result<ValidationReport> report = auditor->IngestBatch(batch);
    ASSERT_TRUE(report.ok());
    for (const EquationResult& violation : report->violations) {
      last[violation.set] = violation;
    }
  }
  const Result<ValidationOutcome> full = Validate(
      *workload->licenses, workload->log, {.mode = ValidationMode::kGrouped});
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(last.size(), full->report.violations.size());
}

}  // namespace
}  // namespace geolic

#include "bench/incremental_auditor.h"

#include <map>

#include <gtest/gtest.h>

#include "test_util.h"
#include "validation/validate.h"
#include "workload/workload.h"

namespace geolic {
namespace {

using testing::IntervalSchema;
using testing::MakeRedistribution;

LicenseCatalog TwoGroupSet(const ConstraintSchema& schema) {
  LicenseCatalog set(&schema);
  GEOLIC_CHECK(set.Add(MakeRedistribution(schema, "LD1", {{0, 20}}, 100)).ok());
  GEOLIC_CHECK(
      set.Add(MakeRedistribution(schema, "LD2", {{10, 30}}, 80)).ok());
  GEOLIC_CHECK(
      set.Add(MakeRedistribution(schema, "LD3", {{100, 120}}, 50)).ok());
  return set;
}

TEST(IncrementalAuditorTest, CreateRequiresLicenses) {
  const ConstraintSchema schema = IntervalSchema(1);
  LicenseCatalog empty(&schema);
  EXPECT_FALSE(IncrementalAuditor::Create(&empty).ok());
  EXPECT_FALSE(IncrementalAuditor::Create(nullptr).ok());
}

TEST(IncrementalAuditorTest, CleanBatchReportsNoViolations) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog set = TwoGroupSet(schema);
  Result<IncrementalAuditor> auditor = IncrementalAuditor::Create(&set);
  ASSERT_TRUE(auditor.ok());
  const Result<ValidationReport> report = auditor->IngestBatch(
      {LogRecord{"LU1", testing::Mask(0b011), 50}, LogRecord{"LU2", testing::Mask(0b100), 30}});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->all_valid());
  // Dirty equations: supersets of {L1,L2} within group {L1,L2} → 1;
  // supersets of {L3} within {L3} → 1.
  EXPECT_EQ(report->equations_evaluated, 2u);
  EXPECT_EQ(auditor->records_ingested(), 2u);
}

TEST(IncrementalAuditorTest, DetectsViolationInBatch) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog set = TwoGroupSet(schema);
  Result<IncrementalAuditor> auditor = IncrementalAuditor::Create(&set);
  ASSERT_TRUE(auditor.ok());
  ASSERT_TRUE(auditor->IngestBatch({LogRecord{"LU1", testing::Mask(0b100), 40}}).ok());
  const Result<ValidationReport> report =
      auditor->IngestBatch({LogRecord{"LU2", testing::Mask(0b100), 20}});
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->violations.size(), 1u);
  EXPECT_EQ(report->violations[0].set, testing::Mask(0b100));
  EXPECT_EQ(report->violations[0].lhs, 60);
  EXPECT_EQ(report->violations[0].rhs, 50);
}

TEST(IncrementalAuditorTest, DirtySeedDeduplication) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog set = TwoGroupSet(schema);
  Result<IncrementalAuditor> auditor = IncrementalAuditor::Create(&set);
  ASSERT_TRUE(auditor.ok());
  // Ten records with the same set → the dirty set is still just the two
  // supersets of {L1} within group {L1,L2}.
  std::vector<LogRecord> batch;
  for (int i = 0; i < 10; ++i) {
    batch.push_back(LogRecord{"LU", testing::Mask(0b001), 1});
  }
  const Result<ValidationReport> report = auditor->IngestBatch(batch);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->equations_evaluated, 2u);  // {L1}, {L1,L2}.
}

TEST(IncrementalAuditorTest, RejectsMalformedRecords) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog set = TwoGroupSet(schema);
  Result<IncrementalAuditor> auditor = IncrementalAuditor::Create(&set);
  ASSERT_TRUE(auditor.ok());
  EXPECT_FALSE(auditor->IngestBatch({LogRecord{"LU", testing::Mask(0), 5}}).ok());
  EXPECT_FALSE(auditor->IngestBatch({LogRecord{"LU", testing::Mask(0b1), 0}}).ok());
  EXPECT_FALSE(
      auditor->IngestBatch({LogRecord{"LU", LicenseSet::Singleton(40), 5}}).ok());
}

// Property: over any batch split of a generated log, the cumulative
// incremental violations equal a from-scratch grouped audit, and the
// last-reported LHS per set equals the final audit LHS.
class IncrementalEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(IncrementalEquivalenceTest, CumulativeMatchesFullAudit) {
  const int batch_size = GetParam();
  WorkloadConfig config = PaperSweepConfig(10, 123);
  config.num_records = 700;
  config.aggregate_min = 50;
  config.aggregate_max = 500;  // Tight → violations.
  Result<Workload> workload = WorkloadGenerator(config).Generate();
  ASSERT_TRUE(workload.ok());

  Result<IncrementalAuditor> auditor =
      IncrementalAuditor::Create(workload->licenses.get());
  ASSERT_TRUE(auditor.ok());

  std::map<LicenseSet, EquationResult> last_reported;
  const auto& records = workload->log.records();
  for (size_t start = 0; start < records.size();
       start += static_cast<size_t>(batch_size)) {
    const size_t end =
        std::min(records.size(), start + static_cast<size_t>(batch_size));
    const std::vector<LogRecord> batch(records.begin() + static_cast<long>(
                                           start),
                                       records.begin() + static_cast<long>(
                                           end));
    const Result<ValidationReport> report = auditor->IngestBatch(batch);
    ASSERT_TRUE(report.ok());
    for (const EquationResult& violation : report->violations) {
      last_reported[violation.set] = violation;
    }
  }
  EXPECT_EQ(auditor->records_ingested(), records.size());

  const Result<ValidationOutcome> full = Validate(
      *workload->licenses, workload->log, {.mode = ValidationMode::kGrouped});
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(last_reported.size(), full->report.violations.size());
  for (const EquationResult& violation : full->report.violations) {
    const auto it = last_reported.find(violation.set);
    ASSERT_NE(it, last_reported.end())
        << "missing " << (violation.set).ToString();
    EXPECT_EQ(it->second.lhs, violation.lhs);
    EXPECT_EQ(it->second.rhs, violation.rhs);
  }
  // The incremental path evaluated far fewer equations in total than
  // (number of batches) × Σ(2^N_k − 1) would have.
  EXPECT_GT(auditor->equations_evaluated_total(), 0u);
}

INSTANTIATE_TEST_SUITE_P(BatchSizes, IncrementalEquivalenceTest,
                         ::testing::Values(1, 7, 50, 700));

}  // namespace
}  // namespace geolic

#include "workload/workload.h"

#include <gtest/gtest.h>

#include "core/grouping.h"
#include "core/instance_validator.h"

#include "test_util.h"

namespace geolic {
namespace {

TEST(WorkloadConfigTest, DefaultsAreValid) {
  EXPECT_TRUE(WorkloadConfig().Validate().ok());
}

TEST(WorkloadConfigTest, RejectsBadParameters) {
  {
    WorkloadConfig config;
    config.num_licenses = 0;
    EXPECT_FALSE(config.Validate().ok());
  }
  {
    WorkloadConfig config;
    config.num_licenses = kMaxLicensesLarge + 1;
    EXPECT_FALSE(config.Validate().ok());
  }
  {
    WorkloadConfig config;
    config.dimensions = 0;
    EXPECT_FALSE(config.Validate().ok());
  }
  {
    WorkloadConfig config;
    config.min_extent = 0.0;
    EXPECT_FALSE(config.Validate().ok());
  }
  {
    WorkloadConfig config;
    config.min_extent = 0.9;
    config.max_extent = 0.5;
    EXPECT_FALSE(config.Validate().ok());
  }
  {
    WorkloadConfig config;
    config.aggregate_min = 100;
    config.aggregate_max = 50;
    EXPECT_FALSE(config.Validate().ok());
  }
  {
    WorkloadConfig config;
    config.usage_count_min = 0;
    EXPECT_FALSE(config.Validate().ok());
  }
  {
    WorkloadConfig config;
    config.num_records = -1;
    EXPECT_FALSE(config.Validate().ok());
  }
}

TEST(WorkloadGeneratorTest, GeneratesRequestedShape) {
  WorkloadConfig config;
  config.num_licenses = 12;
  config.num_records = 500;
  config.seed = 7;
  WorkloadGenerator generator(config);
  const Result<Workload> workload = generator.Generate();
  ASSERT_TRUE(workload.ok());
  EXPECT_EQ(workload->licenses->size(), 12);
  EXPECT_EQ(workload->log.size(), 500u);
  EXPECT_EQ(workload->schema->dimensions(), 4);
}

TEST(WorkloadGeneratorTest, DeterministicForSameSeed) {
  WorkloadConfig config;
  config.num_licenses = 8;
  config.num_records = 200;
  config.seed = 99;
  const Result<Workload> a = WorkloadGenerator(config).Generate();
  const Result<Workload> b = WorkloadGenerator(config).Generate();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->log.records(), b->log.records());
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(a->licenses->at(i).rect() == b->licenses->at(i).rect());
    EXPECT_EQ(a->licenses->at(i).aggregate_count(),
              b->licenses->at(i).aggregate_count());
  }
}

TEST(WorkloadGeneratorTest, DifferentSeedsDiffer) {
  WorkloadConfig config;
  config.num_licenses = 8;
  config.num_records = 50;
  config.seed = 1;
  const Result<Workload> a = WorkloadGenerator(config).Generate();
  config.seed = 2;
  const Result<Workload> b = WorkloadGenerator(config).Generate();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(a->log.records() == b->log.records());
}

TEST(WorkloadGeneratorTest, AggregatesWithinPaperRange) {
  WorkloadConfig config;
  config.num_licenses = 30;
  config.num_records = 0;
  WorkloadGenerator generator(config);
  const Result<Workload> workload = generator.GenerateLicensesOnly();
  ASSERT_TRUE(workload.ok());
  for (int i = 0; i < 30; ++i) {
    const int64_t aggregate = workload->licenses->at(i).aggregate_count();
    EXPECT_GE(aggregate, config.aggregate_min);
    EXPECT_LE(aggregate, config.aggregate_max);
  }
}

TEST(WorkloadGeneratorTest, UsageCountsWithinPaperRange) {
  WorkloadConfig config;
  config.num_licenses = 10;
  config.num_records = 300;
  WorkloadGenerator generator(config);
  const Result<Workload> workload = generator.Generate();
  ASSERT_TRUE(workload.ok());
  for (const LogRecord& record : workload->log.records()) {
    EXPECT_GE(record.count, config.usage_count_min);
    EXPECT_LE(record.count, config.usage_count_max);
    EXPECT_NE(record.set, testing::Mask(0));
  }
}

TEST(WorkloadGeneratorTest, LogSetsMatchGeometry) {
  // Every log record's set is the set of licenses containing one usage
  // rectangle (LogSetsEqualBruteForceContainingSets), so its members
  // pairwise overlap: they share that rectangle.
  WorkloadConfig config;
  config.num_licenses = 15;
  config.num_records = 400;
  WorkloadGenerator generator(config);
  const Result<Workload> workload = generator.Generate();
  ASSERT_TRUE(workload.ok());
  for (const LogRecord& record : workload->log.records()) {
    const std::vector<int> members = (record.set).ToIndexes();
    for (size_t i = 0; i < members.size(); ++i) {
      for (size_t j = i + 1; j < members.size(); ++j) {
        EXPECT_TRUE(workload->licenses->at(members[i])
                        .OverlapsWith(workload->licenses->at(members[j])));
      }
    }
  }
}

TEST(WorkloadGeneratorTest, LogSetsEqualBruteForceContainingSets) {
  // Replays Generate's draws (its record stream is seeded with
  // seed ^ 0x9e3779b97f4a7c15) and checks that every logged set is exactly
  // the set of licences containing the drawn usage licence, on catalogs of
  // one, two and three result words.
  for (const auto& [seed, n] :
       std::vector<std::pair<uint64_t, int>>{{1, 12}, {7, 70}, {2010, 140}}) {
    WorkloadConfig config;
    config.num_licenses = n;
    config.num_records = 600;
    config.seed = seed;
    WorkloadGenerator generator(config);
    const Result<Workload> workload = generator.Generate();
    ASSERT_TRUE(workload.ok());
    ASSERT_EQ(workload->log.size(), 600u);
    Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
    for (int r = 0; r < config.num_records; ++r) {
      const int parent = static_cast<int>(rng.UniformInt(0, n - 1));
      const License usage =
          generator.DrawUsageLicense(*workload, parent, &rng, r + 1);
      const LogRecord& record =
          workload->log.records()[static_cast<size_t>(r)];
      ASSERT_EQ(record.issued_license_id, usage.id()) << "seed " << seed;
      ASSERT_EQ(record.count, usage.aggregate_count()) << "seed " << seed;
      EXPECT_EQ(record.set,
                testing::BruteForceSatisfyingSet(*workload->licenses, usage))
          << "seed " << seed << " record " << r;
    }
  }
}

TEST(WorkloadGeneratorTest, ClustersBoundGroupCount) {
  // Licenses never overlap across cluster slabs, so the number of overlap
  // groups is at least the number of distinct clusters hit and at most N.
  WorkloadConfig config;
  config.num_licenses = 25;
  config.num_clusters = 4;
  config.num_records = 0;
  config.seed = 5;
  const Result<Workload> workload =
      WorkloadGenerator(config).GenerateLicensesOnly();
  ASSERT_TRUE(workload.ok());
  const LicenseGrouping grouping =
      LicenseGrouping::FromLicenses(*workload->licenses);
  EXPECT_GE(grouping.group_count(), 1);
  EXPECT_LE(grouping.group_count(), 25);
  // With default extents, 25 licenses in 4 clusters should coalesce into a
  // handful of groups (the paper's 1-5 band).
  EXPECT_LE(grouping.group_count(), 12);
}

TEST(WorkloadGeneratorTest, DrawUsageLicenseStaysInsideParent) {
  WorkloadConfig config;
  config.num_licenses = 5;
  config.num_records = 0;
  WorkloadGenerator generator(config);
  const Result<Workload> workload = generator.GenerateLicensesOnly();
  ASSERT_TRUE(workload.ok());
  Rng rng(123);
  for (int i = 0; i < 5; ++i) {
    for (int draw = 0; draw < 20; ++draw) {
      const License usage =
          generator.DrawUsageLicense(*workload, i, &rng, draw);
      EXPECT_TRUE(workload->licenses->at(i).InstanceContains(usage));
      EXPECT_EQ(usage.type(), LicenseType::kUsage);
    }
  }
}

TEST(PaperSweepConfigTest, InterpolatesRecordCounts) {
  EXPECT_EQ(PaperSweepConfig(1).num_records, 600);
  EXPECT_EQ(PaperSweepConfig(35).num_records, 22000);
  const int mid = PaperSweepConfig(18).num_records;
  EXPECT_GT(mid, 600);
  EXPECT_LT(mid, 22000);
  EXPECT_EQ(PaperSweepConfig(10).num_licenses, 10);
}

TEST(PaperSweepConfigTest, SweepConfigsAreValid) {
  for (int n = 1; n <= 35; ++n) {
    EXPECT_TRUE(PaperSweepConfig(n).Validate().ok()) << "n=" << n;
  }
}

}  // namespace
}  // namespace geolic

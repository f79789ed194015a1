// End-to-end coverage of non-contiguous (multi-interval) constraint
// windows: parsing, formatting, builder, instance validation, overlap
// grouping, online validation, and binary serialization.

#include <gtest/gtest.h>

#include "core/grouping.h"
#include "core/instance_validator.h"
#include "licensing/license_parser.h"
#include "licensing/license_serialization.h"
#include "service/issuance_service.h"
#include "test_util.h"

namespace geolic {
namespace {

using testing::IntervalSchema;
using testing::MakeUsage;

TEST(BlackoutWindowsTest, SchemaParsesUnionSyntax) {
  const ConstraintSchema schema = IntervalSchema(1);
  const Result<ConstraintRange> range =
      schema.ParseRange(0, "[0, 10]|[20, 30]");
  ASSERT_TRUE(range.ok());
  ASSERT_TRUE(range->is_multi_interval());
  EXPECT_EQ(range->multi_interval().piece_count(), 2);
  EXPECT_EQ(schema.FormatRange(0, *range), "[0, 10]|[20, 30]");
}

TEST(BlackoutWindowsTest, TouchingWindowsCollapseToInterval) {
  const ConstraintSchema schema = IntervalSchema(1);
  const Result<ConstraintRange> range =
      schema.ParseRange(0, "[0, 10]|[11, 30]");
  ASSERT_TRUE(range.ok());
  EXPECT_TRUE(range->is_interval());
  EXPECT_EQ(range->interval(), Interval(0, 30));
}

TEST(BlackoutWindowsTest, DateWindowsParse) {
  ConstraintSchema schema;
  ASSERT_TRUE(schema.AddIntervalDimension("T", IntervalFormat::kDate).ok());
  const Result<ConstraintRange> range = schema.ParseRange(
      0, "[2026-01-01, 2026-02-28]|[2026-04-01, 2026-06-30]");
  ASSERT_TRUE(range.ok());
  ASSERT_TRUE(range->is_multi_interval());
  EXPECT_EQ(schema.FormatRange(0, *range),
            "[2026-01-01, 2026-02-28]|[2026-04-01, 2026-06-30]");
}

TEST(BlackoutWindowsTest, ParseRejectsEmptyWindow) {
  const ConstraintSchema schema = IntervalSchema(1);
  EXPECT_FALSE(schema.ParseRange(0, "[0, 10]||[20, 30]").ok());
  EXPECT_FALSE(schema.ParseRange(0, "|[20, 30]").ok());
}

TEST(BlackoutWindowsTest, LicenseTextRoundTrip) {
  const ConstraintSchema schema = IntervalSchema(2);
  const Result<License> license = ParseLicense(
      "(K; Play; C1=[0, 10]|[20, 30]; C2=[5, 50]; A=100)", schema,
      LicenseType::kRedistribution, "LD1");
  ASSERT_TRUE(license.ok());
  EXPECT_EQ(license->ToString(schema),
            "(K; Play; C1=[0, 10]|[20, 30]; C2=[5, 50]; A=100)");
  const Result<License> reparsed =
      ParseLicense(license->ToString(schema), schema,
                   LicenseType::kRedistribution, "LD1");
  ASSERT_TRUE(reparsed.ok());
  EXPECT_TRUE(reparsed->rect() == license->rect());
}

TEST(BlackoutWindowsTest, BuilderIntervalUnion) {
  const ConstraintSchema schema = IntervalSchema(1);
  LicenseBuilder builder(&schema);
  builder.SetId("LD1")
      .SetContentKey("K")
      .SetType(LicenseType::kRedistribution)
      .SetPermission(Permission::kPlay)
      .SetAggregateCount(100)
      .SetIntervalUnion("C1", {{0, 10}, {20, 30}});
  const Result<License> license = builder.Build();
  ASSERT_TRUE(license.ok());
  EXPECT_TRUE(license->rect().dim(0).is_multi_interval());
}

TEST(BlackoutWindowsTest, InstanceValidationRespectsBlackout) {
  const ConstraintSchema schema = IntervalSchema(1);
  LicenseCatalog set(&schema);
  LicenseBuilder builder(&schema);
  builder.SetId("LD1")
      .SetContentKey("K")
      .SetType(LicenseType::kRedistribution)
      .SetPermission(Permission::kPlay)
      .SetAggregateCount(100)
      .SetIntervalUnion("C1", {{0, 10}, {20, 30}});
  ASSERT_TRUE(set.Add(*builder.Build()).ok());
  const SoaInstanceValidator validator(&set);

  // Inside the first window.
  EXPECT_EQ(validator.SatisfyingSet(MakeUsage(schema, "U1", {{2, 8}}, 1)),
            testing::Mask(0b1));
  // Inside the second window.
  EXPECT_EQ(validator.SatisfyingSet(MakeUsage(schema, "U2", {{22, 30}}, 1)),
            testing::Mask(0b1));
  // Spanning the blackout gap: NOT contained.
  EXPECT_EQ(validator.SatisfyingSet(MakeUsage(schema, "U3", {{8, 22}}, 1)),
            testing::Mask(0));
  // Entirely inside the gap: not contained.
  EXPECT_EQ(validator.SatisfyingSet(MakeUsage(schema, "U4", {{12, 18}}, 1)),
            testing::Mask(0));
}

TEST(BlackoutWindowsTest, OverlapGroupingSeesThroughGaps) {
  const ConstraintSchema schema = IntervalSchema(1);
  LicenseCatalog set(&schema);
  LicenseBuilder window_builder(&schema);
  window_builder.SetId("LD1")
      .SetContentKey("K")
      .SetType(LicenseType::kRedistribution)
      .SetPermission(Permission::kPlay)
      .SetAggregateCount(100)
      .SetIntervalUnion("C1", {{0, 10}, {20, 30}});
  ASSERT_TRUE(set.Add(*window_builder.Build()).ok());
  // Lives inside LD1's gap — geometrically disjoint despite the bounding
  // interval [0, 30] covering it.
  LicenseBuilder gap_builder(&schema);
  gap_builder.SetId("LD2")
      .SetContentKey("K")
      .SetType(LicenseType::kRedistribution)
      .SetPermission(Permission::kPlay)
      .SetAggregateCount(50)
      .SetInterval("C1", 12, 18);
  ASSERT_TRUE(set.Add(*gap_builder.Build()).ok());

  const LicenseGrouping grouping = LicenseGrouping::FromLicenses(set);
  EXPECT_EQ(grouping.group_count(), 2);  // The gap separates them.
}

TEST(BlackoutWindowsTest, OnlineValidationWithWindows) {
  const ConstraintSchema schema = IntervalSchema(1);
  LicenseCatalog set(&schema);
  LicenseBuilder builder(&schema);
  builder.SetId("LD1")
      .SetContentKey("K")
      .SetType(LicenseType::kRedistribution)
      .SetPermission(Permission::kPlay)
      .SetAggregateCount(50)
      .SetIntervalUnion("C1", {{0, 10}, {20, 30}});
  ASSERT_TRUE(set.Add(*builder.Build()).ok());
  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::Create(&set);
  ASSERT_TRUE(service.ok());
  IssuanceService& validator = **service;
  EXPECT_TRUE(
      validator.TryIssue(MakeUsage(schema, "U1", {{0, 5}}, 30))->accepted());
  // Gap-spanning issue fails instance validation, so the budget stays.
  EXPECT_FALSE(validator.TryIssue(MakeUsage(schema, "U2", {{8, 22}}, 10))
                   ->instance_valid);
  EXPECT_TRUE(validator.TryIssue(MakeUsage(schema, "U3", {{25, 30}}, 20))
                  ->accepted());
  // Budget now exhausted.
  EXPECT_FALSE(
      validator.TryIssue(MakeUsage(schema, "U4", {{0, 1}}, 1))->accepted());
}

TEST(BlackoutWindowsTest, BinarySerializationRoundTrip) {
  const ConstraintSchema schema = IntervalSchema(1);
  LicenseBuilder builder(&schema);
  builder.SetId("LD1")
      .SetContentKey("K")
      .SetType(LicenseType::kRedistribution)
      .SetPermission(Permission::kPlay)
      .SetAggregateCount(100)
      .SetIntervalUnion("C1", {{0, 10}, {20, 30}, {40, 50}});
  const Result<License> original = builder.Build();
  ASSERT_TRUE(original.ok());
  std::string buffer;
  AppendLicenseBinary(*original, &buffer);
  size_t pos = 0;
  const Result<License> loaded = ReadLicenseBinary(buffer, &pos);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->rect() == original->rect());
}

}  // namespace
}  // namespace geolic

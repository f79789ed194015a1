#include "licensing/license_catalog.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace geolic {
namespace {

using testing::IntervalSchema;
using testing::MakeRedistribution;
using testing::MakeUsage;

TEST(LicenseCatalogTest, AddAssignsSequentialIndexes) {
  const ConstraintSchema schema = IntervalSchema(1);
  LicenseCatalog set(&schema);
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(*set.Add(MakeRedistribution(schema, "LD1", {{0, 10}}, 100)), 0);
  EXPECT_EQ(*set.Add(MakeRedistribution(schema, "LD2", {{5, 15}}, 200)), 1);
  EXPECT_EQ(set.size(), 2);
  EXPECT_EQ(set.at(0).id(), "LD1");
  EXPECT_EQ(set.at(1).id(), "LD2");
}

TEST(LicenseCatalogTest, RejectsUsageLicense) {
  const ConstraintSchema schema = IntervalSchema(1);
  LicenseCatalog set(&schema);
  const Result<int> added = set.Add(MakeUsage(schema, "LU1", {{0, 1}}, 5));
  ASSERT_FALSE(added.ok());
  EXPECT_EQ(added.status().code(), StatusCode::kInvalidArgument);
}

TEST(LicenseCatalogTest, RejectsMismatchedContentOrPermission) {
  const ConstraintSchema schema = IntervalSchema(1);
  LicenseCatalog set(&schema);
  ASSERT_TRUE(set.Add(MakeRedistribution(schema, "LD1", {{0, 10}}, 100)).ok());

  LicenseBuilder other_content(&schema);
  other_content.SetId("LD2")
      .SetContentKey("K2")
      .SetType(LicenseType::kRedistribution)
      .SetPermission(Permission::kPlay)
      .SetAggregateCount(10)
      .SetInterval("C1", 0, 1);
  EXPECT_FALSE(set.Add(*other_content.Build()).ok());

  LicenseBuilder other_permission(&schema);
  other_permission.SetId("LD3")
      .SetContentKey("K")
      .SetType(LicenseType::kRedistribution)
      .SetPermission(Permission::kCopy)
      .SetAggregateCount(10)
      .SetInterval("C1", 0, 1);
  EXPECT_FALSE(set.Add(*other_permission.Build()).ok());
}

TEST(LicenseCatalogTest, RejectsDuplicateId) {
  const ConstraintSchema schema = IntervalSchema(1);
  LicenseCatalog set(&schema);
  ASSERT_TRUE(set.Add(MakeRedistribution(schema, "LD1", {{0, 10}}, 100)).ok());
  const Result<int> duplicate =
      set.Add(MakeRedistribution(schema, "LD1", {{5, 15}}, 200));
  ASSERT_FALSE(duplicate.ok());
  EXPECT_EQ(duplicate.status().code(), StatusCode::kAlreadyExists);
}

TEST(LicenseCatalogTest, RejectsDimensionMismatch) {
  const ConstraintSchema schema1 = IntervalSchema(1);
  const ConstraintSchema schema2 = IntervalSchema(2);
  LicenseCatalog set(&schema2);
  EXPECT_FALSE(
      set.Add(MakeRedistribution(schema1, "LD1", {{0, 10}}, 100)).ok());
}

TEST(LicenseCatalogTest, CapsAtMaxLicensesLarge) {
  const ConstraintSchema schema = IntervalSchema(1);
  LicenseCatalog set(&schema);
  for (int i = 0; i < kMaxLicensesLarge; ++i) {
    ASSERT_TRUE(set.Add(MakeRedistribution(schema, "LD" + std::to_string(i),
                                           {{0, 10}}, 100))
                    .ok());
  }
  const Result<int> overflow = set.Add(MakeRedistribution(
      schema, "LD" + std::to_string(kMaxLicensesLarge), {{0, 10}}, 100));
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kCapacityExceeded);
}

TEST(LicenseCatalogTest, AggregateCountsAndSums) {
  const ConstraintSchema schema = IntervalSchema(1);
  LicenseCatalog set(&schema);
  ASSERT_TRUE(set.Add(MakeRedistribution(schema, "LD1", {{0, 10}}, 2000)).ok());
  ASSERT_TRUE(set.Add(MakeRedistribution(schema, "LD2", {{5, 15}}, 1000)).ok());
  ASSERT_TRUE(set.Add(MakeRedistribution(schema, "LD3", {{20, 25}}, 3000)).ok());
  EXPECT_EQ(set.AggregateCounts(), (std::vector<int64_t>{2000, 1000, 3000}));
  // The paper's A[{L1, L2, L3}] example: 2000 + 1000 + 3000.
  EXPECT_EQ(set.AggregateSum(testing::Mask(0b111)), 6000);
  EXPECT_EQ(set.AggregateSum(testing::Mask(0b101)), 5000);
  EXPECT_EQ(set.AggregateSum(testing::Mask(0)), 0);
  EXPECT_EQ(set.AllMask(), testing::Mask(0b111));
}

TEST(LicenseCatalogTest, IndexOfId) {
  const ConstraintSchema schema = IntervalSchema(1);
  LicenseCatalog set(&schema);
  ASSERT_TRUE(set.Add(MakeRedistribution(schema, "LD1", {{0, 10}}, 100)).ok());
  ASSERT_TRUE(set.Add(MakeRedistribution(schema, "LD2", {{5, 15}}, 100)).ok());
  EXPECT_EQ(*set.IndexOfId("LD2"), 1);
  EXPECT_FALSE(set.IndexOfId("LD9").ok());
}

// The bulk build agrees with N × Add: the same catalog from valid input,
// and on every kind of bad license the same first error (code and
// message), wherever in the list it sits.
TEST(LicenseCatalogTest, FromLicensesMatchesAddOneByOne) {
  const ConstraintSchema schema = IntervalSchema(1);
  const ConstraintSchema schema2 = IntervalSchema(2);
  const auto valid = [&schema](int n) {
    std::vector<License> licenses;
    for (int i = 0; i < n; ++i) {
      licenses.push_back(MakeRedistribution(schema, "LD" + std::to_string(i),
                                            {{i, i + 10}}, 100 + i));
    }
    return licenses;
  };
  const auto with_property = [&schema](const std::string& id,
                                       const std::string& content,
                                       Permission permission) {
    LicenseBuilder builder(&schema);
    builder.SetId(id)
        .SetContentKey(content)
        .SetType(LicenseType::kRedistribution)
        .SetPermission(permission)
        .SetAggregateCount(10)
        .SetInterval("C1", 0, 1);
    return *builder.Build();
  };
  const auto one_by_one = [&schema](const std::vector<License>& licenses) {
    LicenseCatalog catalog(&schema);
    for (const License& license : licenses) {
      const Result<int> added = catalog.Add(license);
      if (!added.ok()) {
        return Result<LicenseCatalog>(added.status());
      }
    }
    return Result<LicenseCatalog>(std::move(catalog));
  };

  std::vector<std::vector<License>> inputs;
  inputs.push_back(valid(1));
  inputs.push_back(valid(300));
  for (const int at : {0, 1, 7}) {
    std::vector<License> usage = valid(8);
    usage.insert(usage.begin() + at, MakeUsage(schema, "LU", {{0, 1}}, 5));
    inputs.push_back(usage);
    std::vector<License> dims = valid(8);
    dims.insert(dims.begin() + at,
                MakeRedistribution(schema2, "LW", {{0, 1}, {0, 1}}, 5));
    inputs.push_back(dims);
  }
  std::vector<License> content = valid(5);
  content.push_back(with_property("LK", "K2", Permission::kPlay));
  inputs.push_back(content);
  std::vector<License> permission = valid(5);
  permission.push_back(with_property("LP", "K", Permission::kCopy));
  inputs.push_back(permission);
  std::vector<License> duplicate = valid(9);
  duplicate.push_back(MakeRedistribution(schema, "LD3", {{0, 10}}, 7));
  duplicate.push_back(MakeRedistribution(schema, "LD3", {{0, 10}}, 8));
  inputs.push_back(duplicate);
  inputs.push_back(valid(kMaxLicensesLarge + 1));

  for (size_t c = 0; c < inputs.size(); ++c) {
    const Result<LicenseCatalog> want = one_by_one(inputs[c]);
    const Result<LicenseCatalog> got =
        LicenseCatalog::FromLicenses(&schema, inputs[c]);
    ASSERT_EQ(got.ok(), want.ok()) << c;
    if (!want.ok()) {
      EXPECT_EQ(got.status().code(), want.status().code()) << c;
      EXPECT_EQ(got.status().message(), want.status().message()) << c;
      continue;
    }
    ASSERT_EQ(got->size(), want->size()) << c;
    for (int i = 0; i < want->size(); ++i) {
      EXPECT_EQ(got->at(i).id(), want->at(i).id()) << c;
      EXPECT_EQ(got->at(i).rect(), want->at(i).rect()) << c;
      EXPECT_EQ(got->at(i).aggregate_count(), want->at(i).aggregate_count());
    }
  }
  // The error kinds above are all covered.
  EXPECT_EQ(LicenseCatalog::FromLicenses(&schema, duplicate).status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(LicenseCatalog::FromLicenses(&schema, inputs.back())
                .status()
                .code(),
            StatusCode::kCapacityExceeded);
}

}  // namespace
}  // namespace geolic

#include "licensing/license_serialization.h"

#include <gtest/gtest.h>

#include "licensing/license_parser.h"
#include "test_util.h"
#include "util/random.h"

namespace geolic {
namespace {

using testing::IntervalSchema;
using testing::MakeRedistribution;

TEST(LicenseSerializationTest, RoundTripsIntervalLicense) {
  const ConstraintSchema schema = IntervalSchema(3);
  const License original = MakeRedistribution(
      schema, "LD1", {{0, 10}, {-5, 5}, {100, 200}}, 1234);
  std::string buffer;
  AppendLicenseBinary(original, &buffer);
  size_t pos = 0;
  const Result<License> loaded = ReadLicenseBinary(buffer, &pos);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(pos, buffer.size());
  EXPECT_EQ(loaded->id(), "LD1");
  EXPECT_EQ(loaded->content_key(), "K");
  EXPECT_EQ(loaded->type(), LicenseType::kRedistribution);
  EXPECT_EQ(loaded->permission(), Permission::kPlay);
  EXPECT_EQ(loaded->aggregate_count(), 1234);
  EXPECT_TRUE(loaded->rect() == original.rect());
}

TEST(LicenseSerializationTest, RoundTripsCategoricalLicense) {
  const ConstraintSchema schema = ConstraintSchema::PaperExampleSchema();
  const Result<License> original = ParseLicense(
      "(K; Play; T=[2009-03-10, 2009-03-20]; R={Asia, Europe}; A=2000)",
      schema, LicenseType::kRedistribution, "LD1");
  ASSERT_TRUE(original.ok());
  std::string buffer;
  AppendLicenseBinary(*original, &buffer);
  size_t pos = 0;
  const Result<License> loaded = ReadLicenseBinary(buffer, &pos);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->rect() == original->rect());
  // The reloaded license renders identically through the schema.
  EXPECT_EQ(loaded->ToString(schema), original->ToString(schema));
}

TEST(LicenseSerializationTest, MultipleLicensesInOneStream) {
  const ConstraintSchema schema = IntervalSchema(1);
  std::string buffer;
  for (int i = 0; i < 10; ++i) {
    AppendLicenseBinary(MakeRedistribution(schema, "LD" + std::to_string(i),
                                           {{i, i + 10}}, 100 + i),
                        &buffer);
  }
  size_t pos = 0;
  for (int i = 0; i < 10; ++i) {
    const Result<License> loaded = ReadLicenseBinary(buffer, &pos);
    ASSERT_TRUE(loaded.ok()) << i;
    EXPECT_EQ(loaded->id(), "LD" + std::to_string(i));
    EXPECT_EQ(loaded->aggregate_count(), 100 + i);
  }
  EXPECT_EQ(pos, buffer.size());
}

TEST(LicenseSerializationTest, RejectsTruncation) {
  const ConstraintSchema schema = IntervalSchema(2);
  std::string bytes;
  AppendLicenseBinary(
      MakeRedistribution(schema, "LD1", {{0, 10}, {5, 6}}, 99), &bytes);
  for (size_t cut = 0; cut + 1 < bytes.size(); cut += 5) {
    size_t pos = 0;
    EXPECT_FALSE(ReadLicenseBinary(std::string_view(bytes).substr(0, cut),
                                   &pos)
                     .ok())
        << "cut=" << cut;
  }
}

TEST(LicenseSerializationTest, RejectsCorruptedEnums) {
  const ConstraintSchema schema = IntervalSchema(1);
  std::string bytes;
  AppendLicenseBinary(MakeRedistribution(schema, "X", {{0, 1}}, 1), &bytes);
  // Type byte sits after the two length-prefixed strings: 4 + 1 + 4 + 1.
  const size_t type_offset = 4 + 1 + 4 + 1;
  bytes[type_offset] = 9;
  size_t pos = 0;
  EXPECT_FALSE(ReadLicenseBinary(bytes, &pos).ok());
}

// Property: random mixed-dimension licenses round-trip exactly.
TEST(LicenseSerializationPropertyTest, RandomLicensesRoundTrip) {
  Rng rng(70707);
  for (int trial = 0; trial < 200; ++trial) {
    HyperRect rect;
    const int dims = static_cast<int>(rng.UniformInt(1, 6));
    for (int d = 0; d < dims; ++d) {
      if (rng.Bernoulli(0.5)) {
        const int64_t lo = rng.UniformInt(-1000, 1000);
        rect.AddDim(ConstraintRange(Interval(lo, lo + rng.UniformInt(0,
                                                                     500))));
      } else {
        rect.AddDim(ConstraintRange(CategorySet(rng.Next() | 1)));
      }
    }
    const License original(
        "L" + std::to_string(trial), "content-" + std::to_string(trial % 7),
        rng.Bernoulli(0.5) ? LicenseType::kRedistribution
                           : LicenseType::kUsage,
        static_cast<Permission>(rng.UniformInt(0, kNumPermissions - 1)),
        rect, rng.UniformInt(1, 100000));
    std::string buffer;
    AppendLicenseBinary(original, &buffer);
    size_t pos = 0;
    const Result<License> loaded = ReadLicenseBinary(buffer, &pos);
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(loaded->id(), original.id());
    EXPECT_EQ(loaded->content_key(), original.content_key());
    EXPECT_EQ(loaded->type(), original.type());
    EXPECT_EQ(loaded->permission(), original.permission());
    EXPECT_EQ(loaded->aggregate_count(), original.aggregate_count());
    EXPECT_TRUE(loaded->rect() == original.rect());
  }
}

}  // namespace
}  // namespace geolic

#include "drm/validation_authority.h"

#include <gtest/gtest.h>

#include "test_util.h"
#include "validation/validate.h"

namespace geolic {
namespace {

using testing::IntervalSchema;
using testing::MakeRedistribution;
using testing::MakeUsage;

// Redistribution license for an arbitrary content/permission.
License MakeFor(const ConstraintSchema& schema, const std::string& id,
                const std::string& content, Permission permission,
                int64_t lo, int64_t hi, int64_t aggregate) {
  LicenseBuilder builder(&schema);
  builder.SetId(id)
      .SetContentKey(content)
      .SetType(LicenseType::kRedistribution)
      .SetPermission(permission)
      .SetAggregateCount(aggregate)
      .SetInterval("C1", lo, hi);
  return *builder.Build();
}

License UsageFor(const ConstraintSchema& schema, const std::string& id,
                 const std::string& content, Permission permission,
                 int64_t lo, int64_t hi, int64_t count) {
  LicenseBuilder builder(&schema);
  builder.SetId(id)
      .SetContentKey(content)
      .SetType(LicenseType::kUsage)
      .SetPermission(permission)
      .SetAggregateCount(count)
      .SetInterval("C1", lo, hi);
  return *builder.Build();
}

TEST(ValidationAuthorityTest, RoutesByContentAndPermission) {
  const ConstraintSchema schema = IntervalSchema(1);
  ValidationAuthority authority(&schema);
  ASSERT_TRUE(authority
                  .RegisterRedistribution(MakeFor(schema, "A1", "movie",
                                                  Permission::kPlay, 0, 100,
                                                  500))
                  .ok());
  ASSERT_TRUE(authority
                  .RegisterRedistribution(MakeFor(schema, "A2", "movie",
                                                  Permission::kCopy, 0, 100,
                                                  50))
                  .ok());
  ASSERT_TRUE(authority
                  .RegisterRedistribution(MakeFor(schema, "B1", "song",
                                                  Permission::kPlay, 0, 100,
                                                  200))
                  .ok());
  EXPECT_EQ(authority.domain_count(), 3);

  // Play-movie succeeds against the movie/play domain only.
  const Result<OnlineDecision> play = authority.ValidateIssue(
      UsageFor(schema, "U1", "movie", Permission::kPlay, 10, 20, 100));
  ASSERT_TRUE(play.ok());
  EXPECT_TRUE(play->accepted());

  // Copy-movie uses the separate copy budget (50).
  const Result<OnlineDecision> copy = authority.ValidateIssue(
      UsageFor(schema, "U2", "movie", Permission::kCopy, 10, 20, 60));
  ASSERT_TRUE(copy.ok());
  EXPECT_FALSE(copy->accepted());

  // Unknown content is an error, not a rejection.
  EXPECT_EQ(authority
                .ValidateIssue(UsageFor(schema, "U3", "game",
                                        Permission::kPlay, 0, 1, 1))
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(ValidationAuthorityTest, RejectsBadRegistrations) {
  const ConstraintSchema schema = IntervalSchema(1);
  ValidationAuthority authority(&schema);
  EXPECT_FALSE(authority
                   .RegisterRedistribution(
                       MakeUsage(schema, "U", {{0, 1}}, 5))
                   .ok());
  // A failed first registration must not leave an empty domain behind.
  EXPECT_EQ(authority.domain_count(), 0);

  const ConstraintSchema other = IntervalSchema(2);
  EXPECT_FALSE(authority
                   .RegisterRedistribution(MakeRedistribution(
                       other, "X", {{0, 1}, {0, 1}}, 5))
                   .ok());
  EXPECT_EQ(authority.domain_count(), 0);
}

TEST(ValidationAuthorityTest, HistorySurvivesLicenseGrowth) {
  const ConstraintSchema schema = IntervalSchema(1);
  ValidationAuthority authority(&schema);
  ASSERT_TRUE(authority
                  .RegisterRedistribution(MakeFor(schema, "A1", "movie",
                                                  Permission::kPlay, 0, 50,
                                                  100))
                  .ok());
  ASSERT_TRUE(authority
                  .ValidateIssue(UsageFor(schema, "U1", "movie",
                                          Permission::kPlay, 0, 10, 80))
                  ->accepted());
  // A second license arrives; the grouping rebuild must keep the 80 spent.
  ASSERT_TRUE(authority
                  .RegisterRedistribution(MakeFor(schema, "A2", "movie",
                                                  Permission::kPlay, 40, 90,
                                                  100))
                  .ok());
  const Result<OnlineDecision> over = authority.ValidateIssue(
      UsageFor(schema, "U2", "movie", Permission::kPlay, 0, 10, 30));
  ASSERT_TRUE(over.ok());
  EXPECT_FALSE(over->accepted());  // 80 + 30 > 100 on license A1 alone.
  const Result<const IssuanceService*> service = authority.ServiceFor(
      ValidationAuthority::ContentKey{"movie", Permission::kPlay});
  ASSERT_TRUE(service.ok());
  EXPECT_EQ((*service)->licenses().size(), 2);
  EXPECT_EQ((*service)->CollectLog().size(), 1u);
}

// The offline audit of a domain is Validate over its service's log.
TEST(ValidationAuthorityTest, ServiceForAuditsEachDomain) {
  const ConstraintSchema schema = IntervalSchema(1);
  ValidationAuthority authority(&schema);
  ASSERT_TRUE(authority
                  .RegisterRedistribution(MakeFor(schema, "A1", "movie",
                                                  Permission::kPlay, 0, 50,
                                                  100))
                  .ok());
  ASSERT_TRUE(authority
                  .RegisterRedistribution(MakeFor(schema, "B1", "song",
                                                  Permission::kPlay, 0, 50,
                                                  100))
                  .ok());
  ASSERT_TRUE(authority
                  .ValidateIssue(UsageFor(schema, "U1", "movie",
                                          Permission::kPlay, 0, 10, 40))
                  ->accepted());
  for (const char* content : {"movie", "song"}) {
    const Result<const IssuanceService*> service = authority.ServiceFor(
        ValidationAuthority::ContentKey{content, Permission::kPlay});
    ASSERT_TRUE(service.ok()) << content;
    const Result<ValidationOutcome> audit =
        Validate((*service)->licenses(), (*service)->CollectLog(),
                 {.mode = ValidationMode::kGrouped});
    ASSERT_TRUE(audit.ok()) << content;
    EXPECT_TRUE(audit->report.all_valid()) << content;
  }
  EXPECT_EQ(authority
                .ServiceFor(ValidationAuthority::ContentKey{
                    "nope", Permission::kPlay})
                .status()
                .code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace geolic

#include "drm/validation_authority.h"

#include <cstdio>
#include <fstream>
#include <vector>

#include <gtest/gtest.h>

#include "persist/checkpoint.h"
#include "persist/framing.h"
#include "test_util.h"

namespace geolic {
namespace {

using testing::IntervalSchema;
using testing::MakeRedistribution;
using testing::MakeUsage;

std::string TempPath(const std::string& suffix) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "geolic_" + info->test_suite_name() + "_" +
         info->name() + suffix;
}

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
  EXPECT_EQ(authority.Keys().size(), 3u);

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
  const Result<LogStore> log = authority.LogFor(
      ValidationAuthority::ContentKey{"movie", Permission::kPlay});
  ASSERT_TRUE(log.ok());
  EXPECT_EQ(log->size(), 1u);
}

TEST(ValidationAuthorityTest, AuditAllCoversEveryDomain) {
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
  const Result<std::vector<ValidationAuthority::ContentAudit>> audits =
      authority.AuditAll();
  ASSERT_TRUE(audits.ok());
  ASSERT_EQ(audits->size(), 2u);
  for (const auto& audit : *audits) {
    EXPECT_TRUE(audit.result.report.all_valid());
  }
  EXPECT_FALSE(authority
                   .Audit(ValidationAuthority::ContentKey{
                       "nope", Permission::kPlay})
                   .ok());
}

TEST(ValidationAuthorityTest, CheckpointRestoreRoundTrip) {
  const ConstraintSchema schema = IntervalSchema(1);
  const std::string path = TempPath(".ckpt");

  ValidationAuthority original(&schema);
  ASSERT_TRUE(original
                  .RegisterRedistribution(MakeFor(schema, "A1", "movie",
                                                  Permission::kPlay, 0, 50,
                                                  100))
                  .ok());
  ASSERT_TRUE(original
                  .RegisterRedistribution(MakeFor(schema, "B1", "song",
                                                  Permission::kCopy, 0, 50,
                                                  60))
                  .ok());
  ASSERT_TRUE(original
                  .ValidateIssue(UsageFor(schema, "U1", "movie",
                                          Permission::kPlay, 0, 10, 70))
                  ->accepted());
  ASSERT_TRUE(original
                  .ValidateIssue(UsageFor(schema, "U2", "song",
                                          Permission::kCopy, 5, 8, 20))
                  ->accepted());
  ASSERT_TRUE(original.CheckpointFull(path).ok());

  ValidationAuthority restored(&schema);
  ASSERT_TRUE(restored.RestoreFull(path).ok());

  // The movie budget remembers the 70 already spent.
  const Result<OnlineDecision> over = restored.ValidateIssue(
      UsageFor(schema, "U3", "movie", Permission::kPlay, 0, 10, 40));
  ASSERT_TRUE(over.ok());
  EXPECT_FALSE(over->accepted());
  const Result<OnlineDecision> fits = restored.ValidateIssue(
      UsageFor(schema, "U4", "movie", Permission::kPlay, 0, 10, 30));
  ASSERT_TRUE(fits.ok());
  EXPECT_TRUE(fits->accepted());
  std::remove(path.c_str());
}

TEST(ValidationAuthorityTest, ClosePeriodSettlesAndResets) {
  const ConstraintSchema schema = IntervalSchema(1);
  ValidationAuthority authority(&schema);
  ASSERT_TRUE(authority
                  .RegisterRedistribution(MakeFor(schema, "A1", "movie",
                                                  Permission::kPlay, 0, 50,
                                                  100))
                  .ok());
  ASSERT_TRUE(authority
                  .ValidateIssue(UsageFor(schema, "U1", "movie",
                                          Permission::kPlay, 0, 10, 90))
                  ->accepted());
  // 10 left this period.
  EXPECT_FALSE(authority
                   .ValidateIssue(UsageFor(schema, "U2", "movie",
                                           Permission::kPlay, 0, 10, 20))
                   ->accepted());

  const ValidationAuthority::ContentKey key{"movie", Permission::kPlay};
  const Result<ValidationAuthority::PeriodClose> close =
      authority.ClosePeriod(key);
  ASSERT_TRUE(close.ok());
  EXPECT_TRUE(close->audit.result.report.all_valid());
  ASSERT_TRUE(close->settled);
  EXPECT_EQ(close->settlement.charged[0], 90);
  EXPECT_EQ(close->settlement.remaining[0], 10);
  // One acceptance of 90: one set in the merged archive.
  EXPECT_EQ(close->archived_log.size(), 1u);
  EXPECT_EQ(close->archived_log.TotalCount(), 90);

  // New period: full budget again, empty live log.
  EXPECT_EQ(authority.LogFor(key)->size(), 0u);
  EXPECT_TRUE(authority
                  .ValidateIssue(UsageFor(schema, "U3", "movie",
                                          Permission::kPlay, 0, 10, 100))
                  ->accepted());
}

// After a second registration the domain's catalog belongs to its
// service's epoch; closing the period must leave the next period's service
// with licenses of its own, not the replaced service's.
TEST(ValidationAuthorityTest, ClosePeriodAfterAcquisitionKeepsLicenses) {
  const ConstraintSchema schema = IntervalSchema(1);
  ValidationAuthority authority(&schema);
  ASSERT_TRUE(authority
                  .RegisterRedistribution(MakeFor(schema, "A1", "movie",
                                                  Permission::kPlay, 0, 50,
                                                  100))
                  .ok());
  ASSERT_TRUE(authority
                  .RegisterRedistribution(MakeFor(schema, "A2", "movie",
                                                  Permission::kPlay, 30, 90,
                                                  200))
                  .ok());
  ASSERT_TRUE(authority
                  .ValidateIssue(UsageFor(schema, "U1", "movie",
                                          Permission::kPlay, 35, 45, 250))
                  ->accepted());

  const ValidationAuthority::ContentKey key{"movie", Permission::kPlay};
  const Result<ValidationAuthority::PeriodClose> close =
      authority.ClosePeriod(key);
  ASSERT_TRUE(close.ok());
  ASSERT_TRUE(close->settled);
  EXPECT_EQ(close->settlement.charged[0] + close->settlement.charged[1], 250);

  const Result<const LicenseCatalog*> licenses = authority.LicensesFor(key);
  ASSERT_TRUE(licenses.ok());
  ASSERT_EQ((*licenses)->size(), 2);
  EXPECT_EQ((*licenses)->at(1).id(), "A2");
  EXPECT_TRUE(authority
                  .ValidateIssue(UsageFor(schema, "U2", "movie",
                                          Permission::kPlay, 35, 45, 300))
                  ->accepted());
  const Result<std::vector<ValidationAuthority::ContentAudit>> audits =
      authority.AuditAll();
  ASSERT_TRUE(audits.ok());
  EXPECT_TRUE((*audits)[0].result.report.all_valid());
}

// Writes an authority snapshot (docs/FORMATS.md, "Authority snapshots")
// of one domain holding `licenses` and `records`, encoded here rather than
// by the authority — used to restore a history online validation would
// never admit.
void WriteSnapshot(const std::string& path, const ConstraintSchema& schema,
                   const std::vector<License>& licenses,
                   const std::vector<LogRecord>& records) {
  ServiceState state;
  state.licenses = std::make_unique<LicenseCatalog>(&schema);
  for (const License& license : licenses) {
    ASSERT_TRUE(state.licenses->Add(license).ok());
  }
  for (const LogRecord& record : records) {
    ASSERT_TRUE(state.records.Append(record).ok());
  }
  std::string payload;
  framing::PutScalar<uint32_t>(&payload, 1);  // Domains.
  ASSERT_TRUE(EncodeServiceState(state, &payload).ok());
  ASSERT_TRUE(
      WriteCheckpointFile(CheckpointKind::kAuthoritySnapshot, payload, path)
          .ok());
}

TEST(ValidationAuthorityTest, ClosePeriodWithViolationsSkipsSettlement) {
  const ConstraintSchema schema = IntervalSchema(1);
  ValidationAuthority authority(&schema);
  // Inject a rogue 150-count history against the 100 budget.
  const std::string path = TempPath(".ckpt");
  WriteSnapshot(path, schema,
                {MakeFor(schema, "A1", "movie", Permission::kPlay, 0, 50, 100)},
                {LogRecord{"", testing::Mask(0b1), 150}});
  ASSERT_TRUE(authority.RestoreFull(path).ok());

  const ValidationAuthority::ContentKey key{"movie", Permission::kPlay};
  const Result<ValidationAuthority::PeriodClose> close =
      authority.ClosePeriod(key);
  ASSERT_TRUE(close.ok());
  EXPECT_FALSE(close->audit.result.report.all_valid());
  EXPECT_FALSE(close->settled);
  ASSERT_EQ(close->audit.result.report.violations.size(), 1u);
  EXPECT_EQ(close->audit.result.report.violations[0].lhs, 150);
  // The period still reset.
  EXPECT_EQ(authority.LogFor(key)->size(), 0u);
  std::remove(path.c_str());

  EXPECT_FALSE(authority
                   .ClosePeriod(ValidationAuthority::ContentKey{
                       "nope", Permission::kPlay})
                   .ok());
}

TEST(ValidationAuthorityTest, FullCheckpointRestoreRoundTrip) {
  const ConstraintSchema schema = IntervalSchema(1);
  const std::string path = TempPath(".full");

  ValidationAuthority original(&schema);
  ASSERT_TRUE(original
                  .RegisterRedistribution(MakeFor(schema, "A1", "movie",
                                                  Permission::kPlay, 0, 50,
                                                  100))
                  .ok());
  ASSERT_TRUE(original
                  .RegisterRedistribution(MakeFor(schema, "A2", "movie",
                                                  Permission::kPlay, 30, 90,
                                                  200))
                  .ok());
  ASSERT_TRUE(original
                  .RegisterRedistribution(MakeFor(schema, "B1", "song",
                                                  Permission::kCopy, 0, 10,
                                                  60))
                  .ok());
  ASSERT_TRUE(original
                  .ValidateIssue(UsageFor(schema, "U1", "movie",
                                          Permission::kPlay, 35, 45, 70))
                  ->accepted());
  ASSERT_TRUE(original.CheckpointFull(path).ok());

  // No re-registration needed.
  ValidationAuthority restored(&schema);
  ASSERT_TRUE(restored.RestoreFull(path).ok());
  EXPECT_EQ(restored.domain_count(), 2);
  const Result<const LicenseCatalog*> licenses = restored.LicensesFor(
      ValidationAuthority::ContentKey{"movie", Permission::kPlay});
  ASSERT_TRUE(licenses.ok());
  EXPECT_EQ((*licenses)->size(), 2);
  const Result<LogStore> log = restored.LogFor(
      ValidationAuthority::ContentKey{"movie", Permission::kPlay});
  ASSERT_TRUE(log.ok());
  EXPECT_EQ(log->size(), 1u);

  // Budget state carried over: U1's 70 counts hit both A1 and A2.
  const Result<std::vector<ValidationAuthority::ContentAudit>> audits =
      restored.AuditAll();
  ASSERT_TRUE(audits.ok());
  for (const auto& audit : *audits) {
    EXPECT_TRUE(audit.result.report.all_valid());
  }
  const Result<OnlineDecision> over = restored.ValidateIssue(
      UsageFor(schema, "U2", "movie", Permission::kPlay, 35, 45, 250));
  ASSERT_TRUE(over.ok());
  EXPECT_FALSE(over->accepted());
  std::remove(path.c_str());
}

TEST(ValidationAuthorityTest, RestoreFullRequiresEmptyAuthority) {
  const ConstraintSchema schema = IntervalSchema(1);
  const std::string path = TempPath(".full");
  {
    ValidationAuthority original(&schema);
    ASSERT_TRUE(original
                    .RegisterRedistribution(MakeFor(schema, "A1", "movie",
                                                    Permission::kPlay, 0, 50,
                                                    100))
                    .ok());
    ASSERT_TRUE(original.CheckpointFull(path).ok());
  }
  ValidationAuthority busy(&schema);
  ASSERT_TRUE(busy.RegisterRedistribution(MakeFor(schema, "X", "other",
                                                  Permission::kPlay, 0, 1,
                                                  5))
                  .ok());
  EXPECT_EQ(busy.RestoreFull(path).code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST(ValidationAuthorityTest, RestoreFullRejectsTruncation) {
  const ConstraintSchema schema = IntervalSchema(1);
  const std::string path = TempPath(".full");
  {
    ValidationAuthority original(&schema);
    ASSERT_TRUE(original
                    .RegisterRedistribution(MakeFor(schema, "A1", "movie",
                                                    Permission::kPlay, 0, 50,
                                                    100))
                    .ok());
    ASSERT_TRUE(original
                    .ValidateIssue(UsageFor(schema, "U1", "movie",
                                            Permission::kPlay, 0, 10, 10))
                    ->accepted());
    ASSERT_TRUE(original.CheckpointFull(path).ok());
  }
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  for (size_t cut = 9; cut + 1 < bytes.size(); cut += 11) {
    const std::string truncated_path = path + ".cut";
    {
      std::ofstream out(truncated_path, std::ios::binary);
      out.write(bytes.data(), static_cast<std::streamsize>(cut));
    }
    ValidationAuthority fresh(&schema);
    EXPECT_FALSE(fresh.RestoreFull(truncated_path).ok()) << "cut=" << cut;
    EXPECT_EQ(fresh.domain_count(), 0) << "cut=" << cut;
    std::remove(truncated_path.c_str());
  }
  std::remove(path.c_str());
}

TEST(ValidationAuthorityTest, RestoreRejectsGarbage) {
  const ConstraintSchema schema = IntervalSchema(1);
  ValidationAuthority authority(&schema);
  const std::string path = TempPath(".ckpt");
  {
    std::ofstream out(path, std::ios::binary);
    out << "NOT A CHECKPOINT";
  }
  EXPECT_EQ(authority.RestoreFull(path).code(), StatusCode::kParseError);
  EXPECT_EQ(authority.RestoreFull("/nonexistent/x.ckpt").code(),
            StatusCode::kIoError);
  EXPECT_EQ(authority.domain_count(), 0);
  std::remove(path.c_str());
}

// A record over more than 64 licenses round-trips through a fresh process
// image: the snapshot carries the set's words, not the in-memory object.
TEST(ValidationAuthorityTest, WideRecordRoundTripsThroughFreshAuthority) {
  const ConstraintSchema schema = IntervalSchema(1);
  const std::string path = TempPath(".full");
  const ValidationAuthority::ContentKey key{"movie", Permission::kPlay};
  {
    ValidationAuthority original(&schema);
    for (int i = 0; i < 65; ++i) {
      ASSERT_TRUE(original
                      .RegisterRedistribution(MakeFor(
                          schema, "A" + std::to_string(i), "movie",
                          Permission::kPlay, 0, 100, 10))
                      .ok());
    }
    // Inside all 65 licenses: |S| = 65.
    const Result<OnlineDecision> decision = original.ValidateIssue(
        UsageFor(schema, "U1", "movie", Permission::kPlay, 10, 20, 600));
    ASSERT_TRUE(decision.ok());
    ASSERT_TRUE(decision->accepted());
    ASSERT_EQ(decision->satisfying_set.Size(), 65);
    ASSERT_TRUE(original.CheckpointFull(path).ok());
  }

  ValidationAuthority restored(&schema);
  ASSERT_TRUE(restored.RestoreFull(path).ok());
  const Result<LogStore> log = restored.LogFor(key);
  ASSERT_TRUE(log.ok());
  ASSERT_EQ(log->size(), 1u);
  EXPECT_EQ(log->records()[0].set, LicenseSet::Full(65));
  EXPECT_EQ(log->records()[0].count, 600);
  // 650 in all, 600 spent: 50 fit, 51 do not.
  EXPECT_FALSE(restored
                   .ValidateIssue(UsageFor(schema, "U2", "movie",
                                           Permission::kPlay, 10, 20, 51))
                   ->accepted());
  EXPECT_TRUE(restored
                  .ValidateIssue(UsageFor(schema, "U3", "movie",
                                          Permission::kPlay, 10, 20, 50))
                  ->accepted());
  std::remove(path.c_str());
}

// A record whose set decodes to more words than the domain's catalog holds
// is a parse error, not a crash — and the same snapshot with an in-range
// set restores, so the rejection is the set's alone.
TEST(ValidationAuthorityTest, RestoreRejectsSetOutsideCatalog) {
  const ConstraintSchema schema = IntervalSchema(1);
  const std::string path = TempPath(".full");
  const std::vector<License> licenses = {
      MakeFor(schema, "A1", "movie", Permission::kPlay, 0, 50, 100),
      MakeFor(schema, "A2", "movie", Permission::kPlay, 30, 90, 100),
      MakeFor(schema, "A3", "movie", Permission::kPlay, 200, 300, 100)};

  WriteSnapshot(path, schema, licenses,
                {LogRecord{"", testing::Mask(0b11), 5}});
  {
    ValidationAuthority authority(&schema);
    EXPECT_TRUE(authority.RestoreFull(path).ok());
  }

  LicenseSet wide = testing::Mask(0b11);
  wide.Add(70);  // Two words; the catalog has three licenses.
  WriteSnapshot(path, schema, licenses, {LogRecord{"", wide, 5}});
  ValidationAuthority authority(&schema);
  EXPECT_EQ(authority.RestoreFull(path).code(), StatusCode::kParseError);
  EXPECT_EQ(authority.domain_count(), 0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace geolic

// Edge cases of IssuanceService::Recover the crash simulations rarely hit
// head-on: a journal holding zero frames, a checkpoint that covers zero
// frames, and a journal whose first frame predates the checkpoint cut. In
// every case the recovered state must equal a serial replay of the same
// accepted requests on a fresh service, and RecoveryStats must account for
// exactly where each record came from. Then the rules of replay by
// re-execution: an op that does not succeed again, and a frame of the
// older record format, fail recovery loudly; and replay counts into no
// metrics block the recovered service keeps.

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "licensing/license_serialization.h"
#include "persist/checkpoint.h"
#include "persist/framing.h"
#include "persist/journal.h"
#include "persist/sync_file.h"
#include "service/issuance_service.h"
#include "test_util.h"
#include "util/crc32c.h"

namespace geolic {
namespace {

using geolic::testing::IntervalSchema;
using geolic::testing::MakeRedistribution;
using geolic::testing::MakeUsage;

LicenseCatalog TwoGroupSet(const ConstraintSchema& schema) {
  LicenseCatalog licenses(&schema);
  EXPECT_TRUE(
      licenses.Add(MakeRedistribution(schema, "L1", {{0, 20}}, 100)).ok());
  EXPECT_TRUE(
      licenses.Add(MakeRedistribution(schema, "L2", {{10, 30}}, 100)).ok());
  EXPECT_TRUE(
      licenses.Add(MakeRedistribution(schema, "L3", {{100, 120}}, 100)).ok());
  return licenses;
}

License RequestAt(const ConstraintSchema& schema, int i) {
  const std::string id = "U" + std::to_string(i);
  return i % 2 == 0 ? MakeUsage(schema, id, {{12, 18}}, 1)
                    : MakeUsage(schema, id, {{105, 115}}, 1);
}

// The ground truth every recovery is held to: the same requests issued
// one at a time on a fresh, journal-less service.
std::unique_ptr<IssuanceService> SerialReplay(const ConstraintSchema& schema,
                                              const LicenseCatalog& licenses,
                                              int requests) {
  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::Create(&licenses);
  EXPECT_TRUE(service.ok());
  for (int i = 0; i < requests; ++i) {
    const Result<OnlineDecision> decision =
        (*service)->TryIssue(RequestAt(schema, i));
    EXPECT_TRUE(decision.ok());
    EXPECT_TRUE(decision->accepted()) << "request " << i;
  }
  return std::move(*service);
}

void ExpectSameState(IssuanceService* recovered, IssuanceService* serial) {
  EXPECT_EQ(recovered->CollectLog().MergedCounts(),
            serial->CollectLog().MergedCounts());
  EXPECT_EQ(recovered->CollectTree()->ToString(),
            serial->CollectTree()->ToString());
}

TEST(RecoveryEdgeTest, EmptyJournalNoCheckpointYieldsEmptyWorkingService) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = TwoGroupSet(schema);
  const testing::ScopedTempPath journal_file("edge_empty.gjl");
  const std::string& journal_path = journal_file.path();
  {
    // A journal that was created (magic written) and then never used —
    // the crash-right-after-rotation shape.
    Result<std::unique_ptr<JournalWriter>> journal =
        JournalWriter::Open(journal_path);
    ASSERT_TRUE(journal.ok());
  }

  RecoveryStats stats;
  Result<std::unique_ptr<IssuanceService>> recovered =
      IssuanceService::Recover(&licenses, {}, /*checkpoint_path=*/"",
                               journal_path, &stats);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(stats.checkpoint_records, 0u);
  EXPECT_EQ(stats.journal_records_replayed, 0u);
  EXPECT_EQ(stats.journal_records_skipped, 0u);
  EXPECT_FALSE(stats.journal_torn_tail);
  EXPECT_TRUE((*recovered)->CollectLog().empty());

  // The recovered service is a fully working empty service.
  const Result<OnlineDecision> decision =
      (*recovered)->TryIssue(RequestAt(schema, 0));
  ASSERT_TRUE(decision.ok());
  EXPECT_TRUE(decision->accepted());
}

TEST(RecoveryEdgeTest, EmptyJournalAfterCheckpointRecoversCheckpointExactly) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = TwoGroupSet(schema);
  const testing::ScopedTempPath checkpoint_file("edge_ckpt_then_empty.gck");
  const std::string& checkpoint_path = checkpoint_file.path();
  const testing::ScopedTempPath rotated_file("edge_rotated_empty.gjl");
  const std::string& rotated_path = rotated_file.path();
  const testing::ScopedTempPath old_journal_file(
      "edge_ckpt_then_empty_old.gjl");
  constexpr int kRequests = 10;
  size_t checkpoint_sets = 0;  // The checkpoint holds one record per set.
  {
    Result<std::unique_ptr<IssuanceService>> service =
        IssuanceService::Create(&licenses);
    ASSERT_TRUE(service.ok());
    Result<std::unique_ptr<JournalWriter>> journal =
        JournalWriter::Open(old_journal_file.path());
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE((*service)->AttachJournal(std::move(*journal)).ok());
    for (int i = 0; i < kRequests; ++i) {
      ASSERT_TRUE((*service)->TryIssue(RequestAt(schema, i)).ok());
    }
    ASSERT_EQ((*service)->metrics().Snap().accepted,
              static_cast<uint64_t>(kRequests));
    checkpoint_sets = (*service)->CollectLog().size();
    ASSERT_TRUE((*service)->WriteCheckpoint(checkpoint_path).ok());
    // Journal rotation after the checkpoint: the new journal gets its
    // magic, then the process dies before any admission.
    Result<std::unique_ptr<JournalWriter>> rotated =
        JournalWriter::Open(rotated_path);
    ASSERT_TRUE(rotated.ok());
  }

  RecoveryStats stats;
  Result<std::unique_ptr<IssuanceService>> recovered =
      IssuanceService::Recover(&licenses, {}, checkpoint_path, rotated_path,
                               &stats);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(stats.checkpoint_records, checkpoint_sets);
  EXPECT_EQ(stats.journal_records_replayed, 0u);
  EXPECT_EQ(stats.journal_records_skipped, 0u);
  EXPECT_FALSE(stats.journal_torn_tail);

  const std::unique_ptr<IssuanceService> serial =
      SerialReplay(schema, licenses, kRequests);
  ExpectSameState(recovered->get(), serial.get());
}

// A checkpoint publish that fails (here because its ".tmp" path is a
// directory) leaves the previous checkpoint in place, byte for byte:
// Recover reads it and replays the journal's tail past it.
TEST(RecoveryEdgeTest, FailedCheckpointPublishKeepsThePreviousCheckpoint) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = TwoGroupSet(schema);
  const testing::ScopedTempPath checkpoint_file("edge_failed_publish.gck");
  const std::string& checkpoint_path = checkpoint_file.path();
  const testing::ScopedTempPath blocked_tmp("edge_failed_publish.gck.tmp");
  const testing::ScopedTempPath journal_file("edge_failed_publish.gjl");
  constexpr int kRequests = 10;
  constexpr int kCheckpointed = 6;
  size_t checkpoint_sets = 0;
  std::string previous;
  {
    Result<std::unique_ptr<IssuanceService>> service =
        IssuanceService::Create(&licenses);
    ASSERT_TRUE(service.ok());
    Result<std::unique_ptr<JournalWriter>> journal =
        JournalWriter::Open(journal_file.path());
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE((*service)->AttachJournal(std::move(*journal)).ok());
    for (int i = 0; i < kRequests; ++i) {
      if (i == kCheckpointed) {
        checkpoint_sets = (*service)->CollectLog().size();
        ASSERT_TRUE((*service)->WriteCheckpoint(checkpoint_path).ok());
        Result<std::string> payload = ReadCheckpointFile(
            CheckpointKind::kServiceSnapshot, checkpoint_path);
        ASSERT_TRUE(payload.ok());
        previous = *payload;
      }
      ASSERT_TRUE((*service)->TryIssue(RequestAt(schema, i)).ok());
    }
    ASSERT_TRUE(std::filesystem::create_directory(blocked_tmp.path()));
    EXPECT_FALSE((*service)->WriteCheckpoint(checkpoint_path).ok());
  }
  Result<std::string> kept =
      ReadCheckpointFile(CheckpointKind::kServiceSnapshot, checkpoint_path);
  ASSERT_TRUE(kept.ok()) << kept.status().message();
  EXPECT_EQ(*kept, previous);

  RecoveryStats stats;
  Result<std::unique_ptr<IssuanceService>> recovered =
      IssuanceService::Recover(&licenses, {}, checkpoint_path,
                               journal_file.path(), &stats);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  EXPECT_EQ(stats.checkpoint_records, checkpoint_sets);
  EXPECT_EQ(stats.journal_records_skipped,
            static_cast<size_t>(kCheckpointed));
  EXPECT_EQ(stats.journal_records_replayed,
            static_cast<size_t>(kRequests - kCheckpointed));
  const std::unique_ptr<IssuanceService> serial =
      SerialReplay(schema, licenses, kRequests);
  ExpectSameState(recovered->get(), serial.get());
}

TEST(RecoveryEdgeTest, JournalCutInsideItsMagicRecoversTheCheckpointExactly) {
  // A journal that a crash left before its first sync holds a prefix of
  // its magic: nothing at all, or some of its 8 bytes. No frame on it was
  // acknowledged, so recovery yields exactly the checkpoint's state, or an
  // empty working service without one.
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = TwoGroupSet(schema);
  const testing::ScopedTempPath checkpoint_file("edge_magic_cut.gck");
  const std::string& checkpoint_path = checkpoint_file.path();
  const testing::ScopedTempPath journal_file("edge_magic_cut.gjl");
  const std::string& journal_path = journal_file.path();
  constexpr int kRequests = 10;
  size_t checkpoint_sets = 0;
  {
    Result<std::unique_ptr<IssuanceService>> service =
        IssuanceService::Create(&licenses);
    ASSERT_TRUE(service.ok());
    Result<std::unique_ptr<JournalWriter>> journal =
        JournalWriter::Create(std::make_unique<InMemorySyncFile>());
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE((*service)->AttachJournal(std::move(*journal)).ok());
    for (int i = 0; i < kRequests; ++i) {
      ASSERT_TRUE((*service)->TryIssue(RequestAt(schema, i)).ok());
    }
    checkpoint_sets = (*service)->CollectLog().size();
    ASSERT_TRUE((*service)->WriteCheckpoint(checkpoint_path).ok());
  }
  const std::unique_ptr<IssuanceService> serial =
      SerialReplay(schema, licenses, kRequests);
  const std::unique_ptr<IssuanceService> empty =
      SerialReplay(schema, licenses, 0);

  for (const size_t cut : {size_t{0}, size_t{5}}) {
    {
      std::ofstream out(journal_path, std::ios::binary | std::ios::trunc);
      out.write(kJournalMagic, static_cast<std::streamsize>(cut));
      ASSERT_TRUE(out.good());
    }
    for (const bool with_checkpoint : {false, true}) {
      SCOPED_TRACE("cut=" + std::to_string(cut) +
                   " checkpoint=" + std::to_string(with_checkpoint));
      RecoveryStats stats;
      Result<std::unique_ptr<IssuanceService>> recovered =
          IssuanceService::Recover(&licenses, {},
                                   with_checkpoint ? checkpoint_path : "",
                                   journal_path, &stats);
      ASSERT_TRUE(recovered.ok()) << recovered.status().message();
      EXPECT_EQ(stats.checkpoint_records,
                with_checkpoint ? checkpoint_sets : 0u);
      EXPECT_EQ(stats.journal_records_replayed, 0u);
      EXPECT_EQ(stats.journal_records_skipped, 0u);
      EXPECT_FALSE(stats.journal_torn_tail);
      ExpectSameState(recovered->get(),
                      with_checkpoint ? serial.get() : empty.get());
      // The recovered service admits like the state it recovered.
      const Result<OnlineDecision> decision =
          (*recovered)->TryIssue(RequestAt(schema, kRequests));
      ASSERT_TRUE(decision.ok());
      EXPECT_TRUE(decision->accepted());
    }
  }
}

TEST(RecoveryEdgeTest, CheckpointCoveringZeroFramesReplaysWholeJournal) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = TwoGroupSet(schema);
  const testing::ScopedTempPath checkpoint_file("edge_zero_cover.gck");
  const std::string& checkpoint_path = checkpoint_file.path();
  const testing::ScopedTempPath journal_file("edge_zero_cover.gjl");
  const std::string& journal_path = journal_file.path();
  constexpr int kRequests = 12;
  {
    Result<std::unique_ptr<IssuanceService>> service =
        IssuanceService::Create(&licenses);
    ASSERT_TRUE(service.ok());
    Result<std::unique_ptr<JournalWriter>> journal =
        JournalWriter::Open(journal_path);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE((*service)->AttachJournal(std::move(*journal)).ok());
    // Checkpoint BEFORE any admission: it covers journal sequence 0 and
    // holds zero records. Every journal frame postdates the cut.
    ASSERT_TRUE((*service)->WriteCheckpoint(checkpoint_path).ok());
    for (int i = 0; i < kRequests; ++i) {
      ASSERT_TRUE((*service)->TryIssue(RequestAt(schema, i)).ok());
    }
  }

  RecoveryStats stats;
  Result<std::unique_ptr<IssuanceService>> recovered =
      IssuanceService::Recover(&licenses, {}, checkpoint_path, journal_path,
                               &stats);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(stats.checkpoint_records, 0u);
  EXPECT_EQ(stats.journal_records_replayed, static_cast<size_t>(kRequests));
  EXPECT_EQ(stats.journal_records_skipped, 0u);
  EXPECT_FALSE(stats.journal_torn_tail);

  const std::unique_ptr<IssuanceService> serial =
      SerialReplay(schema, licenses, kRequests);
  ExpectSameState(recovered->get(), serial.get());
}

TEST(RecoveryEdgeTest, JournalFramesPredatingCheckpointCutAreSkippedNotDoubled) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = TwoGroupSet(schema);
  const testing::ScopedTempPath checkpoint_file("edge_predate.gck");
  const std::string& checkpoint_path = checkpoint_file.path();
  const testing::ScopedTempPath journal_file("edge_predate.gjl");
  const std::string& journal_path = journal_file.path();
  constexpr int kBeforeCheckpoint = 8;
  constexpr int kAfterCheckpoint = 7;
  constexpr int kRequests = kBeforeCheckpoint + kAfterCheckpoint;
  size_t checkpoint_sets = 0;  // The checkpoint holds one record per set.
  {
    Result<std::unique_ptr<IssuanceService>> service =
        IssuanceService::Create(&licenses);
    ASSERT_TRUE(service.ok());
    Result<std::unique_ptr<JournalWriter>> journal =
        JournalWriter::Open(journal_path);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE((*service)->AttachJournal(std::move(*journal)).ok());
    for (int i = 0; i < kBeforeCheckpoint; ++i) {
      ASSERT_TRUE((*service)->TryIssue(RequestAt(schema, i)).ok());
    }
    ASSERT_EQ((*service)->metrics().Snap().accepted,
              static_cast<uint64_t>(kBeforeCheckpoint));
    checkpoint_sets = (*service)->CollectLog().size();
    ASSERT_TRUE((*service)->WriteCheckpoint(checkpoint_path).ok());
    for (int i = kBeforeCheckpoint; i < kRequests; ++i) {
      ASSERT_TRUE((*service)->TryIssue(RequestAt(schema, i)).ok());
    }
  }

  // The journal still starts at frame 1, well before the checkpoint's cut
  // at sequence 8: recovery must skip the covered prefix (no double
  // counting) and replay only the tail.
  RecoveryStats stats;
  Result<std::unique_ptr<IssuanceService>> recovered =
      IssuanceService::Recover(&licenses, {}, checkpoint_path, journal_path,
                               &stats);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(stats.checkpoint_records, checkpoint_sets);
  EXPECT_EQ(stats.journal_records_skipped,
            static_cast<size_t>(kBeforeCheckpoint));
  EXPECT_EQ(stats.journal_records_replayed,
            static_cast<size_t>(kAfterCheckpoint));
  EXPECT_FALSE(stats.journal_torn_tail);

  const std::unique_ptr<IssuanceService> serial =
      SerialReplay(schema, licenses, kRequests);
  ExpectSameState(recovered->get(), serial.get());
}

// Writes `bytes` as the journal file at `path`.
void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

// A service journal: one issue op that replays fine, then `op` at seq 2.
std::string JournalWithSecondOp(const ConstraintSchema& schema,
                                const OpRef& op) {
  auto file = std::make_unique<InMemorySyncFile>();
  InMemorySyncFile* disk = file.get();
  Result<std::unique_ptr<JournalWriter>> writer =
      JournalWriter::Create(std::move(file));
  EXPECT_TRUE(writer.ok());
  EXPECT_TRUE(
      (*writer)->AppendOp(1, OpRef::Issue(RequestAt(schema, 0))).ok());
  EXPECT_TRUE((*writer)->AppendOp(2, op).ok());
  return disk->contents();
}

// The service journals only ops that succeeded, so replay is strict: an op
// that does not succeed again fails recovery with ParseError naming its
// frame's sequence number, with or without a checkpoint under the tail.
TEST(RecoveryEdgeTest, AnOpThatDoesNotReplayAsItRanLiveFailsRecovery) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = TwoGroupSet(schema);
  const License over_budget = MakeUsage(schema, "UO", {{1, 5}}, 101);
  struct Case {
    const char* name;
    OpRef op;
  };
  const Case cases[] = {
      {"over-budget issue", OpRef::Issue(over_budget)},
      {"revoke of an unknown id", OpRef::Revoke("L9")},
      {"expire removing nothing", OpRef::Expire(0, -100)},
  };
  const testing::ScopedTempPath checkpoint_file("edge_strict.gck");
  const std::string& checkpoint_path = checkpoint_file.path();
  {
    Result<std::unique_ptr<IssuanceService>> empty =
        IssuanceService::Create(&licenses);
    ASSERT_TRUE(empty.ok());
    ASSERT_TRUE((*empty)->WriteCheckpoint(checkpoint_path).ok());
  }
  const testing::ScopedTempPath journal_file("edge_strict.gjl");
  const std::string& journal_path = journal_file.path();
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    WriteFile(journal_path, JournalWithSecondOp(schema, c.op));
    for (const std::string& checkpoint : {std::string(), checkpoint_path}) {
      const Result<std::unique_ptr<IssuanceService>> recovered =
          IssuanceService::Recover(&licenses, {}, checkpoint, journal_path);
      ASSERT_FALSE(recovered.ok());
      EXPECT_EQ(recovered.status().code(), StatusCode::kParseError);
      EXPECT_NE(recovered.status().message().find("seq 2 "),
                std::string::npos)
          << recovered.status().message();
    }
  }
  // The same journals with an op that succeeds recover.
  const License within_budget = RequestAt(schema, 1);
  const Case fine[] = {
      {"issue within budget", OpRef::Issue(within_budget)},
      {"revoke of a known id", OpRef::Revoke("L3")},
      {"expire removing L1", OpRef::Expire(0, 21)},
  };
  for (const Case& c : fine) {
    SCOPED_TRACE(c.name);
    WriteFile(journal_path, JournalWithSecondOp(schema, c.op));
    RecoveryStats stats;
    const Result<std::unique_ptr<IssuanceService>> recovered =
        IssuanceService::Recover(&licenses, {}, "", journal_path, &stats);
    ASSERT_TRUE(recovered.ok()) << recovered.status().message();
    EXPECT_EQ(stats.journal_records_replayed, 2u);
  }
}

// Frames of the older service journal format — record frames (a set word,
// or the wide-set escape with its word count) and the reconfiguration tags
// 0x80000001..3 — fail recovery loudly, naming the frame's byte offset.
TEST(RecoveryEdgeTest, OlderFormatFramesFailRecoveryWithTheirOffset) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = TwoGroupSet(schema);
  const auto tagged = [](uint32_t tag, std::string_view body) {
    std::string payload;
    framing::PutScalar(&payload, uint64_t{0});
    framing::PutScalar(&payload, tag);
    payload.append(body);
    return payload;
  };
  LogRecord narrow;
  narrow.issued_license_id = "LU1";
  narrow.set = testing::Mask(0b1);
  narrow.count = 1;
  LogRecord wide = narrow;
  wide.set = LicenseSet();
  wide.set.Add(0);
  wide.set.Add(70);
  std::string set_word;
  EncodeLogRecord(narrow, &set_word);
  std::string wide_set;
  EncodeLogRecord(wide, &wide_set);
  std::string acquire_body;
  AppendLicenseBinary(MakeRedistribution(schema, "L4", {{300, 320}}, 9),
                      &acquire_body);
  std::string revoke_body;
  framing::PutScalar(&revoke_body, uint32_t{1});
  framing::PutScalar(&revoke_body, uint32_t{2});
  revoke_body.append("L2");
  std::string expire_body;
  framing::PutScalar(&expire_body, uint32_t{0});
  framing::PutScalar(&expire_body, int64_t{21});
  framing::PutScalar(&expire_body, uint32_t{1});
  framing::PutScalar(&expire_body, uint32_t{0});
  const std::pair<const char*, std::string> old_payloads[] = {
      {"set-word admission", set_word},
      {"wide-set admission", wide_set},
      {"acquire 0x80000001", tagged(0x80000001u, acquire_body)},
      {"revoke 0x80000002", tagged(0x80000002u, revoke_body)},
      {"expire 0x80000003", tagged(0x80000003u, expire_body)},
  };
  ASSERT_EQ(wide_set.substr(8, 4), std::string("\x02\0\0\0", 4));

  // A journal whose first frame is a current op: the old frame follows it.
  auto file = std::make_unique<InMemorySyncFile>();
  InMemorySyncFile* disk = file.get();
  Result<std::unique_ptr<JournalWriter>> writer =
      JournalWriter::Create(std::move(file));
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(
      (*writer)->AppendOp(1, OpRef::Issue(RequestAt(schema, 0))).ok());
  const std::string first = disk->contents();
  const testing::ScopedTempPath journal_file("edge_older.gjl");
  const std::string& journal_path = journal_file.path();
  for (const auto& [name, payload] : old_payloads) {
    SCOPED_TRACE(name);
    // The frame as the older writer framed it: len, seq 2, witness 0,
    // header CRC, payload CRC, payload.
    std::string frame;
    framing::PutScalar(&frame, static_cast<uint32_t>(payload.size()));
    framing::PutScalar(&frame, uint64_t{2});
    framing::PutScalar(&frame, uint64_t{0});
    framing::PutScalar(&frame, Crc32c(frame));
    framing::PutScalar(&frame, Crc32c(payload));
    frame.append(payload);
    WriteFile(journal_path, first + frame);
    const Result<std::unique_ptr<IssuanceService>> recovered =
        IssuanceService::Recover(&licenses, {}, "", journal_path);
    ASSERT_FALSE(recovered.ok());
    EXPECT_EQ(recovered.status().code(), StatusCode::kParseError);
    EXPECT_NE(recovered.status().message().find(
                  "offset " + std::to_string(first.size()) + ":"),
              std::string::npos)
        << recovered.status().message();
  }
}

// Journals six issues, an acquire (epoch 1) and an issue under it: eight
// frames for Recover to replay.
void JournalEightOps(const ConstraintSchema& schema,
                     const LicenseCatalog& licenses,
                     const std::string& journal_path) {
  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::Create(&licenses);
  ASSERT_TRUE(service.ok());
  Result<std::unique_ptr<JournalWriter>> journal =
      JournalWriter::Open(journal_path);
  ASSERT_TRUE(journal.ok());
  ASSERT_TRUE((*service)->AttachJournal(std::move(*journal)).ok());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE((*service)->TryIssue(RequestAt(schema, i)).ok());
  }
  ASSERT_TRUE((*service)
                  ->AcquireLicense(
                      MakeRedistribution(schema, "L4", {{300, 320}}, 9))
                  .ok());
  ASSERT_TRUE(
      (*service)->TryIssue(MakeUsage(schema, "U9", {{305, 310}}, 1)).ok());
}

// Replay counts into a scratch metrics block: the caller's metrics block
// counts none of the replayed decisions.
TEST(RecoveryEdgeTest, ReplayLeavesTheCallersMetricsUntouched) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = TwoGroupSet(schema);
  const testing::ScopedTempPath journal_file("edge_metrics.gjl");
  const std::string& journal_path = journal_file.path();
  JournalEightOps(schema, licenses, journal_path);
  IssuanceMetrics metrics;
  metrics.RecordAccepted(3, 1000);  // The caller's own history.
  const std::string before = metrics.Snap().ToString();
  OnlineValidatorOptions options;
  options.metrics = &metrics;
  RecoveryStats stats;
  const Result<std::unique_ptr<IssuanceService>> recovered =
      IssuanceService::Recover(&licenses, options, "", journal_path, &stats);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  EXPECT_EQ(stats.journal_records_replayed, 8u);
  EXPECT_EQ(metrics.Snap().ToString(), before);
  // The returned service records into it from here on.
  ASSERT_TRUE((*recovered)->TryIssue(RequestAt(schema, 7)).ok());
  EXPECT_EQ(metrics.Snap().accepted, 2u);
}

// Without a caller's metrics block the recovered service counts into its
// own, which replay left at zero. It restarts at epoch 0, so a fresh
// journal attaches.
TEST(RecoveryEdgeTest, RecoveredServiceWithoutMetricsStartsAtZero) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = TwoGroupSet(schema);
  const testing::ScopedTempPath journal_file("edge_own_metrics.gjl");
  const std::string& journal_path = journal_file.path();
  JournalEightOps(schema, licenses, journal_path);
  RecoveryStats stats;
  const Result<std::unique_ptr<IssuanceService>> recovered =
      IssuanceService::Recover(&licenses, {}, "", journal_path, &stats);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  EXPECT_EQ(stats.journal_records_replayed, 8u);
  EXPECT_EQ(stats.recovered_catalog_epoch, 1u);
  const IssuanceMetrics::Snapshot snap = (*recovered)->metrics().Snap();
  EXPECT_EQ(snap.total_requests(), 0u);
  EXPECT_EQ(snap.equations_checked, 0u);
  EXPECT_EQ(snap.batches, 0u);
  EXPECT_EQ(snap.ToString(), IssuanceMetrics().Snap().ToString());
  EXPECT_EQ((*recovered)->catalog_epoch(), 0u);
  Result<std::unique_ptr<JournalWriter>> fresh =
      JournalWriter::Create(std::make_unique<InMemorySyncFile>());
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE((*recovered)->AttachJournal(std::move(*fresh)).ok());
}

}  // namespace
}  // namespace geolic

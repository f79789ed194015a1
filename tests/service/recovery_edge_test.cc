// Edge cases of IssuanceService::Recover the crash simulations rarely hit
// head-on: a journal holding zero frames, a checkpoint that covers zero
// frames, and a journal whose first frame predates the checkpoint cut. In
// every case the recovered state must equal a serial replay of the same
// accepted requests on a fresh service, and RecoveryStats must account for
// exactly where each record came from.

#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "persist/journal.h"
#include "persist/sync_file.h"
#include "service/issuance_service.h"
#include "test_util.h"

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
  const std::string journal_path = ::testing::TempDir() + "edge_empty.gjl";
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
  const std::string checkpoint_path =
      ::testing::TempDir() + "edge_ckpt_then_empty.gck";
  const std::string rotated_path =
      ::testing::TempDir() + "edge_rotated_empty.gjl";
  constexpr int kRequests = 10;
  size_t checkpoint_sets = 0;  // The checkpoint holds one record per set.
  {
    Result<std::unique_ptr<IssuanceService>> service =
        IssuanceService::Create(&licenses);
    ASSERT_TRUE(service.ok());
    Result<std::unique_ptr<JournalWriter>> journal = JournalWriter::Open(
        ::testing::TempDir() + "edge_ckpt_then_empty_old.gjl");
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

TEST(RecoveryEdgeTest, JournalCutInsideItsMagicRecoversTheCheckpointExactly) {
  // A journal that a crash left before its first sync holds a prefix of
  // its magic: nothing at all, or some of its 8 bytes. No frame on it was
  // acknowledged, so recovery yields exactly the checkpoint's state, or an
  // empty working service without one.
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = TwoGroupSet(schema);
  const std::string checkpoint_path =
      ::testing::TempDir() + "edge_magic_cut.gck";
  const std::string journal_path = ::testing::TempDir() + "edge_magic_cut.gjl";
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
  const std::string checkpoint_path =
      ::testing::TempDir() + "edge_zero_cover.gck";
  const std::string journal_path =
      ::testing::TempDir() + "edge_zero_cover.gjl";
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
  const std::string checkpoint_path =
      ::testing::TempDir() + "edge_predate.gck";
  const std::string journal_path = ::testing::TempDir() + "edge_predate.gjl";
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

}  // namespace
}  // namespace geolic

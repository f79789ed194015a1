#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/catalog_service.h"
#include "catalog/tenant_source.h"
#include "persist/checkpoint.h"
#include "persist/faulty_file.h"
#include "persist/framing.h"
#include "persist/journal.h"
#include "persist/sync_file.h"
#include "service/issuance_service.h"
#include "test_util.h"
#include "util/random.h"
#include "workload/multi_tenant.h"

namespace geolic {
namespace {

using testing::IntervalSchema;
using testing::MakeRedistribution;
using testing::MakeUsage;

// Three overlap groups: {L1, L2}, {L3, L4}, {L5} — the issuance-service
// test's standard geometry, here with generous budgets so recovery
// scenarios control acceptance themselves.
LicenseCatalog ThreeGroupSet(const ConstraintSchema& schema, int64_t budget) {
  LicenseCatalog licenses(&schema);
  EXPECT_TRUE(
      licenses.Add(MakeRedistribution(schema, "L1", {{0, 20}}, budget)).ok());
  EXPECT_TRUE(
      licenses.Add(MakeRedistribution(schema, "L2", {{10, 30}}, budget)).ok());
  EXPECT_TRUE(
      licenses.Add(MakeRedistribution(schema, "L3", {{100, 120}}, budget))
          .ok());
  EXPECT_TRUE(
      licenses.Add(MakeRedistribution(schema, "L4", {{110, 130}}, budget))
          .ok());
  EXPECT_TRUE(
      licenses.Add(MakeRedistribution(schema, "L5", {{200, 220}}, budget))
          .ok());
  return licenses;
}

License RequestAt(const ConstraintSchema& schema, int i) {
  const std::string id = "U" + std::to_string(i);
  switch (i % 3) {
    case 0:
      return MakeUsage(schema, id, {{12, 18}}, 1);  // Group {L1, L2}.
    case 1:
      return MakeUsage(schema, id, {{111, 119}}, 1);  // Group {L3, L4}.
    default:
      return MakeUsage(schema, id, {{205, 215}}, 1);  // Group {L5}.
  }
}

// A unit issue op's license, `id` as given.
License Unit(const std::string& id) {
  return MakeUsage(IntervalSchema(1), id, {{12, 18}}, 1);
}

// Journal bytes holding `n` unit issue ops, plus the per-frame boundaries
// (byte offset after each frame) so tests can cut at clean frame edges.
std::string JournalBytes(int n, std::vector<size_t>* boundaries = nullptr) {
  auto file = std::make_unique<InMemorySyncFile>();
  InMemorySyncFile* disk = file.get();
  Result<std::unique_ptr<JournalWriter>> writer =
      JournalWriter::Create(std::move(file));
  EXPECT_TRUE(writer.ok());
  if (boundaries != nullptr) {
    boundaries->push_back(disk->contents().size());
  }
  for (int i = 0; i < n; ++i) {
    EXPECT_TRUE((*writer)
                    ->AppendOp(static_cast<uint64_t>(i + 1),
                               OpRef::Issue(Unit("LU" + std::to_string(i + 1))))
                    .ok());
    if (boundaries != nullptr) {
      boundaries->push_back(disk->contents().size());
    }
  }
  return disk->contents();
}

// Journal bytes mixing issue ops with every reconfiguration op (acquire,
// revoke, expire), plus the per-frame boundaries.
std::string LifecycleJournalBytes(const ConstraintSchema& schema,
                                  std::vector<size_t>* boundaries = nullptr) {
  auto file = std::make_unique<InMemorySyncFile>();
  InMemorySyncFile* disk = file.get();
  Result<std::unique_ptr<JournalWriter>> writer =
      JournalWriter::Create(std::move(file));
  EXPECT_TRUE(writer.ok());
  const auto mark = [&] {
    if (boundaries != nullptr) {
      boundaries->push_back(disk->contents().size());
    }
  };
  mark();
  EXPECT_TRUE((*writer)->AppendOp(1, OpRef::Issue(Unit("LU1"))).ok());
  mark();
  EXPECT_TRUE((*writer)
                  ->AppendOp(2, OpRef::Acquire(MakeRedistribution(
                                    schema, "L6", {{300, 320}}, 9)))
                  .ok());
  mark();
  EXPECT_TRUE((*writer)->AppendOp(3, OpRef::Issue(Unit("LU2"))).ok());
  mark();
  EXPECT_TRUE((*writer)->AppendOp(4, OpRef::Revoke("L2")).ok());
  mark();
  EXPECT_TRUE((*writer)->AppendOp(5, OpRef::Expire(0, 25)).ok());
  mark();
  EXPECT_TRUE((*writer)->AppendOp(6, OpRef::Issue(Unit("LU3"))).ok());
  mark();
  return disk->contents();
}

// --- Torn writes -----------------------------------------------------------

TEST(RecoveryFaultTest, TornWriteDropsOnlyTheTornFrame) {
  // Persist 3 full frames, then tear the 4th at every possible byte count.
  auto probe = std::make_unique<InMemorySyncFile>();
  InMemorySyncFile* probe_disk = probe.get();
  Result<std::unique_ptr<JournalWriter>> probe_writer =
      JournalWriter::Create(std::move(probe));
  ASSERT_TRUE(probe_writer.ok());
  size_t size_after_three = 0;
  for (uint64_t seq = 1; seq <= 4; ++seq) {
    if (seq == 4) {
      size_after_three = probe_disk->contents().size();
    }
    ASSERT_TRUE((*probe_writer)->AppendOp(seq, OpRef::Issue(Unit("LU"))).ok());
  }
  const size_t frame4_size = probe_disk->contents().size() - size_after_three;

  for (size_t keep = 0; keep < frame4_size; ++keep) {
    auto file = std::make_unique<InMemorySyncFile>();
    InMemorySyncFile* disk = file.get();
    auto faulty = std::make_unique<FaultyFile>(std::move(file));
    FaultyFile* faults = faulty.get();
    Result<std::unique_ptr<JournalWriter>> writer =
        JournalWriter::Create(std::move(faulty));
    ASSERT_TRUE(writer.ok());
    for (uint64_t seq = 1; seq <= 3; ++seq) {
      ASSERT_TRUE((*writer)->AppendOp(seq, OpRef::Issue(Unit("LU"))).ok());
    }
    faults->TearNextAppend(keep);
    // The torn append fails — the admission it backed was never accepted.
    EXPECT_FALSE((*writer)->AppendOp(4, OpRef::Issue(Unit("LU"))).ok());
    // And is poisoned for good: the disk is gone.
    EXPECT_FALSE((*writer)->AppendOp(5, OpRef::Issue(Unit("LU"))).ok());

    const Result<JournalReplay> replay =
        JournalReader::Parse(disk->contents());
    ASSERT_TRUE(replay.ok()) << "keep=" << keep << ": "
                             << replay.status().message();
    EXPECT_EQ(replay->entries.size(), 3u) << "keep=" << keep;
    EXPECT_EQ(replay->torn_tail, keep != 0) << "keep=" << keep;
  }
}

TEST(RecoveryFaultTest, TruncatedTailAlwaysRecoversAPrefix) {
  // Cut the journal at EVERY byte length. Each cut either replays cleanly
  // (a prefix of the entries, torn tail iff the cut is mid-frame) or —
  // never — reports entries that were not written. Cuts inside the magic
  // replay no frames.
  std::vector<size_t> boundaries;
  const std::string full = JournalBytes(6, &boundaries);
  for (size_t cut = 0; cut <= full.size(); ++cut) {
    const Result<JournalReplay> replay =
        JournalReader::Parse(full.substr(0, cut));
    if (cut < sizeof(kJournalMagic)) {
      // A prefix of the magic: a crash before the first sync.
      ASSERT_TRUE(replay.ok()) << "cut=" << cut;
      EXPECT_TRUE(replay->entries.empty()) << "cut=" << cut;
      EXPECT_FALSE(replay->torn_tail) << "cut=" << cut;
      continue;
    }
    ASSERT_TRUE(replay.ok()) << "cut=" << cut << ": "
                             << replay.status().message();
    // Entries must be exactly the frames wholly inside the cut.
    size_t whole_frames = 0;
    while (whole_frames + 1 < boundaries.size() &&
           boundaries[whole_frames + 1] <= cut) {
      ++whole_frames;
    }
    EXPECT_EQ(replay->entries.size(), whole_frames) << "cut=" << cut;
    for (size_t i = 0; i < replay->entries.size(); ++i) {
      EXPECT_EQ(replay->entries[i].seq, i + 1) << "cut=" << cut;
    }
    EXPECT_EQ(replay->torn_tail, cut != boundaries[whole_frames])
        << "cut=" << cut;
    if (replay->torn_tail) {
      EXPECT_EQ(replay->torn_tail_offset, boundaries[whole_frames])
          << "cut=" << cut;
    }
  }
}

TEST(RecoveryFaultTest, TornFinalReconfigFrameDropsOnlyThatFrame) {
  // For each reconfiguration op: two durable issue ops, then the
  // reconfiguration's frame tears at every possible byte count. The torn frame is
  // always dropped cleanly; the admissions always survive.
  const ConstraintSchema schema = IntervalSchema(1);
  const License acquired = MakeRedistribution(schema, "L6", {{300, 320}}, 9);
  const OpRef reconfigs[] = {OpRef::Acquire(acquired), OpRef::Revoke("L2"),
                             OpRef::Expire(0, 25)};
  for (const OpRef& reconfig : reconfigs) {
    const int kind = static_cast<int>(reconfig.kind);
    // Probe the reconfig frame's on-disk size.
    size_t frame_size = 0;
    {
      auto probe = std::make_unique<InMemorySyncFile>();
      InMemorySyncFile* probe_disk = probe.get();
      Result<std::unique_ptr<JournalWriter>> writer =
          JournalWriter::Create(std::move(probe));
      ASSERT_TRUE(writer.ok());
      ASSERT_TRUE((*writer)->AppendOp(1, OpRef::Issue(Unit("LU1"))).ok());
      ASSERT_TRUE((*writer)->AppendOp(2, OpRef::Issue(Unit("LU2"))).ok());
      const size_t before = probe_disk->contents().size();
      ASSERT_TRUE((*writer)->AppendOp(3, reconfig).ok());
      frame_size = probe_disk->contents().size() - before;
    }
    ASSERT_GT(frame_size, 0u);

    for (size_t keep = 0; keep < frame_size; ++keep) {
      auto file = std::make_unique<InMemorySyncFile>();
      InMemorySyncFile* disk = file.get();
      auto faulty = std::make_unique<FaultyFile>(std::move(file));
      FaultyFile* faults = faulty.get();
      Result<std::unique_ptr<JournalWriter>> writer =
          JournalWriter::Create(std::move(faulty));
      ASSERT_TRUE(writer.ok());
      ASSERT_TRUE((*writer)->AppendOp(1, OpRef::Issue(Unit("LU1"))).ok());
      ASSERT_TRUE((*writer)->AppendOp(2, OpRef::Issue(Unit("LU2"))).ok());
      faults->TearNextAppend(keep);
      EXPECT_FALSE((*writer)->AppendOp(3, reconfig).ok())
          << "kind=" << kind << " keep=" << keep;

      const Result<JournalReplay> replay =
          JournalReader::Parse(disk->contents());
      ASSERT_TRUE(replay.ok()) << "kind=" << kind << " keep=" << keep << ": "
                               << replay.status().message();
      EXPECT_EQ(replay->entries.size(), 2u)
          << "kind=" << kind << " keep=" << keep;
      EXPECT_EQ(replay->torn_tail, keep != 0)
          << "kind=" << kind << " keep=" << keep;
    }
  }
}

TEST(RecoveryFaultTest, TruncatedLifecycleTailAlwaysRecoversAPrefix) {
  // The mixed-kind analogue of TruncatedTailAlwaysRecoversAPrefix: cutting
  // a journal with reconfiguration frames at every byte yields a clean
  // prefix (torn iff mid-frame), never a different history.
  const ConstraintSchema schema = IntervalSchema(1);
  std::vector<size_t> boundaries;
  const std::string full = LifecycleJournalBytes(schema, &boundaries);
  for (size_t cut = 0; cut <= full.size(); ++cut) {
    const Result<JournalReplay> replay =
        JournalReader::Parse(full.substr(0, cut));
    if (cut < sizeof(kJournalMagic)) {
      // A prefix of the magic: a crash before the first sync.
      ASSERT_TRUE(replay.ok()) << "cut=" << cut;
      EXPECT_TRUE(replay->entries.empty()) << "cut=" << cut;
      EXPECT_FALSE(replay->torn_tail) << "cut=" << cut;
      continue;
    }
    ASSERT_TRUE(replay.ok()) << "cut=" << cut << ": "
                             << replay.status().message();
    size_t whole_frames = 0;
    while (whole_frames + 1 < boundaries.size() &&
           boundaries[whole_frames + 1] <= cut) {
      ++whole_frames;
    }
    EXPECT_EQ(replay->entries.size(), whole_frames) << "cut=" << cut;
    for (size_t i = 0; i < replay->entries.size(); ++i) {
      EXPECT_EQ(replay->entries[i].seq, i + 1) << "cut=" << cut;
    }
    EXPECT_EQ(replay->torn_tail, cut != boundaries[whole_frames])
        << "cut=" << cut;
  }
}

// --- Bit flips -------------------------------------------------------------

TEST(RecoveryFaultTest, EveryBitFlipFailsLoudlyWithAnOffset) {
  const std::string full = JournalBytes(4);
  for (size_t i = 0; i < full.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = full;
      mutated[i] = static_cast<char>(mutated[i] ^ (1 << bit));
      const Result<JournalReplay> replay = JournalReader::Parse(mutated);
      // A flip is never silently absorbed: the parse fails, and when it is
      // past the magic the error names the bad frame's byte offset.
      ASSERT_FALSE(replay.ok())
          << "byte " << i << " bit " << bit << " slipped through";
      if (i >= sizeof(kJournalMagic)) {
        EXPECT_NE(replay.status().message().find("offset"), std::string::npos)
            << replay.status().message();
      }
    }
  }
}

TEST(RecoveryFaultTest, EveryBitFlipOnReconfigFramesFailsLoudly) {
  // The corruption matrix over a journal carrying every op: no flip
  // anywhere — issue or acquire (with its embedded serialized license),
  // revoke or expire frame — may parse cleanly.
  const ConstraintSchema schema = IntervalSchema(1);
  const std::string full = LifecycleJournalBytes(schema);
  // Sanity: the clean bytes round-trip with the expected kind sequence.
  const Result<JournalReplay> clean = JournalReader::Parse(full);
  ASSERT_TRUE(clean.ok());
  ASSERT_EQ(clean->entries.size(), 6u);
  EXPECT_EQ(clean->entries[0].op.kind, OpKind::kIssue);
  EXPECT_EQ(clean->entries[1].op.kind, OpKind::kAcquire);
  EXPECT_EQ(clean->entries[1].op.license.id(), "L6");
  EXPECT_EQ(clean->entries[3].op.kind, OpKind::kRevoke);
  EXPECT_EQ(clean->entries[3].op.revoke_id, "L2");
  EXPECT_EQ(clean->entries[4].op.kind, OpKind::kExpire);
  EXPECT_EQ(clean->entries[4].op.expire_dim, 0);
  EXPECT_EQ(clean->entries[4].op.expire_cutoff, 25);

  for (size_t i = 0; i < full.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = full;
      mutated[i] = static_cast<char>(mutated[i] ^ (1 << bit));
      const Result<JournalReplay> replay = JournalReader::Parse(mutated);
      ASSERT_FALSE(replay.ok())
          << "byte " << i << " bit " << bit << " slipped through";
      if (i >= sizeof(kJournalMagic)) {
        EXPECT_NE(replay.status().message().find("offset"), std::string::npos)
            << replay.status().message();
      }
    }
  }
}

TEST(RecoveryFaultTest, DuplicateFrameInsertionFailsLoudly) {
  std::vector<size_t> boundaries;
  const std::string full = JournalBytes(3, &boundaries);
  // Splice a copy of frame 2 after itself: magic|f1|f2|f2|f3.
  const std::string frame2 =
      full.substr(boundaries[1], boundaries[2] - boundaries[1]);
  const std::string doctored = full.substr(0, boundaries[2]) + frame2 +
                               full.substr(boundaries[2]);
  const Result<JournalReplay> replay = JournalReader::Parse(doctored);
  ASSERT_FALSE(replay.ok());
  EXPECT_NE(replay.status().message().find("duplicate"), std::string::npos)
      << replay.status().message();
  EXPECT_NE(replay.status().message().find(std::to_string(boundaries[2])),
            std::string::npos)
      << replay.status().message();
}

TEST(RecoveryFaultTest, RandomMutationFuzzNeverSilentlyWrong) {
  const std::string full = JournalBytes(8);
  const Result<JournalReplay> clean = JournalReader::Parse(full);
  ASSERT_TRUE(clean.ok());
  Rng rng(testing::TestSeed(20260806));
  for (int trial = 0; trial < 2000; ++trial) {
    std::string mutated = full;
    const int edits = 1 + static_cast<int>(rng.UniformInt(0, 3));
    for (int e = 0; e < edits; ++e) {
      const size_t at = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(mutated.size()) - 1));
      mutated[at] = static_cast<char>(rng.UniformInt(0, 255));
    }
    if (mutated == full) {
      continue;
    }
    const Result<JournalReplay> replay = JournalReader::Parse(mutated);
    if (replay.ok()) {
      // Only acceptable clean outcome: a prefix of the true entries (the
      // mutation landed in the tail and reads as torn). Identical content
      // with fewer-or-equal entries, never different records.
      ASSERT_LE(replay->entries.size(), clean->entries.size());
      for (size_t i = 0; i < replay->entries.size(); ++i) {
        const JournalOp& got = replay->entries[i].op;
        const JournalOp& want = clean->entries[i].op;
        EXPECT_EQ(replay->entries[i].seq, clean->entries[i].seq);
        EXPECT_EQ(got.kind, want.kind);
        EXPECT_EQ(got.license.id(), want.license.id());
        EXPECT_EQ(got.license.aggregate_count(),
                  want.license.aggregate_count());
        EXPECT_TRUE(got.license.rect() == want.license.rect());
      }
    }
  }
}

// --- Service wiring --------------------------------------------------------

TEST(RecoveryFaultTest, ServiceJournalsEveryAcceptedIssuance) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = ThreeGroupSet(schema, 100);
  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::Create(&licenses);
  ASSERT_TRUE(service.ok());

  auto file = std::make_unique<InMemorySyncFile>();
  InMemorySyncFile* disk = file.get();
  Result<std::unique_ptr<JournalWriter>> journal =
      JournalWriter::Create(std::move(file));
  ASSERT_TRUE(journal.ok());
  ASSERT_FALSE((*service)->Snap().has_journal);
  ASSERT_TRUE((*service)->AttachJournal(std::move(*journal)).ok());
  ASSERT_TRUE((*service)->Snap().has_journal);

  int accepted = 0;
  std::vector<std::string> accepted_ids;
  for (int i = 0; i < 30; ++i) {
    const License request = RequestAt(schema, i);
    const Result<OnlineDecision> decision = (*service)->TryIssue(request);
    ASSERT_TRUE(decision.ok());
    if (decision->aggregate_valid) {
      ++accepted;
      accepted_ids.push_back(request.id());
    }
  }
  // An instance-invalid request must NOT hit the journal.
  const Result<OnlineDecision> outside =
      (*service)->TryIssue(MakeUsage(schema, "UX", {{500, 510}}, 1));
  ASSERT_TRUE(outside.ok());
  EXPECT_FALSE(outside->instance_valid);

  EXPECT_EQ((*service)->Snap().journal_sequence,
            static_cast<uint64_t>(accepted));
  const Result<JournalReplay> replay = JournalReader::Parse(disk->contents());
  ASSERT_TRUE(replay.ok());
  ASSERT_EQ(replay->entries.size(), static_cast<size_t>(accepted));

  // The journal holds the accepted requests in order, and re-executing it
  // on a fresh service IS the accepted multiset.
  Result<std::unique_ptr<IssuanceService>> replayed =
      IssuanceService::Create(&licenses);
  ASSERT_TRUE(replayed.ok());
  std::vector<std::string> journaled_ids;
  for (const JournalEntry& entry : replay->entries) {
    EXPECT_EQ(entry.op.kind, OpKind::kIssue);
    journaled_ids.push_back(entry.op.license.id());
    ASSERT_TRUE(ReplayOp(replayed->get(), entry.op).ok());
  }
  EXPECT_EQ(journaled_ids, accepted_ids);
  EXPECT_EQ((*replayed)->CollectLog().records(),
            (*service)->CollectLog().records());
}

TEST(RecoveryFaultTest, JournalFailureRejectsAdmissionAndLeavesStateClean) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = ThreeGroupSet(schema, 100);
  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::Create(&licenses);
  ASSERT_TRUE(service.ok());

  auto faulty = std::make_unique<FaultyFile>(
      std::make_unique<InMemorySyncFile>());
  FaultyFile* faults = faulty.get();
  Result<std::unique_ptr<JournalWriter>> journal =
      JournalWriter::Create(std::move(faulty));
  ASSERT_TRUE(journal.ok());
  ASSERT_TRUE((*service)->AttachJournal(std::move(*journal)).ok());

  ASSERT_TRUE((*service)->TryIssue(RequestAt(schema, 0)).ok());
  const std::string before = (*service)->CollectTree()->ToString();
  const auto counts_before = (*service)->CollectLog().MergedCounts();
  const uint64_t accepted_before = (*service)->metrics().Snap().accepted;

  faults->CrashNow();
  // WAL contract: with the journal dead the admission errors out and no
  // in-memory state may have changed.
  const Result<OnlineDecision> denied =
      (*service)->TryIssue(RequestAt(schema, 1));
  EXPECT_FALSE(denied.ok());
  EXPECT_EQ((*service)->CollectTree()->ToString(), before);
  EXPECT_EQ((*service)->CollectLog().MergedCounts(), counts_before);
  EXPECT_EQ((*service)->metrics().Snap().accepted, accepted_before);
  EXPECT_EQ((*service)->Snap().journal_sequence, 1u);
}

TEST(RecoveryFaultTest, RecoverFromJournalAloneMatchesSerialReplay) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = ThreeGroupSet(schema, 100);
  const testing::ScopedTempPath journal_file("recover_journal_only.gjl");
  const std::string& journal_path = journal_file.path();
  std::string expected_tree;
  {
    Result<std::unique_ptr<IssuanceService>> service =
        IssuanceService::Create(&licenses);
    ASSERT_TRUE(service.ok());
    Result<std::unique_ptr<JournalWriter>> journal =
        JournalWriter::Open(journal_path);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE((*service)->AttachJournal(std::move(*journal)).ok());
    for (int i = 0; i < 24; ++i) {
      ASSERT_TRUE((*service)->TryIssue(RequestAt(schema, i)).ok());
    }
    expected_tree = (*service)->CollectTree()->ToString();
  }  // "Crash": the service object dies; only the journal file survives.

  RecoveryStats stats;
  Result<std::unique_ptr<IssuanceService>> recovered =
      IssuanceService::Recover(&licenses, {}, /*checkpoint_path=*/"",
                               journal_path, &stats);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ((*recovered)->CollectTree()->ToString(), expected_tree);
  EXPECT_EQ(stats.checkpoint_records, 0u);
  EXPECT_EQ(stats.journal_records_replayed, 24u);
  EXPECT_EQ(stats.journal_records_skipped, 0u);
  EXPECT_FALSE(stats.journal_torn_tail);
}

TEST(RecoveryFaultTest, RecoverFromCheckpointPlusJournalTail) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = ThreeGroupSet(schema, 100);
  const testing::ScopedTempPath checkpoint_file("recover_ckpt.gck");
  const testing::ScopedTempPath journal_file("recover_tail.gjl");
  const std::string& checkpoint_path = checkpoint_file.path();
  const std::string& journal_path = journal_file.path();
  std::string expected_tree;
  uint64_t seq_at_checkpoint = 0;
  LogStore at_checkpoint;  // One record per distinct set.
  {
    Result<std::unique_ptr<IssuanceService>> service =
        IssuanceService::Create(&licenses);
    ASSERT_TRUE(service.ok());
    Result<std::unique_ptr<JournalWriter>> journal =
        JournalWriter::Open(journal_path);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE((*service)->AttachJournal(std::move(*journal)).ok());
    for (int i = 0; i < 15; ++i) {
      ASSERT_TRUE((*service)->TryIssue(RequestAt(schema, i)).ok());
    }
    ASSERT_EQ((*service)->metrics().Snap().accepted, 15u);
    at_checkpoint = (*service)->CollectLog();
    ASSERT_TRUE((*service)->WriteCheckpoint(checkpoint_path).ok());
    seq_at_checkpoint = (*service)->Snap().journal_sequence;
    for (int i = 15; i < 24; ++i) {
      ASSERT_TRUE((*service)->TryIssue(RequestAt(schema, i)).ok());
    }
    expected_tree = (*service)->CollectTree()->ToString();
  }

  RecoveryStats stats;
  Result<std::unique_ptr<IssuanceService>> recovered =
      IssuanceService::Recover(&licenses, {}, checkpoint_path, journal_path,
                               &stats);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ((*recovered)->CollectTree()->ToString(), expected_tree);
  EXPECT_EQ(stats.checkpoint_records, at_checkpoint.size());
  EXPECT_EQ(stats.journal_records_skipped, seq_at_checkpoint);
  EXPECT_EQ(stats.journal_records_replayed, 24u - seq_at_checkpoint);

  // Recovery from the checkpoint ALONE yields exactly the covered prefix.
  RecoveryStats ckpt_stats;
  Result<std::unique_ptr<IssuanceService>> prefix =
      IssuanceService::Recover(&licenses, {}, checkpoint_path,
                               /*journal_path=*/"", &ckpt_stats);
  ASSERT_TRUE(prefix.ok());
  EXPECT_EQ(ckpt_stats.checkpoint_records, at_checkpoint.size());
  EXPECT_EQ((*prefix)->CollectLog().records(), at_checkpoint.records());
}

TEST(RecoveryFaultTest, RecoverAfterTornFinalFrameDropsOnlyThatFrame) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = ThreeGroupSet(schema, 100);

  auto file = std::make_unique<InMemorySyncFile>();
  InMemorySyncFile* disk = file.get();
  auto faulty = std::make_unique<FaultyFile>(std::move(file));
  FaultyFile* faults = faulty.get();
  Result<std::unique_ptr<JournalWriter>> journal =
      JournalWriter::Create(std::move(faulty));
  ASSERT_TRUE(journal.ok());

  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::Create(&licenses);
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->AttachJournal(std::move(*journal)).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE((*service)->TryIssue(RequestAt(schema, i)).ok());
  }
  const std::string tree_before_crash = (*service)->CollectTree()->ToString();

  // The 11th admission tears mid-frame: the service reports an error (the
  // issuance was NOT accepted) and the disk holds a torn tail.
  faults->TearNextAppend(7);
  EXPECT_FALSE((*service)->TryIssue(RequestAt(schema, 10)).ok());

  const testing::ScopedTempPath journal_file("recover_torn.gjl");
  const std::string& journal_path = journal_file.path();
  {
    std::ofstream out(journal_path, std::ios::binary);
    out.write(disk->contents().data(),
              static_cast<std::streamsize>(disk->contents().size()));
  }
  RecoveryStats stats;
  Result<std::unique_ptr<IssuanceService>> recovered =
      IssuanceService::Recover(&licenses, {}, "", journal_path, &stats);
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(stats.journal_torn_tail);
  EXPECT_EQ(stats.journal_records_replayed, 10u);
  // Exactly the pre-crash accepted set — the torn admission is absent from
  // both the pre-crash service state and the recovered one.
  EXPECT_EQ((*recovered)->CollectTree()->ToString(), tree_before_crash);
}

TEST(RecoveryFaultTest, RecoverRejectsCorruptJournalLoudly) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = ThreeGroupSet(schema, 100);
  const testing::ScopedTempPath journal_file("recover_corrupt.gjl");
  const std::string& journal_path = journal_file.path();
  {
    Result<std::unique_ptr<IssuanceService>> service =
        IssuanceService::Create(&licenses);
    ASSERT_TRUE(service.ok());
    Result<std::unique_ptr<JournalWriter>> journal =
        JournalWriter::Open(journal_path);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE((*service)->AttachJournal(std::move(*journal)).ok());
    for (int i = 0; i < 12; ++i) {
      ASSERT_TRUE((*service)->TryIssue(RequestAt(schema, i)).ok());
    }
  }
  // Flip one payload byte in the middle of the file.
  std::string bytes;
  {
    std::ifstream in(journal_path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    bytes = buffer.str();
  }
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
  {
    std::ofstream out(journal_path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  const Result<std::unique_ptr<IssuanceService>> recovered =
      IssuanceService::Recover(&licenses, {}, "", journal_path);
  ASSERT_FALSE(recovered.ok());
  EXPECT_NE(recovered.status().message().find("offset"), std::string::npos)
      << recovered.status().message();
}

// A CRC-valid service snapshot whose payload is not the service state
// layout fails the recovery instead of loading as some other layout: an
// older layout that opened with the covered sequence and then the record
// table, and a service state of another version.
TEST(RecoveryFaultTest, RecoverRejectsAPayloadInAnotherLayout) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = ThreeGroupSet(schema, 100);
  LogStore records;
  LogRecord record;
  record.set = LicenseSet::FromWord(0x1);
  record.count = 1;
  ASSERT_TRUE(records.Append(record).ok());
  std::string older;
  framing::PutScalar(&older, uint64_t{1});  // Covered sequence.
  framing::PutScalar(&older, static_cast<uint64_t>(records.size()));
  EncodeLogRecord(records.at(0), &older);

  ServiceState state;
  state.covered_seq = 1;
  state.licenses = std::make_unique<LicenseCatalog>(licenses);
  state.records = records;
  std::string other_version;
  ASSERT_TRUE(EncodeServiceState(state, &other_version).ok());
  other_version[0] = 3;  // The version's low byte.

  const testing::ScopedTempPath checkpoint_file("recover_other_layout.gck");
  const std::string& checkpoint_path = checkpoint_file.path();
  for (const std::string& payload : {older, other_version}) {
    ASSERT_TRUE(WriteCheckpointFile(CheckpointKind::kServiceSnapshot, payload,
                                    checkpoint_path)
                    .ok());
    const Result<std::unique_ptr<IssuanceService>> recovered =
        IssuanceService::Recover(&licenses, {}, checkpoint_path, "");
    ASSERT_FALSE(recovered.ok());
    EXPECT_EQ(recovered.status().code(), StatusCode::kParseError);
  }
}

TEST(RecoveryFaultTest, RecoverNeedsAtLeastOneSource) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = ThreeGroupSet(schema, 100);
  EXPECT_FALSE(IssuanceService::Recover(&licenses, {}, "", "").ok());
}

TEST(RecoveryFaultTest, AttachJournalGuards) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = ThreeGroupSet(schema, 100);
  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::Create(&licenses);
  ASSERT_TRUE(service.ok());
  EXPECT_FALSE((*service)->AttachJournal(nullptr).ok());

  // A journal that already carries frames is not attachable.
  Result<std::unique_ptr<JournalWriter>> used =
      JournalWriter::Create(std::make_unique<InMemorySyncFile>());
  ASSERT_TRUE(used.ok());
  ASSERT_TRUE((*used)->AppendOp(1, OpRef::Issue(Unit("LU"))).ok());
  EXPECT_FALSE((*service)->AttachJournal(std::move(*used)).ok());

  Result<std::unique_ptr<JournalWriter>> fresh =
      JournalWriter::Create(std::make_unique<InMemorySyncFile>());
  ASSERT_TRUE(fresh.ok());
  ASSERT_TRUE((*service)->AttachJournal(std::move(*fresh)).ok());
  Result<std::unique_ptr<JournalWriter>> second =
      JournalWriter::Create(std::make_unique<InMemorySyncFile>());
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE((*service)->AttachJournal(std::move(*second)).ok());
}

// --- Tenant-tagged frames & per-tenant spill containers --------------------

// Journal bytes carrying the multi-tenant catalog's tenant-tagged frame
// for every op, interleaved across two tenants the way the catalog
// journal interleaves them.
std::string TenantJournalBytes(const ConstraintSchema& schema,
                               std::vector<size_t>* boundaries = nullptr) {
  auto file = std::make_unique<InMemorySyncFile>();
  InMemorySyncFile* disk = file.get();
  Result<std::unique_ptr<JournalWriter>> writer =
      JournalWriter::Create(std::move(file));
  EXPECT_TRUE(writer.ok());
  const auto mark = [&] {
    if (boundaries != nullptr) {
      boundaries->push_back(disk->contents().size());
    }
  };
  mark();
  const License issued = MakeUsage(schema, "U1", {{12, 18}}, 1);
  EXPECT_TRUE(
      (*writer)->AppendTenantOp(1, 7, 1, OpRef::Issue(issued)).ok());
  mark();
  const License acquired = MakeRedistribution(schema, "L9", {{300, 320}}, 9);
  EXPECT_TRUE(
      (*writer)->AppendTenantOp(2, 9, 1, OpRef::Acquire(acquired)).ok());
  mark();
  EXPECT_TRUE((*writer)->AppendTenantOp(3, 7, 2, OpRef::Revoke("L2")).ok());
  mark();
  EXPECT_TRUE((*writer)->AppendTenantOp(4, 9, 2, OpRef::Expire(0, 25)).ok());
  mark();
  return disk->contents();
}

TEST(RecoveryFaultTest, EveryBitFlipOnTenantFramesFailsLoudly) {
  // The corruption matrix over tenant-tagged frames: no flip anywhere —
  // tenant id, per-tenant sequence, op kind, or the embedded license — may
  // parse cleanly.
  const ConstraintSchema schema = IntervalSchema(1);
  const std::string full = TenantJournalBytes(schema);
  // Sanity: the clean bytes round-trip with all four op kinds and both
  // tenants' tags intact.
  const Result<JournalReplay> clean = JournalReader::Parse(full);
  ASSERT_TRUE(clean.ok());
  ASSERT_EQ(clean->entries.size(), 4u);
  for (const JournalEntry& entry : clean->entries) {
    EXPECT_EQ(entry.kind, JournalEntryKind::kTenantOp);
  }
  EXPECT_EQ(clean->entries[0].tenant_id, 7u);
  EXPECT_EQ(clean->entries[0].tenant_seq, 1u);
  EXPECT_EQ(clean->entries[0].op.kind, OpKind::kIssue);
  EXPECT_EQ(clean->entries[0].op.license.id(), "U1");
  EXPECT_EQ(clean->entries[1].tenant_id, 9u);
  EXPECT_EQ(clean->entries[1].op.kind, OpKind::kAcquire);
  EXPECT_EQ(clean->entries[1].op.license.id(), "L9");
  EXPECT_EQ(clean->entries[2].tenant_id, 7u);
  EXPECT_EQ(clean->entries[2].tenant_seq, 2u);
  EXPECT_EQ(clean->entries[2].op.kind, OpKind::kRevoke);
  EXPECT_EQ(clean->entries[2].op.revoke_id, "L2");
  EXPECT_EQ(clean->entries[3].op.kind, OpKind::kExpire);
  EXPECT_EQ(clean->entries[3].op.expire_dim, 0);
  EXPECT_EQ(clean->entries[3].op.expire_cutoff, 25);

  for (size_t i = 0; i < full.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = full;
      mutated[i] = static_cast<char>(mutated[i] ^ (1 << bit));
      const Result<JournalReplay> replay = JournalReader::Parse(mutated);
      ASSERT_FALSE(replay.ok())
          << "byte " << i << " bit " << bit << " slipped through";
      if (i >= sizeof(kJournalMagic)) {
        EXPECT_NE(replay.status().message().find("offset"), std::string::npos)
            << replay.status().message();
      }
    }
  }
}

TEST(RecoveryFaultTest, TruncatedTenantTailAlwaysRecoversAPrefix) {
  // Cut the tenant-tagged journal at EVERY byte length: clean prefix of
  // whole frames, torn tail iff the cut is mid-frame — same contract as
  // the single-service frames, so catalog recovery can apply the same
  // torn-tail allowance.
  const ConstraintSchema schema = IntervalSchema(1);
  std::vector<size_t> boundaries;
  const std::string full = TenantJournalBytes(schema, &boundaries);
  for (size_t cut = 0; cut <= full.size(); ++cut) {
    const Result<JournalReplay> replay =
        JournalReader::Parse(full.substr(0, cut));
    if (cut < sizeof(kJournalMagic)) {
      // A prefix of the magic: a crash before the first sync.
      ASSERT_TRUE(replay.ok()) << "cut=" << cut;
      EXPECT_TRUE(replay->entries.empty()) << "cut=" << cut;
      EXPECT_FALSE(replay->torn_tail) << "cut=" << cut;
      continue;
    }
    ASSERT_TRUE(replay.ok()) << "cut=" << cut << ": "
                             << replay.status().message();
    size_t whole_frames = 0;
    while (whole_frames + 1 < boundaries.size() &&
           boundaries[whole_frames + 1] <= cut) {
      ++whole_frames;
    }
    ASSERT_EQ(replay->entries.size(), whole_frames) << "cut=" << cut;
    for (size_t i = 0; i < replay->entries.size(); ++i) {
      EXPECT_EQ(replay->entries[i].kind, JournalEntryKind::kTenantOp)
          << "cut=" << cut;
      EXPECT_EQ(replay->entries[i].tenant_id, i % 2 == 0 ? 7u : 9u)
          << "cut=" << cut;
    }
    EXPECT_EQ(replay->torn_tail, cut != boundaries[whole_frames])
        << "cut=" << cut;
  }
}

TEST(RecoveryFaultTest, SpillBitFlipsFailTheirOwnTenantOnlyWithAnOffset) {
  // Corrupting one cold tenant's spill checkpoint must fail exactly that
  // tenant's reload — loudly, naming a byte offset once the damage is past
  // the magic — while its siblings keep serving untouched.
  MultiTenantConfig config;
  config.num_tenants = 2;
  config.base.dimensions = 2;
  config.min_licenses = 2;
  config.max_licenses = 3;
  const MultiTenantWorkload workload(config);
  WorkloadTenantSource source(&workload);
  const testing::ScopedTempPath dir("geolic-spill-matrix-" +
                                    std::to_string(::getpid()));
  CatalogOptions options;
  options.dir = dir.path();
  Result<std::unique_ptr<CatalogService>> catalog =
      CatalogService::Create(&source, options);
  ASSERT_TRUE(catalog.ok());

  // Materialize and spill tenant 0; keep tenant 1 live as the sibling.
  ASSERT_TRUE((*catalog)->TenantEpoch(0).ok());
  ASSERT_TRUE((*catalog)->SpillTenant(0).ok());
  Result<Workload> tenant0 = workload.MakeTenant(0);
  ASSERT_TRUE(tenant0.ok());
  Result<Workload> tenant1 = workload.MakeTenant(1);
  ASSERT_TRUE(tenant1.ok());
  Rng rng(20260808);

  const std::string spill_path = (*catalog)->SpillPath(0);
  std::string clean;
  {
    std::ifstream in(spill_path, std::ios::binary);
    ASSERT_TRUE(in.good());
    std::ostringstream buf;
    buf << in.rdbuf();
    clean = buf.str();
  }
  ASSERT_GT(clean.size(), 32u);

  const auto rewrite = [&](const std::string& bytes) {
    std::ofstream out(spill_path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good());
  };

  // One flipped bit per byte position (bit rotates with the offset): the
  // reload must fail every time, and never disturb the sibling.
  for (size_t i = 0; i < clean.size(); ++i) {
    std::string mutated = clean;
    mutated[i] = static_cast<char>(mutated[i] ^ (1 << (i % 8)));
    rewrite(mutated);
    const Result<OnlineDecision> broken = (*catalog)->TryIssue(
        0, workload.DrawRequest(*tenant0, &rng, static_cast<int64_t>(i)));
    ASSERT_FALSE(broken.ok()) << "byte " << i << " slipped through";
    if (i >= 8) {  // Past the checkpoint magic.
      EXPECT_NE(broken.status().message().find("offset"), std::string::npos)
          << broken.status().message();
    }
    if (i % 64 == 0) {
      const Result<OnlineDecision> sibling = (*catalog)->TryIssue(
          1, workload.DrawRequest(*tenant1, &rng, static_cast<int64_t>(i)));
      EXPECT_TRUE(sibling.ok()) << "sibling poisoned at byte " << i << ": "
                                << sibling.status().message();
    }
  }

  // Truncation sweep: every cut of the container fails the reload too.
  for (size_t cut = 0; cut < clean.size(); cut += 7) {
    rewrite(clean.substr(0, cut));
    const Result<OnlineDecision> broken = (*catalog)->TryIssue(
        0, workload.DrawRequest(*tenant0, &rng, static_cast<int64_t>(cut)));
    ASSERT_FALSE(broken.ok()) << "cut " << cut << " slipped through";
  }

  // Restoring the clean container heals the tenant in place: the failed
  // reloads cached nothing.
  rewrite(clean);
  const Result<OnlineDecision> healed =
      (*catalog)->TryIssue(0, workload.DrawRequest(*tenant0, &rng, 999));
  EXPECT_TRUE(healed.ok()) << healed.status().message();
  const Result<OnlineDecision> sibling =
      (*catalog)->TryIssue(1, workload.DrawRequest(*tenant1, &rng, 999));
  EXPECT_TRUE(sibling.ok());

  ASSERT_TRUE((*catalog)->Close().ok());
}

}  // namespace
}  // namespace geolic

#include "persist/journal.h"

#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "persist/faulty_file.h"
#include "persist/sync_file.h"

#include "test_util.h"

namespace geolic {
namespace {

// An in-memory file that records, for every completed Sync, how many
// bytes it covered.
class CountingSyncFile : public SyncFile {
 public:
  Status Append(std::string_view data) override { return disk_.Append(data); }
  Status Sync() override {
    GEOLIC_RETURN_IF_ERROR(disk_.Sync());
    synced_sizes_.push_back(disk_.contents().size());
    return Status::Ok();
  }
  Status Close() override { return disk_.Close(); }

  const InMemorySyncFile& disk() const { return disk_; }
  const std::vector<size_t>& synced_sizes() const { return synced_sizes_; }

 private:
  InMemorySyncFile disk_;
  std::vector<size_t> synced_sizes_;
};

// An issued usage license, the body of an issue op.
License Usage(const std::string& id, int64_t count) {
  return testing::MakeUsage(testing::IntervalSchema(1), id, {{0, 1}}, count);
}

LogRecord Record(const std::string& id, uint64_t mask, int64_t count) {
  LogRecord record;
  record.issued_license_id = id;
  record.set = LicenseSet::FromWord(mask);
  record.count = count;
  return record;
}

TEST(JournalTest, RoundTripsFrames) {
  auto file = std::make_unique<InMemorySyncFile>();
  InMemorySyncFile* disk = file.get();
  Result<std::unique_ptr<JournalWriter>> writer =
      JournalWriter::Create(std::move(file));
  ASSERT_TRUE(writer.ok());

  ASSERT_TRUE((*writer)->AppendOp(1, OpRef::Issue(Usage("LU1", 10))).ok());
  ASSERT_TRUE((*writer)->AppendOp(2, OpRef::Issue(Usage("LU2", 1))).ok());
  ASSERT_TRUE((*writer)->AppendOp(3, OpRef::Issue(Usage("LU3", 7))).ok());
  EXPECT_EQ((*writer)->frames_appended(), 3u);

  const Result<JournalReplay> replay = JournalReader::Parse(disk->contents());
  ASSERT_TRUE(replay.ok());
  EXPECT_FALSE(replay->torn_tail);
  ASSERT_EQ(replay->entries.size(), 3u);
  EXPECT_EQ(replay->entries[0].seq, 1u);
  EXPECT_EQ(replay->entries[0].kind, JournalEntryKind::kServiceOp);
  EXPECT_EQ(replay->entries[0].op.kind, OpKind::kIssue);
  EXPECT_EQ(replay->entries[0].op.license.id(), "LU1");
  EXPECT_EQ(replay->entries[0].op.license.aggregate_count(), 10);
  EXPECT_TRUE(replay->entries[0].op.license.rect() == Usage("LU1", 10).rect());
  EXPECT_EQ(replay->entries[1].op.license.id(), "LU2");
  EXPECT_EQ(replay->entries[2].seq, 3u);
}

// One op vocabulary, two headers: every op kind round-trips under the
// service header and under the tenant header, with the same op bytes.
TEST(JournalTest, EveryOpRoundTripsUnderBothHeaders) {
  const License acquired = testing::MakeRedistribution(
      testing::IntervalSchema(2), "LD9", {{0, 10}, {5, 6}}, 300);
  const License issued = Usage("U1", 4);
  const OpRef ops[] = {OpRef::Issue(issued), OpRef::Acquire(acquired),
                       OpRef::Revoke("LD2"), OpRef::Expire(1, -25)};
  auto file = std::make_unique<InMemorySyncFile>();
  InMemorySyncFile* disk = file.get();
  Result<std::unique_ptr<JournalWriter>> writer =
      JournalWriter::Create(std::move(file));
  ASSERT_TRUE(writer.ok());
  uint64_t seq = 0;
  for (const OpRef& op : ops) {
    ASSERT_TRUE((*writer)->AppendOp(++seq, op).ok());
  }
  for (size_t i = 0; i < std::size(ops); ++i) {
    ASSERT_TRUE((*writer)->AppendTenantOp(++seq, 77, i + 1, ops[i]).ok());
  }
  const Result<JournalReplay> replay = JournalReader::Parse(disk->contents());
  ASSERT_TRUE(replay.ok()) << replay.status().message();
  ASSERT_EQ(replay->entries.size(), 2 * std::size(ops));
  for (size_t i = 0; i < replay->entries.size(); ++i) {
    const JournalEntry& entry = replay->entries[i];
    const size_t k = i % std::size(ops);
    EXPECT_EQ(entry.kind, i < std::size(ops) ? JournalEntryKind::kServiceOp
                                             : JournalEntryKind::kTenantOp);
    if (entry.kind == JournalEntryKind::kTenantOp) {
      EXPECT_EQ(entry.tenant_id, 77u);
      EXPECT_EQ(entry.tenant_seq, k + 1);
    }
    EXPECT_EQ(entry.op.kind, ops[k].kind) << i;
  }
  EXPECT_EQ(replay->entries[0].op.license.id(), "U1");
  EXPECT_TRUE(replay->entries[1].op.license.rect() == acquired.rect());
  EXPECT_EQ(replay->entries[1].op.license.aggregate_count(), 300);
  EXPECT_EQ(replay->entries[2].op.revoke_id, "LD2");
  EXPECT_EQ(replay->entries[3].op.expire_dim, 1);
  EXPECT_EQ(replay->entries[3].op.expire_cutoff, -25);
  EXPECT_EQ(replay->entries[6].op.revoke_id, "LD2");
  EXPECT_EQ(replay->entries[7].op.expire_cutoff, -25);
}

TEST(JournalTest, RejectsOpsItCannotEncode) {
  Result<std::unique_ptr<JournalWriter>> writer =
      JournalWriter::Create(std::make_unique<InMemorySyncFile>());
  ASSERT_TRUE(writer.ok());
  OpRef no_license;
  no_license.kind = OpKind::kAcquire;
  EXPECT_FALSE((*writer)->AppendOp(1, no_license).ok());
  EXPECT_FALSE((*writer)->AppendOp(1, OpRef::Expire(-1, 0)).ok());
  EXPECT_FALSE(
      (*writer)->AppendTenantOp(1, 5, 0, OpRef::Revoke("LD1")).ok());
  EXPECT_EQ((*writer)->frames_appended(), 0u);
}

TEST(JournalTest, EmptyJournalIsJustTheMagic) {
  auto file = std::make_unique<InMemorySyncFile>();
  InMemorySyncFile* disk = file.get();
  const Result<std::unique_ptr<JournalWriter>> writer =
      JournalWriter::Create(std::move(file));
  ASSERT_TRUE(writer.ok());  // Keeps the writer (and the disk) alive.
  EXPECT_EQ(disk->contents().size(), sizeof(kJournalMagic));
  // Creating syncs nothing: the magic becomes durable with the first frame.
  EXPECT_EQ(disk->synced_size(), 0u);
  for (const std::string& image : {disk->contents(), disk->synced_contents()}) {
    const Result<JournalReplay> replay = JournalReader::Parse(image);
    ASSERT_TRUE(replay.ok()) << replay.status().message();
    EXPECT_TRUE(replay->entries.empty());
    EXPECT_FALSE(replay->torn_tail);
  }
  ASSERT_TRUE((*writer)->AppendOp(1, OpRef::Issue(Usage("LU", 1))).ok());
  EXPECT_GT(disk->synced_size(), sizeof(kJournalMagic));
  EXPECT_EQ(disk->synced_contents().substr(0, sizeof(kJournalMagic)),
            std::string_view(kJournalMagic, sizeof(kJournalMagic)));
}

TEST(JournalTest, RejectsBadMagic) {
  EXPECT_FALSE(JournalReader::Parse("NOTAJRNL").ok());
  EXPECT_FALSE(JournalReader::Parse("GLX").ok());
  EXPECT_FALSE(JournalReader::Parse(std::string(5, '\0')).ok());
  // A strict prefix of the magic, the empty file included, is a journal a
  // crash left before its first sync: it replays as no frames.
  for (size_t cut = 0; cut < sizeof(kJournalMagic); ++cut) {
    const Result<JournalReplay> replay =
        JournalReader::Parse(std::string_view(kJournalMagic, cut));
    ASSERT_TRUE(replay.ok()) << "cut=" << cut;
    EXPECT_TRUE(replay->entries.empty()) << "cut=" << cut;
  }
}

// The journal's one rule: an append returns OK only after exactly one
// completed Sync covers its frame, under either header.
TEST(JournalTest, FsyncEveryAppendKeepsDiskSynced) {
  auto file = std::make_unique<CountingSyncFile>();
  CountingSyncFile* counting = file.get();
  Result<std::unique_ptr<JournalWriter>> writer =
      JournalWriter::Create(std::move(file));
  ASSERT_TRUE(writer.ok());
  const License issued = Usage("LU", 1);
  for (uint64_t seq = 1; seq <= 6; ++seq) {
    const size_t before = counting->disk().contents().size();
    const size_t syncs = counting->synced_sizes().size();
    const Status appended =
        seq % 2 == 1 ? (*writer)->AppendOp(seq, OpRef::Issue(issued))
                     : (*writer)->AppendTenantOp(seq, 9, seq / 2,
                                                 OpRef::Issue(issued));
    ASSERT_TRUE(appended.ok()) << seq;
    ASSERT_EQ(counting->synced_sizes().size(), syncs + 1) << seq;
    // The frame is the bytes past `before`; the sync covered all of them.
    EXPECT_GT(counting->disk().contents().size(), before) << seq;
    EXPECT_EQ(counting->synced_sizes().back(),
              counting->disk().contents().size())
        << seq;
    const Result<JournalReplay> replay =
        JournalReader::Parse(counting->disk().synced_contents());
    ASSERT_TRUE(replay.ok()) << replay.status().message();
    EXPECT_EQ(replay->entries.size(), seq);
  }
}

// The other side of the rule: an append whose sync fails is not
// acknowledged, and it poisons the writer for good.
TEST(JournalTest, FailedSyncFailsTheAppendAndPoisons) {
  auto file =
      std::make_unique<FaultyFile>(std::make_unique<InMemorySyncFile>());
  FaultyFile* faults = file.get();
  Result<std::unique_ptr<JournalWriter>> writer =
      JournalWriter::Create(std::move(file));
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->AppendOp(1, OpRef::Issue(Usage("LU", 1))).ok());
  faults->FailNextSync();
  const Status failed = (*writer)->AppendOp(2, OpRef::Issue(Usage("LU", 1)));
  EXPECT_EQ(failed.code(), StatusCode::kIoError);
  EXPECT_TRUE((*writer)->poisoned());
  EXPECT_FALSE((*writer)->AppendOp(3, OpRef::Issue(Usage("LU", 1))).ok());
  EXPECT_FALSE((*writer)->Close().ok());
}

// Close leaves nothing to flush, and a closed writer refuses further work.
TEST(JournalTest, ClosedWriterRefusesAppends) {
  auto file = std::make_unique<CountingSyncFile>();
  CountingSyncFile* counting = file.get();
  Result<std::unique_ptr<JournalWriter>> writer =
      JournalWriter::Create(std::move(file));
  ASSERT_TRUE(writer.ok());
  for (uint64_t seq = 1; seq <= 3; ++seq) {
    ASSERT_TRUE((*writer)->AppendOp(seq, OpRef::Issue(Usage("LU", 1))).ok());
  }
  ASSERT_TRUE((*writer)->Close().ok());
  EXPECT_EQ(counting->synced_sizes().size(), 3u);
  EXPECT_EQ(counting->disk().synced_size(),
            counting->disk().contents().size());
  EXPECT_FALSE((*writer)->AppendOp(4, OpRef::Issue(Usage("LU", 1))).ok());
  EXPECT_TRUE((*writer)->Close().ok());  // Idempotent.
}

TEST(JournalTest, RejectsSequenceZero) {
  Result<std::unique_ptr<JournalWriter>> writer =
      JournalWriter::Create(std::make_unique<InMemorySyncFile>());
  ASSERT_TRUE(writer.ok());
  EXPECT_FALSE((*writer)->AppendOp(0, OpRef::Issue(Usage("LU", 1))).ok());
}

TEST(JournalTest, ReaderRejectsGapsAndDuplicates) {
  auto file = std::make_unique<InMemorySyncFile>();
  InMemorySyncFile* disk = file.get();
  Result<std::unique_ptr<JournalWriter>> writer =
      JournalWriter::Create(std::move(file));
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->AppendOp(1, OpRef::Issue(Usage("LU1", 1))).ok());
  const std::string after_first = disk->contents();
  const std::string frame1 = after_first.substr(sizeof(kJournalMagic));

  // Duplicate: frame 1 appended twice.
  {
    const Result<JournalReplay> replay =
        JournalReader::Parse(after_first + frame1);
    ASSERT_FALSE(replay.ok());
    EXPECT_NE(replay.status().message().find("duplicate"), std::string::npos)
        << replay.status().message();
    EXPECT_NE(replay.status().message().find("offset"), std::string::npos);
  }

  // Gap: seq jumps 1 -> 3.
  ASSERT_TRUE((*writer)->AppendOp(3, OpRef::Issue(Usage("LU3", 1))).ok());
  {
    const Result<JournalReplay> replay =
        JournalReader::Parse(disk->contents());
    ASSERT_FALSE(replay.ok());
    EXPECT_NE(replay.status().message().find("gap"), std::string::npos)
        << replay.status().message();
  }
}

TEST(JournalTest, FileRoundTrip) {
  const testing::ScopedTempPath file("journal_file_test.gjl");
  const std::string& path = file.path();
  {
    Result<std::unique_ptr<JournalWriter>> writer = JournalWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->AppendOp(1, OpRef::Issue(Usage("LU1", 42))).ok());
    ASSERT_TRUE((*writer)->AppendOp(2, OpRef::Issue(Usage("LU2", 1))).ok());
  }
  const Result<JournalReplay> replay = JournalReader::ReadFile(path);
  ASSERT_TRUE(replay.ok());
  ASSERT_EQ(replay->entries.size(), 2u);
  EXPECT_EQ(replay->entries[0].op.license.aggregate_count(), 42);
}

TEST(JournalTest, EncodeDecodeLogRecordRoundTrip) {
  const LogRecord original = Record("LU-long-id-0123456789", 0xdeadbeef, 7);
  std::string bytes;
  EncodeLogRecord(original, &bytes);
  LogRecord decoded;
  size_t pos = 0;
  ASSERT_TRUE(DecodeLogRecord(bytes, &pos, &decoded).ok());
  EXPECT_EQ(pos, bytes.size());
  EXPECT_EQ(decoded.issued_license_id, original.issued_license_id);
  EXPECT_EQ(decoded.set, original.set);
  EXPECT_EQ(decoded.count, original.count);
}

}  // namespace
}  // namespace geolic

// Crash images of journals written through a real PosixSyncFile.
//
// A log on PosixSyncFile writes frames in place ahead of a reserved zero
// tail and syncs every frame with fdatasync before its append returns, so
// after a crash the file size says nothing about where the writer stopped:
// the frame whose sync the crash interrupted may have reached the disk
// whole, cut short, or page by page in any order, with the missing pages
// still reading as zeros. These tests write journals to disk, then
// fabricate every such image from the file and check the reader against an
// oracle computed from the frame boundaries the writer produced.

#include <sys/resource.h>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "persist/faulty_file.h"
#include "persist/journal.h"
#include "persist/sync_file.h"
#include "service/issuance_service.h"
#include "test_util.h"

namespace geolic {
namespace {

constexpr size_t kPageBytes = 4096;

// Forwards to the real file and counts what the writer handed it: the
// bytes written so far and the bytes a completed Sync covers.
class RecordingFile : public SyncFile {
 public:
  explicit RecordingFile(std::unique_ptr<SyncFile> base)
      : base_(std::move(base)) {}
  Status Append(std::string_view data) override {
    const Status status = base_->Append(data);
    if (status.ok()) {
      written_ += data.size();
    }
    return status;
  }
  Status Sync() override {
    const Status status = base_->Sync();
    if (status.ok()) {
      synced_ = written_;
    }
    return status;
  }
  Status Close() override { return base_->Close(); }

  size_t written() const { return written_; }
  size_t synced() const { return synced_; }

 private:
  std::unique_ptr<SyncFile> base_;
  size_t written_ = 0;
  size_t synced_ = 0;
};

// The license of the i-th issue op; a longer content key makes its frame
// span several pages.
License Usage(int i, size_t key_bytes = 1) {
  const ConstraintSchema& schema = testing::IntervalSchema(1);
  LicenseBuilder builder(&schema);
  builder.SetId("LU" + std::to_string(i))
      .SetContentKey(std::string(key_bytes, 'K'))
      .SetType(LicenseType::kUsage)
      .SetPermission(Permission::kPlay)
      .SetAggregateCount(1 + i % 3)
      .SetInterval("C1", i % 7, 10);
  const Result<License> license = builder.Build();
  GEOLIC_CHECK(license.ok());
  return *license;
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

// A journal on disk whose writer is still open: the file holds exactly
// what a crash at this instant could leave, before the frame whose sync
// the crash interrupts is torn.
struct OpenJournal {
  std::string path;
  std::unique_ptr<JournalWriter> writer;
  RecordingFile* file = nullptr;
  // boundaries[k] is the byte offset after k frames (boundaries[0] is the
  // end of the magic).
  std::vector<size_t> boundaries;
  // Frames a crash image keeps whole: every frame, unless a test treats
  // the last one as the frame whose sync the crash interrupted.
  size_t synced_frames = 0;
};

// Opens a journal on disk at `path` with no frames yet.
OpenJournal StartJournal(const std::string& path) {
  OpenJournal journal;
  journal.path = path;
  Result<std::unique_ptr<PosixSyncFile>> posix =
      PosixSyncFile::Create(journal.path);
  EXPECT_TRUE(posix.ok());
  auto recording = std::make_unique<RecordingFile>(std::move(*posix));
  journal.file = recording.get();
  Result<std::unique_ptr<JournalWriter>> writer =
      JournalWriter::Create(std::move(recording));
  EXPECT_TRUE(writer.ok());
  journal.writer = std::move(*writer);
  journal.boundaries.push_back(journal.file->written());
  return journal;
}

// Appends frame `boundaries.size()` (seq 1, 2, ...) and records where it
// ends. Every append syncs its frame before it returns.
void AppendNext(OpenJournal* journal, size_t key_bytes = 1) {
  const int i = static_cast<int>(journal->boundaries.size());
  EXPECT_TRUE(journal->writer
                  ->AppendOp(static_cast<uint64_t>(i),
                             OpRef::Issue(Usage(i, key_bytes)))
                  .ok());
  journal->boundaries.push_back(journal->file->written());
  EXPECT_EQ(journal->file->synced(), journal->file->written());
  journal->synced_frames = journal->boundaries.size() - 1;
}

OpenJournal WriteJournal(const std::string& path, int frames) {
  OpenJournal journal = StartJournal(path);
  for (int i = 1; i <= frames; ++i) {
    AppendNext(&journal);
  }
  return journal;
}

// Recovers `image` the way a restart does: from a file, through ReadFile.
Result<JournalReplay> RecoverImage(const std::string& image) {
  const testing::ScopedTempPath probe("crash_image_probe.gjl");
  WriteBytes(probe.path(), image);
  return JournalReader::ReadFile(probe.path());
}

// Checks one crash image of `journal` (whose intact bytes are `written`):
// recovery never fails, returns every synced frame plus the unsynced one
// when it survived intact, and reports a torn tail exactly when bytes of a
// lost frame reached the disk.
void ExpectRecoversSyncedPlusPrefix(const OpenJournal& journal,
                                    const std::string& written,
                                    const std::string& image,
                                    const std::string& label) {
  const Result<JournalReplay> replay = RecoverImage(image);
  ASSERT_TRUE(replay.ok()) << label << ": " << replay.status().message();
  const std::vector<size_t>& b = journal.boundaries;
  size_t intact = journal.synced_frames;
  while (intact + 1 < b.size() &&
         image.compare(b[intact], b[intact + 1] - b[intact], written,
                       b[intact], b[intact + 1] - b[intact]) == 0) {
    ++intact;
  }
  ASSERT_EQ(replay->entries.size(), intact) << label;
  for (size_t i = 0; i < intact; ++i) {
    EXPECT_EQ(replay->entries[i].seq, i + 1) << label;
    EXPECT_EQ(replay->entries[i].op.license.id(),
              "LU" + std::to_string(i + 1))
        << label;
  }
  const bool debris =
      image.find_first_not_of('\0', b[intact]) != std::string::npos;
  EXPECT_EQ(replay->torn_tail, debris) << label;
  if (debris) {
    EXPECT_EQ(replay->torn_tail_offset, b[intact]) << label;
  }
}

TEST(CrashImageTest, LogReservesAheadAndCloseTruncates) {
  const testing::ScopedTempPath file("crash_reserve.gjl");
  OpenJournal journal = WriteJournal(file.path(), 3);
  const uint64_t reserved = std::filesystem::file_size(journal.path);
  // Every append after the first frame's sync writes into reserved space: a
  // whole number of steps, with the zero tail past the frames.
  EXPECT_EQ(reserved % kReserveStepBytes, 0u);
  EXPECT_GE(reserved, journal.file->written() + kReservedZeroTailBytes);
  const std::string image = ReadBytes(journal.path);
  EXPECT_EQ(image.find_first_not_of('\0', journal.file->written()),
            std::string::npos);

  ASSERT_TRUE(journal.writer->Close().ok());
  EXPECT_EQ(std::filesystem::file_size(journal.path), journal.file->written());
  const Result<JournalReplay> replay = JournalReader::ReadFile(journal.path);
  ASSERT_TRUE(replay.ok()) << replay.status().message();
  EXPECT_EQ(replay->entries.size(), 3u);
  EXPECT_FALSE(replay->torn_tail);
}

TEST(CrashImageTest, ReservationKeepsTheZeroTailAcrossSteps) {
  // Across several 64 KiB steps, after every append that follows the first
  // sync: the file is a whole number of steps and the written end never
  // enters the last 4 KiB. Before that sync the file holds exactly its
  // bytes.
  const testing::ScopedTempPath file("crash_steps.gjl");
  OpenJournal journal = StartJournal(file.path());
  while (journal.file->written() < 3 * kReserveStepBytes) {
    const bool synced_before = journal.file->synced() > 0;
    AppendNext(&journal);
    const uint64_t size = std::filesystem::file_size(journal.path);
    if (!synced_before) {
      ASSERT_EQ(size, journal.file->written());
      continue;
    }
    ASSERT_EQ(size % kReserveStepBytes, 0u) << journal.file->written();
    ASSERT_GE(size, journal.file->written() + kReservedZeroTailBytes);
    ASSERT_LT(size, journal.file->written() + kReservedZeroTailBytes +
                        kReserveStepBytes);
  }
  const Result<JournalReplay> replay = JournalReader::ReadFile(journal.path);
  ASSERT_TRUE(replay.ok()) << replay.status().message();
  EXPECT_EQ(replay->entries.size(), journal.boundaries.size() - 1);
  EXPECT_FALSE(replay->torn_tail);
}

TEST(CrashImageTest, WriteOnceFileNeverReserves) {
  // Written whole and synced once, like a checkpoint: no append follows a
  // sync, so the file holds exactly its bytes even before Close.
  const testing::ScopedTempPath file_path("crash_write_once.bin");
  const std::string& path = file_path.path();
  Result<std::unique_ptr<PosixSyncFile>> file = PosixSyncFile::Create(path);
  ASSERT_TRUE(file.ok());
  const std::string bytes(10000, 'x');
  ASSERT_TRUE((*file)->Append(bytes).ok());
  ASSERT_TRUE((*file)->Sync().ok());
  EXPECT_EQ(std::filesystem::file_size(path), bytes.size());
  ASSERT_TRUE((*file)->Close().ok());
  EXPECT_EQ(ReadBytes(path), bytes);
}

TEST(CrashImageTest, EveryCutBeforeTheFirstSyncRecoversItsWholeFrames) {
  // Creating a journal syncs nothing: the magic and frame 1 are written to
  // a growing file, and frame 1's sync is the first. A crash before it can
  // leave any prefix of those bytes. Each recovers exactly the whole
  // frames inside the cut, and a cut inside the magic (the empty file
  // included) recovers none.
  const testing::ScopedTempPath file("crash_first_sync.gjl");
  OpenJournal journal = StartJournal(file.path());
  EXPECT_EQ(journal.file->synced(), 0u);
  AppendNext(&journal);
  const std::vector<size_t>& b = journal.boundaries;
  ASSERT_EQ(journal.file->synced(), b.back());
  const std::string written = ReadBytes(journal.path);
  ASSERT_EQ(written.size(), b.back());  // Nothing reserved before the sync.
  for (size_t cut = 0; cut <= written.size(); ++cut) {
    const Result<JournalReplay> replay = RecoverImage(written.substr(0, cut));
    ASSERT_TRUE(replay.ok()) << "cut=" << cut << ": "
                             << replay.status().message();
    size_t whole = 0;
    while (whole + 1 < b.size() && b[whole + 1] <= cut) {
      ++whole;
    }
    ASSERT_EQ(replay->entries.size(), whole) << "cut=" << cut;
    for (size_t i = 0; i < whole; ++i) {
      EXPECT_EQ(replay->entries[i].seq, i + 1) << "cut=" << cut;
    }
    EXPECT_EQ(replay->torn_tail, cut > b[0] && cut != b[whole])
        << "cut=" << cut;
  }
}

TEST(CrashImageTest, EveryPrefixCutOfTheUnsyncedWindowRecovers) {
  // Every append is synced before it returns, so the window a crash can
  // tear is the final append, cut before its sync returned: every prefix
  // of it reached the disk, the rest reads as zeros.
  const testing::ScopedTempPath file("crash_cuts.gjl");
  OpenJournal journal = WriteJournal(file.path(), 15);
  --journal.synced_frames;
  const size_t window_start = journal.boundaries[journal.synced_frames];
  const size_t written = journal.file->written();
  ASSERT_LT(window_start, written);
  const std::string full = ReadBytes(journal.path);
  for (size_t cut = 0; cut <= written - window_start; ++cut) {
    std::string image = full;
    std::fill(image.begin() + static_cast<std::ptrdiff_t>(window_start + cut),
              image.begin() + static_cast<std::ptrdiff_t>(written), '\0');
    ExpectRecoversSyncedPlusPrefix(journal, full, image,
                                   "cut=" + std::to_string(cut));
  }
}

TEST(CrashImageTest, EverySubsetOfUnsyncedPagesRecovers) {
  // The final append — a frame of ~5 pages, past 40 synced frames — cut
  // before its sync returned, its 4 KiB pages each reaching the disk or
  // not, in every combination: a write-back that persisted later pages
  // before earlier ones included.
  const testing::ScopedTempPath file("crash_pages.gjl");
  OpenJournal journal = WriteJournal(file.path(), 40);
  AppendNext(&journal, 5 * kPageBytes - 1000);
  --journal.synced_frames;
  const size_t synced = journal.boundaries[journal.synced_frames];
  const size_t written = journal.file->written();
  ASSERT_EQ(journal.synced_frames, 40u);
  const std::string full = ReadBytes(journal.path);
  const size_t first_page = synced / kPageBytes;
  const size_t last_page = (written - 1) / kPageBytes;
  const size_t pages = last_page - first_page + 1;
  ASSERT_GE(pages, 4u);
  ASSERT_LE(pages, 8u);
  for (uint32_t kept = 0; kept < (1u << pages); ++kept) {
    std::string image = full;
    for (size_t p = 0; p < pages; ++p) {
      if ((kept >> p & 1) != 0) {
        continue;
      }
      const size_t from = std::max(synced, (first_page + p) * kPageBytes);
      const size_t to = std::min(written, (first_page + p + 1) * kPageBytes);
      std::fill(image.begin() + static_cast<std::ptrdiff_t>(from),
                image.begin() + static_cast<std::ptrdiff_t>(to), '\0');
    }
    ExpectRecoversSyncedPlusPrefix(journal, full, image,
                                   "pages kept=" + std::to_string(kept));
  }
}

TEST(CrashImageTest, EveryBitFlipInAWitnessedFrameFailsLoudly) {
  // Every append syncs, so frame k+1 witnesses frame k: in a crash image
  // every frame but the last is provably synced and damage to it is
  // corruption, never a torn tail.
  const testing::ScopedTempPath file("crash_flips.gjl");
  OpenJournal journal = WriteJournal(file.path(), 6);
  std::string image = ReadBytes(journal.path);
  const std::vector<size_t>& b = journal.boundaries;
  for (size_t frame = 0; frame + 1 < b.size() - 1; ++frame) {
    const std::string offset = "offset " + std::to_string(b[frame]) + ":";
    for (size_t i = b[frame]; i < b[frame + 1]; ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        image[i] = static_cast<char>(image[i] ^ (1 << bit));
        const Result<JournalReplay> replay = JournalReader::Parse(image);
        image[i] = static_cast<char>(image[i] ^ (1 << bit));
        ASSERT_FALSE(replay.ok())
            << "frame " << frame + 1 << " byte " << i << " bit " << bit
            << " slipped through";
        EXPECT_NE(replay.status().message().find(offset), std::string::npos)
            << replay.status().message();
      }
    }
  }
}

TEST(CrashImageTest, UnwitnessedFinalFrameDamageReadsAsTornTail) {
  // The one residual of the crash rules: no later frame witnesses the
  // final frame, so damage confined to it is indistinguishable from a
  // write that never finished. It is dropped and reported, never replayed.
  const testing::ScopedTempPath file("crash_final.gjl");
  OpenJournal journal = WriteJournal(file.path(), 6);
  std::string image = ReadBytes(journal.path);
  const std::vector<size_t>& b = journal.boundaries;
  for (size_t i = b[5]; i < b[6]; ++i) {
    image[i] = static_cast<char>(image[i] ^ 0x10);
    const Result<JournalReplay> replay = JournalReader::Parse(image);
    image[i] = static_cast<char>(image[i] ^ 0x10);
    ASSERT_TRUE(replay.ok()) << "byte " << i << ": "
                             << replay.status().message();
    EXPECT_EQ(replay->entries.size(), 5u);
    EXPECT_TRUE(replay->torn_tail);
    EXPECT_EQ(replay->torn_tail_offset, b[5]);
  }
}

TEST(CrashImageTest, ClosedFileKeepsTheStrictBitFlipMatrix) {
  // After Close the file is its frames and nothing else, and the strict
  // rules apply: every flipped bit fails loudly, past the magic with an
  // offset — the final frame included.
  const testing::ScopedTempPath file("crash_closed.gjl");
  OpenJournal journal = WriteJournal(file.path(), 4);
  ASSERT_TRUE(journal.writer->Close().ok());
  std::string bytes = ReadBytes(journal.path);
  ASSERT_EQ(bytes.size(), journal.file->written());
  for (size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      bytes[i] = static_cast<char>(bytes[i] ^ (1 << bit));
      const Result<JournalReplay> replay = JournalReader::Parse(bytes);
      bytes[i] = static_cast<char>(bytes[i] ^ (1 << bit));
      ASSERT_FALSE(replay.ok())
          << "byte " << i << " bit " << bit << " slipped through";
      if (i >= sizeof(kJournalMagic)) {
        EXPECT_NE(replay.status().message().find("offset"), std::string::npos)
            << replay.status().message();
      }
    }
  }
}

TEST(CrashImageTest, DestroyedWriterLeavesAClosedFile) {
  // A writer dropped without Close closes itself: the reservation is
  // truncated to the synced frames.
  const testing::ScopedTempPath file("crash_destroyed.gjl");
  const std::string& path = file.path();
  size_t written = 0;
  {
    OpenJournal journal = WriteJournal(path, 5);
    written = journal.file->written();
    ASSERT_GT(std::filesystem::file_size(path), written);
  }
  EXPECT_EQ(std::filesystem::file_size(path), written);
  const Result<JournalReplay> replay = JournalReader::ReadFile(path);
  ASSERT_TRUE(replay.ok()) << replay.status().message();
  EXPECT_EQ(replay->entries.size(), 5u);
  EXPECT_FALSE(replay->torn_tail);
}

TEST(CrashImageTest, PoisonedWriterLeavesACrashImage) {
  // A torn append poisons the writer; destroying it must not pretend the
  // file is whole. The reserved tail stays and the torn frame reads as
  // such under the crash rules.
  const testing::ScopedTempPath file("crash_poisoned.gjl");
  const std::string& path = file.path();
  {
    Result<std::unique_ptr<PosixSyncFile>> posix = PosixSyncFile::Create(path);
    ASSERT_TRUE(posix.ok());
    auto faulty = std::make_unique<FaultyFile>(std::move(*posix));
    FaultyFile* faults = faulty.get();
    Result<std::unique_ptr<JournalWriter>> writer =
        JournalWriter::Create(std::move(faulty));
    ASSERT_TRUE(writer.ok());
    for (int i = 1; i <= 3; ++i) {
      ASSERT_TRUE((*writer)
                      ->AppendOp(static_cast<uint64_t>(i),
                                 OpRef::Issue(Usage(i)))
                      .ok());
    }
    faults->TearNextAppend(17);
    EXPECT_FALSE((*writer)->AppendOp(4, OpRef::Issue(Usage(4))).ok());
    EXPECT_TRUE((*writer)->poisoned());
  }
  EXPECT_EQ(std::filesystem::file_size(path) % kReserveStepBytes, 0u);
  const Result<JournalReplay> replay = JournalReader::ReadFile(path);
  ASSERT_TRUE(replay.ok()) << replay.status().message();
  EXPECT_EQ(replay->entries.size(), 3u);
  EXPECT_TRUE(replay->torn_tail);
}

TEST(CrashImageTest, ServiceRecoversFromACrashImage) {
  // End to end: a service journaling to disk "crashes" (the file is copied
  // while the writer is open, reserved tail and all) and Recover rebuilds
  // exactly the accepted state from that image.
  const ConstraintSchema schema = testing::IntervalSchema(1);
  LicenseCatalog licenses(&schema);
  ASSERT_TRUE(licenses
                  .Add(testing::MakeRedistribution(schema, "L1", {{0, 20}},
                                                   100))
                  .ok());
  ASSERT_TRUE(licenses
                  .Add(testing::MakeRedistribution(schema, "L2", {{10, 30}},
                                                   100))
                  .ok());
  const testing::ScopedTempPath live_path("crash_service_live.gjl");
  const testing::ScopedTempPath image_path("crash_service_image.gjl");
  const std::string& live = live_path.path();
  const std::string& image = image_path.path();
  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::Create(&licenses);
  ASSERT_TRUE(service.ok());
  Result<std::unique_ptr<JournalWriter>> journal = JournalWriter::Open(live);
  ASSERT_TRUE(journal.ok());
  ASSERT_TRUE((*service)->AttachJournal(std::move(*journal)).ok());
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE((*service)
                    ->TryIssue(testing::MakeUsage(
                        schema, "U" + std::to_string(i), {{12, 18}}, 1))
                    .ok());
  }
  const std::string bytes = ReadBytes(live);
  ASSERT_GE(bytes.size(), kReserveStepBytes);
  WriteBytes(image, bytes);
  const std::string expected = (*service)->CollectTree()->ToString();

  RecoveryStats stats;
  Result<std::unique_ptr<IssuanceService>> recovered =
      IssuanceService::Recover(&licenses, {}, "", image, &stats);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  EXPECT_EQ((*recovered)->CollectTree()->ToString(), expected);
  EXPECT_EQ(stats.journal_records_replayed, 12u);
  EXPECT_FALSE(stats.journal_torn_tail);
}

// Lowers RLIMIT_FSIZE and ignores SIGXFSZ (so an oversized write fails
// with EFBIG instead of killing the process) for as long as it lives; the
// destructor restores both even when an ASSERT returns early.
class FileSizeLimit {
 public:
  explicit FileSizeLimit(rlim_t bytes) {
    EXPECT_EQ(::getrlimit(RLIMIT_FSIZE, &saved_), 0);
    old_handler_ = std::signal(SIGXFSZ, SIG_IGN);
    struct rlimit limited = saved_;
    limited.rlim_cur = bytes;
    EXPECT_EQ(::setrlimit(RLIMIT_FSIZE, &limited), 0);
  }
  ~FileSizeLimit() {
    EXPECT_EQ(::setrlimit(RLIMIT_FSIZE, &saved_), 0);
    std::signal(SIGXFSZ, old_handler_);
  }
  FileSizeLimit(const FileSizeLimit&) = delete;
  FileSizeLimit& operator=(const FileSizeLimit&) = delete;

 private:
  struct rlimit saved_ = {};
  void (*old_handler_)(int) = SIG_DFL;
};

TEST(CrashImageTest, FailedReservationFallsBackToGrowingTheFile) {
  // A file-size limit of one and a half steps lets the first 64 KiB
  // reservation succeed and makes the second fail (EFBIG; a filesystem
  // without fallocate fails the same way with EOPNOTSUPP). The log gives
  // back the reservation it held — a zero tail shorter than 4 KiB would
  // read as corruption after a crash — and grows the file by plain writes.
  const testing::ScopedTempPath file("crash_no_reserve.gjl");
  const std::string& path = file.path();
  bool reserved_once = false;
  size_t frames = 0;
  size_t written = 0;
  uint64_t size_while_open = 0;
  {
    const FileSizeLimit limit(kReserveStepBytes + kReserveStepBytes / 2);
    // The first frame's sync starts the reservation.
    OpenJournal journal = StartJournal(path);
    while (journal.file->written() < kReserveStepBytes + 8 * 1024) {
      AppendNext(&journal);
      const uint64_t tail =
          std::filesystem::file_size(path) - journal.file->written();
      reserved_once = reserved_once || tail > 0;
      ASSERT_TRUE(tail == 0 || tail >= kReservedZeroTailBytes) << tail;
    }
    frames = journal.boundaries.size() - 1;
    written = journal.file->written();
    size_while_open = std::filesystem::file_size(path);
  }
  EXPECT_TRUE(reserved_once);
  EXPECT_EQ(size_while_open, written);
  const Result<JournalReplay> replay = JournalReader::ReadFile(path);
  ASSERT_TRUE(replay.ok()) << replay.status().message();
  EXPECT_EQ(replay->entries.size(), frames);
  EXPECT_FALSE(replay->torn_tail);
}

TEST(CrashImageTest, CrashDuringAReservationRecoversAtTheOldSize) {
  // A crash while a new 64 KiB step is being reserved can leave the file
  // at the size it had before that step. PosixSyncFile syncs each step
  // before writing into it, so the frame that asked for the step is not
  // in such an image, and every frame before it was synced. At the old
  // size the zero tail is still at least 4 KiB, so the image reads under
  // the crash rules and recovers every frame before the step.
  const testing::ScopedTempPath file("crash_old_size.gjl");
  OpenJournal journal = StartJournal(file.path());
  uint64_t old_size = 0;
  size_t trigger = 0;  // The frame whose append reserved the step.
  int steps = 0;
  while (trigger == 0) {
    const uint64_t before = std::filesystem::file_size(journal.path);
    AppendNext(&journal);
    const uint64_t after = std::filesystem::file_size(journal.path);
    if (after == before || after % kReserveStepBytes != 0) {
      continue;  // No reservation: the file grows before its first sync.
    }
    // Past the first step, which grows a file holding only frame 1.
    if (++steps == 2) {
      old_size = before;
      trigger = journal.boundaries.size() - 1;
    }
  }
  ASSERT_EQ(old_size % kReserveStepBytes, 0u);
  const size_t kept_end = journal.boundaries[trigger - 1];
  ASSERT_GE(old_size, kept_end + kReservedZeroTailBytes);
  std::string image = ReadBytes(journal.path).substr(0, old_size);
  std::fill(image.begin() + static_cast<std::ptrdiff_t>(kept_end),
            image.end(), '\0');
  const Result<JournalReplay> replay = RecoverImage(image);
  ASSERT_TRUE(replay.ok()) << replay.status().message();
  EXPECT_EQ(replay->entries.size(), trigger - 1);
  EXPECT_FALSE(replay->torn_tail);
}

TEST(CrashImageTest, ZerosOverAClosedJournalsEndFailLoudly) {
  // A closed journal is not a whole number of steps, so zeros that damage
  // writes over its end, or appends to it, are read under the strict
  // rules: the first frame they change fails with its offset, and zeros
  // past the last frame fail at the written end.
  const testing::ScopedTempPath file("crash_closed_zeros.gjl");
  OpenJournal journal = WriteJournal(file.path(), 200);
  ASSERT_TRUE(journal.writer->Close().ok());
  const std::string bytes = ReadBytes(journal.path);
  ASSERT_GT(bytes.size(), sizeof(kJournalMagic) + kReservedZeroTailBytes);
  ASSERT_NE(bytes.size() % kReserveStepBytes, 0u);
  const std::vector<size_t>& b = journal.boundaries;

  std::string zeroed = bytes;
  std::fill(zeroed.end() - kReservedZeroTailBytes, zeroed.end(), '\0');
  size_t damaged = 0;
  while (zeroed.compare(b[damaged], b[damaged + 1] - b[damaged], bytes,
                        b[damaged], b[damaged + 1] - b[damaged]) == 0) {
    ++damaged;
  }
  Result<JournalReplay> replay = JournalReader::Parse(zeroed);
  ASSERT_FALSE(replay.ok()) << "zeroed tail read as " << replay->entries.size()
                            << " frames";
  EXPECT_NE(replay.status().message().find(
                "offset " + std::to_string(b[damaged]) + ":"),
            std::string::npos)
      << replay.status().message();

  for (const size_t extra :
       {kReservedZeroTailBytes, 3 * kReservedZeroTailBytes}) {
    const std::string appended = bytes + std::string(extra, '\0');
    ASSERT_NE(appended.size() % kReserveStepBytes, 0u);
    replay = JournalReader::Parse(appended);
    ASSERT_FALSE(replay.ok()) << extra << " zeros appended";
    EXPECT_NE(replay.status().message().find(
                  "offset " + std::to_string(bytes.size()) + ":"),
              std::string::npos)
        << replay.status().message();
  }
}

}  // namespace
}  // namespace geolic

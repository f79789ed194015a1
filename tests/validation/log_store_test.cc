#include "validation/log_store.h"

#include <fstream>

#include <gtest/gtest.h>

#include "persist/checkpoint.h"
#include "persist/framing.h"
#include "persist/journal.h"
#include "test_util.h"

namespace geolic {
namespace {

LogRecord Record(const std::string& id, uint64_t mask, int64_t count) {
  const LicenseSet set = LicenseSet::FromWord(mask);
  LogRecord record;
  record.issued_license_id = id;
  record.set = set;
  record.count = count;
  return record;
}

// A temp file named after the current test, removed when it goes out of
// scope.
testing::ScopedTempPath TempPath(const std::string& suffix) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return testing::ScopedTempPath(std::string("geolic_") +
                                 info->test_suite_name() + "_" +
                                 info->name() + suffix);
}

TEST(LogStoreTest, AppendAndAccess) {
  LogStore store;
  EXPECT_TRUE(store.empty());
  ASSERT_TRUE(store.Append(Record("LU1", 0b11, 800)).ok());
  ASSERT_TRUE(store.Append(Record("LU2", 0b10, 400)).ok());
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.at(0).issued_license_id, "LU1");
  EXPECT_EQ(store.at(1).count, 400);
  EXPECT_EQ(store.TotalCount(), 1200);
}

TEST(LogStoreTest, RejectsEmptySetAndNonPositiveCount) {
  LogStore store;
  EXPECT_FALSE(store.Append(Record("LU1", 0, 10)).ok());
  EXPECT_FALSE(store.Append(Record("LU1", 0b1, 0)).ok());
  EXPECT_FALSE(store.Append(Record("LU1", 0b1, -5)).ok());
  EXPECT_TRUE(store.empty());
}

TEST(LogStoreTest, MergedCountsAccumulatePerSet) {
  // The paper's Table 2: after LU1..LU6 the counts for {L1,L2}, {L2},
  // {L1,L2,L4}, {L3,L5}, {L5} are 840, 400, 30, 800, 20.
  LogStore store;
  ASSERT_TRUE(store.Append(Record("LU1", 0b00011, 800)).ok());
  ASSERT_TRUE(store.Append(Record("LU2", 0b00010, 400)).ok());
  ASSERT_TRUE(store.Append(Record("LU3", 0b00011, 40)).ok());
  ASSERT_TRUE(store.Append(Record("LU4", 0b01011, 30)).ok());
  ASSERT_TRUE(store.Append(Record("LU5", 0b10100, 800)).ok());
  ASSERT_TRUE(store.Append(Record("LU6", 0b10000, 20)).ok());

  const auto merged = store.MergedCounts();
  EXPECT_EQ(merged.size(), 5u);
  EXPECT_EQ(merged.at(testing::Mask(0b00011)), 840);
  EXPECT_EQ(merged.at(testing::Mask(0b00010)), 400);
  EXPECT_EQ(merged.at(testing::Mask(0b01011)), 30);
  EXPECT_EQ(merged.at(testing::Mask(0b10100)), 800);
  EXPECT_EQ(merged.at(testing::Mask(0b10000)), 20);
}

TEST(LogStoreTest, CompactedMergesAndOrders) {
  LogStore store;
  ASSERT_TRUE(store.Append(Record("LU1", 0b011, 800)).ok());
  ASSERT_TRUE(store.Append(Record("LU2", 0b100, 20)).ok());
  ASSERT_TRUE(store.Append(Record("LU3", 0b011, 40)).ok());
  ASSERT_TRUE(store.Append(Record("LU4", 0b001, 5)).ok());
  const LogStore compacted = store.Compacted();
  ASSERT_EQ(compacted.size(), 3u);
  EXPECT_EQ(compacted.at(0).set, testing::Mask(0b001));
  EXPECT_EQ(compacted.at(0).count, 5);
  EXPECT_EQ(compacted.at(1).set, testing::Mask(0b011));
  EXPECT_EQ(compacted.at(1).count, 840);
  EXPECT_EQ(compacted.at(2).set, testing::Mask(0b100));
  EXPECT_EQ(compacted.at(2).count, 20);
  EXPECT_EQ(compacted.TotalCount(), store.TotalCount());
  EXPECT_EQ(compacted.MergedCounts(), store.MergedCounts());
  EXPECT_TRUE(compacted.at(0).issued_license_id.empty());
}

TEST(LogStoreTest, CompactedEmptyStore) {
  EXPECT_EQ(LogStore().Compacted().size(), 0u);
}

TEST(LogStoreTest, TextRoundTrip) {
  LogStore store;
  ASSERT_TRUE(store.Append(Record("LU1", 0b1011, 800)).ok());
  ASSERT_TRUE(store.Append(Record("", 0b0001, 25)).ok());
  ASSERT_TRUE(store.Append(Record("LU3", ~uint64_t{0}, 1)).ok());

  const testing::ScopedTempPath file = TempPath(".log");
  const std::string& path = file.path();
  ASSERT_TRUE(store.SaveText(path).ok());
  const Result<LogStore> loaded = LogStore::LoadText(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 3u);
  EXPECT_EQ(loaded->records(), store.records());
}

TEST(LogStoreTest, TextLoadSkipsCommentsAndBlankLines) {
  const testing::ScopedTempPath file = TempPath(".log");
  const std::string& path = file.path();
  {
    std::ofstream out(path);
    out << "# header comment\n\nLU1 0x3 800\n# another\nLU2 2 400\n";
  }
  const Result<LogStore> loaded = LogStore::LoadText(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 2u);
  EXPECT_EQ(loaded->at(0).set, testing::Mask(0b11));
  EXPECT_EQ(loaded->at(1).set, testing::Mask(0b10));  // Decimal masks accepted too.
}

TEST(LogStoreTest, TextLoadRejectsMalformedLines) {
  const testing::ScopedTempPath file = TempPath(".log");
  const std::string& path = file.path();
  {
    std::ofstream out(path);
    out << "LU1 0x3\n";  // Missing count.
  }
  EXPECT_FALSE(LogStore::LoadText(path).ok());
  {
    std::ofstream out(path);
    out << "LU1 0xZZ 10\n";  // Bad hex.
  }
  EXPECT_FALSE(LogStore::LoadText(path).ok());
  {
    std::ofstream out(path);
    out << "LU1 0x0 10\n";  // Empty set.
  }
  EXPECT_FALSE(LogStore::LoadText(path).ok());
}

TEST(LogStoreTest, LoadMissingFileFails) {
  EXPECT_EQ(LogStore::LoadText("/nonexistent/geolic.log").status().code(),
            StatusCode::kIoError);
  EXPECT_EQ(LogStore::LoadBinary("/nonexistent/geolic.bin").status().code(),
            StatusCode::kIoError);
}

TEST(LogStoreTest, BinaryRoundTrip) {
  LogStore store;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(store
                    .Append(Record("LU" + std::to_string(i),
                                   static_cast<uint64_t>(i) + 1,
                                   (i % 30) + 1))
                    .ok());
  }
  const testing::ScopedTempPath file = TempPath(".bin");
  const std::string& path = file.path();
  ASSERT_TRUE(store.SaveBinary(path).ok());
  const Result<LogStore> loaded = LogStore::LoadBinary(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->records(), store.records());
}

// The log-store payload, byte for byte: u64 record count, then a narrow
// record (set word, count, id) and a wide one (zero escape, u32 word
// count, the words, count, id).
TEST(LogStoreTest, BinaryPayloadBytesAreFixed) {
  LogStore store;
  ASSERT_TRUE(store.Append(Record("LU1", 0b101, 7)).ok());
  LogRecord wide;
  wide.issued_license_id = "W";
  wide.set.Add(0);
  wide.set.Add(70);
  wide.count = 3;
  ASSERT_TRUE(store.Append(wide).ok());
  const testing::ScopedTempPath file = TempPath(".bin");
  const std::string& path = file.path();
  ASSERT_TRUE(store.SaveBinary(path).ok());
  const Result<std::string> payload =
      ReadCheckpointFile(CheckpointKind::kLogStore, path);
  ASSERT_TRUE(payload.ok());
  const unsigned char expected[] = {
      2,  0, 0, 0, 0, 0, 0, 0,  // Record count.
      5,  0, 0, 0, 0, 0, 0, 0,  // Set {0, 2}.
      7,  0, 0, 0, 0, 0, 0, 0,  // Count.
      3,  0, 0, 0, 'L', 'U', '1',  // Id.
      0,  0, 0, 0, 0, 0, 0, 0,  // Wide-set escape.
      2,  0, 0, 0,              // Word count.
      1,  0, 0, 0, 0, 0, 0, 0,  // Word 0: {0}.
      64, 0, 0, 0, 0, 0, 0, 0,  // Word 1: {70}.
      3,  0, 0, 0, 0, 0, 0, 0,  // Count.
      1,  0, 0, 0, 'W'};        // Id.
  EXPECT_EQ(*payload, std::string(reinterpret_cast<const char*>(expected),
                                  sizeof(expected)));
  const Result<LogStore> loaded = LogStore::LoadBinary(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->records(), store.records());
}

TEST(LogStoreTest, BinaryRejectsWrongMagic) {
  const testing::ScopedTempPath file = TempPath(".bin");
  const std::string& path = file.path();
  {
    std::ofstream out(path, std::ios::binary);
    out << "NOTGEOLIC_______";
  }
  EXPECT_EQ(LogStore::LoadBinary(path).status().code(),
            StatusCode::kParseError);
}

TEST(LogStoreTest, BinaryRejectsTruncatedFile) {
  LogStore store;
  ASSERT_TRUE(store.Append(Record("LU1", 0b1, 10)).ok());
  const testing::ScopedTempPath file = TempPath(".bin");
  const std::string& path = file.path();
  ASSERT_TRUE(store.SaveBinary(path).ok());
  // Truncate the file in the middle of the record.
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 4));
  }
  EXPECT_FALSE(LogStore::LoadBinary(path).ok());
}

// A file in the old unchecksummed layout ("GLOGBIN1" then the record
// table) is not a checkpoint and fails the load.
TEST(LogStoreTest, LegacyMagicFailsTheLoad) {
  LogStore store;
  ASSERT_TRUE(store.Append(Record("LU1", 0b01, 5)).ok());
  ASSERT_TRUE(store.Append(Record("LU2", 0b11, 7)).ok());
  std::string bytes = "GLOGBIN1";
  framing::PutScalar(&bytes, static_cast<uint64_t>(store.size()));
  for (const LogRecord& record : store.records()) {
    EncodeLogRecord(record, &bytes);
  }
  const testing::ScopedTempPath file = TempPath(".bin");
  const std::string& path = file.path();
  {
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  const Result<LogStore> loaded = LogStore::LoadBinary(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
}

TEST(LogStoreTest, EmptyStoreRoundTrips) {
  LogStore store;
  const testing::ScopedTempPath text_path = TempPath(".log");
  const testing::ScopedTempPath bin_path = TempPath(".bin");
  ASSERT_TRUE(store.SaveText(text_path.path()).ok());
  ASSERT_TRUE(store.SaveBinary(bin_path.path()).ok());
  EXPECT_EQ(LogStore::LoadText(text_path.path())->size(), 0u);
  EXPECT_EQ(LogStore::LoadBinary(bin_path.path())->size(), 0u);
}

}  // namespace
}  // namespace geolic

// Coverage for the multi-word (N > 64) LicenseSet path end to end:
// v3 wide-set serialization frames (journal + binary log store), the
// byte-identity guarantee for inline sets, a tree past index 64 rebuilt
// from the binary log store, and equation-by-equation equivalence gating
// of the flat tree's batch scan and the reference scans
// (bench/flat_tree_reference.h), inline fast path and forced word-sliced
// path alike.
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/flat_tree_reference.h"
#include "persist/journal.h"
#include "test_util.h"
#include "util/random.h"
#include "validation/flat_tree.h"
#include "validation/log_store.h"
#include "validation/validation_tree.h"

namespace geolic {
namespace {

LogRecord WideRecord(const std::string& id, const LicenseSet& set,
                     int64_t count) {
  LogRecord record;
  record.issued_license_id = id;
  record.set = set;
  record.count = count;
  return record;
}

// Random set with bits spread over [0, n): guaranteed non-empty.
LicenseSet RandomWideSet(Rng* rng, int n) {
  std::vector<int> indexes;
  const int bits = static_cast<int>(rng->UniformInt(1, 10));
  for (int k = 0; k < bits; ++k) {
    indexes.push_back(static_cast<int>(rng->UniformInt(0, n - 1)));
  }
  return LicenseSet::FromIndexes(indexes);
}

// --- v3 frame: journal record encoding -------------------------------------

TEST(WideSetSerializationTest, JournalRecordRoundTripsWideSets) {
  Rng rng(606001);
  for (int trial = 0; trial < 100; ++trial) {
    const LogRecord original = WideRecord(
        "LU" + std::to_string(trial), RandomWideSet(&rng, 1024),
        static_cast<int64_t>(rng.UniformInt(1, 1 << 20)));
    std::string bytes;
    EncodeLogRecord(original, &bytes);
    LogRecord decoded;
    size_t pos = 0;
    ASSERT_TRUE(DecodeLogRecord(bytes, &pos, &decoded).ok());
    EXPECT_EQ(pos, bytes.size());
    EXPECT_EQ(decoded.set, original.set);
    EXPECT_EQ(decoded.count, original.count);
    EXPECT_EQ(decoded.issued_license_id, original.issued_license_id);
  }
}

TEST(WideSetSerializationTest, InlineSetsKeepTheSeedByteLayout) {
  // The v3 escape reuses the impossible set word 0, so an inline record's
  // encoding is byte-identical to the v2 layout: the set slot holds the
  // bare little-endian uint64_t mask and nothing else. Verify both the
  // verbatim word and the total length delta against a wide record.
  const uint64_t mask = 0x0123456789abcdefull;
  const LogRecord inline_record = WideRecord("X", LicenseSet::FromWord(mask), 1);
  std::string inline_bytes;
  EncodeLogRecord(inline_record, &inline_bytes);
  // The raw mask appears verbatim (little-endian scalar write).
  uint64_t le = mask;
  ASSERT_NE(inline_bytes.find(
                std::string(reinterpret_cast<const char*>(&le), sizeof(le))),
            std::string::npos);

  // A two-word set with the same id/count costs exactly the escape word
  // (8 bytes) + word count (4) + one extra word (8) over the inline frame.
  const LogRecord wide_record = WideRecord(
      "X", LicenseSet::FromWord(mask) | LicenseSet::Singleton(64), 1);
  std::string wide_bytes;
  EncodeLogRecord(wide_record, &wide_bytes);
  EXPECT_EQ(wide_bytes.size(), inline_bytes.size() + 8 + 4 + 8);
}

TEST(WideSetSerializationTest, DecodeRejectsNonCanonicalWideFrames) {
  // Escape followed by a zero top word (or width 1) must fail loudly —
  // otherwise encode∘decode wouldn't be the identity.
  const LogRecord wide = WideRecord(
      "Y", LicenseSet::Singleton(3) | LicenseSet::Singleton(100), 2);
  std::string bytes;
  EncodeLogRecord(wide, &bytes);
  // Zero out the top word (the last 8 bytes before the trailing count
  // field would be format-specific; instead rebuild with a corrupted span
  // by flipping the top word's bytes to zero wherever they occur).
  const uint64_t top = wide.set.Word(1);
  const std::string needle(reinterpret_cast<const char*>(&top), sizeof(top));
  const size_t at = bytes.find(needle);
  ASSERT_NE(at, std::string::npos);
  std::memset(bytes.data() + at, 0, sizeof(top));
  LogRecord decoded;
  size_t pos = 0;
  EXPECT_FALSE(DecodeLogRecord(bytes, &pos, &decoded).ok());
}

// --- v3 frame: binary log store --------------------------------------------

TEST(WideSetSerializationTest, LogStoreBinaryRoundTripsWideSets) {
  Rng rng(606002);
  LogStore store;
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(store
                    .Append(WideRecord("LU" + std::to_string(i),
                                       RandomWideSet(&rng, 1024),
                                       rng.UniformInt(1, 1000)))
                    .ok());
  }
  const testing::ScopedTempPath file("wide_log_store.bin");
  const std::string& path = file.path();
  ASSERT_TRUE(store.SaveBinary(path).ok());
  const Result<LogStore> loaded = LogStore::LoadBinary(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), store.size());
  for (size_t i = 0; i < store.size(); ++i) {
    EXPECT_EQ(loaded->at(i).set, store.at(i).set);
    EXPECT_EQ(loaded->at(i).count, store.at(i).count);
    EXPECT_EQ(loaded->at(i).issued_license_id,
              store.at(i).issued_license_id);
  }
}

TEST(WideSetSerializationTest, LogStoreTextRoundTripsWideSets) {
  Rng rng(606003);
  LogStore store;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(store
                    .Append(WideRecord("LU" + std::to_string(i),
                                       RandomWideSet(&rng, 1024),
                                       rng.UniformInt(1, 1000)))
                    .ok());
  }
  const testing::ScopedTempPath file("wide_log_store.txt");
  const std::string& path = file.path();
  ASSERT_TRUE(store.SaveText(path).ok());
  const Result<LogStore> loaded = LogStore::LoadText(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), store.size());
  for (size_t i = 0; i < store.size(); ++i) {
    EXPECT_EQ(loaded->at(i).set, store.at(i).set);
  }
}

// --- Tree past index 64, rebuilt from the binary log store ------------------

TEST(WideSetSerializationTest, TreeRebuildsWideIndexesFromTheLogStore) {
  Rng rng(606004);
  ValidationTree tree;
  LogStore store;
  for (int i = 0; i < 300; ++i) {
    const LicenseSet set = RandomWideSet(&rng, 1024);
    const int64_t count = rng.UniformInt(1, 50);
    ASSERT_TRUE(tree.Insert(set, count).ok());
    ASSERT_TRUE(store.Append(WideRecord("", set, count)).ok());
  }
  const testing::ScopedTempPath file("wide_tree_log.bin");
  const std::string& path = file.path();
  ASSERT_TRUE(store.SaveBinary(path).ok());
  const Result<LogStore> loaded = LogStore::LoadBinary(path);
  ASSERT_TRUE(loaded.ok());
  const Result<ValidationTree> rebuilt = ValidationTree::BuildFromLog(*loaded);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(rebuilt->NodeCount(), tree.NodeCount());
  EXPECT_EQ(rebuilt->TotalCount(), tree.TotalCount());
  EXPECT_EQ(rebuilt->PresentLicenses(), tree.PresentLicenses());
  EXPECT_EQ(rebuilt->ToString(), tree.ToString());
}

// --- Equivalence gating: inline fast path vs forced wide reference ----------

TEST(WideEquivalenceTest, FlatTreeMatchesWideReferenceInlineAndWide) {
  Rng rng(606005);
  for (const int n : {16, 64, 128, 256, 1024}) {
    ValidationTree tree;
    std::vector<LicenseSet> equations;
    for (int i = 0; i < 150; ++i) {
      const LicenseSet set = RandomWideSet(&rng, n);
      ASSERT_TRUE(tree.Insert(set, rng.UniformInt(1, 100)).ok());
      equations.push_back(set);
      // Probe supersets and unions too, not just logged sets.
      equations.push_back(set | RandomWideSet(&rng, n));
    }
    const FlatValidationTree flat = FlatValidationTree::Compile(tree);
    std::vector<int64_t> batch(equations.size());
    std::vector<int64_t> batch_wide(equations.size());
    uint64_t nodes_batch = 0;
    uint64_t nodes_wide = 0;
    flat.SumSubsetsBatch(equations, batch, &nodes_batch);
    ReferenceSumSubsetsBatchWide(flat, equations, batch_wide, &nodes_wide);
    EXPECT_EQ(nodes_batch, nodes_wide) << "n=" << n;
    for (size_t i = 0; i < equations.size(); ++i) {
      const int64_t reference = tree.SumSubsets(equations[i]);
      ASSERT_EQ(ReferenceSumSubsets(flat, equations[i]), reference)
          << "n=" << n;
      ASSERT_EQ(ReferenceSumSubsetsWide(flat, equations[i]), reference)
          << "n=" << n;
      ASSERT_EQ(ReferenceSumSubsetsNoAccel(flat, equations[i]), reference)
          << "n=" << n;
      ASSERT_EQ(batch[i], reference) << "n=" << n;
      ASSERT_EQ(batch_wide[i], reference) << "n=" << n;
    }
  }
}

}  // namespace
}  // namespace geolic

#include "validation/tree_serialization.h"

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "persist/checkpoint.h"
#include "test_util.h"
#include "util/random.h"

namespace geolic {
namespace {

std::string TempPath(const std::string& suffix) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "geolic_" + info->test_suite_name() + "_" +
         info->name() + suffix;
}

ValidationTree SampleTree() {
  ValidationTree tree;
  GEOLIC_CHECK(tree.Insert(testing::Mask(0b00011), 840).ok());
  GEOLIC_CHECK(tree.Insert(testing::Mask(0b00010), 400).ok());
  GEOLIC_CHECK(tree.Insert(testing::Mask(0b01011), 30).ok());
  GEOLIC_CHECK(tree.Insert(testing::Mask(0b10100), 800).ok());
  GEOLIC_CHECK(tree.Insert(testing::Mask(0b10000), 20).ok());
  return tree;
}

TEST(TreeSerializationTest, RoundTripsSampleTree) {
  const ValidationTree original = SampleTree();
  const std::string path = TempPath(".tree");
  ASSERT_TRUE(SaveTree(original, path).ok());
  const Result<ValidationTree> loaded = LoadTree(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->ToString(), original.ToString());
  EXPECT_EQ(loaded->NodeCount(), original.NodeCount());
  EXPECT_EQ(loaded->TotalCount(), original.TotalCount());
  EXPECT_TRUE(loaded->CheckInvariants().ok());
  std::remove(path.c_str());
}

TEST(TreeSerializationTest, RoundTripsEmptyTree) {
  const std::string path = TempPath(".tree");
  ASSERT_TRUE(SaveTree(ValidationTree(), path).ok());
  const Result<ValidationTree> loaded = LoadTree(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->NodeCount(), 0u);
  std::remove(path.c_str());
}

TEST(TreeSerializationTest, StreamVariants) {
  const ValidationTree original = SampleTree();
  std::stringstream buffer;
  ASSERT_TRUE(SerializeTree(original, &buffer).ok());
  const Result<ValidationTree> loaded = DeserializeTree(&buffer);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->ToString(), original.ToString());
}

TEST(TreeSerializationTest, RejectsWrongMagic) {
  std::stringstream buffer;
  buffer << "GARBAGE_GARBAGE_GARBAGE";
  EXPECT_EQ(DeserializeTree(&buffer).status().code(),
            StatusCode::kParseError);
}

TEST(TreeSerializationTest, RejectsTruncation) {
  std::stringstream buffer;
  ASSERT_TRUE(SerializeTree(SampleTree(), &buffer).ok());
  const std::string bytes = buffer.str();
  // Cut the payload at every prefix length; none may crash and all but the
  // full length must fail cleanly.
  for (size_t cut = 0; cut + 1 < bytes.size(); cut += 7) {
    std::stringstream truncated(bytes.substr(0, cut));
    EXPECT_FALSE(DeserializeTree(&truncated).ok()) << "cut=" << cut;
  }
}

TEST(TreeSerializationTest, RejectsCorruptedStructure) {
  std::stringstream buffer;
  ASSERT_TRUE(SerializeTree(SampleTree(), &buffer).ok());
  std::string bytes = buffer.str();
  // Flip the root's first child index (right after the root triple) to a
  // large value, breaking the child-ordering invariant downstream.
  const size_t root_child_index_offset =
      sizeof(char) * 8 + sizeof(uint64_t) +  // magic + node count
      sizeof(int32_t) + sizeof(int64_t) + sizeof(uint32_t);  // root triple
  bytes[root_child_index_offset] = 60;  // L1 node index 0 → 60.
  std::stringstream corrupted(bytes);
  const Result<ValidationTree> loaded = DeserializeTree(&corrupted);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
}

TEST(TreeSerializationTest, MissingFileFails) {
  EXPECT_EQ(LoadTree("/nonexistent/geolic.tree").status().code(),
            StatusCode::kIoError);
}

// Property: random trees survive the round trip with identical set counts.
TEST(TreeSerializationPropertyTest, RandomTreesRoundTrip) {
  Rng rng(testing::TestSeed(60606));
  for (int trial = 0; trial < 20; ++trial) {
    ValidationTree tree;
    const int records = static_cast<int>(rng.UniformInt(1, 300));
    for (int r = 0; r < records; ++r) {
      const LicenseSet set =
          (LicenseSet::FromWord(rng.Next()) & LicenseSet::Full(20)) |
          LicenseSet::Singleton(0);
      ASSERT_TRUE(tree.Insert(set, rng.UniformInt(1, 100)).ok());
    }
    std::stringstream buffer;
    ASSERT_TRUE(SerializeTree(tree, &buffer).ok());
    const Result<ValidationTree> loaded = DeserializeTree(&buffer);
    ASSERT_TRUE(loaded.ok());
    ASSERT_TRUE(loaded->CheckInvariants().ok());
    // Compare the full set→count maps.
    std::unordered_map<LicenseSet, int64_t> expected;
    tree.ForEachSet([&expected](LicenseSet set, int64_t count) {
      expected[set] = count;
    });
    size_t seen = 0;
    loaded->ForEachSet([&](LicenseSet set, int64_t count) {
      ++seen;
      auto it = expected.find(set);
      ASSERT_NE(it, expected.end());
      EXPECT_EQ(it->second, count);
    });
    EXPECT_EQ(seen, expected.size());
  }
}

// --- Deep chains -----------------------------------------------------------

// Chain-shaped tree of `depth` nodes (indexes 0..depth-1, each node the
// sole child of the previous, count 1 at every level). Path indexes only
// need to strictly increase, so the structure is format-legal at any
// depth. Built and compared without ToString/ForEachSet — those walk the
// license-mask space and are out of scope here.
ValidationTree DeepChain(int depth) {
  ValidationTree tree;
  ValidationTreeNode* node = tree.mutable_root();
  for (int level = 0; level < depth; ++level) {
    auto child = std::make_unique<ValidationTreeNode>();
    child->index = level;
    child->count = 1;
    ValidationTreeNode* child_ptr = child.get();
    node->children.push_back(std::move(child));
    node = child_ptr;
  }
  return tree;
}

// Regression: serializer, deserializer, invariant checker and destructor
// all used to recurse once per level — a ~100k-deep chain (an adversarial
// checkpoint, or any tree deeper than the call stack) blew the stack in
// whichever of the four ran first. All four must be iterative.
TEST(TreeSerializationTest, HundredThousandDeepChainRoundTrips) {
  constexpr int kDepth = 100000;
  std::string bytes;
  {
    const ValidationTree original = DeepChain(kDepth);
    ASSERT_EQ(original.NodeCount(), static_cast<size_t>(kDepth));
    ASSERT_EQ(original.TotalCount(), kDepth);
    std::stringstream buffer;
    ASSERT_TRUE(SerializeTree(original, &buffer).ok());
    bytes = buffer.str();
  }  // `original` destroyed here — teardown must be iterative too.
  std::stringstream in(bytes);
  const Result<ValidationTree> loaded = DeserializeTree(&in);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->NodeCount(), static_cast<size_t>(kDepth));
  EXPECT_EQ(loaded->TotalCount(), kDepth);
  // Re-serializing the loaded tree reproduces the bytes exactly.
  std::stringstream again;
  ASSERT_TRUE(SerializeTree(*loaded, &again).ok());
  EXPECT_EQ(again.str(), bytes);
}

TEST(TreeSerializationTest, DeepChainMoveAssignTearsDownIteratively) {
  ValidationTree tree = DeepChain(100000);
  // Move-assign drops the old deep chain; the default member-wise
  // unique_ptr teardown would recurse per level.
  tree = DeepChain(3);
  EXPECT_EQ(tree.NodeCount(), 3u);
}

// --- Corruption matrix -----------------------------------------------------

// A flipped bit anywhere in a v2 checkpoint fails the load: header flips
// break the header CRC, payload flips the payload CRC.
TEST(TreeSerializationTest, V2EveryFlippedByteFailsTheLoad) {
  std::stringstream buffer;
  ASSERT_TRUE(SerializeTree(SampleTree(), &buffer).ok());
  const std::string bytes = buffer.str();
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string mutated = bytes;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x20);
    std::stringstream in(mutated);
    EXPECT_FALSE(DeserializeTree(&in).ok()) << "byte " << i;
  }
}

// The tree body inside a frame, and a CRC-valid frame around any body: the
// body checks must hold even when both CRCs pass.
std::string TreeBody(const ValidationTree& tree) {
  std::stringstream buffer;
  EXPECT_TRUE(SerializeTree(tree, &buffer).ok());
  const std::string framed = buffer.str();
  constexpr size_t kHeaderBytes = 28;  // Magic, version, kind, size, CRC.
  constexpr size_t kFooterBytes = 4;
  return framed.substr(kHeaderBytes,
                       framed.size() - kHeaderBytes - kFooterBytes);
}

std::string Framed(const std::string& body) {
  std::ostringstream out;
  EXPECT_TRUE(
      WriteCheckpoint(CheckpointKind::kValidationTree, body, &out).ok());
  return out.str();
}

TEST(TreeSerializationTest, RejectsMalformedBodyInsideAValidFrame) {
  const std::string body = TreeBody(SampleTree());
  std::vector<std::string> malformed;
  // Cut inside the node-count field.
  for (size_t cut = 0; cut < sizeof(uint64_t); ++cut) {
    malformed.push_back(body.substr(0, cut));
  }
  // The node count (u64 at offset 0) claims one more node than the body
  // holds: the reader must run out of declared nodes, not over-read.
  std::string overdeclared = body;
  ++overdeclared[0];
  malformed.push_back(overdeclared);
  // The root triple starts at 8; its child_count is the u32 at 8 + 4 + 8.
  // Claim far more children than declared nodes.
  std::string overrun = body;
  overrun[8 + 4 + 8] = static_cast<char>(0xff);
  malformed.push_back(overrun);
  malformed.push_back(body + "X");
  for (const std::string& bad : malformed) {
    std::stringstream in(Framed(bad));
    const Result<ValidationTree> loaded = DeserializeTree(&in);
    ASSERT_FALSE(loaded.ok()) << "body of " << bad.size() << " bytes";
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  }
}

// A file in the retired unchecksummed layout ("GLTREE1\0" then the body)
// is not a checkpoint and fails the load.
TEST(TreeSerializationTest, LegacyMagicFailsTheLoad) {
  const std::string path = TempPath(".tree");
  {
    std::ofstream out(path, std::ios::binary);
    out.write("GLTREE1\0", 8);
    out << TreeBody(SampleTree());
  }
  const Result<ValidationTree> loaded = LoadTree(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  std::remove(path.c_str());
}

// Fuzz: random byte soup and random mutations of a valid v2 document must
// never crash the loader (run under ASan/UBSan in CI).
TEST(TreeSerializationTest, FuzzedInputNeverCrashes) {
  Rng rng(testing::TestSeed(987654));
  std::stringstream clean_buffer;
  ASSERT_TRUE(SerializeTree(SampleTree(), &clean_buffer).ok());
  const std::string clean = clean_buffer.str();
  for (int trial = 0; trial < 3000; ++trial) {
    std::string bytes;
    if (trial % 2 == 0) {
      // Pure random soup, sometimes starting with a valid magic.
      const size_t size = static_cast<size_t>(rng.UniformInt(0, 200));
      bytes.resize(size);
      for (char& c : bytes) {
        c = static_cast<char>(rng.UniformInt(0, 255));
      }
      if (trial % 4 == 0 && bytes.size() >= 8) {
        bytes.replace(0, 8, clean, 0, 8);
      }
    } else {
      // Mutations of the valid document.
      bytes = clean;
      const int edits = 1 + static_cast<int>(rng.UniformInt(0, 4));
      for (int e = 0; e < edits; ++e) {
        const size_t at = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(bytes.size()) - 1));
        bytes[at] = static_cast<char>(rng.UniformInt(0, 255));
      }
    }
    std::stringstream in(bytes);
    const Result<ValidationTree> loaded = DeserializeTree(&in);
    if (loaded.ok()) {
      EXPECT_TRUE(loaded->CheckInvariants().ok());
    }
  }
}

TEST(ValidationTreeTest, ForEachSetListsExactlyMergedCounts) {
  const ValidationTree tree = SampleTree();
  std::unordered_map<LicenseSet, int64_t> sets;
  tree.ForEachSet([&sets](LicenseSet set, int64_t count) {
    sets[set] = count;
  });
  EXPECT_EQ(sets.size(), 5u);
  EXPECT_EQ(sets.at(testing::Mask(0b00011)), 840);
  EXPECT_EQ(sets.at(testing::Mask(0b10000)), 20);
  // Prefix nodes with zero count (e.g. {L1}) are not reported.
  EXPECT_EQ(sets.find(testing::Mask(0b00001)), sets.end());
}

}  // namespace
}  // namespace geolic

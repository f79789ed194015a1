// Fuzz-style robustness: all external-input parsers (license text, log
// text/binary, tree checkpoints, license blobs, authority checkpoints)
// must reject random and mutated inputs with a clean Status — never crash,
// hang, or return inconsistent objects.
#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "drm/validation_authority.h"
#include "licensing/license_parser.h"
#include "licensing/license_serialization.h"
#include "persist/checkpoint.h"
#include "test_util.h"
#include "validation/log_store.h"
#include "validation/tree_serialization.h"
#include "util/random.h"

namespace geolic {
namespace {

std::string TempPath(const std::string& suffix) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "geolic_" + info->test_suite_name() + "_" +
         info->name() + suffix;
}

std::string RandomBytes(Rng* rng, size_t size) {
  std::string bytes(size, '\0');
  for (char& c : bytes) {
    c = static_cast<char>(rng->UniformInt(0, 255));
  }
  return bytes;
}

// Random printable garbage with license-ish punctuation.
std::string RandomLicenseText(Rng* rng) {
  static constexpr char kAlphabet[] =
      "(;)=[]{},-0123456789 KPlayTRAsia\tEurope";
  std::string text;
  const size_t size = static_cast<size_t>(rng->UniformInt(0, 120));
  for (size_t i = 0; i < size; ++i) {
    text += kAlphabet[rng->UniformIndex(sizeof(kAlphabet) - 1)];
  }
  return text;
}

TEST(FuzzRobustnessTest, LicenseParserSurvivesGarbage) {
  const ConstraintSchema schema = ConstraintSchema::PaperExampleSchema();
  Rng rng(testing::TestSeed(1));
  for (int i = 0; i < 5000; ++i) {
    const std::string text = RandomLicenseText(&rng);
    const Result<License> license =
        ParseLicense(text, schema, LicenseType::kUsage, "F");
    if (license.ok()) {
      // Anything that parses must serialize back losslessly.
      const Result<License> reparsed = ParseLicense(
          license->ToString(schema), schema, LicenseType::kUsage, "F");
      EXPECT_TRUE(reparsed.ok()) << text;
    }
  }
}

TEST(FuzzRobustnessTest, LicenseParserSurvivesMutatedValidInput) {
  const ConstraintSchema schema = ConstraintSchema::PaperExampleSchema();
  const std::string valid =
      "(K; Play; T=[2009-03-10, 2009-03-20]; R={Asia, Europe}; A=2000)";
  Rng rng(testing::TestSeed(2));
  for (int i = 0; i < 5000; ++i) {
    std::string mutated = valid;
    const int mutations = static_cast<int>(rng.UniformInt(1, 4));
    for (int m = 0; m < mutations; ++m) {
      const size_t pos = rng.UniformIndex(mutated.size());
      mutated[pos] = static_cast<char>(rng.UniformInt(32, 126));
    }
    (void)ParseLicense(mutated, schema, LicenseType::kUsage, "F");
  }
}

TEST(FuzzRobustnessTest, LogTextLoaderSurvivesGarbage) {
  Rng rng(testing::TestSeed(3));
  const std::string path = TempPath(".log");
  for (int i = 0; i < 300; ++i) {
    {
      std::ofstream out(path, std::ios::binary);
      out << RandomBytes(&rng, static_cast<size_t>(rng.UniformInt(0, 400)));
    }
    (void)LogStore::LoadText(path);
  }
  std::remove(path.c_str());
}

TEST(FuzzRobustnessTest, LogBinaryLoaderSurvivesMutations) {
  LogStore store;
  Rng rng(testing::TestSeed(4));
  for (int i = 0; i < 50; ++i) {
    GEOLIC_CHECK(store
                     .Append(LogRecord{"LU" + std::to_string(i),
                                       LicenseSet::FromWord(rng.Next() | 1) & LicenseSet::Full(30),
                                       rng.UniformInt(1, 100)})
                     .ok());
  }
  const std::string path = TempPath(".bin");
  ASSERT_TRUE(store.SaveBinary(path).ok());
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();

  for (int i = 0; i < 500; ++i) {
    std::string mutated = bytes;
    const int mutations = static_cast<int>(rng.UniformInt(1, 8));
    for (int m = 0; m < mutations; ++m) {
      mutated[rng.UniformIndex(mutated.size())] =
          static_cast<char>(rng.UniformInt(0, 255));
    }
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(mutated.data(), static_cast<std::streamsize>(mutated.size()));
    }
    const Result<LogStore> loaded = LogStore::LoadBinary(path);
    if (loaded.ok()) {
      // If it loads, every record must satisfy the store invariants.
      for (const LogRecord& record : loaded->records()) {
        EXPECT_NE(record.set, testing::Mask(0));
        EXPECT_GT(record.count, 0);
      }
    }
  }
  std::remove(path.c_str());
}

TEST(FuzzRobustnessTest, TreeCheckpointLoaderSurvivesMutations) {
  ValidationTree tree;
  Rng rng(testing::TestSeed(5));
  for (int i = 0; i < 100; ++i) {
    GEOLIC_CHECK(
        tree.Insert(LicenseSet::FromWord(rng.Next() | 1) & LicenseSet::Full(25), rng.UniformInt(1, 50))
            .ok());
  }
  std::stringstream buffer;
  ASSERT_TRUE(SerializeTree(tree, &buffer).ok());
  const std::string bytes = buffer.str();

  for (int i = 0; i < 500; ++i) {
    std::string mutated = bytes;
    const int mutations = static_cast<int>(rng.UniformInt(1, 6));
    for (int m = 0; m < mutations; ++m) {
      mutated[rng.UniformIndex(mutated.size())] =
          static_cast<char>(rng.UniformInt(0, 255));
    }
    std::stringstream stream(mutated);
    const Result<ValidationTree> loaded = DeserializeTree(&stream);
    if (loaded.ok()) {
      // Any accepted tree must be structurally sound.
      EXPECT_TRUE(loaded->CheckInvariants().ok());
    }
  }
}

TEST(FuzzRobustnessTest, LicenseBlobReaderSurvivesRandomBytes) {
  Rng rng(testing::TestSeed(6));
  for (int i = 0; i < 2000; ++i) {
    std::stringstream stream(
        RandomBytes(&rng, static_cast<size_t>(rng.UniformInt(0, 200))));
    (void)ReadLicenseBinary(&stream);
  }
}

TEST(FuzzRobustnessTest, AuthorityRestoreSurvivesRandomBytes) {
  const ConstraintSchema schema = testing::IntervalSchema(1);
  Rng rng(testing::TestSeed(7));
  const std::string path = TempPath(".ckpt");
  for (int i = 0; i < 200; ++i) {
    {
      std::ofstream out(path, std::ios::binary);
      out << RandomBytes(&rng, static_cast<size_t>(rng.UniformInt(0, 300)));
    }
    ValidationAuthority authority(&schema);
    EXPECT_FALSE(authority.RestoreFull(path).ok());
    EXPECT_EQ(authority.domain_count(), 0);
  }

  // Mutations of a valid snapshot: two domains, one with a record over
  // more than 64 licenses. Bit flips and truncations of the file must
  // fail the container's checks; the same mutations of the payload,
  // re-framed with valid CRCs, reach the license and record decoders,
  // which must reject cleanly or restore a consistent state.
  const std::string resaved = TempPath(".resaved");
  ValidationAuthority original(&schema);
  for (int i = 0; i < 66; ++i) {
    LicenseBuilder builder(&schema);
    builder.SetId("A" + std::to_string(i))
        .SetContentKey(i < 65 ? "movie" : "song")
        .SetType(LicenseType::kRedistribution)
        .SetPermission(Permission::kPlay)
        .SetAggregateCount(10)
        .SetInterval("C1", 0, 100);
    ASSERT_TRUE(original.RegisterRedistribution(*builder.Build()).ok());
  }
  for (const char* content : {"movie", "song"}) {
    LicenseBuilder builder(&schema);
    builder.SetId(std::string("U-") + content)
        .SetContentKey(content)
        .SetType(LicenseType::kUsage)
        .SetPermission(Permission::kPlay)
        .SetAggregateCount(5)
        .SetInterval("C1", 10, 20);
    ASSERT_TRUE(original.ValidateIssue(*builder.Build())->accepted());
  }
  ASSERT_TRUE(original.CheckpointFull(path).ok());
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  const Result<std::string> payload =
      ReadCheckpointFile(CheckpointKind::kAuthoritySnapshot, path);
  ASSERT_TRUE(payload.ok());

  const auto mutate = [&rng](std::string text) {
    if (rng.Bernoulli(0.3)) {
      text.resize(rng.UniformIndex(text.size()));
      return text;
    }
    const int flips = static_cast<int>(rng.UniformInt(1, 4));
    for (int f = 0; f < flips; ++f) {
      text[rng.UniformIndex(text.size())] ^=
          static_cast<char>(1 << rng.UniformInt(0, 7));
    }
    return text;
  };
  for (int i = 0; i < 500; ++i) {
    const bool reframe = i % 2 == 1;
    if (reframe) {
      ASSERT_TRUE(WriteCheckpointFile(CheckpointKind::kAuthoritySnapshot,
                                      mutate(*payload), path)
                      .ok());
    } else {
      const std::string mutated = mutate(bytes);
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(mutated.data(), static_cast<std::streamsize>(mutated.size()));
    }
    ValidationAuthority authority(&schema);
    const Status restored = authority.RestoreFull(path);
    if (!reframe) {
      EXPECT_FALSE(restored.ok()) << "mutation " << i;
    }
    if (!restored.ok()) {
      EXPECT_EQ(authority.domain_count(), 0) << "mutation " << i;
      continue;
    }
    // Whatever restores is consistent: every record lies in its domain's
    // catalog, and the state snapshots and restores again.
    for (const ValidationAuthority::ContentKey& key : authority.Keys()) {
      const LicenseSet all = (*authority.LicensesFor(key))->AllMask();
      const Result<LogStore> log = authority.LogFor(key);
      ASSERT_TRUE(log.ok());
      for (const LogRecord& record : log->records()) {
        EXPECT_TRUE(!record.set.Empty() && record.set.IsSubsetOf(all))
            << "mutation " << i;
      }
    }
    ASSERT_TRUE(authority.CheckpointFull(resaved).ok()) << "mutation " << i;
    ValidationAuthority again(&schema);
    EXPECT_TRUE(again.RestoreFull(resaved).ok()) << "mutation " << i;
    EXPECT_EQ(again.domain_count(), authority.domain_count())
        << "mutation " << i;
  }
  std::remove(path.c_str());
  std::remove(resaved.c_str());
}

}  // namespace
}  // namespace geolic

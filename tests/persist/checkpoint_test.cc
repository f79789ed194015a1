#include "persist/checkpoint.h"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "test_util.h"

namespace geolic {
namespace {

std::string Framed(CheckpointKind kind, const std::string& payload) {
  std::ostringstream out;
  EXPECT_TRUE(WriteCheckpoint(kind, payload, &out).ok());
  return out.str();
}

TEST(CheckpointTest, RoundTrip) {
  const std::string payload = "log bytes go here";
  const std::string framed = Framed(CheckpointKind::kLogStore, payload);
  std::istringstream in(framed);
  const Result<std::string> read =
      ReadCheckpointPayload(CheckpointKind::kLogStore, &in);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, payload);
}

TEST(CheckpointTest, EmptyPayloadRoundTrips) {
  const std::string framed = Framed(CheckpointKind::kLogStore, "");
  std::istringstream in(framed);
  const Result<std::string> read =
      ReadCheckpointPayload(CheckpointKind::kLogStore, &in);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->empty());
}

TEST(CheckpointTest, RejectsWrongKind) {
  const std::string framed = Framed(CheckpointKind::kServiceSnapshot, "abc");
  std::istringstream in(framed);
  const Result<std::string> read =
      ReadCheckpointPayload(CheckpointKind::kLogStore, &in);
  ASSERT_FALSE(read.ok());
  EXPECT_NE(read.status().message().find("kind"), std::string::npos)
      << read.status().message();
}

TEST(CheckpointTest, EveryFlippedBitFailsTheRead) {
  const std::string framed =
      Framed(CheckpointKind::kServiceSnapshot, "payload under test");
  for (size_t i = 0; i < framed.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = framed;
      mutated[i] = static_cast<char>(mutated[i] ^ (1 << bit));
      std::istringstream in(mutated);
      const Result<std::string> read =
          ReadCheckpointPayload(CheckpointKind::kServiceSnapshot, &in);
      EXPECT_FALSE(read.ok()) << "byte " << i << " bit " << bit
                              << " slipped through";
    }
  }
}

TEST(CheckpointTest, EveryTruncationFailsTheRead) {
  const std::string framed = Framed(CheckpointKind::kLogStore, "0123456789");
  for (size_t keep = 0; keep < framed.size(); ++keep) {
    std::istringstream in(framed.substr(0, keep));
    const Result<std::string> read =
        ReadCheckpointPayload(CheckpointKind::kLogStore, &in);
    EXPECT_FALSE(read.ok()) << "kept " << keep << " of " << framed.size();
  }
}

TEST(CheckpointTest, TrailingGarbageIsLeftInTheStream) {
  // The container frames exactly one payload; callers embedding several
  // sections read them in sequence. Bytes after the footer stay unread.
  const std::string framed = Framed(CheckpointKind::kLogStore, "abc");
  std::istringstream in(framed + "XYZ");
  const Result<std::string> read =
      ReadCheckpointPayload(CheckpointKind::kLogStore, &in);
  ASSERT_TRUE(read.ok());
  std::string rest;
  in >> rest;
  EXPECT_EQ(rest, "XYZ");
}

TEST(CheckpointTest, OverdeclaredPayloadSizeFailsBeforeAllocation) {
  // A header whose declared size vastly exceeds the actual bytes must fail
  // the header CRC (any size edit does) — and even a correctly-CRC'd huge
  // header fails on the chunked read, never a 2^40-byte allocation.
  std::string framed = Framed(CheckpointKind::kLogStore, "tiny");
  // payload_size lives at offset 16..23; bump its high byte.
  framed[22] = static_cast<char>(0x10);
  std::istringstream in(framed);
  const Result<std::string> read =
      ReadCheckpointPayload(CheckpointKind::kLogStore, &in);
  ASSERT_FALSE(read.ok());
}

TEST(CheckpointTest, FileRoundTrip) {
  const testing::ScopedTempPath file("checkpoint_test.gck");
  const std::string& path = file.path();
  ASSERT_TRUE(
      WriteCheckpointFile(CheckpointKind::kLogStore, "file payload", path)
          .ok());
  const Result<std::string> read =
      ReadCheckpointFile(CheckpointKind::kLogStore, path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "file payload");
}

TEST(CheckpointTest, FileWithBytesAfterTheFooterFailsTheRead) {
  // A checkpoint file holds exactly one frame, so an appended byte is
  // damage: the read fails and names the file.
  const testing::ScopedTempPath file("checkpoint_trailing.gck");
  const std::string& path = file.path();
  {
    std::ofstream out(path, std::ios::binary);
    out << Framed(CheckpointKind::kLogStore, "file payload") << 'X';
  }
  const Result<std::string> read =
      ReadCheckpointFile(CheckpointKind::kLogStore, path);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kParseError);
  EXPECT_NE(read.status().message().find(path), std::string::npos)
      << read.status().message();
}

TEST(CheckpointTest, DurableFileWritePublishesAtomically) {
  const testing::ScopedTempPath file("checkpoint_durable.gck");
  const std::string& path = file.path();
  ASSERT_TRUE(WriteCheckpointFileDurable(CheckpointKind::kTenantSnapshot,
                                         "generation one", path)
                  .ok());
  Result<std::string> read =
      ReadCheckpointFile(CheckpointKind::kTenantSnapshot, path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "generation one");
  // The rename consumed the temp file — nothing left to confuse a reused
  // directory.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  // Overwrite: the new generation replaces the old in one rename.
  ASSERT_TRUE(WriteCheckpointFileDurable(CheckpointKind::kTenantSnapshot,
                                         "generation two", path)
                  .ok());
  read = ReadCheckpointFile(CheckpointKind::kTenantSnapshot, path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "generation two");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(CheckpointTest, DurableFileWriteNeverReserves) {
  // A checkpoint is written whole and synced once, so PosixSyncFile never
  // reserves space ahead for it (that starts only with an append after a
  // sync, i.e. a log): the published file is exactly the framed bytes.
  const testing::ScopedTempPath file("checkpoint_exact.gck");
  const std::string& path = file.path();
  const std::string payload(70000, 'p');  // Past one 64 KiB step.
  ASSERT_TRUE(WriteCheckpointFileDurable(CheckpointKind::kTenantSnapshot,
                                         payload, path)
                  .ok());
  const std::string framed = Framed(CheckpointKind::kTenantSnapshot, payload);
  EXPECT_EQ(std::filesystem::file_size(path), framed.size());
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  EXPECT_EQ(bytes.str(), framed);
}

TEST(CheckpointTest, DurableFileWriteIgnoresStaleTemp) {
  // A crash between the temp write and the rename leaves `path.tmp`
  // behind; the next durable write must truncate it and publish cleanly.
  const testing::ScopedTempPath file("checkpoint_stale.gck");
  const std::string& path = file.path();
  {
    std::ofstream stale(path + ".tmp", std::ios::binary);
    stale << "torn earlier generation";
  }
  ASSERT_TRUE(WriteCheckpointFileDurable(CheckpointKind::kTenantSnapshot,
                                         "fresh", path)
                  .ok());
  const Result<std::string> read =
      ReadCheckpointFile(CheckpointKind::kTenantSnapshot, path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "fresh");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(CheckpointTest, KindNames) {
  EXPECT_STREQ(CheckpointKindName(CheckpointKind::kLogStore), "log-store");
  EXPECT_STREQ(CheckpointKindName(CheckpointKind::kServiceSnapshot),
               "service-snapshot");
  EXPECT_STREQ(CheckpointKindName(CheckpointKind::kTenantSnapshot),
               "tenant-snapshot");
}

// Kind 1 held a validation-tree body and kind 5 a drm authority snapshot;
// neither is written any more. Every reader refuses a frame of either, and
// its message names what the frame holds.
TEST(CheckpointTest, RetiredKindsAreRefused) {
  const struct {
    uint32_t kind;
    const char* name;
  } retired[] = {{1, "unknown"}, {5, "retired authority-snapshot"}};
  for (const auto& [number, name] : retired) {
    const auto retired_kind = static_cast<CheckpointKind>(number);
    EXPECT_STREQ(CheckpointKindName(retired_kind), name);
    const std::string framed = Framed(retired_kind, "retired bytes");
    for (const CheckpointKind kind :
         {CheckpointKind::kLogStore, CheckpointKind::kServiceSnapshot,
          CheckpointKind::kTenantSnapshot}) {
      std::istringstream in(framed);
      const Result<std::string> read = ReadCheckpointPayload(kind, &in);
      ASSERT_FALSE(read.ok());
      EXPECT_NE(read.status().message().find(std::string("file holds ") +
                                             name),
                std::string::npos)
          << read.status().message();
    }
  }
}

}  // namespace
}  // namespace geolic

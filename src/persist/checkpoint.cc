#include "persist/checkpoint.h"

#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "persist/sync_file.h"
#include "util/crc32c.h"

namespace geolic {
namespace {

// Header bytes covered by the header CRC: magic + version + kind + size.
constexpr size_t kCoveredHeaderBytes = 8 + 4 + 4 + 8;

// Sanity bound mirroring the library's scale (a 2^32-node tree is already
// rejected downstream); also caps what a corrupt-but-CRC-colliding size
// field could make us allocate.
constexpr uint64_t kMaxPayloadBytes = uint64_t{1} << 33;

void PutU32(std::string* out, uint32_t value) {
  char bytes[4];
  std::memcpy(bytes, &value, sizeof(value));
  out->append(bytes, sizeof(bytes));
}

void PutU64(std::string* out, uint64_t value) {
  char bytes[8];
  std::memcpy(bytes, &value, sizeof(value));
  out->append(bytes, sizeof(bytes));
}

}  // namespace

const char* CheckpointKindName(CheckpointKind kind) {
  switch (kind) {
    case CheckpointKind::kLogStore:
      return "log-store";
    case CheckpointKind::kServiceSnapshot:
      return "service-snapshot";
    case CheckpointKind::kTenantSnapshot:
      return "tenant-snapshot";
  }
  if (static_cast<uint32_t>(kind) == 5) {
    return "retired authority-snapshot";
  }
  return "unknown";
}

Status WriteCheckpoint(CheckpointKind kind, std::string_view payload,
                       std::ostream* out) {
  std::string header(kCheckpointMagic, sizeof(kCheckpointMagic));
  PutU32(&header, kCheckpointVersion);
  PutU32(&header, static_cast<uint32_t>(kind));
  PutU64(&header, payload.size());
  PutU32(&header, Crc32c(header));
  out->write(header.data(), static_cast<std::streamsize>(header.size()));
  out->write(payload.data(), static_cast<std::streamsize>(payload.size()));
  const uint32_t payload_crc = Crc32c(payload);
  out->write(reinterpret_cast<const char*>(&payload_crc),
             sizeof(payload_crc));
  if (!*out) {
    return Status::IoError("checkpoint write failed");
  }
  return Status::Ok();
}

Result<std::string> ReadCheckpointPayload(CheckpointKind expected_kind,
                                          std::istream* in) {
  char magic[sizeof(kCheckpointMagic)];
  in->read(magic, sizeof(magic));
  if (!*in ||
      std::memcmp(magic, kCheckpointMagic, sizeof(kCheckpointMagic)) != 0) {
    return Status::ParseError("not a geolic v2 checkpoint (bad magic)");
  }
  char rest[kCoveredHeaderBytes - sizeof(kCheckpointMagic)];
  uint32_t header_crc = 0;
  in->read(rest, sizeof(rest));
  in->read(reinterpret_cast<char*>(&header_crc), sizeof(header_crc));
  if (!*in) {
    return Status::ParseError("truncated checkpoint header");
  }
  uint32_t computed = Crc32cExtend(0, kCheckpointMagic,
                                   sizeof(kCheckpointMagic));
  computed = Crc32cExtend(computed, rest, sizeof(rest));
  if (computed != header_crc) {
    return Status::ParseError(
        "checkpoint header crc mismatch (header at offset 0)");
  }
  uint32_t version = 0;
  uint32_t kind = 0;
  uint64_t payload_size = 0;
  std::memcpy(&version, rest, sizeof(version));
  std::memcpy(&kind, rest + 4, sizeof(kind));
  std::memcpy(&payload_size, rest + 8, sizeof(payload_size));
  if (version != kCheckpointVersion) {
    return Status::ParseError("unsupported checkpoint version " +
                              std::to_string(version));
  }
  if (kind != static_cast<uint32_t>(expected_kind)) {
    return Status::ParseError(
        std::string("checkpoint kind mismatch: want ") +
        CheckpointKindName(expected_kind) + ", file holds " +
        CheckpointKindName(static_cast<CheckpointKind>(kind)));
  }
  if (payload_size > kMaxPayloadBytes) {
    return Status::ParseError("implausible checkpoint payload size");
  }
  // Chunked read: a truncated file fails fast instead of first reserving
  // the full declared size.
  std::string payload;
  uint64_t remaining = payload_size;
  while (remaining > 0) {
    const uint64_t chunk = remaining < (1u << 20) ? remaining : (1u << 20);
    const size_t old_size = payload.size();
    payload.resize(old_size + chunk);
    in->read(payload.data() + old_size, static_cast<std::streamsize>(chunk));
    if (!*in) {
      return Status::ParseError("truncated checkpoint payload");
    }
    remaining -= chunk;
  }
  uint32_t payload_crc = 0;
  in->read(reinterpret_cast<char*>(&payload_crc), sizeof(payload_crc));
  if (!*in) {
    return Status::ParseError("truncated checkpoint footer");
  }
  if (Crc32c(payload) != payload_crc) {
    return Status::ParseError(
        "checkpoint payload crc mismatch (payload at offset " +
        std::to_string(kCoveredHeaderBytes + sizeof(uint32_t)) + ")");
  }
  return payload;
}

Status WriteCheckpointFile(CheckpointKind kind, std::string_view payload,
                           const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return Status::IoError("cannot open for writing: " + path);
  }
  return WriteCheckpoint(kind, payload, &out);
}

Status PublishCheckpointFile(CheckpointKind kind, std::string_view payload,
                             const std::string& path) {
  std::ostringstream framed;
  GEOLIC_RETURN_IF_ERROR(WriteCheckpoint(kind, payload, &framed));
  const std::string bytes = framed.str();

  const std::string tmp_path = path + ".tmp";
  GEOLIC_ASSIGN_OR_RETURN(std::unique_ptr<PosixSyncFile> tmp,
                          PosixSyncFile::CreateTemp(tmp_path));
  Status written = tmp->Append(bytes);
  if (written.ok()) {
    written = tmp->Sync();
  }
  const Status closed = tmp->Close();
  if (written.ok() && !closed.ok()) {
    written = closed;
  }
  if (!written.ok()) {
    ::unlink(tmp_path.c_str());  // Best-effort; the target is untouched.
    return written;
  }

  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    const std::string reason = std::strerror(errno);
    ::unlink(tmp_path.c_str());
    return Status::IoError("rename " + tmp_path + " -> " + path +
                           " failed: " + reason);
  }
  return Status::Ok();
}

Status WriteCheckpointFileDurable(CheckpointKind kind,
                                  std::string_view payload,
                                  const std::string& path) {
  GEOLIC_RETURN_IF_ERROR(PublishCheckpointFile(kind, payload, path));
  // Durability of the rename itself: fsync the containing directory.
  return SyncParentDirectory(path);
}

Result<std::string> ReadCheckpointFile(CheckpointKind expected_kind,
                                       const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IoError("cannot open for reading: " + path);
  }
  GEOLIC_ASSIGN_OR_RETURN(std::string payload,
                          ReadCheckpointPayload(expected_kind, &in));
  if (in.peek() != std::ifstream::traits_type::eof()) {
    return Status::ParseError("trailing bytes after checkpoint footer: " +
                              path);
  }
  return payload;
}

}  // namespace geolic

#ifndef GEOLIC_PERSIST_CHECKPOINT_H_
#define GEOLIC_PERSIST_CHECKPOINT_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "util/status.h"

namespace geolic {

// Checkpoint container format v2 — the CRC-protected envelope every geolic
// snapshot (log store, service snapshot, tenant spill) is written in, so a
// flipped bit fails the load instead of silently changing a count. A
// checkpoint file holds exactly one frame.
//
// Layout (little-endian):
//   header  : magic "GLCKPT2\0" (8) | version u32 | kind u32 |
//             payload_size u64 | header_crc u32 (CRC32C of the preceding
//             24 header bytes)
//   payload : payload_size bytes (kind-specific)
//   footer  : payload_crc u32 (CRC32C of the payload)
//
// A reader verifies the header CRC before trusting payload_size (a mutated
// size must not drive a giant allocation or a bogus torn-tail diagnosis)
// and the payload CRC before handing the payload to the kind's parser.

inline constexpr char kCheckpointMagic[8] =
    {'G', 'L', 'C', 'K', 'P', 'T', '2', '\0'};
inline constexpr uint32_t kCheckpointVersion = 2;

// What the payload contains; mismatches fail the read.
// Kinds 1 (a validation-tree body) and 5 (a drm authority snapshot) are no
// longer written and stay reserved: kind 1 reads as unknown, kind 5 as the
// retired authority snapshot.
enum class CheckpointKind : uint32_t {
  kLogStore = 2,         // validation/log_store.h record table.
  kServiceSnapshot = 3,  // service/issuance_service.h checkpoint.
  kTenantSnapshot = 4,   // catalog/catalog_service.h per-tenant spill.
};

const char* CheckpointKindName(CheckpointKind kind);

// Writes one framed checkpoint to `out`.
Status WriteCheckpoint(CheckpointKind kind, std::string_view payload,
                       std::ostream* out);

// Reads a framed checkpoint, verifying magic, version, kind and both CRCs.
// Bytes after the footer are left in the stream.
Result<std::string> ReadCheckpointPayload(CheckpointKind expected_kind,
                                          std::istream* in);

// Atomic publish: writes the framed checkpoint to `path + ".tmp"`, syncs
// it, and renames it over `path`. After a crash at any point either the
// previous file or the complete new one is found — never a torn mix —
// but the rename itself is durable only once the parent directory is
// synced (SyncParentDirectory, persist/sync_file.h): one directory sync
// covers every rename in it before the sync. Callers must serialize
// concurrent writes to the same `path` (the temp name is derived from it).
Status PublishCheckpointFile(CheckpointKind kind, std::string_view payload,
                             const std::string& path);

// Crash-safe publish: PublishCheckpointFile, then a sync of the parent
// directory, so the new file survives power loss. Every checkpoint file
// is written this way, except catalog spills, which publish and then sync
// their directory once for a whole batch of renames.
Status WriteCheckpointFileDurable(CheckpointKind kind,
                                  std::string_view payload,
                                  const std::string& path);

// Reads the file's one frame, as ReadCheckpointPayload; any byte after the
// footer is a ParseError.
Result<std::string> ReadCheckpointFile(CheckpointKind expected_kind,
                                       const std::string& path);

}  // namespace geolic

#endif  // GEOLIC_PERSIST_CHECKPOINT_H_

#ifndef GEOLIC_PERSIST_JOURNAL_H_
#define GEOLIC_PERSIST_JOURNAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "licensing/license.h"
#include "obs/trace.h"
#include "persist/sync_file.h"
#include "validation/log_record.h"
#include "util/status.h"

namespace geolic {

// Crash-safe append-only op journal.
//
// The paper's offline aggregate validation assumes the issuance log
// survives intact between online admission and the periodic audit — a
// distributor that loses or silently corrupts records can overissue past
// A[S] undetected. The journal is the write-ahead side of that guarantee:
// IssuanceService journals every accepted issuance and every applied
// reconfiguration before its state changes, and nothing else; the
// multi-tenant catalog's tenants journal at that same point, into the
// catalog's one journal. Every frame is an op that succeeded.
//
// One op vocabulary: issue (the issued license), acquire (the acquired
// license), revoke (the revoked license's id) and expire (dimension and
// cutoff). Recovery re-executes the ops, so the live admission and
// reconfiguration paths are the only code that derives state from them.
//
// File layout (little-endian):
//   magic "GLJRNL2\0" (8 bytes, durable with the first sync), then frames:
//     payload_len u32 | seq u64 | synced_seq u64 | header_crc u32 (CRC32C
//     of the 20 preceding bytes) | payload_crc u32 (CRC32C of the payload)
//     | payload
//   payload: 0 u64 | tag u32 | header | op u8 | op body, with two headers:
//     tag 0x80000005 service op: no header (one IssuanceService's journal)
//     tag 0x80000004 tenant op:  tenant_id u64 | tenant_seq u64 (the
//                    multi-tenant catalog's journal; tenant_seq is the
//                    tenant's own contiguous op counter, 1, 2, ...)
//   op 1 issue / 2 acquire: one license in license_serialization.h binary
//   form; op 3 revoke: id_len u32 | id bytes; op 4 expire: dim u32 |
//   cutoff i64.
// Any other payload fails the read: in particular the record and
// reconfiguration frames of the older service journal (a leading set
// word, wide-set tags 2..16, tags 0x80000001..3), which name their byte
// offset like any malformed frame (docs/FORMATS.md).
//
// synced_seq is the witness: the sequence through which the writer had
// completed a sync when it framed this frame (0 before any). Every append
// syncs before it returns, so frame k + 1 witnesses frame k, and a frame
// that witnesses seq s proves every frame up to s was acknowledged durable.
//
// Recovery semantics (JournalReader). A strict prefix of the magic, the
// empty file included, is a journal a crash left before its first sync:
// it replays as no frames (torn_tail is not set), as a cut replays the
// whole frames inside it. Any other short image or bad magic fails.
// Past the magic, a log on a PosixSyncFile writes in place ahead of a
// reserved zero tail (persist/sync_file.h), so the file size does not say
// where the writer stopped. The reader picks its rules from the image:
//  * Strict rules — a closed journal, or any image that is not a whole
//    number of kReserveStepBytes ending in kReservedZeroTailBytes of
//    zeros. A frame whose bytes end at EOF before completing (torn write /
//    truncated tail) is dropped and reported via `torn_tail`: its append
//    never returned OK. Any other bad frame fails loudly.
//  * Crash rules — an image of a whole number of kReserveStepBytes ending
//    in at least kReservedZeroTailBytes of zeros, i.e. a log that was
//    never closed. Parsing stops at the zero tail. The first frame that
//    fails its CRCs or runs past EOF is a torn tail (pages of the write
//    whose sync the crash interrupted, which never reached the disk, read
//    as zeros) unless some later intact frame witnesses it as synced; then
//    it is corruption and fails loudly. Anything after a torn tail is
//    dropped with it. Only the final frame has no later frame to witness
//    it, so media damage to a crashed journal's last acknowledged frame
//    reads as a torn tail: the residual docs/FORMATS.md states.
//  Under both rules the loud failures name the bad frame's byte offset: a
//  CRC mismatch (the header CRC means a flipped length field cannot
//  masquerade as a torn tail), a witness ahead of its own frame, a
//  duplicate or out-of-order sequence number, a gap, or a malformed
//  record. Never a silently wrong replay: every surviving entry was
//  written exactly once, in order.

inline constexpr char kJournalMagic[8] =
    {'G', 'L', 'J', 'R', 'N', 'L', '2', '\0'};

// The journal's op vocabulary.
enum class OpKind : uint8_t {
  kIssue = 1,    // TryIssue of the carried license.
  kAcquire = 2,  // AcquireLicense of the carried license.
  kRevoke = 3,   // RevokeLicenseById.
  kExpire = 4,   // ExpireDimensionBelow.
};

// One op as the writer encodes it, borrowed from the caller: journaling
// an issue copies no license.
struct OpRef {
  static OpRef Issue(const License& issued) {
    return {OpKind::kIssue, &issued, {}, 0, 0};
  }
  static OpRef Acquire(const License& acquired) {
    return {OpKind::kAcquire, &acquired, {}, 0, 0};
  }
  static OpRef Revoke(std::string_view id) {
    return {OpKind::kRevoke, nullptr, id, 0, 0};
  }
  static OpRef Expire(int dim, int64_t cutoff) {
    return {OpKind::kExpire, nullptr, {}, dim, cutoff};
  }

  OpKind kind = OpKind::kIssue;
  const License* license = nullptr;  // kIssue / kAcquire.
  std::string_view revoke_id;        // kRevoke.
  int expire_dim = 0;                // kExpire.
  int64_t expire_cutoff = 0;         // kExpire.
};

// One op as the reader decodes it.
struct JournalOp {
  OpKind kind = OpKind::kIssue;
  License license;        // kIssue / kAcquire.
  std::string revoke_id;  // kRevoke.
  int expire_dim = 0;     // kExpire.
  int64_t expire_cutoff = 0;  // kExpire.
};

// Appends framed ops through a SyncFile. Not thread-safe — its owner
// serializes appends behind its own lock.
class JournalWriter {
 public:
  // Takes ownership of `file` and appends the 8-byte magic without
  // syncing it: the first append's sync makes the magic durable with its
  // frame (on a PosixSyncFile, the file's name too).
  static Result<std::unique_ptr<JournalWriter>> Create(
      std::unique_ptr<SyncFile> file);

  // Convenience: creates (truncating) `path` via PosixSyncFile.
  static Result<std::unique_ptr<JournalWriter>> Open(const std::string& path);

  // Frames and appends `op` under `seq` with the service header — `seq`
  // is the caller's strictly increasing sequence counter (the reader
  // rejects gaps, duplicates and reordering) — and syncs the file. OK
  // means the frame is durable: one completed Sync covers it. After any
  // I/O error the writer is poisoned and every further append fails.
  Status AppendOp(uint64_t seq, const OpRef& op);

  // The same op under the tenant header: one multi-tenant catalog op,
  // multiplexed onto this writer. `tenant_seq` is the tenant's own
  // contiguous counter (from 1).
  Status AppendTenantOp(uint64_t seq, uint64_t tenant_id, uint64_t tenant_seq,
                        const OpRef& op);

  // Closes the file; every frame is already durable. Idempotent; every
  // later append fails. A Close after an I/O error (poisoned writer) fails
  // loudly instead of pretending durability.
  Status Close();

  // Best-effort Close() when the caller did not, unless the writer is
  // poisoned: a cleanly destroyed journal is truncated to its frames. A
  // destructor cannot report, so code that needs the outcome calls
  // Close() itself.
  ~JournalWriter();

  // Frames an OK append made durable: a frame whose append or sync failed
  // is not counted.
  uint64_t frames_appended() const { return frames_appended_; }

  // True once an I/O error has poisoned the writer: every further append
  // fails and Close refuses to pretend durability. Callers that must not
  // keep serving past a dead journal (the catalog) check this to
  // fail-stop instead of limping per-op.
  bool poisoned() const { return poisoned_; }

  // Optional span sink: every append's fsync records a kJournalFsync span.
  // Must outlive the writer.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  // The underlying file — for tests that inspect or fault the "disk".
  SyncFile* file() { return file_.get(); }

 private:
  explicit JournalWriter(std::unique_ptr<SyncFile> file)
      : file_(std::move(file)) {}

  // Fills in the header of `frame` (28 bytes of room, then the payload)
  // for `seq`, appends it and syncs it.
  Status AppendFrame(uint64_t seq, std::string* frame);

  std::unique_ptr<SyncFile> file_;
  Tracer* tracer_ = nullptr;
  uint64_t frames_appended_ = 0;
  uint64_t synced_seq_ = 0;  // Witness: last frame a sync covered.
  bool poisoned_ = false;
  bool closed_ = false;
};

// Which header a replayed frame carried.
enum class JournalEntryKind : uint8_t {
  kServiceOp,
  kTenantOp,
};

// One replayed frame.
struct JournalEntry {
  uint64_t seq = 0;
  JournalEntryKind kind = JournalEntryKind::kServiceOp;
  uint64_t tenant_id = 0;   // kTenantOp.
  uint64_t tenant_seq = 0;  // kTenantOp.
  JournalOp op;
};

// Result of scanning a journal.
struct JournalReplay {
  std::vector<JournalEntry> entries;  // In sequence order, contiguous.
  // True when the journal ends in an incomplete frame (or, under the crash
  // rules, a frame no later frame witnesses as synced). Its bytes and
  // everything after them are dropped: they can only belong to the append
  // whose sync a crash interrupted, which was never acknowledged.
  bool torn_tail = false;
  uint64_t torn_tail_offset = 0;  // Byte offset of the incomplete frame.
};

class JournalReader {
 public:
  // Parses journal bytes. Non-OK on any corruption that is not a clean
  // torn tail; the message names the bad frame's byte offset.
  static Result<JournalReplay> Parse(std::string_view bytes);

  // Reads `path` whole, reserved zero tail included, and parses it.
  static Result<JournalReplay> ReadFile(const std::string& path);
};

// The record encoding of the service state payload's record table and the
// log store: appends set/count/id to `out`, and the matching decoder
// advancing `*pos`.
void EncodeLogRecord(const LogRecord& record, std::string* out);
Status DecodeLogRecord(std::string_view bytes, size_t* pos,
                       LogRecord* record);

}  // namespace geolic

#endif  // GEOLIC_PERSIST_JOURNAL_H_

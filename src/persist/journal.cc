#include "persist/journal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "licensing/license_serialization.h"
#include "persist/framing.h"
#include "util/crc32c.h"

namespace geolic {

using framing::GetScalar;
using framing::PutScalar;

namespace {

// len, seq, witness, header crc, payload crc.
constexpr size_t kFrameHeaderBytes = 4 + 8 + 8 + 4 + 4;
constexpr size_t kHeaderCrcCovers = 4 + 8 + 8;
// Writer-side ids are capped like the log store's loader; with the header
// CRC verified, any larger length is corruption, not a real frame.
constexpr uint32_t kMaxIdBytes = 4096;
// Issue and acquire frames embed a serialized license (ids, content key,
// per-dimension ranges); 64 KiB bounds every writer-produced payload with
// room to spare while still rejecting corrupt lengths early.
constexpr uint32_t kMaxPayloadBytes = 64 * 1024;

// Every payload opens with a zero word and a tag naming its header (see
// the format comment in journal.h).
constexpr uint32_t kTenantTag = 0x80000004u;
constexpr uint32_t kServiceTag = 0x80000005u;

// Overwrites the bytes of `value` at `offset` of `out`.
template <typename T>
void StoreAt(std::string* out, size_t offset, T value) {
  std::memcpy(out->data() + offset, &value, sizeof(T));
}

Status FrameError(uint64_t offset, const std::string& what) {
  return Status::ParseError("journal frame at offset " +
                            std::to_string(offset) + ": " + what);
}

}  // namespace

void EncodeLogRecord(const LogRecord& record, std::string* out) {
  // v3 set encoding, byte-identical to v2 for inline (single-word) sets:
  // a record's set is never empty, so the u64 value 0 never occurs as a
  // valid v2 set word — it doubles as the wide-set escape, followed by an
  // explicit word count and the little-endian word span.
  if (record.set.WordCount() == 1) {
    PutScalar(out, record.set.AsWord());
  } else {
    PutScalar(out, uint64_t{0});
    PutScalar(out, static_cast<uint32_t>(record.set.WordCount()));
    for (int w = 0; w < record.set.WordCount(); ++w) {
      PutScalar(out, record.set.Word(w));
    }
  }
  PutScalar(out, record.count);
  PutScalar(out, static_cast<uint32_t>(record.issued_license_id.size()));
  out->append(record.issued_license_id);
}

Status DecodeLogRecord(std::string_view bytes, size_t* pos,
                       LogRecord* record) {
  uint64_t first_word = 0;
  if (!GetScalar(bytes, pos, &first_word)) {
    return Status::ParseError("record fields truncated");
  }
  if (first_word != 0) {
    record->set = LicenseSet::FromWord(first_word);
  } else {
    // Wide-set escape (see EncodeLogRecord). The decoded set must be
    // canonical — a trailing zero word or a width of 1 would make encode ∘
    // decode non-idempotent, so both are corruption.
    uint32_t word_count = 0;
    if (!GetScalar(bytes, pos, &word_count)) {
      return Status::ParseError("record fields truncated");
    }
    if (word_count < 2 ||
        word_count > static_cast<uint32_t>(kMaxLicenseWords)) {
      return Status::ParseError("implausible set word count");
    }
    uint64_t words[kMaxLicenseWords];
    for (uint32_t w = 0; w < word_count; ++w) {
      if (!GetScalar(bytes, pos, &words[w])) {
        return Status::ParseError("record fields truncated");
      }
    }
    if (words[word_count - 1] == 0) {
      return Status::ParseError("non-canonical wide set");
    }
    record->set = LicenseSet::FromWords({words, word_count});
  }
  uint32_t id_len = 0;
  if (!GetScalar(bytes, pos, &record->count) ||
      !GetScalar(bytes, pos, &id_len)) {
    return Status::ParseError("record fields truncated");
  }
  if (id_len > kMaxIdBytes || bytes.size() - *pos < id_len) {
    return Status::ParseError("implausible record id length");
  }
  record->issued_license_id.assign(bytes.data() + *pos, id_len);
  *pos += id_len;
  if (record->set.Empty()) {
    return Status::ParseError("record set is empty");
  }
  if (record->count <= 0) {
    return Status::ParseError("record count is not positive");
  }
  return Status::Ok();
}

namespace {

// The one op encoder: appends `op u8 | op body` to `out`.
Status EncodeOp(const OpRef& op, std::string* out) {
  PutScalar(out, static_cast<uint8_t>(op.kind));
  switch (op.kind) {
    case OpKind::kIssue:
    case OpKind::kAcquire:
      if (op.license == nullptr) {
        return Status::InvalidArgument("issue/acquire op needs a license");
      }
      AppendLicenseBinary(*op.license, out);
      return Status::Ok();
    case OpKind::kRevoke:
      PutScalar(out, static_cast<uint32_t>(op.revoke_id.size()));
      out->append(op.revoke_id);
      return Status::Ok();
    case OpKind::kExpire:
      if (op.expire_dim < 0) {
        return Status::InvalidArgument(
            "expire dimension must be non-negative");
      }
      PutScalar(out, static_cast<uint32_t>(op.expire_dim));
      PutScalar(out, op.expire_cutoff);
      return Status::Ok();
  }
  return Status::InvalidArgument("unknown op kind");
}

// The one op decoder: reads `op u8 | op body` from `pos` to the end of
// `payload`.
Status DecodeOp(std::string_view payload, size_t pos, JournalOp* op) {
  uint8_t kind = 0;
  if (!GetScalar(payload, &pos, &kind)) {
    return Status::ParseError("op fields truncated");
  }
  op->kind = static_cast<OpKind>(kind);
  switch (op->kind) {
    case OpKind::kIssue:
    case OpKind::kAcquire: {
      GEOLIC_ASSIGN_OR_RETURN(op->license, ReadLicenseBinary(payload, &pos));
      break;
    }
    case OpKind::kRevoke: {
      uint32_t id_len = 0;
      if (!GetScalar(payload, &pos, &id_len)) {
        return Status::ParseError("op fields truncated");
      }
      if (id_len > kMaxIdBytes || payload.size() - pos < id_len) {
        return Status::ParseError("implausible revoke id length");
      }
      op->revoke_id.assign(payload.data() + pos, id_len);
      pos += id_len;
      break;
    }
    case OpKind::kExpire: {
      uint32_t dim = 0;
      if (!GetScalar(payload, &pos, &dim) ||
          !GetScalar(payload, &pos, &op->expire_cutoff)) {
        return Status::ParseError("op fields truncated");
      }
      op->expire_dim = static_cast<int>(dim);
      break;
    }
    default:
      return Status::ParseError("unknown op kind " + std::to_string(kind));
  }
  if (pos != payload.size()) {
    return Status::ParseError("trailing bytes inside op payload");
  }
  return Status::Ok();
}

// Decodes one frame payload — the escape word, the tag, its header and
// the op — into `entry`.
Status DecodeJournalPayload(std::string_view payload, JournalEntry* entry) {
  size_t pos = 0;
  uint64_t escape = 0;
  uint32_t tag = 0;
  if (!GetScalar(payload, &pos, &escape) || escape != 0 ||
      !GetScalar(payload, &pos, &tag) ||
      (tag != kServiceTag && tag != kTenantTag)) {
    // Also every record and reconfiguration frame of the older service
    // journal: a set word, a wide-set tag 2..16 or a tag 0x80000001..3.
    return Status::ParseError(
        "not an op frame (an older service journal's record or "
        "reconfiguration frame?)");
  }
  if (tag == kTenantTag) {
    entry->kind = JournalEntryKind::kTenantOp;
    if (!GetScalar(payload, &pos, &entry->tenant_id) ||
        !GetScalar(payload, &pos, &entry->tenant_seq)) {
      return Status::ParseError("tenant op fields truncated");
    }
    if (entry->tenant_seq == 0) {
      return Status::ParseError("tenant op sequence 0");
    }
  }
  return DecodeOp(payload, pos, &entry->op);
}

}  // namespace

Result<std::unique_ptr<JournalWriter>> JournalWriter::Create(
    std::unique_ptr<SyncFile> file) {
  if (file == nullptr) {
    return Status::InvalidArgument("journal needs a file");
  }
  auto writer =
      std::unique_ptr<JournalWriter>(new JournalWriter(std::move(file)));
  // The magic becomes durable with the first append's sync, together
  // with its frame. A crash before it leaves a prefix of the magic, which
  // the reader replays as no frames.
  GEOLIC_RETURN_IF_ERROR(writer->file_->Append(
      std::string_view(kJournalMagic, sizeof(kJournalMagic))));
  return writer;
}

Result<std::unique_ptr<JournalWriter>> JournalWriter::Open(
    const std::string& path) {
  GEOLIC_ASSIGN_OR_RETURN(std::unique_ptr<PosixSyncFile> file,
                          PosixSyncFile::Create(path));
  return Create(std::move(file));
}

Status JournalWriter::AppendOp(uint64_t seq, const OpRef& op) {
  std::string frame(kFrameHeaderBytes, '\0');
  PutScalar(&frame, uint64_t{0});
  PutScalar(&frame, kServiceTag);
  GEOLIC_RETURN_IF_ERROR(EncodeOp(op, &frame));
  return AppendFrame(seq, &frame);
}

Status JournalWriter::AppendTenantOp(uint64_t seq, uint64_t tenant_id,
                                     uint64_t tenant_seq, const OpRef& op) {
  if (tenant_seq == 0) {
    return Status::InvalidArgument("tenant op sequence numbers start at 1");
  }
  std::string frame(kFrameHeaderBytes, '\0');
  PutScalar(&frame, uint64_t{0});
  PutScalar(&frame, kTenantTag);
  PutScalar(&frame, tenant_id);
  PutScalar(&frame, tenant_seq);
  GEOLIC_RETURN_IF_ERROR(EncodeOp(op, &frame));
  return AppendFrame(seq, &frame);
}

Status JournalWriter::AppendFrame(uint64_t seq, std::string* frame) {
  if (poisoned_) {
    return Status::FailedPrecondition(
        "journal writer poisoned by an earlier I/O error");
  }
  if (closed_) {
    return Status::FailedPrecondition("journal writer is closed");
  }
  if (seq == 0) {
    return Status::InvalidArgument("journal sequence numbers start at 1");
  }
  const std::string_view payload =
      std::string_view(*frame).substr(kFrameHeaderBytes);
  StoreAt(frame, 0, static_cast<uint32_t>(payload.size()));
  StoreAt(frame, 4, seq);
  StoreAt(frame, 12, synced_seq_);
  // Header CRC over len, seq, witness.
  StoreAt(frame, 20, Crc32c(std::string_view(*frame).substr(
                         0, kHeaderCrcCovers)));
  StoreAt(frame, 24, Crc32c(payload));
  const Status appended = file_->Append(*frame);
  if (!appended.ok()) {
    poisoned_ = true;
    return appended;
  }
  ScopedTracerSpan span(tracer_, TraceStage::kJournalFsync);
  const Status synced = file_->Sync();
  if (!synced.ok()) {
    span.set_outcome(TraceOutcome::kError);
    poisoned_ = true;
    return synced;
  }
  synced_seq_ = seq;
  ++frames_appended_;
  return Status::Ok();
}

Status JournalWriter::Close() {
  if (closed_) {
    return Status::Ok();
  }
  closed_ = true;
  if (poisoned_) {
    return Status::FailedPrecondition(
        "journal writer poisoned by an earlier I/O error");
  }
  const Status status = file_->Close();
  if (!status.ok()) {
    poisoned_ = true;
  }
  return status;
}

JournalWriter::~JournalWriter() {
  if (!closed_ && !poisoned_) {
    (void)Close();
  }
}

namespace {

// Why a frame failed to read, before its contents are looked at.
enum class FrameCheck {
  kIntact,
  kTruncated,      // The header or payload runs past the end of the image.
  kHeaderCrc,
  kBadLength,      // Header CRC holds, length is not one a writer frames.
  kPayloadCrc,
};

struct FrameHeader {
  uint32_t payload_len = 0;
  uint64_t seq = 0;
  uint64_t synced_seq = 0;
  std::string_view payload;
};

FrameCheck CheckFrame(std::string_view bytes, size_t pos,
                      FrameHeader* header) {
  if (bytes.size() - pos < kFrameHeaderBytes) {
    return FrameCheck::kTruncated;
  }
  size_t cursor = pos;
  uint32_t header_crc = 0;
  uint32_t payload_crc = 0;
  GetScalar(bytes, &cursor, &header->payload_len);
  GetScalar(bytes, &cursor, &header->seq);
  GetScalar(bytes, &cursor, &header->synced_seq);
  GetScalar(bytes, &cursor, &header_crc);
  GetScalar(bytes, &cursor, &payload_crc);
  if (Crc32c(bytes.substr(pos, kHeaderCrcCovers)) != header_crc) {
    return FrameCheck::kHeaderCrc;
  }
  // The header CRC held, so payload_len is what the writer framed — a
  // payload running past EOF is a torn tail, not a length bit-flip.
  if (header->payload_len > kMaxPayloadBytes) {
    return FrameCheck::kBadLength;
  }
  if (bytes.size() - cursor < header->payload_len) {
    return FrameCheck::kTruncated;
  }
  header->payload = bytes.substr(cursor, header->payload_len);
  if (Crc32c(header->payload) != payload_crc) {
    return FrameCheck::kPayloadCrc;
  }
  return FrameCheck::kIntact;
}

// True when an intact frame starting after `from` (and before `end`)
// witnesses `seq` as synced. Frames are not aligned to anything, so every
// offset is a candidate; both CRCs must hold for one to count.
bool WitnessedLater(std::string_view bytes, size_t from, size_t end,
                    uint64_t seq) {
  for (size_t pos = from + 1; pos < end; ++pos) {
    FrameHeader header;
    if (CheckFrame(bytes, pos, &header) == FrameCheck::kIntact &&
        header.synced_seq >= seq && header.synced_seq < header.seq) {
      return true;
    }
  }
  return false;
}

// One past the last non-zero byte, never inside the magic.
size_t DataEnd(std::string_view bytes) {
  size_t end = bytes.size();
  while (end > sizeof(kJournalMagic) && bytes[end - 1] == '\0') {
    --end;
  }
  return end;
}

}  // namespace

Result<JournalReplay> JournalReader::Parse(std::string_view bytes) {
  const std::string_view magic(kJournalMagic, sizeof(kJournalMagic));
  // A strict prefix of the magic (the empty file included) is a journal a
  // crash left before its first sync: no frame was acknowledged.
  if (bytes.size() < magic.size() && magic.starts_with(bytes)) {
    return JournalReplay{};
  }
  if (!bytes.starts_with(magic)) {
    return Status::ParseError(
        "not a geolic journal (bad magic at offset 0)");
  }
  // A reserved zero tail marks a log that was never closed: parse up to
  // it under the crash rules (see journal.h). Every reservation is a whole
  // number of steps, which a closed journal almost never is, so zeros that
  // damage writes over a closed journal's end still fail loudly.
  const size_t data_end = DataEnd(bytes);
  const bool crash_image = bytes.size() % kReserveStepBytes == 0 &&
                           bytes.size() - data_end >= kReservedZeroTailBytes;
  const size_t end = crash_image ? data_end : bytes.size();
  JournalReplay replay;
  size_t pos = sizeof(kJournalMagic);
  uint64_t previous_seq = 0;
  bool first = true;
  while (pos < end) {
    const uint64_t frame_offset = pos;
    FrameHeader header;
    const FrameCheck check = CheckFrame(bytes, pos, &header);
    if (check == FrameCheck::kBadLength) {
      return FrameError(frame_offset, "implausible payload length");
    }
    if (check != FrameCheck::kIntact) {
      // Frames are written whole and in order, so a frame cut off at EOF
      // is an append the crash interrupted. In a crash image so is any
      // damaged frame (pages of an unsynced write that never reached the
      // disk read as zeros), unless a later frame proves it was synced.
      const bool torn = crash_image
                            ? !WitnessedLater(bytes, pos, end, previous_seq + 1)
                            : check == FrameCheck::kTruncated;
      if (!torn) {
        std::string what =
            check == FrameCheck::kHeaderCrc ? "header crc mismatch"
            : check == FrameCheck::kPayloadCrc
                ? "payload crc mismatch (seq " + std::to_string(header.seq) +
                      ")"
                : "frame runs past the end";
        if (crash_image) {
          what += " in a frame a later frame witnesses as synced";
        }
        return FrameError(frame_offset, what);
      }
      replay.torn_tail = true;
      replay.torn_tail_offset = frame_offset;
      break;
    }
    const uint64_t seq = header.seq;
    if (first) {
      if (seq == 0) {
        return FrameError(frame_offset, "sequence number 0");
      }
      first = false;
    } else if (seq <= previous_seq) {
      return FrameError(frame_offset,
                        "duplicate or out-of-order frame (seq " +
                            std::to_string(seq) + " after " +
                            std::to_string(previous_seq) + ")");
    } else if (seq != previous_seq + 1) {
      return FrameError(frame_offset,
                        "sequence gap (seq " + std::to_string(seq) +
                            " after " + std::to_string(previous_seq) + ")");
    }
    if (header.synced_seq >= seq) {
      return FrameError(frame_offset,
                        "witness " + std::to_string(header.synced_seq) +
                            " not before its own seq " + std::to_string(seq));
    }
    previous_seq = seq;
    JournalEntry entry;
    entry.seq = seq;
    const Status decoded = DecodeJournalPayload(header.payload, &entry);
    if (!decoded.ok()) {
      return FrameError(frame_offset, decoded.message());
    }
    replay.entries.push_back(std::move(entry));
    pos += kFrameHeaderBytes + header.payload_len;
  }
  return replay;
}

Result<JournalReplay> JournalReader::ReadFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IoError("cannot open for reading: " + path);
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IoError("stat failed: " + path);
  }
  std::string bytes(static_cast<size_t>(st.st_size), '\0');
  size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t got = ::read(fd, bytes.data() + done, bytes.size() - done);
    if (got < 0 && errno == EINTR) {
      continue;
    }
    if (got < 0) {
      ::close(fd);
      return Status::IoError("read failed: " + path);
    }
    if (got == 0) {
      bytes.resize(done);  // Shrank since the stat.
      break;
    }
    done += static_cast<size_t>(got);
  }
  ::close(fd);
  return Parse(bytes);
}

}  // namespace geolic

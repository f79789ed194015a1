#include "persist/journal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <sstream>

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
// Acquire frames embed a serialized license (ids, content key, per-
// dimension ranges); 64 KiB bounds every writer-produced payload with
// room to spare while still rejecting corrupt lengths early.
constexpr uint32_t kMaxPayloadBytes = 64 * 1024;

// Reconfig payload tags — disjoint from the wide-set word counts (2..16)
// that share the zero-word escape. See the format comment in journal.h.
constexpr uint32_t kReconfigTagBit = 0x80000000u;
constexpr uint32_t kAcquireTag = kReconfigTagBit | 1;
constexpr uint32_t kRevokeTag = kReconfigTagBit | 2;
constexpr uint32_t kExpireTag = kReconfigTagBit | 3;
constexpr uint32_t kTenantTag = kReconfigTagBit | 4;

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

// Decodes one frame payload — an admission record or, behind the
// zero-word/tag escape, a reconfiguration frame — into `entry`.
Status DecodeJournalPayload(std::string_view payload, JournalEntry* entry) {
  uint64_t first_word = 0;
  uint32_t tag = 0;
  size_t peek = 0;
  const bool is_reconfig =
      GetScalar(payload, &peek, &first_word) && first_word == 0 &&
      GetScalar(payload, &peek, &tag) && (tag & kReconfigTagBit) != 0;
  if (!is_reconfig) {
    size_t pos = 0;
    GEOLIC_RETURN_IF_ERROR(DecodeLogRecord(payload, &pos, &entry->record));
    if (pos != payload.size()) {
      return Status::ParseError("trailing bytes inside frame payload");
    }
    return Status::Ok();
  }
  size_t pos = peek;  // Past the escape word and the tag.
  switch (tag) {
    case kAcquireTag: {
      entry->kind = JournalEntryKind::kAcquire;
      std::istringstream in{std::string(payload.substr(pos))};
      GEOLIC_ASSIGN_OR_RETURN(License license, ReadLicenseBinary(&in));
      if (in.peek() != std::char_traits<char>::eof()) {
        return Status::ParseError("trailing bytes inside acquire payload");
      }
      entry->acquired.emplace(std::move(license));
      return Status::Ok();
    }
    case kRevokeTag: {
      entry->kind = JournalEntryKind::kRevoke;
      uint32_t index = 0;
      uint32_t id_len = 0;
      if (!GetScalar(payload, &pos, &index) ||
          !GetScalar(payload, &pos, &id_len)) {
        return Status::ParseError("revoke fields truncated");
      }
      if (index >= static_cast<uint32_t>(kMaxLicensesLarge)) {
        return Status::ParseError("implausible revoked index");
      }
      if (id_len > kMaxIdBytes || payload.size() - pos < id_len) {
        return Status::ParseError("implausible revoked id length");
      }
      entry->revoked_index = static_cast<int>(index);
      entry->revoked_id.assign(payload.data() + pos, id_len);
      pos += id_len;
      if (pos != payload.size()) {
        return Status::ParseError("trailing bytes inside revoke payload");
      }
      return Status::Ok();
    }
    case kExpireTag: {
      entry->kind = JournalEntryKind::kExpire;
      uint32_t dim = 0;
      int64_t cutoff = 0;
      uint32_t removed = 0;
      if (!GetScalar(payload, &pos, &dim) ||
          !GetScalar(payload, &pos, &cutoff) ||
          !GetScalar(payload, &pos, &removed)) {
        return Status::ParseError("expire fields truncated");
      }
      if (removed > static_cast<uint32_t>(kMaxLicensesLarge)) {
        return Status::ParseError("implausible expired index count");
      }
      entry->expire_dim = static_cast<int>(dim);
      entry->expire_cutoff = cutoff;
      entry->expired_indexes.reserve(removed);
      int previous = -1;
      for (uint32_t i = 0; i < removed; ++i) {
        uint32_t index = 0;
        if (!GetScalar(payload, &pos, &index)) {
          return Status::ParseError("expire fields truncated");
        }
        if (index >= static_cast<uint32_t>(kMaxLicensesLarge) ||
            static_cast<int>(index) <= previous) {
          return Status::ParseError("expired indexes not ascending");
        }
        previous = static_cast<int>(index);
        entry->expired_indexes.push_back(previous);
      }
      if (pos != payload.size()) {
        return Status::ParseError("trailing bytes inside expire payload");
      }
      return Status::Ok();
    }
    case kTenantTag: {
      entry->kind = JournalEntryKind::kTenantOp;
      TenantOpFrame& op = entry->tenant;
      uint8_t op_byte = 0;
      if (!GetScalar(payload, &pos, &op.tenant_id) ||
          !GetScalar(payload, &pos, &op.tenant_seq) ||
          !GetScalar(payload, &pos, &op_byte)) {
        return Status::ParseError("tenant op fields truncated");
      }
      if (op.tenant_seq == 0) {
        return Status::ParseError("tenant op sequence 0");
      }
      op.op = static_cast<TenantOpKind>(op_byte);
      switch (op.op) {
        case TenantOpKind::kIssue:
        case TenantOpKind::kAcquire: {
          std::istringstream in{std::string(payload.substr(pos))};
          GEOLIC_ASSIGN_OR_RETURN(License license, ReadLicenseBinary(&in));
          if (in.peek() != std::char_traits<char>::eof()) {
            return Status::ParseError(
                "trailing bytes inside tenant op payload");
          }
          op.license.emplace(std::move(license));
          return Status::Ok();
        }
        case TenantOpKind::kRevoke: {
          uint32_t id_len = 0;
          if (!GetScalar(payload, &pos, &id_len)) {
            return Status::ParseError("tenant op fields truncated");
          }
          if (id_len > kMaxIdBytes || payload.size() - pos < id_len) {
            return Status::ParseError("implausible tenant revoke id length");
          }
          op.revoke_id.assign(payload.data() + pos, id_len);
          pos += id_len;
          if (pos != payload.size()) {
            return Status::ParseError(
                "trailing bytes inside tenant op payload");
          }
          return Status::Ok();
        }
        case TenantOpKind::kExpire: {
          uint32_t dim = 0;
          if (!GetScalar(payload, &pos, &dim) ||
              !GetScalar(payload, &pos, &op.expire_cutoff)) {
            return Status::ParseError("tenant op fields truncated");
          }
          op.expire_dim = static_cast<int>(dim);
          if (pos != payload.size()) {
            return Status::ParseError(
                "trailing bytes inside tenant op payload");
          }
          return Status::Ok();
        }
      }
      return Status::ParseError("unknown tenant op kind");
    }
    default:
      return Status::ParseError("unknown reconfiguration tag");
  }
}

}  // namespace

Result<std::unique_ptr<JournalWriter>> JournalWriter::Create(
    std::unique_ptr<SyncFile> file, const JournalOptions& options) {
  if (file == nullptr) {
    return Status::InvalidArgument("journal needs a file");
  }
  if (options.fsync_interval < 0) {
    return Status::InvalidArgument("fsync_interval must be >= 0");
  }
  auto writer = std::unique_ptr<JournalWriter>(
      new JournalWriter(std::move(file), options));
  // The magic becomes durable with the first Sync, together with the
  // frames that sync acknowledges. A crash before it leaves a prefix of
  // the magic, which the reader replays as no frames.
  GEOLIC_RETURN_IF_ERROR(writer->file_->Append(
      std::string_view(kJournalMagic, sizeof(kJournalMagic))));
  return writer;
}

Result<std::unique_ptr<JournalWriter>> JournalWriter::Open(
    const std::string& path, const JournalOptions& options) {
  GEOLIC_ASSIGN_OR_RETURN(std::unique_ptr<PosixSyncFile> file,
                          PosixSyncFile::Create(path));
  return Create(std::move(file), options);
}

Status JournalWriter::Append(uint64_t seq, const LogRecord& record) {
  std::string payload;
  EncodeLogRecord(record, &payload);
  return AppendFrame(seq, payload);
}

Status JournalWriter::AppendAcquire(uint64_t seq, const License& license) {
  std::ostringstream body;
  GEOLIC_RETURN_IF_ERROR(WriteLicenseBinary(license, &body));
  std::string payload;
  PutScalar(&payload, uint64_t{0});
  PutScalar(&payload, kAcquireTag);
  payload.append(body.str());
  return AppendFrame(seq, payload);
}

Status JournalWriter::AppendRevoke(uint64_t seq, int index,
                                   std::string_view license_id) {
  if (index < 0) {
    return Status::InvalidArgument("revoked index must be non-negative");
  }
  std::string payload;
  PutScalar(&payload, uint64_t{0});
  PutScalar(&payload, kRevokeTag);
  PutScalar(&payload, static_cast<uint32_t>(index));
  PutScalar(&payload, static_cast<uint32_t>(license_id.size()));
  payload.append(license_id);
  return AppendFrame(seq, payload);
}

Status JournalWriter::AppendExpire(uint64_t seq, int dim, int64_t cutoff,
                                   const std::vector<int>& removed_indexes) {
  if (dim < 0) {
    return Status::InvalidArgument("expire dimension must be non-negative");
  }
  std::string payload;
  PutScalar(&payload, uint64_t{0});
  PutScalar(&payload, kExpireTag);
  PutScalar(&payload, static_cast<uint32_t>(dim));
  PutScalar(&payload, cutoff);
  PutScalar(&payload, static_cast<uint32_t>(removed_indexes.size()));
  for (const int index : removed_indexes) {
    if (index < 0) {
      return Status::InvalidArgument("expired index must be non-negative");
    }
    PutScalar(&payload, static_cast<uint32_t>(index));
  }
  return AppendFrame(seq, payload);
}

Status JournalWriter::AppendTenantOp(uint64_t seq, const TenantOpFrame& op) {
  if (op.tenant_seq == 0) {
    return Status::InvalidArgument("tenant op sequence numbers start at 1");
  }
  std::string payload;
  PutScalar(&payload, uint64_t{0});
  PutScalar(&payload, kTenantTag);
  PutScalar(&payload, op.tenant_id);
  PutScalar(&payload, op.tenant_seq);
  PutScalar(&payload, static_cast<uint8_t>(op.op));
  switch (op.op) {
    case TenantOpKind::kIssue:
    case TenantOpKind::kAcquire: {
      if (!op.license.has_value()) {
        return Status::InvalidArgument("tenant issue/acquire needs a license");
      }
      std::ostringstream body;
      GEOLIC_RETURN_IF_ERROR(WriteLicenseBinary(*op.license, &body));
      payload.append(body.str());
      break;
    }
    case TenantOpKind::kRevoke:
      PutScalar(&payload, static_cast<uint32_t>(op.revoke_id.size()));
      payload.append(op.revoke_id);
      break;
    case TenantOpKind::kExpire:
      if (op.expire_dim < 0) {
        return Status::InvalidArgument(
            "tenant expire dimension must be non-negative");
      }
      PutScalar(&payload, static_cast<uint32_t>(op.expire_dim));
      PutScalar(&payload, op.expire_cutoff);
      break;
    default:
      return Status::InvalidArgument("unknown tenant op kind");
  }
  return AppendFrame(seq, payload);
}

Status JournalWriter::AppendFrame(uint64_t seq, std::string_view payload) {
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
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  PutScalar(&frame, static_cast<uint32_t>(payload.size()));
  PutScalar(&frame, seq);
  PutScalar(&frame, synced_seq_);
  PutScalar(&frame, Crc32c(frame));  // Header CRC over len, seq, witness.
  PutScalar(&frame, Crc32c(payload));
  frame.append(payload);
  const Status appended = file_->Append(frame);
  if (!appended.ok()) {
    poisoned_ = true;
    return appended;
  }
  last_seq_ = seq;
  ++frames_appended_;
  // Tracked even with fsync_interval == 0 (no automatic syncs): Close()
  // must know whether an acknowledged-unsynced tail exists to flush.
  ++frames_since_sync_;
  if (options_.fsync_interval > 0 &&
      frames_since_sync_ >= options_.fsync_interval) {
    return Sync();
  }
  return Status::Ok();
}

Status JournalWriter::Sync() {
  if (poisoned_) {
    return Status::FailedPrecondition(
        "journal writer poisoned by an earlier I/O error");
  }
  if (closed_) {
    return Status::FailedPrecondition("journal writer is closed");
  }
  ScopedTracerSpan span(tracer_, TraceStage::kJournalFsync);
  const Status synced = file_->Sync();
  if (!synced.ok()) {
    span.set_outcome(TraceOutcome::kError);
    poisoned_ = true;
    return synced;
  }
  frames_since_sync_ = 0;
  synced_seq_ = last_seq_;
  return Status::Ok();
}

Status JournalWriter::Close() {
  if (closed_) {
    return Status::Ok();
  }
  if (poisoned_) {
    closed_ = true;
    return Status::FailedPrecondition(
        "journal writer poisoned by an earlier I/O error");
  }
  if (frames_since_sync_ > 0) {
    const Status synced = Sync();
    if (!synced.ok()) {
      closed_ = true;  // Sync poisoned the writer; Close stays terminal.
      return synced;
    }
  }
  closed_ = true;
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

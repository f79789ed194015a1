#include "validation/log_store.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "persist/checkpoint.h"
#include "util/check.h"
#include "util/str_util.h"

namespace geolic {

Status LogStore::Append(LogRecord record) {
  if (record.set.Empty()) {
    return Status::InvalidArgument(
        "log record set must be non-empty (license " +
        record.issued_license_id + ")");
  }
  if (record.count <= 0) {
    return Status::InvalidArgument(
        "log record count must be positive, got " +
        std::to_string(record.count));
  }
  records_.push_back(std::move(record));
  return Status::Ok();
}

std::unordered_map<LicenseSet, int64_t> LogStore::MergedCounts() const {
  std::unordered_map<LicenseSet, int64_t> merged;
  for (const LogRecord& record : records_) {
    merged[record.set] += record.count;
  }
  return merged;
}

int64_t LogStore::TotalCount() const {
  int64_t total = 0;
  for (const LogRecord& record : records_) {
    total += record.count;
  }
  return total;
}

LogStore LogStore::Compacted() const {
  const std::unordered_map<LicenseSet, int64_t> merged = MergedCounts();
  std::vector<LicenseSet> sets;
  sets.reserve(merged.size());
  for (const auto& [set, count] : merged) {
    sets.push_back(set);
  }
  std::sort(sets.begin(), sets.end());
  LogStore compacted;
  for (const LicenseSet& set : sets) {
    LogRecord record;
    record.set = set;
    record.count = merged.at(set);
    GEOLIC_CHECK(compacted.Append(std::move(record)).ok());
  }
  return compacted;
}

Status LogStore::SaveText(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return Status::IoError("cannot open for writing: " + path);
  }
  out << "# geolic log: id mask count\n";
  for (const LogRecord& record : records_) {
    out << (record.issued_license_id.empty() ? "-"
                                             : record.issued_license_id)
        << ' ' << record.set.ToHex() << ' ' << record.count << '\n';
  }
  if (!out) {
    return Status::IoError("write failed: " + path);
  }
  return Status::Ok();
}

Result<LogStore> LogStore::LoadText(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::IoError("cannot open for reading: " + path);
  }
  LogStore store;
  std::string line;
  size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const std::string_view stripped = StripWhitespace(line);
    if (stripped.empty() || stripped.front() == '#') {
      continue;
    }
    std::istringstream fields{std::string(stripped)};
    std::string id;
    std::string mask_text;
    int64_t count = 0;
    if (!(fields >> id >> mask_text >> count)) {
      return Status::ParseError(path + ":" + std::to_string(line_number) +
                                ": malformed log line");
    }
    LicenseSet mask;
    if (StartsWith(mask_text, "0x") || StartsWith(mask_text, "0X")) {
      if (!LicenseSet::FromHex(mask_text, &mask)) {
        return Status::ParseError(path + ":" + std::to_string(line_number) +
                                  ": bad mask " + mask_text);
      }
    } else {
      GEOLIC_ASSIGN_OR_RETURN(const int64_t decimal, ParseInt64(mask_text));
      mask = LicenseSet::FromWord(static_cast<uint64_t>(decimal));
    }
    LogRecord record;
    record.issued_license_id = id == "-" ? "" : id;
    record.set = mask;
    record.count = count;
    GEOLIC_RETURN_IF_ERROR(store.Append(std::move(record)));
  }
  return store;
}

void LogStore::SerializeRecords(std::ostream* out) const {
  const uint64_t count = records_.size();
  out->write(reinterpret_cast<const char*>(&count), sizeof(count));
  for (const LogRecord& record : records_) {
    // v3 set encoding, byte-identical to v2 for inline (single-word) sets:
    // sets are non-empty in every stored record, so a u64 value of 0 never
    // occurs in the v2 slot and doubles as the wide-set escape, followed by
    // an explicit word count and the word span (see persist/journal.cc).
    if (record.set.WordCount() == 1) {
      const uint64_t word = record.set.AsWord();
      out->write(reinterpret_cast<const char*>(&word), sizeof(word));
    } else {
      const uint64_t escape = 0;
      out->write(reinterpret_cast<const char*>(&escape), sizeof(escape));
      const uint32_t word_count =
          static_cast<uint32_t>(record.set.WordCount());
      out->write(reinterpret_cast<const char*>(&word_count),
                 sizeof(word_count));
      for (int w = 0; w < record.set.WordCount(); ++w) {
        const uint64_t word = record.set.Word(w);
        out->write(reinterpret_cast<const char*>(&word), sizeof(word));
      }
    }
    out->write(reinterpret_cast<const char*>(&record.count),
               sizeof(record.count));
    const uint32_t id_size =
        static_cast<uint32_t>(record.issued_license_id.size());
    out->write(reinterpret_cast<const char*>(&id_size), sizeof(id_size));
    out->write(record.issued_license_id.data(), id_size);
  }
}

Result<LogStore> LogStore::DeserializeRecords(std::istream* in) {
  uint64_t count = 0;
  in->read(reinterpret_cast<char*>(&count), sizeof(count));
  if (!*in) {
    return Status::ParseError("truncated log header");
  }
  LogStore store;
  for (uint64_t i = 0; i < count; ++i) {
    LogRecord record;
    uint32_t id_size = 0;
    uint64_t first_word = 0;
    in->read(reinterpret_cast<char*>(&first_word), sizeof(first_word));
    if (!*in) {
      return Status::ParseError("truncated log record");
    }
    if (first_word != 0) {
      record.set = LicenseSet::FromWord(first_word);
    } else {
      // Wide-set escape (see SerializeRecords). A declared width of 1 or a
      // zero top word would make the encoding non-canonical — corruption.
      uint32_t word_count = 0;
      in->read(reinterpret_cast<char*>(&word_count), sizeof(word_count));
      if (!*in || word_count < 2 ||
          word_count > static_cast<uint32_t>(kMaxLicenseWords)) {
        return Status::ParseError("implausible set word count in log record");
      }
      uint64_t words[kMaxLicenseWords];
      for (uint32_t w = 0; w < word_count; ++w) {
        in->read(reinterpret_cast<char*>(&words[w]), sizeof(words[w]));
      }
      if (!*in) {
        return Status::ParseError("truncated log record");
      }
      if (words[word_count - 1] == 0) {
        return Status::ParseError("non-canonical wide set in log record");
      }
      record.set = LicenseSet::FromWords({words, word_count});
    }
    in->read(reinterpret_cast<char*>(&record.count), sizeof(record.count));
    in->read(reinterpret_cast<char*>(&id_size), sizeof(id_size));
    if (!*in) {
      return Status::ParseError("truncated log record");
    }
    if (id_size > 4096) {
      return Status::ParseError("implausible id length in log record");
    }
    record.issued_license_id.resize(id_size);
    in->read(record.issued_license_id.data(), id_size);
    if (!*in) {
      return Status::ParseError("truncated log record id");
    }
    GEOLIC_RETURN_IF_ERROR(store.Append(std::move(record)));
  }
  return store;
}

Status LogStore::SaveBinary(const std::string& path) const {
  std::ostringstream body;
  SerializeRecords(&body);
  return WriteCheckpointFile(CheckpointKind::kLogStore, body.str(), path);
}

Result<LogStore> LogStore::LoadBinary(const std::string& path) {
  GEOLIC_ASSIGN_OR_RETURN(const std::string payload,
                          ReadCheckpointFile(CheckpointKind::kLogStore, path));
  std::istringstream body(payload);
  GEOLIC_ASSIGN_OR_RETURN(LogStore store, DeserializeRecords(&body));
  if (body.peek() != std::istringstream::traits_type::eof()) {
    return Status::ParseError("trailing bytes after log payload: " + path);
  }
  return store;
}

}  // namespace geolic

#include "validation/log_store.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "persist/checkpoint.h"
#include "persist/framing.h"
#include "persist/journal.h"
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

Status LogStore::SaveBinary(const std::string& path) const {
  std::string body;
  framing::PutScalar(&body, static_cast<uint64_t>(records_.size()));
  for (const LogRecord& record : records_) {
    EncodeLogRecord(record, &body);
  }
  return WriteCheckpointFileDurable(CheckpointKind::kLogStore, body, path);
}

Result<LogStore> LogStore::LoadBinary(const std::string& path) {
  GEOLIC_ASSIGN_OR_RETURN(const std::string payload,
                          ReadCheckpointFile(CheckpointKind::kLogStore, path));
  size_t pos = 0;
  uint64_t count = 0;
  if (!framing::GetScalar(payload, &pos, &count)) {
    return Status::ParseError("truncated log header: " + path);
  }
  LogStore store;
  for (uint64_t i = 0; i < count; ++i) {
    LogRecord record;
    GEOLIC_RETURN_IF_ERROR(DecodeLogRecord(payload, &pos, &record));
    GEOLIC_RETURN_IF_ERROR(store.Append(std::move(record)));
  }
  if (pos != payload.size()) {
    return Status::ParseError("trailing bytes after log payload: " + path);
  }
  return store;
}

}  // namespace geolic

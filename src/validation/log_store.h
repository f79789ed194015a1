#ifndef GEOLIC_VALIDATION_LOG_STORE_H_
#define GEOLIC_VALIDATION_LOG_STORE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "validation/log_record.h"
#include "util/status.h"

namespace geolic {

// Append-only store of issuance log records, with text and binary
// persistence. The validation authority fills one store per content and
// periodically feeds it to the offline aggregate validator.
class LogStore {
 public:
  LogStore() = default;

  // Appends a record. Fails if the set is empty (an issued license always
  // instance-validates against at least one redistribution license — an
  // empty set means instance validation already failed and the license is
  // invalid outright) or the count is not positive.
  Status Append(LogRecord record);

  // Pre-sizes the record table so the next `capacity` appends never regrow
  // it (the allocation-free admission path reserves up front).
  void Reserve(size_t capacity) { records_.reserve(capacity); }

  size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }
  const std::vector<LogRecord>& records() const { return records_; }
  const LogRecord& at(size_t i) const { return records_[i]; }

  // Sum of counts grouped by exact set — C[S] for every S present in the
  // log. The reference the validation tree is checked against in tests.
  std::unordered_map<LicenseSet, int64_t> MergedCounts() const;

  // Sum of all counts in the store.
  int64_t TotalCount() const;

  // Returns a compacted copy: one record per distinct set with the summed
  // count (issued-license ids are dropped — compaction is for archival and
  // faster tree rebuilds, not per-license attribution). Record order is
  // ascending by set mask. Validation results over a compacted store are
  // identical to the original.
  LogStore Compacted() const;

  // Text persistence: one record per line, "id mask count" with the mask in
  // hex ("LU1 0x3 800"). '#' starts a comment line.
  Status SaveText(const std::string& path) const;
  static Result<LogStore> LoadText(const std::string& path);

  // Binary persistence. Writes the record table (u64 record count, then
  // the records in the journal's EncodeLogRecord form) inside the
  // CRC-protected checkpoint-v2 container (persist/checkpoint.h, kind =
  // log-store), so a flipped bit fails the load instead of silently
  // changing a count. Published durably (WriteCheckpointFileDurable), so
  // a crash never leaves a torn file at `path`.
  Status SaveBinary(const std::string& path) const;
  static Result<LogStore> LoadBinary(const std::string& path);

 private:
  std::vector<LogRecord> records_;
};

}  // namespace geolic

#endif  // GEOLIC_VALIDATION_LOG_STORE_H_

#ifndef GEOLIC_PERSIST_FAULTY_FILE_H_
#define GEOLIC_PERSIST_FAULTY_FILE_H_

#include <cstdint>
#include <memory>

#include "persist/sync_file.h"
#include "util/check.h"

namespace geolic {

// Fault-injecting SyncFile decorator for crash-recovery tests: simulates a
// disk that tears a write mid-frame, dies outright, or fails an fsync.
// After any injected crash every further operation fails with IoError, so
// a writer cannot accidentally "heal" the file — exactly the state a
// recovery pass must cope with.
class FaultyFile : public SyncFile {
 public:
  explicit FaultyFile(std::unique_ptr<SyncFile> base)
      : base_(std::move(base)) {}

  // The next Append persists only its first `keep_bytes` bytes, then the
  // disk crashes: the torn append and every later operation fail.
  void TearNextAppend(size_t keep_bytes) {
    tear_armed_ = true;
    tear_keep_ = keep_bytes;
  }

  // Kills the disk now: nothing further persists, all operations fail.
  void CrashNow() { crashed_ = true; }

  // The next Sync fails with IoError (appended data stays buffered — the
  // caller must treat it as possibly lost).
  void FailNextSync() { fail_next_sync_ = true; }

  // Scheduled fault points (the simulation harness's knobs): the fault
  // fires on the `appends_ahead`-th future Append (1 = the very next one),
  // so a seed-driven schedule can place a crash at an exact journal frame
  // boundary chosen before the workload runs.

  // Tears the scheduled append after `keep_bytes` bytes, then the disk
  // dies. keep_bytes ≥ the frame size persists the whole frame while the
  // writer still observes a failure — the "acknowledged by the disk, never
  // acknowledged to the caller" recovery case.
  void ScheduleTearAppend(uint64_t appends_ahead, size_t keep_bytes) {
    GEOLIC_DCHECK(appends_ahead >= 1);
    tear_countdown_ = appends_ahead;
    tear_keep_ = keep_bytes;
  }

  // The scheduled append's Sync (and every later one) fails; the append
  // itself persists. The journal syncs every append, so this is the same
  // recovery shape as a fully-persisted torn append.
  void ScheduleFailSyncAfterAppend(uint64_t appends_ahead) {
    GEOLIC_DCHECK(appends_ahead >= 1);
    sync_fail_countdown_ = appends_ahead;
  }

  Status Append(std::string_view data) override {
    if (crashed_) {
      return Status::IoError("injected fault: disk is dead");
    }
    if (tear_countdown_ > 0 && --tear_countdown_ == 0) {
      tear_armed_ = true;
    }
    if (sync_fail_countdown_ > 0 && --sync_fail_countdown_ == 0) {
      sync_dead_ = true;
    }
    if (tear_armed_) {
      tear_armed_ = false;
      crashed_ = true;
      const size_t keep = tear_keep_ < data.size() ? tear_keep_ : data.size();
      // Persist the torn prefix regardless of the base file's verdict —
      // the crash already happened from the caller's point of view.
      (void)base_->Append(data.substr(0, keep));
      return Status::IoError("injected fault: torn write");
    }
    return base_->Append(data);
  }

  Status Sync() override {
    if (crashed_ || sync_dead_) {
      return Status::IoError(crashed_ ? "injected fault: disk is dead"
                                      : "injected fault: fsync failed");
    }
    if (fail_next_sync_) {
      fail_next_sync_ = false;
      return Status::IoError("injected fault: fsync failed");
    }
    return base_->Sync();
  }

  Status Close() override {
    if (crashed_) {
      return Status::IoError("injected fault: disk is dead");
    }
    return base_->Close();
  }

  // The wrapped file, for inspecting what actually reached the "platter".
  SyncFile* base() { return base_.get(); }

 private:
  std::unique_ptr<SyncFile> base_;
  bool crashed_ = false;
  bool tear_armed_ = false;
  size_t tear_keep_ = 0;
  bool fail_next_sync_ = false;
  bool sync_dead_ = false;
  uint64_t tear_countdown_ = 0;
  uint64_t sync_fail_countdown_ = 0;
};

}  // namespace geolic

#endif  // GEOLIC_PERSIST_FAULTY_FILE_H_

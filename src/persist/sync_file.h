#ifndef GEOLIC_PERSIST_SYNC_FILE_H_
#define GEOLIC_PERSIST_SYNC_FILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "util/status.h"

namespace geolic {

// Minimal append-only file the journal writes through. The indirection
// exists so tests can substitute an in-memory file and wrap it in a
// fault injector (persist/faulty_file.h) without touching the filesystem.
//
// Durability contract: Append hands bytes to the file; they are guaranteed
// to survive a crash only once a later Sync returns OK. Close does not
// imply Sync.
class SyncFile {
 public:
  virtual ~SyncFile() = default;

  // Appends `data` at the end of the file.
  virtual Status Append(std::string_view data) = 0;

  // Forces every previously appended byte to stable storage.
  virtual Status Sync() = 0;

  // Releases the underlying resource; further operations fail.
  virtual Status Close() = 0;
};

// Reservation geometry of PosixSyncFile, shared with the journal reader.
// A log reserves file space in steps of kReserveStepBytes and keeps at
// least kReservedZeroTailBytes of zeros past its written end, so an image
// that is a whole number of steps and ends in that many zeros is a log cut
// short by a crash.
inline constexpr uint64_t kReserveStepBytes = 64 * 1024;
inline constexpr uint64_t kReservedZeroTailBytes = 4 * 1024;

// fsyncs the directory that holds `path`, making its entries (a new
// file's name, a rename into it) durable. fsync(2) on a file promises
// nothing for the directory entry that names it.
Status SyncParentDirectory(const std::string& path);

// POSIX implementation over pwrite/fdatasync.
//
// Until its first completed Sync the file grows with every Append, so a
// file written whole and synced once (a checkpoint) holds exactly its
// bytes. Once an Append follows a completed Sync the file is a log: it
// reserves space ahead with fallocate, kReserveStepBytes at a time, keeps
// at least kReservedZeroTailBytes of zeros after the written end, writes in
// place, and syncs with fdatasync. A sync then changes no file size and
// costs no filesystem metadata commit. Each new step is synced before
// anything is written into it (one extra fdatasync per step), so no crash
// image holds frames inside a size whose zero tail is too short. A failed
// reservation (no fallocate support, no space) gives back what it held,
// syncs that, and the file grows by plain writes from then on. Close
// truncates to the written length and syncs, so a closed file holds
// exactly its bytes; a file dropped without Close keeps its reserved zero
// tail, which the journal reader reads as a crash image.
//
// The first completed Sync of a file from Create also fsyncs its parent
// directory, once, so the file's name is durable with the first bytes a
// sync acknowledges; creating the file syncs nothing.
class PosixSyncFile : public SyncFile {
 public:
  // Creates (or truncates) `path` for writing.
  static Result<std::unique_ptr<PosixSyncFile>> Create(
      const std::string& path);

  // As Create, for a temp file that the caller renames into place and
  // whose directory it fsyncs after the rename: no Sync fsyncs the
  // directory.
  static Result<std::unique_ptr<PosixSyncFile>> CreateTemp(
      const std::string& path);

  ~PosixSyncFile() override;  // Closes the descriptor; errors are dropped.
  PosixSyncFile(const PosixSyncFile&) = delete;
  PosixSyncFile& operator=(const PosixSyncFile&) = delete;

  Status Append(std::string_view data) override;
  Status Sync() override;
  Status Close() override;

 private:
  PosixSyncFile(std::string path, int fd) : path_(std::move(path)), fd_(fd) {}

  // Grows the reservation so `incoming` more bytes leave the zero tail.
  Status Reserve(uint64_t incoming);

  std::string path_;
  int fd_;                    // -1 once closed.
  uint64_t written_ = 0;      // Where the next Append lands.
  uint64_t size_ = 0;         // File size: written_ plus any reservation.
  bool synced_ = false;       // A Sync completed: appends reserve ahead.
  bool reserving_ = true;     // Cleared for good by a failed reservation.
  bool name_synced_ = false;  // The parent directory needs no fsync.
};

// In-memory implementation for tests and benches. `contents()` is what a
// recovered disk would hold had every append hit the platter;
// `synced_contents()` keeps only bytes covered by a completed Sync — the
// acknowledged-durable prefix.
class InMemorySyncFile : public SyncFile {
 public:
  Status Append(std::string_view data) override;
  Status Sync() override;
  Status Close() override;

  const std::string& contents() const { return data_; }
  std::string synced_contents() const { return data_.substr(0, synced_size_); }
  size_t synced_size() const { return synced_size_; }

 private:
  std::string data_;
  size_t synced_size_ = 0;
  bool closed_ = false;
};

}  // namespace geolic

#endif  // GEOLIC_PERSIST_SYNC_FILE_H_

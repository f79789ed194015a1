#include "persist/sync_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace geolic {
namespace {

Status Errno(const std::string& op, const std::string& path) {
  return Status::IoError(op + " failed for " + path + ": " +
                         std::strerror(errno));
}

}  // namespace

Status SyncParentDirectory(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd < 0) {
    return Errno("open directory", dir);
  }
  if (::fsync(dir_fd) != 0) {
    const Status status = Errno("fsync directory", dir);
    ::close(dir_fd);
    return status;
  }
  if (::close(dir_fd) != 0) {
    return Errno("close directory", dir);
  }
  return Status::Ok();
}

Result<std::unique_ptr<PosixSyncFile>> PosixSyncFile::Create(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Errno("open", path);
  }
  return std::unique_ptr<PosixSyncFile>(new PosixSyncFile(path, fd));
}

Result<std::unique_ptr<PosixSyncFile>> PosixSyncFile::CreateTemp(
    const std::string& path) {
  GEOLIC_ASSIGN_OR_RETURN(std::unique_ptr<PosixSyncFile> file, Create(path));
  file->name_synced_ = true;
  return file;
}

PosixSyncFile::~PosixSyncFile() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

Status PosixSyncFile::Reserve(uint64_t incoming) {
  const uint64_t needed = written_ + incoming + kReservedZeroTailBytes;
  if (needed <= size_) {
    return Status::Ok();
  }
  const uint64_t target =
      (needed + kReserveStepBytes - 1) / kReserveStepBytes * kReserveStepBytes;
  // Each size change is made durable before anything is written past the
  // old size's zero tail. fdatasync writes data pages before it commits a
  // size change, so a frame written into a step whose size is not yet
  // durable could reach the disk inside the old size with fewer than
  // kReservedZeroTailBytes of zeros after it, an image that reads as
  // corruption.
  if (::fallocate(fd_, 0, static_cast<off_t>(size_),
                  static_cast<off_t>(target - size_)) == 0) {
    size_ = target;
    if (::fdatasync(fd_) != 0) {
      return Errno("fdatasync", path_);
    }
    return Status::Ok();
  }
  // Give back the whole reservation, including any part a failed fallocate
  // did extend: a zero tail shorter than kReservedZeroTailBytes would read
  // as corruption after a crash.
  reserving_ = false;
  if (::ftruncate(fd_, static_cast<off_t>(written_)) != 0) {
    return Errno("ftruncate", path_);
  }
  size_ = written_;
  if (::fdatasync(fd_) != 0) {
    return Errno("fdatasync", path_);
  }
  return Status::Ok();
}

Status PosixSyncFile::Append(std::string_view data) {
  if (fd_ < 0) {
    return Status::FailedPrecondition("append on closed file: " + path_);
  }
  if (synced_ && reserving_) {
    GEOLIC_RETURN_IF_ERROR(Reserve(data.size()));
  }
  const char* p = data.data();
  size_t remaining = data.size();
  while (remaining > 0) {
    const ssize_t written =
        ::pwrite(fd_, p, remaining, static_cast<off_t>(written_));
    if (written < 0) {
      if (errno == EINTR) {
        continue;
      }
      return Errno("write", path_);
    }
    p += written;
    remaining -= static_cast<size_t>(written);
    written_ += static_cast<uint64_t>(written);
    size_ = std::max(size_, written_);
  }
  return Status::Ok();
}

Status PosixSyncFile::Sync() {
  if (fd_ < 0) {
    return Status::FailedPrecondition("sync on closed file: " + path_);
  }
  // fdatasync flushes the data and any size change needed to read it back,
  // but no metadata commit for timestamps alone.
  if (::fdatasync(fd_) != 0) {
    return Errno("fdatasync", path_);
  }
  if (!name_synced_) {
    GEOLIC_RETURN_IF_ERROR(SyncParentDirectory(path_));
    name_synced_ = true;
  }
  synced_ = true;
  return Status::Ok();
}

Status PosixSyncFile::Close() {
  if (fd_ < 0) {
    return Status::FailedPrecondition("double close: " + path_);
  }
  const int fd = fd_;
  fd_ = -1;
  Status status = Status::Ok();
  if (size_ > written_) {
    if (::ftruncate(fd, static_cast<off_t>(written_)) != 0) {
      status = Errno("ftruncate", path_);
    } else if (::fdatasync(fd) != 0) {
      status = Errno("fdatasync", path_);
    }
  }
  if (::close(fd) != 0 && status.ok()) {
    status = Errno("close", path_);
  }
  return status;
}

Status InMemorySyncFile::Append(std::string_view data) {
  if (closed_) {
    return Status::FailedPrecondition("append on closed in-memory file");
  }
  data_.append(data);
  return Status::Ok();
}

Status InMemorySyncFile::Sync() {
  if (closed_) {
    return Status::FailedPrecondition("sync on closed in-memory file");
  }
  synced_size_ = data_.size();
  return Status::Ok();
}

Status InMemorySyncFile::Close() {
  if (closed_) {
    return Status::FailedPrecondition("double close on in-memory file");
  }
  closed_ = true;
  return Status::Ok();
}

}  // namespace geolic

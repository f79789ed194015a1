// Ablation: cost of crash safety. The write-ahead journal puts one framed
// issue op and one sync in front of every accepted admission: an append
// returns only once its frame is durable. This bench measures
//   (a) the durable append cost on a real file beside the same frames
//       written through an InMemorySyncFile, which shows what the device
//       sync adds,
//   (b) recovery time: re-executing the whole journal vs loading a
//       midpoint checkpoint plus the journal tail, and
//   (c) time per sync of PosixSyncFile (in-place writes into a reserved
//       tail + fdatasync) against the append + fsync file it replaced,
//       kept here as the baseline. Each sample is one append and its
//       sync, so the reservation's own sync is counted.
// Expected shape: the device sync is orders of magnitude slower than the
// in-memory append; recovery time scales with the replayed tail, so the
// checkpoint roughly halves it when taken at the halfway point; a sync
// that grows the file also commits the filesystem's metadata journal, so
// the baseline's syncs are slower.
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "licensing/constraint_schema.h"
#include "licensing/license.h"
#include "licensing/license_catalog.h"
#include "persist/journal.h"
#include "persist/sync_file.h"
#include "service/issuance_service.h"
#include "util/stopwatch.h"

namespace {

using namespace geolic;  // NOLINT

// `groups` disjoint clusters of two overlapping licenses each.
LicenseCatalog MakeGroupedSet(const ConstraintSchema& schema, int groups) {
  LicenseCatalog licenses(&schema);
  for (int g = 0; g < groups; ++g) {
    const int64_t base = 1000 * g;
    for (int member = 0; member < 2; ++member) {
      LicenseBuilder builder(&schema);
      builder.SetId("L" + std::to_string(2 * g + member))
          .SetContentKey("K")
          .SetType(LicenseType::kRedistribution)
          .SetPermission(Permission::kPlay)
          .SetAggregateCount(int64_t{1} << 40)
          .SetInterval("C1", base + 10 * member, base + 20 + 10 * member);
      GEOLIC_CHECK(licenses.Add(*builder.Build()).ok());
    }
  }
  return licenses;
}

std::vector<License> MakeRequests(const ConstraintSchema& schema, int groups,
                                  int count) {
  std::vector<License> requests;
  requests.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    const int64_t base = 1000 * (i % groups);
    LicenseBuilder builder(&schema);
    builder.SetId("U" + std::to_string(i))
        .SetContentKey("K")
        .SetType(LicenseType::kUsage)
        .SetPermission(Permission::kPlay)
        .SetAggregateCount(1)
        .SetInterval("C1", base + 12, base + 18);
    requests.push_back(*builder.Build());
  }
  return requests;
}

// Ablation baseline for PosixSyncFile: O_APPEND + write + fsync, so every
// sync after an append also commits the grown file size.
class AppendFsyncFile : public SyncFile {
 public:
  explicit AppendFsyncFile(const std::string& path)
      : fd_(::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_APPEND,
                   0644)) {
    GEOLIC_CHECK(fd_ >= 0);
  }
  ~AppendFsyncFile() override {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }
  Status Append(std::string_view data) override {
    while (!data.empty()) {
      const ssize_t written = ::write(fd_, data.data(), data.size());
      if (written < 0 && errno == EINTR) {
        continue;
      }
      if (written < 0) {
        return Status::IoError("write failed");
      }
      data.remove_prefix(static_cast<size_t>(written));
    }
    return Status::Ok();
  }
  Status Sync() override {
    return ::fsync(fd_) == 0 ? Status::Ok() : Status::IoError("fsync failed");
  }
  Status Close() override {
    const int fd = fd_;
    fd_ = -1;
    return ::close(fd) == 0 ? Status::Ok() : Status::IoError("close failed");
  }

 private:
  int fd_;
};

// Records, for every Sync of the wrapped file, the time spent in it and in
// the Appends since the previous Sync.
class TimedSyncFile : public SyncFile {
 public:
  TimedSyncFile(std::unique_ptr<SyncFile> base, std::vector<int64_t>* nanos)
      : base_(std::move(base)), nanos_(nanos) {}
  Status Append(std::string_view data) override {
    const auto start = std::chrono::steady_clock::now();
    const Status status = base_->Append(data);
    pending_ += std::chrono::steady_clock::now() - start;
    return status;
  }
  Status Sync() override {
    const auto start = std::chrono::steady_clock::now();
    const Status status = base_->Sync();
    pending_ += std::chrono::steady_clock::now() - start;
    nanos_->push_back(
        std::chrono::duration_cast<std::chrono::nanoseconds>(pending_)
            .count());
    pending_ = {};
    return status;
  }
  Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<SyncFile> base_;
  std::vector<int64_t>* nanos_;
  std::chrono::steady_clock::duration pending_{};
};

double PercentileMicros(std::vector<int64_t> nanos, double p) {
  GEOLIC_CHECK(!nanos.empty());
  const size_t rank = std::min(
      nanos.size() - 1,
      static_cast<size_t>(p * static_cast<double>(nanos.size() - 1)));
  std::nth_element(nanos.begin(), nanos.begin() + static_cast<ptrdiff_t>(rank),
                   nanos.end());
  return static_cast<double>(nanos[rank]) / 1e3;
}

}  // namespace

int main(int argc, char** argv) {
  using geolic::bench::Flags;
  using geolic::bench::JsonOut;

  Flags flags(argc, argv);
  const int records = std::max(1, flags.Int("records", 20000));
  const int groups = std::max(1, flags.Int("groups", 8));
  const int fsync_records =
      std::max(1, flags.Int("fsync_records", std::min(records, 2000)));
  const std::string dir = flags.Str("tmp_dir", "/tmp");
  JsonOut json(flags, "ablation_journal");
  flags.Finish();

  std::printf("# Ablation: durable journal append cost and recovery time "
              "(%d records)\n", records);

  ConstraintSchema schema;
  GEOLIC_CHECK(schema.AddIntervalDimension("C1").ok());
  const LicenseCatalog licenses = MakeGroupedSet(schema, groups);
  const std::vector<License> requests =
      MakeRequests(schema, groups, records);
  // The issue op of the i-th accepted request, as the service journals it.
  const auto issue_op = [&requests](int i) {
    return OpRef::Issue(requests[static_cast<size_t>(i) % requests.size()]);
  };

  // (a) Durable append cost: every append syncs, on a real file and on
  // an in-memory one, over fsync_records appends each.
  std::printf("%20s  %8s  %12s  %14s  %14s\n", "file", "appends",
              "append_ms", "append_p50_us", "append_p99_us");
  for (const bool on_disk : {true, false}) {
    const std::string path = dir + "/geolic_bench_journal_append.gjl";
    std::unique_ptr<SyncFile> file;
    if (on_disk) {
      Result<std::unique_ptr<PosixSyncFile>> posix =
          PosixSyncFile::Create(path);
      GEOLIC_CHECK(posix.ok());
      file = std::move(*posix);
    } else {
      file = std::make_unique<InMemorySyncFile>();
    }
    Result<std::unique_ptr<JournalWriter>> writer =
        JournalWriter::Create(std::move(file));
    GEOLIC_CHECK(writer.ok());
    std::vector<int64_t> nanos;
    nanos.reserve(static_cast<size_t>(fsync_records));
    Stopwatch timer;
    for (int i = 0; i < fsync_records; ++i) {
      const auto start = std::chrono::steady_clock::now();
      GEOLIC_CHECK(
          (*writer)->AppendOp(static_cast<uint64_t>(i + 1), issue_op(i)).ok());
      nanos.push_back(std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - start)
                          .count());
    }
    const double elapsed_ms = timer.ElapsedMillis();
    GEOLIC_CHECK((*writer)->Close().ok());
    if (on_disk) {
      std::remove(path.c_str());
    }
    const char* label = on_disk ? "posix_file" : "in_memory";
    const double p50 = PercentileMicros(nanos, 0.50);
    const double p99 = PercentileMicros(nanos, 0.99);
    std::printf("%20s  %8d  %12.2f  %14.2f  %14.2f\n", label, fsync_records,
                elapsed_ms, p50, p99);
    json.Row([&](JsonWriter& out) {
      out.KeyValue("label", "durable_append");
      out.KeyValue("file", label);
      out.KeyValue("appends", static_cast<int64_t>(fsync_records));
      out.KeyValue("append_ms", elapsed_ms);
      out.KeyValue("append_p50_us", p50);
      out.KeyValue("append_p99_us", p99);
    });
  }

  // (b) Recovery: run a real service with a journal, checkpoint halfway,
  // "crash", then rebuild from (journal only) vs (checkpoint + tail).
  const std::string journal_path = dir + "/geolic_bench_journal.gjl";
  const std::string checkpoint_path = dir + "/geolic_bench_checkpoint.gck";

  std::string pre_crash_tree;
  {
    Result<std::unique_ptr<IssuanceService>> service =
        IssuanceService::Create(&licenses);
    GEOLIC_CHECK(service.ok());
    Result<std::unique_ptr<JournalWriter>> journal =
        JournalWriter::Open(journal_path);
    GEOLIC_CHECK(journal.ok());
    GEOLIC_CHECK((*service)->AttachJournal(std::move(*journal)).ok());
    for (int i = 0; i < records; ++i) {
      GEOLIC_CHECK((*service)->TryIssue(requests[static_cast<size_t>(i)]).ok());
      if (i + 1 == records / 2) {
        GEOLIC_CHECK((*service)->WriteCheckpoint(checkpoint_path).ok());
      }
    }
    Result<ValidationTree> tree = (*service)->CollectTree();
    GEOLIC_CHECK(tree.ok());
    pre_crash_tree = tree->ToString();
  }  // Crash: only the files survive.

  std::printf("%24s  %12s  %10s  %10s\n", "recovery_mode", "recover_ms",
              "replayed", "skipped");
  for (const bool use_checkpoint : {false, true}) {
    RecoveryStats stats;
    Stopwatch timer;
    Result<std::unique_ptr<IssuanceService>> recovered =
        IssuanceService::Recover(&licenses, {},
                                 use_checkpoint ? checkpoint_path : "",
                                 journal_path, &stats);
    const double elapsed_ms = timer.ElapsedMillis();
    GEOLIC_CHECK(recovered.ok());
    // The recovered state must equal the pre-crash state exactly.
    Result<ValidationTree> tree = (*recovered)->CollectTree();
    GEOLIC_CHECK(tree.ok());
    GEOLIC_CHECK(tree->ToString() == pre_crash_tree);
    const char* label =
        use_checkpoint ? "checkpoint+tail" : "journal_replay";
    std::printf("%24s  %12.2f  %10zu  %10zu\n", label, elapsed_ms,
                stats.journal_records_replayed, stats.journal_records_skipped);
    json.Row([&](JsonWriter& out) {
      out.KeyValue("label", label);
      out.KeyValue("recover_ms", elapsed_ms);
      out.KeyValue("checkpoint_records",
                   static_cast<uint64_t>(stats.checkpoint_records));
      out.KeyValue("replayed",
                   static_cast<uint64_t>(stats.journal_records_replayed));
      out.KeyValue("skipped",
                   static_cast<uint64_t>(stats.journal_records_skipped));
      out.KeyValue("state_matches", true);  // GEOLIC_CHECKed above.
    });
  }
  std::remove(journal_path.c_str());
  std::remove(checkpoint_path.c_str());

  // (c) Time per sync, in-place + fdatasync vs append + fsync, over
  // fsync_records syncs per file, one append each. The two files
  // alternate in four rounds so drift in the device hits both.
  std::printf("%20s  %8s  %12s  %12s\n", "file", "syncs", "sync_p50_us",
              "sync_p99_us");
  constexpr int kRounds = 4;
  std::vector<int64_t> nanos[2];
  for (int round = 0; round < kRounds; ++round) {
    for (const bool baseline : {true, false}) {
      const std::string path = dir + "/geolic_bench_journal_sync.gjl";
      std::unique_ptr<SyncFile> file;
      if (baseline) {
        file = std::make_unique<AppendFsyncFile>(path);
      } else {
        Result<std::unique_ptr<PosixSyncFile>> posix =
            PosixSyncFile::Create(path);
        GEOLIC_CHECK(posix.ok());
        file = std::move(*posix);
      }
      std::vector<int64_t>* samples = &nanos[baseline ? 0 : 1];
      Result<std::unique_ptr<JournalWriter>> writer = JournalWriter::Create(
          std::make_unique<TimedSyncFile>(std::move(file), samples));
      GEOLIC_CHECK(writer.ok());
      const int n = std::max(1, fsync_records / kRounds);
      for (int i = 0; i < n; ++i) {
        GEOLIC_CHECK(
            (*writer)->AppendOp(static_cast<uint64_t>(i + 1), issue_op(i))
                .ok());
      }
      GEOLIC_CHECK((*writer)->Close().ok());
      std::remove(path.c_str());
    }
  }
  for (const bool baseline : {true, false}) {
    const std::vector<int64_t>& samples = nanos[baseline ? 0 : 1];
    const char* label = baseline ? "append_fsync" : "inplace_fdatasync";
    const double p50 = PercentileMicros(samples, 0.50);
    const double p99 = PercentileMicros(samples, 0.99);
    std::printf("%20s  %8zu  %12.1f  %12.1f\n", label, samples.size(), p50,
                p99);
    json.Row([&](JsonWriter& out) {
      out.KeyValue("label", "sync_latency");
      out.KeyValue("file", label);
      out.KeyValue("syncs", static_cast<uint64_t>(samples.size()));
      out.KeyValue("sync_p50_us", p50);
      out.KeyValue("sync_p99_us", p99);
    });
  }

  json.Write();
  std::printf("# expected shape: the device sync dominates a durable "
              "append; checkpoint+tail replays ~half the records of a full "
              "journal replay; in-place fdatasync syncs beat append + "
              "fsync\n");
  return 0;
}

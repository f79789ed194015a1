// Directory fsyncs are what make a new file's name durable, and no other
// test sees them: InMemorySyncFile and the crash-image tests model file
// contents, not directory entries. This binary interposes fsync(2) —
// every call the library makes resolves to the definition below, which
// records the directories it is handed and forwards through
// dlsym(RTLD_NEXT, "fsync") — and checks where the persist layer makes a
// name durable:
//  * creating a journal fsyncs no directory;
//  * the journal's first completed Sync fsyncs its parent directory once,
//    and later syncs fsync none;
//  * WriteCheckpointFileDurable and a live catalog spill fsync the
//    directory after the rename, when the new name is in place;
//  * catalog recovery fsyncs the directory once for all its re-spills,
//    before the journal is reopened (truncated).
#include <dlfcn.h>
#include <sys/stat.h>
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/catalog_service.h"
#include "catalog/tenant_source.h"
#include "persist/checkpoint.h"
#include "persist/journal.h"
#include "test_util.h"
#include "workload/multi_tenant.h"

namespace {

struct DirSync {
  std::string dir;
  // Whether the probe path (when set) existed when the directory was
  // synced, and its ".tmp" sibling did not; and the probe's size then.
  bool probe_in_place = false;
  uintmax_t probe_size = 0;
};

std::mutex g_mutex;
std::vector<DirSync> g_dir_syncs;  // Guarded by g_mutex.
std::string g_probe;               // Guarded by g_mutex.

void RecordIfDirectory(int fd) {
  struct stat st;
  if (::fstat(fd, &st) != 0 || !S_ISDIR(st.st_mode)) {
    return;
  }
  std::error_code ec;
  const std::filesystem::path dir = std::filesystem::read_symlink(
      "/proc/self/fd/" + std::to_string(fd), ec);
  std::lock_guard<std::mutex> lock(g_mutex);
  DirSync sync;
  sync.dir = ec ? std::string("?") : dir.string();
  if (!g_probe.empty()) {
    sync.probe_in_place = std::filesystem::exists(g_probe, ec) &&
                          !std::filesystem::exists(g_probe + ".tmp", ec);
    if (sync.probe_in_place) {
      sync.probe_size = std::filesystem::file_size(g_probe, ec);
    }
  }
  g_dir_syncs.push_back(sync);
}

}  // namespace

extern "C" int fsync(int fd) {
  using Fsync = int (*)(int);
  static const Fsync next =
      reinterpret_cast<Fsync>(::dlsym(RTLD_NEXT, "fsync"));
  RecordIfDirectory(fd);
  return next(fd);
}

namespace geolic {
namespace {

namespace fs = std::filesystem;

class DirSyncTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::weakly_canonical(fs::path(testing::TestTmpDir()) /
                                ("geolic-dir-sync-" +
                                 std::to_string(::getpid())))
               .string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    Reset();
  }

  void TearDown() override {
    {
      std::lock_guard<std::mutex> lock(g_mutex);
      g_probe.clear();
    }
    fs::remove_all(dir_);
  }

  static void Reset() {
    std::lock_guard<std::mutex> lock(g_mutex);
    g_dir_syncs.clear();
  }

  static std::vector<DirSync> Taken() {
    std::lock_guard<std::mutex> lock(g_mutex);
    return g_dir_syncs;
  }

  static void Probe(const std::string& path) {
    std::lock_guard<std::mutex> lock(g_mutex);
    g_probe = path;
  }

  std::string dir_;
};

// The interposer must see a direct call, or every other case here proves
// nothing.
TEST_F(DirSyncTest, InterposerSeesDirectoryFsyncs) {
  ASSERT_TRUE(SyncParentDirectory(dir_ + "/any").ok());
  const std::vector<DirSync> syncs = Taken();
  ASSERT_EQ(syncs.size(), 1u);
  EXPECT_EQ(syncs[0].dir, dir_);
}

TEST_F(DirSyncTest, JournalNameBecomesDurableAtItsFirstSync) {
  const std::string path = dir_ + "/journal.wal";
  Result<std::unique_ptr<JournalWriter>> writer = JournalWriter::Open(path);
  ASSERT_TRUE(writer.ok()) << writer.status().message();
  EXPECT_TRUE(Taken().empty()) << "creating a journal fsynced a directory";

  // The first append syncs its frame, and with it the journal's name.
  const License usage =
      testing::MakeUsage(testing::IntervalSchema(1), "U1", {{0, 1}}, 1);
  ASSERT_TRUE((*writer)->AppendOp(1, OpRef::Issue(usage)).ok());
  std::vector<DirSync> syncs = Taken();
  ASSERT_EQ(syncs.size(), 1u);
  EXPECT_EQ(syncs[0].dir, dir_);

  Reset();
  ASSERT_TRUE((*writer)->AppendOp(2, OpRef::Issue(usage)).ok());
  ASSERT_TRUE((*writer)->Close().ok());
  EXPECT_TRUE(Taken().empty()) << "a later sync fsynced a directory again";
}

TEST_F(DirSyncTest, CheckpointPublishSyncsTheDirectoryAfterItsRename) {
  const std::string path = dir_ + "/state.ckpt";
  Probe(path);
  ASSERT_TRUE(WriteCheckpointFileDurable(CheckpointKind::kTenantSnapshot,
                                         "payload", path)
                  .ok());
  const std::vector<DirSync> syncs = Taken();
  ASSERT_EQ(syncs.size(), 1u);
  EXPECT_EQ(syncs[0].dir, dir_);
  EXPECT_TRUE(syncs[0].probe_in_place)
      << "the directory was synced before the rename";
}

MultiTenantConfig SmallTenants() {
  MultiTenantConfig config;
  config.num_tenants = 4;
  config.base.dimensions = 2;
  config.min_licenses = 2;
  config.max_licenses = 3;
  return config;
}

TEST_F(DirSyncTest, CatalogSpillSyncsTheDirectoryAfterItsRename) {
  const MultiTenantWorkload workload(SmallTenants());
  WorkloadTenantSource source(&workload);
  CatalogOptions options;
  options.dir = dir_;
  Result<std::unique_ptr<CatalogService>> catalog =
      CatalogService::Create(&source, options);
  ASSERT_TRUE(catalog.ok()) << catalog.status().message();
  Result<Workload> baseline = workload.MakeTenant(1);
  ASSERT_TRUE(baseline.ok());
  Rng rng(testing::TestSeed(7));
  ASSERT_TRUE(
      (*catalog)->TryIssue(1, workload.DrawRequest(*baseline, &rng, 1)).ok());
  // The op's journal sync made the journal's name durable.
  ASSERT_EQ(Taken().size(), 1u);
  Reset();

  Probe((*catalog)->SpillPath(1));
  ASSERT_TRUE((*catalog)->SpillTenant(1).ok());
  const std::vector<DirSync> syncs = Taken();
  ASSERT_EQ(syncs.size(), 1u);
  EXPECT_EQ(syncs[0].dir, dir_);
  EXPECT_TRUE(syncs[0].probe_in_place)
      << "the directory was synced before the rename";
  EXPECT_TRUE((*catalog)->Close().ok());
}

// Recovery re-spills every touched tenant and then truncates the journal
// on the strength of those files: one directory fsync, after the last
// rename and before the journal reopens, makes every new name durable.
TEST_F(DirSyncTest, CatalogRecoverySyncsTheDirectoryOnceBeforeTheJournal) {
  const MultiTenantWorkload workload(SmallTenants());
  WorkloadTenantSource source(&workload);
  CatalogOptions options;
  options.dir = dir_;
  constexpr uint64_t kTenants = 3;
  {
    Result<std::unique_ptr<CatalogService>> catalog =
        CatalogService::Create(&source, options);
    ASSERT_TRUE(catalog.ok()) << catalog.status().message();
    Rng rng(testing::TestSeed(8));
    for (uint64_t tenant = 1; tenant <= kTenants; ++tenant) {
      Result<Workload> baseline = workload.MakeTenant(tenant);
      ASSERT_TRUE(baseline.ok());
      ASSERT_TRUE((*catalog)
                      ->TryIssue(tenant,
                                 workload.DrawRequest(*baseline, &rng, 1))
                      .ok());
    }
    ASSERT_TRUE((*catalog)->Close().ok());
  }
  const std::string journal = dir_ + "/catalog-journal-0.wal";
  const uintmax_t journal_bytes = fs::file_size(journal);
  ASSERT_GT(journal_bytes, sizeof(kJournalMagic));

  Reset();
  Probe(journal);
  CatalogRecoveryStats stats;
  Result<std::unique_ptr<CatalogService>> recovered =
      CatalogService::Recover(&source, options, &stats);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  const std::vector<DirSync> syncs = Taken();
  EXPECT_EQ(stats.tenants_recovered, kTenants);
  ASSERT_EQ(syncs.size(), 1u) << "one directory fsync for all re-spills";
  EXPECT_EQ(syncs[0].dir, dir_);
  EXPECT_EQ(syncs[0].probe_size, journal_bytes)
      << "the directory was synced after the journal reopened";
  for (uint64_t tenant = 1; tenant <= kTenants; ++tenant) {
    EXPECT_TRUE(fs::exists((*recovered)->SpillPath(tenant))) << tenant;
  }
  EXPECT_TRUE((*recovered)->Close().ok());
}

}  // namespace
}  // namespace geolic

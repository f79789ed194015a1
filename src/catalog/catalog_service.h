#ifndef GEOLIC_CATALOG_CATALOG_SERVICE_H_
#define GEOLIC_CATALOG_CATALOG_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/tenant_source.h"
#include "core/online_validator.h"
#include "licensing/license.h"
#include "licensing/license_catalog.h"
#include "obs/exposition.h"
#include "obs/trace.h"
#include "persist/journal.h"
#include "persist/sync_file.h"
#include "service/issuance_service.h"
#include "validation/log_store.h"
#include "util/status.h"

namespace geolic {

// Multi-tenant catalog front door: one CatalogService serves millions of
// contents ("tenants"), each validated by its own IssuanceService, without
// ever holding more than a memory budget's worth of them.
//
// The paper validates one (content, permission) domain at a time; a real
// distributor holds licenses for a whole catalog of contents, of which
// only a popularity head is hot at any moment. The catalog layer exploits
// that: tenants are *compiled* lazily — the first request for a content
// materializes its baseline from the TenantSource, builds the grouping /
// instance geometry / shards, and caches the resulting service in a
// sharded LRU. When resident bytes exceed the budget, cold tenants are
// *spilled*: their evolved catalog + accepted log + epoch are written to a
// per-tenant checkpoint (persist/checkpoint.h, kind = tenant-snapshot) and
// the in-memory service is freed. Re-access reloads the spill
// transparently; decisions are bit-identical to a never-evicted twin
// (including `catalog_epoch`: the reloaded service restarts at epoch 0, so
// the catalog adds a per-tenant epoch base to every decision).
//
// Durability multiplexes every tenant onto a small pool of shared
// journals: each op appends one tenant-tagged v3 frame (tenant_id +
// per-tenant contiguous tenant_seq + the op) to the writer the tenant
// hashes to, *before* the op executes — intent logging, replayed by
// re-execution. Catalog-wide Recover parses the pool, groups frames by
// tenant, verifies routing and per-tenant seq contiguity (a misrouted
// frame fails loudly instead of replaying into the wrong tenant), rebuilds
// every touched tenant sequentially (spill + tail re-execution), re-spills
// it, and only then truncates the journals — the checkpoint-then-truncate
// cutover.
//
// Lock order (strict): tenant mutex → { LRU-shard mutex | journal-writer
// mutex } (both leaves). No code path holds two tenant mutexes, so
// eviction (which locks the victim) runs only after the requester's tenant
// mutex is released.

// Counters snapshot — the exposition section doubles as the plain stats
// carrier so bench/CI asserts read the same numbers Prometheus exports.
using CatalogStats = ExpositionInput::CatalogSection;

struct CatalogOptions {
  // Directory holding the journal pool ("catalog-journal-<k>.wal") and the
  // per-tenant spill checkpoints ("tenant-<id>.spill"). Created if absent.
  std::string dir;

  // Resident-tenant memory budget (approximate accounting: a fixed base
  // per tenant + per-license + per-record costs + the service's dense
  // equation tables). Split evenly across the
  // LRU shards; each shard always keeps at least its most recent tenant
  // resident, so the effective floor is `lru_shards` tenants.
  size_t memory_budget_bytes = 64ull << 20;

  // LRU shards (popularity cache stripes). More shards = less lock
  // contention on the hot lookup path, coarser budget enforcement.
  int lru_shards = 8;

  // Shared journal writers; tenants route by hash, so one tenant's frames
  // always land in one journal, in order.
  int journal_writers = 4;

  // Passed through to each pool writer (see persist/journal.h).
  int fsync_interval = 1;

  // Per-tenant service options (grouping, shard hint, metrics, tracer —
  // shared by every tenant service the catalog builds).
  OnlineValidatorOptions service_options;

  // Catalog-layer span sink (kCatalogCompile / kCatalogEvict); may alias
  // service_options.tracer. Must outlive the service when set.
  Tracer* tracer = nullptr;

  // Test hook: builds the SyncFile a pool journal writes through (fault
  // injection wraps PosixSyncFile in a FaultyFile). Defaults to
  // PosixSyncFile::Create(path).
  std::function<Result<std::unique_ptr<SyncFile>>(const std::string& path,
                                                  int writer_index)>
      journal_file_factory;

  // Planted bug for the sim harness's misrouting mutation: periodically
  // stamps a frame with a sibling tenant's id. Recovery must catch it.
  bool sim_misroute_frames = false;

  Status Validate() const;
};

// What catalog-wide Recover did.
struct CatalogRecoveryStats {
  size_t journal_frames = 0;       // Tenant frames parsed from the pool.
  size_t tenants_recovered = 0;    // Distinct tenants rebuilt.
  size_t frames_replayed = 0;      // Frames past each tenant's spill.
  size_t frames_skipped = 0;       // Frames a spill already covered.
  size_t replayed_rejections = 0;  // Replayed ops that (deterministically)
                                   // failed, exactly as they did live.
  size_t spill_loads = 0;          // Tenants rebuilt starting from a spill.
  size_t compiles = 0;             // Tenants rebuilt from the source alone.
  int torn_tails = 0;              // Journals ending in a torn write.
};

class CatalogService {
 public:
  // Fresh catalog: empty LRU, truncated journal pool, and any tenant
  // spill files left in a reused directory deleted — Create never
  // resurrects an earlier generation's evolved tenant state (use Recover
  // after a crash). `source` must outlive the service.
  static Result<std::unique_ptr<CatalogService>> Create(
      TenantSource* source, const CatalogOptions& options);

  // Crash recovery: rebuilds every tenant the journal pool touched (spill
  // + replay, one at a time — memory stays bounded no matter how many
  // tenants the crash left dirty), re-spills each, then opens fresh
  // journals. Tenants whose state is fully covered by their spill are left
  // cold on disk. Fails loudly on any corruption that is not a clean torn
  // tail: CRC damage, a frame in the wrong pool journal, a per-tenant
  // sequence gap or duplicate.
  static Result<std::unique_ptr<CatalogService>> Recover(
      TenantSource* source, const CatalogOptions& options,
      CatalogRecoveryStats* stats = nullptr);

  CatalogService(const CatalogService&) = delete;
  CatalogService& operator=(const CatalogService&) = delete;
  ~CatalogService();

  // --- Tenant-addressed ops (any thread) ---
  // Each op materializes the tenant if needed, journals the intent frame,
  // executes, and may evict colder tenants afterwards. A journal append
  // failure rejects the op with tenant state unchanged (the frame is
  // maybe-persisted; recovery may replay it — the documented allowance),
  // and if the failure poisoned the pool writer the catalog *fail-stops*:
  // every subsequent mutating op on every tenant is rejected with
  // FailedPrecondition until the process restarts via Recover. Limping on
  // with one dead writer would silently stop journaling the tenants that
  // hash to it — a sticky partial outage — so the whole catalog goes
  // loudly read-only instead (spills/snapshots still work; they do not
  // journal). The `poisoned_writers` stat counts poisoned writers.

  // Online admission for tenant `tenant_id`. The decision's catalog_epoch
  // is in the tenant's cumulative numbering (spill/reload-invariant).
  Result<OnlineDecision> TryIssue(uint64_t tenant_id, const License& usage);

  // Lifecycle ops, forwarded to the tenant's service (see
  // service/issuance_service.h for semantics).
  Result<int> AcquireLicense(uint64_t tenant_id, const License& license);
  Status RevokeLicenseById(uint64_t tenant_id, const std::string& id);
  Result<int> ExpireDimensionBelow(uint64_t tenant_id, int dim,
                                   int64_t cutoff);

  // Cumulative catalog epoch of a tenant (materializes it if needed).
  Result<uint64_t> TenantEpoch(uint64_t tenant_id);

  // --- Maintenance / test hooks ---

  // Forces tenant `tenant_id` out of memory through the normal spill path
  // (write checkpoint, free service). No-op if the tenant is not resident.
  Status SpillTenant(uint64_t tenant_id);

  // Point-in-time copy of a tenant's evolved state (materializes it if
  // needed): the current-epoch licenses, the accepted log, the cumulative
  // epoch, and the tenant's op counter.
  struct TenantSnapshot {
    std::vector<License> licenses;
    LogStore log;
    uint64_t epoch = 0;
    uint64_t tenant_seq = 0;
  };
  Result<TenantSnapshot> SnapshotTenant(uint64_t tenant_id);

  // Forces every pool journal to stable storage.
  Status SyncJournals();

  // Flushes and closes the journal pool. Idempotent; called by the
  // destructor best-effort.
  Status Close();

  // Counter snapshot (also embedded in Snap()).
  CatalogStats stats() const;

  // Observability snapshot: catalog counters, the shared issuance metrics
  // when options.service_options.metrics was set, and the stage profile
  // when a tracer is attached.
  ExpositionInput Snap() const;

  const CatalogOptions& options() const { return options_; }

  // Journal / spill paths (exposed so tests can corrupt them).
  std::string JournalPath(int writer_index) const;
  std::string SpillPath(uint64_t tenant_id) const;

  // The pool writer index tenant `tenant_id` routes to.
  int WriterIndexForTenant(uint64_t tenant_id) const;

 private:
  // One content's cached state. `mutex` serializes ops, materialization
  // and spill; everything below it is guarded by it.
  struct Tenant {
    explicit Tenant(uint64_t id) : tenant_id(id) {}
    const uint64_t tenant_id;
    std::mutex mutex;
    bool resident = false;
    std::unique_ptr<ConstraintSchema> schema;
    std::unique_ptr<LicenseCatalog> licenses;
    std::unique_ptr<IssuanceService> service;
    // Cumulative epochs from before the last reload: decision epochs are
    // service->catalog_epoch() + epoch_base.
    uint64_t epoch_base = 0;
    // Last journaled per-tenant op sequence (0 = none yet).
    uint64_t tenant_seq = 0;
    size_t approx_bytes = 0;
    // The part of approx_bytes charged for the service's dense equation
    // tables (IssuanceService::dense_table_bytes at the last charge).
    size_t table_bytes = 0;
  };

  struct LruShard {
    mutable std::mutex mutex;
    // All known tenants of this stripe (resident or spilled shells).
    std::unordered_map<uint64_t, std::shared_ptr<Tenant>> tenants;
    // Resident tenants only, most recent first.
    std::list<uint64_t> lru;
    std::unordered_map<uint64_t, std::list<uint64_t>::iterator> lru_pos;
    // Approximate resident bytes (atomic so the op path can grow it
    // without the shard lock).
    std::atomic<size_t> resident_bytes{0};
  };

  struct PoolWriter {
    std::mutex mutex;
    std::unique_ptr<JournalWriter> writer;  // Guarded by mutex.
    uint64_t next_seq = 0;                  // Frames appended; guarded.
    bool counted_poisoned = false;          // Health counter dedup; guarded.
  };

  CatalogService(TenantSource* source, const CatalogOptions& options);

  // Deletes every tenant-*.spill (and interrupted .spill.tmp) in `dir` —
  // Create's fresh-catalog guarantee for reused directories.
  static Status RemoveSpillFiles(const std::string& dir);

  // Truncates and opens the journal pool; flips journaling on.
  Status OpenJournals();

  LruShard& ShardFor(uint64_t tenant_id);
  PoolWriter& WriterFor(uint64_t tenant_id);

  // Fetches (or creates) the tenant entry; shard lock only.
  std::shared_ptr<Tenant> GetTenant(uint64_t tenant_id);

  // Makes `tenant` resident (spill reload or first-touch compile) and
  // registers it with its LRU shard. Caller holds tenant->mutex.
  Status EnsureResidentLocked(Tenant* tenant);

  // Re-charges a resident tenant's dense equation tables after a
  // reconfiguration, which resizes them when groups merge or split.
  // Caller holds tenant->mutex.
  void ChargeTablesLocked(Tenant* tenant);

  // Builds the tenant's in-memory state from a spill payload. Caller holds
  // tenant->mutex.
  Status LoadSpillLocked(Tenant* tenant, const std::string& payload);

  // Builds the tenant's in-memory state from the source baseline. Caller
  // holds tenant->mutex.
  Status CompileLocked(Tenant* tenant);

  // Appends the intent frame for the op about to execute; advances
  // tenant->tenant_seq on success. Caller holds tenant->mutex and fills
  // every frame field except tenant_id / tenant_seq. A failure that
  // poisoned the pool writer fail-stops the catalog.
  Status JournalOpLocked(Tenant* tenant, TenantOpFrame* frame);

  // Non-OK once the catalog has fail-stopped (a pool writer poisoned);
  // mutating ops check it on entry.
  Status CheckAcceptingOps() const;

  // Records `pool`'s writer as poisoned (once) and fail-stops the
  // catalog. Caller holds pool.mutex.
  void NotePoisonedWriterLocked(PoolWriter& pool);

  // Writes the spill checkpoint and frees the tenant's in-memory state.
  // Caller holds tenant->mutex. `evicting` selects the evict vs explicit
  // spill counters/trace stage.
  Status SpillLocked(Tenant* tenant, bool evicting);

  // Serializes a resident tenant's state into a spill payload. Caller
  // holds tenant->mutex.
  Result<std::string> EncodeSpillLocked(const Tenant& tenant) const;

  // Moves `tenant_id` to its shard's LRU front (must be resident).
  void TouchLru(LruShard& shard, uint64_t tenant_id);

  // Spills LRU-tail tenants of `shard` until it fits its budget slice
  // (always keeping one resident). Never called with a tenant mutex held.
  void MaybeEvict(LruShard& shard);

  // Replays one journaled op during recovery (no journaling). Caller holds
  // tenant->mutex; deterministic op-level failures are counted, not
  // errors.
  Status ReplayOpLocked(Tenant* tenant, const TenantOpFrame& frame,
                        CatalogRecoveryStats* stats);

  TenantSource* source_;
  CatalogOptions options_;
  size_t shard_budget_bytes_ = 0;  // memory_budget_bytes / lru_shards.
  bool journaling_enabled_ = false;
  // Fail-stop latch: set when any pool writer poisons, never cleared —
  // recovery builds a new service.
  std::atomic<bool> failed_{false};
  std::vector<std::unique_ptr<LruShard>> shards_;
  std::vector<std::unique_ptr<PoolWriter>> writers_;

  // Counters (CatalogStats is the snapshot form).
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> compiles_{0};
  std::atomic<uint64_t> loads_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> spills_{0};
  std::atomic<uint64_t> recovered_tenants_{0};
  std::atomic<uint64_t> journal_frames_{0};
  std::atomic<uint64_t> resident_tenants_{0};
  std::atomic<uint64_t> poisoned_writers_{0};
};

}  // namespace geolic

#endif  // GEOLIC_CATALOG_CATALOG_SERVICE_H_

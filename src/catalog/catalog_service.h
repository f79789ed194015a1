#ifndef GEOLIC_CATALOG_CATALOG_SERVICE_H_
#define GEOLIC_CATALOG_CATALOG_SERVICE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/tenant_source.h"
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
// instance geometry / equation tables, and caches the resulting service
// in an LRU. When resident bytes exceed the budget, cold tenants are
// *spilled*: their evolved catalog + accepted log + epoch are written to a
// per-tenant checkpoint (persist/checkpoint.h, kind = tenant-snapshot) and
// the in-memory service is freed. Re-access reloads the spill
// transparently; decisions are bit-identical to a never-evicted twin
// (including `catalog_epoch`: the reloaded service continues at the
// spilled epoch).
//
// Durability multiplexes every tenant onto one journal: each op that
// succeeds appends one tenant-tagged frame (tenant_id + per-tenant
// contiguous tenant_seq + the op) at its tenant service's write-ahead
// point, before the state changes. Recover parses the journal, groups
// frames by tenant, verifies per-tenant seq contiguity (a lost, duplicated
// or forged frame fails loudly instead of replaying into a tenant),
// rebuilds every touched tenant sequentially (spill + strict tail
// re-execution), re-spills it, and only then truncates the journal — the
// checkpoint-then-truncate cutover.
//
// One mutex guards the whole catalog — the resident tenants, the LRU, the
// counters and the journal — and every public call holds it throughout,
// so each call is one serial step of its tenant's ReferenceModel and the
// journal's frame order is the lock order.

// Counters snapshot — the exposition section doubles as the plain stats
// carrier so bench/CI asserts read the same numbers Prometheus exports.
using CatalogStats = ExpositionInput::CatalogSection;

struct CatalogOptions {
  // Directory holding the journal ("catalog-journal-0.wal") and the
  // per-tenant spill checkpoints ("tenant-<id>.spill"). Created if absent.
  std::string dir;

  // Resident-tenant memory budget (approximate accounting: a fixed base
  // per tenant + per-license + per-record costs + the service's dense
  // equation tables). The most recently used tenant always stays
  // resident, so the floor is one tenant.
  size_t memory_budget_bytes = 64ull << 20;

  // Per-tenant service options (grouping, metrics, tracer —
  // shared by every tenant service the catalog builds).
  OnlineValidatorOptions service_options;

  // Catalog-layer span sink (kCatalogCompile / kCatalogEvict); may alias
  // service_options.tracer. Must outlive the service when set.
  Tracer* tracer = nullptr;

  // Test hook: builds the SyncFile the journal writes through (fault
  // injection wraps PosixSyncFile in a FaultyFile). The index is always
  // 0. Defaults to PosixSyncFile::Create(path).
  std::function<Result<std::unique_ptr<SyncFile>>(const std::string& path,
                                                  int writer_index)>
      journal_file_factory;

  Status Validate() const;
};

// What catalog-wide Recover did.
struct CatalogRecoveryStats {
  size_t journal_frames = 0;       // Tenant frames parsed from the journal.
  size_t tenants_recovered = 0;    // Distinct tenants rebuilt.
  size_t frames_replayed = 0;      // Frames past each tenant's spill.
  size_t frames_skipped = 0;       // Frames a spill already covered.
  int torn_tails = 0;              // 1 when the journal ends in a torn write.
};

class CatalogService {
 public:
  // Fresh catalog: empty LRU, truncated journal, and any tenant spill
  // files and stale catalog-journal-<k>.wal (k >= 1) left in a reused
  // directory deleted — Create never resurrects an earlier generation's
  // evolved tenant state (use Recover after a crash). `source` must
  // outlive the service.
  static Result<std::unique_ptr<CatalogService>> Create(
      TenantSource* source, const CatalogOptions& options);

  // Crash recovery: rebuilds every tenant the journal touched (spill +
  // replay, one at a time — memory stays bounded no matter how many
  // tenants the crash left dirty), re-spills each, then opens a fresh
  // journal. Tenants whose state is fully covered by their spill are left
  // cold on disk. Fails loudly on any corruption that is not a clean torn
  // tail: CRC damage, a per-tenant sequence gap or duplicate, a journal
  // resuming past a spill, a frame that does not replay as it ran live —
  // and on a catalog-journal-<k>.wal with k >= 1, whose acknowledged ops
  // this catalog would otherwise ignore.
  static Result<std::unique_ptr<CatalogService>> Recover(
      TenantSource* source, const CatalogOptions& options,
      CatalogRecoveryStats* stats = nullptr);

  CatalogService(const CatalogService&) = delete;
  CatalogService& operator=(const CatalogService&) = delete;
  ~CatalogService();

  // --- Tenant-addressed ops (any thread) ---
  // Each op materializes the tenant if needed, runs (journaling itself if
  // it succeeds), and may evict colder tenants afterwards. A journal
  // append failure rejects the op with tenant state unchanged (the frame
  // is maybe-persisted; recovery may replay it — the documented
  // allowance), and if the failure poisoned the journal writer the catalog
  // *fail-stops*: every subsequent mutating op on every tenant is rejected
  // with FailedPrecondition until the process restarts via Recover
  // (spills/snapshots still work; they do not journal). The
  // `poisoned_writers` stat is then 1.

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

  // Closes the journal (every acknowledged op is already durable).
  // Idempotent; called by the destructor best-effort.
  Status Close();

  // Counter snapshot (also embedded in Snap()).
  CatalogStats stats() const;

  // Observability snapshot: catalog counters, the shared issuance metrics
  // when options.service_options.metrics was set, and the stage profile
  // when a tracer is attached.
  ExpositionInput Snap() const;

  const CatalogOptions& options() const { return options_; }

  // Journal / spill paths (exposed so tests can corrupt them).
  std::string JournalPath() const;
  std::string SpillPath(uint64_t tenant_id) const;

 private:
  // One resident content's state.
  struct Tenant {
    std::unique_ptr<ConstraintSchema> schema;
    // Owns the tenant's catalog (built over `schema`); its epoch is the
    // tenant's cumulative epoch (a reload continues it).
    std::unique_ptr<IssuanceService> service;
    // Last journaled per-tenant op sequence (0 = none yet). A spill
    // carries it as its covered_seq.
    uint64_t tenant_seq = 0;
    size_t approx_bytes = 0;
    // The part of approx_bytes charged for the service's dense equation
    // tables (IssuanceService::dense_table_bytes at the last charge).
    size_t table_bytes = 0;
    // The tenant's entry in lru_.
    std::list<uint64_t>::iterator lru_pos;
  };

  CatalogService(TenantSource* source, const CatalogOptions& options);

  // Methods suffixed Locked run with mutex_ held.

  // Truncates and opens the journal.
  Status OpenJournal();

  // Makes `tenant_id` resident (spill reload or first-touch compile) and
  // moves it to the LRU front; with the journal open, its service
  // journals through JournalOpLocked.
  Result<Tenant*> EnsureResidentLocked(uint64_t tenant_id);

  // Re-charges a resident tenant's dense equation tables after a
  // reconfiguration, which resizes them when groups merge or split.
  void ChargeTablesLocked(Tenant* tenant);

  // Builds a tenant's in-memory state from a spill payload; returns how
  // many records it loaded.
  Result<size_t> LoadSpill(uint64_t tenant_id, const std::string& payload,
                           Tenant* tenant);

  // Builds a tenant's in-memory state from the source baseline.
  Status Compile(uint64_t tenant_id, Tenant* tenant);

  // A resident tenant's journal sink, run under mutex_ (which the op
  // holds): appends `op` under the tenant's next op sequence; advances
  // tenant->tenant_seq on success. A failure that poisoned the writer
  // fail-stops the catalog.
  Status JournalOpLocked(uint64_t tenant_id, Tenant* tenant, const OpRef& op);

  // Non-OK once the catalog has fail-stopped (the writer poisoned) or
  // closed its journal; mutating ops check it on entry.
  Status CheckAcceptingOpsLocked() const;

  // Publishes the spill checkpoint (PublishCheckpointFile) and frees the
  // tenant's in-memory state. No-op if the tenant is not resident.
  // `evicting` selects the evict vs explicit spill counters/trace stage.
  // The caller makes the rename durable with SyncParentDirectory: a live
  // spill right after it, recovery once after all of its re-spills.
  Status SpillLocked(uint64_t tenant_id, bool evicting);

  // Runs `op` on the resident tenant `tenant_id` (materializing it), then
  // evicts down to the budget whether or not the op succeeded.
  template <typename Op>
  auto OnTenantLocked(uint64_t tenant_id, Op op) -> decltype(op(nullptr));

  // Spills LRU-tail tenants until the residents fit the budget, always
  // keeping the most recent one.
  void MaybeEvictLocked();

  TenantSource* const source_;
  const CatalogOptions options_;

  // Guards everything below.
  mutable std::mutex mutex_;
  // Resident tenants only: a spilled tenant lives in its spill file.
  std::unordered_map<uint64_t, Tenant> tenants_;
  // Resident tenant ids, most recent first.
  std::list<uint64_t> lru_;
  size_t resident_bytes_ = 0;  // Sum of the residents' approx_bytes.
  std::unique_ptr<JournalWriter> journal_;
  uint64_t journal_seq_ = 0;  // Frames appended to journal_.
  // Fail-stop latch: set when the writer poisons, never cleared —
  // recovery builds a new service.
  bool failed_ = false;

  // Counters; stats() fills in the gauges (resident tenants and bytes,
  // poisoned writers).
  CatalogStats counters_;
};

}  // namespace geolic

#endif  // GEOLIC_CATALOG_CATALOG_SERVICE_H_

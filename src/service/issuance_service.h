#ifndef GEOLIC_SERVICE_ISSUANCE_SERVICE_H_
#define GEOLIC_SERVICE_ISSUANCE_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/dynamic_grouping.h"
#include "core/grouping.h"
#include "core/instance_validator.h"
#include "core/online_validator.h"
#include "licensing/license_catalog.h"
#include "obs/exposition.h"
#include "obs/trace.h"
#include "persist/journal.h"
#include "validation/flat_tree.h"
#include "validation/log_store.h"
#include "validation/validation_tree.h"
#include "util/date.h"
#include "util/metrics.h"
#include "util/status.h"

namespace geolic {

// Largest equation scope (an overlap group, or the whole catalog without
// grouping) whose admission equations IssuanceService answers from dense
// tables: two 2^N-entry int64 tables, 64 KiB at the cap. Larger scopes
// fall back to the shard's pointer validation tree. The cap is the largest
// N at which building the tables (at Create, every reconfiguration and
// Recover) costs no more time or memory than the tree, even for a short
// history: at N = 13 a reconfiguration over 64 records is already 1.4×
// slower (EXPERIMENTS.md, "Dense table cap").
inline constexpr int kMaxDenseGroupSize = 12;
static_assert(kMaxDenseGroupSize < 32, "local masks are uint32_t");

// What IssuanceService::Recover reconstructed the state from.
struct RecoveryStats {
  size_t checkpoint_records = 0;         // Records loaded from the checkpoint.
  size_t journal_records_replayed = 0;   // Journal frames past the checkpoint.
  size_t journal_records_skipped = 0;    // Frames the checkpoint already covers.
  size_t reconfig_records_replayed = 0;  // Acquire/revoke/expire frames applied
                                         // to the catalog evolution (covered or
                                         // not — all are needed for indexes).
  uint64_t recovered_catalog_epoch = 0;  // Final epoch in the journal's
                                         // numbering (the recovered service
                                         // itself restarts at epoch 0).
  bool journal_torn_tail = false;        // Journal ended in a torn write.
};

// Thread-safe online admission for one (content, permission) domain — the
// concurrent counterpart of OnlineValidator.
//
// The paper's grouping result doubles as a sharding theorem: licenses in
// different overlap groups share no validation equations (Theorem 2), so
// issuances whose satisfying sets fall in different groups can admit fully
// in parallel with no coordination. The service therefore splits the
// running validation tree and log into per-overlap-group shards, each
// guarded by its own mutex; a request only ever locks the one shard its
// satisfying set lives in.
//
// Admission state per overlap group: a group of at most kMaxDenseGroupSize
// licenses keeps two dense tables indexed by the group-local mask (paper
// Algorithm 5's order-preserving positions) — A[T], fixed per epoch, and
// C⟨T⟩, updated under the shard lock. An issuance with satisfying set S
// checks its 2^(N_g−k) equations as one ascending pass over the supersets
// of S in the table, and an acceptance adds its count along the same
// pass. Larger groups keep the pointer validation tree and its
// per-equation subset walk.
//
// Live license lifecycle (paper Figure 6 + Algorithms 4–5): the catalog,
// grouping, instance geometry and shard map together form one immutable
// `CatalogEpoch`, published through an atomic shared_ptr. AcquireLicense /
// RevokeLicense / ExpireBefore build the next epoch off to the side —
// re-dividing the accepted records into the new overlap groups and
// renumbering license indexes densely past a removal, then rebuilding the
// groups' tables (one zeta transform each) — then publish it with a single
// atomic swap and mark the old epoch retired. Issuance never stops:
// readers pin the current epoch (a shared_ptr ref, no lock) for the
// instance fast-reject, and an admission that finds its pinned epoch
// retired after taking the shard lock simply re-pins and retries against
// the new shard map. The retired epoch is freed when its last in-flight
// reader drains (the shared_ptr count).
//
// Concurrency contract:
//  * TryIssue / TryIssueBatch are safe to call from any number of threads,
//    including concurrently with the lifecycle calls.
//  * The instance-based fast-reject path is lock-free: the satisfying-set
//    lookup reads only the pinned epoch's immutable geometry.
//  * Lifecycle calls serialize against each other (one reconfiguration at
//    a time) but never against the admission fast path.
//  * CollectLog / CollectTree lock shards one at a time and return
//    snapshots; they can run concurrently with issuance (the snapshot is a
//    consistent prefix per shard, not a cross-shard instant).
//  * Accessors (licenses, grouping, shard_count) read the current epoch;
//    the references they return are valid until the next reconfiguration.
//
// Admissions are linearized per shard, so for any interleaving the final
// tree/log equal a serial replay of the accepted set (order within a shard
// is the shard's admission order; cross-shard order is immaterial because
// the shards share no equations). A reconfiguration linearizes at its
// publish point: admissions before it are carried into the new epoch
// (renumbered, with records touching a removed license cascade-dropped),
// admissions after it run against the new catalog.
class IssuanceService {
 public:
  // `licenses` must be non-empty and outlive the service; so must
  // `options.metrics` when set. options.use_grouping=false degrades to a
  // single shard covering all licenses (every admission serializes — the
  // baseline the concurrency ablation measures against);
  // options.shard_hint caps the number of lock shards (groups are striped
  // over min(hint, group_count) mutexes).
  static Result<std::unique_ptr<IssuanceService>> Create(
      const LicenseCatalog* licenses, const OnlineValidatorOptions& options = {});

  // Pre-loads already-validated issuances (not re-checked) into the
  // shards, as OnlineValidator::CreateWithHistory does.
  static Result<std::unique_ptr<IssuanceService>> CreateWithHistory(
      const LicenseCatalog* licenses, const OnlineValidatorOptions& options,
      const LogStore& history);

  // Rebuilds a service from a crash: the newest checkpoint (may be empty —
  // journal-only recovery) plus the journal tail past it (may be empty —
  // checkpoint-only). Frames the checkpoint already covers are skipped; a
  // torn final frame (crash mid-append, never acknowledged as synced) is
  // dropped; any other journal or checkpoint corruption fails loudly with
  // the bad frame's byte offset.
  //
  // Reconfiguration frames replay in sequence with admissions: `licenses`
  // must be the catalog the journal started from (epoch 0), and each
  // acquire/revoke/expire frame evolves it — renumbering and cascade-
  // dropping the accumulated records exactly as the live service did — so
  // recovery lands on the post-reconfiguration catalog. A v3 checkpoint
  // carries the epoch it covers, which must match the journal's
  // reconfiguration history up to the covered sequence. The recovered
  // service owns its evolved catalog and restarts at epoch 0 (its catalog
  // is the new baseline; RecoveryStats reports the journal-space epoch).
  //
  // The rebuilt state is verified against a serial replay of the combined
  // record sequence before returning — the result is the exact pre-crash
  // accepted set or an error, never silently wrong. The recovered service
  // has no journal attached; call AttachJournal with a fresh journal file
  // to resume durable admission.
  static Result<std::unique_ptr<IssuanceService>> Recover(
      const LicenseCatalog* licenses, const OnlineValidatorOptions& options,
      const std::string& checkpoint_path, const std::string& journal_path,
      RecoveryStats* stats = nullptr);

  IssuanceService(const IssuanceService&) = delete;
  IssuanceService& operator=(const IssuanceService&) = delete;

  // Validates one issuance and records it when accepted. Identical
  // decision semantics to OnlineValidator::TryIssue. The decision carries
  // the catalog epoch it was made against.
  Result<OnlineDecision> TryIssue(const License& issued);

  // Admits a batch, returning decisions in input order. Requests are
  // processed shard-by-shard (one lock acquisition per shard touched, not
  // per request); within a shard the batch's relative order is preserved,
  // so the decisions equal a sequential TryIssue loop over the batch. If a
  // reconfiguration lands mid-batch, the not-yet-admitted remainder
  // retries against the new epoch — decisions then carry mixed epochs.
  Result<std::vector<OnlineDecision>> TryIssueBatch(
      const std::vector<License>& batch);

  // Allocation-free variant: identical decision semantics, but the caller
  // owns the decision storage (`decisions.size() >= batch.size()`; entries
  // are overwritten) and all batch scratch comes from the calling thread's
  // RequestArena — after warmup the steady state performs no heap
  // allocation (see docs/DESIGN.md, "Arena lifetime rules").
  Status TryIssueBatch(std::span<const License> batch,
                       std::span<OnlineDecision> decisions);

  // Pointer-batch intake for callers whose requests are not contiguous —
  // the network front-end (net/server.h) batches requests popped from its
  // admission queue without copying the licenses into a dense array.
  // Same semantics and arena discipline as the span form above.
  Status TryIssueBatch(std::span<const License* const> batch,
                       std::span<OnlineDecision> decisions);

  // --- Live license lifecycle (one reconfiguration at a time) ---

  // Adds `license` to the running catalog; returns its index in the new
  // epoch (always the highest — existing indexes are unchanged by an
  // acquisition). The license must match the catalog's content key,
  // permission, type and dimensionality, and carry a unique id. The
  // overlap grouping updates incrementally (DynamicGrouping); if the
  // newcomer bridges groups, their shards merge in the new epoch.
  Result<int> AcquireLicense(const License& license);

  // Removes the license at `index` (current-epoch index). Cascade
  // semantics: every recorded issuance whose satisfying set contains the
  // revoked license is dropped from the validation state — usage granted
  // under a revoked right is revoked with it. Surviving records renumber
  // densely (indexes above `index` shift down, paper Algorithm 5).
  // Rejects removing the last license.
  Status RevokeLicense(int index);

  // Id-addressed form: resolves `id` to its current-epoch index under the
  // reconfiguration lock, so the caller cannot race a concurrent
  // reconfiguration that renumbers indexes between lookup and revoke.
  // Fails with NotFound when no license carries `id`.
  Status RevokeLicenseById(const std::string& id);

  // Revokes every license whose validity-period dimension ends strictly
  // before `cutoff` — the schema's first date-formatted interval dimension
  // — and returns how many were removed (0 = no-op, no epoch change).
  // Fails if the schema has no date dimension or if every license would
  // expire.
  Result<int> ExpireBefore(Date cutoff);

  // Generalized form: expires licenses whose interval in dimension `dim`
  // ends strictly below `cutoff` (any ordered dimension, e.g. an integer
  // version range).
  Result<int> ExpireDimensionBelow(int dim, int64_t cutoff);

  // Reconfigurations applied over this service's lifetime. 0 at
  // construction; each successful acquire/revoke/expire increments it.
  uint64_t catalog_epoch() const;

  // Snapshot of all accepted issuances, shard by shard (within a shard:
  // admission order). Feedable to the offline validators; equal as a
  // multiset to any serial replay of the accepted set.
  LogStore CollectLog() const;

  // Snapshot of the combined validation tree, rebuilt offline from the
  // shard logs (admission keeps no pointer tree for dense groups).
  Result<ValidationTree> CollectTree() const;

  // The same snapshot compiled into the offline hot-path form: audits of a
  // running service should query this flat, pruning-aware arena
  // (validation/flat_tree.h) instead of walking pointers.
  Result<FlatValidationTree> CollectFlatTree() const;

  // Turns on write-ahead journaling: every subsequently accepted issuance
  // is framed and appended to `journal` before the shard's in-memory state
  // changes or the decision returns, so a crash can never have accepted an
  // issuance the journal does not know. Reconfigurations journal the same
  // way (frame first, publish second). A journal append failure rejects
  // the admission or reconfiguration with all state unchanged.
  // Must be called before issuance traffic starts (it is not synchronized
  // against in-flight TryIssue calls) and before any reconfiguration (the
  // journal must cover the catalog's evolution from epoch 0); fails if a
  // journal is already attached or frames were already written to this
  // journal.
  Status AttachJournal(std::unique_ptr<JournalWriter> journal);

  // Forces every journaled frame to stable storage (for fsync_interval
  // batching); no-op without a journal.
  Status SyncJournal();

  bool has_journal() const {
    return has_journal_.load(std::memory_order_acquire);
  }

  // Sequence number of the last journaled frame (0 = none yet).
  uint64_t journal_sequence() const;

  // Atomically snapshots the full accepted set plus the journal sequence
  // and catalog epoch it covers into a v2 checkpoint file
  // (persist/checkpoint.h, kind = service-snapshot, v3 payload). Takes
  // every shard lock (in index order) and the journal lock, so the cut is
  // exact: recovery from this checkpoint plus the same journal's tail
  // reproduces the state byte-for-byte. Safe to call while issuance
  // traffic and reconfigurations are running.
  Status WriteCheckpoint(const std::string& path) const;

  // Current-epoch views; the references stay valid until the next
  // reconfiguration retires the epoch (plus reader drain).
  const LicenseCatalog& licenses() const;
  const LicenseGrouping& grouping() const;
  const OnlineValidatorOptions& options() const { return options_; }
  int shard_count() const;
  // Bytes of the current epoch's dense equation tables: 16·2^N_g for each
  // group of at most kMaxDenseGroupSize licenses. A reconfiguration holds
  // a second epoch's tables until the old epoch's readers drain.
  size_t dense_table_bytes() const;

  // Pre-sizes every current shard's log record table for
  // `records_per_shard` appends, so steady-state admission never regrows
  // it. Call before issuance traffic starts (not synchronized against
  // in-flight requests); shards built by a later reconfiguration size
  // themselves from the records they inherit.
  void ReserveLogCapacity(size_t records_per_shard);

  // Decision counters and latency histogram. Points at options.metrics
  // when that was set, else at a service-owned block.
  const IssuanceMetrics& metrics() const { return *metrics_; }

  // Point-in-time observability snapshot, ready for the obs exposition
  // renderers: decision counters + request latency, the per-stage profile
  // when a tracer is attached (options.tracer), and the journal sequence
  // when a journal is. Safe to call concurrently with issuance traffic.
  // Recovery counters are per-Recover-call (RecoveryStats); callers merge
  // them into the returned input themselves.
  ExpositionInput Snap() const;

 private:
  struct Shard {
    std::mutex mutex;
    // Accepted sets of the shard's above-cap groups only (dense groups
    // keep theirs in the epoch's C⟨T⟩ tables). Masks in the owning epoch's
    // license indexes.
    ValidationTree tree;
    LogStore log;  // Every accepted record of the shard's groups.
  };

  // The licenses one issuance's equations range over: an overlap group,
  // or the whole catalog without grouping. Scopes of at most
  // kMaxDenseGroupSize licenses carry dense tables indexed by local mask
  // (CatalogEpoch::LocalMask): `aggregates[T]` = A[T], immutable, and
  // `sums[T]` = C⟨T⟩, written only under the owning shard's mutex. Both
  // are null above the cap, where the shard's pointer tree answers
  // instead.
  struct EquationScope {
    LicenseSet mask;
    int group = -1;  // Overlap group; -1 for the whole catalog.
    int size = 0;    // Licenses in the scope.
    const int64_t* aggregates = nullptr;
    int64_t* sums = nullptr;

    bool dense() const { return sums != nullptr; }
    size_t entries() const { return size_t{1} << size; }
    uint32_t full_local() const { return (uint32_t{1} << size) - 1; }
  };

  // One immutable generation of the catalog + derived admission state.
  // Everything here is fixed at build time except the shard contents
  // (guarded by the shard mutexes) and the retirement flag.
  struct CatalogEpoch {
    CatalogEpoch(const LicenseCatalog* catalog_in,
                 std::unique_ptr<LicenseCatalog> owned,
                 LicenseGrouping grouping_in)
        : owned_catalog(std::move(owned)),
          catalog(catalog_in),
          grouping(std::move(grouping_in)),
          instance(catalog_in) {}

    uint64_t epoch = 0;
    // Epoch 0 borrows the caller's catalog (owned_catalog null); every
    // later epoch owns the catalog it was built from.
    std::unique_ptr<LicenseCatalog> owned_catalog;
    const LicenseCatalog* catalog;
    LicenseGrouping grouping;
    SoaInstanceValidator instance;  // Immutable ⇒ lock-free.
    // Equation scopes, one per overlap group (one for the whole catalog
    // without grouping) — built once so the hot path hands out references
    // instead of copying a LicenseSet (which may heap-allocate) per
    // request.
    std::vector<EquationScope> scopes;
    // Every dense scope's A and C tables, in one allocation.
    std::unique_ptr<int64_t[]> dense_tables;
    size_t dense_table_bytes = 0;
    LicenseSet all_mask;
    std::vector<std::unique_ptr<Shard>> shards;
    // Set (under every shard lock) when a newer epoch replaces this one.
    // An admission that observes it after locking re-pins and retries;
    // the publish order (state_ first, retired second) guarantees the
    // retry sees the new epoch.
    mutable std::atomic<bool> retired{false};

    // License index at bit `position` of `scope`'s local masks: Algorithm
    // 5's order-preserving numbering within a group, the identity for the
    // whole catalog.
    int Member(const EquationScope& scope, int position) const {
      return scope.group < 0 ? position
                             : grouping.OriginalIndexOf(scope.group, position);
    }
    // `set` (which must lie in dense `scope`) as the scope's local mask.
    uint32_t LocalMask(const EquationScope& scope, const LicenseSet& set) const;
    // `s` plus the licenses at the set bits of `local` (maps a local
    // equation mask back to license indexes).
    LicenseSet WithLocal(const EquationScope& scope, LicenseSet s,
                         uint32_t local) const;
  };

  // What one reconfiguration does, in current-epoch index space.
  struct ReconfigPlan {
    const License* acquire = nullptr;  // Non-null: acquisition.
    LicenseSet removed;                // Revoke/expire: indexes to drop.
    // Journal frame fields.
    int revoke_index = -1;
    std::string revoke_id;
    int expire_dim = -1;
    int64_t expire_cutoff = 0;
  };

  IssuanceService(const LicenseCatalog* licenses,
                  const OnlineValidatorOptions& options,
                  std::shared_ptr<CatalogEpoch> epoch0);

  static Result<std::unique_ptr<IssuanceService>> CreateOwned(
      const LicenseCatalog* licenses, std::unique_ptr<LicenseCatalog> owned,
      const OnlineValidatorOptions& options, const LogStore& history);

  // Assembles a fully-derived epoch (shards, scopes, instance geometry,
  // A tables) around `catalog`, with empty C tables — the publish step is
  // the caller's.
  static std::shared_ptr<CatalogEpoch> BuildEpoch(
      const OnlineValidatorOptions& options, uint64_t epoch_number,
      const LicenseCatalog* catalog, std::unique_ptr<LicenseCatalog> owned,
      LicenseGrouping grouping);

  // Routes one record into `epoch`'s shards (scope-checked log append,
  // plus a tree insert or a point-add to a dense scope's exact per-set
  // histogram). Caller owns exclusivity: history preload at construction,
  // off-side epoch build, or the catch-up under every old shard lock.
  Status ApplyRecordToEpoch(CatalogEpoch* epoch,
                            const LogRecord& record) const;

  // Turns every dense scope's histogram C[S] into C⟨T⟩ (one zeta
  // transform each). Runs once per epoch, after the last
  // ApplyRecordToEpoch and before the epoch serves admissions.
  static void FinishEpochTables(const CatalogEpoch& epoch);

  // Recover's cross-check against `serial`, a replay of the recovered
  // records built independently of the service: every dense C⟨T⟩ must
  // equal the sum of the replay's counts over subsets of T, and every
  // shard's tree the replay's above-cap sets routed to it.
  Status CheckAgainstReplay(const ValidationTree& serial) const;

  // The shared reconfiguration path (caller holds reconfig_mutex_): builds
  // the next epoch from `plan`, journals it, publishes, retires. Returns
  // the acquired index or the removed count.
  Result<int> ReconfigureLocked(const ReconfigPlan& plan);

  // Validates and executes a single-index revocation. Caller holds
  // reconfig_mutex_, so `index` is stable in the current epoch.
  Status RevokeIndexLocked(int index);

  std::shared_ptr<const CatalogEpoch> Pin() const {
    return state_.load(std::memory_order_acquire);
  }

  // Equation scope for satisfying set `s` within `epoch` (its group, or
  // the full catalog without grouping), plus the owning shard index. The
  // returned reference aliases a scope precomputed at epoch build — no
  // copy, valid for the epoch's lifetime.
  const EquationScope& RouteSet(const CatalogEpoch& epoch, const LicenseSet& s,
                                size_t* shard) const;
  // Equation check + table/tree/log update for one request. Caller holds
  // `shard.mutex` on a shard of `epoch`. `decision` already carries the
  // satisfying set; `trace` collects the equation-scan and journal-append
  // spans (never null — pass a RequestTrace built from a null tracer to
  // run untraced).
  Status AdmitLocked(const CatalogEpoch& epoch, Shard* shard,
                     const License& issued, const EquationScope& scope,
                     OnlineDecision* decision, RequestTrace* trace);

  OnlineValidatorOptions options_;
  // The current epoch. Readers pin with a plain atomic load (shared_ptr
  // refcount = reader count); Reconfigure is the only writer.
  std::atomic<std::shared_ptr<const CatalogEpoch>> state_;
  // Serializes reconfigurations and guards dyn_grouping_. Lock order:
  // reconfig_mutex_ → shard mutexes (index order) → journal_mutex_.
  mutable std::mutex reconfig_mutex_;
  // Incremental overlap components, mirrored into each epoch's grouping.
  DynamicGrouping dyn_grouping_;
  IssuanceMetrics owned_metrics_;
  IssuanceMetrics* metrics_;  // == options_.metrics or &owned_metrics_.
  std::atomic<int64_t> issue_sequence_{0};

  // Write-ahead journal. `has_journal_` gates the accept path so services
  // without a journal never touch `journal_mutex_` (the sharded fast path
  // stays lock-disjoint across groups). Lock order: shard mutex(es), then
  // journal_mutex_ — AdmitLocked, Reconfigure and WriteCheckpoint all
  // follow it.
  std::atomic<bool> has_journal_{false};
  mutable std::mutex journal_mutex_;
  std::unique_ptr<JournalWriter> journal_;  // Guarded by journal_mutex_.
  uint64_t journal_seq_ = 0;                // Guarded by journal_mutex_.
};

}  // namespace geolic

#endif  // GEOLIC_SERVICE_ISSUANCE_SERVICE_H_

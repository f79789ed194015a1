#include "service/issuance_service.h"

#include <algorithm>
#include <array>
#include <bit>
#include <sstream>
#include <string>
#include <utility>

#include "persist/checkpoint.h"
#include "util/check.h"
#include "util/request_arena.h"
#include "util/stopwatch.h"
#include "validation/validate.h"

namespace geolic {
namespace {

// Cooperative suspension point for the simulation harness; a no-op branch
// in production (hooks are null). Call sites must hold no locks.
inline void SimYield(const OnlineValidatorOptions& options,
                     const char* point) {
  if (options.sim_hooks != nullptr) {
    options.sim_hooks->Yield(point);
  }
}

// table[T] += count for every local mask T with local ⊆ T ⊆ full, in
// ascending order: `sub` walks the subsets of the free bits
// ((sub − free) & free).
void AddToSupersets(int64_t* table, uint32_t local, uint32_t full,
                    int64_t count) {
  const uint32_t free = full & ~local;
  for (uint32_t sub = 0;; sub = (sub - free) & free) {
    table[local | sub] += count;
    if (sub == free) {
      return;
    }
  }
}

// Request timer that reads the simulation's virtual clock when hooks are
// installed (making latency metrics a deterministic function of the seed)
// and the monotonic wall clock otherwise.
class RequestTimer {
 public:
  explicit RequestTimer(SimHooks* hooks)
      : hooks_(hooks), sim_start_(hooks != nullptr ? hooks->NowNanos() : 0) {}

  int64_t ElapsedNanos() const {
    if (hooks_ != nullptr) {
      return static_cast<int64_t>(hooks_->NowNanos() - sim_start_);
    }
    return real_.ElapsedNanos();
  }

 private:
  SimHooks* hooks_;
  uint64_t sim_start_;
  Stopwatch real_;
};

// First u64 of a v3 service-checkpoint payload. A legacy payload starts
// with the covered journal sequence, which can never be 2^64-1, so the
// sentinel cleanly separates the two layouts.
constexpr uint64_t kCheckpointV3Sentinel = ~uint64_t{0};
constexpr uint32_t kCheckpointV3Version = 3;

// Upper end of an ordered constraint range (for a multi-interval: the last
// piece's hi — pieces are kept sorted and disjoint).
Result<int64_t> OrderedHi(const ConstraintRange& range) {
  if (range.is_interval()) {
    return range.interval().hi();
  }
  if (range.is_multi_interval() &&
      range.multi_interval().piece_count() > 0) {
    return range.multi_interval().pieces().back().hi();
  }
  return Status::InvalidArgument(
      "expiry needs an ordered (interval) dimension");
}

// Ascending indexes of the licenses whose `dim` range ends strictly below
// `cutoff` — the expiry rule, shared between the live path and journal
// replay so the two can never disagree.
Result<std::vector<int>> ComputeExpired(const std::vector<License>& active,
                                        int dim, int64_t cutoff) {
  std::vector<int> expired;
  for (size_t i = 0; i < active.size(); ++i) {
    const HyperRect& rect = active[i].rect();
    if (dim < 0 || dim >= rect.dimensions()) {
      return Status::OutOfRange("expiry dimension out of range");
    }
    GEOLIC_ASSIGN_OR_RETURN(const int64_t hi, OrderedHi(rect.dim(dim)));
    if (hi < cutoff) {
      expired.push_back(static_cast<int>(i));
    }
  }
  return expired;
}

// Carries one pre-reconfiguration record into the next epoch's index
// space: dropped (returns false) when its set touches a removed license —
// usage granted under a revoked right is revoked with it — otherwise
// renumbered densely through `old_to_new` (paper Algorithm 5).
// `skip_renumbering` is the planted lifecycle bug for the simulation
// harness's mutation smoke: survivors keep their stale bit positions.
bool RemapRecord(const LicenseSet& removed, const std::vector<int>& old_to_new,
                 bool skip_renumbering, LogRecord* record) {
  if (record->set.Intersects(removed)) {
    return false;
  }
  if (removed.Empty() || skip_renumbering) {
    return true;  // Acquisition (or the planted bug): indexes unchanged.
  }
  LicenseSet renumbered;
  for (int i : record->set.Indexes()) {
    renumbered.Add(old_to_new[static_cast<size_t>(i)]);
  }
  record->set = renumbered;
  return true;
}

// How one journaled reconfiguration transforms license indexes.
struct CatalogEvolution {
  LicenseSet removed;           // Old-space indexes dropped (empty: acquire).
  std::vector<int> old_to_new;  // Surviving old index → new index, else -1.
};

// Applies one reconfiguration frame to the evolving catalog `active`,
// cross-checking the frame against what the live service would have done.
// Admission frames are not accepted here.
Status EvolveCatalog(const JournalEntry& entry, std::vector<License>* active,
                     CatalogEvolution* evolution) {
  evolution->removed = LicenseSet();
  evolution->old_to_new.clear();
  const int old_size = static_cast<int>(active->size());
  switch (entry.kind) {
    case JournalEntryKind::kAdmission:
      return Status::Internal("admission frame is not a reconfiguration");
    case JournalEntryKind::kTenantOp:
      // Tenant-tagged frames belong to the multi-tenant catalog's shared
      // journals (catalog/catalog_service.h), never to a single service's
      // own WAL.
      return Status::ParseError(
          "tenant-tagged frame in a single-service journal");
    case JournalEntryKind::kAcquire:
      evolution->old_to_new.reserve(static_cast<size_t>(old_size));
      for (int i = 0; i < old_size; ++i) {
        evolution->old_to_new.push_back(i);
      }
      active->push_back(*entry.acquired);
      return Status::Ok();
    case JournalEntryKind::kRevoke: {
      if (entry.revoked_index < 0 || entry.revoked_index >= old_size) {
        return Status::ParseError("revoke frame index out of range");
      }
      const License& victim =
          (*active)[static_cast<size_t>(entry.revoked_index)];
      if (victim.id() != entry.revoked_id) {
        return Status::ParseError(
            "revoke frame id disagrees with the catalog evolution");
      }
      evolution->removed.Add(entry.revoked_index);
      break;
    }
    case JournalEntryKind::kExpire: {
      GEOLIC_ASSIGN_OR_RETURN(
          const std::vector<int> expired,
          ComputeExpired(*active, entry.expire_dim, entry.expire_cutoff));
      if (expired.empty()) {
        // The live service never journals a no-op expiry.
        return Status::ParseError("expire frame removed no licenses");
      }
      if (expired != entry.expired_indexes) {
        return Status::ParseError(
            "expire frame's removed set disagrees with the catalog evolution");
      }
      for (int i : expired) {
        evolution->removed.Add(i);
      }
      break;
    }
  }
  if (evolution->removed.Size() >= old_size) {
    return Status::ParseError(
        "reconfiguration frame would empty the catalog");
  }
  evolution->old_to_new.reserve(static_cast<size_t>(old_size));
  int next = 0;
  for (int i = 0; i < old_size; ++i) {
    evolution->old_to_new.push_back(
        evolution->removed.Contains(i) ? -1 : next++);
  }
  std::vector<License> survivors;
  survivors.reserve(static_cast<size_t>(old_size) -
                    static_cast<size_t>(evolution->removed.Size()));
  for (int i = 0; i < old_size; ++i) {
    if (!evolution->removed.Contains(i)) {
      survivors.push_back(std::move((*active)[static_cast<size_t>(i)]));
    }
  }
  *active = std::move(survivors);
  return Status::Ok();
}

}  // namespace

IssuanceService::IssuanceService(const LicenseCatalog* licenses,
                                 const OnlineValidatorOptions& options,
                                 std::shared_ptr<CatalogEpoch> epoch0)
    : options_(options),
      dyn_grouping_(licenses->schema().dimensions() > 0
                        ? DynamicGrouping(licenses->schema().dimensions())
                        : DynamicGrouping()),
      metrics_(options.metrics != nullptr ? options.metrics : &owned_metrics_) {
  // Mirror the catalog into the incremental grouping — the structure later
  // reconfigurations update in place. Within a catalog every license
  // shares content and permission, so rectangle overlap is license
  // overlap and the components match FromLicenses exactly.
  for (const License& license : licenses->licenses()) {
    const Result<int> added = dyn_grouping_.AddLicense(license.rect());
    GEOLIC_CHECK(added.ok());
  }
  state_.store(std::move(epoch0), std::memory_order_release);
}

std::shared_ptr<IssuanceService::CatalogEpoch> IssuanceService::BuildEpoch(
    const OnlineValidatorOptions& options, uint64_t epoch_number,
    const LicenseCatalog* catalog, std::unique_ptr<LicenseCatalog> owned,
    LicenseGrouping grouping) {
  auto epoch = std::make_shared<CatalogEpoch>(catalog, std::move(owned),
                                              std::move(grouping));
  epoch->epoch = epoch_number;
  int shard_count = 1;
  if (options.use_grouping) {
    shard_count = epoch->grouping.group_count();
    if (options.shard_hint > 0) {
      shard_count = std::min(shard_count, options.shard_hint);
    }
    shard_count = std::max(shard_count, 1);
  }
  epoch->shards.reserve(static_cast<size_t>(shard_count));
  for (int s = 0; s < shard_count; ++s) {
    epoch->shards.push_back(std::make_unique<Shard>());
  }
  // Precompute every equation scope once: RouteSet hands out references
  // into these, so the per-request path never copies a LicenseSet.
  const LicenseGrouping& groups = epoch->grouping;
  epoch->all_mask = catalog->AllMask();
  if (options.use_grouping) {
    epoch->scopes.reserve(static_cast<size_t>(groups.group_count()));
    for (int g = 0; g < groups.group_count(); ++g) {
      epoch->scopes.push_back({groups.GroupMask(g), g, groups.GroupSize(g)});
    }
  } else {
    epoch->scopes.push_back({epoch->all_mask, -1, catalog->size()});
  }
  size_t table_entries = 0;
  for (const EquationScope& scope : epoch->scopes) {
    if (scope.size <= kMaxDenseGroupSize) {
      table_entries += 2 * scope.entries();  // A and C.
    }
  }
  epoch->dense_tables = std::make_unique<int64_t[]>(table_entries);
  epoch->dense_table_bytes = table_entries * sizeof(int64_t);
  int64_t* next_table = epoch->dense_tables.get();
  for (EquationScope& scope : epoch->scopes) {
    if (scope.size > kMaxDenseGroupSize) {
      continue;
    }
    const size_t entries = scope.entries();
    std::array<int64_t, kMaxDenseGroupSize> aggregates{};
    for (int p = 0; p < scope.size; ++p) {
      aggregates[static_cast<size_t>(p)] =
          catalog->at(epoch->Member(scope, p)).aggregate_count();
    }
    FillAggregateTable(
        std::span<const int64_t>(aggregates.data(),
                                 static_cast<size_t>(scope.size)),
        std::span<int64_t>(next_table, entries));
    scope.aggregates = next_table;
    scope.sums = next_table + entries;  // C = 0 until records arrive.
    next_table += 2 * entries;
  }
  return epoch;
}

uint32_t IssuanceService::CatalogEpoch::LocalMask(
    const EquationScope& scope, const LicenseSet& set) const {
  if (scope.group < 0) {
    return static_cast<uint32_t>(set.Word(0));
  }
  uint32_t local = 0;
  for (int i : set.Indexes()) {
    local |= uint32_t{1} << grouping.PositionOf(i);
  }
  return local;
}

LicenseSet IssuanceService::CatalogEpoch::WithLocal(const EquationScope& scope,
                                                    LicenseSet s,
                                                    uint32_t local) const {
  for (; local != 0; local &= local - 1) {
    s.Add(Member(scope, std::countr_zero(local)));
  }
  return s;
}

void IssuanceService::FinishEpochTables(const CatalogEpoch& epoch) {
  for (const EquationScope& scope : epoch.scopes) {
    if (scope.dense()) {
      ZetaTransform(std::span<int64_t>(scope.sums, scope.entries()));
    }
  }
}

Result<std::unique_ptr<IssuanceService>> IssuanceService::Create(
    const LicenseCatalog* licenses, const OnlineValidatorOptions& options) {
  return CreateOwned(licenses, nullptr, options, LogStore());
}

Result<std::unique_ptr<IssuanceService>> IssuanceService::CreateWithHistory(
    const LicenseCatalog* licenses, const OnlineValidatorOptions& options,
    const LogStore& history) {
  return CreateOwned(licenses, nullptr, options, history);
}

Result<std::unique_ptr<IssuanceService>> IssuanceService::CreateOwned(
    const LicenseCatalog* licenses, std::unique_ptr<LicenseCatalog> owned,
    const OnlineValidatorOptions& options, const LogStore& history) {
  if (licenses == nullptr || licenses->empty()) {
    return Status::InvalidArgument(
        "issuance service needs at least one redistribution license");
  }
  std::shared_ptr<CatalogEpoch> epoch0 =
      BuildEpoch(options, 0, licenses, std::move(owned),
                 LicenseGrouping::FromLicenses(*licenses));
  // Not make_unique: the constructor is private.
  std::unique_ptr<IssuanceService> service(
      new IssuanceService(licenses, options, epoch0));
  // Pre-load the history through the same routing the admission path uses
  // (records of already-validated issuances — they are not re-checked).
  for (const LogRecord& record : history.records()) {
    GEOLIC_RETURN_IF_ERROR(service->ApplyRecordToEpoch(epoch0.get(), record));
    service->issue_sequence_.fetch_add(1, std::memory_order_relaxed);
  }
  FinishEpochTables(*epoch0);
  return service;
}

Status IssuanceService::ApplyRecordToEpoch(CatalogEpoch* epoch,
                                           const LogRecord& record) const {
  if (!record.set.IsSubsetOf(epoch->all_mask)) {
    return Status::InvalidArgument(
        "history record references unknown license indexes");
  }
  size_t shard_index = 0;
  const EquationScope& scope = RouteSet(*epoch, record.set, &shard_index);
  if (!record.set.IsSubsetOf(scope.mask)) {
    // Satisfying sets always lie within one overlap group (every member
    // contains the issued rectangle, so they pairwise overlap); a record
    // spanning groups cannot have come from a valid issuance.
    return Status::InvalidArgument("history record spans overlap groups");
  }
  Shard* shard = epoch->shards[shard_index].get();
  // The append validates the record (non-empty set, positive count).
  GEOLIC_RETURN_IF_ERROR(shard->log.Append(record));
  if (scope.dense()) {
    // The exact histogram C[S]; FinishEpochTables makes it C⟨T⟩.
    scope.sums[epoch->LocalMask(scope, record.set)] += record.count;
    return Status::Ok();
  }
  return shard->tree.Insert(record.set, record.count);
}

const IssuanceService::EquationScope& IssuanceService::RouteSet(
    const CatalogEpoch& epoch, const LicenseSet& s, size_t* shard) const {
  if (options_.use_grouping) {
    const int group = epoch.grouping.GroupOf(s.Lowest());
    *shard = static_cast<size_t>(group) % epoch.shards.size();
    return epoch.scopes[static_cast<size_t>(group)];
  }
  *shard = 0;
  return epoch.scopes[0];
}

Status IssuanceService::AdmitLocked(const CatalogEpoch& epoch, Shard* shard,
                                    const License& issued,
                                    const EquationScope& scope,
                                    OnlineDecision* decision,
                                    RequestTrace* trace) {
  const LicenseSet& s = decision->satisfying_set;
  const int64_t count = issued.aggregate_count();
  GEOLIC_DCHECK(s.IsSubsetOf(scope.mask));

  // Check every equation T with S ⊆ T ⊆ scope, in ascending order: its LHS
  // gains `count`. The final T is the whole scope — where the planted bug
  // for the simulation harness's mutation smoke mode stops early, so an
  // issuance that only that equation would reject slips through.
  decision->aggregate_valid = true;
  const uint32_t local = scope.dense() ? epoch.LocalMask(scope, s) : 0;
  const uint32_t free = scope.dense() ? scope.full_local() & ~local : 0;
  {
    ScopedStageTimer stage(trace, TraceStage::kEquationScan);
    if (scope.dense()) {
      // Supersets of S as local masks: `sub` walks the subsets of the
      // free bits in ascending order ((sub − free) & free).
      for (uint32_t sub = 0;; sub = (sub - free) & free) {
        if (sub == free && options_.sim_skip_last_equation) {
          break;
        }
        const int64_t cv = scope.sums[local | sub] + count;
        const int64_t av = scope.aggregates[local | sub];
        ++decision->equations_checked;
        if (cv > av) {
          decision->aggregate_valid = false;
          decision->limiting =
              EquationResult{epoch.WithLocal(scope, s, sub), cv, av};
          return Status::Ok();
        }
        if (sub == free) {
          break;
        }
      }
    } else {
      for (AscendingSubsetIterator it(scope.mask - s); !it.Done();
           it.Next()) {
        if (it.AtLast() && options_.sim_skip_last_equation) {
          break;
        }
        const LicenseSet t = s | it.subset();
        const int64_t cv = shard->tree.SumSubsets(t) + count;
        const int64_t av = epoch.catalog->AggregateSum(t);
        ++decision->equations_checked;
        if (cv > av) {
          decision->aggregate_valid = false;
          decision->limiting = EquationResult{t, cv, av};
          return Status::Ok();
        }
      }
    }
  }

  // Accepted. Write-ahead order: the framed record reaches the journal
  // before any in-memory state changes, so a crash can never leave the
  // tree/log knowing an issuance the journal does not. A journal failure
  // rejects the admission with all state unchanged.
  LogRecord record;
  record.issued_license_id =
      issued.id().empty()
          ? "LU" + std::to_string(
                issue_sequence_.fetch_add(1, std::memory_order_relaxed) + 1)
          : issued.id();
  record.set = s;
  record.count = count;
  if (has_journal_.load(std::memory_order_acquire)) {
    ScopedStageTimer stage(trace, TraceStage::kJournalAppend);
    std::lock_guard<std::mutex> lock(journal_mutex_);
    GEOLIC_RETURN_IF_ERROR(journal_->Append(journal_seq_ + 1, record));
    ++journal_seq_;
  }
  if (scope.dense()) {
    AddToSupersets(scope.sums, local, scope.full_local(), count);
  } else {
    GEOLIC_RETURN_IF_ERROR(shard->tree.Insert(s, count));
  }
  GEOLIC_RETURN_IF_ERROR(shard->log.Append(std::move(record)));
  return Status::Ok();
}

Result<OnlineDecision> IssuanceService::TryIssue(const License& issued) {
  RequestTimer timer(options_.sim_hooks);
  if (issued.aggregate_count() <= 0) {
    return Status::InvalidArgument(
        "issued license must carry a positive count");
  }
  OnlineDecision decision;
  RequestTrace trace(options_.tracer);
  for (;;) {
    // Pin the current epoch: the shared_ptr refcount is the reader count a
    // retiring reconfiguration waits out. Lock-free fast-reject — the
    // pinned geometry is immutable, so the satisfying-set lookup needs no
    // shard lock.
    const std::shared_ptr<const CatalogEpoch> epoch = Pin();
    decision = OnlineDecision();
    decision.catalog_epoch = epoch->epoch;
    {
      ScopedStageTimer stage(&trace, TraceStage::kInstanceSoaScan);
      decision.satisfying_set = epoch->instance.SatisfyingSet(issued);
    }
    if (decision.satisfying_set.Empty()) {
      metrics_->RecordRejectedInstance(timer.ElapsedNanos());
      trace.Finish(TraceOutcome::kRejectedInstance);
      return decision;  // Fails instance-based validation; nothing recorded.
    }
    decision.instance_valid = true;
    SimYield(options_, "instance_checked");

    size_t shard_index = 0;
    const EquationScope& scope = RouteSet(*epoch, decision.satisfying_set,
                                          &shard_index);
    Shard* shard = epoch->shards[shard_index].get();
    SimYield(options_, "pre_shard_lock");
    std::unique_lock<std::mutex> lock(shard->mutex, std::defer_lock);
    {
      ScopedStageTimer stage(&trace, TraceStage::kShardLockWait);
      lock.lock();
    }
    if (epoch->retired.load(std::memory_order_acquire)) {
      // A reconfiguration replaced this epoch between pin and lock: the
      // satisfying set and routing are stale. The publish order (new state
      // first, retired flag second) guarantees the re-pin sees the new
      // epoch — retry against it.
      continue;
    }
    const Status admitted = AdmitLocked(*epoch, shard, issued, scope,
                                        &decision, &trace);
    if (!admitted.ok()) {
      trace.Finish(TraceOutcome::kError);
      return admitted;
    }
    break;
  }
  if (decision.aggregate_valid) {
    metrics_->RecordAccepted(decision.equations_checked, timer.ElapsedNanos());
    trace.Finish(TraceOutcome::kAccepted);
  } else {
    metrics_->RecordRejectedAggregate(decision.equations_checked,
                                      timer.ElapsedNanos());
    trace.Finish(TraceOutcome::kRejectedAggregate);
  }
  return decision;
}

Result<std::vector<OnlineDecision>> IssuanceService::TryIssueBatch(
    const std::vector<License>& batch) {
  std::vector<OnlineDecision> decisions(batch.size());
  GEOLIC_RETURN_IF_ERROR(TryIssueBatch(std::span<const License>(batch),
                                       std::span<OnlineDecision>(decisions)));
  return decisions;
}

Status IssuanceService::TryIssueBatch(std::span<const License> batch,
                                      std::span<OnlineDecision> decisions) {
  // Thin shim over the pointer form: the pointer array is arena scratch,
  // so this stays allocation-free after warmup.
  RequestArena& arena = ThreadLocalRequestArena();
  const ArenaScope scratch(&arena);
  const License** pointers =
      arena.AllocateArray<const License*>(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    pointers[i] = &batch[i];
  }
  return TryIssueBatch(
      std::span<const License* const>(pointers, batch.size()), decisions);
}

Status IssuanceService::TryIssueBatch(std::span<const License* const> batch,
                                      std::span<OnlineDecision> decisions) {
  GEOLIC_DCHECK(decisions.size() >= batch.size());
  RequestTimer timer(options_.sim_hooks);
  metrics_->RecordBatch(batch.size());
  for (const License* issued : batch) {
    if (issued->aggregate_count() <= 0) {
      return Status::InvalidArgument(
          "issued license must carry a positive count");
    }
  }

  // Batch scratch lives in the calling thread's request arena and is
  // released wholesale when the call returns — zero heap traffic after the
  // arena's first-use warmup.
  RequestArena& arena = ThreadLocalRequestArena();
  const ArenaScope scratch(&arena);

  // Requests still awaiting a decision. A round processes all of them
  // against one pinned epoch; if a reconfiguration retires that epoch
  // mid-round, the unadmitted remainder re-routes against the new one.
  size_t* todo = arena.AllocateArray<size_t>(batch.size());
  size_t todo_count = batch.size();
  for (size_t i = 0; i < batch.size(); ++i) {
    todo[i] = i;
  }

  struct Pending {
    size_t shard;
    size_t index;
  };
  while (todo_count > 0) {
    const std::shared_ptr<const CatalogEpoch> epoch = Pin();

    // Pass 1, lock-free: satisfying sets, instance rejects, shard routing.
    // Scopes are routed per admission in pass 2 (a reference lookup, not a
    // copy), so a pending entry stays a trivially-destructible POD the
    // arena can drop without running destructors.
    Pending* pending = arena.AllocateArray<Pending>(todo_count);
    size_t pending_count = 0;
    {
      // One standalone span for the whole lock-free pass (request_id 0):
      // the per-request work here is too fine to time individually.
      ScopedTracerSpan pass1(options_.tracer, TraceStage::kInstanceSoaScan);
      for (size_t k = 0; k < todo_count; ++k) {
        const size_t i = todo[k];
        decisions[i] = OnlineDecision();
        decisions[i].catalog_epoch = epoch->epoch;
        decisions[i].satisfying_set =
            epoch->instance.SatisfyingSet(*batch[i]);
        if (decisions[i].satisfying_set.Empty()) {
          metrics_->RecordRejectedInstance(timer.ElapsedNanos());
          continue;
        }
        decisions[i].instance_valid = true;
        size_t shard_index = 0;
        (void)RouteSet(*epoch, decisions[i].satisfying_set, &shard_index);
        pending[pending_count++] = Pending{shard_index, i};
      }
    }

    // Pass 2: group by shard so each touched shard is locked once per
    // round. Sorting by (shard, index) keeps the batch's relative order
    // within a shard — the same order a stable shard-only sort would give,
    // without stable_sort's temporary buffer — so the decisions match a
    // sequential TryIssue loop (cross-shard order cannot matter: different
    // shards share no equations).
    std::sort(pending, pending + pending_count,
              [](const Pending& a, const Pending& b) {
                return a.shard != b.shard ? a.shard < b.shard
                                          : a.index < b.index;
              });
    SimYield(options_, "batch_routed");
    size_t at = 0;
    bool epoch_retired = false;
    while (at < pending_count) {
      const size_t shard_index = pending[at].shard;
      Shard* shard = epoch->shards[shard_index].get();
      SimYield(options_, "pre_shard_lock");
      std::unique_lock<std::mutex> lock(shard->mutex, std::defer_lock);
      {
        ScopedTracerSpan wait(options_.tracer, TraceStage::kShardLockWait);
        lock.lock();
      }
      if (epoch->retired.load(std::memory_order_acquire)) {
        epoch_retired = true;
        break;
      }
      for (; at < pending_count && pending[at].shard == shard_index; ++at) {
        const Pending& p = pending[at];
        RequestTrace trace(options_.tracer);
        size_t routed_shard = 0;
        const EquationScope& scope =
            RouteSet(*epoch, decisions[p.index].satisfying_set, &routed_shard);
        const Status admitted = AdmitLocked(*epoch, shard, *batch[p.index],
                                            scope, &decisions[p.index],
                                            &trace);
        if (!admitted.ok()) {
          trace.Finish(TraceOutcome::kError);
          return admitted;
        }
        if (decisions[p.index].aggregate_valid) {
          metrics_->RecordAccepted(decisions[p.index].equations_checked,
                                   timer.ElapsedNanos());
          trace.Finish(TraceOutcome::kAccepted);
        } else {
          metrics_->RecordRejectedAggregate(
              decisions[p.index].equations_checked, timer.ElapsedNanos());
          trace.Finish(TraceOutcome::kRejectedAggregate);
        }
      }
    }
    if (!epoch_retired) {
      return Status::Ok();
    }
    // A reconfiguration landed mid-round. Decisions already finalized
    // stand (they linearized before the swap); the remainder retries
    // against the new epoch.
    size_t remaining = 0;
    for (size_t k = at; k < pending_count; ++k) {
      todo[remaining++] = pending[k].index;
    }
    todo_count = remaining;
  }
  return Status::Ok();
}

// --- Live license lifecycle ---

Result<int> IssuanceService::ReconfigureLocked(const ReconfigPlan& plan) {
  ScopedTracerSpan span(options_.tracer, TraceStage::kShardSwap);
  const std::shared_ptr<const CatalogEpoch> cur = Pin();

  // Phase 1: next catalog + incremental grouping, fully off to the side —
  // admissions keep running against `cur` throughout.
  const int old_size = cur->catalog->size();
  auto next_catalog = std::make_unique<LicenseCatalog>(&cur->catalog->schema());
  std::vector<int> old_to_new;
  old_to_new.reserve(static_cast<size_t>(old_size));
  int next_index = 0;
  for (int i = 0; i < old_size; ++i) {
    if (plan.removed.Contains(i)) {
      old_to_new.push_back(-1);
      continue;
    }
    old_to_new.push_back(next_index++);
    GEOLIC_ASSIGN_OR_RETURN(const int added,
                            next_catalog->Add(cur->catalog->at(i)));
    GEOLIC_DCHECK(added == old_to_new[static_cast<size_t>(i)]);
    (void)added;
  }
  // The grouping updates on a scratch copy, committed only on success —
  // a failed reconfiguration leaves no trace.
  DynamicGrouping next_grouping = dyn_grouping_;
  int result = 0;
  if (plan.acquire != nullptr) {
    GEOLIC_ASSIGN_OR_RETURN(result, next_catalog->Add(*plan.acquire));
    GEOLIC_ASSIGN_OR_RETURN(const int grouped,
                            next_grouping.AddLicense(plan.acquire->rect()));
    if (grouped != result) {
      return Status::Internal(
          "grouping and catalog disagree on the acquired index");
    }
  } else {
    const std::vector<int> removing = plan.removed.ToIndexes();
    result = static_cast<int>(removing.size());
    // Descending, so earlier removals don't shift the later indexes.
    for (auto it = removing.rbegin(); it != removing.rend(); ++it) {
      GEOLIC_RETURN_IF_ERROR(next_grouping.RemoveLicense(*it));
    }
  }
  const LicenseCatalog* next_catalog_ptr = next_catalog.get();
  std::shared_ptr<CatalogEpoch> next = BuildEpoch(
      options_, cur->epoch + 1, next_catalog_ptr, std::move(next_catalog),
      LicenseGrouping::FromComponents(next_grouping.Components()));

  // Phase 2: snapshot each shard's log (one lock at a time — issuance on
  // the other shards never stalls) and seed the new shards with the
  // remapped survivors, re-dividing the trees into the new overlap groups
  // (paper Algorithms 4–5). Admissions that land after a shard's snapshot
  // are caught up in phase 3.
  std::vector<size_t> snapshotted(cur->shards.size(), 0);
  for (size_t s = 0; s < cur->shards.size(); ++s) {
    Shard* shard = cur->shards[s].get();
    std::lock_guard<std::mutex> lock(shard->mutex);
    snapshotted[s] = shard->log.size();
    for (size_t r = 0; r < snapshotted[s]; ++r) {
      LogRecord record = shard->log.records()[r];
      if (!RemapRecord(plan.removed, old_to_new,
                       options_.sim_skip_renumbering, &record)) {
        continue;
      }
      GEOLIC_RETURN_IF_ERROR(ApplyRecordToEpoch(next.get(), record));
    }
  }

  // Phase 3: catch-up, journal, publish — under every current shard lock
  // (index order) and then the journal lock, the same order the admission
  // path uses, so no admission is in flight half-applied while we cut
  // over and none can start against the old epoch after we publish.
  std::vector<std::unique_lock<std::mutex>> shard_locks;
  shard_locks.reserve(cur->shards.size());
  for (const std::unique_ptr<Shard>& shard : cur->shards) {
    shard_locks.emplace_back(shard->mutex);
  }
  for (size_t s = 0; s < cur->shards.size(); ++s) {
    const std::vector<LogRecord>& records = cur->shards[s]->log.records();
    for (size_t r = snapshotted[s]; r < records.size(); ++r) {
      LogRecord record = records[r];
      if (!RemapRecord(plan.removed, old_to_new,
                       options_.sim_skip_renumbering, &record)) {
        continue;
      }
      GEOLIC_RETURN_IF_ERROR(ApplyRecordToEpoch(next.get(), record));
    }
  }
  FinishEpochTables(*next);
  if (has_journal_.load(std::memory_order_acquire)) {
    // Write-ahead: the reconfiguration frame reaches the journal before
    // the new epoch publishes; a journal failure aborts the whole
    // reconfiguration with the old epoch untouched.
    std::lock_guard<std::mutex> journal_lock(journal_mutex_);
    if (plan.acquire != nullptr) {
      GEOLIC_RETURN_IF_ERROR(
          journal_->AppendAcquire(journal_seq_ + 1, *plan.acquire));
    } else if (plan.expire_dim >= 0) {
      GEOLIC_RETURN_IF_ERROR(
          journal_->AppendExpire(journal_seq_ + 1, plan.expire_dim,
                                 plan.expire_cutoff, plan.removed.ToIndexes()));
    } else {
      GEOLIC_RETURN_IF_ERROR(journal_->AppendRevoke(
          journal_seq_ + 1, plan.revoke_index, plan.revoke_id));
    }
    ++journal_seq_;
  }
  // Publish, then retire — in this order: a reader that finds its pinned
  // epoch retired is guaranteed to observe the new state on re-pin. The
  // old epoch's memory is reclaimed when its last in-flight reader drops
  // its pin (the shared_ptr count).
  state_.store(std::shared_ptr<const CatalogEpoch>(next),
               std::memory_order_release);
  cur->retired.store(true, std::memory_order_release);
  dyn_grouping_ = std::move(next_grouping);
  return result;
}

Result<int> IssuanceService::AcquireLicense(const License& license) {
  SimYield(options_, "pre_reconfig");
  std::lock_guard<std::mutex> reconfig_lock(reconfig_mutex_);
  ReconfigPlan plan;
  plan.acquire = &license;
  return ReconfigureLocked(plan);
}

Status IssuanceService::RevokeLicense(int index) {
  SimYield(options_, "pre_reconfig");
  std::lock_guard<std::mutex> reconfig_lock(reconfig_mutex_);
  return RevokeIndexLocked(index);
}

Status IssuanceService::RevokeLicenseById(const std::string& id) {
  SimYield(options_, "pre_reconfig");
  std::lock_guard<std::mutex> reconfig_lock(reconfig_mutex_);
  const Result<int> index = Pin()->catalog->IndexOfId(id);
  if (!index.ok()) {
    return index.status();
  }
  return RevokeIndexLocked(*index);
}

Status IssuanceService::RevokeIndexLocked(int index) {
  const std::shared_ptr<const CatalogEpoch> cur = Pin();
  if (index < 0 || index >= cur->catalog->size()) {
    return Status::OutOfRange("revoke index out of range");
  }
  if (cur->catalog->size() == 1) {
    // An empty catalog has nothing to route or validate against.
    return Status::FailedPrecondition("cannot revoke the last license");
  }
  ReconfigPlan plan;
  plan.removed.Add(index);
  plan.revoke_index = index;
  plan.revoke_id = cur->catalog->at(index).id();
  return ReconfigureLocked(plan).status();
}

Result<int> IssuanceService::ExpireDimensionBelow(int dim, int64_t cutoff) {
  SimYield(options_, "pre_reconfig");
  std::lock_guard<std::mutex> reconfig_lock(reconfig_mutex_);
  const std::shared_ptr<const CatalogEpoch> cur = Pin();
  GEOLIC_ASSIGN_OR_RETURN(const std::vector<int> expired,
                          ComputeExpired(cur->catalog->licenses(), dim,
                                         cutoff));
  if (expired.empty()) {
    return 0;  // Nothing expires: no epoch change, no journal frame.
  }
  if (static_cast<int>(expired.size()) == cur->catalog->size()) {
    return Status::FailedPrecondition("expiry would remove every license");
  }
  ReconfigPlan plan;
  for (int i : expired) {
    plan.removed.Add(i);
  }
  plan.expire_dim = dim;
  plan.expire_cutoff = cutoff;
  return ReconfigureLocked(plan);
}

Result<int> IssuanceService::ExpireBefore(Date cutoff) {
  // The schema is shared by every epoch, so reading it unpinned is safe.
  const ConstraintSchema& schema = Pin()->catalog->schema();
  for (int dim = 0; dim < schema.dimensions(); ++dim) {
    if (schema.kind(dim) == DimensionKind::kInterval &&
        schema.format(dim) == IntervalFormat::kDate) {
      return ExpireDimensionBelow(dim, cutoff.day_number());
    }
  }
  return Status::InvalidArgument(
      "schema has no date dimension to expire against");
}

uint64_t IssuanceService::catalog_epoch() const { return Pin()->epoch; }

const LicenseCatalog& IssuanceService::licenses() const {
  return *Pin()->catalog;
}

const LicenseGrouping& IssuanceService::grouping() const {
  return Pin()->grouping;
}

int IssuanceService::shard_count() const {
  return static_cast<int>(Pin()->shards.size());
}

size_t IssuanceService::dense_table_bytes() const {
  return Pin()->dense_table_bytes;
}

void IssuanceService::ReserveLogCapacity(size_t records_per_shard) {
  const std::shared_ptr<const CatalogEpoch> epoch = Pin();
  for (const std::unique_ptr<Shard>& shard : epoch->shards) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    shard->log.Reserve(records_per_shard);
  }
}

LogStore IssuanceService::CollectLog() const {
  const std::shared_ptr<const CatalogEpoch> epoch = Pin();
  LogStore merged;
  for (const std::unique_ptr<Shard>& shard : epoch->shards) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    for (const LogRecord& record : shard->log.records()) {
      // Append only fails on empty sets / nonpositive counts, which the
      // admission path already rejected.
      Status append_status = merged.Append(record);
      (void)append_status;
    }
  }
  return merged;
}

Result<ValidationTree> IssuanceService::CollectTree() const {
  const std::shared_ptr<const CatalogEpoch> epoch = Pin();
  ValidationTree merged;
  for (const std::unique_ptr<Shard>& shard : epoch->shards) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    for (const LogRecord& record : shard->log.records()) {
      GEOLIC_RETURN_IF_ERROR(merged.Insert(record.set, record.count));
    }
  }
  return merged;
}

Result<FlatValidationTree> IssuanceService::CollectFlatTree() const {
  GEOLIC_ASSIGN_OR_RETURN(const ValidationTree merged, CollectTree());
  return FlatValidationTree::Compile(merged);
}

Status IssuanceService::AttachJournal(std::unique_ptr<JournalWriter> journal) {
  if (journal == nullptr) {
    return Status::InvalidArgument("cannot attach a null journal");
  }
  if (journal->frames_appended() != 0) {
    return Status::InvalidArgument(
        "journal already carries frames; attach a fresh journal file");
  }
  if (Pin()->epoch != 0) {
    // Replay needs the journal to cover every reconfiguration since the
    // construction-time catalog; attaching after one would leave a gap no
    // recovery could bridge.
    return Status::FailedPrecondition(
        "attach the journal before any catalog reconfiguration");
  }
  std::lock_guard<std::mutex> lock(journal_mutex_);
  if (journal_ != nullptr) {
    return Status::FailedPrecondition("a journal is already attached");
  }
  journal_ = std::move(journal);
  journal_->set_tracer(options_.tracer);
  journal_seq_ = 0;
  has_journal_.store(true, std::memory_order_release);
  return Status::Ok();
}

Status IssuanceService::SyncJournal() {
  std::lock_guard<std::mutex> lock(journal_mutex_);
  if (journal_ == nullptr) {
    return Status::Ok();
  }
  return journal_->Sync();
}

uint64_t IssuanceService::journal_sequence() const {
  std::lock_guard<std::mutex> lock(journal_mutex_);
  return journal_seq_;
}

ExpositionInput IssuanceService::Snap() const {
  ExpositionInput input;
  input.metrics = metrics_->Snap();
  if (options_.tracer != nullptr) {
    input.has_stages = true;
    input.stages = options_.tracer->ProfileSnapshot();
  }
  if (has_journal()) {
    input.has_journal = true;
    input.journal_sequence = journal_sequence();
  }
  return input;
}

Status IssuanceService::WriteCheckpoint(const std::string& path) const {
  ScopedTracerSpan span(options_.tracer, TraceStage::kCheckpointWrite);
  SimYield(options_, "pre_checkpoint");
  for (;;) {
    // Exact cut: every shard lock in index order, then the journal lock —
    // the same order AdmitLocked and ReconfigureLocked use, so no
    // admission can be half-applied (journaled but not yet in its shard)
    // while we read. A reconfiguration that won the race retires our
    // pinned epoch before we got the locks; detect that and retry against
    // the published epoch, whose shards hold the carried-over records.
    const std::shared_ptr<const CatalogEpoch> epoch = Pin();
    std::vector<std::unique_lock<std::mutex>> shard_locks;
    shard_locks.reserve(epoch->shards.size());
    for (const std::unique_ptr<Shard>& shard : epoch->shards) {
      shard_locks.emplace_back(shard->mutex);
    }
    if (epoch->retired.load(std::memory_order_acquire)) {
      continue;
    }
    std::lock_guard<std::mutex> journal_lock(journal_mutex_);

    LogStore merged;
    for (const std::unique_ptr<Shard>& shard : epoch->shards) {
      for (const LogRecord& record : shard->log.records()) {
        GEOLIC_RETURN_IF_ERROR(merged.Append(record));
      }
    }
    // v3 payload: sentinel, version, the catalog epoch the records are
    // numbered in, the journal sequence this snapshot covers, then the
    // record table. Recovery replays only journal frames with seq >
    // covered — and checks the epoch tag against the journal's
    // reconfiguration history up to that point.
    std::ostringstream body;
    const uint64_t sentinel = kCheckpointV3Sentinel;
    body.write(reinterpret_cast<const char*>(&sentinel), sizeof(sentinel));
    const uint32_t version = kCheckpointV3Version;
    body.write(reinterpret_cast<const char*>(&version), sizeof(version));
    const uint64_t epoch_number = epoch->epoch;
    body.write(reinterpret_cast<const char*>(&epoch_number),
               sizeof(epoch_number));
    const uint64_t covered_seq = journal_seq_;
    body.write(reinterpret_cast<const char*>(&covered_seq),
               sizeof(covered_seq));
    merged.SerializeRecords(&body);
    return WriteCheckpointFile(CheckpointKind::kServiceSnapshot, body.str(),
                               path);
  }
}

Status IssuanceService::CheckAgainstReplay(
    const ValidationTree& serial) const {
  const std::shared_ptr<const CatalogEpoch> epoch = Pin();
  // Route the replay's sets as admissions would: an above-cap set into the
  // tree its shard should hold, a dense-scope set along its supersets into
  // the C⟨T⟩ table its scope should hold. The local mask comes from the
  // scope's members rather than LocalMask, and no zeta transform runs, so
  // the expectation shares no code with how recovery built the tables.
  std::vector<ValidationTree> expected_trees(epoch->shards.size());
  std::vector<std::vector<int64_t>> expected_sums(epoch->scopes.size());
  for (size_t g = 0; g < epoch->scopes.size(); ++g) {
    if (epoch->scopes[g].dense()) {
      expected_sums[g].resize(epoch->scopes[g].entries());
    }
  }
  Status status = Status::Ok();
  serial.ForEachSet([&](const LicenseSet& set, int64_t count) {
    size_t shard = 0;
    const EquationScope& scope = RouteSet(*epoch, set, &shard);
    if (!status.ok()) {
      return;
    }
    if (!scope.dense()) {
      status = expected_trees[shard].Insert(set, count);
      return;
    }
    uint32_t local = 0;
    for (int p = 0; p < scope.size; ++p) {
      if (set.Contains(epoch->Member(scope, p))) {
        local |= uint32_t{1} << p;
      }
    }
    AddToSupersets(
        expected_sums[static_cast<size_t>(&scope - epoch->scopes.data())]
            .data(),
        local, scope.full_local(), count);
  });
  GEOLIC_RETURN_IF_ERROR(status);
  for (size_t s = 0; s < epoch->shards.size(); ++s) {
    Shard* shard = epoch->shards[s].get();
    std::lock_guard<std::mutex> lock(shard->mutex);
    if (shard->tree.ToString() != expected_trees[s].ToString() ||
        shard->tree.TotalCount() != expected_trees[s].TotalCount()) {
      return Status::Internal(
          "recovered shard tree diverges from a serial replay");
    }
  }
  for (size_t g = 0; g < epoch->scopes.size(); ++g) {
    const EquationScope& scope = epoch->scopes[g];
    if (!scope.dense()) {
      continue;
    }
    std::lock_guard<std::mutex> lock(
        epoch->shards[g % epoch->shards.size()]->mutex);
    if (!std::equal(expected_sums[g].begin(), expected_sums[g].end(),
                    scope.sums)) {
      return Status::Internal(
          "recovered equation table diverges from a serial replay");
    }
  }
  return Status::Ok();
}

Result<std::unique_ptr<IssuanceService>> IssuanceService::Recover(
    const LicenseCatalog* licenses, const OnlineValidatorOptions& options,
    const std::string& checkpoint_path, const std::string& journal_path,
    RecoveryStats* stats) {
  if (checkpoint_path.empty() && journal_path.empty()) {
    return Status::InvalidArgument(
        "recovery needs a checkpoint path, a journal path, or both");
  }
  if (licenses == nullptr || licenses->empty()) {
    return Status::InvalidArgument(
        "recovery needs the catalog the journal started from");
  }
  ScopedTracerSpan span(options.tracer, TraceStage::kRecoveryReplay);
  RecoveryStats local;
  uint64_t covered_seq = 0;
  uint64_t ckpt_epoch = 0;
  bool have_checkpoint = false;
  LogStore checkpoint_records;
  if (!checkpoint_path.empty()) {
    GEOLIC_ASSIGN_OR_RETURN(
        const std::string payload,
        ReadCheckpointFile(CheckpointKind::kServiceSnapshot,
                           checkpoint_path));
    std::istringstream body(payload);
    uint64_t first = 0;
    body.read(reinterpret_cast<char*>(&first), sizeof(first));
    if (!body) {
      return Status::ParseError("service checkpoint payload truncated: " +
                                checkpoint_path);
    }
    if (first == kCheckpointV3Sentinel) {
      uint32_t version = 0;
      body.read(reinterpret_cast<char*>(&version), sizeof(version));
      body.read(reinterpret_cast<char*>(&ckpt_epoch), sizeof(ckpt_epoch));
      body.read(reinterpret_cast<char*>(&covered_seq), sizeof(covered_seq));
      if (!body) {
        return Status::ParseError("service checkpoint payload truncated: " +
                                  checkpoint_path);
      }
      if (version != kCheckpointV3Version) {
        return Status::ParseError(
            "unsupported service checkpoint payload version");
      }
    } else {
      // Legacy payload: the first word is the covered sequence; written
      // before reconfigurations existed, so it covers epoch 0.
      covered_seq = first;
    }
    GEOLIC_ASSIGN_OR_RETURN(LogStore records,
                            LogStore::DeserializeRecords(&body));
    if (body.peek() != std::istringstream::traits_type::eof()) {
      return Status::ParseError("trailing bytes after checkpoint records: " +
                                checkpoint_path);
    }
    local.checkpoint_records = records.size();
    checkpoint_records = std::move(records);
    have_checkpoint = true;
  }
  JournalReplay replay;
  if (!journal_path.empty()) {
    GEOLIC_ASSIGN_OR_RETURN(replay, JournalReader::ReadFile(journal_path));
    local.journal_torn_tail = replay.torn_tail;
  }

  // Stage 1 — frames the checkpoint covers. Admissions are already inside
  // the checkpoint's record table; reconfigurations must still evolve the
  // catalog, because the checkpoint's records are numbered in the evolved
  // index space.
  std::vector<License> active = licenses->licenses();
  uint64_t epoch = 0;
  CatalogEvolution evolution;
  size_t at = 0;
  for (; at < replay.entries.size() && replay.entries[at].seq <= covered_seq;
       ++at) {
    const JournalEntry& entry = replay.entries[at];
    if (entry.kind == JournalEntryKind::kAdmission) {
      // The reader guarantees seqs are contiguous from 1, so the frames
      // past the checkpoint's covered seq are exactly the uncovered tail.
      ++local.journal_records_skipped;
      continue;
    }
    GEOLIC_RETURN_IF_ERROR(EvolveCatalog(entry, &active, &evolution));
    ++epoch;
    ++local.reconfig_records_replayed;
  }
  if (have_checkpoint && epoch != ckpt_epoch) {
    return Status::ParseError(
        "checkpoint catalog epoch disagrees with the journal's "
        "reconfiguration history");
  }
  const auto in_range = [](const LicenseSet& set, size_t catalog_size) {
    return set.IsSubsetOf(LicenseSet::Full(static_cast<int>(catalog_size)));
  };
  std::vector<LogRecord> combined;
  combined.reserve(checkpoint_records.size());
  for (const LogRecord& record : checkpoint_records.records()) {
    if (!in_range(record.set, active.size())) {
      return Status::ParseError(
          "checkpoint record references unknown license indexes");
    }
    combined.push_back(record);
  }

  // Stage 2 — the uncovered tail: admissions append; reconfigurations
  // evolve the catalog and remap everything accumulated so far, exactly
  // as the live service did.
  for (; at < replay.entries.size(); ++at) {
    const JournalEntry& entry = replay.entries[at];
    ++local.journal_records_replayed;
    if (entry.kind == JournalEntryKind::kAdmission) {
      if (!in_range(entry.record.set, active.size())) {
        return Status::ParseError(
            "journal record references unknown license indexes");
      }
      combined.push_back(entry.record);
      continue;
    }
    GEOLIC_RETURN_IF_ERROR(EvolveCatalog(entry, &active, &evolution));
    ++epoch;
    ++local.reconfig_records_replayed;
    std::vector<LogRecord> remapped;
    remapped.reserve(combined.size());
    for (LogRecord& record : combined) {
      if (RemapRecord(evolution.removed, evolution.old_to_new,
                      /*skip_renumbering=*/false, &record)) {
        remapped.push_back(std::move(record));
      }
    }
    combined = std::move(remapped);
  }
  local.recovered_catalog_epoch = epoch;

  // Final catalog: unevolved recovery borrows the caller's; an evolved one
  // is rebuilt and owned by the recovered service (which restarts at epoch
  // 0 — the recovered catalog is the new baseline).
  std::unique_ptr<LicenseCatalog> owned;
  const LicenseCatalog* final_catalog = licenses;
  if (epoch != 0) {
    owned = std::make_unique<LicenseCatalog>(&licenses->schema());
    for (License& license : active) {
      GEOLIC_ASSIGN_OR_RETURN(const int added, owned->Add(std::move(license)));
      (void)added;
    }
    final_catalog = owned.get();
  }
  LogStore combined_store;
  for (LogRecord& record : combined) {
    GEOLIC_RETURN_IF_ERROR(combined_store.Append(std::move(record)));
  }
  GEOLIC_ASSIGN_OR_RETURN(
      std::unique_ptr<IssuanceService> service,
      CreateOwned(final_catalog, std::move(owned), options, combined_store));
  // Cross-check the sharded rebuild against a serial replay of the same
  // records: recovery must reproduce the exact pre-crash accepted set or
  // fail — never return silently wrong state.
  GEOLIC_ASSIGN_OR_RETURN(const ValidationTree recovered,
                          service->CollectTree());
  GEOLIC_ASSIGN_OR_RETURN(const ValidationTree serial,
                          ValidationTree::BuildFromLog(combined_store));
  if (recovered.ToString() != serial.ToString() ||
      recovered.TotalCount() != serial.TotalCount()) {
    return Status::Internal(
        "recovered state diverges from a serial replay of the records");
  }
  GEOLIC_RETURN_IF_ERROR(service->CheckAgainstReplay(serial));
  if (stats != nullptr) {
    *stats = local;
  }
  return service;
}

}  // namespace geolic

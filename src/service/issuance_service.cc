#include "service/issuance_service.h"

#include <algorithm>
#include <array>
#include <bit>
#include <string>
#include <utility>

#include "licensing/license_serialization.h"
#include "persist/checkpoint.h"
#include "persist/framing.h"
#include "util/check.h"
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

constexpr uint32_t kServiceStateVersion = 1;

// Compacted records of `sets` (one per distinct set, ids empty), in
// ascending set order: CollectLog's and the checkpoint's record table.
LogStore SortedLog(std::vector<std::pair<LicenseSet, int64_t>> sets) {
  std::sort(sets.begin(), sets.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  LogStore log;
  log.Reserve(sets.size());
  for (auto& [set, count] : sets) {
    LogRecord record;
    record.set = std::move(set);
    record.count = count;
    // Append only fails on empty sets / nonpositive counts, which the
    // admission path already rejected.
    const Status appended = log.Append(std::move(record));
    GEOLIC_DCHECK(appended.ok());
    (void)appended;
  }
  return log;
}

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
// `cutoff` — the expiry rule.
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

// How one reconfiguration carries license indexes into the next epoch.
struct IndexRemap {
  LicenseSet removed;           // Old-space indexes dropped (empty: acquire).
  std::vector<int> old_to_new;  // Surviving old index → new index, else -1.
  // The planted lifecycle bug for the simulation harness's mutation smoke:
  // survivors keep their stale bit positions.
  bool skip_renumbering = false;

  // Carries `set` into the next epoch's index space: false (drop it) when
  // it touches a removed license — usage granted under a revoked right is
  // revoked with it — otherwise renumbered densely (paper Algorithm 5).
  bool Apply(LicenseSet* set) const {
    if (set->Intersects(removed)) {
      return false;
    }
    if (removed.Empty() || skip_renumbering ||
        set->Highest() < removed.Lowest()) {
      // Acquisition, a set wholly below the removal (Algorithm 5 shifts
      // only higher indexes), or the planted bug: indexes unchanged.
      return true;
    }
    LicenseSet renumbered;
    for (int i : set->Indexes()) {
      renumbered.Add(old_to_new[static_cast<size_t>(i)]);
    }
    *set = renumbered;
    return true;
  }
};

}  // namespace

// Request timer that reads the simulation's virtual clock when hooks are
// installed (making latency metrics a deterministic function of the seed)
// and the monotonic wall clock otherwise.
class IssuanceService::RequestTimer {
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

MemberRuns::MemberRuns(const LicenseSet& members) {
  GEOLIC_CHECK(!members.Empty() && members.Size() <= kMaxDenseGroupSize);
  uint32_t local = 0;
  for (int w = 0; w < members.WordCount(); ++w) {
    for (uint64_t bits = members.Word(w); bits != 0;) {
      const int shift = std::countr_zero(bits);
      const int length = std::countr_one(bits >> shift);
      const uint64_t mask = (uint64_t{1} << length) - 1;
      runs_[count_++] = Run{static_cast<uint16_t>(w),
                            static_cast<uint8_t>(shift),
                            static_cast<uint8_t>(local),
                            static_cast<uint32_t>(mask)};
      local += static_cast<uint32_t>(length);
      bits &= ~(mask << shift);
    }
  }
}

Status EncodeServiceState(const ServiceState& state, std::string* out) {
  framing::PutScalar(out, kServiceStateVersion);
  framing::PutScalar(out, state.catalog_epoch);
  framing::PutScalar(out, state.covered_seq);
  const std::vector<License>& licenses = state.licenses->licenses();
  framing::PutScalar(out, static_cast<uint32_t>(licenses.size()));
  for (const License& license : licenses) {
    AppendLicenseBinary(license, out);
  }
  framing::PutScalar(out, static_cast<uint64_t>(state.records.size()));
  for (const LogRecord& record : state.records.records()) {
    EncodeLogRecord(record, out);
  }
  return Status::Ok();
}

Result<ServiceState> DecodeServiceState(std::string_view bytes, size_t* pos,
                                        const ConstraintSchema* schema) {
  ServiceState state;
  uint32_t version = 0;
  uint32_t license_count = 0;
  if (!framing::GetScalar(bytes, pos, &version) ||
      !framing::GetScalar(bytes, pos, &state.catalog_epoch) ||
      !framing::GetScalar(bytes, pos, &state.covered_seq) ||
      !framing::GetScalar(bytes, pos, &license_count)) {
    return Status::ParseError("service state header truncated");
  }
  if (version != kServiceStateVersion) {
    return Status::ParseError("unsupported service state version " +
                              std::to_string(version));
  }
  if (license_count == 0) {
    return Status::ParseError("service state carries no licenses");
  }
  std::vector<License> licenses;
  // The count is untrusted; a damaged one fails at the first missing
  // license rather than reserving for it.
  licenses.reserve(std::min<size_t>(license_count, kMaxLicensesLarge));
  std::string again;
  for (uint32_t i = 0; i < license_count; ++i) {
    const size_t start = *pos;
    Result<License> license = ReadLicenseBinary(bytes, pos);
    if (!license.ok()) {
      return Status::ParseError("license " + std::to_string(i) + ": " +
                                license.status().message());
    }
    // A license that decodes to something else (an empty interval, merged
    // pieces) is damage, not a state this encoder wrote.
    again.clear();
    AppendLicenseBinary(*license, &again);
    if (again != bytes.substr(start, *pos - start)) {
      return Status::ParseError("license " + std::to_string(i) +
                                " is not in canonical form");
    }
    licenses.push_back(std::move(license).value());
  }
  Result<LicenseCatalog> catalog =
      LicenseCatalog::FromLicenses(schema, std::move(licenses));
  if (!catalog.ok()) {
    return Status::ParseError("service state catalog: " +
                              catalog.status().message());
  }
  state.licenses =
      std::make_unique<LicenseCatalog>(std::move(catalog).value());
  uint64_t record_count = 0;
  if (!framing::GetScalar(bytes, pos, &record_count)) {
    return Status::ParseError("service state record count truncated");
  }
  const LicenseSet all = state.licenses->AllMask();
  for (uint64_t r = 0; r < record_count; ++r) {
    LogRecord record;
    GEOLIC_RETURN_IF_ERROR(DecodeLogRecord(bytes, pos, &record));
    if (!record.issued_license_id.empty()) {
      return Status::ParseError("service state record carries an id");
    }
    if (!record.set.IsSubsetOf(all)) {
      return Status::ParseError(
          "service state record references unknown license indexes");
    }
    if (!state.records.empty() &&
        !(state.records.records().back().set < record.set)) {
      return Status::ParseError(
          "service state records are not in ascending set order");
    }
    GEOLIC_RETURN_IF_ERROR(state.records.Append(std::move(record)));
  }
  return state;
}

IssuanceService::IssuanceService(const OnlineValidatorOptions& options,
                                 DynamicGrouping grouping,
                                 std::unique_ptr<CatalogEpoch> epoch0)
    : options_(options),
      metrics_(options.metrics != nullptr ? options.metrics : &owned_metrics_),
      epoch_(std::move(epoch0)),
      dyn_grouping_(std::move(grouping)) {}

std::unique_ptr<IssuanceService::CatalogEpoch> IssuanceService::BuildEpoch(
    const OnlineValidatorOptions& options, uint64_t epoch_number,
    const LicenseCatalog* catalog, std::unique_ptr<LicenseCatalog> owned,
    LicenseGrouping grouping) {
  auto epoch = std::make_unique<CatalogEpoch>(catalog, std::move(owned),
                                              std::move(grouping));
  epoch->epoch = epoch_number;
  epoch->grouped = options.use_grouping;
  // Precompute every equation scope once: Route hands out references into
  // these, so the per-request path never copies a LicenseSet.
  const LicenseGrouping& groups = epoch->grouping;
  epoch->all_mask = catalog->AllMask();
  const auto add_scope = [&epoch](LicenseSet mask, int group, int size) {
    EquationScope& scope = epoch->scopes.emplace_back();
    scope.mask = std::move(mask);
    scope.group = group;
    scope.size = size;
  };
  if (options.use_grouping) {
    epoch->scopes.reserve(static_cast<size_t>(groups.group_count()));
    for (int g = 0; g < groups.group_count(); ++g) {
      add_scope(groups.GroupMask(g), g, groups.GroupSize(g));
    }
  } else {
    add_scope(epoch->all_mask, -1, catalog->size());
  }
  size_t table_entries = 0;
  for (const EquationScope& scope : epoch->scopes) {
    if (scope.size <= kMaxDenseGroupSize) {
      table_entries += 3 * scope.entries();  // A, C[S] and C⟨T⟩.
    }
  }
  // A is written whole below; only C[S] and C⟨T⟩ start at zero.
  epoch->dense_tables = std::make_unique_for_overwrite<int64_t[]>(
      table_entries);
  epoch->dense_table_bytes = table_entries * sizeof(int64_t);
  int64_t* next_table = epoch->dense_tables.get();
  for (EquationScope& scope : epoch->scopes) {
    if (scope.size > kMaxDenseGroupSize) {
      continue;
    }
    const size_t entries = scope.entries();
    std::fill(next_table + entries, next_table + 3 * entries, 0);
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
    scope.counts = next_table + entries;  // C = 0 until records arrive.
    scope.sums = next_table + 2 * entries;
    scope.runs = MemberRuns(scope.mask);
    next_table += 3 * entries;
  }
  return epoch;
}

LicenseSet IssuanceService::CatalogEpoch::WithLocal(const EquationScope& scope,
                                                    LicenseSet s,
                                                    uint32_t local) const {
  for (; local != 0; local &= local - 1) {
    s.Add(Member(scope, std::countr_zero(local)));
  }
  return s;
}

void IssuanceService::CatalogEpoch::ForEachSet(
    const std::function<void(const LicenseSet&, int64_t)>& read) const {
  for (const EquationScope& scope : scopes) {
    if (!scope.dense()) {
      continue;
    }
    for (uint32_t local = 1; local <= scope.full_local(); ++local) {
      if (scope.counts[local] != 0) {
        read(WithLocal(scope, LicenseSet(), local), scope.counts[local]);
      }
    }
  }
  tree.ForEachSet(read);
}

void IssuanceService::FinishEpochTables(const CatalogEpoch& epoch,
                                        const std::vector<bool>& finished) {
  for (size_t g = 0; g < epoch.scopes.size(); ++g) {
    const EquationScope& scope = epoch.scopes[g];
    if (!scope.dense() || (g < finished.size() && finished[g])) {
      continue;
    }
    const int64_t* counts = scope.counts;
    const int64_t* counts_end = counts + scope.entries();
    if (std::all_of(counts, counts_end,
                    [](int64_t count) { return count == 0; })) {
      continue;  // No issuance: every C⟨T⟩ is BuildEpoch's zero.
    }
    std::copy(counts, counts_end, scope.sums);
    ZetaTransform(std::span<int64_t>(scope.sums, scope.entries()));
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

Result<std::unique_ptr<IssuanceService>> IssuanceService::Restore(
    ServiceState state, const OnlineValidatorOptions& options) {
  const LicenseCatalog* licenses = state.licenses.get();
  return CreateOwned(licenses, std::move(state.licenses), options,
                     state.records, state.catalog_epoch);
}

Result<std::unique_ptr<IssuanceService>> IssuanceService::CreateOwned(
    const LicenseCatalog* licenses, std::unique_ptr<LicenseCatalog> owned,
    const OnlineValidatorOptions& options, const LogStore& history,
    uint64_t epoch) {
  if (licenses == nullptr || licenses->empty()) {
    return Status::InvalidArgument(
        "issuance service needs at least one redistribution license");
  }
  // The epoch's grouping and the incremental one later reconfigurations
  // update come from one sweep over the catalog's rects, read in place.
  // Within a catalog every license shares content and permission, so
  // rectangle overlap is license overlap and the components are
  // FromLicenses'.
  GEOLIC_ASSIGN_OR_RETURN(
      DynamicGrouping grouping,
      DynamicGrouping::Build(licenses->schema().dimensions(),
                             licenses->Rects()));
  std::unique_ptr<CatalogEpoch> first =
      BuildEpoch(options, epoch, licenses, std::move(owned),
                 LicenseGrouping::FromGroupOf(grouping.GroupOf()));
  // Pre-load the history through the same routing the admission path uses
  // (records of already-validated issuances — they are not re-checked).
  // Without one every table is BuildEpoch's zeros already.
  if (!history.empty()) {
    GEOLIC_RETURN_IF_ERROR(PreloadEpoch(first.get(), history));
    FinishEpochTables(*first);
  }
  // Not make_unique: the constructor is private.
  std::unique_ptr<IssuanceService> service(
      new IssuanceService(options, std::move(grouping), std::move(first)));
  return service;
}

Status IssuanceService::ApplySetToEpoch(CatalogEpoch* epoch,
                                        const LicenseSet& set,
                                        int64_t count) {
  if (!set.IsSubsetOf(epoch->all_mask)) {
    return Status::InvalidArgument(
        "history record references unknown license indexes");
  }
  const EquationScope& scope = epoch->Route(set);
  if (!set.IsSubsetOf(scope.mask)) {
    // Satisfying sets always lie within one overlap group (every member
    // contains the issued rectangle, so they pairwise overlap); a record
    // spanning groups cannot have come from a valid issuance.
    return Status::InvalidArgument("history record spans overlap groups");
  }
  if (scope.dense()) {
    // C[S]; FinishEpochTables derives C⟨T⟩ from it.
    scope.counts[scope.runs.LocalMask(set)] += count;
    return Status::Ok();
  }
  return epoch->tree.Insert(set, count);
}

Status IssuanceService::PreloadEpoch(CatalogEpoch* epoch,
                                     const LogStore& history) {
  // ApplySetToEpoch's routing, flattened per license index: the scope of
  // a set whose lowest index it is, and, when that scope is dense and its
  // members are one run below index 64 (dense-churn's group), the run and
  // its C[S] table. A one-word set within the run is then C[S] at
  // word >> shift: the run's shift-and-mask, and no further check. The
  // array spans at least the 64 indexes a one-word set can start at.
  struct Route {
    const EquationScope* scope = nullptr;
    uint64_t run = 0;
    int64_t* counts = nullptr;
    int shift = 0;
  };
  const size_t n = static_cast<size_t>(epoch->catalog->size());
  std::vector<Route> routes(std::max<size_t>(n, kMaxLicensesInline));
  for (size_t i = 0; i < n; ++i) {
    Route& route = routes[i];
    route.scope = &epoch->scopes[epoch->grouped
                                     ? static_cast<size_t>(
                                           epoch->grouping.GroupOf(
                                               static_cast<int>(i)))
                                     : 0];
    if (route.scope->dense() && route.scope->mask.WordCount() == 1 &&
        route.scope->runs.run_count() == 1) {
      route.run = route.scope->mask.AsWord();
      route.counts = route.scope->counts;
      route.shift = std::countr_zero(route.run);
    }
  }
  for (const LogRecord& record : history.records()) {
    const LicenseSet& set = record.set;
    if (set.WordCount() == 1) {
      const uint64_t word = set.AsWord();
      GEOLIC_DCHECK(word != 0);  // A LogStore holds no empty set.
      const Route& route = routes[static_cast<size_t>(std::countr_zero(word))];
      if ((word & ~route.run) == 0) {
        route.counts[word >> route.shift] += record.count;
        continue;
      }
    }
    const size_t lowest = static_cast<size_t>(set.Lowest());
    if (lowest < n) {
      const EquationScope& scope = *routes[lowest].scope;
      if (scope.dense() && set.IsSubsetOf(scope.mask)) {
        scope.counts[scope.runs.LocalMask(set)] += record.count;
        continue;
      }
    }
    // A tree insert, or the record's error.
    GEOLIC_RETURN_IF_ERROR(ApplySetToEpoch(epoch, set, record.count));
  }
  return Status::Ok();
}

std::unique_lock<std::mutex> IssuanceService::Lock(const char* point) const {
  if (options_.sim_hooks == nullptr) {
    return std::unique_lock<std::mutex>(mutex_);
  }
  SimYield(options_, point);
  // Nothing yields while holding the lock, so under the harness's single
  // token it is free whenever a task asks; the loop keeps a contender from
  // blocking the token should that ever change.
  std::unique_lock<std::mutex> lock(mutex_, std::try_to_lock);
  while (!lock.owns_lock()) {
    SimYield(options_, point);
    lock.try_lock();
  }
  return lock;
}

Status IssuanceService::AdmitLocked(const License& issued,
                                    OnlineDecision* decision,
                                    RequestTrace* trace) {
  CatalogEpoch& epoch = *epoch_;
  const LicenseSet& s = decision->satisfying_set;
  const EquationScope& scope = epoch.Route(s);
  const int64_t count = issued.aggregate_count();
  GEOLIC_DCHECK(s.IsSubsetOf(scope.mask));

  // Check every equation T with S ⊆ T ⊆ scope, in ascending order: its LHS
  // gains `count`. The final T is the whole scope — where the planted bug
  // for the simulation harness's mutation smoke mode stops early, so an
  // issuance that only that equation would reject slips through.
  decision->aggregate_valid = true;
  const uint32_t local = scope.dense() ? scope.runs.LocalMask(s) : 0;
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
        const int64_t cv = epoch.tree.SumSubsets(t) + count;
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

  // Accepted. Write-ahead order: the issue op reaches the journal before
  // any in-memory state changes, so a crash can never leave the equation
  // state knowing an issuance the journal does not. A journal failure
  // rejects the admission with all state unchanged. The journal is the
  // only per-request history.
  if (journal_) {
    ScopedStageTimer stage(trace, TraceStage::kJournalAppend);
    GEOLIC_RETURN_IF_ERROR(JournalLocked(OpRef::Issue(issued)));
  }
  if (scope.dense()) {
    AddToSupersets(scope.sums, local, scope.full_local(), count);
    scope.counts[local] += count;
    return Status::Ok();
  }
  return epoch.tree.Insert(s, count);
}

Status IssuanceService::IssueLocked(const License& issued,
                                    const RequestTimer& timer,
                                    OnlineDecision* decision,
                                    RequestTrace* trace) {
  decision->catalog_epoch = epoch_->epoch;
  {
    ScopedStageTimer stage(trace, TraceStage::kInstanceSoaScan);
    decision->satisfying_set = epoch_->instance.SatisfyingSet(issued);
  }
  if (decision->satisfying_set.Empty()) {
    metrics_->RecordRejectedInstance(timer.ElapsedNanos());
    trace->Finish(TraceOutcome::kRejectedInstance);
    return Status::Ok();  // Fails instance-based validation; nothing recorded.
  }
  decision->instance_valid = true;
  const Status admitted = AdmitLocked(issued, decision, trace);
  if (!admitted.ok()) {
    trace->Finish(TraceOutcome::kError);
    return admitted;
  }
  if (decision->aggregate_valid) {
    metrics_->RecordAccepted(decision->equations_checked, timer.ElapsedNanos());
    trace->Finish(TraceOutcome::kAccepted);
  } else {
    metrics_->RecordRejectedAggregate(decision->equations_checked,
                                      timer.ElapsedNanos());
    trace->Finish(TraceOutcome::kRejectedAggregate);
  }
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
  std::unique_lock<std::mutex> lock;
  {
    ScopedStageTimer stage(&trace, TraceStage::kShardLockWait);
    lock = Lock("pre_shard_lock");
  }
  GEOLIC_RETURN_IF_ERROR(IssueLocked(issued, timer, &decision, &trace));
  return decision;
}

Status IssuanceService::TryIssueBatch(std::span<const License* const> batch,
                                      std::span<OnlineDecision> decisions,
                                      size_t* decided) {
  GEOLIC_DCHECK(decisions.size() >= batch.size());
  RequestTimer timer(options_.sim_hooks);
  metrics_->RecordBatch(batch.size());
  std::unique_lock<std::mutex> lock;
  {
    ScopedTracerSpan wait(options_.tracer, TraceStage::kShardLockWait);
    lock = Lock("pre_shard_lock");
  }
  // In input order, so the decisions are a sequential TryIssue loop's that
  // stops at the first error.
  size_t i = 0;
  Status status;
  for (; i < batch.size(); ++i) {
    if (batch[i]->aggregate_count() <= 0) {
      status = Status::InvalidArgument(
          "issued license must carry a positive count");
      break;
    }
    decisions[i] = OnlineDecision();
    RequestTrace trace(options_.tracer);
    status = IssueLocked(*batch[i], timer, &decisions[i], &trace);
    if (!status.ok()) {
      break;
    }
  }
  if (decided != nullptr) {
    *decided = i;
  }
  return status;
}

// --- Live license lifecycle ---

Result<int> IssuanceService::ReconfigureLocked(const OpRef& op,
                                               const LicenseSet& removed) {
  ScopedTracerSpan span(options_.tracer, TraceStage::kShardSwap);
  const CatalogEpoch& cur = *epoch_;

  // The next catalog and incremental grouping.
  const int old_size = cur.catalog->size();
  auto next_catalog =
      std::make_unique<LicenseCatalog>(cur.catalog->Without(removed));
  IndexRemap remap;
  remap.removed = removed;
  remap.skip_renumbering = options_.sim_skip_renumbering;
  remap.old_to_new.reserve(static_cast<size_t>(old_size));
  int next_index = 0;
  for (int i = 0; i < old_size; ++i) {
    remap.old_to_new.push_back(removed.Contains(i) ? -1 : next_index++);
  }
  // The grouping updates on a scratch copy, committed only on success —
  // a failed reconfiguration leaves no trace.
  DynamicGrouping next_grouping = dyn_grouping_;
  int result = 0;
  if (op.kind == OpKind::kAcquire) {
    GEOLIC_ASSIGN_OR_RETURN(result, next_catalog->Add(*op.license));
    GEOLIC_ASSIGN_OR_RETURN(const int grouped,
                            next_grouping.AddLicense(next_catalog->Rects()));
    if (grouped != result) {
      return Status::Internal(
          "grouping and catalog disagree on the acquired index");
    }
  } else {
    const std::vector<int> removing = removed.ToIndexes();
    result = static_cast<int>(removing.size());
    // Descending, so earlier removals don't shift the later indexes.
    for (auto it = removing.rbegin(); it != removing.rend(); ++it) {
      GEOLIC_RETURN_IF_ERROR(next_grouping.RemoveLicense(*it));
    }
  }
  const LicenseCatalog* next_catalog_ptr = next_catalog.get();
  std::unique_ptr<CatalogEpoch> next = BuildEpoch(
      options_, cur.epoch + 1, next_catalog_ptr, std::move(next_catalog),
      LicenseGrouping::FromGroupOf(next_grouping.GroupOf()));

  // Carry the equation state over from the distinct accepted sets — the
  // compacted state the paper's dynamic steps work on (Algorithm 4
  // re-divides it into the new overlap groups, Algorithm 5 renumbers it) —
  // so the cost follows the distinct sets and table sizes. A dense group
  // whose members the reconfiguration leaves as they are (renumbered or
  // not: local positions keep index order) has its C[S] and C⟨T⟩ tables
  // copied verbatim into its successor; every other dense C[S] entry and
  // tree set is renumbered and routed into the next epoch's tables and
  // tree.
  // Per next scope: whether its tables are a copy (C⟨T⟩ included).
  std::vector<bool> copied(next->scopes.size(), false);
  const auto carry = [&](const LicenseSet& set, int64_t count) {
    LicenseSet carried = set;
    if (!remap.Apply(&carried)) {
      return Status::Ok();  // Touches a removed license: dropped.
    }
    return ApplySetToEpoch(next.get(), carried, count);
  };
  for (const EquationScope& scope : cur.scopes) {
    if (!scope.dense()) {
      continue;
    }
    LicenseSet members = scope.mask;
    if (remap.Apply(&members) && members.IsSubsetOf(next->all_mask)) {
      const EquationScope& to = next->Route(members);
      if (to.dense() && to.mask == members) {
        std::copy(scope.counts, scope.counts + scope.entries(), to.counts);
        std::copy(scope.sums, scope.sums + scope.entries(), to.sums);
        copied[static_cast<size_t>(&to - next->scopes.data())] = true;
        continue;
      }
    }
    for (uint32_t local = 1; local <= scope.full_local(); ++local) {
      if (scope.counts[local] != 0) {
        GEOLIC_RETURN_IF_ERROR(
            carry(cur.WithLocal(scope, LicenseSet(), local),
                  scope.counts[local]));
      }
    }
  }
  Status carried = Status::Ok();
  cur.tree.ForEachSet([&](const LicenseSet& set, int64_t count) {
    if (carried.ok()) {
      carried = carry(set, count);
    }
  });
  GEOLIC_RETURN_IF_ERROR(carried);
  FinishEpochTables(*next, copied);

  // Write-ahead: the op reaches the journal before the new epoch replaces
  // the old; a journal failure aborts the whole reconfiguration with the
  // old epoch untouched.
  GEOLIC_RETURN_IF_ERROR(JournalLocked(op));
  epoch_ = std::move(next);
  dyn_grouping_ = std::move(next_grouping);
  return result;
}

Result<int> IssuanceService::AcquireLicense(const License& license) {
  const std::unique_lock<std::mutex> lock = Lock("pre_reconfig");
  return ReconfigureLocked(OpRef::Acquire(license), LicenseSet());
}

Status IssuanceService::RevokeLicense(int index) {
  const std::unique_lock<std::mutex> lock = Lock("pre_reconfig");
  return RevokeIndexLocked(index);
}

Status IssuanceService::RevokeLicenseById(const std::string& id) {
  const std::unique_lock<std::mutex> lock = Lock("pre_reconfig");
  const Result<int> index = epoch_->catalog->IndexOfId(id);
  if (!index.ok()) {
    return index.status();
  }
  return RevokeIndexLocked(*index);
}

Status IssuanceService::RevokeIndexLocked(int index) {
  const LicenseCatalog& catalog = *epoch_->catalog;
  if (index < 0 || index >= catalog.size()) {
    return Status::OutOfRange("revoke index out of range");
  }
  if (catalog.size() == 1) {
    // An empty catalog has nothing to route or validate against.
    return Status::FailedPrecondition("cannot revoke the last license");
  }
  // Journaled by id, which the catalog keeps unique.
  LicenseSet removed;
  removed.Add(index);
  return ReconfigureLocked(OpRef::Revoke(catalog.at(index).id()), removed)
      .status();
}

Result<int> IssuanceService::ExpireDimensionBelow(int dim, int64_t cutoff) {
  const std::unique_lock<std::mutex> lock = Lock("pre_reconfig");
  return ExpireDimensionBelowLocked(dim, cutoff);
}

Result<int> IssuanceService::ExpireBefore(Date cutoff) {
  const std::unique_lock<std::mutex> lock = Lock("pre_reconfig");
  // Every epoch's catalog shares the caller's schema.
  const ConstraintSchema& schema = epoch_->catalog->schema();
  for (int dim = 0; dim < schema.dimensions(); ++dim) {
    if (schema.kind(dim) == DimensionKind::kInterval &&
        schema.format(dim) == IntervalFormat::kDate) {
      return ExpireDimensionBelowLocked(dim, cutoff.day_number());
    }
  }
  return Status::InvalidArgument(
      "schema has no date dimension to expire against");
}

Result<int> IssuanceService::ExpireDimensionBelowLocked(int dim,
                                                        int64_t cutoff) {
  const LicenseCatalog& catalog = *epoch_->catalog;
  GEOLIC_ASSIGN_OR_RETURN(const std::vector<int> expired,
                          ComputeExpired(catalog.licenses(), dim, cutoff));
  if (expired.empty()) {
    return 0;  // Nothing expires: no epoch change, no journal frame.
  }
  if (static_cast<int>(expired.size()) == catalog.size()) {
    return Status::FailedPrecondition("expiry would remove every license");
  }
  LicenseSet removed;
  for (int i : expired) {
    removed.Add(i);
  }
  return ReconfigureLocked(OpRef::Expire(dim, cutoff), removed);
}

uint64_t IssuanceService::catalog_epoch() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return epoch_->epoch;
}

const LicenseCatalog& IssuanceService::licenses() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return *epoch_->catalog;
}

const LicenseGrouping& IssuanceService::grouping() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return epoch_->grouping;
}

size_t IssuanceService::dense_table_bytes() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return epoch_->dense_table_bytes;
}

LogStore IssuanceService::CollectLog() const {
  // No simulation yield: the harness reads the log in its final checks,
  // and a read must not add a step to a seed's schedule.
  std::vector<std::pair<LicenseSet, int64_t>> sets;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    epoch_->ForEachSet([&sets](const LicenseSet& set, int64_t count) {
      sets.emplace_back(set, count);
    });
  }
  return SortedLog(std::move(sets));
}

Result<ValidationTree> IssuanceService::CollectTree() const {
  return ValidationTree::BuildFromLog(CollectLog());
}

Status IssuanceService::JournalLocked(const OpRef& op) {
  return journal_ ? journal_(op) : Status::Ok();
}

Status IssuanceService::AttachJournal(std::unique_ptr<JournalWriter> journal) {
  if (journal == nullptr) {
    return Status::InvalidArgument("cannot attach a null journal");
  }
  if (journal->frames_appended() != 0) {
    return Status::InvalidArgument(
        "journal already carries frames; attach a fresh journal file");
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  if (epoch_->epoch != 0) {
    // Replay needs the journal to cover every reconfiguration since the
    // construction-time catalog; attaching after one would leave a gap no
    // recovery could bridge.
    return Status::FailedPrecondition(
        "attach the journal before any catalog reconfiguration");
  }
  if (journal_) {
    return Status::FailedPrecondition("a journal is already attached");
  }
  journal->set_tracer(options_.tracer);
  journal_writer_ = std::move(journal);
  // Numbers the frames 1, 2, … : the next is one past the frames
  // already made durable.
  journal_ = [this](const OpRef& op) {
    return journal_writer_->AppendOp(journal_writer_->frames_appended() + 1,
                                     op);
  };
  return Status::Ok();
}

Status IssuanceService::AttachJournalSink(JournalSink sink) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (journal_) {
    return Status::FailedPrecondition("a journal is already attached");
  }
  journal_ = std::move(sink);
  return Status::Ok();
}

ExpositionInput IssuanceService::Snap() const {
  ExpositionInput input;
  input.metrics = metrics_->Snap();
  if (options_.tracer != nullptr) {
    input.has_stages = true;
    input.stages = options_.tracer->ProfileSnapshot();
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  if (journal_writer_ != nullptr) {
    input.has_journal = true;
    input.journal_sequence = journal_writer_->frames_appended();
  }
  return input;
}

ServiceState IssuanceService::Snapshot() const {
  std::vector<std::pair<LicenseSet, int64_t>> sets;
  ServiceState state;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    epoch_->ForEachSet([&sets](const LicenseSet& set, int64_t count) {
      sets.emplace_back(set, count);
    });
    state.catalog_epoch = epoch_->epoch;
    state.covered_seq =
        journal_writer_ != nullptr ? journal_writer_->frames_appended() : 0;
    state.licenses = std::make_unique<LicenseCatalog>(*epoch_->catalog);
  }
  state.records = SortedLog(std::move(sets));
  return state;
}

Status IssuanceService::WriteCheckpoint(const std::string& path) const {
  ScopedTracerSpan span(options_.tracer, TraceStage::kCheckpointWrite);
  SimYield(options_, "pre_checkpoint");
  std::string payload;
  GEOLIC_RETURN_IF_ERROR(EncodeServiceState(Snapshot(), &payload));
  return WriteCheckpointFileDurable(CheckpointKind::kServiceSnapshot,
                                    payload, path);
}

Status IssuanceService::CheckAgainstReplay(
    const ValidationTree& serial) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const CatalogEpoch& epoch = *epoch_;
  // Route the replay's sets as admissions would: an above-cap set into the
  // tree, a dense-scope set into the C[S] entry and along its supersets
  // into the C⟨T⟩ table its scope should hold. The local mask comes from
  // the scope's members rather than its runs, and no zeta transform runs,
  // so the expectation shares no code with how recovery built the tables.
  ValidationTree expected_tree;
  std::vector<std::vector<int64_t>> expected_counts(epoch.scopes.size());
  std::vector<std::vector<int64_t>> expected_sums(epoch.scopes.size());
  for (size_t g = 0; g < epoch.scopes.size(); ++g) {
    if (epoch.scopes[g].dense()) {
      expected_counts[g].resize(epoch.scopes[g].entries());
      expected_sums[g].resize(epoch.scopes[g].entries());
    }
  }
  Status status = Status::Ok();
  serial.ForEachSet([&](const LicenseSet& set, int64_t count) {
    const EquationScope& scope = epoch.Route(set);
    if (!status.ok()) {
      return;
    }
    if (!scope.dense()) {
      status = expected_tree.Insert(set, count);
      return;
    }
    uint32_t local = 0;
    for (int p = 0; p < scope.size; ++p) {
      if (set.Contains(epoch.Member(scope, p))) {
        local |= uint32_t{1} << p;
      }
    }
    const size_t g = static_cast<size_t>(&scope - epoch.scopes.data());
    expected_counts[g][local] += count;
    AddToSupersets(expected_sums[g].data(), local, scope.full_local(), count);
  });
  GEOLIC_RETURN_IF_ERROR(status);
  if (epoch.tree.ToString() != expected_tree.ToString() ||
      epoch.tree.TotalCount() != expected_tree.TotalCount()) {
    return Status::Internal(
        "recovered validation tree diverges from a serial replay");
  }
  for (size_t g = 0; g < epoch.scopes.size(); ++g) {
    const EquationScope& scope = epoch.scopes[g];
    if (scope.dense() &&
        (!std::equal(expected_counts[g].begin(), expected_counts[g].end(),
                     scope.counts) ||
         !std::equal(expected_sums[g].begin(), expected_sums[g].end(),
                     scope.sums))) {
      return Status::Internal(
          "recovered equation table diverges from a serial replay");
    }
  }
  return Status::Ok();
}

Status ReplayOp(IssuanceService* service, const JournalOp& op) {
  switch (op.kind) {
    case OpKind::kIssue: {
      GEOLIC_ASSIGN_OR_RETURN(const OnlineDecision decision,
                              service->TryIssue(op.license));
      if (!decision.instance_valid) {
        return Status::FailedPrecondition(
            "issue lies in no redistribution license");
      }
      if (!decision.aggregate_valid) {
        return Status::FailedPrecondition(
            "issue rejected by an aggregate equation");
      }
      return Status::Ok();
    }
    case OpKind::kAcquire:
      return service->AcquireLicense(op.license).status();
    case OpKind::kRevoke:
      return service->RevokeLicenseById(op.revoke_id);
    case OpKind::kExpire: {
      GEOLIC_ASSIGN_OR_RETURN(
          const int removed,
          service->ExpireDimensionBelow(op.expire_dim, op.expire_cutoff));
      if (removed == 0) {
        return Status::FailedPrecondition("expire removed no licenses");
      }
      return Status::Ok();
    }
  }
  return Status::Internal("unknown op kind in replay");
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
  const bool have_checkpoint = !checkpoint_path.empty();
  ServiceState checkpoint;
  if (have_checkpoint) {
    GEOLIC_ASSIGN_OR_RETURN(
        const std::string payload,
        ReadCheckpointFile(CheckpointKind::kServiceSnapshot,
                           checkpoint_path));
    size_t pos = 0;
    Result<ServiceState> decoded =
        DecodeServiceState(payload, &pos, &licenses->schema());
    if (!decoded.ok()) {
      return Status::ParseError("service checkpoint " + checkpoint_path +
                                ": " + decoded.status().message());
    }
    if (pos != payload.size()) {
      return Status::ParseError("trailing bytes after checkpoint state: " +
                                checkpoint_path);
    }
    checkpoint = std::move(decoded).value();
    local.checkpoint_records = checkpoint.records.size();
  }
  JournalReplay replay;
  if (!journal_path.empty()) {
    GEOLIC_ASSIGN_OR_RETURN(replay, JournalReader::ReadFile(journal_path));
    local.journal_torn_tail = replay.torn_tail;
  }
  for (const JournalEntry& entry : replay.entries) {
    if (entry.kind == JournalEntryKind::kTenantOp) {
      // Tenant-tagged frames belong to the multi-tenant catalog's journal
      // (catalog/catalog_service.h), never to a single service's own.
      return Status::ParseError(
          "tenant-tagged frame in a single-service journal (seq " +
          std::to_string(entry.seq) + ")");
    }
  }

  // Frames the checkpoint covers: its records hold their issues and its
  // catalog their reconfigurations — as many as its epoch says. The
  // reader guarantees seqs are contiguous from 1, so the frames past the
  // covered seq are exactly the uncovered tail.
  size_t at = 0;
  for (; at < replay.entries.size() &&
         replay.entries[at].seq <= checkpoint.covered_seq;
       ++at) {
    if (replay.entries[at].op.kind == OpKind::kIssue) {
      ++local.journal_records_skipped;
    } else {
      ++local.reconfig_records_replayed;
    }
  }
  if (local.reconfig_records_replayed != checkpoint.catalog_epoch) {
    return Status::ParseError(
        "checkpoint catalog epoch disagrees with the journal's "
        "reconfiguration history");
  }

  // The uncovered tail re-executes on the service Recover returns, built
  // with the caller's options except that its decisions count into a
  // scratch metrics block and it has no tracer or simulation hooks:
  // recovery counts no decisions and takes no simulation steps. Every op
  // in a service journal succeeded live (the service journals an issue
  // once accepted and a reconfiguration once built), so one that does not
  // succeed again is a journal that does not belong to this catalog or
  // checkpoint.
  IssuanceMetrics replay_metrics;
  OnlineValidatorOptions replay_options = options;
  replay_options.metrics = &replay_metrics;
  replay_options.tracer = nullptr;
  replay_options.sim_hooks = nullptr;
  std::unique_ptr<IssuanceService> service;
  if (have_checkpoint) {
    GEOLIC_ASSIGN_OR_RETURN(service,
                            Restore(std::move(checkpoint), replay_options));
  } else {
    GEOLIC_ASSIGN_OR_RETURN(service, Create(licenses, replay_options));
  }
  for (; at < replay.entries.size(); ++at) {
    const JournalEntry& entry = replay.entries[at];
    const Status replayed_op = ReplayOp(service.get(), entry.op);
    if (!replayed_op.ok()) {
      return Status::ParseError("journal frame seq " +
                                std::to_string(entry.seq) +
                                " does not replay as it ran live: " +
                                replayed_op.message());
    }
    ++local.journal_records_replayed;
    if (entry.op.kind != OpKind::kIssue) {
      ++local.reconfig_records_replayed;
    }
  }

  // Hand the service over: the caller's options, and epoch 0 — the
  // recovered catalog is the new baseline. Journal-only recovery without
  // reconfigurations still borrows the caller's catalog; any other owns
  // its checkpoint's or its last reconfiguration's.
  local.recovered_catalog_epoch = service->epoch_->epoch;
  service->options_ = options;
  service->metrics_ = options.metrics != nullptr ? options.metrics
                                                 : &service->owned_metrics_;
  service->epoch_->epoch = 0;
  // Cross-check the service's equation state against a serial replay of
  // its records: recovery must reproduce the exact pre-crash accepted set
  // or fail — never return silently wrong state.
  GEOLIC_ASSIGN_OR_RETURN(const ValidationTree serial,
                          ValidationTree::BuildFromLog(service->CollectLog()));
  GEOLIC_RETURN_IF_ERROR(service->CheckAgainstReplay(serial));
  if (stats != nullptr) {
    *stats = local;
  }
  return service;
}

}  // namespace geolic

#include "service/issuance_service.h"

#include <algorithm>
#include <array>
#include <bit>
#include <sstream>
#include <streambuf>
#include <string>
#include <utility>

#include "licensing/license_serialization.h"
#include "persist/checkpoint.h"
#include "persist/framing.h"
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

constexpr uint32_t kServiceStateVersion = 1;

// Read-only stream over a byte span, so ReadLicenseBinary decodes a
// payload's licenses in place.
class SpanBuf : public std::streambuf {
 public:
  explicit SpanBuf(std::string_view bytes) {
    char* begin = const_cast<char*>(bytes.data());
    setg(begin, begin, begin + bytes.size());
  }
  size_t consumed() const { return static_cast<size_t>(gptr() - eback()); }
};

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
  // The one remap the live carry-over (distinct sets) and recovery's
  // journal replay (records) both go through.
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

// Applies one reconfiguration frame to the evolving catalog `active`,
// cross-checking the frame against what the live service would have done.
// Admission frames are not accepted here.
Status EvolveCatalog(const JournalEntry& entry, std::vector<License>* active,
                     IndexRemap* evolution) {
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
  std::ostringstream blob;
  for (const License& license : licenses) {
    GEOLIC_RETURN_IF_ERROR(WriteLicenseBinary(license, &blob));
  }
  out->append(blob.str());
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
  SpanBuf span(bytes.substr(*pos));
  std::istream in(&span);
  std::vector<License> licenses;
  // The count is untrusted; a damaged one fails at the first missing
  // license rather than reserving for it.
  licenses.reserve(std::min<size_t>(license_count, kMaxLicensesLarge));
  std::ostringstream again;
  for (uint32_t i = 0; i < license_count; ++i) {
    const size_t start = span.consumed();
    Result<License> license = ReadLicenseBinary(&in);
    if (!license.ok()) {
      return Status::ParseError("license " + std::to_string(i) + ": " +
                                license.status().message());
    }
    // A license that decodes to something else (an empty interval, merged
    // pieces) is damage, not a state this encoder wrote.
    again.str(std::string());
    GEOLIC_RETURN_IF_ERROR(WriteLicenseBinary(*license, &again));
    if (again.view() !=
        bytes.substr(*pos + start, span.consumed() - start)) {
      return Status::ParseError("license " + std::to_string(i) +
                                " is not in canonical form");
    }
    licenses.push_back(std::move(license).value());
  }
  *pos += span.consumed();
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
                                 std::shared_ptr<CatalogEpoch> epoch0)
    : options_(options),
      dyn_grouping_(std::move(grouping)),
      metrics_(options.metrics != nullptr ? options.metrics : &owned_metrics_) {
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
    shard_count = std::min(epoch->grouping.group_count(),
                           options.shard_hint > 0 ? options.shard_hint
                                                  : kDefaultMaxShards);
    shard_count = std::max(shard_count, 1);
  }
  // Shards are not movable (a mutex each): the vector is sized once.
  epoch->shards = std::vector<Shard>(static_cast<size_t>(shard_count));
  // Precompute every equation scope once: RouteSet hands out references
  // into these, so the per-request path never copies a LicenseSet.
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
  std::shared_ptr<CatalogEpoch> first =
      BuildEpoch(options, epoch, licenses, std::move(owned),
                 LicenseGrouping::FromGroupOf(grouping.GroupOf()));
  // Not make_unique: the constructor is private.
  std::unique_ptr<IssuanceService> service(
      new IssuanceService(options, std::move(grouping), first));
  // Pre-load the history through the same routing the admission path uses
  // (records of already-validated issuances — they are not re-checked).
  // Without one every table is BuildEpoch's zeros already.
  if (!history.empty()) {
    GEOLIC_RETURN_IF_ERROR(service->PreloadEpoch(first.get(), history));
    service->issue_sequence_.store(static_cast<int64_t>(history.size()),
                                   std::memory_order_relaxed);
    FinishEpochTables(*first);
  }
  return service;
}

Status IssuanceService::ApplySetToEpoch(CatalogEpoch* epoch,
                                        const LicenseSet& set,
                                        int64_t count) const {
  if (!set.IsSubsetOf(epoch->all_mask)) {
    return Status::InvalidArgument(
        "history record references unknown license indexes");
  }
  // RouteSet's scope; the shard is needed only on the tree branch.
  const size_t g = options_.use_grouping
                       ? static_cast<size_t>(epoch->grouping.GroupOf(
                             set.Lowest()))
                       : 0;
  const EquationScope& scope = epoch->scopes[g];
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
  return epoch->shards[g % epoch->shards.size()].tree.Insert(set, count);
}

Status IssuanceService::PreloadEpoch(CatalogEpoch* epoch,
                                     const LogStore& history) const {
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
    route.scope = &epoch->scopes[options_.use_grouping
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
  // equation state knowing an issuance the journal does not. A journal
  // failure rejects the admission with all state unchanged. The journal
  // is the only per-record history: without one, no record is built.
  if (has_journal_.load(std::memory_order_acquire)) {
    ScopedStageTimer stage(trace, TraceStage::kJournalAppend);
    LogRecord record;
    record.issued_license_id =
        issued.id().empty()
            ? "LU" + std::to_string(issue_sequence_.fetch_add(
                         1, std::memory_order_relaxed) +
                     1)
            : issued.id();
    record.set = s;
    record.count = count;
    std::lock_guard<std::mutex> lock(journal_mutex_);
    GEOLIC_RETURN_IF_ERROR(journal_->Append(journal_seq_ + 1, record));
    ++journal_seq_;
  }
  if (scope.dense()) {
    AddToSupersets(scope.sums, local, scope.full_local(), count);
    scope.counts[local] += count;
  } else {
    GEOLIC_RETURN_IF_ERROR(shard->tree.Insert(s, count));
  }
  ++shard->accepted;
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
    Shard* shard = &epoch->shards[shard_index];
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
      Shard* shard = &epoch->shards[shard_index];
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

std::unique_lock<std::mutex> IssuanceService::LockReconfig() {
  SimYield(options_, "pre_reconfig");
  if (options_.sim_hooks == nullptr) {
    return std::unique_lock<std::mutex>(reconfig_mutex_);
  }
  // Under the simulation harness a reconfiguration yields while holding
  // this lock (between its snapshot and its catch-up), so a contender
  // yields until the lock frees instead of blocking the scheduler's single
  // token.
  std::unique_lock<std::mutex> lock(reconfig_mutex_, std::try_to_lock);
  while (!lock.owns_lock()) {
    SimYield(options_, "reconfig_busy");
    lock.try_lock();
  }
  return lock;
}

Result<int> IssuanceService::ReconfigureLocked(const ReconfigPlan& plan) {
  ScopedTracerSpan span(options_.tracer, TraceStage::kShardSwap);
  const std::shared_ptr<const CatalogEpoch> cur = Pin();

  // Phase 1: next catalog + incremental grouping, fully off to the side —
  // admissions keep running against `cur` throughout.
  const int old_size = cur->catalog->size();
  auto next_catalog = std::make_unique<LicenseCatalog>(
      cur->catalog->Without(plan.removed));
  IndexRemap remap;
  remap.removed = plan.removed;
  remap.skip_renumbering = options_.sim_skip_renumbering;
  remap.old_to_new.reserve(static_cast<size_t>(old_size));
  int next_index = 0;
  for (int i = 0; i < old_size; ++i) {
    remap.old_to_new.push_back(plan.removed.Contains(i) ? -1 : next_index++);
  }
  // The grouping updates on a scratch copy, committed only on success —
  // a failed reconfiguration leaves no trace.
  DynamicGrouping next_grouping = dyn_grouping_;
  int result = 0;
  if (plan.acquire != nullptr) {
    GEOLIC_ASSIGN_OR_RETURN(result, next_catalog->Add(*plan.acquire));
    GEOLIC_ASSIGN_OR_RETURN(const int grouped,
                            next_grouping.AddLicense(next_catalog->Rects()));
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
      LicenseGrouping::FromGroupOf(next_grouping.GroupOf()));

  // Phase 2: carry each shard's equation state over from its distinct
  // accepted sets — the compacted state the paper's dynamic steps work on
  // (Algorithm 4 re-divides it into the new overlap groups, Algorithm 5
  // renumbers it) — so the cost follows the distinct sets and table sizes.
  // Under the shard's lock (one at a time: issuance on the other shards
  // never stalls) each dense scope's C[S] table is copied into `snapshot`
  // and the above-cap tree's sets into the shard's `tree_sets`; off the
  // lock every surviving set is renumbered and routed into the next
  // epoch's C[S] tables and trees. A dense group whose members the
  // reconfiguration leaves as they are (renumbered or not: local positions
  // keep index order) instead has its C[S] and C⟨T⟩ tables copied verbatim
  // into its successor, whose C[S] copy then serves as the snapshot.
  // Admissions that land after a shard's snapshot are caught up in phase
  // 3.
  struct ShardSnapshot {
    uint64_t accepted = 0;  // Shard::accepted at the snapshot.
    std::vector<std::pair<LicenseSet, int64_t>> tree_sets;  // Preorder.
  };
  const size_t old_shards = cur->shards.size();
  std::vector<ShardSnapshot> snapshots(old_shards);
  // Per current scope: the next epoch's scope with the same members when
  // both are dense (its tables are then copied verbatim), else null.
  std::vector<const EquationScope*> copy_to(cur->scopes.size(), nullptr);
  // Per next scope: whether its tables are a copy (C⟨T⟩ included).
  std::vector<bool> copied(next->scopes.size(), false);
  for (size_t g = 0; g < cur->scopes.size(); ++g) {
    LicenseSet members = cur->scopes[g].mask;
    if (!cur->scopes[g].dense() || !remap.Apply(&members) ||
        !members.IsSubsetOf(next->all_mask)) {
      continue;
    }
    size_t shard = 0;
    const EquationScope& to = RouteSet(*next, members, &shard);
    if (to.dense() && to.mask == members) {
      copy_to[g] = &to;
      copied[static_cast<size_t>(&to - next->scopes.data())] = true;
    }
  }
  // Every other dense scope's C[S] as the snapshot saw it, one table
  // after another.
  std::vector<size_t> snapshot_at(cur->scopes.size(), 0);
  size_t snapshot_entries = 0;
  for (size_t g = 0; g < cur->scopes.size(); ++g) {
    if (cur->scopes[g].dense() && copy_to[g] == nullptr) {
      snapshot_at[g] = snapshot_entries;
      snapshot_entries += cur->scopes[g].entries();
    }
  }
  std::vector<int64_t> snapshot(snapshot_entries);
  const auto snapshot_of = [&](size_t g) {
    return copy_to[g] != nullptr ? copy_to[g]->counts
                                 : snapshot.data() + snapshot_at[g];
  };
  // Carries `count` more issuances of current-epoch set `set` into the
  // next epoch, unless the reconfiguration drops the set.
  const auto carry = [&](const LicenseSet& set, int64_t count) {
    LicenseSet carried = set;
    if (!remap.Apply(&carried)) {
      return Status::Ok();
    }
    return ApplySetToEpoch(next.get(), carried, count);
  };
  for (size_t s = 0; s < old_shards; ++s) {
    Shard* shard = &cur->shards[s];
    {
      std::lock_guard<std::mutex> lock(shard->mutex);
      snapshots[s].accepted = shard->accepted;
      for (size_t g = s; g < cur->scopes.size(); g += old_shards) {
        const EquationScope& scope = cur->scopes[g];
        if (const EquationScope* to = copy_to[g]; to != nullptr) {
          std::copy(scope.sums, scope.sums + scope.entries(), to->sums);
        }
        if (scope.dense()) {
          std::copy(scope.counts, scope.counts + scope.entries(),
                    snapshot_of(g));
        }
      }
      shard->tree.ForEachSet(
          [&tree_sets = snapshots[s].tree_sets](const LicenseSet& set,
                                                int64_t count) {
            tree_sets.emplace_back(set, count);
          });
    }
    for (size_t g = s; g < cur->scopes.size(); g += old_shards) {
      const EquationScope& scope = cur->scopes[g];
      if (!scope.dense() || copy_to[g] != nullptr) {
        continue;
      }
      const int64_t* counts = snapshot_of(g);
      for (uint32_t local = 1; local <= scope.full_local(); ++local) {
        if (counts[local] != 0) {
          GEOLIC_RETURN_IF_ERROR(
              carry(cur->WithLocal(scope, LicenseSet(), local),
                    counts[local]));
        }
      }
    }
    for (const auto& [set, count] : snapshots[s].tree_sets) {
      GEOLIC_RETURN_IF_ERROR(carry(set, count));
    }
  }

  // Admissions may land between the snapshot and the catch-up; the
  // simulation harness schedules them here (only reconfig_mutex_ is held).
  SimYield(options_, "reconfig_snapshotted");

  // Phase 3: catch-up, journal, publish — under every current shard lock
  // (index order) and then the journal lock, the same order the admission
  // path uses, so no admission is in flight half-applied while we cut
  // over and none can start against the old epoch after we publish. The
  // catch-up carries what each shard's state gained since its snapshot:
  // the difference of every C[S] entry and tree set against the snapshot.
  const std::vector<std::unique_lock<std::mutex>> shard_locks =
      LockShards(*cur);
  for (size_t s = 0; s < old_shards; ++s) {
    const Shard& shard = cur->shards[s];
    if (shard.accepted == snapshots[s].accepted) {
      continue;  // No admission since the snapshot.
    }
    for (size_t g = s; g < cur->scopes.size(); g += old_shards) {
      const EquationScope& scope = cur->scopes[g];
      if (!scope.dense()) {
        continue;
      }
      const EquationScope* to = copy_to[g];
      int64_t* before = snapshot_of(g);
      for (uint32_t local = 1; local <= scope.full_local(); ++local) {
        const int64_t added = scope.counts[local] - before[local];
        if (added == 0) {
          continue;
        }
        if (to != nullptr) {
          // A copied table is already C⟨T⟩: add along the supersets, at
          // the same local positions.
          before[local] += added;
          AddToSupersets(to->sums, local, to->full_local(), added);
        } else {
          GEOLIC_RETURN_IF_ERROR(
              carry(cur->WithLocal(scope, LicenseSet(), local), added));
        }
      }
    }
    // Both walks are in preorder and the tree only grew, so the snapshot's
    // sets come up in the same order.
    const std::vector<std::pair<LicenseSet, int64_t>>& tree_before =
        snapshots[s].tree_sets;
    size_t at = 0;
    Status carried = Status::Ok();
    shard.tree.ForEachSet([&](const LicenseSet& set, int64_t count) {
      if (at < tree_before.size() && tree_before[at].first == set) {
        count -= tree_before[at++].second;
      }
      if (count != 0 && carried.ok()) {
        carried = carry(set, count);
      }
    });
    GEOLIC_RETURN_IF_ERROR(carried);
  }
  FinishEpochTables(*next, copied);
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
  const std::unique_lock<std::mutex> reconfig_lock = LockReconfig();
  ReconfigPlan plan;
  plan.acquire = &license;
  return ReconfigureLocked(plan);
}

Status IssuanceService::RevokeLicense(int index) {
  const std::unique_lock<std::mutex> reconfig_lock = LockReconfig();
  return RevokeIndexLocked(index);
}

Status IssuanceService::RevokeLicenseById(const std::string& id) {
  const std::unique_lock<std::mutex> reconfig_lock = LockReconfig();
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
  const std::unique_lock<std::mutex> reconfig_lock = LockReconfig();
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

std::vector<std::unique_lock<std::mutex>> IssuanceService::LockShards(
    const CatalogEpoch& epoch) {
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(epoch.shards.size());
  for (Shard& shard : epoch.shards) {
    locks.emplace_back(shard.mutex);
  }
  return locks;
}

std::shared_ptr<const IssuanceService::CatalogEpoch>
IssuanceService::PinLocked(
    std::vector<std::unique_lock<std::mutex>>* locks) const {
  for (;;) {
    std::shared_ptr<const CatalogEpoch> epoch = Pin();
    SimYield(options_, "pre_collect_lock");
    *locks = LockShards(*epoch);
    if (!epoch->retired.load(std::memory_order_acquire)) {
      return epoch;
    }
    // A reconfiguration retired the pinned epoch before we got its locks:
    // the journal already holds its successor's reconfiguration frame.
    locks->clear();
  }
}

void IssuanceService::ForEachShardSet(
    const CatalogEpoch& epoch, size_t shard,
    const std::function<void(const LicenseSet&, int64_t)>& read) {
  for (size_t g = shard; g < epoch.scopes.size(); g += epoch.shards.size()) {
    const EquationScope& scope = epoch.scopes[g];
    if (!scope.dense()) {
      continue;
    }
    for (uint32_t local = 1; local <= scope.full_local(); ++local) {
      if (scope.counts[local] != 0) {
        read(epoch.WithLocal(scope, LicenseSet(), local),
             scope.counts[local]);
      }
    }
  }
  epoch.shards[shard].tree.ForEachSet(read);
}

void IssuanceService::ReadShardState(
    const std::function<void(const LicenseSet&, int64_t)>& read) const {
  // No simulation yield in here: the harness reconciles its model from
  // CollectLog and needs the read to be one step of its schedule.
  const std::shared_ptr<const CatalogEpoch> epoch = Pin();
  for (size_t s = 0; s < epoch->shards.size(); ++s) {
    std::lock_guard<std::mutex> lock(epoch->shards[s].mutex);
    ForEachShardSet(*epoch, s, read);
  }
}

LogStore IssuanceService::CollectLog() const {
  std::vector<std::pair<LicenseSet, int64_t>> sets;
  ReadShardState([&sets](const LicenseSet& set, int64_t count) {
    sets.emplace_back(set, count);
  });
  return SortedLog(std::move(sets));
}

Result<ValidationTree> IssuanceService::CollectTree() const {
  return ValidationTree::BuildFromLog(CollectLog());
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

ServiceState IssuanceService::Snapshot() const {
  // Exact cut: every shard lock in index order, then the journal lock —
  // the same order AdmitLocked and ReconfigureLocked use, so no admission
  // can be half-applied (journaled but not yet in its shard) while we
  // read.
  std::vector<std::unique_lock<std::mutex>> shard_locks;
  const std::shared_ptr<const CatalogEpoch> epoch = PinLocked(&shard_locks);
  std::lock_guard<std::mutex> journal_lock(journal_mutex_);

  std::vector<std::pair<LicenseSet, int64_t>> sets;
  for (size_t s = 0; s < epoch->shards.size(); ++s) {
    ForEachShardSet(*epoch, s, [&sets](const LicenseSet& set, int64_t count) {
      sets.emplace_back(set, count);
    });
  }
  ServiceState state;
  state.catalog_epoch = epoch->epoch;
  state.covered_seq = journal_seq_;
  state.licenses = std::make_unique<LicenseCatalog>(*epoch->catalog);
  state.records = SortedLog(std::move(sets));
  return state;
}

Status IssuanceService::WriteCheckpoint(const std::string& path) const {
  ScopedTracerSpan span(options_.tracer, TraceStage::kCheckpointWrite);
  SimYield(options_, "pre_checkpoint");
  std::string payload;
  GEOLIC_RETURN_IF_ERROR(EncodeServiceState(Snapshot(), &payload));
  return WriteCheckpointFile(CheckpointKind::kServiceSnapshot, payload,
                             path);
}

Status IssuanceService::CheckAgainstReplay(
    const ValidationTree& serial) const {
  const std::shared_ptr<const CatalogEpoch> epoch = Pin();
  // Route the replay's sets as admissions would: an above-cap set into the
  // tree its shard should hold, a dense-scope set into the C[S] entry and
  // along its supersets into the C⟨T⟩ table its scope should hold. The
  // local mask comes from the scope's members rather than its runs, and
  // no zeta transform runs, so the expectation shares no code with how
  // recovery built the tables.
  std::vector<ValidationTree> expected_trees(epoch->shards.size());
  std::vector<std::vector<int64_t>> expected_counts(epoch->scopes.size());
  std::vector<std::vector<int64_t>> expected_sums(epoch->scopes.size());
  for (size_t g = 0; g < epoch->scopes.size(); ++g) {
    if (epoch->scopes[g].dense()) {
      expected_counts[g].resize(epoch->scopes[g].entries());
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
    const size_t g = static_cast<size_t>(&scope - epoch->scopes.data());
    expected_counts[g][local] += count;
    AddToSupersets(expected_sums[g].data(), local, scope.full_local(), count);
  });
  GEOLIC_RETURN_IF_ERROR(status);
  for (size_t s = 0; s < epoch->shards.size(); ++s) {
    Shard* shard = &epoch->shards[s];
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
        epoch->shards[g % epoch->shards.size()].mutex);
    if (!std::equal(expected_counts[g].begin(), expected_counts[g].end(),
                    scope.counts) ||
        !std::equal(expected_sums[g].begin(), expected_sums[g].end(),
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

  // Frames the checkpoint covers: its records hold their admissions and
  // its catalog their reconfigurations — as many as its epoch says. The
  // reader guarantees seqs are contiguous from 1, so the frames past the
  // covered seq are exactly the uncovered tail.
  size_t at = 0;
  uint64_t covered_reconfigs = 0;
  for (; at < replay.entries.size() &&
         replay.entries[at].seq <= checkpoint.covered_seq;
       ++at) {
    switch (replay.entries[at].kind) {
      case JournalEntryKind::kAdmission:
        ++local.journal_records_skipped;
        break;
      case JournalEntryKind::kTenantOp:
        return Status::ParseError(
            "tenant-tagged frame in a single-service journal");
      case JournalEntryKind::kAcquire:
      case JournalEntryKind::kRevoke:
      case JournalEntryKind::kExpire:
        ++covered_reconfigs;
        break;
    }
  }
  if (covered_reconfigs != checkpoint.catalog_epoch) {
    return Status::ParseError(
        "checkpoint catalog epoch disagrees with the journal's "
        "reconfiguration history");
  }
  local.reconfig_records_replayed = covered_reconfigs;
  uint64_t epoch = checkpoint.catalog_epoch;
  std::vector<License> active = have_checkpoint
                                    ? checkpoint.licenses->licenses()
                                    : licenses->licenses();
  std::vector<LogRecord> combined = checkpoint.records.records();
  const auto in_range = [](const LicenseSet& set, size_t catalog_size) {
    return set.IsSubsetOf(LicenseSet::Full(static_cast<int>(catalog_size)));
  };
  IndexRemap evolution;

  // The uncovered tail: admissions append; reconfigurations
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
      if (evolution.Apply(&record.set)) {
        remapped.push_back(std::move(record));
      }
    }
    combined = std::move(remapped);
  }
  local.recovered_catalog_epoch = epoch;

  // Final catalog: journal-only recovery without reconfigurations borrows
  // the caller's; any other is rebuilt and owned by the recovered service
  // (which restarts at epoch 0 — the recovered catalog is the new
  // baseline).
  std::unique_ptr<LicenseCatalog> owned;
  const LicenseCatalog* final_catalog = licenses;
  if (have_checkpoint || epoch != 0) {
    GEOLIC_ASSIGN_OR_RETURN(
        LicenseCatalog catalog,
        LicenseCatalog::FromLicenses(&licenses->schema(), std::move(active)));
    owned = std::make_unique<LicenseCatalog>(std::move(catalog));
    final_catalog = owned.get();
  }
  LogStore combined_store;
  combined_store.Reserve(combined.size());
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

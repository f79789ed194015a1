#include "catalog/catalog_service.h"

#include <filesystem>
#include <functional>
#include <map>
#include <string_view>
#include <utility>
#include <vector>

#include "persist/checkpoint.h"
#include "persist/framing.h"
#include "util/check.h"

namespace geolic {

namespace {

// Approximate residency cost of a materialized tenant. Deliberately
// coarse: the budget bounds the cache, it does not meter the allocator.
// kRecordBytes is charged per distinct accepted set at a load, and per
// acceptance in a group above the dense cap, whose tree may grow; a dense
// group's state is its fixed tables, charged as table_bytes.
constexpr size_t kTenantBaseBytes = 16 * 1024;
constexpr size_t kLicenseBytes = 1024;
constexpr size_t kRecordBytes = 128;

constexpr std::string_view kJournalPrefix = "catalog-journal-";

size_t ApproxTenantBytes(size_t licenses, size_t records) {
  return kTenantBaseBytes + licenses * kLicenseBytes + records * kRecordBytes;
}

// Whether an acceptance with satisfying set `set` lands in a group above
// the dense cap (or, without grouping, a catalog above it).
bool AboveDenseCap(const IssuanceService& service, const LicenseSet& set) {
  const LicenseGrouping& grouping = service.grouping();
  const int scope = service.options().use_grouping
                        ? grouping.GroupSize(grouping.GroupOf(set.Lowest()))
                        : service.licenses().size();
  return scope > kMaxDenseGroupSize;
}

std::string TenantLabel(uint64_t tenant_id) {
  return "tenant " + std::to_string(tenant_id);
}

bool HasSuffix(std::string_view name, std::string_view suffix) {
  return name.size() >= suffix.size() &&
         name.substr(name.size() - suffix.size()) == suffix;
}

// catalog-journal-<k>.wal for k >= 1: a pool file an earlier layout with
// several journal writers left behind.
bool IsStalePoolJournal(std::string_view name) {
  if (name.rfind(kJournalPrefix, 0) != 0 || !HasSuffix(name, ".wal")) {
    return false;
  }
  const std::string_view index = name.substr(
      kJournalPrefix.size(), name.size() - kJournalPrefix.size() - 4);
  return !index.empty() && index != "0" &&
         index.find_first_not_of("0123456789") == std::string_view::npos;
}

bool IsSpillFile(std::string_view name) {
  return name.rfind("tenant-", 0) == 0 &&
         (HasSuffix(name, ".spill") || HasSuffix(name, ".spill.tmp"));
}

// Creates `options.dir` and lists the files in it that `matches`.
Result<std::vector<std::filesystem::path>> ListCatalogFiles(
    const CatalogOptions& options,
    const std::function<bool(std::string_view)>& matches) {
  std::error_code ec;
  std::filesystem::create_directories(options.dir, ec);
  if (ec) {
    return Status::IoError("cannot create catalog dir " + options.dir + ": " +
                           ec.message());
  }
  std::filesystem::directory_iterator it(options.dir, ec);
  if (ec) {
    return Status::IoError("cannot list catalog dir " + options.dir + ": " +
                           ec.message());
  }
  std::vector<std::filesystem::path> found;
  for (const auto& entry : it) {
    if (matches(entry.path().filename().string())) {
      found.push_back(entry.path());
    }
  }
  return found;
}

}  // namespace

Status CatalogOptions::Validate() const {
  if (dir.empty()) {
    return Status::InvalidArgument("catalog dir must be set");
  }
  if (memory_budget_bytes == 0) {
    return Status::InvalidArgument("memory_budget_bytes must be > 0");
  }
  return Status::Ok();
}

CatalogService::CatalogService(TenantSource* source,
                               const CatalogOptions& options)
    : source_(source), options_(options) {}

CatalogService::~CatalogService() { Close(); }

Result<std::unique_ptr<CatalogService>> CatalogService::Create(
    TenantSource* source, const CatalogOptions& options) {
  GEOLIC_RETURN_IF_ERROR(options.Validate());
  // Fresh means fresh: a reused directory may hold spills (and interrupted
  // spill temp files) from an earlier catalog generation, and lazy
  // materialization would transparently resurrect that evolved state; a
  // stale pool journal would make a later Recover refuse the directory.
  // Delete them before the journal truncates.
  GEOLIC_ASSIGN_OR_RETURN(
      const std::vector<std::filesystem::path> stale,
      ListCatalogFiles(options, [](std::string_view name) {
        return IsSpillFile(name) || IsStalePoolJournal(name);
      }));
  for (const std::filesystem::path& path : stale) {
    std::error_code ec;
    if (!std::filesystem::remove(path, ec) || ec) {
      return Status::IoError("cannot delete stale catalog file " +
                             path.string() + ": " + ec.message());
    }
  }
  auto service =
      std::unique_ptr<CatalogService>(new CatalogService(source, options));
  GEOLIC_RETURN_IF_ERROR(service->OpenJournal());
  return service;
}

Status CatalogService::OpenJournal() {
  const std::string path = JournalPath();
  std::unique_ptr<SyncFile> file;
  if (options_.journal_file_factory) {
    GEOLIC_ASSIGN_OR_RETURN(file, options_.journal_file_factory(path, 0));
  } else {
    GEOLIC_ASSIGN_OR_RETURN(file, PosixSyncFile::Create(path));
  }
  GEOLIC_ASSIGN_OR_RETURN(journal_, JournalWriter::Create(std::move(file)));
  if (options_.tracer != nullptr) {
    journal_->set_tracer(options_.tracer);
  }
  journal_seq_ = 0;
  return Status::Ok();
}

std::string CatalogService::JournalPath() const {
  return options_.dir + "/" + std::string(kJournalPrefix) + "0.wal";
}

std::string CatalogService::SpillPath(uint64_t tenant_id) const {
  return options_.dir + "/tenant-" + std::to_string(tenant_id) + ".spill";
}

Status CatalogService::Compile(uint64_t tenant_id, Tenant* tenant) {
  GEOLIC_ASSIGN_OR_RETURN(Workload baseline, source_->MakeTenant(tenant_id));
  GEOLIC_ASSIGN_OR_RETURN(
      tenant->service,
      IssuanceService::Restore({.licenses = std::move(baseline.licenses)},
                               options_.service_options));
  tenant->schema = std::move(baseline.schema);
  return Status::Ok();
}

Result<size_t> CatalogService::LoadSpill(uint64_t tenant_id,
                                         const std::string& payload,
                                         Tenant* tenant) {
  auto fail = [&](const std::string& message) {
    return Status::ParseError(TenantLabel(tenant_id) + " spill " +
                              SpillPath(tenant_id) + ": " + message);
  };
  size_t pos = 0;
  uint64_t stored_id = 0;
  if (!framing::GetScalar(payload, &pos, &stored_id)) {
    return fail("truncated spill header");
  }
  if (stored_id != tenant_id) {
    return fail("payload holds tenant " + std::to_string(stored_id) +
                " — spill file misplaced");
  }
  // The schema is a pure function of the tenant id; only the evolved
  // license set and log need the disk bytes.
  GEOLIC_ASSIGN_OR_RETURN(Workload baseline, source_->MakeTenant(tenant_id));
  Result<ServiceState> state =
      DecodeServiceState(payload, &pos, baseline.schema.get());
  if (!state.ok()) {
    return fail(state.status().message());
  }
  if (pos != payload.size()) {
    return fail(std::to_string(payload.size() - pos) +
                " trailing bytes after the service state");
  }
  const uint64_t covered_seq = state->covered_seq;
  const size_t records = state->records.size();
  GEOLIC_ASSIGN_OR_RETURN(
      tenant->service,
      IssuanceService::Restore(std::move(state).value(),
                               options_.service_options));
  tenant->schema = std::move(baseline.schema);
  tenant->tenant_seq = covered_seq;
  return records;
}

Result<CatalogService::Tenant*> CatalogService::EnsureResidentLocked(
    uint64_t tenant_id) {
  if (auto it = tenants_.find(tenant_id); it != tenants_.end()) {
    ++counters_.hits;
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return &it->second;
  }
  ++counters_.misses;
  ScopedTracerSpan span(options_.tracer, TraceStage::kCatalogCompile);

  Tenant tenant;
  size_t records = 0;  // A compile starts with no accepted sets.
  const std::string spill_path = SpillPath(tenant_id);
  std::error_code ec;
  if (std::filesystem::exists(spill_path, ec)) {
    auto payload =
        ReadCheckpointFile(CheckpointKind::kTenantSnapshot, spill_path);
    if (!payload.ok()) {
      return Status(payload.status().code(),
                    TenantLabel(tenant_id) + " spill " + spill_path + ": " +
                        payload.status().message());
    }
    GEOLIC_ASSIGN_OR_RETURN(records, LoadSpill(tenant_id, *payload, &tenant));
    ++counters_.loads;
  } else {
    GEOLIC_RETURN_IF_ERROR(Compile(tenant_id, &tenant));
    ++counters_.compiles;
  }

  tenant.table_bytes = tenant.service->dense_table_bytes();
  tenant.approx_bytes =
      ApproxTenantBytes(static_cast<size_t>(tenant.service->licenses().size()),
                        records) +
      tenant.table_bytes;
  resident_bytes_ += tenant.approx_bytes;
  lru_.push_front(tenant_id);
  tenant.lru_pos = lru_.begin();
  Tenant* resident =
      &tenants_.emplace(tenant_id, std::move(tenant)).first->second;
  if (journal_ != nullptr) {
    // Map nodes are stable: the pointer lives as long as the tenant.
    const Status attached = resident->service->AttachJournalSink(
        [this, tenant_id, resident](const OpRef& op) {
          return JournalOpLocked(tenant_id, resident, op);
        });
    GEOLIC_CHECK(attached.ok());
  }
  return resident;
}

void CatalogService::ChargeTablesLocked(Tenant* tenant) {
  const size_t now = tenant->service->dense_table_bytes();
  resident_bytes_ = resident_bytes_ - tenant->table_bytes + now;
  tenant->approx_bytes = tenant->approx_bytes - tenant->table_bytes + now;
  tenant->table_bytes = now;
}

Status CatalogService::SpillLocked(uint64_t tenant_id, bool evicting) {
  const auto it = tenants_.find(tenant_id);
  if (it == tenants_.end()) {
    return Status::Ok();
  }
  Tenant& tenant = it->second;
  ScopedTracerSpan span(options_.tracer, TraceStage::kCatalogEvict);
  ServiceState state = tenant.service->Snapshot();
  state.covered_seq = tenant.tenant_seq;
  std::string payload;
  framing::PutScalar<uint64_t>(&payload, tenant_id);
  GEOLIC_RETURN_IF_ERROR(EncodeServiceState(state, &payload));
  // Atomic publish (temp + fdatasync + rename): recovery truncates the
  // journal on the strength of these files, and live eviction replaces the
  // previous good spill — a torn in-place overwrite would silently lose
  // the tenant. The caller syncs the directory.
  GEOLIC_RETURN_IF_ERROR(PublishCheckpointFile(
      CheckpointKind::kTenantSnapshot, payload, SpillPath(tenant_id)));
  resident_bytes_ -= tenant.approx_bytes;
  lru_.erase(tenant.lru_pos);
  tenants_.erase(it);
  ++counters_.spills;
  if (evicting) {
    ++counters_.evictions;
  }
  return Status::Ok();
}

void CatalogService::MaybeEvictLocked() {
  while (resident_bytes_ > options_.memory_budget_bytes && lru_.size() > 1) {
    const uint64_t victim = lru_.back();
    if (!SpillLocked(victim, /*evicting=*/true).ok() ||
        !SyncParentDirectory(SpillPath(victim)).ok()) {
      // Spill I/O trouble: stop evicting rather than spin. The tenant
      // stays resident (and over budget) — better than losing state.
      return;
    }
  }
}

Status CatalogService::CheckAcceptingOpsLocked() const {
  if (failed_) {
    return Status::FailedPrecondition(
        "catalog fail-stopped: the journal writer was poisoned by an I/O "
        "error; mutating ops are rejected until a restart through "
        "CatalogService::Recover");
  }
  if (journal_ == nullptr) {
    return Status::FailedPrecondition("catalog journal is closed");
  }
  return Status::Ok();
}

Status CatalogService::JournalOpLocked(uint64_t tenant_id, Tenant* tenant,
                                       const OpRef& op) {
  GEOLIC_DCHECK(journal_ != nullptr);  // Mutating ops check on entry.
  Status appended = journal_->AppendTenantOp(
      journal_seq_ + 1, tenant_id, tenant->tenant_seq + 1, op);
  if (!appended.ok()) {
    // Maybe-persisted: the frame may or may not have reached the disk.
    // The op is rejected with tenant state unchanged; recovery is allowed
    // to replay at most this one extra frame. An I/O error poisons the
    // writer for good, and a catalog that keeps serving tenants it can no
    // longer journal is a silent durability hole — fail-stop the whole
    // catalog instead. (Argument rejections do not poison and stay
    // per-op.)
    if (journal_->poisoned()) {
      failed_ = true;
    }
    return appended;
  }
  ++journal_seq_;
  ++tenant->tenant_seq;
  ++counters_.journal_frames;
  return Status::Ok();
}

template <typename Op>
auto CatalogService::OnTenantLocked(uint64_t tenant_id, Op op)
    -> decltype(op(nullptr)) {
  using R = decltype(op(nullptr));
  Result<Tenant*> tenant = EnsureResidentLocked(tenant_id);
  R result = tenant.ok() ? op(*tenant) : R(tenant.status());
  MaybeEvictLocked();
  return result;
}

Result<OnlineDecision> CatalogService::TryIssue(uint64_t tenant_id,
                                                const License& usage) {
  std::lock_guard<std::mutex> lock(mutex_);
  GEOLIC_RETURN_IF_ERROR(CheckAcceptingOpsLocked());
  return OnTenantLocked(
      tenant_id, [&](Tenant* tenant) -> Result<OnlineDecision> {
        GEOLIC_ASSIGN_OR_RETURN(OnlineDecision decision,
                                tenant->service->TryIssue(usage));
        if (decision.accepted() &&
            AboveDenseCap(*tenant->service, decision.satisfying_set)) {
          tenant->approx_bytes += kRecordBytes;
          resident_bytes_ += kRecordBytes;
        }
        return decision;
      });
}

Result<int> CatalogService::AcquireLicense(uint64_t tenant_id,
                                           const License& license) {
  std::lock_guard<std::mutex> lock(mutex_);
  GEOLIC_RETURN_IF_ERROR(CheckAcceptingOpsLocked());
  return OnTenantLocked(tenant_id, [&](Tenant* tenant) -> Result<int> {
    GEOLIC_ASSIGN_OR_RETURN(int index,
                            tenant->service->AcquireLicense(license));
    tenant->approx_bytes += kLicenseBytes;
    resident_bytes_ += kLicenseBytes;
    ChargeTablesLocked(tenant);
    return index;
  });
}

Status CatalogService::RevokeLicenseById(uint64_t tenant_id,
                                         const std::string& id) {
  std::lock_guard<std::mutex> lock(mutex_);
  GEOLIC_RETURN_IF_ERROR(CheckAcceptingOpsLocked());
  return OnTenantLocked(tenant_id, [&](Tenant* tenant) -> Status {
    GEOLIC_RETURN_IF_ERROR(tenant->service->RevokeLicenseById(id));
    ChargeTablesLocked(tenant);
    return Status::Ok();
  });
}

Result<int> CatalogService::ExpireDimensionBelow(uint64_t tenant_id, int dim,
                                                 int64_t cutoff) {
  std::lock_guard<std::mutex> lock(mutex_);
  GEOLIC_RETURN_IF_ERROR(CheckAcceptingOpsLocked());
  return OnTenantLocked(tenant_id, [&](Tenant* tenant) -> Result<int> {
    GEOLIC_ASSIGN_OR_RETURN(int removed,
                            tenant->service->ExpireDimensionBelow(dim, cutoff));
    ChargeTablesLocked(tenant);
    return removed;
  });
}

Result<uint64_t> CatalogService::TenantEpoch(uint64_t tenant_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  return OnTenantLocked(tenant_id, [](Tenant* tenant) -> Result<uint64_t> {
    return tenant->service->catalog_epoch();
  });
}

Status CatalogService::SpillTenant(uint64_t tenant_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  GEOLIC_RETURN_IF_ERROR(SpillLocked(tenant_id, /*evicting=*/false));
  return SyncParentDirectory(SpillPath(tenant_id));
}

Result<CatalogService::TenantSnapshot> CatalogService::SnapshotTenant(
    uint64_t tenant_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  return OnTenantLocked(tenant_id, [](Tenant* tenant) -> Result<TenantSnapshot> {
    TenantSnapshot snapshot;
    snapshot.licenses = tenant->service->licenses().licenses();
    snapshot.log = tenant->service->CollectLog();
    snapshot.epoch = tenant->service->catalog_epoch();
    snapshot.tenant_seq = tenant->tenant_seq;
    return snapshot;
  });
}

Status CatalogService::Close() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (journal_ == nullptr) {
    return Status::Ok();
  }
  Status closed = journal_->Close();
  journal_.reset();
  return closed;
}

CatalogStats CatalogService::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  CatalogStats stats = counters_;
  stats.resident_tenants = tenants_.size();
  stats.resident_bytes = resident_bytes_;
  stats.poisoned_writers = failed_ ? 1 : 0;
  return stats;
}

ExpositionInput CatalogService::Snap() const {
  ExpositionInput input;
  if (options_.service_options.metrics != nullptr) {
    input.metrics = options_.service_options.metrics->Snap();
  }
  if (options_.tracer != nullptr) {
    input.has_stages = true;
    input.stages = options_.tracer->ProfileSnapshot();
  }
  input.has_catalog = true;
  input.catalog = stats();
  return input;
}

Result<std::unique_ptr<CatalogService>> CatalogService::Recover(
    TenantSource* source, const CatalogOptions& options,
    CatalogRecoveryStats* stats) {
  GEOLIC_RETURN_IF_ERROR(options.Validate());
  GEOLIC_ASSIGN_OR_RETURN(const std::vector<std::filesystem::path> stale,
                          ListCatalogFiles(options, IsStalePoolJournal));
  if (!stale.empty()) {
    return Status::FailedPrecondition(
        "catalog journal " + stale.front().string() +
        " belongs to a pool of several journal writers; this catalog "
        "replays " + std::string(kJournalPrefix) + "0.wal only and would "
        "ignore the ops acknowledged there");
  }
  CatalogRecoveryStats local_stats;
  if (stats == nullptr) {
    stats = &local_stats;
  }
  *stats = CatalogRecoveryStats();

  auto service =
      std::unique_ptr<CatalogService>(new CatalogService(source, options));
  std::lock_guard<std::mutex> lock(service->mutex_);

  // Phase 1: parse the whole journal before touching any state. Frames
  // are validated for kind here; per-tenant sequence checks run in phase 2
  // against each tenant's spill coverage.
  const std::string path = service->JournalPath();
  std::map<uint64_t, std::vector<JournalEntry>> by_tenant;
  std::error_code exists_ec;
  if (std::filesystem::exists(path, exists_ec)) {
    auto replay = JournalReader::ReadFile(path);
    if (!replay.ok()) {
      return Status(replay.status().code(), "catalog journal " + path +
                                                ": " +
                                                replay.status().message());
    }
    stats->torn_tails = replay->torn_tail ? 1 : 0;
    for (JournalEntry& entry : replay->entries) {
      if (entry.kind != JournalEntryKind::kTenantOp) {
        return Status::ParseError(
            "catalog journal " + path + " frame " +
            std::to_string(entry.seq) +
            ": not a tenant-tagged frame — single-service journal in the "
            "catalog directory?");
      }
      ++stats->journal_frames;
      by_tenant[entry.tenant_id].push_back(std::move(entry));
    }
  }

  // Phase 2: rebuild touched tenants one at a time (spill-or-compile plus
  // the journaled tail), re-spill each, free it — memory stays bounded no
  // matter how many tenants the crash left dirty. The journal is closed,
  // so they replay without a sink. Replay is strict: every frame holds an
  // op that succeeded live.
  for (const auto& [tenant_id, frames] : by_tenant) {
    GEOLIC_ASSIGN_OR_RETURN(Tenant* tenant,
                            service->EnsureResidentLocked(tenant_id));

    uint64_t previous_seq = 0;
    for (const JournalEntry& entry : frames) {
      const uint64_t seq = entry.tenant_seq;
      if (previous_seq != 0 && seq != previous_seq + 1) {
        return Status::ParseError(
            TenantLabel(tenant_id) + ": journal op sequence jumps from " +
            std::to_string(previous_seq) + " to " + std::to_string(seq) +
            " at frame " + std::to_string(entry.seq) + " of " + path +
            " — frames lost or duplicated");
      }
      previous_seq = seq;
      if (seq <= tenant->tenant_seq) {
        ++stats->frames_skipped;  // The spill already covers this op.
        continue;
      }
      if (seq != tenant->tenant_seq + 1) {
        return Status::ParseError(
            TenantLabel(tenant_id) + ": spill covers op " +
            std::to_string(tenant->tenant_seq) + " but the journal resumes " +
            "at op " + std::to_string(seq) + " at frame " +
            std::to_string(entry.seq) + " of " + path + " — frames lost");
      }
      const Status replayed = ReplayOp(tenant->service.get(), entry.op);
      if (!replayed.ok()) {
        return Status::ParseError(
            TenantLabel(tenant_id) + ": op " + std::to_string(seq) +
            " at frame " + std::to_string(entry.seq) + " of " + path +
            " does not replay as it ran live: " + replayed.message());
      }
      tenant->tenant_seq = seq;
      ++stats->frames_replayed;
    }

    GEOLIC_RETURN_IF_ERROR(
        service->SpillLocked(tenant_id, /*evicting=*/false));
    ++stats->tenants_recovered;
    ++service->counters_.recovered_tenants;
  }

  // Phase 3: one directory sync makes every re-spill's rename durable;
  // then every touched tenant is checkpointed — now (and only now) the
  // journal may truncate. A crash before this point re-runs recovery off
  // the same journal; a crash after it finds the spills authoritative.
  if (!by_tenant.empty()) {
    GEOLIC_RETURN_IF_ERROR(SyncParentDirectory(path));
  }
  GEOLIC_RETURN_IF_ERROR(service->OpenJournal());
  return service;
}

}  // namespace geolic

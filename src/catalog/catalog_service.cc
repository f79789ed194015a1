#include "catalog/catalog_service.h"

#include <filesystem>
#include <map>
#include <sstream>
#include <utility>

#include "licensing/license_serialization.h"
#include "persist/checkpoint.h"
#include "persist/framing.h"

namespace geolic {

namespace {

// Approximate residency cost of a materialized tenant. Deliberately
// coarse: the budget bounds the cache, it does not meter the allocator.
constexpr size_t kTenantBaseBytes = 16 * 1024;
constexpr size_t kLicenseBytes = 1024;
constexpr size_t kRecordBytes = 128;

constexpr uint32_t kSpillVersion = 1;

// SplitMix64 finalizer — tenant ids may be dense (0, 1, 2, ...), so both
// the LRU-shard and journal-writer routes need real mixing.
uint64_t MixId(uint64_t id) {
  uint64_t z = id + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

size_t ApproxTenantBytes(size_t licenses, size_t records) {
  return kTenantBaseBytes + licenses * kLicenseBytes + records * kRecordBytes;
}

std::string TenantLabel(uint64_t tenant_id) {
  return "tenant " + std::to_string(tenant_id);
}

}  // namespace

Status CatalogOptions::Validate() const {
  if (dir.empty()) {
    return Status::InvalidArgument("catalog dir must be set");
  }
  if (memory_budget_bytes == 0) {
    return Status::InvalidArgument("memory_budget_bytes must be > 0");
  }
  if (lru_shards < 1 || lru_shards > 1024) {
    return Status::InvalidArgument("lru_shards must be in [1, 1024]");
  }
  if (journal_writers < 1 || journal_writers > 256) {
    return Status::InvalidArgument("journal_writers must be in [1, 256]");
  }
  if (fsync_interval < 0) {
    return Status::InvalidArgument("fsync_interval must be >= 0");
  }
  return Status::Ok();
}

CatalogService::CatalogService(TenantSource* source,
                               const CatalogOptions& options)
    : source_(source), options_(options) {
  shard_budget_bytes_ =
      options_.memory_budget_bytes / static_cast<size_t>(options_.lru_shards);
  if (shard_budget_bytes_ == 0) {
    shard_budget_bytes_ = 1;
  }
  shards_.reserve(static_cast<size_t>(options_.lru_shards));
  for (int i = 0; i < options_.lru_shards; ++i) {
    shards_.push_back(std::make_unique<LruShard>());
  }
  writers_.reserve(static_cast<size_t>(options_.journal_writers));
  for (int i = 0; i < options_.journal_writers; ++i) {
    writers_.push_back(std::make_unique<PoolWriter>());
  }
}

CatalogService::~CatalogService() { Close(); }

Result<std::unique_ptr<CatalogService>> CatalogService::Create(
    TenantSource* source, const CatalogOptions& options) {
  GEOLIC_RETURN_IF_ERROR(options.Validate());
  std::error_code ec;
  std::filesystem::create_directories(options.dir, ec);
  if (ec) {
    return Status::IoError("cannot create catalog dir " + options.dir + ": " +
                           ec.message());
  }
  // Fresh means fresh: a reused directory may hold spills (and interrupted
  // spill temp files) from an earlier catalog generation, and lazy
  // materialization would transparently resurrect that evolved state. Purge
  // them before the journals truncate so Create never mixes old tenant
  // state with an empty journal pool.
  GEOLIC_RETURN_IF_ERROR(RemoveSpillFiles(options.dir));
  auto service =
      std::unique_ptr<CatalogService>(new CatalogService(source, options));
  GEOLIC_RETURN_IF_ERROR(service->OpenJournals());
  return service;
}

Status CatalogService::RemoveSpillFiles(const std::string& dir) {
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) {
    return Status::IoError("cannot list catalog dir " + dir + ": " +
                           ec.message());
  }
  const auto has_suffix = [](const std::string& name,
                             std::string_view suffix) {
    return name.size() >= suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
  };
  for (const auto& entry : it) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("tenant-", 0) != 0 ||
        (!has_suffix(name, ".spill") && !has_suffix(name, ".spill.tmp"))) {
      continue;
    }
    std::error_code remove_ec;
    if (!std::filesystem::remove(entry.path(), remove_ec) || remove_ec) {
      return Status::IoError("cannot delete stale spill " +
                             entry.path().string() + ": " +
                             remove_ec.message());
    }
  }
  return Status::Ok();
}

Status CatalogService::OpenJournals() {
  for (int k = 0; k < options_.journal_writers; ++k) {
    const std::string path = JournalPath(k);
    std::unique_ptr<SyncFile> file;
    if (options_.journal_file_factory) {
      GEOLIC_ASSIGN_OR_RETURN(file, options_.journal_file_factory(path, k));
    } else {
      GEOLIC_ASSIGN_OR_RETURN(file, PosixSyncFile::Create(path));
    }
    JournalOptions journal_options;
    journal_options.fsync_interval = options_.fsync_interval;
    GEOLIC_ASSIGN_OR_RETURN(writers_[static_cast<size_t>(k)]->writer,
                            JournalWriter::Create(std::move(file),
                                                  journal_options));
    if (options_.tracer != nullptr) {
      writers_[static_cast<size_t>(k)]->writer->set_tracer(options_.tracer);
    }
    writers_[static_cast<size_t>(k)]->next_seq = 0;
  }
  journaling_enabled_ = true;
  return Status::Ok();
}

std::string CatalogService::JournalPath(int writer_index) const {
  return options_.dir + "/catalog-journal-" + std::to_string(writer_index) +
         ".wal";
}

std::string CatalogService::SpillPath(uint64_t tenant_id) const {
  return options_.dir + "/tenant-" + std::to_string(tenant_id) + ".spill";
}

int CatalogService::WriterIndexForTenant(uint64_t tenant_id) const {
  return static_cast<int>(MixId(tenant_id) %
                          static_cast<uint64_t>(options_.journal_writers));
}

CatalogService::LruShard& CatalogService::ShardFor(uint64_t tenant_id) {
  // Decorrelated from the writer route (different hash bits) so journal
  // and cache load spread independently.
  return *shards_[(MixId(tenant_id) >> 32) %
                  static_cast<uint64_t>(options_.lru_shards)];
}

CatalogService::PoolWriter& CatalogService::WriterFor(uint64_t tenant_id) {
  return *writers_[static_cast<size_t>(WriterIndexForTenant(tenant_id))];
}

std::shared_ptr<CatalogService::Tenant> CatalogService::GetTenant(
    uint64_t tenant_id) {
  LruShard& shard = ShardFor(tenant_id);
  std::lock_guard<std::mutex> lock(shard.mutex);
  std::shared_ptr<Tenant>& slot = shard.tenants[tenant_id];
  if (slot == nullptr) {
    slot = std::make_shared<Tenant>(tenant_id);
  }
  return slot;
}

void CatalogService::TouchLru(LruShard& shard, uint64_t tenant_id) {
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.lru_pos.find(tenant_id);
  if (it != shard.lru_pos.end()) {
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  }
}

Status CatalogService::CompileLocked(Tenant* tenant) {
  GEOLIC_ASSIGN_OR_RETURN(Workload baseline,
                          source_->MakeTenant(tenant->tenant_id));
  tenant->schema = std::move(baseline.schema);
  tenant->licenses = std::move(baseline.licenses);
  GEOLIC_ASSIGN_OR_RETURN(
      tenant->service,
      IssuanceService::Create(tenant->licenses.get(),
                              options_.service_options));
  tenant->epoch_base = 0;
  return Status::Ok();
}

Status CatalogService::LoadSpillLocked(Tenant* tenant,
                                       const std::string& payload) {
  auto fail = [&](const std::string& message) {
    return Status::ParseError(TenantLabel(tenant->tenant_id) + " spill " +
                              SpillPath(tenant->tenant_id) + ": " + message);
  };
  size_t pos = 0;
  uint32_t version = 0;
  uint64_t stored_id = 0;
  uint64_t covered_seq = 0;
  uint64_t epoch = 0;
  uint32_t license_count = 0;
  if (!framing::GetScalar(payload, &pos, &version) ||
      !framing::GetScalar(payload, &pos, &stored_id) ||
      !framing::GetScalar(payload, &pos, &covered_seq) ||
      !framing::GetScalar(payload, &pos, &epoch) ||
      !framing::GetScalar(payload, &pos, &license_count)) {
    return fail("truncated spill header");
  }
  if (version != kSpillVersion) {
    return fail("unsupported spill version " + std::to_string(version));
  }
  if (stored_id != tenant->tenant_id) {
    return fail("payload holds tenant " + std::to_string(stored_id) +
                " — spill file misplaced");
  }
  if (license_count == 0) {
    return fail("spill carries no licenses");
  }

  // The schema is a pure function of the tenant id; only the evolved
  // license set and log need the disk bytes.
  GEOLIC_ASSIGN_OR_RETURN(Workload baseline,
                          source_->MakeTenant(tenant->tenant_id));
  std::unique_ptr<ConstraintSchema> schema = std::move(baseline.schema);
  auto catalog = std::make_unique<LicenseCatalog>(schema.get());

  std::istringstream in(payload.substr(pos));
  for (uint32_t i = 0; i < license_count; ++i) {
    auto license = ReadLicenseBinary(&in);
    if (!license.ok()) {
      return fail("license " + std::to_string(i) + ": " +
                  license.status().message());
    }
    auto added = catalog->Add(std::move(license).value());
    if (!added.ok()) {
      return fail("license " + std::to_string(i) + ": " +
                  added.status().message());
    }
  }
  const std::streampos consumed = in.tellg();
  if (consumed < 0) {
    return fail("license section lost stream position");
  }
  pos += static_cast<size_t>(consumed);

  uint64_t record_count = 0;
  if (!framing::GetScalar(payload, &pos, &record_count)) {
    return fail("truncated record count");
  }
  LogStore history;
  for (uint64_t i = 0; i < record_count; ++i) {
    LogRecord record;
    Status decoded = DecodeLogRecord(payload, &pos, &record);
    if (!decoded.ok()) {
      return fail("record " + std::to_string(i) + ": " + decoded.message());
    }
    Status appended = history.Append(std::move(record));
    if (!appended.ok()) {
      return fail("record " + std::to_string(i) + ": " + appended.message());
    }
  }
  if (pos != payload.size()) {
    return fail(std::to_string(payload.size() - pos) +
                " trailing bytes after the record section");
  }

  GEOLIC_ASSIGN_OR_RETURN(
      std::unique_ptr<IssuanceService> service,
      IssuanceService::CreateWithHistory(catalog.get(),
                                         options_.service_options, history));
  tenant->schema = std::move(schema);
  tenant->licenses = std::move(catalog);
  tenant->service = std::move(service);
  tenant->epoch_base = epoch;
  tenant->tenant_seq = covered_seq;
  return Status::Ok();
}

Status CatalogService::EnsureResidentLocked(Tenant* tenant) {
  if (tenant->resident) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    TouchLru(ShardFor(tenant->tenant_id), tenant->tenant_id);
    return Status::Ok();
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  ScopedTracerSpan span(options_.tracer, TraceStage::kCatalogCompile);

  const std::string spill_path = SpillPath(tenant->tenant_id);
  std::error_code ec;
  const bool has_spill = std::filesystem::exists(spill_path, ec);
  if (has_spill) {
    auto payload =
        ReadCheckpointFile(CheckpointKind::kTenantSnapshot, spill_path);
    if (!payload.ok()) {
      return Status(payload.status().code(),
                    TenantLabel(tenant->tenant_id) + " spill " + spill_path +
                        ": " + payload.status().message());
    }
    GEOLIC_RETURN_IF_ERROR(LoadSpillLocked(tenant, *payload));
    loads_.fetch_add(1, std::memory_order_relaxed);
  } else {
    GEOLIC_RETURN_IF_ERROR(CompileLocked(tenant));
    compiles_.fetch_add(1, std::memory_order_relaxed);
  }

  tenant->resident = true;
  tenant->table_bytes = tenant->service->dense_table_bytes();
  tenant->approx_bytes =
      ApproxTenantBytes(static_cast<size_t>(tenant->licenses->size()),
                        tenant->service->CollectLog().size()) +
      tenant->table_bytes;
  LruShard& shard = ShardFor(tenant->tenant_id);
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.lru.push_front(tenant->tenant_id);
    shard.lru_pos[tenant->tenant_id] = shard.lru.begin();
  }
  shard.resident_bytes.fetch_add(tenant->approx_bytes,
                                 std::memory_order_relaxed);
  resident_tenants_.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

void CatalogService::ChargeTablesLocked(Tenant* tenant) {
  const size_t now = tenant->service->dense_table_bytes();
  std::atomic<size_t>& resident = ShardFor(tenant->tenant_id).resident_bytes;
  if (now >= tenant->table_bytes) {
    resident.fetch_add(now - tenant->table_bytes, std::memory_order_relaxed);
  } else {
    resident.fetch_sub(tenant->table_bytes - now, std::memory_order_relaxed);
  }
  tenant->approx_bytes = tenant->approx_bytes - tenant->table_bytes + now;
  tenant->table_bytes = now;
}

Result<std::string> CatalogService::EncodeSpillLocked(
    const Tenant& tenant) const {
  std::string payload;
  framing::PutScalar<uint32_t>(&payload, kSpillVersion);
  framing::PutScalar<uint64_t>(&payload, tenant.tenant_id);
  framing::PutScalar<uint64_t>(&payload, tenant.tenant_seq);
  framing::PutScalar<uint64_t>(
      &payload, tenant.epoch_base + tenant.service->catalog_epoch());

  const std::vector<License>& licenses =
      tenant.service->licenses().licenses();
  framing::PutScalar<uint32_t>(&payload,
                               static_cast<uint32_t>(licenses.size()));
  std::ostringstream blob;
  for (const License& license : licenses) {
    GEOLIC_RETURN_IF_ERROR(WriteLicenseBinary(license, &blob));
  }
  payload += blob.str();

  const LogStore log = tenant.service->CollectLog();
  framing::PutScalar<uint64_t>(&payload, static_cast<uint64_t>(log.size()));
  for (const LogRecord& record : log.records()) {
    EncodeLogRecord(record, &payload);
  }
  return payload;
}

Status CatalogService::SpillLocked(Tenant* tenant, bool evicting) {
  if (!tenant->resident) {
    return Status::Ok();
  }
  ScopedTracerSpan span(options_.tracer, TraceStage::kCatalogEvict);
  GEOLIC_ASSIGN_OR_RETURN(std::string payload, EncodeSpillLocked(*tenant));
  // Durable atomic publish (temp + fsync + rename + dir fsync): recovery
  // truncates the journal pool on the strength of these files, and live
  // eviction replaces the previous good spill — a torn or page-cache-only
  // in-place overwrite would silently lose the tenant.
  GEOLIC_RETURN_IF_ERROR(WriteCheckpointFileDurable(
      CheckpointKind::kTenantSnapshot, payload,
      SpillPath(tenant->tenant_id)));
  tenant->service.reset();
  tenant->licenses.reset();
  tenant->schema.reset();
  tenant->resident = false;

  LruShard& shard = ShardFor(tenant->tenant_id);
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.lru_pos.find(tenant->tenant_id);
    if (it != shard.lru_pos.end()) {
      shard.lru.erase(it->second);
      shard.lru_pos.erase(it);
    }
  }
  shard.resident_bytes.fetch_sub(tenant->approx_bytes,
                                 std::memory_order_relaxed);
  tenant->approx_bytes = 0;
  tenant->table_bytes = 0;
  resident_tenants_.fetch_sub(1, std::memory_order_relaxed);
  spills_.fetch_add(1, std::memory_order_relaxed);
  if (evicting) {
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::Ok();
}

void CatalogService::MaybeEvict(LruShard& shard) {
  // Bounded sweep: budget pressure from a single op is at most one
  // tenant's worth, so a short loop always catches up; the guard only
  // protects against pathological interleavings.
  for (int guard = 0; guard < 64; ++guard) {
    uint64_t victim_id = 0;
    std::shared_ptr<Tenant> victim;
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      if (shard.resident_bytes.load(std::memory_order_relaxed) <=
              shard_budget_bytes_ ||
          shard.lru.size() <= 1) {
        return;
      }
      victim_id = shard.lru.back();
      auto it = shard.tenants.find(victim_id);
      if (it == shard.tenants.end()) {
        return;
      }
      victim = it->second;
    }
    std::lock_guard<std::mutex> tenant_lock(victim->mutex);
    {
      // Re-check under the shard lock: the victim may have been touched
      // to the front (or spilled) while we waited for its mutex.
      std::lock_guard<std::mutex> lock(shard.mutex);
      if (shard.lru.size() <= 1 || shard.lru.back() != victim_id) {
        continue;
      }
    }
    if (!victim->resident) {
      continue;
    }
    if (!SpillLocked(victim.get(), /*evicting=*/true).ok()) {
      // Spill I/O trouble: stop evicting rather than spin. The tenant
      // stays resident (and over budget) — better than losing state.
      return;
    }
    {
      // Drop the cold shell when nobody else holds it: map size stays
      // bounded by residents + in-flight lookups, not total tenants ever
      // seen. New references are only handed out under the shard lock, so
      // use_count == 2 (map + our local) is a stable "nobody else" proof.
      std::lock_guard<std::mutex> lock(shard.mutex);
      auto it = shard.tenants.find(victim_id);
      if (it != shard.tenants.end() && it->second.use_count() == 2 &&
          !it->second->resident) {
        shard.tenants.erase(it);
      }
    }
  }
}

Status CatalogService::CheckAcceptingOps() const {
  if (failed_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition(
        "catalog fail-stopped: a pool journal writer was poisoned by an "
        "I/O error; mutating ops are rejected until a restart through "
        "CatalogService::Recover");
  }
  return Status::Ok();
}

void CatalogService::NotePoisonedWriterLocked(PoolWriter& pool) {
  if (!pool.counted_poisoned) {
    pool.counted_poisoned = true;
    poisoned_writers_.fetch_add(1, std::memory_order_relaxed);
  }
  failed_.store(true, std::memory_order_release);
}

Status CatalogService::JournalOpLocked(Tenant* tenant, TenantOpFrame* frame) {
  frame->tenant_id = tenant->tenant_id;
  frame->tenant_seq = tenant->tenant_seq + 1;
  if (options_.sim_misroute_frames && frame->tenant_seq % 7 == 5) {
    // Planted bug (sim harness): stamp a sibling tenant's id on the frame.
    // Routing still uses the true id, so recovery must notice the lie.
    frame->tenant_id = tenant->tenant_id ^ 1;
  }
  if (!journaling_enabled_) {
    ++tenant->tenant_seq;
    return Status::Ok();
  }
  PoolWriter& pool = WriterFor(tenant->tenant_id);
  std::lock_guard<std::mutex> lock(pool.mutex);
  if (pool.writer == nullptr) {
    return Status::FailedPrecondition("catalog journal pool is closed");
  }
  Status appended = pool.writer->AppendTenantOp(pool.next_seq + 1, *frame);
  if (!appended.ok()) {
    // Maybe-persisted: the frame may or may not have reached the disk.
    // The op is rejected with tenant state unchanged; recovery is allowed
    // to replay at most this one extra frame. An I/O error poisons the
    // writer for good, and a catalog that keeps serving tenants it can no
    // longer journal is a silent durability hole — fail-stop the whole
    // catalog instead. (Argument rejections do not poison and stay
    // per-op.)
    if (pool.writer->poisoned()) {
      NotePoisonedWriterLocked(pool);
    }
    return appended;
  }
  ++pool.next_seq;
  ++tenant->tenant_seq;
  journal_frames_.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

Result<OnlineDecision> CatalogService::TryIssue(uint64_t tenant_id,
                                                const License& usage) {
  GEOLIC_RETURN_IF_ERROR(CheckAcceptingOps());
  std::shared_ptr<Tenant> tenant = GetTenant(tenant_id);
  Result<OnlineDecision> result = [&]() -> Result<OnlineDecision> {
    std::lock_guard<std::mutex> lock(tenant->mutex);
    GEOLIC_RETURN_IF_ERROR(EnsureResidentLocked(tenant.get()));
    TenantOpFrame frame;
    frame.op = TenantOpKind::kIssue;
    frame.license = usage;
    GEOLIC_RETURN_IF_ERROR(JournalOpLocked(tenant.get(), &frame));
    GEOLIC_ASSIGN_OR_RETURN(OnlineDecision decision,
                            tenant->service->TryIssue(usage));
    decision.catalog_epoch += tenant->epoch_base;
    if (decision.accepted()) {
      tenant->approx_bytes += kRecordBytes;
      ShardFor(tenant_id).resident_bytes.fetch_add(kRecordBytes,
                                                   std::memory_order_relaxed);
    }
    return decision;
  }();
  MaybeEvict(ShardFor(tenant_id));
  return result;
}

Result<int> CatalogService::AcquireLicense(uint64_t tenant_id,
                                           const License& license) {
  GEOLIC_RETURN_IF_ERROR(CheckAcceptingOps());
  std::shared_ptr<Tenant> tenant = GetTenant(tenant_id);
  Result<int> result = [&]() -> Result<int> {
    std::lock_guard<std::mutex> lock(tenant->mutex);
    GEOLIC_RETURN_IF_ERROR(EnsureResidentLocked(tenant.get()));
    TenantOpFrame frame;
    frame.op = TenantOpKind::kAcquire;
    frame.license = license;
    GEOLIC_RETURN_IF_ERROR(JournalOpLocked(tenant.get(), &frame));
    GEOLIC_ASSIGN_OR_RETURN(int index,
                            tenant->service->AcquireLicense(license));
    tenant->approx_bytes += kLicenseBytes;
    ShardFor(tenant_id).resident_bytes.fetch_add(kLicenseBytes,
                                                 std::memory_order_relaxed);
    ChargeTablesLocked(tenant.get());
    return index;
  }();
  MaybeEvict(ShardFor(tenant_id));
  return result;
}

Status CatalogService::RevokeLicenseById(uint64_t tenant_id,
                                         const std::string& id) {
  GEOLIC_RETURN_IF_ERROR(CheckAcceptingOps());
  std::shared_ptr<Tenant> tenant = GetTenant(tenant_id);
  Status result = [&]() -> Status {
    std::lock_guard<std::mutex> lock(tenant->mutex);
    GEOLIC_RETURN_IF_ERROR(EnsureResidentLocked(tenant.get()));
    TenantOpFrame frame;
    frame.op = TenantOpKind::kRevoke;
    frame.revoke_id = id;
    GEOLIC_RETURN_IF_ERROR(JournalOpLocked(tenant.get(), &frame));
    GEOLIC_RETURN_IF_ERROR(tenant->service->RevokeLicenseById(id));
    ChargeTablesLocked(tenant.get());
    return Status::Ok();
  }();
  MaybeEvict(ShardFor(tenant_id));
  return result;
}

Result<int> CatalogService::ExpireDimensionBelow(uint64_t tenant_id, int dim,
                                                 int64_t cutoff) {
  GEOLIC_RETURN_IF_ERROR(CheckAcceptingOps());
  std::shared_ptr<Tenant> tenant = GetTenant(tenant_id);
  Result<int> result = [&]() -> Result<int> {
    std::lock_guard<std::mutex> lock(tenant->mutex);
    GEOLIC_RETURN_IF_ERROR(EnsureResidentLocked(tenant.get()));
    TenantOpFrame frame;
    frame.op = TenantOpKind::kExpire;
    frame.expire_dim = dim;
    frame.expire_cutoff = cutoff;
    GEOLIC_RETURN_IF_ERROR(JournalOpLocked(tenant.get(), &frame));
    GEOLIC_ASSIGN_OR_RETURN(int removed,
                            tenant->service->ExpireDimensionBelow(dim, cutoff));
    ChargeTablesLocked(tenant.get());
    return removed;
  }();
  MaybeEvict(ShardFor(tenant_id));
  return result;
}

Result<uint64_t> CatalogService::TenantEpoch(uint64_t tenant_id) {
  std::shared_ptr<Tenant> tenant = GetTenant(tenant_id);
  Result<uint64_t> result = [&]() -> Result<uint64_t> {
    std::lock_guard<std::mutex> lock(tenant->mutex);
    GEOLIC_RETURN_IF_ERROR(EnsureResidentLocked(tenant.get()));
    return tenant->epoch_base + tenant->service->catalog_epoch();
  }();
  MaybeEvict(ShardFor(tenant_id));
  return result;
}

Status CatalogService::SpillTenant(uint64_t tenant_id) {
  LruShard& shard = ShardFor(tenant_id);
  std::shared_ptr<Tenant> tenant;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.tenants.find(tenant_id);
    if (it == shard.tenants.end()) {
      return Status::Ok();
    }
    tenant = it->second;
  }
  std::lock_guard<std::mutex> lock(tenant->mutex);
  return SpillLocked(tenant.get(), /*evicting=*/false);
}

Result<CatalogService::TenantSnapshot> CatalogService::SnapshotTenant(
    uint64_t tenant_id) {
  std::shared_ptr<Tenant> tenant = GetTenant(tenant_id);
  Result<TenantSnapshot> result = [&]() -> Result<TenantSnapshot> {
    std::lock_guard<std::mutex> lock(tenant->mutex);
    GEOLIC_RETURN_IF_ERROR(EnsureResidentLocked(tenant.get()));
    TenantSnapshot snapshot;
    snapshot.licenses = tenant->service->licenses().licenses();
    snapshot.log = tenant->service->CollectLog();
    snapshot.epoch = tenant->epoch_base + tenant->service->catalog_epoch();
    snapshot.tenant_seq = tenant->tenant_seq;
    return snapshot;
  }();
  MaybeEvict(ShardFor(tenant_id));
  return result;
}

Status CatalogService::SyncJournals() {
  for (auto& pool : writers_) {
    std::lock_guard<std::mutex> lock(pool->mutex);
    if (pool->writer != nullptr) {
      Status synced = pool->writer->Sync();
      if (!synced.ok()) {
        // A failed fsync may have lost acknowledged frames; the writer is
        // poisoned, so the catalog fail-stops just as on an append error.
        if (pool->writer->poisoned()) {
          NotePoisonedWriterLocked(*pool);
        }
        return synced;
      }
    }
  }
  return Status::Ok();
}

Status CatalogService::Close() {
  Status first_error;
  for (auto& pool : writers_) {
    std::lock_guard<std::mutex> lock(pool->mutex);
    if (pool->writer != nullptr) {
      Status closed = pool->writer->Close();
      if (!closed.ok() && first_error.ok()) {
        first_error = closed;
      }
      pool->writer.reset();
    }
  }
  return first_error;
}

CatalogStats CatalogService::stats() const {
  CatalogStats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.compiles = compiles_.load(std::memory_order_relaxed);
  stats.loads = loads_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.spills = spills_.load(std::memory_order_relaxed);
  stats.recovered_tenants = recovered_tenants_.load(std::memory_order_relaxed);
  stats.journal_frames = journal_frames_.load(std::memory_order_relaxed);
  stats.resident_tenants = resident_tenants_.load(std::memory_order_relaxed);
  stats.poisoned_writers = poisoned_writers_.load(std::memory_order_relaxed);
  size_t resident_bytes = 0;
  for (const auto& shard : shards_) {
    resident_bytes += shard->resident_bytes.load(std::memory_order_relaxed);
  }
  stats.resident_bytes = resident_bytes;
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

Status CatalogService::ReplayOpLocked(Tenant* tenant,
                                      const TenantOpFrame& frame,
                                      CatalogRecoveryStats* stats) {
  switch (frame.op) {
    case TenantOpKind::kIssue: {
      if (!frame.license.has_value()) {
        return Status::Internal("issue frame without a license");
      }
      auto decision = tenant->service->TryIssue(*frame.license);
      if (!decision.ok()) {
        // The live op was journaled as an intent and then rejected with
        // this same (deterministic) error; the rejection replays as-is.
        ++stats->replayed_rejections;
      }
      return Status::Ok();
    }
    case TenantOpKind::kAcquire: {
      if (!frame.license.has_value()) {
        return Status::Internal("acquire frame without a license");
      }
      auto index = tenant->service->AcquireLicense(*frame.license);
      if (!index.ok()) {
        ++stats->replayed_rejections;
      }
      return Status::Ok();
    }
    case TenantOpKind::kRevoke: {
      Status revoked = tenant->service->RevokeLicenseById(frame.revoke_id);
      if (!revoked.ok()) {
        ++stats->replayed_rejections;
      }
      return Status::Ok();
    }
    case TenantOpKind::kExpire: {
      auto removed = tenant->service->ExpireDimensionBelow(
          frame.expire_dim, frame.expire_cutoff);
      if (!removed.ok()) {
        ++stats->replayed_rejections;
      }
      return Status::Ok();
    }
  }
  return Status::Internal("unknown tenant op kind in replay");
}

Result<std::unique_ptr<CatalogService>> CatalogService::Recover(
    TenantSource* source, const CatalogOptions& options,
    CatalogRecoveryStats* stats) {
  GEOLIC_RETURN_IF_ERROR(options.Validate());
  std::error_code ec;
  std::filesystem::create_directories(options.dir, ec);
  if (ec) {
    return Status::IoError("cannot create catalog dir " + options.dir + ": " +
                           ec.message());
  }
  CatalogRecoveryStats local_stats;
  if (stats == nullptr) {
    stats = &local_stats;
  }
  *stats = CatalogRecoveryStats();

  auto service =
      std::unique_ptr<CatalogService>(new CatalogService(source, options));

  // Phase 1: parse the whole pool before touching any state. Frames are
  // validated for kind and routing here; per-tenant sequence checks run in
  // phase 2 against each tenant's spill coverage.
  struct PendingFrame {
    TenantOpFrame frame;
    int journal_index;
    uint64_t writer_seq;
  };
  std::map<uint64_t, std::vector<PendingFrame>> by_tenant;
  for (int k = 0; k < options.journal_writers; ++k) {
    const std::string path = service->JournalPath(k);
    std::error_code exists_ec;
    if (!std::filesystem::exists(path, exists_ec)) {
      continue;
    }
    auto replay = JournalReader::ReadFile(path);
    if (!replay.ok()) {
      return Status(replay.status().code(),
                    "catalog journal " + path + ": " +
                        replay.status().message());
    }
    if (replay->torn_tail) {
      ++stats->torn_tails;
    }
    for (JournalEntry& entry : replay->entries) {
      if (entry.kind != JournalEntryKind::kTenantOp) {
        return Status::ParseError(
            "catalog journal " + path + " frame " +
            std::to_string(entry.seq) +
            ": not a tenant-tagged frame — single-service journal in the "
            "catalog pool?");
      }
      const int expected_index =
          service->WriterIndexForTenant(entry.tenant.tenant_id);
      if (expected_index != k) {
        return Status::ParseError(
            "catalog journal " + path + " frame " +
            std::to_string(entry.seq) + ": " +
            TenantLabel(entry.tenant.tenant_id) +
            " routes to catalog-journal-" + std::to_string(expected_index) +
            " — misrouted or corrupt frame");
      }
      ++stats->journal_frames;
      by_tenant[entry.tenant.tenant_id].push_back(
          {std::move(entry.tenant), k, entry.seq});
    }
  }

  // Phase 2: rebuild touched tenants one at a time (spill-or-compile plus
  // the journaled tail), re-spill each, free it — memory stays bounded no
  // matter how many tenants the crash left dirty.
  for (auto& [tenant_id, frames] : by_tenant) {
    std::shared_ptr<Tenant> tenant = service->GetTenant(tenant_id);
    std::lock_guard<std::mutex> lock(tenant->mutex);
    std::error_code spill_ec;
    const bool had_spill =
        std::filesystem::exists(service->SpillPath(tenant_id), spill_ec);
    GEOLIC_RETURN_IF_ERROR(service->EnsureResidentLocked(tenant.get()));
    if (had_spill) {
      ++stats->spill_loads;
    } else {
      ++stats->compiles;
    }

    uint64_t previous_seq = 0;
    for (const PendingFrame& pending : frames) {
      const uint64_t seq = pending.frame.tenant_seq;
      if (previous_seq != 0 && seq != previous_seq + 1) {
        return Status::ParseError(
            TenantLabel(tenant_id) + ": journal op sequence jumps from " +
            std::to_string(previous_seq) + " to " + std::to_string(seq) +
            " in catalog-journal-" + std::to_string(pending.journal_index) +
            " (writer frame " + std::to_string(pending.writer_seq) +
            ") — frames lost, duplicated or misrouted");
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
            "at op " + std::to_string(seq) + " in catalog-journal-" +
            std::to_string(pending.journal_index) +
            " — frames lost or misrouted");
      }
      GEOLIC_RETURN_IF_ERROR(
          service->ReplayOpLocked(tenant.get(), pending.frame, stats));
      tenant->tenant_seq = seq;
      ++stats->frames_replayed;
    }

    GEOLIC_RETURN_IF_ERROR(
        service->SpillLocked(tenant.get(), /*evicting=*/false));
    ++stats->tenants_recovered;
    service->recovered_tenants_.fetch_add(1, std::memory_order_relaxed);
  }

  // Phase 3: every touched tenant is checkpointed — now (and only now) the
  // journals may truncate. A crash before this point re-runs recovery off
  // the same journals; a crash after it finds the spills authoritative.
  GEOLIC_RETURN_IF_ERROR(service->OpenJournals());
  return service;
}

}  // namespace geolic

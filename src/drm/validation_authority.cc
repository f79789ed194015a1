#include "drm/validation_authority.h"

#include <cstring>
#include <fstream>
#include <utility>

#include "licensing/license_serialization.h"

namespace geolic {
namespace {

constexpr char kCheckpointMagic[8] = {'G', 'L', 'A', 'U', 'T', 'H', '1',
                                      '\0'};

void WriteString(std::ostream* out, const std::string& text) {
  const uint32_t size = static_cast<uint32_t>(text.size());
  out->write(reinterpret_cast<const char*>(&size), sizeof(size));
  out->write(text.data(), size);
}

Result<std::string> ReadString(std::istream* in, uint32_t max_size) {
  uint32_t size = 0;
  in->read(reinterpret_cast<char*>(&size), sizeof(size));
  if (!*in || size > max_size) {
    return Status::ParseError("bad string in checkpoint");
  }
  std::string text(size, '\0');
  in->read(text.data(), size);
  if (!*in) {
    return Status::ParseError("truncated string in checkpoint");
  }
  return text;
}

}  // namespace

Status ValidationAuthority::RebuildService(Domain* domain,
                                           const LogStore& history) {
  GEOLIC_ASSIGN_OR_RETURN(
      domain->service,
      IssuanceService::CreateWithHistory(domain->licenses.get(),
                                         service_options_, history));
  return Status::Ok();
}

Status ValidationAuthority::RegisterRedistribution(License license) {
  if (license.type() != LicenseType::kRedistribution) {
    return Status::InvalidArgument(
        "only redistribution licenses can be registered: " + license.id());
  }
  if (license.rect().dimensions() != schema_->dimensions()) {
    return Status::InvalidArgument("schema dimensionality mismatch for " +
                                   license.id());
  }
  const ContentKey key = KeyOf(license);
  Domain& domain = domains_[key];
  if (domain.licenses == nullptr) {
    domain.licenses = std::make_unique<LicenseCatalog>(schema_);
  }
  const Result<int> added = domain.licenses->Add(std::move(license));
  if (!added.ok()) {
    if (domain.licenses->empty()) {
      domains_.erase(key);  // Don't leave an empty shell behind.
    }
    return added.status();
  }
  const LogStore history =
      domain.service == nullptr ? LogStore() : domain.service->CollectLog();
  return RebuildService(&domain, history);
}

Result<OnlineDecision> ValidationAuthority::ValidateIssue(
    const License& issued) {
  const auto it = domains_.find(KeyOf(issued));
  if (it == domains_.end()) {
    return Status::NotFound("no redistribution licenses registered for "
                            "content " +
                            issued.content_key());
  }
  return it->second.service->TryIssue(issued);
}

Result<std::vector<OnlineDecision>> ValidationAuthority::ValidateIssueBatch(
    const ContentKey& key, const std::vector<License>& batch) {
  const auto it = domains_.find(key);
  if (it == domains_.end()) {
    return Status::NotFound("unknown content domain: " + key.content);
  }
  for (const License& license : batch) {
    if (KeyOf(license) != key) {
      return Status::InvalidArgument(
          "batch license " + license.id() + " belongs to another domain");
    }
  }
  return it->second.service->TryIssueBatch(batch);
}

std::vector<ValidationAuthority::ContentKey> ValidationAuthority::Keys()
    const {
  std::vector<ContentKey> keys;
  keys.reserve(domains_.size());
  for (const auto& [key, domain] : domains_) {
    keys.push_back(key);
  }
  return keys;
}

Result<const LicenseCatalog*> ValidationAuthority::LicensesFor(
    const ContentKey& key) const {
  const auto it = domains_.find(key);
  if (it == domains_.end()) {
    return Status::NotFound("unknown content domain: " + key.content);
  }
  return static_cast<const LicenseCatalog*>(it->second.licenses.get());
}

Result<LogStore> ValidationAuthority::LogFor(const ContentKey& key) const {
  const auto it = domains_.find(key);
  if (it == domains_.end()) {
    return Status::NotFound("unknown content domain: " + key.content);
  }
  return it->second.service->CollectLog();
}

Result<const IssuanceService*> ValidationAuthority::ServiceFor(
    const ContentKey& key) const {
  const auto it = domains_.find(key);
  if (it == domains_.end()) {
    return Status::NotFound("unknown content domain: " + key.content);
  }
  return static_cast<const IssuanceService*>(it->second.service.get());
}

Result<ValidationAuthority::ContentAudit> ValidationAuthority::Audit(
    const ContentKey& key) const {
  const auto it = domains_.find(key);
  if (it == domains_.end()) {
    return Status::NotFound("unknown content domain: " + key.content);
  }
  ContentAudit audit;
  audit.key = key;
  GEOLIC_ASSIGN_OR_RETURN(audit.result,
                          Validate(*it->second.licenses,
                                   it->second.service->CollectLog(),
                                   {.mode = ValidationMode::kGrouped}));
  return audit;
}

Result<std::vector<ValidationAuthority::ContentAudit>>
ValidationAuthority::AuditAll() const {
  std::vector<ContentAudit> audits;
  audits.reserve(domains_.size());
  for (const auto& [key, domain] : domains_) {
    GEOLIC_ASSIGN_OR_RETURN(ContentAudit audit, Audit(key));
    audits.push_back(std::move(audit));
  }
  return audits;
}

Result<ValidationAuthority::PeriodClose> ValidationAuthority::ClosePeriod(
    const ContentKey& key) {
  const auto it = domains_.find(key);
  if (it == domains_.end()) {
    return Status::NotFound("unknown content domain: " + key.content);
  }
  Domain& domain = it->second;
  PeriodClose close;
  close.audit.key = key;
  close.archived_log = domain.service->CollectLog();
  GEOLIC_ASSIGN_OR_RETURN(close.audit.result,
                          Validate(*domain.licenses, close.archived_log,
                                   {.mode = ValidationMode::kGrouped}));
  if (close.audit.result.report.all_valid()) {
    GEOLIC_ASSIGN_OR_RETURN(
        close.settlement,
        ComputeSettlement(*domain.licenses, close.archived_log));
    close.settled = true;
  }
  // Fresh period: same licenses, empty history.
  GEOLIC_RETURN_IF_ERROR(RebuildService(&domain, LogStore()));
  return close;
}

Status ValidationAuthority::CheckpointLogs(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return Status::IoError("cannot open for writing: " + path);
  }
  out.write(kCheckpointMagic, sizeof(kCheckpointMagic));
  const uint32_t domain_count = static_cast<uint32_t>(domains_.size());
  out.write(reinterpret_cast<const char*>(&domain_count),
            sizeof(domain_count));
  for (const auto& [key, domain] : domains_) {
    WriteString(&out, key.content);
    const int32_t permission = static_cast<int32_t>(key.permission);
    out.write(reinterpret_cast<const char*>(&permission),
              sizeof(permission));
    const LogStore log = domain.service->CollectLog();
    const uint64_t records = log.size();
    out.write(reinterpret_cast<const char*>(&records), sizeof(records));
    for (const LogRecord& record : log.records()) {
      out.write(reinterpret_cast<const char*>(&record.set),
                sizeof(record.set));
      out.write(reinterpret_cast<const char*>(&record.count),
                sizeof(record.count));
      WriteString(&out, record.issued_license_id);
    }
  }
  if (!out) {
    return Status::IoError("checkpoint write failed: " + path);
  }
  return Status::Ok();
}

Status ValidationAuthority::RestoreLogs(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IoError("cannot open for reading: " + path);
  }
  char magic[sizeof(kCheckpointMagic)];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kCheckpointMagic, sizeof(magic)) != 0) {
    return Status::ParseError("not a geolic authority checkpoint: " + path);
  }
  uint32_t domain_count = 0;
  in.read(reinterpret_cast<char*>(&domain_count), sizeof(domain_count));
  if (!in || domain_count > 1u << 20) {
    return Status::ParseError("bad domain count in checkpoint");
  }

  // Stage everything first so a bad checkpoint leaves state untouched.
  std::vector<std::pair<ContentKey, LogStore>> staged;
  for (uint32_t d = 0; d < domain_count; ++d) {
    GEOLIC_ASSIGN_OR_RETURN(std::string content, ReadString(&in, 1u << 16));
    int32_t permission = 0;
    uint64_t records = 0;
    in.read(reinterpret_cast<char*>(&permission), sizeof(permission));
    in.read(reinterpret_cast<char*>(&records), sizeof(records));
    if (!in || permission < 0 || permission >= kNumPermissions ||
        records > uint64_t{1} << 32) {
      return Status::ParseError("bad domain header in checkpoint");
    }
    ContentKey key{std::move(content), static_cast<Permission>(permission)};
    LogStore log;
    for (uint64_t r = 0; r < records; ++r) {
      LogRecord record;
      in.read(reinterpret_cast<char*>(&record.set), sizeof(record.set));
      in.read(reinterpret_cast<char*>(&record.count), sizeof(record.count));
      if (!in) {
        return Status::ParseError("truncated record in checkpoint");
      }
      GEOLIC_ASSIGN_OR_RETURN(record.issued_license_id,
                              ReadString(&in, 1u << 12));
      GEOLIC_RETURN_IF_ERROR(log.Append(std::move(record)));
    }
    const auto it = domains_.find(key);
    if (it == domains_.end()) {
      return Status::FailedPrecondition(
          "checkpoint references unregistered content: " + key.content);
    }
    LicenseSet mentioned;
    for (const LogRecord& record : log.records()) {
      mentioned |= record.set;
    }
    if (!mentioned.IsSubsetOf(it->second.licenses->AllMask())) {
      return Status::FailedPrecondition(
          "checkpoint log references unknown license indexes for " +
          key.content);
    }
    staged.emplace_back(std::move(key), std::move(log));
  }

  for (auto& [key, log] : staged) {
    Domain& domain = domains_[key];
    GEOLIC_RETURN_IF_ERROR(RebuildService(&domain, log));
  }
  return Status::Ok();
}

namespace {

constexpr char kFullCheckpointMagic[8] = {'G', 'L', 'A', 'U', 'T', 'H', '2',
                                          '\0'};

}  // namespace

Status ValidationAuthority::CheckpointFull(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return Status::IoError("cannot open for writing: " + path);
  }
  out.write(kFullCheckpointMagic, sizeof(kFullCheckpointMagic));
  const uint32_t domain_count = static_cast<uint32_t>(domains_.size());
  out.write(reinterpret_cast<const char*>(&domain_count),
            sizeof(domain_count));
  for (const auto& [key, domain] : domains_) {
    WriteString(&out, key.content);
    const int32_t permission = static_cast<int32_t>(key.permission);
    out.write(reinterpret_cast<const char*>(&permission),
              sizeof(permission));
    const uint32_t license_count =
        static_cast<uint32_t>(domain.licenses->size());
    out.write(reinterpret_cast<const char*>(&license_count),
              sizeof(license_count));
    for (int i = 0; i < domain.licenses->size(); ++i) {
      GEOLIC_RETURN_IF_ERROR(
          WriteLicenseBinary(domain.licenses->at(i), &out));
    }
    const LogStore log = domain.service->CollectLog();
    const uint64_t records = log.size();
    out.write(reinterpret_cast<const char*>(&records), sizeof(records));
    for (const LogRecord& record : log.records()) {
      out.write(reinterpret_cast<const char*>(&record.set),
                sizeof(record.set));
      out.write(reinterpret_cast<const char*>(&record.count),
                sizeof(record.count));
      WriteString(&out, record.issued_license_id);
    }
  }
  if (!out) {
    return Status::IoError("checkpoint write failed: " + path);
  }
  return Status::Ok();
}

Status ValidationAuthority::RestoreFull(const std::string& path) {
  if (!domains_.empty()) {
    return Status::FailedPrecondition(
        "RestoreFull requires an empty authority");
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IoError("cannot open for reading: " + path);
  }
  char magic[sizeof(kFullCheckpointMagic)];
  in.read(magic, sizeof(magic));
  if (!in ||
      std::memcmp(magic, kFullCheckpointMagic, sizeof(magic)) != 0) {
    return Status::ParseError("not a geolic full checkpoint: " + path);
  }
  uint32_t domain_count = 0;
  in.read(reinterpret_cast<char*>(&domain_count), sizeof(domain_count));
  if (!in || domain_count > 1u << 20) {
    return Status::ParseError("bad domain count in checkpoint");
  }

  // Stage into a local map first; commit only on full success.
  std::map<ContentKey, Domain> staged;
  for (uint32_t d = 0; d < domain_count; ++d) {
    GEOLIC_ASSIGN_OR_RETURN(std::string content, ReadString(&in, 1u << 16));
    int32_t permission = 0;
    uint32_t license_count = 0;
    in.read(reinterpret_cast<char*>(&permission), sizeof(permission));
    in.read(reinterpret_cast<char*>(&license_count), sizeof(license_count));
    if (!in || permission < 0 || permission >= kNumPermissions ||
        license_count > static_cast<uint32_t>(kMaxLicensesLarge)) {
      return Status::ParseError("bad domain header in checkpoint");
    }
    const ContentKey key{std::move(content),
                         static_cast<Permission>(permission)};
    Domain domain;
    domain.licenses = std::make_unique<LicenseCatalog>(schema_);
    for (uint32_t i = 0; i < license_count; ++i) {
      GEOLIC_ASSIGN_OR_RETURN(License license, ReadLicenseBinary(&in));
      if (license.rect().dimensions() != schema_->dimensions()) {
        return Status::ParseError(
            "checkpoint license dimensionality disagrees with schema");
      }
      const Result<int> added = domain.licenses->Add(std::move(license));
      if (!added.ok()) {
        return added.status();
      }
    }
    uint64_t records = 0;
    in.read(reinterpret_cast<char*>(&records), sizeof(records));
    if (!in || records > uint64_t{1} << 32) {
      return Status::ParseError("bad record count in checkpoint");
    }
    LogStore log;
    for (uint64_t r = 0; r < records; ++r) {
      LogRecord record;
      in.read(reinterpret_cast<char*>(&record.set), sizeof(record.set));
      in.read(reinterpret_cast<char*>(&record.count), sizeof(record.count));
      if (!in) {
        return Status::ParseError("truncated record in checkpoint");
      }
      GEOLIC_ASSIGN_OR_RETURN(record.issued_license_id,
                              ReadString(&in, 1u << 12));
      if (!record.set.IsSubsetOf(domain.licenses->AllMask())) {
        return Status::ParseError(
            "checkpoint record references unknown license indexes");
      }
      GEOLIC_RETURN_IF_ERROR(log.Append(std::move(record)));
    }
    GEOLIC_RETURN_IF_ERROR(RebuildService(&domain, log));
    if (!staged.emplace(key, std::move(domain)).second) {
      return Status::ParseError("duplicate domain in checkpoint");
    }
  }
  domains_ = std::move(staged);
  return Status::Ok();
}

}  // namespace geolic

#include "drm/validation_authority.h"

#include <sstream>
#include <utility>

#include "licensing/license_serialization.h"
#include "persist/checkpoint.h"
#include "persist/framing.h"
#include "persist/journal.h"

namespace geolic {
namespace {

// Longest content key a snapshot may carry (a sanity bound on the length
// prefix, not a product limit).
constexpr uint32_t kMaxContentBytes = 1u << 16;

}  // namespace

Result<ValidationAuthority::Domain> ValidationAuthority::MakeDomain(
    std::unique_ptr<LicenseCatalog> base, const LogStore& history) const {
  Domain domain;
  GEOLIC_ASSIGN_OR_RETURN(
      domain.service,
      IssuanceService::CreateWithHistory(base.get(), service_options_,
                                         history));
  domain.base = std::move(base);
  return domain;
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
  const auto it = domains_.find(key);
  if (it != domains_.end()) {
    return it->second.service->AcquireLicense(license).status();
  }
  auto base = std::make_unique<LicenseCatalog>(schema_);
  GEOLIC_RETURN_IF_ERROR(base->Add(std::move(license)).status());
  GEOLIC_ASSIGN_OR_RETURN(Domain domain,
                          MakeDomain(std::move(base), LogStore()));
  domains_.emplace(key, std::move(domain));
  return Status::Ok();
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
  return &it->second.service->licenses();
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
  const IssuanceService& service = *it->second.service;
  GEOLIC_ASSIGN_OR_RETURN(audit.result,
                          Validate(service.licenses(), service.CollectLog(),
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
  const LicenseCatalog& licenses = domain.service->licenses();
  PeriodClose close;
  close.audit.key = key;
  close.archived_log = domain.service->CollectLog();
  GEOLIC_ASSIGN_OR_RETURN(close.audit.result,
                          Validate(licenses, close.archived_log,
                                   {.mode = ValidationMode::kGrouped}));
  if (close.audit.result.report.all_valid()) {
    GEOLIC_ASSIGN_OR_RETURN(close.settlement,
                            ComputeSettlement(licenses, close.archived_log));
    close.settled = true;
  }
  // Fresh period: same licenses, empty history. The current catalog may
  // belong to the retiring service's epoch, so the new service gets its
  // own copy, and the old service goes before the catalog it may borrow.
  GEOLIC_ASSIGN_OR_RETURN(
      Domain fresh,
      MakeDomain(std::make_unique<LicenseCatalog>(licenses), LogStore()));
  domain.service = std::move(fresh.service);
  domain.base = std::move(fresh.base);
  return close;
}

// Snapshot payload (docs/FORMATS.md, "Authority snapshots"): u32 domain
// count, then per domain its content key (u32 length + bytes), u32
// permission, u32 license count and the licenses (WriteLicenseBinary),
// u64 record count and the records (EncodeLogRecord).
Status ValidationAuthority::CheckpointFull(const std::string& path) const {
  std::string payload;
  framing::PutScalar<uint32_t>(&payload,
                               static_cast<uint32_t>(domains_.size()));
  for (const auto& [key, domain] : domains_) {
    framing::PutScalar<uint32_t>(&payload,
                                 static_cast<uint32_t>(key.content.size()));
    payload += key.content;
    framing::PutScalar<uint32_t>(&payload,
                                 static_cast<uint32_t>(key.permission));
    const std::vector<License>& licenses =
        domain.service->licenses().licenses();
    framing::PutScalar<uint32_t>(&payload,
                                 static_cast<uint32_t>(licenses.size()));
    std::ostringstream blob;
    for (const License& license : licenses) {
      GEOLIC_RETURN_IF_ERROR(WriteLicenseBinary(license, &blob));
    }
    payload += blob.str();
    const LogStore log = domain.service->CollectLog();
    framing::PutScalar<uint64_t>(&payload, static_cast<uint64_t>(log.size()));
    for (const LogRecord& record : log.records()) {
      EncodeLogRecord(record, &payload);
    }
  }
  return WriteCheckpointFileDurable(CheckpointKind::kAuthoritySnapshot,
                                    payload, path);
}

Status ValidationAuthority::RestoreFull(const std::string& path) {
  if (!domains_.empty()) {
    return Status::FailedPrecondition(
        "RestoreFull requires an empty authority");
  }
  GEOLIC_ASSIGN_OR_RETURN(
      const std::string payload,
      ReadCheckpointFile(CheckpointKind::kAuthoritySnapshot, path));
  const auto fail = [&path](const std::string& message) {
    return Status::ParseError("authority snapshot " + path + ": " + message);
  };
  size_t pos = 0;
  uint32_t domain_count = 0;
  if (!framing::GetScalar(payload, &pos, &domain_count)) {
    return fail("truncated domain count");
  }
  std::istringstream in(payload);

  // Stage into a local map first; commit only on full success.
  std::map<ContentKey, Domain> staged;
  for (uint32_t d = 0; d < domain_count; ++d) {
    uint32_t content_size = 0;
    if (!framing::GetScalar(payload, &pos, &content_size) ||
        content_size > kMaxContentBytes ||
        payload.size() - pos < content_size) {
      return fail("bad content key");
    }
    ContentKey key;
    key.content = payload.substr(pos, content_size);
    pos += content_size;
    uint32_t permission = 0;
    uint32_t license_count = 0;
    if (!framing::GetScalar(payload, &pos, &permission) ||
        !framing::GetScalar(payload, &pos, &license_count) ||
        permission >= static_cast<uint32_t>(kNumPermissions) ||
        license_count == 0 ||
        license_count > static_cast<uint32_t>(kMaxLicensesLarge)) {
      return fail("bad domain header");
    }
    key.permission = static_cast<Permission>(permission);

    auto base = std::make_unique<LicenseCatalog>(schema_);
    in.seekg(static_cast<std::streamoff>(pos));
    for (uint32_t i = 0; i < license_count; ++i) {
      Result<License> license = ReadLicenseBinary(&in);
      if (!license.ok()) {
        return fail("license: " + license.status().message());
      }
      if (KeyOf(*license) != key ||
          license->rect().dimensions() != schema_->dimensions()) {
        return fail("license " + license->id() +
                    " does not belong to its domain");
      }
      const Status added = base->Add(std::move(license).value()).status();
      if (!added.ok()) {
        return fail(added.message());
      }
    }
    const std::streampos consumed = in.tellg();
    if (consumed < 0) {
      return fail("license section lost stream position");
    }
    pos = static_cast<size_t>(consumed);

    uint64_t record_count = 0;
    if (!framing::GetScalar(payload, &pos, &record_count)) {
      return fail("truncated record count");
    }
    const LicenseSet all = base->AllMask();
    LogStore history;
    for (uint64_t r = 0; r < record_count; ++r) {
      LogRecord record;
      const Status decoded = DecodeLogRecord(payload, &pos, &record);
      if (!decoded.ok()) {
        return fail("record: " + decoded.message());
      }
      if (!record.set.IsSubsetOf(all)) {
        return fail("record references unknown license indexes");
      }
      const Status appended = history.Append(std::move(record));
      if (!appended.ok()) {
        return fail("record: " + appended.message());
      }
    }
    Result<Domain> domain = MakeDomain(std::move(base), history);
    if (!domain.ok()) {
      return fail(domain.status().message());
    }
    if (!staged.emplace(std::move(key), std::move(domain).value()).second) {
      return fail("duplicate domain");
    }
  }
  if (pos != payload.size()) {
    return fail("trailing bytes after the last domain");
  }
  domains_ = std::move(staged);
  return Status::Ok();
}

}  // namespace geolic

#include "drm/validation_authority.h"

#include <map>
#include <utility>

#include "persist/checkpoint.h"
#include "persist/framing.h"

namespace geolic {

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
    return it->second->AcquireLicense(license).status();
  }
  auto base = std::make_unique<LicenseCatalog>(schema_);
  GEOLIC_RETURN_IF_ERROR(base->Add(std::move(license)).status());
  GEOLIC_ASSIGN_OR_RETURN(
      std::unique_ptr<IssuanceService> domain,
      IssuanceService::Restore({.licenses = std::move(base)},
                               service_options_));
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
  return it->second->TryIssue(issued);
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
  return &it->second->licenses();
}

Result<LogStore> ValidationAuthority::LogFor(const ContentKey& key) const {
  const auto it = domains_.find(key);
  if (it == domains_.end()) {
    return Status::NotFound("unknown content domain: " + key.content);
  }
  return it->second->CollectLog();
}

Result<const IssuanceService*> ValidationAuthority::ServiceFor(
    const ContentKey& key) const {
  const auto it = domains_.find(key);
  if (it == domains_.end()) {
    return Status::NotFound("unknown content domain: " + key.content);
  }
  return static_cast<const IssuanceService*>(it->second.get());
}

Result<ValidationAuthority::ContentAudit> ValidationAuthority::Audit(
    const ContentKey& key) const {
  const auto it = domains_.find(key);
  if (it == domains_.end()) {
    return Status::NotFound("unknown content domain: " + key.content);
  }
  ContentAudit audit;
  audit.key = key;
  const IssuanceService& service = *it->second;
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
  const LicenseCatalog& licenses = it->second->licenses();
  PeriodClose close;
  close.audit.key = key;
  close.archived_log = it->second->CollectLog();
  GEOLIC_ASSIGN_OR_RETURN(close.audit.result,
                          Validate(licenses, close.archived_log,
                                   {.mode = ValidationMode::kGrouped}));
  if (close.audit.result.report.all_valid()) {
    GEOLIC_ASSIGN_OR_RETURN(close.settlement,
                            ComputeSettlement(licenses, close.archived_log));
    close.settled = true;
  }
  // Fresh period: same licenses, empty history, in the new service's own
  // copy of the catalog (the retiring service owns the current one).
  GEOLIC_ASSIGN_OR_RETURN(
      it->second,
      IssuanceService::Restore(
          {.licenses = std::make_unique<LicenseCatalog>(licenses)},
          service_options_));
  return close;
}

// Snapshot payload (docs/FORMATS.md, "Authority snapshots"): u32 domain
// count, then one service state payload per domain.
Status ValidationAuthority::CheckpointFull(const std::string& path) const {
  std::string payload;
  framing::PutScalar<uint32_t>(&payload,
                               static_cast<uint32_t>(domains_.size()));
  for (const auto& [key, domain] : domains_) {
    GEOLIC_RETURN_IF_ERROR(EncodeServiceState(domain->Snapshot(), &payload));
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

  // Stage into a local map first; commit only on full success.
  std::map<ContentKey, std::unique_ptr<IssuanceService>> staged;
  for (uint32_t d = 0; d < domain_count; ++d) {
    Result<ServiceState> state = DecodeServiceState(payload, &pos, schema_);
    if (!state.ok()) {
      return fail(state.status().message());
    }
    // The authority keeps no journal, so a domain's state covers no frames.
    if (state->covered_seq != 0) {
      return fail("domain state claims journal frames");
    }
    // A catalog holds one content and permission, so its first license
    // names the domain. CheckpointFull writes the domains in key order.
    ContentKey key = KeyOf(state->licenses->at(0));
    if (!staged.empty() && !(staged.rbegin()->first < key)) {
      return fail("domains out of key order or repeated");
    }
    Result<std::unique_ptr<IssuanceService>> domain =
        IssuanceService::Restore(std::move(state).value(), service_options_);
    if (!domain.ok()) {
      return fail(domain.status().message());
    }
    staged.emplace_hint(staged.end(), std::move(key),
                        std::move(domain).value());
  }
  if (pos != payload.size()) {
    return fail("trailing bytes after the last domain");
  }
  domains_ = std::move(staged);
  return Status::Ok();
}

}  // namespace geolic

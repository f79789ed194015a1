#include "drm/validation_authority.h"

#include <utility>

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

Result<const IssuanceService*> ValidationAuthority::ServiceFor(
    const ContentKey& key) const {
  const auto it = domains_.find(key);
  if (it == domains_.end()) {
    return Status::NotFound("unknown content domain: " + key.content);
  }
  return static_cast<const IssuanceService*>(it->second.get());
}

}  // namespace geolic

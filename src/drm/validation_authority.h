#ifndef GEOLIC_DRM_VALIDATION_AUTHORITY_H_
#define GEOLIC_DRM_VALIDATION_AUTHORITY_H_

#include <map>
#include <memory>
#include <string>

#include "licensing/license_catalog.h"
#include "service/issuance_service.h"
#include "util/status.h"

namespace geolic {

// A multi-content validation authority: the party the paper charges with
// validating "all the newly generated licenses". It routes each license to
// its (content, permission) domain — one IssuanceService whose catalog is
// the domain's registered redistribution licenses — and validates issues
// online. An offline audit of a domain is Validate over
// ServiceFor(key)->CollectLog().
//
// Thread-safety: ValidateIssue calls may run concurrently with each other
// (they delegate to the domain's service, one step each under its lock).
// RegisterRedistribution mutates the domain map or reconfigures a service,
// so it must be externally serialized against all other calls.
class ValidationAuthority {
 public:
  // Key of one validation domain.
  struct ContentKey {
    std::string content;
    Permission permission = Permission::kPlay;

    friend bool operator<(const ContentKey& a, const ContentKey& b) {
      if (a.content != b.content) {
        return a.content < b.content;
      }
      return static_cast<int>(a.permission) < static_cast<int>(b.permission);
    }
    friend bool operator==(const ContentKey& a,
                           const ContentKey& b) = default;
  };

  // `schema` applies to every content handled by this authority and must
  // outlive it. `service_options` configures every domain's
  // IssuanceService (grouping, and the metrics/tracer sinks — which must
  // outlive the authority when set; note a shared metrics block or tracer
  // aggregates across all domains).
  explicit ValidationAuthority(const ConstraintSchema* schema,
                               const OnlineValidatorOptions& service_options =
                                   OnlineValidatorOptions{})
      : schema_(schema), service_options_(service_options) {}

  ValidationAuthority(const ValidationAuthority&) = delete;
  ValidationAuthority& operator=(const ValidationAuthority&) = delete;

  // Registers a redistribution license a distributor acquired; creates the
  // content domain on first sight, and acquires the license into the
  // domain's service after that (IssuanceService::AcquireLicense), which
  // keeps the already-validated history.
  Status RegisterRedistribution(License license);

  // Online-validates a newly generated license (usage or redistribution)
  // against its content domain and records it when accepted.
  Result<OnlineDecision> ValidateIssue(const License& issued);

  // Number of content domains.
  int domain_count() const { return static_cast<int>(domains_.size()); }

  // The domain's live issuance service (metrics, its catalog, the
  // compacted log).
  Result<const IssuanceService*> ServiceFor(const ContentKey& key) const;

 private:
  static ContentKey KeyOf(const License& license) {
    return ContentKey{license.content_key(), license.permission()};
  }

  const ConstraintSchema* schema_;
  OnlineValidatorOptions service_options_;
  // Each domain's service owns its catalog.
  std::map<ContentKey, std::unique_ptr<IssuanceService>> domains_;
};

}  // namespace geolic

#endif  // GEOLIC_DRM_VALIDATION_AUTHORITY_H_

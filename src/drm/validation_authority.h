#ifndef GEOLIC_DRM_VALIDATION_AUTHORITY_H_
#define GEOLIC_DRM_VALIDATION_AUTHORITY_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/assignment.h"
#include "licensing/license_catalog.h"
#include "service/issuance_service.h"
#include "validation/log_store.h"
#include "validation/validate.h"
#include "util/status.h"

namespace geolic {

// A multi-content validation authority: the party the paper charges with
// validating "all the newly generated licenses". It routes each license to
// its (content, permission) domain — one IssuanceService whose catalog is
// the domain's registered redistribution licenses — validates issues
// online, runs offline grouped audits, closes audit periods, and snapshots
// every domain's licenses and log to disk.
//
// Thread-safety: ValidateIssue calls may run concurrently with each other
// (they delegate to the domain's service, one step each under its lock).
// Everything that mutates the domain map or reconfigures or replaces
// services — RegisterRedistribution, ClosePeriod, RestoreFull — must be
// externally serialized against all other calls.
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

  // Audit of one content/permission domain.
  struct ContentAudit {
    ContentKey key;
    ValidationOutcome result;
  };

  // Outcome of closing one domain's validation period.
  struct PeriodClose {
    ContentAudit audit;
    // Set iff the audit was clean: the per-license billing of the period.
    bool settled = false;
    SettlementAssignment settlement;
    // The period's log, archived out of the live service in compacted form
    // (IssuanceService::CollectLog: C[S] per distinct set).
    LogStore archived_log;
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
  std::vector<ContentKey> Keys() const;

  // Registered redistribution licenses of one domain: the service's
  // current catalog, valid until the domain's next registration, period
  // close or restore.
  Result<const LicenseCatalog*> LicensesFor(const ContentKey& key) const;
  // Snapshot of the domain's accumulated issuance log, compacted to one
  // record per distinct set (IssuanceService::CollectLog). Safe while
  // other threads issue.
  Result<LogStore> LogFor(const ContentKey& key) const;
  // The domain's live issuance service (metrics, batch admission).
  Result<const IssuanceService*> ServiceFor(const ContentKey& key) const;

  // Offline grouped audit of one domain / all domains.
  Result<ContentAudit> Audit(const ContentKey& key) const;
  Result<std::vector<ContentAudit>> AuditAll() const;

  // Closes the domain's validation period: audits the accumulated log,
  // settles it to concrete licenses when clean (max-flow witness), archives
  // the log, and replaces the domain's service with an empty one over the
  // same licenses so their full budgets are available for the next period.
  // A dirty audit still closes the period (the report carries the
  // violations; settlement is skipped).
  Result<PeriodClose> ClosePeriod(const ContentKey& key);

  // Snapshots every domain's service state (its licenses, epoch and
  // issuance log: one service state payload each, docs/FORMATS.md) into
  // one checkpoint file (persist/checkpoint.h, kind = authority-snapshot),
  // published durably. RestoreFull rebuilds an authority from it without
  // any prior registration, each domain at its snapshot epoch; it requires
  // this authority to be empty and leaves it untouched on failure. A
  // damaged or inconsistent snapshot is a ParseError.
  Status CheckpointFull(const std::string& path) const;
  Status RestoreFull(const std::string& path);

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

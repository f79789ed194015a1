#ifndef GEOLIC_DRM_DISTRIBUTION_NETWORK_H_
#define GEOLIC_DRM_DISTRIBUTION_NETWORK_H_

#include <memory>
#include <string>
#include <vector>

#include "drm/party.h"
#include "licensing/license_catalog.h"
#include "service/issuance_service.h"
#include "validation/log_store.h"
#include "validation/validate.h"
#include "util/status.h"

namespace geolic {

// Offline audit outcome for one distributor.
struct DistributorAudit {
  int party_id = -1;
  std::string party_name;
  // Empty licence set / log ⇒ trivially clean (zero equations).
  ValidationOutcome result;
};

// Audit of the whole network: one entry per distributor with ≥ 1 received
// license.
struct NetworkAudit {
  std::vector<DistributorAudit> distributors;

  bool clean() const {
    for (const DistributorAudit& audit : distributors) {
      if (!audit.result.report.all_valid()) {
        return false;
      }
    }
    return true;
  }
};

// A multi-level DRM distribution network for one content and permission —
// the system the paper's introduction describes. The owner issues
// redistribution licenses to distributors; distributors use their received
// licenses to generate redistribution licenses for sub-distributors and
// usage licenses for consumers. Every generated license is validated
// against the issuer's received set by the distributor's IssuanceService
// (instance-based geometrically, aggregate over S's overlap group); a
// received redistribution license is acquired into the recipient's
// service, keeping its history. The authority can also audit any
// distributor's full log offline with the paper's efficient method.
//
// For rights-violation detection experiments, IssueUnchecked lets a rogue
// distributor bypass aggregate validation; the offline audit then flags the
// violated equations.
class DistributionNetwork {
 public:
  // `schema` must outlive the network.
  DistributionNetwork(const ConstraintSchema* schema, std::string content_key,
                      Permission permission);

  DistributionNetwork(const DistributionNetwork&) = delete;
  DistributionNetwork& operator=(const DistributionNetwork&) = delete;

  // Registers the owner (exactly one, before any distributor).
  Result<int> AddOwner(std::string name);
  // Registers a distributor under `parent` (the owner or a distributor).
  Result<int> AddDistributor(std::string name, int parent);
  // Registers a consumer under a distributor.
  Result<int> AddConsumer(std::string name, int parent);

  int party_count() const { return static_cast<int>(parties_.size()); }
  const Party& party(int id) const {
    return parties_[static_cast<size_t>(id)];
  }

  // Owner grants a redistribution license to a distributor. Owner grants
  // are not validated (the owner holds the original rights) but must be
  // well-formed for the network's content/permission/schema.
  Status GrantFromOwner(int distributor, License license);

  // A distributor issues `license` to `recipient`: redistribution licenses
  // go to distributors, usage licenses to consumers. Returns the validation
  // decision; the license takes effect only when accepted.
  Result<OnlineDecision> Issue(int issuer, int recipient,
                               const License& license);

  // Rogue issue: instance-validates (to obtain the log set S) but skips
  // aggregate validation and records the issuance regardless, by
  // rebuilding the issuer's service with the record added to its history.
  // Returns the set S; fails if even instance validation fails (such a
  // license can never be attributed to a redistribution license and is
  // rejected on sight per Section 3.1).
  Result<LicenseSet> IssueUnchecked(int issuer, int recipient,
                                     const License& license);

  // Redistribution licenses received by a distributor: its service's
  // catalog, valid until the distributor's next grant or rogue issue.
  const LicenseCatalog& ReceivedLicenses(int party_id) const;
  // Snapshot of a distributor's issuance log, compacted to one record per
  // distinct set (empty before its first grant).
  LogStore IssuanceLog(int party_id) const;

  // Offline audit of one distributor using the paper's grouped validation.
  Result<DistributorAudit> AuditDistributor(int party_id) const;

  // Audits every distributor that holds licenses.
  Result<NetworkAudit> AuditAll() const;

 private:
  struct DistributorState {
    // The catalog `service` was created over (its epoch 0; empty until the
    // first grant). Later grants live in the service's own epochs: read
    // the received licenses from service->licenses() once it exists.
    std::unique_ptr<LicenseCatalog> base;
    std::unique_ptr<IssuanceService> service;  // Null until first grant.
  };

  Status CheckLicenseShape(const License& license, LicenseType type) const;
  Status ReceiveRedistribution(int recipient, License license);
  Result<DistributorState*> MutableDistributorState(int party_id);

  const ConstraintSchema* schema_;
  std::string content_key_;
  Permission permission_;
  std::vector<Party> parties_;
  std::vector<std::unique_ptr<DistributorState>> states_;  // Per party id.
  int owner_id_ = -1;
  int64_t license_sequence_ = 0;
};

}  // namespace geolic

#endif  // GEOLIC_DRM_DISTRIBUTION_NETWORK_H_

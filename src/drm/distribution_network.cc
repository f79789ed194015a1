#include "drm/distribution_network.h"

#include <utility>

#include "core/instance_validator.h"

namespace geolic {

DistributionNetwork::DistributionNetwork(const ConstraintSchema* schema,
                                         std::string content_key,
                                         Permission permission)
    : schema_(schema),
      content_key_(std::move(content_key)),
      permission_(permission) {}

Result<int> DistributionNetwork::AddOwner(std::string name) {
  if (owner_id_ != -1) {
    return Status::AlreadyExists("network already has an owner");
  }
  Party party;
  party.id = party_count();
  party.role = PartyRole::kOwner;
  party.name = std::move(name);
  parties_.push_back(party);
  states_.push_back(nullptr);
  owner_id_ = party.id;
  return party.id;
}

Result<int> DistributionNetwork::AddDistributor(std::string name, int parent) {
  if (parent < 0 || parent >= party_count()) {
    return Status::OutOfRange("unknown parent party");
  }
  const PartyRole parent_role = parties_[static_cast<size_t>(parent)].role;
  if (parent_role == PartyRole::kConsumer) {
    return Status::InvalidArgument("consumers cannot have sub-parties");
  }
  Party party;
  party.id = party_count();
  party.role = PartyRole::kDistributor;
  party.name = std::move(name);
  party.parent = parent;
  parties_.push_back(party);

  auto state = std::make_unique<DistributorState>();
  state->base = std::make_unique<LicenseCatalog>(schema_);
  states_.push_back(std::move(state));
  return party.id;
}

Result<int> DistributionNetwork::AddConsumer(std::string name, int parent) {
  if (parent < 0 || parent >= party_count()) {
    return Status::OutOfRange("unknown parent party");
  }
  if (parties_[static_cast<size_t>(parent)].role != PartyRole::kDistributor) {
    return Status::InvalidArgument(
        "consumers must attach to a distributor");
  }
  Party party;
  party.id = party_count();
  party.role = PartyRole::kConsumer;
  party.name = std::move(name);
  party.parent = parent;
  parties_.push_back(party);
  states_.push_back(nullptr);
  return party.id;
}

Status DistributionNetwork::CheckLicenseShape(const License& license,
                                              LicenseType type) const {
  if (license.type() != type) {
    return Status::InvalidArgument(
        std::string("expected a ") + LicenseTypeName(type) + " license, got " +
        LicenseTypeName(license.type()));
  }
  if (license.content_key() != content_key_) {
    return Status::InvalidArgument("license is for content " +
                                   license.content_key() +
                                   ", network distributes " + content_key_);
  }
  if (license.permission() != permission_) {
    return Status::InvalidArgument("permission mismatch");
  }
  if (license.rect().dimensions() != schema_->dimensions()) {
    return Status::InvalidArgument("constraint dimensionality mismatch");
  }
  return Status::Ok();
}

Result<DistributionNetwork::DistributorState*>
DistributionNetwork::MutableDistributorState(int party_id) {
  if (party_id < 0 || party_id >= party_count()) {
    return Status::OutOfRange("unknown party");
  }
  if (parties_[static_cast<size_t>(party_id)].role !=
      PartyRole::kDistributor) {
    return Status::InvalidArgument(
        parties_[static_cast<size_t>(party_id)].name +
        " is not a distributor");
  }
  return states_[static_cast<size_t>(party_id)].get();
}

Status DistributionNetwork::ReceiveRedistribution(int recipient,
                                                  License license) {
  GEOLIC_ASSIGN_OR_RETURN(DistributorState * state,
                          MutableDistributorState(recipient));
  if (state->service != nullptr) {
    return state->service->AcquireLicense(license).status();
  }
  GEOLIC_RETURN_IF_ERROR(state->base->Add(std::move(license)).status());
  GEOLIC_ASSIGN_OR_RETURN(state->service,
                          IssuanceService::Create(state->base.get()));
  return Status::Ok();
}

Status DistributionNetwork::GrantFromOwner(int distributor, License license) {
  if (owner_id_ == -1) {
    return Status::FailedPrecondition("network has no owner yet");
  }
  GEOLIC_RETURN_IF_ERROR(
      CheckLicenseShape(license, LicenseType::kRedistribution));
  return ReceiveRedistribution(distributor, std::move(license));
}

Result<OnlineDecision> DistributionNetwork::Issue(int issuer, int recipient,
                                                  const License& license) {
  GEOLIC_ASSIGN_OR_RETURN(DistributorState * state,
                          MutableDistributorState(issuer));
  if (state->service == nullptr) {
    return Status::FailedPrecondition(
        parties_[static_cast<size_t>(issuer)].name +
        " holds no redistribution licenses");
  }
  if (recipient < 0 || recipient >= party_count()) {
    return Status::OutOfRange("unknown recipient");
  }
  const PartyRole recipient_role =
      parties_[static_cast<size_t>(recipient)].role;
  if (license.type() == LicenseType::kRedistribution) {
    GEOLIC_RETURN_IF_ERROR(
        CheckLicenseShape(license, LicenseType::kRedistribution));
    if (recipient_role != PartyRole::kDistributor) {
      return Status::InvalidArgument(
          "redistribution licenses go to distributors");
    }
  } else {
    GEOLIC_RETURN_IF_ERROR(CheckLicenseShape(license, LicenseType::kUsage));
    if (recipient_role != PartyRole::kConsumer) {
      return Status::InvalidArgument("usage licenses go to consumers");
    }
  }

  GEOLIC_ASSIGN_OR_RETURN(const OnlineDecision decision,
                          state->service->TryIssue(license));
  if (decision.accepted() && license.type() == LicenseType::kRedistribution) {
    GEOLIC_RETURN_IF_ERROR(ReceiveRedistribution(recipient, license));
  }
  return decision;
}

Result<LicenseSet> DistributionNetwork::IssueUnchecked(
    int issuer, int recipient, const License& license) {
  GEOLIC_ASSIGN_OR_RETURN(DistributorState * state,
                          MutableDistributorState(issuer));
  if (state->service == nullptr) {
    return Status::FailedPrecondition("issuer holds no licenses");
  }
  (void)recipient;  // Rogue issues bypass recipient checks by design.
  const LicenseCatalog& received = state->service->licenses();
  const LicenseSet set =
      SoaInstanceValidator(&received).SatisfyingSet(license);
  if (set.Empty()) {
    return Status::InvalidArgument(
        "license fails instance-based validation against every received "
        "redistribution license");
  }
  // Force the record into the service's history, bypassing aggregate
  // checks — this is the rights violation the offline audit must detect.
  LogStore history = state->service->CollectLog();
  LogRecord record;
  record.issued_license_id = license.id();
  record.set = set;
  record.count = license.aggregate_count();
  GEOLIC_RETURN_IF_ERROR(history.Append(std::move(record)));
  // The received catalog may belong to the old service's epoch: the
  // rebuilt service gets its own copy, and the old service goes first.
  auto base = std::make_unique<LicenseCatalog>(received);
  GEOLIC_ASSIGN_OR_RETURN(
      std::unique_ptr<IssuanceService> rebuilt,
      IssuanceService::CreateWithHistory(base.get(), OnlineValidatorOptions(),
                                         history));
  state->service = std::move(rebuilt);
  state->base = std::move(base);
  return set;
}

const LicenseCatalog& DistributionNetwork::ReceivedLicenses(int party_id) const {
  GEOLIC_CHECK(party_id >= 0 && party_id < party_count());
  const auto& state = states_[static_cast<size_t>(party_id)];
  GEOLIC_CHECK(state != nullptr);
  return state->service == nullptr ? *state->base : state->service->licenses();
}

LogStore DistributionNetwork::IssuanceLog(int party_id) const {
  GEOLIC_CHECK(party_id >= 0 && party_id < party_count());
  const auto& state = states_[static_cast<size_t>(party_id)];
  GEOLIC_CHECK(state != nullptr);
  return state->service == nullptr ? LogStore() : state->service->CollectLog();
}

Result<DistributorAudit> DistributionNetwork::AuditDistributor(
    int party_id) const {
  if (party_id < 0 || party_id >= party_count()) {
    return Status::OutOfRange("unknown party");
  }
  const Party& party = parties_[static_cast<size_t>(party_id)];
  if (party.role != PartyRole::kDistributor) {
    return Status::InvalidArgument(party.name + " is not a distributor");
  }
  const auto& state = states_[static_cast<size_t>(party_id)];
  DistributorAudit audit;
  audit.party_id = party_id;
  audit.party_name = party.name;
  if (state->service == nullptr) {
    return audit;  // Nothing to audit.
  }
  GEOLIC_ASSIGN_OR_RETURN(
      audit.result,
      Validate(state->service->licenses(), state->service->CollectLog(),
               {.mode = ValidationMode::kGrouped}));
  return audit;
}

Result<NetworkAudit> DistributionNetwork::AuditAll() const {
  NetworkAudit audit;
  for (const Party& party : parties_) {
    if (party.role != PartyRole::kDistributor) {
      continue;
    }
    if (states_[static_cast<size_t>(party.id)]->service == nullptr) {
      continue;
    }
    GEOLIC_ASSIGN_OR_RETURN(DistributorAudit one,
                            AuditDistributor(party.id));
    audit.distributors.push_back(std::move(one));
  }
  return audit;
}

}  // namespace geolic

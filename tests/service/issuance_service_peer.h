#ifndef GEOLIC_TESTS_SERVICE_ISSUANCE_SERVICE_PEER_H_
#define GEOLIC_TESTS_SERVICE_ISSUANCE_SERVICE_PEER_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/dynamic_grouping.h"
#include "core/grouping.h"
#include "licensing/license_catalog.h"
#include "service/issuance_service.h"
#include "util/license_set.h"
#include "util/status.h"
#include "validation/log_store.h"

namespace geolic {

// White-box access to IssuanceService for the history-preload oracle
// (issuance_service_test, and bench/ablation_dynamic_grouping before it
// times): the per-record path the reconfiguration carry keeps
// (ApplySetToEpoch), and an epoch's equation state.
class IssuanceServiceTestPeer {
 public:
  // CreateWithHistory with one ApplySetToEpoch per history record instead
  // of the batched PreloadEpoch pass.
  static Result<std::unique_ptr<IssuanceService>> CreatePerRecord(
      const LicenseCatalog* licenses, const OnlineValidatorOptions& options,
      const LogStore& history) {
    std::vector<HyperRect> rects;
    for (const License& license : licenses->licenses()) {
      rects.push_back(license.rect());
    }
    GEOLIC_ASSIGN_OR_RETURN(
        DynamicGrouping grouping,
        DynamicGrouping::Build(licenses->schema().dimensions(),
                               std::move(rects)));
    std::shared_ptr<IssuanceService::CatalogEpoch> epoch =
        IssuanceService::BuildEpoch(
            options, 0, licenses, nullptr,
            LicenseGrouping::FromComponents(grouping.Components()));
    std::unique_ptr<IssuanceService> service(
        new IssuanceService(options, std::move(grouping), epoch));
    for (const LogRecord& record : history.records()) {
      GEOLIC_RETURN_IF_ERROR(
          service->ApplySetToEpoch(epoch.get(), record.set, record.count));
    }
    service->issue_sequence_.store(static_cast<int64_t>(history.size()));
    IssuanceService::FinishEpochTables(*epoch);
    return service;
  }

  // An epoch's equation state: per dense scope its members and A, C[S]
  // and C⟨T⟩ tables, and per shard its tree's sets.
  struct EpochState {
    std::vector<LicenseSet> dense_masks;
    std::vector<std::vector<int64_t>> aggregates, counts, sums;
    std::vector<std::vector<std::pair<LicenseSet, int64_t>>> trees;

    friend bool operator==(const EpochState&, const EpochState&) = default;
  };

  static EpochState State(const IssuanceService& service) {
    const std::shared_ptr<const IssuanceService::CatalogEpoch> epoch =
        service.Pin();
    EpochState state;
    for (const IssuanceService::EquationScope& scope : epoch->scopes) {
      if (scope.dense()) {
        const size_t entries = scope.entries();
        state.dense_masks.push_back(scope.mask);
        state.aggregates.emplace_back(scope.aggregates,
                                      scope.aggregates + entries);
        state.counts.emplace_back(scope.counts, scope.counts + entries);
        state.sums.emplace_back(scope.sums, scope.sums + entries);
      }
    }
    for (const auto& shard : epoch->shards) {
      std::vector<std::pair<LicenseSet, int64_t>>& sets =
          state.trees.emplace_back();
      shard->tree.ForEachSet([&sets](const LicenseSet& set, int64_t count) {
        sets.emplace_back(set, count);
      });
    }
    return state;
  }
};

}  // namespace geolic

#endif  // GEOLIC_TESTS_SERVICE_ISSUANCE_SERVICE_PEER_H_

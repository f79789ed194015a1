#ifndef GEOLIC_TESTS_SERVICE_ISSUANCE_SERVICE_PEER_H_
#define GEOLIC_TESTS_SERVICE_ISSUANCE_SERVICE_PEER_H_

#include <cstdint>
#include <memory>
#include <mutex>
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

// White-box access to IssuanceService for the epoch-build oracles
// (issuance_service_test, epoch_build_property_test, and
// bench/ablation_dynamic_grouping before it times): a service built the
// reference way, and an epoch's derived state.
class IssuanceServiceTestPeer {
 public:
  // CreateWithHistory the reference way. Every rect is copied out of the
  // catalog; the epoch's grouping comes from the overlap graph of the
  // copies (LicenseGrouping::FromRects, Algorithm 3's DFS) and the
  // incremental grouping from one AddLicense per copy; the history goes
  // in with one ApplySetToEpoch per record (the per-record path the
  // reconfiguration carry keeps) instead of the batched PreloadEpoch pass.
  static Result<std::unique_ptr<IssuanceService>> CreateFromCopies(
      const LicenseCatalog* licenses, const OnlineValidatorOptions& options,
      const LogStore& history) {
    std::vector<HyperRect> rects;
    DynamicGrouping grouping(licenses->schema().dimensions());
    for (const License& license : licenses->licenses()) {
      rects.push_back(license.rect());
      std::vector<const HyperRect*> registered;
      for (const HyperRect& rect : rects) {
        registered.push_back(&rect);
      }
      GEOLIC_RETURN_IF_ERROR(grouping.AddLicense(registered).status());
    }
    std::unique_ptr<IssuanceService::CatalogEpoch> epoch =
        IssuanceService::BuildEpoch(options, 0, licenses, nullptr,
                                    LicenseGrouping::FromRects(rects));
    for (const LogRecord& record : history.records()) {
      GEOLIC_RETURN_IF_ERROR(IssuanceService::ApplySetToEpoch(
          epoch.get(), record.set, record.count));
    }
    IssuanceService::FinishEpochTables(*epoch);
    std::unique_ptr<IssuanceService> service(
        new IssuanceService(options, std::move(grouping), std::move(epoch)));
    return service;
  }

  // An epoch's derived state: its grouping (each license's group and
  // Algorithm 5 position), per dense scope its members and A, C[S] and
  // C⟨T⟩ tables, per above-cap scope its members, and its tree's sets.
  struct EpochState {
    std::vector<int> group_of, position_of;
    std::vector<LicenseSet> dense_masks, tree_masks;
    std::vector<std::vector<int64_t>> aggregates, counts, sums;
    std::vector<std::pair<LicenseSet, int64_t>> tree;

    friend bool operator==(const EpochState&, const EpochState&) = default;
  };

  static EpochState State(const IssuanceService& service) {
    const std::lock_guard<std::mutex> lock(service.mutex_);
    const IssuanceService::CatalogEpoch* epoch = service.epoch_.get();
    EpochState state;
    for (int i = 0; i < epoch->grouping.num_licenses(); ++i) {
      state.group_of.push_back(epoch->grouping.GroupOf(i));
      state.position_of.push_back(epoch->grouping.PositionOf(i));
    }
    for (const IssuanceService::EquationScope& scope : epoch->scopes) {
      if (!scope.dense()) {
        state.tree_masks.push_back(scope.mask);
        continue;
      }
      const size_t entries = scope.entries();
      state.dense_masks.push_back(scope.mask);
      state.aggregates.emplace_back(scope.aggregates,
                                    scope.aggregates + entries);
      state.counts.emplace_back(scope.counts, scope.counts + entries);
      state.sums.emplace_back(scope.sums, scope.sums + entries);
    }
    epoch->tree.ForEachSet([&state](const LicenseSet& set, int64_t count) {
      state.tree.emplace_back(set, count);
    });
    return state;
  }

  // The incremental grouping later reconfigurations update.
  static const DynamicGrouping& Incremental(const IssuanceService& service) {
    const std::lock_guard<std::mutex> lock(service.mutex_);
    return service.dyn_grouping_;
  }

  // The current epoch's instance lookup: the satisfying set of `issued`.
  static LicenseSet SatisfyingSet(const IssuanceService& service,
                                  const License& issued) {
    const std::lock_guard<std::mutex> lock(service.mutex_);
    return service.epoch_->instance.SatisfyingSet(issued);
  }
};

}  // namespace geolic

#endif  // GEOLIC_TESTS_SERVICE_ISSUANCE_SERVICE_PEER_H_

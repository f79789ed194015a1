// settlement_report: period-close accounting for a distributor.
//
// Runs a quarter of online-validated issuance, then (1) quotes remaining
// capacity per region via RemainingCapacity, (2) computes the explicit
// count-to-license settlement via max-flow, and (3) cross-checks the books:
// every count billed to exactly one license, no budget exceeded, and the
// offline audit agrees (JSON emitted for tooling).
//
// Build & run:  ./build/examples/settlement_report
#include <cstdio>

#include "core/assignment.h"
#include "core/capacity.h"
#include "service/issuance_service.h"
#include "validation/report_json.h"
#include "validation/validate.h"
#include "workload/workload.h"

int main() {
  using namespace geolic;  // NOLINT

  // A distributor with 8 redistribution licenses over 4 constraint dims.
  WorkloadConfig config;
  config.num_licenses = 8;
  config.num_clusters = 2;
  config.num_records = 0;
  config.aggregate_min = 500;
  config.aggregate_max = 2000;
  config.seed = 321;
  WorkloadGenerator generator(config);
  Result<Workload> workload = generator.GenerateLicensesOnly();
  if (!workload.ok()) {
    std::fprintf(stderr, "workload: %s\n",
                 workload.status().ToString().c_str());
    return 1;
  }

  // A quarter of validated trade. CollectLog lists it as the service
  // keeps it: one record per distinct satisfying set with its total count,
  // all that the settlement and the audit read.
  Result<std::unique_ptr<IssuanceService>> online =
      IssuanceService::Create(workload->licenses.get());
  if (!online.ok()) {
    return 1;
  }
  Rng rng(9);
  int accepted = 0;
  for (int i = 0; i < 3000; ++i) {
    const int parent = static_cast<int>(
        rng.UniformInt(0, workload->licenses->size() - 1));
    const License usage =
        generator.DrawUsageLicense(*workload, parent, &rng, i);
    const Result<OnlineDecision> decision = (*online)->TryIssue(usage);
    if (decision.ok() && decision->accepted()) {
      ++accepted;
    }
  }
  const LogStore log = (*online)->CollectLog();
  const Result<ValidationTree> tree = (*online)->CollectTree();
  if (!tree.ok()) {
    return 1;
  }
  std::printf("Quarter closed: %d issuances accepted, %lld counts sold\n",
              accepted, static_cast<long long>(log.TotalCount()));

  // Capacity quotes for each single-license "region".
  std::printf("\nRemaining capacity quotes:\n");
  for (int i = 0; i < workload->licenses->size(); ++i) {
    const Result<CapacityQuote> quote =
        RemainingCapacity(*workload->licenses, (*online)->grouping(), *tree,
                          LicenseSet::Singleton(i));
    if (!quote.ok()) {
      return 1;
    }
    std::printf("  L%-2d: %6lld more counts (binding equation %s, slack "
                "%lld)\n",
                i + 1, static_cast<long long>(quote->remaining),
                (quote->binding_set).ToString().c_str(),
                static_cast<long long>(quote->binding_slack));
  }

  // Settlement: bill every sold count to a concrete license.
  const Result<SettlementAssignment> settlement =
      ComputeSettlement(*workload->licenses, log);
  if (!settlement.ok()) {
    std::fprintf(stderr, "settlement failed: %s\n",
                 settlement.status().ToString().c_str());
    return 1;
  }
  std::printf("\nSettlement (counts billed per license):\n");
  for (int i = 0; i < workload->licenses->size(); ++i) {
    std::printf("  L%-2d: %6lld billed / %6lld budget (%lld left)\n", i + 1,
                static_cast<long long>(
                    settlement->charged[static_cast<size_t>(i)]),
                static_cast<long long>(
                    workload->licenses->at(i).aggregate_count()),
                static_cast<long long>(
                    settlement->remaining[static_cast<size_t>(i)]));
  }
  std::printf("\nShared-set splits:\n");
  for (const auto& [set, rows] : settlement->allocation) {
    if (rows.size() < 2) {
      continue;
    }
    std::printf("  C[%s] split:", (set).ToString().c_str());
    for (const auto& [license, amount] : rows) {
      std::printf(" L%d:%lld", license + 1,
                  static_cast<long long>(amount));
    }
    std::printf("\n");
  }

  // Offline audit confirms the books, exported as JSON for tooling.
  const Result<ValidationOutcome> audit =
      Validate(*workload->licenses, log, {.mode = ValidationMode::kGrouped});
  if (!audit.ok()) {
    return 1;
  }
  std::printf("\nAudit JSON: %s\n", ReportToJson(audit->report).c_str());
  return audit->report.all_valid() ? 0 : 2;
}

#ifndef GEOLIC_SIM_CATALOG_SIM_H_
#define GEOLIC_SIM_CATALOG_SIM_H_

#include <cstdint>
#include <string>
#include <vector>

namespace geolic {

// Deterministic simulation of the multi-tenant catalog layer
// (catalog/catalog_service.h): a seed-driven stream of tenant-addressed
// issues and forced spills runs against a CatalogService
// squeezed under a tiny memory budget (so eviction/reload churns
// constantly), with every decision checked against a per-tenant
// ReferenceModel. A scheduled FaultyFile fault kills the catalog journal
// mid-run — torn append or failing fsync — after which the run crashes the
// catalog and drives CatalogService::Recover, then checks per-tenant
// recovery conformance:
//
//  * every tenant's recovered accepted-log length matches the model,
//    modulo the one maybe-persisted op the faulted append is allowed to
//    contribute (always an accepted issue: only those reach the journal);
//  * a reference model rebuilt from the recovered log still satisfies
//    eq. 1 for every subset — recovery never over-issues;
//  * post-recovery issues keep agreeing with the rebuilt model, decision
//    for decision.
//
// Mutation mode (inject_equation_skip) plants the equation-skip bug in
// every tenant service (OnlineValidatorOptions::sim_skip_last_equation):
// an issuance that only the last equation would reject slips through. A
// correct harness must FAIL such runs on a decision that disagrees with
// the tenant's model.
struct CatalogSimConfig {
  // Tenant population for the run (inclusive draw). sim_runner --tenants=T
  // pins both to T.
  int min_tenants = 3;
  int max_tenants = 6;
  // Total tenant-addressed ops (inclusive draw).
  int min_ops = 24;
  int max_ops = 80;
  // Per-op chance the op is a forced SpillTenant instead of an issue.
  double spill_probability = 0.15;
  // Chance a journal fault is scheduled for the run; force_fault pins 1.
  double fault_probability = 0.5;
  bool force_fault = false;
  // Tiny budget = constant eviction pressure (the floor keeps the most
  // recent tenant resident).
  size_t memory_budget_bytes = 1;
  // Plant the equation-skip bug; see above.
  bool inject_equation_skip = false;
};

struct CatalogSimResult {
  bool ok = true;
  uint64_t seed = 0;
  std::string failure;  // First conformance violation, empty when ok.
  // Human-readable record of every executed op, for failure traces.
  std::vector<std::string> op_trace;
  size_t ops_executed = 0;
};

// Generate + execute one seed. Single-threaded and deterministic in
// (seed, config): same inputs, same trace, same verdict.
CatalogSimResult RunCatalogSimulation(uint64_t seed,
                                      const CatalogSimConfig& config);

}  // namespace geolic

#endif  // GEOLIC_SIM_CATALOG_SIM_H_

#ifndef GEOLIC_SIM_SIM_HARNESS_H_
#define GEOLIC_SIM_SIM_HARNESS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "licensing/license.h"
#include "licensing/license_catalog.h"

namespace geolic {

// Knobs for one simulated run. The defaults define the standard sweep
// shape; tests pin individual knobs to force specific scenarios.
struct SimConfig {
  // Workload shape (all ranges inclusive; drawn from the workload RNG).
  int min_licenses = 3;
  int max_licenses = 8;
  int min_clients = 2;
  int max_clients = 4;
  int min_ops_per_client = 6;
  int max_ops_per_client = 14;
  // Probability that a journal fault (torn write or failing fsync) is
  // scheduled at a seed-chosen future append; force_fault pins it to 1.
  double fault_probability = 0.5;
  bool force_fault = false;
  // Mutation smoke mode: plant the equation-skip accounting bug in the
  // service under test (OnlineValidatorOptions::sim_skip_last_equation).
  // The harness itself is unchanged — a correct harness must now FAIL.
  bool inject_equation_skip = false;
  // Lifecycle mode: mix live acquire/revoke/expire reconfigurations into
  // the client op streams, racing them against issuance, batches,
  // checkpoints and journal faults.
  bool lifecycle_ops = false;
  // Second mutation smoke: plant the skipped-renumbering reconfiguration
  // bug (OnlineValidatorOptions::sim_skip_renumbering). Only meaningful
  // together with lifecycle_ops — without revocations the mutated code
  // never runs.
  bool inject_skip_renumbering = false;
  // Wide-N mode: scatter licenses round-robin into this many disjoint
  // domain slabs (1 = the legacy single-arena shape). Overlap components
  // then stay slab-sized, which keeps the brute-force reference feasible
  // with licenses in the hundreds (multi-word LicenseSet territory).
  int cluster_slabs = 1;
};

// One client-visible operation against the service.
enum class SimOpKind {
  kTryIssue,
  kTryIssueBatch,
  kWriteCheckpoint,
  kAcquireLicense,  // requests[0] carries the new redistribution license.
  kRevokeLicense,   // revoke_id names the target; an absent id is a no-op.
  kExpireBefore,    // Expire dimension 0 strictly below expire_cutoff.
};

struct SimOp {
  SimOpKind kind = SimOpKind::kTryIssue;
  std::vector<License> requests;  // 1 for kTryIssue, ≥ 1 for a batch.
  std::string revoke_id;          // kRevokeLicense only.
  int64_t expire_cutoff = 0;      // kExpireBefore only.
};

// A fully materialized workload: the license geometry plus every client's
// op list, the fault schedule, and the post-recovery continuation ops —
// everything the executor needs, precomputed so the shrinker can replay
// subsets of the ops without touching the rest. Heap-owned schema/licenses
// keep internal pointers stable across moves.
struct SimWorkload {
  std::unique_ptr<ConstraintSchema> schema;
  std::unique_ptr<LicenseCatalog> licenses;
  std::vector<std::vector<SimOp>> client_ops;
  // Fault schedule (fault_kind 0 = none, 1 = torn append, 2 = fsync
  // failure after an append).
  int fault_kind = 0;
  uint64_t fault_append = 0;  // 1-based index of the faulted append.
  size_t fault_keep_bytes = 0;
  // Single-threaded ops replayed against the recovered service.
  std::vector<SimOp> post_recovery_ops;
};

// Opt-out mask for the shrinker: enabled[c][i] == false drops client c's
// i-th op. Empty = run everything.
using SimOpMask = std::vector<std::vector<bool>>;

struct SimResult {
  bool ok = true;
  uint64_t seed = 0;
  std::string failure;  // First conformance violation, empty when ok.
  // Human-readable record of every executed operation, in the scheduler's
  // linearization order, for failure traces.
  std::vector<std::string> op_trace;
  size_t ops_executed = 0;
  // Hash of every op's outcome (decisions included, post-recovery ones
  // too), the compacted log the ops left and the journal's bytes: equal
  // digests for a seed mean the same run.
  uint64_t digest = 0;
};

// Deterministically generates the workload for `seed`.
SimWorkload GenerateWorkload(uint64_t seed, const SimConfig& config);

// Executes `workload` under the cooperative scheduler with model-based
// conformance checking after every step. `enabled` masks ops for the
// shrinker (pass nullptr to run all). Deterministic in (workload, seed).
SimResult RunWorkload(const SimWorkload& workload, uint64_t seed,
                      const SimConfig& config, const SimOpMask* enabled);

// Generate + execute: the one-command repro unit. `sim_runner --seed=N`
// is exactly RunSimulation(N, config).
SimResult RunSimulation(uint64_t seed, const SimConfig& config);

// Greedily removes ops from a failing seed's workload while the failure
// reproduces, returning the minimal failing trace (the surviving ops, in
// client order) plus the final failure text. Call only when
// RunSimulation(seed, config) fails.
struct ShrinkOutcome {
  std::vector<std::string> minimal_ops;
  std::string failure;
  size_t original_ops = 0;
  size_t runs_used = 0;
};
ShrinkOutcome ShrinkFailure(uint64_t seed, const SimConfig& config);

}  // namespace geolic

#endif  // GEOLIC_SIM_SIM_HARNESS_H_

#ifndef GEOLIC_VALIDATION_VALIDATE_H_
#define GEOLIC_VALIDATION_VALIDATE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "licensing/license_catalog.h"
#include "obs/trace.h"
#include "validation/log_store.h"
#include "validation/validation_report.h"
#include "validation/validation_tree.h"
#include "util/status.h"

namespace geolic {

// The one entry point for offline aggregate validation: every engine is a
// ValidationMode, and parallelism is the num_threads option. Every engine
// compiles the (static) pointer tree into a FlatValidationTree
// (validation/flat_tree.h) once per run — per group when grouped — and
// evaluates all equations against the flat, pruning-aware form.
//
// The license-set overloads (kGrouped) are implemented in the core
// library because they dispatch into grouping/tree-division; linking the
// aggregate `geolic` target (or geolic_core) provides them. The tree/log
// overloads live in geolic_validation.

// The zeta engine's dense-table cap: 2^n × 16 bytes of memory.
inline constexpr int kMaxDenseN = 26;

// Which equation-evaluation engine to run.
enum class ValidationMode {
  // Pick for the input: grouped when a LicenseCatalog is available, otherwise
  // zeta for N ≤ kMaxDenseN and exhaustive beyond it.
  kAuto,
  // Algorithm 2: all 2^N − 1 equations by pruned tree traversal.
  kExhaustive,
  // Dense subset-sum DP over all 2^N cells (O(2^N·N); capped at
  // kMaxDenseN). Identical report to kExhaustive.
  kZeta,
  // The paper's pipeline: grouping + tree division + Algorithm 2 per group.
  // Requires a LicenseCatalog overload.
  kGrouped,
};

struct ValidateOptions {
  ValidationMode mode = ValidationMode::kAuto;
  // 1 = serial; 0 = one shard per hardware thread; > 1 = that many workers.
  // Parallelism shards the equation range (kExhaustive) or validates
  // groups concurrently (kGrouped); reports are byte-identical to the
  // serial run.
  int num_threads = 1;
  // Optional span sink (obs/trace.h): tree build/compile records a
  // kTreeDivision span (the paper's D_T), the equation engine a
  // kOfflineValidation span (V_T). Must outlive the call. Null = off.
  Tracer* tracer = nullptr;
};

// The report plus the grouped pipeline's cost breakdown. Grouped runs report
// violation sets in original license indexes; ungrouped runs leave the
// group fields at their defaults (group_count == 0).
struct ValidationOutcome {
  ValidationReport report;
  int group_count = 0;  // 0 ⇔ an ungrouped engine ran.
  std::vector<int> group_sizes;
  double division_micros = 0.0;    // D_T: grouping + division + reindexing.
  double validation_micros = 0.0;  // V_T: equation evaluation.
};

// Validates a pre-built tree against the aggregate array (N =
// aggregates.size()). kGrouped is rejected — grouping needs the
// licenses' geometry; use a LicenseCatalog overload.
Result<ValidationOutcome> Validate(const ValidationTree& tree,
                                   const std::vector<int64_t>& aggregates,
                                   const ValidateOptions& options = {});

// Builds the tree from `log` and validates it.
Result<ValidationOutcome> Validate(const LogStore& log,
                                   const std::vector<int64_t>& aggregates,
                                   const ValidateOptions& options = {});

// Validates a tree against a license set; kGrouped derives the overlap
// grouping from the licenses' geometry. The tree is consumed (division
// splices its nodes). Implemented in geolic_core.
Result<ValidationOutcome> Validate(const LicenseCatalog& licenses,
                                   ValidationTree tree,
                                   const ValidateOptions& options = {});

// Builds the tree from `log`, then validates against the license set.
// Implemented in geolic_core.
Result<ValidationOutcome> Validate(const LicenseCatalog& licenses,
                                   const LogStore& log,
                                   const ValidateOptions& options = {});

// Dense equation tables: 2^n entries indexed by an n-bit set, shared by the
// zeta engine and the service's per-group admission tables.
//
// In place, table[S] becomes Σ_{T ⊆ S} table[T]: the zeta transform that
// turns exact per-set counts C[S] into every equation LHS C⟨S⟩.
void ZetaTransform(std::span<int64_t> table);

// table[S] = Σ_{i ∈ S} values[i], every equation RHS A[S], by the
// highest-bit recurrence. Requires table.size() == 2^values.size().
void FillAggregateTable(std::span<const int64_t> values,
                        std::span<int64_t> table);

}  // namespace geolic

#endif  // GEOLIC_VALIDATION_VALIDATE_H_

// Ablation: per-equation tree traversal (Algorithm 2) versus the dense
// subset-sum (zeta transform) validator. Both evaluate all 2^N − 1
// equations; the traversal skips empty tree regions but chases pointers,
// the DP touches every cell with perfect locality.
#include <cstdio>
#include <utility>

#include "validation/validate.h"
#include "bench/bench_util.h"
#include "util/stopwatch.h"

namespace geolic {
namespace {

// Adapters over the Validate facade (the pre-facade bare entry points
// ValidateExhaustive/ValidateExhaustiveLimited/ValidateZeta were folded
// into Validate; see validation/validate.h).
Result<ValidationReport> RunExhaustive(
    const ValidationTree& tree, const std::vector<int64_t>& aggregates) {
  ValidateOptions options;
  options.mode = ValidationMode::kExhaustive;
  Result<ValidationOutcome> outcome = Validate(tree, aggregates, options);
  if (!outcome.ok()) return outcome.status();
  return std::move(outcome->report);
}

Result<ValidationReport> RunZeta(const ValidationTree& tree,
                                 const std::vector<int64_t>& aggregates) {
  ValidateOptions options;
  options.mode = ValidationMode::kZeta;
  Result<ValidationOutcome> outcome = Validate(tree, aggregates, options);
  if (!outcome.ok()) return outcome.status();
  return std::move(outcome->report);
}

}  // namespace
}  // namespace geolic

int main(int argc, char** argv) {
  using namespace geolic;         // NOLINT
  using namespace geolic::bench;  // NOLINT

  Flags flags(argc, argv);
  const int max_n = flags.Int("max_n", 24);
  const int step = flags.Int("step", 2);
  flags.Finish();

  std::printf("# Ablation: exhaustive tree-traversal validator vs dense "
              "zeta-transform validator (all 2^N-1 equations each)\n");
  std::printf("%4s  %10s  %14s  %12s  %10s\n", "N", "equations",
              "traversal_ms", "zeta_ms", "ratio");

  for (int n = 4; n <= max_n; n += step) {
    Workload workload = PaperWorkload(n);
    Result<ValidationTree> tree = ValidationTree::BuildFromLog(workload.log);
    GEOLIC_CHECK(tree.ok());
    const std::vector<int64_t> aggregates =
        workload.licenses->AggregateCounts();

    Stopwatch traversal_timer;
    Result<ValidationReport> traversal = RunExhaustive(*tree, aggregates);
    const double traversal_ms = traversal_timer.ElapsedMillis();
    GEOLIC_CHECK(traversal.ok());

    Stopwatch zeta_timer;
    Result<ValidationReport> zeta = RunZeta(*tree, aggregates);
    const double zeta_ms = zeta_timer.ElapsedMillis();
    GEOLIC_CHECK(zeta.ok());
    GEOLIC_CHECK(zeta->violations.size() == traversal->violations.size());

    std::printf("%4d  %10llu  %14.3f  %12.3f  %9.2fx\n", n,
                static_cast<unsigned long long>(
                    traversal->equations_evaluated),
                traversal_ms, zeta_ms,
                zeta_ms > 0 ? traversal_ms / zeta_ms : 0.0);
  }
  std::printf("# expected shape: zeta wins at larger N (O(2^N*N) sequential "
              "adds vs per-equation pointer chasing), at O(2^N) memory\n");
  return 0;
}

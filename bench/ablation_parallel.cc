// Ablation: sequential vs multi-threaded offline validation. The equation
// range of Algorithm 2 shards trivially (the tree is read-only), so the
// exhaustive baseline scales with cores; grouped validation parallelises
// across groups. The interesting observation: parallelising the *baseline*
// still cannot compete with grouping — removing 2^N work beats spreading
// it over k cores.
#include <cstdio>
#include <utility>

#include "validation/validate.h"
#include "bench/bench_util.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

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

}  // namespace
}  // namespace geolic

int main(int argc, char** argv) {
  using namespace geolic;         // NOLINT
  using namespace geolic::bench;  // NOLINT

  Flags flags(argc, argv);
  const int max_n = flags.Int("max_n", 22);
  const int step = flags.Int("step", 2);
  const int threads = flags.Int("threads",
                                ThreadPool::DefaultThreadCount());
  flags.Finish();

  std::printf("# Ablation: sequential vs parallel validation (%d threads)\n",
              threads);
  std::printf("%4s  %14s  %14s  %10s  %14s  %14s\n", "N", "seq_base_ms",
              "par_base_ms", "speedup", "seq_grouped_ms", "par_grouped_ms");

  for (int n = 10; n <= max_n; n += step) {
    Workload workload = PaperWorkload(n);
    const std::vector<int64_t> aggregates =
        workload.licenses->AggregateCounts();

    Result<ValidationTree> tree = ValidationTree::BuildFromLog(workload.log);
    GEOLIC_CHECK(tree.ok());

    Stopwatch seq_timer;
    Result<ValidationReport> sequential =
        RunExhaustive(*tree, aggregates);
    const double seq_ms = seq_timer.ElapsedMillis();
    GEOLIC_CHECK(sequential.ok());

    Stopwatch par_timer;
    Result<ValidationOutcome> parallel = Validate(
        *tree, aggregates,
        {.mode = ValidationMode::kExhaustive, .num_threads = threads});
    const double par_ms = par_timer.ElapsedMillis();
    GEOLIC_CHECK(parallel.ok());
    GEOLIC_CHECK(parallel->report.violations.size() ==
                 sequential->violations.size());

    Result<ValidationTree> grouped_tree1 =
        ValidationTree::BuildFromLog(workload.log);
    Result<ValidationTree> grouped_tree2 =
        ValidationTree::BuildFromLog(workload.log);
    GEOLIC_CHECK(grouped_tree1.ok());
    GEOLIC_CHECK(grouped_tree2.ok());

    Stopwatch seq_grouped_timer;
    Result<ValidationOutcome> seq_grouped =
        Validate(*workload.licenses, *std::move(grouped_tree1),
                 {.mode = ValidationMode::kGrouped});
    const double seq_grouped_ms = seq_grouped_timer.ElapsedMillis();
    GEOLIC_CHECK(seq_grouped.ok());

    Stopwatch par_grouped_timer;
    Result<ValidationOutcome> par_grouped =
        Validate(*workload.licenses, *std::move(grouped_tree2),
                 {.mode = ValidationMode::kGrouped, .num_threads = threads});
    const double par_grouped_ms = par_grouped_timer.ElapsedMillis();
    GEOLIC_CHECK(par_grouped.ok());

    std::printf("%4d  %14.3f  %14.3f  %9.2fx  %14.3f  %14.3f\n", n, seq_ms,
                par_ms, par_ms > 0 ? seq_ms / par_ms : 0.0, seq_grouped_ms,
                par_grouped_ms);
  }
  std::printf("# expected shape: parallel baseline ≈ cores× faster; grouped "
              "(even sequential) beats both by orders of magnitude\n");
  return 0;
}

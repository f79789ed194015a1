// Ablation: instance-based validation (paper Section 3.1) — the SoA
// column sweep the product runs (SoaInstanceValidator) versus a plain
// linear scan, one License::InstanceContains test per licence. N spans one
// result word (8), a full word (64), two words (128) and the library's
// licence cap (1024). Before any timing, every fixture query's SoA set is
// checked against the linear scan's, and the binary aborts on a mismatch.
// Smoke run: --benchmark_min_time=0.01.
#include <benchmark/benchmark.h>

#include <memory>
#include <utility>
#include <vector>

#include "core/instance_validator.h"
#include "licensing/license_catalog.h"
#include "util/check.h"
#include "util/random.h"
#include "workload/workload.h"

namespace geolic {
namespace {

// The baseline: one InstanceContains test per licence, in index order.
LicenseSet LinearSatisfyingSet(const LicenseCatalog& licenses,
                               const License& issued) {
  LicenseSet set;
  for (int i = 0; i < licenses.size(); ++i) {
    if (licenses.at(i).InstanceContains(issued)) {
      set.Add(i);
    }
  }
  return set;
}

// The figure-7 licence shape at N licences, 256 usage queries each drawn
// inside a random licence, and the SoA lookup over them — checked equal to
// the linear scan on every query.
struct LicenseFixture {
  explicit LicenseFixture(int n) {
    WorkloadConfig config = PaperSweepConfig(n);
    config.num_records = 0;
    WorkloadGenerator generator(config);
    Result<Workload> generated = generator.GenerateLicensesOnly();
    GEOLIC_CHECK(generated.ok());
    workload = std::make_unique<Workload>(*std::move(generated));
    soa = std::make_unique<SoaInstanceValidator>(workload->licenses.get());
    Rng rng(42);
    for (int i = 0; i < 256; ++i) {
      const int parent = static_cast<int>(
          rng.UniformInt(0, workload->licenses->size() - 1));
      queries.push_back(
          generator.DrawUsageLicense(*workload, parent, &rng, i));
      GEOLIC_CHECK(soa->SatisfyingSet(queries.back()) ==
                   LinearSatisfyingSet(*workload->licenses, queries.back()));
    }
  }
  std::unique_ptr<Workload> workload;
  std::unique_ptr<SoaInstanceValidator> soa;
  std::vector<License> queries;
};

void BM_SoaInstanceLookup(benchmark::State& state) {
  const LicenseFixture fixture(static_cast<int>(state.range(0)));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fixture.soa->SatisfyingSet(
        fixture.queries[i % fixture.queries.size()]));
    ++i;
  }
}
BENCHMARK(BM_SoaInstanceLookup)->Arg(8)->Arg(64)->Arg(128)->Arg(1024);

void BM_LinearInstanceLookup(benchmark::State& state) {
  const LicenseFixture fixture(static_cast<int>(state.range(0)));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(LinearSatisfyingSet(
        *fixture.workload->licenses,
        fixture.queries[i % fixture.queries.size()]));
    ++i;
  }
}
BENCHMARK(BM_LinearInstanceLookup)->Arg(8)->Arg(64)->Arg(128)->Arg(1024);

}  // namespace
}  // namespace geolic

BENCHMARK_MAIN();

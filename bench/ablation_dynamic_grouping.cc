// Ablation: incremental group maintenance (union-find DynamicGrouping)
// versus full recomputation (overlap graph + DFS) on every license
// acquisition — the maintenance question behind the paper's figure 6 —
// plus the removal path (dense renumbering, Algorithm 5) under an
// add/remove churn mix, and the bulk build of a whole catalog (what every
// service epoch build pays): the sort-and-sweep DynamicGrouping::Build
// versus N AddLicense calls versus LicenseGrouping::FromLicenses.
// Machine-readable: --json_out=<path>.
#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/dynamic_grouping.h"
#include "core/grouping.h"
#include "core/overlap_graph.h"
#include "geometry/hyper_rect.h"
#include "licensing/constraint_schema.h"
#include "licensing/license.h"
#include "licensing/license_catalog.h"
#include "util/random.h"
#include "util/stopwatch.h"

namespace {

using namespace geolic;  // NOLINT

std::vector<HyperRect> RandomRects(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<HyperRect> rects;
  rects.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    std::vector<ConstraintRange> dims;
    for (int d = 0; d < 4; ++d) {
      const int64_t lo = rng.UniformInt(0, 900);
      dims.push_back(ConstraintRange(Interval(lo, lo + rng.UniformInt(10,
                                                                      300))));
    }
    rects.push_back(HyperRect(std::move(dims)));
  }
  return rects;
}

// The wire benchmark's catalog shape: disjoint groups of two overlapping
// 1-D licenses, [1000g, 1000g + 20] and [1000g + 10, 1000g + 30].
std::vector<HyperRect> PairRects(int n) {
  std::vector<HyperRect> rects;
  rects.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const int64_t lo = 1000 * (i / 2) + 10 * (i % 2);
    rects.push_back(HyperRect({ConstraintRange(Interval(lo, lo + 20))}));
  }
  return rects;
}

struct BulkResult {
  int64_t sweep_ns = std::numeric_limits<int64_t>::max();
  int64_t incremental_ns = std::numeric_limits<int64_t>::max();
  int64_t from_licenses_ns = std::numeric_limits<int64_t>::max();
  int groups = 0;
};

// Best of `reps` bulk builds of `rects` each way, after checking that all
// three produce the same components.
BulkResult TimeBulkBuilds(const std::vector<HyperRect>& rects, int reps,
                          int* sink) {
  const int dims = rects.front().dimensions();
  ConstraintSchema schema;
  for (int d = 0; d < dims; ++d) {
    GEOLIC_CHECK(schema.AddIntervalDimension("C" + std::to_string(d)).ok());
  }
  LicenseCatalog catalog(&schema);
  for (size_t i = 0; i < rects.size(); ++i) {
    GEOLIC_CHECK(catalog
                     .Add(License("L" + std::to_string(i), "K",
                                  LicenseType::kRedistribution,
                                  Permission::kPlay, rects[i], 1))
                     .ok());
  }
  const auto incremental_build = [&rects, dims]() {
    DynamicGrouping grouping(dims);
    for (const HyperRect& rect : rects) {
      GEOLIC_CHECK(grouping.AddLicense(rect).ok());
    }
    return grouping;
  };
  const auto sweep_build = [&rects, dims]() {
    Result<DynamicGrouping> grouping = DynamicGrouping::Build(dims, rects);
    GEOLIC_CHECK(grouping.ok());
    return std::move(grouping).value();
  };

  const ComponentSet paper =
      LicenseGrouping::FromLicenses(catalog).components();
  for (const ComponentSet& got :
       {sweep_build().Components(), incremental_build().Components()}) {
    GEOLIC_CHECK(got.components == paper.components);
    GEOLIC_CHECK(got.component_of == paper.component_of);
  }

  BulkResult result;
  result.groups = paper.count();
  for (int rep = 0; rep < reps; ++rep) {
    Stopwatch sweep_timer;
    *sink += sweep_build().group_count();
    result.sweep_ns = std::min(result.sweep_ns, sweep_timer.ElapsedNanos());
    Stopwatch incremental_timer;
    *sink += incremental_build().group_count();
    result.incremental_ns =
        std::min(result.incremental_ns, incremental_timer.ElapsedNanos());
    Stopwatch paper_timer;
    *sink += LicenseGrouping::FromLicenses(catalog).group_count();
    result.from_licenses_ns =
        std::min(result.from_licenses_ns, paper_timer.ElapsedNanos());
  }
  return result;
}

// Full acquisition history of `rects`, maintained incrementally. Returns
// elapsed nanos; `sink` defeats dead-code elimination.
int64_t RunIncremental(const std::vector<HyperRect>& rects, int* sink) {
  Stopwatch timer;
  DynamicGrouping grouping;
  for (const HyperRect& rect : rects) {
    GEOLIC_CHECK(grouping.AddLicense(rect).ok());
    *sink += grouping.group_count();
  }
  return timer.ElapsedNanos();
}

// Same history, recomputing overlap graph + DFS after every acquisition
// (what a naive implementation of the paper does).
int64_t RunRecompute(const std::vector<HyperRect>& rects, int* sink) {
  Stopwatch timer;
  std::vector<HyperRect> prefix;
  for (const HyperRect& rect : rects) {
    prefix.push_back(rect);
    const ComponentSet components =
        FindComponentsDfs(BuildOverlapGraphFromRects(prefix));
    *sink += components.count();
  }
  return timer.ElapsedNanos();
}

// Churn: keep the live set around n/2, alternating adds (from a rotating
// pool) with removals — exercises the dense-renumbering removal path the
// live lifecycle (revoke/expire) rides on.
int64_t RunChurn(const std::vector<HyperRect>& rects, int steps, int* sink) {
  Rng rng(4242);
  Stopwatch timer;
  DynamicGrouping grouping;
  int live = 0;
  size_t next = 0;
  const int target = std::max(2, static_cast<int>(rects.size()) / 2);
  for (int step = 0; step < steps; ++step) {
    const bool add = live == 0 || (rng.Bernoulli(0.5) && live < 2 * target);
    if (add) {
      GEOLIC_CHECK(grouping.AddLicense(rects[next % rects.size()]).ok());
      ++next;
      ++live;
    } else {
      const int victim = static_cast<int>(rng.UniformIndex(
          static_cast<size_t>(live)));
      GEOLIC_CHECK(grouping.RemoveLicense(victim).ok());
      --live;
    }
    *sink += grouping.group_count();
  }
  return timer.ElapsedNanos();
}

}  // namespace

int main(int argc, char** argv) {
  using geolic::bench::Flags;
  using geolic::bench::JsonOut;

  Flags flags(argc, argv);
  const int reps = std::max(1, flags.Int("reps", 5));
  const int churn_steps = std::max(10, flags.Int("churn_steps", 512));
  JsonOut json(flags, "ablation_dynamic_grouping");
  flags.Finish();

  std::printf("# Ablation: incremental grouping vs full recomputation "
              "(4-D rects, best of %d reps)\n", reps);
  std::printf("%6s  %16s  %16s  %16s\n", "n", "incremental_ns",
              "recompute_ns", "churn_ns_per_op");

  int sink = 0;
  for (const int n : {8, 16, 32, 64}) {
    const std::vector<HyperRect> rects = RandomRects(n, 99);
    int64_t incremental_ns = std::numeric_limits<int64_t>::max();
    int64_t recompute_ns = std::numeric_limits<int64_t>::max();
    int64_t churn_ns = std::numeric_limits<int64_t>::max();
    for (int rep = 0; rep < reps; ++rep) {
      incremental_ns = std::min(incremental_ns, RunIncremental(rects, &sink));
      recompute_ns = std::min(recompute_ns, RunRecompute(rects, &sink));
      churn_ns = std::min(churn_ns, RunChurn(rects, churn_steps, &sink));
    }
    const double churn_per_op =
        static_cast<double>(churn_ns) / churn_steps;
    std::printf("%6d  %16ld  %16ld  %16.1f\n", n,
                static_cast<long>(incremental_ns),
                static_cast<long>(recompute_ns), churn_per_op);
    json.Row([&](JsonWriter& out) {
      out.KeyValue("n", static_cast<int64_t>(n));
      out.KeyValue("incremental_ns", incremental_ns);
      out.KeyValue("recompute_ns", recompute_ns);
      out.KeyValue("churn_steps", static_cast<int64_t>(churn_steps));
      out.KeyValue("churn_ns_per_op", churn_per_op);
      out.KeyValue("speedup", incremental_ns > 0
                                  ? static_cast<double>(recompute_ns) /
                                        static_cast<double>(incremental_ns)
                                  : 0.0);
    });
  }
  std::printf("# expected shape: incremental stays near-linear in N while "
              "recompute grows ~N^3 across the history\n");

  std::printf("\n# Bulk build of a whole catalog: sweep vs N x AddLicense vs "
              "FromLicenses (components checked equal; best of %d reps)\n",
              reps);
  std::printf("%8s  %6s  %6s  %12s  %14s  %16s\n", "layout", "n", "groups",
              "sweep_ns", "incremental_ns", "from_licenses_ns");
  for (const bool pairs : {false, true}) {
    const char* layout = pairs ? "pairs" : "random4d";
    for (const int n : {128, 512, 1024}) {
      const std::vector<HyperRect> rects =
          pairs ? PairRects(n) : RandomRects(n, 99);
      const BulkResult result = TimeBulkBuilds(rects, reps, &sink);
      std::printf("%8s  %6d  %6d  %12ld  %14ld  %16ld\n", layout, n,
                  result.groups, static_cast<long>(result.sweep_ns),
                  static_cast<long>(result.incremental_ns),
                  static_cast<long>(result.from_licenses_ns));
      json.Row([&](JsonWriter& out) {
        out.KeyValue("layout", layout);
        out.KeyValue("n", static_cast<int64_t>(n));
        out.KeyValue("groups", static_cast<int64_t>(result.groups));
        out.KeyValue("sweep_ns", result.sweep_ns);
        out.KeyValue("incremental_ns", result.incremental_ns);
        out.KeyValue("from_licenses_ns", result.from_licenses_ns);
      });
    }
  }
  std::printf("# expected shape: the sweep grows with N log N plus the pairs "
              "whose dimension-0 hulls meet; the other two grow with N^2; "
              "sink=%d\n", sink);
  json.Write();
  return 0;
}

// Ablation: incremental group maintenance (union-find DynamicGrouping)
// versus full recomputation (overlap graph + DFS) on every license
// acquisition — the maintenance question behind the paper's figure 6 —
// plus the removal path (dense renumbering, Algorithm 5) under an
// add/remove churn mix, and the bulk build of a whole catalog (what every
// service epoch build pays): the sort-and-sweep DynamicGrouping::Build
// versus N AddLicense calls versus LicenseGrouping::FromLicenses. Then
// what a service build pays per record and per license on top: history
// preload through CreateWithHistory against an empty Create, a state
// payload's decode plus Restore, and the epoch builds of an empty Create,
// an acquire and a revoke with their heap allocations (the binary counts
// operator new: tests/alloc_counter.h). Machine-readable:
// --json_out=<path>.
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/rect_grouping.h"
#include "core/dynamic_grouping.h"
#include "core/grouping.h"
#include "geometry/hyper_rect.h"
#include "licensing/constraint_schema.h"
#include "licensing/license.h"
#include "licensing/license_catalog.h"
#include "service/issuance_service.h"
#include "tests/alloc_counter.h"
#include "tests/service/issuance_service_peer.h"
#include "util/random.h"
#include "util/stopwatch.h"
#include "workload/workload.h"

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

// A catalog of `rects` over `schema` (interval dimensions C0..), every
// license with budget `budget`.
std::unique_ptr<LicenseCatalog> CatalogOf(const ConstraintSchema& schema,
                                          const std::vector<HyperRect>& rects,
                                          int64_t budget) {
  auto catalog = std::make_unique<LicenseCatalog>(&schema);
  for (size_t i = 0; i < rects.size(); ++i) {
    GEOLIC_CHECK(catalog
                     ->Add(License("L" + std::to_string(i), "K",
                                   LicenseType::kRedistribution,
                                   Permission::kPlay, rects[i], budget))
                     .ok());
  }
  return catalog;
}

ConstraintSchema IntervalSchema(int dims) {
  ConstraintSchema schema;
  for (int d = 0; d < dims; ++d) {
    GEOLIC_CHECK(schema.AddIntervalDimension("C" + std::to_string(d)).ok());
  }
  return schema;
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
  const ConstraintSchema schema = IntervalSchema(dims);
  const std::unique_ptr<LicenseCatalog> catalog = CatalogOf(schema, rects, 1);
  const std::vector<const HyperRect*> pointers = catalog->Rects();
  const auto incremental_build = [&pointers, dims]() {
    DynamicGrouping grouping(dims);
    for (size_t i = 0; i < pointers.size(); ++i) {
      GEOLIC_CHECK(
          grouping.AddLicense(std::span(pointers).first(i + 1)).ok());
    }
    return grouping;
  };
  const auto sweep_build = [&pointers, dims]() {
    Result<DynamicGrouping> grouping = DynamicGrouping::Build(dims, pointers);
    GEOLIC_CHECK(grouping.ok());
    return std::move(grouping).value();
  };

  const ComponentSet paper =
      LicenseGrouping::FromLicenses(*catalog).Components();
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
    *sink += LicenseGrouping::FromLicenses(*catalog).group_count();
    result.from_licenses_ns =
        std::min(result.from_licenses_ns, paper_timer.ElapsedNanos());
  }
  return result;
}

// Full acquisition history of `rects`, maintained incrementally. Returns
// elapsed nanos; `sink` defeats dead-code elimination.
int64_t RunIncremental(const std::vector<HyperRect>& rects, int* sink) {
  std::vector<const HyperRect*> pointers;
  for (const HyperRect& rect : rects) {
    pointers.push_back(&rect);
  }
  Stopwatch timer;
  DynamicGrouping grouping;
  for (size_t i = 0; i < rects.size(); ++i) {
    GEOLIC_CHECK(grouping.AddLicense(std::span(pointers).first(i + 1)).ok());
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
  std::vector<const HyperRect*> live;  // Rects in the pool.

  size_t next = 0;
  const size_t target = std::max<size_t>(2, rects.size() / 2);
  for (int step = 0; step < steps; ++step) {
    const bool add =
        live.empty() || (rng.Bernoulli(0.5) && live.size() < 2 * target);
    if (add) {
      live.push_back(&rects[next % rects.size()]);
      GEOLIC_CHECK(grouping.AddLicense(live).ok());
      ++next;
    } else {
      const int victim = static_cast<int>(rng.UniformIndex(live.size()));
      GEOLIC_CHECK(grouping.RemoveLicense(victim).ok());
      live.erase(live.begin() + victim);
    }
    *sink += grouping.group_count();
  }
  return timer.ElapsedNanos();
}

// `n` 1-D licenses dealt round-robin into `groups` overlap groups: license
// i is member i / groups of group i % groups, so every group's members are
// `groups` indexes apart and each one is a run of its own.
std::vector<HyperRect> InterleavedRects(int n, int groups) {
  std::vector<HyperRect> rects;
  rects.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const int64_t lo = 1000 * (i % groups) + 5 * (i / groups);
    rects.push_back(HyperRect({ConstraintRange(Interval(lo, lo + 50))}));
  }
  return rects;
}

// `records` records, each a random non-empty subset of one random overlap
// group of `catalog` (what admissions leave: a satisfying set never spans
// groups), count 1..4.
LogStore RandomHistory(const LicenseCatalog& catalog, int records,
                       uint64_t seed) {
  const LicenseGrouping grouping = LicenseGrouping::FromLicenses(catalog);
  Rng rng(seed);
  LogStore history;
  history.Reserve(static_cast<size_t>(records));
  for (int r = 0; r < records; ++r) {
    const int group = static_cast<int>(rng.UniformIndex(
        static_cast<size_t>(grouping.group_count())));
    const LicenseSet members = grouping.GroupMask(group);
    LogRecord record;
    while (record.set.Empty()) {
      for (int i : members.Indexes()) {
        if (rng.Bernoulli(0.5)) {
          record.set.Add(i);
        }
      }
    }
    record.count = rng.UniformInt(1, 4);
    GEOLIC_CHECK(history.Append(std::move(record)).ok());
  }
  return history;
}

// CollectLog must be `history` merged: one record per distinct set,
// ascending, counts summed, ids dropped.
void CheckCollectsMerged(const IssuanceService& service,
                         const LogStore& history) {
  std::map<LicenseSet, int64_t> merged;
  for (const LogRecord& record : history.records()) {
    merged[record.set] += record.count;
  }
  const LogStore collected = service.CollectLog();
  const std::vector<LogRecord>& got = collected.records();
  GEOLIC_CHECK(got.size() == merged.size());
  size_t i = 0;
  for (const auto& [set, count] : merged) {
    GEOLIC_CHECK(got[i].set == set && got[i].count == count &&
                 got[i].issued_license_id.empty());
    ++i;
  }
}

// Best of `reps` CreateWithHistory calls, after checking the preloaded
// state: CollectLog against the merged history, and every table and tree
// against one ApplySetToEpoch per record.
int64_t TimePreload(const LicenseCatalog& catalog, const LogStore& history,
                    int reps, int* sink) {
  const auto create = [&catalog, &history]() {
    Result<std::unique_ptr<IssuanceService>> service =
        IssuanceService::CreateWithHistory(&catalog, {}, history);
    GEOLIC_CHECK(service.ok());
    return std::move(service).value();
  };
  const std::unique_ptr<IssuanceService> checked = create();
  CheckCollectsMerged(*checked, history);
  Result<std::unique_ptr<IssuanceService>> per_record =
      IssuanceServiceTestPeer::CreateFromCopies(&catalog, {}, history);
  GEOLIC_CHECK(per_record.ok());
  GEOLIC_CHECK(IssuanceServiceTestPeer::State(*checked) ==
               IssuanceServiceTestPeer::State(**per_record));
  int64_t best = std::numeric_limits<int64_t>::max();
  for (int rep = 0; rep < reps; ++rep) {
    Stopwatch timer;
    *sink += create()->licenses().size();
    best = std::min(best, timer.ElapsedNanos());
  }
  return best;
}

// Dense-churn's catalog: 12 licenses in one overlap group, with its
// preload history (the satisfying sets of usage licenses drawn inside
// random members).
struct DenseChurnShape {
  Workload workload;
  LogStore history;
};

DenseChurnShape MakeDenseChurnShape(int records) {
  WorkloadConfig config;
  config.num_licenses = 12;
  config.num_clusters = 1;
  config.aggregate_min = int64_t{1} << 40;
  config.aggregate_max = int64_t{1} << 40;
  config.seed = 11;
  WorkloadGenerator generator(config);
  Result<Workload> workload = generator.GenerateLicensesOnly();
  GEOLIC_CHECK(workload.ok());
  DenseChurnShape shape{std::move(workload).value(), LogStore()};
  const LicenseCatalog& licenses = *shape.workload.licenses;
  Rng rng(1);
  for (int r = 0; r < records; ++r) {
    const License usage = generator.DrawUsageLicense(
        shape.workload, static_cast<int>(rng.UniformInt(0, 11)), &rng, r);
    LogRecord record;
    for (int i = 0; i < licenses.size(); ++i) {
      if (licenses.at(i).InstanceContains(usage)) {
        record.set.Add(i);
      }
    }
    record.count = usage.aggregate_count();
    GEOLIC_CHECK(shape.history.Append(std::move(record)).ok());
  }
  return shape;
}

struct RestoreResult {
  int64_t decode_ns = std::numeric_limits<int64_t>::max();
  int64_t restore_ns = std::numeric_limits<int64_t>::max();
  size_t payload_bytes = 0;
};

// Best of `reps` decodes and Restores of the state payload of a service
// over `catalog` with `history`, after checking the restored state.
RestoreResult TimeRestore(const LicenseCatalog& catalog,
                          const LogStore& history, int reps, int* sink) {
  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::CreateWithHistory(&catalog, {}, history);
  GEOLIC_CHECK(service.ok());
  std::string payload;
  GEOLIC_CHECK(EncodeServiceState((*service)->Snapshot(), &payload).ok());
  RestoreResult result;
  result.payload_bytes = payload.size();
  for (int rep = 0; rep <= reps; ++rep) {
    Stopwatch decode_timer;
    size_t pos = 0;
    Result<ServiceState> state =
        DecodeServiceState(payload, &pos, &catalog.schema());
    const int64_t decode_ns = decode_timer.ElapsedNanos();
    GEOLIC_CHECK(state.ok() && pos == payload.size());
    Stopwatch restore_timer;
    Result<std::unique_ptr<IssuanceService>> restored =
        IssuanceService::Restore(std::move(state).value(), {});
    const int64_t restore_ns = restore_timer.ElapsedNanos();
    GEOLIC_CHECK(restored.ok());
    if (rep == 0) {
      // The check run is not timed.
      CheckCollectsMerged(**restored, history);
      continue;
    }
    *sink += (*restored)->licenses().size();
    result.decode_ns = std::min(result.decode_ns, decode_ns);
    result.restore_ns = std::min(result.restore_ns, restore_ns);
  }
  return result;
}

struct EpochBuildResult {
  int64_t create_ns = std::numeric_limits<int64_t>::max();
  int64_t acquire_ns = std::numeric_limits<int64_t>::max();
  int64_t revoke_ns = std::numeric_limits<int64_t>::max();
  // Heap allocations of one call (the last rep's).
  uint64_t create_allocs = 0;
  uint64_t acquire_allocs = 0;
  uint64_t revoke_allocs = 0;
  // Heap bytes in use that one Create added (the service alive).
  size_t create_heap_bytes = 0;
};

// Heap bytes in use (small-chunk arenas plus mmapped chunks).
size_t HeapInUse() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

// Best of `reps` empty Creates over `catalog`, and on each fresh service
// the acquire of a copy of license 0's geometry (it joins that group, as
// dense-churn's churn does) and the revoke of the newcomer; one untimed
// warm-up round first.
EpochBuildResult TimeEpochBuilds(const LicenseCatalog& catalog, int reps) {
  const License& model = catalog.at(0);
  const License extra("LX", model.content_key(), model.type(),
                      model.permission(), model.rect(),
                      model.aggregate_count());
  EpochBuildResult result;
  for (int rep = 0; rep <= reps; ++rep) {
    uint64_t allocs = testing::AllocationCount();
    const size_t heap = HeapInUse();
    Stopwatch create_timer;
    Result<std::unique_ptr<IssuanceService>> service =
        IssuanceService::Create(&catalog);
    const int64_t create_ns = create_timer.ElapsedNanos();
    const uint64_t create_allocs = testing::AllocationCount() - allocs;
    const size_t create_heap_bytes = HeapInUse() - heap;
    GEOLIC_CHECK(service.ok());
    allocs = testing::AllocationCount();
    Stopwatch acquire_timer;
    const Result<int> acquired = (*service)->AcquireLicense(extra);
    const int64_t acquire_ns = acquire_timer.ElapsedNanos();
    const uint64_t acquire_allocs = testing::AllocationCount() - allocs;
    GEOLIC_CHECK(acquired.ok() && *acquired == catalog.size());
    allocs = testing::AllocationCount();
    Stopwatch revoke_timer;
    const Status revoked = (*service)->RevokeLicense(*acquired);
    const int64_t revoke_ns = revoke_timer.ElapsedNanos();
    const uint64_t revoke_allocs = testing::AllocationCount() - allocs;
    GEOLIC_CHECK(revoked.ok());
    if (rep == 0) {
      continue;
    }
    result.create_ns = std::min(result.create_ns, create_ns);
    result.acquire_ns = std::min(result.acquire_ns, acquire_ns);
    result.revoke_ns = std::min(result.revoke_ns, revoke_ns);
    result.create_allocs = create_allocs;
    result.create_heap_bytes = create_heap_bytes;
    result.acquire_allocs = acquire_allocs;
    result.revoke_allocs = revoke_allocs;
  }
  return result;
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
              "whose dimension-0 hulls meet; the other two grow with N^2\n");

  constexpr int kPreloadRecords = 24000;
  std::printf("\n# History preload: CreateWithHistory over %d records, and "
              "an empty Create (records 0); tables checked against one "
              "ApplySetToEpoch per record; best of %d reps; ns_per_record "
              "= (create - empty create) / records\n",
              kPreloadRecords, reps);
  std::printf("%14s  %6s  %6s  %8s  %8s  %10s  %12s  %13s\n", "layout", "n",
              "groups", "max_runs", "records", "distinct", "create_ns",
              "ns_per_record");
  const ConstraintSchema schema1 = IntervalSchema(1);
  const DenseChurnShape dense = MakeDenseChurnShape(kPreloadRecords);
  const std::unique_ptr<LicenseCatalog> interleaved =
      CatalogOf(schema1, InterleavedRects(128, 11), int64_t{1} << 40);
  const LogStore interleaved_history =
      RandomHistory(*interleaved, kPreloadRecords, 7);
  struct Preload {
    const char* layout;
    const LicenseCatalog* catalog;
    const LogStore* history;
  };
  for (const Preload& preload :
       {Preload{"dense_churn12", dense.workload.licenses.get(),
                &dense.history},
        Preload{"interleaved128", interleaved.get(), &interleaved_history}}) {
    const LicenseGrouping grouping =
        LicenseGrouping::FromLicenses(*preload.catalog);
    int max_runs = 0;
    for (int g = 0; g < grouping.group_count(); ++g) {
      max_runs = std::max(max_runs,
                          MemberRuns(grouping.GroupMask(g)).run_count());
    }
    const int64_t empty_ns =
        TimePreload(*preload.catalog, LogStore(), reps, &sink);
    const int64_t create_ns =
        TimePreload(*preload.catalog, *preload.history, reps, &sink);
    const double ns_per_record =
        static_cast<double>(create_ns - empty_ns) /
        static_cast<double>(preload.history->size());
    const size_t distinct = preload.history->MergedCounts().size();
    for (const bool empty : {true, false}) {
      const size_t records = empty ? 0 : preload.history->size();
      const int64_t ns = empty ? empty_ns : create_ns;
      std::printf("%14s  %6d  %6d  %8d  %8zu  %10zu  %12ld", preload.layout,
                  preload.catalog->size(), grouping.group_count(), max_runs,
                  records, empty ? size_t{0} : distinct,
                  static_cast<long>(ns));
      if (empty) {
        std::printf("  %13s\n", "-");
      } else {
        std::printf("  %13.1f\n", ns_per_record);
      }
      json.Row([&](JsonWriter& out) {
        out.KeyValue("layout", preload.layout);
        out.KeyValue("n", static_cast<int64_t>(preload.catalog->size()));
        out.KeyValue("groups", static_cast<int64_t>(grouping.group_count()));
        out.KeyValue("max_runs", static_cast<int64_t>(max_runs));
        out.KeyValue("records", static_cast<int64_t>(records));
        out.KeyValue("distinct",
                     static_cast<int64_t>(empty ? size_t{0} : distinct));
        out.KeyValue("create_ns", ns);
        if (!empty) {
          out.KeyValue("ns_per_record", ns_per_record);
        }
      });
    }
  }

  std::printf("\n# State payload: DecodeServiceState then Restore, on the "
              "pairs layout with 8 records per license (restored CollectLog "
              "checked; best of %d reps)\n", reps);
  std::printf("%6s  %8s  %10s  %12s  %12s\n", "n", "records", "bytes",
              "decode_ns", "restore_ns");
  for (const int n : {128, 1022}) {
    const std::unique_ptr<LicenseCatalog> catalog =
        CatalogOf(schema1, PairRects(n), int64_t{1} << 40);
    const LogStore history = RandomHistory(*catalog, 8 * n, 9);
    const RestoreResult result = TimeRestore(*catalog, history, reps, &sink);
    std::printf("%6d  %8zu  %10zu  %12ld  %12ld\n", n, history.size(),
                result.payload_bytes, static_cast<long>(result.decode_ns),
                static_cast<long>(result.restore_ns));
    json.Row([&](JsonWriter& out) {
      out.KeyValue("layout", "pairs_state");
      out.KeyValue("n", static_cast<int64_t>(n));
      out.KeyValue("records", static_cast<int64_t>(history.size()));
      out.KeyValue("payload_bytes", static_cast<int64_t>(result.payload_bytes));
      out.KeyValue("decode_ns", result.decode_ns);
      out.KeyValue("restore_ns", result.restore_ns);
    });
  }
  std::printf("\n# Epoch builds: an empty Create, then on that service the "
              "acquire of a copy of license 0's geometry and the revoke of "
              "the newcomer (best of %d reps; allocs = heap allocations of "
              "one call; heap_kib = heap in use that Create added)\n", reps);
  std::printf("%14s  %6s  %6s  %10s  %6s  %8s  %10s  %6s  %10s  %6s\n",
              "layout", "n", "groups", "create_ns", "allocs",
              "heap_kib", "acquire_ns", "allocs", "revoke_ns", "allocs");
  const std::unique_ptr<LicenseCatalog> pairs128 =
      CatalogOf(schema1, PairRects(128), int64_t{1} << 40);
  const std::unique_ptr<LicenseCatalog> pairs1022 =
      CatalogOf(schema1, PairRects(1022), int64_t{1} << 40);
  // Densely overlapping and wide: one overlap group of ~N²/2 pairs.
  const ConstraintSchema schema4 = IntervalSchema(4);
  const std::unique_ptr<LicenseCatalog> random1022 =
      CatalogOf(schema4, RandomRects(1022, 99), int64_t{1} << 40);
  struct EpochLayout {
    const char* layout;
    const LicenseCatalog* catalog;
  };
  for (const EpochLayout& layout :
       {EpochLayout{"pairs128", pairs128.get()},
        EpochLayout{"pairs1022", pairs1022.get()},
        EpochLayout{"random4d1022", random1022.get()},
        EpochLayout{"dense_churn12", dense.workload.licenses.get()}}) {
    const EpochBuildResult result = TimeEpochBuilds(*layout.catalog, reps);
    const int groups =
        LicenseGrouping::FromLicenses(*layout.catalog).group_count();
    std::printf(
        "%14s  %6d  %6d  %10ld  %6lu  %8.1f  %10ld  %6lu  %10ld  %6lu\n",
        layout.layout, layout.catalog->size(), groups,
        static_cast<long>(result.create_ns),
        static_cast<unsigned long>(result.create_allocs),
        static_cast<double>(result.create_heap_bytes) / 1024.0,
        static_cast<long>(result.acquire_ns),
        static_cast<unsigned long>(result.acquire_allocs),
        static_cast<long>(result.revoke_ns),
        static_cast<unsigned long>(result.revoke_allocs));
    for (const char* step : {"create", "acquire", "revoke"}) {
      const std::string name = step;
      json.Row([&](JsonWriter& out) {
        out.KeyValue("layout", layout.layout);
        out.KeyValue("step", step);
        out.KeyValue("n", static_cast<int64_t>(layout.catalog->size()));
        out.KeyValue("groups", static_cast<int64_t>(groups));
        out.KeyValue("ns", name == "create"    ? result.create_ns
                           : name == "acquire" ? result.acquire_ns
                                               : result.revoke_ns);
        out.KeyValue("allocs",
                     static_cast<int64_t>(name == "create" ? result.create_allocs
                                          : name == "acquire"
                                              ? result.acquire_allocs
                                              : result.revoke_allocs));
        if (name == "create") {
          out.KeyValue("heap_bytes",
                       static_cast<int64_t>(result.create_heap_bytes));
        }
      });
    }
  }
  std::printf("# sink=%d\n", sink);
  json.Write();
  return 0;
}

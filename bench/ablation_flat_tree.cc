// Ablation: the equation hot path across tree layouts. Every offline
// validator reduces to C<T> queries; this harness evaluates a fixed
// equation list against
//   * pointer  — the recursive ref [10] walk over heap-scattered nodes,
//   * flat     — the same descent rule on the preorder arena (layout win),
//   * pruned   — the arena plus subtree_mask/subtree_sum accelerators
//                (Theorem-1 skips + covered-subtree summarization), one
//                equation at a time,
//   * batch    — pruned, issued through SumSubsetsBatch as the validators
//                do (cache-resident arena across consecutive equations),
// sweeping N, log size, and overlap density. For N ≤ 20 the list is all
// 2^N − 1 dense equations; for wide N (128/256/1024 — the multi-word
// LicenseSet path) equations are enumerated per overlap group, the way the
// grouped validators issue them. The flat and pruned engines and the
// generic-width references are bench/flat_tree_reference.h; the batch is
// the library's. Before timing, every engine is checked
// equation-by-equation against the pointer tree, and SumSubsetsBatch
// against the per-query pruned scan (single-word and forced generic
// width) and the generic-width batch reference, in sums and in nodes
// visited — the bench aborts on any mismatch.
//
// The default workload is the figure-7 shape at N=16 with dense overlap
// (single cluster, high extents): the acceptance row printed last. Tiny CI
// runs (the ablation_flat_tree_smoke ctest): --max_n=10 --records=1500
// --max_wide_n=128. Release smoke:
// --max_wide_n=256. --max_wide_n=0 disables the wide sweep.
// Machine-readable: --json_out=<path>.
#include <algorithm>
#include <cstdio>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "bench/flat_tree_reference.h"
#include "graph/connected_components.h"
#include "util/stopwatch.h"
#include "validation/flat_tree.h"
#include "validation/validation_tree.h"

namespace {

using namespace geolic;         // NOLINT
using namespace geolic::bench;  // NOLINT

// Figure-7-style workload; `clusters` spreads licenses into that many
// disjoint overlap arenas (1 = the dense figure-7 shape), `extent` sets
// the overlap density, `records` the log size (0 = paper interpolation).
LogStore DenseLog(int n, int records, double extent, uint64_t seed = 2010,
                  int clusters = 1) {
  WorkloadConfig config = PaperSweepConfig(n, seed);
  config.num_clusters = clusters;
  config.min_extent = extent * 0.6;
  config.max_extent = extent;
  if (records > 0) {
    config.num_records = records;
  }
  WorkloadGenerator generator(config);
  Result<Workload> workload = generator.Generate();
  GEOLIC_CHECK(workload.ok());
  return std::move(workload->log);
}

// All 2^n - 1 equations, ascending — the exhaustive validator's dense
// order. Only sane for small n.
std::vector<LicenseSet> DenseEquations(int n) {
  GEOLIC_CHECK(n >= 1 && n <= 20);
  const uint64_t full = (uint64_t{1} << n) - 1;
  std::vector<LicenseSet> equations;
  equations.reserve(full);
  for (uint64_t word = 1; word <= full; ++word) {
    equations.push_back(LicenseSet::FromWord(word));
  }
  return equations;
}

// Wide-N equation list: overlap groups are recovered from license
// co-occurrence in the log (union-find over each record's set — the same
// partition the grouped validators work from), then every equation of each
// group with ≤ `cap_bits` licenses is enumerated. Oversized groups fall
// back to their distinct logged sets plus the group-wide equation, and are
// counted in `*capped_groups` — the row prints how many were truncated.
std::vector<LicenseSet> GroupEquations(const LogStore& log, int n,
                                       int cap_bits, int* capped_groups,
                                       int* group_count) {
  UnionFind uf(n);
  std::vector<bool> present(static_cast<size_t>(n), false);
  for (const LogRecord& record : log.records()) {
    const int anchor = record.set.Lowest();
    for (const int index : record.set.ToIndexes()) {
      present[static_cast<size_t>(index)] = true;
      uf.Union(anchor, index);
    }
  }
  std::vector<LicenseSet> groups(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    if (present[static_cast<size_t>(i)]) {
      groups[static_cast<size_t>(uf.Find(i))] |= LicenseSet::Singleton(i);
    }
  }
  const auto merged = log.MergedCounts();
  std::vector<LicenseSet> equations;
  *capped_groups = 0;
  *group_count = 0;
  for (const LicenseSet& group : groups) {
    if (group.Empty()) {
      continue;
    }
    ++*group_count;
    if (group.Size() <= cap_bits) {
      for (SubsetIterator it(group); !it.Done(); it.Next()) {
        equations.push_back(it.subset());
      }
    } else {
      ++*capped_groups;
      for (const auto& [set, count] : merged) {
        if (set.IsSubsetOf(group)) {
          equations.push_back(set);
        }
      }
      equations.push_back(group);
    }
  }
  return equations;
}

struct EngineTiming {
  double millis = 0.0;
  int64_t checksum = 0;
  uint64_t nodes = 0;
};

template <typename Eval>
EngineTiming TimeEquations(std::span<const LicenseSet> equations,
                           Eval&& eval) {
  EngineTiming timing;
  Stopwatch timer;
  for (const LicenseSet& set : equations) {
    timing.checksum += eval(set, &timing.nodes);
  }
  timing.millis = timer.ElapsedMillis();
  return timing;
}

// The batch scan, issued 256 equations at a time as the
// validators do.
EngineTiming TimeBatched(std::span<const LicenseSet> equations,
                         const FlatValidationTree& flat) {
  constexpr size_t kBatch = 256;
  int64_t sums[kBatch];
  EngineTiming timing;
  Stopwatch timer;
  for (size_t i = 0; i < equations.size(); i += kBatch) {
    const size_t batch = std::min(kBatch, equations.size() - i);
    flat.SumSubsetsBatch(equations.subspan(i, batch), {sums, batch},
                         &timing.nodes);
    for (size_t k = 0; k < batch; ++k) {
      timing.checksum += sums[k];
    }
  }
  timing.millis = timer.ElapsedMillis();
  return timing;
}

struct RowResult {
  double pointer_ms = 0.0;
  double flat_ms = 0.0;
  double pruned_ms = 0.0;
  double batch_ms = 0.0;
  uint64_t pointer_nodes = 0;
  uint64_t pruned_nodes = 0;
  double pruned_speedup = 0.0;
};

// Verifies equivalence equation-by-equation, then times each engine.
RowResult RunRow(const char* label, int n, const LogStore& log,
                 std::span<const LicenseSet> equations, JsonOut* json) {
  Result<ValidationTree> tree = ValidationTree::BuildFromLog(log);
  GEOLIC_CHECK(tree.ok());
  const FlatValidationTree flat = FlatValidationTree::Compile(*tree);
  GEOLIC_CHECK(flat.NodeCount() == tree->NodeCount());
  GEOLIC_CHECK(flat.TotalCount() == tree->TotalCount());
  GEOLIC_CHECK(flat.PresentLicenses() == tree->PresentLicenses());

  // Equivalence sweep (untimed, before any timing run): every engine,
  // every equation; the inline fast path against the forced generic-width
  // reference; and the batch against the per-query pruned scan and the
  // generic-width batch reference — sums AND nodes_visited must be
  // bit-identical.
  std::vector<int64_t> batch_sums(equations.size());
  std::vector<int64_t> wide_sums(equations.size());
  uint64_t batch_nodes = 0;
  uint64_t wide_nodes = 0;
  uint64_t serial_nodes = 0;
  uint64_t serial_wide_nodes = 0;
  flat.SumSubsetsBatch(equations, batch_sums, &batch_nodes);
  ReferenceSumSubsetsBatchWide(flat, equations, wide_sums, &wide_nodes);
  for (size_t i = 0; i < equations.size(); ++i) {
    const int64_t reference = tree->SumSubsets(equations[i]);
    GEOLIC_CHECK(ReferenceSumSubsetsNoAccel(flat, equations[i]) == reference);
    GEOLIC_CHECK(ReferenceSumSubsets(flat, equations[i], &serial_nodes) ==
                 reference);
    GEOLIC_CHECK(ReferenceSumSubsetsWide(flat, equations[i],
                                         &serial_wide_nodes) == reference);
    GEOLIC_CHECK(batch_sums[i] == reference);
    GEOLIC_CHECK(wide_sums[i] == reference);
  }
  GEOLIC_CHECK(batch_nodes == serial_nodes);
  GEOLIC_CHECK(batch_nodes == serial_wide_nodes);
  GEOLIC_CHECK(batch_nodes == wide_nodes);

  RowResult row;
  const EngineTiming pointer = TimeEquations(
      equations, [&tree](const LicenseSet& set, uint64_t* nodes) {
        return tree->SumSubsets(set, nodes);
      });
  const EngineTiming no_accel = TimeEquations(
      equations, [&flat](const LicenseSet& set, uint64_t* nodes) {
        return ReferenceSumSubsetsNoAccel(flat, set, nodes);
      });
  const EngineTiming pruned = TimeEquations(
      equations, [&flat](const LicenseSet& set, uint64_t* nodes) {
        return ReferenceSumSubsets(flat, set, nodes);
      });
  const EngineTiming batched = TimeBatched(equations, flat);
  GEOLIC_CHECK(pointer.checksum == no_accel.checksum);
  GEOLIC_CHECK(pointer.checksum == pruned.checksum);
  GEOLIC_CHECK(pointer.checksum == batched.checksum);
  GEOLIC_CHECK(batched.nodes == pruned.nodes);

  row.pointer_ms = pointer.millis;
  row.flat_ms = no_accel.millis;
  row.pruned_ms = pruned.millis;
  row.batch_ms = batched.millis;
  row.pointer_nodes = pointer.nodes;
  row.pruned_nodes = pruned.nodes;
  row.pruned_speedup =
      batched.millis > 0 ? pointer.millis / batched.millis : 0.0;

  std::printf("%-18s %4d %8zu %9zu %9zu  %9.2f %9.2f %9.2f %9.2f  "
              "%7.2fx  %12llu %12llu\n",
              label, n, log.size(), flat.NodeCount(), equations.size(),
              pointer.millis, no_accel.millis, pruned.millis, batched.millis,
              row.pruned_speedup,
              static_cast<unsigned long long>(pointer.nodes),
              static_cast<unsigned long long>(pruned.nodes));
  if (json != nullptr) {
    json->Row([&](JsonWriter& out) {
      out.KeyValue("label", label);
      out.KeyValue("n", static_cast<int64_t>(n));
      out.KeyValue("records", static_cast<uint64_t>(log.size()));
      out.KeyValue("tree_nodes", static_cast<uint64_t>(flat.NodeCount()));
      out.KeyValue("equations", static_cast<uint64_t>(equations.size()));
      out.KeyValue("pointer_ms", pointer.millis);
      out.KeyValue("flat_ms", no_accel.millis);
      out.KeyValue("pruned_ms", pruned.millis);
      out.KeyValue("batch_ms", batched.millis);
      out.KeyValue("pointer_nodes", pointer.nodes);
      out.KeyValue("pruned_nodes", pruned.nodes);
      out.KeyValue("speedup_pruned_batch", row.pruned_speedup);
      out.KeyValue("equivalence", true);  // GEOLIC_CHECKed above.
    });
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const int max_n = flags.Int("max_n", 16);
  const int records = flags.Int("records", 0);
  const int max_wide_n = flags.Int("max_wide_n", 1024);
  JsonOut json(flags, "ablation_flat_tree");
  flags.Finish();

  std::printf("# Ablation: pointer vs flat vs flat+pruned equation "
              "evaluation (dense 2^N-1 for N<=20, per-group beyond)\n");
  std::printf("%-18s %4s %8s %9s %9s  %9s %9s %9s %9s  %8s  %12s %12s\n",
              "sweep", "N", "records", "nodes", "equations", "ptr_ms",
              "flat_ms", "prune_ms", "batch_ms", "speedup", "ptr_visits",
              "prune_visits");

  // N sweep at dense overlap (the figure-7 x-axis).
  for (int n = 8; n <= max_n; n += 4) {
    const LogStore log = DenseLog(n, records, 0.95);
    RunRow("n_sweep", n, log, DenseEquations(n), &json);
  }

  // Log-size sweep at the densest setting.
  const int focus_n = std::min(16, max_n);
  for (const int size : {2000, 10000, 30000}) {
    const LogStore log = DenseLog(focus_n, records > 0 ? records : size,
                                  0.95, 3000 + static_cast<uint64_t>(size));
    RunRow("log_sweep", focus_n, log, DenseEquations(focus_n), &json);
    if (records > 0) {
      break;  // Tiny CI runs pin the log size; one row is enough.
    }
  }

  // Overlap-density sweep: sparse logs have few multi-license sets, so
  // pruning's covered-subtree shortcut matters less; dense logs are where
  // the win lives.
  for (const double extent : {0.2, 0.5, 0.95}) {
    const LogStore log = DenseLog(focus_n, records, extent);
    RunRow("density_sweep", focus_n, log, DenseEquations(focus_n), &json);
  }

  // Wide-N group sweep: the multi-word LicenseSet path. Licenses scatter
  // into ~N/8 overlap arenas, equations are enumerated per recovered
  // group — the shape the grouped validators issue at scale.
  constexpr int kGroupCapBits = 12;
  for (const int n : {128, 256, 1024}) {
    if (n > max_wide_n) {
      continue;
    }
    const LogStore log =
        DenseLog(n, records > 0 ? records : 4000, 0.9, 7000, n / 8);
    int capped = 0;
    int group_count = 0;
    const std::vector<LicenseSet> equations =
        GroupEquations(log, n, kGroupCapBits, &capped, &group_count);
    char label[32];
    std::snprintf(label, sizeof(label), "wide_group_n%d", n);
    RunRow(label, n, log, equations, &json);
    if (capped > 0) {
      std::printf("#   wide_group_n%d: %d of %d groups exceeded %d licenses;"
                  " truncated to logged sets + group equation\n",
                  n, capped, group_count, kGroupCapBits);
    }
  }

  // The acceptance row: figure-7-style default (N=16 capped by --max_n,
  // dense overlap, paper-interpolated log size).
  const LogStore log = DenseLog(focus_n, records, 0.95);
  const RowResult row =
      RunRow("default_n16_dense", focus_n, log, DenseEquations(focus_n),
             &json);
  std::printf("# default workload: flat+pruned (batch) is %.2fx the pointer "
              "tree (acceptance floor: 2x); equivalence checks: PASS\n",
              row.pruned_speedup);
  json.Write();
  return 0;
}

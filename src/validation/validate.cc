#include "validation/validate.h"

#include <algorithm>
#include <array>
#include <bit>
#include <string>
#include <utility>

#include "validation/flat_tree.h"
#include "util/thread_pool.h"

namespace geolic {
namespace {

// Equations are evaluated in batches of this many masks per
// SumSubsetsBatch call, so the flat arena stays hot in cache across
// consecutive equations.
constexpr size_t kEquationBatch = 256;

// AV: sum of aggregate values of the licenses selected by `set`.
int64_t AggregateValue(const std::vector<int64_t>& aggregates,
                       const LicenseSet& set) {
  int64_t av = 0;
  for (int j : set.Indexes()) {
    av += aggregates[static_cast<size_t>(j)];
  }
  return av;
}

// Dense equation enumeration walks every non-empty subset of {0..n-1} as an
// incrementing integer, so the exhaustive and zeta engines are inherently
// single-word; 2^n is infeasible long before n reaches 64 anyway. Wider
// universes go through kGrouped, which enumerates per group.
uint64_t FullWord(int n) {
  return n >= 64 ? ~uint64_t{0} : (uint64_t{1} << n) - 1;
}

// ---- Exhaustive engine (Algorithm 2) --------------------------------------

// Evaluates equations for sets in [begin, end] (inclusive masks) against
// the read-only tree; appends violations to *out in ascending order. The
// bits of a mask select the licenses in that equation's set.
void EvaluateRange(const FlatValidationTree& tree,
                   const std::vector<int64_t>& aggregates, uint64_t begin,
                   uint64_t end, std::vector<EquationResult>* out,
                   uint64_t* nodes_visited) {
  std::array<LicenseSet, kEquationBatch> sets;
  std::array<int64_t, kEquationBatch> sums;
  uint64_t next = begin;
  bool exhausted = false;
  while (!exhausted) {
    size_t batch = 0;
    while (batch < kEquationBatch) {
      sets[batch++] = LicenseSet::FromWord(next);
      if (next == end) {
        exhausted = true;
        break;
      }
      ++next;
    }
    // CV for the whole batch: pruned arena scans over contiguous nodes.
    tree.SumSubsetsBatch({sets.data(), batch}, {sums.data(), batch},
                         nodes_visited);
    for (size_t k = 0; k < batch; ++k) {
      const int64_t av = AggregateValue(aggregates, sets[k]);
      if (sums[k] > av) {
        out->push_back(EquationResult{sets[k], sums[k], av});
      }
    }
  }
}

// Every non-empty set of n ≥ 1 licenses, masks 1..2^n − 1: one range when
// serial, otherwise contiguous slices of it on a pool, merged in order.
ValidationReport Exhaustive(const FlatValidationTree& tree,
                            const std::vector<int64_t>& aggregates,
                            int num_threads) {
  const uint64_t total = FullWord(static_cast<int>(aggregates.size()));
  ValidationReport report;
  report.equations_evaluated = total;
  if (num_threads <= 1) {
    EvaluateRange(tree, aggregates, 1, total, &report.violations,
                  &report.nodes_visited);
    return report;
  }
  const uint64_t slice_count =
      std::min<uint64_t>(static_cast<uint64_t>(num_threads) * 4, total);
  std::vector<std::vector<EquationResult>> slice_violations(slice_count);
  std::vector<uint64_t> slice_nodes(slice_count, 0);
  {
    ThreadPool pool(num_threads);
    for (uint64_t slice = 0; slice < slice_count; ++slice) {
      const uint64_t begin = 1 + slice * total / slice_count;
      const uint64_t end = (slice + 1) * total / slice_count;
      pool.Schedule([&tree, &aggregates, begin, end,
                     violations = &slice_violations[slice],
                     nodes = &slice_nodes[slice]] {
        EvaluateRange(tree, aggregates, begin, end, violations, nodes);
      });
    }
    pool.Wait();
  }
  for (uint64_t slice = 0; slice < slice_count; ++slice) {
    report.nodes_visited += slice_nodes[slice];
    report.violations.insert(report.violations.end(),
                             slice_violations[slice].begin(),
                             slice_violations[slice].end());
  }
  return report;
}

// ---- Dense zeta (subset-sum DP) engine -------------------------------------

Result<ValidationReport> ZetaDense(const FlatValidationTree& tree,
                                   const std::vector<int64_t>& aggregates) {
  const int n = static_cast<int>(aggregates.size());
  if (n > kMaxDenseN) {
    return Status::CapacityExceeded(
        "dense zeta validation capped at N = " + std::to_string(kMaxDenseN) +
        ", got " + std::to_string(n));
  }
  ValidationReport report;
  const size_t table_size = size_t{1} << n;
  // lhs[S] starts as the exact count C[S]; after the zeta transform it is
  // C⟨S⟩ = Σ_{T ⊆ S} C[T].
  std::vector<int64_t> lhs(table_size, 0);
  tree.ForEachSet([&lhs](const LicenseSet& set, int64_t count) {
    lhs[static_cast<size_t>(set.AsWord())] += count;
  });
  ZetaTransform(lhs);
  std::vector<int64_t> rhs(table_size, 0);
  FillAggregateTable(aggregates, rhs);

  for (size_t set = 1; set < table_size; ++set) {
    ++report.equations_evaluated;
    if (lhs[set] > rhs[set]) {
      report.violations.push_back(EquationResult{
          LicenseSet::FromWord(static_cast<uint64_t>(set)), lhs[set],
          rhs[set]});
    }
  }
  return report;
}

}  // namespace

void ZetaTransform(std::span<int64_t> table) {
  const size_t size = table.size();
  GEOLIC_DCHECK(std::has_single_bit(size));
  // Per bit, every set with the bit gains its partner without it; the
  // partners of one block are the contiguous block below it, so the inner
  // loop vectorizes. Bits 0 and 1 (strides 1 and 2), whose blocks are too
  // short for that, go together within each 4-entry block.
  size_t stride = 1;
  if (size >= 4) {
    for (int64_t* t = table.data(); t != table.data() + size; t += 4) {
      t[1] += t[0];
      t[3] += t[2];
      t[2] += t[0];
      t[3] += t[1];
    }
    stride = 4;
  }
  for (; stride < size; stride <<= 1) {
    for (size_t block = 0; block < size; block += 2 * stride) {
      for (size_t set = block; set < block + stride; ++set) {
        table[set + stride] += table[set];
      }
    }
  }
}

void FillAggregateTable(std::span<const int64_t> values,
                        std::span<int64_t> table) {
  GEOLIC_DCHECK(table.size() == size_t{1} << values.size());
  // The sets whose highest member is i are i's bit plus each set below
  // it: one contiguous, vectorizable copy-and-add per member.
  table[0] = 0;
  for (size_t i = 0; i < values.size(); ++i) {
    const size_t half = size_t{1} << i;
    for (size_t set = 0; set < half; ++set) {
      table[half + set] = table[set] + values[i];
    }
  }
}

Result<ValidationOutcome> Validate(const ValidationTree& tree,
                                   const std::vector<int64_t>& aggregates,
                                   const ValidateOptions& options) {
  const int n = static_cast<int>(aggregates.size());
  if (n > kMaxLicensesLarge) {
    return Status::CapacityExceeded(
        "at most " + std::to_string(kMaxLicensesLarge) +
        " redistribution licenses");
  }
  if (n == 0) {
    return ValidationOutcome{};
  }
  // One arena compile per run; every equation below queries the flat form.
  // The compile is the D_T half of this overload (the log overloads also
  // count tree building).
  const FlatValidationTree flat = [&] {
    ScopedTracerSpan span(options.tracer, TraceStage::kTreeDivision);
    return FlatValidationTree::Compile(tree);
  }();
  // Licenses the tree mentions must all have an aggregate entry.
  if (!flat.PresentLicenses().IsSubsetOf(LicenseSet::Full(n))) {
    return Status::InvalidArgument(
        "tree references license indexes beyond the aggregate array");
  }

  ValidationMode mode = options.mode;
  if (mode == ValidationMode::kAuto) {
    mode = n <= kMaxDenseN ? ValidationMode::kZeta
                           : ValidationMode::kExhaustive;
  }
  if (n > kMaxLicensesInline &&
      (mode == ValidationMode::kExhaustive || mode == ValidationMode::kZeta)) {
    // Both ungrouped engines enumerate all 2^N − 1 equations as a dense
    // integer range — infeasible and unrepresentable past 64 licenses.
    // Wider universes must be grouped first (per-group enumeration).
    return Status::CapacityExceeded(
        "ungrouped validation enumerates 2^N equations and is capped at " +
        std::to_string(kMaxLicensesInline) +
        " licenses; use a grouped mode for wider universes");
  }

  ValidationOutcome outcome;
  // V_T: everything from here to return is equation evaluation.
  ScopedTracerSpan engine_span(options.tracer,
                               TraceStage::kOfflineValidation);
  switch (mode) {
    case ValidationMode::kExhaustive: {
      const int threads = options.num_threads == 0
                              ? ThreadPool::DefaultThreadCount()
                              : options.num_threads;
      outcome.report = Exhaustive(flat, aggregates, threads);
      return outcome;
    }
    case ValidationMode::kZeta: {
      GEOLIC_ASSIGN_OR_RETURN(outcome.report, ZetaDense(flat, aggregates));
      return outcome;
    }
    case ValidationMode::kGrouped:
      return Status::InvalidArgument(
          "grouped validation needs the licenses' geometry; call the "
          "LicenseCatalog overload of Validate");
    case ValidationMode::kAuto:
      break;  // Resolved above.
  }
  return Status::Internal("unreachable validation mode");
}

Result<ValidationOutcome> Validate(const LogStore& log,
                                   const std::vector<int64_t>& aggregates,
                                   const ValidateOptions& options) {
  auto built = [&] {
    ScopedTracerSpan span(options.tracer, TraceStage::kTreeDivision);
    return ValidationTree::BuildFromLog(log);
  }();
  GEOLIC_ASSIGN_OR_RETURN(const ValidationTree tree, std::move(built));
  return Validate(tree, aggregates, options);
}

}  // namespace geolic

#include "validation/validate.h"

#include <algorithm>
#include <array>
#include <bit>
#include <string>
#include <utility>

#include "validation/flat_tree.h"
#include "validation/frequency_order.h"
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
// universes go through the grouped modes, which enumerate per group.
uint64_t FullWord(int n) {
  return n >= 64 ? ~uint64_t{0} : (uint64_t{1} << n) - 1;
}

// ---- Serial exhaustive engine (Algorithm 2) --------------------------------

Result<ValidationReport> ExhaustiveSerial(
    const FlatValidationTree& tree, const std::vector<int64_t>& aggregates,
    uint64_t max_equations) {
  const int n = static_cast<int>(aggregates.size());
  ValidationReport report;
  if (n == 0) {
    return report;
  }
  // The batch enumerates every non-empty subset of {0..n-1}; the bits of a
  // mask select the licenses in that equation's set.
  const uint64_t full = FullWord(n);
  std::array<LicenseSet, kEquationBatch> sets;
  std::array<int64_t, kEquationBatch> sums;
  uint64_t next = 1;
  bool exhausted = false;
  while (!exhausted && report.equations_evaluated < max_equations) {
    size_t batch = 0;
    while (batch < kEquationBatch &&
           report.equations_evaluated + batch < max_equations) {
      sets[batch++] = LicenseSet::FromWord(next);
      if (next == full) {
        exhausted = true;
        break;
      }
      ++next;
    }
    // CV for the whole batch: pruned arena scans over contiguous nodes.
    tree.SumSubsetsBatch({sets.data(), batch}, {sums.data(), batch},
                         &report.nodes_visited);
    for (size_t k = 0; k < batch; ++k) {
      const int64_t av = AggregateValue(aggregates, sets[k]);
      ++report.equations_evaluated;
      if (sums[k] > av) {
        report.violations.push_back(EquationResult{sets[k], sums[k], av});
      }
    }
  }
  return report;
}

// ---- Parallel exhaustive engine (equation-range sharding) ------------------

// Evaluates equations for sets in [begin, end] (inclusive masks) against
// the read-only tree; appends violations to *out in ascending order.
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

Result<ValidationReport> ExhaustiveSharded(
    const FlatValidationTree& tree, const std::vector<int64_t>& aggregates,
    int num_threads) {
  const int n = static_cast<int>(aggregates.size());
  ValidationReport report;
  if (n == 0) {
    return report;
  }
  const uint64_t total = FullWord(n);  // Number of non-empty sets = 2^n − 1.
  const uint64_t slice_count =
      std::min<uint64_t>(static_cast<uint64_t>(num_threads) * 4, total);
  std::vector<std::vector<EquationResult>> slice_violations(slice_count);
  std::vector<uint64_t> slice_nodes(slice_count, 0);

  {
    ThreadPool pool(num_threads);
    for (uint64_t shard = 0; shard < slice_count; ++shard) {
      // Masks 1..full split into contiguous shards.
      const uint64_t begin = 1 + shard * total / slice_count;
      const uint64_t end = (shard + 1) * total / slice_count;
      pool.Schedule([&tree, &aggregates, begin, end,
                     violations = &slice_violations[shard],
                     nodes = &slice_nodes[shard]] {
        EvaluateRange(tree, aggregates, begin, end, violations, nodes);
      });
    }
    pool.Wait();
  }

  report.equations_evaluated = total;
  for (uint64_t shard = 0; shard < slice_count; ++shard) {
    report.nodes_visited += slice_nodes[shard];
    report.violations.insert(report.violations.end(),
                             slice_violations[shard].begin(),
                             slice_violations[shard].end());
  }
  return report;
}

// ---- Dense zeta (subset-sum DP) engine -------------------------------------

Result<ValidationReport> ZetaDense(const FlatValidationTree& tree,
                                   const std::vector<int64_t>& aggregates,
                                   int max_dense_n) {
  const int n = static_cast<int>(aggregates.size());
  if (n > max_dense_n) {
    return Status::CapacityExceeded(
        "dense zeta validation capped at N = " +
        std::to_string(max_dense_n) + ", got " + std::to_string(n));
  }
  ValidationReport report;
  if (n == 0) {
    return report;
  }

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
    mode = n <= options.max_dense_n ? ValidationMode::kZeta
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
      // The equation limit is a serial-engine notion: parallel shards
      // cannot stop "after the first k equations" deterministically.
      if (threads <= 1 || options.max_equations != UINT64_MAX) {
        GEOLIC_ASSIGN_OR_RETURN(
            outcome.report,
            ExhaustiveSerial(flat, aggregates, options.max_equations));
      } else {
        GEOLIC_ASSIGN_OR_RETURN(outcome.report,
                                ExhaustiveSharded(flat, aggregates, threads));
      }
      return outcome;
    }
    case ValidationMode::kZeta: {
      GEOLIC_ASSIGN_OR_RETURN(
          outcome.report, ZetaDense(flat, aggregates, options.max_dense_n));
      return outcome;
    }
    case ValidationMode::kGrouped:
    case ValidationMode::kGroupedZeta:
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
  const int n = static_cast<int>(aggregates.size());
  if (n > kMaxLicensesLarge) {
    return Status::CapacityExceeded(
        "at most " + std::to_string(kMaxLicensesLarge) +
        " redistribution licenses");
  }
  if (options.order == TreeOrder::kIndex) {
    auto built = [&] {
      ScopedTracerSpan span(options.tracer, TraceStage::kTreeDivision);
      return ValidationTree::BuildFromLog(log);
    }();
    GEOLIC_ASSIGN_OR_RETURN(const ValidationTree tree, std::move(built));
    return Validate(tree, aggregates, options);
  }

  // Frequency relabeling: build the tree under the permutation, validate in
  // relabeled space, then translate violation sets back. Permutation +
  // relabeled build are D_T work, covered by one kTreeDivision span.
  struct Prepared {
    LicensePermutation permutation;
    ValidationTree tree;
  };
  auto prepared = [&]() -> Result<Prepared> {
    ScopedTracerSpan span(options.tracer, TraceStage::kTreeDivision);
    GEOLIC_ASSIGN_OR_RETURN(
        LicensePermutation permutation,
        LicensePermutation::ByDescendingFrequency(log, n));
    GEOLIC_ASSIGN_OR_RETURN(ValidationTree tree,
                            BuildFrequencyOrderedTree(log, permutation));
    return Prepared{std::move(permutation), std::move(tree)};
  }();
  GEOLIC_RETURN_IF_ERROR(prepared.status());
  const LicensePermutation& permutation = prepared->permutation;
  GEOLIC_ASSIGN_OR_RETURN(
      ValidationOutcome outcome,
      Validate(prepared->tree, permutation.MapValues(aggregates), options));
  for (EquationResult& violation : outcome.report.violations) {
    violation.set = permutation.UnmapMask(violation.set);
  }
  return outcome;
}

}  // namespace geolic

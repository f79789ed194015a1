#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "util/cpu_dispatch.h"
#include "util/license_set.h"
#include "util/random.h"
#include "validation/flat_tree.h"
#include "validation/validation_tree.h"

namespace geolic {
namespace {

// Random tree over `n` licenses with `records` inserted sets. Wide license
// indexes come from shifting random words into high positions.
ValidationTree RandomTree(Rng* rng, int n, int records) {
  ValidationTree tree;
  for (int r = 0; r < records; ++r) {
    LicenseSet set;
    for (int w = 0; w * 64 < n; ++w) {
      uint64_t word = rng->Next();
      if ((w + 1) * 64 > n) {
        word &= (uint64_t{1} << (n % 64)) - 1;
      }
      // Keep sets sparse-ish so coverage/descent both occur.
      word &= rng->Next() & rng->Next();
      for (uint64_t bits = word; bits != 0; bits &= bits - 1) {
        set.Add(w * 64 + std::countr_zero(bits));
      }
    }
    if (set.Empty()) {
      continue;
    }
    EXPECT_TRUE(tree.Insert(set, rng->UniformInt(1, 50)).ok());
  }
  return tree;
}

std::vector<LicenseSet> RandomQueries(Rng* rng, int n, size_t count) {
  std::vector<LicenseSet> queries;
  queries.reserve(count);
  for (size_t q = 0; q < count; ++q) {
    LicenseSet set;
    for (int w = 0; w * 64 < n; ++w) {
      uint64_t word = rng->Next();
      if ((w + 1) * 64 > n) {
        word &= (uint64_t{1} << (n % 64)) - 1;
      }
      if (rng->Bernoulli(0.4)) {
        word |= rng->Next();  // Dense query: drives the covered fast path.
      }
      for (uint64_t bits = word; bits != 0; bits &= bits - 1) {
        set.Add(w * 64 + std::countr_zero(bits));
      }
    }
    queries.push_back(set);
  }
  return queries;
}

// The dispatched batch scan, the pinned-scalar batch scan, the wide
// reference, and per-query SumSubsets must agree bit-for-bit on sums AND
// nodes_visited — the PR-2-style gate every kernel tier must pass before
// any timing run trusts it.
TEST(FlatTreeSimdTest, BatchTiersBitIdenticalToScalarAcrossWidths) {
  Rng rng(77002);
  for (const int n : {12, 48, 64, 100, 128, 256}) {
    for (int trial = 0; trial < 8; ++trial) {
      const ValidationTree tree =
          RandomTree(&rng, n, 40 + 20 * (trial % 3));
      const FlatValidationTree flat = FlatValidationTree::Compile(tree);
      // Odd count exercises the partial last chunk.
      const std::vector<LicenseSet> queries =
          RandomQueries(&rng, n, trial % 2 == 0 ? 192 : 67);

      std::vector<int64_t> vec_sums(queries.size());
      std::vector<int64_t> scalar_sums(queries.size());
      std::vector<int64_t> wide_sums(queries.size());
      uint64_t vec_nodes = 0;
      uint64_t scalar_nodes = 0;
      uint64_t wide_nodes = 0;
      flat.SumSubsetsBatch(queries, vec_sums, &vec_nodes);
      flat.SumSubsetsBatchScalar(queries, scalar_sums, &scalar_nodes);
      flat.SumSubsetsBatchWideReference(queries, wide_sums, &wide_nodes);

      EXPECT_EQ(vec_nodes, scalar_nodes) << "n=" << n << " trial=" << trial;
      EXPECT_EQ(wide_nodes, scalar_nodes) << "n=" << n << " trial=" << trial;
      uint64_t serial_nodes = 0;
      for (size_t q = 0; q < queries.size(); ++q) {
        const int64_t want = flat.SumSubsets(queries[q], &serial_nodes);
        ASSERT_EQ(vec_sums[q], want) << "n=" << n << " q=" << q;
        ASSERT_EQ(scalar_sums[q], want) << "n=" << n << " q=" << q;
        ASSERT_EQ(wide_sums[q], want) << "n=" << n << " q=" << q;
        ASSERT_EQ(want, tree.SumSubsets(queries[q])) << "n=" << n;
      }
      EXPECT_EQ(vec_nodes, serial_nodes)
          << "batch nodes_visited must equal the per-query scans, n=" << n;
    }
  }
}

TEST(FlatTreeSimdTest, ActiveKernelsReportNonEmptyTierName) {
  const simd::Kernels& kernels = simd::ActiveKernels();
  EXPECT_NE(kernels.name, nullptr);
  EXPECT_NE(kernels.name[0], '\0');
  // The active tier is one of the two known tables.
  const simd::Tier tier = simd::ActiveTier();
  EXPECT_EQ(&simd::KernelsForTier(tier), &kernels);
}

}  // namespace
}  // namespace geolic

#ifndef GEOLIC_BENCH_FREQUENCY_ORDER_H_
#define GEOLIC_BENCH_FREQUENCY_ORDER_H_

#include <cstdint>
#include <vector>

#include "validation/log_store.h"
#include "validation/validation_tree.h"
#include "util/status.h"

namespace geolic {

// License index relabeling. The validation tree orders nodes by license
// index, so the *labeling* decides how much prefix sharing the log enjoys:
// the frequent-pattern-tree literature the paper's reference [10] builds on
// (its reference [8], "ascending frequency ordered prefix-tree") orders
// items by frequency to shrink the tree. A permutation is a bijection over
// 0..n−1; masks map bit-by-bit, so every algorithm downstream (Algorithm 2,
// grouping, division) works unchanged on relabeled inputs.
class LicensePermutation {
 public:
  // Identity over n licenses.
  explicit LicensePermutation(int n);

  // Relabels so that the license appearing in the most log records gets
  // index 0 (descending frequency; ties by original index). Hot licenses
  // land near the root, maximising prefix sharing. A log record whose set
  // references a license index >= n is an InvalidArgument error (the same
  // contract as validating a tree against a too-short aggregate array):
  // silently skipping such records would relabel against undercounted
  // frequencies and later read past the permutation's arrays.
  static Result<LicensePermutation> ByDescendingFrequency(const LogStore& log,
                                                          int n);

  int size() const { return static_cast<int>(to_new_.size()); }
  // Original index → relabeled index and back.
  int ToNew(int original) const {
    return to_new_[static_cast<size_t>(original)];
  }
  int ToOld(int relabeled) const {
    return to_old_[static_cast<size_t>(relabeled)];
  }

  // Mask translation (bit i of the input becomes bit ToNew(i) / ToOld(i)).
  LicenseSet MapMask(const LicenseSet& original) const;
  LicenseSet UnmapMask(const LicenseSet& relabeled) const;

  // Reorders an index-aligned vector (e.g. the aggregate array A) into
  // relabeled order.
  std::vector<int64_t> MapValues(const std::vector<int64_t>& values) const;

 private:
  std::vector<int> to_new_;
  std::vector<int> to_old_;
};

// Builds the validation tree under the permutation's labeling.
Result<ValidationTree> BuildFrequencyOrderedTree(
    const LogStore& log, const LicensePermutation& permutation);

}  // namespace geolic

#endif  // GEOLIC_BENCH_FREQUENCY_ORDER_H_

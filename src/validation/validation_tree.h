#ifndef GEOLIC_VALIDATION_VALIDATION_TREE_H_
#define GEOLIC_VALIDATION_VALIDATION_TREE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "validation/log_store.h"
#include "util/license_set.h"
#include "util/status.h"

namespace geolic {

// Node of the validation tree. The set a node represents is spelled by the
// license indexes on the path from the root (exclusive) to the node;
// `count` is that set's accumulated C[S]. Children are kept ordered by
// ascending license index, and indexes strictly increase along any
// root-to-leaf path (the paper orders each log record's licenses by
// increasing index before insertion).
struct ValidationTreeNode {
  int index = -1;       // 0-based redistribution license index; -1 = root.
  int64_t count = 0;    // C of the set spelled by the path to this node.
  std::vector<std::unique_ptr<ValidationTreeNode>> children;
};

// The prefix-tree ("validation tree") of reference [10], built from the
// offline log. It stores every distinct set S seen in the log exactly once
// and computes the LHS of any validation equation by a pruned traversal.
class ValidationTree {
 public:
  ValidationTree() : root_(std::make_unique<ValidationTreeNode>()) {}

  // Iterative teardown: the natural unique_ptr chain destruction recurses
  // once per level, and checkpoint loading must survive adversarially deep
  // chain-shaped trees without overflowing the stack.
  ~ValidationTree();

  ValidationTree(const ValidationTree&) = delete;
  ValidationTree& operator=(const ValidationTree&) = delete;
  ValidationTree(ValidationTree&&) noexcept = default;
  ValidationTree& operator=(ValidationTree&& other) noexcept;

  // Paper Algorithm 1 (Insert): walks/creates nodes for the licenses of
  // `set` in ascending index order and adds `count` to the final node.
  // Fails on an empty set or non-positive count.
  Status Insert(const LicenseSet& set, int64_t count);

  // Builds a tree from every record in `store`.
  static Result<ValidationTree> BuildFromLog(const LogStore& store);

  // LHS of the validation equation for `set` (the paper's C⟨S⟩): the sum of
  // counts over all subsets of `set` present in the tree. Implemented as the
  // ref [10] traversal — descend only into children whose index ∈ set, sum
  // every visited node's count. If `nodes_visited` is non-null, the number
  // of nodes touched is added to it (benchmarks report this).
  int64_t SumSubsets(const LicenseSet& set,
                     uint64_t* nodes_visited = nullptr) const;

  // Exact count stored for `set` (0 if the set never appeared in the log).
  int64_t CountOf(const LicenseSet& set) const;

  // Number of nodes excluding the root.
  size_t NodeCount() const;

  // Sum of all node counts (equals the log's total count).
  int64_t TotalCount() const;

  // Approximate heap footprint in bytes (node payloads + child vectors,
  // root node included — every node is heap-allocated); the storage metric
  // of the paper's figure 10.
  size_t MemoryBytes() const;

  // Mask of every license index present in the tree.
  LicenseSet PresentLicenses() const;

  // Invokes `fn(set, count)` for every node with a non-zero count, where
  // `set` is the mask spelled by the node's path. Equivalent to iterating
  // the merged log counts. Order is tree preorder.
  void ForEachSet(
      const std::function<void(const LicenseSet&, int64_t)>& fn) const;

  // Multi-line rendering for debugging/tests: one "L<i+1>:count" per node,
  // two-space indentation per depth.
  std::string ToString() const;

  // Mutable access for the tree-division and index-modification algorithms
  // (core layer). The root always exists.
  ValidationTreeNode* mutable_root() { return root_.get(); }
  const ValidationTreeNode& root() const { return *root_; }

 private:
  std::unique_ptr<ValidationTreeNode> root_;
};

}  // namespace geolic

#endif  // GEOLIC_VALIDATION_VALIDATION_TREE_H_

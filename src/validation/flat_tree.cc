#include "validation/flat_tree.h"

#include <algorithm>
#include <utility>

#include "util/check.h"
#include "validation/flat_tree_batch.h"

namespace geolic {
namespace {

// Emits `node`'s children (not `node` itself) in preorder and returns
// nothing; each emitted slot's subtree columns are filled after its own
// children are emitted. Depth is bounded by kMaxLicensesLarge (path indexes
// strictly increase), so recursion is safe.
struct Compiler {
  std::vector<int32_t>* index;
  std::vector<int64_t>* count;
  std::vector<uint32_t>* subtree_end;
  std::vector<LicenseSet>* subtree_mask;
  std::vector<int64_t>* subtree_sum;

  void EmitChildren(const ValidationTreeNode& node) {
    for (const auto& child : node.children) {
      const size_t slot = index->size();
      index->push_back(child->index);
      count->push_back(child->count);
      subtree_end->push_back(0);  // Patched below.
      subtree_mask->push_back(LicenseSet());  // Accumulated below.
      subtree_sum->push_back(0);
      EmitChildren(*child);
      (*subtree_end)[slot] = static_cast<uint32_t>(index->size());
      LicenseSet mask = LicenseSet::Singleton(child->index);
      int64_t sum = child->count;
      // The children of `slot` occupy [slot+1, subtree_end); hop sibling to
      // sibling, folding their already-final subtree columns.
      for (size_t c = slot + 1; c < index->size(); c = (*subtree_end)[c]) {
        mask |= (*subtree_mask)[c];
        sum += (*subtree_sum)[c];
      }
      (*subtree_mask)[slot] = mask;
      (*subtree_sum)[slot] = sum;
    }
  }
};

}  // namespace

FlatValidationTree FlatValidationTree::Compile(const ValidationTree& tree) {
  FlatValidationTree flat;
  const size_t nodes = tree.NodeCount();
  flat.index_.reserve(nodes);
  flat.count_.reserve(nodes);
  flat.subtree_end_.reserve(nodes);
  flat.subtree_sum_.reserve(nodes);
  std::vector<LicenseSet> masks;
  masks.reserve(nodes);
  Compiler compiler{&flat.index_, &flat.count_, &flat.subtree_end_, &masks,
                    &flat.subtree_sum_};
  compiler.EmitChildren(tree.root());
  for (size_t i = 0; i < flat.index_.size(); i = flat.subtree_end_[i]) {
    flat.present_ |= masks[i];
    flat.total_count_ += flat.subtree_sum_[i];
  }
  // Slice the masks into a contiguous word arena at the compile-wide width.
  // present_ is the union of every subtree mask, so its word count bounds
  // them all; a tree confined to indexes < 64 keeps the stride at 1 and the
  // arena is exactly the historical u64 column.
  flat.mask_words_ = static_cast<uint32_t>(flat.present_.WordCount());
  for (const int32_t idx : flat.index_) {
    flat.member_span_ =
        std::max(flat.member_span_, static_cast<uint32_t>(idx) + 1);
  }
  flat.subtree_mask_words_.assign(masks.size() * flat.mask_words_, 0);
  for (size_t i = 0; i < masks.size(); ++i) {
    for (uint32_t w = 0; w < flat.mask_words_; ++w) {
      flat.subtree_mask_words_[i * flat.mask_words_ + w] =
          masks[i].Word(static_cast<int>(w));
    }
  }
  return flat;
}

internal::FlatTreeBatchView FlatValidationTree::BatchView() const {
  return internal::FlatTreeBatchView{
      index_.data(),          count_.data(), subtree_end_.data(),
      subtree_mask_words_.data(),            subtree_sum_.data(),
      index_.size(),          mask_words_,   member_span_};
}

void FlatValidationTree::SumSubsetsBatch(std::span<const LicenseSet> sets,
                                         std::span<int64_t> sums,
                                         uint64_t* nodes_visited) const {
  GEOLIC_DCHECK(sums.size() >= sets.size());
  const internal::FlatTreeBatchView view = BatchView();
  const uint64_t touched =
      mask_words_ == 1   ? internal::BatchScan<1>(view, sets, sums)
      : mask_words_ == 2 ? internal::BatchScan<2>(view, sets, sums)
                         : internal::BatchScan<0>(view, sets, sums);
  if (nodes_visited != nullptr) {
    *nodes_visited += touched;
  }
}

size_t FlatValidationTree::MemoryBytes() const {
  return index_.capacity() * sizeof(int32_t) +
         count_.capacity() * sizeof(int64_t) +
         subtree_end_.capacity() * sizeof(uint32_t) +
         subtree_mask_words_.capacity() * sizeof(uint64_t) +
         subtree_sum_.capacity() * sizeof(int64_t);
}

void FlatValidationTree::ForEachSet(
    const std::function<void(const LicenseSet&, int64_t)>& fn) const {
  // (subtree end, path mask to restore on leaving that subtree).
  std::vector<std::pair<uint32_t, LicenseSet>> stack;
  LicenseSet path;
  for (size_t i = 0; i < index_.size(); ++i) {
    while (!stack.empty() && stack.back().first == i) {
      path = stack.back().second;
      stack.pop_back();
    }
    const LicenseSet node_mask = path | LicenseSet::Singleton(index_[i]);
    if (count_[i] != 0) {
      fn(node_mask, count_[i]);
    }
    if (subtree_end_[i] > i + 1) {
      stack.emplace_back(subtree_end_[i], path);
      path = node_mask;
    }
  }
}

}  // namespace geolic

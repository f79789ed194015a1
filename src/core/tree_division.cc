#include "core/tree_division.h"

#include <utility>

namespace geolic {
namespace {

// Verifies the whole branch under `node` stays inside `group_mask`
// (Corollary 1.1 guarantees this for logs consistent with the geometry).
bool BranchWithin(const ValidationTreeNode& node, LicenseSet group_mask) {
  for (const auto& child : node.children) {
    if (!(group_mask).Contains(child->index) ||
        !BranchWithin(*child, group_mask)) {
      return false;
    }
  }
  return true;
}

Status ReindexNode(const LicenseGrouping& grouping, int group,
                   ValidationTreeNode* node) {
  for (auto& child : node->children) {
    if (child->index < 0 || child->index >= grouping.num_licenses() ||
        grouping.GroupOf(child->index) != group) {
      return Status::Internal(
          "node index " + std::to_string(child->index + 1) +
          " does not belong to group " + std::to_string(group));
    }
    child->index = grouping.PositionOf(child->index);
    GEOLIC_RETURN_IF_ERROR(ReindexNode(grouping, group, child.get()));
  }
  return Status::Ok();
}

}  // namespace

Result<std::vector<ValidationTree>> DivideValidationTree(
    ValidationTree tree, const LicenseGrouping& grouping) {
  const int g = grouping.group_count();
  std::vector<ValidationTree> parts(static_cast<size_t>(g));

  ValidationTreeNode* root = tree.mutable_root();
  // Every branch is checked before any moves, so a rejected tree is left
  // whole for its destructor.
  for (const auto& child : root->children) {
    const int index = child->index;
    if (index < 0 || index >= grouping.num_licenses()) {
      return Status::Internal("tree contains license index " +
                              std::to_string(index + 1) +
                              " outside the grouped license set");
    }
    if (!BranchWithin(*child, grouping.GroupMask(grouping.GroupOf(index)))) {
      return Status::Internal(
          "log branch under L" + std::to_string(index + 1) +
          " spans licenses from multiple non-overlapping groups");
    }
  }
  for (auto& child : root->children) {
    // Algorithm 4: "link T' as child node of root_j". Root children arrive
    // in ascending index order, and positions within a group ascend with
    // original indexes, so each part's children stay ordered.
    const int group = grouping.GroupOf(child->index);
    parts[static_cast<size_t>(group)].mutable_root()->children.push_back(
        std::move(child));
  }
  root->children.clear();
  return parts;
}

Status ReindexTree(const LicenseGrouping& grouping, int group,
                   ValidationTree* tree) {
  if (group < 0 || group >= grouping.group_count()) {
    return Status::OutOfRange("group index out of range: " +
                              std::to_string(group));
  }
  return ReindexNode(grouping, group, tree->mutable_root());
}

Result<DividedTrees> DivideAndReindex(ValidationTree tree,
                                      const LicenseGrouping& grouping,
                                      const std::vector<int64_t>& aggregates) {
  DividedTrees out;
  GEOLIC_ASSIGN_OR_RETURN(out.trees,
                          DivideValidationTree(std::move(tree), grouping));
  out.aggregates.reserve(out.trees.size());
  for (int k = 0; k < grouping.group_count(); ++k) {
    GEOLIC_RETURN_IF_ERROR(
        ReindexTree(grouping, k, &out.trees[static_cast<size_t>(k)]));
    GEOLIC_ASSIGN_OR_RETURN(std::vector<int64_t> group_aggregates,
                            grouping.GroupAggregates(k, aggregates));
    out.aggregates.push_back(std::move(group_aggregates));
  }
  return out;
}

}  // namespace geolic

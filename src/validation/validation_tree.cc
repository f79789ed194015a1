#include "validation/validation_tree.h"

#include <algorithm>

namespace geolic {
namespace {

// NodeCount, TotalCount and CheckNode walk with an explicit stack: a deep
// chain-shaped tree would overflow the call stack if the walk recursed
// once per level.
size_t NodeCountImpl(const ValidationTreeNode& root) {
  size_t count = 0;
  std::vector<const ValidationTreeNode*> stack{&root};
  while (!stack.empty()) {
    const ValidationTreeNode* node = stack.back();
    stack.pop_back();
    count += node->children.size();
    for (const auto& child : node->children) {
      stack.push_back(child.get());
    }
  }
  return count;
}

int64_t TotalCountImpl(const ValidationTreeNode& root) {
  int64_t total = 0;
  std::vector<const ValidationTreeNode*> stack{&root};
  while (!stack.empty()) {
    const ValidationTreeNode* node = stack.back();
    stack.pop_back();
    total += node->count;
    for (const auto& child : node->children) {
      stack.push_back(child.get());
    }
  }
  return total;
}

// Heap bytes of one node: its own payload plus its child-pointer vector.
// Every node is heap-allocated (the root via the tree's unique_ptr), so
// the per-node payload applies to the root too — excluding it undercounts
// the figure-10 storage series by one node per tree, which matters once
// division multiplies the number of roots.
size_t MemoryBytesImpl(const ValidationTreeNode& node) {
  size_t bytes = sizeof(ValidationTreeNode) +
                 node.children.capacity() *
                     sizeof(std::unique_ptr<ValidationTreeNode>);
  for (const auto& child : node.children) {
    bytes += MemoryBytesImpl(*child);
  }
  return bytes;
}

int64_t SumSubsetsImpl(const ValidationTreeNode& node, const LicenseSet& set,
                       uint64_t* nodes_visited) {
  int64_t sum = 0;
  for (const auto& child : node.children) {
    if (!set.Contains(child->index)) {
      continue;
    }
    if (nodes_visited != nullptr) {
      ++*nodes_visited;
    }
    sum += child->count + SumSubsetsImpl(*child, set, nodes_visited);
  }
  return sum;
}

LicenseSet PresentLicensesImpl(const ValidationTreeNode& node) {
  LicenseSet mask;
  for (const auto& child : node.children) {
    mask |= LicenseSet::Singleton(child->index) | PresentLicensesImpl(*child);
  }
  return mask;
}

Status CheckNode(const ValidationTreeNode& root) {
  std::vector<const ValidationTreeNode*> stack{&root};
  while (!stack.empty()) {
    const ValidationTreeNode* node = stack.back();
    stack.pop_back();
    if (node->count < 0) {
      return Status::Internal("negative count in validation tree");
    }
    int previous = node->index;
    for (const auto& child : node->children) {
      if (child == nullptr) {
        return Status::Internal("null child in validation tree");
      }
      if (child->index <= previous) {
        return Status::Internal(
            "children not strictly ascending / path not increasing");
      }
      previous = child->index;
      stack.push_back(child.get());
    }
  }
  return Status::Ok();
}

void ToStringImpl(const ValidationTreeNode& node, int depth,
                  std::string* out) {
  for (const auto& child : node.children) {
    out->append(static_cast<size_t>(depth) * 2, ' ');
    out->append("L" + std::to_string(child->index + 1) + ":" +
                std::to_string(child->count) + "\n");
    ToStringImpl(*child, depth + 1, out);
  }
}

// Drains a subtree iteratively — unique_ptr's natural chain destruction
// recurses once per level and would overflow on deep chain-shaped trees.
void DrainIteratively(std::unique_ptr<ValidationTreeNode> root) {
  if (root == nullptr) {
    return;
  }
  std::vector<std::unique_ptr<ValidationTreeNode>> pending;
  pending.push_back(std::move(root));
  while (!pending.empty()) {
    std::unique_ptr<ValidationTreeNode> node = std::move(pending.back());
    pending.pop_back();
    for (auto& child : node->children) {
      pending.push_back(std::move(child));
    }
    // `node` itself is destroyed here with an empty child list.
  }
}

}  // namespace

ValidationTree::~ValidationTree() { DrainIteratively(std::move(root_)); }

ValidationTree& ValidationTree::operator=(ValidationTree&& other) noexcept {
  if (this != &other) {
    DrainIteratively(std::move(root_));
    root_ = std::move(other.root_);
  }
  return *this;
}

Status ValidationTree::Insert(const LicenseSet& set, int64_t count) {
  if (set.Empty()) {
    return Status::InvalidArgument("cannot insert the empty set");
  }
  if (count <= 0) {
    return Status::InvalidArgument("insert count must be positive, got " +
                                   std::to_string(count));
  }
  ValidationTreeNode* node = root_.get();
  for (const int index : set.Indexes()) {
    // Step 1 of Algorithm 1: scan the ordered children for the first child
    // with child.index >= index.
    auto it = std::lower_bound(
        node->children.begin(), node->children.end(), index,
        [](const std::unique_ptr<ValidationTreeNode>& child, int idx) {
          return child->index < idx;
        });
    if (it == node->children.end() || (*it)->index != index) {
      // Step 3: create the missing node in order.
      auto child = std::make_unique<ValidationTreeNode>();
      child->index = index;
      it = node->children.insert(it, std::move(child));
    }
    node = it->get();
  }
  // Step 4: accumulate the count at the final node.
  node->count += count;
  return Status::Ok();
}

Result<ValidationTree> ValidationTree::BuildFromLog(const LogStore& store) {
  ValidationTree tree;
  for (const LogRecord& record : store.records()) {
    GEOLIC_RETURN_IF_ERROR(tree.Insert(record.set, record.count));
  }
  return tree;
}

int64_t ValidationTree::SumSubsets(const LicenseSet& set,
                                   uint64_t* nodes_visited) const {
  return SumSubsetsImpl(*root_, set, nodes_visited);
}

int64_t ValidationTree::CountOf(const LicenseSet& set) const {
  const ValidationTreeNode* node = root_.get();
  for (const int index : set.Indexes()) {
    const ValidationTreeNode* next = nullptr;
    for (const auto& child : node->children) {
      if (child->index == index) {
        next = child.get();
        break;
      }
      if (child->index > index) {
        break;
      }
    }
    if (next == nullptr) {
      return 0;
    }
    node = next;
  }
  return node->count;
}

size_t ValidationTree::NodeCount() const { return NodeCountImpl(*root_); }

int64_t ValidationTree::TotalCount() const { return TotalCountImpl(*root_); }

size_t ValidationTree::MemoryBytes() const { return MemoryBytesImpl(*root_); }

LicenseSet ValidationTree::PresentLicenses() const {
  return PresentLicensesImpl(*root_);
}

namespace {

void ForEachSetImpl(const ValidationTreeNode& node, const LicenseSet& path,
                    const std::function<void(const LicenseSet&, int64_t)>& fn) {
  for (const auto& child : node.children) {
    const LicenseSet child_path = path | LicenseSet::Singleton(child->index);
    if (child->count != 0) {
      fn(child_path, child->count);
    }
    ForEachSetImpl(*child, child_path, fn);
  }
}

}  // namespace

void ValidationTree::ForEachSet(
    const std::function<void(const LicenseSet&, int64_t)>& fn) const {
  ForEachSetImpl(*root_, LicenseSet(), fn);
}

Status ValidationTree::CheckInvariants() const {
  if (root_->index != -1 || root_->count != 0) {
    return Status::Internal("root must be index -1 with zero count");
  }
  return CheckNode(*root_);
}

std::string ValidationTree::ToString() const {
  std::string out;
  ToStringImpl(*root_, 0, &out);
  return out;
}

}  // namespace geolic

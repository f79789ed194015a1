#include "validation/tree_serialization.h"

#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <utility>
#include <vector>

#include "persist/checkpoint.h"

namespace geolic {
namespace {

constexpr uint64_t kMaxNodes = uint64_t{1} << 32;  // Sanity bound on load.

void WriteTriple(const ValidationTreeNode& node, std::ostream* out) {
  const int32_t index = node.index;
  const uint32_t child_count = static_cast<uint32_t>(node.children.size());
  out->write(reinterpret_cast<const char*>(&index), sizeof(index));
  out->write(reinterpret_cast<const char*>(&node.count), sizeof(node.count));
  out->write(reinterpret_cast<const char*>(&child_count),
             sizeof(child_count));
}

uint64_t CountNodes(const ValidationTreeNode& root) {
  uint64_t count = 0;
  std::vector<const ValidationTreeNode*> stack{&root};
  while (!stack.empty()) {
    const ValidationTreeNode* node = stack.back();
    stack.pop_back();
    ++count;
    for (const auto& child : node->children) {
      stack.push_back(child.get());
    }
  }
  return count;
}

// Body = node count + preorder triples. Iterative preorder: a recursive
// WriteNode overflows the stack on chain-shaped trees deeper than the call
// stack, the same flaw the reader had.
void WriteTreeBody(const ValidationTree& tree, std::ostream* out) {
  const uint64_t nodes = CountNodes(tree.root());
  out->write(reinterpret_cast<const char*>(&nodes), sizeof(nodes));
  struct Frame {
    const ValidationTreeNode* node;
    size_t next_child;
  };
  WriteTriple(tree.root(), out);
  std::vector<Frame> stack;
  stack.push_back({&tree.root(), 0});
  while (!stack.empty()) {
    Frame& top = stack.back();
    if (top.next_child == top.node->children.size()) {
      stack.pop_back();
      continue;
    }
    const ValidationTreeNode* child =
        top.node->children[top.next_child].get();
    ++top.next_child;
    WriteTriple(*child, out);
    stack.push_back({child, 0});  // Invalidates `top`; re-read next turn.
  }
}

// Reads the body into `tree` with an explicit stack (fixing the unbounded
// recursion of the original ReadNode), enforcing the declared node budget.
Status ReadTreeBody(std::istream* in, ValidationTree* tree) {
  uint64_t nodes = 0;
  in->read(reinterpret_cast<char*>(&nodes), sizeof(nodes));
  if (!*in) {
    return Status::ParseError("truncated tree header");
  }
  if (nodes == 0 || nodes > kMaxNodes) {
    return Status::ParseError("implausible node count");
  }
  uint64_t remaining = nodes;
  struct Frame {
    ValidationTreeNode* node;
    uint32_t pending_children;
  };
  std::vector<Frame> stack;
  const auto read_into =
      [&](ValidationTreeNode* node) -> Result<uint32_t> {
    int32_t index = 0;
    uint32_t child_count = 0;
    in->read(reinterpret_cast<char*>(&index), sizeof(index));
    in->read(reinterpret_cast<char*>(&node->count), sizeof(node->count));
    in->read(reinterpret_cast<char*>(&child_count), sizeof(child_count));
    if (!*in) {
      return Status::ParseError("truncated tree node");
    }
    // Root carries -1; everything below that is corrupt. No upper bound:
    // the format is legal at any strictly-increasing index depth (deep
    // chains), and mask-space consumers enforce kMaxLicensesLarge
    // themselves.
    if (index < -1) {
      return Status::ParseError("negative license index");
    }
    node->index = index;
    // Each child consumes at least one declared node, so a child count
    // above the remaining budget is corrupt. Growth happens via push_back
    // — never reserve from an untrusted count (a mutated header must not
    // drive a giant allocation).
    if (child_count > remaining) {
      return Status::ParseError("implausible child count");
    }
    return child_count;
  };
  --remaining;  // The root consumes one declared node (nodes >= 1 here).
  GEOLIC_ASSIGN_OR_RETURN(uint32_t root_children,
                          read_into(tree->mutable_root()));
  stack.push_back({tree->mutable_root(), root_children});
  while (!stack.empty()) {
    Frame& top = stack.back();
    if (top.pending_children == 0) {
      stack.pop_back();
      continue;
    }
    --top.pending_children;
    if (remaining == 0) {
      return Status::ParseError("tree payload exceeds declared node count");
    }
    --remaining;
    auto child = std::make_unique<ValidationTreeNode>();
    GEOLIC_ASSIGN_OR_RETURN(uint32_t grandchildren, read_into(child.get()));
    ValidationTreeNode* child_ptr = child.get();
    top.node->children.push_back(std::move(child));
    stack.push_back({child_ptr, grandchildren});  // Invalidates `top`.
  }
  if (remaining != 0) {
    return Status::ParseError("tree payload shorter than declared");
  }
  return Status::Ok();
}

// Parses a checkpoint payload: exactly one tree body, then the root and
// structure checks.
Result<ValidationTree> ParseTreePayload(const std::string& payload) {
  std::istringstream body(payload);
  ValidationTree tree;
  GEOLIC_RETURN_IF_ERROR(ReadTreeBody(&body, &tree));
  if (body.peek() != std::istringstream::traits_type::eof()) {
    return Status::ParseError("trailing bytes after tree payload");
  }
  if (tree.root().index != -1) {
    return Status::ParseError("checkpoint root is not a root node");
  }
  // The root's count must be zero and the structure ordered; reuse the
  // tree's own invariant checker so a corrupted checkpoint cannot produce
  // an inconsistent validator state.
  const Status invariants = tree.CheckInvariants();
  if (!invariants.ok()) {
    return Status::ParseError("checkpoint violates tree invariants: " +
                              invariants.message());
  }
  return tree;
}

}  // namespace

Status SerializeTree(const ValidationTree& tree, std::ostream* out) {
  std::ostringstream body;
  WriteTreeBody(tree, &body);
  GEOLIC_RETURN_IF_ERROR(WriteCheckpoint(CheckpointKind::kValidationTree,
                                         body.str(), out));
  return Status::Ok();
}

Result<ValidationTree> DeserializeTree(std::istream* in) {
  GEOLIC_ASSIGN_OR_RETURN(
      const std::string payload,
      ReadCheckpointPayload(CheckpointKind::kValidationTree, in));
  return ParseTreePayload(payload);
}

Status SaveTree(const ValidationTree& tree, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return Status::IoError("cannot open for writing: " + path);
  }
  return SerializeTree(tree, &out);
}

Result<ValidationTree> LoadTree(const std::string& path) {
  GEOLIC_ASSIGN_OR_RETURN(
      const std::string payload,
      ReadCheckpointFile(CheckpointKind::kValidationTree, path));
  return ParseTreePayload(payload);
}

}  // namespace geolic

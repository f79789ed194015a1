#ifndef GEOLIC_VALIDATION_TREE_SERIALIZATION_H_
#define GEOLIC_VALIDATION_TREE_SERIALIZATION_H_

#include <iosfwd>
#include <string>

#include "validation/validation_tree.h"
#include "util/status.h"

namespace geolic {

// Binary persistence for validation trees, so a validation authority can
// checkpoint the accumulated tree between offline audit runs instead of
// replaying the whole log.
//
// Format: the tree body — uint64 node count, then the tree in preorder as
// (int32 index, int64 count, uint32 child_count) triples, root written
// with index −1 — wrapped in the CRC-protected checkpoint-v2 container
// (persist/checkpoint.h, kind = validation-tree). A flipped bit anywhere
// in the file fails the load instead of silently changing a count.
//
// Both serializer and deserializer walk with explicit stacks: a deep
// chain-shaped tree (adversarial checkpoint, or any tree deeper than the
// call stack) must round-trip without recursing once per level.

// Writes `tree` to `path` in v2 framing, overwriting.
Status SaveTree(const ValidationTree& tree, const std::string& path);

// Reads a tree written by SaveTree. Verifies header and payload CRCs, then
// the structure (child ordering, strictly increasing path indexes), before
// returning. Any byte after the checkpoint's footer fails the load.
Result<ValidationTree> LoadTree(const std::string& path);

// Stream variants (used by the file variants; exposed for embedding the
// tree in larger checkpoint files).
Status SerializeTree(const ValidationTree& tree, std::ostream* out);
Result<ValidationTree> DeserializeTree(std::istream* in);

}  // namespace geolic

#endif  // GEOLIC_VALIDATION_TREE_SERIALIZATION_H_

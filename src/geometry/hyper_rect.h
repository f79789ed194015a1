#ifndef GEOLIC_GEOMETRY_HYPER_RECT_H_
#define GEOLIC_GEOMETRY_HYPER_RECT_H_

#include <string>
#include <vector>

#include "geometry/constraint_range.h"
#include "util/status.h"

namespace geolic {

// Product of M constraint ranges — the paper's geometric representation of
// a license (Section 3.1): with M instance-based constraints every license
// is an M-dimensional hyper-rectangle. Dimensions may mix intervals and
// category sets; operations require equal dimensionality.
class HyperRect {
 public:
  HyperRect() = default;
  explicit HyperRect(std::vector<ConstraintRange> dims)
      : dims_(std::move(dims)) {}

  int dimensions() const { return static_cast<int>(dims_.size()); }
  const std::vector<ConstraintRange>& dims() const { return dims_; }
  const ConstraintRange& dim(int i) const {
    return dims_[static_cast<size_t>(i)];
  }

  // Appends one more dimension.
  void AddDim(ConstraintRange range) { dims_.push_back(std::move(range)); }

  // True iff any dimension is empty (the rectangle covers no point).
  // A zero-dimensional rectangle is the non-empty unit.
  bool IsEmpty() const;

  // True iff `other` ⊆ this in every dimension — the paper's instance-based
  // validation test ("the hyper-rectangle formed by the issued license is
  // completely contained in the redistribution license's"). False when the
  // dimensionalities differ.
  bool Contains(const HyperRect& other) const;

  // True iff all dimensions intersect — the paper's *overlapping licenses*
  // predicate (Section 3.2): two licenses overlap iff every constraint
  // dimension overlaps. False when the dimensionalities differ.
  bool Overlaps(const HyperRect& other) const;

  // Per-dimension intersection; empty in some dimension ⇒ IsEmpty().
  // Requires equal dimensionality.
  Result<HyperRect> Intersect(const HyperRect& other) const;

  // Common region of many rectangles; the result is non-empty iff the
  // rectangles have a common overlap region (the premise of Theorem 1).
  // An empty list yields INVALID_ARGUMENT.
  static Result<HyperRect> CommonRegion(const std::vector<HyperRect>& rects);

  // "[10, 20] x <cats:0x3>".
  std::string ToString() const;

  friend bool operator==(const HyperRect& a, const HyperRect& b) {
    return a.dims_ == b.dims_;
  }

 private:
  std::vector<ConstraintRange> dims_;
};

}  // namespace geolic

#endif  // GEOLIC_GEOMETRY_HYPER_RECT_H_

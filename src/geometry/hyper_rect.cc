#include "geometry/hyper_rect.h"

namespace geolic {

bool HyperRect::IsEmpty() const {
  for (const ConstraintRange& range : dims_) {
    if (range.empty()) {
      return true;
    }
  }
  return false;
}

bool HyperRect::Contains(const HyperRect& other) const {
  if (dims_.size() != other.dims_.size()) {
    return false;
  }
  for (size_t i = 0; i < dims_.size(); ++i) {
    if (!dims_[i].Contains(other.dims_[i])) {
      return false;
    }
  }
  return true;
}

bool HyperRect::Overlaps(const HyperRect& other) const {
  if (dims_.size() != other.dims_.size()) {
    return false;
  }
  for (size_t i = 0; i < dims_.size(); ++i) {
    if (!dims_[i].Overlaps(other.dims_[i])) {
      return false;
    }
  }
  return true;
}

Result<HyperRect> HyperRect::Intersect(const HyperRect& other) const {
  if (dims_.size() != other.dims_.size()) {
    return Status::InvalidArgument(
        "cannot intersect hyper-rectangles of different dimensionality");
  }
  std::vector<ConstraintRange> out;
  out.reserve(dims_.size());
  for (size_t i = 0; i < dims_.size(); ++i) {
    out.push_back(dims_[i].Intersect(other.dims_[i]));
  }
  return HyperRect(std::move(out));
}

Result<HyperRect> HyperRect::CommonRegion(
    const std::vector<HyperRect>& rects) {
  if (rects.empty()) {
    return Status::InvalidArgument(
        "common region of an empty rectangle list is undefined");
  }
  HyperRect region = rects[0];
  for (size_t i = 1; i < rects.size(); ++i) {
    GEOLIC_ASSIGN_OR_RETURN(region, region.Intersect(rects[i]));
  }
  return region;
}

std::string HyperRect::ToString() const {
  std::string out;
  for (size_t i = 0; i < dims_.size(); ++i) {
    if (i > 0) {
      out += " x ";
    }
    out += dims_[i].ToString();
  }
  return out;
}

}  // namespace geolic

#include "core/instance_validator.h"

#include <cstdint>
#include <utility>
#include <vector>

namespace geolic {

LinearInstanceValidator::LinearInstanceValidator(const LicenseCatalog* licenses)
    : licenses_(licenses) {}

LicenseSet LinearInstanceValidator::SatisfyingSet(
    const License& issued) const {
  LicenseSet set;
  for (int i = 0; i < licenses_->size(); ++i) {
    if (licenses_->at(i).InstanceContains(issued)) {
      set |= LicenseSet::Singleton(i);
    }
  }
  return set;
}

SoaInstanceValidator::SoaInstanceValidator(const LicenseCatalog* licenses)
    : licenses_(licenses), rects_(SoaRects::Build(licenses->Rects())) {}

LicenseSet SoaInstanceValidator::SatisfyingSet(const License& issued) const {
  if (licenses_->empty()) {
    return LicenseSet();
  }
  // The catalog enforces uniform content key and permission, so one compare
  // stands in for the per-license InstanceContains prechecks.
  const License& first = licenses_->at(0);
  if (first.content_key() != issued.content_key() ||
      first.permission() != issued.permission()) {
    return LicenseSet();
  }
  uint64_t out[kMaxLicenseWords];
  rects_.Containing(issued.rect(), out);
  return LicenseSet::FromWords({out, rects_.result_words()});
}

RtreeInstanceValidator::RtreeInstanceValidator(const LicenseCatalog* licenses,
                                               Rtree index)
    : licenses_(licenses), index_(std::move(index)) {}

Result<RtreeInstanceValidator> RtreeInstanceValidator::Build(
    const LicenseCatalog* licenses) {
  if (licenses->empty()) {
    return Status::InvalidArgument(
        "cannot build an instance index over zero licenses");
  }
  const int dims = licenses->schema().dimensions();
  if (dims == 0) {
    return Status::InvalidArgument(
        "instance index requires at least one constraint dimension");
  }
  Rtree index(dims);
  for (int i = 0; i < licenses->size(); ++i) {
    IntervalBox box;
    box.dims = licenses->at(i).rect().BoundingBox();
    GEOLIC_RETURN_IF_ERROR(index.Insert(box, i));
  }
  return RtreeInstanceValidator(licenses, std::move(index));
}

LicenseSet RtreeInstanceValidator::SatisfyingSet(const License& issued) const {
  IntervalBox query;
  query.dims = issued.rect().BoundingBox();
  LicenseSet set;
  // Candidates whose bounding box contains the issued box; bounding boxes
  // over-approximate category dimensions, so confirm exactly.
  for (int64_t id : index_.FindContaining(query)) {
    const int i = static_cast<int>(id);
    if (licenses_->at(i).InstanceContains(issued)) {
      set |= LicenseSet::Singleton(i);
    }
  }
  return set;
}

}  // namespace geolic

#include "core/instance_validator.h"

#include <cstdint>

namespace geolic {

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

}  // namespace geolic

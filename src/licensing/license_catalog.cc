#include "licensing/license_catalog.h"

namespace geolic {

Result<int> LicenseCatalog::Add(License license) {
  if (license.type() != LicenseType::kRedistribution) {
    return Status::InvalidArgument(
        "only redistribution licenses belong in a LicenseCatalog: " +
        license.id());
  }
  if (license.rect().dimensions() != schema_->dimensions()) {
    return Status::InvalidArgument(
        "license dimensionality disagrees with schema: " + license.id());
  }
  if (size() >= kMaxLicensesLarge) {
    return Status::CapacityExceeded(
        "LicenseCatalog supports at most " +
        std::to_string(kMaxLicensesLarge) + " redistribution licenses");
  }
  if (!licenses_.empty()) {
    const License& first = licenses_.front();
    if (license.content_key() != first.content_key()) {
      return Status::InvalidArgument(
          "content key mismatch: expected " + first.content_key() + ", got " +
          license.content_key());
    }
    if (license.permission() != first.permission()) {
      return Status::InvalidArgument("permission mismatch in license " +
                                     license.id());
    }
  }
  for (const License& existing : licenses_) {
    if (existing.id() == license.id()) {
      return Status::AlreadyExists("duplicate license id: " + license.id());
    }
  }
  licenses_.push_back(std::move(license));
  return size() - 1;
}

LicenseCatalog LicenseCatalog::Without(const LicenseSet& removed) const {
  LicenseCatalog out(schema_);
  out.licenses_.reserve(licenses_.size());
  for (int i = 0; i < size(); ++i) {
    if (!removed.Contains(i)) {
      out.licenses_.push_back(licenses_[static_cast<size_t>(i)]);
    }
  }
  return out;
}

std::vector<int64_t> LicenseCatalog::AggregateCounts() const {
  std::vector<int64_t> counts;
  counts.reserve(licenses_.size());
  for (const License& license : licenses_) {
    counts.push_back(license.aggregate_count());
  }
  return counts;
}

int64_t LicenseCatalog::AggregateSum(const LicenseSet& mask) const {
  int64_t sum = 0;
  for (int index : mask.Indexes()) {
    if (index < size()) {
      sum += licenses_[static_cast<size_t>(index)].aggregate_count();
    }
  }
  return sum;
}

Result<int> LicenseCatalog::IndexOfId(const std::string& id) const {
  for (size_t i = 0; i < licenses_.size(); ++i) {
    if (licenses_[i].id() == id) {
      return static_cast<int>(i);
    }
  }
  return Status::NotFound("no license with id " + id);
}

}  // namespace geolic

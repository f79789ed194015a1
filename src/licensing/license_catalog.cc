#include "licensing/license_catalog.h"

#include <string_view>
#include <unordered_set>
#include <utility>

namespace geolic {

Status LicenseCatalog::CheckNext(const License& license) const {
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
  return Status::Ok();
}

Result<int> LicenseCatalog::Add(License license) {
  GEOLIC_RETURN_IF_ERROR(CheckNext(license));
  for (const License& existing : licenses_) {
    if (existing.id() == license.id()) {
      return Status::AlreadyExists("duplicate license id: " + license.id());
    }
  }
  licenses_.push_back(std::move(license));
  return size() - 1;
}

Result<LicenseCatalog> LicenseCatalog::FromLicenses(
    const ConstraintSchema* schema, std::vector<License> licenses) {
  LicenseCatalog catalog(schema);
  catalog.licenses_.reserve(licenses.size());
  std::unordered_set<std::string_view> ids;
  ids.reserve(licenses.size());
  for (License& license : licenses) {
    GEOLIC_RETURN_IF_ERROR(catalog.CheckNext(license));
    catalog.licenses_.push_back(std::move(license));
    // The view is into the catalog's copy, which the reserve keeps put.
    if (!ids.insert(catalog.licenses_.back().id()).second) {
      return Status::AlreadyExists("duplicate license id: " +
                                   catalog.licenses_.back().id());
    }
  }
  return catalog;
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

std::vector<const HyperRect*> LicenseCatalog::Rects() const {
  std::vector<const HyperRect*> rects;
  rects.reserve(licenses_.size());
  for (const License& license : licenses_) {
    rects.push_back(&license.rect());
  }
  return rects;
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

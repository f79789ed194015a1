#include "bench/frequency_order.h"

#include <algorithm>
#include <numeric>

#include "util/check.h"

namespace geolic {

LicensePermutation::LicensePermutation(int n)
    : to_new_(static_cast<size_t>(n)), to_old_(static_cast<size_t>(n)) {
  GEOLIC_CHECK(n >= 0 && n <= kMaxLicensesLarge);
  std::iota(to_new_.begin(), to_new_.end(), 0);
  std::iota(to_old_.begin(), to_old_.end(), 0);
}

Result<LicensePermutation> LicensePermutation::ByDescendingFrequency(
    const LogStore& log, int n) {
  if (n < 0 || n > kMaxLicensesLarge) {
    return Status::InvalidArgument(
        "license count out of range for a permutation");
  }
  std::vector<int64_t> frequency(static_cast<size_t>(n), 0);
  for (const LogRecord& record : log.records()) {
    if (!record.set.IsSubsetOf(LicenseSet::Full(n))) {
      return Status::InvalidArgument(
          "log record references license indexes beyond the aggregate "
          "array");
    }
    for (int index : (record.set).ToIndexes()) {
      ++frequency[static_cast<size_t>(index)];
    }
  }
  LicensePermutation permutation(n);
  std::sort(permutation.to_old_.begin(), permutation.to_old_.end(),
            [&frequency](int a, int b) {
              if (frequency[static_cast<size_t>(a)] !=
                  frequency[static_cast<size_t>(b)]) {
                return frequency[static_cast<size_t>(a)] >
                       frequency[static_cast<size_t>(b)];
              }
              return a < b;
            });
  for (int relabeled = 0; relabeled < n; ++relabeled) {
    permutation.to_new_[static_cast<size_t>(
        permutation.to_old_[static_cast<size_t>(relabeled)])] = relabeled;
  }
  return permutation;
}

LicenseSet LicensePermutation::MapMask(const LicenseSet& original) const {
  LicenseSet mapped;
  for (int index : original.Indexes()) {
    mapped |= LicenseSet::Singleton(ToNew(index));
  }
  return mapped;
}

LicenseSet LicensePermutation::UnmapMask(const LicenseSet& relabeled) const {
  LicenseSet mapped;
  for (int index : relabeled.Indexes()) {
    mapped |= LicenseSet::Singleton(ToOld(index));
  }
  return mapped;
}

std::vector<int64_t> LicensePermutation::MapValues(
    const std::vector<int64_t>& values) const {
  GEOLIC_CHECK(values.size() == to_old_.size());
  std::vector<int64_t> mapped(values.size());
  for (size_t relabeled = 0; relabeled < mapped.size(); ++relabeled) {
    mapped[relabeled] = values[static_cast<size_t>(
        to_old_[relabeled])];
  }
  return mapped;
}

Result<ValidationTree> BuildFrequencyOrderedTree(
    const LogStore& log, const LicensePermutation& permutation) {
  ValidationTree tree;
  for (const LogRecord& record : log.records()) {
    GEOLIC_RETURN_IF_ERROR(
        tree.Insert(permutation.MapMask(record.set), record.count));
  }
  return tree;
}

}  // namespace geolic

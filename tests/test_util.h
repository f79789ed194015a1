#ifndef GEOLIC_TESTS_TEST_UTIL_H_
#define GEOLIC_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <system_error>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "geometry/hyper_rect.h"
#include "licensing/constraint_schema.h"
#include "licensing/license.h"
#include "licensing/license_catalog.h"
#include "util/check.h"
#include "util/license_set.h"
#include "util/random.h"
#include "validation/log_store.h"
#include "validation/validation_tree.h"

namespace geolic::testing {

// The pointer batch IssuanceService::TryIssueBatch admits, over
// `requests` (which must outlive it).
inline std::vector<const License*> PointersTo(
    std::span<const License> requests) {
  std::vector<const License*> pointers;
  pointers.reserve(requests.size());
  for (const License& request : requests) {
    pointers.push_back(&request);
  }
  return pointers;
}

// Shorthand for a single-word LicenseSet literal: Mask(0b101) == {L1, L3}.
inline LicenseSet Mask(uint64_t word) { return LicenseSet::FromWord(word); }

// Reference LHS of one equation, straight from merged log counts: the sum
// of the counts whose set is a subset of `set`. O(#distinct sets) per call;
// the oracle the tree traversals are checked against.
inline int64_t LhsFromMergedCounts(
    const std::unordered_map<LicenseSet, int64_t>& merged_counts,
    const LicenseSet& set) {
  int64_t sum = 0;
  for (const auto& [mask, count] : merged_counts) {
    if (mask.IsSubsetOf(set)) {
      sum += count;
    }
  }
  return sum;
}

// Structural invariants of a validation tree, read through root(): the
// root is index -1 with count 0, no child is null, every node's children
// are sorted strictly ascending above its own index (so path indexes
// strictly increase), and no count is negative. An explicit stack, so a
// deep chain-shaped tree cannot overflow the call stack.
inline ::testing::AssertionResult TreeInvariantsHold(
    const ValidationTree& tree) {
  const ValidationTreeNode& root = tree.root();
  if (root.index != -1 || root.count != 0) {
    return ::testing::AssertionFailure()
           << "root must be index -1 with zero count";
  }
  std::vector<const ValidationTreeNode*> stack{&root};
  while (!stack.empty()) {
    const ValidationTreeNode* node = stack.back();
    stack.pop_back();
    if (node->count < 0) {
      return ::testing::AssertionFailure() << "negative count at L"
                                           << node->index + 1;
    }
    int previous = node->index;
    for (const auto& child : node->children) {
      if (child == nullptr) {
        return ::testing::AssertionFailure() << "null child";
      }
      if (child->index <= previous) {
        return ::testing::AssertionFailure()
               << "children not strictly ascending / path not increasing";
      }
      previous = child->index;
      stack.push_back(child.get());
    }
  }
  return ::testing::AssertionSuccess();
}

// Directory for a test's files, ending in '/': $TEST_TMPDIR when set,
// else ::testing::TempDir(). Read here because some GoogleTest releases
// ignore TEST_TMPDIR on Linux; CI points it at tmpfs to rerun the
// file-backed journal tests on a second filesystem.
inline std::string TestTmpDir() {
  const char* env = std::getenv("TEST_TMPDIR");
  if (env == nullptr || *env == '\0') {
    return ::testing::TempDir();
  }
  std::string dir = env;
  if (dir.back() != '/') {
    dir += '/';
  }
  return dir;
}

// A path in TestTmpDir() that a test owns: whatever is there (a file, or a
// directory and everything in it) is removed when the path is made and
// again when it goes out of scope, so a file-backed test leaves nothing
// behind in TEST_TMPDIR, failures included. Declare it before anything
// that keeps the file open.
class ScopedTempPath {
 public:
  explicit ScopedTempPath(const std::string& name)
      : path_(TestTmpDir() + name) {
    Remove();
  }
  ~ScopedTempPath() { Remove(); }
  ScopedTempPath(const ScopedTempPath&) = delete;
  ScopedTempPath& operator=(const ScopedTempPath&) = delete;

  const std::string& path() const { return path_; }

 private:
  void Remove() const {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }

  std::string path_;
};

// Seed for randomized tests: `default_seed` unless the GEOLIC_TEST_SEED
// environment variable overrides it (parsed with base auto-detection, so
// both 123 and 0x7b work). Always logs the seed in effect, so any failure
// report carries the line needed to reproduce it:
//   GEOLIC_TEST_SEED=<seed> ctest -R <test> --output-on-failure
inline uint64_t TestSeed(uint64_t default_seed) {
  uint64_t seed = default_seed;
  const char* env = std::getenv("GEOLIC_TEST_SEED");
  if (env != nullptr && *env != '\0') {
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(env, &end, 0);
    if (end != env && *end == '\0') {
      seed = static_cast<uint64_t>(parsed);
    } else {
      std::fprintf(stderr,
                   "[ seed ] ignoring unparseable GEOLIC_TEST_SEED=\"%s\"\n",
                   env);
    }
  }
  std::fprintf(stderr, "[ seed ] using seed %llu (override: GEOLIC_TEST_SEED)\n",
               static_cast<unsigned long long>(seed));
  return seed;
}

// Schema with `dims` integer interval dimensions named C1..Cdims.
inline ConstraintSchema IntervalSchema(int dims) {
  ConstraintSchema schema;
  for (int d = 0; d < dims; ++d) {
    GEOLIC_CHECK(
        schema.AddIntervalDimension("C" + std::to_string(d + 1)).ok());
  }
  return schema;
}

// Hyper-rectangle from interval endpoint pairs: {{0,10},{5,7}} → two dims.
inline HyperRect Rect(
    const std::vector<std::pair<int64_t, int64_t>>& intervals) {
  std::vector<ConstraintRange> dims;
  dims.reserve(intervals.size());
  for (const auto& [lo, hi] : intervals) {
    dims.push_back(ConstraintRange(Interval(lo, hi)));
  }
  return HyperRect(std::move(dims));
}

// Redistribution license over `schema` (interval dims) with the given
// ranges and aggregate count.
inline License MakeRedistribution(
    const ConstraintSchema& schema, const std::string& id,
    const std::vector<std::pair<int64_t, int64_t>>& intervals,
    int64_t aggregate) {
  LicenseBuilder builder(&schema);
  builder.SetId(id)
      .SetContentKey("K")
      .SetType(LicenseType::kRedistribution)
      .SetPermission(Permission::kPlay)
      .SetAggregateCount(aggregate);
  for (size_t d = 0; d < intervals.size(); ++d) {
    builder.SetInterval("C" + std::to_string(d + 1), intervals[d].first,
                        intervals[d].second);
  }
  const Result<License> license = builder.Build();
  GEOLIC_CHECK(license.ok());
  return *license;
}

// Usage license, same shape.
inline License MakeUsage(
    const ConstraintSchema& schema, const std::string& id,
    const std::vector<std::pair<int64_t, int64_t>>& intervals,
    int64_t count) {
  LicenseBuilder builder(&schema);
  builder.SetId(id)
      .SetContentKey("K")
      .SetType(LicenseType::kUsage)
      .SetPermission(Permission::kPlay)
      .SetAggregateCount(count);
  for (size_t d = 0; d < intervals.size(); ++d) {
    builder.SetInterval("C" + std::to_string(d + 1), intervals[d].first,
                        intervals[d].second);
  }
  const Result<License> license = builder.Build();
  GEOLIC_CHECK(license.ok());
  return *license;
}

// Reference instance-based validation: the mask of catalog licenses whose
// InstanceContains(issued) holds, by a plain loop over the catalog — the
// oracle SoaInstanceValidator is checked against.
inline LicenseSet BruteForceSatisfyingSet(const LicenseCatalog& licenses,
                                          const License& issued) {
  LicenseSet set;
  for (int i = 0; i < licenses.size(); ++i) {
    if (licenses.at(i).InstanceContains(issued)) {
      set.Add(i);
    }
  }
  return set;
}

// Pointers to `rects`: the form DynamicGrouping and SoaRects read a
// catalog's rects in.
inline std::vector<const HyperRect*> RectPointers(
    const std::vector<HyperRect>& rects) {
  std::vector<const HyperRect*> pointers;
  pointers.reserve(rects.size());
  for (const HyperRect& rect : rects) {
    pointers.push_back(&rect);
  }
  return pointers;
}

// Random hyper-rectangle with `dims` interval dimensions inside
// [0, domain).
inline HyperRect RandomRect(Rng* rng, int dims, int64_t domain) {
  std::vector<ConstraintRange> ranges;
  ranges.reserve(static_cast<size_t>(dims));
  for (int d = 0; d < dims; ++d) {
    const int64_t lo = rng->UniformInt(0, domain - 1);
    const int64_t hi = rng->UniformInt(lo, domain - 1);
    ranges.push_back(ConstraintRange(Interval(lo, hi)));
  }
  return HyperRect(std::move(ranges));
}

// A catalog under lifecycle changes and its accepted issuances, kept apart
// from the service under test: licenses in index order (acquisitions
// append, revocations close the gap) and each accepted set as license ids,
// so a revocation's cascade and renumbering are recomputed here rather
// than read back. catalog() and Log() give the surviving state in current
// indexes, to rebuild an oracle from after each change. A change replaces
// the catalog, so release any oracle built on the old one first.
class IdSpaceHistory {
 public:
  IdSpaceHistory(const ConstraintSchema* schema, std::vector<License> licenses)
      : schema_(schema), active_(std::move(licenses)) {
    RebuildCatalog();
  }

  void Acquire(const License& license) {
    active_.push_back(license);
    RebuildCatalog();
  }

  // Removes license `id` and every accepted set containing it.
  void Revoke(const std::string& id) {
    std::erase_if(active_,
                  [&id](const License& license) { return license.id() == id; });
    std::erase_if(accepted_, [&id](const Accepted& accepted) {
      return std::find(accepted.ids.begin(), accepted.ids.end(), id) !=
             accepted.ids.end();
    });
    RebuildCatalog();
  }

  // Records an accepted issuance of `count` on `set` (current indexes).
  void Accept(const LicenseSet& set, int64_t count) {
    Accepted accepted{{}, count};
    for (int i : set.Indexes()) {
      accepted.ids.push_back(catalog_->at(i).id());
    }
    accepted_.push_back(std::move(accepted));
  }

  const std::vector<License>& active() const { return active_; }
  const LicenseCatalog& catalog() const { return *catalog_; }

  // The surviving accepted issuances over catalog()'s indexes.
  LogStore Log() const {
    LogStore log;
    for (const Accepted& accepted : accepted_) {
      LogRecord record;
      record.issued_license_id = "H";
      for (const std::string& id : accepted.ids) {
        const Result<int> index = catalog_->IndexOfId(id);
        GEOLIC_CHECK(index.ok());
        record.set.Add(*index);
      }
      record.count = accepted.count;
      GEOLIC_CHECK(log.Append(std::move(record)).ok());
    }
    return log;
  }

 private:
  struct Accepted {
    std::vector<std::string> ids;
    int64_t count = 0;
  };

  void RebuildCatalog() {
    catalog_ = std::make_unique<LicenseCatalog>(schema_);
    for (const License& license : active_) {
      GEOLIC_CHECK(catalog_->Add(license).ok());
    }
  }

  const ConstraintSchema* schema_;
  std::vector<License> active_;
  std::vector<Accepted> accepted_;
  std::unique_ptr<LicenseCatalog> catalog_;
};

}  // namespace geolic::testing

#endif  // GEOLIC_TESTS_TEST_UTIL_H_

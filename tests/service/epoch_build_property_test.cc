// Epoch builds read the catalog in place: IssuanceService::Create groups
// the catalog's rects where the catalog keeps them, numbers the groups
// straight from the union-find and compiles the SoA columns without
// copying a rect.
// Property: the result equals the reference construction of
// IssuanceServiceTestPeer::CreateFromCopies — rects copied out of the
// catalog, grouped by the overlap graph's DFS and by one AddLicense per
// copy, history applied one record at a time — in every derived structure:
// components, each license's group and Algorithm 5 position, the
// incremental grouping's components and merges, stripes, A, C[S] and C⟨T⟩
// tables, trees, satisfying sets and the snapshot bytes. Then, under a
// random acquire/revoke sequence, every epoch equals a fresh Create from
// its own catalog and log.
//
// Catalogs mix intervals, unions of intervals and category sets (kinds
// mixed within a dimension, which a catalog allows), n = 1..200 and 1022,
// and put a slab of consecutive indexes into one overlap group across
// indexes 64 and 128. A catalog holds one dimensionality, so rects of
// irregular dimensionality are covered where geometry is compiled alone
// (SoaRectsTest, DynamicGroupingTest).

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/grouping.h"
#include "geometry/soa_rects.h"
#include "licensing/license_catalog.h"
#include "service/issuance_service.h"
#include "service/issuance_service_peer.h"
#include "test_util.h"
#include "util/random.h"

namespace geolic {
namespace {

using Peer = IssuanceServiceTestPeer;
using testing::IntervalSchema;
using testing::TestSeed;

// Dimension 0 places a license in its cluster's stretch
// [1000k, 1000k + 140]: an interval, or a union of up to three pieces.
// Later dimensions take a wide interval, a union, or a category set.
ConstraintRange Cell(Rng* rng, int dim, int cluster) {
  if (dim == 0) {
    const int64_t base = 1000 * static_cast<int64_t>(cluster);
    if (rng->Bernoulli(0.75)) {
      const int64_t lo = base + rng->UniformInt(0, 100);
      return ConstraintRange(Interval(lo, lo + rng->UniformInt(0, 40)));
    }
    std::vector<Interval> pieces;
    const size_t count = 1 + rng->UniformIndex(3);
    for (size_t p = 0; p < count; ++p) {
      const int64_t lo = base + rng->UniformInt(0, 120);
      pieces.emplace_back(lo, lo + rng->UniformInt(0, 20));
    }
    return ConstraintRange(MultiInterval::FromIntervals(std::move(pieces)));
  }
  switch (rng->UniformIndex(4)) {
    case 0:
    case 1: {
      const int64_t lo = rng->UniformInt(0, 50);
      return ConstraintRange(Interval(lo, lo + rng->UniformInt(20, 100)));
    }
    case 2: {
      std::vector<Interval> pieces;
      const size_t count = 1 + rng->UniformIndex(3);
      for (size_t p = 0; p < count; ++p) {
        const int64_t lo = rng->UniformInt(0, 120);
        pieces.emplace_back(lo, lo + rng->UniformInt(0, 40));
      }
      return ConstraintRange(MultiInterval::FromIntervals(std::move(pieces)));
    }
    default:
      return ConstraintRange(CategorySet((rng->Next() & 0xFF) | 1));
  }
}

// A license of `cluster`; a slab license covers its whole stretch in every
// dimension, so a slab is one overlap group.
License MakeLicense(Rng* rng, const std::string& id, int dims, int cluster,
                    bool slab) {
  HyperRect rect;
  for (int d = 0; d < dims; ++d) {
    if (slab) {
      const int64_t base = d == 0 ? 1000 * static_cast<int64_t>(cluster) : 0;
      rect.AddDim(ConstraintRange(Interval(base, base + 140)));
    } else {
      rect.AddDim(Cell(rng, d, cluster));
    }
  }
  return License(id, "K", LicenseType::kRedistribution, Permission::kPlay,
                 std::move(rect), rng->UniformInt(1, 60));
}

// `n` licenses over about n / 4 clusters, consecutive indexes often
// sharing one; indexes 60..67 and 124..131 form slabs across the word
// boundaries at 64 and 128.
LicenseCatalog MixedCatalog(const ConstraintSchema& schema, int n,
                            Rng* rng) {
  const int clusters = std::max(1, n / 4);
  LicenseCatalog licenses(&schema);
  int cluster = 0;
  for (int i = 0; i < n; ++i) {
    const bool slab = (i >= 60 && i < 68) || (i >= 124 && i < 132);
    if (slab) {
      cluster = clusters + (i + 4) / 64;  // A stretch per boundary.
    } else if (i == 0 || !rng->Bernoulli(0.6) || cluster >= clusters) {
      cluster = static_cast<int>(rng->UniformInt(0, clusters - 1));
    }
    GEOLIC_CHECK(licenses
                     .Add(MakeLicense(rng, "L" + std::to_string(i),
                                      schema.dimensions(), cluster, slab))
                     .ok());
  }
  return licenses;
}

// A usage license with a small rect near a random cluster.
License Query(Rng* rng, int dims, int clusters, int q) {
  HyperRect rect;
  for (int d = 0; d < dims; ++d) {
    const int64_t base =
        d == 0 ? 1000 * rng->UniformInt(0, clusters + 2) : 0;
    if (d > 0 && rng->Bernoulli(0.3)) {
      rect.AddDim(ConstraintRange(CategorySet(uint64_t{1}
                                              << rng->UniformIndex(8))));
      continue;
    }
    const int64_t lo = base + rng->UniformInt(0, 140);
    rect.AddDim(ConstraintRange(Interval(lo, lo + rng->UniformInt(0, 5))));
  }
  return License("U" + std::to_string(q), "K", LicenseType::kUsage,
                 Permission::kPlay, std::move(rect), 1);
}

// Up to `records` records, each the satisfying set of a random query (what
// admissions leave: every member contains the query, so a set stays in
// one group whatever is revoked), counts 1..3.
LogStore History(const LicenseCatalog& licenses, int records, Rng* rng) {
  const int dims = licenses.schema().dimensions();
  const int clusters = licenses.size() / 4;
  LogStore history;
  for (int attempt = 0; attempt < 20 * records &&
                        history.size() < static_cast<size_t>(records);
       ++attempt) {
    const License query = Query(rng, dims, clusters, attempt);
    LogRecord record;
    for (int i = 0; i < licenses.size(); ++i) {
      if (licenses.at(i).InstanceContains(query)) {
        record.set.Add(i);
      }
    }
    if (record.set.Empty()) {
      continue;
    }
    record.count = rng->UniformInt(1, 3);
    GEOLIC_CHECK(history.Append(std::move(record)).ok());
  }
  return history;
}

std::string StateBytes(const IssuanceService& service) {
  std::string bytes;
  GEOLIC_CHECK(EncodeServiceState(service.Snapshot(), &bytes).ok());
  return bytes;
}

// `service`'s derived state against a fresh Create from its catalog and
// log: equal in everything but the incremental grouping's merge count
// (merges accumulate over reconfigurations).
void ExpectEqualsFreshCreate(const IssuanceService& service,
                             const OnlineValidatorOptions& options,
                             const std::string& where) {
  const LicenseCatalog& licenses = service.licenses();
  Result<std::unique_ptr<IssuanceService>> fresh =
      IssuanceService::CreateWithHistory(&licenses, options,
                                         service.CollectLog());
  ASSERT_TRUE(fresh.ok()) << where << ": " << fresh.status().message();
  ASSERT_TRUE(Peer::State(service) == Peer::State(**fresh)) << where;
  const ComponentSet paper =
      LicenseGrouping::FromLicenses(licenses).Components();
  const ComponentSet incremental = Peer::Incremental(service).Components();
  ASSERT_EQ(incremental.components, paper.components) << where;
  ASSERT_EQ(incremental.component_of, paper.component_of) << where;
  ASSERT_EQ(Peer::Incremental(service).group_count(), paper.count()) << where;
}

void CheckCatalog(const ConstraintSchema& schema, int n, int steps,
                  Rng* rng) {
  const int dims = schema.dimensions();
  const LicenseCatalog licenses = MixedCatalog(schema, n, rng);
  OnlineValidatorOptions options;
  options.use_grouping = n > 12 || rng->Bernoulli(0.8);
  const LogStore history = History(licenses, 3 * n, rng);
  const std::string where = "n=" + std::to_string(n) + " dims=" +
                            std::to_string(dims) + " grouping=" +
                            std::to_string(options.use_grouping);

  Result<std::unique_ptr<IssuanceService>> in_place =
      IssuanceService::CreateWithHistory(&licenses, options, history);
  Result<std::unique_ptr<IssuanceService>> copied =
      Peer::CreateFromCopies(&licenses, options, history);
  ASSERT_TRUE(in_place.ok()) << where << ": " << in_place.status().message();
  ASSERT_TRUE(copied.ok()) << where << ": " << copied.status().message();
  IssuanceService& service = **in_place;

  ASSERT_TRUE(Peer::State(service) == Peer::State(**copied)) << where;
  const ComponentSet paper =
      LicenseGrouping::FromLicenses(licenses).Components();
  ASSERT_EQ(service.grouping().Components().components, paper.components)
      << where;
  ASSERT_EQ(service.grouping().Components().component_of,
            paper.component_of)
      << where;
  const DynamicGrouping& swept = Peer::Incremental(service);
  const DynamicGrouping& added = Peer::Incremental(**copied);
  ASSERT_EQ(swept.Components().components, added.Components().components)
      << where;
  ASSERT_EQ(swept.Components().component_of, added.Components().component_of)
      << where;
  ASSERT_EQ(swept.group_count(), added.group_count()) << where;
  ASSERT_EQ(swept.merges(), added.merges()) << where;
  ASSERT_EQ(StateBytes(service), StateBytes(**copied)) << where;

  // Satisfying sets: the in-place SoA columns, a compile of copied rects
  // and the scalar containment test agree.
  std::vector<HyperRect> copies;
  for (const License& license : licenses.licenses()) {
    copies.push_back(license.rect());
  }
  const SoaRects from_copies = SoaRects::Build(testing::RectPointers(copies));
  for (int q = 0; q < 64; ++q) {
    const License query = Query(rng, dims, n / 4, q);
    LicenseSet scalar;
    for (int i = 0; i < n; ++i) {
      if (licenses.at(i).InstanceContains(query)) {
        scalar.Add(i);
      }
    }
    uint64_t words[kMaxLicenseWords];
    from_copies.Containing(query.rect(), words);
    ASSERT_EQ(Peer::SatisfyingSet(service, query), scalar) << where;
    ASSERT_EQ(LicenseSet::FromWords({words, from_copies.result_words()}),
              scalar)
        << where;
  }

  // Reconfigurations: acquire a license (into a random cluster, or
  // bridging two) or revoke a random one; every epoch equals a fresh
  // Create from its catalog and log.
  for (int step = 0; step < steps; ++step) {
    const int size = service.licenses().size();
    const std::string at = where + " step " + std::to_string(step);
    if (size == 1 || (size < kMaxLicensesLarge && rng->Bernoulli(0.5))) {
      License extra =
          MakeLicense(rng, "X" + std::to_string(step), dims,
                      static_cast<int>(rng->UniformInt(0, n / 4 + 2)),
                      rng->Bernoulli(0.2));
      const Result<int> acquired = service.AcquireLicense(extra);
      ASSERT_TRUE(acquired.ok()) << at << ": " << acquired.status().message();
    } else {
      const Status revoked = service.RevokeLicense(
          static_cast<int>(rng->UniformIndex(static_cast<size_t>(size))));
      ASSERT_TRUE(revoked.ok()) << at << ": " << revoked.message();
    }
    ExpectEqualsFreshCreate(service, options, at);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

TEST(EpochBuildPropertyTest, InPlaceCreateEqualsCopyBasedConstruction) {
  Rng rng(TestSeed(0xE90C));
  for (int trial = 0; trial < 60; ++trial) {
    const ConstraintSchema schema =
        IntervalSchema(1 + static_cast<int>(rng.UniformIndex(3)));
    const int n = static_cast<int>(rng.UniformInt(1, 200));
    CheckCatalog(schema, n, /*steps=*/4, &rng);
    if (HasFatalFailure()) {
      return;
    }
  }
}

TEST(EpochBuildPropertyTest, WideCatalogInPlaceEqualsCopyBasedConstruction) {
  Rng rng(TestSeed(0xE91022));
  for (int trial = 0; trial < 2; ++trial) {
    const ConstraintSchema schema = IntervalSchema(1 + trial);
    CheckCatalog(schema, 1022, /*steps=*/3, &rng);
    if (HasFatalFailure()) {
      return;
    }
  }
}

}  // namespace
}  // namespace geolic

// Property test for paper Theorem 2 at the decision level: grouped and
// ungrouped online validation, plus a flat-tree equation oracle, must agree
// on every TryIssue — not just accept/reject, but the exact limiting
// equation on rejection. A second property pins IssuanceService's decision
// contract to OnlineValidator's across acquisitions and revocations: same
// accept flag, limiting equation and equation count. 500 seeded workloads;
// any failure logs its seed and is reproducible with GEOLIC_TEST_SEED.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "core/online_validator.h"
#include "licensing/license.h"
#include "licensing/license_catalog.h"
#include "service/issuance_service.h"
#include "test_util.h"
#include "util/license_set.h"
#include "util/random.h"
#include "validation/flat_tree.h"
#include "validation/validation_tree.h"

namespace geolic {
namespace {

using geolic::testing::TestSeed;

constexpr int64_t kDomain = 24;

struct Workload {
  std::unique_ptr<ConstraintSchema> schema;
  std::unique_ptr<LicenseCatalog> licenses;
  std::vector<License> requests;
};

// A random redistribution license over `schema`'s interval dimensions.
License RandomRedistribution(Rng* rng, const ConstraintSchema* schema,
                             const std::string& id) {
  LicenseBuilder builder(schema);
  builder.SetId(id)
      .SetContentKey("K")
      .SetType(LicenseType::kRedistribution)
      .SetPermission(Permission::kPlay)
      .SetAggregateCount(rng->UniformInt(2, 10));
  for (int d = 0; d < schema->dimensions(); ++d) {
    const int64_t lo = rng->UniformInt(0, kDomain - 6);
    builder.SetInterval("C" + std::to_string(d + 1), lo,
                        lo + rng->UniformInt(3, 10));
  }
  const Result<License> license = builder.Build();
  GEOLIC_CHECK(license.ok());
  return *license;
}

Workload Generate(uint64_t seed) {
  Rng rng(seed);
  Workload w;
  const int dims = static_cast<int>(rng.UniformInt(1, 2));
  w.schema = std::make_unique<ConstraintSchema>();
  for (int d = 0; d < dims; ++d) {
    GEOLIC_CHECK(
        w.schema->AddIntervalDimension("C" + std::to_string(d + 1)).ok());
  }
  w.licenses = std::make_unique<LicenseCatalog>(w.schema.get());
  const int license_count = static_cast<int>(rng.UniformInt(3, 8));
  for (int i = 0; i < license_count; ++i) {
    GEOLIC_CHECK(w.licenses
                     ->Add(RandomRedistribution(&rng, w.schema.get(),
                                                "L" + std::to_string(i + 1)))
                     .ok());
  }
  const int request_count = static_cast<int>(rng.UniformInt(15, 30));
  for (int r = 0; r < request_count; ++r) {
    LicenseBuilder builder(w.schema.get());
    builder.SetId("U" + std::to_string(r + 1))
        .SetContentKey("K")
        .SetType(LicenseType::kUsage)
        .SetPermission(Permission::kPlay)
        .SetAggregateCount(rng.UniformInt(1, 3));
    if (rng.Bernoulli(0.2)) {
      for (int d = 0; d < dims; ++d) {
        const int64_t lo = rng.UniformInt(0, kDomain - 1);
        builder.SetInterval("C" + std::to_string(d + 1), lo,
                            lo + rng.UniformInt(0, 4));
      }
    } else {
      const int target = static_cast<int>(
          rng.UniformIndex(static_cast<size_t>(w.licenses->size())));
      const License& inside = w.licenses->at(target);
      for (int d = 0; d < dims; ++d) {
        const Interval& range = inside.rect().dim(d).interval();
        const int64_t lo = rng.UniformInt(range.lo(), range.hi());
        builder.SetInterval("C" + std::to_string(d + 1), lo,
                            rng.UniformInt(lo, range.hi()));
      }
    }
    const Result<License> license = builder.Build();
    GEOLIC_CHECK(license.ok());
    w.requests.push_back(*license);
  }
  return w;
}

// Third, independently-coded implementation of the admission decision: S by
// linear containment scan, equations over ALL supersets of S (no grouping)
// in the same ascending-extension order, with every C⟨T⟩ answered by a
// FlatValidationTree compiled from the accepted history. Exercises the
// arena compiler and its pruned scans as a decision procedure.
class FlatTreeOracle {
 public:
  explicit FlatTreeOracle(const LicenseCatalog* licenses) : licenses_(licenses) {}

  OnlineDecision TryIssue(const License& issued) {
    OnlineDecision decision;
    for (int i = 0; i < licenses_->size(); ++i) {
      if (licenses_->at(i).InstanceContains(issued)) {
        decision.satisfying_set |= LicenseSet::Singleton(i);
      }
    }
    if (decision.satisfying_set.Empty()) {
      return decision;
    }
    decision.instance_valid = true;
    decision.aggregate_valid = true;
    const FlatValidationTree flat = FlatValidationTree::Compile(tree_);
    const int64_t count = issued.aggregate_count();
    const LicenseSet extension =
        licenses_->AllMask() - decision.satisfying_set;
    for (AscendingSubsetIterator it(extension); !it.Done(); it.Next()) {
      const LicenseSet t = decision.satisfying_set | it.subset();
      ++decision.equations_checked;
      const int64_t lhs = flat.SumSubsets(t) + count;
      const int64_t rhs = licenses_->AggregateSum(t);
      if (lhs > rhs) {
        decision.aggregate_valid = false;
        decision.limiting.set = t;
        decision.limiting.lhs = lhs;
        decision.limiting.rhs = rhs;
        break;
      }
    }
    if (decision.aggregate_valid) {
      GEOLIC_CHECK(tree_.Insert(decision.satisfying_set, count).ok());
    }
    return decision;
  }

 private:
  const LicenseCatalog* licenses_;
  ValidationTree tree_;
};

std::string Describe(const OnlineDecision& d) {
  std::string text = d.instance_valid ? "instance-valid " : "instance-invalid ";
  text += d.aggregate_valid ? "accepted" : "rejected";
  text += " S=" + d.satisfying_set.ToHex();
  if (d.instance_valid && !d.aggregate_valid) {
    text += " limiting T=" + d.limiting.set.ToHex() + " (" +
            std::to_string(d.limiting.lhs) + " > " +
            std::to_string(d.limiting.rhs) + ")";
  }
  return text;
}

bool SameDecision(const OnlineDecision& a, const OnlineDecision& b) {
  if (a.instance_valid != b.instance_valid ||
      a.satisfying_set != b.satisfying_set) {
    return false;
  }
  if (!a.instance_valid) {
    return true;
  }
  if (a.aggregate_valid != b.aggregate_valid) {
    return false;
  }
  if (!a.aggregate_valid &&
      (a.limiting.set != b.limiting.set || a.limiting.lhs != b.limiting.lhs ||
       a.limiting.rhs != b.limiting.rhs)) {
    return false;
  }
  return true;
}

TEST(OnlineEquivalenceProperty, GroupedUngroupedAndFlatTreeAgree) {
  const uint64_t base = TestSeed(1000);
  for (uint64_t seed = base; seed < base + 500; ++seed) {
    const Workload w = Generate(seed);

    OnlineValidatorOptions grouped_options;
    grouped_options.use_grouping = true;
    Result<OnlineValidator> grouped =
        OnlineValidator::Create(w.licenses.get(), grouped_options);
    ASSERT_TRUE(grouped.ok());

    OnlineValidatorOptions ungrouped_options;
    ungrouped_options.use_grouping = false;
    Result<OnlineValidator> ungrouped =
        OnlineValidator::Create(w.licenses.get(), ungrouped_options);
    ASSERT_TRUE(ungrouped.ok());

    FlatTreeOracle oracle(w.licenses.get());

    for (size_t r = 0; r < w.requests.size(); ++r) {
      const Result<OnlineDecision> g = grouped->TryIssue(w.requests[r]);
      const Result<OnlineDecision> u = ungrouped->TryIssue(w.requests[r]);
      ASSERT_TRUE(g.ok());
      ASSERT_TRUE(u.ok());
      const OnlineDecision o = oracle.TryIssue(w.requests[r]);

      ASSERT_TRUE(SameDecision(*g, *u))
          << "seed " << seed << " request " << r
          << ": grouped {" << Describe(*g) << "} vs ungrouped {"
          << Describe(*u) << "}"
          << "\nrepro: GEOLIC_TEST_SEED=" << seed
          << " ctest -R online_equivalence_property_test";
      ASSERT_TRUE(SameDecision(*u, o))
          << "seed " << seed << " request " << r
          << ": ungrouped {" << Describe(*u) << "} vs flat-tree oracle {"
          << Describe(o) << "}"
          << "\nrepro: GEOLIC_TEST_SEED=" << seed
          << " ctest -R online_equivalence_property_test";

      // Theorem 2's point: grouping only ever shrinks the equation scan.
      if (g->instance_valid) {
        EXPECT_LE(g->equations_checked, u->equations_checked)
            << "seed " << seed << " request " << r;
      }
    }
  }
}

// OnlineValidator has no lifecycle, so the twin of a service is rebuilt
// from the id-space history (testing::IdSpaceHistory) after every
// reconfiguration.
class ValidatorTwin {
 public:
  ValidatorTwin(const ConstraintSchema* schema, std::vector<License> licenses,
                const OnlineValidatorOptions& options)
      : history_(schema, std::move(licenses)), options_(options) {
    Rebuild();
  }

  void Acquire(const License& license) {
    validator_.reset();
    history_.Acquire(license);
    Rebuild();
  }

  void Revoke(const std::string& id) {
    validator_.reset();
    history_.Revoke(id);
    Rebuild();
  }

  // Decides `request`, recording it in the history when accepted.
  Result<OnlineDecision> TryIssue(const License& request) {
    Result<OnlineDecision> decision = validator_->TryIssue(request);
    if (decision.ok() && decision->accepted()) {
      history_.Accept(decision->satisfying_set, request.aggregate_count());
    }
    return decision;
  }

  const std::vector<License>& active() const { return history_.active(); }
  const OnlineValidator& validator() const { return *validator_; }

  // The licenses a decision on satisfying set `s` scans equations over.
  LicenseSet ScopeOf(const LicenseSet& s) const {
    if (!options_.use_grouping) {
      return history_.catalog().AllMask();
    }
    const LicenseGrouping& grouping = validator_->grouping();
    return grouping.GroupMask(grouping.GroupOf(s.Lowest()));
  }

 private:
  void Rebuild() {
    Result<OnlineValidator> validator = OnlineValidator::CreateWithHistory(
        &history_.catalog(), options_, history_.Log());
    GEOLIC_CHECK(validator.ok());
    validator_.emplace(std::move(*validator));
  }

  testing::IdSpaceHistory history_;
  OnlineValidatorOptions options_;
  std::optional<OnlineValidator> validator_;  // Over history_'s catalog.
};

// 1-based position of `t` among the sets S ∪ X, X ⊆ scope − S, in
// ascending order — the order admission checks equations in. 0 if absent.
uint64_t AscendingPosition(const LicenseSet& s, const LicenseSet& scope,
                           const LicenseSet& t) {
  uint64_t position = 0;
  for (AscendingSubsetIterator it(scope - s); !it.Done(); it.Next()) {
    ++position;
    if ((s | it.subset()) == t) {
      return position;
    }
  }
  return 0;
}

TEST(OnlineEquivalenceProperty, IssuanceServiceMatchesOnlineValidator) {
  const uint64_t base = TestSeed(1000);
  for (uint64_t seed = base; seed < base + 500; ++seed) {
    const Workload w = Generate(seed);
    // 0: one shard per group; 1: every group striped onto one shard;
    // 2: no grouping (one scope over the whole catalog).
    for (int config = 0; config < 3; ++config) {
      OnlineValidatorOptions options;
      options.use_grouping = config != 2;
      options.shard_hint = config == 1 ? 1 : 0;
      const std::string where = "seed " + std::to_string(seed) + " config " +
                                std::to_string(config);
      Result<std::unique_ptr<IssuanceService>> created =
          IssuanceService::Create(w.licenses.get(), options);
      ASSERT_TRUE(created.ok()) << where;
      IssuanceService& service = **created;
      ValidatorTwin twin(w.schema.get(), w.licenses->licenses(), options);
      Rng ops(seed * 3 + static_cast<uint64_t>(config));
      int acquired = 0;

      for (size_t r = 0; r < w.requests.size(); ++r) {
        if (ops.Bernoulli(0.1)) {
          const License license = RandomRedistribution(
              &ops, w.schema.get(), "A" + std::to_string(++acquired));
          ASSERT_TRUE(service.AcquireLicense(license).ok()) << where;
          twin.Acquire(license);
        }
        if (twin.active().size() > 1 && ops.Bernoulli(0.1)) {
          const std::string id =
              twin.active()[ops.UniformIndex(twin.active().size())].id();
          ASSERT_TRUE(service.RevokeLicenseById(id).ok()) << where;
          twin.Revoke(id);
        }

        const Result<OnlineDecision> got = service.TryIssue(w.requests[r]);
        const Result<OnlineDecision> want = twin.TryIssue(w.requests[r]);
        ASSERT_TRUE(got.ok()) << where;
        ASSERT_TRUE(want.ok()) << where;
        ASSERT_TRUE(SameDecision(*got, *want))
            << where << " request " << r << ": service {" << Describe(*got)
            << "} vs validator {" << Describe(*want) << "}"
            << "\nrepro: GEOLIC_TEST_SEED=" << seed
            << " ctest -R online_equivalence_property_test";
        ASSERT_EQ(got->equations_checked, want->equations_checked)
            << where << " request " << r;
        if (!got->instance_valid) {
          continue;
        }
        const LicenseSet& s = got->satisfying_set;
        const LicenseSet scope = twin.ScopeOf(s);
        if (got->aggregate_valid) {
          EXPECT_EQ(got->equations_checked,
                    uint64_t{1} << (scope.Size() - s.Size()))
              << where << " request " << r;
        } else {
          EXPECT_EQ(got->equations_checked,
                    AscendingPosition(s, scope, got->limiting.set))
              << where << " request " << r;
        }
      }
      EXPECT_EQ(service.CollectLog().MergedCounts(),
                twin.validator().log().MergedCounts())
          << where;
    }
  }
}

}  // namespace
}  // namespace geolic

// Property test for paper Theorem 2 at the decision level: grouped and
// ungrouped IssuanceService twins, plus a flat-tree equation oracle, must
// agree on every TryIssue — not just accept/reject, but the exact limiting
// equation on rejection. A second property pins IssuanceService's decision
// contract to sim/ReferenceModel's across acquisitions and revocations:
// same accept flag and limiting equation, and the equation count the
// ascending scan of S's scope implies. 500 seeded workloads; any failure
// logs its seed and is reproducible with GEOLIC_TEST_SEED.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "licensing/license.h"
#include "licensing/license_catalog.h"
#include "service/issuance_service.h"
#include "sim/reference_model.h"
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

// The reference model's decision in the service's vocabulary (no equation
// count: the model enumerates by definition, not by the service's scan).
OnlineDecision AsOnlineDecision(const ReferenceModel::Decision& d) {
  OnlineDecision decision;
  decision.instance_valid = d.instance_valid;
  decision.aggregate_valid = d.aggregate_valid;
  decision.satisfying_set = d.satisfying_set;
  decision.limiting = EquationResult{d.limiting_set, d.limiting_lhs,
                                     d.limiting_rhs};
  return decision;
}

TEST(OnlineEquivalenceProperty, GroupedUngroupedAndFlatTreeAgree) {
  const uint64_t base = TestSeed(1000);
  for (uint64_t seed = base; seed < base + 500; ++seed) {
    const Workload w = Generate(seed);

    OnlineValidatorOptions grouped_options;
    grouped_options.use_grouping = true;
    Result<std::unique_ptr<IssuanceService>> grouped =
        IssuanceService::Create(w.licenses.get(), grouped_options);
    ASSERT_TRUE(grouped.ok());

    OnlineValidatorOptions ungrouped_options;
    ungrouped_options.use_grouping = false;
    Result<std::unique_ptr<IssuanceService>> ungrouped =
        IssuanceService::Create(w.licenses.get(), ungrouped_options);
    ASSERT_TRUE(ungrouped.ok());

    FlatTreeOracle oracle(w.licenses.get());

    for (size_t r = 0; r < w.requests.size(); ++r) {
      const Result<OnlineDecision> g = (*grouped)->TryIssue(w.requests[r]);
      const Result<OnlineDecision> u = (*ungrouped)->TryIssue(w.requests[r]);
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

// The specification twin of a service: the id-space history
// (testing::IdSpaceHistory) with a ReferenceModel over its catalog, rebuilt
// from the surviving history after every reconfiguration.
class ReferenceTwin {
 public:
  ReferenceTwin(const ConstraintSchema* schema, std::vector<License> licenses)
      : history_(schema, std::move(licenses)) {
    Rebuild();
  }

  void Acquire(const License& license) {
    model_.reset();
    history_.Acquire(license);
    Rebuild();
  }

  void Revoke(const std::string& id) {
    model_.reset();
    history_.Revoke(id);
    Rebuild();
  }

  // Decides `request`, recording it when accepted.
  ReferenceModel::Decision TryIssue(const License& request) {
    const ReferenceModel::Decision decision = model_->TryIssue(request);
    if (decision.accepted()) {
      model_->Apply(decision.satisfying_set, request.aggregate_count());
      history_.Accept(decision.satisfying_set, request.aggregate_count());
    }
    return decision;
  }

  const std::vector<License>& active() const { return history_.active(); }
  const ReferenceModel& model() const { return *model_; }

  // The licenses a decision on satisfying set `s` scans equations over:
  // the whole catalog without grouping, else S's overlap component.
  LicenseSet ScopeOf(const LicenseSet& s, bool use_grouping) const {
    if (!use_grouping) {
      return history_.catalog().AllMask();
    }
    for (const LicenseSet& component : model_->components()) {
      if (s.IsSubsetOf(component)) {
        return component;
      }
    }
    return LicenseSet();
  }

 private:
  void Rebuild() {
    model_.emplace(&history_.catalog());
    const LogStore log = history_.Log();
    for (const LogRecord& record : log.records()) {
      model_->Apply(record.set, record.count);
    }
  }

  testing::IdSpaceHistory history_;
  std::optional<ReferenceModel> model_;  // Over history_'s catalog.
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

TEST(OnlineEquivalenceProperty, IssuanceServiceMatchesReferenceModel) {
  const uint64_t base = TestSeed(1000);
  for (uint64_t seed = base; seed < base + 500; ++seed) {
    const Workload w = Generate(seed);
    // 0: one scope per overlap group; 1: no grouping (one scope over the
    // whole catalog).
    for (int config = 0; config < 2; ++config) {
      OnlineValidatorOptions options;
      options.use_grouping = config == 0;
      const std::string where = "seed " + std::to_string(seed) + " config " +
                                std::to_string(config);
      Result<std::unique_ptr<IssuanceService>> created =
          IssuanceService::Create(w.licenses.get(), options);
      ASSERT_TRUE(created.ok()) << where;
      IssuanceService& service = **created;
      ReferenceTwin twin(w.schema.get(), w.licenses->licenses());
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
        const OnlineDecision want = AsOnlineDecision(twin.TryIssue(w.requests[r]));
        ASSERT_TRUE(got.ok()) << where;
        ASSERT_TRUE(SameDecision(*got, want))
            << where << " request " << r << ": service {" << Describe(*got)
            << "} vs reference model {" << Describe(want) << "}"
            << "\nrepro: GEOLIC_TEST_SEED=" << seed
            << " ctest -R online_equivalence_property_test";
        if (!got->instance_valid) {
          EXPECT_EQ(got->equations_checked, 0u) << where << " request " << r;
          continue;
        }
        const LicenseSet& s = got->satisfying_set;
        const LicenseSet scope = twin.ScopeOf(s, options.use_grouping);
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
      const auto merged = service.CollectLog().MergedCounts();
      EXPECT_EQ(merged.size(), twin.model().counts().size()) << where;
      for (const auto& [set, count] : twin.model().counts()) {
        EXPECT_TRUE(merged.contains(set) && merged.at(set) == count)
            << where << " set " << set;
      }
    }
  }
}

}  // namespace
}  // namespace geolic

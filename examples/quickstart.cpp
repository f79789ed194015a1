// Quickstart: the paper's Example 1 end to end.
//
// Parses the five redistribution licenses, instance-validates two usage
// licenses geometrically, runs equation-based online validation (both usage
// licenses are accepted — no greedy license picking), builds the validation
// tree from the Table 2 log, and runs the efficient grouped offline
// validation (10 equations instead of 31, the 3.1x gain of Section 4.2).
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>
#include <memory>
#include <utility>

#include "core/gain.h"
#include "core/grouping.h"
#include "core/instance_validator.h"
#include "licensing/license_parser.h"
#include "service/issuance_service.h"
#include "validation/validate.h"
#include "validation/validation_tree.h"

int main() {
  using namespace geolic;  // NOLINT

  // 1. The distributor's five redistribution licenses (paper Example 1).
  const ConstraintSchema schema = ConstraintSchema::PaperExampleSchema();
  LicenseCatalog licenses(&schema);
  const char* license_texts[] = {
      "(K; Play; T=[10/03/09, 20/03/09]; R=[Asia, Europe]; A=2000)",
      "(K; Play; T=[15/03/09, 25/03/09]; R=[Asia]; A=1000)",
      "(K; Play; T=[15/03/09, 30/03/09]; R=[America]; A=3000)",
      "(K; Play; T=[15/03/09, 15/04/09]; R=[Europe]; A=4000)",
      "(K; Play; T=[25/03/09, 10/04/09]; R=[America]; A=2000)",
  };
  std::printf("Redistribution licenses:\n");
  for (int i = 0; i < 5; ++i) {
    Result<License> license =
        ParseLicense(license_texts[i], schema, LicenseType::kRedistribution,
                     "LD" + std::to_string(i + 1));
    if (!license.ok()) {
      std::fprintf(stderr, "parse failed: %s\n",
                   license.status().ToString().c_str());
      return 1;
    }
    std::printf("  L_D^%d = %s\n", i + 1,
                license->ToString(schema).c_str());
    if (!licenses.Add(*std::move(license)).ok()) {
      return 1;
    }
  }

  // 2. Geometric instance-based validation: which redistribution licenses
  //    fully contain each usage license's hyper-rectangle?
  const SoaInstanceValidator instance_validator(&licenses);
  Result<License> lu1 =
      ParseLicense("(K; Play; T=[15/03/09, 19/03/09]; R=[India]; A=800)",
                   schema, LicenseType::kUsage, "LU1");
  Result<License> lu2 =
      ParseLicense("(K; Play; T=[21/03/09, 24/03/09]; R=[Japan]; A=400)",
                   schema, LicenseType::kUsage, "LU2");
  if (!lu1.ok() || !lu2.ok()) {
    return 1;
  }
  std::printf("\nInstance-based validation (geometric containment):\n");
  std::printf("  LU1 satisfies %s\n",
              instance_validator.SatisfyingSet(*lu1).ToString().c_str());
  std::printf("  LU2 satisfies %s\n",
              instance_validator.SatisfyingSet(*lu2).ToString().c_str());

  // 3. Online aggregate validation with validation equations: both usage
  //    licenses are valid (a random pick of L_D^2 for LU1 would have
  //    wrongly exhausted it and rejected LU2).
  Result<std::unique_ptr<IssuanceService>> online =
      IssuanceService::Create(&licenses);
  if (!online.ok()) {
    return 1;
  }
  for (const License* usage : {&*lu1, &*lu2}) {
    const Result<OnlineDecision> decision = (*online)->TryIssue(*usage);
    if (!decision.ok()) {
      return 1;
    }
    std::printf("  issue %s (count %lld): %s\n", usage->id().c_str(),
                static_cast<long long>(usage->aggregate_count()),
                decision->accepted() ? "ACCEPTED" : "REJECTED");
  }

  // 4. Offline validation from the paper's Table 2 log.
  LogStore log;
  struct Row {
    const char* id;
    uint64_t mask;
    int64_t count;
  };
  const Row kTable2[] = {
      {"LU1", 0b00011, 800}, {"LU2", 0b00010, 400}, {"LU3", 0b00011, 40},
      {"LU4", 0b01011, 30},  {"LU5", 0b10100, 800}, {"LU6", 0b10000, 20},
  };
  for (const Row& row : kTable2) {
    if (!log.Append(LogRecord{row.id, LicenseSet::FromWord(row.mask), row.count}).ok()) {
      return 1;
    }
  }
  Result<ValidationTree> tree = ValidationTree::BuildFromLog(log);
  if (!tree.ok()) {
    return 1;
  }
  std::printf("\nValidation tree (paper figure 1):\n%s",
              tree->ToString().c_str());

  // 5. Grouped validation: overlap graph → groups → divided trees.
  const LicenseGrouping grouping = LicenseGrouping::FromLicenses(licenses);
  std::printf("\nOverlap groups:\n");
  for (int k = 0; k < grouping.group_count(); ++k) {
    std::printf("  group %d: %s\n", k + 1,
                grouping.GroupMask(k).ToString().c_str());
  }
  Result<ValidationOutcome> result = Validate(
      licenses, *std::move(tree), {.mode = ValidationMode::kGrouped});
  if (!result.ok()) {
    return 1;
  }
  std::printf("\nGrouped offline validation: %s\n",
              result->report.ToString().c_str());
  std::printf("Equations: %llu grouped vs %llu exhaustive (theoretical gain "
              "%.1fx)\n",
              static_cast<unsigned long long>(
                  result->report.equations_evaluated),
              static_cast<unsigned long long>(
                  EquationCount(licenses.size())),
              TheoreticalGain(result->group_sizes));
  return 0;
}

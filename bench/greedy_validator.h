#ifndef GEOLIC_BENCH_GREEDY_VALIDATOR_H_
#define GEOLIC_BENCH_GREEDY_VALIDATOR_H_

#include <cstdint>
#include <vector>

#include "core/instance_validator.h"
#include "licensing/license_catalog.h"
#include "util/random.h"
#include "util/status.h"

namespace geolic {

// How the greedy validator picks one redistribution license out of the
// satisfying set S to charge for an issuance.
enum class GreedyPolicy : int32_t {
  kFirst = 0,             // Lowest license index in S.
  kRandom = 1,            // Uniform among S (the paper's "randomly picks").
  kLargestRemaining = 2,  // Most remaining budget (best-effort greedy).
  kSmallestRemaining = 3, // Least remaining budget that still fits.
};

const char* GreedyPolicyName(GreedyPolicy policy);

// Decision of one greedy issuance attempt.
struct GreedyDecision {
  bool instance_valid = false;
  bool accepted = false;
  LicenseSet satisfying_set;
  // License charged on acceptance (-1 otherwise).
  int charged_license = -1;
};

// The naive validation regime the paper's Example 1 argues against: when a
// new license satisfies several redistribution licenses, pick ONE of them
// and deduct the full count from its budget. Correct (never oversells) but
// lossy — a bad pick strands budget and later issuances are wrongly
// rejected, even though an assignment satisfying everyone exists.
// Equation-based admission (IssuanceService) never sells fewer counts than
// a greedy validator on the same stream; bench/ablation_greedy quantifies
// the utilisation gap per policy. A baseline, not product code: it is
// built into that bench and greedy_validator_test, not the library.
class GreedyOnlineValidator {
 public:
  // `licenses` must be non-empty and outlive the validator. `seed` drives
  // the kRandom policy.
  static Result<GreedyOnlineValidator> Create(const LicenseCatalog* licenses,
                                              GreedyPolicy policy,
                                              uint64_t seed = 1);

  // Validates and, on acceptance, charges one license of the satisfying
  // set per `policy`.
  Result<GreedyDecision> TryIssue(const License& issued);

  // Remaining budget per license index.
  const std::vector<int64_t>& remaining() const { return remaining_; }
  int64_t accepted_counts() const { return accepted_counts_; }

 private:
  GreedyOnlineValidator(const LicenseCatalog* licenses, GreedyPolicy policy,
                        uint64_t seed);

  const LicenseCatalog* licenses_;
  GreedyPolicy policy_;
  Rng rng_;
  SoaInstanceValidator instance_validator_;
  std::vector<int64_t> remaining_;
  int64_t accepted_counts_ = 0;
};

}  // namespace geolic

#endif  // GEOLIC_BENCH_GREEDY_VALIDATOR_H_

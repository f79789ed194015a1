#include "bench/greedy_validator.h"

namespace geolic {

const char* GreedyPolicyName(GreedyPolicy policy) {
  switch (policy) {
    case GreedyPolicy::kFirst:
      return "first";
    case GreedyPolicy::kRandom:
      return "random";
    case GreedyPolicy::kLargestRemaining:
      return "largest-remaining";
    case GreedyPolicy::kSmallestRemaining:
      return "smallest-remaining";
  }
  return "unknown";
}

GreedyOnlineValidator::GreedyOnlineValidator(const LicenseCatalog* licenses,
                                             GreedyPolicy policy,
                                             uint64_t seed)
    : licenses_(licenses),
      policy_(policy),
      rng_(seed),
      instance_validator_(licenses),
      remaining_(licenses->AggregateCounts()) {}

Result<GreedyOnlineValidator> GreedyOnlineValidator::Create(
    const LicenseCatalog* licenses, GreedyPolicy policy, uint64_t seed) {
  if (licenses == nullptr || licenses->empty()) {
    return Status::InvalidArgument(
        "greedy validator needs at least one redistribution license");
  }
  return GreedyOnlineValidator(licenses, policy, seed);
}

Result<GreedyDecision> GreedyOnlineValidator::TryIssue(
    const License& issued) {
  if (issued.aggregate_count() <= 0) {
    return Status::InvalidArgument(
        "issued license must carry a positive count");
  }
  GreedyDecision decision;
  decision.satisfying_set = instance_validator_.SatisfyingSet(issued);
  if (decision.satisfying_set.Empty()) {
    return decision;
  }
  decision.instance_valid = true;
  const int64_t count = issued.aggregate_count();

  // Candidates with enough remaining budget.
  std::vector<int> candidates;
  for (int index : (decision.satisfying_set).ToIndexes()) {
    if (remaining_[static_cast<size_t>(index)] >= count) {
      candidates.push_back(index);
    }
  }
  if (candidates.empty()) {
    return decision;  // Rejected: no single license can absorb the count.
  }

  int chosen = candidates.front();
  switch (policy_) {
    case GreedyPolicy::kFirst:
      break;
    case GreedyPolicy::kRandom:
      chosen = candidates[rng_.UniformIndex(candidates.size())];
      break;
    case GreedyPolicy::kLargestRemaining:
      for (int candidate : candidates) {
        if (remaining_[static_cast<size_t>(candidate)] >
            remaining_[static_cast<size_t>(chosen)]) {
          chosen = candidate;
        }
      }
      break;
    case GreedyPolicy::kSmallestRemaining:
      for (int candidate : candidates) {
        if (remaining_[static_cast<size_t>(candidate)] <
            remaining_[static_cast<size_t>(chosen)]) {
          chosen = candidate;
        }
      }
      break;
  }
  remaining_[static_cast<size_t>(chosen)] -= count;
  accepted_counts_ += count;
  decision.accepted = true;
  decision.charged_license = chosen;
  return decision;
}

}  // namespace geolic

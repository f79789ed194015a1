// Ablation: the paper's motivation (Example 1) at scale — how many
// permission counts are wrongly rejected when the validation authority
// greedily charges a single redistribution license per issuance, versus
// equation-based validation (which is exactly the feasibility criterion).
#include <cstdio>

#include "bench/bench_util.h"
#include "bench/greedy_validator.h"
#include "service/issuance_service.h"

int main(int argc, char** argv) {
  using namespace geolic;         // NOLINT
  using namespace geolic::bench;  // NOLINT

  Flags flags(argc, argv);
  const int n = flags.Int("n", 12);
  const int issues = flags.Int("issues", 4000);
  flags.Finish();

  std::printf("# Ablation: greedy single-license charging vs equation-based "
              "validation (N=%d, %d issuance attempts)\n", n, issues);
  std::printf("%20s  %12s  %14s  %12s\n", "validator", "accepted",
              "counts_sold", "utilisation");

  // Dense overlap (large satisfying sets), chunky issue counts relative to
  // budgets: the regime where charging a single license strands budget.
  WorkloadConfig config = PaperSweepConfig(n, 515);
  config.num_records = 0;
  config.num_clusters = 2;
  config.min_extent = 0.55;
  config.max_extent = 0.95;
  config.aggregate_min = 1000;
  config.aggregate_max = 3000;
  config.usage_count_min = 200;
  config.usage_count_max = 900;
  WorkloadGenerator generator(config);
  Result<Workload> workload = generator.GenerateLicensesOnly();
  GEOLIC_CHECK(workload.ok());
  int64_t total_budget = 0;
  for (int64_t aggregate : workload->licenses->AggregateCounts()) {
    total_budget += aggregate;
  }

  // Shared issuance stream.
  std::vector<License> stream;
  {
    Rng rng(99);
    for (int i = 0; i < issues; ++i) {
      const int parent = static_cast<int>(
          rng.UniformInt(0, workload->licenses->size() - 1));
      stream.push_back(generator.DrawUsageLicense(*workload, parent, &rng,
                                                  i));
    }
  }

  // Equation-based reference.
  {
    Result<std::unique_ptr<IssuanceService>> service =
        IssuanceService::Create(workload->licenses.get());
    GEOLIC_CHECK(service.ok());
    int accepted = 0;
    int64_t counts = 0;
    for (const License& usage : stream) {
      const Result<OnlineDecision> decision = (*service)->TryIssue(usage);
      GEOLIC_CHECK(decision.ok());
      if (decision->accepted()) {
        ++accepted;
        counts += usage.aggregate_count();
      }
    }
    std::printf("%20s  %12d  %14lld  %11.1f%%\n", "equations", accepted,
                static_cast<long long>(counts),
                100.0 * static_cast<double>(counts) /
                    static_cast<double>(total_budget));
  }

  for (GreedyPolicy policy :
       {GreedyPolicy::kFirst, GreedyPolicy::kRandom,
        GreedyPolicy::kLargestRemaining, GreedyPolicy::kSmallestRemaining}) {
    Result<GreedyOnlineValidator> validator =
        GreedyOnlineValidator::Create(workload->licenses.get(), policy, 99);
    GEOLIC_CHECK(validator.ok());
    int accepted = 0;
    for (const License& usage : stream) {
      const Result<GreedyDecision> decision = validator->TryIssue(usage);
      GEOLIC_CHECK(decision.ok());
      if (decision->accepted) {
        ++accepted;
      }
    }
    std::printf("%20s  %12d  %14lld  %11.1f%%\n",
                (std::string("greedy/") + GreedyPolicyName(policy)).c_str(),
                accepted,
                static_cast<long long>(validator->accepted_counts()),
                100.0 * static_cast<double>(validator->accepted_counts()) /
                    static_cast<double>(total_budget));
  }
  std::printf("# expected shape: equation-based validation sells the most "
              "counts; greedy policies strand budget (the paper's Example 1 "
              "loss, measured)\n");
  return 0;
}

// Ablation: online (per-issuance) validation with and without grouping.
// Section 2.1 of the paper: a new license whose satisfying set has k
// licenses touches 2^(N−k) equations; restricting to the license's overlap
// group shrinks that to 2^(N_g−k). Machine-readable: --json_out=<path>.
#include <algorithm>
#include <cstdio>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "service/issuance_service.h"
#include "util/random.h"
#include "util/stopwatch.h"
#include "workload/workload.h"

namespace {

using namespace geolic;  // NOLINT

struct OnlineFixture {
  OnlineFixture(int n, bool use_grouping) {
    WorkloadConfig config = PaperSweepConfig(n);
    config.num_records = 0;
    WorkloadGenerator generator(config);
    Result<Workload> generated = generator.GenerateLicensesOnly();
    GEOLIC_CHECK(generated.ok());
    workload = std::make_unique<Workload>(*std::move(generated));
    OnlineValidatorOptions options;
    options.use_grouping = use_grouping;
    Result<std::unique_ptr<IssuanceService>> created =
        IssuanceService::Create(workload->licenses.get(), options);
    GEOLIC_CHECK(created.ok());
    service = *std::move(created);
    Rng rng(77);
    for (int i = 0; i < 512; ++i) {
      const int parent = static_cast<int>(
          rng.UniformInt(0, workload->licenses->size() - 1));
      queries.push_back(
          generator.DrawUsageLicense(*workload, parent, &rng, i));
    }
  }
  std::unique_ptr<Workload> workload;
  std::unique_ptr<IssuanceService> service;
  std::vector<License> queries;
};

struct IssueLoopResult {
  int64_t elapsed_ns = 0;
  double equations_per_issue = 0.0;
};

// `issues` TryIssue calls cycling the query pool against a fresh
// service; the running state accumulates exactly as in production.
IssueLoopResult RunIssueLoop(int n, bool use_grouping, int issues) {
  OnlineFixture fixture(n, use_grouping);
  uint64_t equations = 0;
  Stopwatch timer;
  for (int i = 0; i < issues; ++i) {
    const Result<OnlineDecision> decision = fixture.service->TryIssue(
        fixture.queries[static_cast<size_t>(i) % fixture.queries.size()]);
    GEOLIC_CHECK(decision.ok());
    equations += decision->equations_checked;
  }
  IssueLoopResult result;
  result.elapsed_ns = timer.ElapsedNanos();
  result.equations_per_issue =
      static_cast<double>(equations) / static_cast<double>(issues);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  using geolic::bench::Flags;
  using geolic::bench::JsonOut;

  Flags flags(argc, argv);
  const int issues = std::max(1, flags.Int("issues", 2000));
  const int reps = std::max(1, flags.Int("reps", 3));
  JsonOut json(flags, "ablation_online");
  flags.Finish();

  std::printf("# Ablation: per-issuance validation cost, grouped vs full "
              "equation scope (%d issues, best of %d reps)\n", issues, reps);
  std::printf("%10s  %4s  %12s  %18s\n", "mode", "n", "ns_per_issue",
              "equations_per_issue");

  const auto sweep = [&](const char* mode, bool use_grouping, int n,
                         int issue_count) {
    IssueLoopResult best;
    best.elapsed_ns = std::numeric_limits<int64_t>::max();
    for (int rep = 0; rep < reps; ++rep) {
      const IssueLoopResult run = RunIssueLoop(n, use_grouping, issue_count);
      if (run.elapsed_ns < best.elapsed_ns) {
        best = run;
      }
    }
    const double ns_per_issue =
        static_cast<double>(best.elapsed_ns) / issue_count;
    std::printf("%10s  %4d  %12.1f  %18.1f\n", mode, n, ns_per_issue,
                best.equations_per_issue);
    json.Row([&](JsonWriter& out) {
      out.KeyValue("mode", mode);
      out.KeyValue("n", static_cast<int64_t>(n));
      out.KeyValue("issues", static_cast<int64_t>(issue_count));
      out.KeyValue("ns_per_issue", ns_per_issue);
      out.KeyValue("equations_per_issue", best.equations_per_issue);
    });
  };
  for (const int n : {8, 16, 24, 32}) {
    sweep("grouped", /*use_grouping=*/true, n, issues);
  }
  // The full-scope baseline scans 2^(N−k) equations per issue — hundreds
  // of milliseconds each at N=24, so its issue budget shrinks with N (and
  // the sweep stops at 24, as the paper's exponential curves do).
  sweep("baseline", /*use_grouping=*/false, 8, issues);
  sweep("baseline", /*use_grouping=*/false, 16, std::max(1, issues / 10));
  sweep("baseline", /*use_grouping=*/false, 24, std::max(1, issues / 100));

  std::printf("# expected shape: grouped stays flat as N grows (group sizes "
              "are bounded); baseline doubles per license added\n");
  json.Write();
  return 0;
}

// drm_simulator: randomized multi-level DRM network simulation.
//
// Builds a distribution network (owner → N distributors → sub-distributors
// and consumers), drives a random issuance workload through online
// validation, optionally injects rogue over-issues, then runs the offline
// grouped audit and prints portfolio/log statistics.
//
// A second phase replays the same issuance load through a service-backed
// ValidationAuthority from several threads at once: distributors' licenses
// live in disjoint Z bands, so they form independent overlap groups, and
// the threads' admissions take turns under the IssuanceService's one lock.
// The phase checks that the concurrent state matches a single-threaded
// replay and prints the service's metrics block.
//
// Usage: drm_simulator [--seed=N] [--distributors=N] [--issues=N]
//                      [--rogues=N] [--threads=N] [--metrics_out=PATH]
//
// --metrics_out= writes the authority service's metrics — counters, the
// request-latency histogram, and the per-stage trace profile — to PATH:
// JSON when it ends in ".json", Prometheus text exposition otherwise.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "drm/distribution_network.h"
#include "drm/validation_authority.h"
#include "obs/exposition.h"
#include "obs/trace.h"
#include "workload/stats.h"
#include "util/random.h"

namespace {

using namespace geolic;  // NOLINT

int IntFlag(int argc, char** argv, const char* name, int fallback) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) {
      return std::atoi(arg.c_str() + prefix.size());
    }
  }
  return fallback;
}

std::string StringFlag(int argc, char** argv, const char* name,
                       const char* fallback) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) {
      return arg.substr(prefix.size());
    }
  }
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  const uint64_t seed =
      static_cast<uint64_t>(IntFlag(argc, argv, "seed", 2026));
  const int num_distributors = IntFlag(argc, argv, "distributors", 4);
  const int num_issues = IntFlag(argc, argv, "issues", 500);
  const int num_rogues = IntFlag(argc, argv, "rogues", 2);
  const int num_threads = std::max(1, IntFlag(argc, argv, "threads", 4));
  Rng rng(seed);

  // One interval dimension pair: time window and region code band.
  ConstraintSchema schema;
  GEOLIC_CHECK(schema.AddIntervalDimension("T").ok());
  GEOLIC_CHECK(schema.AddIntervalDimension("Z").ok());

  DistributionNetwork network(&schema, "asset-7", Permission::kStream);
  const int owner = *network.AddOwner("Owner");

  std::vector<int> distributors;
  std::vector<int> consumers;
  for (int d = 0; d < num_distributors; ++d) {
    const int distributor =
        *network.AddDistributor("dist-" + std::to_string(d), owner);
    distributors.push_back(distributor);
    consumers.push_back(
        *network.AddConsumer("consumer-" + std::to_string(d), distributor));
    // Each distributor receives 2-5 redistribution licenses in a private
    // band of the Z axis, with overlapping time windows.
    const int licenses = static_cast<int>(rng.UniformInt(2, 5));
    for (int l = 0; l < licenses; ++l) {
      LicenseBuilder builder(&schema);
      const int64_t t_lo = rng.UniformInt(0, 600);
      const int64_t z_lo = d * 1000 + rng.UniformInt(0, 400);
      builder.SetId("LD-" + std::to_string(d) + "-" + std::to_string(l))
          .SetContentKey("asset-7")
          .SetType(LicenseType::kRedistribution)
          .SetPermission(Permission::kStream)
          .SetAggregateCount(rng.UniformInt(500, 2000))
          .SetInterval("T", t_lo, t_lo + rng.UniformInt(100, 400))
          .SetInterval("Z", z_lo, z_lo + rng.UniformInt(100, 500));
      GEOLIC_CHECK(
          network.GrantFromOwner(distributor, *builder.Build()).ok());
    }
  }

  // Random usage issuance through online validation.
  int accepted = 0;
  int rejected_instance = 0;
  int rejected_aggregate = 0;
  for (int i = 0; i < num_issues; ++i) {
    const size_t d = rng.UniformIndex(distributors.size());
    LicenseBuilder builder(&schema);
    const int64_t t_lo = rng.UniformInt(0, 900);
    const int64_t z_lo =
        static_cast<int64_t>(d) * 1000 + rng.UniformInt(0, 800);
    builder.SetId("LU-" + std::to_string(i))
        .SetContentKey("asset-7")
        .SetType(LicenseType::kUsage)
        .SetPermission(Permission::kStream)
        .SetAggregateCount(rng.UniformInt(5, 60))
        .SetInterval("T", t_lo, t_lo + rng.UniformInt(0, 80))
        .SetInterval("Z", z_lo, z_lo + rng.UniformInt(0, 80));
    const Result<OnlineDecision> decision =
        network.Issue(distributors[d], consumers[d], *builder.Build());
    GEOLIC_CHECK(decision.ok());
    if (decision->accepted()) {
      ++accepted;
    } else if (!decision->instance_valid) {
      ++rejected_instance;
    } else {
      ++rejected_aggregate;
    }
  }

  // Rogue distributors bypass validation for a few oversized issues.
  int rogues_landed = 0;
  for (int r = 0; r < num_rogues; ++r) {
    const size_t d = rng.UniformIndex(distributors.size());
    const LicenseCatalog& received = network.ReceivedLicenses(distributors[d]);
    const License& target =
        received.at(static_cast<int>(rng.UniformIndex(
            static_cast<size_t>(received.size()))));
    LicenseBuilder builder(&schema);
    // Entirely inside one received license, but with a huge count.
    const Interval t_range = target.rect().dim(0).interval();
    const Interval z_range = target.rect().dim(1).interval();
    builder.SetId("ROGUE-" + std::to_string(r))
        .SetContentKey("asset-7")
        .SetType(LicenseType::kUsage)
        .SetPermission(Permission::kStream)
        .SetAggregateCount(target.aggregate_count() * 2)
        .SetInterval("T", t_range.lo(), t_range.lo())
        .SetInterval("Z", z_range.lo(), z_range.lo());
    if (network.IssueUnchecked(distributors[d], consumers[d],
                               *builder.Build())
            .ok()) {
      ++rogues_landed;
    }
  }

  std::printf("Simulation (seed %llu): %d distributors, %d issues\n",
              static_cast<unsigned long long>(seed), num_distributors,
              num_issues);
  std::printf("  online: %d accepted, %d instance-rejected, %d "
              "aggregate-rejected, %d rogue issues forced\n",
              accepted, rejected_instance, rejected_aggregate,
              rogues_landed);

  // Per-distributor statistics + offline audit.
  const Result<NetworkAudit> audit = network.AuditAll();
  GEOLIC_CHECK(audit.ok());
  std::printf("\nOffline audit:\n");
  for (const DistributorAudit& entry : audit->distributors) {
    const LicensePortfolioStats portfolio =
        LicensePortfolioStats::Compute(
            network.ReceivedLicenses(entry.party_id));
    const LogStats log_stats =
        LogStats::Compute(network.IssuanceLog(entry.party_id));
    std::printf("== %s ==\n%s%s", entry.party_name.c_str(),
                portfolio.ToString().c_str(), log_stats.ToString().c_str());
    if (entry.result.report.all_valid()) {
      std::printf("  audit: clean (%llu equations)\n",
                  static_cast<unsigned long long>(
                      entry.result.report.equations_evaluated));
    } else {
      std::printf("  audit: %zu VIOLATION(S)\n",
                  entry.result.report.violations.size());
      for (const EquationResult& violation :
           entry.result.report.violations) {
        std::printf("    C<%s> = %lld > %lld\n",
                    (violation.set).ToString().c_str(),
                    static_cast<long long>(violation.lhs),
                    static_cast<long long>(violation.rhs));
      }
    }
  }
  // Concurrent issuance through the validation authority: one content
  // domain holding every distributor's licenses. The Z bands never overlap
  // across distributors, so the domain splits into per-band overlap groups,
  // and each thread's requests are checked against their own group only.
  // Full (unsampled) tracing: the simulator's load is small, and the stage
  // profile in --metrics_out should cover every admission.
  Tracer tracer;
  OnlineValidatorOptions service_options;
  service_options.tracer = &tracer;
  ValidationAuthority authority(&schema, service_options);
  for (const int distributor : distributors) {
    const LicenseCatalog& received = network.ReceivedLicenses(distributor);
    for (int l = 0; l < received.size(); ++l) {
      GEOLIC_CHECK(authority.RegisterRedistribution(received.at(l)).ok());
    }
  }
  // Pre-generate the load (the Rng is single-threaded).
  std::vector<License> requests;
  requests.reserve(static_cast<size_t>(num_issues));
  for (int i = 0; i < num_issues; ++i) {
    const size_t d = rng.UniformIndex(distributors.size());
    LicenseBuilder builder(&schema);
    const int64_t t_lo = rng.UniformInt(0, 900);
    const int64_t z_lo =
        static_cast<int64_t>(d) * 1000 + rng.UniformInt(0, 800);
    builder.SetId("CU-" + std::to_string(i))
        .SetContentKey("asset-7")
        .SetType(LicenseType::kUsage)
        .SetPermission(Permission::kStream)
        .SetAggregateCount(rng.UniformInt(5, 60))
        .SetInterval("T", t_lo, t_lo + rng.UniformInt(0, 80))
        .SetInterval("Z", z_lo, z_lo + rng.UniformInt(0, 80));
    requests.push_back(*builder.Build());
  }
  std::atomic<int> concurrent_accepted{0};
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(num_threads));
  for (int t = 0; t < num_threads; ++t) {
    workers.emplace_back([&authority, &requests, &concurrent_accepted,
                          num_threads, t] {
      for (size_t i = static_cast<size_t>(t); i < requests.size();
           i += static_cast<size_t>(num_threads)) {
        const Result<OnlineDecision> decision =
            authority.ValidateIssue(requests[i]);
        GEOLIC_CHECK(decision.ok());
        if (decision->accepted()) {
          concurrent_accepted.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }

  const ValidationAuthority::ContentKey key{"asset-7", Permission::kStream};
  const Result<const IssuanceService*> service = authority.ServiceFor(key);
  GEOLIC_CHECK(service.ok());
  // The concurrent tree must equal a single-threaded replay of what was
  // accepted: every admission is one step under the service lock.
  const Result<ValidationTree> replay =
      ValidationTree::BuildFromLog((*service)->CollectLog());
  GEOLIC_CHECK(replay.ok());
  const Result<ValidationTree> concurrent_tree = (*service)->CollectTree();
  GEOLIC_CHECK(concurrent_tree.ok());
  GEOLIC_CHECK(concurrent_tree->ToString() == replay->ToString());

  std::printf("\nConcurrent authority (%d threads, %d overlap groups): "
              "%d of %d accepted\n",
              num_threads, (*service)->grouping().group_count(),
              concurrent_accepted.load(), num_issues);
  std::printf("  service metrics: %s\n",
              (*service)->metrics().Snap().ToString().c_str());
  std::printf("  concurrent state == serial replay: yes\n");

  const std::string metrics_out = StringFlag(argc, argv, "metrics_out", "");
  if (!metrics_out.empty()) {
    GEOLIC_CHECK(WriteMetricsFile((*service)->Snap(), metrics_out).ok());
    std::printf("  metrics written to %s (%llu spans, %llu slow requests)\n",
                metrics_out.c_str(),
                static_cast<unsigned long long>(tracer.spans_recorded()),
                static_cast<unsigned long long>(tracer.slow_requests()));
  }

  const bool caught = !audit->clean();
  std::printf("\n%s\n", caught ? "Rights violations detected."
                               : "Network is clean.");
  // Success for the demo = rogues (if any) were caught.
  return (rogues_landed > 0) == caught ? 0 : 1;
}

// Seed-sweeping driver for the deterministic simulation harness.
//
//   sim_runner --seeds=1000            sweep seeds 1..1000, fail on first bug
//   sim_runner --seed=42               replay exactly one seed (the repro)
//   sim_runner --lifecycle             mix live acquire/revoke/expire
//                                      reconfigurations into the workload
//   sim_runner --mutation_smoke        plant the equation-skip bug and
//                                      verify the harness CATCHES it within
//                                      the seed budget (--seeds, default 200);
//                                      with --lifecycle, plants the
//                                      skipped-renumbering reconfig bug
//                                      instead
//   sim_runner --start_seed=N          shift the sweep window
//   sim_runner --wide_n=N               pin the license count to N and
//                                      scatter licenses into ceil(N/8)
//                                      disjoint slabs (multi-word sets)
//   sim_runner --tenants=T             multi-tenant catalog mode: T tenants
//                                      behind a CatalogService under a tiny
//                                      LRU budget, per-tenant reference
//                                      models, FaultyFile faults on the
//                                      catalog journal, crash-recovery
//                                      conformance; with --mutation_smoke,
//                                      plants the equation-skip bug in
//                                      every tenant service
//
// A sweep prints each clean seed's digest (`seed N digest <hex>`: a hash of
// its decisions, final log and journal bytes) and --seed=N prints the same
// digest, so two builds run the same schedule iff their lines are equal.
// Every failure is reported with the one command that reproduces it.
// Exit codes: 0 = pass, 1 = conformance failure (or, in mutation smoke
// mode, planted bug NOT caught), 2 = bad usage.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "sim/catalog_sim.h"
#include "sim/sim_harness.h"

namespace {

bool ParseUint(const char* arg, const char* name, uint64_t* out) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') {
    return false;
  }
  char* end = nullptr;
  const unsigned long long value = std::strtoull(arg + len + 1, &end, 0);
  if (end == arg + len + 1 || *end != '\0') {
    std::fprintf(stderr, "sim_runner: cannot parse %s\n", arg);
    std::exit(2);
  }
  *out = static_cast<uint64_t>(value);
  return true;
}

void PrintFailure(const geolic::SimResult& result,
                  const geolic::SimConfig& config, uint64_t wide_n) {
  std::printf("FAILED seed=%" PRIu64 "\n", result.seed);
  std::printf("  failure: %s\n", result.failure.c_str());
  std::printf("  ops executed: %zu\n", result.ops_executed);
  std::printf("  shrinking...\n");
  const geolic::ShrinkOutcome shrunk =
      geolic::ShrinkFailure(result.seed, config);
  std::printf("  minimal failing trace (%zu of %zu ops, %zu runs):\n",
              shrunk.minimal_ops.size(), shrunk.original_ops,
              shrunk.runs_used);
  for (const std::string& op : shrunk.minimal_ops) {
    std::printf("    %s\n", op.c_str());
  }
  std::printf("  minimal failure: %s\n", shrunk.failure.c_str());
  const char* mode = config.lifecycle_ops ? " --lifecycle" : "";
  if (wide_n > 0) {
    std::printf("repro: sim_runner%s --wide_n=%" PRIu64 " --seed=%" PRIu64
                "\n",
                mode, wide_n, result.seed);
  } else {
    std::printf("repro: sim_runner%s --seed=%" PRIu64 "\n", mode, result.seed);
  }
}

void PrintCatalogFailure(const geolic::CatalogSimResult& result,
                         uint64_t tenants) {
  std::printf("FAILED seed=%" PRIu64 " (catalog mode)\n", result.seed);
  std::printf("  failure: %s\n", result.failure.c_str());
  std::printf("  ops executed: %zu\n", result.ops_executed);
  std::printf("  trace:\n");
  for (const std::string& op : result.op_trace) {
    std::printf("    %s\n", op.c_str());
  }
  std::printf("repro: sim_runner --tenants=%" PRIu64 " --seed=%" PRIu64 "\n",
              tenants, result.seed);
}

// The multi-tenant catalog sweep: same driver contract as the
// single-service modes (single seed / mutation smoke / sweep), but over
// RunCatalogSimulation.
int RunCatalogMode(uint64_t tenants, uint64_t seeds, uint64_t start_seed,
                   uint64_t single_seed, bool have_single,
                   bool mutation_smoke) {
  geolic::CatalogSimConfig config;
  config.min_tenants = static_cast<int>(tenants);
  config.max_tenants = static_cast<int>(tenants);
  config.inject_equation_skip = mutation_smoke;

  if (have_single) {
    const geolic::CatalogSimResult result =
        geolic::RunCatalogSimulation(single_seed, config);
    if (result.ok) {
      std::printf("seed %" PRIu64 " OK (%zu ops, catalog mode)\n",
                  result.seed, result.ops_executed);
      return 0;
    }
    PrintCatalogFailure(result, tenants);
    return 1;
  }

  if (mutation_smoke) {
    const uint64_t budget = seeds == 0 ? 200 : seeds;
    for (uint64_t s = start_seed; s < start_seed + budget; ++s) {
      const geolic::CatalogSimResult result =
          geolic::RunCatalogSimulation(s, config);
      if (!result.ok) {
        std::printf("mutation smoke OK: planted equation-skip bug caught "
                    "at seed %" PRIu64 " (%" PRIu64
                    " seeds tried, catalog mode)\n",
                    s, s - start_seed + 1);
        std::printf("  failure: %s\n", result.failure.c_str());
        return 0;
      }
    }
    std::printf("mutation smoke FAILED: planted equation-skip bug not "
                "caught in %" PRIu64 " seeds — the harness has lost its teeth\n",
                budget);
    return 1;
  }

  const uint64_t sweep = seeds == 0 ? 100 : seeds;
  for (uint64_t s = start_seed; s < start_seed + sweep; ++s) {
    const geolic::CatalogSimResult result =
        geolic::RunCatalogSimulation(s, config);
    if (!result.ok) {
      PrintCatalogFailure(result, tenants);
      return 1;
    }
    if ((s - start_seed + 1) % 100 == 0) {
      std::printf("  ... %" PRIu64 "/%" PRIu64 " seeds clean\n",
                  s - start_seed + 1, sweep);
      std::fflush(stdout);
    }
  }
  std::printf("OK: %" PRIu64 " seeds clean (catalog mode, tenants=%" PRIu64
              ", start_seed=%" PRIu64 ")\n",
              sweep, tenants, start_seed);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t seeds = 0;
  uint64_t start_seed = 1;
  uint64_t single_seed = 0;
  uint64_t wide_n = 0;
  uint64_t tenants = 0;
  bool have_single = false;
  bool mutation_smoke = false;
  bool lifecycle = false;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (ParseUint(arg, "--seeds", &seeds) ||
        ParseUint(arg, "--start_seed", &start_seed)) {
      continue;
    }
    if (ParseUint(arg, "--wide_n", &wide_n)) {
      continue;
    }
    if (ParseUint(arg, "--tenants", &tenants)) {
      continue;
    }
    if (ParseUint(arg, "--seed", &single_seed)) {
      have_single = true;
      continue;
    }
    if (std::strcmp(arg, "--mutation_smoke") == 0) {
      mutation_smoke = true;
      continue;
    }
    if (std::strcmp(arg, "--lifecycle") == 0) {
      lifecycle = true;
      continue;
    }
    std::fprintf(stderr,
                 "sim_runner: unknown flag %s\n"
                 "usage: sim_runner [--seeds=N] [--seed=S] [--start_seed=B] "
                 "[--wide_n=N] [--tenants=T] [--lifecycle] "
                 "[--mutation_smoke]\n",
                 arg);
    return 2;
  }

  if (tenants > 0) {
    if (lifecycle || wide_n > 0) {
      std::fprintf(stderr,
                   "sim_runner: --tenants is incompatible with --lifecycle "
                   "and --wide_n\n");
      return 2;
    }
    return RunCatalogMode(tenants, seeds, start_seed, single_seed,
                          have_single, mutation_smoke);
  }

  geolic::SimConfig config;
  config.lifecycle_ops = lifecycle;
  // The planted bug under --mutation_smoke depends on the mode: the
  // equation-skip accounting bug for plain sweeps, the skipped-renumbering
  // reconfiguration bug when lifecycle ops are in play.
  config.inject_equation_skip = mutation_smoke && !lifecycle;
  config.inject_skip_renumbering = mutation_smoke && lifecycle;
  if (wide_n > 0) {
    config.min_licenses = static_cast<int>(wide_n);
    config.max_licenses = static_cast<int>(wide_n);
    config.cluster_slabs = static_cast<int>((wide_n + 7) / 8);
  }

  if (have_single) {
    const geolic::SimResult result = geolic::RunSimulation(single_seed, config);
    if (result.ok) {
      std::printf("seed %" PRIu64 " OK (%zu ops, digest %016" PRIx64 ")\n",
                  result.seed, result.ops_executed, result.digest);
      return 0;
    }
    PrintFailure(result, config, wide_n);
    std::printf("  full trace:\n");
    for (const std::string& op : result.op_trace) {
      std::printf("    %s\n", op.c_str());
    }
    return 1;
  }

  if (mutation_smoke) {
    // The harness is on trial: a correct harness must catch the planted
    // accounting bug within the budget.
    const uint64_t budget = seeds == 0 ? 200 : seeds;
    const char* planted =
        lifecycle ? "skipped-renumbering" : "equation-skip";
    for (uint64_t s = start_seed; s < start_seed + budget; ++s) {
      const geolic::SimResult result = geolic::RunSimulation(s, config);
      if (!result.ok) {
        std::printf("mutation smoke OK: planted %s bug caught at "
                    "seed %" PRIu64 " (%" PRIu64 " seeds tried)\n",
                    planted, s, s - start_seed + 1);
        std::printf("  failure: %s\n", result.failure.c_str());
        return 0;
      }
    }
    std::printf("mutation smoke FAILED: planted bug not caught in %" PRIu64
                " seeds — the harness has lost its teeth\n",
                budget);
    return 1;
  }

  const uint64_t sweep = seeds == 0 ? 100 : seeds;
  for (uint64_t s = start_seed; s < start_seed + sweep; ++s) {
    const geolic::SimResult result = geolic::RunSimulation(s, config);
    if (!result.ok) {
      PrintFailure(result, config, wide_n);
      return 1;
    }
    std::printf("seed %" PRIu64 " digest %016" PRIx64 "\n", s,
                result.digest);
    if ((s - start_seed + 1) % 100 == 0) {
      std::printf("  ... %" PRIu64 "/%" PRIu64 " seeds clean\n",
                  s - start_seed + 1, sweep);
      std::fflush(stdout);
    }
  }
  std::printf("OK: %" PRIu64 " seeds clean (start_seed=%" PRIu64 ")\n", sweep,
              start_seed);
  return 0;
}

// Entry point of the benchmark binary. perfbench/run.py builds and
// invokes it; it runs one workload and prints one JSON report line.
//
//   perfbench --workload <dense-churn|tenants-zipf|wire-open> --seed <n>
//             --seconds <n> --trace <0|1> --work-dir <dir> [--spans <file>]
//             [--smoke 1]
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "harness.h"
#include "util/cpu_dispatch.h"

namespace {

// Per-layer metrics a workload does not exercise are still reported (as 0)
// so every traced run carries the full set, each with its unit.
constexpr std::pair<const char*, const char*> kPerLayerUnits[] = {
    {"service.try_issue_us", "us"},     {"service.equations_per_op", "count"},
    {"service.reconfig_ms", "ms"},      {"service.accept_frac", "fraction"},
    {"service.tree_nodes", "count"},    {"service.checkpoint_ms", "ms"},
    {"core.division_ms", "ms"},         {"validation.scan_ms", "ms"},
    {"validation.equations", "count"},  {"validation.groups", "count"},
    {"persist.syncs_per_op", "count"},  {"persist.journal_bytes_per_op", "B"},
    {"persist.recover_frames", "count"}, {"persist.spill_bytes", "B"},
    {"persist.recover_tenants", "count"}, {"catalog.hit_rate", "fraction"},
    {"catalog.compiles", "count"},      {"catalog.loads", "count"},
    {"catalog.evictions", "count"},     {"catalog.spills", "count"},
    {"catalog.hit_us", "us"},           {"catalog.compile_us", "us"},
    {"catalog.load_us", "us"},          {"catalog.resident_tenants", "count"},
    {"catalog.resident_mib", "MiB"},    {"net.mean_batch", "count"},
    {"net.queue_peak", "count"},        {"net.bytes_per_req", "B"},
    {"net.shed", "count"},              {"net.protocol_errors", "count"},
    {"net.client_codec_us", "us"},      {"net.gen_late_p99_us", "us"},
    {"stage.unattributed_us", "us"},
};

// The CPUs this process may run on, ascending.
std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) {
        cpus.push_back(cpu);
      }
    }
  }
  return cpus;
}

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <n> --trace <0|1> --work-dir <dir> [--spans <file>] "
               "[--smoke 1]\n",
               message);
  std::exit(2);
}

uint64_t ParseNumber(std::string_view flag, const char* text) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') {
    Usage(("non-numeric value for " + std::string(flag)).c_str());
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) {
      Usage("missing value");
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = ParseNumber(flag, value);
    } else if (flag == "--seconds") {
      args.seconds = static_cast<int>(ParseNumber(flag, value));
    } else if (flag == "--trace") {
      args.trace = ParseNumber(flag, value) != 0;
    } else if (flag == "--smoke") {
      args.smoke = ParseNumber(flag, value) != 0;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else {
      Usage(("unknown flag " + std::string(flag)).c_str());
    }
  }
  if (args.work_dir.empty() || args.seconds < 1 ||
      (args.trace && args.spans_path.empty())) {
    Usage("--work-dir, --seconds >= 1 and (traced) --spans are required");
  }

  perfbench::Report report;
  args.cpus = AllowedCpus();
  // Thread placement is fixed for the whole run, so a run never depends on
  // where the scheduler happened to put a thread. The in-process workloads
  // are one thread, kept on the highest CPU; wire-open places its client
  // and server threads itself.
  if (args.cpus.empty() ||
      (args.workload != "wire-open" &&
       !perfbench::PinCallingThread({args.cpus.back()}))) {
    std::fprintf(stderr, "perfbench: cannot read or set the CPU mask\n");
    return 1;
  }
  if (args.workload != "wire-open") {
    report.Info("cpus_used", "1");
    report.Info("cpu_placement",
                "caller on cpu " + std::to_string(args.cpus.back()));
  }
  report.Info("cpu_tier", geolic::simd::TierName(geolic::simd::ActiveTier()));
  // Durable writes keep the product's default: fsync after every frame.
  report.Info("flush_policy", "fsync_interval=1");
  if (args.workload == "dense-churn") {
    perfbench::RunDenseChurn(args, &report);
  } else if (args.workload == "tenants-zipf") {
    perfbench::RunTenantsZipf(args, &report);
  } else if (args.workload == "wire-open") {
    perfbench::RunWireOpen(args, &report);
  } else {
    Usage("unknown workload");
  }
  const double error_frac =
      report.attempted > 0 ? static_cast<double>(report.failed) /
                                 static_cast<double>(report.attempted)
                           : 1.0;
  report.Metric("error_frac", error_frac, "fraction");
  if (args.trace) {
    for (const auto& [name, unit] : kPerLayerUnits) {
      if (!report.HasMetric(name)) {
        report.Metric(name, 0.0, unit);
      }
    }
  }
  std::printf("%s\n", report.ToJson().c_str());
  return 0;
}

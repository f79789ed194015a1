#include "harness.h"

#include <fcntl.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "util/check.h"

namespace perfbench {

using geolic::Result;
using geolic::Status;

namespace {

std::string JsonString(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char escaped[8];
          std::snprintf(escaped, sizeof(escaped), "\\u%04x", c);
          out += escaped;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

// Full precision: comparisons use the raw measured values.
std::string JsonNumber(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  char text[40];
  std::snprintf(text, sizeof(text), "%.17g", value);
  return text;
}

}  // namespace

void DieIfError(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", what,
                 status.ToString().c_str());
    std::exit(1);
  }
}

bool PinCallingThread(const std::vector<int>& cpus) {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  for (const int cpu : cpus) {
    CPU_SET(cpu, &mask);
  }
  // pid 0 is the calling thread; threads it creates inherit its mask.
  return !cpus.empty() && sched_setaffinity(0, sizeof(mask), &mask) == 0;
}

void Report::Metric(std::string name, double value, std::string unit) {
  metrics_.push_back({std::move(name), value, std::move(unit)});
}

void Report::Count(std::string name, double value) {
  counts_.push_back({std::move(name), value, ""});
}

void Report::Info(std::string name, std::string value) {
  info_.emplace_back(std::move(name), std::move(value));
}

void Report::Mismatch(std::string what) {
  std::fprintf(stderr, "perfbench: MISMATCH: %s\n", what.c_str());
  mismatches_.push_back(std::move(what));
}

bool Report::HasMetric(std::string_view name) const {
  return std::any_of(metrics_.begin(), metrics_.end(),
                     [name](const Entry& e) { return e.name == name; });
}

void Report::Absorb(const Report& other) {
  attempted += other.attempted;
  failed += other.failed;
  mismatches_.insert(mismatches_.end(), other.mismatches_.begin(),
                     other.mismatches_.end());
}

std::string Report::ToJson() const {
  std::ostringstream out;
  out << "{\"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    out << (i ? ", " : "") << JsonString(metrics_[i].name)
        << ": {\"value\": " << JsonNumber(metrics_[i].value)
        << ", \"unit\": " << JsonString(metrics_[i].unit) << "}";
  }
  out << "}, \"counts\": {";
  for (size_t i = 0; i < counts_.size(); ++i) {
    out << (i ? ", " : "") << JsonString(counts_[i].name) << ": "
        << JsonNumber(counts_[i].value);
  }
  out << "}, \"info\": {";
  for (size_t i = 0; i < info_.size(); ++i) {
    out << (i ? ", " : "") << JsonString(info_[i].first) << ": "
        << JsonString(info_[i].second);
  }
  out << "}, \"mismatches\": [";
  // The first few are enough to diagnose; the count is exact.
  const size_t shown = std::min<size_t>(mismatches_.size(), 20);
  for (size_t i = 0; i < shown; ++i) {
    out << (i ? ", " : "") << JsonString(mismatches_[i]);
  }
  out << "], \"mismatch_count\": " << mismatches_.size() << "}";
  return out.str();
}

void Latencies::Add(uint64_t nanos, uint64_t done_nanos) {
  nanos_.push_back(static_cast<double>(nanos));
  done_nanos_.push_back(done_nanos);
}

void Latencies::AddFailed(uint64_t done_nanos) {
  nanos_.push_back(std::numeric_limits<double>::infinity());
  done_nanos_.push_back(done_nanos);
}

namespace {

// Linear-interpolated q-quantile of `values` (sorted in place).
double QuantileOf(std::vector<double>* values, double q) {
  if (values->empty()) {
    return 0.0;
  }
  std::sort(values->begin(), values->end());
  const double rank = q * static_cast<double>(values->size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values->size() - 1);
  const double frac = rank - static_cast<double>(lo);
  if (std::isinf((*values)[hi])) {
    return frac == 0.0 ? (*values)[lo] : (*values)[hi];
  }
  return (*values)[lo] + frac * ((*values)[hi] - (*values)[lo]);
}

}  // namespace

double Latencies::QuantileMicros(double q) const {
  std::vector<double> all = nanos_;
  return QuantileOf(&all, q) / 1e3;
}

std::vector<double> Latencies::WindowQuantilesMicros(double q) const {
  std::vector<double> out;
  const size_t k = windows();
  for (size_t w = 0; w < k; ++w) {
    const size_t first = w * nanos_.size() / k;
    const size_t last = (w + 1) * nanos_.size() / k;
    std::vector<double> chunk(
        nanos_.begin() + static_cast<std::ptrdiff_t>(first),
        nanos_.begin() + static_cast<std::ptrdiff_t>(last));
    out.push_back(QuantileOf(&chunk, q) / 1e3);
  }
  return out;
}

double Latencies::OpsPerSecond(uint64_t start_nanos) const {
  if (nanos_.empty()) {
    return 0.0;
  }
  const size_t k = windows();
  std::vector<double> per_window;
  uint64_t window_start = start_nanos;
  for (size_t w = 0; w < k; ++w) {
    const size_t first = w * nanos_.size() / k;
    const size_t last = (w + 1) * nanos_.size() / k;
    const uint64_t window_end = done_nanos_[last - 1];
    per_window.push_back(static_cast<double>(last - first) * 1e9 /
                         static_cast<double>(window_end - window_start));
    window_start = window_end;
  }
  return Median(per_window);
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double InterquartileMean(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t first = values.size() / 4;
  const size_t last = values.size() - values.size() / 4;
  double sum = 0;
  for (size_t i = first; i < last; ++i) {
    sum += values[i];
  }
  return sum / static_cast<double>(last - first);
}

void ReportLatency(const Latencies& latency, uint64_t start_nanos,
                   Report* report) {
  report->Metric("ops_per_s", latency.OpsPerSecond(start_nanos), "1/s");
  report->Metric("p50_us", latency.QuantileMicros(0.50), "us");
  report->Metric("p99_us", latency.QuantileMicros(0.99), "us");
  report->Metric("p99_window_us", Median(latency.WindowQuantilesMicros(0.99)),
                 "us");
  report->Info("latency_samples", std::to_string(latency.size()));
  report->Info("latency_windows", std::to_string(latency.windows()) + " x " +
                                      std::to_string(Latencies::kWindowOps));
}

int32_t SpanLog::Begin(uint64_t request, const char* layer,
                       const char* call) {
  const int32_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({request, parent, layer, call, NowNanos(), 0});
  const int32_t index = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void SpanLog::End(int32_t index) {
  spans_[static_cast<size_t>(index)].end_nanos = NowNanos();
  GEOLIC_CHECK(!open_.empty() && open_.back() == index);
  open_.pop_back();
}

std::vector<double> SpanLog::DurationsMicros(std::string_view layer,
                                             std::string_view call) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (layer == span.layer && call == span.call) {
      out.push_back(static_cast<double>(span.end_nanos - span.start_nanos) /
                    1e3);
    }
  }
  return out;
}

Status WriteSpans(const std::string& path,
                  std::initializer_list<const SpanLog*> logs) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return Status::IoError("cannot write spans to " + path);
  }
  out << "log\tindex\trequest\tparent\tlayer\tcall\tstart_ns\tend_ns\n";
  int log_index = 0;
  for (const SpanLog* log : logs) {
    for (size_t i = 0; i < log->spans().size(); ++i) {
      const Span& span = log->spans()[i];
      out << log_index << '\t' << i << '\t' << span.request << '\t'
          << span.parent << '\t' << span.layer << '\t' << span.call << '\t'
          << span.start_nanos << '\t' << span.end_nanos << '\n';
    }
    ++log_index;
  }
  out.flush();
  return out ? Status::Ok() : Status::IoError("short write to " + path);
}

Result<std::unique_ptr<geolic::SyncFile>> CountingSyncFile::Open(
    const std::string& path, std::atomic<uint64_t>* syncs, SpanLog* spans) {
  Result<std::unique_ptr<geolic::PosixSyncFile>> file =
      geolic::PosixSyncFile::Create(path);
  if (!file.ok()) {
    return file.status();
  }
  return std::unique_ptr<geolic::SyncFile>(
      new CountingSyncFile(std::move(*file), syncs, spans));
}

Status CountingSyncFile::Append(std::string_view data) {
  ScopedSpan span(spans_, "persist", "SyncFile::Append");
  return file_->Append(data);
}

Status CountingSyncFile::Sync() {
  syncs_->fetch_add(1, std::memory_order_relaxed);
  ScopedSpan span(spans_, "persist", "SyncFile::Sync");
  return file_->Sync();
}

Status CountingSyncFile::Close() { return file_->Close(); }

void RunPasses(const Args& args, Report* report,
               const std::function<double(bool, Report*)>& pass) {
  if (!args.trace) {
    pass(false, report);
    return;
  }
  Report untraced;
  const double base_p50_us = pass(false, &untraced);
  report->Absorb(untraced);
  const double traced_p50_us = pass(true, report);
  report->Metric("obs.trace_overhead_frac", traced_p50_us / base_p50_us - 1.0,
                 "fraction");
}

void SyncFilesystem(const std::string& dir) {
  const int fd = open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0 || syncfs(fd) != 0) {
    std::perror("perfbench: syncfs");
    std::exit(1);
  }
  close(fd);
}

double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

uint64_t FileBytes(const std::string& dir, std::string_view prefix) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) == 0 && entry.is_regular_file(ec)) {
      total += entry.file_size(ec);
    }
  }
  return total;
}

namespace {

// The stages the benchmark attributes time to (every stage but the
// instance-check umbrella, which instance_soa_scan refines).
using geolic::TraceStage;
constexpr TraceStage kReportedStages[] = {
    TraceStage::kInstanceSoaScan, TraceStage::kShardLockWait,
    TraceStage::kEquationScan,    TraceStage::kJournalAppend,
    TraceStage::kJournalFsync,    TraceStage::kShardSwap,
    TraceStage::kCheckpointWrite, TraceStage::kRecoveryReplay,
    TraceStage::kTreeDivision,    TraceStage::kOfflineValidation,
    TraceStage::kNetRead,         TraceStage::kNetBatchWait,
    TraceStage::kNetWrite,        TraceStage::kCatalogCompile,
    TraceStage::kCatalogEvict,
};

std::vector<double> StageMicros(const std::vector<geolic::TraceSpan>& spans,
                                geolic::TraceStage stage) {
  std::vector<double> out;
  for (const geolic::TraceSpan& span : spans) {
    if (span.stage == stage) {
      out.push_back(static_cast<double>(span.duration_nanos) / 1e3);
    }
  }
  return out;
}

}  // namespace

void ReportStages(const geolic::Tracer& tracer, Report* report) {
  const std::vector<geolic::TraceSpan> spans = tracer.CollectSpans();
  const geolic::StageProfile::Snapshot profile = tracer.ProfileSnapshot();
  for (const geolic::TraceStage stage : kReportedStages) {
    std::vector<double> micros = StageMicros(spans, stage);
    const std::string name =
        std::string("stage.") + geolic::TraceStageName(stage);
    report->Metric(name + "_p50_us", QuantileOf(&micros, 0.50), "us");
    report->Metric(name + "_p99_us", QuantileOf(&micros, 0.99), "us");
    report->Info(name + "_spans",
                 std::to_string(profile.stage(stage).total_count));
  }
  report->Info("trace_spans_recorded",
               std::to_string(tracer.spans_recorded()));
  report->Info("trace_ring_capacity", std::to_string(tracer.ring_capacity()));
}

double StageP50Micros(const geolic::Tracer& tracer,
                      geolic::TraceStage stage) {
  std::vector<double> micros = StageMicros(tracer.CollectSpans(), stage);
  return QuantileOf(&micros, 0.50);
}

geolic::TracerOptions TracerFor(size_t expected_spans) {
  geolic::TracerOptions options;
  size_t capacity = 4096;
  while (capacity < expected_spans && capacity < (size_t{1} << 22)) {
    capacity <<= 1;
  }
  options.ring_capacity = capacity;
  return options;
}

}  // namespace perfbench

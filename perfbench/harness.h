// Shared plumbing of the end-to-end benchmark binary: arguments, the
// metric report, latency summaries, the benchmark's own layer spans, and a
// counting SyncFile that attributes durable writes to the persist layer.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"
#include "persist/sync_file.h"
#include "util/status.h"

namespace perfbench {

// Set-up and harness steps that must not fail: on error, print the status
// and exit non-zero (the run then reports no result).
void DieIfError(const geolic::Status& status, const char* what);

template <typename T>
T ValueOrDie(geolic::Result<T> result, const char* what) {
  DieIfError(result.status(), what);
  return std::move(*result);
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  bool smoke = false;      // Tiny sizes: the self-test runs every workload.
  std::string work_dir;    // Scratch directory for durable files.
  std::string spans_path;  // Traced runs write their spans here.
  std::vector<int> cpus;   // CPUs the process may run on, ascending.
};

// Restricts the calling thread, and every thread it starts afterwards, to
// `cpus`. Returns false if the mask cannot be set.
bool PinCallingThread(const std::vector<int>& cpus);

inline uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Everything one run reports. `metrics` are printed by name with their
// unit; `counts` are the exact counts that must repeat bit-for-bit for a
// fixed seed; `mismatches` are correctness failures (any one fails the
// run).
class Report {
 public:
  void Metric(std::string name, double value, std::string unit);
  void Count(std::string name, double value);
  void Info(std::string name, std::string value);
  void Mismatch(std::string what);
  // Takes over another report's op accounting and correctness failures
  // (the untraced pass of a traced run), not its metrics.
  void Absorb(const Report& other);

  // Ops attempted and ops that failed (non-OK status, shed, protocol error
  // or verification mismatch).
  uint64_t attempted = 0;
  uint64_t failed = 0;

  size_t mismatch_count() const { return mismatches_.size(); }
  bool HasMetric(std::string_view name) const;

  // One JSON object on one line.
  std::string ToJson() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::vector<Entry> counts_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::vector<std::string> mismatches_;
};

// Latency samples of one op stream, in completion order. A failed op is
// recorded as missing every limit (+infinity), so it lands above any
// percentile it reaches.
//
// Throughput is read per sub-window of kWindowOps ops (ten samples beyond
// p99 in each) and the median taken, so one burst of CPU time the host
// takes away (several ms at a time on this class of shared virtual
// machine) does not decide the run's figure.
class Latencies {
 public:
  static constexpr size_t kWindowOps = 1000;

  void Reserve(size_t n) {
    nanos_.reserve(n);
    done_nanos_.reserve(n);
  }
  // `done_nanos`: when the op completed (for per-window throughput).
  void Add(uint64_t nanos, uint64_t done_nanos);
  void AddFailed(uint64_t done_nanos);
  // An op found wrong after the window (by a correctness check).
  void MarkFailed(size_t index) {
    nanos_[index] = std::numeric_limits<double>::infinity();
  }
  bool failed(size_t index) const {
    return nanos_[index] == std::numeric_limits<double>::infinity();
  }
  size_t size() const { return nanos_.size(); }
  size_t windows() const { return std::max<size_t>(size() / kWindowOps, 1); }

  // Whole-run q-quantile, in microseconds.
  double QuantileMicros(double q) const;
  // Per-window q-quantiles (microseconds), in window order.
  std::vector<double> WindowQuantilesMicros(double q) const;
  // Median over sub-windows of ops completed per second, measured from
  // `start_nanos` (when the first op was issued).
  double OpsPerSecond(uint64_t start_nanos) const;

 private:
  std::vector<double> nanos_;
  std::vector<uint64_t> done_nanos_;
};

double Median(std::vector<double> values);

// Mean of the middle half of `values` (between the quartiles). On a shared
// virtual machine the host's speed switches between states within seconds,
// so repeated timings are a mixture of modes: a median jumps between them
// as their shares cross one half, while this mean moves with the shares
// and still drops one-off stalls.
double InterquartileMean(std::vector<double> values);

// Audits and recoveries take milliseconds. After the window they are
// timed alternately, each at least `min_reps` times, for at least this
// long, so both sample the same seconds of the host's changing speed.
constexpr double kAfterWindowSeconds = 1.0;

// Times `f` at least `min_reps` times and until `min_seconds` have passed;
// returns each call's duration in milliseconds.
template <typename F>
std::vector<double> RepeatMillis(int min_reps, double min_seconds, F&& f) {
  std::vector<double> ms;
  const uint64_t until = NowNanos() + static_cast<uint64_t>(min_seconds * 1e9);
  while (static_cast<int>(ms.size()) < min_reps || NowNanos() < until) {
    const uint64_t start = NowNanos();
    f(static_cast<int>(ms.size()));
    ms.push_back(static_cast<double>(NowNanos() - start) / 1e6);
  }
  return ms;
}

// Runs `first` and `second` alternately until each has run `min_reps`
// times and `seconds` have passed. Each returns its own timed duration in
// milliseconds (so work outside its timer, such as freeing the previous
// result, is not counted); the durations go to `first_ms` / `second_ms`.
template <typename F, typename G>
void AlternateMillis(int min_reps, double seconds, F&& first, G&& second,
                     std::vector<double>* first_ms,
                     std::vector<double>* second_ms) {
  const uint64_t until = NowNanos() + static_cast<uint64_t>(seconds * 1e9);
  while (static_cast<int>(first_ms->size()) < min_reps ||
         NowNanos() < until) {
    first_ms->push_back(first());
    second_ms->push_back(second());
  }
}

// Reports ops_per_s and p50_us of one measured window, and its tail as
// diagnostics: p99_us over the whole run and p99_window_us, the median over
// sub-windows of each one's p99. Tails are not gated: on a shared virtual
// machine the host's scheduling stalls decide them (wire-open's whole-run
// p99 moved 4x between runs of the same code).
void ReportLatency(const Latencies& latency, uint64_t start_nanos,
                   Report* report);

// The benchmark's own spans around calls into each layer's public
// functions. Spans of one request share `request`; `parent` is the index
// of the enclosing span (-1 = a root).
struct Span {
  uint64_t request;
  int32_t parent;
  const char* layer;  // "service", "catalog", "persist", "net", ...
  const char* call;   // The public function wrapped.
  uint64_t start_nanos;
  uint64_t end_nanos;
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  // Opens a span; returns its index (or -1 when disabled).
  int32_t Begin(uint64_t request, const char* layer, const char* call);
  void End(int32_t index);

  // The request id and innermost open span new spans nest under.
  uint64_t current_request() const { return current_request_; }
  void set_current_request(uint64_t request) { current_request_ = request; }

  const std::vector<Span>& spans() const { return spans_; }

  // Durations (microseconds) of every span matching layer and call.
  std::vector<double> DurationsMicros(std::string_view layer,
                                      std::string_view call) const;

 private:
  bool enabled_;
  uint64_t current_request_ = 0;
  std::vector<int32_t> open_;
  std::vector<Span> spans_;
};

// Writes every span of `logs` (one per thread that recorded) as
// tab-separated lines; `parent` indexes spans of the same log.
geolic::Status WriteSpans(const std::string& path,
                          std::initializer_list<const SpanLog*> logs);

// RAII span guard; a no-op when the log is disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* layer, const char* call)
      : log_(log),
        index_(log->enabled() ? log->Begin(log->current_request(), layer, call)
                              : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) {
      log_->End(index_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int32_t index_;
};

// PosixSyncFile wrapper that counts Sync() calls into `*syncs` and records
// persist-layer spans for appends and syncs when the span log is enabled.
// Used through JournalWriter::Create and
// CatalogOptions::journal_file_factory.
class CountingSyncFile : public geolic::SyncFile {
 public:
  static geolic::Result<std::unique_ptr<geolic::SyncFile>> Open(
      const std::string& path, std::atomic<uint64_t>* syncs, SpanLog* spans);

  geolic::Status Append(std::string_view data) override;
  geolic::Status Sync() override;
  geolic::Status Close() override;

 private:
  CountingSyncFile(std::unique_ptr<geolic::PosixSyncFile> file,
                   std::atomic<uint64_t>* syncs, SpanLog* spans)
      : file_(std::move(file)), syncs_(syncs), spans_(spans) {}

  std::unique_ptr<geolic::PosixSyncFile> file_;
  std::atomic<uint64_t>* syncs_;
  SpanLog* spans_;
};

// Writes back everything pending on the filesystem holding `dir` (syncfs),
// so a timed phase does not pay for writes made before it, by this run or
// the one before. Called outside every timer.
void SyncFilesystem(const std::string& dir);

// Peak resident set of this process (VmHWM), in MiB.
double PeakRssMib();

// Sum of the sizes of the regular files directly inside `dir` whose names
// start with `prefix`, read from outside the program.
uint64_t FileBytes(const std::string& dir, std::string_view prefix);

// Per-stage p50/p99 (microseconds) of the program's own trace spans, plus
// the stage profile's totals, reported as stage.<name>_p50_us/_p99_us for
// every stage the benchmark names. Stages with no spans report 0.
void ReportStages(const geolic::Tracer& tracer, Report* report);

// p50 (microseconds) of one program trace stage, from the tracer's span
// ring; 0 when the stage recorded nothing.
double StageP50Micros(const geolic::Tracer& tracer, geolic::TraceStage stage);

// Tracer sized so the span ring keeps every span of a run.
geolic::TracerOptions TracerFor(size_t expected_spans);

// Runs a workload's measured pass: once untraced, or, for a traced run, an
// untraced pass (its p50 is the baseline of obs.trace_overhead_frac, and
// its failures count) followed by the traced pass that reports the
// per-layer metrics. `pass(traced, report)` returns the pass's p50 in
// microseconds.
void RunPasses(const Args& args, Report* report,
               const std::function<double(bool, Report*)>& pass);

// Workload entry points: each fills `report` (a step that cannot run at
// all exits through DieIfError).
void RunDenseChurn(const Args& args, Report* report);
void RunTenantsZipf(const Args& args, Report* report);
void RunWireOpen(const Args& args, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_

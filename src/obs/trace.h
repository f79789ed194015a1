#ifndef GEOLIC_OBS_TRACE_H_
#define GEOLIC_OBS_TRACE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/metrics.h"

namespace geolic {

// One pipeline stage of the request path. The taxonomy mirrors the paper's
// cost decomposition: instance check + equation scan are the online
// validation work, tree division / offline validation are D_T / V_T of
// Figs. 7-8, and the remaining stages are the service machinery around
// them (lock acquisition, durability, recovery).
enum class TraceStage : uint8_t {
  kInstanceCheck = 0,    // Satisfying-set lookup by per-rect probe; no
                         // production path records it any more.
  kShardLockWait,        // Time blocked acquiring the service lock (the
                         // name predates the one lock).
  kEquationScan,         // Per-group validation-equation evaluation.
  kJournalAppend,        // WAL frame append (may include an inline fsync).
  kJournalFsync,         // fsync of the journal file.
  kCheckpointWrite,      // IssuanceService::WriteCheckpoint body.
  kRecoveryReplay,       // IssuanceService::Recover replay + verification.
  kTreeDivision,         // Offline D_T: tree build / arena compile.
  kOfflineValidation,    // Offline V_T: equation-engine run.
  kInstanceSoaScan,      // SIMD SoA column sweep of the satisfying-set
                         // lookup (IssuanceService's instance check).
  kShardSwap,            // Catalog reconfiguration under the service
                         // lock: the next epoch's build, the carry of the
                         // accepted sets, the journal frame and the swap
                         // (acquire/revoke/expire).
  kNetRead,              // Socket readable to a complete decoded frame
                         // (recv + ring append + incremental decode).
  kNetBatchWait,         // Frame decoded to its admission at the end of
                         // the reactor turn (the coalescing window a
                         // request waits through before TryIssueBatch).
  kNetWrite,             // Response encode + send, including any EAGAIN
                         // re-arm time until the last byte leaves the ring.
  kCatalogCompile,       // Multi-tenant catalog: materializing a tenant's
                         // IssuanceService (first-touch compile from the
                         // tenant source, or reload from a spill
                         // checkpoint on re-access after eviction).
  kCatalogEvict,         // Multi-tenant catalog: spilling a cold tenant to
                         // its checkpoint and freeing its resident state.
};

inline constexpr int kTraceStageCount = 16;

// Stable snake_case name used in exposition labels ("instance_check", ...).
const char* TraceStageName(TraceStage stage);

// How the timed operation ended.
enum class TraceOutcome : uint8_t {
  kOk = 0,
  kAccepted,
  kRejectedInstance,
  kRejectedAggregate,
  kError,
};

// One fixed-size span record. start_nanos is a process-local monotonic
// timestamp (steady clock since epoch), comparable across threads within a
// run but meaningless across processes.
//
// Deliberately no default member initializers: RequestTrace keeps an array
// of these on the stack of every (possibly untraced) request, and zeroing
// it would cost more than the rest of the untraced fast path combined.
// Write `TraceSpan span{};` for a zeroed span (request_id 0, stage
// kInstanceCheck, outcome kOk).
struct TraceSpan {
  uint64_t request_id;  // 0 = not tied to a request (standalone span).
  uint64_t start_nanos;
  uint64_t duration_nanos;
  TraceStage stage;
  TraceOutcome outcome;
};

// Monotonic timestamp source for spans.
inline uint64_t TraceNowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Per-stage latency histograms, aggregated from every recorded span. All
// methods are thread-safe (the histograms are lock-free).
class StageProfile {
 public:
  void Record(TraceStage stage, uint64_t duration_nanos) {
    histograms_[static_cast<size_t>(stage)].Record(
        static_cast<int64_t>(duration_nanos));
  }

  struct Snapshot {
    std::array<LatencyHistogram::Snapshot, kTraceStageCount> stages{};

    const LatencyHistogram::Snapshot& stage(TraceStage s) const {
      return stages[static_cast<size_t>(s)];
    }
  };
  Snapshot Snap() const {
    Snapshot snapshot;
    for (int s = 0; s < kTraceStageCount; ++s) {
      snapshot.stages[static_cast<size_t>(s)] =
          histograms_[static_cast<size_t>(s)].Snap();
    }
    return snapshot;
  }

 private:
  std::array<LatencyHistogram, kTraceStageCount> histograms_;
};

// The full span chain of one slow request, kept verbatim for post-mortems.
struct SlowRequestSample {
  uint64_t request_id = 0;
  uint64_t total_nanos = 0;  // First span start to last span end.
  std::vector<TraceSpan> spans;
};

struct TracerOptions {
  // Span ring capacity; rounded up to a power of two, minimum 64.
  size_t ring_capacity = 4096;
  // Requests whose span chain covers more than this keep their full chain
  // in the slow-sample buffer. <= 0 disables slow sampling.
  int64_t slow_request_nanos = 1'000'000;  // 1 ms
  // Bounded slow-sample buffer: the newest samples win.
  size_t max_slow_samples = 64;
  // Trace one in `sample_period` requests (rounded up to a power of two;
  // 1 = trace everything). Sampling gates RequestTrace only — standalone
  // ScopedTracerSpans (checkpoints, recovery, fsyncs) always record. An
  // untraced request costs one relaxed counter bump and no clock reads,
  // which is what keeps an attached tracer affordable on nanosecond-scale
  // admissions; sampled-out requests can also never be slow-sampled, so
  // pick 1 when hunting a rare outlier.
  uint32_t sample_period = 1;
};

// Thread-safe, low-overhead span sink: a fixed-size seqlock ring of span
// records plus per-stage latency histograms and a bounded slow-request
// buffer. Recording a span is an atomic ticket fetch-add, a version CAS,
// five relaxed stores, and two histogram RMWs — no locks on the hot path.
//
// The ring is diagnostic, not transactional: a reader that races a writer
// on the same slot detects the torn slot via its version word and skips it,
// a writer overwrites the oldest span, and a writer lapped by a full ring
// wrap (the slot is mid-write or holds a newer span) drops its own span.
class Tracer {
 public:
  explicit Tracer(const TracerOptions& options = {});

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Monotonic per-tracer request id (first id is 1).
  uint64_t NextRequestId() {
    return next_request_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  // 1-in-sample_period round-robin admission of a new RequestTrace. The
  // counter is thread-local (and shared by every Tracer on the thread),
  // not a shared atomic: an untraced request must not pay a contended
  // cache line, only an increment and a mask. Any window of k*period
  // consecutive requests on one thread still traces exactly k of them;
  // only the phase is arbitrary.
  bool SampleRequest() {
    if (sample_mask_ == 0) {
      return true;
    }
    thread_local uint64_t requests_seen = 0;
    return (requests_seen++ & sample_mask_) == 0;
  }

  // Records one span into the ring and the stage profile.
  void Record(const TraceSpan& span);

  // Records a request's whole span chain: every span goes through
  // Record(), and when the chain's wall span exceeds the slow threshold
  // the chain is copied into the slow-sample buffer.
  void RecordChain(const TraceSpan* spans, size_t count);

  // Best-effort snapshot of the ring in append order (oldest surviving
  // span first). Slots being written concurrently are skipped.
  std::vector<TraceSpan> CollectSpans() const;

  // Aggregated per-stage latency histograms.
  StageProfile::Snapshot ProfileSnapshot() const { return profile_.Snap(); }

  // Slow requests captured so far, oldest first.
  std::vector<SlowRequestSample> SlowSamples() const;

  // Total spans ever recorded (>= ring capacity means the ring wrapped).
  uint64_t spans_recorded() const {
    return next_ticket_.load(std::memory_order_relaxed);
  }
  // Spans that never reached the ring: their writer was lapped by a full
  // ring wrap (the stage profile still counts them).
  uint64_t spans_dropped() const {
    return spans_dropped_.load(std::memory_order_relaxed);
  }
  // Requests that crossed the slow threshold (including ones whose sample
  // was later evicted from the bounded buffer).
  uint64_t slow_requests() const {
    return slow_requests_.load(std::memory_order_relaxed);
  }

  size_t ring_capacity() const { return slots_.size(); }
  const TracerOptions& options() const { return options_; }

 private:
  // Seqlock slot: version is odd while a writer is mid-store; an even
  // version 2t+2 marks the stable payload of ticket t. Every field is an
  // atomic, so a torn slot yields a skipped read, never a data race.
  struct Slot {
    std::atomic<uint64_t> version{0};
    std::atomic<uint64_t> request_id{0};
    std::atomic<uint64_t> start_nanos{0};
    std::atomic<uint64_t> duration_nanos{0};
    std::atomic<uint64_t> stage_outcome{0};  // stage | outcome << 8.
  };

  TracerOptions options_;
  std::vector<Slot> slots_;
  uint64_t slot_mask_;
  uint64_t sample_mask_;
  std::atomic<uint64_t> next_ticket_{0};
  std::atomic<uint64_t> next_request_id_{0};
  std::atomic<uint64_t> spans_dropped_{0};
  StageProfile profile_;

  std::atomic<uint64_t> slow_requests_{0};
  mutable std::mutex slow_mutex_;
  std::deque<SlowRequestSample> slow_samples_;  // Guarded by slow_mutex_.
};

// Collects the spans of one request on the caller's stack and flushes them
// to the tracer in one RecordChain call when the request finishes. With a
// null tracer every operation is a no-op and no clock is read.
//
// Adjacent spans share a timestamp: a span that begins right after another
// ended reuses that end timestamp as its start, so the hot path pays one
// clock read per stage boundary instead of two (the instrumented stages
// are back-to-back; any gap between them is attributed to the later span).
class RequestTrace {
 public:
  static constexpr size_t kMaxSpans = 12;

#ifdef GEOLIC_DISABLE_TRACING
  explicit RequestTrace(Tracer* tracer)
      : tracer_(nullptr), request_id_(0) {
    (void)tracer;
  }
#else
  explicit RequestTrace(Tracer* tracer)
      : tracer_(tracer != nullptr && tracer->SampleRequest() ? tracer
                                                             : nullptr),
        request_id_(tracer_ != nullptr ? tracer_->NextRequestId() : 0) {}
#endif

  RequestTrace(const RequestTrace&) = delete;
  RequestTrace& operator=(const RequestTrace&) = delete;

  ~RequestTrace() {
    if (!finished_) {
      Finish(TraceOutcome::kOk);
    }
  }

  bool enabled() const { return tracer_ != nullptr; }
  uint64_t request_id() const { return request_id_; }
  size_t span_count() const { return count_; }
  // Spans that did not fit in the fixed chain (flushed-less, but counted).
  size_t spans_dropped() const { return dropped_; }

  // Stamps `outcome` on the chain's last span and flushes everything to
  // the tracer. Idempotent; the destructor calls it with kOk if the caller
  // did not.
  void Finish(TraceOutcome outcome) {
    if (finished_) {
      return;
    }
    finished_ = true;
    if (tracer_ == nullptr || count_ == 0) {
      return;
    }
    spans_[count_ - 1].outcome = outcome;
    tracer_->RecordChain(spans_.data(), count_);
  }

  // Appends a completed span. Chains longer than kMaxSpans drop the
  // overflow (counted in spans_dropped).
  void Add(TraceStage stage, uint64_t start_nanos, uint64_t end_nanos) {
    pending_end_nanos_ = end_nanos;
    if (count_ == kMaxSpans) {
      ++dropped_;
      return;
    }
    TraceSpan& span = spans_[count_++];
    span.request_id = request_id_;
    span.stage = stage;
    span.outcome = TraceOutcome::kOk;
    span.start_nanos = start_nanos;
    span.duration_nanos = end_nanos - start_nanos;
  }

  // Start timestamp for the next span: the previous span's end when the
  // stages are adjacent, else a fresh clock read.
  uint64_t NextStartNanos() {
    if (pending_end_nanos_ != 0) {
      const uint64_t start = pending_end_nanos_;
      pending_end_nanos_ = 0;
      return start;
    }
    return TraceNowNanos();
  }

 private:
  Tracer* tracer_;
  uint64_t request_id_;
  std::array<TraceSpan, kMaxSpans> spans_;
  size_t count_ = 0;
  size_t dropped_ = 0;
  uint64_t pending_end_nanos_ = 0;
  bool finished_ = false;
};

// RAII timer for one stage of a traced request. Compiled out entirely when
// GEOLIC_DISABLE_TRACING is defined; otherwise the disabled-at-runtime
// path (null tracer) costs one branch and no clock reads.
class ScopedStageTimer {
 public:
#ifdef GEOLIC_DISABLE_TRACING
  ScopedStageTimer(RequestTrace*, TraceStage) {}
#else
  ScopedStageTimer(RequestTrace* trace, TraceStage stage)
      : trace_(trace->enabled() ? trace : nullptr), stage_(stage) {
    if (trace_ != nullptr) {
      start_nanos_ = trace_->NextStartNanos();
    }
  }
  ~ScopedStageTimer() {
    if (trace_ != nullptr) {
      trace_->Add(stage_, start_nanos_, TraceNowNanos());
    }
  }
#endif

  ScopedStageTimer(const ScopedStageTimer&) = delete;
  ScopedStageTimer& operator=(const ScopedStageTimer&) = delete;

#ifndef GEOLIC_DISABLE_TRACING
 private:
  RequestTrace* trace_;
  TraceStage stage_;
  uint64_t start_nanos_ = 0;
#endif
};

// RAII timer for a standalone (request-less) span: checkpoint writes,
// recovery replays, journal fsyncs, offline D_T / V_T. Records straight to
// the tracer with request_id 0. Null tracer = no-op, no clock reads.
class ScopedTracerSpan {
 public:
#ifdef GEOLIC_DISABLE_TRACING
  ScopedTracerSpan(Tracer*, TraceStage) {}
  void set_outcome(TraceOutcome) {}
#else
  ScopedTracerSpan(Tracer* tracer, TraceStage stage)
      : tracer_(tracer), stage_(stage) {
    if (tracer_ != nullptr) {
      start_nanos_ = TraceNowNanos();
    }
  }
  ~ScopedTracerSpan() {
    if (tracer_ != nullptr) {
      TraceSpan span;
      span.request_id = 0;
      span.stage = stage_;
      span.outcome = outcome_;
      span.start_nanos = start_nanos_;
      span.duration_nanos = TraceNowNanos() - start_nanos_;
      tracer_->Record(span);
    }
  }
  void set_outcome(TraceOutcome outcome) { outcome_ = outcome; }
#endif

  ScopedTracerSpan(const ScopedTracerSpan&) = delete;
  ScopedTracerSpan& operator=(const ScopedTracerSpan&) = delete;

#ifndef GEOLIC_DISABLE_TRACING
 private:
  Tracer* tracer_;
  TraceStage stage_;
  TraceOutcome outcome_ = TraceOutcome::kOk;
  uint64_t start_nanos_ = 0;
#endif
};

}  // namespace geolic

#endif  // GEOLIC_OBS_TRACE_H_

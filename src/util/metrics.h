#ifndef GEOLIC_UTIL_METRICS_H_
#define GEOLIC_UTIL_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

namespace geolic {

// Lock-free power-of-two latency histogram: bucket i counts observations
// with floor(log2(nanos)) == i (bucket 0 additionally absorbs 0 ns). 40
// buckets cover 1 ns .. ~18 min, which bounds any single issuance. All
// methods are safe to call concurrently; Record is two relaxed atomic RMWs.
class LatencyHistogram {
 public:
  static constexpr int kBuckets = 40;

  void Record(int64_t nanos);

  // Consistent-enough copy of the counters (relaxed loads; buckets recorded
  // concurrently with the snapshot may or may not be included).
  struct Snapshot {
    std::array<uint64_t, kBuckets> counts{};
    uint64_t total_count = 0;
    uint64_t total_nanos = 0;  // Sum of recorded latencies.
    // Observations that arrived negative (cross-thread timestamp math can
    // produce deltas < 0) and were clamped into bucket 0. They are included
    // in counts/total_count; this counter makes the clamping observable
    // instead of silently misfiling them.
    uint64_t clamped_negative = 0;

    double MeanNanos() const;
    // Upper bound of the bucket holding the p-quantile (p in [0, 1]); the
    // histogram's resolution is the power-of-two bucket width.
    int64_t QuantileUpperBoundNanos(double p) const;
    // "count=…, mean=…, p50≤…, p99≤…" one-liner for logs and benches.
    std::string ToString() const;
  };
  Snapshot Snap() const;

 private:
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<uint64_t> total_count_{0};
  std::atomic<uint64_t> total_nanos_{0};
  std::atomic<uint64_t> clamped_negative_{0};
};

// Atomic metrics block for the online issuance path: IssuanceService's
// decision counters and latency (its own block, or the caller's through
// OnlineValidatorOptions::metrics). Every method is thread-safe; counters
// use relaxed ordering — they are statistics, not synchronization.
class IssuanceMetrics {
 public:
  // One decision outcome. `equations` is the number of validation equations
  // checked for the request; `nanos` the request's wall latency.
  void RecordAccepted(uint64_t equations, int64_t nanos);
  void RecordRejectedInstance(int64_t nanos);
  void RecordRejectedAggregate(uint64_t equations, int64_t nanos);
  // One TryIssueBatch call admitting `size` requests.
  void RecordBatch(uint64_t size);

  struct Snapshot {
    uint64_t accepted = 0;
    uint64_t rejected_instance = 0;
    uint64_t rejected_aggregate = 0;
    uint64_t equations_checked = 0;
    uint64_t batches = 0;
    uint64_t batched_requests = 0;
    LatencyHistogram::Snapshot latency;

    uint64_t total_requests() const {
      return accepted + rejected_instance + rejected_aggregate;
    }
    std::string ToString() const;
  };
  Snapshot Snap() const;

 private:
  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> rejected_instance_{0};
  std::atomic<uint64_t> rejected_aggregate_{0};
  std::atomic<uint64_t> equations_checked_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> batched_requests_{0};
  LatencyHistogram latency_;
};

}  // namespace geolic

#endif  // GEOLIC_UTIL_METRICS_H_

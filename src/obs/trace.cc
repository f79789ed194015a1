#include "obs/trace.h"

#include <algorithm>
#include <bit>
#include <utility>

namespace geolic {

const char* TraceStageName(TraceStage stage) {
  switch (stage) {
    case TraceStage::kInstanceCheck:
      return "instance_check";
    case TraceStage::kShardLockWait:
      return "shard_lock_wait";
    case TraceStage::kEquationScan:
      return "equation_scan";
    case TraceStage::kJournalAppend:
      return "journal_append";
    case TraceStage::kJournalFsync:
      return "journal_fsync";
    case TraceStage::kCheckpointWrite:
      return "checkpoint_write";
    case TraceStage::kRecoveryReplay:
      return "recovery_replay";
    case TraceStage::kTreeDivision:
      return "tree_division";
    case TraceStage::kOfflineValidation:
      return "offline_validation";
    case TraceStage::kInstanceSoaScan:
      return "instance_soa_scan";
    case TraceStage::kShardSwap:
      return "shard_swap";
    case TraceStage::kNetRead:
      return "net_read";
    case TraceStage::kNetBatchWait:
      return "net_batch_wait";
    case TraceStage::kNetWrite:
      return "net_write";
    case TraceStage::kCatalogCompile:
      return "catalog_compile";
    case TraceStage::kCatalogEvict:
      return "catalog_evict";
  }
  return "unknown";
}

namespace {

// GCC's -Wtsan flags fences because TSan cannot model fence-based
// synchronization of *non-atomic* accesses. Every slot field is itself an
// atomic, so TSan's race analysis is unaffected; the fences only order the
// seqlock's version accesses against the field accesses.
void SeqlockFence(std::memory_order order) {
#if defined(__GNUC__) && !defined(__clang__) && defined(__SANITIZE_THREAD__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wtsan"
#endif
  std::atomic_thread_fence(order);
#if defined(__GNUC__) && !defined(__clang__) && defined(__SANITIZE_THREAD__)
#pragma GCC diagnostic pop
#endif
}

}  // namespace

Tracer::Tracer(const TracerOptions& options) : options_(options) {
  const size_t capacity = std::bit_ceil(std::max<size_t>(options.ring_capacity, 64));
  slots_ = std::vector<Slot>(capacity);
  slot_mask_ = capacity - 1;
  sample_mask_ =
      std::bit_ceil(std::max<uint64_t>(options.sample_period, 1)) - 1;
}

void Tracer::Record(const TraceSpan& span) {
  profile_.Record(span.stage, span.duration_nanos);
  const uint64_t ticket = next_ticket_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[ticket & slot_mask_];
  // Seqlock write: odd version while the payload stores are in flight, so
  // a concurrent CollectSpans skips the slot instead of reading a torn
  // span. The odd version is claimed by CAS from an older ticket's even
  // one, so only one writer at a time stores into the slot: a writer
  // lapped by a full ring wrap, which finds the slot mid-write or already
  // holding a newer span, drops its own span instead.
  uint64_t seen = slot.version.load(std::memory_order_relaxed);
  if ((seen & 1) != 0 || seen > 2 * ticket ||
      !slot.version.compare_exchange_strong(seen, 2 * ticket + 1,
                                            std::memory_order_relaxed)) {
    spans_dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // The payload stores stay after the odd version: a reader whose loads
  // see any of them rereads a version that has moved on.
  SeqlockFence(std::memory_order_release);
  slot.request_id.store(span.request_id, std::memory_order_relaxed);
  slot.start_nanos.store(span.start_nanos, std::memory_order_relaxed);
  slot.duration_nanos.store(span.duration_nanos, std::memory_order_relaxed);
  slot.stage_outcome.store(static_cast<uint64_t>(span.stage) |
                               (static_cast<uint64_t>(span.outcome) << 8),
                           std::memory_order_relaxed);
  slot.version.store(2 * ticket + 2, std::memory_order_release);
}

void Tracer::RecordChain(const TraceSpan* spans, size_t count) {
  if (count == 0) {
    return;
  }
  for (size_t i = 0; i < count; ++i) {
    Record(spans[i]);
  }
  if (options_.slow_request_nanos <= 0) {
    return;
  }
  const uint64_t total = spans[count - 1].start_nanos +
                         spans[count - 1].duration_nanos -
                         spans[0].start_nanos;
  if (total < static_cast<uint64_t>(options_.slow_request_nanos)) {
    return;
  }
  slow_requests_.fetch_add(1, std::memory_order_relaxed);
  SlowRequestSample sample;
  sample.request_id = spans[0].request_id;
  sample.total_nanos = total;
  sample.spans.assign(spans, spans + count);
  std::lock_guard<std::mutex> lock(slow_mutex_);
  if (slow_samples_.size() >= options_.max_slow_samples) {
    slow_samples_.pop_front();
  }
  slow_samples_.push_back(std::move(sample));
}

std::vector<TraceSpan> Tracer::CollectSpans() const {
  struct Ticketed {
    uint64_t ticket;
    TraceSpan span;
  };
  std::vector<Ticketed> collected;
  collected.reserve(slots_.size());
  for (const Slot& slot : slots_) {
    const uint64_t v1 = slot.version.load(std::memory_order_acquire);
    if (v1 == 0 || (v1 & 1) != 0) {
      continue;  // Never written, or a writer is mid-store.
    }
    TraceSpan span;
    span.request_id = slot.request_id.load(std::memory_order_relaxed);
    span.start_nanos = slot.start_nanos.load(std::memory_order_relaxed);
    span.duration_nanos = slot.duration_nanos.load(std::memory_order_relaxed);
    const uint64_t stage_outcome =
        slot.stage_outcome.load(std::memory_order_relaxed);
    // Orders the version recheck after the field loads.
    SeqlockFence(std::memory_order_acquire);
    if (slot.version.load(std::memory_order_relaxed) != v1) {
      continue;  // A writer lapped us mid-read; drop the torn span.
    }
    span.stage = static_cast<TraceStage>(stage_outcome & 0xff);
    span.outcome = static_cast<TraceOutcome>((stage_outcome >> 8) & 0xff);
    collected.push_back(Ticketed{(v1 - 2) / 2, span});
  }
  std::sort(collected.begin(), collected.end(),
            [](const Ticketed& a, const Ticketed& b) {
              return a.ticket < b.ticket;
            });
  std::vector<TraceSpan> spans;
  spans.reserve(collected.size());
  for (const Ticketed& entry : collected) {
    spans.push_back(entry.span);
  }
  return spans;
}

std::vector<SlowRequestSample> Tracer::SlowSamples() const {
  std::lock_guard<std::mutex> lock(slow_mutex_);
  return std::vector<SlowRequestSample>(slow_samples_.begin(),
                                        slow_samples_.end());
}

}  // namespace geolic

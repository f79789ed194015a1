#include "obs/trace.h"

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace geolic {
namespace {

TraceSpan Span(uint64_t request_id, TraceStage stage, uint64_t start,
               uint64_t duration) {
  TraceSpan span{};
  span.request_id = request_id;
  span.stage = stage;
  span.start_nanos = start;
  span.duration_nanos = duration;
  return span;
}

TEST(TraceStageTest, NamesAreStableAndDistinct) {
  std::vector<std::string> names;
  for (int s = 0; s < kTraceStageCount; ++s) {
    names.emplace_back(TraceStageName(static_cast<TraceStage>(s)));
  }
  EXPECT_EQ(names[0], "instance_check");
  EXPECT_EQ(names[static_cast<size_t>(TraceStage::kOfflineValidation)],
            "offline_validation");
  for (size_t i = 0; i < names.size(); ++i) {
    for (size_t j = i + 1; j < names.size(); ++j) {
      EXPECT_NE(names[i], names[j]);
    }
  }
}

TEST(TracerTest, RecordsSpansInTicketOrder) {
  Tracer tracer;
  for (uint64_t i = 0; i < 10; ++i) {
    tracer.Record(Span(i + 1, TraceStage::kEquationScan, 1000 + i, 5));
  }
  EXPECT_EQ(tracer.spans_recorded(), 10u);
  const std::vector<TraceSpan> spans = tracer.CollectSpans();
  ASSERT_EQ(spans.size(), 10u);
  for (uint64_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].request_id, i + 1);
    EXPECT_EQ(spans[i].start_nanos, 1000 + i);
    EXPECT_EQ(spans[i].duration_nanos, 5u);
    EXPECT_EQ(spans[i].stage, TraceStage::kEquationScan);
  }
}

TEST(TracerTest, RingCapacityRoundsUpAndHasFloor) {
  EXPECT_EQ(Tracer(TracerOptions{.ring_capacity = 100}).ring_capacity(),
            128u);
  EXPECT_EQ(Tracer(TracerOptions{.ring_capacity = 1}).ring_capacity(), 64u);
}

TEST(TracerTest, WrapKeepsNewestSpans) {
  Tracer tracer(TracerOptions{.ring_capacity = 64});
  constexpr uint64_t kTotal = 100;
  for (uint64_t i = 0; i < kTotal; ++i) {
    tracer.Record(Span(i + 1, TraceStage::kJournalAppend, i, 1));
  }
  EXPECT_EQ(tracer.spans_recorded(), kTotal);
  // One writer is never lapped: the ring overwrites, it drops nothing.
  EXPECT_EQ(tracer.spans_dropped(), 0u);
  const std::vector<TraceSpan> spans = tracer.CollectSpans();
  ASSERT_EQ(spans.size(), 64u);
  // Oldest surviving span first: the ring dropped the first 36.
  EXPECT_EQ(spans.front().request_id, kTotal - 64 + 1);
  EXPECT_EQ(spans.back().request_id, kTotal);
}

TEST(TracerTest, ProfileAggregatesPerStage) {
  Tracer tracer;
  tracer.Record(Span(1, TraceStage::kInstanceCheck, 0, 100));
  tracer.Record(Span(1, TraceStage::kInstanceCheck, 0, 100));
  tracer.Record(Span(2, TraceStage::kJournalFsync, 0, 5000));
  const StageProfile::Snapshot profile = tracer.ProfileSnapshot();
  EXPECT_EQ(profile.stage(TraceStage::kInstanceCheck).total_count, 2u);
  EXPECT_EQ(profile.stage(TraceStage::kInstanceCheck).total_nanos, 200u);
  EXPECT_EQ(profile.stage(TraceStage::kJournalFsync).total_count, 1u);
  EXPECT_EQ(profile.stage(TraceStage::kEquationScan).total_count, 0u);
}

TEST(TracerTest, SlowSamplingKeepsNewestChainsAndCountsAll) {
  Tracer tracer(TracerOptions{.slow_request_nanos = 100,
                              .max_slow_samples = 2});
  for (uint64_t id = 1; id <= 4; ++id) {
    // Chain total = (last.start + last.duration) − first.start. Request 1
    // totals 60 ns (fast); requests 2..4 total 210 ns (> 100 ns, slow).
    const uint64_t tail = id == 1 ? 50 : 200;
    const TraceSpan chain[2] = {
        Span(id, TraceStage::kInstanceCheck, 1000, 10),
        Span(id, TraceStage::kEquationScan, 1010, tail),
    };
    tracer.RecordChain(chain, 2);
  }
  EXPECT_EQ(tracer.slow_requests(), 3u);
  const std::vector<SlowRequestSample> samples = tracer.SlowSamples();
  ASSERT_EQ(samples.size(), 2u);  // Bounded buffer evicted request 2.
  EXPECT_EQ(samples[0].request_id, 3u);
  EXPECT_EQ(samples[1].request_id, 4u);
  EXPECT_EQ(samples[1].total_nanos, 210u);
  ASSERT_EQ(samples[1].spans.size(), 2u);
  EXPECT_EQ(samples[1].spans[1].stage, TraceStage::kEquationScan);
}

TEST(TracerTest, SlowSamplingDisabledByNonPositiveThreshold) {
  Tracer tracer(TracerOptions{.slow_request_nanos = 0});
  TraceSpan span = Span(1, TraceStage::kEquationScan, 0, 1'000'000'000);
  tracer.RecordChain(&span, 1);
  EXPECT_EQ(tracer.slow_requests(), 0u);
  EXPECT_TRUE(tracer.SlowSamples().empty());
}

// RequestTrace-driven tests assert that scoped timers really reach the
// ring; with GEOLIC_DISABLE_TRACING the request path is compiled out by
// design, so they are skipped (Tracer/ring/profile tests above still run).
#ifndef GEOLIC_DISABLE_TRACING

TEST(TracerTest, SamplePeriodGatesRequestTraces) {
  // The sampling counter is thread-local with arbitrary phase, but any
  // window of k*period consecutive requests traces exactly k of them.
  Tracer tracer(TracerOptions{.sample_period = 4});
  size_t enabled = 0;
  for (int i = 0; i < 64; ++i) {
    RequestTrace trace(&tracer);
    if (trace.enabled()) {
      ++enabled;
      trace.Add(TraceStage::kEquationScan, 10, 20);
    }
    trace.Finish(TraceOutcome::kAccepted);
  }
  EXPECT_EQ(enabled, 16u);
  const std::vector<TraceSpan> spans = tracer.CollectSpans();
  ASSERT_EQ(spans.size(), 16u);
  // Request ids are only burned on traced requests.
  EXPECT_EQ(spans.front().request_id, 1u);
  EXPECT_EQ(spans.back().request_id, 16u);
}

TEST(RequestTraceTest, NullTracerIsInertEverywhere) {
  RequestTrace trace(nullptr);
  EXPECT_FALSE(trace.enabled());
  EXPECT_EQ(trace.request_id(), 0u);
  {
    ScopedStageTimer timer(&trace, TraceStage::kInstanceCheck);
  }
  EXPECT_EQ(trace.span_count(), 0u);
  trace.Finish(TraceOutcome::kAccepted);  // Must not crash.
  ScopedTracerSpan standalone(nullptr, TraceStage::kCheckpointWrite);
  standalone.set_outcome(TraceOutcome::kError);
}

TEST(RequestTraceTest, ScopedTimersBuildChainAndFinishStampsOutcome) {
  Tracer tracer;
  {
    RequestTrace trace(&tracer);
    EXPECT_EQ(trace.request_id(), 1u);
    {
      ScopedStageTimer timer(&trace, TraceStage::kInstanceCheck);
    }
    {
      ScopedStageTimer timer(&trace, TraceStage::kEquationScan);
    }
    EXPECT_EQ(trace.span_count(), 2u);
    trace.Finish(TraceOutcome::kRejectedAggregate);
    // Nothing was flushed before Finish.
  }
  const std::vector<TraceSpan> spans = tracer.CollectSpans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].stage, TraceStage::kInstanceCheck);
  EXPECT_EQ(spans[0].outcome, TraceOutcome::kOk);
  EXPECT_EQ(spans[1].stage, TraceStage::kEquationScan);
  EXPECT_EQ(spans[1].outcome, TraceOutcome::kRejectedAggregate);
  EXPECT_EQ(spans[0].request_id, spans[1].request_id);
  // Adjacent stages share the boundary timestamp: one clock read, no gap.
  EXPECT_EQ(spans[1].start_nanos,
            spans[0].start_nanos + spans[0].duration_nanos);
}

TEST(RequestTraceTest, DestructorFlushesUnfinishedChainAsOk) {
  Tracer tracer;
  {
    RequestTrace trace(&tracer);
    ScopedStageTimer timer(&trace, TraceStage::kShardLockWait);
  }
  const std::vector<TraceSpan> spans = tracer.CollectSpans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].outcome, TraceOutcome::kOk);
}

TEST(RequestTraceTest, OverflowingChainDropsAndCounts) {
  Tracer tracer;
  RequestTrace trace(&tracer);
  for (size_t i = 0; i < RequestTrace::kMaxSpans + 3; ++i) {
    trace.Add(TraceStage::kEquationScan, i, i + 1);
  }
  EXPECT_EQ(trace.span_count(), RequestTrace::kMaxSpans);
  EXPECT_EQ(trace.spans_dropped(), 3u);
  trace.Finish(TraceOutcome::kAccepted);
  EXPECT_EQ(tracer.CollectSpans().size(), RequestTrace::kMaxSpans);
}

TEST(RequestTraceTest, FinishIsIdempotent) {
  Tracer tracer;
  RequestTrace trace(&tracer);
  trace.Add(TraceStage::kEquationScan, 0, 10);
  trace.Finish(TraceOutcome::kAccepted);
  trace.Finish(TraceOutcome::kError);  // Ignored.
  const std::vector<TraceSpan> spans = tracer.CollectSpans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].outcome, TraceOutcome::kAccepted);
}

#endif  // GEOLIC_DISABLE_TRACING

// Concurrency: readers snapshotting the ring and the profile while writers
// record must never observe torn spans (mixed-up fields) — the seqlock
// version check has to filter slots mid-write.
TEST(TracerTest, ConcurrentCollectNeverYieldsTornSpans) {
  Tracer tracer(TracerOptions{.ring_capacity = 256,
                              .slow_request_nanos = 0});
  std::atomic<bool> stop{false};
  // Writers that have recorded at least one span.
  std::atomic<int> started{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&tracer, &stop, &started, t] {
      const uint64_t id = static_cast<uint64_t>(t) + 1;
      bool counted = false;
      while (!stop.load(std::memory_order_relaxed)) {
        // Each writer's spans carry its own signature: request_id == t+1,
        // duration == 1000 * (t+1), start == 7 * (t+1).
        tracer.Record(Span(id, TraceStage::kEquationScan, id * 7, id * 1000));
        if (!counted) {
          counted = true;
          started.fetch_add(1, std::memory_order_release);
        }
      }
    });
  }
  // Collect only once every writer has recorded: on a loaded machine the
  // 500 collects could otherwise all finish before any writer ran. Check
  // only after the writers are joined, so a failure reports instead of
  // leaving joinable threads behind.
  while (started.load(std::memory_order_acquire) < 4) {
    std::this_thread::yield();
  }
  std::vector<TraceSpan> torn;
  uint64_t collected = 0;
  for (int i = 0; i < 500; ++i) {
    for (const TraceSpan& span : tracer.CollectSpans()) {
      ++collected;
      // A torn read would pair one writer's request_id with another's
      // duration or timestamp.
      if (span.request_id < 1 || span.request_id > 4 ||
          span.duration_nanos != span.request_id * 1000 ||
          span.start_nanos != span.request_id * 7 ||
          span.stage != TraceStage::kEquationScan) {
        torn.push_back(span);
      }
    }
  }
  stop.store(true);
  for (std::thread& writer : writers) {
    writer.join();
  }
  EXPECT_GT(collected, 0u);
  EXPECT_TRUE(torn.empty())
      << torn.size() << " torn slots; first: request " << torn[0].request_id
      << ", start " << torn[0].start_nanos << ", duration "
      << torn[0].duration_nanos;
  // Everything every writer recorded reached the profile, whether or not
  // a lapped writer dropped its span from the ring.
  const StageProfile::Snapshot profile = tracer.ProfileSnapshot();
  EXPECT_EQ(profile.stage(TraceStage::kEquationScan).total_count,
            tracer.spans_recorded());
  EXPECT_LE(tracer.spans_dropped(), tracer.spans_recorded());
}

}  // namespace
}  // namespace geolic

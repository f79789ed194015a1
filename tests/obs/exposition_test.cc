#include "obs/exposition.h"

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "json_parser_test_util.h"
#include "obs/trace.h"
#include "test_util.h"
#include "util/metrics.h"

namespace geolic {
namespace {

using geolic::testing::JsonValue;
using geolic::testing::ParseJson;

// Deterministic input used by both golden tests: 8 requests, latency in
// buckets 3 ([8,16)) and 6 ([64,128)), journal + recovery sections on.
ExpositionInput GoldenInput() {
  ExpositionInput input;
  input.metrics.accepted = 5;
  input.metrics.rejected_instance = 2;
  input.metrics.rejected_aggregate = 1;
  input.metrics.equations_checked = 37;
  input.metrics.batches = 2;
  input.metrics.batched_requests = 6;
  input.metrics.latency.counts[3] = 7;
  input.metrics.latency.counts[6] = 1;
  input.metrics.latency.total_count = 8;
  input.metrics.latency.total_nanos = 1234;
  input.metrics.latency.clamped_negative = 1;
  input.has_journal = true;
  input.journal_sequence = 8;
  input.has_recovery = true;
  input.recovery_checkpoint_records = 3;
  input.recovery_journal_replayed = 5;
  input.recovery_journal_skipped = 1;
  input.recovery_torn_tail = true;
  return input;
}

TEST(ExpositionTest, GoldenPrometheusText) {
  const std::string expected =
      "# HELP geolic_requests_total Admission decisions by outcome.\n"
      "# TYPE geolic_requests_total counter\n"
      "geolic_requests_total{service=\"geolic\",outcome=\"accepted\"} 5\n"
      "geolic_requests_total{service=\"geolic\","
      "outcome=\"rejected_instance\"} 2\n"
      "geolic_requests_total{service=\"geolic\","
      "outcome=\"rejected_aggregate\"} 1\n"
      "# HELP geolic_equations_checked_total Validation equations "
      "evaluated.\n"
      "# TYPE geolic_equations_checked_total counter\n"
      "geolic_equations_checked_total{service=\"geolic\"} 37\n"
      "# HELP geolic_batches_total TryIssueBatch calls.\n"
      "# TYPE geolic_batches_total counter\n"
      "geolic_batches_total{service=\"geolic\"} 2\n"
      "# HELP geolic_batched_requests_total Requests admitted through "
      "batches.\n"
      "# TYPE geolic_batched_requests_total counter\n"
      "geolic_batched_requests_total{service=\"geolic\"} 6\n"
      "# HELP geolic_latency_clamped_negative_total Latency samples "
      "clamped at zero.\n"
      "# TYPE geolic_latency_clamped_negative_total counter\n"
      "geolic_latency_clamped_negative_total{service=\"geolic\"} 1\n"
      "# HELP geolic_request_latency_nanos End-to-end admission latency.\n"
      "# TYPE geolic_request_latency_nanos histogram\n"
      "geolic_request_latency_nanos_bucket{service=\"geolic\",le=\"2\"} 0\n"
      "geolic_request_latency_nanos_bucket{service=\"geolic\",le=\"4\"} 0\n"
      "geolic_request_latency_nanos_bucket{service=\"geolic\",le=\"8\"} 0\n"
      "geolic_request_latency_nanos_bucket{service=\"geolic\",le=\"16\"} 7\n"
      "geolic_request_latency_nanos_bucket{service=\"geolic\",le=\"32\"} 7\n"
      "geolic_request_latency_nanos_bucket{service=\"geolic\",le=\"64\"} 7\n"
      "geolic_request_latency_nanos_bucket{service=\"geolic\",le=\"128\"} "
      "8\n"
      "geolic_request_latency_nanos_bucket{service=\"geolic\",le=\"+Inf\"} "
      "8\n"
      "geolic_request_latency_nanos_sum{service=\"geolic\"} 1234\n"
      "geolic_request_latency_nanos_count{service=\"geolic\"} 8\n"
      "# HELP geolic_journal_sequence Sequence of the last journaled "
      "frame.\n"
      "# TYPE geolic_journal_sequence gauge\n"
      "geolic_journal_sequence{service=\"geolic\"} 8\n"
      "# HELP geolic_recovery_checkpoint_records Records loaded from the "
      "checkpoint.\n"
      "# TYPE geolic_recovery_checkpoint_records gauge\n"
      "geolic_recovery_checkpoint_records{service=\"geolic\"} 3\n"
      "# HELP geolic_recovery_journal_replayed Journal frames replayed "
      "past the checkpoint.\n"
      "# TYPE geolic_recovery_journal_replayed gauge\n"
      "geolic_recovery_journal_replayed{service=\"geolic\"} 5\n"
      "# HELP geolic_recovery_journal_skipped Journal frames the "
      "checkpoint already covered.\n"
      "# TYPE geolic_recovery_journal_skipped gauge\n"
      "geolic_recovery_journal_skipped{service=\"geolic\"} 1\n"
      "# HELP geolic_recovery_torn_tail 1 when the journal ended in a "
      "torn write.\n"
      "# TYPE geolic_recovery_torn_tail gauge\n"
      "geolic_recovery_torn_tail{service=\"geolic\"} 1\n";
  EXPECT_EQ(RenderPrometheusText(GoldenInput()), expected);
}

TEST(ExpositionTest, GoldenJson) {
  // p50/p99 both land in bucket 3 (ranks 3 and 6 of 8, cumulative 7): the
  // upper bound is 16 ns.
  const std::string expected =
      "{\"service\":\"geolic\","
      "\"requests\":{\"accepted\":5,\"rejected_instance\":2,"
      "\"rejected_aggregate\":1,\"total\":8},"
      "\"equations_checked\":37,"
      "\"batches\":{\"count\":2,\"requests\":6},"
      "\"latency\":{\"count\":8,\"sum_nanos\":1234,\"clamped_negative\":1,"
      "\"p50_le_nanos\":16,\"p99_le_nanos\":16,"
      "\"buckets\":[{\"le\":2,\"count\":0},{\"le\":4,\"count\":0},"
      "{\"le\":8,\"count\":0},{\"le\":16,\"count\":7},{\"le\":32,"
      "\"count\":0},{\"le\":64,\"count\":0},{\"le\":128,\"count\":1}]},"
      "\"journal\":{\"sequence\":8},"
      "\"recovery\":{\"checkpoint_records\":3,\"journal_replayed\":5,"
      "\"journal_skipped\":1,\"torn_tail\":true}}";
  EXPECT_EQ(RenderJson(GoldenInput()), expected);
}

TEST(ExpositionTest, JsonRoundTripsThroughParser) {
  ExpositionInput input = GoldenInput();
  input.has_stages = true;
  input.stages.stages[static_cast<size_t>(TraceStage::kEquationScan)]
      .counts[5] = 11;
  input.stages.stages[static_cast<size_t>(TraceStage::kEquationScan)]
      .total_nanos = 440;

  const Result<JsonValue> doc = ParseJson(RenderJson(input));
  ASSERT_TRUE(doc.ok()) << doc.status().message();

  const JsonValue* requests = doc->Find("requests");
  ASSERT_NE(requests, nullptr);
  EXPECT_EQ(requests->Find("accepted")->AsUInt(), 5u);
  EXPECT_EQ(requests->Find("total")->AsUInt(), 8u);
  EXPECT_EQ(doc->Find("equations_checked")->AsUInt(), 37u);

  const JsonValue* latency = doc->Find("latency");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->Find("count")->AsUInt(), 8u);
  EXPECT_EQ(latency->Find("clamped_negative")->AsUInt(), 1u);
  ASSERT_EQ(latency->Find("buckets")->array.size(), 7u);
  EXPECT_EQ(latency->Find("buckets")->array[3].Find("count")->AsUInt(), 7u);

  const JsonValue* stages = doc->Find("stages");
  ASSERT_NE(stages, nullptr);
  EXPECT_EQ(stages->object.size(), static_cast<size_t>(kTraceStageCount));
  const JsonValue* scan = stages->Find("equation_scan");
  ASSERT_NE(scan, nullptr);
  EXPECT_EQ(scan->Find("count")->AsUInt(), 11u);
  EXPECT_EQ(scan->Find("sum_nanos")->AsUInt(), 440u);
  EXPECT_EQ(stages->Find("journal_fsync")->Find("count")->AsUInt(), 0u);

  EXPECT_EQ(doc->Find("journal")->Find("sequence")->AsUInt(), 8u);
  const JsonValue* recovery = doc->Find("recovery");
  ASSERT_NE(recovery, nullptr);
  EXPECT_EQ(recovery->Find("torn_tail")->kind, JsonValue::Kind::kBool);
  EXPECT_TRUE(recovery->Find("torn_tail")->boolean);
}

TEST(ExpositionTest, CatalogSectionRendersEveryFamily) {
  // The catalog layer added two trace stages (catalog_compile /
  // catalog_evict) — the profile array is now 16 wide — and a
  // geolic_catalog_* metric section. Pin both so a stage or family can
  // never silently drop out of the exposition.
  EXPECT_EQ(kTraceStageCount, 16);

  ExpositionInput input = GoldenInput();
  input.has_catalog = true;
  input.catalog.hits = 90;
  input.catalog.misses = 10;
  input.catalog.compiles = 7;
  input.catalog.loads = 3;
  input.catalog.evictions = 4;
  input.catalog.spills = 5;
  input.catalog.recovered_tenants = 2;
  input.catalog.journal_frames = 100;
  input.catalog.resident_tenants = 6;
  input.catalog.resident_bytes = 98304;
  input.catalog.poisoned_writers = 1;

  const std::string text = RenderPrometheusText(input);
  const std::string kExpectedLines[] = {
      "geolic_catalog_requests_total{service=\"geolic\",outcome=\"hit\"} 90",
      "geolic_catalog_requests_total{service=\"geolic\",outcome=\"miss\"} "
      "10",
      "geolic_catalog_compiles_total{service=\"geolic\"} 7",
      "geolic_catalog_loads_total{service=\"geolic\"} 3",
      "geolic_catalog_evictions_total{service=\"geolic\"} 4",
      "geolic_catalog_spills_total{service=\"geolic\"} 5",
      "geolic_catalog_recovered_tenants_total{service=\"geolic\"} 2",
      "geolic_catalog_journal_frames_total{service=\"geolic\"} 100",
      "geolic_catalog_resident_tenants{service=\"geolic\"} 6",
      "geolic_catalog_resident_bytes{service=\"geolic\"} 98304",
      "geolic_catalog_poisoned_writers{service=\"geolic\"} 1",
  };
  for (const std::string& line : kExpectedLines) {
    EXPECT_NE(text.find(line + "\n"), std::string::npos) << line;
  }

  input.has_stages = true;
  input.stages.stages[static_cast<size_t>(TraceStage::kCatalogCompile)]
      .counts[2] = 7;
  const Result<JsonValue> doc = ParseJson(RenderJson(input));
  ASSERT_TRUE(doc.ok()) << doc.status().message();
  const JsonValue* catalog = doc->Find("catalog");
  ASSERT_NE(catalog, nullptr);
  EXPECT_EQ(catalog->Find("hits")->AsUInt(), 90u);
  EXPECT_EQ(catalog->Find("misses")->AsUInt(), 10u);
  EXPECT_EQ(catalog->Find("evictions")->AsUInt(), 4u);
  EXPECT_EQ(catalog->Find("resident_bytes")->AsUInt(), 98304u);
  EXPECT_EQ(catalog->Find("poisoned_writers")->AsUInt(), 1u);
  const JsonValue* stages = doc->Find("stages");
  ASSERT_NE(stages, nullptr);
  EXPECT_EQ(stages->object.size(), 16u);
  EXPECT_EQ(stages->Find("catalog_compile")->Find("count")->AsUInt(), 7u);
  ASSERT_NE(stages->Find("catalog_evict"), nullptr);
  EXPECT_EQ(stages->Find("catalog_evict")->Find("count")->AsUInt(), 0u);
}

TEST(ExpositionTest, ServiceLabelIsEscapedAndRoundTrips) {
  ExpositionInput input;
  input.service = "we\"ird\\svc\nline";
  const std::string text = RenderPrometheusText(input);
  EXPECT_NE(text.find("service=\"we\\\"ird\\\\svc\\nline\""),
            std::string::npos);
  const Result<JsonValue> doc = ParseJson(RenderJson(input));
  ASSERT_TRUE(doc.ok()) << doc.status().message();
  EXPECT_EQ(doc->Find("service")->string, input.service);
}

// Hostile-name input shared by the byte-exact escaping goldens: the
// service label carries a backslash, a double quote, and a newline, and
// the net section is on so the newest families render too.
ExpositionInput HostileInput() {
  ExpositionInput input;
  input.service = "drm\\co\"rp\nx";
  input.has_net = true;
  input.net.connections_opened = 1;
  input.net.connections_closed = 2;
  input.net.frames_decoded = 3;
  input.net.requests_enqueued = 4;
  input.net.requests_shed = 5;
  input.net.protocol_errors = 6;
  input.net.batches_dispatched = 7;
  input.net.batch_requests_dispatched = 8;
  input.net.queue_depth = 9;
  input.net.queue_depth_peak = 10;
  input.net.bytes_read = 11;
  input.net.bytes_written = 12;
  input.net.reactor_sleeps = 13;
  return input;
}

TEST(ExpositionTest, GoldenPrometheusTextHostileName) {
  const std::string svc = "service=\"drm\\\\co\\\"rp\\nx\"";
  const std::string expected =
      "# HELP geolic_requests_total Admission decisions by outcome.\n"
      "# TYPE geolic_requests_total counter\n"
      "geolic_requests_total{" + svc + ",outcome=\"accepted\"} 0\n"
      "geolic_requests_total{" + svc + ",outcome=\"rejected_instance\"} 0\n"
      "geolic_requests_total{" + svc +
      ",outcome=\"rejected_aggregate\"} 0\n"
      "# HELP geolic_equations_checked_total Validation equations "
      "evaluated.\n"
      "# TYPE geolic_equations_checked_total counter\n"
      "geolic_equations_checked_total{" + svc + "} 0\n"
      "# HELP geolic_batches_total TryIssueBatch calls.\n"
      "# TYPE geolic_batches_total counter\n"
      "geolic_batches_total{" + svc + "} 0\n"
      "# HELP geolic_batched_requests_total Requests admitted through "
      "batches.\n"
      "# TYPE geolic_batched_requests_total counter\n"
      "geolic_batched_requests_total{" + svc + "} 0\n"
      "# HELP geolic_latency_clamped_negative_total Latency samples "
      "clamped at zero.\n"
      "# TYPE geolic_latency_clamped_negative_total counter\n"
      "geolic_latency_clamped_negative_total{" + svc + "} 0\n"
      "# HELP geolic_request_latency_nanos End-to-end admission latency.\n"
      "# TYPE geolic_request_latency_nanos histogram\n"
      "geolic_request_latency_nanos_bucket{" + svc + ",le=\"+Inf\"} 0\n"
      "geolic_request_latency_nanos_sum{" + svc + "} 0\n"
      "geolic_request_latency_nanos_count{" + svc + "} 0\n"
      "# HELP geolic_net_connections_total TCP connections by lifecycle "
      "event.\n"
      "# TYPE geolic_net_connections_total counter\n"
      "geolic_net_connections_total{" + svc + ",event=\"opened\"} 1\n"
      "geolic_net_connections_total{" + svc + ",event=\"closed\"} 2\n"
      "# HELP geolic_net_frames_decoded_total Wire frames decoded from "
      "client connections.\n"
      "# TYPE geolic_net_frames_decoded_total counter\n"
      "geolic_net_frames_decoded_total{" + svc + "} 3\n"
      "# HELP geolic_net_requests_total Issue requests by admission-queue "
      "outcome.\n"
      "# TYPE geolic_net_requests_total counter\n"
      "geolic_net_requests_total{" + svc + ",event=\"enqueued\"} 4\n"
      "geolic_net_requests_total{" + svc + ",event=\"shed\"} 5\n"
      "# HELP geolic_net_protocol_errors_total Framing/CRC failures that "
      "dropped a connection.\n"
      "# TYPE geolic_net_protocol_errors_total counter\n"
      "geolic_net_protocol_errors_total{" + svc + "} 6\n"
      "# HELP geolic_net_batches_dispatched_total Coalesced batches "
      "handed to the service.\n"
      "# TYPE geolic_net_batches_dispatched_total counter\n"
      "geolic_net_batches_dispatched_total{" + svc + "} 7\n"
      "# HELP geolic_net_batch_requests_dispatched_total Requests carried "
      "by those batches.\n"
      "# TYPE geolic_net_batch_requests_dispatched_total counter\n"
      "geolic_net_batch_requests_dispatched_total{" + svc + "} 8\n"
      "# HELP geolic_net_queue_depth Decoded requests pending admission "
      "in the reactor's turn.\n"
      "# TYPE geolic_net_queue_depth gauge\n"
      "geolic_net_queue_depth{" + svc + "} 9\n"
      "# HELP geolic_net_queue_depth_peak Most requests pending admission "
      "in one turn.\n"
      "# TYPE geolic_net_queue_depth_peak gauge\n"
      "geolic_net_queue_depth_peak{" + svc + "} 10\n"
      "# HELP geolic_net_bytes_total Socket bytes by direction.\n"
      "# TYPE geolic_net_bytes_total counter\n"
      "geolic_net_bytes_total{" + svc + ",direction=\"read\"} 11\n"
      "geolic_net_bytes_total{" + svc + ",direction=\"written\"} 12\n"
      "# HELP geolic_net_reactor_sleeps_total Reactor turns that began "
      "with a blocking wait.\n"
      "# TYPE geolic_net_reactor_sleeps_total counter\n"
      "geolic_net_reactor_sleeps_total{" + svc + "} 13\n";
  EXPECT_EQ(RenderPrometheusText(HostileInput()), expected);
}

TEST(ExpositionTest, GoldenJsonHostileName) {
  const std::string expected =
      "{\"service\":\"drm\\\\co\\\"rp\\nx\","
      "\"requests\":{\"accepted\":0,\"rejected_instance\":0,"
      "\"rejected_aggregate\":0,\"total\":0},"
      "\"equations_checked\":0,"
      "\"batches\":{\"count\":0,\"requests\":0},"
      "\"latency\":{\"count\":0,\"sum_nanos\":0,\"clamped_negative\":0,"
      "\"p50_le_nanos\":0,\"p99_le_nanos\":0,\"buckets\":[]},"
      "\"net\":{\"connections\":{\"opened\":1,\"closed\":2},"
      "\"frames_decoded\":3,"
      "\"requests\":{\"enqueued\":4,\"shed\":5},"
      "\"protocol_errors\":6,"
      "\"batches\":{\"dispatched\":7,\"requests\":8},"
      "\"queue_depth\":9,\"queue_depth_peak\":10,"
      "\"bytes\":{\"read\":11,\"written\":12},"
      "\"reactor_sleeps\":13}}";
  EXPECT_EQ(RenderJson(HostileInput()), expected);
}

// Escaping audit: with every section on and a hostile service name, every
// physical line of the text exposition must be a well-formed HELP/TYPE
// comment or a `name{labels} value` sample — an unescaped newline or
// quote anywhere would split or malform a line.
TEST(ExpositionTest, PrometheusLinesStayWellFormedWithHostileName) {
  ExpositionInput input = HostileInput();
  input.metrics = GoldenInput().metrics;
  input.has_stages = true;
  input.has_journal = true;
  input.has_recovery = true;
  std::istringstream lines(RenderPrometheusText(input));
  std::string line;
  size_t samples = 0;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    if (line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0) {
      continue;
    }
    // Series line: metric name, then a brace-delimited label set whose
    // quotes are balanced once escapes are honoured, then the value.
    const size_t open = line.find('{');
    ASSERT_NE(open, std::string::npos) << line;
    EXPECT_NE(line.find("service=\"", open), std::string::npos) << line;
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    ASSERT_GT(space, 2u) << line;
    EXPECT_EQ(line[space - 1], '}') << line;
    for (size_t i = space + 1; i < line.size(); ++i) {
      EXPECT_TRUE((line[i] >= '0' && line[i] <= '9') || line[i] == '+' ||
                  line[i] == '.' || line[i] == 'I' || line[i] == 'n' ||
                  line[i] == 'f')
          << line;
    }
    ++samples;
  }
  EXPECT_GT(samples, 20u);
}

TEST(ExpositionTest, WriteMetricsFileDispatchesOnSuffix) {
  const ExpositionInput input = GoldenInput();
  const testing::ScopedTempPath json_path("exposition_metrics.json");
  const testing::ScopedTempPath text_path("exposition_metrics.prom");
  ASSERT_TRUE(WriteMetricsFile(input, json_path.path()).ok());
  ASSERT_TRUE(WriteMetricsFile(input, text_path.path()).ok());

  const auto slurp = [](const std::string& path) {
    std::FILE* file = std::fopen(path.c_str(), "rb");
    EXPECT_NE(file, nullptr) << path;
    std::string out;
    char buffer[4096];
    size_t n = 0;
    while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
      out.append(buffer, n);
    }
    std::fclose(file);
    return out;
  };
  EXPECT_EQ(slurp(json_path.path()), RenderJson(input));
  EXPECT_EQ(slurp(text_path.path()), RenderPrometheusText(input));

  EXPECT_FALSE(
      WriteMetricsFile(input, testing::TestTmpDir() + "no/such/dir/m.json")
          .ok());
}

// For every rendered histogram family, the cumulative +Inf bucket must
// equal the family's `_count` sample — Prometheus rejects expositions
// where they disagree.
void ExpectCountsMatchInfBuckets(const std::string& text) {
  std::map<std::string, uint64_t> inf_buckets;
  std::map<std::string, uint64_t> counts;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    std::string series = line.substr(0, space);
    const uint64_t value =
        std::strtoull(line.c_str() + space + 1, nullptr, 10);
    const size_t inf = series.find(",le=\"+Inf\"}");
    const size_t bucket = series.find("_bucket{");
    if (inf != std::string::npos && bucket != std::string::npos) {
      series.resize(inf);                // Drop the le pair and brace.
      series.replace(bucket, 8, "{");    // name_bucket{… → name{…
      inf_buckets[series] = value;
      continue;
    }
    const size_t count = series.find("_count{");
    if (count != std::string::npos) {
      series.pop_back();                 // Drop the closing brace.
      series.replace(count, 7, "{");
      counts[series] = value;
    }
  }
  ASSERT_FALSE(counts.empty());
  for (const auto& [family, count] : counts) {
    ASSERT_TRUE(inf_buckets.count(family) != 0) << family;
    EXPECT_EQ(inf_buckets[family], count) << family;
  }
}

// Satellite regression: snapshots taken while writers are mid-Record used
// to render total_count (which can lead the buckets under relaxed RMWs) as
// `_count`, producing a malformed exposition. The rendered `_count` must
// come from the same snapshotted buckets as the +Inf sample.
TEST(ExpositionTest, SnapshotWhileRecordingHasNoCountSkew) {
  IssuanceMetrics metrics;
  Tracer tracer(TracerOptions{.slow_request_nanos = 0});
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&metrics, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        metrics.RecordAccepted(3, 100);
        metrics.RecordRejectedAggregate(2, 900);
      }
    });
    writers.emplace_back([&tracer, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        TraceSpan span{};
        span.stage = TraceStage::kEquationScan;
        span.duration_nanos = 700;
        tracer.Record(span);
      }
    });
  }
  for (int i = 0; i < 200; ++i) {
    ExpositionInput input;
    input.metrics = metrics.Snap();
    input.has_stages = true;
    input.stages = tracer.ProfileSnapshot();
    ExpectCountsMatchInfBuckets(RenderPrometheusText(input));
    if (HasFatalFailure()) {
      break;
    }
  }
  stop.store(true);
  for (std::thread& writer : writers) {
    writer.join();
  }
}

}  // namespace
}  // namespace geolic

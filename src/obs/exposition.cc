#include "obs/exposition.h"

#include <cstdio>

#include "util/json_writer.h"

namespace geolic {
namespace {

// Prometheus label-value escaping: backslash, double-quote, newline.
std::string EscapeLabel(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

// Prometheus HELP-text escaping: only backslash and newline — double
// quotes are legal verbatim in help text, unlike in label values.
std::string EscapeHelp(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

// `# HELP` + `# TYPE` pair announcing one family.
void AppendFamilyHeader(const char* name, const char* type,
                        const std::string& help, std::string* out) {
  *out += std::string("# HELP ") + name + " " + EscapeHelp(help) + "\n";
  *out += std::string("# TYPE ") + name + " " + type + "\n";
}

// Index of the last non-empty bucket, or -1 when all are empty.
int LastUsedBucket(const LatencyHistogram::Snapshot& histogram) {
  int last = -1;
  for (int i = 0; i < LatencyHistogram::kBuckets; ++i) {
    if (histogram.counts[static_cast<size_t>(i)] != 0) {
      last = i;
    }
  }
  return last;
}

uint64_t BucketSum(const LatencyHistogram::Snapshot& histogram) {
  uint64_t sum = 0;
  for (const uint64_t count : histogram.counts) {
    sum += count;
  }
  return sum;
}

// One histogram family in text form. `labels` is the rendered label set
// without the le pair, e.g. `service="x",stage="equation_scan"`.
//
// The `_count` sample is the snapshotted bucket sum, not the histogram's
// total_count word: the two are updated by separate relaxed RMWs, so a
// snapshot taken under write load can see total_count ahead of the
// buckets, and a cumulative +Inf bucket smaller than _count would be a
// malformed exposition.
void AppendTextHistogram(const std::string& name, const std::string& labels,
                         const LatencyHistogram::Snapshot& histogram,
                         std::string* out) {
  const int last = LastUsedBucket(histogram);
  uint64_t cumulative = 0;
  for (int i = 0; i <= last; ++i) {
    cumulative += histogram.counts[static_cast<size_t>(i)];
    *out += name + "_bucket{" + labels + ",le=\"" +
            std::to_string(uint64_t{1} << (i + 1)) + "\"} " +
            std::to_string(cumulative) + "\n";
  }
  *out += name + "_bucket{" + labels + ",le=\"+Inf\"} " +
          std::to_string(cumulative) + "\n";
  *out += name + "_sum{" + labels + "} " +
          std::to_string(histogram.total_nanos) + "\n";
  *out += name + "_count{" + labels + "} " + std::to_string(cumulative) +
          "\n";
}

void AppendJsonHistogram(const LatencyHistogram::Snapshot& histogram,
                         JsonWriter* json) {
  json->BeginObject();
  json->KeyValue("count", BucketSum(histogram));
  json->KeyValue("sum_nanos", histogram.total_nanos);
  json->KeyValue("clamped_negative", histogram.clamped_negative);
  json->KeyValue("p50_le_nanos",
                 static_cast<uint64_t>(histogram.QuantileUpperBoundNanos(0.5)));
  json->KeyValue(
      "p99_le_nanos",
      static_cast<uint64_t>(histogram.QuantileUpperBoundNanos(0.99)));
  json->Key("buckets");
  json->BeginArray();
  const int last = LastUsedBucket(histogram);
  for (int i = 0; i <= last; ++i) {
    json->BeginObject();
    json->KeyValue("le", uint64_t{1} << (i + 1));
    json->KeyValue("count", histogram.counts[static_cast<size_t>(i)]);
    json->EndObject();
  }
  json->EndArray();
  json->EndObject();
}

}  // namespace

std::string RenderPrometheusText(const ExpositionInput& input) {
  const std::string svc = "service=\"" + EscapeLabel(input.service) + "\"";
  std::string out;

  AppendFamilyHeader("geolic_requests_total", "counter",
                     "Admission decisions by outcome.", &out);
  out += "geolic_requests_total{" + svc + ",outcome=\"accepted\"} " +
         std::to_string(input.metrics.accepted) + "\n";
  out += "geolic_requests_total{" + svc + ",outcome=\"rejected_instance\"} " +
         std::to_string(input.metrics.rejected_instance) + "\n";
  out += "geolic_requests_total{" + svc +
         ",outcome=\"rejected_aggregate\"} " +
         std::to_string(input.metrics.rejected_aggregate) + "\n";

  AppendFamilyHeader("geolic_equations_checked_total", "counter",
                     "Validation equations evaluated.", &out);
  out += "geolic_equations_checked_total{" + svc + "} " +
         std::to_string(input.metrics.equations_checked) + "\n";

  AppendFamilyHeader("geolic_batches_total", "counter",
                     "TryIssueBatch calls.", &out);
  out += "geolic_batches_total{" + svc + "} " +
         std::to_string(input.metrics.batches) + "\n";
  AppendFamilyHeader("geolic_batched_requests_total", "counter",
                     "Requests admitted through batches.", &out);
  out += "geolic_batched_requests_total{" + svc + "} " +
         std::to_string(input.metrics.batched_requests) + "\n";

  AppendFamilyHeader("geolic_latency_clamped_negative_total", "counter",
                     "Latency samples clamped at zero.", &out);
  out += "geolic_latency_clamped_negative_total{" + svc + "} " +
         std::to_string(input.metrics.latency.clamped_negative) + "\n";

  AppendFamilyHeader("geolic_request_latency_nanos", "histogram",
                     "End-to-end admission latency.", &out);
  AppendTextHistogram("geolic_request_latency_nanos", svc,
                      input.metrics.latency, &out);

  if (input.has_stages) {
    AppendFamilyHeader("geolic_stage_duration_nanos", "histogram",
                       "Per-stage request pipeline latency.", &out);
    for (int s = 0; s < kTraceStageCount; ++s) {
      const std::string labels =
          svc + ",stage=\"" +
          TraceStageName(static_cast<TraceStage>(s)) + "\"";
      AppendTextHistogram("geolic_stage_duration_nanos", labels,
                          input.stages.stages[static_cast<size_t>(s)], &out);
    }
  }

  if (input.has_journal) {
    AppendFamilyHeader("geolic_journal_sequence", "gauge",
                       "Sequence of the last journaled frame.", &out);
    out += "geolic_journal_sequence{" + svc + "} " +
           std::to_string(input.journal_sequence) + "\n";
  }

  if (input.has_recovery) {
    AppendFamilyHeader("geolic_recovery_checkpoint_records", "gauge",
                       "Records loaded from the checkpoint.", &out);
    out += "geolic_recovery_checkpoint_records{" + svc + "} " +
           std::to_string(input.recovery_checkpoint_records) + "\n";
    AppendFamilyHeader("geolic_recovery_journal_replayed", "gauge",
                       "Journal frames replayed past the checkpoint.", &out);
    out += "geolic_recovery_journal_replayed{" + svc + "} " +
           std::to_string(input.recovery_journal_replayed) + "\n";
    AppendFamilyHeader("geolic_recovery_journal_skipped", "gauge",
                       "Journal frames the checkpoint already covered.",
                       &out);
    out += "geolic_recovery_journal_skipped{" + svc + "} " +
           std::to_string(input.recovery_journal_skipped) + "\n";
    AppendFamilyHeader("geolic_recovery_torn_tail", "gauge",
                       "1 when the journal ended in a torn write.", &out);
    out += "geolic_recovery_torn_tail{" + svc + "} " +
           std::string(input.recovery_torn_tail ? "1" : "0") + "\n";
  }

  if (input.has_net) {
    const ExpositionInput::NetSection& net = input.net;
    AppendFamilyHeader("geolic_net_connections_total", "counter",
                       "TCP connections by lifecycle event.", &out);
    out += "geolic_net_connections_total{" + svc + ",event=\"opened\"} " +
           std::to_string(net.connections_opened) + "\n";
    out += "geolic_net_connections_total{" + svc + ",event=\"closed\"} " +
           std::to_string(net.connections_closed) + "\n";
    AppendFamilyHeader("geolic_net_frames_decoded_total", "counter",
                       "Wire frames decoded from client connections.", &out);
    out += "geolic_net_frames_decoded_total{" + svc + "} " +
           std::to_string(net.frames_decoded) + "\n";
    AppendFamilyHeader("geolic_net_requests_total", "counter",
                       "Issue requests by admission-queue outcome.", &out);
    out += "geolic_net_requests_total{" + svc + ",event=\"enqueued\"} " +
           std::to_string(net.requests_enqueued) + "\n";
    out += "geolic_net_requests_total{" + svc + ",event=\"shed\"} " +
           std::to_string(net.requests_shed) + "\n";
    AppendFamilyHeader("geolic_net_protocol_errors_total", "counter",
                       "Framing/CRC failures that dropped a connection.",
                       &out);
    out += "geolic_net_protocol_errors_total{" + svc + "} " +
           std::to_string(net.protocol_errors) + "\n";
    AppendFamilyHeader("geolic_net_batches_dispatched_total", "counter",
                       "Coalesced batches handed to the service.", &out);
    out += "geolic_net_batches_dispatched_total{" + svc + "} " +
           std::to_string(net.batches_dispatched) + "\n";
    AppendFamilyHeader("geolic_net_batch_requests_dispatched_total",
                       "counter", "Requests carried by those batches.",
                       &out);
    out += "geolic_net_batch_requests_dispatched_total{" + svc + "} " +
           std::to_string(net.batch_requests_dispatched) + "\n";
    AppendFamilyHeader(
        "geolic_net_queue_depth", "gauge",
        "Decoded requests pending admission in the reactor's turn.", &out);
    out += "geolic_net_queue_depth{" + svc + "} " +
           std::to_string(net.queue_depth) + "\n";
    AppendFamilyHeader("geolic_net_queue_depth_peak", "gauge",
                       "Most requests pending admission in one turn.", &out);
    out += "geolic_net_queue_depth_peak{" + svc + "} " +
           std::to_string(net.queue_depth_peak) + "\n";
    AppendFamilyHeader("geolic_net_bytes_total", "counter",
                       "Socket bytes by direction.", &out);
    out += "geolic_net_bytes_total{" + svc + ",direction=\"read\"} " +
           std::to_string(net.bytes_read) + "\n";
    out += "geolic_net_bytes_total{" + svc + ",direction=\"written\"} " +
           std::to_string(net.bytes_written) + "\n";
    AppendFamilyHeader("geolic_net_reactor_sleeps_total", "counter",
                       "Reactor turns that began with a blocking wait.",
                       &out);
    out += "geolic_net_reactor_sleeps_total{" + svc + "} " +
           std::to_string(net.reactor_sleeps) + "\n";
  }

  if (input.has_catalog) {
    const ExpositionInput::CatalogSection& cat = input.catalog;
    AppendFamilyHeader("geolic_catalog_requests_total", "counter",
                       "Tenant lookups by cache outcome.", &out);
    out += "geolic_catalog_requests_total{" + svc + ",outcome=\"hit\"} " +
           std::to_string(cat.hits) + "\n";
    out += "geolic_catalog_requests_total{" + svc + ",outcome=\"miss\"} " +
           std::to_string(cat.misses) + "\n";
    AppendFamilyHeader("geolic_catalog_compiles_total", "counter",
                       "Tenant services compiled from the source.", &out);
    out += "geolic_catalog_compiles_total{" + svc + "} " +
           std::to_string(cat.compiles) + "\n";
    AppendFamilyHeader("geolic_catalog_loads_total", "counter",
                       "Tenant services reloaded from spill checkpoints.",
                       &out);
    out += "geolic_catalog_loads_total{" + svc + "} " +
           std::to_string(cat.loads) + "\n";
    AppendFamilyHeader("geolic_catalog_evictions_total", "counter",
                       "Tenants evicted by the memory budget.", &out);
    out += "geolic_catalog_evictions_total{" + svc + "} " +
           std::to_string(cat.evictions) + "\n";
    AppendFamilyHeader("geolic_catalog_spills_total", "counter",
                       "Tenant spill checkpoints written.", &out);
    out += "geolic_catalog_spills_total{" + svc + "} " +
           std::to_string(cat.spills) + "\n";
    AppendFamilyHeader("geolic_catalog_recovered_tenants_total", "counter",
                       "Tenants rebuilt by catalog-wide recovery.", &out);
    out += "geolic_catalog_recovered_tenants_total{" + svc + "} " +
           std::to_string(cat.recovered_tenants) + "\n";
    AppendFamilyHeader("geolic_catalog_journal_frames_total", "counter",
                       "Tenant-tagged frames appended to the catalog "
                       "journal.",
                       &out);
    out += "geolic_catalog_journal_frames_total{" + svc + "} " +
           std::to_string(cat.journal_frames) + "\n";
    AppendFamilyHeader("geolic_catalog_resident_tenants", "gauge",
                       "Tenant services resident right now.", &out);
    out += "geolic_catalog_resident_tenants{" + svc + "} " +
           std::to_string(cat.resident_tenants) + "\n";
    AppendFamilyHeader("geolic_catalog_resident_bytes", "gauge",
                       "Approximate bytes of resident tenant state.", &out);
    out += "geolic_catalog_resident_bytes{" + svc + "} " +
           std::to_string(cat.resident_bytes) + "\n";
    AppendFamilyHeader("geolic_catalog_poisoned_writers", "gauge",
                       "1 when the catalog journal writer was poisoned by "
                       "an I/O error (the catalog has fail-stopped).",
                       &out);
    out += "geolic_catalog_poisoned_writers{" + svc + "} " +
           std::to_string(cat.poisoned_writers) + "\n";
  }

  return out;
}

std::string RenderJson(const ExpositionInput& input) {
  JsonWriter json;
  json.BeginObject();
  json.KeyValue("service", input.service);

  json.Key("requests");
  json.BeginObject();
  json.KeyValue("accepted", input.metrics.accepted);
  json.KeyValue("rejected_instance", input.metrics.rejected_instance);
  json.KeyValue("rejected_aggregate", input.metrics.rejected_aggregate);
  json.KeyValue("total", input.metrics.total_requests());
  json.EndObject();

  json.KeyValue("equations_checked", input.metrics.equations_checked);

  json.Key("batches");
  json.BeginObject();
  json.KeyValue("count", input.metrics.batches);
  json.KeyValue("requests", input.metrics.batched_requests);
  json.EndObject();

  json.Key("latency");
  AppendJsonHistogram(input.metrics.latency, &json);

  if (input.has_stages) {
    json.Key("stages");
    json.BeginObject();
    for (int s = 0; s < kTraceStageCount; ++s) {
      json.Key(TraceStageName(static_cast<TraceStage>(s)));
      AppendJsonHistogram(input.stages.stages[static_cast<size_t>(s)],
                          &json);
    }
    json.EndObject();
  }

  if (input.has_journal) {
    json.Key("journal");
    json.BeginObject();
    json.KeyValue("sequence", input.journal_sequence);
    json.EndObject();
  }

  if (input.has_recovery) {
    json.Key("recovery");
    json.BeginObject();
    json.KeyValue("checkpoint_records", input.recovery_checkpoint_records);
    json.KeyValue("journal_replayed", input.recovery_journal_replayed);
    json.KeyValue("journal_skipped", input.recovery_journal_skipped);
    json.KeyValue("torn_tail", input.recovery_torn_tail);
    json.EndObject();
  }

  if (input.has_net) {
    const ExpositionInput::NetSection& net = input.net;
    json.Key("net");
    json.BeginObject();
    json.Key("connections");
    json.BeginObject();
    json.KeyValue("opened", net.connections_opened);
    json.KeyValue("closed", net.connections_closed);
    json.EndObject();
    json.KeyValue("frames_decoded", net.frames_decoded);
    json.Key("requests");
    json.BeginObject();
    json.KeyValue("enqueued", net.requests_enqueued);
    json.KeyValue("shed", net.requests_shed);
    json.EndObject();
    json.KeyValue("protocol_errors", net.protocol_errors);
    json.Key("batches");
    json.BeginObject();
    json.KeyValue("dispatched", net.batches_dispatched);
    json.KeyValue("requests", net.batch_requests_dispatched);
    json.EndObject();
    json.KeyValue("queue_depth", net.queue_depth);
    json.KeyValue("queue_depth_peak", net.queue_depth_peak);
    json.Key("bytes");
    json.BeginObject();
    json.KeyValue("read", net.bytes_read);
    json.KeyValue("written", net.bytes_written);
    json.EndObject();
    json.KeyValue("reactor_sleeps", net.reactor_sleeps);
    json.EndObject();
  }

  if (input.has_catalog) {
    const ExpositionInput::CatalogSection& cat = input.catalog;
    json.Key("catalog");
    json.BeginObject();
    json.KeyValue("hits", cat.hits);
    json.KeyValue("misses", cat.misses);
    json.KeyValue("compiles", cat.compiles);
    json.KeyValue("loads", cat.loads);
    json.KeyValue("evictions", cat.evictions);
    json.KeyValue("spills", cat.spills);
    json.KeyValue("recovered_tenants", cat.recovered_tenants);
    json.KeyValue("journal_frames", cat.journal_frames);
    json.KeyValue("resident_tenants", cat.resident_tenants);
    json.KeyValue("resident_bytes", cat.resident_bytes);
    json.KeyValue("poisoned_writers", cat.poisoned_writers);
    json.EndObject();
  }

  json.EndObject();
  return std::move(json).Take();
}

Status WriteMetricsFile(const ExpositionInput& input,
                        const std::string& path) {
  const bool json = path.size() >= 5 &&
                    path.compare(path.size() - 5, 5, ".json") == 0;
  const std::string doc =
      json ? RenderJson(input) : RenderPrometheusText(input);
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return Status::IoError("cannot open metrics file for writing: " + path);
  }
  const bool wrote =
      std::fwrite(doc.data(), 1, doc.size(), file) == doc.size();
  const bool closed = std::fclose(file) == 0;
  if (!wrote || !closed) {
    return Status::IoError("metrics file write failed: " + path);
  }
  return Status::Ok();
}

}  // namespace geolic

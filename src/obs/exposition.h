#ifndef GEOLIC_OBS_EXPOSITION_H_
#define GEOLIC_OBS_EXPOSITION_H_

#include <cstdint>
#include <string>

#include "obs/trace.h"
#include "util/metrics.h"
#include "util/status.h"

namespace geolic {

// Everything one exposition document renders. Callers fill the sections
// they have; the `has_*` flags gate the optional ones. This is a plain
// data carrier so the obs layer never depends on the service layer that
// produces the numbers.
struct ExpositionInput {
  // Label value stamped on every series ({service="..."}).
  std::string service = "geolic";

  IssuanceMetrics::Snapshot metrics;

  bool has_stages = false;
  StageProfile::Snapshot stages;

  bool has_journal = false;
  uint64_t journal_sequence = 0;

  bool has_recovery = false;
  uint64_t recovery_checkpoint_records = 0;
  uint64_t recovery_journal_replayed = 0;
  uint64_t recovery_journal_skipped = 0;
  bool recovery_torn_tail = false;

  // Network front-end counters (src/net/server.h). Counters unless noted.
  bool has_net = false;
  struct NetSection {
    uint64_t connections_opened = 0;
    uint64_t connections_closed = 0;
    uint64_t frames_decoded = 0;
    uint64_t requests_enqueued = 0;
    uint64_t requests_shed = 0;     // Admission-queue overflow responses.
    uint64_t protocol_errors = 0;   // CRC/framing failures (connection drop).
    uint64_t batches_dispatched = 0;
    uint64_t batch_requests_dispatched = 0;
    uint64_t queue_depth = 0;       // Gauge: pending this reactor turn.
    uint64_t queue_depth_peak = 0;  // Gauge: high-water mark.
    uint64_t bytes_read = 0;
    uint64_t bytes_written = 0;
    uint64_t reactor_sleeps = 0;  // Reactor turns begun by blocking.
  } net;

  // Multi-tenant catalog counters (src/catalog/catalog_service.h).
  // Counters unless noted.
  bool has_catalog = false;
  struct CatalogSection {
    uint64_t hits = 0;        // Requests served by a resident tenant.
    uint64_t misses = 0;      // Requests that had to materialize the tenant.
    uint64_t compiles = 0;    // First-touch compiles from the tenant source.
    uint64_t loads = 0;       // Reloads from a spill checkpoint.
    uint64_t evictions = 0;   // Tenants pushed out by the memory budget.
    uint64_t spills = 0;      // Spill checkpoints written (evict + recover).
    uint64_t recovered_tenants = 0;  // Tenants rebuilt by catalog Recover.
    uint64_t journal_frames = 0;     // Tenant frames journaled.
    uint64_t resident_tenants = 0;   // Gauge: tenants resident right now.
    uint64_t resident_bytes = 0;     // Gauge: approx bytes they occupy.
    uint64_t poisoned_writers = 0;   // Gauge: 1 when the journal writer
                                     // died on an I/O error (the catalog
                                     // has fail-stopped), else 0.
  } catalog;
};

// Prometheus text exposition (one `# TYPE` comment per family, then the
// samples). Histograms render the power-of-two buckets cumulatively with
// `le` set to each bucket's exclusive upper bound 2^(i+1) (bucket i holds
// floor(log2(nanos)) == i), trailing empty buckets elided, then `+Inf`.
std::string RenderPrometheusText(const ExpositionInput& input);

// JSON twin of the text exposition: one object, integer-only values, so
// the document is byte-deterministic for a given input.
std::string RenderJson(const ExpositionInput& input);

// Writes one exposition document to `path`: JSON when the path ends in
// ".json", Prometheus text otherwise.
Status WriteMetricsFile(const ExpositionInput& input, const std::string& path);

}  // namespace geolic

#endif  // GEOLIC_OBS_EXPOSITION_H_

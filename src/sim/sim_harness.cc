#include "sim/sim_harness.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/wire.h"
#include "persist/faulty_file.h"
#include "persist/journal.h"
#include "persist/sync_file.h"
#include "service/issuance_service.h"
#include "sim/reference_model.h"
#include "sim/sim_environment.h"
#include "sim/sim_scheduler.h"
#include "util/check.h"

namespace geolic {
namespace {

// Largest per-request count the generator emits; the recovery diff uses it
// to bound how big an unobserved in-flight admission can be.
constexpr int64_t kMaxRequestCount = 3;

// FNV-1a (64-bit) over every op's outcome, the final log and the journal
// bytes: the per-seed digest sim_runner prints (SimResult::digest).
constexpr uint64_t kDigestSeed = 0xcbf29ce484222325ULL;

void MixDigest(uint64_t* digest, std::string_view bytes) {
  for (const char c : bytes) {
    *digest = (*digest ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
}

// Everything a decision says, as the digest reads it.
std::string DecisionText(const OnlineDecision& decision) {
  return std::to_string(decision.catalog_epoch) +
         (decision.instance_valid ? " i" : " -") +
         (decision.aggregate_valid ? "a " : "- ") +
         decision.satisfying_set.ToHex() + " " +
         decision.limiting.set.ToHex() + " " +
         std::to_string(decision.limiting.lhs) + " " +
         std::to_string(decision.limiting.rhs) + " " +
         std::to_string(decision.equations_checked) + ";";
}

std::string MaskText(const LicenseSet& mask) { return mask.ToHex(); }

std::string DescribeOp(const SimOp& op) {
  switch (op.kind) {
    case SimOpKind::kTryIssue:
      return "issue " + op.requests[0].id() + " count=" +
             std::to_string(op.requests[0].aggregate_count());
    case SimOpKind::kTryIssueBatch: {
      std::string text = "batch[";
      for (size_t i = 0; i < op.requests.size(); ++i) {
        if (i > 0) {
          text += ",";
        }
        text += op.requests[i].id();
      }
      return text + "]";
    }
    case SimOpKind::kWriteCheckpoint:
      return "checkpoint";
    case SimOpKind::kAcquireLicense:
      return "acquire " + op.requests[0].id();
    case SimOpKind::kRevokeLicense:
      return "revoke " + op.revoke_id;
    case SimOpKind::kExpireBefore:
      return "expire<" + std::to_string(op.expire_cutoff);
  }
  return "?";
}

// A reconfiguration whose journal frame append hit the scheduled fault:
// the service aborted (nothing published), but the frame may still have
// fully reached the platter, so recovery is allowed to replay it.
struct PendingReconfig {
  bool is_acquire = false;
  License acquired;    // Valid when is_acquire.
  LicenseSet removed;  // Old-epoch-space removal mask otherwise.
};

// Everything the cooperatively scheduled tasks share. No locking: the
// scheduler guarantees exactly one task thread runs at a time, and every
// handoff goes through its mutex, so accesses are ordered (TSan-visibly)
// by construction.
struct SimState {
  const SimWorkload* workload = nullptr;
  IssuanceService* service = nullptr;
  // The reference model always tracks the service's CURRENT catalog
  // epoch: each successful reconfiguration rebuilds it around an owned
  // copy of the evolved catalog, replaying surviving counts through the
  // same cascade-drop + dense renumbering the service performs.
  const LicenseCatalog* model_catalog = nullptr;
  std::unique_ptr<LicenseCatalog> model_catalog_owner;
  std::unique_ptr<ReferenceModel> model;
  uint64_t model_epoch = 0;
  InMemorySyncFile* disk = nullptr;  // The journal's platter.
  SimScheduler* scheduler = nullptr;
  std::string scratch_dir;

  std::string checkpoint_path;  // Latest durable checkpoint, "" = none.
  int checkpoints_written = 0;

  bool journal_error_seen = false;
  // The admission whose journal append hit the fault: its frame may or may
  // not have fully reached the platter, so recovery is allowed to contain
  // exactly this one record beyond the model.
  bool have_maybe_persisted = false;
  LicenseSet maybe_persisted_set;
  int64_t maybe_persisted_count = 0;
  // The reconfiguration whose frame append hit the fault (same ambiguity:
  // recovery may or may not see one reconfig record beyond the model).
  bool have_maybe_reconfig = false;
  PendingReconfig maybe_reconfig;
  // A batch died on the fault: the in-flight admission is unknown, so the
  // recovery diff falls back to a bounded one-record allowance.
  bool batch_error = false;
  // Running hash of every op's outcome, the final log and the journal
  // bytes (SimResult::digest).
  uint64_t digest = kDigestSeed;

  std::string failure;  // First conformance violation; empty = clean.
  std::vector<std::string> op_trace;
  size_t ops_executed = 0;

  explicit SimState(const LicenseCatalog* licenses)
      : model_catalog(licenses),
        model(std::make_unique<ReferenceModel>(licenses)) {}
};

void Fail(SimState* state, const std::string& what) {
  if (state->failure.empty()) {
    state->failure = what;
  }
}

// Rebuilds the reference model around the catalog that results from
// `pending` — dropped licenses removed, surviving licenses renumbered
// densely, an acquired license appended — and replays every surviving
// count through the renumbering (records intersecting the removal are
// cascade-dropped, exactly the live reconfiguration semantics).
void ApplyReconfigToModel(SimState* state, const PendingReconfig& pending) {
  const LicenseCatalog& old_catalog = *state->model_catalog;
  auto next = std::make_unique<LicenseCatalog>(&old_catalog.schema());
  std::vector<int> old_to_new;
  old_to_new.reserve(static_cast<size_t>(old_catalog.size()));
  int next_index = 0;
  for (int i = 0; i < old_catalog.size(); ++i) {
    if (pending.removed.Contains(i)) {
      old_to_new.push_back(-1);
      continue;
    }
    GEOLIC_CHECK(next->Add(old_catalog.at(i)).ok());
    old_to_new.push_back(next_index++);
  }
  if (pending.is_acquire) {
    GEOLIC_CHECK(next->Add(pending.acquired).ok());
  }
  auto fresh = std::make_unique<ReferenceModel>(next.get());
  for (const auto& [set, count] : state->model->counts()) {
    if (set.Intersects(pending.removed)) {
      continue;
    }
    LicenseSet remapped;
    for (int i : set.Indexes()) {
      remapped.Add(old_to_new[static_cast<size_t>(i)]);
    }
    fresh->Apply(remapped, count);
  }
  state->model = std::move(fresh);  // Old model dies before its catalog.
  state->model_catalog_owner = std::move(next);
  state->model_catalog = state->model_catalog_owner.get();
  ++state->model_epoch;
}

// The service and the model must agree on the epoch number after every
// lifecycle op — they advance in lockstep because the executor updates
// the model without yielding after the service call returns.
void CheckEpochLockstep(SimState* state, const char* when) {
  const uint64_t service_epoch = state->service->catalog_epoch();
  if (service_epoch != state->model_epoch) {
    Fail(state, std::string(when) + ": service catalog epoch " +
                    std::to_string(service_epoch) + " != model epoch " +
                    std::to_string(state->model_epoch));
  }
}

// Compares one service decision against the reference model: the
// satisfying set, accept/reject and the full limiting equation must agree
// exactly. Every service call is one step under the service lock, and the
// executor updates the model right after it returns, so the model holds
// exactly the state the service decided against.
std::string CompareDecision(const ReferenceModel& model,
                            const License& request,
                            const OnlineDecision& got) {
  const ReferenceModel::Decision want = model.TryIssue(request);
  if (got.instance_valid != want.instance_valid ||
      got.satisfying_set != want.satisfying_set) {
    return "satisfying set mismatch for " + request.id() + ": service " +
           MaskText(got.satisfying_set) + ", brute force " +
           MaskText(want.satisfying_set);
  }
  if (!want.instance_valid) {
    return "";
  }
  if (got.aggregate_valid != want.aggregate_valid) {
    return std::string("decision mismatch for ") + request.id() +
           ": service " + (got.aggregate_valid ? "accepted" : "rejected") +
           ", brute-force eq. 1 says " +
           (want.aggregate_valid ? "accept" : "reject");
  }
  if (!want.aggregate_valid &&
      (got.limiting.set != want.limiting_set ||
       got.limiting.lhs != want.limiting_lhs ||
       got.limiting.rhs != want.limiting_rhs)) {
    return "limiting equation mismatch for " + request.id() + ": service " +
           MaskText(got.limiting.set) + " (" +
           std::to_string(got.limiting.lhs) + " > " +
           std::to_string(got.limiting.rhs) + "), brute force " +
           MaskText(want.limiting_set) + " (" +
           std::to_string(want.limiting_lhs) + " > " +
           std::to_string(want.limiting_rhs) + ")";
  }
  return "";
}

// The service hit a journal I/O error while admitting `request`. The first
// such error is the faulted append: that admission's frame may have fully
// persisted even though the caller saw a failure.
void NoteJournalError(SimState* state, const License& request) {
  if (state->workload->fault_kind == 0) {
    Fail(state, "journal error without a scheduled fault");
    return;
  }
  if (state->journal_error_seen) {
    return;  // Poisoned writer: nothing further reaches the platter.
  }
  state->journal_error_seen = true;
  state->have_maybe_persisted = true;
  state->maybe_persisted_set = state->model->TryIssue(request).satisfying_set;
  state->maybe_persisted_count = request.aggregate_count();
}

// A reconfiguration failed. Without a scheduled fault that is a service
// bug; with one, the first failure is the faulted frame append — the
// service aborted, but the frame itself may have reached the platter.
void NoteReconfigFailure(SimState* state, PendingReconfig pending,
                         const Status& status) {
  if (state->workload->fault_kind == 0) {
    Fail(state,
         std::string("reconfiguration failed without a scheduled fault: ") +
             status.message());
    return;
  }
  if (state->journal_error_seen) {
    return;  // Poisoned writer: the frame never reached the platter.
  }
  state->journal_error_seen = true;
  state->have_maybe_reconfig = true;
  state->maybe_reconfig = std::move(pending);
}

// Raises the model to the service's merged log counts after a mid-batch
// journal failure left admissions the caller could not observe. The
// service may only ever be AHEAD of the model — a missing record means an
// acknowledged admission vanished.
void ReconcileModelFromServiceLog(SimState* state) {
  const std::unordered_map<LicenseSet, int64_t> merged =
      state->service->CollectLog().MergedCounts();
  for (const auto& [set, count] : state->model->counts()) {
    const auto it = merged.find(set);
    const int64_t service_count = it == merged.end() ? 0 : it->second;
    if (service_count < count) {
      Fail(state, "service log lost records for set " + MaskText(set));
      return;
    }
  }
  for (const auto& [set, count] : merged) {
    const auto it = state->model->counts().find(set);
    const int64_t model_count =
        it == state->model->counts().end() ? 0 : it->second;
    if (count > model_count) {
      state->model->Apply(set, count - model_count);
    }
  }
  const Status invariant = state->model->CheckInvariant();
  if (!invariant.ok()) {
    Fail(state, std::string("after batch reconcile: ") + invariant.message());
  }
}

void RunInvariantSweep(SimState* state, const char* when) {
  const Status invariant = state->model->CheckInvariant();
  if (!invariant.ok()) {
    Fail(state, std::string(when) + ": " + invariant.message());
  }
}

// Cross-checks the wire codec against the request the harness is about to
// admit: every generated license must survive encode -> decode -> encode
// byte-identically, so the sim sweep exercises the network payload format
// on every admission path, not just in the dedicated wire tests.
bool CheckWireRoundTrip(SimState* state, const License& request) {
  std::string payload;
  const Status encoded = net::EncodeIssueRequest(request, &payload);
  if (!encoded.ok()) {
    Fail(state, "wire encode failed for " + request.id() + ": " +
                    std::string(encoded.message()));
    return false;
  }
  const Result<License> decoded = net::DecodeIssueRequest(payload);
  if (!decoded.ok()) {
    Fail(state, "wire decode failed for " + request.id() + ": " +
                    std::string(decoded.status().message()));
    return false;
  }
  std::string again;
  if (!net::EncodeIssueRequest(*decoded, &again).ok() || again != payload) {
    Fail(state, "wire round-trip not byte-identical for " + request.id());
    return false;
  }
  return true;
}

// Checks a decision of the current op against the model, digests it and
// applies it to the model when accepted. `what` names it in failures.
void CheckAndApply(SimState* state, const std::string& what,
                   const License& request, const OnlineDecision& got) {
  if (got.catalog_epoch != state->model_epoch) {
    Fail(state, what + " decided in epoch " +
                    std::to_string(got.catalog_epoch) + ", model at " +
                    std::to_string(state->model_epoch));
    return;
  }
  const std::string mismatch = CompareDecision(*state->model, request, got);
  if (!mismatch.empty()) {
    Fail(state, what + ": " + mismatch);
    return;
  }
  MixDigest(&state->digest, DecisionText(got));
  if (got.accepted()) {
    state->model->Apply(got.satisfying_set, request.aggregate_count());
  }
}

void ExecuteTryIssue(SimState* state, const SimOp& op) {
  const License& request = op.requests[0];
  if (!CheckWireRoundTrip(state, request)) {
    return;
  }
  const Result<OnlineDecision> got = state->service->TryIssue(request);
  if (!got.ok()) {
    MixDigest(&state->digest, "issue error;");
    NoteJournalError(state, request);
    return;
  }
  CheckAndApply(state, "issue " + request.id(), request, *got);
  RunInvariantSweep(state, "after issue");
}

void ExecuteBatch(SimState* state, const SimOp& op) {
  for (const License& request : op.requests) {
    if (!CheckWireRoundTrip(state, request)) {
      return;
    }
  }
  std::vector<const License*> batch;
  for (const License& request : op.requests) {
    batch.push_back(&request);
  }
  std::vector<OnlineDecision> got(op.requests.size());
  if (!state->service->TryIssueBatch(batch, got).ok()) {
    MixDigest(&state->digest, "batch error;");
    if (state->workload->fault_kind == 0) {
      Fail(state, "batch error without a scheduled fault");
      return;
    }
    // The faulted append belongs to an unknown request inside the batch,
    // and the requests before it were admitted unobserved.
    state->journal_error_seen = true;
    state->batch_error = true;
    ReconcileModelFromServiceLog(state);
    return;
  }
  // The whole batch is one step under the service lock: its decisions are
  // a sequential TryIssue loop's against the model as it stands.
  for (size_t i = 0; i < op.requests.size() && state->failure.empty(); ++i) {
    CheckAndApply(state, "batch[" + std::to_string(i) + "]", op.requests[i],
                  got[i]);
  }
  RunInvariantSweep(state, "after batch");
}

void ExecuteCheckpoint(SimState* state) {
  const std::string path =
      state->scratch_dir + "/ckpt_" +
      std::to_string(++state->checkpoints_written) + ".gck";
  const Status written = state->service->WriteCheckpoint(path);
  MixDigest(&state->digest,
            written.ok() ? "checkpoint ok;" : "checkpoint error;");
  if (!written.ok()) {
    Fail(state, std::string("checkpoint write failed: ") + written.message());
    return;
  }
  state->checkpoint_path = path;
}

void ExecuteAcquire(SimState* state, const SimOp& op) {
  const License& license = op.requests[0];
  PendingReconfig pending;
  pending.is_acquire = true;
  pending.acquired = license;
  const Result<int> got = state->service->AcquireLicense(license);
  MixDigest(&state->digest,
            "acquire " + (got.ok() ? std::to_string(*got) : "error") + ";");
  if (!got.ok()) {
    NoteReconfigFailure(state, std::move(pending), got.status());
    CheckEpochLockstep(state, "after failed acquire");
    return;
  }
  // Checked against the model catalog AFTER the call: reconfigurations by
  // other tasks can land inside this call's yield, and the model tracks
  // them — so at return the model size IS the service's pre-acquire size.
  if (*got != state->model_catalog->size()) {
    Fail(state, "acquire " + license.id() + " returned index " +
                    std::to_string(*got) + ", expected " +
                    std::to_string(state->model_catalog->size()));
    return;
  }
  ApplyReconfigToModel(state, pending);
  CheckEpochLockstep(state, "after acquire");
  RunInvariantSweep(state, "after acquire");
}

void ExecuteRevoke(SimState* state, const SimOp& op) {
  // Revoke by id: a reconfiguration by another task can renumber indexes
  // inside this call's yield, so the service resolves the id under its
  // lock. The model resolves AFTER the call returns —
  // nothing can run in between, so both resolve in the same epoch.
  const Status got = state->service->RevokeLicenseById(op.revoke_id);
  MixDigest(&state->digest, got.ok() ? "revoke ok;" : "revoke refused;");
  const Result<int> index = state->model_catalog->IndexOfId(op.revoke_id);
  if (!index.ok()) {
    // Never acquired, or already revoked/expired: the service must have
    // refused without side effects.
    if (got.ok()) {
      Fail(state, "revoke of absent id " + op.revoke_id + " succeeded");
    }
    CheckEpochLockstep(state, "after refused revoke");
    return;
  }
  if (state->model_catalog->size() == 1) {
    if (got.ok()) {
      Fail(state, "revoking the last license succeeded");
    }
    CheckEpochLockstep(state, "after refused revoke");
    return;
  }
  PendingReconfig pending;
  pending.removed.Add(*index);
  if (!got.ok()) {
    NoteReconfigFailure(state, std::move(pending), got);
    CheckEpochLockstep(state, "after failed revoke");
    return;
  }
  ApplyReconfigToModel(state, pending);
  CheckEpochLockstep(state, "after revoke");
  RunInvariantSweep(state, "after revoke");
}

void ExecuteExpire(SimState* state, const SimOp& op) {
  const Result<int> got =
      state->service->ExpireDimensionBelow(0, op.expire_cutoff);
  MixDigest(&state->digest,
            "expire " + (got.ok() ? std::to_string(*got) : "error") + ";");
  // The expected removal is evaluated on the model catalog AFTER the call:
  // the service computed against the epoch current at execution, no other
  // task has run since, and the model has not applied yet — so both see
  // the same pre-expiry catalog.
  PendingReconfig pending;
  for (int i = 0; i < state->model_catalog->size(); ++i) {
    const Interval& range =
        state->model_catalog->at(i).rect().dim(0).interval();
    if (range.hi() < op.expire_cutoff) {
      pending.removed.Add(i);
    }
  }
  const int expected = pending.removed.Size();
  if (expected == state->model_catalog->size()) {
    // Expiring everything must be refused without side effects.
    if (got.ok()) {
      Fail(state, "expiring every license succeeded");
    }
    CheckEpochLockstep(state, "after refused expire");
    return;
  }
  if (!got.ok()) {
    NoteReconfigFailure(state, std::move(pending), got.status());
    CheckEpochLockstep(state, "after failed expire");
    return;
  }
  if (*got != expected) {
    Fail(state, "expire<" + std::to_string(op.expire_cutoff) + " removed " +
                    std::to_string(*got) + " licenses, brute force expects " +
                    std::to_string(expected));
    return;
  }
  if (expected == 0) {
    CheckEpochLockstep(state, "after no-op expire");
    return;  // No removal: no epoch change on either side.
  }
  ApplyReconfigToModel(state, pending);
  CheckEpochLockstep(state, "after expire");
  RunInvariantSweep(state, "after expire");
}

void ExecuteOp(SimState* state, const SimOp& op) {
  ++state->ops_executed;
  state->op_trace.push_back(DescribeOp(op));
  switch (op.kind) {
    case SimOpKind::kTryIssue:
      ExecuteTryIssue(state, op);
      return;
    case SimOpKind::kTryIssueBatch:
      ExecuteBatch(state, op);
      return;
    case SimOpKind::kWriteCheckpoint:
      ExecuteCheckpoint(state);
      return;
    case SimOpKind::kAcquireLicense:
      ExecuteAcquire(state, op);
      return;
    case SimOpKind::kRevokeLicense:
      ExecuteRevoke(state, op);
      return;
    case SimOpKind::kExpireBefore:
      ExecuteExpire(state, op);
      return;
  }
}

// Recovered state may exceed the model by AT MOST the one in-flight
// admission whose journal append hit the fault; anything else — a missing
// acknowledged record, a phantom record, more than one extra — is a
// durability bug. Adopts the allowed extra into the model. Reconfiguration
// frames are checked first: recovery must have replayed exactly the
// reconfigurations the model saw, plus at most the one whose own frame
// append hit the fault (adopted into the model before diffing counts).
void CheckRecoveredCounts(
    SimState* state, const RecoveryStats& stats,
    const std::unordered_map<LicenseSet, int64_t>& recovered) {
  if (state->have_maybe_reconfig && state->workload->fault_kind != 2 &&
      stats.reconfig_records_replayed == state->model_epoch + 1) {
    ApplyReconfigToModel(state, state->maybe_reconfig);
  } else if (stats.reconfig_records_replayed != state->model_epoch) {
    Fail(state, "recovery replayed " +
                    std::to_string(stats.reconfig_records_replayed) +
                    " reconfiguration records, model saw " +
                    std::to_string(state->model_epoch));
    return;
  }
  if (stats.recovered_catalog_epoch != state->model_epoch) {
    Fail(state, "recovered catalog epoch " +
                    std::to_string(stats.recovered_catalog_epoch) +
                    " != model epoch " + std::to_string(state->model_epoch));
    return;
  }
  std::map<LicenseSet, int64_t> extras;
  for (const auto& [set, count] : state->model->counts()) {
    const auto it = recovered.find(set);
    const int64_t have = it == recovered.end() ? 0 : it->second;
    if (have < count) {
      Fail(state, "recovery lost acknowledged records for set " +
                      MaskText(set) + ": " + std::to_string(have) + " < " +
                      std::to_string(count));
      return;
    }
  }
  for (const auto& [set, count] : recovered) {
    const auto it = state->model->counts().find(set);
    const int64_t have =
        it == state->model->counts().end() ? 0 : it->second;
    if (count > have) {
      extras[set] = count - have;
    }
  }
  if (extras.empty()) {
    return;
  }
  if (state->workload->fault_kind == 2) {
    // Recovered from the synced bytes alone: the faulted op's frame never
    // had a completed sync, so nothing beyond the model may come back.
    Fail(state, "recovery kept a record no completed sync covered: " +
                    MaskText(extras.begin()->first));
    return;
  }
  if (extras.size() > 1) {
    Fail(state, "recovery produced " + std::to_string(extras.size()) +
                    " phantom record sets");
    return;
  }
  const auto& [extra_set, extra_count] = *extras.begin();
  if (state->have_maybe_persisted) {
    if (extra_set != state->maybe_persisted_set ||
        extra_count != state->maybe_persisted_count) {
      Fail(state, "recovery extra record " + MaskText(extra_set) + " x" +
                      std::to_string(extra_count) +
                      " does not match the in-flight admission " +
                      MaskText(state->maybe_persisted_set) + " x" +
                      std::to_string(state->maybe_persisted_count));
      return;
    }
  } else if (state->batch_error) {
    if (extra_count > kMaxRequestCount) {
      Fail(state, "recovery extra record exceeds any single request: " +
                      MaskText(extra_set) + " x" +
                      std::to_string(extra_count));
      return;
    }
  } else {
    Fail(state, "phantom record after recovery: " + MaskText(extra_set) +
                    " x" + std::to_string(extra_count));
    return;
  }
  state->model->Apply(extra_set, extra_count);
  RunInvariantSweep(state, "after adopting recovered in-flight record");
}

// Final conformance: service snapshots (log, tree, flat tree) against the
// model, then a full crash-recovery round trip from the journal platter
// plus the newest checkpoint, then a short single-threaded continuation on
// the recovered service.
void FinalChecks(SimState* state, const SimConfig& config,
                 const OnlineValidatorOptions& options) {
  if (state->failure.empty() && !state->batch_error) {
    const std::unordered_map<LicenseSet, int64_t> merged =
        state->service->CollectLog().MergedCounts();
    if (merged.size() != state->model->counts().size()) {
      Fail(state, "final log has " + std::to_string(merged.size()) +
                      " distinct sets, model has " +
                      std::to_string(state->model->counts().size()));
    }
    for (const auto& [set, count] : state->model->counts()) {
      const auto it = merged.find(set);
      if (it == merged.end() || it->second != count) {
        Fail(state, "final log count mismatch for set " + MaskText(set));
        break;
      }
    }
  }
  if (state->failure.empty()) {
    const Result<FlatValidationTree> flat = state->service->CollectFlatTree();
    if (!flat.ok()) {
      Fail(state, std::string("flat tree compile failed: ") +
                      flat.status().message());
    } else {
      // Every equation LHS, flat pruned scan vs. brute force. Recorded
      // sets lie within one overlap component, so C<T> factors across
      // components; sweeping each component exhaustively covers every
      // distinct per-component sum (2^slab per slab instead of 2^N).
      const std::vector<LicenseSet>& components = state->model->components();
      for (const LicenseSet& component : components) {
        for (SubsetIterator it(component); !it.Done() && state->failure.empty();
             it.Next()) {
          const LicenseSet t = it.subset();
          if (flat->SumSubsets(t) != state->model->SumSubsets(t)) {
            Fail(state, "flat tree C<S> diverges from brute force at " +
                            MaskText(t));
          }
        }
      }
      // Cross-component probes: full pairwise unions and the all-mask,
      // so the factored path through the flat tree is exercised on
      // spanning equations too (bounded: O(components^2) probes).
      if (state->failure.empty()) {
        std::vector<LicenseSet> spanning;
        for (size_t a = 0; a < components.size(); ++a) {
          for (size_t b = a + 1; b < components.size(); ++b) {
            spanning.push_back(components[a] | components[b]);
          }
        }
        spanning.push_back(state->model_catalog->AllMask());
        for (const LicenseSet& t : spanning) {
          if (flat->SumSubsets(t) != state->model->SumSubsets(t)) {
            Fail(state, "flat tree C<S> diverges from brute force at " +
                            MaskText(t));
            break;
          }
        }
      }
    }
  }
  RunInvariantSweep(state, "final");
  if (!state->failure.empty()) {
    return;
  }

  // Crash-recovery round trip: the platter contents are exactly what a
  // recovery pass would find after the process died here. A failing fsync
  // stands for a power loss, which keeps only what a completed sync
  // covered (nothing, when no sync completed); a torn append keeps every
  // byte that reached the file. Recovery always starts from the EPOCH-0
  // catalog — the journal's reconfiguration ops must re-derive the
  // final catalog on their own.
  const std::string journal_path = state->scratch_dir + "/journal.gjl";
  {
    std::ofstream out(journal_path, std::ios::binary | std::ios::trunc);
    GEOLIC_CHECK(out.good());
    const std::string bytes = state->workload->fault_kind == 2
                                  ? state->disk->synced_contents()
                                  : state->disk->contents();
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    GEOLIC_CHECK(out.good());
  }
  RecoveryStats stats;
  Result<std::unique_ptr<IssuanceService>> recovered = IssuanceService::Recover(
      state->workload->licenses.get(), options, state->checkpoint_path,
      journal_path, &stats);
  if (!recovered.ok()) {
    Fail(state, std::string("recovery failed: ") +
                    recovered.status().message());
    return;
  }
  CheckRecoveredCounts(state, stats,
                       (*recovered)->CollectLog().MergedCounts());
  if (!state->failure.empty()) {
    return;
  }

  // Continuation: the recovered service must keep deciding exactly like
  // the (now synchronized) model. Both sit in the final epoch's index
  // space — the recovered service merely numbers it as its own epoch 0.
  IssuanceService* service = recovered->get();
  auto fresh = std::make_unique<InMemorySyncFile>();
  Result<std::unique_ptr<JournalWriter>> writer =
      JournalWriter::Create(std::move(fresh));
  GEOLIC_CHECK(writer.ok());
  GEOLIC_CHECK(service->AttachJournal(std::move(*writer)).ok());
  for (const SimOp& op : state->workload->post_recovery_ops) {
    const License& request = op.requests[0];
    const Result<OnlineDecision> got = service->TryIssue(request);
    if (!got.ok()) {
      Fail(state, std::string("post-recovery issue failed: ") +
                      got.status().message());
      return;
    }
    state->op_trace.push_back("post-recovery " + DescribeOp(op));
    ++state->ops_executed;
    const std::string mismatch =
        CompareDecision(*state->model, request, *got);
    if (!mismatch.empty()) {
      Fail(state, "post-recovery: " + mismatch);
      return;
    }
    MixDigest(&state->digest, DecisionText(*got));
    if (got->accepted()) {
      state->model->Apply(got->satisfying_set, request.aggregate_count());
    }
  }
  (void)config;
}

std::string MakeScratchDir(uint64_t seed) {
  static std::atomic<uint64_t> counter{0};
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("geolic_sim_" + std::to_string(::getpid()) + "_" +
        std::to_string(seed) + "_" +
        std::to_string(counter.fetch_add(1))))
          .string();
  std::filesystem::create_directories(dir);
  return dir;
}

}  // namespace

SimWorkload GenerateWorkload(uint64_t seed, const SimConfig& config) {
  SimEnvironment env(seed);
  Rng& rng = env.workload_rng();
  SimWorkload workload;

  const int dims = static_cast<int>(rng.UniformInt(1, 2));
  workload.schema = std::make_unique<ConstraintSchema>();
  for (int d = 0; d < dims; ++d) {
    GEOLIC_CHECK(workload.schema
                     ->AddIntervalDimension("C" + std::to_string(d + 1))
                     .ok());
  }
  workload.licenses = std::make_unique<LicenseCatalog>(workload.schema.get());
  // A quarter of the lifecycle seeds draw a catalog at the dense-table
  // cap: one overlap group of kMaxDenseGroupSize - 1 or kMaxDenseGroupSize
  // licenses around a common hub point, which acquisitions (also
  // hub-shaped) push over the cap and revocations pull back under it —
  // reconfigurations then carry equation state between dense tables and
  // the tree.
  bool near_cap = false;
  if (config.lifecycle_ops) {
    // A bit the generator once spent on the service's lock striping,
    // still drawn so that every seed builds the same catalog and ops.
    (void)rng.Bernoulli(0.5);
    near_cap = config.cluster_slabs <= 1 && rng.Bernoulli(0.25);
  }
  const int license_count =
      near_cap ? static_cast<int>(rng.UniformInt(kMaxDenseGroupSize - 1,
                                                 kMaxDenseGroupSize))
               : static_cast<int>(
                     rng.UniformInt(config.min_licenses, config.max_licenses));
  constexpr int64_t kDomain = 24;
  constexpr int64_t kHub = kDomain / 2;
  // Slabs are 2*kDomain apart so a license's interval (max hi offset
  // kDomain - 6 + 10 = 28) can never reach the next slab: components stay
  // within one slab by construction.
  constexpr int64_t kSlabStride = 2 * kDomain;
  const int slabs = config.cluster_slabs < 1 ? 1 : config.cluster_slabs;
  // `hub`: the license contains its slab's hub point (every such license
  // of a slab overlaps every other).
  const auto make_redistribution = [&](const std::string& id,
                                       int64_t slab_lo, bool hub) {
    LicenseBuilder builder(workload.schema.get());
    builder.SetId(id)
        .SetContentKey("K")
        .SetType(LicenseType::kRedistribution)
        .SetPermission(Permission::kPlay)
        .SetAggregateCount(rng.UniformInt(2, 10));
    for (int d = 0; d < dims; ++d) {
      int64_t lo = 0;
      int64_t hi = 0;
      if (hub) {
        lo = slab_lo + kHub - rng.UniformInt(0, 8);
        hi = slab_lo + kHub + rng.UniformInt(0, 8);
      } else {
        lo = slab_lo + rng.UniformInt(0, kDomain - 6);
        hi = lo + rng.UniformInt(3, 10);
      }
      builder.SetInterval("C" + std::to_string(d + 1), lo, hi);
    }
    const Result<License> license = builder.Build();
    GEOLIC_CHECK(license.ok());
    return *license;
  };
  // Indexes go round-robin over the slabs, so a slab's members are
  // `slabs` indexes apart. With several slabs, each word boundary inside
  // the catalog (64, 128, ...) first takes a slab of its own: a block of
  // consecutive indexes across the boundary, all around the slab's hub,
  // so one dense group's member runs split at the boundary.
  std::vector<int> slab_of(static_cast<size_t>(license_count), -1);
  int block_slabs = 0;
  for (int boundary = kMaxLicensesInline;
       slabs > 1 && boundary < license_count && block_slabs + 1 < slabs;
       boundary += kMaxLicensesInline) {
    const int below = static_cast<int>(rng.UniformInt(1, 4));
    const int above = static_cast<int>(
        std::min<int64_t>(rng.UniformInt(1, 4), license_count - boundary));
    for (int i = boundary - below; i < boundary + above; ++i) {
      slab_of[static_cast<size_t>(i)] = block_slabs;
    }
    ++block_slabs;
  }
  for (int i = 0, next = 0; i < license_count; ++i) {
    if (slab_of[static_cast<size_t>(i)] < 0) {
      slab_of[static_cast<size_t>(i)] = block_slabs + next;
      next = (next + 1) % (slabs - block_slabs);
    }
  }
  std::vector<std::string> known_ids;
  for (int i = 0; i < license_count; ++i) {
    const int slab = slab_of[static_cast<size_t>(i)];
    known_ids.push_back("L" + std::to_string(i + 1));
    GEOLIC_CHECK(workload.licenses
                     ->Add(make_redistribution(known_ids.back(),
                                               slab * kSlabStride,
                                               near_cap || slab < block_slabs))
                     .ok());
  }

  int request_counter = 0;
  const auto make_request = [&]() {
    LicenseBuilder builder(workload.schema.get());
    builder.SetId("U" + std::to_string(++request_counter))
        .SetContentKey("K")
        .SetType(LicenseType::kUsage)
        .SetPermission(Permission::kPlay)
        .SetAggregateCount(rng.UniformInt(1, kMaxRequestCount));
    if (rng.Bernoulli(0.15)) {
      // Anywhere in a random slab: often instance-invalid — the
      // instance-reject path.
      const int64_t slab_lo =
          rng.UniformInt(0, static_cast<int64_t>(slabs) - 1) * kSlabStride;
      for (int d = 0; d < dims; ++d) {
        const int64_t lo = slab_lo + rng.UniformInt(0, kDomain - 1);
        builder.SetInterval("C" + std::to_string(d + 1), lo,
                            lo + rng.UniformInt(0, 4));
      }
    } else {
      // A sub-rectangle of one license, so the satisfying set is
      // non-empty and the aggregate path runs.
      const int target =
          static_cast<int>(rng.UniformIndex(
              static_cast<size_t>(workload.licenses->size())));
      const License& inside = workload.licenses->at(target);
      for (int d = 0; d < dims; ++d) {
        const Interval& range = inside.rect().dim(d).interval();
        const int64_t lo = rng.UniformInt(range.lo(), range.hi());
        const int64_t hi = rng.UniformInt(lo, range.hi());
        builder.SetInterval("C" + std::to_string(d + 1), lo, hi);
      }
    }
    const Result<License> license = builder.Build();
    GEOLIC_CHECK(license.ok());
    return *license;
  };

  int acquire_counter = 0;
  const int clients = static_cast<int>(
      rng.UniformInt(config.min_clients, config.max_clients));
  workload.client_ops.resize(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    const int ops = static_cast<int>(rng.UniformInt(
        config.min_ops_per_client, config.max_ops_per_client));
    for (int i = 0; i < ops; ++i) {
      SimOp op;
      const double kind = rng.UniformDouble();
      if (config.lifecycle_ops) {
        if (kind < 0.58) {
          op.kind = SimOpKind::kTryIssue;
          op.requests.push_back(make_request());
        } else if (kind < 0.70) {
          op.kind = SimOpKind::kTryIssueBatch;
          const int batch = static_cast<int>(rng.UniformInt(2, 4));
          for (int b = 0; b < batch; ++b) {
            op.requests.push_back(make_request());
          }
        } else if (kind < 0.82) {
          op.kind = SimOpKind::kWriteCheckpoint;
        } else if (kind < 0.90) {
          op.kind = SimOpKind::kAcquireLicense;
          const int64_t slab_lo =
              rng.UniformInt(0, static_cast<int64_t>(slabs) - 1) *
              kSlabStride;
          const std::string id = "A" + std::to_string(++acquire_counter);
          op.requests.push_back(make_redistribution(id, slab_lo, near_cap));
          known_ids.push_back(id);
        } else if (kind < 0.96) {
          op.kind = SimOpKind::kRevokeLicense;
          op.revoke_id = known_ids[rng.UniformIndex(known_ids.size())];
        } else {
          op.kind = SimOpKind::kExpireBefore;
          op.expire_cutoff = rng.UniformInt(1, kDomain);
        }
      } else if (kind < 0.72) {
        op.kind = SimOpKind::kTryIssue;
        op.requests.push_back(make_request());
      } else if (kind < 0.84) {
        op.kind = SimOpKind::kTryIssueBatch;
        const int batch = static_cast<int>(rng.UniformInt(2, 4));
        for (int b = 0; b < batch; ++b) {
          op.requests.push_back(make_request());
        }
      } else {
        op.kind = SimOpKind::kWriteCheckpoint;
      }
      workload.client_ops[static_cast<size_t>(c)].push_back(std::move(op));
    }
  }

  if (config.force_fault || rng.Bernoulli(config.fault_probability)) {
    workload.fault_kind = static_cast<int>(rng.UniformInt(1, 2));
    workload.fault_append = static_cast<uint64_t>(rng.UniformInt(1, 12));
    workload.fault_keep_bytes =
        static_cast<size_t>(rng.UniformInt(0, 64));
  }

  for (int i = 0; i < 4; ++i) {
    SimOp op;
    op.kind = SimOpKind::kTryIssue;
    op.requests.push_back(make_request());
    workload.post_recovery_ops.push_back(std::move(op));
  }
  return workload;
}

SimResult RunWorkload(const SimWorkload& workload, uint64_t seed,
                      const SimConfig& config, const SimOpMask* enabled) {
  SimResult result;
  result.seed = seed;

  SimEnvironment env(seed);
  SimScheduler scheduler(&env);

  OnlineValidatorOptions options;
  options.use_grouping = true;
  options.sim_hooks = &scheduler;
  options.sim_skip_last_equation = config.inject_equation_skip;
  options.sim_skip_renumbering = config.inject_skip_renumbering;

  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::Create(workload.licenses.get(), options);
  GEOLIC_CHECK(service.ok());

  SimState state(workload.licenses.get());
  state.workload = &workload;
  state.service = service->get();
  state.scheduler = &scheduler;
  state.scratch_dir = MakeScratchDir(seed);

  auto platter = std::make_unique<InMemorySyncFile>();
  state.disk = platter.get();
  auto faulty = std::make_unique<FaultyFile>(std::move(platter));
  FaultyFile* fault = faulty.get();
  Result<std::unique_ptr<JournalWriter>> writer =
      JournalWriter::Create(std::move(faulty));
  GEOLIC_CHECK(writer.ok());
  GEOLIC_CHECK((*service)->AttachJournal(std::move(*writer)).ok());
  // Scheduled after the magic write, so the countdown counts record
  // frames: fault_append = 1 tears the first journaled admission.
  if (workload.fault_kind == 1) {
    fault->ScheduleTearAppend(workload.fault_append,
                              workload.fault_keep_bytes);
  } else if (workload.fault_kind == 2) {
    fault->ScheduleFailSyncAfterAppend(workload.fault_append);
  }

  for (size_t c = 0; c < workload.client_ops.size(); ++c) {
    const std::vector<SimOp>* ops = &workload.client_ops[c];
    const std::vector<bool>* mask =
        enabled != nullptr ? &(*enabled)[c] : nullptr;
    scheduler.AddTask("client" + std::to_string(c),
                      [&state, ops, mask] {
                        for (size_t i = 0; i < ops->size(); ++i) {
                          state.scheduler->Yield("op_boundary");
                          if (!state.failure.empty()) {
                            return;
                          }
                          if (mask != nullptr && !(*mask)[i]) {
                            continue;
                          }
                          ExecuteOp(&state, (*ops)[i]);
                        }
                      });
  }
  scheduler.Run();

  // The state the ops left: its compacted log and the journal's bytes.
  const LogStore final_log = state.service->CollectLog();
  std::string log_bytes;
  for (const LogRecord& record : final_log.records()) {
    EncodeLogRecord(record, &log_bytes);
  }
  MixDigest(&state.digest, log_bytes);
  MixDigest(&state.digest, state.disk->contents());
  if (state.failure.empty()) {
    FinalChecks(&state, config, options);
  }

  std::error_code discard;
  std::filesystem::remove_all(state.scratch_dir, discard);

  result.ok = state.failure.empty();
  result.failure = state.failure;
  result.op_trace = std::move(state.op_trace);
  result.ops_executed = state.ops_executed;
  result.digest = state.digest;
  return result;
}

SimResult RunSimulation(uint64_t seed, const SimConfig& config) {
  const SimWorkload workload = GenerateWorkload(seed, config);
  return RunWorkload(workload, seed, config, nullptr);
}

ShrinkOutcome ShrinkFailure(uint64_t seed, const SimConfig& config) {
  const SimWorkload workload = GenerateWorkload(seed, config);
  ShrinkOutcome outcome;
  SimOpMask mask;
  for (const std::vector<SimOp>& ops : workload.client_ops) {
    mask.emplace_back(ops.size(), true);
    outcome.original_ops += ops.size();
  }
  SimResult current = RunWorkload(workload, seed, config, &mask);
  ++outcome.runs_used;
  outcome.failure = current.failure;
  if (current.ok) {
    return outcome;  // Caller contract violated; nothing to shrink.
  }
  // Greedy 1-minimal pass: keep dropping single ops while the run still
  // fails (any failure — the minimal trace may surface a crisper symptom
  // of the same bug).
  bool progress = true;
  while (progress) {
    progress = false;
    for (size_t c = 0; c < mask.size(); ++c) {
      for (size_t i = 0; i < mask[c].size(); ++i) {
        if (!mask[c][i]) {
          continue;
        }
        mask[c][i] = false;
        const SimResult attempt = RunWorkload(workload, seed, config, &mask);
        ++outcome.runs_used;
        if (attempt.ok) {
          mask[c][i] = true;  // Needed for the failure; keep it.
        } else {
          outcome.failure = attempt.failure;
          progress = true;
        }
      }
    }
  }
  for (size_t c = 0; c < mask.size(); ++c) {
    for (size_t i = 0; i < mask[c].size(); ++i) {
      if (mask[c][i]) {
        outcome.minimal_ops.push_back(
            "client" + std::to_string(c) + "#" + std::to_string(i) + " " +
            DescribeOp(workload.client_ops[c][i]));
      }
    }
  }
  return outcome;
}

}  // namespace geolic

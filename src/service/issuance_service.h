#ifndef GEOLIC_SERVICE_ISSUANCE_SERVICE_H_
#define GEOLIC_SERVICE_ISSUANCE_SERVICE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/dynamic_grouping.h"
#include "core/grouping.h"
#include "core/instance_validator.h"
#include "licensing/license_catalog.h"
#include "obs/exposition.h"
#include "obs/trace.h"
#include "persist/journal.h"
#include "validation/log_store.h"
#include "validation/validation_report.h"
#include "validation/validation_tree.h"
#include "util/date.h"
#include "util/metrics.h"
#include "util/sim_hooks.h"
#include "util/status.h"

namespace geolic {

// Largest equation scope (an overlap group, or the whole catalog without
// grouping) whose admission equations IssuanceService answers from dense
// tables: three 2^N-entry int64 tables, 96 KiB at the cap. Larger scopes
// fall back to the pointer validation tree. The cap is the largest
// N at which building the tables (at Create, every reconfiguration and
// Recover) costs no more time or memory than the tree, even for a short
// history: at N = 13 a reconfiguration over 64 records is already 1.4×
// slower (EXPERIMENTS.md, "Dense table cap").
inline constexpr int kMaxDenseGroupSize = 12;
static_assert(kMaxDenseGroupSize < 32, "local masks are uint32_t");

// How a set of a dense group's licenses becomes the group's local mask
// (paper Algorithm 5's order-preserving positions): the members as runs of
// consecutive license indexes, each within one 64-bit word of a
// LicenseSet, so a set translates with one shift and mask per run instead
// of a loop over its indexes. A run ends at every gap in the member
// indexes and at every word boundary; a group of at most
// kMaxDenseGroupSize members has at most that many runs.
class MemberRuns {
 public:
  MemberRuns() = default;
  // Requires 1..kMaxDenseGroupSize members.
  explicit MemberRuns(const LicenseSet& members);

  // `set` as a local mask: bit p set iff the member at position p (the
  // p-th lowest member index) is in `set`. Requires `set` ⊆ members.
  uint32_t LocalMask(const LicenseSet& set) const {
    // The set's words in place; runs ascend by word, so the first run past
    // the set's last word ends the walk (every later word reads zero).
    const std::span<const uint64_t> words = set.WordSpan();
    uint32_t local = 0;
    for (uint32_t r = 0; r < count_ && runs_[r].word < words.size(); ++r) {
      const Run& run = runs_[r];
      local |= (static_cast<uint32_t>(words[run.word] >> run.shift) &
                run.mask)
               << run.local;
    }
    return local;
  }

  int run_count() const { return static_cast<int>(count_); }

 private:
  struct Run {
    uint16_t word = 0;  // LicenseSet word holding the run.
    uint8_t shift = 0;  // Bit of its lowest member within that word.
    uint8_t local = 0;  // Local position of its lowest member.
    uint32_t mask = 0;  // (1 << run length) − 1.
  };
  std::array<Run, kMaxDenseGroupSize> runs_{};
  uint32_t count_ = 0;
};

// Decision for one attempted license issuance.
struct OnlineDecision {
  // Whether the issued license lies inside at least one redistribution
  // license (S ≠ ∅).
  bool instance_valid = false;
  // Whether every affected validation equation still holds with the new
  // counts added.
  bool aggregate_valid = false;
  // S — the satisfying set (license indexes of `catalog_epoch`).
  LicenseSet satisfying_set;
  // When aggregate validation fails: the first violated equation, with the
  // candidate's count already included in lhs.
  EquationResult limiting;
  // Equations checked for this issuance: 2^(N−k) in baseline mode,
  // 2^(N_g−k) with grouping (paper Section 2.1's complexity discussion).
  uint64_t equations_checked = 0;
  // Which catalog epoch this decision was made against
  // (IssuanceService::catalog_epoch). A concurrent acquire/revoke/expire
  // advances the epoch, so `satisfying_set` indexes are only meaningful in
  // this epoch's index space.
  uint64_t catalog_epoch = 0;

  bool accepted() const { return instance_valid && aggregate_valid; }
};

// Knobs of IssuanceService and of the layers that build services for
// their callers (drm/, catalog/, net/).
struct OnlineValidatorOptions {
  // Scope per-issuance equation checks to S's overlap group (paper
  // Theorem 2), shrinking 2^(N−k) checks to 2^(N_g−k). Off means one
  // scope over the whole catalog.
  bool use_grouping = true;
  // Optional sink for decision counters and latency; must outlive the
  // service, which uses it as its metrics block (and owns a private one
  // otherwise).
  IssuanceMetrics* metrics = nullptr;
  // Optional span sink for per-stage request tracing (obs/trace.h); must
  // outlive the service. Null = tracing off: the scoped timers reduce to
  // one branch and no clock reads.
  Tracer* tracer = nullptr;
  // Simulation-only (src/sim/): cooperative yield points and virtual clock
  // threaded through the service request path. Null (the production value)
  // = one branch per hook point, nothing else. Must outlive the service.
  SimHooks* sim_hooks = nullptr;
  // Test-only accounting mutation for the simulation harness's mutation
  // smoke mode: the service skips the final equation of every aggregate
  // scan (the full-scope set T = scope), a deliberately planted
  // over-issuance bug that sim_runner must catch. Never set outside
  // tests/sim — it breaks the paper's eq. 1 guarantee by construction.
  bool sim_skip_last_equation = false;
  // Second planted bug, for the lifecycle mutation smoke: on revoke /
  // expire the service drops cascaded records but skips the Algorithm 5
  // index renumbering, leaving surviving records' sets at their stale bit
  // positions. sim_runner --lifecycle must catch the resulting divergence.
  bool sim_skip_renumbering = false;
};

// What IssuanceService::Recover reconstructed the state from.
struct RecoveryStats {
  size_t checkpoint_records = 0;         // Records loaded from the checkpoint.
  size_t journal_records_replayed = 0;   // Journal frames past the checkpoint.
  size_t journal_records_skipped = 0;    // Issue frames the checkpoint covers.
  size_t reconfig_records_replayed = 0;  // Acquire/revoke/expire frames: the
                                         // covered ones counted against the
                                         // checkpoint's epoch, the rest
                                         // re-executed on its catalog.
  uint64_t recovered_catalog_epoch = 0;  // Final epoch in the journal's
                                         // numbering (the recovered service
                                         // itself restarts at epoch 0).
  bool journal_torn_tail = false;        // Journal ended in a torn write.
};

// One service's state, as every snapshot stores it: the service checkpoint
// and the catalog's tenant spill (docs/FORMATS.md, "Service state
// payload").
struct ServiceState {
  uint64_t catalog_epoch = 0;  // Reconfigurations behind `licenses`.
  uint64_t covered_seq = 0;    // Last journal frame the state includes.
  std::unique_ptr<LicenseCatalog> licenses;  // The evolved catalog.
  LogStore records{};  // One per distinct set, ascending, empty ids.
};

// Appends `state`: version u32 | catalog_epoch u64 | covered_seq u64 |
// license count u32 | licenses (AppendLicenseBinary) | record count u64 |
// records (EncodeLogRecord).
Status EncodeServiceState(const ServiceState& state, std::string* out);

// Reads the payload at `*pos` and advances past it, building the licenses
// against `schema`. Accepts only what EncodeServiceState writes: a
// non-empty catalog, licenses that re-encode to their own bytes, and
// records in ascending set order, without ids, over known licenses.
Result<ServiceState> DecodeServiceState(std::string_view bytes, size_t* pos,
                                        const ConstraintSchema* schema);

// Thread-safe online admission for one (content, permission) domain — the
// paper's online regime, and the one implementation of admission in the
// library (sim/ReferenceModel is its executable specification). When a
// license with satisfying set S (|S| = k) arrives, only equations whose set
// contains S gain counts, so only those are checked: every T ⊆ S's overlap
// group with T ⊇ S, 2^(N_g−k) equations (paper Theorem 2: licenses in
// different overlap groups share no equations).
//
// Admission state per overlap group: the paper's equations read the log
// only through C[S], the total count per exact satisfying set, so that is
// all the service keeps — proportional to the distinct sets, not to the
// accepted records (the journal is the per-record history). A group of at
// most kMaxDenseGroupSize licenses keeps three dense tables indexed by the
// group-local mask (paper Algorithm 5's order-preserving positions) —
// A[T], fixed per epoch, and C[S] and C⟨T⟩. An issuance with satisfying
// set S checks its 2^(N_g−k) equations as one ascending pass over the
// supersets of S in C⟨T⟩, and an acceptance adds its count along the same
// pass and at C[S]. Larger groups share one pointer validation tree (which
// holds C[S] per node) and its per-equation subset walk: a group's
// equations sum only subsets of the group, so the other groups' sets in
// the tree never count.
//
// Live license lifecycle (paper Figure 6 + Algorithms 4–5): the catalog,
// grouping, instance geometry and equation state together form one
// `CatalogEpoch`. AcquireLicense / RevokeLicense / ExpireBefore build the
// next epoch from the distinct accepted sets: each dense scope's C[S]
// table is read entry by entry (or, when its group's members are
// unchanged, its C[S] and C⟨T⟩ tables are copied verbatim), the tree read
// set by set, and every surviving set renumbered densely past a removal,
// re-divided into the new overlap groups and rebuilt into the new groups'
// tables (one zeta transform each) or the tree. The reconfiguration's op is
// journaled, and the new epoch replaces the old one.
//
// Concurrency contract: one mutex guards the epoch and the journal, and
// every public call that reads or writes them holds it
// throughout. So every call is one atomic step — TryIssue, a whole
// TryIssueBatch, a reconfiguration, a CollectLog or a Snapshot — and any
// interleaving of calls from any number of threads ends in the state (and
// gives the decisions) of applying the calls one after another in the
// order they took the lock: sim/ReferenceModel applying the same ops. The
// references that licenses() and grouping() return stay valid until the
// next reconfiguration.
class IssuanceService {
 public:
  // `licenses` must be non-empty and outlive the service; so must
  // `options.metrics` when set. options.use_grouping=false checks every
  // issuance against the whole catalog's equations (the baseline the
  // grouping ablations measure against).
  static Result<std::unique_ptr<IssuanceService>> Create(
      const LicenseCatalog* licenses, const OnlineValidatorOptions& options = {});

  // Pre-loads already-validated issuances (not re-checked). Fails if a
  // record references an index outside `licenses` or spans overlap groups.
  static Result<std::unique_ptr<IssuanceService>> CreateWithHistory(
      const LicenseCatalog* licenses, const OnlineValidatorOptions& options,
      const LogStore& history);

  // A service over a snapshot's state (DecodeServiceState): it owns the
  // state's catalog, pre-loads its records like CreateWithHistory and
  // continues at its catalog epoch. The covered sequence is the caller's.
  static Result<std::unique_ptr<IssuanceService>> Restore(
      ServiceState state, const OnlineValidatorOptions& options);

  // Rebuilds a service from a crash: the newest checkpoint (may be empty —
  // journal-only recovery) plus the journal tail past it (may be empty —
  // checkpoint-only). Frames the checkpoint already covers are skipped; a
  // torn final frame (crash mid-append, never acknowledged as synced) is
  // dropped; any other journal or checkpoint corruption fails loudly with
  // the bad frame's byte offset.
  //
  // Replay is re-execution: every op of the tail runs again, in journal
  // order, through ReplayOp — TryIssue, AcquireLicense, RevokeLicenseById
  // or ExpireDimensionBelow, the live paths themselves — on the service
  // Recover returns. Replay counts its decisions into a scratch metrics
  // block and runs without `options`' tracer and simulation hooks, which
  // recovery leaves untouched. The tail starts from the checkpoint's
  // state, or without a checkpoint from `licenses`, which must then be the
  // catalog the journal started from (epoch 0); the checkpoint's schema is
  // always `licenses`'. A checkpoint carries the epoch of its catalog,
  // which must equal the number of reconfiguration frames up to the
  // covered sequence. Replay is strict: the service journals only ops that
  // succeeded, so every op of the tail must succeed again (an issue
  // accepted, a reconfiguration applied, an expire removing at least one
  // license), or recovery fails with ParseError naming the frame's
  // sequence number.
  //
  // After replay the service takes `options` (its metrics() counters
  // start at zero without options.metrics) and is verified against a
  // serial replay of its records — the result is the exact pre-crash
  // accepted set or an error, never silently wrong. It restarts at epoch
  // 0 (its catalog is the new baseline; RecoveryStats reports the
  // journal-space epoch) and borrows `licenses` only when recovery started
  // from no checkpoint and replayed no reconfiguration; otherwise it owns
  // its catalog. It has no journal attached; call AttachJournal with a
  // fresh journal file to resume durable admission.
  static Result<std::unique_ptr<IssuanceService>> Recover(
      const LicenseCatalog* licenses, const OnlineValidatorOptions& options,
      const std::string& checkpoint_path, const std::string& journal_path,
      RecoveryStats* stats = nullptr);

  IssuanceService(const IssuanceService&) = delete;
  IssuanceService& operator=(const IssuanceService&) = delete;

  // Validates one issuance and records it when accepted (journaling the
  // issued license first). An invalid license is a decision, not an error; a non-positive count is InvalidArgument. The
  // decision carries the catalog epoch it was made against.
  Result<OnlineDecision> TryIssue(const License& issued);

  // Admits a batch under one lock acquisition, writing decisions in input
  // order into `decisions` (`decisions.size() >= batch.size()`; entries
  // are overwritten): the decisions of a sequential TryIssue loop over the
  // batch, all made against one catalog epoch. The batch is pointers, so
  // the network front-end (net/server.h) admits each reactor turn's
  // decoded requests without copying them into a dense array, and the
  // call makes no heap allocation of its own.
  //
  // The loop stops at the first member TryIssue would fail (a non-positive
  // count, or a journal error on an accepted member) and returns that
  // member's error. `*decided` (when not null) is set to the number of
  // members decided: members [0, *decided) are decided and applied exactly
  // as by TryIssue, their accepted issues journaled; member *decided (the
  // failing one, when the status is not OK) and every later member are not
  // decided, applied or journaled. OK means *decided == batch.size().
  Status TryIssueBatch(std::span<const License* const> batch,
                       std::span<OnlineDecision> decisions,
                       size_t* decided = nullptr);

  // --- Live license lifecycle ---

  // Adds `license` to the running catalog; returns its index in the new
  // epoch (always the highest — existing indexes are unchanged by an
  // acquisition). The license must match the catalog's content key,
  // permission, type and dimensionality, and carry a unique id. The
  // overlap grouping updates incrementally (DynamicGrouping); if the
  // newcomer bridges groups, they merge in the new epoch.
  Result<int> AcquireLicense(const License& license);

  // Removes the license at `index` (current-epoch index). Cascade
  // semantics: every recorded issuance whose satisfying set contains the
  // revoked license is dropped from the validation state — usage granted
  // under a revoked right is revoked with it. Surviving sets renumber
  // densely (indexes above `index` shift down, paper Algorithm 5).
  // Rejects removing the last license.
  Status RevokeLicense(int index);

  // Id-addressed form: resolves `id` to its current-epoch index under the
  // service lock, so the caller cannot race a concurrent reconfiguration
  // that renumbers indexes between lookup and revoke. Fails with NotFound
  // when no license carries `id`.
  Status RevokeLicenseById(const std::string& id);

  // Revokes every license whose validity-period dimension ends strictly
  // before `cutoff` — the schema's first date-formatted interval dimension
  // — and returns how many were removed (0 = no-op, no epoch change).
  // Fails if the schema has no date dimension or if every license would
  // expire.
  Result<int> ExpireBefore(Date cutoff);

  // Generalized form: expires licenses whose interval in dimension `dim`
  // ends strictly below `cutoff` (any ordered dimension, e.g. an integer
  // version range).
  Result<int> ExpireDimensionBelow(int dim, int64_t cutoff);

  // Reconfigurations applied over this service's lifetime. 0 at
  // construction; each successful acquire/revoke/expire increments it.
  uint64_t catalog_epoch() const;

  // Snapshot of the accepted issuances in compacted form: one record per
  // distinct satisfying set S, carrying C[S] and an empty id, in ascending
  // set order — what LogStore::Compacted makes of any serial replay of
  // the accepted set. Feedable to the offline validators, which decide
  // the same on it as on the per-record log; ids and admission order live
  // only in the journal. The records are numbered in the catalog epoch
  // current at the read; licenses() may already describe a later epoch by
  // the time this returns.
  LogStore CollectLog() const;

  // Snapshot of the combined validation tree, built offline from
  // CollectLog (admission keeps no pointer tree for dense groups).
  Result<ValidationTree> CollectTree() const;

  // Receives every op that succeeded (an issuance its equations accept, a
  // reconfiguration whose next epoch is built) before it changes any
  // state, under the service lock. An error rejects the op unchanged.
  using JournalSink = std::function<Status(const OpRef& op)>;

  // Turns on write-ahead journaling into `journal`, which the service
  // owns, under the service's own sequence: a crash can never have
  // accepted an op the journal does not know, and the journal holds no
  // op that failed. Must be called before issuance traffic starts and
  // before any reconfiguration (the journal must cover the catalog's
  // evolution from epoch 0); fails if a journal is already attached or
  // frames were already written to this journal. Snap() reports the
  // journal and its sequence.
  Status AttachJournal(std::unique_ptr<JournalWriter> journal);

  // The same write-ahead point into the caller's sink (the catalog's
  // tenants journal through one), whose durable state must already cover
  // this service's. Fails if a journal is already attached.
  Status AttachJournalSink(JournalSink sink);

  // The current catalog, its epoch, the accepted sets (CollectLog's
  // compacted records) and the sequence of AttachJournal's journal they
  // cover (0 without one: a sink's owner numbers its own frames), read
  // under the service lock, so the cut is exact.
  ServiceState Snapshot() const;

  // Writes Snapshot() into a v2 checkpoint file (persist/checkpoint.h,
  // kind = service-snapshot): recovery from it plus the same journal's
  // tail reproduces the state byte-for-byte. Published durably
  // (WriteCheckpointFileDurable): after a crash at any point `path` holds
  // either the previous checkpoint or this one, never a torn mix.
  Status WriteCheckpoint(const std::string& path) const;

  // Current-epoch views; the references stay valid until the next
  // reconfiguration.
  const LicenseCatalog& licenses() const;
  const LicenseGrouping& grouping() const;
  const OnlineValidatorOptions& options() const { return options_; }
  // Bytes of the current epoch's dense equation tables: 24·2^N_g for each
  // group of at most kMaxDenseGroupSize licenses. A reconfiguration holds
  // a second epoch's tables while it builds them.
  size_t dense_table_bytes() const;

  // Decision counters and latency histogram. Points at options.metrics
  // when that was set, else at a service-owned block.
  const IssuanceMetrics& metrics() const { return *metrics_; }

  // Point-in-time observability snapshot, ready for the obs exposition
  // renderers: decision counters + request latency, the per-stage profile
  // when a tracer is attached (options.tracer), and the journal sequence
  // when AttachJournal attached one. Safe to call concurrently with issuance traffic.
  // Recovery counters are per-Recover-call (RecoveryStats); callers merge
  // them into the returned input themselves.
  ExpositionInput Snap() const;

 private:
  // The licenses one issuance's equations range over: an overlap group,
  // or the whole catalog without grouping. Scopes of at most
  // kMaxDenseGroupSize licenses carry dense tables indexed by local mask
  // (`runs`): `aggregates[T]` = A[T], immutable, and `counts[S]` = C[S]
  // and `sums[T]` = C⟨T⟩. All three are null above the cap, where the
  // epoch's pointer tree answers instead.
  struct EquationScope {
    LicenseSet mask;
    int group = -1;  // Overlap group; -1 for the whole catalog.
    int size = 0;    // Licenses in the scope.
    const int64_t* aggregates = nullptr;
    int64_t* counts = nullptr;
    int64_t* sums = nullptr;
    MemberRuns runs;  // `mask`'s runs; dense scopes only.

    bool dense() const { return sums != nullptr; }
    size_t entries() const { return size_t{1} << size; }
    uint32_t full_local() const { return (uint32_t{1} << size) - 1; }
  };

  // One generation of the catalog + derived admission state. Everything
  // here is fixed at build time except the equation state: the dense
  // scopes' C[S] and C⟨T⟩ tables and `tree`.
  struct CatalogEpoch {
    CatalogEpoch(const LicenseCatalog* catalog_in,
                 std::unique_ptr<LicenseCatalog> owned,
                 LicenseGrouping grouping_in)
        : owned_catalog(std::move(owned)),
          catalog(catalog_in),
          grouping(std::move(grouping_in)),
          instance(catalog_in) {}

    uint64_t epoch = 0;
    // Epoch 0 borrows the caller's catalog (owned_catalog null); every
    // later epoch owns the catalog it was built from.
    std::unique_ptr<LicenseCatalog> owned_catalog;
    const LicenseCatalog* catalog;
    LicenseGrouping grouping;
    SoaInstanceValidator instance;
    // Equation scopes, one per overlap group (one for the whole catalog
    // without grouping) — built once so the hot path hands out references
    // instead of copying a LicenseSet (which may heap-allocate) per
    // request.
    std::vector<EquationScope> scopes;
    // Every dense scope's A, C[S] and C⟨T⟩ tables, in one allocation.
    std::unique_ptr<int64_t[]> dense_tables;
    size_t dense_table_bytes = 0;
    LicenseSet all_mask;
    bool grouped = true;  // OnlineValidatorOptions::use_grouping.
    // Accepted sets of the above-cap scopes only (dense scopes keep theirs
    // in their C[S] tables), in this epoch's license indexes.
    ValidationTree tree;

    // License index at bit `position` of `scope`'s local masks: Algorithm
    // 5's order-preserving numbering within a group, the identity for the
    // whole catalog.
    int Member(const EquationScope& scope, int position) const {
      return scope.group < 0 ? position
                             : grouping.OriginalIndexOf(scope.group, position);
    }
    // `s` plus the licenses at the set bits of `local` (maps a local
    // equation mask back to license indexes).
    LicenseSet WithLocal(const EquationScope& scope, LicenseSet s,
                         uint32_t local) const;
    // Equation scope of satisfying set `s`: its group's, or the whole
    // catalog's without grouping. The reference aliases a scope built
    // with the epoch — no copy.
    const EquationScope& Route(const LicenseSet& s) const {
      const size_t g =
          grouped ? static_cast<size_t>(grouping.GroupOf(s.Lowest())) : 0;
      return scopes[g];
    }
    // Calls `read(set, count)` for every distinct accepted set: the dense
    // scopes' non-zero C[S] entries, then the tree's sets.
    void ForEachSet(
        const std::function<void(const LicenseSet&, int64_t)>& read) const;
  };

  // The preload oracle: the per-record path and the epoch's tables.
  friend class IssuanceServiceTestPeer;

  IssuanceService(const OnlineValidatorOptions& options,
                  DynamicGrouping grouping,
                  std::unique_ptr<CatalogEpoch> epoch0);

  // `owned`, when set, is `licenses`; the service starts at `epoch`.
  static Result<std::unique_ptr<IssuanceService>> CreateOwned(
      const LicenseCatalog* licenses, std::unique_ptr<LicenseCatalog> owned,
      const OnlineValidatorOptions& options, const LogStore& history,
      uint64_t epoch = 0);

  // Assembles a fully-derived epoch (scopes, instance geometry, A tables)
  // around `catalog`, with zeroed C[S] and C⟨T⟩ tables and an empty tree.
  static std::unique_ptr<CatalogEpoch> BuildEpoch(
      const OnlineValidatorOptions& options, uint64_t epoch_number,
      const LicenseCatalog* catalog, std::unique_ptr<LicenseCatalog> owned,
      LicenseGrouping grouping);

  // Adds `count` issuances of satisfying set `set` to `epoch`'s equation
  // state — a tree insert, or a point-add to a dense scope's C[S] — after
  // checking it lies in one scope. Caller owns exclusivity: history
  // preload at construction, or a reconfiguration's next epoch.
  static Status ApplySetToEpoch(CatalogEpoch* epoch, const LicenseSet& set,
                                int64_t count);

  // ApplySetToEpoch for every record of `history`, in one pass with the
  // per-record checks inline: the same state and the same first error.
  // Caller owns exclusivity: a service under construction.
  static Status PreloadEpoch(CatalogEpoch* epoch, const LogStore& history);

  // Derives every dense scope's C⟨T⟩ from its C[S] (a copy and one zeta
  // transform), except the scopes whose `finished` entry is set (tables a
  // reconfiguration copied, C⟨T⟩ included) and those whose C[S] is all
  // zero (their C⟨T⟩ stays BuildEpoch's zeros). Runs once per epoch, after
  // the last ApplySetToEpoch and before the epoch serves admissions.
  static void FinishEpochTables(const CatalogEpoch& epoch,
                                const std::vector<bool>& finished = {});

  // Recover's cross-check against `serial`, a replay of the recovered
  // records built independently of the service: every dense C⟨T⟩ must
  // equal the sum of the replay's counts over subsets of T, and the tree
  // the replay's above-cap sets.
  Status CheckAgainstReplay(const ValidationTree& serial) const;

  // Takes mutex_. Under the simulation harness it first yields at `point`
  // (the call's one simulation step starts there), and a contender yields
  // at `point` again and retries instead of blocking the scheduler's
  // single token.
  std::unique_lock<std::mutex> Lock(const char* point) const;

  // The shared reconfiguration path (caller holds mutex_): builds the next
  // epoch — `op`'s license acquired (kAcquire), or the current-epoch
  // indexes `removed` dropped — carries every distinct accepted set into
  // it, journals `op` and swaps the epoch in. Returns the acquired index
  // or the removed count.
  Result<int> ReconfigureLocked(const OpRef& op, const LicenseSet& removed);

  // Validates and executes a single-index revocation. Caller holds mutex_.
  Status RevokeIndexLocked(int index);

  // ExpireDimensionBelow's body. Caller holds mutex_.
  Result<int> ExpireDimensionBelowLocked(int dim, int64_t cutoff);

  // The one write-ahead call: sends `op` to the sink, if any. Caller
  // holds mutex_.
  Status JournalLocked(const OpRef& op);

  // Equation check + table/tree update for one request against the
  // current epoch. Caller holds mutex_. `decision` already carries the
  // satisfying set; `trace` collects the equation-scan and journal-append
  // spans (never null — pass a RequestTrace built from a null tracer to
  // run untraced).
  Status AdmitLocked(const License& issued, OnlineDecision* decision,
                     RequestTrace* trace);

  // Reads the request's clock from the simulation's virtual clock under
  // sim_hooks, from the wall clock otherwise.
  class RequestTimer;

  // One request of TryIssue or TryIssueBatch. Caller holds mutex_. Stamps
  // the epoch, looks up the satisfying set and, when it is not empty,
  // admits it (AdmitLocked); then records the outcome in the metrics and
  // finishes `trace`. A non-ok status is an internal or journal error.
  Status IssueLocked(const License& issued, const RequestTimer& timer,
                     OnlineDecision* decision, RequestTrace* trace);

  OnlineValidatorOptions options_;
  IssuanceMetrics owned_metrics_;
  IssuanceMetrics* metrics_;  // == options_.metrics or &owned_metrics_.

  // The service lock: it guards everything below.
  mutable std::mutex mutex_;
  std::unique_ptr<CatalogEpoch> epoch_;  // The current epoch; never null.
  // Incremental overlap components, mirrored into each epoch's grouping.
  DynamicGrouping dyn_grouping_;
  JournalSink journal_;  // Empty until a journal is attached.
  // AttachJournal's; its frames_appended() is the service's journal
  // sequence. A sink-attached service keeps no sequence.
  std::unique_ptr<JournalWriter> journal_writer_;
};

// Re-executes one journaled op on `service`: the one replay both
// IssuanceService::Recover and CatalogService::Recover run. OK when the op
// succeeds as every op of a service journal did live — an issue accepted,
// an acquire or revoke applied, an expire removing at least one license —
// otherwise why it did not.
Status ReplayOp(IssuanceService* service, const JournalOp& op);

}  // namespace geolic

#endif  // GEOLIC_SERVICE_ISSUANCE_SERVICE_H_

// Propagator interface and the propagation fixpoint engine.
//
// The solver follows the classic finite-domain architecture (as in Gecode,
// which the paper used as its black-box solver): propagators watch variables,
// a queue drives re-execution until fixpoint or failure, and search
// interleaves branching decisions with propagation.
//
// The engine runs in one of two modes:
//
//  - Event-typed (default): the engine registers itself as the store's
//    DomainListener, so every mutation — including the direct Assign/Clamp
//    calls search and LNS make without a PropCtx — arrives classified as a
//    kEvent* mask. Subscriptions are per (variable, event-mask): a wake is
//    suppressed (`wakes_filtered`) when the event cannot affect the
//    subscriber. Incremental propagators keep running aggregates in trailed
//    store aux slots, updated by coefficient-based advisor deltas (folded
//    inline by the engine) on every relevant event.
//    A propagator that reports entailment (PropCtx::SetEntailed) is skipped
//    (`props_skipped_entailed`) for the rest of the subtree; the flag lives
//    in a trailed aux slot, so Backtrack re-plugs it automatically. Ready
//    propagators drain from fixed priority buckets — wide linear sums (the
//    producers) before their narrow consumers — FIFO within a bucket, so
//    the schedule is deterministic. Because all propagators are monotone, the
//    fixpoint domains are scheduling-order-independent: search trees are
//    bit-identical to the naive mode, only the propagation-effort counters
//    differ.
//
//  - Naive reference (Model::Options::naive_propagation): the legacy flat
//    FIFO with full-recompute propagators, byte-identical to the
//    pre-event-engine scheduler — the baseline leg of the CI propagation
//    ratio gate and the oracle for the confluence sweep.
#ifndef COLOGNE_SOLVER_PROPAGATOR_H_
#define COLOGNE_SOLVER_PROPAGATOR_H_

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "solver/domain.h"
#include "solver/store.h"
#include "solver/types.h"

namespace cologne::solver {

class PropagationEngine;

/// \brief Mutable view over the current domain store handed to propagators.
///
/// All domain mutations go through PropCtx so that the trail records the
/// pre-mutation domain (store undo) and watchers of changed variables are
/// re-queued automatically. Mutators return false exactly when the touched
/// domain became empty (failure).
class PropCtx {
 public:
  PropCtx(DomainStore* store, PropagationEngine* engine)
      : store_(store), engine_(engine) {}

  const DomainStore& store() const { return *store_; }
  const IntDomain& dom(IntVar v) const { return store_->dom(v.id); }
  bool IsFixed(IntVar v) const { return dom(v).IsFixed(); }
  /// Bounds from the store's flat mirror (no range-vector chase).
  int64_t Min(IntVar v) const { return store_->lo(v.id); }
  int64_t Max(IntVar v) const { return store_->hi(v.id); }
  int64_t ValueOf(IntVar v) const { return dom(v).value(); }

  bool ClampMin(IntVar v, int64_t lo);
  bool ClampMax(IntVar v, int64_t hi);
  bool Assign(IntVar v, int64_t val);
  bool Remove(IntVar v, int64_t val);

  // --- Incremental-propagation surface (event-typed engine only) ----------

  /// True when the running propagator has live aux aggregates: its InitAux
  /// ran at engine attach and every Advise delta since has been applied. A
  /// false return (naive mode, standalone PropCtx in tests, or a propagator
  /// whose watch list failed the unique-variable precondition) means the
  /// propagator must take its full-recompute path.
  bool incremental() const { return aux_base_ >= 0; }
  __int128 AuxVal(int off) const { return store_->aux(aux_base_ + off); }
  void SetAuxVal(int off, __int128 v) { store_->SetAux(aux_base_ + off, v); }
  /// Report the running propagator entailed on the current subtree: it is
  /// skipped until backtracking unwinds past this level (the flag is a
  /// trailed aux slot). Only meaningful while the engine is executing the
  /// propagator in event mode; a no-op otherwise.
  void SetEntailed();

 private:
  friend class PropagationEngine;
  void Notify(int32_t var_id);

  DomainStore* store_;
  PropagationEngine* engine_;
  int32_t cur_prop_ = -1;  ///< Index of the running propagator (engine-set).
  int32_t aux_base_ = -1;  ///< Its aux base, or -1 = no incremental state.
};

/// \brief Base class for constraint propagators.
///
/// A propagator narrows the domains of its watched variables; returning false
/// signals that the constraint is unsatisfiable under the current store.
/// Propagators are immutable after construction and shared by every solve
/// of the model: all per-solve state (incremental aggregates, entailment
/// flags) lives in the solve's DomainStore aux slots, never in the
/// propagator.
class Propagator {
 public:
  virtual ~Propagator() = default;
  /// Narrow domains; false on failure. Must be monotone and idempotent-safe
  /// (re-running on an unchanged store must not change anything).
  virtual bool Propagate(PropCtx& ctx) = 0;
  /// One-line description for tracing and test diagnostics.
  std::string DebugString() const {
    std::string out;
    AppendDebugString(&out);
    return out;
  }
  /// Append DebugString()'s text to `out` (lets a caller render many
  /// propagators into one reused buffer).
  virtual void AppendDebugString(std::string* out) const = 0;
  /// Kind keying the per-kind propagation counters (SolveStats::
  /// propagations_by_kind).
  virtual PropKind kind() const { return PropKind::kOther; }
  /// Overwrite the constants this propagator holds (coefficients,
  /// right-hand sides, ...) with the next ones at `*consts`, advancing the
  /// cursor past them: a model template (solver/template_cache.h) builds
  /// each propagator once per shape and rebinds it for every solve of that
  /// shape. The order is the one Model records them in. Watched variables
  /// stay as constructed; a watch mask that depends on a constant (a linear
  /// term's on its coefficient's sign) is recomputed, which requires the
  /// propagator to watch each variable once.
  virtual void RebindConstants(const int64_t** consts) { (void)consts; }
  /// True when a successful Propagate provably leaves this propagator at its
  /// own fixpoint — its prunes cannot enable further prunes *by itself*
  /// (e.g. a one-sided linear sum prunes opposite bounds only, leaving the
  /// sum it read untouched). The event-typed engine then drops the wake the
  /// run generated on itself instead of re-executing a propagator that is
  /// guaranteed to find nothing (Gecode's ES_FIX). Propagators returning
  /// false (the default) are instead re-run — uncounted, as part of the same
  /// execution episode — until they stop changing domains, so the global
  /// fixpoint is identical either way.
  virtual bool IdempotentAfterRun() const { return false; }
  /// Shape descriptor for the engine's inline no-op proof (see
  /// PropagationEngine::ProvablyAtFixpoint). Queried once at construction so
  /// the proof itself — evaluated on every mask-passing wake — costs no
  /// virtual dispatch. kNone: no proof available, always run.
  struct FixpointProof {
    enum class Kind : uint8_t { kNone, kLinear, kReified };
    Kind kind = Kind::kNone;
    Rel rel = Rel::kLe;  ///< The (positive) relation of the linear pass.
    int32_t b = -1;      ///< Reified control variable id (kReified only).
  };
  virtual FixpointProof fixpoint_proof() const { return {}; }
  /// Variable ids this propagator must be re-run for when they change.
  const std::vector<int32_t>& watched() const { return watched_; }
  /// Per-watch-entry event masks (parallel to watched()): the kEvent* set
  /// that can affect this propagator through that variable.
  const std::vector<uint8_t>& watch_masks() const { return watch_masks_; }

  // --- Advisor surface (event-typed engine) -------------------------------

  /// Number of trailed aux slots this propagator's aggregates need (0 = not
  /// incremental). Allocated store-side at engine attach.
  virtual int NumAuxSlots() const { return 0; }
  /// Compute the aggregates from the store's current domains into
  /// [aux_base, aux_base + NumAuxSlots()). Called once at attach (level 0).
  virtual void InitAux(DomainStore& store, int aux_base) const {
    (void)store;
    (void)aux_base;
  }
  /// Advisor: the coefficient by which watched()[watch_pos] contributes to
  /// the [sum-min, sum-max] aggregates in aux slots 0/1 (0 = no
  /// contribution, e.g. a reified control variable). Queried once at engine
  /// construction; the engine folds bound deltas into the aggregates inline
  /// — on every bound event of a subscribed variable, even when the wake
  /// itself is mask-filtered, so aggregates never go stale — without a
  /// virtual dispatch on the mutation hot path.
  virtual int64_t AdviseCoefficient(uint32_t watch_pos) const {
    (void)watch_pos;
    return 0;
  }

 protected:
  void Watch(IntVar v, uint8_t mask = kEventAny) {
    watched_.push_back(v.id);
    watch_masks_.push_back(mask);
  }
  void WatchExpr(const LinExpr& e, uint8_t mask = kEventAny) {
    for (const auto& [c, v] : e.terms) Watch(v, mask);
  }
  /// Watch an expression with sign-dependent masks: terms with a positive
  /// coefficient subscribe `pos_mask`, negative ones `neg_mask` (a linear
  /// `e <= 0` only fails/prunes when its sum-of-mins rises, which a positive
  /// coefficient does via the variable's min and a negative one via its max).
  void WatchExprSigned(const LinExpr& e, uint8_t pos_mask, uint8_t neg_mask) {
    for (const auto& [c, v] : e.terms) Watch(v, c >= 0 ? pos_mask : neg_mask);
  }
  /// Replace watch entry `k`'s mask (RebindConstants).
  void SetWatchMask(size_t k, uint8_t mask) { watch_masks_[k] = mask; }

 private:
  std::vector<int32_t> watched_;
  std::vector<uint8_t> watch_masks_;
};

/// \brief The constant-independent half of a PropagationEngine over one
/// propagator list.
///
/// Deduplicated typed subscriptions, priority buckets, fixpoint-proof
/// descriptors, idempotence flags and the aux-slot layout depend only on
/// the propagators' kinds, relations and watched variables, never on their
/// constants. A model template (solver/template_cache.h) builds it once per
/// model shape and every solve of that shape reuses it. What it caches of
/// the constants, each subscription's advisor coefficient and watch mask,
/// Rebind() re-reads after the propagators were rebound.
class EngineLayout {
 public:
  /// Builds watch lists deduplicated per (variable, propagator): a variable
  /// appearing several times in one propagator's watch list yields a single
  /// subscription whose mask is the union — one wake per (propagator,
  /// change). Such a propagator gets no aux aggregates (the advisor position
  /// is ambiguous) and takes its full-recompute path.
  EngineLayout(const std::vector<std::unique_ptr<Propagator>>& props,
               size_t num_vars);

  /// Re-read every subscription's advisor coefficient and watch mask from
  /// `props` (the list the layout was built from, after
  /// Propagator::RebindConstants). A subscription merged from duplicate
  /// watches keeps its mask: such propagators have constant masks.
  void Rebind(const std::vector<std::unique_ptr<Propagator>>& props);

 private:
  friend class PropagationEngine;
  /// One per-variable subscription record (event mode).
  struct WatchEntry {
    uint32_t prop;  ///< Propagator index.
    uint8_t mask;   ///< Union of the kEvent* masks this var registered.
    int64_t coef;   ///< Aggregate contribution (AdviseCoefficient), 0 = none.
  };
  /// The watch entry subs_[var][entry] mirrors: props[prop]'s watch
  /// `watch_pos`, whose advisor coefficient it caches when `advised`.
  struct EntryRef {
    uint32_t var;
    uint32_t entry;
    uint32_t prop;
    uint32_t watch_pos : 31;
    uint32_t advised : 1;
  };

  /// var id -> typed subscriptions, in propagator order.
  std::vector<std::vector<WatchEntry>> subs_;
  std::vector<uint8_t> priority_;              // prop idx -> event-mode bucket
  std::vector<Propagator::FixpointProof> proofs_;
  std::vector<char> idempotent_;               // IdempotentAfterRun()
  /// Per-prop aggregate offset past the per-prop entailed flags, -1 = none.
  std::vector<int32_t> aux_offset_;
  /// Entailed flags plus every aggregate: the slots AttachStore allocates.
  int num_aux_slots_ = 0;
  /// Every subscription of a propagator without duplicate watches.
  std::vector<EntryRef> refs_;
};

/// \brief Queue-driven propagation-to-fixpoint engine.
///
/// Owned by the search; the propagator set is fixed after model construction
/// (branch-and-bound objective cuts are applied by the search by clamping the
/// objective variable's domain directly). The watch structure is an
/// EngineLayout, either shared (a model template's) or built by the engine.
class PropagationEngine : public DomainListener {
 public:
  /// Engine over `props` with its own layout. `props` must outlive the
  /// engine. `naive` selects the legacy flat-FIFO reference mode.
  PropagationEngine(const std::vector<std::unique_ptr<Propagator>>* props,
                    size_t num_vars, bool naive = false);
  /// Engine over `props` with the shared `layout` built from them; both must
  /// outlive the engine.
  PropagationEngine(const std::vector<std::unique_ptr<Propagator>>* props,
                    const EngineLayout* layout, bool naive = false);

  /// Event mode: allocate entailment flags + advisor aggregates as trailed
  /// aux slots of `store` (initialized from its current domains — call after
  /// Init, at level 0) and register as its listener. Naive mode: no-op, so
  /// the store keeps the listener-free mutator fast path. The store must
  /// outlive the engine or be re-attached after re-Init.
  void AttachStore(DomainStore& store);

  /// Run all propagators to fixpoint on `store`. False on failure (the store
  /// is left mid-propagation; the caller backtracks the level to recover).
  bool PropagateAll(DomainStore& store, SolveStats* stats);

  /// Run to fixpoint starting from the watchers of the changed variables.
  /// In attached event mode the seed list is redundant — the store listener
  /// already enqueued (and mask-filtered) the affected subscribers as the
  /// mutations happened — so only the pending queue is drained.
  bool PropagateFrom(DomainStore& store,
                     const std::vector<int32_t>& changed_vars,
                     SolveStats* stats);

  /// Run whatever the listener enqueued since the last run (event mode); in
  /// naive mode, a full PropagateAll — the call sites (LNS neighborhood
  /// repair) historically re-ran every propagator there, and the reference
  /// mode must reproduce those counts exactly.
  bool PropagateDelta(DomainStore& store, SolveStats* stats);

  /// Discard pending wakes. Search calls this on paths that fail *without*
  /// running propagation (e.g. a branch assignment that empties a domain):
  /// the backtrack restores the domains, but listener-enqueued wakes would
  /// otherwise leak into the next node. (Stale wakes are sound — propagators
  /// are idempotent on the restored fixpoint — this keeps effort counters
  /// honest.) No-op in naive mode, where those paths never enqueue.
  void DrainQueue();

  /// Called by PropCtx when a variable's domain changed. In attached event
  /// mode this is a no-op (the store listener already delivered the typed
  /// event); otherwise it conservatively wakes every watcher.
  void OnVarChanged(int32_t var_id);

  /// DomainListener: classify + advise + filter + enqueue.
  void OnDomainEvent(int32_t var, uint8_t events, int64_t old_min,
                     int64_t old_max) override;

  /// Executions per propagator index over the engine's lifetime (sums to
  /// SolveStats::propagations); the search folds these into per-kind
  /// counters at the end of a solve.
  const std::vector<uint64_t>& run_counts() const { return run_counts_; }
  /// Wakes suppressed by event-mask filtering or by an advisor no-op proof
  /// (Propagator::AtFixpoint), including queued entries dropped at pop time
  /// (event mode only).
  uint64_t wakes_filtered() const { return wakes_filtered_; }
  /// Wakes + queue pops suppressed because the propagator was entailed.
  uint64_t props_skipped_entailed() const { return skipped_entailed_; }

 private:
  using WatchEntry = EngineLayout::WatchEntry;
  static constexpr int kNumBuckets = 4;

  /// Point the hot-path views at the layout and size the per-solve state.
  void InitState();
  bool RunQueue(DomainStore& store, SolveStats* stats);
  void Enqueue(size_t prop_idx);
  /// Inline evaluation of `proofs_[prop]` against the live aggregates: true
  /// when running the propagator now provably changes nothing (and cannot
  /// fail), so the wake can be dropped with the fixpoint bit-identical. Any
  /// later change that could make it prune arrives as a new event on a
  /// watched variable, re-running this check against fresh aggregates.
  bool ProvablyAtFixpoint(const Propagator::FixpointProof& proof,
                          int aux_base) const;
  bool IsEntailed(size_t prop_idx) const {
    return store_ != nullptr && store_->aux(entailed_base_ + static_cast<int>(prop_idx)) != 0;
  }
  void MarkEntailed(int32_t prop_idx) {
    if (store_ != nullptr && prop_idx >= 0) {
      store_->SetAux(entailed_base_ + prop_idx, 1);
    }
  }
  friend class PropCtx;

  const std::vector<std::unique_ptr<Propagator>>* props_;
  const bool naive_;
  std::unique_ptr<EngineLayout> owned_layout_;  // null when shared
  const EngineLayout* layout_;
  // Views into the layout's arrays, read on every wake.
  const std::vector<WatchEntry>* subs_ = nullptr;  // var id -> subscriptions
  const Propagator::FixpointProof* proofs_ = nullptr;
  const char* idempotent_ = nullptr;
  /// prop idx -> bucket: the layout's, or all zero in naive mode.
  std::vector<uint8_t> naive_priority_;
  const uint8_t* priority_ = nullptr;
  std::array<std::deque<uint32_t>, kNumBuckets> buckets_;
  std::vector<char> in_queue_;
  std::vector<uint64_t> run_counts_;

  DomainStore* store_ = nullptr;  // attached store (event mode only)
  int entailed_base_ = -1;        // aux base of the per-prop entailed flags
  std::vector<int32_t> aux_base_; // per-prop advisor aux base, -1 = none
  uint64_t wakes_filtered_ = 0;
  uint64_t skipped_entailed_ = 0;
};

// ---------------------------------------------------------------------------
// Shared linear-arithmetic helpers (used by linear and reified propagators).
// ---------------------------------------------------------------------------

/// Bounds [min,max] of an affine expression under the current store.
struct ExprBounds {
  int64_t min;
  int64_t max;
};
ExprBounds BoundsOf(const PropCtx& ctx, const LinExpr& e);

/// Exact maximum term width of `e` over `store`'s current domains — the
/// certificate LinearPassAtFixpoint compares against the pass slack.
__int128 MaxTermWidth(const LinExpr& e, const DomainStore& store);

/// Clamp exact __int128 bounds into ExprBounds range (±INT64_MAX/2). The
/// clamp preserves sign and zero, so EntailedRel over clamped bounds equals
/// entailment over the exact ones.
ExprBounds ClampExprBounds(__int128 lo, __int128 hi);

/// Three-valued entailment of `e rel 0` from bounds alone.
enum class Entail { kYes, kNo, kMaybe };
Entail EntailedRel(const ExprBounds& b, Rel rel);

/// Bounds-consistent pruning of `e rel 0`; false on failure.
bool PruneLinear(PropCtx& ctx, const LinExpr& e, Rel rel);

/// Incremental variant: identical pruning, but the sum-of-mins/maxes first
/// pass is read from the propagator's live aux aggregates (slots 0/1 =
/// exact sum-min/sum-max of `e`) instead of recomputed over all terms. On
/// success it also writes slot 2, the post-prune MaxTermWidth, computed
/// inside the prune pass. Requires ctx.incremental() and three aux slots.
bool PruneLinearIncremental(PropCtx& ctx, const LinExpr& e, Rel rel);

/// No-op proof for the prune pass(es) of `e rel 0` from the live aggregates:
/// a pass over `g = sign*e + add <= 0` can narrow some domain iff a term's
/// width `|c|*(max-min)` exceeds the pass slack `-min(g)` (and fails iff the
/// slack is negative, which `max_width >= 0` never proves away). `max_width`
/// may be any upper bound on the true maximum term width — domains only
/// narrow between executed runs, so a stale bound errs toward running. kNe
/// prunes from fixed-value counts the aggregates don't carry: never provably
/// a no-op.
bool LinearPassAtFixpoint(Rel rel, __int128 sum_min, __int128 sum_max,
                          __int128 max_width);

// ---------------------------------------------------------------------------
// PropCtx inline mutators (below PropagationEngine: Notify needs its
// definition). The no-change early-outs inside DomainStore are the fixpoint
// common case; keeping the whole path inline costs a comparison, not a call.
// ---------------------------------------------------------------------------

inline void PropCtx::Notify(int32_t var_id) {
  if (engine_ != nullptr) engine_->OnVarChanged(var_id);
}

inline void PropCtx::SetEntailed() {
  if (engine_ != nullptr) engine_->MarkEntailed(cur_prop_);
}

inline bool PropCtx::ClampMin(IntVar v, int64_t lo) {
  if (store_->ClampMin(v.id, lo)) {
    if (store_->dom(v.id).empty()) return false;
    Notify(v.id);
  }
  return true;
}

inline bool PropCtx::ClampMax(IntVar v, int64_t hi) {
  if (store_->ClampMax(v.id, hi)) {
    if (store_->dom(v.id).empty()) return false;
    Notify(v.id);
  }
  return true;
}

inline bool PropCtx::Assign(IntVar v, int64_t val) {
  if (store_->Assign(v.id, val)) {
    if (store_->dom(v.id).empty()) return false;
    Notify(v.id);
  }
  return !store_->dom(v.id).empty();
}

inline bool PropCtx::Remove(IntVar v, int64_t val) {
  if (store_->Remove(v.id, val)) {
    if (store_->dom(v.id).empty()) return false;
    Notify(v.id);
  }
  return true;
}

/// e rel 0.
std::unique_ptr<Propagator> MakeLinear(LinExpr e, Rel rel);
/// b <=> (e rel 0), with b a 0/1 variable.
std::unique_ptr<Propagator> MakeReifiedLinear(IntVar b, LinExpr e, Rel rel);
/// z == x * y (also correct when x == y, i.e. squares).
std::unique_ptr<Propagator> MakeTimes(IntVar z, IntVar x, IntVar y);
/// z == |x|.
std::unique_ptr<Propagator> MakeAbs(IntVar z, IntVar x);
/// b <=> (b1 or b2 or ... or bn) over 0/1 variables.
std::unique_ptr<Propagator> MakeOr(IntVar b, std::vector<IntVar> bs);
/// z == max(x, c).
std::unique_ptr<Propagator> MakeMaxConst(IntVar z, IntVar x, int64_t c);

}  // namespace cologne::solver

#endif  // COLOGNE_SOLVER_PROPAGATOR_H_

// Shared machinery for the search backends (search.cc, lns.cc): branching
// order, trailed DFS dives, warm-start assimilation.
//
// State restoration is trailed (solver/store.h): branching pushes a level,
// mutates the one shared store in place, and backtracks O(changed domains)
// undo records — where the historical core cloned the whole domain vector at
// every node. The explored tree is bit-identical to the copy-based core's:
// backtracking replays the saved range vectors verbatim, so every branching
// decision sees exactly the store the old code saw.
//
// Internal to src/solver; not part of the public Model API.
#ifndef COLOGNE_SOLVER_SEARCH_INTERNAL_H_
#define COLOGNE_SOLVER_SEARCH_INTERNAL_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

#include "solver/model.h"
#include "solver/propagator.h"
#include "solver/store.h"
#include "solver/template_cache.h"

namespace cologne::solver::internal {

/// Branching order: decision variables first, then auxiliaries, each segment
/// ascending by id (matching the historical tie-break of lowest id first).
///
/// Select() keeps a per-search-path *watermark*: domains only narrow along a
/// DFS path, so once the leading `w` variables of the order are fixed they
/// stay fixed in the whole subtree and are never rescanned. In particular,
/// while any decision variable is unfixed the auxiliary segment is not
/// scanned at all — auxiliaries are usually functionally determined and used
/// to dominate SelectVar cost on ACloud-sized models.
class SearchOrder {
 public:
  explicit SearchOrder(const Model& model) {
    const int32_t n = static_cast<int32_t>(model.num_vars());
    order_.reserve(static_cast<size_t>(n));
    for (int32_t id = 0; id < n; ++id) {
      if (model.IsDecision(IntVar{id})) order_.push_back(id);
    }
    num_decisions_ = order_.size();
    for (int32_t id = 0; id < n; ++id) {
      if (!model.IsDecision(IntVar{id})) order_.push_back(id);
    }
    decision_ids_.assign(
        order_.begin(),
        order_.begin() + static_cast<ptrdiff_t>(
                             num_decisions_ ? num_decisions_ : order_.size()));
  }

  /// First-fail selection (smallest domain) among unfixed variables, decision
  /// variables before auxiliaries, ties by lowest id. Advances `*watermark`
  /// past the fixed prefix; invalid IntVar means everything is fixed.
  IntVar Select(const DomainStore& store, size_t* watermark) const {
    size_t w = *watermark;
    while (w < order_.size() && store.dom(order_[w]).IsFixed()) {
      ++w;
    }
    *watermark = w;
    if (w == order_.size()) return IntVar{};
    // While an unfixed decision variable exists (w inside the decision
    // segment), the scan stops at the segment boundary: auxiliaries are
    // never branched before decisions.
    const size_t end = w < num_decisions_ ? num_decisions_ : order_.size();
    IntVar best;
    uint64_t best_size = 0;
    for (size_t i = w; i < end; ++i) {
      const IntDomain& d = store.dom(order_[i]);
      if (d.IsFixed()) continue;
      uint64_t s = d.size();
      if (!best.valid() || s < best_size) {
        best = IntVar{order_[i]};
        best_size = s;
      }
    }
    return best;
  }

  /// Decision-variable ids (the relaxation pool for LNS); all variables
  /// when the model marks none.
  /// Returns a reference into the order — LNS calls this from its hot
  /// relaxation loop, where the historical per-call copy dominated.
  const std::vector<int32_t>& DecisionIds() const { return decision_ids_; }

 private:
  std::vector<int32_t> order_;
  std::vector<int32_t> decision_ids_;
  size_t num_decisions_ = 0;
};

/// Best solution found so far within one Solve call.
struct Incumbent {
  bool found = false;
  int64_t objective = 0;
  std::vector<int64_t> values;
};

/// How one DFS dive terminated.
enum class DiveEnd {
  kExhausted,      ///< Subtree fully explored.
  kCutoff,         ///< Time / node-budget / node-limit cutoff.
  kFirstSolution,  ///< Stopped at a solution (stop_on_first or kSatisfy).
};

/// \brief Per-Solve search state shared by every phase of a backend: the
/// trailed domain store, propagation engine, branching order, wall clock,
/// and statistics.
///
/// One store serves the whole solve. Level 0 holds the model's pristine
/// initial domains (never mutated above level 0); PropagateRoot() pushes the
/// root level and narrows it to the propagated root every dive starts from.
/// Dive() always restores the store to its entry level before returning, so
/// phases compose by push/backtrack instead of cloning root vectors.
class SearchContext {
 public:
  /// `tmpl` must be the template `model` was last bound to.
  SearchContext(const Model& model, const ModelTemplate& tmpl,
                const Model::Options& options)
      : model_(model),
        tmpl_(tmpl),
        options_(options),
        engine_(&tmpl.propagators(), &tmpl.layout(),
                options.naive_propagation),
        order_(model),
        start_(std::chrono::steady_clock::now()) {
    store_.Init(model.initial_domains());
    // Event mode: aggregates + entailment flags become trailed aux slots of
    // the freshly initialized store, and every mutation from here on —
    // branching assignments included — reaches the engine as a typed event.
    engine_.AttachStore(store_);
  }

  const Model& model() const { return model_; }
  const Model::Options& options() const { return options_; }
  PropagationEngine& engine() { return engine_; }
  const SearchOrder& order() const { return order_; }
  DomainStore& store() { return store_; }

  /// Push the root level and run all propagators to fixpoint; false means
  /// the model is infeasible by propagation alone. Call once per solve,
  /// before any dive; root_level() then marks the propagated root state.
  bool PropagateRoot() {
    store_.PushLevel();
    root_level_ = store_.level();
    return engine_.PropagateAll(store_, &stats);
  }
  int root_level() const { return root_level_; }

  bool minimizing() const { return model_.sense() == Sense::kMinimize; }
  bool maximizing() const { return model_.sense() == Sense::kMaximize; }
  bool optimizing() const { return minimizing() || maximizing(); }

  double elapsed_ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }
  bool out_of_time() const {
    return options_.time_limit_ms > 0 && elapsed_ms() > options_.time_limit_ms;
  }
  bool node_limit_hit() const {
    return options_.node_limit > 0 && stats.nodes >= options_.node_limit;
  }
  /// Combined stop condition of the improvement loops: budget exhausted.
  bool ShouldStop() const { return out_of_time() || node_limit_hit(); }

  struct DiveLimits {
    uint64_t node_budget = 0;   ///< Nodes for this dive; 0 = unlimited.
    bool stop_on_first = false; ///< Return at the first full assignment.
    bool bound_objective = true;///< Apply the B&B cut from the incumbent.
    /// Early soft deadline (elapsed ms) honoured once an incumbent exists —
    /// the B&B backend uses it to reserve budget for the improvement phase.
    double soft_deadline_ms = 0;
    /// Value-order hint: hint[var.id] tried first when present in the domain.
    const std::vector<int64_t>* hint = nullptr;
  };

  /// Depth-first search from the store's current state (which must already
  /// be propagated and consistent). Branching pushes one trail level per
  /// attempted value; exhausted or failed subtrees backtrack in O(changed
  /// domains). Every improving full assignment is recorded into `inc`; with
  /// bound_objective the objective is clamped to strictly-better after each
  /// incumbent. For kSatisfy models the first solution terminates the dive.
  /// The store is restored to its entry level before returning.
  DiveEnd Dive(const DiveLimits& limits, Incumbent* inc) {
    const int base = store_.level();
    frames_.clear();

    // Materializes the current store as an open node: selects the branching
    // variable and fills the depth's reusable value buffer. Returns true
    // when the store is a full assignment (recorded, not pushed).
    auto push_node = [&](size_t watermark, size_t depth) -> bool {
      IntVar v = order_.Select(store_, &watermark);
      if (!v.valid()) {
        RecordSolution(inc);
        return true;
      }
      if (value_scratch_.size() <= depth) value_scratch_.resize(depth + 1);
      std::vector<int64_t>& values = value_scratch_[depth];
      values.clear();
      store_.dom(v.id).AppendValues(&values);
      OrderValues(v, limits, &values);
      frames_.push_back(Frame{v, 0, watermark, values.size()});
      return false;
    };

    if (push_node(0, 0)) {
      store_.BacktrackTo(base);
      return DiveEnd::kFirstSolution;
    }

    uint64_t dive_nodes = 0;
    while (!frames_.empty()) {
      if (limits.node_budget > 0 && dive_nodes >= limits.node_budget) {
        store_.BacktrackTo(base);
        return DiveEnd::kCutoff;
      }
      if (node_limit_hit()) {
        store_.BacktrackTo(base);
        return DiveEnd::kCutoff;
      }
      if ((stats.nodes & 0xFF) == 0) {
        // The soft deadline is independent of the global wall-clock limit:
        // an anytime dive with time_limit_ms == 0 (unlimited) must still
        // honour it once an incumbent exists. (It historically sat nested
        // inside the global-limit branch and was dead code for unlimited
        // solves.)
        double t = -1;
        if (options_.time_limit_ms > 0) {
          t = elapsed_ms();
          if (t > options_.time_limit_ms) {
            store_.BacktrackTo(base);
            return DiveEnd::kCutoff;
          }
        }
        if (limits.soft_deadline_ms > 0 && inc->found) {
          if (t < 0) t = elapsed_ms();
          if (t > limits.soft_deadline_ms) {
            store_.BacktrackTo(base);
            return DiveEnd::kCutoff;
          }
        }
      }
      Frame& top = frames_.back();
      if (top.next >= top.num_values) {
        // Subtree exhausted: drop the frame and (unless it is the dive root,
        // which owns no level) undo its parent's branching level.
        frames_.pop_back();
        if (!frames_.empty()) store_.Backtrack();
        continue;
      }
      // Copy the branching decision out of the frame: push_node below may
      // grow `frames_` and invalidate `top` (the historical dangling-
      // reference hazard of the copy-based loop).
      const IntVar var = top.var;
      const size_t watermark = top.watermark;
      const size_t child_depth = frames_.size();
      const int64_t value = value_scratch_[child_depth - 1][top.next++];
      ++stats.nodes;
      ++dive_nodes;

      store_.PushLevel();
      store_.Assign(var.id, value);
      changed_scratch_.clear();
      changed_scratch_.push_back(var.id);
      if (limits.bound_objective && !ApplyBound(&changed_scratch_, *inc)) {
        ++stats.failures;
        // Failed without running propagation: discard the wakes the
        // listener enqueued for the assignment we are about to undo.
        engine_.DrainQueue();
        store_.Backtrack();
        continue;
      }
      if (!engine_.PropagateFrom(store_, changed_scratch_, &stats)) {
        ++stats.failures;
        store_.Backtrack();
        continue;
      }
      if (push_node(watermark, child_depth)) {
        if (limits.stop_on_first || model_.sense() == Sense::kSatisfy) {
          store_.BacktrackTo(base);
          return DiveEnd::kFirstSolution;
        }
        // Solution leaf: undo this attempt's level and continue with the
        // parent frame's remaining values.
        store_.Backtrack();
      }
    }
    store_.BacktrackTo(base);  // no-op: every frame pop backtracked its level
    return DiveEnd::kExhausted;
  }

  /// Pin every decision of `units[from..)` to its incumbent value on the
  /// current trail level (the LNS "fix the non-relaxed neighborhoods"
  /// step). Returns false as soon as an assignment empties a domain;
  /// the caller backtracks the level either way.
  bool FixUnitsToIncumbent(const std::vector<std::vector<int32_t>>& units,
                           size_t from, const Incumbent& inc) {
    for (size_t i = from; i < units.size(); ++i) {
      for (int32_t id : units[i]) {
        store_.Assign(id, inc.values[static_cast<size_t>(id)]);
        if (store_.dom(id).empty()) {
          // Failing without propagating: drop the wakes already enqueued
          // for the assignments the caller is about to backtrack.
          engine_.DrainQueue();
          return false;
        }
      }
    }
    return true;
  }

  /// Record the store's (fully fixed) assignment into `inc` when it improves.
  void RecordSolution(Incumbent* inc) {
    std::vector<int64_t> vals(store_.size());
    for (size_t i = 0; i < store_.size(); ++i) vals[i] = store_[i].value();
    IntVar obj_var = model_.objective_var();
    int64_t obj =
        obj_var.valid() ? vals[static_cast<size_t>(obj_var.id)] : 0;
    if (!inc->found || (minimizing() && obj < inc->objective) ||
        (maximizing() && obj > inc->objective) ||
        model_.sense() == Sense::kSatisfy) {
      inc->found = true;
      inc->objective = obj;
      inc->values = std::move(vals);
      ++stats.solutions;
    }
  }

  /// Clamp the store's objective domain to strictly-better-than-incumbent;
  /// false when the clamp empties it. The clamp is trailed like any
  /// branching mutation, so backtracking the level restores the pre-clamp
  /// domain.
  bool ApplyBound(std::vector<int32_t>* changed, const Incumbent& inc) {
    if (!optimizing() || !inc.found) return true;
    const int64_t bound = inc.objective;
    // "Strictly better than the extreme representable value" is
    // unsatisfiable; saturate instead of computing bound∓1, which would be
    // signed-overflow UB at INT64_MIN / INT64_MAX.
    if (minimizing() ? bound == INT64_MIN : bound == INT64_MAX) return false;
    IntVar obj_var = model_.objective_var();
    bool ch = minimizing() ? store_.ClampMax(obj_var.id, bound - 1)
                           : store_.ClampMin(obj_var.id, bound + 1);
    if (store_.dom(obj_var.id).empty()) return false;
    if (ch) changed->push_back(obj_var.id);
    return true;
  }

  /// Assimilate warm-start hints into the store (which must hold a
  /// propagated root): hinted decision variables are assigned one at a time,
  /// each followed by propagation, and any hint that fails is dropped (stale
  /// hints repair instead of poisoning the store). Narrowing stacks trail
  /// levels above the root; the caller unwinds with BacktrackTo(root_level).
  /// Sets `*applied` to the number of hints that stuck and returns whether
  /// the store narrowed at all.
  bool ApplyWarmStart(size_t* applied) {
    *applied = 0;
    const std::vector<int64_t>& hint = options_.warm_start;
    if (hint.empty()) return false;
    std::vector<std::pair<size_t, int64_t>> wanted;
    for (int32_t id : order_.DecisionIds()) {
      size_t i = static_cast<size_t>(id);
      if (i >= hint.size() || hint[i] == Model::Options::kNoHint) continue;
      if (store_[i].IsFixed()) {
        if (store_[i].value() == hint[i]) ++*applied;
        continue;
      }
      if (store_[i].Contains(hint[i])) wanted.push_back({i, hint[i]});
    }
    if (wanted.empty()) return false;

    // Fast path: hints usually come from the previous near-identical solve
    // and are mutually consistent — assign them all and propagate once.
    {
      store_.PushLevel();
      std::vector<int32_t> changed;
      changed.reserve(wanted.size());
      bool ok = true;
      for (const auto& [i, v] : wanted) {
        store_.Assign(static_cast<int32_t>(i), v);
        if (store_[i].empty()) {
          ok = false;
          break;
        }
        changed.push_back(static_cast<int32_t>(i));
      }
      if (ok && engine_.PropagateFrom(store_, changed, &stats)) {
        *applied += wanted.size();
        return true;
      }
      // Either an assignment emptied a domain before propagation ran (drain
      // the listener-enqueued wakes) or propagation failed (queue already
      // drained; the extra drain is a no-op).
      engine_.DrainQueue();
      store_.Backtrack();
    }

    // Slow path: some hint went stale; assimilate one variable at a time so
    // the bad hints are dropped instead of poisoning the store. Each hint
    // that sticks keeps its level on the stack.
    bool narrowed = false;
    for (const auto& [i, v] : wanted) {
      if (store_[i].IsFixed() || !store_[i].Contains(v)) continue;
      store_.PushLevel();
      store_.Assign(static_cast<int32_t>(i), v);
      changed_scratch_.clear();
      changed_scratch_.push_back(static_cast<int32_t>(i));
      if (engine_.PropagateFrom(store_, changed_scratch_, &stats)) {
        ++*applied;
        narrowed = true;
      } else {
        store_.Backtrack();
      }
    }
    return narrowed;
  }

  /// Peak search memory: the model plus the store's in-place domain array
  /// and the trail's high-water mark (undo records + saved range vectors) —
  /// the copy-based core reported peak open frames × store width here.
  size_t PeakMemoryBytes() const {
    return model_.MemoryEstimate() + store_.PeakMemoryBytes();
  }

  /// Stamp the end-of-solve statistics (wall clock, peak memory, trail
  /// saves, per-kind propagation counts); every backend exit path calls
  /// this exactly once.
  void FinalizeStats() {
    stats.wall_ms = elapsed_ms();
    stats.peak_memory_bytes = PeakMemoryBytes();
    stats.trail_saves = store_.total_saves();
    stats.wakes_filtered = engine_.wakes_filtered();
    stats.props_skipped_entailed = engine_.props_skipped_entailed();
    const std::vector<uint64_t>& runs = engine_.run_counts();
    const auto& props = tmpl_.propagators();
    for (size_t i = 0; i < runs.size() && i < props.size(); ++i) {
      if (runs[i] > 0) {
        stats.propagations_by_kind[static_cast<size_t>(props[i]->kind())] +=
            runs[i];
      }
    }
  }

  SolveStats stats;

 private:
  /// One open DFS node. Domains live in the shared trailed store (the level
  /// pushed by the parent's branching attempt); the candidate values live in
  /// the per-depth scratch buffer, reused across every node at that depth.
  struct Frame {
    IntVar var;
    size_t next = 0;
    size_t watermark = 0;
    size_t num_values = 0;
  };

  void OrderValues(IntVar v, const DiveLimits& limits,
                   std::vector<int64_t>* values) const {
    if (limits.hint != nullptr &&
        static_cast<size_t>(v.id) < limits.hint->size()) {
      int64_t h = (*limits.hint)[static_cast<size_t>(v.id)];
      if (h != Model::Options::kNoHint) {
        auto it = std::find(values->begin(), values->end(), h);
        if (it != values->end()) {
          std::rotate(values->begin(), it, it + 1);
        }
      }
    }
  }

  const Model& model_;
  const ModelTemplate& tmpl_;
  const Model::Options& options_;
  PropagationEngine engine_;
  SearchOrder order_;
  DomainStore store_;
  int root_level_ = 0;
  std::vector<Frame> frames_;
  /// value_scratch_[depth]: candidate values of the open node at `depth`,
  /// reused across the whole solve so value enumeration never allocates
  /// after the deepest first descent.
  std::vector<std::vector<int64_t>> value_scratch_;
  std::vector<int32_t> changed_scratch_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace cologne::solver::internal

#endif  // COLOGNE_SOLVER_SEARCH_INTERNAL_H_

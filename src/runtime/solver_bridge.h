// The solver bridge: Cologne's integration of the Datalog engine with the
// constraint solver (paper Sections 5.3-5.4).
//
// At each invokeSolver event the bridge
//   1. instantiates solver variables for every `var` table row (bounded by
//      the current contents of the `forall` table),
//   2. evaluates solver *derivation* rules bottom-up over engine tables and
//      bridge-local solver tables, turning selection/aggregation expressions
//      over solver attributes into constraint-network nodes,
//   3. evaluates solver *constraint* rules, posting hard constraints,
//   4. runs branch-and-bound under the goal, and
//   5. substitutes the solution into the tables step 2 built (every symbolic
//      cell becomes its value under the incumbent; a STDEV cell, which the
//      model holds as an integer surrogate, is recomputed from its
//      substituted inputs), so the optimization output can be materialized
//      back into engine tables (triggering downstream incremental
//      evaluation, Section 5.1).
//
// The model is recorded, not built (solver/model.h): the bridge binds the
// recorded model to its template in a solver::TemplateCache, which builds
// each model shape's propagators and engine layout once and rewrites only
// the constants on later solves of that shape.
//
// Each solver rule is evaluated once per solve, along the program's
// SolverPlan (colog/solver_plan.h): the plan fixes, once per program, the
// join order, each atom's probe columns and the depth and order at which
// every selection and assignment runs, so a solve only binds rows. Joins
// read every table in a fixed scan order (bridge-local rows in derivation
// order, engine tables as one sorted snapshot per solve) and probe bound
// columns through hash indexes built lazily from that order, so a probe
// yields the rows a nested-loop scan would accept, in the same order:
// variable ids, propagator order and model fingerprints do not depend on
// the index.
#ifndef COLOGNE_RUNTIME_SOLVER_BRIDGE_H_
#define COLOGNE_RUNTIME_SOLVER_BRIDGE_H_

#include <map>
#include <string>
#include <vector>

#include "colog/knobs.h"
#include "colog/planner.h"
#include "common/status.h"
#include "datalog/engine.h"
#include "runtime/trace_replay.h"
#include "solver/model.h"
#include "solver/template_cache.h"

namespace cologne::runtime {

/// Per-solve options: the knob-set fields of colog::SolveKnobs (the paper's
/// SOLVER_MAX_TIME plus this implementation's search knobs, which
/// Instance::Init sets from the program's `param` lines) plus the fields
/// only a runtime caller sets.
struct SolveOptions : colog::SolveKnobs {
  uint64_t node_limit = 0;
  /// Cap on backend improvement iterations; 0 = until the time budget.
  uint64_t max_iterations = 0;
  /// Batched-solve variable grouping: when > 0, var-table rows whose first
  /// `group_key_prefix` regular key columns agree form one decision group
  /// in the model (e.g. prefix 2 on migVm(X,Y,D,R) groups per (X,Y) link).
  /// Both backends' LNS phases relax whole groups as neighborhoods; 0
  /// disables grouping.
  /// Instance::Solve sets it from SolveRequest::group_key_prefix.
  int group_key_prefix = 0;
  /// Feed the previous solution of this program back into the next solve as
  /// a warm-start hint (the recurring invokeSolver loop of Section 4.2
  /// usually re-solves a near-identical model).
  bool warm_start = true;
  /// Record per-decision-group solve provenance (binding constraints at the
  /// incumbent, value-source classification) into SolveOutput::provenance.
  /// Enabled by the runtime when OBS_METRICS is on; off by default so the
  /// pre-observability solve path (and its traces) is untouched.
  bool record_provenance = false;

  bool operator==(const SolveOptions&) const = default;
};

/// How Instance::Solve runs (SolveRequest::mode).
enum class SolveMode : uint8_t {
  kFull,         ///< One ungrouped model over every var-table row.
  kBatched,      ///< Var rows grouped by key prefix (per-link neighborhoods).
  kIncremental,  ///< kBatched + the fact-delta path (IncrementalState):
                 ///< reuse, accept the warm incumbent, or solve cold.
};

/// \brief One solve request — what the single entry point Instance::Solve
/// takes.
struct SolveRequest {
  SolveMode mode = SolveMode::kFull;
  /// Decision-group key prefix for kBatched/kIncremental (see
  /// SolveOptions::group_key_prefix); ignored for kFull.
  int group_key_prefix = 0;
  /// Advisory delta hint: base-fact tables touched since the previous solve
  /// (Instance::touched_tables() tracks them from the journal). Purely
  /// informational — fingerprints stay authoritative, because deltas
  /// arriving over the network bypass the local journal entirely.
  std::vector<std::string> changed_tables;
};

/// \brief Last-solution cache keyed by var-table row identity.
///
/// Solver variables are recreated from scratch on every solve, so values
/// cannot be carried by variable id; they are keyed by (var table, regular
/// key columns) instead, which survives churn in the forall set. A binding
/// that leaves the forall set (e.g. a VM below the CPU filter) keeps its
/// last decision and re-warms if it returns — but only for 256 solves,
/// after which it is evicted so long-running instances with churning keys
/// stay bounded.
struct WarmStartCache {
  struct Entry {
    std::vector<int64_t> values;  ///< Solver-cell values in column order.
    uint64_t last_used = 0;       ///< Generation of the last hit/refresh.
  };
  /// var table -> (regular-column key row -> cached entry).
  std::map<std::string, std::map<Row, Entry>> rows;
  /// Bumped once per cache-refreshing solve.
  uint64_t generation = 0;

  bool empty() const { return rows.empty(); }
  void clear() { rows.clear(); }
};

/// Result of one invokeSolver execution.
struct SolveOutput {
  solver::SolveStatus status = solver::SolveStatus::kUnknown;
  solver::Backend backend = solver::Backend::kBranchAndBound;
  uint64_t seed = 0;
  /// True when at least one cached value warm-started the search.
  bool warm_started = false;
  solver::SolveStats stats;
  /// Concrete contents of every solver output table (var tables, derived
  /// solver tables, goal table) under the best solution found.
  std::map<std::string, std::vector<Row>> tables;
  /// Concrete goal value (e.g. the true CPU stdev for a STDEV goal — the
  /// integer search objective is a monotone surrogate).
  double objective = 0;
  bool has_objective = false;
  size_t model_vars = 0;
  size_t model_propagators = 0;
  size_t model_memory_bytes = 0;
  /// Decision groups marked for a batched solve (0 = ungrouped).
  size_t model_groups = 0;
  /// Per-group provenance (SolveOptions::record_provenance); empty when
  /// recording is off or no solution was found. An ungrouped solve reports
  /// one group with an empty key covering every decision variable.
  std::vector<SolveProvGroup> provenance;
  /// Incremental classification of this solve; -1/-1/false when the
  /// incremental path was off. `incr_fallback` means the solve ran cold:
  /// no prior fingerprints, no warm incumbent, or any group dirty or
  /// vanished. Otherwise every group was clean and the warm incumbent was
  /// accepted as the solution.
  int incr_dirty = -1;
  int incr_clean = -1;
  bool incr_fallback = false;
  /// True when this output was served from IncrementalState::last_output
  /// because every input table's content hash matched the previous solve
  /// (model build, search, and writeback all skipped).
  bool incr_reused = false;
  /// True when the model's shape was already in the template cache, so
  /// only its constants were rewritten (false on a miss or a reused solve).
  bool template_hit = false;

  bool has_solution() const {
    return status == solver::SolveStatus::kOptimal ||
           status == solver::SolveStatus::kFeasible;
  }
};

/// \brief Cross-solve fingerprint state of the incremental path.
///
/// One 64-bit fingerprint per decision group, folded over the group's
/// var-table rows (table, key, initial domains), every propagator watching
/// one of its variables (propagator debug forms carry the variable ids and
/// every constant the Colog rules baked in, so a changed base fact changes
/// the hash), and a model-global component (group-coupling propagators, the
/// objective) mixed into every group. Comparing against the previous solve's
/// map classifies groups clean/dirty. Cleared whenever the warm-start cache
/// is — the incumbent an all-clean solve accepts lives there.
struct IncrementalState {
  /// Decision-group key ("2" / "1,3"; "" for an ungrouped model) -> fp.
  /// Empty until a cache-refreshing solve stores fingerprints; a compare
  /// against an empty map always falls back to a cold solve.
  std::map<std::string, uint64_t> fingerprints;

  /// Whole-solve reuse (the dominant steady-state case): content hashes of
  /// every engine table the model build reads (the program's
  /// SolverPlan::input_tables, in that order), snapshotted after the last
  /// solve's writeback, plus that solve's full output. When the next
  /// incremental solve sees identical input hashes (and identical solve
  /// options, captured in `reuse_options`), the model build, search, and
  /// writeback are all skipped and `last_output` is returned as-is — the
  /// deterministic pipeline would reproduce it bit for bit. Content hashes
  /// are order-independent (datalog::Table::ContentHash), so journal replay
  /// after a crash converges to the same snapshot.
  std::vector<uint64_t> input_hashes;
  SolveOptions reuse_options;
  SolveOutput last_output;
  bool reusable = false;

  void clear() {
    fingerprints.clear();
    input_hashes.clear();
    reuse_options = SolveOptions{};
    last_output = SolveOutput{};
    reusable = false;
  }
};

/// \brief Executes the solver-side of a compiled Colog program against the
/// current state of a Datalog engine.
///
/// Each Solve records the model from the engine's current state and binds
/// it to its template in `templates`: the propagators and engine layout of
/// a shape seen before are reused with their constants rewritten, a new
/// shape is built and stored. Without a cache every Solve uses a fresh
/// one-shot cache, which builds the model from scratch. The bridge keeps
/// no other state across calls, so it can run once per periodic trigger or
/// table-update event.
class SolverBridge {
 public:
  SolverBridge(const colog::CompiledProgram* program, datalog::Engine* engine,
               solver::TemplateCache* templates = nullptr)
      : program_(program), engine_(engine), templates_(templates) {}

  /// Run one complete COP execution. Returns an error Status only for
  /// program-level failures (malformed model); an infeasible or timed-out
  /// search is reported through SolveOutput::status.
  ///
  /// When `warm_cache` is non-null and options.warm_start is set, the cached
  /// previous solution seeds the search and the cache is refreshed with the
  /// new solution afterwards (the cross-solve warm-start loop).
  ///
  /// When `incr` is non-null, the compiled model is fingerprinted per
  /// decision group and compared against `incr`: when every group is clean
  /// the warm-start incumbent is accepted as the solution, otherwise the
  /// solve runs cold. `incr` refreshes exactly when the warm cache does
  /// (the fingerprints describe the model whose solution the cache holds).
  Result<SolveOutput> Solve(const SolveOptions& options,
                            WarmStartCache* warm_cache = nullptr,
                            IncrementalState* incr = nullptr) const;

 private:
  const colog::CompiledProgram* program_;
  datalog::Engine* engine_;
  solver::TemplateCache* templates_;
};

}  // namespace cologne::runtime

#endif  // COLOGNE_RUNTIME_SOLVER_BRIDGE_H_

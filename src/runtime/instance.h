// A Cologne instance: one node's Datalog engine + solver bridge + the
// writeback path that materializes optimization output as engine tables
// (paper Section 5.1, "materialized as RapidNet tables, which may trigger
// reevaluation of other rules via incremental view maintenance").
//
// Fault model: the instance journals every application-level base fact
// (InsertFact/DeleteFact/ApplyFact) into a durable log. Crash() drops all
// volatile state — engine tables, derived tuples, solver writeback diff
// base, optionally the warm-start cache — while the log survives, modeling
// stable storage. Restart() + ReplayBaseFacts() rebuild the engine and
// re-run incremental evaluation from the log; the node's epoch is bumped so
// peers can fence off stale in-flight messages (runtime::System wires this).
#ifndef COLOGNE_RUNTIME_INSTANCE_H_
#define COLOGNE_RUNTIME_INSTANCE_H_

#include <map>
#include <string>
#include <vector>

#include "colog/planner.h"
#include "common/status.h"
#include "datalog/engine.h"
#include "runtime/solver_bridge.h"
#include "runtime/trace_replay.h"
#include "solver/template_cache.h"

namespace cologne::runtime {

/// \brief One Cologne node.
///
/// Owns a Datalog engine loaded with the program's regular and post-solve
/// rules. Solve() runs the bridge, then *replaces* this node's
/// previously-written solver output rows with the new ones (diff-based, so
/// downstream rules see clean insert/delete deltas).
class Instance {
 public:
  Instance(NodeId id, const colog::CompiledProgram* program)
      : id_(id), program_(program), engine_(EngineSelf()) {}

  /// Declare tables and install engine rules. Call once before use.
  Status Init();

  NodeId id() const { return id_; }
  datalog::Engine& engine() { return engine_; }
  const datalog::Engine& engine() const { return engine_; }
  const colog::CompiledProgram& program() const { return *program_; }

  /// Insert/delete a base fact and run incremental evaluation. The fact is
  /// journaled durably and survives a crash.
  Status InsertFact(const std::string& table, Row row);
  Status DeleteFact(const std::string& table, Row row);

  /// Journal + apply one base-fact delta without flushing (batch form used
  /// by the trace-replay drivers); pair with Flush().
  Status ApplyFact(const std::string& table, Row row, int sign);
  /// Drain the engine's delta queue to fixpoint.
  Status Flush() { return engine_.Flush(); }

  // --- Crash / restart -------------------------------------------------------

  /// True while the node is down: facts, solves, and deliveries fail.
  bool crashed() const { return crashed_; }
  /// Incarnation counter; bumped on every Restart(). Messages stamped with
  /// an older epoch are stale and must be dropped by the receiver.
  uint32_t epoch() const { return epoch_; }
  uint64_t crash_count() const { return crash_count_; }

  /// Drop all volatile state (tables, derived tuples, solver writeback diff
  /// base). The engine is rebuilt empty-but-declared so readers never see
  /// dangling tables. The base-fact journal and warm-start cache survive.
  Status Crash();

  /// Come back up with a fresh engine (epoch bumped). `retain_warm_start`
  /// keeps the pre-crash warm-start cache; otherwise it is cleared. Callers
  /// must re-install the engine sender (System::RestartNode does) before
  /// ReplayBaseFacts().
  Status Restart(bool retain_warm_start);

  /// Re-apply the durable journal in chronological order, re-running
  /// incremental evaluation (re-derives and re-ships localized tuples).
  Status ReplayBaseFacts();

  /// Run one COP execution (the paper's invokeSolver event): build the
  /// model from current engine state, search, write back the optimization
  /// output, and flush downstream rules. Fails when the node is crashed.
  ///
  /// The single solve entry point. `request.mode` selects the shape:
  /// kFull is one ungrouped model; kBatched partitions var rows into
  /// per-unit decision groups by `request.group_key_prefix` key columns
  /// (the scenario drivers aggregate a node's incident links this way);
  /// kIncremental adds the fact-delta path on top of the grouping: reuse
  /// the last output when no input table changed, accept the warm
  /// incumbent when no decision group changed, else solve cold.
  Result<SolveOutput> Solve(const SolveRequest& request = SolveRequest{});

  /// Per-solve options. Init() sets the knob fields the program's `param`
  /// lines set (colog/knobs.h); an explicit call afterwards overrides them
  /// (the runtime caller wins).
  void set_solve_options(const SolveOptions& o) { solve_options_ = o; }
  const SolveOptions& solve_options() const { return solve_options_; }

  /// Cached last solution per var-table row, used to warm-start the next
  /// solve (cleared with reset_warm_start()).
  const WarmStartCache& warm_start_cache() const { return warm_cache_; }
  /// Clears the incremental fingerprints too: they describe the model whose
  /// incumbent the cache held, so they cannot outlive it.
  void reset_warm_start() {
    warm_cache_.clear();
    incr_state_.clear();
  }

  /// Cross-solve fingerprint state of the incremental path (read-only; the
  /// tests assert stability across journal replay and crash/restart).
  const IncrementalState& incremental_state() const { return incr_state_; }

  /// Base-fact tables the journal touched since the last completed solve —
  /// the advisory delta hint for callers assembling a SolveRequest.
  /// Fingerprints stay authoritative: network-delivered deltas bypass the
  /// local journal.
  const std::vector<std::string>& touched_tables() const {
    return touched_tables_;
  }

  /// Share `templates` (owned by the caller, e.g. a System, and outliving
  /// this instance) instead of the instance's own model-template cache.
  /// Nodes of one program solve the same few model shapes, and each node
  /// solves too rarely to warm a cache of its own.
  void set_template_cache(solver::TemplateCache* templates) {
    shared_templates_ = templates;
  }

  /// Trace sink for invokeSolver outcomes (deterministic fields only).
  void set_trace(TraceRecorder* trace) { trace_ = trace; }

  /// Observability sink (OBS_METRICS): when set, every solve folds its
  /// deterministic counters (nodes, failures, per-kind propagations, LNS
  /// accepts, warm starts) into the registry and records per-group solve
  /// provenance for the trace. Pass nullptr to detach (the default — the
  /// solve path is then byte-for-byte the pre-observability one).
  void set_metrics(obs::MetricsRegistry* metrics) { metrics_ = metrics; }

  /// Cumulative number of Solve calls (reused solves included).
  uint64_t solve_count() const { return solve_count_; }
  /// Wall-clock milliseconds spent inside the solver across all calls.
  double total_solve_ms() const { return total_solve_ms_; }

 private:
  NodeId EngineSelf() const {
    return program_->distributed ? id_ : datalog::Engine::kCentralized;
  }
  /// Declare tables + install rules on a fresh engine (Init and Restart).
  Status InitEngine();
  solver::TemplateCache* templates() {
    return shared_templates_ != nullptr ? shared_templates_ : &own_templates_;
  }
  /// Materialize solver output as engine deltas. `flush_per_delta` runs the
  /// incremental fixpoint after every inserted row instead of once at the
  /// end: batched solves write several migVm rows that address the same
  /// read-modify-write state row (r3's curVm update), and each must observe
  /// its predecessors' effect — the same interleaving the per-link protocol
  /// produces one solve at a time.
  Status Writeback(const std::map<std::string, std::vector<Row>>& tables,
                   bool flush_per_delta);

  struct BaseFact {
    std::string table;
    Row row;
    int sign;
  };

  NodeId id_;
  const colog::CompiledProgram* program_;
  datalog::Engine engine_;
  SolveOptions solve_options_;
  WarmStartCache warm_cache_;
  /// Per-decision-group model fingerprints of the last cache-refreshing
  /// solve (the incremental path's clean/dirty baseline). Survives
  /// crash/restart alongside the warm cache — journal replay rebuilds the
  /// same model, so the fingerprints still classify correctly.
  IncrementalState incr_state_;
  /// Model templates of this instance's solves, unless it shares a
  /// System's (set_template_cache).
  solver::TemplateCache own_templates_;
  solver::TemplateCache* shared_templates_ = nullptr;
  /// Tables touched by the journal since the last completed solve (sorted,
  /// deduplicated); the advisory SolveRequest::changed_tables default.
  std::vector<std::string> touched_tables_;
  /// Rows this node wrote to each solver output table on the previous solve
  /// (sorted, deduplicated), parallel to SolverPlan::output_tables — the
  /// diff base for replacement. Empty before the first solve.
  std::vector<std::vector<Row>> owned_rows_;
  /// Durable journal of application-level base facts, replayed on restart.
  std::vector<BaseFact> base_log_;
  bool crashed_ = false;
  uint32_t epoch_ = 0;
  uint64_t crash_count_ = 0;
  TraceRecorder* trace_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  uint64_t solve_count_ = 0;
  double total_solve_ms_ = 0;
};

}  // namespace cologne::runtime

#endif  // COLOGNE_RUNTIME_INSTANCE_H_

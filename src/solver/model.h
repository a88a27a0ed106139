// Model: the public constraint-programming API of cologne::solver.
//
// This plays the role Gecode played in the original system: callers create
// integer variables, post constraints, declare an objective, and call Solve()
// which runs depth-first branch-and-bound with a configurable time limit (the
// paper's SOLVER_MAX_TIME knob, Section 4.2).
//
// A Model records; it does not build. Each call appends one primitive to a
// flat log — its structural words (kind, variable ids, relation, ...) to
// shape(), its numbers (coefficients, right-hand sides, ...) to constants()
// — and keeps the initial domains. The propagators and the engine's watch
// structure live in a ModelTemplate (solver/template_cache.h), built once
// per shape and rebound to each model's constants.
#ifndef COLOGNE_SOLVER_MODEL_H_
#define COLOGNE_SOLVER_MODEL_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "solver/domain.h"
#include "solver/propagator.h"
#include "solver/types.h"

namespace cologne::solver {

class ModelTemplate;

/// Opcodes of a Model's shape log. Each primitive appends its opcode and
/// operands to Model::shape(), and its numbers, in the order listed, to
/// Model::constants():
///   kVar                          (domain kept in initial_domains())
///   kRemove v                     (the hole is in initial_domains())
///   kLinear rel n v1..vn          constant, c1..cn
///   kReified b rel n v1..vn       constant, c1..cn
///   kTimes z x y
///   kAbs z x
///   kOr b n v1..vn
///   kMaxConst z x                 c
///   kDecision v
///   kGroup n v1..vn
enum class ModelOp : int32_t {
  kVar,
  kRemove,
  kLinear,
  kReified,
  kTimes,
  kAbs,
  kOr,
  kMaxConst,
  kDecision,
  kGroup,
};

/// Objective sense of a model.
enum class Sense : uint8_t { kSatisfy, kMinimize, kMaximize };

/// \brief A constraint-satisfaction/optimization model.
///
/// Variables and constraints are append-only until Clear(); Solve() is const
/// and can be called repeatedly (e.g. once per `invokeSolver` event).
class Model {
 public:
  Model() = default;
  Model(const Model&) = delete;
  Model& operator=(const Model&) = delete;

  /// Forget every variable, constraint, group and the objective. The log's
  /// buffers keep their capacity, so a model recorded again and again (one
  /// per solve) stops allocating for them.
  void Clear();

  // --- Variables -----------------------------------------------------------

  /// New integer variable with domain [lo, hi].
  IntVar NewInt(int64_t lo, int64_t hi);
  /// New variable with an explicit (possibly holey) domain.
  IntVar NewIntFromDomain(IntDomain dom);
  /// New 0/1 variable.
  IntVar NewBool() { return NewInt(0, 1); }

  size_t num_vars() const { return domains_.size(); }
  size_t num_propagators() const { return num_props_; }

  /// Mark `v` as a decision variable: search branches on decision variables
  /// before any auxiliary variable (auxiliaries are usually functionally
  /// determined by propagation once the decisions are fixed).
  void MarkDecision(IntVar v) {
    if (static_cast<size_t>(v.id) >= is_decision_.size()) {
      is_decision_.resize(domains_.size(), 0);
    }
    is_decision_[static_cast<size_t>(v.id)] = 1;
    has_decisions_ = true;
    Record(ModelOp::kDecision, v.id);
  }
  bool IsDecision(IntVar v) const {
    return static_cast<size_t>(v.id) < is_decision_.size() &&
           is_decision_[static_cast<size_t>(v.id)] != 0;
  }
  bool has_decisions() const { return has_decisions_; }

  /// Declare a group of decision variables that form one semantic unit —
  /// e.g. all variables of one link in a batched multi-link negotiation
  /// solve (the per-agent neighborhoods of Fioretto et al.'s distributed
  /// LNS). LNS, and B&B's anytime LNS tail, relax whole groups as
  /// neighborhoods; models with fewer than two groups keep variable-level
  /// neighborhoods. Empty groups are ignored.
  void MarkGroup(std::vector<IntVar> vars) {
    if (vars.empty()) return;
    Record(ModelOp::kGroup, static_cast<int32_t>(vars.size()));
    for (IntVar v : vars) shape_.push_back(v.id);
    groups_.push_back(std::move(vars));
  }
  const std::vector<std::vector<IntVar>>& decision_groups() const {
    return groups_;
  }
  const IntDomain& InitialDomain(IntVar v) const {
    return domains_[static_cast<size_t>(v.id)];
  }
  /// All initial domains (index = var id): the root store search backends
  /// start from.
  const std::vector<IntDomain>& initial_domains() const { return domains_; }

  // --- Constraints ---------------------------------------------------------

  /// Post `e rel 0`.
  void PostLinear(LinExpr e, Rel rel);
  /// Post `lhs rel rhs`.
  void PostRel(LinExpr lhs, Rel rel, LinExpr rhs);
  /// Post `b <=> (lhs rel rhs)` for an existing 0/1 variable b.
  void PostReified(IntVar b, LinExpr lhs, Rel rel, LinExpr rhs);
  /// Fresh 0/1 variable b with `b <=> (lhs rel rhs)`.
  IntVar ReifyRel(LinExpr lhs, Rel rel, LinExpr rhs);
  /// Remove a single value from a variable's domain (e.g. the wireless
  /// primary-user constraint c1: the assigned channel must differ from every
  /// occupied channel).
  void RemoveValue(IntVar v, int64_t value);

  // --- Derived variables (each returns a fresh variable + channeling) ------

  /// Variable constrained equal to an affine expression. Returns the
  /// underlying variable directly when `e` is a bare 1*x term.
  IntVar VarOf(const LinExpr& e);
  /// z == x * y.
  IntVar MakeTimes(IntVar x, IntVar y);
  /// z == e^2 (used by the STDEV aggregate's sum-of-squared-deviations form).
  IntVar MakeSquare(const LinExpr& e);
  /// z == |e| (used by the SUMABS aggregate).
  IntVar MakeAbs(const LinExpr& e);
  /// z == max(e, c).
  IntVar MakeMaxConst(const LinExpr& e, int64_t c);
  /// b == OR(bs) over 0/1 variables.
  IntVar MakeOr(std::vector<IntVar> bs);
  /// count == |{distinct values taken by vars}| (the UNIQUE aggregate;
  /// decomposed into reified membership booleans).
  IntVar MakeCountDistinct(const std::vector<IntVar>& vars);

  // --- Objective -----------------------------------------------------------

  void Minimize(const LinExpr& e);
  void Maximize(const LinExpr& e);
  /// Plain satisfaction (the paper's `goal satisfy`); the default.
  void Satisfy() { sense_ = Sense::kSatisfy; }

  Sense sense() const { return sense_; }
  /// Objective variable (valid unless sense is kSatisfy).
  IntVar objective_var() const { return objective_; }

  // --- Solving -------------------------------------------------------------

  struct Options {
    /// Missing-entry sentinel for `warm_start`.
    static constexpr int64_t kNoHint = INT64_MIN;

    /// Wall-clock budget; mirrors the paper's SOLVER_MAX_TIME (they used 10 s
    /// for ACloud). <= 0 means unlimited.
    double time_limit_ms = 10'000;
    /// Optional hard cap on explored nodes. 0 means unlimited.
    uint64_t node_limit = 0;
    /// Search strategy (the SOLVER_BACKEND knob).
    Backend backend = Backend::kBranchAndBound;
    /// Seed for all randomized search decisions (the SOLVER_SEED knob);
    /// identical seeds reproduce identical search decisions. For bit-for-bit
    /// reproducible *solutions*, also replace the wall-clock limit with a
    /// deterministic budget (max_iterations and/or node_limit).
    uint64_t seed = 0x10C5;
    /// Cap on backend improvement iterations (LNS neighborhoods / B&B
    /// improvement dives). 0 means "until the time budget runs out"; a finite
    /// cap makes runs wall-clock independent (deterministic tests).
    uint64_t max_iterations = 0;
    /// Optional warm-start hint: warm_start[var.id] is a suggested value or
    /// kNoHint. Backends use it to seed the first incumbent and bias value
    /// ordering; infeasible hints are repaired, never trusted.
    std::vector<int64_t> warm_start;
    /// The warm-start hint is the incumbent of an unchanged model (the
    /// runtime's incremental path found every decision group clean): both
    /// backends stop after the warm-start dive and return its solution as
    /// feasible, without sharpening or improvement.
    bool accept_warm_incumbent = false;
    /// Naive-propagation reference mode (the SOLVER_NAIVE_PROPAGATION knob):
    /// run the legacy flat-FIFO scheduler with full-recompute propagators —
    /// no event filtering, no incremental aggregates, no entailment
    /// unsubscription — reproducing the pre-event-engine propagation counts
    /// byte-for-byte. Search trees are identical in both modes (monotone
    /// propagators reach the same fixpoint under any scheduling order); only
    /// the propagation-effort counters differ. Used by the confluence sweep
    /// and as the baseline leg of the CI propagation-ratio gate.
    bool naive_propagation = false;
  };

  /// Run propagation + the selected search backend: branch-and-bound
  /// (search.cc) or LNS (lns.cc), over the propagators of `tmpl`, which
  /// must be the template this model was last bound to
  /// (TemplateCache::Bind).
  ///
  /// The default branch-and-bound backend branches with first-fail variable
  /// selection (smallest domain first, decision variables before
  /// auxiliaries) and ascending value order; on each incumbent the objective
  /// is bounded and search continues (anytime behaviour under the time
  /// limit).
  Solution Solve(const ModelTemplate& tmpl, const Options& options) const;
  /// Bind to a template of a one-shot cache, then solve.
  Solution Solve(const Options& options) const;
  /// Solve with default options.
  Solution Solve() const { return Solve(Options{}); }

  /// Bounds of an affine expression under the *initial* domains.
  ExprBounds InitialBounds(const LinExpr& e) const;

  /// Approximate resident size of the model itself (vars + propagators).
  size_t MemoryEstimate() const;

  // --- The recorded log ----------------------------------------------------

  /// Structural words of every primitive, in call order (see ModelOp).
  const std::vector<int32_t>& shape() const { return shape_; }
  /// Numbers of every primitive, in call order (see ModelOp).
  const std::vector<int64_t>& constants() const { return consts_; }

 private:
  void Record(ModelOp op, int32_t operand) {
    shape_.push_back(static_cast<int32_t>(op));
    shape_.push_back(operand);
  }
  /// Log one linear family propagator over canonical `e`.
  void RecordLinear(ModelOp op, IntVar b, const LinExpr& e, Rel rel);

  std::vector<IntDomain> domains_;
  std::vector<char> is_decision_;
  std::vector<std::vector<IntVar>> groups_;
  bool has_decisions_ = false;
  Sense sense_ = Sense::kSatisfy;
  IntVar objective_;
  std::vector<int32_t> shape_;
  std::vector<int64_t> consts_;
  size_t num_props_ = 0;
};

}  // namespace cologne::solver

#endif  // COLOGNE_SOLVER_MODEL_H_

// Core solver handle types: variables, relations, and linear expressions.
#ifndef COLOGNE_SOLVER_TYPES_H_
#define COLOGNE_SOLVER_TYPES_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace cologne::solver {

/// Handle to an integer decision variable owned by a Model.
struct IntVar {
  int32_t id = -1;
  bool valid() const { return id >= 0; }
  bool operator==(const IntVar&) const = default;
};

/// Comparison relations supported by constraints.
enum class Rel : uint8_t { kEq, kNe, kLe, kLt, kGe, kGt };

/// Human-readable relation symbol ("==", "<=", ...).
const char* RelName(Rel rel);
/// The logical negation of a relation (== -> !=, <= -> >, ...).
Rel Negate(Rel rel);
/// Swap sides: (a rel b) == (b Flip(rel) a).
Rel Flip(Rel rel);
/// Evaluate `lhs rel rhs` on concrete integers.
bool EvalRel(int64_t lhs, Rel rel, int64_t rhs);

/// \brief An affine expression: constant + sum(coef_i * var_i).
///
/// LinExpr is the lingua franca between the Colog runtime bridge and the
/// solver: solver-attribute expressions compile to LinExpr where possible,
/// and to auxiliary variables + propagators otherwise.
struct LinExpr {
  int64_t constant = 0;
  std::vector<std::pair<int64_t, IntVar>> terms;  // (coefficient, variable)

  LinExpr() = default;
  /// Constant expression.
  explicit LinExpr(int64_t c) : constant(c) {}
  /// 1 * v.
  explicit LinExpr(IntVar v) { terms.push_back({1, v}); }
  static LinExpr Term(int64_t coef, IntVar v) {
    LinExpr e;
    if (coef != 0) e.terms.push_back({coef, v});
    return e;
  }

  bool IsConstant() const { return terms.empty(); }

  LinExpr& operator+=(const LinExpr& o);
  LinExpr& operator-=(const LinExpr& o);
  LinExpr& MulBy(int64_t k);

  friend LinExpr operator+(LinExpr a, const LinExpr& b) { return a += b; }
  friend LinExpr operator-(LinExpr a, const LinExpr& b) { return a -= b; }

  /// Merge duplicate variables and drop zero coefficients.
  void Canonicalize();

  std::string ToString() const;
  /// Append ToString()'s text to `out`.
  void AppendTo(std::string* out) const;
};

/// Pluggable search strategies (Model::Options::backend).
enum class Backend : uint8_t {
  kBranchAndBound,  ///< Trailed depth-first branch-and-bound (complete).
  kLns,             ///< Large Neighborhood Search (anytime, incomplete).
};

/// Human-readable backend name ("bnb", "lns") — also the spelling accepted
/// by the Colog SOLVER_BACKEND knob.
const char* BackendName(Backend b);
/// Parse a backend name; false when `name` is not a known backend.
bool ParseBackend(const std::string& name, Backend* out);

/// Search outcome classification.
enum class SolveStatus : uint8_t {
  kOptimal,     ///< Search space exhausted; best solution is optimal.
  kFeasible,    ///< At least one solution found but search was cut short
                ///< (time limit), so optimality is not proven.
  kInfeasible,  ///< Proven: no solution satisfies the constraints.
  kUnknown,     ///< No solution found before the time limit.
};

/// Human-readable status name.
const char* SolveStatusName(SolveStatus s);

/// The closed set of propagator kinds (Propagator::kind()), keying the
/// per-kind propagation counters.
enum class PropKind : uint8_t {
  kLinear,
  kReified,
  kTimes,
  kAbs,
  kOr,
  kMaxConst,
  kOther,
};
inline constexpr size_t kNumPropKinds = 7;

/// Stable short kind name ("linear", "max_const", ...): the `prop.<kind>`
/// metric names of the observability layer (obs/metrics.h).
const char* PropKindName(PropKind kind);

/// Search statistics reported by Model::Solve.
struct SolveStats {
  uint64_t nodes = 0;        ///< Choice points explored.
  uint64_t failures = 0;     ///< Dead ends encountered.
  uint64_t solutions = 0;    ///< Feasible solutions found (B&B improvements).
  uint64_t propagations = 0; ///< Propagator executions.
  uint64_t wakes_filtered = 0;        ///< Wakeups suppressed because the
                                      ///< domain event could not affect the
                                      ///< subscriber (event-typed engine; 0
                                      ///< in the naive reference mode).
  uint64_t props_skipped_entailed = 0;///< Wakeups suppressed because the
                                      ///< propagator had reported itself
                                      ///< entailed on this subtree.
  uint64_t iterations = 0;   ///< Backend improvement iterations (LNS
                             ///< neighborhoods repaired / B&B improvement
                             ///< dives after the tree-search phase).
  uint64_t restarts = 0;     ///< LNS diversification resets (in the LNS
                             ///< backend and B&B's anytime LNS tail).
  uint64_t lns_accepted = 0; ///< LNS neighborhood repairs that improved the
                             ///< incumbent (iterations - lns_accepted were
                             ///< rejected).
  /// Propagator executions by propagator kind, indexed by PropKind; sums
  /// to `propagations`. Filled at the end of a solve.
  std::array<uint64_t, kNumPropKinds> propagations_by_kind{};
  uint64_t trail_saves = 0;  ///< Undo records pushed by the trailed store
                             ///< (touched-domain saves; the O(Δ) backtrack
                             ///< cost where the copy-based core paid
                             ///< O(num_vars) clones per node).
  double wall_ms = 0;        ///< Elapsed wall-clock milliseconds.
  size_t peak_memory_bytes = 0;  ///< Approximate peak search-state memory.
};

/// Result of Model::Solve: status, assignment (by variable id), objective.
struct Solution {
  SolveStatus status = SolveStatus::kUnknown;
  std::vector<int64_t> values;  ///< values[var.id] = assigned value.
  int64_t objective = 0;        ///< Meaningful for minimize/maximize goals.
  Backend backend = Backend::kBranchAndBound;  ///< Strategy that produced it.
  SolveStats stats;

  bool has_solution() const {
    return status == SolveStatus::kOptimal || status == SolveStatus::kFeasible;
  }
  int64_t ValueOf(IntVar v) const { return values[static_cast<size_t>(v.id)]; }
};

}  // namespace cologne::solver

#endif  // COLOGNE_SOLVER_TYPES_H_

// Branch-and-bound search backend and the Model::Solve dispatch.
//
// Trailed state restoration (as in Gecode's recomputation-free engines): one
// in-place domain store per solve, a level pushed per branching attempt, and
// O(changed domains) undo on backtrack (solver/store.h). The explored tree
// is bit-identical to the historical copy-based core's.
//
// The backend is complete: left to run it proves optimality/infeasibility.
// Under a time cap it is anytime — after the tree-search phase is cut off it
// spends the remaining budget on the shared LNS improvement loop (lns.cc),
// the pattern behind the paper's "close-to-optimal under a 10 s cap"
// executions (Section 6.2).
#include "solver/lns.h"
#include "solver/model.h"
#include "solver/search_internal.h"

namespace cologne::solver {

namespace {

using internal::DiveEnd;
using internal::Incumbent;
using internal::SearchContext;

Solution BranchAndBoundSolve(const Model& model, const ModelTemplate& tmpl,
                             const Model::Options& options) {
  SearchContext ctx(model, tmpl, options);
  Solution out;  // Solution::backend is stamped by Model::Solve.

  if (!ctx.PropagateRoot()) {
    ctx.FinalizeStats();
    out.status = SolveStatus::kInfeasible;
    out.stats = ctx.stats;
    return out;
  }

  Incumbent inc;

  // ---- Warm start --------------------------------------------------------
  // Seed the incumbent from the caller's hint (the runtime bridge feeds
  // back the previous invokeSolver solution here): assimilate the hints
  // into the store, then complete with a short first-solution dive. A good
  // early incumbent makes every subsequent branch-and-bound cut sharper.
  // The hint levels unwind afterwards so the tree search starts from the
  // plain propagated root.
  if (!options.warm_start.empty()) {
    size_t applied = 0;
    ctx.ApplyWarmStart(&applied);
    if (applied > 0) {
      SearchContext::DiveLimits seed_dive;
      seed_dive.stop_on_first = true;
      seed_dive.bound_objective = false;
      seed_dive.node_budget = 10'000;
      seed_dive.hint = &options.warm_start;
      ctx.Dive(seed_dive, &inc);
    }
    ctx.store().BacktrackTo(ctx.root_level());
  }

  // A warm-started satisfaction solve is already done: any solution is
  // terminal, so skip the tree search entirely.
  if (inc.found && model.sense() == Sense::kSatisfy) {
    ctx.FinalizeStats();
    out.stats = ctx.stats;
    out.values = std::move(inc.values);
    out.objective = inc.objective;
    out.status = SolveStatus::kOptimal;
    return out;
  }

  // Valid relaxation bound on the objective, from root propagation; lets
  // the improvement phase stop (and claim optimality) when reached.
  int64_t objective_bound = 0;
  if (ctx.optimizing()) {
    const IntDomain& od = ctx.store().dom(model.objective_var().id);
    objective_bound = ctx.minimizing() ? od.min() : od.max();
  }

  // ---- Tree search -------------------------------------------------------
  // Large models cannot be searched exhaustively within SOLVER_MAX_TIME;
  // once an incumbent exists, reserve the remaining budget for the LNS
  // improvement phase below.
  SearchContext::DiveLimits limits;
  limits.bound_objective = true;
  limits.hint = options.warm_start.empty() ? nullptr : &options.warm_start;
  if (ctx.optimizing() && options.time_limit_ms > 0) {
    limits.soft_deadline_ms = options.time_limit_ms * 0.3;
  }

  // ---- Unchanged model ----------------------------------------------------
  // The warm-start dive reproduced the previous incumbent of an unchanged
  // model: accept it outright (feasible, not proven — the incremental path
  // trades the proof for latency).
  if (options.accept_warm_incumbent && inc.found && ctx.optimizing()) {
    ctx.FinalizeStats();
    out.stats = ctx.stats;
    out.values = std::move(inc.values);
    out.objective = inc.objective;
    out.status = SolveStatus::kFeasible;
    return out;
  }

  bool cutoff = ctx.Dive(limits, &inc) == DiveEnd::kCutoff;

  // ---- Anytime improvement tail -----------------------------------------
  if (cutoff && inc.found && ctx.optimizing()) {
    LnsParams params;
    params.seed = options.seed;
    params.max_iterations = options.max_iterations;
    params.have_objective_bound = true;
    params.objective_bound = objective_bound;
    if (LnsImprove(ctx, params, &inc)) {
      cutoff = false;  // incumbent reached the relaxation bound: optimal
    }
  }

  ctx.FinalizeStats();
  out.stats = ctx.stats;
  if (inc.found) {
    out.values = std::move(inc.values);
    out.objective = inc.objective;
    // With a cutoff we cannot claim optimality (except pure satisfaction,
    // where any solution is terminal).
    out.status = (cutoff && model.sense() != Sense::kSatisfy)
                     ? SolveStatus::kFeasible
                     : SolveStatus::kOptimal;
  } else {
    out.status = cutoff ? SolveStatus::kUnknown : SolveStatus::kInfeasible;
  }
  return out;
}

}  // namespace

Solution Model::Solve(const ModelTemplate& tmpl,
                      const Options& options) const {
  Solution s;
  switch (options.backend) {
    case Backend::kBranchAndBound:
      s = BranchAndBoundSolve(*this, tmpl, options);
      break;
    case Backend::kLns:
      s = LnsSolve(*this, tmpl, options);
      break;
  }
  s.backend = options.backend;
  return s;
}

}  // namespace cologne::solver

// Large Neighborhood Search backend (Model::Options::backend = kLns).
//
// Anytime local search in the style of Fioretto et al.'s distributed LNS for
// DCOPs and DAOOPT's incumbent-seeding local search: start from a
// propagation-guided greedy assignment (or the caller's warm-start hint),
// then repeatedly relax a randomized subset of the decision variables, fix
// the rest to the incumbent, and repair the sub-problem with a time-sliced
// branch-and-bound dive bounded to strictly-improving solutions. The
// neighborhood size adapts: it shrinks on improvement and grows on
// stagnation, with periodic diversification resets counted as restarts.
#ifndef COLOGNE_SOLVER_LNS_H_
#define COLOGNE_SOLVER_LNS_H_

#include "solver/model.h"
#include "solver/search_internal.h"

namespace cologne::solver {

/// Tuning knobs of the improvement loop.
struct LnsParams {
  uint64_t seed = 0x10C5;
  /// Cap on neighborhoods explored; 0 = until the time budget runs out.
  uint64_t max_iterations = 0;
  /// Node budget of each repair dive (the "time slice" of the sub-B&B).
  uint64_t repair_node_budget = 2000;
  /// Valid relaxation bound on the objective (the propagated root store's
  /// objective min for minimize / max for maximize). When the incumbent
  /// reaches it, the loop stops and reports proven optimality instead of
  /// sampling guaranteed-infeasible neighborhoods.
  bool have_objective_bound = false;
  int64_t objective_bound = 0;
};

/// \brief The improvement loop, shared by LnsSolve and the branch-and-bound
/// backend's anytime tail (which historically ran this exact pattern after a
/// time cutoff).
///
/// Neighborhoods start at #decisions / 10 + 1 variables, or, when the model
/// carries two or more decision groups, at #groups / 3 + 1 whole groups, and
/// adapt in those units. Requires an existing incumbent and an optimizing
/// sense; no-op otherwise.
/// Updates `inc` in place and accounts iterations/restarts in ctx.stats.
/// Returns true when the incumbent provably reached the objective bound.
/// Rebuilds each trial neighborhood as one trail level over the store's
/// pristine initial domains (ctx.store() level 0) — fix, bound, propagate,
/// repair-dive, backtrack — so a trial costs O(touched domains), not a
/// store clone; the store is left at level 0 on return.
bool LnsImprove(internal::SearchContext& ctx, const LnsParams& params,
                internal::Incumbent* inc);

/// The LNS search backend: run one Model::Solve call under `options`.
Solution LnsSolve(const Model& model, const ModelTemplate& tmpl,
                  const Model::Options& options);

}  // namespace cologne::solver

#endif  // COLOGNE_SOLVER_LNS_H_

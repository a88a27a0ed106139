#include "solver/lns.h"

#include <algorithm>
#include <cstdint>

#include "common/rng.h"

namespace cologne::solver {

using internal::DiveEnd;
using internal::Incumbent;
using internal::SearchContext;

bool LnsImprove(SearchContext& ctx, const LnsParams& params, Incumbent* inc) {
  if (!inc->found || !ctx.optimizing()) return false;
  auto at_bound = [&] {
    return params.have_objective_bound &&
           inc->objective == params.objective_bound;
  };
  if (at_bound()) return true;
  const Model& model = ctx.model();

  // Relaxation units: whole decision groups when the model declares two or
  // more (batched multi-link solves relax per-link neighborhoods, the
  // per-agent neighborhoods of distributed LNS), individual decision
  // variables otherwise. The singleton-unit path consumes the RNG stream
  // exactly as the historical variable-level loop did.
  std::vector<std::vector<int32_t>> units;
  bool grouped = false;
  {
    const std::vector<int32_t>& decisions = ctx.order().DecisionIds();
    const auto& groups = model.decision_groups();
    if (groups.size() >= 2) {
      std::vector<char> covered(model.num_vars(), 0);
      for (const std::vector<IntVar>& g : groups) {
        std::vector<int32_t> unit;
        for (IntVar v : g) {
          size_t id = static_cast<size_t>(v.id);
          if (id < covered.size() && model.IsDecision(v) && !covered[id]) {
            covered[id] = 1;
            unit.push_back(v.id);
          }
        }
        if (!unit.empty()) units.push_back(std::move(unit));
      }
      // Decisions outside every group relax together as one extra unit.
      std::vector<int32_t> rest;
      for (int32_t id : decisions) {
        if (!covered[static_cast<size_t>(id)]) rest.push_back(id);
      }
      if (!rest.empty()) units.push_back(std::move(rest));
      grouped = units.size() >= 2;
    }
    if (!grouped) {
      units.clear();
      for (int32_t id : decisions) units.push_back({id});
    }
  }
  const size_t n = units.size();
  if (n == 0) return false;

  Rng rng(params.seed);
  size_t min_k, max_k, start_k;
  if (grouped) {
    // Relax at least one group and keep at least one fixed.
    min_k = 1;
    max_k = std::max<size_t>(1, n - 1);
    start_k = std::clamp<size_t>(n / 3 + 1, min_k, max_k);
  } else {
    min_k = std::min<size_t>(n, 2);
    max_k = std::max(min_k, n / 2);
    start_k = std::clamp<size_t>(n / 10 + 1, min_k, max_k);
  }
  size_t k = start_k;

  // Neighborhoods stack one level per iteration — fix, bound, propagate,
  // repair, backtrack — so each trial costs O(touched domains) instead of a
  // full store clone. The event-typed engine rebuilds from the *propagated
  // root* (any leftover hint levels unwound): fixpoint(root ∧ fixings) ==
  // fixpoint(initial ∧ fixings) for monotone propagators, and starting from
  // the root fixpoint lets each trial propagate only the delta its fixings
  // caused. The naive reference mode keeps the historical rebuild from the
  // pristine level-0 domains with a full re-propagation per trial, so its
  // propagation counts reproduce the legacy engine exactly.
  DomainStore& st = ctx.store();
  if (ctx.options().naive_propagation) {
    st.BacktrackTo(0);
  } else {
    st.BacktrackTo(ctx.root_level());
  }

  // Improving neighborhoods get rare near a local optimum; keep sampling
  // until the time budget runs out. The stale cap only terminates small
  // models that reach a true neighborhood-local optimum quickly.
  const int max_stale =
      std::max(200, static_cast<int>(64 * (n / start_k + 1)));
  int stale = 0;
  uint64_t iters = 0;

  while (stale < max_stale) {
    if (params.max_iterations > 0 && iters >= params.max_iterations) break;
    if (ctx.ShouldStop()) break;
    ++iters;
    ++ctx.stats.iterations;

    // Relax a uniform random k-subset of the relaxation units (partial
    // Fisher-Yates; units[0..kk) is the neighborhood).
    const size_t kk = std::min(k, n);
    for (size_t i = 0; i < kk; ++i) {
      size_t j = i + static_cast<size_t>(rng.UniformInt(
                         0, static_cast<int64_t>(n - 1 - i)));
      std::swap(units[i], units[j]);
    }

    // Fix every non-relaxed decision to the incumbent, bound the objective
    // to strictly-better, and propagate — all on one trail level that the
    // end of the iteration unwinds.
    st.PushLevel();
    bool ok = ctx.FixUnitsToIncumbent(units, kk, *inc);
    if (ok) {
      std::vector<int32_t> changed;
      ok = ctx.ApplyBound(&changed, *inc) &&
           ctx.engine().PropagateDelta(st, &ctx.stats);
    }

    bool improved = false;
    bool reached_bound = false;
    if (ok) {
      const int64_t prev = inc->objective;
      SearchContext::DiveLimits dl;
      dl.node_budget = params.repair_node_budget;
      dl.bound_objective = true;
      ctx.Dive(dl, inc);
      improved = inc->objective != prev;
      reached_bound = improved && at_bound();
    }
    // A trial that failed before propagation ran (fixing or bounding emptied
    // a domain) leaves its wakes pending; discard them with the level.
    if (!ok) ctx.engine().DrainQueue();
    st.Backtrack();
    if (improved) ++ctx.stats.lns_accepted;
    if (reached_bound) return true;

    if (improved) {
      stale = 0;
      // Intensify: smaller neighborhoods repair faster.
      k = std::max(min_k, k - std::max<size_t>(1, k / 4));
    } else {
      ++stale;
      // Diversify: widen the neighborhood, and periodically reset it (a
      // restart) so the walk escapes the current basin.
      k = std::min(max_k, k + 1);
      if (stale > 0 && stale % 64 == 0) {
        k = start_k;
        ++ctx.stats.restarts;
      }
    }
  }
  return false;
}

Solution LnsSolve(const Model& model, const ModelTemplate& tmpl,
                  const Model::Options& options) {
  SearchContext ctx(model, tmpl, options);
  Solution out;  // Solution::backend is stamped by Model::Solve.

  if (!ctx.PropagateRoot()) {
    ctx.FinalizeStats();
    out.status = SolveStatus::kInfeasible;
    out.stats = ctx.stats;
    return out;
  }
  // Optimality-by-propagation only holds for the *plain* root: a store fixed
  // by warm-start hints is just a feasible point.
  bool root_fixed = true;
  for (size_t i = 0; i < ctx.store().size(); ++i) {
    if (!ctx.store()[i].IsFixed()) {
      root_fixed = false;
      break;
    }
  }
  // Valid relaxation bound on the objective, from the propagated root (read
  // before any hint level narrows the store further).
  int64_t objective_bound = 0;
  if (ctx.optimizing()) {
    const IntDomain& od = ctx.store().dom(model.objective_var().id);
    objective_bound = ctx.minimizing() ? od.min() : od.max();
  }

  // ---- Initial assignment ---------------------------------------------------
  // Propagation-guided greedy construction: a first-solution DFS dive (each
  // assignment is followed by propagation, backtracking over dead ends),
  // optionally narrowed first by the warm-start hint (stacked as trail
  // levels above the root).
  Incumbent inc;
  size_t hints_applied = 0;
  bool hint_narrowed = ctx.ApplyWarmStart(&hints_applied);
  SearchContext::DiveLimits first;
  first.stop_on_first = true;
  first.bound_objective = false;
  first.hint = options.warm_start.empty() ? nullptr : &options.warm_start;
  DiveEnd end = ctx.Dive(first, &inc);
  if (!inc.found && hint_narrowed) {
    // The hint narrowed the store into an unsatisfiable region; unwind to
    // the plain root and retry (exhausting the *hinted* store proves
    // nothing). When the hints changed nothing, the first dive already was
    // the plain-root search and retrying would just repeat it.
    ctx.store().BacktrackTo(ctx.root_level());
    end = ctx.Dive(first, &inc);
  }

  bool proven_exhausted = !inc.found && end == DiveEnd::kExhausted;

  // ---- Incumbent sharpening -------------------------------------------------
  // A short bounded constructive burst before the neighborhood loop: DFS
  // with the objective cut from the first solution rapidly walks the
  // incumbent down, giving LNS a strong starting point (the
  // incumbent-seeding pattern of DAOOPT). Bounded by nodes — and a slice of
  // the wall-clock budget when one is set — so it stays a small prefix of
  // the solve.
  bool proven_optimal = false;
  // An unchanged model's incumbent (accept_warm_incumbent) skips this and
  // the improvement loop: the warm-start hint already is its solution.
  if (inc.found && ctx.optimizing() && !options.accept_warm_incumbent) {
    SearchContext::DiveLimits sharpen;
    sharpen.bound_objective = true;
    sharpen.node_budget = 5000;
    if (options.time_limit_ms > 0) {
      sharpen.soft_deadline_ms = options.time_limit_ms * 0.15;
    }
    sharpen.hint = first.hint;
    // Exhausting a bounded DFS from the root *is* a complete search: the
    // incumbent is then provably optimal and the neighborhood loop is moot.
    ctx.store().BacktrackTo(ctx.root_level());
    proven_optimal = ctx.Dive(sharpen, &inc) == DiveEnd::kExhausted;
  }

  // ---- Improvement ----------------------------------------------------------
  // kSatisfy models stop at the first solution (the fallback the runtime
  // relies on when a goal table is empty); optimizing models spend the rest
  // of the budget on neighborhood search.
  if (inc.found && ctx.optimizing() && !proven_optimal &&
      !options.accept_warm_incumbent) {
    LnsParams params;
    params.seed = options.seed;
    params.max_iterations = options.max_iterations;
    params.have_objective_bound = true;
    params.objective_bound = objective_bound;
    proven_optimal = LnsImprove(ctx, params, &inc);
  }

  ctx.FinalizeStats();
  out.stats = ctx.stats;
  if (inc.found) {
    out.values = std::move(inc.values);
    out.objective = inc.objective;
    // LNS is incomplete: optimality is only claimed when the sharpening
    // dive exhausted the space, the root was fixed by pure propagation, or
    // the sense is satisfaction.
    out.status =
        (model.sense() == Sense::kSatisfy || root_fixed || proven_optimal)
            ? SolveStatus::kOptimal
            : SolveStatus::kFeasible;
  } else {
    out.status =
        proven_exhausted ? SolveStatus::kInfeasible : SolveStatus::kUnknown;
  }
  return out;
}

}  // namespace cologne::solver

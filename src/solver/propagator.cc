#include "solver/propagator.h"

namespace cologne::solver {

namespace {

// Bucket by subscription width, *widest first*. Wide linear sums are the
// producers in the model graphs this solver sees (resource capacities,
// objective channels): running them before the narrow consumers (reified
// thresholds, binary squares) lets each consumer observe settled sums and
// run once, where a cheap-first order re-executes every narrow propagator
// after each wide prune lands (measured: cheap-first roughly doubles reified
// executions on capacity-heavy models and re-runs square channels ~40% more
// on the assignment kernel). Deterministic: width is fixed at construction,
// FIFO within a bucket.
uint8_t PriorityBucket(size_t unique_watches) {
  if (unique_watches > 8) return 0;
  if (unique_watches > 3) return 1;
  if (unique_watches == 3) return 2;
  return 3;
}

// Width `|c| * (hi - lo)` of one linear term over [lo, hi], exact for every
// int64 coefficient: one int64 x int64 -> __int128 product, negated in 128
// bits (never `c` in 64). `hi - lo` cannot overflow: domain values stay
// within +/-kDomainLimit.
__int128 TermWidth(int64_t c, int64_t lo, int64_t hi) {
  const __int128 w = static_cast<__int128>(c) * (hi - lo);
  return c < 0 ? -w : w;
}

}  // namespace

EngineLayout::EngineLayout(
    const std::vector<std::unique_ptr<Propagator>>& props, size_t num_vars)
    : subs_(num_vars),
      priority_(props.size(), 0),
      proofs_(props.size()),
      idempotent_(props.size(), 0),
      aux_offset_(props.size(), -1),
      num_aux_slots_(static_cast<int>(props.size())) {
  // Dedup is count-neutral in naive mode too: the duplicate enqueues it
  // removes were already suppressed by the engine's in_queue_ flag.
  std::vector<int32_t> seen_at(num_vars, -1);
  for (size_t i = 0; i < props.size(); ++i) {
    const Propagator& p = *props[i];
    const std::vector<int32_t>& w = p.watched();
    const std::vector<uint8_t>& masks = p.watch_masks();
    const size_t first_ref = refs_.size();
    size_t unique = 0;
    bool dup = false;
    for (size_t k = 0; k < w.size(); ++k) {
      const size_t v = static_cast<size_t>(w[k]);
      if (seen_at[v] == static_cast<int32_t>(i)) {
        // Duplicate: merge the mask into the existing subscription. The
        // advisor position stays ambiguous, so incremental aggregates are
        // disabled for this propagator (full-recompute path instead).
        dup = true;
        for (WatchEntry& e : subs_[v]) {
          if (e.prop == i) e.mask |= masks[k];
        }
        continue;
      }
      seen_at[v] = static_cast<int32_t>(i);
      ++unique;
      refs_.push_back({static_cast<uint32_t>(v),
                       static_cast<uint32_t>(subs_[v].size()),
                       static_cast<uint32_t>(i), static_cast<uint32_t>(k),
                       0});
      subs_[v].push_back({static_cast<uint32_t>(i), masks[k], 0});
    }
    priority_[i] = PriorityBucket(unique);
    // Cache the virtual per-propagator traits consulted on every wake and
    // every self-wake, so the engine's hot paths are dispatch-free.
    proofs_[i] = p.fixpoint_proof();
    idempotent_[i] = p.IdempotentAfterRun() ? 1 : 0;
    if (dup) {
      refs_.resize(first_ref);
      continue;
    }
    const int n = p.NumAuxSlots();
    if (n > 0) {
      aux_offset_[i] = num_aux_slots_;
      num_aux_slots_ += n;
      for (size_t r = first_ref; r < refs_.size(); ++r) refs_[r].advised = 1;
    }
  }
  Rebind(props);
}

void EngineLayout::Rebind(
    const std::vector<std::unique_ptr<Propagator>>& props) {
  for (const EntryRef& r : refs_) {
    const Propagator& p = *props[r.prop];
    WatchEntry& e = subs_[r.var][r.entry];
    e.mask = p.watch_masks()[r.watch_pos];
    // The engine reads coefficients only of propagators with aggregates.
    e.coef = r.advised ? p.AdviseCoefficient(r.watch_pos) : 0;
  }
}

PropagationEngine::PropagationEngine(
    const std::vector<std::unique_ptr<Propagator>>* props, size_t num_vars,
    bool naive)
    : props_(props),
      naive_(naive),
      owned_layout_(std::make_unique<EngineLayout>(*props, num_vars)),
      layout_(owned_layout_.get()) {
  InitState();
}

PropagationEngine::PropagationEngine(
    const std::vector<std::unique_ptr<Propagator>>* props,
    const EngineLayout* layout, bool naive)
    : props_(props), naive_(naive), layout_(layout) {
  InitState();
}

void PropagationEngine::InitState() {
  subs_ = layout_->subs_.data();
  proofs_ = layout_->proofs_.data();
  idempotent_ = layout_->idempotent_.data();
  if (naive_) naive_priority_.assign(props_->size(), 0);
  priority_ = naive_ ? naive_priority_.data() : layout_->priority_.data();
  in_queue_.assign(props_->size(), 0);
  run_counts_.assign(props_->size(), 0);
  aux_base_.assign(props_->size(), -1);
}

bool PropagationEngine::ProvablyAtFixpoint(
    const Propagator::FixpointProof& proof, int aux_base) const {
  switch (proof.kind) {
    case Propagator::FixpointProof::Kind::kNone:
      return false;
    case Propagator::FixpointProof::Kind::kLinear:
      return LinearPassAtFixpoint(proof.rel, store_->aux(aux_base),
                                  store_->aux(aux_base + 1),
                                  store_->aux(aux_base + 2));
    case Propagator::FixpointProof::Kind::kReified: {
      const __int128 smin = store_->aux(aux_base);
      const __int128 smax = store_->aux(aux_base + 1);
      const IntDomain& bd = store_->dom(proof.b);
      if (bd.IsFixed()) {
        // b decided: the propagator is a plain linear pass over the
        // effective relation; same width/slack certificate applies.
        return LinearPassAtFixpoint(bd.min() != 0 ? proof.rel
                                                  : Negate(proof.rel),
                                    smin, smax, store_->aux(aux_base + 2));
      }
      // b open: the only possible prune is fixing b, which happens exactly
      // when the relation's entailment is decided by the sum bounds.
      return EntailedRel(ClampExprBounds(smin, smax), proof.rel) ==
             Entail::kMaybe;
    }
  }
  return false;
}

void PropagationEngine::AttachStore(DomainStore& store) {
  if (naive_) return;
  store_ = &store;
  // Entailed flags first, then each propagator's aggregates in index order
  // (EngineLayout::aux_offset_).
  entailed_base_ = store.AddAuxSlots(layout_->num_aux_slots_);
  for (size_t i = 0; i < props_->size(); ++i) {
    const int32_t offset = layout_->aux_offset_[i];
    if (offset >= 0) {
      aux_base_[i] = entailed_base_ + offset;
      (*props_)[i]->InitAux(store, aux_base_[i]);
    } else {
      aux_base_[i] = -1;
    }
  }
  store.SetListener(this);
}

void PropagationEngine::Enqueue(size_t prop_idx) {
  if (!in_queue_[prop_idx]) {
    in_queue_[prop_idx] = 1;
    buckets_[priority_[prop_idx]].push_back(static_cast<uint32_t>(prop_idx));
  }
}

void PropagationEngine::OnVarChanged(int32_t var_id) {
  // Attached event mode: the store listener already delivered this change
  // with its event type; a second, untyped wake here would bypass the mask
  // filter.
  if (!naive_ && store_ != nullptr) return;
  for (const WatchEntry& w : subs_[static_cast<size_t>(var_id)]) {
    Enqueue(w.prop);
  }
}

void PropagationEngine::OnDomainEvent(int32_t var, uint8_t events,
                                      int64_t old_min, int64_t old_max) {
  // Bound deltas are per-variable, not per-subscriber: hoist them out of the
  // subscription loop (this dispatch runs on every mutation search makes).
  const __int128 dmin = static_cast<__int128>(store_->lo(var)) - old_min;
  const __int128 dmax = static_cast<__int128>(store_->hi(var)) - old_max;
  for (const WatchEntry& w : subs_[static_cast<size_t>(var)]) {
    // Advisors run on every bound event, even when the wake is filtered or
    // the propagator entailed: the aggregates must track the domains so the
    // next real execution (or entailment re-check) reads current sums. The
    // coefficient-based fold is inlined here — no virtual dispatch.
    const int base = aux_base_[w.prop];
    if (base >= 0 && w.coef != 0 &&
        (events & (kEventMin | kEventMax)) != 0) {
      const __int128 c = w.coef;
      if (w.coef >= 0) {
        if (dmin != 0) store_->SetAux(base, store_->aux(base) + c * dmin);
        if (dmax != 0) {
          store_->SetAux(base + 1, store_->aux(base + 1) + c * dmax);
        }
      } else {
        if (dmax != 0) store_->SetAux(base, store_->aux(base) + c * dmax);
        if (dmin != 0) {
          store_->SetAux(base + 1, store_->aux(base + 1) + c * dmin);
        }
      }
    }
    if ((events & w.mask) == 0) {
      ++wakes_filtered_;
      continue;
    }
    if (store_->aux(entailed_base_ + static_cast<int>(w.prop)) != 0) {
      ++skipped_entailed_;
      continue;
    }
    // The event is relevant in kind, but the freshly-advised aggregates may
    // still prove the run would change nothing: the advisor subsumes the
    // wake entirely. proofs_[] is the construction-time descriptor cache —
    // no virtual dispatch here either.
    if (base >= 0 && ProvablyAtFixpoint(proofs_[w.prop], base)) {
      ++wakes_filtered_;
      continue;
    }
    Enqueue(w.prop);
  }
}

bool PropagationEngine::PropagateAll(DomainStore& store, SolveStats* stats) {
  for (size_t i = 0; i < props_->size(); ++i) Enqueue(i);
  return RunQueue(store, stats);
}

bool PropagationEngine::PropagateFrom(DomainStore& store,
                                      const std::vector<int32_t>& changed_vars,
                                      SolveStats* stats) {
  for (int32_t v : changed_vars) OnVarChanged(v);
  return RunQueue(store, stats);
}

bool PropagationEngine::PropagateDelta(DomainStore& store, SolveStats* stats) {
  if (naive_) return PropagateAll(store, stats);
  return RunQueue(store, stats);
}

void PropagationEngine::DrainQueue() {
  for (auto& bucket : buckets_) {
    while (!bucket.empty()) {
      in_queue_[bucket.front()] = 0;
      bucket.pop_front();
    }
  }
}

bool PropagationEngine::RunQueue(DomainStore& store, SolveStats* stats) {
  PropCtx ctx(&store, this);
  for (;;) {
    int b = 0;
    while (b < kNumBuckets && buckets_[b].empty()) ++b;
    if (b == kNumBuckets) return true;
    const uint32_t idx = buckets_[b].front();
    buckets_[b].pop_front();
    // Stale entry: the quiescence loop below consumed this wake without
    // popping it (event mode only — naive never clears the flag early).
    if (!in_queue_[idx]) continue;
    in_queue_[idx] = 0;
    // A propagator can become entailed after it was enqueued; skip it here
    // the same way the wake-time check does.
    if (!naive_ && IsEntailed(idx)) {
      ++skipped_entailed_;
      continue;
    }
    // Re-prove no-op at pop time: prunes made by propagators that ran since
    // this one was enqueued may have advanced its aggregates to a provable
    // fixpoint.
    if (!naive_ && aux_base_[idx] >= 0 &&
        ProvablyAtFixpoint(proofs_[idx], aux_base_[idx])) {
      ++wakes_filtered_;
      continue;
    }
    if (stats != nullptr) ++stats->propagations;
    ++run_counts_[idx];
    ctx.cur_prop_ = static_cast<int32_t>(idx);
    ctx.aux_base_ = naive_ ? -1 : aux_base_[idx];
    if (!(*props_)[idx]->Propagate(ctx)) {
      // Failure: drain the queue so the engine is clean for the next node.
      DrainQueue();
      return false;
    }
    // Fixpoint reporting (event mode): a wake the run put on *itself* — the
    // only mutations during Propagate(idx) are idx's own — is consumed here
    // instead of costing a queue round trip. Idempotent propagators are at
    // their own fixpoint already; the rest re-run (same execution episode,
    // uncounted) until quiescent or entailed, which computes the exact same
    // per-propagator closure the legacy self-wake loop did.
    while (!naive_ && in_queue_[idx]) {
      in_queue_[idx] = 0;  // the deque entry it left behind is now stale
      if (IsEntailed(idx) || idempotent_[idx]) break;
      // The run's own prunes advised its aggregates; if they now certify a
      // no-op, the closure is reached without another full term scan.
      if (aux_base_[idx] >= 0 &&
          ProvablyAtFixpoint(proofs_[idx], aux_base_[idx])) {
        break;
      }
      if (!(*props_)[idx]->Propagate(ctx)) {
        DrainQueue();
        return false;
      }
    }
  }
}

ExprBounds ClampExprBounds(__int128 lo, __int128 hi) {
  auto clamp = [](__int128 x) {
    const __int128 lim = static_cast<__int128>(INT64_MAX) / 2;
    if (x > lim) return static_cast<int64_t>(lim);
    if (x < -lim) return static_cast<int64_t>(-lim);
    return static_cast<int64_t>(x);
  };
  return {clamp(lo), clamp(hi)};
}

ExprBounds BoundsOf(const PropCtx& ctx, const LinExpr& e) {
  __int128 lo = e.constant, hi = e.constant;
  for (const auto& [c, v] : e.terms) {
    if (c >= 0) {
      lo += static_cast<__int128>(c) * ctx.Min(v);
      hi += static_cast<__int128>(c) * ctx.Max(v);
    } else {
      lo += static_cast<__int128>(c) * ctx.Max(v);
      hi += static_cast<__int128>(c) * ctx.Min(v);
    }
  }
  return ClampExprBounds(lo, hi);
}

__int128 MaxTermWidth(const LinExpr& e, const DomainStore& store) {
  __int128 w = 0;
  for (const auto& [c, v] : e.terms) {
    const __int128 width = TermWidth(c, store.lo(v.id), store.hi(v.id));
    if (width > w) w = width;
  }
  return w;
}

Entail EntailedRel(const ExprBounds& b, Rel rel) {
  switch (rel) {
    case Rel::kEq:
      if (b.min == 0 && b.max == 0) return Entail::kYes;
      if (b.min > 0 || b.max < 0) return Entail::kNo;
      return Entail::kMaybe;
    case Rel::kNe:
      if (b.min > 0 || b.max < 0) return Entail::kYes;
      if (b.min == 0 && b.max == 0) return Entail::kNo;
      return Entail::kMaybe;
    case Rel::kLe:
      if (b.max <= 0) return Entail::kYes;
      if (b.min > 0) return Entail::kNo;
      return Entail::kMaybe;
    case Rel::kLt:
      if (b.max < 0) return Entail::kYes;
      if (b.min >= 0) return Entail::kNo;
      return Entail::kMaybe;
    case Rel::kGe:
      if (b.min >= 0) return Entail::kYes;
      if (b.max < 0) return Entail::kNo;
      return Entail::kMaybe;
    case Rel::kGt:
      if (b.min > 0) return Entail::kYes;
      if (b.max <= 0) return Entail::kNo;
      return Entail::kMaybe;
  }
  return Entail::kMaybe;
}

namespace {

// Floor/ceil division with correct rounding toward -inf / +inf.
// __int128 intermediates keep coefficient * bound products exact.
int64_t FloorDiv128(__int128 a, __int128 b) {
  __int128 q = a / b, r = a % b;
  if (r != 0 && ((r < 0) != (b < 0))) q -= 1;
  if (q > kDomainLimit) return kDomainLimit;
  if (q < -kDomainLimit) return -kDomainLimit;
  return static_cast<int64_t>(q);
}
int64_t CeilDiv128(__int128 a, __int128 b) {
  __int128 q = a / b, r = a % b;
  if (r != 0 && ((r < 0) == (b < 0))) q += 1;
  if (q > kDomainLimit) return kDomainLimit;
  if (q < -kDomainLimit) return -kDomainLimit;
  return static_cast<int64_t>(q);
}

// Prune pass of `sign*e + add <= 0` given `sum_min`, the precomputed sum of
// minima of the transformed expression (`add` included). Split from PruneLe
// so the incremental path can supply `sum_min` from its live aggregates
// instead of the O(all terms) first loop.
//
// Term j can narrow its domain iff its width `|c|*(max-min)` exceeds the
// slack `-sum_min` (the budget left to it once every other term sits at its
// minimum). A fixed term has width 0 <= slack: it can neither prune nor
// raise the certificate, so the pass skips it. With `width` non-null the
// pass also reports the largest post-prune term width — the certificate
// LinearPassAtFixpoint reads from aux slot 2 — so no second loop is needed.
// Prunes only move the bound opposite to each term's minimum, so `sum_min`
// is invariant along the pass and each term's width is final once visited.
bool PruneLeWithSum(PropCtx& ctx, const LinExpr& e, int64_t sign,
                    __int128 sum_min, __int128* width) {
  if (sum_min > 0) return false;
  const __int128 slack = -sum_min;
  __int128 max_width = 0;
  for (const auto& [c, v] : e.terms) {
    const int64_t lo = ctx.Min(v), hi = ctx.Max(v);
    if (lo == hi) continue;
    __int128 w = TermWidth(c, lo, hi);
    if (w > slack) {
      // The transformed term is ce*x with ce = sign*c; it needs
      // ce*x <= budget = ce*x_min_side + slack. Products are int64 x int64,
      // so the arithmetic is exact for every coefficient.
      const __int128 ce = static_cast<__int128>(sign) * c;
      if (ce > 0) {
        const __int128 budget = ce * lo + slack;
        if (!ctx.ClampMax(v, FloorDiv128(budget, ce))) return false;
        w = TermWidth(c, lo, ctx.Max(v));
      } else {
        const __int128 budget = ce * hi + slack;
        if (!ctx.ClampMin(v, CeilDiv128(budget, ce))) return false;
        w = TermWidth(c, ctx.Min(v), hi);
      }
    }
    if (w > max_width) max_width = w;
  }
  if (width != nullptr) *width = max_width;
  return true;
}

// Prune `sign*e + add <= 0` to bounds consistency. The sign/offset
// parameterization covers every PruneLinear rewrite (>=, >, <, ==) without
// materializing a negated LinExpr copy per propagation — the historical
// `f = e; f.MulBy(-1)` heap-allocated a terms vector on the hot path.
bool PruneLe(PropCtx& ctx, const LinExpr& e, int64_t sign = 1,
             int64_t add = 0) {
  __int128 sum_min = static_cast<__int128>(sign) * e.constant + add;
  for (const auto& [c, v] : e.terms) {
    const __int128 ce = static_cast<__int128>(sign) * c;
    sum_min += ce * (ce >= 0 ? ctx.Min(v) : ctx.Max(v));
  }
  return PruneLeWithSum(ctx, e, sign, sum_min, nullptr);
}

bool PruneNe(PropCtx& ctx, const LinExpr& e) {
  // Only prunes when exactly one variable is unfixed. The fixed part is
  // summed in 128 bits: coefficient * value products overflow int64.
  __int128 fixed_sum = e.constant;
  IntVar free_var;
  int64_t free_coef = 0;
  int n_free = 0;
  for (const auto& [c, v] : e.terms) {
    if (ctx.IsFixed(v)) {
      fixed_sum += static_cast<__int128>(c) * ctx.ValueOf(v);
    } else {
      ++n_free;
      free_var = v;
      free_coef = c;
    }
  }
  if (n_free == 0) return fixed_sum != 0;
  if (n_free == 1 && (-fixed_sum) % free_coef == 0) {
    // free_coef * x != -fixed_sum. A quotient outside +/-kDomainLimit lies
    // outside every domain: there is nothing to remove.
    const __int128 q = (-fixed_sum) / free_coef;
    if (q >= -kDomainLimit && q <= kDomainLimit &&
        !ctx.Remove(free_var, static_cast<int64_t>(q))) {
      return false;
    }
  }
  return true;
}

}  // namespace

bool PruneLinear(PropCtx& ctx, const LinExpr& e, Rel rel) {
  switch (rel) {
    case Rel::kLe:
      return PruneLe(ctx, e);
    case Rel::kLt:
      return PruneLe(ctx, e, 1, 1);  // e < 0  <=>  e + 1 <= 0
    case Rel::kGe:
      return PruneLe(ctx, e, -1);  // e >= 0  <=>  -e <= 0
    case Rel::kGt:
      return PruneLe(ctx, e, -1, 1);  // e > 0  <=>  -e + 1 <= 0
    case Rel::kEq:
      return PruneLe(ctx, e) && PruneLe(ctx, e, -1);
    case Rel::kNe:
      return PruneNe(ctx, e);
  }
  return true;
}

bool LinearPassAtFixpoint(Rel rel, __int128 sum_min, __int128 sum_max,
                          __int128 max_width) {
  // Pass over `g = sign*e + add <= 0`: term j prunable iff
  // width_j > slack = -min(g); see PruneLeWithSum's multiply-compare guard.
  // `max_width >= 0`, so `max_width <= slack` also certifies `min(g) <= 0` —
  // a failing pass (positive min) is never skipped.
  switch (rel) {
    case Rel::kLe:  // g = e:       slack = -sum_min
      return max_width <= -sum_min;
    case Rel::kLt:  // g = e + 1:   slack = -sum_min - 1
      return max_width <= -sum_min - 1;
    case Rel::kGe:  // g = -e:      slack = sum_max
      return max_width <= sum_max;
    case Rel::kGt:  // g = -e + 1:  slack = sum_max - 1
      return max_width <= sum_max - 1;
    case Rel::kEq:  // both passes; same widths (|c| is sign-invariant)
      return max_width <= -sum_min && max_width <= sum_max;
    case Rel::kNe:
      return false;
  }
  return false;
}

bool PruneLinearIncremental(PropCtx& ctx, const LinExpr& e, Rel rel) {
  // Aux slot 0/1 hold the exact sum-min/sum-max of `e` (constant included),
  // maintained by Advise deltas. `sum_min(sign*e + add)` is `aux0 + add`
  // for sign=1 and `-aux1 + add` for sign=-1 — the same value the
  // full-recompute first loop would produce, so the prune pass (and hence
  // the fixpoint) is identical. For kEq the second pass re-reads the slot:
  // prunes made by the first pass advise the aggregates mid-call, exactly
  // as the legacy second recompute observed them.
  //
  // Slot 2 (the width certificate) is written once, after the whole call,
  // from the last pass over the terms: for kEq that is the second pass,
  // which sees every prune the first one made. Wakes evaluated mid-call
  // read the previous value, an upper bound since domains only narrow.
  __int128 width = 0;
  bool ok = true;
  switch (rel) {
    case Rel::kLe:
      ok = PruneLeWithSum(ctx, e, 1, ctx.AuxVal(0), &width);
      break;
    case Rel::kLt:
      ok = PruneLeWithSum(ctx, e, 1, ctx.AuxVal(0) + 1, &width);
      break;
    case Rel::kGe:
      ok = PruneLeWithSum(ctx, e, -1, -ctx.AuxVal(1), &width);
      break;
    case Rel::kGt:
      ok = PruneLeWithSum(ctx, e, -1, -ctx.AuxVal(1) + 1, &width);
      break;
    case Rel::kEq:
      ok = PruneLeWithSum(ctx, e, 1, ctx.AuxVal(0), nullptr) &&
           PruneLeWithSum(ctx, e, -1, -ctx.AuxVal(1), &width);
      break;
    case Rel::kNe:
      ok = PruneNe(ctx, e);
      if (ok) width = MaxTermWidth(e, ctx.store());
      break;
  }
  if (ok) ctx.SetAuxVal(2, width);
  return ok;
}

}  // namespace cologne::solver

#include "solver/template_cache.h"

#include <cassert>

namespace cologne::solver {

namespace {

// FNV-1a over the structural words and the objective.
uint64_t ShapeHash(const std::vector<int32_t>& shape, Sense sense,
                   int32_t objective) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint32_t w) {
    h ^= w;
    h *= 1099511628211ull;
  };
  for (int32_t w : shape) mix(static_cast<uint32_t>(w));
  mix(static_cast<uint32_t>(sense));
  mix(static_cast<uint32_t>(objective));
  return h;
}

}  // namespace

ModelTemplate::ModelTemplate(const std::vector<int32_t>& shape,
                             size_t num_vars) {
  // Placeholder constants: 0 for constant terms and MaxConst's c, 1 for
  // coefficients. Rebind() writes the real numbers.
  size_t i = 0;
  auto next = [&] { return shape[i++]; };
  auto read_expr = [&] {
    LinExpr e;
    const int32_t n = next();
    e.terms.reserve(static_cast<size_t>(n));
    for (int32_t k = 0; k < n; ++k) e.terms.push_back({1, IntVar{next()}});
    return e;
  };
  while (i < shape.size()) {
    switch (static_cast<ModelOp>(next())) {
      case ModelOp::kVar:
        break;
      case ModelOp::kRemove:
      case ModelOp::kDecision:
        ++i;
        break;
      case ModelOp::kGroup:
        i += static_cast<size_t>(next());
        break;
      case ModelOp::kLinear: {
        const auto rel = static_cast<Rel>(next());
        props_.push_back(MakeLinear(read_expr(), rel));
        break;
      }
      case ModelOp::kReified: {
        const IntVar b{next()};
        const auto rel = static_cast<Rel>(next());
        props_.push_back(MakeReifiedLinear(b, read_expr(), rel));
        break;
      }
      case ModelOp::kTimes: {
        const IntVar z{next()}, x{next()}, y{next()};
        props_.push_back(MakeTimes(z, x, y));
        break;
      }
      case ModelOp::kAbs: {
        const IntVar z{next()}, x{next()};
        props_.push_back(MakeAbs(z, x));
        break;
      }
      case ModelOp::kOr: {
        const IntVar b{next()};
        std::vector<IntVar> bs(static_cast<size_t>(next()));
        for (IntVar& v : bs) v = IntVar{next()};
        props_.push_back(MakeOr(b, std::move(bs)));
        break;
      }
      case ModelOp::kMaxConst: {
        const IntVar z{next()}, x{next()};
        props_.push_back(MakeMaxConst(z, x, 0));
        break;
      }
    }
  }
  layout_ = std::make_unique<EngineLayout>(props_, num_vars);
}

void ModelTemplate::Rebind(const Model& model) {
  const int64_t* consts = model.constants().data();
  for (const auto& p : props_) p->RebindConstants(&consts);
  assert(consts == model.constants().data() + model.constants().size());
  layout_->Rebind(props_);
}

const ModelTemplate& TemplateCache::Bind(const Model& model, bool* hit) {
  const int32_t objective = model.objective_var().id;
  const uint64_t hash = ShapeHash(model.shape(), model.sense(), objective);
  Entry* found = nullptr;
  for (Entry& e : entries_) {
    if (e.hash == hash && e.sense == model.sense() &&
        e.objective == objective && e.shape == model.shape()) {
      found = &e;
      break;
    }
  }
  if (hit != nullptr) *hit = found != nullptr;
  if (found == nullptr) {
    if (entries_.size() < kMaxTemplates) {
      found = &entries_.emplace_back();
    } else {
      found = &entries_[0];
      for (Entry& e : entries_) {
        if (e.last_bound < found->last_bound) found = &e;
      }
    }
    found->hash = hash;
    found->shape = model.shape();
    found->sense = model.sense();
    found->objective = objective;
    found->tmpl = std::make_unique<ModelTemplate>(model.shape(),
                                                  model.num_vars());
  }
  found->last_bound = ++clock_;
  found->tmpl->Rebind(model);
  return *found->tmpl;
}

}  // namespace cologne::solver

// Model templates: each model shape is built once, then rebound to the
// constants of every model of that shape.
//
// The runtime's invokeSolver loop solves the same few model shapes over and
// over with different numbers in them: a node's channel-selection COP has
// the same variables and propagators every time, only the neighbors'
// channels (right-hand sides) change. A Model records its primitives as a
// structural log plus constants (solver/model.h). The structural log keys a
// bounded cache of ModelTemplates. A template holds the built propagators
// and their EngineLayout (subscriptions, priority buckets, fixpoint proofs,
// idempotence flags, aux layout), none of which depends on the constants.
// Binding a model finds or builds its template, then rewrites the
// constants in place: each propagator's coefficients and right-hand sides
// (and the sign-dependent watch masks of linear terms), and the layout's
// cached advisor coefficients and masks. A miss builds the
// propagators from the structural words alone and then binds exactly as a
// hit does, so constants enter a template through one path.
//
// Initial domains are not part of a template: they stay in the Model, which
// the search reads them from.
#ifndef COLOGNE_SOLVER_TEMPLATE_CACHE_H_
#define COLOGNE_SOLVER_TEMPLATE_CACHE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "solver/model.h"
#include "solver/propagator.h"

namespace cologne::solver {

/// \brief The built, constant-independent form of one model shape.
class ModelTemplate {
 public:
  /// Builds the propagators `shape` describes (a Model::shape() log) with
  /// placeholder constants, and their engine layout.
  ModelTemplate(const std::vector<int32_t>& shape, size_t num_vars);

  /// Rewrite every constant to `model`'s, which must have this shape.
  void Rebind(const Model& model);

  const std::vector<std::unique_ptr<Propagator>>& propagators() const {
    return props_;
  }
  const EngineLayout& layout() const { return *layout_; }

 private:
  std::vector<std::unique_ptr<Propagator>> props_;
  std::unique_ptr<EngineLayout> layout_;
};

/// \brief A bounded cache of model templates keyed by model shape.
///
/// The key is the whole structural log plus the objective sense and
/// variable, compared exactly (its hash only picks the candidates). Holds
/// at most kMaxTemplates templates and evicts the least recently bound one.
/// Not thread-safe: one owner solves at a time (a runtime::System shares one
/// cache among its nodes, which solve one after another).
class TemplateCache {
 public:
  /// The bound on cached templates. The case-study workloads solve at most
  /// 21 distinct shapes per episode.
  static constexpr size_t kMaxTemplates = 32;

  TemplateCache() = default;
  TemplateCache(const TemplateCache&) = delete;
  TemplateCache& operator=(const TemplateCache&) = delete;

  /// A cleared model to record the next solve into. Its log buffers keep
  /// their capacity from solve to solve. Valid until the next call.
  Model& RecordModel() {
    scratch_.Clear();
    return scratch_;
  }

  /// Find (or build and store) the template of `model`'s shape and rebind
  /// it to `model`'s constants. `*hit` (optional) tells whether the shape
  /// was cached. The reference is valid until the next Bind.
  const ModelTemplate& Bind(const Model& model, bool* hit = nullptr);

  /// Templates cached now (never above kMaxTemplates).
  size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    uint64_t hash = 0;
    std::vector<int32_t> shape;
    Sense sense = Sense::kSatisfy;
    int32_t objective = -1;
    uint64_t last_bound = 0;
    std::unique_ptr<ModelTemplate> tmpl;
  };

  std::vector<Entry> entries_;
  uint64_t clock_ = 0;
  Model scratch_;
};

}  // namespace cologne::solver

#endif  // COLOGNE_SOLVER_TEMPLATE_CACHE_H_

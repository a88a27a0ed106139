// Trailed domain store: in-place domains + an undo trail, the state-restoring
// core of the search backends.
#ifndef COLOGNE_SOLVER_STORE_H_
#define COLOGNE_SOLVER_STORE_H_

#include <cstdint>
#include <vector>

#include "solver/domain.h"

namespace cologne::solver {

// --- Modification events ----------------------------------------------------
// Every domain mutation is classified into a bitmask of typed events so the
// propagation engine can wake only the propagators whose filtering can be
// affected (Gecode-style modification events). `kEventFix` always rides along
// with the bound event that caused the fixing; `kEventRemove` marks a pure
// interior hole (bounds unchanged, domain not newly fixed).
inline constexpr uint8_t kEventMin = 1;     ///< min() increased
inline constexpr uint8_t kEventMax = 2;     ///< max() decreased
inline constexpr uint8_t kEventFix = 4;     ///< became fixed (singleton)
inline constexpr uint8_t kEventRemove = 8;  ///< interior value removed only
inline constexpr uint8_t kEventAny = 0xF;

/// \brief Observer for typed domain-change events. The propagation engine
/// implements this to receive every mutation made through the store —
/// including the direct `Assign`/`ClampMax` calls search and LNS make
/// without going through a `PropCtx` — so advisor state (incremental linear
/// aggregates) can never go stale. Events are delivered only for changes
/// that leave the domain non-empty: an emptied domain fails the current
/// level, which is always backtracked (restoring any trailed advisor state)
/// before propagation resumes.
class DomainListener {
 public:
  virtual ~DomainListener() = default;
  /// `events` is a kEvent* mask; new bounds are readable from the store.
  virtual void OnDomainEvent(int32_t var, uint8_t events, int64_t old_min,
                             int64_t old_max) = 0;
};

/// \brief A trailed domain store: one in-place `IntDomain` array plus a trail
/// of save-once-per-level undo records, giving O(changed domains)
/// backtracking where the historical copy-based search cloned the whole
/// store (O(num_vars × ranges)) at every node.
///
/// Levels nest like DFS choice points. `PushLevel()` marks a point; each
/// mutator records at most one save per (variable, level) — the domain's
/// range vector as it stood when the level first touched it — and
/// `Backtrack()` restores exactly the touched domains, in reverse trail
/// order. Restoration replays the saved range vectors verbatim, so a
/// backtracked store is bit-identical to the store before the level was
/// pushed: search built on this store explores the same tree the copy-based
/// core did (the determinism contract behind the golden traces).
///
/// Mutations at level 0 (no level pushed) are permanent: there is nothing
/// below to restore to, so they bypass the trail.
///
/// A flat `{lo, hi}` array mirrors every domain's bounds, so the linear
/// kernels' per-term bound reads are one contiguous load instead of a chase
/// into each domain's heap-allocated range vector. The mirror is refreshed
/// after every mutator and every backtrack restore; an emptied domain keeps
/// its last non-empty bounds (it fails the level, which is backtracked
/// before anyone reads them again).
///
/// Alongside the domains the store owns a small array of trailed `__int128`
/// auxiliary slots. Propagators park incremental aggregates (running
/// sum(min)/sum(max) of a linear expression, entailed flags) there; the
/// slots share the store's save-once-per-level discipline so `Backtrack()`
/// restores them in O(changed) together with the domains they summarize.
///
/// Not thread-safe: one SearchContext owns its store.
class DomainStore {
 public:
  DomainStore() = default;

  /// Reset to `doms` at level 0 with an empty trail, no aux slots, and no
  /// listener. Peak/total accounting carries across Init (one store serves
  /// one Solve call).
  void Init(std::vector<IntDomain> doms);

  /// Attach (or detach, with nullptr) the event listener. Mutations made
  /// while attached deliver typed events; the naive reference mode never
  /// attaches one, keeping the legacy mutator fast path byte-identical.
  void SetListener(DomainListener* listener) { listener_ = listener; }

  size_t size() const { return doms_.size(); }
  /// Current level: number of PushLevel() calls not yet backtracked.
  int level() const { return static_cast<int>(marks_.size()); }
  const IntDomain& dom(int32_t id) const {
    return doms_[static_cast<size_t>(id)];
  }
  const IntDomain& operator[](size_t i) const { return doms_[i]; }
  /// Bounds of a non-empty domain, read from the flat mirror: equal to
  /// dom(id).min() / dom(id).max().
  int64_t lo(int32_t id) const { return bounds_[static_cast<size_t>(id)].lo; }
  int64_t hi(int32_t id) const { return bounds_[static_cast<size_t>(id)].hi; }

  /// Mark a choice point: subsequent mutations are undone by Backtrack().
  void PushLevel();
  /// Undo every mutation since the matching PushLevel(). Requires level() > 0.
  void Backtrack();
  /// Backtrack until level() == `level` (no-op when already there or below).
  void BacktrackTo(int level);

  // --- Trail-recording mutators -------------------------------------------
  // Mirrors of the IntDomain mutators; each saves the pre-mutation domain on
  // the trail (once per level) before applying, and returns true exactly
  // when the domain changed. A change can empty the domain (failure); the
  // caller checks dom(id).empty(). Inline: the no-change early-outs are the
  // propagation fixpoint's common case and must cost one comparison, not a
  // call.
  bool ClampMin(int32_t id, int64_t lo) {
    IntDomain& d = doms_[static_cast<size_t>(id)];
    Bounds& b = bounds_[static_cast<size_t>(id)];
    if (lo <= b.lo || d.empty()) return false;
    Save(id);
    const Bounds old = b;
    d.ClampMin(lo);
    if (!d.empty()) {
      b.lo = d.min();
      if (listener_ != nullptr) NotifyListener(id, old);
    }
    return true;
  }
  bool ClampMax(int32_t id, int64_t hi) {
    IntDomain& d = doms_[static_cast<size_t>(id)];
    Bounds& b = bounds_[static_cast<size_t>(id)];
    if (hi >= b.hi || d.empty()) return false;
    Save(id);
    const Bounds old = b;
    d.ClampMax(hi);
    if (!d.empty()) {
      b.hi = d.max();
      if (listener_ != nullptr) NotifyListener(id, old);
    }
    return true;
  }
  bool Remove(int32_t id, int64_t v) {
    IntDomain& d = doms_[static_cast<size_t>(id)];
    if (!d.Contains(v)) return false;
    Save(id);
    Bounds& b = bounds_[static_cast<size_t>(id)];
    const Bounds old = b;
    d.Remove(v);
    if (!d.empty()) {
      b = {d.min(), d.max()};
      if (listener_ != nullptr) NotifyListener(id, old);
    }
    return true;
  }
  bool Assign(int32_t id, int64_t v) {
    IntDomain& d = doms_[static_cast<size_t>(id)];
    Bounds& b = bounds_[static_cast<size_t>(id)];
    if (d.empty() || (b.lo == v && b.hi == v)) return false;
    Save(id);
    const Bounds old = b;
    d.Assign(v);
    if (!d.empty()) {
      b = {v, v};
      if (listener_ != nullptr) NotifyListener(id, old);
    }
    return true;
  }

  // --- Trailed auxiliary slots --------------------------------------------

  /// Append `n` zero-initialized aux slots; returns the base index. Intended
  /// for level-0 setup (engine attach), before any level is pushed.
  int AddAuxSlots(int n) {
    const int base = static_cast<int>(aux_.size());
    aux_.resize(aux_.size() + static_cast<size_t>(n), 0);
    aux_saved_at_.resize(aux_.size(), 0);
    return base;
  }
  int num_aux_slots() const { return static_cast<int>(aux_.size()); }
  __int128 aux(int slot) const { return aux_[static_cast<size_t>(slot)]; }
  /// Write an aux slot, trailing the previous value once per level (same
  /// discipline as the domain mutators; level-0 writes are permanent).
  void SetAux(int slot, __int128 v) {
    SaveAux(slot);
    aux_[static_cast<size_t>(slot)] = v;
  }

  // --- Accounting -----------------------------------------------------------

  /// Total save records pushed over the store's lifetime.
  uint64_t total_saves() const { return total_saves_; }
  /// High-water mark of live trail records.
  size_t peak_trail_entries() const { return peak_trail_entries_; }
  /// High-water mark of nested levels.
  size_t peak_depth() const { return peak_depth_; }
  /// High-water mark of trail memory (undo records + saved arena ranges)
  /// plus the in-place domain array — the search-state footprint reported
  /// by SolveStats::peak_memory_bytes.
  size_t PeakMemoryBytes() const;

 private:
  /// One undo record. The saved range vector lives in the shared flat arena
  /// (`range_arena_[range_begin, range_begin+range_len)`), so a save appends
  /// to two flat vectors instead of heap-allocating a domain copy — after
  /// the first deep descent the trail allocates nothing at all.
  struct Saved {
    int32_t var = -1;
    /// saved_at_[var] before this save; restored on backtrack so outer
    /// levels keep their own save-once bookkeeping.
    int32_t prev_saved_level = 0;
    uint32_t range_begin = 0;
    uint32_t range_len = 0;
  };

  /// Undo record for one aux slot; the old value is inlined (fixed size),
  /// so aux saves need no arena.
  struct AuxSaved {
    int32_t slot = -1;
    int32_t prev_saved_level = 0;
    __int128 old_value = 0;
  };

  /// One entry of the flat bounds mirror.
  struct Bounds {
    int64_t lo;
    int64_t hi;
  };

  /// Record `id`'s current domain on the trail unless this level already did.
  void Save(int32_t id);
  /// Record `slot`'s current value on the aux trail unless this level did.
  void SaveAux(int slot) {
    const int32_t cur = static_cast<int32_t>(marks_.size());
    if (cur == 0) return;  // level-0 writes are permanent
    int32_t& at = aux_saved_at_[static_cast<size_t>(slot)];
    if (at == cur) return;
    aux_trail_.push_back({slot, at, aux_[static_cast<size_t>(slot)]});
    at = cur;
    peak_aux_trail_entries_ =
        aux_trail_.size() > peak_aux_trail_entries_ ? aux_trail_.size()
                                                    : peak_aux_trail_entries_;
  }
  /// Classify a change of the (non-empty) domain `id` against its `old`
  /// bounds and deliver it. Emptied domains deliver nothing: the level is
  /// about to be backtracked.
  void NotifyListener(int32_t id, Bounds old) {
    const Bounds b = bounds_[static_cast<size_t>(id)];
    uint8_t ev = 0;
    if (b.lo > old.lo) ev |= kEventMin;
    if (b.hi < old.hi) ev |= kEventMax;
    if (b.lo == b.hi) ev |= kEventFix;
    if (ev == 0) ev = kEventRemove;
    listener_->OnDomainEvent(id, ev, old.lo, old.hi);
  }

  std::vector<IntDomain> doms_;
  std::vector<Bounds> bounds_;     ///< {min, max} of doms_, kept in step.
  std::vector<Saved> trail_;
  std::vector<IntDomain::Range> range_arena_;  ///< Saved ranges, flat.
  std::vector<size_t> marks_;      ///< trail_.size() at each PushLevel.
  std::vector<int32_t> saved_at_;  ///< var -> level of newest save (0 = none).

  DomainListener* listener_ = nullptr;

  std::vector<__int128> aux_;          ///< Trailed propagator aggregates.
  std::vector<AuxSaved> aux_trail_;
  std::vector<size_t> aux_marks_;      ///< aux_trail_.size() per PushLevel.
  std::vector<int32_t> aux_saved_at_;  ///< slot -> level of newest save.

  uint64_t total_saves_ = 0;
  size_t peak_trail_entries_ = 0;
  size_t peak_depth_ = 0;
  size_t peak_arena_ranges_ = 0;   ///< High-water mark of live saved ranges.
  size_t peak_aux_trail_entries_ = 0;
  size_t dom_bytes_ = 0;           ///< Footprint of the domain array at Init.
};

}  // namespace cologne::solver

#endif  // COLOGNE_SOLVER_STORE_H_

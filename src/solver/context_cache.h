// Transposition/context cache for the search core: DAOOPT-style full
// context-based caching (Otten & Dechter) ported onto the trailed store.
//
// A cache entry is a *proof* about a decision context — the set of fixed
// decision variables and their values at a node, regardless of how branching
// and propagation got there. A bounded entry proves "no solution whose
// decisions extend this context has an objective strictly better than
// `bound`"; an unconditional entry proves "no solution extends this context
// at all". SearchContext::Dive records an entry whenever it pops a fully
// explored subtree and consults the cache at every node after propagation:
// a matching entry whose proven region covers the bound now in effect prunes
// the subtree without descending. That is what lets Luby restarts, repeated
// LNS neighborhood trials, and cross-solve re-entries (the bridge persists
// one cache per Instance) skip ground a previous dive already exhausted.
//
// Soundness does not depend on auxiliary-variable domains: propagation only
// removes values that extend to no solution of the current subtree, so any
// solution whose decisions extend the context would also have survived the
// original descent. A false hit therefore requires two distinct contexts to
// collide on the full 64-bit signature (every probe verifies the stored
// key, not just the table index) — the standard transposition-table trade,
// at ~2^-64 per pair. The cache is opt-in (SOLVER_CACHE); with it off every
// search path is bit-identical to the cache-free solver, which keeps the
// determinism-gated goldens byte-stable.
//
// Not thread-safe: one cache serves exactly one search thread.
#ifndef COLOGNE_SOLVER_CONTEXT_CACHE_H_
#define COLOGNE_SOLVER_CONTEXT_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cologne::solver {

/// \brief Bounded, direct-mapped cache of exhausted-subtree proofs keyed by
/// decision-context signature.
class ContextCache {
 public:
  /// Default table size: 64Ki entries ≈ 1.5 MiB once touched (the table is
  /// allocated lazily on first use, so an enabled-but-unused cache is free).
  static constexpr size_t kDefaultCapacity = size_t{1} << 16;

  /// `capacity` is rounded up to a power of two (minimum 64).
  explicit ContextCache(size_t capacity = kDefaultCapacity);

  /// Namespace of every subsequently stored/looked-up signature. The bridge
  /// folds the model fingerprints in here, so a fact delta that changes any
  /// group fingerprint retires every entry of the previous model without an
  /// explicit sweep (their mixed keys can no longer match).
  void set_model_key(uint64_t key) { model_key_ = key; }
  uint64_t model_key() const { return model_key_; }

  /// Drop every entry (keeps the model key and the allocated table).
  void Clear();

  /// True when a stored proof covers the caller's current bound region:
  /// an unconditional entry always does; a bounded entry covers a caller
  /// searching for objective strictly better than `bound` iff its proven
  /// region contains that region (minimize: bound <= entry bound). With
  /// `have_bound` false the caller wants *any* extension, which only an
  /// unconditional entry refutes.
  bool Lookup(uint64_t sig, bool minimize, bool have_bound,
              int64_t bound) const;

  /// Record a proof for `sig`: unconditional when `have_bound` is false.
  /// Re-storing an existing context keeps the stronger proof (unconditional
  /// beats bounded; among bounds, the one excluding more solutions wins).
  void Store(uint64_t sig, bool minimize, bool have_bound, int64_t bound);

  size_t entries() const { return entries_; }
  size_t capacity() const { return capacity_; }
  /// Resident table footprint (0 until the first Store/Lookup touches it).
  size_t MemoryBytes() const;

 private:
  struct Entry {
    uint64_t key = 0;    ///< Full mixed signature, verified on every probe.
    int64_t bound = 0;   ///< Proven "no solution better than" threshold.
    uint8_t flags = 0;   ///< Bit 0: occupied. Bit 1: unconditional.
  };
  static constexpr uint8_t kOccupied = 1;
  static constexpr uint8_t kUnconditional = 2;
  /// Probe window per key: index .. index+3 (wrapping).
  static constexpr size_t kProbes = 4;

  uint64_t MixedKey(uint64_t sig) const;
  void EnsureTable();

  size_t capacity_;
  size_t mask_;
  size_t entries_ = 0;
  uint64_t model_key_ = 0;
  /// Lazily allocated to `capacity_` on first use; mutable so a miss on a
  /// never-touched cache does not force the allocation either.
  mutable std::vector<Entry> table_;
};

}  // namespace cologne::solver

#endif  // COLOGNE_SOLVER_CONTEXT_CACHE_H_

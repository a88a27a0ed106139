#include "solver/store.h"

#include <algorithm>

namespace cologne::solver {

void DomainStore::Init(std::vector<IntDomain> doms) {
  doms_ = std::move(doms);
  trail_.clear();
  range_arena_.clear();
  marks_.clear();
  saved_at_.assign(doms_.size(), 0);
  listener_ = nullptr;
  aux_.clear();
  aux_trail_.clear();
  aux_marks_.clear();
  aux_saved_at_.clear();
  dom_bytes_ = 0;
  bounds_.clear();
  bounds_.reserve(doms_.size());
  for (const IntDomain& d : doms_) {
    dom_bytes_ += sizeof(IntDomain) + d.ranges().size() * sizeof(IntDomain::Range);
    // An initially empty domain has no bounds to mirror; {0, 0} is inert.
    bounds_.push_back(d.empty() ? Bounds{0, 0} : Bounds{d.min(), d.max()});
  }
}

void DomainStore::PushLevel() {
  marks_.push_back(trail_.size());
  aux_marks_.push_back(aux_trail_.size());
  peak_depth_ = std::max(peak_depth_, marks_.size());
}

void DomainStore::Backtrack() {
  const size_t mark = marks_.back();
  marks_.pop_back();
  // Restore in reverse trail order: a variable saved by this level *and* an
  // outer one gets the outer (older) ranges last, which is the correct
  // pre-level state. The arena truncates with the records it backs. Saves
  // are only ever taken of non-empty domains (every mutator checks first),
  // so the restored bounds are the saved first/last range ends.
  for (size_t i = trail_.size(); i > mark; --i) {
    const Saved& s = trail_[i - 1];
    saved_at_[static_cast<size_t>(s.var)] = s.prev_saved_level;
    const IntDomain::Range* saved = range_arena_.data() + s.range_begin;
    doms_[static_cast<size_t>(s.var)].RestoreRanges(saved, s.range_len);
    bounds_[static_cast<size_t>(s.var)] = {saved[0].lo,
                                           saved[s.range_len - 1].hi};
  }
  if (mark < trail_.size()) {
    range_arena_.resize(trail_[mark].range_begin);
    trail_.resize(mark);
  }
  const size_t aux_mark = aux_marks_.back();
  aux_marks_.pop_back();
  for (size_t i = aux_trail_.size(); i > aux_mark; --i) {
    const AuxSaved& s = aux_trail_[i - 1];
    aux_saved_at_[static_cast<size_t>(s.slot)] = s.prev_saved_level;
    aux_[static_cast<size_t>(s.slot)] = s.old_value;
  }
  aux_trail_.resize(aux_mark);
}

void DomainStore::BacktrackTo(int level) {
  while (this->level() > level) Backtrack();
}

void DomainStore::Save(int32_t id) {
  const int32_t cur = static_cast<int32_t>(marks_.size());
  if (cur == 0) return;  // level-0 mutations are permanent
  int32_t& at = saved_at_[static_cast<size_t>(id)];
  if (at == cur) return;  // this level already holds a save for `id`
  const std::vector<IntDomain::Range>& ranges =
      doms_[static_cast<size_t>(id)].ranges();
  trail_.push_back({id, at, static_cast<uint32_t>(range_arena_.size()),
                    static_cast<uint32_t>(ranges.size())});
  range_arena_.insert(range_arena_.end(), ranges.begin(), ranges.end());
  at = cur;
  ++total_saves_;
  peak_trail_entries_ = std::max(peak_trail_entries_, trail_.size());
  peak_arena_ranges_ = std::max(peak_arena_ranges_, range_arena_.size());
}

size_t DomainStore::PeakMemoryBytes() const {
  return dom_bytes_ + bounds_.size() * sizeof(Bounds) +
         peak_trail_entries_ * sizeof(Saved) +
         peak_arena_ranges_ * sizeof(IntDomain::Range) +
         peak_aux_trail_entries_ * sizeof(AuxSaved) +
         aux_.size() * sizeof(__int128);
}

}  // namespace cologne::solver

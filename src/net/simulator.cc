#include "net/simulator.h"

#include <algorithm>

namespace cologne::net {
namespace {

// Heap order: the earliest (time, seq) on top.
struct Later {
  template <typename E>
  bool operator()(const E& a, const E& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

}  // namespace

uint32_t Simulator::Acquire() {
  if (!free_.empty()) {
    uint32_t slot = free_.back();
    free_.pop_back();
    return slot;
  }
  slots_.emplace_back();
  return static_cast<uint32_t>(slots_.size() - 1);
}

EventId Simulator::Push(double time_s, uint32_t slot) {
  const uint32_t gen = slots_[slot].gen;
  heap_.push_back(Entry{std::max(time_s, now_), next_seq_++, slot, gen});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++pending_;
  return (static_cast<EventId>(gen) << 32) | slot;
}

EventId Simulator::ScheduleAt(double time_s, Callback cb) {
  const uint32_t slot = Acquire();
  slots_[slot].cb = std::move(cb);
  return Push(time_s, slot);
}

EventId Simulator::ScheduleArrival(double delay_s, PacketSink* sink,
                                   Packet packet) {
  const uint32_t slot = Acquire();
  slots_[slot].sink = sink;
  slots_[slot].packet = std::move(packet);
  return Push(now_ + delay_s, slot);
}

void Simulator::Release(uint32_t slot) {
  ++slots_[slot].gen;
  free_.push_back(slot);
  --pending_;
}

void Simulator::Cancel(EventId id) {
  const auto slot = static_cast<uint32_t>(id);
  if (slot >= slots_.size() || slots_[slot].gen != id >> 32) return;
  Slot& s = slots_[slot];
  s.cb = nullptr;
  s.sink = nullptr;
  s.packet = Packet{};
  Release(slot);  // its heap entry is now a tombstone
}

void Simulator::PopTop() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
}

bool Simulator::Step() {
  while (!heap_.empty()) {
    const Entry top = heap_.front();
    PopTop();
    if (Stale(top)) continue;  // cancelled
    // Move the event out before running it: it may schedule events that
    // reuse its slot or grow the pool.
    Slot& s = slots_[top.slot];
    now_ = top.time;
    ++executed_;
    if (PacketSink* sink = s.sink) {
      Packet packet = std::move(s.packet);
      s.sink = nullptr;
      Release(top.slot);
      sink->OnPacket(packet);
    } else {
      Callback cb = std::move(s.cb);
      s.cb = nullptr;
      Release(top.slot);
      cb();
    }
    return true;
  }
  return false;
}

void Simulator::Run() {
  while (Step()) {
  }
}

void Simulator::RunUntil(double t) {
  while (!heap_.empty()) {
    if (Stale(heap_.front())) {
      PopTop();
      continue;
    }
    if (heap_.front().time > t) break;
    Step();
  }
  now_ = std::max(now_, t);
}

}  // namespace cologne::net

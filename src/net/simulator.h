// Discrete-event simulator: the clocking/transport substrate that ns-3
// provided for the original Cologne prototype.
//
// Events live in a pool of reusable slots; a binary heap of (time, seq,
// slot) entries orders them. Cancelling an event releases its slot at once
// and leaves its heap entry behind as a tombstone, recognised by a stale
// slot generation and skipped when it surfaces. Packet arrivals, the bulk of
// all events, carry their packet inline in the slot instead of in a boxed
// callback.
#ifndef COLOGNE_NET_SIMULATOR_H_
#define COLOGNE_NET_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "net/message.h"

namespace cologne::net {

/// Handle to a scheduled event (usable for cancellation): the event's pool
/// slot in the low 32 bits, the slot's generation in the high 32. A slot's
/// generation changes whenever its event fires or is cancelled, so a stale
/// handle never reaches the event that reuses the slot. Never 0.
using EventId = uint64_t;

/// Receiver of packet-arrival events (net::Network).
class PacketSink {
 public:
  virtual void OnPacket(Packet& packet) = 0;

 protected:
  ~PacketSink() = default;
};

/// \brief Deterministic discrete-event scheduler.
///
/// Events with equal timestamps fire in scheduling order (a strictly
/// increasing sequence number breaks ties), so simulations are reproducible.
class Simulator {
 public:
  using Callback = std::function<void()>;

  /// Current virtual time in seconds.
  double Now() const { return now_; }

  /// Schedule `cb` to run `delay_s` seconds from now (>= 0).
  EventId Schedule(double delay_s, Callback cb) {
    return ScheduleAt(now_ + delay_s, std::move(cb));
  }

  /// Schedule `cb` at absolute virtual time `time_s` (clamped to >= Now()).
  EventId ScheduleAt(double time_s, Callback cb);

  /// Schedule the arrival of `packet` at `sink`, `delay_s` seconds from now.
  /// Orders exactly like Schedule().
  EventId ScheduleArrival(double delay_s, PacketSink* sink, Packet packet);

  /// Cancel a pending event; no-op if it already fired or was cancelled.
  void Cancel(EventId id);

  /// Run until no events remain.
  void Run();

  /// Run all events with time <= t, then set the clock to t.
  void RunUntil(double t);

  /// Execute at most one pending event; returns false when queue is empty.
  bool Step();

  /// Number of pending (uncancelled) events.
  size_t pending() const { return pending_; }

  /// Total events executed so far.
  uint64_t executed() const { return executed_; }

 private:
  struct Slot {
    Callback cb;                 ///< Empty for a packet arrival.
    PacketSink* sink = nullptr;  ///< Set for a packet arrival.
    Packet packet;
    uint32_t gen = 1;  ///< Bumped when the event fires or is cancelled.
  };
  struct Entry {
    double time;
    uint64_t seq;
    uint32_t slot;
    uint32_t gen;  ///< The slot's generation when scheduled.
  };

  /// A free slot, reused or appended.
  uint32_t Acquire();
  EventId Push(double time_s, uint32_t slot);
  /// Mark `slot`'s event done (fired or cancelled) and return it to the pool.
  void Release(uint32_t slot);
  bool Stale(const Entry& e) const { return slots_[e.slot].gen != e.gen; }
  void PopTop();

  double now_ = 0;
  uint64_t next_seq_ = 0;
  size_t pending_ = 0;
  uint64_t executed_ = 0;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_;
  std::vector<Entry> heap_;  ///< Min-heap on (time, seq), tombstones included.
};

}  // namespace cologne::net

#endif  // COLOGNE_NET_SIMULATOR_H_

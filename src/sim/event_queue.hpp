// Discrete-event simulation core.
//
// The paper's Section 5 experiments run K page rankers fully asynchronously:
// each node sleeps an exponentially distributed time between loop steps and
// messages can be lost. We reproduce that with a classic event queue —
// virtual time, earliest-event-first, deterministic FIFO tie-breaking so a
// given seed always replays the identical schedule.
//
// An event is a small trivially-copyable record chosen by the queue's owner
// (a tagged struct naming what happens and to whom), stored by value in a
// binary heap over one std::vector. The owner passes its dispatcher to
// step()/run_until()/run(), which call it with each event in order, so
// scheduling and firing an event allocates nothing once the heap has grown
// to its working size.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <type_traits>
#include <vector>

namespace p2prank::sim {

using SimTime = double;

template <typename Payload>
class EventQueue {
  static_assert(std::is_trivially_copyable_v<Payload>,
                "EventQueue payloads are copied in and out of the heap by value");

 public:
  /// Current virtual time (the timestamp of the last executed event).
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  [[nodiscard]] std::size_t pending() const noexcept { return heap_.size(); }
  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }

  /// Schedule at an absolute virtual time (must be >= now(); NaN is
  /// rejected too).
  void schedule_at(SimTime at, const Payload& payload) {
    if (!(at >= now_)) throw std::invalid_argument("EventQueue: scheduling in the past");
    heap_.push_back(Entry{at, next_seq_++, payload});
    std::push_heap(heap_.begin(), heap_.end(), later);
  }

  /// Schedule `delay` time units from now (delay >= 0).
  void schedule_in(SimTime delay, const Payload& payload) {
    if (!(delay >= 0.0)) throw std::invalid_argument("EventQueue: negative delay");
    schedule_at(now_ + delay, payload);
  }

  /// Execute the earliest event: advance now() to its time and call
  /// fire(payload). Returns false when the queue is empty.
  template <typename Fire>
  bool step(Fire&& fire) {
    if (heap_.empty()) return false;
    std::pop_heap(heap_.begin(), heap_.end(), later);
    // Copy out before firing: the dispatcher may schedule, which can grow
    // (and so move) the heap.
    const Entry ev = heap_.back();
    heap_.pop_back();
    now_ = ev.at;
    fire(ev.payload);
    return true;
  }

  /// Execute every event with timestamp <= t_end (including events those
  /// events schedule, as long as they fall within t_end). Advances now() to
  /// t_end even if the queue drains early. Returns events executed.
  template <typename Fire>
  std::size_t run_until(SimTime t_end, Fire&& fire) {
    std::size_t executed = 0;
    while (!heap_.empty() && heap_.front().at <= t_end) {
      step(fire);
      ++executed;
    }
    if (now_ < t_end) now_ = t_end;
    return executed;
  }

  /// Execute until empty or `max_events` executed. Returns events executed.
  template <typename Fire>
  std::size_t run(Fire&& fire, std::size_t max_events = SIZE_MAX) {
    std::size_t executed = 0;
    while (executed < max_events && step(fire)) ++executed;
    return executed;
  }

 private:
  struct Entry {
    SimTime at;
    std::uint64_t seq;  // FIFO among equal timestamps
    Payload payload;
  };
  // (time, seq) is a strict total order — seq is unique — so the pop order
  // is fully determined by it, whatever the heap's internal layout.
  static bool later(const Entry& a, const Entry& b) noexcept {
    if (a.at != b.at) return a.at > b.at;
    return a.seq > b.seq;
  }

  std::vector<Entry> heap_;
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace p2prank::sim

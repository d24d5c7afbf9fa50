// aiesim -- the event queue of the cycle-approximate engine.
//
// The engine orders kernel activations by (virtual time, sequence number):
// among simultaneous events the queue is FIFO in push order, which makes
// simulation runs deterministic and independent of container internals.
// That contract is locked in by tests/aiesim/test_event_queue.cpp.
//
// PriorityEventQueue is a binary heap over (time, seq), shared by the
// engine and the test oracle (tests/aiesim/oracle/). docs/PERF.md ("The
// aiesim fast path") has the event-detail measurement behind the choice
// of a plain heap.
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "core/task.hpp"

namespace aiesim {

/// One scheduled kernel activation.
struct Event {
  std::uint64_t time = 0;
  std::uint64_t seq = 0;  ///< FIFO among simultaneous events
  cgsim::TaskHandle h;
};

/// Binary heap ordered by (time, seq).
class PriorityEventQueue {
 public:
  void push(const Event& e) { q_.push(e); }

  /// Pops the earliest event (ties broken by lowest seq) into `out`;
  /// returns false when empty.
  bool pop(Event& out) {
    if (q_.empty()) return false;
    out = q_.top();
    q_.pop();
    return true;
  }

  [[nodiscard]] bool empty() const { return q_.empty(); }
  [[nodiscard]] std::size_t size() const { return q_.size(); }

 private:
  struct After {
    [[nodiscard]] bool operator()(const Event& a, const Event& b) const {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };
  std::priority_queue<Event, std::vector<Event>, After> q_;
};

}  // namespace aiesim

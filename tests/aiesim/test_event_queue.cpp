// Event-queue ordering contract of the cycle-approximate engine: events
// with equal timestamps must pop in seq (push) order, and every pop returns
// the least (time, seq) pending. This file pins the contract on
// aiesim::PriorityEventQueue, which the engine and the test oracle share,
// and fuzzes it against a std::set of the pending events.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "aiesim/event_queue.hpp"

namespace {

using aiesim::Event;
using aiesim::PriorityEventQueue;

// Coroutine handles are only compared by address in these tests; the queue
// never resumes them or reaches their promises, so tagging events with
// small fake frames is safe.
cgsim::TaskHandle handle_tag(std::uintptr_t i) {
  return cgsim::TaskHandle::from_address(
      reinterpret_cast<void*>((i + 1) << 4));
}

TEST(PriorityEventQueue, PopsAscendingTime) {
  PriorityEventQueue q;
  q.push(Event{30, 0, handle_tag(0)});
  q.push(Event{10, 1, handle_tag(1)});
  q.push(Event{20, 2, handle_tag(2)});
  Event e;
  ASSERT_TRUE(q.pop(e));
  EXPECT_EQ(e.time, 10u);
  ASSERT_TRUE(q.pop(e));
  EXPECT_EQ(e.time, 20u);
  ASSERT_TRUE(q.pop(e));
  EXPECT_EQ(e.time, 30u);
  EXPECT_FALSE(q.pop(e));
  EXPECT_TRUE(q.empty());
}

// The locked-in contract: simultaneous events resume in seq order. The
// engine relies on this for run-to-run determinism (start_all pushes every
// task at t=0, so the very first activations are a same-cycle burst).
TEST(PriorityEventQueue, SameCycleEventsPopInSeqOrder) {
  PriorityEventQueue q;
  // Push same-cycle events out of "nice" order relative to other times.
  q.push(Event{100, 0, handle_tag(0)});
  q.push(Event{50, 1, handle_tag(1)});
  q.push(Event{100, 2, handle_tag(2)});
  q.push(Event{100, 3, handle_tag(3)});
  q.push(Event{50, 4, handle_tag(4)});
  Event e;
  std::vector<std::uint64_t> seqs;
  while (q.pop(e)) seqs.push_back(e.seq);
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{1, 4, 0, 2, 3}));
}

TEST(PriorityEventQueue, InterleavedPushPopKeepsSeqOrderWithinCycle) {
  PriorityEventQueue q;
  std::uint64_t seq = 0;
  q.push(Event{5, seq++, handle_tag(0)});
  q.push(Event{5, seq++, handle_tag(1)});
  Event e;
  ASSERT_TRUE(q.pop(e));
  EXPECT_EQ(e.seq, 0u);
  // New same-cycle push while the cycle is draining: must pop after the
  // older seq 1 event.
  q.push(Event{5, seq++, handle_tag(2)});
  ASSERT_TRUE(q.pop(e));
  EXPECT_EQ(e.seq, 1u);
  ASSERT_TRUE(q.pop(e));
  EXPECT_EQ(e.seq, 2u);
}

// Every pop must return the least (time, seq) among the events pending at
// that moment. The randomized push/pop schedule mimics the engine:
// same-cycle bursts, short to very long gaps (2^30 cycles and more ahead),
// replays of earlier push times (exact ties with pending events), and
// past wakes (a consumer woken with the virtual-time stamp of an item
// produced before the current event).
TEST(PriorityEventQueue, FuzzGlobalTimeSeqOrder) {
  std::mt19937_64 rng{0xA1E51u};
  for (int round = 0; round < 40; ++round) {
    PriorityEventQueue q;
    std::set<std::pair<std::uint64_t, std::uint64_t>> pending;  // time, seq
    std::vector<std::uint64_t> seen;  // earlier push times, for replays
    std::uint64_t seq = 0;
    std::uint64_t now = 0;
    const auto pop_least = [&] {
      Event e;
      ASSERT_TRUE(q.pop(e));
      ASSERT_FALSE(pending.empty());
      ASSERT_EQ(e.time, pending.begin()->first);
      ASSERT_EQ(e.seq, pending.begin()->second);
      pending.erase(pending.begin());
      now = std::max(now, e.time);
    };
    for (int i = 0; i < 600; ++i) {
      if (q.empty() || (rng() % 3) != 0) {
        std::uint64_t t = now;
        switch (rng() % 7) {
          case 0: t = now + (rng() % 4); break;              // near / tie
          case 1: t = now + (rng() % 64); break;
          case 2: t = now + (rng() % 5000); break;
          case 3: t = now + (rng() % 3000000); break;
          case 4:
            t = now > 500 ? now - (rng() % 500) : 0;         // past wake
            break;
          case 5:
            t = now + (1ull << 30) + (rng() % 1000);         // far ahead
            break;
          case 6:
            // Replay an earlier push time verbatim: exact same-cycle
            // collisions with pending events.
            if (!seen.empty()) t = seen[rng() % seen.size()];
            break;
        }
        seen.push_back(t);
        pending.emplace(t, seq);
        q.push(Event{t, seq, handle_tag(seq)});
        ++seq;
      } else {
        pop_least();
      }
      ASSERT_EQ(q.size(), pending.size());
    }
    // A failed check in pop_least() leaves `pending` one longer than the
    // queue, which stops the test here.
    while (!q.empty()) {
      pop_least();
      ASSERT_EQ(q.size(), pending.size());
    }
    EXPECT_TRUE(pending.empty());
  }
}

}  // namespace

// Event-queue ordering contract (satellite of the aiesim fast path):
// events with equal timestamps must pop in seq (push) order, and the
// global pop order is exactly ascending (time, seq). This file pins the
// contract on the test oracle's binary heap (oracle::PriorityEventQueue),
// then on the engine's timing wheel, and fuzz-compares the two structures
// event-for-event.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "aiesim/event_queue.hpp"
#include "oracle/reference_engine.hpp"

namespace {

using aiesim::Event;
using aiesim::oracle::PriorityEventQueue;
using aiesim::TimingWheelQueue;

// Coroutine handles are only compared by address in these tests; the queue
// never resumes them, so tagging events with small fake frames is safe.
std::coroutine_handle<> handle_tag(std::uintptr_t i) {
  return std::coroutine_handle<>::from_address(
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

// Exhaustive ordering invariant under a randomized push/pop schedule that
// mimics the engine: mostly-forward times with occasional "past" wakes
// (a consumer woken with the virtual-time stamp of an item produced before
// the current event), heavy same-cycle collision rate.
TEST(PriorityEventQueue, FuzzGlobalTimeSeqOrder) {
  std::mt19937_64 rng{0xA1E51u};
  for (int round = 0; round < 40; ++round) {
    PriorityEventQueue q;
    std::uint64_t seq = 0;
    std::uint64_t now = 0;
    std::vector<Event> popped;
    const int ops = 400;
    for (int i = 0; i < ops; ++i) {
      const bool do_push = q.empty() || (rng() % 3) != 0;
      if (do_push) {
        // Cluster times to force same-cycle ties; sometimes push into the
        // past of the last popped event, sometimes far ahead.
        std::uint64_t t = now;
        switch (rng() % 5) {
          case 0: t = now + (rng() % 4); break;             // near / tie
          case 1: t = now + (rng() % 64); break;            // level-0 span
          case 2: t = now + (rng() % 5000); break;          // mid levels
          case 3: t = now + (rng() % 3000000); break;       // high levels
          case 4: t = now > 500 ? now - (rng() % 500) : 0;  // past wake
        }
        q.push(Event{t, seq++, handle_tag(seq)});
      } else {
        Event e;
        ASSERT_TRUE(q.pop(e));
        now = std::max(now, e.time);
        popped.push_back(e);
      }
    }
    Event e;
    while (q.pop(e)) popped.push_back(e);
    ASSERT_EQ(popped.size(), seq);
    for (std::size_t i = 1; i < popped.size(); ++i) {
      const Event& a = popped[i - 1];
      const Event& b = popped[i];
      // Order restriction applies to events *simultaneously pending*: a
      // past-dated push after a later pop legitimately pops "late". What
      // must always hold is the tie rule: equal times pop in seq order
      // whenever they were pending together, which the schedule above
      // guarantees by construction for adjacent pops.
      if (a.time == b.time) {
        EXPECT_LT(a.seq, b.seq);
      }
    }
  }
}

// --- TimingWheelQueue: the engine's replacement structure --------------

TEST(TimingWheelQueue, PopsAscendingTime) {
  TimingWheelQueue q;
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

TEST(TimingWheelQueue, SameCycleEventsPopInSeqOrder) {
  TimingWheelQueue q;
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

TEST(TimingWheelQueue, SpansAllLevelsAndOverflow) {
  // One event per wheel level plus one beyond the 2^30-cycle horizon, plus
  // a past-dated wake after the floor has advanced.
  TimingWheelQueue q;
  std::uint64_t seq = 0;
  const std::uint64_t times[] = {3,        70,        5000,
                                 300000,   20000000,  (1ull << 30) + 12345};
  for (std::uint64_t t : times) q.push(Event{t, seq++, handle_tag(seq)});
  Event e;
  ASSERT_TRUE(q.pop(e));
  EXPECT_EQ(e.time, 3u);
  // Wake dated before the current floor (already popped past it).
  ASSERT_TRUE(q.pop(e));
  EXPECT_EQ(e.time, 70u);
  q.push(Event{50, seq++, handle_tag(seq)});
  ASSERT_TRUE(q.pop(e));
  EXPECT_EQ(e.time, 50u);  // past event drains before the wheel
  std::vector<std::uint64_t> rest;
  while (q.pop(e)) rest.push_back(e.time);
  EXPECT_EQ(rest, (std::vector<std::uint64_t>{5000, 300000, 20000000,
                                              (1ull << 30) + 12345}));
}

// Regression: an overflow entry whose time falls inside the *current*
// level-0 window. Walk the floor to just below an overflow event's time
// (advance() never re-files because every intermediate stop bids below
// over_min_), then push a same-time event, which lands directly in a
// level-0 slot. The level-0 fast path used to pop that newer push without
// consulting the overflow array -- breaking (time, seq) FIFO against the
// older overflow entry -- and the floor could then overrun over_min_,
// underflowing the level-index computation on the eventual re-file.
TEST(TimingWheelQueue, OverflowTiesWithSameCycleWheelSlot) {
  const std::uint64_t kSpan = 1ull << 30;
  const std::uint64_t T = kSpan + 100;  // T % 64 == 36: mid-window
  TimingWheelQueue q;
  q.push(Event{T, 0, handle_tag(0)});      // beyond horizon -> overflow
  q.push(Event{200, 1, handle_tag(1)});
  Event e;
  ASSERT_TRUE(q.pop(e));                   // floor -> 200
  EXPECT_EQ(e.time, 200u);
  q.push(Event{T - 2, 2, handle_tag(2)});  // now within span -> wheel
  ASSERT_TRUE(q.pop(e));                   // floor -> T - 2
  EXPECT_EQ(e.time, T - 2);
  EXPECT_EQ(e.seq, 2u);
  // Same-cycle tie against the overflow entry, filed straight to level 0.
  q.push(Event{T, 3, handle_tag(3)});
  q.push(Event{T + 1, 4, handle_tag(4)});
  ASSERT_TRUE(q.pop(e));
  EXPECT_EQ(e.time, T);
  EXPECT_EQ(e.seq, 0u);  // the overflow entry is the older push
  ASSERT_TRUE(q.pop(e));
  EXPECT_EQ(e.time, T);
  EXPECT_EQ(e.seq, 3u);
  ASSERT_TRUE(q.pop(e));
  EXPECT_EQ(e.time, T + 1);
  EXPECT_EQ(e.seq, 4u);
  EXPECT_FALSE(q.pop(e));
  EXPECT_TRUE(q.empty());
}

// Regression: an overflow entry older than a same-time event filed
// *directly* into a high wheel level (pushed once the floor had advanced
// to within the span). The overflow re-file can land the older entry at a
// lower level while the direct entry is still cascading down from above;
// file_front's seq-aware insert must merge them in push order, not let
// the cascade jump its (newer) events in front.
TEST(TimingWheelQueue, OverflowOlderThanDirectWheelEntrySameCycle) {
  const std::uint64_t kSpan = 1ull << 30;
  const std::uint64_t T = kSpan + 100;
  TimingWheelQueue q;
  q.push(Event{T, 0, handle_tag(0)});    // d >= span -> overflow
  q.push(Event{200, 1, handle_tag(1)});
  Event e;
  ASSERT_TRUE(q.pop(e));                 // floor -> 200; T now within span
  EXPECT_EQ(e.time, 200u);
  q.push(Event{T, 2, handle_tag(2)});    // same time, direct to level 4
  q.push(Event{T, 3, handle_tag(3)});
  ASSERT_TRUE(q.pop(e));
  EXPECT_EQ(e.time, T);
  EXPECT_EQ(e.seq, 0u);  // the overflow entry is the oldest push
  ASSERT_TRUE(q.pop(e));
  EXPECT_EQ(e.seq, 2u);
  ASSERT_TRUE(q.pop(e));
  EXPECT_EQ(e.seq, 3u);
  EXPECT_FALSE(q.pop(e));
}

// The wheel must reproduce the reference heap's pop sequence *exactly*
// (same time and same seq at every step) under a randomized schedule
// shaped like the engine's: same-cycle bursts, level-0..high-level gaps,
// past wakes, and occasional beyond-horizon pushes.
TEST(TimingWheelQueue, FuzzMatchesPriorityQueuePopForPop) {
  std::mt19937_64 rng{0xB0C4E7u};
  for (int round = 0; round < 40; ++round) {
    PriorityEventQueue ref;
    TimingWheelQueue wheel;
    std::uint64_t seq = 0;
    std::uint64_t now = 0;
    std::vector<std::uint64_t> seen;  // replay pool: forces exact ties
    const int ops = 600;
    for (int i = 0; i < ops; ++i) {
      const bool do_push = ref.empty() || (rng() % 3) != 0;
      if (do_push) {
        std::uint64_t t = now;
        switch (rng() % 7) {
          case 0: t = now + (rng() % 4); break;              // near / tie
          case 1: t = now + (rng() % 64); break;             // level 0
          case 2: t = now + (rng() % 5000); break;           // mid levels
          case 3: t = now + (rng() % 3000000); break;        // high levels
          case 4:
            t = now > 500 ? now - (rng() % 500) : 0;         // past wake
            break;
          case 5:
            t = now + (1ull << 30) + (rng() % 1000);         // overflow
            break;
          case 6:
            // Replay an earlier push time verbatim: exact same-cycle
            // collisions with pending past / wheel / overflow entries.
            if (!seen.empty()) t = seen[rng() % seen.size()];
            break;
        }
        seen.push_back(t);
        const Event e{t, seq++, handle_tag(seq)};
        ref.push(e);
        wheel.push(e);
      } else {
        Event a;
        Event b;
        ASSERT_TRUE(ref.pop(a));
        ASSERT_TRUE(wheel.pop(b));
        ASSERT_EQ(a.time, b.time);
        ASSERT_EQ(a.seq, b.seq);
        now = std::max(now, a.time);
      }
      ASSERT_EQ(ref.size(), wheel.size());
    }
    Event a;
    Event b;
    while (ref.pop(a)) {
      ASSERT_TRUE(wheel.pop(b));
      ASSERT_EQ(a.time, b.time);
      ASSERT_EQ(a.seq, b.seq);
    }
    EXPECT_FALSE(wheel.pop(b));
    EXPECT_TRUE(wheel.empty());
  }
}

}  // namespace

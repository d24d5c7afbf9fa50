// Micro-model equivalence: the word-stepped/jump-ahead fast tile model
// must match the retained per-cycle reference loop bit for bit -- full
// state snapshots (LFSR, pipeline, scoreboard, FIFOs, banks) and the run
// checksum -- across arbitrary stall/busy segment interleavings. Also pins
// the stream-FIFO model to its spec: 2 in + 2 out FIFOs means exactly 4
// occupancy counters (the original engine walked a 64-entry array).
#include <gtest/gtest.h>

#include <cstdint>
#include <random>

#include "aiesim/micro_model.hpp"

namespace {

using aiesim::lfsr_step;
using aiesim::MicroSnapshot;
using aiesim::TileMicroFast;
using aiesim::TileMicroRef;

// The satellite fix: the spec models 2 input + 2 output stream FIFOs
// (16-deep each), i.e. 4 occupancy counters -- not 64.
TEST(MicroModel, StreamFifoCountMatchesSpec) {
  static_assert(aiesim::kStreamFifos == 4);
  static_assert(sizeof(MicroSnapshot{}.fifo) == 4 * sizeof(std::uint64_t));
  // Each step adds (lfsr >> 5) & 3 to each of the 4 FIFOs; per-cycle
  // checksum contribution is therefore at most 4 * 15.
  TileMicroRef m;
  m.step_busy(1);
  const MicroSnapshot s = m.snapshot();
  std::uint64_t fifo_part = 0;
  for (const std::uint64_t f : s.fifo) fifo_part += f;
  EXPECT_LE(fifo_part, 4u * 15u);
}

TEST(MicroModel, LfsrJumpMatchesScalarLoop) {
  std::uint64_t x = aiesim::kLfsrSeed;
  // Jumps of up to 60 steps take the window expression, longer ones the
  // GF(2) tables; exercise both sides of that boundary and long gaps.
  const std::uint64_t jumps[] = {0,   1,   7,    59,   60,     61,     63,
                                 511, 512, 513, 1000, 4096, 123457, 1 << 20};
  for (const std::uint64_t n : jumps) {
    std::uint64_t loop = x;
    for (std::uint64_t i = 0; i < n; ++i) loop = lfsr_step(loop);
    EXPECT_EQ(aiesim::detail::lfsr_jump(x, n), loop) << "n=" << n;
    x = loop;  // chain: varied starting states
  }
}

// The window identity behind word stepping: bits 0..59 of a state are its
// next 60 feedback bits, so k <= 60 steps are one shift/XOR expression.
TEST(MicroModel, LfsrWindowJumpMatchesScalarSteps) {
  std::mt19937_64 rng{0x60u};
  for (int s = 0; s < 1001; ++s) {
    const std::uint64_t x = s == 0 ? aiesim::kLfsrSeed : rng();
    std::uint64_t loop = x;
    for (unsigned k = 1; k <= aiesim::detail::kLfsrWindow; ++k) {
      loop = lfsr_step(loop);
      ASSERT_EQ(aiesim::detail::lfsr_window_jump(x, k), loop)
          << "state " << s << " k=" << k;
    }
  }
}

TEST(MicroModel, FastMatchesReferenceOnBusySegments) {
  TileMicroRef ref;
  TileMicroFast fast;
  // Every length up to 300, each segment starting from the previous one's
  // busy history: covers the pipe warm-up (7/8) and every tail length
  // behind the 32-cycle word blocks.
  for (std::uint64_t n = 1; n <= 300; ++n) {
    ref.step_busy(n);
    fast.step_busy(n);
    ASSERT_EQ(fast.snapshot(), ref.snapshot()) << "after busy n=" << n;
  }
  // The block edges from a fresh model: a block runs only with 8 cycles
  // left after it, so one block engages at 40 and two at 72.
  const std::uint64_t edges[] = {31, 32, 33, 39, 40, 41, 63,   64,
                                 65, 71, 72, 73, 1000, 4096, 4135};
  for (const std::uint64_t n : edges) {
    TileMicroRef r;
    TileMicroFast f;
    r.step_busy(n);
    f.step_busy(n);
    ASSERT_EQ(f.snapshot(), r.snapshot()) << "fresh busy n=" << n;
    r.step_busy(n);
    f.step_busy(n);
    ASSERT_EQ(f.snapshot(), r.snapshot()) << "second busy n=" << n;
  }
}

TEST(MicroModel, FastMatchesReferenceOnStallBusyInterleavings) {
  std::mt19937_64 rng{0x51ABu};
  for (int round = 0; round < 20; ++round) {
    TileMicroRef ref;
    TileMicroFast fast;
    const auto step = [&](bool stall, std::uint64_t n) {
      if (stall) {
        ref.step_stall(n);
        fast.step_stall(n);
      } else {
        ref.step_busy(n);
        fast.step_busy(n);
      }
    };
    for (int seg = 0; seg < 60; ++seg) {
      const bool stall = (rng() % 2) != 0;
      std::uint64_t n = 0;
      switch (rng() % 4) {
        case 0: n = rng() % 8; break;
        case 1: n = rng() % 130; break;
        case 2: n = rng() % 2048; break;
        case 3: n = rng() % 100000; break;  // exercises jump-ahead tables
      }
      // Bound busy spans: the reference loop is the slow part.
      if (!stall) n %= 3000;
      step(stall, n);
      ASSERT_EQ(fast.snapshot(), ref.snapshot())
          << "round " << round << " seg " << seg
          << (stall ? " stall " : " busy ") << n;
    }
    // The engine's own mix on the paper apps: short stalls between short
    // activations, then long busy spans in the word-block loop.
    for (int seg = 0; seg < 80; ++seg) {
      const bool stall = seg % 2 == 0;
      const std::uint64_t n = stall ? 32 + rng() % 32 : 64 + rng() % 64;
      step(stall, n);
      ASSERT_EQ(fast.snapshot(), ref.snapshot())
          << "round " << round << " mix " << seg
          << (stall ? " stall " : " busy ") << n;
    }
    for (int seg = 0; seg < 2; ++seg) {
      const std::uint64_t n = 2048 + rng() % (130000 - 2048);
      step(false, n);
      ASSERT_EQ(fast.snapshot(), ref.snapshot())
          << "round " << round << " long busy " << n;
    }
    ASSERT_EQ(fast.checksum(), ref.checksum());
  }
}

// The uniformity invariants the fast path's algebra relies on: from the
// zero start state, all scoreboard entries stay equal, all FIFO
// occupancies stay equal and all bank counters stay equal, forever.
TEST(MicroModel, ReferenceStateStaysUniform) {
  TileMicroRef ref;
  ref.step_stall(97);
  ref.step_busy(1023);
  ref.step_stall(5);
  ref.step_busy(64);
  const MicroSnapshot s = ref.snapshot();
  for (const std::uint64_t r : s.scoreboard) EXPECT_EQ(r, s.scoreboard[0]);
  for (const std::uint64_t f : s.fifo) EXPECT_EQ(f, s.fifo[0]);
  for (const std::uint64_t b : s.banks) EXPECT_EQ(b, s.banks[0]);
}

}  // namespace

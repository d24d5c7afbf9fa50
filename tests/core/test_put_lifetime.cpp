// The lifetime rule of a scalar put: `co_await port.put(v)` refers to `v`
// instead of copying it, so the element must outlive the suspension of a
// put that parks on a full ring. Here `v` is a function's temporary result,
// which lives to the end of the co_await full-expression in the coroutine
// frame; the consumer copies it out of the parked producer's frame. Run on
// every executor: coop, coop_mt (two components, two threads), the cycle
// engine and the thread-per-kernel runtime.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <vector>

#include "aiesim/engine.hpp"
#include "core/cgsim.hpp"
#include "x86sim/x86sim.hpp"

namespace {

using namespace cgsim;

/// An element larger than a register, so a dangling reference reads
/// stale frame bytes rather than a value kept in a register.
struct Block {
  std::array<std::int32_t, 16> v{};
};

constexpr int kPutsPerInput = 3;

Block make_block(int x, int k) {
  Block b;
  for (std::size_t i = 0; i < b.v.size(); ++i) {
    b.v[i] = x * kPutsPerInput + k + static_cast<std::int32_t>(i);
  }
  return b;
}

std::int64_t checksum(const Block& b) {
  std::int64_t s = 0;
  for (std::size_t i = 0; i < b.v.size(); ++i) {
    s += static_cast<std::int64_t>(b.v[i]) * static_cast<std::int64_t>(i + 1);
  }
  return s;
}

// Pops taken by the consumer running on this thread, and puts across which
// that count moved: a put that moved it suspended while the consumer ran,
// so it parked. The cooperative executors run a component on one thread.
thread_local std::uint64_t t_pops = 0;
std::atomic<std::uint64_t> g_parked_puts{0};

// Three puts per input on a capacity-1 ring: at most one drains into a
// parked pop and one fills the ring, so on the cooperative executors at
// least one of every three parks.
COMPUTE_KERNEL(aie, pl_expand,
               KernelReadPort<int> in,
               KernelWritePort<Block> out) {
  while (true) {
    const int x = co_await in.get();
    for (int k = 0; k < kPutsPerInput; ++k) {
      const std::uint64_t before = t_pops;
      co_await out.put(make_block(x, k));
      if (t_pops != before) ++g_parked_puts;
    }
  }
}

COMPUTE_KERNEL(aie, pl_checksum,
               KernelReadPort<Block> in,
               KernelWritePort<std::int64_t> out) {
  while (true) {
    const Block b = co_await in.get();
    ++t_pops;
    co_await out.put(checksum(b));
  }
}

constexpr auto expand_chain = make_compute_graph_v<[](IoConnector<int> a) {
  IoConnector<Block> b;
  IoConnector<std::int64_t> c;
  b.capacity(1);
  pl_expand(a, b);
  pl_checksum(b, c);
  return std::make_tuple(c);
}>;

// Two copies of expand_chain: two components, so two shards at 2 workers.
constexpr auto expand_pair = make_compute_graph_v<[](IoConnector<int> a,
                                                     IoConnector<int> d) {
  IoConnector<Block> b, e;
  IoConnector<std::int64_t> c, f;
  b.capacity(1);
  e.capacity(1);
  pl_expand(a, b);
  pl_checksum(b, c);
  pl_expand(d, e);
  pl_checksum(e, f);
  return std::make_tuple(c, f);
}>;

std::vector<int> iota_input(int n, int first) {
  std::vector<int> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), first);
  return v;
}

std::vector<std::int64_t> reference(const std::vector<int>& in) {
  std::vector<std::int64_t> out;
  for (const int x : in) {
    for (int k = 0; k < kPutsPerInput; ++k) {
      out.push_back(checksum(make_block(x, k)));
    }
  }
  return out;
}

TEST(PutLifetime, TemporaryOutlivesParkedPutOnCoop) {
  const std::vector<int> in = iota_input(500, 0);
  std::vector<std::int64_t> out;
  g_parked_puts = 0;
  const RunResult r = expand_chain(in, out);
  EXPECT_EQ(out, reference(in));
  EXPECT_GE(g_parked_puts, in.size());
  EXPECT_FALSE(r.deadlocked);
}

TEST(PutLifetime, TemporaryOutlivesParkedPutOnCoopMt) {
  const std::vector<int> in = iota_input(500, 0);
  const std::vector<int> in2 = iota_input(300, 1000);
  std::vector<std::int64_t> out, out2;
  g_parked_puts = 0;
  const RunResult r = expand_pair.run(
      RunOptions{.mode = ExecMode::coop_mt, .workers = 2}, in, in2, out,
      out2);
  EXPECT_EQ(r.shards_used, 2);
  EXPECT_EQ(out, reference(in));
  EXPECT_EQ(out2, reference(in2));
  EXPECT_GE(g_parked_puts, in.size() + in2.size());
  EXPECT_FALSE(r.deadlocked);
}

TEST(PutLifetime, TemporaryOutlivesParkedPutOnSim) {
  const std::vector<int> in = iota_input(500, 0);
  std::vector<std::int64_t> out;
  g_parked_puts = 0;
  const aiesim::SimResult r =
      aiesim::simulate(expand_chain.view(), aiesim::SimConfig{}, in, out);
  EXPECT_EQ(out, reference(in));
  EXPECT_GT(g_parked_puts, 0u);
  EXPECT_FALSE(r.run.deadlocked);
}

TEST(PutLifetime, TemporaryOutlivesBlockedPutOnThreaded) {
  const std::vector<int> in = iota_input(500, 0);
  std::vector<std::int64_t> out;
  const x86sim::SimResult r =
      x86sim::simulate(expand_chain.view(), 1, in, out);
  EXPECT_EQ(out, reference(in));
  EXPECT_FALSE(r.run.deadlocked);
}

}  // namespace

// How a kernel ends on a closed stream, on the backends that spawn threads:
// the sharded cooperative pool (coop_mt) over two components, one shard and
// one thread each, and the thread-per-kernel runtime, whose blocking ports
// mark the task themselves. No exception passes through a kernel body on
// either; the cooperative scheduler and the engine are covered in
// test_close_path.cpp.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <numeric>
#include <span>
#include <vector>

#include "core/cgsim.hpp"
#include "x86sim/x86sim.hpp"

namespace {

using namespace cgsim;

std::atomic<int> g_caught{0};

COMPUTE_KERNEL(aie, cpm_catching_inc,
               KernelReadPort<int> in,
               KernelWritePort<int> out) {
  while (true) {
    int v = 0;
    try {
      v = co_await in.get();
    } catch (...) {
      ++g_caught;
      throw;
    }
    co_await out.put(v + 1);
  }
}

constexpr auto catching_chain = make_compute_graph_v<[](IoConnector<int> a) {
  IoConnector<int> b, c;
  cpm_catching_inc(a, b);
  cpm_catching_inc(b, c);
  return std::make_tuple(c);
}>;

// Two copies of catching_chain: two components, so two shards at 2 workers.
constexpr auto catching_pair = make_compute_graph_v<[](IoConnector<int> a,
                                                       IoConnector<int> d) {
  IoConnector<int> b, c, e, f;
  cpm_catching_inc(a, b);
  cpm_catching_inc(b, c);
  cpm_catching_inc(d, e);
  cpm_catching_inc(e, f);
  return std::make_tuple(c, f);
}>;

constexpr RunOptions kMt2{.mode = ExecMode::coop_mt, .workers = 2};

std::vector<int> iota_input(int n) {
  std::vector<int> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 0);
  return v;
}

TEST(ClosePathMt, CoopMtKernelEndsWithoutException) {
  const std::vector<int> in = iota_input(2000);
  const std::vector<int> in2 = iota_input(1500);
  std::vector<int> coop, coop2;
  const RunResult rc = catching_pair(in, in2, coop, coop2);
  std::vector<int> out, out2;
  g_caught = 0;
  const RunResult r = catching_pair.run(kMt2, in, in2, out, out2);
  EXPECT_EQ(g_caught, 0);
  EXPECT_EQ(r.shards_used, 2);
  EXPECT_EQ(out, coop);
  EXPECT_EQ(out2, coop2);
  EXPECT_EQ(r.kernels_completed, rc.kernels_completed);
  EXPECT_FALSE(r.deadlocked);
}

TEST(ClosePathMt, ThreadedKernelEndsWithoutException) {
  const std::vector<int> in = iota_input(2000);
  std::vector<int> coop;
  const RunResult rc = catching_chain(in, coop);
  std::vector<int> out;
  g_caught = 0;
  const x86sim::SimResult r =
      x86sim::simulate(catching_chain.view(), 1, in, out);
  EXPECT_EQ(g_caught, 0);
  EXPECT_EQ(out, coop);
  EXPECT_EQ(r.run.kernels_completed, rc.kernels_completed);
  EXPECT_FALSE(r.run.deadlocked);
}

// --- a producer whose only consumer returns early, across threads ----------

std::atomic<int> g_put_caught{0};

COMPUTE_KERNEL(aie, cpm_forward,
               KernelReadPort<int> in,
               KernelWritePort<int> out) {
  while (true) {
    const int v = co_await in.get();
    try {
      co_await out.put(v);
    } catch (...) {
      ++g_put_caught;
      throw;
    }
  }
}

COMPUTE_KERNEL(aie, cpm_take_three,
               KernelReadPort<int> in,
               KernelWritePort<int> out) {
  for (int i = 0; i < 3; ++i) co_await out.put(co_await in.get());
}

constexpr auto early_return = make_compute_graph_v<[](IoConnector<int> a) {
  IoConnector<int> b, c;
  cpm_forward(a, b);
  cpm_take_three(b, c);
  return std::make_tuple(c);
}>;

// Two copies of early_return, one shard each at 2 workers.
constexpr auto early_return_pair = make_compute_graph_v<[](
    IoConnector<int> a, IoConnector<int> d) {
  IoConnector<int> b, c, e, f;
  cpm_forward(a, b);
  cpm_take_three(b, c);
  cpm_forward(d, e);
  cpm_take_three(e, f);
  return std::make_tuple(c, f);
}>;

TEST(ClosePathMt, ShardedProducerRetiresAfterConsumerReturns) {
  const std::vector<int> in = iota_input(5000);
  for (int rep = 0; rep < 5; ++rep) {
    std::vector<int> out, out2;
    g_put_caught = 0;
    const RunResult r = early_return_pair.run(kMt2, in, in, out, out2);
    EXPECT_EQ(r.shards_used, 2);
    EXPECT_EQ(out, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(out2, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(g_put_caught, 0);
    EXPECT_EQ(r.kernels_completed, 8);
    EXPECT_FALSE(r.deadlocked);
  }
}

TEST(ClosePathMt, ThreadedProducerRetiresAfterConsumerReturns) {
  const std::vector<int> in = iota_input(5000);
  std::vector<int> out;
  g_put_caught = 0;
  const x86sim::SimResult r =
      x86sim::simulate(early_return.view(), 1, in, out);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(g_put_caught, 0);
  EXPECT_EQ(r.run.kernels_completed, 4);
  EXPECT_FALSE(r.run.deadlocked);
}

// --- bulk reads at end of stream, on two shards ----------------------------

COMPUTE_KERNEL(aie, cpm_window_sums,
               KernelReadPort<int> in,
               KernelWritePort<int> out) {
  std::array<int, 5> buf{};
  while (true) {
    const std::size_t n = co_await in.get_n(std::span{buf});
    int sum = 0;
    for (std::size_t i = 0; i < n; ++i) sum += buf[i];
    co_await out.put(sum);
  }
}

// Two components, each an incrementer feeding a windowed reader.
constexpr auto window_pair = make_compute_graph_v<[](IoConnector<int> a,
                                                     IoConnector<int> d) {
  IoConnector<int> b, c, e, f;
  cpm_catching_inc(a, b);
  cpm_window_sums(b, c);
  cpm_catching_inc(d, e);
  cpm_window_sums(e, f);
  return std::make_tuple(c, f);
}>;

TEST(ClosePathMt, ShardedBulkReadEndsLikeCoop) {
  for (const int n : {0, 1, 23, 25, 997}) {
    const std::vector<int> in = iota_input(n);
    const std::vector<int> in2 = iota_input(n / 2);
    std::vector<int> coop, coop2;
    const RunResult rc = window_pair(in, in2, coop, coop2);
    std::vector<int> mt, mt2;
    std::vector<int> threaded, threaded2;
    g_caught = 0;
    const RunResult r = window_pair.run(kMt2, in, in2, mt, mt2);
    const x86sim::SimResult rt = x86sim::simulate(window_pair.view(), 1, in,
                                                  in2, threaded, threaded2);
    EXPECT_EQ(g_caught, 0) << n;
    EXPECT_EQ(r.shards_used, 2) << n;
    EXPECT_EQ(mt, coop) << n;
    EXPECT_EQ(mt2, coop2) << n;
    EXPECT_EQ(threaded, coop) << n;
    EXPECT_EQ(threaded2, coop2) << n;
    EXPECT_EQ(r.kernels_completed, rc.kernels_completed) << n;
    EXPECT_EQ(rt.run.kernels_completed, rc.kernels_completed) << n;
    EXPECT_FALSE(r.deadlocked) << n;
  }
}

}  // namespace

// How a kernel ends on a closed stream, on the backends that spawn threads:
// the sharded cooperative pool (coop_mt) with a cross-shard edge, whose
// ShardChannel marks parked tasks closed from any worker, and the
// thread-per-kernel runtime, whose blocking ports mark the task themselves.
// No exception passes through a kernel body on either; the cooperative
// scheduler and the engine are covered in test_close_path.cpp.
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

// At 2 workers the partitioner cuts the middle edge.
constexpr auto catching_chain = make_compute_graph_v<[](IoConnector<int> a) {
  IoConnector<int> b, c;
  cpm_catching_inc(a, b);
  cpm_catching_inc(b, c);
  return std::make_tuple(c);
}>;

constexpr RunOptions kMt2{.mode = ExecMode::coop_mt, .workers = 2};

std::vector<int> iota_input(int n) {
  std::vector<int> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 0);
  return v;
}

TEST(ClosePathMt, CoopMtKernelEndsWithoutException) {
  {
    const RuntimeContext ctx{catching_chain.view(), ExecMode::coop_mt,
                             nullptr, nullptr, 2};
    ASSERT_EQ(ctx.partition().n_cross_edges, 1);
  }
  const std::vector<int> in = iota_input(2000);
  std::vector<int> coop;
  const RunResult rc = catching_chain(in, coop);
  std::vector<int> out;
  g_caught = 0;
  const RunResult r = catching_chain.run(kMt2, in, out);
  EXPECT_EQ(g_caught, 0);
  EXPECT_EQ(r.shards_used, 2);
  EXPECT_EQ(out, coop);
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

TEST(ClosePathMt, ProducerRetiresAfterCrossShardConsumerReturns) {
  const std::vector<int> in = iota_input(5000);
  for (int rep = 0; rep < 5; ++rep) {
    std::vector<int> out;
    g_put_caught = 0;
    const RunResult r = early_return.run(kMt2, in, out);
    EXPECT_EQ(out, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(g_put_caught, 0);
    EXPECT_EQ(r.kernels_completed, 4);
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

// --- bulk reads at end of stream, across a shard ----------------------------

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

constexpr auto window_chain = make_compute_graph_v<[](IoConnector<int> a) {
  IoConnector<int> b, c;
  cpm_catching_inc(a, b);
  cpm_window_sums(b, c);
  return std::make_tuple(c);
}>;

TEST(ClosePathMt, CrossShardBulkReadEndsLikeCoop) {
  for (const int n : {0, 1, 23, 25, 997}) {
    const std::vector<int> in = iota_input(n);
    std::vector<int> coop;
    const RunResult rc = window_chain(in, coop);
    std::vector<int> mt;
    std::vector<int> threaded;
    g_caught = 0;
    const RunResult r = window_chain.run(kMt2, in, mt);
    const x86sim::SimResult rt =
        x86sim::simulate(window_chain.view(), 1, in, threaded);
    EXPECT_EQ(g_caught, 0) << n;
    EXPECT_EQ(mt, coop) << n;
    EXPECT_EQ(threaded, coop) << n;
    EXPECT_EQ(r.kernels_completed, rc.kernels_completed) << n;
    EXPECT_EQ(rt.run.kernels_completed, rc.kernels_completed) << n;
    EXPECT_FALSE(r.deadlocked) << n;
  }
}

}  // namespace

// Runtime graph instantiation and execution (paper Sections 3.6-3.8):
// deserialization, global I/O, scheduling to quiescence, termination,
// error propagation and the thread-per-kernel execution strategy.
#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>

#include "core/cgsim.hpp"

namespace {

using namespace cgsim;

COMPUTE_KERNEL(aie, rt_inc,
               KernelReadPort<int> in,
               KernelWritePort<int> out) {
  while (true) co_await out.put(co_await in.get() + 1);
}

COMPUTE_KERNEL(aie, rt_sum_pairs,
               KernelReadPort<int> in,
               KernelWritePort<int> out) {
  while (true) {
    const int a = co_await in.get();
    const int b = co_await in.get();
    co_await out.put(a + b);
  }
}

COMPUTE_KERNEL(aie, rt_throws,
               KernelReadPort<int> in,
               KernelWritePort<int> out) {
  const int v = co_await in.get();
  if (v == 13) throw std::runtime_error{"unlucky"};
  co_await out.put(v);
}

inline constexpr PortSettings rt_rtp{.rtp = true};

COMPUTE_KERNEL(aie, rt_scale_by_rtp,
               KernelReadPort<int> in,
               KernelReadPort<int, rt_rtp> factor,
               KernelWritePort<int> out) {
  while (true) {
    const int v = co_await in.get();
    co_await out.put(v * co_await factor.get());
  }
}

COMPUTE_KERNEL(aie, rt_count_to_rtp,
               KernelReadPort<int> in,
               KernelWritePort<int, rt_rtp> count) {
  int n = 0;
  while (true) {
    co_await in.get();
    ++n;
    co_await count.put(n);
  }
}

constexpr auto inc_graph = make_compute_graph_v<[](IoConnector<int> a) {
  IoConnector<int> b;
  rt_inc(a, b);
  return std::make_tuple(b);
}>;

TEST(Runtime, BasicPipelineDeliversInOrder) {
  std::vector<int> in(100);
  std::iota(in.begin(), in.end(), 0);
  std::vector<int> out;
  const RunResult r = inc_graph(in, out);
  ASSERT_EQ(out.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)], i + 1);
  }
  EXPECT_FALSE(r.deadlocked);
  EXPECT_GT(r.resumes, 0u);
}

TEST(Runtime, EmptyInputTerminatesCleanly) {
  std::vector<int> in;
  std::vector<int> out;
  const RunResult r = inc_graph(in, out);
  EXPECT_TRUE(out.empty());
  EXPECT_FALSE(r.deadlocked);
}

TEST(Runtime, RepetitionsReplayTheSource) {
  std::vector<int> in{1, 2};
  std::vector<int> out;
  inc_graph.run(RunOptions{.mode = ExecMode::coop, .repetitions = 3}, in,
                out);
  EXPECT_EQ(out, (std::vector<int>{2, 3, 2, 3, 2, 3}));
}

TEST(Runtime, TypeMismatchThrows) {
  std::vector<float> wrong{1.0f};
  std::vector<int> out;
  EXPECT_THROW(inc_graph(wrong, out), TypeMismatchError);
}

TEST(Runtime, ArityMismatchThrows) {
  std::vector<int> in{1};
  EXPECT_THROW(inc_graph(in), std::invalid_argument);
}

TEST(Runtime, KernelExceptionPropagates) {
  constexpr auto g = make_compute_graph_v<[](IoConnector<int> a) {
    IoConnector<int> b;
    rt_throws(a, b);
    return std::make_tuple(b);
  }>;
  std::vector<int> in{13};
  std::vector<int> out;
  EXPECT_THROW(g(in, out), std::runtime_error);
}

// A kernel consuming two items per output: odd trailing item simply stays
// unconsumed; the run still terminates (quiescence).
constexpr auto pairs_graph = make_compute_graph_v<[](IoConnector<int> a) {
  IoConnector<int> b;
  rt_sum_pairs(a, b);
  return std::make_tuple(b);
}>;

TEST(Runtime, PairwiseConsumptionAndStarvationTermination) {
  std::vector<int> in{1, 2, 3, 4, 5};  // 5th has no partner
  std::vector<int> out;
  const RunResult r = pairs_graph(in, out);
  EXPECT_EQ(out, (std::vector<int>{3, 7}));
  EXPECT_FALSE(r.deadlocked);  // ending on a closed stream is clean
}

// --- runtime parameters (paper Section 3.7) ---

constexpr auto rtp_in_graph = make_compute_graph_v<[](IoConnector<int> data,
                                                      IoConnector<int> f) {
  IoConnector<int> out;
  rt_scale_by_rtp(data, f, out);
  return std::make_tuple(out);
}>;

TEST(Runtime, RtpSourceScalar) {
  std::vector<int> in{1, 2, 3};
  std::vector<int> out;
  rtp_in_graph(in, 10, out);
  EXPECT_EQ(out, (std::vector<int>{10, 20, 30}));
}

TEST(Runtime, RtpEdgeIsMarkedInFlatGraph) {
  const GraphView g = rtp_in_graph.view();
  EXPECT_TRUE(g.edges[static_cast<std::size_t>(g.inputs[1].edge)]
                  .settings.rtp);
  EXPECT_FALSE(
      g.edges[static_cast<std::size_t>(g.inputs[0].edge)].settings.rtp);
}

TEST(Runtime, RtpScalarTypeMismatchThrows) {
  std::vector<int> in{1};
  std::vector<int> out;
  EXPECT_THROW(rtp_in_graph(in, 2.5, out), TypeMismatchError);
}

constexpr auto rtp_out_graph = make_compute_graph_v<[](IoConnector<int> a) {
  IoConnector<int> n;
  rt_count_to_rtp(a, n);
  return std::make_tuple(n);
}>;

TEST(Runtime, RtpSinkReceivesFinalValue) {
  std::vector<int> in{5, 5, 5, 5};
  int count = -1;
  rtp_out_graph(in, count);
  EXPECT_EQ(count, 4);
}

// --- thread-per-kernel execution (x86sim model) ---

TEST(Runtime, ThreadedMatchesCooperative) {
  std::vector<int> in(500);
  std::iota(in.begin(), in.end(), 10);
  std::vector<int> coop_out, thr_out;
  inc_graph.run(RunOptions{.mode = ExecMode::coop}, in, coop_out);
  inc_graph.run(RunOptions{.mode = ExecMode::threaded}, in, thr_out);
  EXPECT_EQ(coop_out, thr_out);
}

TEST(Runtime, ThreadedRtp) {
  std::vector<int> in{1, 2, 3};
  std::vector<int> out;
  rtp_in_graph.run(RunOptions{.mode = ExecMode::threaded}, in, 7, out);
  EXPECT_EQ(out, (std::vector<int>{7, 14, 21}));
}

TEST(Runtime, SimModeRequiresEngine) {
  std::vector<int> in{1};
  std::vector<int> out;
  EXPECT_THROW(inc_graph.run(RunOptions{.mode = ExecMode::sim}, in, out),
               std::invalid_argument);
}

// --- multiple invocations of the same constexpr graph are independent ---

TEST(Runtime, RepeatedInvocationsAreIsolated) {
  std::vector<int> in{1};
  for (int i = 0; i < 5; ++i) {
    std::vector<int> out;
    inc_graph(in, out);
    ASSERT_EQ(out, (std::vector<int>{2}));
  }
}

// --- stats surface ---

TEST(Runtime, StatsCountItemsAndKernels) {
  std::vector<int> in{1, 2, 3};
  std::vector<int> out;
  const RunResult r = inc_graph(in, out);
  EXPECT_EQ(r.items_consumed, 3u);
  // kernel + source + sink all complete
  EXPECT_EQ(r.kernels_completed, 3);
  EXPECT_EQ(r.kernels_destroyed, 0);
  EXPECT_TRUE(r.blocked_kernels.empty());
}

// Deadlock surface: a two-kernel cycle with no external input starves.
COMPUTE_KERNEL(aie, rt_cycle_a,
               KernelReadPort<int> in,
               KernelWritePort<int> out) {
  while (true) co_await out.put(co_await in.get());
}

TEST(Runtime, CycleWithoutSeedIsReportedAsDeadlock) {
  constexpr auto g = make_compute_graph_v<[](IoConnector<int> seed) {
    IoConnector<int> x, y;
    rt_cycle_a(x, y);
    rt_cycle_a(y, x);
    // Seed merges into the cycle so the graph is connected; the external
    // output taps the cycle.
    rt_cycle_a(seed, x);
    return std::make_tuple(y);
  }>;
  // No input data: the cycle never receives a seed element, every kernel
  // blocks forever, quiescence reports the blocked kernels.
  std::vector<int> in;
  std::vector<int> out;
  const RunResult r = g(in, out);
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(r.deadlocked);
  EXPECT_FALSE(r.blocked_kernels.empty());
}

}  // namespace

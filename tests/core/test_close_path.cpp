// How a kernel ends on a closed stream (paper Section 3.8): no exception
// passes through the kernel body. The port operation or the channel marks
// the task closed and leaves it suspended, and the executor retires it --
// on the cooperative scheduler and on the cycle-approximate engine here,
// on coop_mt and the thread-per-kernel runtime in test_close_path_mt.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "aiesim/engine.hpp"
#include "aiesim/resim.hpp"
#include "core/cgsim.hpp"

namespace {

using namespace cgsim;

std::atomic<int> g_caught{0};

// The paper's kernel shape, with a handler that would see any exception
// leaving the read.
COMPUTE_KERNEL(aie, cp_catching_inc,
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
  cp_catching_inc(a, b);
  cp_catching_inc(b, c);
  return std::make_tuple(c);
}>;

std::vector<int> iota_input(int n) {
  std::vector<int> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 0);
  return v;
}

std::vector<int> plus_two(const std::vector<int>& in) {
  std::vector<int> out;
  for (int v : in) out.push_back(v + 2);
  return out;
}

TEST(ClosePath, CoopKernelEndsWithoutException) {
  const std::vector<int> in = iota_input(300);
  std::vector<int> out;
  g_caught = 0;
  const RunResult r = catching_chain(in, out);
  EXPECT_EQ(g_caught, 0);
  EXPECT_EQ(out, plus_two(in));
  EXPECT_EQ(r.kernels_completed, 4);  // two kernels, source and sink
  EXPECT_FALSE(r.deadlocked);
}

TEST(ClosePath, SimKernelEndsWithoutException) {
  const std::vector<int> in = iota_input(300);
  std::vector<int> coop;
  const RunResult rc = catching_chain(in, coop);
  std::vector<int> out;
  g_caught = 0;
  const aiesim::SimResult r =
      aiesim::simulate(catching_chain.view(), aiesim::SimConfig{}, in, out);
  EXPECT_EQ(g_caught, 0);
  EXPECT_EQ(out, coop);
  EXPECT_EQ(r.run.kernels_completed, rc.kernels_completed);
  EXPECT_FALSE(r.run.deadlocked);
}

// The record of the kernel named `name` (the graph must have one).
RuntimeContext::TaskRecord& kernel_record(RuntimeContext& ctx,
                                          std::string_view name) {
  for (auto& rec : ctx.tasks()) {
    if (rec.kernel_index >= 0 && rec.name == name) return rec;
  }
  throw std::logic_error{"no such kernel"};
}

// Retired: finished, but suspended at a co_await rather than at its end.
void expect_retired(const KernelTask& t) {
  EXPECT_TRUE(t.done());
  EXPECT_FALSE(t.handle().done());
  EXPECT_TRUE(t.handle().promise().closed_normally);
  EXPECT_EQ(t.error(), nullptr);
}

// --- a producer whose only consumer returns early --------------------------

int g_forwarded = 0;
int g_put_caught = 0;

COMPUTE_KERNEL(aie, cp_forward,
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
    ++g_forwarded;
  }
}

COMPUTE_KERNEL(aie, cp_take_three,
               KernelReadPort<int> in,
               KernelWritePort<int> out) {
  for (int i = 0; i < 3; ++i) co_await out.put(co_await in.get());
}

constexpr auto early_return = make_compute_graph_v<[](IoConnector<int> a) {
  IoConnector<int> b, c;
  cp_forward(a, b);
  cp_take_three(b, c);
  return std::make_tuple(c);
}>;

TEST(ClosePath, ProducerRetiresOnPutAfterConsumerReturns) {
  const std::vector<int> in = iota_input(1000);
  std::vector<int> out;
  g_forwarded = 0;
  g_put_caught = 0;
  RuntimeContext ctx{early_return.view()};
  ctx.add_stream_source<int>(0, std::span<const int>{in});
  ctx.add_stream_sink<int>(0, out);
  const RunResult r = ctx.run_coop();
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2}));
  EXPECT_FALSE(r.deadlocked);
  EXPECT_EQ(r.kernels_completed, 4);
  // The forwarder ended at a put (a ring's worth in, far short of the
  // input), without an exception.
  EXPECT_EQ(g_put_caught, 0);
  EXPECT_LT(g_forwarded, 1000);
  expect_retired(kernel_record(ctx, "cp_forward").task);
  // cp_take_three returned; it was not retired.
  EXPECT_TRUE(kernel_record(ctx, "cp_take_three").task.handle().done());
}

// --- bulk reads at end of stream --------------------------------------------

int g_after_short = 0;
int g_after_get = 0;

// Emits the count of every window; after a short window it reads once
// more, which finds the stream closed and ends the kernel.
COMPUTE_KERNEL(aie, cp_window_counts,
               KernelReadPort<int> in,
               KernelWritePort<int> out) {
  std::array<int, 4> buf{};
  while (true) {
    const std::size_t n = co_await in.get_n(std::span{buf});
    co_await out.put(static_cast<int>(n));
    if (n < buf.size()) {
      ++g_after_short;
      (void)co_await in.get();
      ++g_after_get;
    }
  }
}

constexpr auto window_counts = make_compute_graph_v<[](IoConnector<int> a) {
  IoConnector<int> b;
  cp_window_counts(a, b);
  return std::make_tuple(b);
}>;

TEST(ClosePath, BulkReadReturnsShortCountThenGetRetires) {
  const std::vector<int> in = iota_input(10);
  std::vector<int> out;
  g_after_short = 0;
  g_after_get = 0;
  RuntimeContext ctx{window_counts.view()};
  ctx.add_stream_source<int>(0, std::span<const int>{in});
  ctx.add_stream_sink<int>(0, out);
  const RunResult r = ctx.run_coop();
  EXPECT_EQ(out, (std::vector<int>{4, 4, 2}));
  EXPECT_EQ(g_after_short, 1);
  EXPECT_EQ(g_after_get, 0);
  EXPECT_EQ(r.kernels_completed, 3);
  expect_retired(kernel_record(ctx, "cp_window_counts").task);
}

TEST(ClosePath, BulkReadWithNothingLeftRetires) {
  const std::vector<int> in = iota_input(8);
  std::vector<int> out;
  g_after_short = 0;
  RuntimeContext ctx{window_counts.view()};
  ctx.add_stream_source<int>(0, std::span<const int>{in});
  ctx.add_stream_sink<int>(0, out);
  const RunResult r = ctx.run_coop();
  EXPECT_EQ(out, (std::vector<int>{4, 4}));
  EXPECT_EQ(g_after_short, 0);
  EXPECT_EQ(r.kernels_completed, 3);
  expect_retired(kernel_record(ctx, "cp_window_counts").task);
}

// --- lifetime of a retired kernel's locals ----------------------------------

int g_live = 0;
int g_max_live = 0;

struct Live {
  Live() { g_max_live = std::max(g_max_live, ++g_live); }
  ~Live() { --g_live; }
  Live(const Live&) = delete;
  Live& operator=(const Live&) = delete;
};

COMPUTE_KERNEL(aie, cp_raii_inc,
               KernelReadPort<int> in,
               KernelWritePort<int> out) {
  Live live;
  while (true) co_await out.put(co_await in.get() + 1);
}

constexpr auto raii_graph = make_compute_graph_v<[](IoConnector<int> a) {
  IoConnector<int> b;
  cp_raii_inc(a, b);
  return std::make_tuple(b);
}>;

TEST(ClosePath, RetiredLocalLivesUntilContextIsDestroyed) {
  const std::vector<int> in = iota_input(50);
  std::vector<int> out;
  g_live = 0;
  {
    RuntimeContext ctx{raii_graph.view()};
    ctx.add_stream_source<int>(0, std::span<const int>{in});
    ctx.add_stream_sink<int>(0, out);
    const RunResult r = ctx.run_coop();
    EXPECT_EQ(r.kernels_completed, 3);
    EXPECT_EQ(g_live, 1);  // the frame, and its local, outlive the close
  }
  EXPECT_EQ(g_live, 0);
}

TEST(ClosePath, RetiredLocalIsDestroyedBeforeNextResimRun) {
  const std::vector<int> in = iota_input(50);
  std::vector<int> out;
  g_live = 0;
  g_max_live = 0;
  {
    aiesim::ResimSession s{raii_graph.view(), aiesim::SimConfig{}};
    const aiesim::SimResult first = s.run(in, out);
    EXPECT_EQ(first.run.kernels_completed, 3);
    EXPECT_EQ(g_live, 1);
    const aiesim::SimResult second = s.run(in, out);
    EXPECT_EQ(second.run.kernels_completed, 3);
    EXPECT_EQ(second.virtual_cycles, first.virtual_cycles);
    // The rerun built a fresh frame only after destroying the old one.
    EXPECT_EQ(g_max_live, 1);
  }
  EXPECT_EQ(g_live, 0);
}

// --- resuming a retired task is a bug ---------------------------------------

TEST(ClosePath, ResumingRetiredTaskFailsWithLogicError) {
  const std::vector<int> in = iota_input(5);
  std::vector<int> out;
  g_live = 0;
  RuntimeContext ctx{raii_graph.view()};
  ctx.add_stream_source<int>(0, std::span<const int>{in});
  ctx.add_stream_sink<int>(0, out);
  (void)ctx.run_coop();
  KernelTask& t = kernel_record(ctx, "cp_raii_inc").task;
  expect_retired(t);
  t.handle().resume();
  EXPECT_TRUE(t.handle().done());
  EXPECT_EQ(g_live, 0);  // the failure unwound the frame
  ASSERT_NE(t.error(), nullptr);
  EXPECT_THROW(std::rethrow_exception(t.error()), std::logic_error);
}

}  // namespace

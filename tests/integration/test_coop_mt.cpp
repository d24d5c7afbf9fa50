// Sharded cooperative execution (ExecMode::coop_mt): bit-identical outputs
// against the single-threaded cooperative and the thread-per-kernel
// backends on every ported app and on randomized DAGs, one shard per
// connected component at most (a one-component graph runs on the calling
// thread), repeated-run determinism, and the per-shard load accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <random>
#include <span>
#include <thread>
#include <vector>

#include "apps/bilinear.hpp"
#include "apps/bitonic.hpp"
#include "apps/farrow.hpp"
#include "apps/fft.hpp"
#include "apps/fir.hpp"
#include "apps/gemm.hpp"
#include "apps/iir.hpp"
#include "core/cgsim.hpp"
#include "x86sim/x86sim.hpp"

namespace {

using namespace cgsim;

RunOptions mt(int workers) {
  return RunOptions{.mode = ExecMode::coop_mt, .repetitions = 1,
                    .workers = workers};
}

// --- all-app backend equivalence: coop vs coop_mt vs threaded -------------

TEST(CoopMt, BitonicMatchesCoopAndThreaded) {
  std::mt19937 rng{71};
  std::uniform_real_distribution<float> d{-100, 100};
  std::vector<apps::bitonic::Block> in(64);
  for (auto& b : in) {
    for (unsigned i = 0; i < 16; ++i) b.set(i, d(rng));
  }
  std::vector<apps::bitonic::Block> coop, mt2, mt4, threaded;
  apps::bitonic::graph(in, coop);
  apps::bitonic::graph.run(mt(2), in, mt2);
  apps::bitonic::graph.run(mt(4), in, mt4);
  x86sim::simulate(apps::bitonic::graph.view(), 1, in, threaded);
  EXPECT_EQ(coop, mt2);
  EXPECT_EQ(coop, mt4);
  EXPECT_EQ(coop, threaded);
}

TEST(CoopMt, BilinearMatchesCoopAndThreaded) {
  std::mt19937 rng{73};
  std::uniform_real_distribution<float> pix{0, 255};
  std::uniform_real_distribution<float> frac{0, 1};
  std::vector<apps::bilinear::Packet> in(200);  // partial final batch
  for (auto& p : in) {
    for (unsigned i = 0; i < apps::bilinear::kLanes; ++i) {
      p.p00.set(i, pix(rng));
      p.p01.set(i, pix(rng));
      p.p10.set(i, pix(rng));
      p.p11.set(i, pix(rng));
      p.fx.set(i, frac(rng));
      p.fy.set(i, frac(rng));
    }
  }
  std::vector<apps::bilinear::V> coop, mt2, threaded;
  apps::bilinear::graph(in, coop);
  apps::bilinear::graph.run(mt(2), in, mt2);
  x86sim::simulate(apps::bilinear::graph.view(), 1, in, threaded);
  EXPECT_EQ(coop, mt2);
  EXPECT_EQ(coop, threaded);
}

TEST(CoopMt, IirWithRtpMatchesCoopAndThreaded) {
  std::mt19937 rng{79};
  std::uniform_real_distribution<float> d{-1, 1};
  std::vector<apps::iir::Block> in(5);
  for (auto& b : in) {
    for (auto& s : b.samples) s = d(rng);
  }
  std::vector<apps::iir::Block> coop, mt4, threaded;
  apps::iir::graph(in, 2.0f, coop);
  apps::iir::graph.run(mt(4), in, 2.0f, mt4);
  x86sim::simulate(apps::iir::graph.view(), 1, in, 2.0f, threaded);
  EXPECT_EQ(coop, mt4);
  EXPECT_EQ(coop, threaded);
}

TEST(CoopMt, FarrowMatchesCoopAndThreaded) {
  std::mt19937 rng{83};
  std::uniform_int_distribution<int> dx{-20000, 20000};
  std::uniform_int_distribution<int> dmu{0, (1 << 14) - 1};
  constexpr int kBlocks = 5;
  std::vector<apps::farrow::SampleBlock> in(kBlocks);
  std::vector<apps::farrow::MuBlock> mu(kBlocks);
  for (int b = 0; b < kBlocks; ++b) {
    for (unsigned i = 0; i < apps::farrow::kBlockSamples; ++i) {
      in[static_cast<std::size_t>(b)].s[i] =
          static_cast<std::int16_t>(dx(rng));
      mu[static_cast<std::size_t>(b)].mu[i] =
          static_cast<std::int16_t>(dmu(rng));
    }
  }
  std::vector<apps::farrow::SampleBlock> coop, mt2, threaded;
  apps::farrow::graph(in, mu, coop);
  apps::farrow::graph.run(mt(2), in, mu, mt2);
  x86sim::simulate(apps::farrow::graph.view(), 1, in, mu, threaded);
  EXPECT_EQ(coop, mt2);
  EXPECT_EQ(coop, threaded);
}

TEST(CoopMt, FirMatchesCoop) {
  std::mt19937 rng{89};
  std::uniform_int_distribution<int> d{-1000, 1000};
  std::vector<apps::fir::Block> in(8);
  for (auto& b : in) {
    for (auto& s : b.s) s = static_cast<std::int16_t>(d(rng));
  }
  std::vector<apps::fir::Block> coop, mt2;
  apps::fir::graph(in, coop);
  apps::fir::graph.run(mt(2), in, mt2);
  EXPECT_EQ(coop, mt2);
}

TEST(CoopMt, FftMatchesCoop) {
  std::mt19937 rng{97};
  std::uniform_real_distribution<float> d{-1, 1};
  std::vector<apps::fft::Frame> in(6);
  for (auto& f : in) {
    for (unsigned i = 0; i < apps::fft::kN; ++i) {
      f.re.set(i, d(rng));
      f.im.set(i, d(rng));
    }
  }
  std::vector<apps::fft::Frame> coop, mt2;
  apps::fft::graph(in, coop);
  apps::fft::graph.run(mt(2), in, mt2);
  EXPECT_EQ(coop, mt2);
}

TEST(CoopMt, GemmThreeKernelsMatchesCoopAndThreaded) {
  std::mt19937 rng{101};
  std::uniform_real_distribution<float> d{-5, 5};
  std::vector<apps::gemm::TilePair> h0(4), h1(4);
  for (std::size_t i = 0; i < 4; ++i) {
    for (auto& v : h0[i].a.m) v = d(rng);
    for (auto& v : h0[i].b.m) v = d(rng);
    for (auto& v : h1[i].a.m) v = d(rng);
    for (auto& v : h1[i].b.m) v = d(rng);
  }
  std::vector<apps::gemm::Tile> coop, mt2, mt4, threaded;
  apps::gemm::graph(h0, h1, coop);
  apps::gemm::graph.run(mt(2), h0, h1, mt2);
  apps::gemm::graph.run(mt(4), h0, h1, mt4);
  x86sim::simulate(apps::gemm::graph.view(), 1, h0, h1, threaded);
  EXPECT_EQ(coop, mt2);
  EXPECT_EQ(coop, mt4);
  EXPECT_EQ(coop, threaded);
}

// --- shards through the runtime ---------------------------------------------

COMPUTE_KERNEL(aie, mt_double,
               KernelReadPort<int> in,
               KernelWritePort<int> out) {
  while (true) co_await out.put(co_await in.get() * 2);
}

COMPUTE_KERNEL(aie, mt_add_one,
               KernelReadPort<int> in,
               KernelWritePort<int> out) {
  while (true) co_await out.put(co_await in.get() + 1);
}

std::atomic<std::thread::id> g_kernel_thread{};

COMPUTE_KERNEL(aie, mt_record_thread,
               KernelReadPort<int> in,
               KernelWritePort<int> out) {
  while (true) {
    const int v = co_await in.get();
    g_kernel_thread = std::this_thread::get_id();
    co_await out.put(v + 1);
  }
}

// Two-stage chain: one component, so one shard at any worker count.
constexpr auto mt_chain = make_compute_graph_v<[](IoConnector<int> a) {
  IoConnector<int> b, c;
  mt_double(a, b);
  mt_add_one(b, c);
  return std::make_tuple(c);
}>;

constexpr auto mt_thread_chain = make_compute_graph_v<[](IoConnector<int> a) {
  IoConnector<int> b, c;
  mt_double(a, b);
  mt_record_thread(b, c);
  return std::make_tuple(c);
}>;

// Four disjoint pipelines: the multi-component case coop_mt is built for.
constexpr auto mt_wide = make_compute_graph_v<[](
    IoConnector<int> a, IoConnector<int> b, IoConnector<int> c,
    IoConnector<int> d) {
  IoConnector<int> a1, b1, c1, d1;
  mt_double(a, a1);
  mt_double(b, b1);
  mt_double(c, c1);
  mt_double(d, d1);
  return std::make_tuple(a1, b1, c1, d1);
}>;

TEST(CoopMt, SingleShardRunsOnCallingThread) {
  std::vector<int> in(300);
  for (int i = 0; i < 300; ++i) in[static_cast<std::size_t>(i)] = i;
  std::vector<int> coop, out;
  mt_thread_chain(in, coop);
  g_kernel_thread = std::thread::id{};
  const RunResult r = mt_thread_chain.run(mt(4), in, out);
  EXPECT_EQ(r.shards_used, 1);
  EXPECT_EQ(g_kernel_thread.load(), std::this_thread::get_id());
  EXPECT_FALSE(r.deadlocked);
  EXPECT_EQ(out, coop);
}

TEST(CoopMt, WideGraphUsesAllShardsWithoutCrossEdges) {
  std::vector<int> a(100, 1), b(100, 2), c(100, 3), d(100, 4);
  std::vector<int> oa, ob, oc, od;
  const RunResult r = mt_wide.run(mt(4), a, b, c, d, oa, ob, oc, od);
  EXPECT_EQ(r.shards_used, 4);
  EXPECT_FALSE(r.deadlocked);
  EXPECT_EQ(oa, std::vector<int>(100, 2));
  EXPECT_EQ(ob, std::vector<int>(100, 4));
  EXPECT_EQ(oc, std::vector<int>(100, 6));
  EXPECT_EQ(od, std::vector<int>(100, 8));
}

TEST(CoopMt, ChainMatchesCoopAcrossWorkerCounts) {
  std::vector<int> in(800);
  for (int i = 0; i < 800; ++i) in[static_cast<std::size_t>(i)] = i - 400;
  std::vector<int> reference;
  mt_chain(in, reference);
  for (const int workers : {1, 2, 4}) {
    std::vector<int> out;
    const RunResult r = mt_chain.run(mt(workers), in, out);
    EXPECT_FALSE(r.deadlocked) << workers << " workers";
    EXPECT_EQ(out, reference) << workers << " workers";
  }
}

TEST(CoopMt, RepeatedRunsAreDeterministic) {
  std::vector<int> in(500);
  for (int i = 0; i < 500; ++i) in[static_cast<std::size_t>(i)] = i * 3;
  std::vector<int> reference;
  mt_chain(in, reference);
  for (int rep = 0; rep < 5; ++rep) {
    std::vector<int> out;
    mt_chain.run(mt(3), in, out);
    ASSERT_EQ(out, reference) << "run " << rep << " diverged";
  }
}

TEST(CoopMt, MoreWorkersThanKernelsClampsShards) {
  std::vector<int> in{1, 2, 3};
  std::vector<int> out;
  const RunResult r = mt_chain.run(mt(16), in, out);
  EXPECT_LE(r.shards_used, 2);  // two kernels (+ source/sink on their homes)
  EXPECT_EQ(out, (std::vector<int>{3, 5, 7}));
}

TEST(CoopMt, RepetitionsReplayTheSource) {
  std::vector<int> in{1, 2};
  std::vector<int> out;
  mt_chain.run(RunOptions{.mode = ExecMode::coop_mt, .repetitions = 3,
                          .workers = 2},
               in, out);
  EXPECT_EQ(out, (std::vector<int>{3, 5, 3, 5, 3, 5}));
}

TEST(CoopMt, InteractiveSessionRejectsNonCoopModes) {
  EXPECT_THROW(
      (InteractiveSession{mt_chain.view(), ExecMode::coop_mt}),
      std::invalid_argument);
  EXPECT_THROW(
      (InteractiveSession{mt_chain.view(), ExecMode::threaded}),
      std::invalid_argument);
  // The default stays the cooperative backend and keeps working.
  InteractiveSession s{mt_chain.view()};
  ASSERT_TRUE(s.push<int>(0, 10));
  s.finish();
  const auto v = s.poll<int>(0);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 21);
}

TEST(CoopMt, RunCoopOnMtContextThrows) {
  RuntimeContext ctx{mt_chain.view(), ExecMode::coop_mt, nullptr, nullptr, 2};
  EXPECT_THROW((void)ctx.run_coop(), std::logic_error);
}

// --- per-worker load accounting --------------------------------------------

void expect_loads_sum_to_resumes(const RunResult& r) {
  ASSERT_FALSE(r.deadlocked);
  // One load entry per shard.
  ASSERT_EQ(r.worker_loads.size(), static_cast<std::size_t>(r.shards_used));
  std::uint64_t sum = 0;
  for (const WorkerLoad& w : r.worker_loads) sum += w.resumes;
  EXPECT_EQ(sum, r.resumes);
}

TEST(CoopMt, WorkerLoadsSumToTotalResumes) {
  std::vector<int> a(200, 1), b(200, 2), c(200, 3), d(200, 4);
  std::vector<int> oa, ob, oc, od;
  expect_loads_sum_to_resumes(
      mt_wide.run(mt(4), a, b, c, d, oa, ob, oc, od));
}

TEST(CoopMt, OneComponentLoadsSumToTotalResumes) {
  std::vector<int> in(100);
  for (int i = 0; i < 100; ++i) in[static_cast<std::size_t>(i)] = i;
  std::vector<int> out;
  const RunResult r = mt_chain.run(mt(2), in, out);
  EXPECT_EQ(r.shards_used, 1);
  expect_loads_sum_to_resumes(r);
}

// --- randomized-graph fuzz -------------------------------------------------

COMPUTE_KERNEL(aie, mt_dyn_inc,
               KernelReadPort<int> in,
               KernelWritePort<int> out) {
  while (true) co_await out.put(co_await in.get() + 1);
}

COMPUTE_KERNEL(aie, mt_dyn_add,
               KernelReadPort<int> a,
               KernelReadPort<int> b,
               KernelWritePort<int> out) {
  while (true) co_await out.put(co_await a.get() + co_await b.get());
}

COMPUTE_KERNEL(aie, mt_dyn_split,
               KernelReadPort<int> in,
               KernelWritePort<int> lo,
               KernelWritePort<int> hi) {
  while (true) {
    const int v = co_await in.get();
    co_await lo.put(v - 1);
    co_await hi.put(v + 1);
  }
}

/// Random DAG over open edges: every kernel consumes previously produced
/// edges and opens new ones, so the construction order is a topological
/// order and the graph is acyclic by construction. With `cap_rng`, each
/// edge's capacity is drawn from it (rings with and without spare slots);
/// `rng` alone shapes the graph either way.
void build_random_dag(rt::DynamicGraphBuilder& b, std::mt19937& rng,
                      int n_inputs, int n_kernels,
                      std::mt19937* cap_rng = nullptr) {
  const auto add_edge = [&] {
    if (cap_rng == nullptr) return b.add_edge<int>();
    static constexpr std::array<int, 4> kCaps{3, 5, 64, 100};
    std::uniform_int_distribution<std::size_t> pick{0, kCaps.size() - 1};
    return b.add_edge<int>(kCaps[pick(*cap_rng)]);
  };
  std::vector<int> open;
  for (int i = 0; i < n_inputs; ++i) {
    const int e = add_edge();
    b.add_input(e);
    open.push_back(e);
  }
  std::uniform_int_distribution<int> op{0, 2};
  for (int k = 0; k < n_kernels; ++k) {
    std::shuffle(open.begin(), open.end(), rng);
    switch (open.size() >= 2 ? op(rng) : 0) {
      case 0: {  // inc: 1 -> 1
        const int o = add_edge();
        b.add_kernel(mt_dyn_inc, {open.back(), o});
        open.back() = o;
        break;
      }
      case 1: {  // add: 2 -> 1 (narrows the frontier)
        const int o = add_edge();
        const int x = open.back();
        open.pop_back();
        b.add_kernel(mt_dyn_add, {x, open.back(), o});
        open.back() = o;
        break;
      }
      default: {  // split: 1 -> 2 (widens the frontier)
        const int lo = add_edge();
        const int hi = add_edge();
        b.add_kernel(mt_dyn_split, {open.back(), lo, hi});
        open.back() = lo;
        open.push_back(hi);
        break;
      }
    }
  }
  std::sort(open.begin(), open.end());  // canonical output order
  for (const int e : open) b.add_output(e);
}

TEST(CoopMt, RandomizedDagsMatchCoop) {
  bool draw_caps = false;
  for (const unsigned seed : {11u, 23u, 37u, 41u, 59u, 67u, 83u, 97u, 109u,
                              127u}) {
    std::mt19937 rng{seed};
    // Every other seed also draws its edge capacities, from an RNG of its
    // own, so the other seeds keep their graphs and inputs.
    draw_caps = !draw_caps;
    std::mt19937 cap_rng{seed + 1000u};
    rt::DynamicGraphBuilder b;
    std::uniform_int_distribution<int> ni{2, 4}, nk{6, 18};
    build_random_dag(b, rng, ni(rng), nk(rng),
                     draw_caps ? &cap_rng : nullptr);
    const GraphView view = b.view();

    // All global inputs/outputs are int streams; drive them generically.
    std::vector<std::vector<int>> ins(view.inputs.size());
    for (std::size_t i = 0; i < ins.size(); ++i) {
      ins[i].resize(64);
      for (int j = 0; j < 64; ++j) {
        ins[i][static_cast<std::size_t>(j)] =
            static_cast<int>(i) * 1000 + j - 32;
      }
    }
    const auto run_mode = [&](ExecMode mode, int workers) {
      std::vector<std::vector<int>> outs(view.outputs.size());
      RuntimeContext ctx{view, mode, nullptr, nullptr, workers};
      for (std::size_t i = 0; i < ins.size(); ++i) {
        ctx.add_stream_source<int>(i, std::span<const int>{ins[i]});
      }
      for (std::size_t i = 0; i < outs.size(); ++i) {
        ctx.add_stream_sink<int>(i, outs[i]);
      }
      const RunResult r =
          mode == ExecMode::coop ? ctx.run_coop() : ctx.run_coop_mt();
      EXPECT_FALSE(r.deadlocked) << "seed " << seed;
      return outs;
    };

    const auto reference = run_mode(ExecMode::coop, 0);
    for (const int workers : {2, 4}) {
      ASSERT_EQ(run_mode(ExecMode::coop_mt, workers), reference)
          << "seed " << seed << ", " << workers << " workers";
    }
  }
}

}  // namespace

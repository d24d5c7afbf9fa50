// Graph compilation + incremental cone re-simulation: differential tests.
//
// The compiled-graph cache and the ResimSession splice are only allowed to
// make simulation *faster*, never *different*: every observable (trace
// digest, makespan, output items, output data, per-tile stats) must be bit
// identical to a cold full run on the reference oracle
// (oracle/reference_engine.hpp), which derives every table from the graph
// and the cost model itself and never reads a CompiledGraph. These tests
// enforce that pop for pop -- first on targeted shapes that pin down the
// cone/replay boundary cases, then with a randomized differential fuzz
// over DynamicGraphBuilder-generated graphs and random dirty sets.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "aiesim/compiled.hpp"
#include "aiesim/engine.hpp"
#include "aiesim/resim.hpp"
#include "core/cgsim.hpp"
#include "core/dynamic_graph.hpp"
#include "oracle/reference_engine.hpp"

namespace {

using namespace cgsim;

inline constexpr PortSettings tc_rtp{.rtp = true};

COMPUTE_KERNEL(aie, tc_inc,
               KernelReadPort<int> in,
               KernelWritePort<int> out) {
  while (true) co_await out.put(co_await in.get() + 1);
}

COMPUTE_KERNEL(aie, tc_scale,
               KernelReadPort<int> in,
               KernelReadPort<int, tc_rtp> factor,
               KernelWritePort<int> out) {
  while (true) {
    co_await out.put(co_await in.get() * co_await factor.get());
  }
}

/// in -> tc_inc -> tc_scale(rtp) -> out: the canonical RTP-sweep shape.
/// Only tc_scale sits in the cone of the RTP input; the mid edge is
/// replayed from the baseline tap and tc_inc is skipped entirely.
class ChainFixture {
 public:
  ChainFixture() {
    a_ = b_.add_edge<int>();
    m_ = b_.add_edge<int>();
    z_ = b_.add_edge<int>();
    f_ = b_.add_edge<int>(1, tc_rtp);
    b_.add_kernel(tc_inc, {a_, m_});
    b_.add_kernel(tc_scale, {m_, f_, z_});
    b_.add_input(a_);
    b_.add_input(f_);
    b_.add_output(z_);
  }
  GraphView view() { return b_.view(); }

 private:
  rt::DynamicGraphBuilder b_;
  int a_, m_, z_, f_;
};

std::vector<int> iota_vec(std::size_t n, int start = 1) {
  std::vector<int> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = start + static_cast<int>(i);
  return v;
}

using TileKey =
    std::tuple<std::string, std::uint64_t, std::uint64_t, std::uint64_t,
               std::uint64_t>;

std::vector<TileKey> tile_keys(const aiesim::SimResult& r,
                               bool with_activations) {
  std::vector<TileKey> keys;
  keys.reserve(r.tiles.size());
  for (const auto& t : r.tiles) {
    keys.emplace_back(t.kernel, t.busy_cycles, t.final_clock,
                      with_activations ? t.activations : 0, t.iterations);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

/// The equality contract of the whole feature: every paper-level
/// observable matches. Scheduler-execution metadata (step_checksum,
/// per-tile activation counts) is only comparable between two *full*
/// runs -- a spliced run executes fewer scheduler segments by design.
void expect_same_observables(const aiesim::SimResult& a,
                             const aiesim::SimResult& b,
                             bool both_full = false) {
  EXPECT_EQ(a.virtual_cycles, b.virtual_cycles);
  EXPECT_EQ(a.output_items, b.output_items);
  EXPECT_EQ(a.trace.digest(), b.trace.digest());
  EXPECT_EQ(a.trace.size(), b.trace.size());
  EXPECT_EQ(a.run.deadlocked, b.run.deadlocked);
  EXPECT_EQ(a.run.items_consumed, b.run.items_consumed);
  EXPECT_EQ(tile_keys(a, both_full), tile_keys(b, both_full));
  if (both_full) {
    EXPECT_EQ(a.step_checksum, b.step_checksum);
  }
}

TEST(CompiledCache, HitsMissesAndClear) {
  auto& cache = aiesim::CompiledGraphCache::instance();
  cache.clear();
  ChainFixture g;
  aiesim::SimConfig cfg;  // simulate() binds through the cache
  std::vector<int> out;
  (void)aiesim::simulate(g.view(), cfg, iota_vec(8), 3, out);
  const auto s1 = cache.stats();
  EXPECT_EQ(s1.misses, 1u);
  EXPECT_EQ(s1.hits, 0u);
  EXPECT_EQ(s1.entries, 1u);
  (void)aiesim::simulate(g.view(), cfg, iota_vec(8), 3, out);
  const auto s2 = cache.stats();
  EXPECT_EQ(s2.misses, 1u);
  EXPECT_EQ(s2.hits, 1u);
  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(CompiledCache, CostModelChangesTheKey) {
  auto& cache = aiesim::CompiledGraphCache::instance();
  cache.clear();
  ChainFixture g;
  aiesim::SimConfig cfg;
  std::vector<int> out;
  (void)aiesim::simulate(g.view(), cfg, iota_vec(8), 3, out);
  cfg.cost.stream_access_overhead += 1;
  (void)aiesim::simulate(g.view(), cfg, iota_vec(8), 3, out);
  const auto s = cache.stats();
  EXPECT_EQ(s.misses, 2u);  // distinct cost model => distinct artifact
  EXPECT_EQ(s.hits, 0u);
  cache.clear();
}

TEST(CompiledCache, ReferenceVariantBypassesTheCache) {
  // The oracle derives its own tables: a run leaves the cache untouched.
  auto& cache = aiesim::CompiledGraphCache::instance();
  cache.clear();
  ChainFixture g;
  aiesim::SimConfig cfg;
  std::vector<int> out;
  (void)aiesim::oracle::simulate(g.view(), cfg, iota_vec(8), 3, out);
  const auto s = cache.stats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 0u);
  EXPECT_EQ(s.entries, 0u);
}

TEST(CompiledCache, CapacityBoundTriggersEviction) {
  auto& cache = aiesim::CompiledGraphCache::instance();
  cache.clear();
  cache.set_capacity(1);
  ChainFixture g;
  aiesim::SimConfig a;
  aiesim::SimConfig b;
  b.cost.hop_cycles += 2;
  std::vector<int> out;
  (void)aiesim::simulate(g.view(), a, iota_vec(4), 2, out);
  (void)aiesim::simulate(g.view(), b, iota_vec(4), 2, out);
  const auto s = cache.stats();
  EXPECT_EQ(s.entries, 1u);
  EXPECT_GE(s.evictions, 1u);
  cache.set_capacity(64);
  cache.clear();
}

TEST(CompiledSim, CachedFastBindMatchesReference) {
  ChainFixture g;
  aiesim::SimConfig cfg;
  std::vector<int> out_f;
  std::vector<int> out_r;
  // Run the engine twice so the second bind comes from a cache hit.
  std::vector<int> scratch;
  (void)aiesim::simulate(g.view(), cfg, iota_vec(24), 5, scratch);
  const auto rf = aiesim::simulate(g.view(), cfg, iota_vec(24), 5, out_f);
  const auto rr =
      aiesim::oracle::simulate(g.view(), cfg, iota_vec(24), 5, out_r);
  EXPECT_EQ(out_f, out_r);
  expect_same_observables(rf, rr, /*both_full=*/true);
}

TEST(Resim, WarmRerunMatchesColdSimulate) {
  ChainFixture g;
  aiesim::SimConfig cfg;
  std::vector<int> out_cold;
  const auto cold = aiesim::simulate(g.view(), cfg, iota_vec(16), 4, out_cold);

  aiesim::ResimSession s{g.view(), cfg};
  std::vector<int> out_warm;
  const auto r1 = s.run(iota_vec(16), 4, out_warm);
  EXPECT_EQ(out_warm, out_cold);
  expect_same_observables(r1, cold, /*both_full=*/true);

  // Rerunning in place (reset channels + rebuilt coroutines, same engine
  // address) must reproduce the cold run again, bit for bit.
  const auto r2 = s.run(iota_vec(16), 4, out_warm);
  EXPECT_EQ(out_warm, out_cold);
  expect_same_observables(r2, cold, /*both_full=*/true);
}

TEST(Resim, RtpSweepRunsIncrementallyAndMatchesReference) {
  ChainFixture g;
  aiesim::SimConfig cfg;
  aiesim::ResimSession s{g.view(), cfg};
  std::vector<int> out;
  const auto in = iota_vec(12);
  (void)s.run(in, 2, out);
  for (int factor : {3, 5, -1, 7}) {
    std::vector<int> out_inc;
    std::vector<int> out_ref;
    const auto ri = s.resimulate({1}, in, factor, out_inc);
    EXPECT_TRUE(s.last_was_incremental());
    EXPECT_EQ(s.last_cone_size(), 1u);  // only tc_scale; tc_inc is replayed
    const auto rr =
        aiesim::oracle::simulate(g.view(), cfg, in, factor, out_ref);
    EXPECT_EQ(out_inc, out_ref);
    expect_same_observables(ri, rr);
  }
}

TEST(Resim, EmptyDirtySetReturnsBaseline) {
  ChainFixture g;
  aiesim::SimConfig cfg;
  aiesim::ResimSession s{g.view(), cfg};
  std::vector<int> out_base;
  const auto base = s.run(iota_vec(10), 3, out_base);
  std::vector<int> out;
  const auto r = s.resimulate({}, iota_vec(10), 3, out);
  EXPECT_TRUE(s.last_was_incremental());
  EXPECT_EQ(s.last_cone_size(), 0u);
  EXPECT_EQ(out, out_base);  // outputs refilled from the baseline tap
  expect_same_observables(r, base, /*both_full=*/true);
}

TEST(Resim, CycleDetailFallsBackToFullRun) {
  ChainFixture g;
  aiesim::SimConfig cfg;
  cfg.detail = aiesim::DetailLevel::cycle;
  aiesim::ResimSession s{g.view(), cfg};
  std::vector<int> out;
  const auto in = iota_vec(12);
  (void)s.run(in, 2, out);
  std::vector<int> out_inc;
  std::vector<int> out_ref;
  const auto ri = s.resimulate({1}, in, 4, out_inc);
  EXPECT_FALSE(s.last_was_incremental());  // cycle micro-model: no splice
  const auto rr = aiesim::oracle::simulate(g.view(), cfg, in, 4, out_ref);
  EXPECT_EQ(out_inc, out_ref);
  expect_same_observables(ri, rr);
}

TEST(Resim, DirtyStreamInputCoversTheWholeConeAndFallsBack) {
  ChainFixture g;
  aiesim::SimConfig cfg;
  aiesim::ResimSession s{g.view(), cfg};
  std::vector<int> out;
  (void)s.run(iota_vec(12), 2, out);
  // The stream input feeds tc_inc; closure pulls tc_scale in too, so the
  // cone is every kernel and incremental execution has nothing to skip.
  std::vector<int> out_inc;
  std::vector<int> out_ref;
  const auto in2 = iota_vec(12, 100);
  const auto ri = s.resimulate({0}, in2, 2, out_inc);
  EXPECT_FALSE(s.last_was_incremental());
  const auto rr = aiesim::oracle::simulate(g.view(), cfg, in2, 2, out_ref);
  EXPECT_EQ(out_inc, out_ref);
  expect_same_observables(ri, rr);
}

TEST(Resim, CostModelChangeRerunsFullAndMatchesReference) {
  ChainFixture g;
  aiesim::SimConfig cfg;
  aiesim::ResimSession s{g.view(), cfg};
  std::vector<int> out;
  const auto in = iota_vec(12);
  (void)s.run(in, 2, out);
  aiesim::CostModel cost;
  cost.stream_access_overhead += 3;
  cost.hop_cycles += 1;
  std::vector<int> out_s;
  std::vector<int> out_r;
  const auto rs = s.resimulate_with_cost(cost, in, 2, out_s);
  EXPECT_FALSE(s.last_was_incremental());
  aiesim::SimConfig ref;
  ref.cost = cost;
  const auto rr = aiesim::oracle::simulate(g.view(), ref, in, 2, out_r);
  EXPECT_EQ(out_s, out_r);
  expect_same_observables(rs, rr);
}

// ---------------------------------------------------------------------------
// Differential fuzz: random DAGs, random dirty sets, pop-for-pop equality
// against a cold oracle run of the same arguments.
// ---------------------------------------------------------------------------

// Distinct kernel handles (the builder names kernels after the handle, and
// the splice falls back when a cone kernel and a skipped kernel share a
// name -- using each handle at most once per graph keeps names unique so
// the fuzz actually exercises the incremental path).
#define TC_DEFINE_INC(NAME, DELTA)                      \
  COMPUTE_KERNEL(aie, NAME, KernelReadPort<int> in,     \
                 KernelWritePort<int> out) {            \
    while (true) co_await out.put(co_await in.get() + (DELTA)); \
  }

#define TC_DEFINE_ADD(NAME)                                        \
  COMPUTE_KERNEL(aie, NAME, KernelReadPort<int> a,                 \
                 KernelReadPort<int> b, KernelWritePort<int> out) { \
    while (true) co_await out.put(co_await a.get() + co_await b.get()); \
  }

#define TC_DEFINE_SCALE(NAME)                                     \
  COMPUTE_KERNEL(aie, NAME, KernelReadPort<int> in,               \
                 KernelReadPort<int, tc_rtp> factor,              \
                 KernelWritePort<int> out) {                      \
    while (true) {                                                \
      co_await out.put(co_await in.get() * co_await factor.get()); \
    }                                                             \
  }

TC_DEFINE_INC(fz_inc0, 1)
TC_DEFINE_INC(fz_inc1, 2)
TC_DEFINE_INC(fz_inc2, 3)
TC_DEFINE_INC(fz_inc3, 5)
TC_DEFINE_INC(fz_inc4, 7)
TC_DEFINE_INC(fz_inc5, 11)
TC_DEFINE_ADD(fz_add0)
TC_DEFINE_ADD(fz_add1)
TC_DEFINE_ADD(fz_add2)
TC_DEFINE_SCALE(fz_scale0)
TC_DEFINE_SCALE(fz_scale1)
TC_DEFINE_SCALE(fz_scale2)

struct KernelMaker {
  int data_inputs = 1;  ///< stream in-ports
  bool uses_rtp = false;
  std::function<void(rt::DynamicGraphBuilder&, const std::vector<int>&, int,
                     int)>
      emit;  ///< (builder, data in-edges, rtp edge, out edge)
};

std::vector<KernelMaker> maker_pool() {
  std::vector<KernelMaker> pool;
  const auto inc = [&pool](auto handle) {
    pool.push_back({1, false,
                    [handle](rt::DynamicGraphBuilder& b,
                             const std::vector<int>& in, int, int out) {
                      b.add_kernel(handle, {in[0], out});
                    }});
  };
  const auto add = [&pool](auto handle) {
    pool.push_back({2, false,
                    [handle](rt::DynamicGraphBuilder& b,
                             const std::vector<int>& in, int, int out) {
                      b.add_kernel(handle, {in[0], in[1], out});
                    }});
  };
  const auto scale = [&pool](auto handle) {
    pool.push_back({1, true,
                    [handle](rt::DynamicGraphBuilder& b,
                             const std::vector<int>& in, int rtp, int out) {
                      b.add_kernel(handle, {in[0], rtp, out});
                    }});
  };
  inc(fz_inc0); inc(fz_inc1); inc(fz_inc2);
  inc(fz_inc3); inc(fz_inc4); inc(fz_inc5);
  add(fz_add0); add(fz_add1); add(fz_add2);
  scale(fz_scale0); scale(fz_scale1); scale(fz_scale2);
  return pool;
}

/// One randomly built layered DAG plus the bookkeeping the fuzz needs.
struct FuzzGraph {
  rt::DynamicGraphBuilder builder;
  std::size_t n_stream_inputs = 0;
  bool has_rtp = false;        ///< rtp edge is input index n_stream_inputs
  std::size_t n_outputs = 0;
};

FuzzGraph build_random_graph(std::mt19937& rng) {
  FuzzGraph g;
  auto& b = g.builder;
  std::uniform_int_distribution<int> d_inputs(1, 2);
  std::uniform_int_distribution<int> d_kernels(3, 8);
  std::vector<int> data_edges;            // candidates for consumption
  std::vector<int> consumers;             // kernel-consumer count per edge id
  const auto new_edge = [&]() {
    const int e = b.add_edge<int>();
    if (static_cast<std::size_t>(e) >= consumers.size()) {
      consumers.resize(static_cast<std::size_t>(e) + 1, 0);
    }
    return e;
  };
  g.n_stream_inputs = static_cast<std::size_t>(d_inputs(rng));
  for (std::size_t i = 0; i < g.n_stream_inputs; ++i) {
    const int e = new_edge();
    data_edges.push_back(e);
    b.add_input(e);
  }
  auto pool = maker_pool();
  std::shuffle(pool.begin(), pool.end(), rng);
  int rtp_edge = -1;
  const int n_kernels = d_kernels(rng);
  std::size_t next = 0;
  for (int k = 0; k < n_kernels && next < pool.size(); ++k) {
    KernelMaker& m = pool[next++];
    if (m.uses_rtp && rtp_edge < 0) {
      rtp_edge = b.add_edge<int>(1, tc_rtp);
      if (static_cast<std::size_t>(rtp_edge) >= consumers.size()) {
        consumers.resize(static_cast<std::size_t>(rtp_edge) + 1, 0);
      }
      g.has_rtp = true;
    }
    std::vector<int> ins;
    std::uniform_int_distribution<std::size_t> pick(0, data_edges.size() - 1);
    for (int i = 0; i < m.data_inputs; ++i) {
      // Bias towards recent edges so graphs grow deep, not just wide.
      std::size_t idx = std::max(pick(rng), pick(rng));
      ins.push_back(data_edges[idx]);
      ++consumers[static_cast<std::size_t>(data_edges[idx])];
    }
    const int out = new_edge();
    m.emit(b, ins, rtp_edge, out);
    data_edges.push_back(out);
  }
  // Kernel-produced edges nobody consumes become global outputs. The
  // dispatch table below covers up to 6 outputs; any sink edge beyond that
  // stays unconsumed, which is safe because a run produces at most ~14
  // items per edge against a channel capacity of 64 (no backpressure).
  for (int e : data_edges) {
    const bool is_input = static_cast<std::size_t>(e) <
                          g.n_stream_inputs;  // inputs come first
    if (!is_input && consumers[static_cast<std::size_t>(e)] == 0 &&
        g.n_outputs < 6) {
      b.add_output(e);
      ++g.n_outputs;
    }
  }
  if (g.has_rtp) b.add_input(rtp_edge);
  return g;
}

TEST(Resim, DifferentialFuzzAgainstReference) {
  std::size_t incremental_runs = 0;
  std::size_t total_resims = 0;
  for (std::uint32_t seed = 1; seed <= 6; ++seed) {
    std::mt19937 rng(seed);
    FuzzGraph g = build_random_graph(rng);
    const GraphView view = g.builder.view();
    if (g.n_outputs == 0) continue;  // degenerate; nothing observable

    std::uniform_int_distribution<int> d_len(4, 14);
    std::uniform_int_distribution<int> d_val(-20, 20);
    std::vector<std::vector<int>> inputs(g.n_stream_inputs);
    for (auto& v : inputs) {
      v.resize(static_cast<std::size_t>(d_len(rng)));
      for (int& x : v) x = d_val(rng);
    }
    int rtp_value = d_val(rng);
    std::vector<std::vector<int>> outs_resim(g.n_outputs);
    std::vector<std::vector<int>> outs_ref(g.n_outputs);

    // Every other seed models generated kernel I/O (the Table 1
    // mechanism) and pins one random kernel to the far tile {7, 7}, so the
    // port costs and hop costs the engine reads from the artifact differ
    // from the defaults. A separate generator keeps the graph and the
    // inputs of each seed as they were.
    aiesim::SimConfig cfg;
    if (seed % 2 == 0) {
      cfg.generated_io = true;
      std::mt19937 place_rng(seed);
      std::uniform_int_distribution<std::size_t> pick_kernel(
          0, view.kernels.size() - 1);
      cfg.placement[std::string{view.kernels[pick_kernel(place_rng)].name}] =
          aiesim::TileCoord{7, 7};
    }
    aiesim::ResimSession session{view, cfg};

    // A graph invocation takes (inputs..., rtp?, outputs...) positionally;
    // the argument count varies per random graph, so dispatch over the
    // small set of shapes the generator can produce.
    const auto with_args = [&](std::vector<std::vector<int>>& outs,
                               auto&& fn) -> aiesim::SimResult {
      // simulate()'s sinks append; a resimulate() with an empty cone hands
      // back untouched baseline outputs. Start every invocation clean so
      // cross-round comparisons see exactly this run's data.
      for (auto& o : outs) o.clear();
      const std::size_t no = g.n_outputs;
      const std::size_t ni = g.n_stream_inputs;
      const bool rtp = g.has_rtp;
      const auto call = [&](auto&&... args) { return fn(args...); };
      // Generator bounds: 1-2 stream inputs, 0-1 rtp input, 1-6 outputs.
      if (ni == 1 && !rtp) {
        if (no == 1) return call(inputs[0], outs[0]);
        if (no == 2) return call(inputs[0], outs[0], outs[1]);
        if (no == 3) return call(inputs[0], outs[0], outs[1], outs[2]);
        if (no == 4)
          return call(inputs[0], outs[0], outs[1], outs[2], outs[3]);
        if (no == 5)
          return call(inputs[0], outs[0], outs[1], outs[2], outs[3], outs[4]);
        return call(inputs[0], outs[0], outs[1], outs[2], outs[3], outs[4],
                    outs[5]);
      }
      if (ni == 1 && rtp) {
        if (no == 1) return call(inputs[0], rtp_value, outs[0]);
        if (no == 2) return call(inputs[0], rtp_value, outs[0], outs[1]);
        if (no == 3)
          return call(inputs[0], rtp_value, outs[0], outs[1], outs[2]);
        if (no == 4)
          return call(inputs[0], rtp_value, outs[0], outs[1], outs[2],
                      outs[3]);
        if (no == 5)
          return call(inputs[0], rtp_value, outs[0], outs[1], outs[2],
                      outs[3], outs[4]);
        return call(inputs[0], rtp_value, outs[0], outs[1], outs[2], outs[3],
                    outs[4], outs[5]);
      }
      if (ni == 2 && !rtp) {
        if (no == 1) return call(inputs[0], inputs[1], outs[0]);
        if (no == 2) return call(inputs[0], inputs[1], outs[0], outs[1]);
        if (no == 3)
          return call(inputs[0], inputs[1], outs[0], outs[1], outs[2]);
        if (no == 4)
          return call(inputs[0], inputs[1], outs[0], outs[1], outs[2],
                      outs[3]);
        if (no == 5)
          return call(inputs[0], inputs[1], outs[0], outs[1], outs[2],
                      outs[3], outs[4]);
        return call(inputs[0], inputs[1], outs[0], outs[1], outs[2], outs[3],
                    outs[4], outs[5]);
      }
      if (no == 1) return call(inputs[0], inputs[1], rtp_value, outs[0]);
      if (no == 2)
        return call(inputs[0], inputs[1], rtp_value, outs[0], outs[1]);
      if (no == 3)
        return call(inputs[0], inputs[1], rtp_value, outs[0], outs[1],
                    outs[2]);
      if (no == 4)
        return call(inputs[0], inputs[1], rtp_value, outs[0], outs[1],
                    outs[2], outs[3]);
      if (no == 5)
        return call(inputs[0], inputs[1], rtp_value, outs[0], outs[1],
                    outs[2], outs[3], outs[4]);
      return call(inputs[0], inputs[1], rtp_value, outs[0], outs[1], outs[2],
                  outs[3], outs[4], outs[5]);
    };
    ASSERT_LE(g.n_outputs, 6u) << "generator bound drifted; extend dispatch";

    // Baseline: warm session vs cold reference run.
    const auto base = with_args(outs_resim, [&](auto&... a) {
      return session.run(a...);
    });
    const auto base_ref = with_args(outs_ref, [&](auto&... a) {
      return aiesim::oracle::simulate(view, cfg, a...);
    });
    ASSERT_FALSE(base.run.deadlocked) << "seed " << seed;
    expect_same_observables(base, base_ref);
    EXPECT_EQ(outs_resim, outs_ref) << "seed " << seed;

    // Random dirty sets: mutate some inputs, resimulate, diff against a
    // cold reference run of the same (new) arguments. Dirtiness is
    // relative to the *baseline*, which only full runs advance, so the
    // set accumulates across consecutive incremental rounds.
    std::set<std::size_t> dirty_vs_baseline;
    std::uniform_int_distribution<int> d_choice(0, 2);
    for (int round = 0; round < 4; ++round) {
      const int choice = d_choice(rng);
      if (g.has_rtp && choice != 1) {
        rtp_value = d_val(rng);
        dirty_vs_baseline.insert(g.n_stream_inputs);  // rtp is last
      }
      if (choice >= 1) {
        std::uniform_int_distribution<std::size_t> pick(
            0, g.n_stream_inputs - 1);
        const std::size_t i = pick(rng);
        for (int& x : inputs[i]) x = d_val(rng);
        dirty_vs_baseline.insert(i);
      }
      const std::vector<std::size_t> dirty(dirty_vs_baseline.begin(),
                                           dirty_vs_baseline.end());
      const auto ri = with_args(outs_resim, [&](auto&... a) {
        return session.resimulate(dirty, a...);
      });
      total_resims += 1;
      if (session.last_was_incremental()) {
        incremental_runs += 1;
      } else {
        dirty_vs_baseline.clear();  // fallback reran in full: new baseline
      }
      const auto rr = with_args(outs_ref, [&](auto&... a) {
        return aiesim::oracle::simulate(view, cfg, a...);
      });
      expect_same_observables(ri, rr);
      EXPECT_EQ(outs_resim, outs_ref)
          << "seed " << seed << " round " << round << " dirty.size()="
          << dirty.size();
    }
  }
  EXPECT_GT(total_resims, 0u);
  // The point of the fuzz is to exercise the splice, not just the
  // fallback; with these seeds a healthy fraction runs incrementally.
  EXPECT_GT(incremental_runs, 0u);
  aiesim::CompiledGraphCache::instance().clear();
}

}  // namespace

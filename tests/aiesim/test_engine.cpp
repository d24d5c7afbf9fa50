// Cycle-approximate engine tests: virtual-time ordering, dependency
// propagation, the generated-I/O penalty, per-port access charges and
// the execution trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <numeric>
#include <span>

#include "aie/aie.hpp"
#include "aiesim/engine.hpp"
#include "core/cgsim.hpp"
#include "oracle/reference_engine.hpp"

namespace {

using namespace cgsim;

COMPUTE_KERNEL(aie, se_double,
               KernelReadPort<float> in,
               KernelWritePort<float> out) {
  while (true) co_await out.put(2.0f * co_await in.get());
}

COMPUTE_KERNEL(aie, se_chain2,
               KernelReadPort<float> in,
               KernelWritePort<float> out) {
  while (true) co_await out.put(1.0f + co_await in.get());
}

constexpr auto se_graph = make_compute_graph_v<[](IoConnector<float> a) {
  IoConnector<float> b, c;
  se_double(a, b);
  se_chain2(b, c);
  return std::make_tuple(c);
}>;

std::vector<float> some_input(std::size_t n) {
  std::vector<float> v(n);
  std::iota(v.begin(), v.end(), 1.0f);
  return v;
}

TEST(SimEngine, FunctionalResultsMatchCoop) {
  const auto in = some_input(64);
  std::vector<float> coop_out, sim_out;
  se_graph(in, coop_out);
  aiesim::SimConfig cfg;
  aiesim::simulate(se_graph.view(), cfg, in, sim_out);
  EXPECT_EQ(coop_out, sim_out);
}

TEST(SimEngine, VirtualTimeAdvances) {
  const auto in = some_input(32);
  std::vector<float> out;
  const auto res = aiesim::simulate(se_graph.view(), aiesim::SimConfig{},
                                    in, out);
  EXPECT_GT(res.virtual_cycles, 0u);
  EXPECT_GT(res.ns_total, 0.0);
  EXPECT_EQ(res.output_items, 32u);
}

TEST(SimEngine, MoreDataTakesMoreVirtualTime) {
  std::vector<float> out;
  const auto r1 = aiesim::simulate(se_graph.view(), aiesim::SimConfig{},
                                   some_input(16), out);
  out.clear();
  const auto r2 = aiesim::simulate(se_graph.view(), aiesim::SimConfig{},
                                   some_input(64), out);
  EXPECT_GT(r2.virtual_cycles, r1.virtual_cycles);
}

TEST(SimEngine, GeneratedIoIsSlowerOnStreams) {
  // The paper's central Table 1 mechanism: extracted kernels lose a
  // bounded fraction of stream throughput to the adapter thunk.
  const auto in = some_input(128);
  std::vector<float> out;
  aiesim::SimConfig native;
  const auto rn = aiesim::simulate(se_graph.view(), native, in, out);
  out.clear();
  aiesim::SimConfig generated;
  generated.generated_io = true;
  const auto rg = aiesim::simulate(se_graph.view(), generated, in, out);
  EXPECT_GT(rg.virtual_cycles, rn.virtual_cycles);
  const double rel = static_cast<double>(rn.virtual_cycles) /
                     static_cast<double>(rg.virtual_cycles);
  // >= 70 % (the paper's examples stay >= 85 %; this synthetic kernel has
  // almost no compute to amortize the I/O penalty, so allow more).
  EXPECT_GT(rel, 0.5);
  EXPECT_LT(rel, 1.0);
}

TEST(SimEngine, TraceRecordsOneEventPerOutputItem) {
  const auto in = some_input(20);
  std::vector<float> out;
  const auto res =
      aiesim::simulate(se_graph.view(), aiesim::SimConfig{}, in, out);
  ASSERT_EQ(res.trace.events().size(), 20u);
  // Trace timestamps are monotonically non-decreasing per kernel.
  std::uint64_t prev = 0;
  for (const auto& e : res.trace.events()) {
    EXPECT_GE(e.cycles, prev);
    prev = e.cycles;
    EXPECT_EQ(e.kernel, "se_chain2");  // the output-writing kernel
  }
  EXPECT_GT(res.trace.mean_iteration_delta(2), 0.0);
}

TEST(SimEngine, CycleDetailMatchesEventTiming) {
  // The engine ignores the detail level: both give the whole same result,
  // and step_checksum is always 0.
  const auto in = some_input(32);
  std::vector<float> out_e;
  std::vector<float> out_c;
  aiesim::SimConfig ev;
  const auto re = aiesim::simulate(se_graph.view(), ev, in, out_e);
  aiesim::SimConfig cy;
  cy.detail = aiesim::DetailLevel::cycle;
  const auto rc = aiesim::simulate(se_graph.view(), cy, in, out_c);
  EXPECT_EQ(out_e, out_c);
  EXPECT_EQ(re.virtual_cycles, rc.virtual_cycles);
  EXPECT_EQ(re.output_items, rc.output_items);
  EXPECT_EQ(re.trace.digest(), rc.trace.digest());
  ASSERT_EQ(re.tiles.size(), rc.tiles.size());
  for (std::size_t i = 0; i < re.tiles.size(); ++i) {
    EXPECT_EQ(re.tiles[i].kernel, rc.tiles[i].kernel);
    EXPECT_EQ(re.tiles[i].busy_cycles, rc.tiles[i].busy_cycles);
    EXPECT_EQ(re.tiles[i].final_clock, rc.tiles[i].final_clock);
    EXPECT_EQ(re.tiles[i].activations, rc.tiles[i].activations);
    EXPECT_EQ(re.tiles[i].ops, rc.tiles[i].ops);
    EXPECT_EQ(re.tiles[i].iterations, rc.tiles[i].iterations);
  }
  EXPECT_EQ(re.step_checksum, 0u);
  EXPECT_EQ(rc.step_checksum, 0u);
}

TEST(SimEngine, RepetitionsScaleWork) {
  std::vector<float> out;
  aiesim::SimConfig cfg;
  cfg.repetitions = 3;
  const auto res = aiesim::simulate(se_graph.view(), cfg, some_input(8), out);
  EXPECT_EQ(out.size(), 24u);
  EXPECT_EQ(res.output_items, 24u);
}

TEST(SimEngine, DownstreamKernelNeverOutrunsProducer) {
  // Virtual-time causality: the consumer's trace events must lie at or
  // after the producer could have delivered the data.
  const auto in = some_input(16);
  std::vector<float> out;
  const auto res =
      aiesim::simulate(se_graph.view(), aiesim::SimConfig{}, in, out);
  // With two chained kernels the makespan cannot be smaller than the
  // last trace event.
  ASSERT_FALSE(res.trace.events().empty());
  EXPECT_GE(res.virtual_cycles, res.trace.events().back().cycles);
}

TEST(SimEngine, NsPerIterationUsesClock) {
  const auto in = some_input(32);
  std::vector<float> out;
  aiesim::SimConfig cfg;
  const auto res = aiesim::simulate(se_graph.view(), cfg, in, out);
  const double d = res.trace.mean_iteration_delta(2);
  EXPECT_NEAR(res.ns_per_iteration(cfg.aie_mhz, 2), d * 1e3 / 1250.0, 1e-9);
}

// --- rings whose capacity is not a power of two -------------------------

/// Vector work per element, so the chain's stages run at different rates.
template <int Work>
int npot_work(int v) {
  auto vec = aie::broadcast<std::int32_t, 8>(v);
  auto acc = aie::mul(vec, vec);
  for (int i = 0; i < Work; ++i) acc = aie::mac(acc, vec, vec);
  return v + aie::reduce_add(aie::srs<std::int32_t>(acc, 0));
}

COMPUTE_KERNEL(aie, npot_burst,
               KernelReadPort<int> in,
               KernelWritePort<int> out) {
  // One element in, four out in one put_n: the fourth waits for space in
  // the capacity-3 ring.
  while (true) {
    const int v = npot_work<2>(co_await in.get());
    const std::array<int, 4> burst{v, v + 1, v + 2, v + 3};
    co_await out.put_n(std::span<const int>{burst});
  }
}

COMPUTE_KERNEL(aie, npot_pair,
               KernelReadPort<int> in,
               KernelWritePort<int> out) {
  std::array<int, 2> buf{};
  while (true) {
    const std::size_t n = co_await in.get_n(std::span{buf});
    co_await out.put(npot_work<10>(buf[0] - buf[1]));
    if (n < buf.size()) (void)co_await in.get();
  }
}

COMPUTE_KERNEL(aie, npot_gather,
               KernelReadPort<int> in,
               KernelWritePort<int> out) {
  // One get and one get_n of two from the capacity-5 ring; both wrap it.
  std::array<int, 3> buf{};
  while (true) {
    buf[0] = co_await in.get();
    const std::size_t n = 1 + co_await in.get_n(std::span{buf}.subspan(1));
    std::uint32_t s = 0;
    for (std::size_t i = 0; i < n; ++i) {
      s = s * 31u + static_cast<std::uint32_t>(npot_work<1>(buf[i]));
    }
    co_await out.put(static_cast<int>(s));
    if (n < buf.size()) (void)co_await in.get();
  }
}

TEST(SimEngine, NonPowerOfTwoRingsKeepRecordedTiming) {
  // A 3-kernel chain over rings of capacity 5, 3, 5 and 1, so most rings
  // have spare slots (the ring rounds its slot count up to a power of
  // two) and the stages fill them in bursts and drain them with scalar
  // and bulk reads. The engine's observables below were recorded with
  // the earlier modulo-indexed rings; every one of them moves if the
  // physical slot count drives backpressure or a stamp is read from the
  // wrong slot.
  struct Tile {
    const char* kernel;
    std::uint64_t busy_cycles, final_clock, activations;
  };
  struct Golden {
    bool generated_io;
    std::uint64_t virtual_cycles, trace_digest;
    std::array<Tile, 3> tiles;
  };
  const Golden golden[] = {
      {false, 8150, 5806360358117819664ull,
       {{{"npot_burst", 6027, 8012, 43},
         {"npot_pair", 8124, 8150, 23},
         {"npot_gather", 3888, 8109, 37}}}},
      {true, 8151, 2515656343066366074ull,
       {{{"npot_burst", 6068, 8013, 43},
         {"npot_pair", 8124, 8151, 23},
         {"npot_gather", 3915, 8111, 37}}}},
  };

  rt::DynamicGraphBuilder b;
  const int e_in = b.add_edge<int>(5);
  const int e1 = b.add_edge<int>(3);
  const int e2 = b.add_edge<int>(5);
  const int e_out = b.add_edge<int>(1);
  b.add_input(e_in);
  b.add_kernel(npot_burst, {e_in, e1});
  b.add_kernel(npot_pair, {e1, e2});
  b.add_kernel(npot_gather, {e2, e_out});
  b.add_output(e_out);
  const GraphView view = b.view();
  std::vector<int> in(41);
  for (int i = 0; i < 41; ++i) in[static_cast<std::size_t>(i)] = 7 * i - 100;

  std::vector<int> coop_out;
  {
    RuntimeContext ctx{view, ExecMode::coop};
    ctx.add_stream_source<int>(0, std::span<const int>{in});
    ctx.add_stream_sink<int>(0, coop_out);
    ctx.run_coop();
  }
  ASSERT_EQ(coop_out.size(), 27u);
  std::uint64_t out_hash = 1469598103934665603ull;  // FNV-1a
  for (const int v : coop_out) {
    out_hash = (out_hash ^ static_cast<std::uint32_t>(v)) * 1099511628211ull;
  }
  EXPECT_EQ(out_hash, 5500272739549752490ull);

  for (const Golden& g : golden) {
    SCOPED_TRACE(::testing::Message() << "generated_io " << g.generated_io);
    aiesim::SimConfig cfg;
    cfg.generated_io = g.generated_io;
    std::vector<int> out;
    const auto res = aiesim::simulate(view, cfg, in, out);
    EXPECT_EQ(out, coop_out);
    EXPECT_EQ(res.virtual_cycles, g.virtual_cycles);
    EXPECT_EQ(res.trace.digest(), g.trace_digest);
    ASSERT_EQ(res.tiles.size(), g.tiles.size());
    for (const Tile& want : g.tiles) {
      const auto it = std::find_if(
          res.tiles.begin(), res.tiles.end(),
          [&](const aiesim::TileStats& t) { return t.kernel == want.kernel; });
      ASSERT_NE(it, res.tiles.end()) << want.kernel;
      EXPECT_EQ(it->busy_cycles, want.busy_cycles) << want.kernel;
      EXPECT_EQ(it->final_clock, want.final_clock) << want.kernel;
      EXPECT_EQ(it->activations, want.activations) << want.kernel;
    }
  }
}

// --- port charges: each side of an edge pays its own port -----------------

inline constexpr PortSettings pc_window{.buffer = BufferMode::window,
                                        .window_size = 4};
inline constexpr PortSettings pc_pingpong{.buffer = BufferMode::pingpong,
                                          .window_size = 4};
inline constexpr PortSettings pc_wide{.beat_bits = 64};
inline constexpr PortSettings pc_gmio{.io = IoKind::gmio};

COMPUTE_KERNEL(aie, pc_win,
               KernelReadPort<float, pc_window> in,
               KernelWritePort<float, pc_pingpong> out) {
  std::array<float, 4> buf{};
  while (true) {
    const std::size_t n = co_await in.get_n(std::span{buf});
    for (std::size_t i = 0; i < n; ++i) co_await out.put(0.5f * buf[i]);
    if (n < buf.size()) (void)co_await in.get();
  }
}

COMPUTE_KERNEL(aie, pc_mix,
               KernelReadPort<float, pc_pingpong> in,
               KernelReadPort<float, pc_gmio> side,
               KernelWritePort<double, pc_wide> out) {
  while (true) {
    const float v = co_await in.get();
    co_await out.put(static_cast<double>(v) + co_await side.get());
  }
}

COMPUTE_KERNEL(aie, pc_out,
               KernelReadPort<double, pc_wide> in,
               KernelWritePort<float> out) {
  while (true) {
    co_await out.put(static_cast<float>(3.0 * co_await in.get()));
  }
}

/// A default-settings stream source feeds pc_win's window port, a GMIO
/// input feeds pc_mix, pc_win -> pc_mix is a ping-pong edge and
/// pc_mix -> pc_out a 64-bit-beat stream of doubles.
constexpr auto pc_graph = make_compute_graph_v<[](IoConnector<float> a,
                                                  IoConnector<float> g) {
  IoConnector<float> b;
  IoConnector<double> c;
  IoConnector<float> z;
  pc_win(a, b);
  pc_mix(b, g, c);
  pc_out(c, z);
  return std::make_tuple(z);
}>;

/// A run's observables recorded at a fixed commit, per kernel tile.
struct PcTile {
  const char* kernel;
  std::uint64_t busy_cycles, final_clock, activations;
};
struct PcGolden {
  bool generated_io;
  std::uint64_t virtual_cycles, trace_digest, output_items;
  std::vector<PcTile> tiles;
};

/// The engine's run `res` against the oracle's run `ref` of the same
/// graph and inputs, and against the recorded values `want`.
void expect_engine_run(const aiesim::SimResult& res,
                       const aiesim::SimResult& ref, const PcGolden& want) {
  EXPECT_EQ(res.virtual_cycles, ref.virtual_cycles);
  EXPECT_EQ(res.output_items, ref.output_items);
  EXPECT_EQ(res.trace.digest(), ref.trace.digest());
  ASSERT_EQ(res.tiles.size(), ref.tiles.size());
  for (std::size_t i = 0; i < res.tiles.size(); ++i) {
    EXPECT_EQ(res.tiles[i].kernel, ref.tiles[i].kernel);
    EXPECT_EQ(res.tiles[i].busy_cycles, ref.tiles[i].busy_cycles);
    EXPECT_EQ(res.tiles[i].final_clock, ref.tiles[i].final_clock);
    EXPECT_EQ(res.tiles[i].activations, ref.tiles[i].activations);
  }
  EXPECT_EQ(res.virtual_cycles, want.virtual_cycles);
  EXPECT_EQ(res.trace.digest(), want.trace_digest);
  EXPECT_EQ(res.output_items, want.output_items);
  for (const PcTile& t : want.tiles) {
    const auto it = std::find_if(
        res.tiles.begin(), res.tiles.end(),
        [&](const aiesim::TileStats& s) { return s.kernel == t.kernel; });
    ASSERT_NE(it, res.tiles.end()) << t.kernel;
    EXPECT_EQ(it->busy_cycles, t.busy_cycles) << t.kernel;
    EXPECT_EQ(it->final_clock, t.final_clock) << t.kernel;
    EXPECT_EQ(it->activations, t.activations) << t.kernel;
  }
}

// --- bulk ports, output put_n, an RTP read and an early return ------------

inline constexpr PortSettings pc_rtp{.rtp = true};

COMPUTE_KERNEL(aie, pc_bulk,
               KernelReadPort<int, pc_window> in,
               KernelReadPort<int, pc_rtp> gain,
               KernelWritePort<int> out) {
  // One get_n and one put_n of four per batch: each charges its port four
  // times. The RTP read is charged once per batch.
  std::array<int, 4> buf{};
  while (true) {
    const std::size_t n = co_await in.get_n(std::span{buf});
    const int k = co_await gain.get();
    for (std::size_t i = 0; i < n; ++i) buf[i] = k * npot_work<1>(buf[i]);
    co_await out.put_n(std::span<const int>{buf.data(), n});
    if (n < buf.size()) (void)co_await in.get();
  }
}

COMPUTE_KERNEL(aie, pc_early,
               KernelReadPort<int> in,
               KernelWritePort<int> out) {
  // Three batches of three to the global output, one put_n each, so each
  // element records its own trace entry. It returns after nine reads, a
  // count that leaves pc_bulk parked mid-batch on the full capacity-2
  // ring: the return closes the ring and wakes pc_bulk from outside any
  // activation, at clock 0.
  std::array<int, 3> buf{};
  for (int round = 0; round < 3; ++round) {
    for (int& v : buf) v = npot_work<12>(co_await in.get());
    co_await out.put_n(std::span<const int>{buf});
  }
}

constexpr auto pc_clock_graph = make_compute_graph_v<[](IoConnector<int> a,
                                                        IoConnector<int> k) {
  IoConnector<int> b;
  IoConnector<int> z;
  b.capacity(2);
  pc_bulk(a, k, b);
  pc_early(b, z);
  return std::make_tuple(z);
}>;

TEST(SimEngine, PortChargesFollowEachPort) {
  // The two sides of most edges here are charged differently: the source
  // writes a stream while pc_win reads a window, the GMIO side input is
  // written as a PLIO stream, the consuming side alone pays the routing
  // hops, and only pc_out's writes are output iterations. The engine
  // resolves a port's charge once and then adds it to its published clock
  // in place; the oracle recomputes it at every access. pc_graph's golden
  // values were recorded before the engine cached port charges,
  // pc_clock_graph's before it published its clock. The oracle shares
  // CoopChannel with the engine, so only the recorded values catch a
  // channel reading the clock wrongly.
  const PcGolden golden[] = {
      {false, 6280, 6422700600158013163ull, 26,
       {{"pc_win", 2496, 5340, 8}, {"pc_mix", 5980, 6250, 8},
        {"pc_out", 1430, 6280, 27}}},
      {true, 6281, 5866165962941284183ull, 26,
       {{"pc_win", 2496, 5340, 8}, {"pc_mix", 5980, 6250, 8},
        {"pc_out", 1456, 6281, 27}}},
  };
  std::vector<float> a(26);
  std::vector<float> g(26);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<float>(i) - 7.0f;
    g[i] = 0.25f * static_cast<float>(i);
  }
  for (const PcGolden& want : golden) {
    SCOPED_TRACE(::testing::Message() << "generated_io " << want.generated_io);
    aiesim::SimConfig cfg;
    cfg.generated_io = want.generated_io;
    cfg.placement = {{"pc_win", {0, 0}}, {"pc_mix", {3, 0}},
                     {"pc_out", {3, 2}}};
    std::vector<float> out;
    std::vector<float> ref_out;
    const auto res = aiesim::simulate(pc_graph.view(), cfg, a, g, out);
    const auto ref = aiesim::oracle::simulate(pc_graph.view(), cfg, a, g,
                                              ref_out);
    ASSERT_EQ(out.size(), 26u);
    EXPECT_EQ(out, ref_out);
    expect_engine_run(res, ref, want);
  }

  const PcGolden clock_golden[] = {
      {false, 1160, 11029802148466430022ull, 9,
       {{"pc_bulk", 986, 1064, 5}, {"pc_early", 720, 1160, 4}}},
      {true, 1166, 10054471733950702726ull, 9,
       {{"pc_bulk", 989, 1067, 5}, {"pc_early", 729, 1166, 4}}},
  };
  std::vector<int> in(40);
  for (int i = 0; i < 40; ++i) in[static_cast<std::size_t>(i)] = 5 * i - 90;
  for (const PcGolden& want : clock_golden) {
    SCOPED_TRACE(::testing::Message() << "clock graph, generated_io "
                                      << want.generated_io);
    aiesim::SimConfig cfg;
    cfg.generated_io = want.generated_io;
    cfg.placement = {{"pc_bulk", {0, 0}}, {"pc_early", {2, 1}}};
    std::vector<int> out;
    std::vector<int> ref_out;
    const auto res = aiesim::simulate(pc_clock_graph.view(), cfg, in, 3, out);
    const auto ref = aiesim::oracle::simulate(pc_clock_graph.view(), cfg, in,
                                              3, ref_out);
    ASSERT_EQ(out.size(), 9u);
    EXPECT_EQ(out, ref_out);
    expect_engine_run(res, ref, want);
    // pc_bulk was retired at its own clock, not at pc_early's.
    const auto tile = [&](const char* name) {
      return *std::find_if(
          res.tiles.begin(), res.tiles.end(),
          [&](const aiesim::TileStats& s) { return s.kernel == name; });
    };
    EXPECT_LT(tile("pc_bulk").final_clock, tile("pc_early").final_clock);
  }
}

TEST(Trace, DumpFormat) {
  aiesim::Trace t;
  t.record(10, "k", 1);
  t.record(25, "k", 2);
  std::ostringstream os;
  t.dump(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("t=10 kernel=k iteration=1"), std::string::npos);
  EXPECT_NE(s.find("t=25"), std::string::npos);
}

TEST(Trace, MeanDeltaNeedsEnoughEvents) {
  aiesim::Trace t;
  t.record(10, "k", 1);
  EXPECT_EQ(t.mean_iteration_delta(1), 0.0);
}

}  // namespace

namespace {

inline constexpr cgsim::PortSettings se_rtp{.rtp = true};

COMPUTE_KERNEL(aie, se_gain,
               cgsim::KernelReadPort<float> in,
               cgsim::KernelReadPort<float, se_rtp> gain,
               cgsim::KernelWritePort<float> out) {
  while (true) {
    co_await out.put(co_await in.get() * co_await gain.get());
  }
}

constexpr auto se_rtp_graph = cgsim::make_compute_graph_v<[](
    cgsim::IoConnector<float> a, cgsim::IoConnector<float> g) {
  cgsim::IoConnector<float> z;
  se_gain(a, g, z);
  return std::make_tuple(z);
}>;

TEST(SimEngine, RtpGraphsSimulateInVirtualTime) {
  std::vector<float> in(32, 2.0f);
  std::vector<float> out;
  const auto res = aiesim::simulate(se_rtp_graph.view(), aiesim::SimConfig{},
                                    in, 3.0f, out);
  ASSERT_EQ(out.size(), 32u);
  EXPECT_EQ(out[0], 6.0f);
  EXPECT_GT(res.virtual_cycles, 0u);
}

}  // namespace

// Engine-oracle equivalence: the engine (compiled edge tables, buffered
// trace) must reproduce the reference oracle in oracle/reference_engine.hpp
// bit for bit on every observable: makespan, per-task busy cycles and the
// trace digest. Also covers the bind-time name backfill and that the engine
// binds only from a CompiledGraph.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "aiesim/engine.hpp"
#include "core/cgsim.hpp"
#include "oracle/reference_engine.hpp"

namespace {

using namespace cgsim;

COMPUTE_KERNEL(aie, fp_scale,
               KernelReadPort<float> in,
               KernelWritePort<float> out) {
  while (true) co_await out.put(3.0f * co_await in.get());
}

COMPUTE_KERNEL(aie, fp_offset,
               KernelReadPort<float> in,
               KernelWritePort<float> out) {
  while (true) co_await out.put(1.0f + co_await in.get());
}

constexpr auto fp_graph = make_compute_graph_v<[](IoConnector<float> a) {
  IoConnector<float> b, c;
  fp_scale(a, b);
  fp_offset(b, c);
  return std::make_tuple(c);
}>;

std::vector<float> ramp(std::size_t n) {
  std::vector<float> v(n);
  std::iota(v.begin(), v.end(), 1.0f);
  return v;
}

/// The artifact a hand-driven engine binds from.
std::shared_ptr<const aiesim::CompiledGraph> compile_for(
    const aiesim::SimConfig& cfg) {
  return aiesim::compile_graph(fp_graph.view(), cfg.cost, cfg.generated_io,
                               cfg.placement, cfg.array_columns);
}

/// Runs fp_graph on the engine, or on the reference oracle.
aiesim::SimResult run_variant(bool oracle, std::size_t n,
                              std::vector<float>& out, int repetitions = 1) {
  aiesim::SimConfig cfg;
  cfg.repetitions = repetitions;
  out.clear();
  return oracle ? aiesim::oracle::simulate(fp_graph.view(), cfg, ramp(n), out)
                : aiesim::simulate(fp_graph.view(), cfg, ramp(n), out);
}

TEST(EngineVariants, BitIdenticalObservables) {
  std::vector<float> out_f;
  std::vector<float> out_r;
  const auto rf = run_variant(false, 96, out_f, 3);
  const auto rr = run_variant(true, 96, out_r, 3);
  EXPECT_EQ(out_f, out_r);
  EXPECT_EQ(rf.virtual_cycles, rr.virtual_cycles);
  EXPECT_EQ(rf.output_items, rr.output_items);
  EXPECT_EQ(rf.trace.digest(), rr.trace.digest());
  ASSERT_EQ(rf.tiles.size(), rr.tiles.size());
  for (std::size_t i = 0; i < rf.tiles.size(); ++i) {
    EXPECT_EQ(rf.tiles[i].kernel, rr.tiles[i].kernel);
    EXPECT_EQ(rf.tiles[i].busy_cycles, rr.tiles[i].busy_cycles);
    EXPECT_EQ(rf.tiles[i].final_clock, rr.tiles[i].final_clock);
    EXPECT_EQ(rf.tiles[i].activations, rr.tiles[i].activations);
  }
}

TEST(EngineVariants, BitIdenticalAtEventDetailToo) {
  std::vector<float> out_f;
  std::vector<float> out_r;
  const auto rf = run_variant(false, 64, out_f);
  const auto rr = run_variant(true, 64, out_r);
  EXPECT_EQ(out_f, out_r);
  EXPECT_EQ(rf.virtual_cycles, rr.virtual_cycles);
  EXPECT_EQ(rf.trace.digest(), rr.trace.digest());
}

TEST(EngineVariants, DigestIsDeterministicAcrossRuns) {
  std::vector<float> out;
  const auto r1 = run_variant(false, 48, out);
  const auto r2 = run_variant(false, 48, out);
  EXPECT_EQ(r1.trace.digest(), r2.trace.digest());
  EXPECT_EQ(r1.virtual_cycles, r2.virtual_cycles);
}

TEST(EngineVariants, TracesNameEveryTask) {
  // Bind-time interning + backfill: no trace event or kernel tile may end
  // up anonymous, on the engine or on the oracle.
  for (const bool oracle : {false, true}) {
    std::vector<float> out;
    const auto res = run_variant(oracle, 16, out);
    ASSERT_FALSE(res.trace.events().empty());
    for (const auto& e : res.trace.events()) {
      EXPECT_EQ(e.kernel, "fp_offset");  // the output-writing kernel
    }
    ASSERT_EQ(res.tiles.size(), 2u);
    EXPECT_EQ(res.tiles[0].kernel, "fp_offset");
    EXPECT_EQ(res.tiles[1].kernel, "fp_scale");
  }
}

TEST(EngineVariants, NamesBackfilledWhenStatePredatesBind) {
  // Drive the engine by hand: create a state via make_ready *before*
  // bind() attaches the context, as an executor wired up early would.
  aiesim::SimConfig cfg;
  aiesim::SimEngine engine{cfg};
  cgsim::RuntimeContext ctx{fp_graph.view(), cgsim::ExecMode::sim, &engine,
                            &engine};
  // Touch a task state pre-bind (no resume; just state creation).
  auto& rec = ctx.tasks().front();
  engine.make_ready(rec.task.handle(), 0);
  const auto compiled = compile_for(cfg);
  engine.bind(ctx, compiled);
  const auto tiles_pre = engine.tile_stats();  // names already backfilled
  for (const auto& t : tiles_pre) EXPECT_FALSE(t.kernel.empty());
}

TEST(EngineVariants, FastBindWithoutCompiledGraphThrows) {
  // The engine has one source for its edge tables: the compiled artifact.
  aiesim::SimConfig cfg;
  aiesim::SimEngine fast{cfg};
  cgsim::RuntimeContext fast_ctx{fp_graph.view(), cgsim::ExecMode::sim, &fast,
                                 &fast};
  EXPECT_THROW(fast.bind(fast_ctx, nullptr), std::invalid_argument);
}

}  // namespace

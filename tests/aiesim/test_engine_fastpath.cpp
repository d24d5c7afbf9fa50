// Engine-variant equivalence: EngineVariant::fast (timing wheel, dense id
// tables, word-stepped micro model, buffered trace) must reproduce
// EngineVariant::reference bit for bit on every observable: makespan,
// step checksum, per-task busy cycles and the trace digest. Also covers
// the bind-time name backfill, the no-reallocation guarantee of the
// dense state tables, and that the fast variant binds only from a
// CompiledGraph.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "aiesim/engine.hpp"
#include "core/cgsim.hpp"

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

/// The artifact a hand-driven fast engine binds from.
std::shared_ptr<const aiesim::CompiledGraph> compile_for(
    const aiesim::SimConfig& cfg) {
  return aiesim::compile_graph(fp_graph.view(), cfg.cost, cfg.generated_io,
                               cfg.placement, cfg.array_columns);
}

aiesim::SimResult run_variant(aiesim::EngineVariant v, aiesim::DetailLevel d,
                              std::size_t n, std::vector<float>& out,
                              int repetitions = 1) {
  aiesim::SimConfig cfg;
  cfg.engine = v;
  cfg.detail = d;
  cfg.repetitions = repetitions;
  out.clear();
  return aiesim::simulate(fp_graph.view(), cfg, ramp(n), out);
}

TEST(EngineVariants, BitIdenticalObservables) {
  std::vector<float> out_f;
  std::vector<float> out_r;
  const auto rf = run_variant(aiesim::EngineVariant::fast,
                              aiesim::DetailLevel::cycle, 96, out_f, 3);
  const auto rr = run_variant(aiesim::EngineVariant::reference,
                              aiesim::DetailLevel::cycle, 96, out_r, 3);
  EXPECT_EQ(out_f, out_r);
  EXPECT_EQ(rf.virtual_cycles, rr.virtual_cycles);
  EXPECT_EQ(rf.step_checksum, rr.step_checksum);
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
  const auto rf = run_variant(aiesim::EngineVariant::fast,
                              aiesim::DetailLevel::event, 64, out_f);
  const auto rr = run_variant(aiesim::EngineVariant::reference,
                              aiesim::DetailLevel::event, 64, out_r);
  EXPECT_EQ(out_f, out_r);
  EXPECT_EQ(rf.virtual_cycles, rr.virtual_cycles);
  EXPECT_EQ(rf.trace.digest(), rr.trace.digest());
}

TEST(EngineVariants, DigestIsDeterministicAcrossRuns) {
  std::vector<float> out;
  const auto r1 = run_variant(aiesim::EngineVariant::fast,
                              aiesim::DetailLevel::cycle, 48, out);
  const auto r2 = run_variant(aiesim::EngineVariant::fast,
                              aiesim::DetailLevel::cycle, 48, out);
  EXPECT_EQ(r1.trace.digest(), r2.trace.digest());
  EXPECT_EQ(r1.step_checksum, r2.step_checksum);
  EXPECT_EQ(r1.virtual_cycles, r2.virtual_cycles);
}

TEST(EngineVariants, TracesNameEveryTask) {
  // Bind-time interning + backfill: no trace event or kernel tile may end
  // up anonymous in either variant.
  for (const auto v :
       {aiesim::EngineVariant::fast, aiesim::EngineVariant::reference}) {
    std::vector<float> out;
    const auto res = run_variant(v, aiesim::DetailLevel::event, 16, out);
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
  cfg.engine = aiesim::EngineVariant::fast;
  aiesim::SimEngine engine{cfg};
  cgsim::RuntimeContext ctx{fp_graph.view(), cgsim::ExecMode::sim, &engine,
                            &engine};
  // Touch a task state pre-bind (no resume; just state creation).
  auto& rec = ctx.tasks().front();
  engine.make_ready(rec.task.handle(), 0);
  const auto compiled = compile_for(cfg);
  engine.bind(ctx, compiled.get());
  const auto tiles_pre = engine.tile_stats();  // names already backfilled
  for (const auto& t : tiles_pre) EXPECT_FALSE(t.kernel.empty());
}

TEST(EngineVariants, StateCacheSurvivesIndexRehash) {
  // Regression: the engine's one-entry (handle -> state) cache is filled
  // from the open-addressed HandleIndex, whose storage reallocates on
  // rehash. Force many rehashes mid-stream (each insert doubles the table
  // at 50% load) with cache fills interleaved, and verify that every
  // handle keeps resolving to its original state object and that
  // state_tables_stable() -- which now cross-checks the cache against the
  // index generation -- holds at every step.
  aiesim::SimConfig cfg;
  cfg.engine = aiesim::EngineVariant::fast;
  aiesim::SimEngine engine{cfg};  // unbound: manual driving, like an
                                  // executor wired up before its context
  const auto tag = [](std::uintptr_t i) {
    return std::coroutine_handle<>::from_address(
        reinterpret_cast<void*>((i + 1) << 4));
  };
  std::vector<const void*> identity;
  for (std::uintptr_t i = 0; i < 200; ++i) {
    identity.push_back(engine.state_identity(tag(i)));  // insert + cache
    // Revisit the first handle so the cache holds a pre-rehash fill when
    // the next insert grows the table.
    ASSERT_EQ(engine.state_identity(tag(0)), identity[0]);
    ASSERT_TRUE(engine.state_tables_stable());
  }
  for (std::uintptr_t i = 0; i < 200; ++i) {
    EXPECT_EQ(engine.state_identity(tag(i)), identity[i]);
  }
  EXPECT_TRUE(engine.state_tables_stable());
}

TEST(EngineVariants, BindAfterManualWarmupInvalidatesStateCache) {
  // bind() re-reserves the handle index (a rehash) after the cache may
  // already hold a pre-bind entry; the engine must drop that entry and
  // still resolve the warmed-up handle to its original state.
  aiesim::SimConfig cfg;
  cfg.engine = aiesim::EngineVariant::fast;
  aiesim::SimEngine engine{cfg};
  cgsim::RuntimeContext ctx{fp_graph.view(), cgsim::ExecMode::sim, &engine,
                            &engine};
  auto& rec = ctx.tasks().front();
  const void* pre = engine.state_identity(rec.task.handle());
  const auto compiled = compile_for(cfg);
  engine.bind(ctx, compiled.get());
  EXPECT_TRUE(engine.state_tables_stable());
  EXPECT_EQ(engine.state_identity(rec.task.handle()), pre);
  EXPECT_TRUE(engine.state_tables_stable());
}

TEST(EngineVariants, StateTablesStayStableAcrossRun) {
  std::vector<float> out;
  aiesim::SimConfig cfg;
  cfg.engine = aiesim::EngineVariant::fast;
  cfg.detail = aiesim::DetailLevel::cycle;
  aiesim::SimEngine engine{cfg};
  cgsim::RuntimeContext ctx{fp_graph.view(), cgsim::ExecMode::sim, &engine,
                            &engine};
  const auto in = ramp(64);
  cgsim::RunOptions opts{cgsim::ExecMode::sim, 1};
  cgsim::detail::attach_io(ctx, fp_graph.view(), opts, 0, in);
  cgsim::detail::attach_io(ctx, fp_graph.view(), opts, 1, out);
  const auto compiled = compile_for(cfg);
  engine.bind(ctx, compiled.get());
  ctx.start_all();
  ctx.finish(engine.run());
  // Everything was known at bind: the reserve must have held.
  EXPECT_TRUE(engine.state_tables_stable());
}

TEST(EngineVariants, FastBindWithoutCompiledGraphThrows) {
  // The fast variant has one source for its edge tables: the compiled
  // artifact. The reference variant derives its own and accepts none.
  aiesim::SimConfig cfg;
  cfg.engine = aiesim::EngineVariant::fast;
  aiesim::SimEngine fast{cfg};
  cgsim::RuntimeContext fast_ctx{fp_graph.view(), cgsim::ExecMode::sim, &fast,
                                 &fast};
  EXPECT_THROW(fast.bind(fast_ctx, nullptr), std::invalid_argument);

  cfg.engine = aiesim::EngineVariant::reference;
  aiesim::SimEngine ref{cfg};
  cgsim::RuntimeContext ref_ctx{fp_graph.view(), cgsim::ExecMode::sim, &ref,
                                &ref};
  EXPECT_NO_THROW(ref.bind(ref_ctx, nullptr));
}

}  // namespace

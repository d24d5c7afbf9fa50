// bench_ablation_scheduling -- end-to-end ablation of the execution
// strategy (cooperative single-thread vs sharded multi-core cooperative vs
// one OS thread per kernel) and of the channel capacity, on pipelines with
// configurable work per element. This isolates the paper's Table 2 effect:
// cooperative scheduling wins when synchronization is frequent relative to
// compute, and coop_mt recovers multi-core scaling on wide graphs without
// giving up the cooperative fast path inside each shard.
//
// Besides the google-benchmark suites, the binary runs a fixed ablation
// (coop vs coop_mt at 2 and 4 workers on a four-component heavy graph) and
// writes the results to a machine-readable JSON file:
//
//   bench_ablation_scheduling [BENCH_sched.json [items-per-pipeline]]
//
// After two seconds of 4-worker warm-up, each configuration is timed as
// the best of fifteen interleaved runs. On hosts with >= 4 hardware threads
// the exit code is non-zero when coop_mt at 4 workers fails to reach >= 2x
// over single-threaded coop; on smaller hosts the speedup is recorded but
// not enforced.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/cgsim.hpp"
#include "x86sim/x86sim.hpp"

namespace {

using namespace cgsim;

// Work knob: iterations of a cheap hash per element.
inline int spin(int v, int rounds) {
  unsigned x = static_cast<unsigned>(v);
  for (int i = 0; i < rounds; ++i) x = x * 2654435761u + 1;
  return static_cast<int>(x);
}

COMPUTE_KERNEL(aie, sched_light,
               KernelReadPort<int> in,
               KernelWritePort<int> out) {
  while (true) co_await out.put(spin(co_await in.get(), 4));
}

COMPUTE_KERNEL(aie, sched_heavy,
               KernelReadPort<int> in,
               KernelWritePort<int> out) {
  while (true) co_await out.put(spin(co_await in.get(), 4096));
}

constexpr auto light_graph = make_compute_graph_v<[](IoConnector<int> a) {
  IoConnector<int> m, z;
  sched_light(a, m);
  sched_light(m, z);
  return std::make_tuple(z);
}>;

constexpr auto heavy_graph = make_compute_graph_v<[](IoConnector<int> a) {
  IoConnector<int> m, z;
  sched_heavy(a, m);
  sched_heavy(m, z);
  return std::make_tuple(z);
}>;

constexpr auto tiny_cap_graph = make_compute_graph_v<[](IoConnector<int> a) {
  a.capacity(2);
  IoConnector<int> m, z;
  m.capacity(2);
  z.capacity(2);
  sched_light(a, m);
  sched_light(m, z);
  return std::make_tuple(z);
}>;

void run_backend(const GraphView& g, ExecMode mode, int items) {
  std::vector<int> in(static_cast<std::size_t>(items), 3);
  std::vector<int> out;
  if (mode == ExecMode::threaded) {
    x86sim::simulate(g, 1, in, out);
  } else {
    run_graph(g, RunOptions{}, in, out);
  }
  benchmark::DoNotOptimize(out.size());
}

/// Fine-grained sync, almost no compute: the bitonic-like regime where the
/// paper reports cgsim ahead of x86sim.
void BM_LightPipeline_Coop(benchmark::State& state) {
  for (auto _ : state) run_backend(light_graph.view(), ExecMode::coop, 20000);
  state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_LightPipeline_Coop);

void BM_LightPipeline_Threaded(benchmark::State& state) {
  for (auto _ : state) {
    run_backend(light_graph.view(), ExecMode::threaded, 20000);
  }
  state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_LightPipeline_Threaded)->UseRealTime();

/// Compute-heavy elements: sync overhead amortized (bilinear/IIR regime).
void BM_HeavyPipeline_Coop(benchmark::State& state) {
  for (auto _ : state) run_backend(heavy_graph.view(), ExecMode::coop, 500);
  state.SetItemsProcessed(state.iterations() * 500);
}
BENCHMARK(BM_HeavyPipeline_Coop);

void BM_HeavyPipeline_Threaded(benchmark::State& state) {
  for (auto _ : state) {
    run_backend(heavy_graph.view(), ExecMode::threaded, 500);
  }
  state.SetItemsProcessed(state.iterations() * 500);
}
BENCHMARK(BM_HeavyPipeline_Threaded)->UseRealTime();

/// Channel capacity ablation: capacity 2 forces a suspension nearly every
/// element; the default (64) lets the scheduler batch.
void BM_CapacityTiny_Coop(benchmark::State& state) {
  for (auto _ : state) {
    run_backend(tiny_cap_graph.view(), ExecMode::coop, 20000);
  }
  state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_CapacityTiny_Coop);

void BM_CapacityDefault_Coop(benchmark::State& state) {
  for (auto _ : state) run_backend(light_graph.view(), ExecMode::coop, 20000);
  state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_CapacityDefault_Coop);

// ---------------------------------------------------------------------------
// Sharded execution (coop_mt) on a wide multi-component graph.
// ---------------------------------------------------------------------------

// Four independent two-stage heavy pipelines: four components, which the
// partitioner places on four shards, so coop_mt speedup here measures
// pure multi-core scaling of the cooperative scheduler.
constexpr auto wide_graph = make_compute_graph_v<[](
    IoConnector<int> a, IoConnector<int> b, IoConnector<int> c,
    IoConnector<int> d) {
  IoConnector<int> a1, a2, b1, b2, c1, c2, d1, d2;
  sched_heavy(a, a1);
  sched_heavy(a1, a2);
  sched_heavy(b, b1);
  sched_heavy(b1, b2);
  sched_heavy(c, c1);
  sched_heavy(c1, c2);
  sched_heavy(d, d1);
  sched_heavy(d1, d2);
  return std::make_tuple(a2, b2, c2, d2);
}>;

double run_wide(ExecMode mode, int workers, int items,
                RunResult* result_out = nullptr) {
  std::vector<int> a(static_cast<std::size_t>(items), 3);
  std::vector<int> b = a, c = a, d = a;
  std::vector<int> oa, ob, oc, od;
  const auto t0 = std::chrono::steady_clock::now();
  RunResult r = run_graph(wide_graph.view(),
                          RunOptions{.mode = mode,
                                     .repetitions = 1,
                                     .workers = workers},
                          a, b, c, d, oa, ob, oc, od);
  const double s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  benchmark::DoNotOptimize(oa.size() + ob.size() + oc.size() + od.size());
  if (result_out != nullptr) *result_out = std::move(r);
  return s;
}

void BM_WideGraph_Coop(benchmark::State& state) {
  for (auto _ : state) run_wide(ExecMode::coop, 0, 500);
  state.SetItemsProcessed(state.iterations() * 4 * 500);
}
BENCHMARK(BM_WideGraph_Coop);

void BM_WideGraph_CoopMt(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  for (auto _ : state) run_wide(ExecMode::coop_mt, workers, 500);
  state.SetItemsProcessed(state.iterations() * 4 * 500);
}
BENCHMARK(BM_WideGraph_CoopMt)->Arg(2)->Arg(4)->UseRealTime();

// ---------------------------------------------------------------------------
// Fixed ablation with JSON output (tracked across PRs).
// ---------------------------------------------------------------------------

/// max/mean busy seconds over the workers of one run: the load-imbalance
/// signal. A perfectly balanced run has max ~= mean; a 4-worker run whose
/// max is ~4x its mean degenerated to one loaded worker.
void busy_stats(const RunResult& r, double& max_s, double& mean_s) {
  max_s = 0.0;
  mean_s = 0.0;
  if (r.worker_loads.empty()) return;
  for (const WorkerLoad& w : r.worker_loads) {
    max_s = std::max(max_s, w.busy_s);
    mean_s += w.busy_s;
  }
  mean_s /= static_cast<double>(r.worker_loads.size());
}

void print_json_loads(std::FILE* f, const char* key, const RunResult& r) {
  std::fprintf(f, "  \"%s\": [", key);
  for (std::size_t i = 0; i < r.worker_loads.size(); ++i) {
    const WorkerLoad& w = r.worker_loads[i];
    std::fprintf(f, "%s{\"resumes\": %llu, \"busy_s\": %.6f}",
                 i == 0 ? "" : ", ",
                 static_cast<unsigned long long>(w.resumes), w.busy_s);
  }
  std::fprintf(f, "],\n");
}

int run_ablation(const std::string& json_path, int items) {
  const unsigned hw = std::thread::hardware_concurrency();

  // Warm-up: fault in code paths, then keep four workers busy back to back
  // for two seconds. On a shared virtual host an idle vCPU comes back only
  // after about a second of sustained load; until then the four workers of
  // a short run take turns on one vCPU and coop_mt reads ~1x.
  constexpr double kWarmupS = 2.0;
  run_wide(ExecMode::coop, 0, items / 8 + 1);
  const auto warm0 = std::chrono::steady_clock::now();
  while (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       warm0)
             .count() < kWarmupS) {
    run_wide(ExecMode::coop_mt, 4, items);
  }

  // Best-of-R timing, the three configurations interleaved: one sample of
  // a few milliseconds swings by 2x when other tenants take cores for a
  // moment, and the minimum estimates each configuration's undisturbed
  // cost. The loads reported are those of the fastest 4-worker run.
  constexpr int kRepeats = 15;
  RunResult mt4_r{};
  double coop_s = 1e100, mt2_s = 1e100, mt4_s = 1e100;
  for (int rep = 0; rep < kRepeats; ++rep) {
    coop_s = std::min(coop_s, run_wide(ExecMode::coop, 0, items));
    mt2_s = std::min(mt2_s, run_wide(ExecMode::coop_mt, 2, items));
    RunResult r{};
    const double s = run_wide(ExecMode::coop_mt, 4, items, &r);
    if (s < mt4_s) {
      mt4_s = s;
      mt4_r = std::move(r);
    }
  }
  const double speedup2 = coop_s / mt2_s;
  const double speedup4 = coop_s / mt4_s;
  const bool gate_active = hw >= 4;
  const bool gate_ok = !gate_active || speedup4 >= 2.0;

  double mt4_busy_max = 0, mt4_busy_mean = 0;
  busy_stats(mt4_r, mt4_busy_max, mt4_busy_mean);

  std::printf("\n-- scheduling ablation (4 pipelines x %d items, %u hw "
              "threads, best of %d) --\n",
              items, hw, kRepeats);
  std::printf("coop (1 thread):      %9.4f s\n", coop_s);
  std::printf("coop_mt (2 workers):  %9.4f s  (%.2fx)\n", mt2_s, speedup2);
  std::printf("coop_mt (4 workers):  %9.4f s  (%.2fx)  busy max/mean "
              "%.4f/%.4f s\n",
              mt4_s, speedup4, mt4_busy_max, mt4_busy_mean);
  if (gate_active) {
    std::printf("4-worker gate (>= 2.0x, enforced when hw >= 4): %s\n",
                gate_ok ? "PASS" : "FAIL");
  } else {
    std::printf("4-worker gate (>= 2.0x, enforced when hw >= 4): skipped "
                "(hw_threads=%u < 4)\n",
                hw);
  }

  if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(f, "{\n");
    benchutil::emit_resource_fields(f);
    std::fprintf(f,
                 "  \"bench\": \"bench_ablation_scheduling\",\n"
                 "  \"pipelines\": 4,\n"
                 "  \"items_per_pipeline\": %d,\n"
                 "  \"warmup_s\": %.1f,\n"
                 "  \"repeats\": %d,\n"
                 "  \"hw_threads\": %u,\n"
                 "  \"coop_s\": %.6f,\n"
                 "  \"coop_mt2_s\": %.6f,\n"
                 "  \"coop_mt4_s\": %.6f,\n"
                 "  \"speedup_mt2\": %.3f,\n"
                 "  \"speedup_mt4\": %.3f,\n"
                 "  \"mt4_busy_max_s\": %.6f,\n"
                 "  \"mt4_busy_mean_s\": %.6f,\n",
                 items, kWarmupS, kRepeats, hw, coop_s, mt2_s, mt4_s, speedup2,
                 speedup4, mt4_busy_max, mt4_busy_mean);
    print_json_loads(f, "mt4_loads", mt4_r);
    std::fprintf(f,
                 "  \"gate_enforced\": %s,\n"
                 "  \"gate_ok\": %s\n"
                 "}\n",
                 gate_active ? "true" : "false", gate_ok ? "true" : "false");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "FAIL: cannot write %s\n", json_path.c_str());
    return 1;
  }
  return gate_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::wall_anchor();
  benchmark::Initialize(&argc, argv);  // consumes --benchmark_* flags
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  const std::string out_dir = benchutil::strip_out_dir(argc, argv);
  const std::string json_path = benchutil::join_out(
      out_dir, argc > 1 ? argv[1] : "BENCH_sched.json");
  int items = 2000;  // heavy spin: ~seconds of single-core work
  if (argc > 2) items = std::max(8, std::atoi(argv[2]));
  return run_ablation(json_path, items);
}

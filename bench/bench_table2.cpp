// bench_table2 -- regenerates paper Table 2: wall-clock simulation time of
// cgsim (cooperative coroutines, one thread) vs the x86sim execution model
// (one OS thread per kernel) vs the cycle-approximate simulator.
//
// The paper repeats each example's input vectors until x86sim runs ~20 s
// (repetitions: bitonic 1024, farrow 512, IIR 256, bilinear 1). To keep
// this bench fast we run a fixed fraction of the paper's repetitions and
// report both the measured time and the extrapolation to paper scale; the
// claims under test are *relative*: cgsim ~ x86sim on bulk-transfer
// examples, cgsim ahead on the fine-grained bitonic example (the gated
// claim). The paper's aiesim column, 200-400x the functional simulators,
// is the cost of AMD's aiesim itself; for the cycle-approximate engine
// that stands in for it, the bench prints host nanoseconds per simulated
// cycle and per event, ungated (EXPERIMENTS.md, Table 2).
//
// A fourth column runs the sharded multi-core cooperative backend
// (ExecMode::coop_mt); on a single-core host it matches cgsim within
// scheduling noise, on multi-core hosts wide graphs scale. The measured
// rows are also written to a machine-readable JSON file (default
// BENCH_table2.json) so successive PRs can track the trajectory.
//
//   $ ./bench_table2 [scale-divisor [json-path]]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "aiesim/engine.hpp"
#include "bench_common.hpp"
#include "apps/bilinear.hpp"
#include "apps/bitonic.hpp"
#include "apps/farrow.hpp"
#include "apps/iir.hpp"
#include "apps/softmax.hpp"
#include "x86sim/x86sim.hpp"

namespace {

int g_divisor = 64;        // fraction of the paper's repetitions to run
int g_aiesim_divisor = 4;  // extra scale-down for the cycle-level sim

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct Row {
  const char* name;
  int paper_reps;
  int reps;  ///< repetitions actually measured (before extrapolation)
  double cgsim_s;
  double cgsim_mt_s;  ///< sharded multi-core cooperative backend
  double x86sim_s;
  double aiesim_s;
  double aiesim_ns_per_cycle;  ///< host time per simulated cycle
  double aiesim_ns_per_event;  ///< host time per engine event (resume)
  double paper_cgsim_s;
  double paper_x86sim_s;
  double paper_aiesim_s;
};

/// Runs one example through all three backends with `reps` repetitions of
/// its base input, returning measured wall-clock seconds extrapolated to
/// `paper_reps`.
template <class Graph, class MakeIo>
Row run_example(const char* name, int paper_reps, const Graph& graph,
                MakeIo make_io, double paper_cg, double paper_x86,
                double paper_aie) {
  const int reps = std::max(1, paper_reps / g_divisor);
  const int aie_reps = std::max(1, reps / g_aiesim_divisor);
  Row row{name, paper_reps, reps, 0, 0, 0, 0, 0, 0,
          paper_cg, paper_x86, paper_aie};
  const double scale = static_cast<double>(paper_reps) / reps;
  const double aie_scale = static_cast<double>(paper_reps) / aie_reps;

  {
    auto t0 = std::chrono::steady_clock::now();
    make_io([&](auto&&... io) {
      graph.run(cgsim::RunOptions{cgsim::ExecMode::coop, reps}, io...);
    });
    row.cgsim_s = seconds_since(t0) * scale;
  }
  {
    auto t0 = std::chrono::steady_clock::now();
    make_io([&](auto&&... io) {
      graph.run(cgsim::RunOptions{cgsim::ExecMode::coop_mt, reps}, io...);
    });
    row.cgsim_mt_s = seconds_since(t0) * scale;
  }
  {
    auto t0 = std::chrono::steady_clock::now();
    make_io([&](auto&&... io) {
      x86sim::simulate(graph.view(), reps, io...);
    });
    row.x86sim_s = seconds_since(t0) * scale;
  }
  {
    aiesim::SimResult res;
    auto t0 = std::chrono::steady_clock::now();
    make_io([&](auto&&... io) {
      aiesim::SimConfig cfg;
      cfg.repetitions = aie_reps;
      res = aiesim::simulate(graph.view(), cfg, io...);
    });
    const double secs = seconds_since(t0);
    row.aiesim_s = secs * aie_scale;
    row.aiesim_ns_per_cycle =
        secs * 1e9 / static_cast<double>(std::max<std::uint64_t>(
                         1, res.virtual_cycles));
    row.aiesim_ns_per_event =
        secs * 1e9 /
        static_cast<double>(std::max<std::uint64_t>(1, res.run.resumes));
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::wall_anchor();
  const std::string out_dir = benchutil::strip_out_dir(argc, argv);
  if (argc > 1) g_divisor = std::max(1, std::atoi(argv[1]));
  const std::string json_path = benchutil::join_out(
      out_dir, argc > 2 ? argv[2] : "BENCH_table2.json");

  // Base workloads sized like the paper's per-repetition inputs.
  std::mt19937 rng{7};
  std::uniform_real_distribution<float> df{-100, 100};
  std::uniform_int_distribution<int> di{-20000, 20000};
  std::uniform_int_distribution<int> dmu{0, (1 << 14) - 1};

  std::vector<apps::bitonic::Block> bit_in(512);
  for (auto& b : bit_in) {
    for (unsigned i = 0; i < 16; ++i) b.set(i, df(rng));
  }
  std::vector<apps::farrow::SampleBlock> far_in(8);
  std::vector<apps::farrow::MuBlock> far_mu(8);
  for (std::size_t b = 0; b < far_in.size(); ++b) {
    for (unsigned i = 0; i < apps::farrow::kBlockSamples; ++i) {
      far_in[b].s[i] = static_cast<std::int16_t>(di(rng));
      far_mu[b].mu[i] = static_cast<std::int16_t>(dmu(rng));
    }
  }
  std::vector<apps::iir::Block> iir_in(8);
  for (auto& b : iir_in) {
    for (auto& s : b.samples) s = df(rng) / 100.0f;
  }
  std::vector<apps::bilinear::Packet> bil_in(4096);
  for (auto& p : bil_in) {
    for (unsigned i = 0; i < apps::bilinear::kLanes; ++i) {
      p.p00.set(i, df(rng));
      p.p01.set(i, df(rng));
      p.p10.set(i, df(rng));
      p.p11.set(i, df(rng));
      p.fx.set(i, 0.5f);
      p.fy.set(i, 0.5f);
    }
  }

  std::vector<Row> rows;
  {
    std::vector<apps::bitonic::Block> out;
    rows.push_back(run_example(
        "bitonic", 1024, apps::bitonic::graph,
        [&](auto run) { out.clear(); run(bit_in, out); }, 14.32, 22.90,
        5825.96));
  }
  {
    std::vector<apps::farrow::SampleBlock> out;
    rows.push_back(run_example(
        "farrow", 512, apps::farrow::graph,
        [&](auto run) { out.clear(); run(far_in, far_mu, out); }, 22.26,
        20.70, 4287.03));
  }
  {
    std::vector<apps::iir::Block> out;
    rows.push_back(run_example(
        "IIR", 256, apps::iir::graph,
        [&](auto run) { out.clear(); run(iir_in, 1.0f, out); }, 18.20, 21.37,
        4346.19));
  }
  {
    std::vector<apps::bilinear::V> out;
    rows.push_back(run_example(
        "bilinear", 64, apps::bilinear::graph,
        [&](auto run) { out.clear(); run(bil_in, out); }, 14.95, 15.57,
        3534.90));
  }
  {
    // Extension row (not in the paper, paper columns 0.0): the all-integer
    // ML softmax pipeline through the same three backends.
    std::vector<apps::softmax::Block> sm_in(64);
    for (auto& b : sm_in) {
      for (auto& v : b.x) v = static_cast<std::int8_t>(di(rng));
    }
    std::vector<apps::softmax::Block> out;
    rows.push_back(run_example(
        "ml-sftmx*", 256, apps::softmax::graph,
        [&](auto run) { out.clear(); run(sm_in, out); }, 0.0, 0.0, 0.0));
  }

  std::printf(
      "\nTable 2: wall-clock simulation time (seconds), measured at 1/%d of\n"
      "the paper's repetitions and extrapolated to paper scale.\n",
      g_divisor);
  if (std::thread::hardware_concurrency() < 2) {
    std::printf(
        "This host has 1 CPU core: the paper's farrow case (x86sim < cgsim\n"
        "via 2 cores) cannot reproduce its sign here; see EXPERIMENTS.md.\n");
  }
  std::printf("\n");
  std::printf("%-10s %6s | %10s %11s %10s %12s | %8s %8s %10s\n", "Graph",
              "Reps", "cgsim(s)", "coop_mt(s)", "x86sim(s)", "aiesim(s)",
              "p.cgsim", "p.x86", "p.aiesim");
  std::printf("%.*s\n", 108,
              "-----------------------------------------------------------"
              "-------------------------------------------------");
  for (const Row& r : rows) {
    std::printf("%-10s %6d | %10.2f %11.2f %10.2f %12.2f | %8.2f %8.2f "
                "%10.2f\n",
                r.name, r.paper_reps, r.cgsim_s, r.cgsim_mt_s, r.x86sim_s,
                r.aiesim_s, r.paper_cgsim_s, r.paper_x86sim_s,
                r.paper_aiesim_s);
  }
  std::printf("\naiesim host time per simulated cycle and per event "
              "(ungated):\n\n");
  std::printf("%-10s | %10s %10s\n", "Graph", "ns/cycle", "ns/event");
  for (const Row& r : rows) {
    std::printf("%-10s | %10.3f %10.1f\n", r.name, r.aiesim_ns_per_cycle,
                r.aiesim_ns_per_event);
  }
  // cgsim must beat x86sim on the sync-heavy bitonic example.
  const bool shape = rows[0].cgsim_s < rows[0].x86sim_s;
  std::printf("\nshape check (cgsim < x86sim on bitonic): %s\n",
              shape ? "PASS" : "FAIL");

  if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(f, "{\n");
    benchutil::emit_resource_fields(f);
    std::fprintf(f,
                 "  \"bench\": \"bench_table2\",\n"
                 "  \"simd_backend\": \"%s\",\n"
                 "  \"scale_divisor\": %d,\n"
                 "  \"hw_threads\": %u,\n"
                 "  \"shape_ok\": %s,\n"
                 "  \"rows\": [\n",
                 aie::simd::backend::name, g_divisor,
                 std::thread::hardware_concurrency(),
                 shape ? "true" : "false");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(f,
                   "    {\"graph\": \"%s\", \"paper_reps\": %d, "
                   "\"cgsim_s\": %.4f, \"coop_mt_s\": %.4f, "
                   "\"x86sim_s\": %.4f, \"aiesim_s\": %.4f, "
                   "\"aiesim_ns_per_cycle\": %.4f, "
                   "\"aiesim_ns_per_event\": %.2f}%s\n",
                   r.name, r.paper_reps, r.cgsim_s, r.cgsim_mt_s, r.x86sim_s,
                   r.aiesim_s, r.aiesim_ns_per_cycle, r.aiesim_ns_per_event,
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "FAIL: cannot write %s\n", json_path.c_str());
    return 1;
  }
  return shape ? 0 : 1;
}

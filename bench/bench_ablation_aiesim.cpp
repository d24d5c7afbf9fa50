// bench_ablation_aiesim -- ablation of the cycle-approximate engine
// against the test-only reference oracle in tests/aiesim/oracle/. Both
// share the binary-heap event queue, the handle-keyed task-state map and
// the per-access port-cost computation. The engine reads edge flags and
// hop costs from the compiled graph; the oracle derives its tables from
// the graph on every bind.
//
// Runs the paper's four application graphs at (scaled-down) Table-2
// repetitions on both the engine (aiesim::simulate) and the oracle
// (aiesim::oracle::simulate). Makespan, per-task busy cycles and the trace
// digest must be identical between engine and oracle; bit-exactness alone
// decides the exit code. The geometric-mean wall-clock speedup is printed
// ungated. Results go to a JSON file so successive changes can track the
// trajectory.
//
//   $ ./bench_ablation_aiesim [scale-divisor [json-path]]
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "aiesim/engine.hpp"
#include "bench_common.hpp"
#include "oracle/reference_engine.hpp"
#include "apps/bilinear.hpp"
#include "apps/bitonic.hpp"
#include "apps/farrow.hpp"
#include "apps/iir.hpp"

namespace {

int g_divisor = 64;  // fraction of the paper's repetitions to run

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct VariantResult {
  double seconds = 0;
  std::uint64_t makespan = 0;
  std::uint64_t trace_digest = 0;
  std::vector<std::pair<std::string, std::uint64_t>> busy;  // kernel, cycles
};

struct Row {
  const char* name;
  int reps;
  VariantResult fast;
  VariantResult ref;
  bool identical = false;
  double speedup = 0;
};

/// Base workloads sized like bench_table2's per-repetition inputs.
struct Inputs {
  std::vector<apps::bitonic::Block> bit;
  std::vector<apps::farrow::SampleBlock> far;
  std::vector<apps::farrow::MuBlock> far_mu;
  std::vector<apps::iir::Block> iir;
  std::vector<apps::bilinear::Packet> bil;
};

template <class Graph, class MakeIo>
Row run_example(const char* name, int paper_reps, const Graph& graph,
                MakeIo make_io) {
  Row row{};
  row.name = name;
  row.reps = std::max(1, paper_reps / g_divisor);
  // Best of three timed runs per variant: single-shot timings of a few
  // milliseconds jitter enough on a loaded single-core host to swing the
  // speedup, and the first run additionally pays process warm-up.
  // Observables are checked to be stable across the repeats.
  constexpr int kTimedRuns = 3;
  for (const bool oracle : {false, true}) {
    VariantResult& vr = oracle ? row.ref : row.fast;
    vr.seconds = 1e100;
    for (int t = 0; t < kTimedRuns; ++t) {
      VariantResult cur;
      const auto t0 = std::chrono::steady_clock::now();
      make_io([&](auto&&... io) {
        aiesim::SimConfig cfg;
        cfg.repetitions = row.reps;
        const aiesim::SimResult res =
            oracle ? aiesim::oracle::simulate(graph.view(), cfg, io...)
                   : aiesim::simulate(graph.view(), cfg, io...);
        cur.makespan = res.virtual_cycles;
        cur.trace_digest = res.trace.digest();
        for (const aiesim::TileStats& ts : res.tiles) {
          cur.busy.emplace_back(ts.kernel, ts.busy_cycles);
        }
      });
      cur.seconds = seconds_since(t0);
      if (t > 0 && (cur.makespan != vr.makespan ||
                    cur.trace_digest != vr.trace_digest ||
                    cur.busy != vr.busy)) {
        std::fprintf(stderr, "FAIL: %s %s observables differ across runs\n",
                     name, oracle ? "reference" : "fast");
        std::exit(1);
      }
      cur.seconds = std::min(cur.seconds, vr.seconds);
      vr = std::move(cur);
    }
  }
  row.identical = row.fast.makespan == row.ref.makespan &&
                  row.fast.trace_digest == row.ref.trace_digest &&
                  row.fast.busy == row.ref.busy;
  row.speedup = row.fast.seconds > 0 ? row.ref.seconds / row.fast.seconds : 0;
  return row;
}

/// Prints the table; returns the geomean speedup and sets `all_identical`
/// to whether every row was bit-exact.
double print_rows(const std::vector<Row>& rows, bool& all_identical) {
  std::printf(
      "\naiesim fast-path ablation (1/%d of paper reps):\n"
      "engine (fast) vs test oracle (ref), bit-exactness\n"
      "checked on makespan / per-task busy cycles / trace digest.\n\n",
      g_divisor);
  std::printf("%-10s %6s | %10s %10s %8s | %9s %18s\n", "Graph", "Reps",
              "fast(s)", "ref(s)", "speedup", "identical", "makespan");
  std::printf("%.*s\n", 82,
              "-----------------------------------------------------------"
              "-----------------------");
  all_identical = true;
  double log_sum = 0;
  for (const Row& r : rows) {
    std::printf("%-10s %6d | %10.3f %10.3f %7.2fx | %9s %18llu\n", r.name,
                r.reps, r.fast.seconds, r.ref.seconds, r.speedup,
                r.identical ? "yes" : "NO",
                static_cast<unsigned long long>(r.fast.makespan));
    all_identical = all_identical && r.identical;
    log_sum += std::log(std::max(r.speedup, 1e-9));
  }
  return std::exp(log_sum / static_cast<double>(rows.size()));
}

/// Runs the four application graphs.
std::vector<Row> run_all(const Inputs& in) {
  std::vector<Row> rows;
  {
    std::vector<apps::bitonic::Block> out;
    rows.push_back(run_example("bitonic", 1024, apps::bitonic::graph,
                               [&](auto run) {
                                 out.clear();
                                 run(in.bit, out);
                               }));
  }
  {
    std::vector<apps::farrow::SampleBlock> out;
    rows.push_back(run_example("farrow", 512, apps::farrow::graph,
                               [&](auto run) {
                                 out.clear();
                                 run(in.far, in.far_mu, out);
                               }));
  }
  {
    std::vector<apps::iir::Block> out;
    rows.push_back(run_example("IIR", 256, apps::iir::graph,
                               [&](auto run) {
                                 out.clear();
                                 run(in.iir, 1.0f, out);
                               }));
  }
  {
    std::vector<apps::bilinear::V> out;
    rows.push_back(run_example("bilinear", 64, apps::bilinear::graph,
                               [&](auto run) {
                                 out.clear();
                                 run(in.bil, out);
                               }));
  }
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::wall_anchor();
  const std::string out_dir = benchutil::strip_out_dir(argc, argv);
  if (argc > 1) g_divisor = std::max(1, std::atoi(argv[1]));
  const std::string json_path = benchutil::join_out(
      out_dir, argc > 2 ? argv[2] : "BENCH_aiesim.json");

  std::mt19937 rng{7};
  std::uniform_real_distribution<float> df{-100, 100};
  std::uniform_int_distribution<int> di{-20000, 20000};
  std::uniform_int_distribution<int> dmu{0, (1 << 14) - 1};

  Inputs in;
  in.bit.resize(512);
  for (auto& b : in.bit) {
    for (unsigned i = 0; i < 16; ++i) b.set(i, df(rng));
  }
  in.far.resize(8);
  in.far_mu.resize(8);
  for (std::size_t b = 0; b < in.far.size(); ++b) {
    for (unsigned i = 0; i < apps::farrow::kBlockSamples; ++i) {
      in.far[b].s[i] = static_cast<std::int16_t>(di(rng));
      in.far_mu[b].mu[i] = static_cast<std::int16_t>(dmu(rng));
    }
  }
  in.iir.resize(8);
  for (auto& b : in.iir) {
    for (auto& s : b.samples) s = df(rng) / 100.0f;
  }
  in.bil.resize(4096);
  for (auto& p : in.bil) {
    for (unsigned i = 0; i < apps::bilinear::kLanes; ++i) {
      p.p00.set(i, df(rng));
      p.p01.set(i, df(rng));
      p.p10.set(i, df(rng));
      p.p11.set(i, df(rng));
      p.fx.set(i, 0.5f);
      p.fy.set(i, 0.5f);
    }
  }

  const std::vector<Row> rows = run_all(in);
  bool all_identical = false;
  const double geomean = print_rows(rows, all_identical);
  std::printf("\ngeomean speedup: %.2fx (ungated)\n", geomean);
  std::printf("bit-exactness: %s\n", all_identical ? "PASS" : "FAIL");

  if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(f, "{\n");
    benchutil::emit_resource_fields(f);
    std::fprintf(f,
                 "  \"bench\": \"bench_ablation_aiesim\",\n"
                 "  \"hw_threads\": %u,\n"
                 "  \"simd_backend\": \"%s\",\n"
                 "  \"scale_divisor\": %d,\n"
                 "  \"geomean_speedup\": %.3f,\n"
                 "  \"bit_identical\": %s,\n"
                 "  \"rows\": [\n",
                 std::thread::hardware_concurrency(),
                 aie::simd::backend::name, g_divisor, geomean,
                 all_identical ? "true" : "false");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(
          f,
          "    {\"graph\": \"%s\", \"reps\": %d, \"fast_s\": %.4f, "
          "\"reference_s\": %.4f, \"speedup\": %.3f, \"identical\": %s, "
          "\"makespan\": %llu}%s\n",
          r.name, r.reps, r.fast.seconds, r.ref.seconds, r.speedup,
          r.identical ? "true" : "false",
          static_cast<unsigned long long>(r.fast.makespan),
          i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "FAIL: cannot write %s\n", json_path.c_str());
    return 1;
  }
  return all_identical ? 0 : 1;
}

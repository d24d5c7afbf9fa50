// bench_ablation_resim -- ablation of the graph-compilation layer and the
// incremental cone re-simulation (ResimSession) against cold full runs.
//
// Two workloads, two gates:
//   * warm rerun -- the same graph re-invoked repeatedly with unchanged
//     inputs (the null iteration of a parameter-sweep driver, a host
//     re-querying a prototype). Cold path: compiled-graph cache cleared +
//     a fresh simulate() per iteration (context construction, channel
//     allocation, cost-table derivation, full execution every time). Warm
//     path: one ResimSession, resimulate() with an empty dirty set per
//     iteration -- the cone analysis proves nothing changed and the
//     session serves the memoized baseline, refilling the caller's
//     outputs from the edge taps. Gate: >= `min-warm` (default 3x)
//     geometric-mean speedup across chain sizes. A forced full
//     re-execution on the warm session (run() per iteration, dominated by
//     scheduler work both sides) is reported as `warm_full` rows,
//     ungated.
//   * RTP sweep -- a wide graph of independent chains where only one chain
//     depends on the runtime parameter being swept. Full path: simulate()
//     per sweep point (warm compile cache -- the honest alternative a
//     caller has). Incremental path: resimulate() per point, re-executing
//     only the affected chain and splicing the rest from the baseline.
//     Gate: >= `min-resim` (default 10x) speedup.
//
// Correctness is enforced unconditionally (exit 1), timing gates take the
// thresholds from argv so the ctest smoke run can relax them: every timed
// run's trace digest and outputs must equal a cold run of the test-only
// reference oracle (tests/aiesim/oracle/), and the sweep must actually
// execute incrementally with the expected cone size.
//
//   $ ./bench_ablation_resim [iters [json-path [min-warm [min-resim]]]]
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "aiesim/compiled.hpp"
#include "bench_common.hpp"
#include "aiesim/engine.hpp"
#include "aiesim/resim.hpp"
#include "core/cgsim.hpp"
#include "core/dynamic_graph.hpp"
#include "oracle/reference_engine.hpp"

namespace {

using namespace cgsim;

inline constexpr PortSettings rb_rtp{.rtp = true};

COMPUTE_KERNEL(aie, rb_inc,
               KernelReadPort<int> in,
               KernelWritePort<int> out) {
  while (true) co_await out.put(co_await in.get() + 1);
}

// Distinct handle for the swept chain: the splice separates cone records
// from skipped records by kernel name.
COMPUTE_KERNEL(aie, rb_cone_inc,
               KernelReadPort<int> in,
               KernelWritePort<int> out) {
  while (true) co_await out.put(co_await in.get() + 1);
}

COMPUTE_KERNEL(aie, rb_scale,
               KernelReadPort<int> in,
               KernelReadPort<int, rb_rtp> factor,
               KernelWritePort<int> out) {
  while (true) {
    co_await out.put(co_await in.get() * co_await factor.get());
  }
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// in -> rb_inc^depth -> out.
void build_chain(rt::DynamicGraphBuilder& b, int depth) {
  int prev = b.add_edge<int>();
  b.add_input(prev);
  for (int i = 0; i < depth; ++i) {
    const int next = b.add_edge<int>();
    b.add_kernel(rb_inc, {prev, next});
    prev = next;
  }
  b.add_output(prev);
}

struct Row {
  std::string phase;
  int size = 0;          ///< kernels (warm) / chains (sweep)
  double cold_s = 0;     ///< cold / full path
  double warm_s = 0;     ///< warm / incremental path
  double speedup = 0;
};

bool g_digest_ok = true;

/// Part A: repeated same-graph runs, cold construction vs warm session.
/// Pushes a gated `warm_rerun` row (unchanged-input rerun served by the
/// session) and an ungated `warm_full` row (forced full re-execution on
/// the warm session, for the honest lower bound).
void bench_warm_rerun(int depth, int iters, std::vector<Row>& rows) {
  rt::DynamicGraphBuilder b;
  build_chain(b, depth);
  const GraphView view = b.view();
  const std::vector<int> in{1, 2, 3, 4, 5, 6, 7, 8};
  aiesim::SimConfig cfg;

  std::vector<int> out_ref;
  const auto rr = aiesim::oracle::simulate(view, cfg, in, out_ref);

  const auto check = [&](const aiesim::SimResult& r,
                         const std::vector<int>& out) {
    if (r.trace.digest() != rr.trace.digest() ||
        r.virtual_cycles != rr.virtual_cycles || out != out_ref) {
      g_digest_ok = false;
    }
  };

  Row row{"warm_rerun", depth, 0, 0, 0};
  Row full{"warm_full", depth, 0, 0, 0};
  std::vector<int> out;
  auto& cache = aiesim::CompiledGraphCache::instance();
  {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) {
      cache.clear();
      out.clear();
      check(aiesim::simulate(view, cfg, in, out), out);
    }
    row.cold_s = seconds_since(t0);
    full.cold_s = row.cold_s;
  }
  {
    aiesim::ResimSession session{view, cfg};
    check(session.run(in, out), out);  // baseline (one-time, untimed)
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) {
      check(session.resimulate({}, in, out), out);
      if (!session.last_was_incremental() || session.last_cone_size() != 0) {
        std::fprintf(stderr,
                     "FAIL: unchanged rerun at depth %d was not served "
                     "incrementally\n",
                     depth);
        std::exit(1);
      }
    }
    row.warm_s = seconds_since(t0);
    const auto t1 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) {
      check(session.run(in, out), out);
    }
    full.warm_s = seconds_since(t1);
  }
  row.speedup = row.warm_s > 0 ? row.cold_s / row.warm_s : 0;
  full.speedup = full.warm_s > 0 ? full.cold_s / full.warm_s : 0;
  rows.push_back(row);
  rows.push_back(full);
}

/// Part B: kChains independent chains, an RTP fed only into chain 0; sweep
/// the RTP and compare full re-simulation against cone re-simulation.
Row bench_rtp_sweep(int depth, int sweep_points) {
  constexpr int chains = 32;  // compile-time: invoke() expands positionally
  rt::DynamicGraphBuilder b;
  // Chain 0: scale(rtp) then (depth-1) cone incs; chains 1.. are rb_inc.
  const int rtp_edge = [&] {
    int in0 = b.add_edge<int>();
    b.add_input(in0);
    const int rtp = b.add_edge<int>(1, rb_rtp);
    int prev = b.add_edge<int>();
    b.add_kernel(rb_scale, {in0, rtp, prev});
    for (int i = 1; i < depth; ++i) {
      const int next = b.add_edge<int>();
      b.add_kernel(rb_cone_inc, {prev, next});
      prev = next;
    }
    b.add_output(prev);
    return rtp;
  }();
  for (int c = 1; c < chains; ++c) {
    int prev = b.add_edge<int>();
    b.add_input(prev);
    for (int i = 0; i < depth; ++i) {
      const int next = b.add_edge<int>();
      b.add_kernel(rb_inc, {prev, next});
      prev = next;
    }
    b.add_output(prev);
  }
  b.add_input(rtp_edge);  // last input: (in_0 .. in_{chains-1}, rtp)
  const GraphView view = b.view();
  const std::size_t rtp_idx = static_cast<std::size_t>(chains);

  std::vector<int> in(128);
  for (std::size_t i = 0; i < in.size(); ++i) in[i] = static_cast<int>(i) - 64;
  std::vector<std::vector<int>> outs(static_cast<std::size_t>(chains));
  std::vector<std::vector<int>> outs_chk(static_cast<std::size_t>(chains));

  aiesim::SimConfig cfg;

  // Expands to (in x chains, rtp, out x chains) positional arguments.
  const auto invoke = [&](auto&& fn, std::vector<std::vector<int>>& o,
                          int rtp_value) {
    for (auto& v : o) v.clear();
    return [&]<std::size_t... I, std::size_t... O>(std::index_sequence<I...>,
                                                   std::index_sequence<O...>) {
      return fn(((void)I, in)..., rtp_value, o[O]...);
    }(std::make_index_sequence<static_cast<std::size_t>(chains)>{},
      std::make_index_sequence<static_cast<std::size_t>(chains)>{});
  };

  Row row{"rtp_sweep", chains, 0, 0, 0};
  {
    const auto t0 = std::chrono::steady_clock::now();
    for (int p = 0; p < sweep_points; ++p) {
      (void)invoke(
          [&](auto&&... a) { return aiesim::simulate(view, cfg, a...); },
          outs, p + 2);
    }
    row.cold_s = seconds_since(t0);
  }
  {
    aiesim::ResimSession session{view, cfg};
    (void)invoke([&](auto&&... a) { return session.run(a...); }, outs, 1);
    const auto t0 = std::chrono::steady_clock::now();
    for (int p = 0; p < sweep_points; ++p) {
      (void)invoke(
          [&](auto&&... a) { return session.resimulate({rtp_idx}, a...); },
          outs, p + 2);
      if (!session.last_was_incremental() ||
          session.last_cone_size() != static_cast<std::size_t>(depth)) {
        std::fprintf(stderr,
                     "FAIL: rtp sweep point %d did not run incrementally "
                     "(cone %zu, expected %d)\n",
                     p, session.last_cone_size(), depth);
        std::exit(1);
      }
    }
    row.warm_s = seconds_since(t0);

    // Correctness (outside the timed loops): one more sweep point, checked
    // pop for pop against a cold oracle run.
    const auto ri = invoke(
        [&](auto&&... a) { return session.resimulate({rtp_idx}, a...); },
        outs, 99);
    const auto rc = invoke(
        [&](auto&&... a) {
          return aiesim::oracle::simulate(view, cfg, a...);
        },
        outs_chk, 99);
    if (ri.trace.digest() != rc.trace.digest() ||
        ri.virtual_cycles != rc.virtual_cycles ||
        ri.output_items != rc.output_items || outs != outs_chk) {
      g_digest_ok = false;
    }
  }
  row.speedup = row.warm_s > 0 ? row.cold_s / row.warm_s : 0;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::wall_anchor();
  const std::string out_dir = benchutil::strip_out_dir(argc, argv);
  const int iters = argc > 1 ? std::max(1, std::atoi(argv[1])) : 40;
  const std::string json_path = benchutil::join_out(
      out_dir, argc > 2 ? argv[2] : "BENCH_resim.json");
  const double min_warm = argc > 3 ? std::atof(argv[3]) : 3.0;
  const double min_resim = argc > 4 ? std::atof(argv[4]) : 10.0;
  // The acceptance thresholds are 3x / 10x; a run with relaxed bars (the
  // ctest smoke) records that it did not enforce them.
  const bool gate_enforced = min_warm >= 3.0 && min_resim >= 10.0;

  std::vector<Row> rows;
  for (const int depth : {64, 128, 256}) {
    bench_warm_rerun(depth, iters, rows);
  }
  double log_sum = 0;
  int n_gated = 0;
  for (const Row& r : rows) {
    if (r.phase != "warm_rerun") continue;  // warm_full rows are ungated
    log_sum += std::log(std::max(r.speedup, 1e-9));
    ++n_gated;
  }
  const double warm_geomean = std::exp(log_sum / std::max(1, n_gated));

  rows.push_back(bench_rtp_sweep(8, std::max(4, iters / 2)));
  const double resim_speedup = rows.back().speedup;

  std::printf(
      "\ncompiled-graph + cone re-simulation ablation (%d iterations):\n\n",
      iters);
  std::printf("%-12s %8s | %10s %10s %8s\n", "phase", "size", "cold(s)",
              "warm(s)", "speedup");
  std::printf("%.*s\n", 56,
              "--------------------------------------------------------");
  for (const Row& r : rows) {
    std::printf("%-12s %8d | %10.4f %10.4f %7.2fx\n", r.phase.c_str(),
                r.size, r.cold_s, r.warm_s, r.speedup);
  }
  const bool warm_ok = warm_geomean >= min_warm;
  const bool resim_ok = resim_speedup >= min_resim;
  std::printf("\nwarm-rerun geomean: %.2fx (gate: >= %.2fx) %s\n",
              warm_geomean, min_warm, warm_ok ? "PASS" : "FAIL");
  std::printf("rtp-sweep speedup:  %.2fx (gate: >= %.2fx) %s\n",
              resim_speedup, min_resim, resim_ok ? "PASS" : "FAIL");
  std::printf("digest vs reference: %s\n", g_digest_ok ? "PASS" : "FAIL");

  if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(f, "{\n");
    benchutil::emit_resource_fields(f);
    std::fprintf(f,
                 "  \"bench\": \"bench_ablation_resim\",\n"
                 "  \"hw_threads\": %u,\n"
                 "  \"gate_enforced\": %s,\n"
                 "  \"iters\": %d,\n"
                 "  \"min_warm_geomean\": %.2f,\n"
                 "  \"min_resim_speedup\": %.2f,\n"
                 "  \"warm_geomean\": %.3f,\n"
                 "  \"resim_speedup\": %.3f,\n"
                 "  \"digest_identical\": %s,\n"
                 "  \"rows\": [\n",
                 std::thread::hardware_concurrency(),
                 gate_enforced ? "true" : "false", iters, min_warm, min_resim,
                 warm_geomean, resim_speedup, g_digest_ok ? "true" : "false");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(f,
                   "    {\"phase\": \"%s\", \"size\": %d, \"cold_s\": %.5f, "
                   "\"warm_s\": %.5f, \"speedup\": %.3f}%s\n",
                   r.phase.c_str(), r.size, r.cold_s, r.warm_s, r.speedup,
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "FAIL: cannot write %s\n", json_path.c_str());
    return 1;
  }
  return g_digest_ok && warm_ok && resim_ok ? 0 : 1;
}

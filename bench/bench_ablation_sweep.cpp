// bench_ablation_sweep -- batch scenario-sweep engine ablation: N
// independent scenario variants of ONE compiled graph, executed
//
//   * serial       -- aiesim::simulate() per variant on the caller thread
//                     (warm compile cache: the honest single-thread
//                     alternative a sweep script has today),
//   * pooled       -- SweepRunner worker pool; every variant is a full
//                     run() on a warm ResimSession checked out of a
//                     SessionPool (exclusive leases, per-worker scratch
//                     vectors the variant's inputs are written into),
//   * pooled_resim -- same pool, but RTP-only variants go to a dedicated
//                     "rtp lane" of the session pool whose baseline was
//                     established with the base inputs, so each variant is
//                     a cone-limited resimulate({rtp}) instead of a full
//                     run. Seed variants still take the full-run lane.
//
// The variant set mixes V RTP-only variants (same inputs, swept runtime
// parameter) with S seed variants (perturbed input data), shuffled
// deterministically. Correctness is unconditional: every mode must produce
// the identical per-variant digest set (order-independent), and every RTP
// variant under pooled_resim must actually execute incrementally.
//
// Gates (thresholds from argv so the ctest smoke can relax them):
//   * pooled >= `min-pooled` (default 3x) over serial -- enforced only on
//     hosts with >= 4 hardware threads (gate_enforced records it);
//   * pooled_resim >= `min-resim` (default 1.3x) over pooled -- this is an
//     algorithmic win (cone re-simulation does ~1/chains of the work for
//     an RTP variant), so it is enforced even on one hardware thread
//     whenever min-resim > 0.
//
//   $ ./bench_ablation_sweep [variants [json [min-pooled [min-resim]]]]
//                            [--out dir]
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "aiesim/compiled.hpp"
#include "aiesim/engine.hpp"
#include "aiesim/resim.hpp"
#include "bench_common.hpp"
#include "core/cgsim.hpp"
#include "core/dynamic_graph.hpp"
#include "core/sweep.hpp"

namespace {

using namespace cgsim;

inline constexpr PortSettings sw_rtp{.rtp = true};

COMPUTE_KERNEL(aie, sw_inc,
               KernelReadPort<int> in,
               KernelWritePort<int> out) {
  while (true) co_await out.put(co_await in.get() + 1);
}

// Distinct handle for the RTP chain so cone records are identifiable.
COMPUTE_KERNEL(aie, sw_cone_inc,
               KernelReadPort<int> in,
               KernelWritePort<int> out) {
  while (true) co_await out.put(co_await in.get() + 1);
}

COMPUTE_KERNEL(aie, sw_scale,
               KernelReadPort<int> in,
               KernelReadPort<int, sw_rtp> factor,
               KernelWritePort<int> out) {
  while (true) {
    co_await out.put(co_await in.get() * co_await factor.get());
  }
}

constexpr int kChains = 8;   ///< compile-time: invoke() expands positionally
constexpr int kDepth = 6;    ///< kernels per chain
constexpr int kItems = 64;   ///< input items per sweep run
constexpr int kBaseRtp = 1;  ///< rtp value of the rtp-lane baseline

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::uint64_t fnv1a(const void* data, std::size_t n,
                    std::uint64_t h = 1469598103934665603ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// One scenario variant of the shared graph.
struct Variant {
  std::string name;
  bool rtp_only = false;  ///< base inputs, only the RTP differs
  int rtp_value = kBaseRtp;
  int seed = 0;  ///< perturbs the input data (0 = base inputs)
};

/// Deterministic variant mix: V rtp-only points interleaved with S seed
/// perturbations, so the pooled schedules see heterogeneous work.
std::vector<Variant> make_variants(int v_rtp, int v_seed) {
  std::vector<Variant> vs;
  vs.reserve(static_cast<std::size_t>(v_rtp + v_seed));
  int r = 0, s = 0;
  while (r < v_rtp || s < v_seed) {
    for (int k = 0; k < 3 && r < v_rtp; ++k, ++r) {
      vs.push_back(Variant{"rtp_" + std::to_string(r), true, r + 2, 0});
    }
    if (s < v_seed) {
      vs.push_back(Variant{"seed_" + std::to_string(s), false, 7, s + 1});
      ++s;
    }
  }
  return vs;
}

/// Input image for a seed, written straight into the worker's reused
/// input vector (sized on its first job, so later jobs do not allocate).
void fill_inputs(std::vector<int>& in, int seed) {
  in.resize(kItems);
  for (int i = 0; i < kItems; ++i) {
    in[static_cast<std::size_t>(i)] =
        (i - kItems / 2) + seed * 31 + (seed != 0 ? i % 7 : 0);
  }
}

/// Per-worker scratch: input/output vectors sized once and reused, so a
/// slot performs no allocation after its first job.
struct Scratch {
  std::vector<int> in;
  std::array<std::vector<int>, kChains> outs;
};

/// Expands fn(in x kChains, rtp, out x kChains) positionally.
template <class Fn>
aiesim::SimResult invoke_graph(Fn&& fn, std::vector<int>& in, int rtp_value,
                               std::array<std::vector<int>, kChains>& outs) {
  for (auto& v : outs) v.clear();
  return [&]<std::size_t... I, std::size_t... O>(std::index_sequence<I...>,
                                                 std::index_sequence<O...>) {
    return fn(((void)I, in)..., rtp_value, outs[O]...);
  }(std::make_index_sequence<kChains>{}, std::make_index_sequence<kChains>{});
}

std::uint64_t digest_of(const aiesim::SimResult& r,
                        const std::array<std::vector<int>, kChains>& outs) {
  std::uint64_t h = fnv1a(&r.virtual_cycles, sizeof r.virtual_cycles);
  const std::uint64_t td = r.trace.digest();
  h = fnv1a(&td, sizeof td, h);
  for (const std::vector<int>& o : outs) {
    h = fnv1a(o.data(), o.size() * sizeof(int), h);
  }
  return h;
}

/// Builds the shared graph: chain 0 = sw_scale(rtp) -> sw_cone_inc^(d-1),
/// chains 1.. = sw_inc^d. Inputs (in_0 .. in_{kChains-1}, rtp).
void build_graph(rt::DynamicGraphBuilder& b) {
  int in0 = b.add_edge<int>();
  b.add_input(in0);
  const int rtp = b.add_edge<int>(1, sw_rtp);
  int prev = b.add_edge<int>();
  b.add_kernel(sw_scale, {in0, rtp, prev});
  for (int i = 1; i < kDepth; ++i) {
    const int next = b.add_edge<int>();
    b.add_kernel(sw_cone_inc, {prev, next});
    prev = next;
  }
  b.add_output(prev);
  for (int c = 1; c < kChains; ++c) {
    int p = b.add_edge<int>();
    b.add_input(p);
    for (int i = 0; i < kDepth; ++i) {
      const int next = b.add_edge<int>();
      b.add_kernel(sw_inc, {p, next});
      p = next;
    }
    b.add_output(p);
  }
  b.add_input(rtp);  // last input: index kChains
}

constexpr std::size_t kRtpInputIdx = kChains;

// Session-pool lanes: rtp lane sessions hold a baseline established with
// the base inputs and are only ever resimulate()d, so a full-run variant
// can never corrupt the baseline the cone splice depends on.
enum : int { kLaneRtp = 0, kLaneFull = 1 };

struct ModeOutcome {
  SweepReport report;
  bool every_rtp_incremental = true;
};

using Pool = SessionPool<int, aiesim::ResimSession>;

/// Runs one variant on a leased session; establishes the rtp-lane
/// baseline when the lease is fresh.
SweepVariantRow run_variant(const Variant& v, Pool& pool, bool use_resim,
                            const GraphView& view,
                            const aiesim::SimConfig& cfg, Scratch& scratch,
                            bool& rtp_incremental) {
  const auto t0 = std::chrono::steady_clock::now();
  aiesim::SimResult r;
  bool incremental = false;
  const auto make = [&] {
    return std::make_unique<aiesim::ResimSession>(view, cfg);
  };
  if (use_resim && v.rtp_only) {
    auto lease = pool.checkout(kLaneRtp, make);
    if (lease.fresh()) {
      fill_inputs(scratch.in, 0);
      (void)invoke_graph(
          [&](auto&&... a) { return lease->run(a...); }, scratch.in,
          kBaseRtp, scratch.outs);
    }
    fill_inputs(scratch.in, 0);
    r = invoke_graph(
        [&](auto&&... a) { return lease->resimulate({kRtpInputIdx}, a...); },
        scratch.in, v.rtp_value, scratch.outs);
    incremental = lease->last_was_incremental();
    if (!incremental) rtp_incremental = false;
  } else {
    auto lease = pool.checkout(kLaneFull, make);
    fill_inputs(scratch.in, v.seed);
    r = invoke_graph([&](auto&&... a) { return lease->run(a...); },
                     scratch.in, v.rtp_value, scratch.outs);
  }
  SweepVariantRow row;
  row.name = v.name;
  row.cycles = r.virtual_cycles;
  row.digest = digest_of(r, scratch.outs);
  row.incremental = incremental;
  row.seconds = seconds_since(t0);
  return row;
}

/// serial: simulate() per variant on this thread.
ModeOutcome sweep_serial(const std::vector<Variant>& variants,
                         const GraphView& view,
                         const aiesim::SimConfig& cfg) {
  ModeOutcome out;
  out.report.workers = 1;
  Scratch scratch;
  const auto t0 = std::chrono::steady_clock::now();
  for (const Variant& v : variants) {
    const auto v0 = std::chrono::steady_clock::now();
    fill_inputs(scratch.in, v.seed);
    const aiesim::SimResult r = invoke_graph(
        [&](auto&&... a) { return aiesim::simulate(view, cfg, a...); },
        scratch.in, v.rtp_value, scratch.outs);
    SweepVariantRow row;
    row.name = v.name;
    row.cycles = r.virtual_cycles;
    row.digest = digest_of(r, scratch.outs);
    row.seconds = seconds_since(v0);
    out.report.rows.push_back(std::move(row));
  }
  out.report.wall_s = seconds_since(t0);
  return out;
}

/// pooled / pooled_resim: SweepRunner fan-out over leased warm sessions,
/// aggregated into the report on the caller thread.
ModeOutcome sweep_pooled(const std::vector<Variant>& variants,
                         SweepRunner& runner, Pool& pool, bool use_resim,
                         const GraphView& view,
                         const aiesim::SimConfig& cfg) {
  ModeOutcome out;
  out.report.workers = runner.workers();
  std::vector<Scratch> scratch(static_cast<std::size_t>(runner.workers()));
  std::atomic<bool> rtp_incremental{true};
  const auto t0 = std::chrono::steady_clock::now();
  runner.run_batch(
      variants.size(),
      [&](std::size_t i, SweepRunner::WorkerSlot& slot) {
        bool inc_ok = true;
        SweepVariantRow row = run_variant(
            variants[i], pool, use_resim, view, cfg,
            scratch[static_cast<std::size_t>(slot.worker)], inc_ok);
        if (!inc_ok) rtp_incremental.store(false, std::memory_order_relaxed);
        return row;
      },
      [&](std::size_t, SweepVariantRow row) {
        out.report.rows.push_back(std::move(row));
      });
  out.report.wall_s = seconds_since(t0);
  out.every_rtp_incremental = rtp_incremental.load();
  return out;
}

/// Order-independent row comparison: both modes must have produced the
/// same (name -> digest, cycles) mapping.
bool rows_equal(const SweepReport& a, const SweepReport& b) {
  if (a.rows.size() != b.rows.size()) return false;
  auto key = [](const SweepVariantRow& r) { return r.name; };
  std::vector<SweepVariantRow> sa = a.rows, sb = b.rows;
  auto by_name = [&](const SweepVariantRow& x, const SweepVariantRow& y) {
    return key(x) < key(y);
  };
  std::sort(sa.begin(), sa.end(), by_name);
  std::sort(sb.begin(), sb.end(), by_name);
  for (std::size_t i = 0; i < sa.size(); ++i) {
    if (sa[i].name != sb[i].name || sa[i].digest != sb[i].digest ||
        sa[i].cycles != sb[i].cycles) {
      return false;
    }
  }
  return a.combined_digest() == b.combined_digest();
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::wall_anchor();
  const std::string out_dir = benchutil::strip_out_dir(argc, argv);
  const int n_variants = argc > 1 ? std::max(4, std::atoi(argv[1])) : 40;
  const std::string json_path = benchutil::join_out(
      out_dir, argc > 2 ? argv[2] : "BENCH_sweep.json");
  const double min_pooled = argc > 3 ? std::atof(argv[3]) : 3.0;
  const double min_resim = argc > 4 ? std::atof(argv[4]) : 1.3;

  const unsigned hw = std::thread::hardware_concurrency();
  const int workers = hw >= 4 ? 4 : std::max(1, static_cast<int>(hw));
  // The parallel gate needs real cores; the resim gate is algorithmic
  // (cone re-simulation does ~1/kChains of the work) and holds on any
  // host, so only an explicit 0 from the smoke invocation relaxes it.
  const bool gate_enforced = hw >= 4 && min_pooled >= 3.0;
  const bool resim_gate = min_resim > 0.0;

  const int v_seed = std::max(2, n_variants / 4);
  const int v_rtp = std::max(2, n_variants - v_seed);
  const std::vector<Variant> variants = make_variants(v_rtp, v_seed);

  rt::DynamicGraphBuilder b;
  build_graph(b);
  const GraphView view = b.view();
  aiesim::SimConfig cfg;
  aiesim::CompiledGraphCache::instance().clear();

  std::printf("-- scenario sweep: %zu variants (%d rtp-only, %d seed), "
              "%d workers, %u hw threads --\n",
              variants.size(), v_rtp, v_seed, workers, hw);

  const ModeOutcome serial = sweep_serial(variants, view, cfg);

  SweepRunner runner{workers};
  Pool pool_full;
  const ModeOutcome pooled =
      sweep_pooled(variants, runner, pool_full, false, view, cfg);
  Pool pool_resim;
  const ModeOutcome resim =
      sweep_pooled(variants, runner, pool_resim, true, view, cfg);

  const double pooled_speedup =
      pooled.report.wall_s > 0 ? serial.report.wall_s / pooled.report.wall_s
                               : 0;
  const double resim_extra = resim.report.wall_s > 0
                                 ? pooled.report.wall_s / resim.report.wall_s
                                 : 0;

  const bool digest_ok = rows_equal(serial.report, pooled.report) &&
                         rows_equal(serial.report, resim.report);
  const bool incremental_ok =
      resim.every_rtp_incremental &&
      resim.report.incremental_runs() == static_cast<std::uint64_t>(v_rtp);

  const auto cache = aiesim::CompiledGraphCache::instance().stats();

  std::printf("serial:        %9.4f s  (%6.1f variants/s)\n",
              serial.report.wall_s, serial.report.variants_per_sec());
  std::printf("pooled:        %9.4f s  (%6.1f variants/s, %.2fx)\n",
              pooled.report.wall_s, pooled.report.variants_per_sec(),
              pooled_speedup);
  std::printf("pooled+resim:  %9.4f s  (%6.1f variants/s, %.2fx over "
              "pooled, %llu incremental)\n",
              resim.report.wall_s, resim.report.variants_per_sec(),
              resim_extra,
              static_cast<unsigned long long>(
                  resim.report.incremental_runs()));
  std::printf("sessions: full-lane created %llu reused %llu; resim-lane "
              "created %llu reused %llu\n",
              static_cast<unsigned long long>(pool_full.created()),
              static_cast<unsigned long long>(pool_full.reused()),
              static_cast<unsigned long long>(pool_resim.created()),
              static_cast<unsigned long long>(pool_resim.reused()));
  std::printf("compiled cache: %llu hits / %llu misses\n",
              static_cast<unsigned long long>(cache.hits),
              static_cast<unsigned long long>(cache.misses));

  const bool pooled_ok = !gate_enforced || pooled_speedup >= min_pooled;
  const bool resim_ok = !resim_gate || resim_extra >= min_resim;
  if (gate_enforced) {
    std::printf("pooled gate (>= %.2fx): %s\n", min_pooled,
                pooled_ok ? "PASS" : "FAIL");
  } else {
    std::printf("pooled gate (>= %.2fx): skipped (hw_threads=%u < 4 or "
                "relaxed bar)\n",
                min_pooled, hw);
  }
  std::printf("resim gate (>= %.2fx over pooled): %s\n", min_resim,
              resim_gate ? (resim_ok ? "PASS" : "FAIL") : "skipped");
  std::printf("digests identical across modes: %s\n",
              digest_ok ? "PASS" : "FAIL");
  std::printf("rtp variants incremental: %s\n",
              incremental_ok ? "PASS" : "FAIL");

  if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(f, "{\n");
    benchutil::emit_resource_fields(f);
    std::fprintf(
        f,
        "  \"bench\": \"bench_ablation_sweep\",\n"
        "  \"hw_threads\": %u,\n"
        "  \"gate_enforced\": %s,\n"
        "  \"workers\": %d,\n"
        "  \"variants_rtp\": %d,\n"
        "  \"variants_seed\": %d,\n"
        "  \"min_pooled_speedup\": %.2f,\n"
        "  \"min_resim_speedup\": %.2f,\n"
        "  \"serial_s\": %.6f,\n"
        "  \"pooled_s\": %.6f,\n"
        "  \"pooled_resim_s\": %.6f,\n"
        "  \"pooled_speedup\": %.3f,\n"
        "  \"resim_extra_speedup\": %.3f,\n"
        "  \"variants_per_sec_serial\": %.2f,\n"
        "  \"variants_per_sec_pooled\": %.2f,\n"
        "  \"variants_per_sec_pooled_resim\": %.2f,\n"
        "  \"digest_identical\": %s,\n"
        "  \"incremental_runs\": %llu,\n"
        "  \"sessions_created_full\": %llu,\n"
        "  \"sessions_reused_full\": %llu,\n"
        "  \"sessions_created_resim\": %llu,\n"
        "  \"sessions_reused_resim\": %llu,\n"
        "  \"compiled_cache_hits\": %llu,\n"
        "  \"compiled_cache_misses\": %llu,\n"
        "  \"combined_digest\": %llu,\n"
        "  \"rows\": [\n",
        hw, gate_enforced ? "true" : "false", workers, v_rtp, v_seed,
        min_pooled, min_resim, serial.report.wall_s, pooled.report.wall_s,
        resim.report.wall_s, pooled_speedup, resim_extra,
        serial.report.variants_per_sec(), pooled.report.variants_per_sec(),
        resim.report.variants_per_sec(), digest_ok ? "true" : "false",
        static_cast<unsigned long long>(resim.report.incremental_runs()),
        static_cast<unsigned long long>(pool_full.created()),
        static_cast<unsigned long long>(pool_full.reused()),
        static_cast<unsigned long long>(pool_resim.created()),
        static_cast<unsigned long long>(pool_resim.reused()),
        static_cast<unsigned long long>(cache.hits),
        static_cast<unsigned long long>(cache.misses),
        static_cast<unsigned long long>(resim.report.combined_digest()));
    for (std::size_t i = 0; i < resim.report.rows.size(); ++i) {
      const SweepVariantRow& r = resim.report.rows[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"cycles\": %llu, \"digest\": "
                   "%llu, \"incremental\": %s, \"seconds\": %.6f}%s\n",
                   r.name.c_str(),
                   static_cast<unsigned long long>(r.cycles),
                   static_cast<unsigned long long>(r.digest),
                   r.incremental ? "true" : "false", r.seconds,
                   i + 1 < resim.report.rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "FAIL: cannot write %s\n", json_path.c_str());
    return 1;
  }
  return digest_ok && incremental_ok && pooled_ok && resim_ok ? 0 : 1;
}

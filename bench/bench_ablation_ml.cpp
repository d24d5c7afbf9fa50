// bench_ablation_ml -- ablation of the AIE emulation execution backend on
// the ML kernel workload family (src/apps/ml_gemm.hpp, conv2d.hpp,
// softmax.hpp): scalar per-lane loops vs the vector-extension SIMD backend,
// crossed with instrumentation (no counter attached vs a per-activation
// ScopedCounterBatch), on the int8 dot-product GEMM tile, the 3x3 conv2d
// row and the fixed-point softmax block.
//
// Besides the google-benchmark suites, the binary runs the fixed 3x4
// ablation, checks that the three graphs produce byte-identical outputs
// under serial coop and coop_mt, and writes the results to a
// machine-readable JSON file:
//
//   bench_ablation_ml [--out <dir>] [BENCH_ml.json [iters [min_speedup]]]
//
// Exit code is non-zero when the uninstrumented SIMD-over-scalar geomean
// across the three kernels falls below `min_speedup` (default 3.0; the
// bench_smoke ctest entry relaxes the bar for its tiny workload), when any
// kernel's outputs differ between backends (the integer paths must be
// bit-exact), or when any execution mode's graph digest diverges.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "aie/aie.hpp"
#include "bench_common.hpp"
#include "apps/conv2d.hpp"
#include "apps/ml_gemm.hpp"
#include "apps/softmax.hpp"
#include "core/cgsim.hpp"

namespace {

using Scalar = aie::simd::scalar_backend;
using Native = aie::simd::native_backend;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// FNV-1a over raw bytes: cheap, order-sensitive digest for the bit-exact
/// cross-backend output comparison.
std::uint64_t fnv1a(const void* p, std::size_t n, std::uint64_t h) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

struct RunResult {
  double seconds = 0;
  std::uint64_t digest = 0;
};

// ---- ml_gemm: 8 requantized int8 tile MACs per block ----

template <class B>
RunResult run_gemm(std::size_t iters, aie::OpCounter* counter,
                   bool want_digest) {
  constexpr std::size_t kBatch = 8;
  std::array<apps::ml_gemm::TilePair8, kBatch> q{};
  std::array<apps::ml_gemm::Tile32, kBatch> cin{};
  for (std::size_t i = 0; i < kBatch; ++i) {
    for (unsigned e = 0; e < 256; ++e) {
      q[i].a.m[e] = static_cast<std::int8_t>((e * 31 + i * 7) % 251);
      q[i].b.m[e] = static_cast<std::int8_t>((e * 17 + i * 13) % 241);
      cin[i].m[e] = static_cast<std::int32_t>((e * 101 + i * 997) % 65537) -
                    32768;
    }
  }
  RunResult res;
  // Escape the inputs: paired with the memory clobber in the in-loop
  // DoNotOptimize, this stops the compiler from hoisting the (otherwise
  // loop-invariant) kernel computation out of the timed loop.
  benchmark::DoNotOptimize(q.data());
  benchmark::DoNotOptimize(cin.data());
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t it = 0; it < iters; ++it) {
    aie::ScopedCounterBatch scoped{counter};
    for (std::size_t i = 0; i < kBatch; ++i) {
      const auto c = apps::ml_gemm::mac_tile<B>(cin[i], q[i].a, q[i].b);
      auto r = apps::ml_gemm::requantize<B>(c, 6);
      if (want_digest) {
        res.digest = fnv1a(r.m.data(), sizeof(r.m), res.digest);
      } else {
        benchmark::DoNotOptimize(r);
      }
    }
  }
  res.seconds = seconds_since(t0);
  return res;
}

// ---- conv2d: 32 convolved + requantized rows per block ----

template <class B>
RunResult run_conv(std::size_t iters, aie::OpCounter* counter,
                   bool want_digest) {
  constexpr std::size_t kBatch = 32;
  std::array<apps::conv2d::Padded, kBatch + 2> rows{};
  apps::conv2d::PartialRow base{};
  apps::conv2d::Weights w{};
  for (std::size_t r = 0; r < kBatch + 2; ++r) {
    for (unsigned x = 1; x <= apps::conv2d::kW; ++x) {
      rows[r][x] = static_cast<std::int8_t>((x * 37 + r * 11) % 239);
    }
  }
  for (unsigned x = 0; x < apps::conv2d::kW; ++x) {
    base.px[x] = static_cast<std::int32_t>(x * 523) - 16384;
  }
  for (unsigned i = 0; i < 9; ++i) w.w[i] = static_cast<std::int8_t>(5 - i);
  RunResult res;
  // Escape the inputs: see run_gemm.
  benchmark::DoNotOptimize(rows.data());
  benchmark::DoNotOptimize(&base);
  benchmark::DoNotOptimize(&w);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t it = 0; it < iters; ++it) {
    aie::ScopedCounterBatch scoped{counter};
    for (std::size_t i = 0; i < kBatch; ++i) {
      const auto p = apps::conv2d::conv_row<B>(rows[i], rows[i + 1],
                                               rows[i + 2], w, &base);
      auto r = apps::conv2d::requant_row<B>(p, apps::conv2d::kShift);
      if (want_digest) {
        res.digest = fnv1a(r.px.data(), sizeof(r.px), res.digest);
      } else {
        benchmark::DoNotOptimize(r);
      }
    }
  }
  res.seconds = seconds_since(t0);
  return res;
}

// ---- softmax: 32 fixed-point softmax blocks per block ----

template <class B>
RunResult run_softmax(std::size_t iters, aie::OpCounter* counter,
                      bool want_digest) {
  constexpr std::size_t kBatch = 32;
  std::array<apps::softmax::Block, kBatch> q{};
  for (std::size_t i = 0; i < kBatch; ++i) {
    for (unsigned e = 0; e < apps::softmax::kN; ++e) {
      q[i].x[e] = static_cast<std::int8_t>((e * 53 + i * 19) % 255);
    }
  }
  RunResult res;
  // Escape the inputs: see run_gemm.
  benchmark::DoNotOptimize(q.data());
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t it = 0; it < iters; ++it) {
    aie::ScopedCounterBatch scoped{counter};
    for (std::size_t i = 0; i < kBatch; ++i) {
      auto r = apps::softmax::softmax_block<B>(q[i]);
      if (want_digest) {
        res.digest = fnv1a(r.x.data(), sizeof(r.x), res.digest);
      } else {
        benchmark::DoNotOptimize(r);
      }
    }
  }
  res.seconds = seconds_since(t0);
  return res;
}

// ---------------------------------------------------------------------------
// google-benchmark suites (filterable; the smoke test runs one of these).
// ---------------------------------------------------------------------------

void BM_MlGemmScalar(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_gemm<Scalar>(1, nullptr, false).seconds);
  }
}
BENCHMARK(BM_MlGemmScalar);

void BM_MlGemmNative(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_gemm<Native>(1, nullptr, false).seconds);
  }
}
BENCHMARK(BM_MlGemmNative);

void BM_SoftmaxScalar(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_softmax<Scalar>(1, nullptr, false).seconds);
  }
}
BENCHMARK(BM_SoftmaxScalar);

void BM_SoftmaxNative(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_softmax<Native>(1, nullptr, false).seconds);
  }
}
BENCHMARK(BM_SoftmaxNative);

// ---------------------------------------------------------------------------
// Execution-mode digest identity: the three ML graphs must produce
// byte-identical outputs under serial coop and coop_mt (the integer
// pipelines make any divergence a scheduling bug).
// ---------------------------------------------------------------------------

template <class T>
std::uint64_t vec_digest(const std::vector<T>& v) {
  return fnv1a(v.data(), v.size() * sizeof(T), 0xcbf29ce484222325ull);
}

int check_exec_modes() {
  using cgsim::ExecMode;
  using cgsim::RunOptions;
  const RunOptions mt2{.mode = ExecMode::coop_mt, .repetitions = 1,
                       .workers = 2};
  int failures = 0;

  {  // ml_gemm
    std::array<std::vector<apps::ml_gemm::TilePair8>, 8> feeds;
    for (std::size_t fi = 0; fi < feeds.size(); ++fi) {
      for (unsigned i = 0; i < 3; ++i) {
        apps::ml_gemm::TilePair8 p;
        for (unsigned e = 0; e < 256; ++e) {
          p.a.m[e] = static_cast<std::int8_t>((e * 29 + fi * 3 + i) % 253);
          p.b.m[e] = static_cast<std::int8_t>((e * 43 + fi * 7 + i) % 247);
        }
        feeds[fi].push_back(p);
      }
    }
    std::vector<apps::ml_gemm::Tile8> s0, s1, m0, m1;
    apps::ml_gemm::graph(feeds[0], feeds[1], feeds[2], feeds[3], feeds[4],
                         feeds[5], feeds[6], feeds[7], 6, 6, s0, s1);
    apps::ml_gemm::graph.run(mt2, feeds[0], feeds[1], feeds[2], feeds[3],
                             feeds[4], feeds[5], feeds[6], feeds[7], 6, 6, m0,
                             m1);
    if (vec_digest(s0) != vec_digest(m0) || vec_digest(s1) != vec_digest(m1)) {
      std::fprintf(stderr, "FAIL: ml_gemm graph digests diverge across "
                           "execution modes\n");
      ++failures;
    }
  }

  {  // conv2d
    std::array<std::vector<apps::conv2d::Row>, apps::conv2d::kChannels> img;
    std::array<apps::conv2d::Weights, apps::conv2d::kChannels> w{};
    for (std::size_t ch = 0; ch < img.size(); ++ch) {
      for (unsigned y = 0; y < 8; ++y) {
        apps::conv2d::Row r;
        for (unsigned x = 0; x < apps::conv2d::kW; ++x) {
          r.px[x] = static_cast<std::int8_t>((x * 59 + y * 13 + ch) % 251);
        }
        img[ch].push_back(r);
      }
      for (unsigned i = 0; i < 9; ++i) {
        w[ch].w[i] = static_cast<std::int8_t>(static_cast<int>(i + ch) - 4);
      }
    }
    std::vector<apps::conv2d::Row> s, m;
    apps::conv2d::graph(img[0], img[1], img[2], img[3], w[0], w[1], w[2],
                        w[3], s);
    apps::conv2d::graph.run(mt2, img[0], img[1], img[2], img[3], w[0], w[1],
                            w[2], w[3], m);
    if (vec_digest(s) != vec_digest(m)) {
      std::fprintf(stderr, "FAIL: conv2d graph digests diverge across "
                           "execution modes\n");
      ++failures;
    }
  }

  {  // softmax
    std::vector<apps::softmax::Block> in(12);
    for (std::size_t i = 0; i < in.size(); ++i) {
      for (unsigned e = 0; e < apps::softmax::kN; ++e) {
        in[i].x[e] = static_cast<std::int8_t>((e * 67 + i * 5) % 249);
      }
    }
    std::vector<apps::softmax::Block> s, m;
    apps::softmax::graph(in, s);
    apps::softmax::graph.run(mt2, in, m);
    if (vec_digest(s) != vec_digest(m)) {
      std::fprintf(stderr, "FAIL: softmax graph digests diverge across "
                           "execution modes\n");
      ++failures;
    }
  }
  return failures;
}

// ---------------------------------------------------------------------------
// Fixed ablation with JSON output (tracked across PRs).
// ---------------------------------------------------------------------------

struct KernelRow {
  const char* name;
  RunResult (*scalar_run)(std::size_t, aie::OpCounter*, bool);
  RunResult (*native_run)(std::size_t, aie::OpCounter*, bool);
  double scalar_uninst = 0, native_uninst = 0;
  double scalar_inst = 0, native_inst = 0;
  std::uint64_t scalar_ops = 0, native_ops = 0;
};

int run_ablation(const std::string& json_path, std::size_t iters,
                 double min_speedup) {
  std::array<KernelRow, 3> rows{{
      {"ml_gemm_int8", &run_gemm<Scalar>, &run_gemm<Native>},
      {"conv2d_int8", &run_conv<Scalar>, &run_conv<Native>},
      {"softmax_q15", &run_softmax<Scalar>, &run_softmax<Native>},
  }};

  int failures = check_exec_modes();
  const bool exec_modes_identical = failures == 0;

  for (auto& row : rows) {
    // Warm-up + bit-exactness / op-count-identity check in one pass.
    aie::OpCounter cs{}, cn{};
    const auto ws = row.scalar_run(iters / 8 + 1, &cs, true);
    const auto wn = row.native_run(iters / 8 + 1, &cn, true);
    if (ws.digest != wn.digest) {
      std::fprintf(stderr, "FAIL: %s outputs differ between backends\n",
                   row.name);
      ++failures;
    }
    if (!(cs.counts == cn.counts)) {
      std::fprintf(stderr, "FAIL: %s OpCounts differ between backends\n",
                   row.name);
      ++failures;
    }
    row.scalar_ops = cs.counts.total();
    row.native_ops = cn.counts.total();

    // Best-of-R timing: single-core CI containers are noisy, and a single
    // sample per configuration can swing a ratio by 2x.
    constexpr int kRepeats = 5;
    const auto best =
        [iters](RunResult (*fn)(std::size_t, aie::OpCounter*, bool),
                aie::OpCounter* c) {
          double m = fn(iters, c, false).seconds;
          for (int r = 1; r < kRepeats; ++r)
            m = std::min(m, fn(iters, c, false).seconds);
          return m;
        };
    row.scalar_uninst = best(row.scalar_run, nullptr);
    row.native_uninst = best(row.native_run, nullptr);
    aie::OpCounter tmp{};
    row.scalar_inst = best(row.scalar_run, &tmp);
    row.native_inst = best(row.native_run, &tmp);
  }

  double log_sum_uninst = 0, log_sum_inst = 0;
  std::printf("\n-- ML kernel SIMD ablation (%zu blocks/kernel) --\n", iters);
  std::printf("%-14s %12s %12s %9s %9s %10s\n", "kernel", "scalar_s",
              "native_s", "speedup", "inst_spd", "inst_ovhd");
  for (const auto& row : rows) {
    const double spd_uninst = row.scalar_uninst / row.native_uninst;
    const double spd_inst = row.scalar_inst / row.native_inst;
    const double ovhd = row.native_inst / row.native_uninst - 1.0;
    log_sum_uninst += std::log(spd_uninst);
    log_sum_inst += std::log(spd_inst);
    std::printf("%-14s %12.6f %12.6f %8.2fx %8.2fx %9.1f%%\n", row.name,
                row.scalar_uninst, row.native_uninst, spd_uninst, spd_inst,
                100.0 * ovhd);
  }
  const double geomean_uninst = std::exp(log_sum_uninst / rows.size());
  const double geomean_inst = std::exp(log_sum_inst / rows.size());
  std::printf("geomean speedup: %.2fx uninstrumented (required >= %.2fx), "
              "%.2fx instrumented\n",
              geomean_uninst, min_speedup, geomean_inst);
  std::printf("execution-mode digest identity: %s\n",
              exec_modes_identical ? "PASS" : "FAIL");

  if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(f, "{\n");
    benchutil::emit_resource_fields(f);
    std::fprintf(f,
                 "  \"bench\": \"bench_ablation_ml\",\n"
                 "  \"hw_threads\": %u,\n"
                 "  \"gate_enforced\": %s,\n"
                 "  \"default_backend\": \"%s\",\n"
                 "  \"exec_modes_identical\": %s,\n"
                 "  \"iters\": %zu,\n"
                 "  \"rows\": [\n",
                 std::thread::hardware_concurrency(),
                 min_speedup >= 3.0 ? "true" : "false",
                 aie::simd::backend::name,
                 exec_modes_identical ? "true" : "false", iters);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto& row = rows[i];
      std::fprintf(
          f,
          "    {\"kernel\": \"%s\",\n"
          "     \"scalar_uninstrumented_s\": %.6f,\n"
          "     \"native_uninstrumented_s\": %.6f,\n"
          "     \"scalar_instrumented_s\": %.6f,\n"
          "     \"native_instrumented_s\": %.6f,\n"
          "     \"speedup_uninstrumented\": %.3f,\n"
          "     \"speedup_instrumented\": %.3f,\n"
          "     \"instrumentation_overhead_native\": %.3f,\n"
          "     \"ops_recorded\": %llu}%s\n",
          row.name, row.scalar_uninst, row.native_uninst, row.scalar_inst,
          row.native_inst, row.scalar_uninst / row.native_uninst,
          row.scalar_inst / row.native_inst,
          row.native_inst / row.native_uninst - 1.0,
          static_cast<unsigned long long>(row.native_ops),
          i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n"
                 "  \"geomean_speedup_uninstrumented\": %.3f,\n"
                 "  \"geomean_speedup_instrumented\": %.3f,\n"
                 "  \"min_speedup_bar\": %.3f\n"
                 "}\n",
                 geomean_uninst, geomean_inst, min_speedup);
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "FAIL: cannot write %s\n", json_path.c_str());
    return 1;
  }

  if (geomean_uninst < min_speedup) {
    std::printf("FAIL: geomean speedup %.2fx below the %.2fx bar\n",
                geomean_uninst, min_speedup);
    ++failures;
  }
  if (failures == 0) std::printf("PASS\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::wall_anchor();
  benchmark::Initialize(&argc, argv);  // consumes --benchmark_* flags
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  const std::string out_dir = benchutil::strip_out_dir(argc, argv);
  const std::string json_path = benchutil::join_out(
      out_dir, argc > 1 ? argv[1] : "BENCH_ml.json");
  std::size_t iters = 400;  // blocks per kernel+config: ~seconds total
  if (argc > 2) iters = static_cast<std::size_t>(std::stoull(argv[2]));
  if (iters == 0) iters = 1;
  double min_speedup = 3.0;
  if (argc > 3) min_speedup = std::stod(argv[3]);
  return run_ablation(json_path, iters, min_speedup);
}

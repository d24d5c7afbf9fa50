// bench_ablation_channel -- microbenchmarks of the channel layer, ablating
// the design choices DESIGN.md calls out: cooperative vs mutex/cv channels
// (the cgsim-vs-x86sim primitive gap of paper Table 2), ring capacity,
// broadcast fan-out, scalar vs bulk transfers, and virtual vs
// devirtualized dispatch on the cooperative fast path.
//
// Besides the google-benchmark suites, the binary runs a fixed ablation
// (scalar/bulk x virtual/devirtualized, window-sized transfers) and writes
// the elements/s results to a machine-readable JSON file so successive PRs
// can track the trajectory:
//
//   bench_ablation_channel [BENCH_channel.json [total_elements]]
//
// Exit code is non-zero when the bulk path fails to reach the expected
// >= 2x elements/s over the scalar path on a 64-element window workload.
#include <benchmark/benchmark.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <coroutine>
#include <string>
#include <thread>
#include <vector>

#include "core/cgsim.hpp"
#include "bench_common.hpp"

namespace {

using namespace cgsim;

class NullExec final : public Executor {
 public:
  void make_ready(TaskHandle, std::uint64_t) override {}
};

/// Launders a channel pointer so the compiler cannot see the concrete type
/// behind it: calls through the result use the vtable, reproducing what
/// the port layer paid before it carried CoopChannel<T>* directly.
__attribute__((noinline)) TypedChannel<int>* opaque(TypedChannel<int>* ch) {
  asm volatile("" : "+r"(ch));
  return ch;
}

/// Cooperative channel: single-threaded push/pop pair throughput.
void BM_CoopChannelPushPop(benchmark::State& state) {
  NullExec ex;
  CoopChannel<int> ch{1, static_cast<int>(state.range(0)), &ex};
  ch.set_producers(1);
  int v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ch.try_push(42));
    benchmark::DoNotOptimize(ch.try_pop(0, v));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CoopChannelPushPop)->Arg(1)->Arg(8)->Arg(64)->Arg(1024);

/// Same access pattern through the type-erased interface: the virtual
/// dispatch cost the devirtualized port fast path removes.
void BM_CoopChannelPushPopVirtual(benchmark::State& state) {
  NullExec ex;
  CoopChannel<int> concrete{1, static_cast<int>(state.range(0)), &ex};
  concrete.set_producers(1);
  TypedChannel<int>* ch = opaque(&concrete);
  int v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ch->try_push(42));
    benchmark::DoNotOptimize(ch->try_pop(0, v));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CoopChannelPushPopVirtual)->Arg(64);

/// Bulk transfers: one try_push_n/try_pop_n pair moves a whole window.
void BM_CoopChannelBulkWindow(benchmark::State& state) {
  NullExec ex;
  const auto window = static_cast<std::size_t>(state.range(0));
  CoopChannel<int> ch{1, static_cast<int>(2 * window), &ex};
  ch.set_producers(1);
  std::vector<int> src(window, 42);
  std::vector<int> dst(window, 0);
  ChanStatus st{};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ch.try_push_n(src.data(), window, st));
    benchmark::DoNotOptimize(ch.try_pop_n(0, dst.data(), window, st));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(window));
}
BENCHMARK(BM_CoopChannelBulkWindow)->Arg(64)->Arg(1024);

/// Threaded channel under the same single-threaded access pattern: the
/// pure lock/notify cost difference.
void BM_ThreadedChannelPushPop(benchmark::State& state) {
  ThreadedChannel<int> ch{1, static_cast<int>(state.range(0))};
  ch.set_producers(1);
  int v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ch.blocking_push(42));
    benchmark::DoNotOptimize(ch.blocking_pop(0, v));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ThreadedChannelPushPop)->Arg(64);

/// Threaded channel with a real producer thread: cross-thread handoff.
void BM_ThreadedChannelCrossThread(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    ThreadedChannel<int> ch{1, 64};
    ch.set_producers(1);
    std::thread producer([&] {
      for (int i = 0; i < n; ++i) ch.blocking_push(i);
      ch.producer_done();
    });
    int v = 0;
    long got = 0;
    while (ch.blocking_pop(0, v)) ++got;
    producer.join();
    benchmark::DoNotOptimize(got);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ThreadedChannelCrossThread)->Arg(10000)->UseRealTime();

/// Broadcast fan-out: cost of one push + N pops as consumers increase.
void BM_CoopChannelBroadcast(benchmark::State& state) {
  NullExec ex;
  const int consumers = static_cast<int>(state.range(0));
  CoopChannel<int> ch{consumers, 64, &ex};
  ch.set_producers(1);
  int v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ch.try_push(7));
    for (int c = 0; c < consumers; ++c) {
      benchmark::DoNotOptimize(ch.try_pop(c, v));
    }
  }
  state.SetItemsProcessed(state.iterations() * consumers);
}
BENCHMARK(BM_CoopChannelBroadcast)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

/// Large elements: copy cost through the ring (window-sized blocks).
void BM_CoopChannelLargeElems(benchmark::State& state) {
  struct Big {
    std::array<float, 2048> data;
  };
  NullExec ex;
  CoopChannel<Big> ch{1, 4, &ex};
  ch.set_producers(1);
  Big b{};
  Big v{};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ch.try_push(b));
    benchmark::DoNotOptimize(ch.try_pop(0, v));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * sizeof(Big)));
}
BENCHMARK(BM_CoopChannelLargeElems);

// ---------------------------------------------------------------------------
// Fixed ablation with JSON output (tracked across PRs).
// ---------------------------------------------------------------------------

constexpr std::size_t kWindow = 64;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Scalar transfer of `total` elements in window-sized rounds, through the
/// concrete (devirtualized) channel type. Returns elements/s.
double measure_scalar_devirt(std::size_t total) {
  NullExec ex;
  CoopChannel<int> ch{1, 2 * kWindow, &ex};
  ch.set_producers(1);
  int v = 0;
  long sink = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t done = 0; done < total; done += kWindow) {
    for (std::size_t i = 0; i < kWindow; ++i) ch.try_push(static_cast<int>(i));
    for (std::size_t i = 0; i < kWindow; ++i) {
      ch.try_pop(0, v);
      sink += v;
    }
  }
  const double s = seconds_since(t0);
  benchmark::DoNotOptimize(sink);
  return static_cast<double>(total) / s;
}

/// Scalar transfer through the type-erased interface (virtual dispatch).
double measure_scalar_virtual(std::size_t total) {
  NullExec ex;
  CoopChannel<int> concrete{1, 2 * kWindow, &ex};
  concrete.set_producers(1);
  TypedChannel<int>* ch = opaque(&concrete);
  int v = 0;
  long sink = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t done = 0; done < total; done += kWindow) {
    for (std::size_t i = 0; i < kWindow; ++i) {
      ch->try_push(static_cast<int>(i));
    }
    for (std::size_t i = 0; i < kWindow; ++i) {
      ch->try_pop(0, v);
      sink += v;
    }
  }
  const double s = seconds_since(t0);
  benchmark::DoNotOptimize(sink);
  return static_cast<double>(total) / s;
}

/// Bulk transfer: one try_push_n/try_pop_n pair per window.
double measure_bulk(std::size_t total) {
  NullExec ex;
  CoopChannel<int> ch{1, 2 * kWindow, &ex};
  ch.set_producers(1);
  std::array<int, kWindow> src{};
  std::array<int, kWindow> dst{};
  for (std::size_t i = 0; i < kWindow; ++i) src[i] = static_cast<int>(i);
  ChanStatus st{};
  long sink = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t done = 0; done < total; done += kWindow) {
    ch.try_push_n(src.data(), kWindow, st);
    ch.try_pop_n(0, dst.data(), kWindow, st);
    sink += dst[kWindow - 1];
  }
  const double s = seconds_since(t0);
  benchmark::DoNotOptimize(sink);
  return static_cast<double>(total) / s;
}

int run_ablation(const std::string& json_path, std::size_t total) {
  // Warm up each path once so page faults and frequency scaling do not
  // land inside the measured run.
  measure_scalar_devirt(total / 8 + kWindow);
  measure_scalar_virtual(total / 8 + kWindow);
  measure_bulk(total / 8 + kWindow);

  const double scalar_eps = measure_scalar_devirt(total);
  const double virtual_eps = measure_scalar_virtual(total);
  const double bulk_eps = measure_bulk(total);
  const double bulk_speedup = bulk_eps / scalar_eps;
  const double devirt_speedup = scalar_eps / virtual_eps;

  std::printf("\n-- channel ablation (window=%zu, %zu elements) --\n", kWindow,
              total);
  std::printf("scalar (devirtualized): %12.0f elems/s\n", scalar_eps);
  std::printf("scalar (virtual):       %12.0f elems/s\n", virtual_eps);
  std::printf("bulk   (get_n/put_n):   %12.0f elems/s\n", bulk_eps);
  std::printf("bulk vs scalar:    %.2fx (required >= 2.0x)\n", bulk_speedup);
  std::printf("devirt vs virtual: %.2fx\n", devirt_speedup);

  if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(f, "{\n");
    benchutil::emit_resource_fields(f);
    std::fprintf(f,
                 "  \"bench\": \"bench_ablation_channel\",\n"
                 "  \"hw_threads\": %u,\n"
                 "  \"gate_enforced\": true,\n"
                 "  \"window\": %zu,\n"
                 "  \"total_elements\": %zu,\n"
                 "  \"scalar_devirt_elems_per_s\": %.0f,\n"
                 "  \"scalar_virtual_elems_per_s\": %.0f,\n"
                 "  \"bulk_elems_per_s\": %.0f,\n"
                 "  \"bulk_speedup_vs_scalar\": %.3f,\n"
                 "  \"devirt_speedup_vs_virtual\": %.3f\n"
                 "}\n",
                 std::thread::hardware_concurrency(),
                 kWindow, total, scalar_eps, virtual_eps, bulk_eps,
                 bulk_speedup, devirt_speedup);
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "FAIL: cannot write %s\n", json_path.c_str());
    return 1;
  }

  if (bulk_speedup < 2.0) {
    std::printf("FAIL: bulk speedup %.2fx below the 2x bar\n", bulk_speedup);
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::wall_anchor();
  benchmark::Initialize(&argc, argv);  // consumes --benchmark_* flags
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  const std::string out_dir = benchutil::strip_out_dir(argc, argv);
  const std::string json_path = benchutil::join_out(
      out_dir, argc > 1 ? argv[1] : "BENCH_channel.json");
  std::size_t total = 8u << 20;  // 8M elements: ~10ms/path, stable ratios
  if (argc > 2) total = static_cast<std::size_t>(std::stoull(argv[2]));
  if (total < kWindow) total = kWindow;
  return run_ablation(json_path, total);
}

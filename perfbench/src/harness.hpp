// perfbench -- shared harness: options, seeded inputs, statistics, span
// tracing and the result report every workload fills in.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
[[nodiscard]] inline double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-check size: small inputs, short runs. Not for measurement.
  bool tiny = false;
  /// Self-check only: perturbs one expected value so the output check
  /// must fail.
  bool inject_fault = false;
  std::string trace_out;  ///< Chrome trace-event JSON path (traced runs)
};

/// splitmix64: the only source of workload inputs. Same seed, same inputs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform integer in [lo, hi].
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    next() % static_cast<std::uint64_t>(hi - lo + 1));
  }
  /// Uniform float in [lo, hi).
  float uniform(float lo, float hi) {
    return lo + (hi - lo) * static_cast<float>(next() >> 40) /
                    static_cast<float>(1ull << 24);
  }

 private:
  std::uint64_t s_;
};

/// FNV-1a over the bytes of `v`, chained from `h`: output identity checks.
template <class T>
[[nodiscard]] std::uint64_t hash_of(const std::vector<T>& v,
                                    std::uint64_t h = 1469598103934665603ull) {
  const auto* p = reinterpret_cast<const unsigned char*>(v.data());
  for (std::size_t i = 0; i < v.size() * sizeof(T); ++i) {
    h = (h ^ p[i]) * 1099511628211ull;
  }
  return h;
}

/// The bytes of an int stream, as the service's outputs_digest takes them.
[[nodiscard]] inline std::string bytes_of(const std::vector<int>& v) {
  return {reinterpret_cast<const char*>(v.data()), v.size() * sizeof(int)};
}

// ---------------------------------------------------------------------------
// Statistics.
// ---------------------------------------------------------------------------

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

// ---------------------------------------------------------------------------
// Span tracer. Spans are recorded by the benchmark around its calls into the
// program's layers; the layer is the span name's prefix before the first
// dot ("core", "aie", "aiesim", "net", "svc"; "bench" for the benchmark's
// own root spans).
// ---------------------------------------------------------------------------

struct SpanRec {
  const char* name = "";
  double t0_us = 0;
  double t1_us = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0: root
  std::uint64_t request = 0;
  std::uint32_t tid = 0;
};

class Tracer {
 public:
  static Tracer& get();

  void enable(bool on) { on_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return on_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }
  std::uint32_t next_id() { return ids_.fetch_add(1) + 1; }
  void record(const SpanRec& s);
  [[nodiscard]] std::vector<SpanRec> spans() const;
  /// Self time per layer: each span's duration minus the union of its
  /// children's intervals, summed by layer, in seconds.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;
  /// Writes the first `max_spans` recorded spans as Chrome trace-event JSON
  /// (opens offline in Perfetto); the cap bounds the file, not the metrics.
  bool write_chrome(const std::string& path, std::size_t max_spans) const;

 private:
  Tracer() : epoch_(Clock::now()) {}
  std::atomic<bool> on_{false};
  std::atomic<std::uint32_t> ids_{0};
  Clock::time_point epoch_;
  mutable std::mutex m_;
  std::vector<SpanRec> spans_;  ///< guarded by m_
};

/// RAII span; a no-op while tracing is off. The parent defaults to the
/// innermost open span of this thread; pass one explicitly to link work a
/// pool thread does for a span opened elsewhere.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t request = 0,
                std::uint32_t parent = kInherit);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  [[nodiscard]] std::uint32_t id() const { return rec_.id; }

  static constexpr std::uint32_t kInherit = 0xffffffffu;

 private:
  SpanRec rec_;
  bool on_ = false;
};

// ---------------------------------------------------------------------------
// Report.
// ---------------------------------------------------------------------------

/// What one run of one workload produced.
class Report {
 public:
  /// A checked operation: `ok == false` counts as failed (mismatch,
  /// deadlock, session error or exception); the first few reasons print.
  void check(bool ok, const std::string& what);
  /// Counts an operation that failed by exception.
  void failure(const std::string& what) { check(false, what); }

  /// A metric of the result line: end-to-end or per-layer, by run mode.
  void metric(const std::string& name, double value);
  /// A named end-to-end figure printed in the detail block, with
  /// its unit and the number of samples behind it.
  void figure(const std::string& name, double value, const std::string& unit,
              std::size_t n = 1);
  /// A simulated statistic that must repeat exactly for a given seed.
  void exact(const std::string& name, std::uint64_t value);
  void exact_double(const std::string& name, double value);
  /// Host / load-shape fact.
  void info(const std::string& name, const std::string& value);
  void info(const std::string& name, long long value);

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

  struct Figure {
    double value;
    std::string unit;
    std::size_t n;
  };
  std::map<std::string, double> metrics;
  std::map<std::string, Figure> figures;
  std::map<std::string, std::string> exacts;
  std::map<std::string, std::string> infos;
  std::vector<std::string> failures;

 private:
  std::mutex m_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// One timing of the reference loop that the end-to-end batch time is
/// expressed in, in seconds (about 3 ms): fixed single-thread work in the
/// benchmark's own code -- a data-dependent walk over a 1 MiB table with
/// dependent arithmetic and a branch. No change to the program moves it; a
/// host that runs slower or faster for a while moves it with the workload.
/// Call it only while the workload is idle.
[[nodiscard]] double reference_loop_s();
/// The reference loop's time on the idle host the benchmark was tuned on
/// (4-vCPU KVM guest, Xeon, GCC 12.2): a fixed scale, so that `batch_ref`
/// stays close to the plain ratio there.
inline constexpr double kReferenceLoopIdleS = 2.2e-3;

/// Untraced batches, each with the reference loop timed right after it.
struct BatchTimes {
  std::vector<double> wall_s;  ///< host wall time of each batch
  std::vector<double> ref_s;   ///< the reference loop after it

  /// Records one batch. Unless `ref` is given, times the reference loop
  /// now: once per 0.4 s of batch (1 to 5 times), keeping the median, so a
  /// long batch is not paired with one noisy 3 ms sample.
  void add(double wall, double ref = 0);
  /// Reports the end-to-end metric `batch_ref` and the two means it is made
  /// of: mean(wall_s) / mean(ref_s) * (kReferenceLoopIdleS / mean(ref_s)).
  /// The second factor is there because, as the host's speed changed, the
  /// batch times changed about twice as much as the reference loop's (in
  /// log terms); README.md has the measurements. Means, not medians: the
  /// host switches between a fast and a slow mode every second or so, and
  /// a mean moves in proportion to the time spent in each mode where a
  /// median jumps from one mode to the other.
  void report(Report& rep) const;
};

/// Number of online hardware threads (the "nproc" of the load shape).
[[nodiscard]] int nproc();
/// Binds the process, and every thread it starts afterwards, to the last
/// CPU it may run on; returns that CPU, or -1 if the kernel refused. On a
/// shared host the vCPUs slow down and stall independently: work spread
/// over several of them waits on whichever is slowest and pays the host's
/// cross-vCPU wake-up latency, and the reference loop, timed on one of
/// them, cannot cancel that. On one CPU every thread hand-off is a local
/// context switch and the reference loop sees the same CPU as the batch.
int pin_to_one_cpu();
/// Worker threads of a workload's thread pool (coop_mt shards, sweep
/// workers). Two keep the cross-shard channels and concurrent pool leases
/// busy; on one CPU more would only add context switches.
inline constexpr int kPoolWorkers = 2;
/// Process peak resident set size in MiB.
[[nodiscard]] double peak_rss_mb();

/// Set-ups per run; `setup_s` is their median.
inline constexpr int kSetupReps = 11;

/// What timed_setup() measured, in seconds.
struct SetupTimes {
  /// Median over set-ups of the wall time x (kReferenceLoopIdleS / the
  /// reference loop timed right after it)^2: the correction of `batch_ref`,
  /// so the host's speed moves it no more than it moves `batch_ref`.
  double setup_s;
  double wall_s;  ///< median wall time of a set-up, as measured
};

/// Runs `make` (the workload's set-up) kSetupReps times, keeping the last
/// result, and times the reference loop after each while the new state is
/// idle.
template <class T, class Make>
SetupTimes timed_setup(T& keep, Make&& make) {
  std::vector<double> corrected, wall;
  for (int i = 0; i < kSetupReps; ++i) {
    keep.reset();  // tear the previous instance down outside the timer
    const auto t0 = Clock::now();
    keep = make();
    const double t = seconds_since(t0);
    const double k = kReferenceLoopIdleS / reference_loop_s();
    wall.push_back(t);
    corrected.push_back(t * k * k);
  }
  return {median(corrected), median(wall)};
}

// Workload entry points. Each fills the report and returns normally; a
// failed check is recorded in the report, not thrown.
void run_paper_apps(const Options& o, Report& r);
void run_ml_wide(const Options& o, Report& r);
void run_dse_sweep(const Options& o, Report& r);
void run_svc_sessions(const Options& o, Report& r);

}  // namespace perfbench

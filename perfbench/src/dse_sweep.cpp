// dse_sweep -- LightningSimV2-style design-space sweep: many variants of one
// compiled multi-chain RTP graph at event detail, run by a SweepRunner over
// warm ResimSessions leased from one SessionPool. Each job takes one lease
// and runs a seed variant (new input data: a full run() that becomes the
// baseline) followed by RTP-only variants (cone-limited resimulate()), so
// both paths share the same sessions.
#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "aiesim/compiled.hpp"
#include "aiesim/engine.hpp"
#include "aiesim/resim.hpp"
#include "core/cgsim.hpp"
#include "core/dynamic_graph.hpp"
#include "core/sweep.hpp"
#include "harness.hpp"
#include "service/protocol.hpp"

namespace perfbench {
namespace {

using cgsim::KernelReadPort;
using cgsim::KernelWritePort;

inline constexpr cgsim::PortSettings kRtp{.rtp = true};

COMPUTE_KERNEL(aie, pb_inc, KernelReadPort<int> in, KernelWritePort<int> out) {
  while (true) co_await out.put(co_await in.get() + 1);
}

// A separate handle for chain 0 so cone records are identifiable.
COMPUTE_KERNEL(aie, pb_cone_inc, KernelReadPort<int> in,
               KernelWritePort<int> out) {
  while (true) co_await out.put(co_await in.get() + 1);
}

COMPUTE_KERNEL(aie, pb_scale, KernelReadPort<int> in,
               KernelReadPort<int, kRtp> factor, KernelWritePort<int> out) {
  while (true) co_await out.put(co_await in.get() * co_await factor.get());
}

constexpr int kChains = 8;  ///< compile-time: positional invocation
constexpr int kDepth = 6;   ///< kernels per chain
constexpr int kKernels = kChains * kDepth;
constexpr std::size_t kRtpInput = kChains;  ///< index of the RTP input
constexpr int kRtpPerJob = 3;  ///< RTP variants after each seed variant

/// chain 0 = pb_scale(rtp) -> pb_cone_inc^(depth-1); chains 1.. = pb_inc^depth.
void build_graph(cgsim::rt::DynamicGraphBuilder& b) {
  const int in0 = b.add_edge<int>();
  b.add_input(in0);
  const int rtp = b.add_edge<int>(1, kRtp);
  int prev = b.add_edge<int>();
  b.add_kernel(pb_scale, {in0, rtp, prev});
  for (int i = 1; i < kDepth; ++i) {
    const int next = b.add_edge<int>();
    b.add_kernel(pb_cone_inc, {prev, next});
    prev = next;
  }
  b.add_output(prev);
  for (int c = 1; c < kChains; ++c) {
    int p = b.add_edge<int>();
    b.add_input(p);
    for (int i = 0; i < kDepth; ++i) {
      const int next = b.add_edge<int>();
      b.add_kernel(pb_inc, {p, next});
      p = next;
    }
    b.add_output(p);
  }
  b.add_input(rtp);
}

using Streams = std::array<std::vector<int>, kChains>;

/// One job's scenario: seed-variant inputs plus the RTP values to sweep.
struct Job {
  Streams in;
  std::array<int, 1 + kRtpPerJob> rtp{};
};

/// Analytic output digest: chain 0 yields in*rtp + depth - 1, the other
/// chains yield in + depth.
std::uint64_t expected_digest(const Streams& in, int rtp) {
  std::vector<std::string> outs;
  for (int c = 0; c < kChains; ++c) {
    std::vector<int> o = in[static_cast<std::size_t>(c)];
    for (int& x : o) x = c == 0 ? x * rtp + kDepth - 1 : x + kDepth;
    outs.push_back(bytes_of(o));
  }
  return cgsim::service::outputs_digest(outs);
}

std::uint64_t digest_of(const Streams& out) {
  std::vector<std::string> outs;
  for (const auto& o : out) outs.push_back(bytes_of(o));
  return cgsim::service::outputs_digest(outs);
}

/// Expands fn(in x kChains, rtp, out x kChains) positionally.
template <class Fn>
aiesim::SimResult call_with(Fn&& fn, const Streams& in, int rtp, Streams& out) {
  for (auto& v : out) v.clear();
  return [&]<std::size_t... I>(std::index_sequence<I...>) {
    return fn(in[I]..., rtp, out[I]...);
  }(std::make_index_sequence<kChains>{});
}

using Pool = cgsim::SessionPool<int, aiesim::ResimSession>;

/// Everything set-up creates. Member order is teardown order reversed:
/// the runner joins before the pool's sessions die, and the sessions die
/// before the graph they view.
struct State {
  cgsim::rt::DynamicGraphBuilder builder;
  cgsim::GraphView view;
  aiesim::SimConfig cfg;
  std::vector<Job> jobs;
  std::vector<std::array<std::uint64_t, 1 + kRtpPerJob>> expect;
  Pool pool;
  std::unique_ptr<cgsim::SweepRunner> runner;
  /// Compiled-cache lookups of the warm-up batch's session binds.
  std::uint64_t bind_hits = 0, bind_lookups = 0;
};

/// Per-batch observations, merged from worker threads.
struct BatchObs {
  std::mutex m;
  std::vector<double> full_us, incr_us;
  std::uint64_t rtp_attempts = 0, incremental = 0, cone_kernels = 0;
  double job_s = 0;
  std::uint64_t sim_digest = 0;  ///< order-independent: cycles + trace
};

struct Outcome {
  int failed = 0;  ///< variants whose output or run failed
  std::string why;
};

Outcome run_job(State& st, std::size_t j, std::uint32_t parent,
                std::uint64_t request_base, BatchObs& obs, bool fault) {
  const Job& job = st.jobs[j];
  Span job_span{"core.sweep_job", request_base + j, parent};
  const auto t0 = Clock::now();
  Outcome out;
  std::vector<double> full_us, incr_us;
  std::uint64_t incremental = 0, cone = 0, sim_digest = 0;
  Streams outs;
  auto lease = [&] {
    Span sp{"core.pool_checkout", request_base + j};
    return st.pool.checkout(0, [&] {
      return std::make_unique<aiesim::ResimSession>(st.view, st.cfg);
    });
  }();
  for (int v = 0; v <= kRtpPerJob; ++v) {
    const int rtp = job.rtp[static_cast<std::size_t>(v)];
    const auto v0 = Clock::now();
    aiesim::SimResult r;
    if (v == 0) {
      Span sp{"aiesim.resim_run", request_base + j};
      r = call_with([&](auto&&... a) { return lease->run(a...); }, job.in, rtp,
                 outs);
      full_us.push_back(us_since(v0));
    } else {
      Span sp{"aiesim.resimulate", request_base + j};
      r = call_with(
          [&](auto&&... a) { return lease->resimulate({kRtpInput}, a...); },
          job.in, rtp, outs);
      incr_us.push_back(us_since(v0));
      if (lease->last_was_incremental()) {
        ++incremental;
        cone += lease->last_cone_size();
      }
    }
    sim_digest += (r.virtual_cycles * 0x9e3779b97f4a7c15ull) ^
                  r.trace.digest();
    std::uint64_t want = st.expect[j][static_cast<std::size_t>(v)];
    if (fault && j == 0 && v == 1) ++want;
    if (r.run.deadlocked || digest_of(outs) != want) {
      ++out.failed;
      out.why = "job " + std::to_string(j) + " variant " + std::to_string(v) +
                ": output digest differs from the analytic one";
    }
  }
  const double dt = seconds_since(t0);
  std::lock_guard lk{obs.m};
  obs.full_us.insert(obs.full_us.end(), full_us.begin(), full_us.end());
  obs.incr_us.insert(obs.incr_us.end(), incr_us.begin(), incr_us.end());
  obs.rtp_attempts += kRtpPerJob;
  obs.incremental += incremental;
  obs.cone_kernels += cone;
  obs.job_s += dt;
  obs.sim_digest += sim_digest;
  return out;
}

/// One sweep batch: every job once across the runner.
double run_batch(State& st, Report* rep, std::uint64_t batch, BatchObs& obs,
                 bool fault) {
  Span sp{"core.sweep_batch", batch};
  const std::uint32_t parent = sp.id();
  const std::uint64_t request_base = batch * 1000;
  const auto t0 = Clock::now();
  st.runner->run_batch(
      st.jobs.size(),
      [&](std::size_t j, cgsim::SweepRunner::WorkerSlot&) {
        try {
          return run_job(st, j, parent, request_base, obs, fault);
        } catch (const std::exception& e) {
          return Outcome{1 + kRtpPerJob,
                         std::string{"exception: "} + e.what()};
        }
      },
      [&](std::size_t, Outcome o) {
        if (rep == nullptr) return;
        // One check per variant the job ran.
        for (int v = 0; v <= kRtpPerJob; ++v) rep->check(v >= o.failed, o.why);
      });
  return seconds_since(t0);
}

}  // namespace

void run_dse_sweep(const Options& o, Report& rep) {
  const int workers = kPoolWorkers;
  const std::size_t n_jobs = o.tiny ? 4 : 24;
  const int items = 64;
  rep.info("sweep_workers", workers);
  rep.info("sweep_jobs_per_batch", static_cast<long long>(n_jobs));
  rep.info("variants_per_job", 1 + kRtpPerJob);

  std::unique_ptr<State> st;
  // Set-up: graph build, cold compile, worker pool, seeded scenarios, and
  // one warm-up batch that fills the session pool.
  const SetupTimes setup = timed_setup(st, [&] {
    auto s = std::make_unique<State>();
    build_graph(s->builder);
    s->view = s->builder.view();
    aiesim::CompiledGraphCache::instance().clear();
    (void)aiesim::CompiledGraphCache::instance().get_or_compile(
        s->view, s->cfg.cost, s->cfg.generated_io, s->cfg.placement,
        s->cfg.array_columns);
    Rng rng{o.seed};
    for (std::size_t j = 0; j < n_jobs; ++j) {
      Job job;
      for (auto& ch : job.in) {
        ch.resize(static_cast<std::size_t>(items));
        for (int& x : ch) x = static_cast<int>(rng.range(-10000, 10000));
      }
      for (int& r : job.rtp) r = static_cast<int>(rng.range(2, 50));
      std::array<std::uint64_t, 1 + kRtpPerJob> e{};
      for (std::size_t v = 0; v < e.size(); ++v) {
        e[v] = expected_digest(job.in, job.rtp[v]);
      }
      s->jobs.push_back(std::move(job));
      s->expect.push_back(e);
    }
    s->runner = std::make_unique<cgsim::SweepRunner>(workers);
    const auto cs0 = aiesim::CompiledGraphCache::instance().stats();
    BatchObs warm;
    (void)run_batch(*s, nullptr, 0, warm, false);
    const auto cs1 = aiesim::CompiledGraphCache::instance().stats();
    s->bind_hits = cs1.hits - cs0.hits;
    s->bind_lookups = cs1.hits + cs1.misses - cs0.hits - cs0.misses;
    return s;
  });

  const double variants_per_batch =
      static_cast<double>(n_jobs * (1 + kRtpPerJob));
  BatchTimes batches;
  std::vector<double> traced_batch_s;
  std::vector<double> full_us, incr_us, compile_us;
  std::uint64_t rtp_attempts = 0, incremental = 0, cone = 0;
  double job_s = 0, traced_wall = 0;
  std::uint64_t reused0 = 0, checkouts0 = 0, reused1 = 0, checkouts1 = 0;
  // Sessions bind (one cache lookup each) when the pool creates them: in
  // the warm-up batch, and in a timed batch only if the pool missed.
  std::uint64_t hits1 = st->bind_hits, lookups1 = st->bind_lookups;
  std::uint64_t sim_digest = 0;
  std::size_t traced_batches = 0;
  const auto t_start = Clock::now();
  for (std::uint64_t b = 1;; ++b) {
    const bool traced = o.trace && b % 2 == 0;
    aiesim::CompiledGraphCache::Stats cs0{};
    if (traced) {
      Tracer::get().enable(true);
      {
        // Cold compile of the sweep graph; the batch's sessions keep their
        // own handles, so clearing the cache here does not disturb them.
        Span sp{"aiesim.compile", b};
        aiesim::CompiledGraphCache::instance().clear();
        const auto t0 = Clock::now();
        (void)aiesim::CompiledGraphCache::instance().get_or_compile(
            st->view, st->cfg.cost, st->cfg.generated_io, st->cfg.placement,
            st->cfg.array_columns);
        compile_us.push_back(us_since(t0));
      }
      cs0 = aiesim::CompiledGraphCache::instance().stats();
      reused0 = st->pool.reused();
      checkouts0 = st->pool.reused() + st->pool.created();
    }
    BatchObs obs;
    double dt = 0;
    {
      Span sp{"bench.batch", b};
      dt = run_batch(*st, &rep, b, obs, o.inject_fault);
    }
    sim_digest = obs.sim_digest;
    if (traced) {
      Tracer::get().enable(false);
      const auto cs1 = aiesim::CompiledGraphCache::instance().stats();
      hits1 += cs1.hits - cs0.hits;
      lookups1 += (cs1.hits + cs1.misses) - (cs0.hits + cs0.misses);
      reused1 += st->pool.reused() - reused0;
      checkouts1 += st->pool.reused() + st->pool.created() - checkouts0;
      traced_batch_s.push_back(dt);
      traced_wall += dt;
      ++traced_batches;
      full_us.insert(full_us.end(), obs.full_us.begin(), obs.full_us.end());
      incr_us.insert(incr_us.end(), obs.incr_us.begin(), obs.incr_us.end());
      rtp_attempts += obs.rtp_attempts;
      incremental += obs.incremental;
      cone += obs.cone_kernels;
      job_s += obs.job_s;
    } else {
      batches.add(dt);
    }
    const bool enough =
        o.trace ? traced_batches >= 1 : !batches.wall_s.empty();
    if (enough && seconds_since(t_start) >= o.seconds) break;
  }

  double total = 0;
  for (const double t : batches.wall_s) total += t;
  const double n_batches = static_cast<double>(batches.wall_s.size());
  const double vps = total > 0 ? variants_per_batch * n_batches / total : 0;
  rep.metric("setup_s", setup.setup_s);
  batches.report(rep);
  rep.figure("sweep_variants_per_s", vps, "1/s",
             static_cast<std::size_t>(variants_per_batch * n_batches));
  rep.figure("setup_s", setup.setup_s, "s", kSetupReps);
  rep.figure("setup_wall_s", setup.wall_s, "s", kSetupReps);
  rep.exact("sweep_sim_digest", sim_digest);
  if (!o.trace) return;

  rep.metric("core.pool.reuse_ratio",
             checkouts1 > 0 ? static_cast<double>(reused1) /
                                  static_cast<double>(checkouts1)
                            : 0);
  rep.metric("core.sweep.busy_frac",
             traced_wall > 0 ? job_s / (workers * traced_wall) : 0);
  rep.metric("aiesim.compile_us", median(compile_us));
  rep.metric("aiesim.cache_hit_ratio",
             lookups1 > 0 ? static_cast<double>(hits1) /
                                static_cast<double>(lookups1)
                          : 0);
  rep.metric("aiesim.resim.incr_us", median(incr_us));
  rep.metric("aiesim.resim.full_us", median(full_us));
  rep.metric("aiesim.resim.incremental_ratio",
             rtp_attempts > 0 ? static_cast<double>(incremental) /
                                    static_cast<double>(rtp_attempts)
                              : 0);
  rep.metric("aiesim.resim.cone_frac",
             incremental > 0 ? static_cast<double>(cone) /
                                   static_cast<double>(incremental * kKernels)
                             : 0);
  rep.metric("trace.overhead_frac",
             median(traced_batch_s) / median(batches.wall_s) - 1.0);
}

}  // namespace perfbench

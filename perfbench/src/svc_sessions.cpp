// svc_sessions -- cgsimd clients: an in-process daemon on loopback driven
// by a closed loop of client connections. Each iteration is one design
// submission: a fresh connection (handshake + shm plane), open of a spec
// the daemon has never seen, the cold first run, kWarmReruns one-element
// RTP reruns on the warm lane, close.
#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "aiesim/compiled.hpp"
#include "core/cgsim.hpp"
#include "core/dynamic_graph.hpp"
#include "harness.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "service/graph_codec.hpp"
#include "service/kernels.hpp"
#include "service/protocol.hpp"

namespace perfbench {
namespace {

namespace svc = cgsim::service;
using cgsim::KernelReadPort;
using cgsim::KernelWritePort;

inline constexpr cgsim::PortSettings kRtp{.rtp = true};

// The one kernel the service's builtin set lacks: a scale by a runtime
// parameter, registered into the in-process daemon's registry before it
// serves (the embedding pattern service/kernels.hpp documents).
COMPUTE_KERNEL(aie, pb_svc_scale, KernelReadPort<int> in,
               KernelReadPort<int, kRtp> factor, KernelWritePort<int> out) {
  while (true) co_await out.put(co_await in.get() * co_await factor.get());
}

constexpr int kChains = 4;
constexpr int kDepth = 4;
constexpr int kWarmReruns = 4;
/// Chain input lengths: even chains sit above the client's 4 KiB shm
/// threshold (8 KiB), odd chains below it (1 KiB); the RTP is 4 bytes.
constexpr std::size_t kItems[kChains] = {2048, 256, 2048, 256};
constexpr std::size_t kRtpInput = kChains;
constexpr std::size_t kInputSets = 64;
constexpr int kClients = 2;
/// Submissions per client between two reference-loop timings.
constexpr int kRoundSubmissions = 8;
/// Fixed daemon thread counts, so the load shape does not follow the host.
/// One simulation worker: the two clients' runs queue for it.
constexpr int kDaemonWorkers = 1;
constexpr int kDaemonIoThreads = 1;

/// chain 0 = pb_svc_scale(rtp) -> svc_inc_i32^(depth-1); chains 1.. =
/// svc_inc_i32^depth. `variant` is spelled into edge capacities (base-32
/// digits over [64, 96)), so every submission's spec serializes to bytes
/// the daemon has never seen while the work stays the same.
svc::GraphSpec make_spec(std::uint64_t variant) {
  svc::GraphSpec g;
  auto edge = [&] {
    const int cap = 64 + static_cast<int>(variant % 32);
    variant /= 32;
    g.edges.push_back({"i32", cap, {}});
    return static_cast<int>(g.edges.size() - 1);
  };
  const int rtp = static_cast<int>(g.edges.size());
  g.edges.push_back({"i32", 1, kRtp});
  for (int c = 0; c < kChains; ++c) {
    int prev = edge();
    g.inputs.push_back(prev);
    for (int d = 0; d < kDepth; ++d) {
      const int next = edge();
      if (c == 0 && d == 0) {
        g.kernels.push_back({"pb_svc_scale", {prev, rtp, next}});
      } else {
        g.kernels.push_back({"svc_inc_i32", {prev, next}});
      }
      prev = next;
    }
    g.outputs.push_back(prev);
  }
  g.inputs.push_back(rtp);
  return g;
}

/// One seeded input set: chain streams plus the RTP of every run of a
/// submission, with the analytic digest of each run.
struct InputSet {
  std::array<std::vector<int>, kChains> in;
  std::array<int, 1 + kWarmReruns> rtp{};
  std::array<std::uint64_t, 1 + kWarmReruns> expect{};
};

/// Chain 0 yields in*rtp + depth - 1, the other chains in + depth.
std::uint64_t expected_digest(const InputSet& s, int rtp) {
  std::vector<std::string> outs;
  for (int c = 0; c < kChains; ++c) {
    std::vector<int> o = s.in[static_cast<std::size_t>(c)];
    for (int& x : o) x = c == 0 ? x * rtp + kDepth - 1 : x + kDepth;
    outs.push_back(bytes_of(o));
  }
  return svc::outputs_digest(outs);
}

/// What one submission measured.
struct Sample {
  double total_us = 0;      ///< connect .. close
  double cold_us = 0;       ///< connect .. first digest
  double connect_us = 0;    ///< ServiceClient construction
  double open_us = 0;       ///< ServiceClient::open
  double cold_run_us = 0;   ///< run() of the cold run
  double cold_server_us = 0;
  std::array<double, kWarmReruns> warm_us{};  ///< send_rtp .. digest
  std::array<double, kWarmReruns> warm_server_us{};
  bool shm = false;
  double ref_s = 0;  ///< reference loop timed after the sample's round
};

struct State {
  std::vector<InputSet> sets;
  std::unique_ptr<svc::Daemon> daemon;
  std::uint16_t port = 0;
  std::atomic<std::uint64_t> next_variant{0};
};

/// One design submission; throws on a transport or session error.
Sample submit(State& st, std::uint64_t variant, Report& rep, bool fault) {
  const InputSet& set = st.sets[variant % st.sets.size()];
  const svc::GraphSpec spec = make_spec(variant);
  Sample s;
  Span root{"bench.submission", variant};
  const auto t0 = Clock::now();
  std::unique_ptr<svc::ServiceClient> cli;
  {
    Span sp{"net.connect", variant};
    cli = std::make_unique<svc::ServiceClient>(
        cgsim::net::connect_tcp_loopback(st.port));
  }
  s.connect_us = us_since(t0);
  s.shm = cli->shm_active();
  std::uint64_t sid = 0;
  {
    Span sp{"svc.open", variant};
    const auto o0 = Clock::now();
    sid = cli->open(svc::RunMode::sim, spec);
    s.open_us = us_since(o0);
  }
  {
    Span sp{"net.send_inputs", variant};
    for (std::size_t c = 0; c < kChains; ++c) {
      cli->send_input(sid, c, set.in[c].data(), set.in[c].size() * sizeof(int));
    }
    cli->send_input(sid, kRtpInput, &set.rtp[0], sizeof(int));
  }
  auto check = [&](const svc::RunOutcome& out, std::size_t run, bool warm) {
    std::uint64_t want = set.expect[run];
    if (fault && variant == 0 && run == 1) ++want;
    const bool ok = out.ok && out.result.digest == want &&
                    out.result.warm == warm;
    rep.check(ok, "submission " + std::to_string(variant) + " run " +
                      std::to_string(run) +
                      (out.ok ? ": digest differs from the analytic one"
                              : ": " + out.error));
  };
  {
    Span sp{"svc.run_cold", variant};
    const auto r0 = Clock::now();
    const svc::RunOutcome out = cli->run(sid);
    s.cold_run_us = us_since(r0);
    s.cold_us = us_since(t0);
    s.cold_server_us = static_cast<double>(out.result.server_us);
    check(out, 0, false);
  }
  for (int k = 0; k < kWarmReruns; ++k) {
    const auto i = static_cast<std::size_t>(k);
    const auto w0 = Clock::now();
    {
      Span sp{"net.send_rtp", variant};
      cli->send_rtp(sid, kRtpInput, &set.rtp[i + 1], sizeof(int));
    }
    Span sp{"svc.run_warm", variant};
    const svc::RunOutcome out = cli->run(sid);
    s.warm_us[i] = us_since(w0);
    s.warm_server_us[i] = static_cast<double>(out.result.server_us);
    check(out, i + 1, true);
  }
  {
    Span sp{"svc.close", variant};
    cli->close_session(sid);
    cli.reset();
  }
  s.total_us = us_since(t0);
  return s;
}

/// Runs the closed loop on kClients connections for `seconds`, in rounds
/// of kRoundSubmissions per client. After each round, with every client
/// idle, it times the reference loop for the round's samples. Returns the
/// summed wall time of the rounds.
double closed_loop(State& st, double seconds, Report& rep, bool fault,
                   std::vector<Sample>& out) {
  const auto t_start = Clock::now();
  double wall = 0;
  do {
    const std::size_t first = out.size();
    std::mutex m;
    const auto t0 = Clock::now();
    {
      std::vector<std::jthread> clients;
      for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&] {
          std::vector<Sample> mine;
          for (int k = 0; k < kRoundSubmissions; ++k) {
            const std::uint64_t v = st.next_variant.fetch_add(1);
            try {
              mine.push_back(submit(st, v, rep, fault));
            } catch (const std::exception& e) {
              rep.failure("submission " + std::to_string(v) + ": " + e.what());
              break;
            }
          }
          std::lock_guard lk{m};
          out.insert(out.end(), mine.begin(), mine.end());
        });
      }
    }  // joins
    wall += seconds_since(t0);
    const double ref = reference_loop_s();
    for (std::size_t i = first; i < out.size(); ++i) out[i].ref_s = ref;
  } while (seconds_since(t_start) < seconds);
  return wall;
}

std::unique_ptr<State> make_state(std::uint64_t seed) {
  auto st = std::make_unique<State>();
  Rng rng{seed};
  for (std::size_t k = 0; k < kInputSets; ++k) {
    InputSet s;
    for (std::size_t c = 0; c < kChains; ++c) {
      s.in[c].resize(kItems[c]);
      for (int& x : s.in[c]) x = static_cast<int>(rng.range(-10000, 10000));
    }
    // Each rerun's RTP differs from the previous run's: the daemon diffs a
    // rerun's inputs against the previous run, while the lane's resim
    // baseline stays at the cold run, so resending an unchanged RTP after
    // an incremental rerun returns the baseline's outputs (README.md).
    for (std::size_t r = 0; r < s.rtp.size(); ++r) {
      do {
        s.rtp[r] = static_cast<int>(rng.range(2, 50));
      } while (r > 0 && s.rtp[r] == s.rtp[r - 1]);
    }
    for (std::size_t r = 0; r < s.rtp.size(); ++r) {
      s.expect[r] = expected_digest(s, s.rtp[r]);
    }
    st->sets.push_back(std::move(s));
  }
  svc::register_builtin_kernels();
  svc::ServiceRegistry::instance().register_kernel(pb_svc_scale);
  svc::DaemonConfig cfg;
  cfg.workers = kDaemonWorkers;
  cfg.io_threads = kDaemonIoThreads;
  st->daemon = std::make_unique<svc::Daemon>(
      cgsim::net::listen_tcp_loopback(0, &st->port), cfg);
  return st;
}

struct DaemonDelta {
  std::uint64_t runs = 0, warm = 0, incremental = 0, errors = 0;
  static DaemonDelta of(const svc::DaemonStats& s) {
    return {s.runs.load(), s.warm_runs.load(), s.incremental_runs.load(),
            s.session_errors.load()};
  }
};

double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

/// FrameWriter / FrameReader alone over the workload's chunk sizes, on a
/// socketpair: {encode, decode} nanoseconds per KiB.
std::pair<double, double> frame_codec_ns_per_kib(int rounds) {
  namespace net = cgsim::net;
  auto [a, b] = net::socket_pair();
  net::FrameWriter w;
  net::FrameReader r;
  std::vector<std::size_t> sizes;
  for (const std::size_t n : kItems) sizes.push_back(n * sizeof(int));
  sizes.push_back(sizeof(int));  // the RTP
  std::size_t max_size = 0;
  for (const std::size_t n : sizes) max_size = std::max(max_size, n);
  const std::string payload(max_size + 16, 'x');
  double enc_s = 0, dec_s = 0, kib = 0;
  for (int k = 0; k < rounds; ++k) {
    for (const std::size_t n : sizes) {
      const auto e0 = Clock::now();
      w.frame(net::FrameType::input_chunk, 1, payload.data(), n);
      const bool sent = w.flush(a.get()) == net::FrameWriter::IoResult::ok;
      enc_s += seconds_since(e0);
      const auto d0 = Clock::now();
      net::FrameView f;
      bool got = false;
      while (sent && !got) {
        if (r.next(f) == net::FrameReader::ParseResult::frame) {
          got = f.payload.size() == n;
          break;
        }
        if (r.fill(b.get()) != net::FrameReader::IoResult::ok) break;
      }
      dec_s += seconds_since(d0);
      if (!got) return {0.0, 0.0};
      kib += static_cast<double>(n) / 1024.0;
    }
  }
  return {1e9 * enc_s / kib, 1e9 * dec_s / kib};
}

}  // namespace

void run_svc_sessions(const Options& o, Report& rep) {
  rep.info("svc_clients", kClients);
  rep.info("svc_daemon_workers", kDaemonWorkers);
  rep.info("svc_daemon_io_threads", kDaemonIoThreads);
  rep.info("svc_warm_reruns", kWarmReruns);

  std::unique_ptr<State> st;
  const SetupTimes setup = timed_setup(st, [&] {
    return make_state(o.seed);
  });

  // Untraced loop: the end-to-end figures. A traced run splits its time
  // into an untraced and a traced half, whose ratio is the trace overhead.
  const double plain_s = o.tiny ? 0.2 : (o.trace ? o.seconds / 2 : o.seconds);
  const auto cache0 = aiesim::CompiledGraphCache::instance().stats();
  const DaemonDelta d0 = DaemonDelta::of(st->daemon->stats());
  std::vector<Sample> plain;
  const double wall = closed_loop(*st, plain_s, rep, o.inject_fault, plain);
  const DaemonDelta d1 = DaemonDelta::of(st->daemon->stats());
  const auto cache1 = aiesim::CompiledGraphCache::instance().stats();

  BatchTimes submissions;
  std::vector<double> cold_us, warm_us;
  bool shm_all = true;
  for (const Sample& s : plain) {
    submissions.add(s.total_us * 1e-6, s.ref_s);
    cold_us.push_back(s.cold_us);
    warm_us.insert(warm_us.end(), s.warm_us.begin(), s.warm_us.end());
    shm_all &= s.shm;
  }
  rep.check(shm_all, "a submission's connection fell back from the shm plane");
  const double runs = static_cast<double>(d1.runs - d0.runs);
  const double runs_per_s = ratio(runs, wall);
  rep.metric("setup_s", setup.setup_s);
  submissions.report(rep);
  rep.figure("svc_runs_per_s", runs_per_s, "1/s",
             static_cast<std::size_t>(runs));
  rep.figure("svc_cold_p50_us", median(cold_us), "us", cold_us.size());
  rep.figure("svc_warm_p50_us", median(warm_us), "us", warm_us.size());
  // A p99 only once ten samples lie beyond it.
  for (const auto& [name, v] :
       {std::pair{"svc_cold_p99_us", &cold_us},
        std::pair{"svc_warm_p99_us", &warm_us}}) {
    if (v->size() >= 1000) rep.figure(name, quantile(*v, 0.99), "us", v->size());
  }
  rep.figure("setup_s", setup.setup_s, "s", kSetupReps);
  rep.figure("setup_wall_s", setup.wall_s, "s", kSetupReps);
  if (!o.trace) return;

  std::vector<Sample> traced;
  Tracer::get().enable(true);
  const DaemonDelta t0 = DaemonDelta::of(st->daemon->stats());
  (void)closed_loop(*st, o.tiny ? 0.2 : o.seconds / 2, rep, o.inject_fault,
                    traced);
  const DaemonDelta t1 = DaemonDelta::of(st->daemon->stats());

  std::vector<double> connect_us, open_us, transport_cold, transport_warm,
      server_cold, server_warm, traced_total;
  for (const Sample& s : traced) {
    traced_total.push_back(s.total_us * 1e-6);
    connect_us.push_back(s.connect_us);
    open_us.push_back(s.open_us);
    transport_cold.push_back(s.cold_run_us - s.cold_server_us);
    server_cold.push_back(s.cold_server_us);
    for (std::size_t k = 0; k < kWarmReruns; ++k) {
      transport_warm.push_back(s.warm_us[k] - s.warm_server_us[k]);
      server_warm.push_back(s.warm_server_us[k]);
    }
  }
  rep.metric("net.connect_us", median(connect_us));
  rep.metric("net.transport_us.cold", median(transport_cold));
  rep.metric("net.transport_us.warm", median(transport_warm));
  rep.metric("svc.open_us", median(open_us));
  rep.metric("svc.server_us.cold", median(server_cold));
  rep.metric("svc.server_us.warm", median(server_warm));
  const double druns = static_cast<double>(t1.runs - t0.runs);
  const double dwarm = static_cast<double>(t1.warm - t0.warm);
  rep.metric("svc.warm_ratio", ratio(dwarm, druns));
  rep.metric("svc.incremental_ratio",
             ratio(static_cast<double>(t1.incremental - t0.incremental),
                   dwarm));
  rep.metric("svc.session_errors", static_cast<double>(t1.errors - t0.errors));
  rep.metric("aiesim.cache_hit_ratio",
             ratio(static_cast<double>(cache1.hits - cache0.hits),
                   static_cast<double>(cache1.hits + cache1.misses -
                                       cache0.hits - cache0.misses)));
  // Workload property: bytes per submission at or above the shm threshold.
  const double shm_threshold = svc::ServiceClientOptions{}.shm_threshold;
  double big = 0, all = sizeof(int) * (1 + kWarmReruns);
  for (const std::size_t n : kItems) {
    const double bytes = static_cast<double>(n * sizeof(int));
    all += bytes;
    if (bytes >= shm_threshold) big += bytes;
  }
  rep.metric("net.shm_bytes_frac", big / all);
  rep.metric("trace.overhead_frac",
             median(traced_total) / median(submissions.wall_s) - 1.0);

  // Standalone layer calls on the workload's own specs, after the loops so
  // they cannot disturb them.
  std::vector<double> codec_us, build_us, compile_us;
  const int reps = o.tiny ? 4 : 64;
  for (int k = 0; k < reps; ++k) {
    const std::uint64_t v = st->next_variant.fetch_add(1);
    const svc::GraphSpec spec = make_spec(v);
    svc::GraphSpec parsed;
    {
      Span sp{"svc.codec", v};
      const auto c0 = Clock::now();
      const std::string bytes = svc::serialize_graph(spec);
      const bool ok = svc::parse_graph(
          std::as_bytes(std::span{bytes.data(), bytes.size()}), parsed);
      codec_us.push_back(us_since(c0));
      rep.check(ok, "parse_graph rejected a serialized workload spec");
    }
    cgsim::rt::DynamicGraphBuilder b;
    {
      Span sp{"svc.build_graph", v};
      const auto b0 = Clock::now();
      svc::build_graph(parsed, b);
      build_us.push_back(us_since(b0));
    }
    {
      Span sp{"aiesim.compile", v};
      const aiesim::SimConfig cfg;
      aiesim::CompiledGraphCache::instance().clear();
      const auto k0 = Clock::now();
      (void)aiesim::CompiledGraphCache::instance().get_or_compile(
          b.view(), cfg.cost, cfg.generated_io, cfg.placement,
          cfg.array_columns);
      compile_us.push_back(us_since(k0));
    }
  }
  rep.metric("svc.codec_us", median(codec_us));
  rep.metric("svc.build_us", median(build_us));
  rep.metric("aiesim.compile_us", median(compile_us));
  {
    Span sp{"net.frame_codec"};
    const auto [enc, dec] = frame_codec_ns_per_kib(o.tiny ? 8 : 256);
    rep.check(enc > 0 && dec > 0, "standalone frame round trip failed");
    rep.metric("net.encode_ns_per_kib", enc);
    rep.metric("net.decode_ns_per_kib", dec);
  }
  Tracer::get().enable(false);
}

}  // namespace perfbench

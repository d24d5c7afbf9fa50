// paper_apps -- the paper's four AMD examples (bitonic, farrow, IIR,
// bilinear): Table 2 batches on ExecMode::coop and through the
// cycle-approximate engine at the paper's repetition counts, plus the
// Table 1 pair (generated_io off / on) at 64 blocks.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <memory>
#include <type_traits>
#include <span>
#include <vector>

#include "aiesim/engine.hpp"
#include "apps/bilinear.hpp"
#include "apps/bitonic.hpp"
#include "apps/farrow.hpp"
#include "apps/iir.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

constexpr int kTable1Blocks = 64;   // bench_table1's pipeline depth
constexpr std::size_t kTable1Warmup = 8;

template <class T>
bool same_prefix(const std::vector<T>& a, const std::vector<T>& b,
                 std::size_t n) {
  return a.size() >= n && b.size() >= n &&
         std::memcmp(a.data(), b.data(), n * sizeof(T)) == 0;
}

volatile float g_sink = 0;  // keeps direct kernel calls observable

// Each case holds one app's seeded inputs, its reference output and the
// calls into the program. `with_io(f)` invokes f with the positional
// sources / sinks of the graph (paper Section 3.7 convention).

struct Bitonic {
  using Block = apps::bitonic::Block;
  using Out = Block;
  static constexpr const char* kName = "bitonic";
  static constexpr double kPaperRel = 85.32;
  static const auto& graph() { return apps::bitonic::graph; }
  int reps;
  int t1_reps = 1;
  std::vector<Block> in, t1_in, ref, out;

  Bitonic(Rng& rng, int r) : reps(r), in(512) {
    for (Block& b : in) {
      for (unsigned i = 0; i < 16; ++i) b.set(i, rng.uniform(-100, 100));
    }
    t1_in.assign(in.begin(), in.begin() + kTable1Blocks);
  }
  void make_reference() {
    ref.clear();
    for (const Block& b : in) {
      std::array<float, 16> a{};
      for (unsigned i = 0; i < 16; ++i) a[i] = b.get(i);
      a = apps::bitonic::reference_sort(a);
      Block o;
      for (unsigned i = 0; i < 16; ++i) o.set(i, a[i]);
      ref.push_back(o);
    }
  }
  template <class F> auto with_io(F&& f) { out.clear(); return f(in, out); }
  template <class F> auto with_t1_io(std::vector<Out>& o, F&& f) {
    return f(t1_in, o);
  }
  void attach(cgsim::RuntimeContext& ctx) {
    out.clear();
    ctx.add_stream_source<Block>(0, std::span<const Block>{in}, reps);
    ctx.add_stream_sink<Block>(0, out);
  }
  [[nodiscard]] bool check() const {
    if (out.size() != in.size() * static_cast<std::size_t>(reps)) return false;
    for (std::size_t i = 0; i < out.size(); i += in.size()) {
      if (std::memcmp(&out[i], ref.data(), ref.size() * sizeof(Block)) != 0) {
        return false;
      }
    }
    return true;
  }
  void kernels() const {
    float acc = 0;
    for (int r = 0; r < reps; ++r) {
      for (const Block& b : in) acc += apps::bitonic::sort16(b).get(15);
    }
    g_sink = acc;
  }
};

struct Farrow {
  using Out = apps::farrow::SampleBlock;
  static constexpr const char* kName = "farrow";
  static constexpr double kPaperRel = 89.58;
  static const auto& graph() { return apps::farrow::graph; }
  static constexpr unsigned kN = apps::farrow::kBlockSamples;
  int reps;
  int t1_reps = kTable1Blocks / 8;
  std::vector<apps::farrow::SampleBlock> in, out;
  std::vector<apps::farrow::MuBlock> mu;
  /// Reference of two repetitions: the branch filters remember 7 samples,
  /// so every repetition after the first reproduces the second exactly.
  std::vector<std::int16_t> ref2;

  Farrow(Rng& rng, int r) : reps(r), in(8), mu(8) {
    for (std::size_t b = 0; b < in.size(); ++b) {
      for (unsigned i = 0; i < kN; ++i) {
        in[b].s[i] = static_cast<std::int16_t>(rng.range(-20000, 20000));
        mu[b].mu[i] = static_cast<std::int16_t>(rng.range(0, (1 << 14) - 1));
      }
    }
  }
  void make_reference() {
    std::vector<std::int16_t> x, m;
    for (int rep = 0; rep < 2; ++rep) {
      for (std::size_t b = 0; b < in.size(); ++b) {
        x.insert(x.end(), in[b].s.begin(), in[b].s.end());
        m.insert(m.end(), mu[b].mu.begin(), mu[b].mu.end());
      }
    }
    ref2 = apps::farrow::reference(x, m);
  }
  template <class F> auto with_io(F&& f) { out.clear(); return f(in, mu, out); }
  template <class F> auto with_t1_io(std::vector<Out>& o, F&& f) {
    return f(in, mu, o);
  }
  void attach(cgsim::RuntimeContext& ctx) {
    out.clear();
    ctx.add_stream_source<apps::farrow::SampleBlock>(
        0, std::span<const apps::farrow::SampleBlock>{in}, reps);
    ctx.add_stream_source<apps::farrow::MuBlock>(
        1, std::span<const apps::farrow::MuBlock>{mu}, reps);
    ctx.add_stream_sink<Out>(0, out);
  }
  [[nodiscard]] bool check() const {
    const std::size_t per_rep = in.size() * kN;
    if (out.size() != in.size() * static_cast<std::size_t>(reps)) return false;
    for (std::size_t b = 0; b < out.size(); ++b) {
      const std::size_t rep = b / in.size();
      const std::size_t off =
          (rep == 0 ? 0 : per_rep) + (b % in.size()) * kN;
      if (std::memcmp(out[b].s.data(), &ref2[off], kN * sizeof(std::int16_t)) !=
          0) {
        return false;
      }
    }
    return true;
  }
  void kernels() const {
    apps::farrow::BranchState st{};
    float acc = 0;
    for (int r = 0; r < reps; ++r) {
      for (std::size_t b = 0; b < in.size(); ++b) {
        const auto br = apps::farrow::branch_filters(in[b], st);
        acc += apps::farrow::combine(br, mu[b]).s[0];
      }
    }
    g_sink = acc;
  }
};

struct Iir {
  using Out = apps::iir::Block;
  static constexpr const char* kName = "IIR";
  static constexpr double kPaperRel = 100.46;
  static const auto& graph() { return apps::iir::graph; }
  static constexpr unsigned kN = apps::iir::kBlockSamples;
  int reps;
  int t1_reps = kTable1Blocks / 8;
  float gain;
  std::vector<apps::iir::Block> in, out;
  std::vector<float> ref;  ///< whole stream: the recursion never forgets

  Iir(Rng& rng, int r) : reps(r), gain(rng.uniform(0.5f, 2.0f)), in(8) {
    for (auto& b : in) {
      for (auto& s : b.samples) s = rng.uniform(-1, 1);
    }
  }
  void make_reference() {
    std::vector<float> x;
    for (int rep = 0; rep < reps; ++rep) {
      for (const auto& b : in) x.insert(x.end(), b.samples.begin(), b.samples.end());
    }
    ref = apps::iir::reference(x, apps::iir::kDefaultCoeffs, gain);
  }
  template <class F> auto with_io(F&& f) { out.clear(); return f(in, gain, out); }
  template <class F> auto with_t1_io(std::vector<Out>& o, F&& f) {
    return f(in, gain, o);
  }
  void attach(cgsim::RuntimeContext& ctx) {
    out.clear();
    ctx.add_stream_source<apps::iir::Block>(
        0, std::span<const apps::iir::Block>{in}, reps);
    ctx.add_rtp_source<float>(1, gain);
    ctx.add_stream_sink<Out>(0, out);
  }
  [[nodiscard]] bool check() const {
    if (out.size() * kN != ref.size()) return false;
    for (std::size_t b = 0; b < out.size(); ++b) {
      for (unsigned i = 0; i < kN; ++i) {
        const float want = ref[b * kN + i];
        if (std::fabs(out[b].samples[i] - want) >
            1e-4f * std::max(1.0f, std::fabs(want))) {
          return false;
        }
      }
    }
    return true;
  }
  void kernels() const {
    apps::iir::State st{};
    float acc = 0;
    for (int r = 0; r < reps; ++r) {
      for (const auto& b : in) {
        acc += apps::iir::feed_forward(b, st, apps::iir::kDefaultCoeffs)[0];
      }
    }
    g_sink = acc;
  }
};

struct Bilinear {
  using Out = apps::bilinear::V;
  static constexpr const char* kName = "bilinear";
  static constexpr double kPaperRel = 85.33;
  static const auto& graph() { return apps::bilinear::graph; }
  int reps;
  int t1_reps = 1;
  std::vector<apps::bilinear::Packet> in, t1_in;
  std::vector<Out> out;
  std::vector<std::array<float, apps::bilinear::kLanes>> ref;

  Bilinear(Rng& rng, int r) : reps(r), in(4096) {
    for (auto& p : in) {
      for (unsigned i = 0; i < apps::bilinear::kLanes; ++i) {
        p.p00.set(i, rng.uniform(0, 255));
        p.p01.set(i, rng.uniform(0, 255));
        p.p10.set(i, rng.uniform(0, 255));
        p.p11.set(i, rng.uniform(0, 255));
        p.fx.set(i, rng.uniform(0, 1));
        p.fy.set(i, rng.uniform(0, 1));
      }
    }
    t1_in.assign(in.begin(), in.begin() + kTable1Blocks);
  }
  void make_reference() {
    ref.clear();
    for (const auto& p : in) ref.push_back(apps::bilinear::reference(p));
  }
  template <class F> auto with_io(F&& f) { out.clear(); return f(in, out); }
  template <class F> auto with_t1_io(std::vector<Out>& o, F&& f) {
    return f(t1_in, o);
  }
  void attach(cgsim::RuntimeContext& ctx) {
    out.clear();
    ctx.add_stream_source<apps::bilinear::Packet>(
        0, std::span<const apps::bilinear::Packet>{in}, reps);
    ctx.add_stream_sink<Out>(0, out);
  }
  [[nodiscard]] bool check() const {
    if (out.size() != in.size() * static_cast<std::size_t>(reps)) return false;
    for (std::size_t k = 0; k < out.size(); ++k) {
      const auto& want = ref[k % in.size()];
      for (unsigned i = 0; i < apps::bilinear::kLanes; ++i) {
        if (std::fabs(out[k].get(i) - want[i]) > 1e-3f) return false;
      }
    }
    return true;
  }
  void kernels() const {
    float acc = 0;
    for (int r = 0; r < reps; ++r) {
      for (const auto& p : in) acc += apps::bilinear::interpolate(p).get(0);
    }
    g_sink = acc;
  }
};

// ---------------------------------------------------------------------------

aiesim::SimConfig cycle_config(int reps) {
  aiesim::SimConfig cfg;
  cfg.detail = aiesim::DetailLevel::cycle;
  cfg.engine = aiesim::EngineVariant::fast;
  cfg.repetitions = reps;
  return cfg;
}

aiesim::SimConfig table1_config(bool generated_io, int reps) {
  aiesim::SimConfig cfg;
  cfg.generated_io = generated_io;
  cfg.repetitions = reps;
  return cfg;
}

/// Every configuration the batch simulates, compiled into the
/// process-wide cache (`compile_us` receives each compile's time).
template <class C>
void compile_all(std::vector<double>* compile_us) {
  const cgsim::GraphView g = C::graph().view();
  const aiesim::SimConfig cfgs[] = {cycle_config(1), table1_config(false, 1),
                                    table1_config(true, 1)};
  for (const aiesim::SimConfig& cfg : cfgs) {
    Span sp{"aiesim.compile"};
    const auto t0 = Clock::now();
    (void)aiesim::CompiledGraphCache::instance().get_or_compile(
        g, cfg.cost, cfg.generated_io, cfg.placement, cfg.array_columns);
    if (compile_us != nullptr) compile_us->push_back(us_since(t0));
  }
}

struct Cases {
  Bitonic bitonic;
  Farrow farrow;
  Iir iir;
  Bilinear bilinear;

  Cases(Rng& rng, int div)
      : bitonic(rng, std::max(1, 1024 / div)),
        farrow(rng, std::max(1, 512 / div)),
        iir(rng, std::max(1, 256 / div)),
        bilinear(rng, std::max(1, 64 / div)) {}

  template <class F> void each(F&& f) {
    f(bitonic);
    f(farrow);
    f(iir);
    f(bilinear);
  }
};

/// Per-batch accumulators.
struct BatchStats {
  double coop_s = 0, cycle_s = 0, table1_s = 0;
  double coop_total_s = 0, coop_resume_s = 0;  // instrumented coop runs
  std::uint64_t coop_resumes = 0;
  double kernel_s = 0, event_s = 0;
  std::uint64_t events = 0;
  double table1_err_pp = 0;
};

template <class C>
void run_case(C& c, Report& rep, BatchStats& bs, std::uint64_t batch,
              bool traced, bool fault) {
  const std::string name = C::kName;
  // --- Table 2, cgsim column: coop at the paper's repetitions -------------
  {
    Span sp{"core.coop_run", batch};
    const auto t0 = Clock::now();
    cgsim::RunResult rr;
    if (traced) {
      // Same work as graph.run(): context, I/O, start, schedule, finish --
      // with the scheduler's resume/sync split sampled (paper Section 5.2).
      cgsim::RuntimeContext ctx{C::graph().view()};
      c.attach(ctx);
      ctx.start_all();
      double resume_s = 0;
      const auto s0 = Clock::now();
      rr.resumes = ctx.scheduler().run_instrumented(
          [&](std::coroutine_handle<> h) { ctx.on_task_finished(h); },
          resume_s);
      bs.coop_total_s += seconds_since(s0);
      bs.coop_resume_s += resume_s;
      rr = ctx.finish(rr);
    } else {
      rr = c.with_io([&](auto&... io) {
        return C::graph().run(cgsim::RunOptions{cgsim::ExecMode::coop, c.reps},
                              io...);
      });
    }
    bs.coop_s += seconds_since(t0);
    bs.coop_resumes += rr.resumes;
    rep.exact("coop_resumes." + name, rr.resumes);
    bool ok = !rr.deadlocked && c.check();
    if (fault && name == "bitonic") ok = false;
    rep.check(ok, name + ": coop output differs from the scalar reference");
  }
  const std::uint64_t coop_hash = hash_of(c.out);
  // Table 1 runs replay the stream's first 64 blocks.
  const std::vector<typename C::Out> coop_head(
      c.out.begin(),
      c.out.begin() + std::min<std::ptrdiff_t>(
                          kTable1Blocks, static_cast<std::ptrdiff_t>(c.out.size())));

  // --- Table 2, aiesim column: the cycle engine at the same repetitions --
  {
    Span sp{"aiesim.simulate_cycle", batch};
    const auto t0 = Clock::now();
    const aiesim::SimResult res = c.with_io([&](auto&... io) {
      return aiesim::simulate(C::graph().view(), cycle_config(c.reps), io...);
    });
    bs.cycle_s += seconds_since(t0);
    rep.check(!res.run.deadlocked && hash_of(c.out) == coop_hash,
              name + ": cycle engine output differs from coop");
    rep.exact("virtual_cycles." + name, res.virtual_cycles);
    rep.exact("trace_digest." + name, res.trace.digest());
    rep.exact("step_checksum." + name, res.step_checksum);
  }

  // --- Table 1: 64 blocks, hand-optimized vs generated I/O --------------
  {
    Span sp{"aiesim.table1", batch};
    const auto t0 = Clock::now();
    double ns[2] = {};
    for (int gen = 0; gen < 2; ++gen) {
      const aiesim::SimConfig cfg = table1_config(gen == 1, c.t1_reps);
      std::vector<typename C::Out> o;
      const aiesim::SimResult res = c.with_t1_io(o, [&](auto&... io) {
        return aiesim::simulate(C::graph().view(), cfg, io...);
      });
      ns[gen] = res.ns_per_iteration(cfg.aie_mhz, kTable1Warmup);
      rep.check(!res.run.deadlocked && o.size() == kTable1Blocks &&
                    same_prefix(o, coop_head, kTable1Blocks),
                name + ": Table 1 run output differs from coop");
    }
    bs.table1_s += seconds_since(t0);
    rep.exact_double("table1_hand_ns." + name, ns[0]);
    rep.exact_double("table1_extracted_ns." + name, ns[1]);
    bs.table1_err_pp += std::fabs(100.0 * ns[0] / ns[1] - C::kPaperRel) / 4.0;
  }

  if (!traced) return;
  // --- per-layer extras, outside the batch timer -------------------------
  {
    Span sp{"aie.kernels", batch};
    const auto t0 = Clock::now();
    c.kernels();
    bs.kernel_s += seconds_since(t0);
  }
  {
    Span sp{"aiesim.simulate_event", batch};
    aiesim::SimConfig cfg;
    cfg.repetitions = c.reps;
    const auto t0 = Clock::now();
    const aiesim::SimResult res = c.with_io([&](auto&... io) {
      return aiesim::simulate(C::graph().view(), cfg, io...);
    });
    bs.event_s += seconds_since(t0);
    bs.events += res.run.resumes;
    rep.check(!res.run.deadlocked && hash_of(c.out) == coop_hash,
              name + ": event-detail output differs from coop");
  }
}

}  // namespace

void run_paper_apps(const Options& o, Report& rep) {
  // Tiny keeps IIR at 8 repetitions: Table 1 replays 64 of its blocks.
  const int div = o.tiny ? 32 : 1;
  std::unique_ptr<Cases> cases;
  // Set-up: seeded inputs, their scalar references, and the compiled
  // graphs every simulated configuration binds through (cold cache each
  // time).
  const SetupTimes setup = timed_setup(cases, [&] {
    Rng rng{o.seed};
    auto c = std::make_unique<Cases>(rng, div);
    aiesim::CompiledGraphCache::instance().clear();
    c->each([](auto& x) {
      x.make_reference();
      compile_all<std::remove_cvref_t<decltype(x)>>(nullptr);
    });
    return c;
  });
  rep.info("table2_reps", std::to_string(cases->bitonic.reps) + "/" +
                              std::to_string(cases->farrow.reps) + "/" +
                              std::to_string(cases->iir.reps) + "/" +
                              std::to_string(cases->bilinear.reps));

  BatchTimes batches;
  std::vector<double> coop_s, cycle_s, traced_batch_s;
  std::vector<double> compile_us;
  double err_pp = 0;
  BatchStats layer;  // sums over traced batches
  std::size_t traced_batches = 0;
  std::uint64_t hits0 = 0, lookups0 = 0, hits1 = 0, lookups1 = 0;
  const auto t_start = Clock::now();
  for (std::uint64_t b = 1;; ++b) {
    const bool traced = o.trace && b % 2 == 0;
    if (traced) {
      // Cold compiles, timed, before the batch that binds through them.
      Tracer::get().enable(true);
      aiesim::CompiledGraphCache::instance().clear();
      cases->each([&](auto& x) {
        compile_all<std::remove_cvref_t<decltype(x)>>(&compile_us);
      });
      const auto st = aiesim::CompiledGraphCache::instance().stats();
      hits0 = st.hits;
      lookups0 = st.hits + st.misses;
    }
    BatchStats bs;
    {
      Span sp{"bench.batch", b};
      cases->each([&](auto& x) {
        run_case(x, rep, bs, b, traced, o.inject_fault);
      });
      const double dt = bs.coop_s + bs.cycle_s + bs.table1_s;
      if (traced) {
        traced_batch_s.push_back(dt);
      } else {
        batches.add(dt);
        coop_s.push_back(bs.coop_s);
        cycle_s.push_back(bs.cycle_s);
      }
      err_pp = bs.table1_err_pp;
    }
    if (traced) {
      const auto st = aiesim::CompiledGraphCache::instance().stats();
      hits1 += st.hits - hits0;
      lookups1 += st.hits + st.misses - lookups0;
      Tracer::get().enable(false);
      ++traced_batches;
      layer.coop_total_s += bs.coop_total_s;
      layer.coop_resume_s += bs.coop_resume_s;
      layer.coop_resumes += bs.coop_resumes;
      layer.kernel_s += bs.kernel_s;
      layer.event_s += bs.event_s;
      layer.events += bs.events;
    }
    const bool enough =
        o.trace ? traced_batches >= 1 : !batches.wall_s.empty();
    if (enough && seconds_since(t_start) >= o.seconds) break;
  }

  rep.metric("setup_s", setup.setup_s);
  batches.report(rep);
  rep.figure("coop_s", median(coop_s), "s", coop_s.size());
  rep.figure("cycle_s", median(cycle_s), "s", cycle_s.size());
  rep.figure("table1_err_pp", err_pp, "pp");
  rep.figure("setup_s", setup.setup_s, "s", kSetupReps);
  rep.figure("setup_wall_s", setup.wall_s, "s", kSetupReps);
  rep.exact_double("table1_err_pp", err_pp);
  if (!o.trace) return;

  const double n = static_cast<double>(traced_batches);
  const double coop = median(coop_s);
  const double resumes = static_cast<double>(layer.coop_resumes) / n;
  rep.metric("core.resumes", resumes);
  rep.metric("core.ns_per_resume", resumes > 0 ? 1e9 * coop / resumes : 0);
  rep.metric("core.sched_share",
             layer.coop_total_s > 0
                 ? (layer.coop_total_s - layer.coop_resume_s) /
                       layer.coop_total_s
                 : 0);
  const double kernel_s = layer.kernel_s / n;
  rep.metric("aie.kernel_s", kernel_s);
  rep.metric("aie.kernel_share", coop > 0 ? kernel_s / coop : 0);
  rep.metric("aiesim.compile_us", median(compile_us));
  rep.metric("aiesim.cache_hit_ratio",
             lookups1 > 0 ? static_cast<double>(hits1) /
                                static_cast<double>(lookups1)
                          : 0);
  const double event_s = layer.event_s / n;
  rep.metric("aiesim.event_s", event_s);
  rep.metric("aiesim.micro_s", median(cycle_s) - event_s);
  const double events = static_cast<double>(layer.events) / n;
  rep.metric("aiesim.events", events);
  rep.metric("aiesim.ns_per_event", events > 0 ? 1e9 * event_s / events : 0);
  rep.metric("trace.overhead_frac",
             median(traced_batch_s) / median(batches.wall_s) - 1.0);
}

}  // namespace perfbench

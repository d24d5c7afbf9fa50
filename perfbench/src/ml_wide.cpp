// ml_wide -- AIE4ML-style int8 graphs (10-kernel GEMM cascade, 4-channel
// conv2d cascade, softmax) on ExecMode::coop and on ExecMode::coop_mt with
// kPoolWorkers shard workers.
#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "apps/conv2d.hpp"
#include "apps/ml_gemm.hpp"
#include "apps/softmax.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

namespace mg = apps::ml_gemm;
namespace cv = apps::conv2d;
namespace sm = apps::softmax;

template <class T>
bool same(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

volatile int g_sink = 0;  // keeps direct kernel calls observable

struct Gemm {
  static constexpr const char* kName = "gemm";
  static const auto& graph() { return mg::graph; }
  int shift;
  std::array<std::vector<mg::TilePair8>, mg::kStrips * mg::kCascade> feeds;
  std::vector<mg::Tile8> out0, out1, ref0, ref1;

  Gemm(Rng& rng, std::size_t m_tiles, std::size_t n_tiles)
      : shift(static_cast<int>(rng.range(8, 11))) {
    std::vector<std::vector<mg::Tile8>> a(m_tiles), b(mg::kCascade);
    auto fill = [&](mg::Tile8& t) {
      for (auto& v : t.m) v = static_cast<std::int8_t>(rng.range(-128, 127));
    };
    for (auto& row : a) {
      row.resize(mg::kCascade);
      for (auto& t : row) fill(t);
    }
    for (auto& row : b) {
      row.resize(n_tiles);
      for (auto& t : row) fill(t);
    }
    // Output tile i streams through strip i % 2 (mg::multiply_tiled order).
    std::size_t total = 0;
    for (const auto& arow : a) {
      for (std::size_t c = 0; c < n_tiles; ++c, ++total) {
        const std::size_t strip = total % mg::kStrips;
        for (std::size_t k = 0; k < mg::kCascade; ++k) {
          feeds[strip * mg::kCascade + k].push_back(
              mg::TilePair8{arow[k], b[k][c]});
        }
      }
    }
    a_ = std::move(a);
    b_ = std::move(b);
  }
  void make_reference() {
    const auto ref = mg::reference_multiply_tiled(a_, b_, shift);
    for (std::size_t i = 0; i < ref.size(); ++i) {
      (i % 2 == 0 ? ref0 : ref1).push_back(ref[i]);
    }
  }
  template <class F> auto with_io(F&& f) {
    out0.clear();
    out1.clear();
    return f(feeds[0], feeds[1], feeds[2], feeds[3], feeds[4], feeds[5],
             feeds[6], feeds[7], shift, shift, out0, out1);
  }
  void attach(cgsim::RuntimeContext& ctx) {
    out0.clear();
    out1.clear();
    for (std::size_t k = 0; k < feeds.size(); ++k) {
      ctx.add_stream_source<mg::TilePair8>(
          k, std::span<const mg::TilePair8>{feeds[k]}, 1);
    }
    ctx.add_rtp_source<int>(8, shift);
    ctx.add_rtp_source<int>(9, shift);
    ctx.add_stream_sink<mg::Tile8>(0, out0);
    ctx.add_stream_sink<mg::Tile8>(1, out1);
  }
  [[nodiscard]] bool matches_reference() const {
    return same(out0, ref0) && same(out1, ref1);
  }
  [[nodiscard]] std::uint64_t digest() const {
    return hash_of(out1, hash_of(out0));
  }
  void kernels() const {
    int acc = 0;
    for (std::size_t s = 0; s < mg::kStrips; ++s) {
      const auto& head = feeds[s * mg::kCascade];
      for (std::size_t i = 0; i < head.size(); ++i) {
        mg::Tile32 c{};
        for (std::size_t k = 0; k < mg::kCascade; ++k) {
          const mg::TilePair8& p = feeds[s * mg::kCascade + k][i];
          c = mg::mac_tile(c, p.a, p.b);
        }
        acc += mg::requantize(c, shift).m[0];
      }
    }
    g_sink = acc;
  }

 private:
  std::vector<std::vector<mg::Tile8>> a_, b_;
};

struct Conv {
  static constexpr const char* kName = "conv2d";
  static const auto& graph() { return cv::graph; }
  std::array<std::vector<cv::Row>, cv::kChannels> img;
  std::array<cv::Weights, cv::kChannels> w{};
  std::vector<cv::Row> out, ref;

  Conv(Rng& rng, std::size_t rows) {
    for (auto& ch : img) {
      ch.resize(rows);
      for (auto& r : ch) {
        for (auto& v : r.px) v = static_cast<std::int8_t>(rng.range(-128, 127));
      }
    }
    for (auto& cw : w) {
      for (unsigned i = 0; i < 9; ++i) {
        cw.w[i] = static_cast<std::int8_t>(rng.range(-128, 127));
      }
    }
  }
  void make_reference() { ref = cv::reference(img, w); }
  template <class F> auto with_io(F&& f) {
    out.clear();
    return f(img[0], img[1], img[2], img[3], w[0], w[1], w[2], w[3], out);
  }
  void attach(cgsim::RuntimeContext& ctx) {
    out.clear();
    for (std::size_t c = 0; c < cv::kChannels; ++c) {
      ctx.add_stream_source<cv::Row>(c, std::span<const cv::Row>{img[c]}, 1);
      ctx.add_rtp_source<cv::Weights>(cv::kChannels + c, w[c]);
    }
    ctx.add_stream_sink<cv::Row>(0, out);
  }
  [[nodiscard]] bool matches_reference() const { return same(out, ref); }
  [[nodiscard]] std::uint64_t digest() const { return hash_of(out); }
  void kernels() const {
    int acc = 0;
    for (std::size_t y = 2; y < img[0].size(); ++y) {
      const cv::PartialRow* base = nullptr;
      cv::PartialRow part;
      for (std::size_t c = 0; c < cv::kChannels; ++c) {
        part = cv::conv_row(cv::pad_row(img[c][y - 2]),
                            cv::pad_row(img[c][y - 1]),
                            cv::pad_row(img[c][y]), w[c], base);
        base = &part;
      }
      acc += part.px[0];
    }
    g_sink = acc;
  }
};

struct Softmax {
  static constexpr const char* kName = "softmax";
  static const auto& graph() { return sm::graph; }
  std::vector<sm::Block> in, out, ref;

  Softmax(Rng& rng, std::size_t blocks) : in(blocks) {
    for (auto& b : in) {
      for (auto& v : b.x) v = static_cast<std::int8_t>(rng.range(-128, 127));
    }
  }
  void make_reference() {
    ref.clear();
    for (const auto& b : in) ref.push_back(sm::reference_softmax(b));
  }
  template <class F> auto with_io(F&& f) {
    out.clear();
    return f(in, out);
  }
  void attach(cgsim::RuntimeContext& ctx) {
    out.clear();
    ctx.add_stream_source<sm::Block>(0, std::span<const sm::Block>{in}, 1);
    ctx.add_stream_sink<sm::Block>(0, out);
  }
  [[nodiscard]] bool matches_reference() const { return same(out, ref); }
  [[nodiscard]] std::uint64_t digest() const { return hash_of(out); }
  void kernels() const {
    int acc = 0;
    for (const auto& b : in) acc += sm::softmax_block(b).x[0];
    g_sink = acc;
  }
};

struct Cases {
  Gemm gemm;
  Conv conv;
  Softmax softmax;
  Cases(Rng& rng, int div)
      : gemm(rng, 64 / static_cast<std::size_t>(div), 48),
        conv(rng, 6144 / static_cast<std::size_t>(div)),
        softmax(rng, 24576 / static_cast<std::size_t>(div)) {}
  template <class F> void each(F&& f) {
    f(gemm);
    f(conv);
    f(softmax);
  }
};

struct BatchStats {
  double coop_s = 0, mt_s = 0;
  double coop_total_s = 0, coop_resume_s = 0;
  std::uint64_t coop_resumes = 0, mt_resumes = 0;
  double busy_ratio_weighted = 0;  ///< sum of (max/mean busy) x run time
  double kernel_s = 0;
};

template <class C>
void run_case(C& c, Report& rep, BatchStats& bs, std::uint64_t batch,
              int workers, bool traced, bool fault) {
  const std::string name = C::kName;
  {
    Span sp{"core.coop_run", batch};
    const auto t0 = Clock::now();
    cgsim::RunResult rr;
    if (traced) {
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
        return C::graph().run(cgsim::RunOptions{cgsim::ExecMode::coop, 1},
                              io...);
      });
    }
    bs.coop_s += seconds_since(t0);
    bs.coop_resumes += rr.resumes;
    rep.exact("coop_resumes." + name, rr.resumes);
    bool ok = !rr.deadlocked && c.matches_reference();
    if (fault && name == "softmax") ok = false;
    rep.check(ok, name + ": coop output differs from the scalar reference");
  }
  const std::uint64_t coop_digest = c.digest();
  rep.exact("output_digest." + name, coop_digest);
  {
    Span sp{"core.coop_mt_run", batch};
    cgsim::RunOptions opts;
    opts.mode = cgsim::ExecMode::coop_mt;
    opts.workers = workers;
    const auto t0 = Clock::now();
    const cgsim::RunResult rr = c.with_io([&](auto&... io) {
      return C::graph().run(opts, io...);
    });
    const double dt = seconds_since(t0);
    bs.mt_s += dt;
    bs.mt_resumes += rr.resumes;
    double max_busy = 0, sum_busy = 0;
    for (const cgsim::WorkerLoad& w : rr.worker_loads) {
      max_busy = std::max(max_busy, w.busy_s);
      sum_busy += w.busy_s;
    }
    if (sum_busy > 0) {
      bs.busy_ratio_weighted +=
          dt * max_busy /
          (sum_busy / static_cast<double>(rr.worker_loads.size()));
    }
    rep.check(!rr.deadlocked && c.digest() == coop_digest,
              name + ": coop_mt output differs from coop");
  }
  if (traced) {
    Span sp{"aie.kernels", batch};
    const auto t0 = Clock::now();
    c.kernels();
    bs.kernel_s += seconds_since(t0);
  }
}

}  // namespace

void run_ml_wide(const Options& o, Report& rep) {
  const int div = o.tiny ? 16 : 1;
  const int workers = kPoolWorkers;
  rep.info("coop_mt_workers", workers);
  std::unique_ptr<Cases> cases;
  const SetupTimes setup = timed_setup(cases, [&] {
    Rng rng{o.seed};
    auto c = std::make_unique<Cases>(rng, div);
    c->each([](auto& x) { x.make_reference(); });
    return c;
  });
  rep.info("sizes", std::to_string(cases->gemm.feeds[0].size() * 2) +
                        " gemm tiles / " +
                        std::to_string(cases->conv.img[0].size()) +
                        " conv rows / " +
                        std::to_string(cases->softmax.in.size()) +
                        " softmax blocks");

  BatchTimes batches;
  std::vector<double> coop_s, mt_s, traced_batch_s;
  BatchStats layer;
  std::size_t traced_batches = 0;
  const auto t_start = Clock::now();
  for (std::uint64_t b = 1;; ++b) {
    const bool traced = o.trace && b % 2 == 0;
    Tracer::get().enable(traced);
    BatchStats bs;
    {
      Span sp{"bench.batch", b};
      cases->each([&](auto& x) {
        run_case(x, rep, bs, b, workers, traced, o.inject_fault);
      });
    }
    Tracer::get().enable(false);
    const double dt = bs.coop_s + bs.mt_s;
    if (traced) {
      traced_batch_s.push_back(dt);
      ++traced_batches;
      layer.coop_total_s += bs.coop_total_s;
      layer.coop_resume_s += bs.coop_resume_s;
      layer.coop_resumes += bs.coop_resumes;
      layer.mt_resumes += bs.mt_resumes;
      layer.mt_s += bs.mt_s;
      layer.busy_ratio_weighted += bs.busy_ratio_weighted;
      layer.kernel_s += bs.kernel_s;
    } else {
      batches.add(dt);
      coop_s.push_back(bs.coop_s);
      mt_s.push_back(bs.mt_s);
    }
    const bool enough =
        o.trace ? traced_batches >= 1 : !batches.wall_s.empty();
    if (enough && seconds_since(t_start) >= o.seconds) break;
  }

  rep.metric("setup_s", setup.setup_s);
  batches.report(rep);
  rep.figure("coop_s", median(coop_s), "s", coop_s.size());
  rep.figure("coop_mt_s", median(mt_s), "s", mt_s.size());
  rep.figure("setup_s", setup.setup_s, "s", kSetupReps);
  rep.figure("setup_wall_s", setup.wall_s, "s", kSetupReps);
  if (!o.trace) return;

  const double n = static_cast<double>(traced_batches);
  const double coop = median(coop_s), mt = median(mt_s);
  const double resumes = static_cast<double>(layer.coop_resumes) / n;
  rep.metric("core.resumes", resumes);
  rep.metric("core.ns_per_resume", resumes > 0 ? 1e9 * coop / resumes : 0);
  rep.metric("core.sched_share",
             layer.coop_total_s > 0
                 ? (layer.coop_total_s - layer.coop_resume_s) /
                       layer.coop_total_s
                 : 0);
  rep.metric("core.mt.parallel_eff", mt > 0 ? coop / (mt * workers) : 0);
  rep.metric("core.mt.busy_max_over_mean",
             layer.mt_s > 0 ? layer.busy_ratio_weighted / layer.mt_s : 0);
  rep.metric("core.mt.resume_ratio",
             layer.coop_resumes > 0
                 ? static_cast<double>(layer.mt_resumes) /
                       static_cast<double>(layer.coop_resumes)
                 : 0);
  const double kernel_s = layer.kernel_s / n;
  rep.metric("aie.kernel_s", kernel_s);
  rep.metric("aie.kernel_share", coop > 0 ? kernel_s / coop : 0);
  rep.metric("trace.overhead_frac",
             median(traced_batch_s) / median(batches.wall_s) - 1.0);
}

}  // namespace perfbench

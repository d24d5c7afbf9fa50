// perfbench -- the repository benchmark binary. run.py builds and drives it;
// README.md documents workloads and metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--tiny] [--inject-fault] [--trace-out <file>]
//
// The last stdout line is the result object (README.md); the line
// before it ("perfbench-detail ...") carries the named figures, the
// exact simulated counts, and the host / load shape.
#include <cpuid.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <span>
#include <string>
#include <string_view>

#include "aie/simd.hpp"
#include "harness.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

enum : unsigned { kPaper = 1, kMl = 2, kDse = 4, kSvc = 8, kAll = 15 };

struct MetricDef {
  const char* name;
  const char* unit;
  unsigned workloads;  ///< which workloads measure it; others report 0
};

// End-to-end metrics of the result line: the same names on every workload.
constexpr MetricDef kEndToEnd[] = {
    {"batch_ref", "ref", kAll},
    {"setup_s", "s", kAll},
    {"peak_rss_mb", "MiB", kAll},
};

// Per-layer metrics of the traced run. A layer a workload does not
// exercise reports 0 -- itself a prediction the docs state.
constexpr MetricDef kPerLayer[] = {
    {"core.resumes", "count", kPaper | kMl},
    {"core.ns_per_resume", "ns", kPaper | kMl},
    {"core.sched_share", "ratio", kPaper | kMl},
    {"core.mt.parallel_eff", "ratio", kMl},
    {"core.mt.busy_max_over_mean", "ratio", kMl},
    {"core.mt.resume_ratio", "ratio", kMl},
    {"core.pool.reuse_ratio", "ratio", kDse},
    {"core.sweep.busy_frac", "ratio", kDse},
    {"core.self_s", "s", kAll},
    {"aie.kernel_s", "s", kPaper | kMl},
    {"aie.kernel_share", "ratio", kPaper | kMl},
    {"aie.self_s", "s", kAll},
    {"aiesim.compile_us", "us", kPaper | kDse | kSvc},
    {"aiesim.cache_hit_ratio", "ratio", kPaper | kDse | kSvc},
    {"aiesim.event_s", "s", kPaper},
    {"aiesim.micro_s", "s", kPaper},
    {"aiesim.events", "count", kPaper},
    {"aiesim.ns_per_event", "ns", kPaper},
    {"aiesim.resim.incr_us", "us", kDse},
    {"aiesim.resim.full_us", "us", kDse},
    {"aiesim.resim.incremental_ratio", "ratio", kDse},
    {"aiesim.resim.cone_frac", "ratio", kDse},
    {"aiesim.self_s", "s", kAll},
    {"net.connect_us", "us", kSvc},
    {"net.encode_ns_per_kib", "ns/KiB", kSvc},
    {"net.decode_ns_per_kib", "ns/KiB", kSvc},
    {"net.transport_us.cold", "us", kSvc},
    {"net.transport_us.warm", "us", kSvc},
    {"net.shm_bytes_frac", "ratio", kSvc},
    {"net.self_s", "s", kAll},
    {"svc.open_us", "us", kSvc},
    {"svc.server_us.cold", "us", kSvc},
    {"svc.server_us.warm", "us", kSvc},
    {"svc.codec_us", "us", kSvc},
    {"svc.build_us", "us", kSvc},
    {"svc.warm_ratio", "ratio", kSvc},
    {"svc.incremental_ratio", "ratio", kSvc},
    {"svc.session_errors", "count", kSvc},
    {"svc.self_s", "s", kAll},
    {"trace.overhead_frac", "ratio", kAll},
};

struct Workload {
  const char* name;
  unsigned bit;
  void (*run)(const Options&, Report&);
};

constexpr Workload kWorkloads[] = {
    {"paper_apps", kPaper, run_paper_apps},
    {"ml_wide", kMl, run_ml_wide},
    {"dse_sweep", kDse, run_dse_sweep},
    {"svc_sessions", kSvc, run_svc_sessions},
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--tiny] [--inject-fault] "
               "[--trace-out <file>]\n",
               msg);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    auto val = [&]() -> const char* {
      if (i + 1 >= argc) usage("missing value");
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = val();
    } else if (a == "--seed") {
      o.seed = std::strtoull(val(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::atof(val());
    } else if (a == "--trace") {
      o.trace = std::atoi(val()) != 0;
    } else if (a == "--trace-out") {
      o.trace_out = val();
    } else if (a == "--tiny") {
      o.tiny = true;
    } else if (a == "--inject-fault") {
      o.inject_fault = true;
    } else {
      usage("unknown argument");
    }
  }
  if (o.seconds <= 0) usage("--seconds must be positive");
  return o;
}

std::string cpu_model() {
  unsigned regs[12] = {};
  for (unsigned leaf = 0; leaf < 3; ++leaf) {
    if (__get_cpuid(0x80000002 + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                    &regs[4 * leaf + 2], &regs[4 * leaf + 3]) == 0) {
      return "unknown";
    }
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s{brand};
  while (!s.empty() && s.back() == ' ') s.pop_back();
  while (!s.empty() && s.front() == ' ') s.erase(s.begin());
  return s;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parse(argc, argv);
  const Workload* wl = nullptr;
  for (const Workload& w : kWorkloads) {
    if (opts.workload == w.name) wl = &w;
  }
  if (wl == nullptr) usage("unknown workload");

  Report rep;
  rep.info("workload", opts.workload);
  rep.info("seed", std::to_string(opts.seed));
  rep.info("seconds", num(opts.seconds));
  rep.info("trace", opts.trace ? 1 : 0);
  rep.info("tiny", opts.tiny ? 1 : 0);
  rep.info("nproc", nproc());
  rep.info("cpu_model", cpu_model());
  rep.info("compiler", std::string{"gcc "} + __VERSION__);
  rep.info("build_type", PERFBENCH_BUILD_TYPE);
  rep.info("simd_backend", aie::simd::backend::name);
  rep.info("pinned_cpu", pin_to_one_cpu());

  Tracer::get().enable(false);  // workloads switch it on for traced batches
  try {
    wl->run(opts, rep);
  } catch (const std::exception& e) {
    rep.failure(std::string{"uncaught exception: "} + e.what());
  }

  if (opts.trace) {
    for (const auto& [layer, s] : Tracer::get().self_seconds()) {
      if (layer != "bench") rep.metric(layer + ".self_s", s);
    }
    // About 150 bytes a span: the file stays under 10 MB.
    constexpr std::size_t kMaxWrittenSpans = 60000;
    if (!opts.trace_out.empty() &&
        !Tracer::get().write_chrome(opts.trace_out, kMaxWrittenSpans)) {
      rep.failure("cannot write trace file " + opts.trace_out);
    }
    const std::size_t n_spans = Tracer::get().spans().size();
    rep.info("trace_spans", static_cast<long long>(n_spans));
    rep.info("trace_spans_written",
             static_cast<long long>(std::min(n_spans, kMaxWrittenSpans)));
  } else {
    rep.metric("peak_rss_mb", peak_rss_mb());
  }

  if (rep.attempted() == 0) rep.failure("no operation completed");

  // Assemble exactly the metric set of this run mode.
  std::string metrics;
  for (const MetricDef& m : opts.trace ? std::span<const MetricDef>{kPerLayer}
                                       : std::span<const MetricDef>{kEndToEnd}) {
    double v = 0.0;
    const auto it = rep.metrics.find(m.name);
    const bool self_time = std::string_view{m.name}.ends_with(".self_s");
    if (it != rep.metrics.end()) {
      v = it->second;
    } else if ((m.workloads & wl->bit) != 0 && !self_time) {
      rep.failure(std::string{"metric not measured: "} + m.name);
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += json_str(m.name) + ": {\"value\": " + num(v) +
               ", \"unit\": " + json_str(m.unit) + "}";
  }

  rep.figure("failed_frac",
             static_cast<double>(rep.failed()) /
                 static_cast<double>(rep.attempted()),
             "ratio", rep.attempted());
  if (!opts.trace) rep.figure("peak_rss_mb", rep.metrics["peak_rss_mb"], "MiB");

  // Human-readable summary, then the detail object, then the result.
  std::printf("perfbench %s seed=%llu trace=%d\n", opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed), opts.trace ? 1 : 0);
  for (const auto& [k, f] : rep.figures) {
    std::printf("  %-34s %16.6g %-6s (n=%zu)\n", k.c_str(), f.value,
                f.unit.c_str(), f.n);
  }
  for (const auto& [k, v] : rep.exacts) {
    std::printf("  exact %-28s %s\n", k.c_str(), v.c_str());
  }
  for (const std::string& f : rep.failures) {
    std::printf("  FAILED: %s\n", f.c_str());
  }
  std::string detail = "{\"info\": {";
  bool first = true;
  for (const auto& [k, v] : rep.infos) {
    detail += (first ? "" : ", ") + json_str(k) + ": " + json_str(v);
    first = false;
  }
  detail += "}, \"figures\": {";
  first = true;
  for (const auto& [k, f] : rep.figures) {
    detail += (first ? "" : ", ") + json_str(k) + ": {\"value\": " +
              num(f.value) + ", \"unit\": " + json_str(f.unit) +
              ", \"n\": " + std::to_string(f.n) + "}";
    first = false;
  }
  detail += "}, \"exact\": {";
  first = true;
  for (const auto& [k, v] : rep.exacts) {
    detail += (first ? "" : ", ") + json_str(k) + ": " + json_str(v);
    first = false;
  }
  detail += "}, \"failures\": [";
  first = true;
  for (const std::string& f : rep.failures) {
    detail += (first ? "" : ", ") + json_str(f);
    first = false;
  }
  detail += "]}";
  std::printf("perfbench-detail %s\n", detail.c_str());

  const bool correct = rep.failed() == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(rep.attempted()),
              static_cast<unsigned long long>(rep.failed()),
              metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

#include "harness.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <thread>

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// ---------------------------------------------------------------------------

namespace {
thread_local std::vector<std::uint32_t> t_open;  // open span ids, innermost last
std::atomic<std::uint32_t> g_tids{0};
std::uint32_t this_tid() {
  thread_local const std::uint32_t tid = g_tids.fetch_add(1) + 1;
  return tid;
}

volatile std::uint64_t g_reference_sink = 0;  // keeps the reference loop

std::string layer_of(const char* name) {
  const std::string s{name};
  return s.substr(0, s.find('.'));
}
}  // namespace

Tracer& Tracer::get() {
  static Tracer t;
  return t;
}

void Tracer::record(const SpanRec& s) {
  std::lock_guard lk{m_};
  spans_.push_back(s);
}

std::vector<SpanRec> Tracer::spans() const {
  std::lock_guard lk{m_};
  return spans_;
}

std::map<std::string, double> Tracer::self_seconds() const {
  const std::vector<SpanRec> all = spans();
  std::map<std::uint32_t, std::vector<const SpanRec*>> kids;
  for (const SpanRec& s : all) kids[s.parent].push_back(&s);
  std::map<std::string, double> out;
  for (const SpanRec& s : all) {
    // Union of child intervals clipped to the parent (children on pool
    // threads may overlap each other).
    std::vector<std::pair<double, double>> iv;
    if (const auto it = kids.find(s.id); it != kids.end()) {
      for (const SpanRec* c : it->second) {
        iv.emplace_back(std::max(c->t0_us, s.t0_us),
                        std::min(c->t1_us, s.t1_us));
      }
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0, end = s.t0_us;
    for (const auto& [a, b] : iv) {
      const double from = std::max(a, end);
      if (b > from) {
        covered += b - from;
        end = b;
      }
    }
    out[layer_of(s.name)] += (s.t1_us - s.t0_us - covered) * 1e-6;
  }
  return out;
}

bool Tracer::write_chrome(const std::string& path,
                          std::size_t max_spans) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  std::vector<SpanRec> all = spans();
  if (all.size() > max_spans) all.resize(max_spans);
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRec& s = all[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
                 "\"args\": {\"id\": %u, \"parent\": %u, \"request\": "
                 "%llu}}%s\n",
                 s.name, layer_of(s.name).c_str(), s.t0_us,
                 s.t1_us - s.t0_us, s.tid, s.id, s.parent,
                 static_cast<unsigned long long>(s.request),
                 i + 1 < all.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

Span::Span(const char* name, std::uint64_t request, std::uint32_t parent) {
  Tracer& t = Tracer::get();
  on_ = t.enabled();
  if (!on_) return;
  rec_.name = name;
  rec_.request = request;
  rec_.id = t.next_id();
  rec_.parent = parent != kInherit ? parent
                                   : (t_open.empty() ? 0u : t_open.back());
  rec_.tid = this_tid();
  t_open.push_back(rec_.id);
  rec_.t0_us = t.now_us();
}

Span::~Span() {
  if (!on_) return;
  Tracer& t = Tracer::get();
  rec_.t1_us = t.now_us();
  t_open.pop_back();
  t.record(rec_);
}

// ---------------------------------------------------------------------------

void Report::check(bool ok, const std::string& what) {
  std::lock_guard lk{m_};
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failures.size() < 8) failures.push_back(what);
}

void Report::metric(const std::string& name, double value) {
  metrics[name] = value;
}

void Report::figure(const std::string& name, double value,
                    const std::string& unit, std::size_t n) {
  figures[name] = Figure{value, unit, n};
}

void Report::exact(const std::string& name, std::uint64_t value) {
  exacts[name] = std::to_string(value);
}

void Report::exact_double(const std::string& name, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  exacts[name] = buf;
}

void Report::info(const std::string& name, const std::string& value) {
  infos[name] = value;
}

void Report::info(const std::string& name, long long value) {
  infos[name] = std::to_string(value);
}

double reference_loop_s() {
  static const std::vector<std::uint32_t> table = [] {
    std::vector<std::uint32_t> t(1u << 18);
    Rng rng{0x5eed};
    for (std::uint32_t& x : t) {
      x = static_cast<std::uint32_t>(rng.next() % t.size());
    }
    return t;
  }();
  const auto t0 = Clock::now();
  std::uint32_t at = 1;
  std::uint64_t acc = 0;
  for (std::uint32_t i = 0; i < 400000; ++i) {
    at = table[at ^ (i & 7u)];
    acc += at * 0x9e3779b97f4a7c15ull;
    if (((acc >> 7) & 1u) != 0) {
      acc ^= static_cast<std::uint64_t>(i) << 3;
    } else {
      acc += 17;
    }
  }
  g_reference_sink = acc;
  return seconds_since(t0);
}

void BatchTimes::add(double wall, double ref) {
  if (ref <= 0) {
    std::vector<double> t(static_cast<std::size_t>(
        std::clamp(static_cast<int>(wall / 0.4), 1, 5)));
    for (double& x : t) x = reference_loop_s();
    ref = median(t);
  }
  wall_s.push_back(wall);
  ref_s.push_back(ref);
}

void BatchTimes::report(Report& rep) const {
  double wall = 0, ref = 0;
  for (std::size_t i = 0; i < wall_s.size(); ++i) {
    wall += wall_s[i];
    ref += ref_s[i];
  }
  const std::size_t n = wall_s.size();
  const double mean_wall = wall / static_cast<double>(n);
  const double mean_ref = ref / static_cast<double>(n);
  const double batch_ref =
      mean_wall / mean_ref * (kReferenceLoopIdleS / mean_ref);
  rep.metric("batch_ref", batch_ref);
  rep.figure("batch_ref", batch_ref, "ref", n);
  rep.figure("batch_s", mean_wall, "s", n);
  rep.figure("ref_loop_s", mean_ref, "s", n);
}

int nproc() {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n)
               : static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpu = c;
  }
  if (cpu < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return ::sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1;
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench

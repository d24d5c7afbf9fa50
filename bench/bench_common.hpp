// Shared argv helpers for the cgsim bench binaries.
//
// Every bench_* that emits a BENCH_*.json accepts a uniform
//
//   --out <dir>     (or --out=<dir>; default ".")
//
// naming the directory the JSON lands in, so CI can collect canonical
// copies instead of fishing them out of build/. The flag is stripped from
// argv before the positional arguments are parsed, which keeps the
// existing positional invocations (ctest smokes, scripts) working
// unchanged. Call strip_out_dir() after benchmark::Initialize so
// --benchmark_* flags are consumed first.
// Every emitter also records the process's resource footprint via
// emit_resource_fields(): peak RSS and total wall-clock, so a regression
// in memory or end-to-end runtime shows up in the canonical JSON even when
// the benchmark's own metric holds steady, and the host it ran on: the
// CPU and the ISA level the binary was built for. Call wall_anchor() first
// thing in main() to start the wall clock.
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

namespace benchutil {

/// Removes "--out <dir>" / "--out=<dir>" from argv (compacting it in
/// place) and returns the directory, "." when absent. The directory is
/// created (recursively) when missing, so "--out results/run3" works
/// without a prior mkdir -p; creation failure is left for the fopen of
/// the JSON itself to report.
inline std::string strip_out_dir(int& argc, char** argv) {
  std::string dir = ".";
  int w = 1;
  for (int r = 1; r < argc; ++r) {
    const std::string a = argv[r];
    if (a == "--out" && r + 1 < argc) {
      dir = argv[++r];
      continue;
    }
    if (a.rfind("--out=", 0) == 0) {
      dir = a.substr(6);
      continue;
    }
    argv[w++] = argv[r];
  }
  argc = w;
  if (dir.empty()) dir = ".";
  if (dir != ".") {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
  }
  return dir;
}

/// Joins the output directory with a JSON filename; absolute filenames
/// win over the directory so explicit positional paths keep working.
inline std::string join_out(const std::string& dir, const std::string& file) {
  if (!file.empty() && file.front() == '/') return file;
  if (dir == ".") return file;
  return dir + "/" + file;
}

/// Peak resident set size of this process in bytes (ru_maxrss is KiB on
/// Linux).
inline long long peak_rss_bytes() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<long long>(ru.ru_maxrss) * 1024;
}

/// Seconds since wall_anchor() was first called. Call wall_anchor() at the
/// top of main() so the figure covers the whole process, not just the
/// emission path.
inline std::chrono::steady_clock::time_point& wall_anchor_point() {
  static std::chrono::steady_clock::time_point t0 =
      std::chrono::steady_clock::now();
  return t0;
}
inline void wall_anchor() { (void)wall_anchor_point(); }
inline double total_wall_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       wall_anchor_point())
      .count();
}

/// The CPU a bench ran on, from the first processor of /proc/cpuinfo: its
/// model name and its family and model numbers (-1 where absent). A
/// virtual machine may report a generic name such as "Intel(R) Xeon(R)
/// Processor", so only the numbers tell two such hosts apart.
struct HostCpu {
  std::string model_name = "unknown";
  int family = -1;
  int model = -1;
};

inline HostCpu host_cpu() {
  HostCpu cpu;
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  bool in_first = false;
  while (std::getline(in, line)) {
    const auto colon = line.find(':');
    if (colon == std::string::npos) {
      if (in_first) break;  // a blank line ends the first processor
      continue;
    }
    in_first = true;
    std::string key = line.substr(0, colon);
    key.erase(key.find_last_not_of(" \t") + 1);
    const auto start = line.find_first_not_of(" \t", colon + 1);
    const std::string value =
        start == std::string::npos ? std::string{} : line.substr(start);
    if (key == "model name") {
      cpu.model_name = value;
    } else if (key == "cpu family" || key == "model") {
      int& field = key == "model" ? cpu.model : cpu.family;
      try {
        field = std::stoi(value);
      } catch (const std::exception&) {
        field = -1;
      }
    }
  }
  return cpu;
}

/// The ISA level the binary was built for, from the compiler's target
/// macros: the widest of the levels the SIMD emulation picks forms for.
inline const char* isa_level() {
#if defined(__AVX512VNNI__)
  return "avx512-vnni";
#elif defined(__AVX512F__)
  return "avx512";
#elif defined(__AVX2__)
  return "avx2";
#else
  return "baseline";
#endif
}

/// s as the body of a JSON string: quotes, backslashes and control
/// characters escaped.
inline std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

/// Writes the uniform resource-usage and host fields every BENCH_*.json
/// carries. Emit inside the top-level object, after the opening brace.
inline void emit_resource_fields(std::FILE* f) {
  std::fprintf(f, "  \"peak_rss_bytes\": %lld,\n  \"total_wall_s\": %.3f,\n",
               peak_rss_bytes(), total_wall_s());
  const HostCpu cpu = host_cpu();
  std::fprintf(f,
               "  \"cpu_model_name\": \"%s\",\n  \"cpu_family\": %d,\n"
               "  \"cpu_model\": %d,\n  \"isa_level\": \"%s\",\n",
               json_escape(cpu.model_name).c_str(), cpu.family, cpu.model,
               isa_level());
}

}  // namespace benchutil

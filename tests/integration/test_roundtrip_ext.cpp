// Extended round-trip integration: host-compile generated code for the
// harder extraction shapes -- a template kernel with two instantiations
// plus a window-I/O kernel (AIE realm), and an HLS-realm kernel against an
// hls::stream shim. Like test_roundtrip.cpp, this proves the generated
// C++ is well-formed and functionally equivalent to the prototype.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "core/cgsim.hpp"
#include "extractor/extractor.hpp"

namespace {

using namespace cgsim;

COMPUTE_KERNEL_TEMPLATE(aie, rte_cast, T,
                        KernelReadPort<T> in,
                        KernelWritePort<float> out) {
  while (true) {
    co_await out.put(static_cast<float>(co_await in.get()) * 2.0f);
  }
}

COMPUTE_KERNEL(hls, rte_offset,
               KernelReadPort<float> in,
               KernelWritePort<float> out) {
  while (true) {
    co_await out.put(co_await in.get() + 0.5f);
  }
}

constexpr auto rte_graph = make_compute_graph_v<[](IoConnector<int> a) {
  IoConnector<float> mid, z;
  rte_cast<int>(a, mid);
  rte_offset(mid, z);
  return std::make_tuple(z);
}>;

const char* kProto = R"cpp(
#include "core/cgsim.hpp"

COMPUTE_KERNEL_TEMPLATE(aie, rte_cast, T,
                        cgsim::KernelReadPort<T> in,
                        cgsim::KernelWritePort<float> out) {
  while (true) {
    co_await out.put(static_cast<float>(co_await in.get()) * 2.0f);
  }
}

COMPUTE_KERNEL(hls, rte_offset,
               cgsim::KernelReadPort<float> in,
               cgsim::KernelWritePort<float> out) {
  while (true) {
    co_await out.put(co_await in.get() + 0.5f);
  }
}
)cpp";

// Shim for <adf.h> (stream subset; see test_roundtrip.cpp for the full
// version with windows).
const char* kAdfShim = R"cpp(
#pragma once
#include <cstddef>
#include <vector>
struct end_of_stream {};
template <class T>
struct input_stream { const T* data; std::size_t n; std::size_t i = 0; };
template <class T>
T readincr(input_stream<T>* s) {
  if (s->i >= s->n) throw end_of_stream{};
  return s->data[s->i++];
}
template <class T>
struct output_stream { std::vector<T>* out; };
template <class T>
void writeincr(output_stream<T>* s, const T& v) { s->out->push_back(v); }
template <class T>
struct input_window { const T* data; std::size_t n; std::size_t i = 0; };
template <class T>
void window_readincr(input_window<T>* w, T& v) {
  if (w->i >= w->n) throw end_of_stream{};
  v = w->data[w->i++];
}
template <class T>
struct output_window { std::vector<T>* out; };
template <class T>
void window_writeincr(output_window<T>* w, const T& v) {
  w->out->push_back(v);
}
)cpp";

// Shim for <hls_stream.h>.
const char* kHlsShim = R"cpp(
#pragma once
#include <deque>
namespace hls {
template <class T>
class stream {
 public:
  T read() {
    T v = q_.front();
    q_.pop_front();
    return v;
  }
  void write(const T& v) { q_.push_back(v); }
  bool empty() const { return q_.empty(); }
 private:
  std::deque<T> q_;
};
}  // namespace hls
)cpp";

const char* kAieHarness = R"cpp(
#include <cstdio>
#include <vector>
#include "kernel_decls.hpp"
int main() {
  std::vector<int> in{1, 2, 3};
  std::vector<float> out;
  input_stream<int> s_in{in.data(), in.size()};
  output_stream<float> s_out{&out};
  try {
    rte_cast_int_aie(&s_in, &s_out);
  } catch (const end_of_stream&) {
  }
  if (out.size() != 3) return 1;
  for (std::size_t i = 0; i < 3; ++i) {
    if (out[i] != 2.0f * static_cast<float>(in[i])) return 2;
  }
  return 0;
}
)cpp";

/// Extracts rte_graph into roundtrip_ext/<current test name>, removed
/// first, and returns the generated project directory. Each case owns its
/// directory: ctest runs every case as its own process, possibly in
/// parallel and in any order, so no case may read another's output.
std::filesystem::path extract_project() {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path{CGSIM_BINARY_DIR} / "roundtrip_ext" /
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  fs::remove_all(dir);
  fs::create_directories(dir);
  {
    std::ofstream f{dir / "proto.cpp"};
    f << kProto;
  }
  cgx::GraphDesc desc = cgx::GraphDesc::from_view(
      rte_graph.view(), "rte_graph", (dir / "proto.cpp").string());
  cgx::ExtractOptions opts;
  opts.out_dir = dir.string();
  const auto rep = cgx::extract_graph(
      desc, cgx::SourceFile::load((dir / "proto.cpp").string()), opts);
  EXPECT_TRUE(rep.project.warnings.empty())
      << rep.project.warnings.front();
  return dir / "rte_graph";
}

TEST(RoundtripExt, TemplateKernelCompilesAndRuns) {
  const std::filesystem::path proj = extract_project();
  ASSERT_TRUE(std::filesystem::exists(proj / "rte_cast.cc"));

  {
    std::ofstream f{proj / "adf.h"};
    f << kAdfShim;
  }
  {
    std::ofstream f{proj / "harness.cpp"};
    f << kAieHarness;
  }
  const std::string cmd = "g++ -std=c++20 -I " + proj.string() + " " +
                          (proj / "harness.cpp").string() + " " +
                          (proj / "rte_cast.cc").string() + " -o " +
                          (proj / "rt").string() + " 2> " +
                          (proj / "compile.log").string();
  if (std::system(cmd.c_str()) != 0) {
    std::ifstream log{proj / "compile.log"};
    std::string all{std::istreambuf_iterator<char>{log}, {}};
    FAIL() << "template-kernel codegen failed to compile:\n" << all;
  }
  EXPECT_EQ(std::system((proj / "rt").string().c_str()), 0);
}

TEST(RoundtripExt, HlsProjectCompiles) {
  const std::filesystem::path proj = extract_project();
  ASSERT_TRUE(std::filesystem::exists(proj / "hls" / "rte_offset_hls.cpp"));
  {
    std::ofstream f{proj / "hls" / "hls_stream.h"};
    f << kHlsShim;
  }
  // Compile-only check for the HLS sources (the dataflow wrapper's
  // while(true) kernels need an HLS scheduler to terminate, so running is
  // out of scope for a host shim).
  const std::string cmd =
      "g++ -std=c++20 -fsyntax-only -I " + (proj / "hls").string() + " " +
      (proj / "hls" / "rte_offset_hls.cpp").string() + " " +
      (proj / "hls" / "rte_graph_dataflow.cpp").string() + " 2> " +
      (proj / "hls" / "compile.log").string();
  if (std::system(cmd.c_str()) != 0) {
    std::ifstream log{proj / "hls" / "compile.log"};
    std::string all{std::istreambuf_iterator<char>{log}, {}};
    FAIL() << "HLS codegen failed to compile:\n" << all;
  }
}

}  // namespace

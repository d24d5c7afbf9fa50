// Graph wire codec: serialize -> parse round-trips, registry validation,
// and the randomized-DAG fuzz asserting that a spec rebuilt from its wire
// bytes simulates to bit-identical outputs.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "core/dynamic_graph.hpp"
#include "core/session.hpp"
#include "net/frame.hpp"
#include "service/graph_codec.hpp"
#include "service/kernels.hpp"
#include "service/protocol.hpp"

namespace {

using namespace cgsim;
using namespace cgsim::service;

GraphSpec inc_spec() {
  GraphSpec g;
  g.edges = {{"i32", 64, {}}, {"i32", 64, {}}};
  g.kernels = {{"svc_inc_i32", {0, 1}}};
  g.inputs = {0};
  g.outputs = {1};
  return g;
}

std::span<const std::byte> as_bytes(const std::string& s) {
  return std::as_bytes(std::span{s.data(), s.size()});
}

/// The fields of inc_spec() that parse_graph() narrows to int.
struct IncSpecFields {
  std::uint64_t capacity = 64;    ///< edge 0
  std::uint64_t beat_bits = 0;    ///< edge 0
  std::uint64_t kernel_edge = 1;  ///< the kernel's output edge id
  std::uint64_t input_edge = 0;
};

/// inc_spec()'s wire bytes, written field by field with net::put_varint so
/// a narrowed field can hold any u64. inc_spec_bytes({}) equals
/// serialize_graph(inc_spec()).
std::string inc_spec_bytes(const IncSpecFields& f) {
  const PortSettings s{};
  std::string out;
  net::put_varint(out, kGraphSpecVersion);
  net::put_varint(out, 2);  // edges
  for (int e = 0; e < 2; ++e) {
    net::put_varint(out, 3);
    out += "i32";
    net::put_varint(out, e == 0 ? f.capacity : 64);
    net::put_varint(out, e == 0 ? f.beat_bits : 0);
    out.push_back(0);  // rtp
    out.push_back(static_cast<char>(s.buffer));
    net::put_varint(out, 0);  // window size
    out.push_back(static_cast<char>(s.io));
  }
  net::put_varint(out, 1);  // kernels
  net::put_varint(out, 11);
  out += "svc_inc_i32";
  net::put_varint(out, 2);  // arity
  net::put_varint(out, 0);
  net::put_varint(out, f.kernel_edge);
  net::put_varint(out, 1);  // inputs
  net::put_varint(out, f.input_edge);
  net::put_varint(out, 1);  // outputs
  net::put_varint(out, 1);
  return out;
}

TEST(GraphCodec, SerializeParseRoundTrip) {
  register_builtin_kernels();
  GraphSpec g = inc_spec();
  g.edges[0].settings.beat_bits = 64;
  g.edges[1].settings.window_size = 16;
  const std::string bytes = serialize_graph(g);
  GraphSpec back;
  ASSERT_TRUE(parse_graph(as_bytes(bytes), back));
  EXPECT_EQ(serialize_graph(back), bytes) << "round-trip must be stable";
  ASSERT_EQ(back.edges.size(), 2u);
  EXPECT_EQ(back.edges[0].type, "i32");
  EXPECT_EQ(back.edges[0].settings.beat_bits, 64);
  EXPECT_EQ(back.edges[1].settings.window_size, 16);
  ASSERT_EQ(back.kernels.size(), 1u);
  EXPECT_EQ(back.kernels[0].name, "svc_inc_i32");
  EXPECT_EQ(back.kernels[0].edges, (std::vector<int>{0, 1}));
  EXPECT_EQ(back.inputs, (std::vector<int>{0}));
  EXPECT_EQ(back.outputs, (std::vector<int>{1}));
}

TEST(GraphCodec, MalformedBytesRejected) {
  register_builtin_kernels();
  const std::string bytes = serialize_graph(inc_spec());
  GraphSpec g;
  // Any strict prefix is truncated, never a crash or an accepted parse.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const std::string part = bytes.substr(0, cut);
    EXPECT_FALSE(parse_graph(as_bytes(part), g)) << "cut=" << cut;
  }
  // Trailing garbage is rejected too.
  const std::string extended = bytes + "x";
  EXPECT_FALSE(parse_graph(as_bytes(extended), g));
  // A value that would wrap when narrowed to int fails the parse, rather
  // than wrapping into one build_graph() accepts (2^32 + 64 -> 64).
  ASSERT_EQ(inc_spec_bytes({}), bytes);
  for (const IncSpecFields& wide :
       {IncSpecFields{.capacity = (std::uint64_t{1} << 32) + 64},
        IncSpecFields{.kernel_edge = std::uint64_t{1} << 32},
        IncSpecFields{.input_edge = std::uint64_t{1} << 32},
        IncSpecFields{.beat_bits = std::uint64_t{1} << 31}}) {
    EXPECT_FALSE(parse_graph(as_bytes(inc_spec_bytes(wide)), g))
        << "capacity=" << wide.capacity << " beat=" << wide.beat_bits
        << " kernel_edge=" << wide.kernel_edge
        << " input_edge=" << wide.input_edge;
  }
}

TEST(GraphCodec, UnknownNamesRejectedAtBuild) {
  register_builtin_kernels();
  rt::DynamicGraphBuilder b;
  GraphSpec bad_type = inc_spec();
  bad_type.edges[0].type = "i128";
  EXPECT_THROW(build_graph(bad_type, b), std::invalid_argument);

  GraphSpec bad_kernel = inc_spec();
  bad_kernel.kernels[0].name = "svc_no_such";
  rt::DynamicGraphBuilder b2;
  EXPECT_THROW(build_graph(bad_kernel, b2), std::invalid_argument);

  GraphSpec bad_arity = inc_spec();
  bad_arity.kernels[0].edges = {0};
  rt::DynamicGraphBuilder b3;
  EXPECT_THROW(build_graph(bad_arity, b3), std::invalid_argument);

  GraphSpec bad_edge = inc_spec();
  bad_edge.kernels[0].edges = {0, 9};
  rt::DynamicGraphBuilder b4;
  EXPECT_THROW(build_graph(bad_edge, b4), std::invalid_argument);
}

TEST(GraphCodec, UniformTypeDetection) {
  register_builtin_kernels();
  EXPECT_NE(uniform_type(inc_spec()), nullptr);
  GraphSpec mixed = inc_spec();
  mixed.edges.push_back({"f32", 64, {}});
  EXPECT_EQ(uniform_type(mixed), nullptr);
  EXPECT_EQ(uniform_type(GraphSpec{}), nullptr);
}

// ---------------------------------------------------------------------------
// Randomized-DAG fuzz.
// ---------------------------------------------------------------------------

/// Builds a random i32 DAG out of the builtin service kernels using an
/// open-edge frontier: each kernel consumes open edges (or fresh global
/// inputs) and opens its output edges; whatever remains open at the end
/// becomes the global outputs. Every edge ends up with exactly one
/// producer and one consumer, so the graph always drains.
GraphSpec random_dag(std::mt19937& rng) {
  GraphSpec g;
  std::vector<int> open;
  auto new_edge = [&] {
    const int cap = 4 << std::uniform_int_distribution<int>{0, 4}(rng);
    g.edges.push_back(EdgeSpec{"i32", cap, {}});
    return static_cast<int>(g.edges.size()) - 1;
  };
  auto take_or_input = [&] {
    if (!open.empty() &&
        std::uniform_int_distribution<int>{0, 3}(rng) != 0) {
      const std::size_t at = std::uniform_int_distribution<std::size_t>{
          0, open.size() - 1}(rng);
      const int e = open[at];
      open.erase(open.begin() + static_cast<std::ptrdiff_t>(at));
      return e;
    }
    const int e = new_edge();
    g.inputs.push_back(e);
    return e;
  };
  struct Shape {
    const char* name;
    int reads;
    int writes;
  };
  const Shape shapes[] = {{"svc_inc_i32", 1, 1},
                          {"svc_double_i32", 1, 1},
                          {"svc_mac_i32", 1, 1},
                          {"svc_add_i32", 2, 1},
                          {"svc_split_i32", 1, 2}};
  const int n_kernels = std::uniform_int_distribution<int>{2, 10}(rng);
  for (int k = 0; k < n_kernels; ++k) {
    const Shape& s =
        shapes[std::uniform_int_distribution<std::size_t>{0, 4}(rng)];
    KernelSpec ks;
    ks.name = s.name;
    for (int r = 0; r < s.reads; ++r) ks.edges.push_back(take_or_input());
    for (int w = 0; w < s.writes; ++w) {
      const int e = new_edge();
      ks.edges.push_back(e);
      open.push_back(e);
    }
    g.kernels.push_back(std::move(ks));
  }
  for (int e : open) g.outputs.push_back(e);
  return g;
}

/// Drives a coop session over `spec` with `inputs` and returns the chained
/// output digest (interleaved bulk push/drain, same scheme the daemon's
/// coop lane uses).
std::uint64_t run_spec_digest(const GraphSpec& spec,
                              const std::vector<std::vector<int>>& inputs) {
  rt::DynamicGraphBuilder b;
  build_graph(spec, b);
  InteractiveSession s{b.view()};
  std::vector<std::vector<int>> outputs(spec.outputs.size());
  std::vector<std::size_t> fed(inputs.size(), 0);
  int buf[1024];
  auto drain = [&] {
    bool any = false;
    for (std::size_t o = 0; o < outputs.size(); ++o) {
      for (;;) {
        const std::size_t k = s.poll_n<int>(o, buf, 1024);
        if (k == 0) break;
        outputs[o].insert(outputs[o].end(), buf, buf + k);
        any = true;
        if (k < 1024) break;
      }
    }
    return any;
  };
  for (;;) {
    bool progress = false;
    bool all_fed = true;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      if (fed[i] >= inputs[i].size()) continue;
      const std::size_t k = s.push_n<int>(i, inputs[i].data() + fed[i],
                                          inputs[i].size() - fed[i]);
      fed[i] += k;
      progress |= k > 0;
      all_fed &= fed[i] >= inputs[i].size();
    }
    progress |= drain();
    if (all_fed) break;
    if (!progress) throw std::runtime_error{"graph stalled"};
  }
  s.finish();
  while (drain()) {
  }
  std::uint64_t digest = kFnvSeed;
  for (const auto& out : outputs) {
    digest = fnv1a(out.data(), out.size() * sizeof(int), digest);
    digest ^= out.size() * sizeof(int);
    digest *= 1099511628211ull;
  }
  return digest;
}

TEST(GraphCodecFuzz, RoundTripSimulateDigestEquality) {
  register_builtin_kernels();
  std::mt19937 rng{20260809};
  for (int trial = 0; trial < 40; ++trial) {
    const GraphSpec spec = random_dag(rng);
    const std::string bytes = serialize_graph(spec);
    GraphSpec back;
    ASSERT_TRUE(parse_graph(as_bytes(bytes), back)) << "trial " << trial;
    ASSERT_EQ(serialize_graph(back), bytes) << "trial " << trial;

    // One length for every input: all builtin kernels are rate-balanced
    // 1:1, so equal-length streams drain completely. Ragged lengths would
    // legitimately stall the graph (a join waits forever on the shorter
    // stream) and abort the trial before the digests are compared.
    std::vector<std::vector<int>> inputs(spec.inputs.size());
    std::uniform_int_distribution<int> len{0, 400};
    std::uniform_int_distribution<int> val{-1000, 1000};
    const std::size_t n = static_cast<std::size_t>(len(rng));
    for (auto& in : inputs) {
      in.resize(n);
      for (int& v : in) v = val(rng);
    }
    const std::uint64_t a = run_spec_digest(spec, inputs);
    const std::uint64_t b = run_spec_digest(back, inputs);
    EXPECT_EQ(a, b) << "trial " << trial
                    << ": wire round-trip changed simulation results";
  }
}

}  // namespace

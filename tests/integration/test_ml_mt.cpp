// Digest-identity tests for the ML workload graphs under the sharded
// execution backend: for ml_gemm (10-kernel double cascade), conv2d
// (4-kernel cascade) and softmax (3-kernel pipeline), the single-threaded
// coop run and coop_mt at 1/2/4 workers must produce byte-identical
// outputs. The ML kernels are exact integer pipelines, so any divergence
// is a scheduling bug, not a rounding artifact.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <random>
#include <vector>

#include "apps/conv2d.hpp"
#include "apps/ml_gemm.hpp"
#include "apps/softmax.hpp"
#include "core/cgsim.hpp"

namespace {

using namespace cgsim;

RunOptions mt_opts(int workers) {
  return RunOptions{.mode = ExecMode::coop_mt, .repetitions = 1,
                    .workers = workers};
}

std::uint64_t fnv1a_bytes(const void* data, std::size_t n,
                          std::uint64_t h = 1469598103934665603ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

template <class T>
std::uint64_t digest(const std::vector<T>& v) {
  return fnv1a_bytes(v.data(), v.size() * sizeof(T));
}

constexpr std::array<int, 3> kWorkerCounts{1, 2, 4};

// ---------------------------------------------------------------------------

TEST(MlMt, MlGemmDigestIdenticalAcrossModes) {
  std::mt19937 rng(211);
  constexpr unsigned kPairs = 4;
  std::array<std::vector<apps::ml_gemm::TilePair8>, 8> feeds;
  for (auto& f : feeds) {
    for (unsigned i = 0; i < kPairs; ++i) {
      apps::ml_gemm::TilePair8 p;
      for (auto& v : p.a.m) v = static_cast<std::int8_t>(rng());
      for (auto& v : p.b.m) v = static_cast<std::int8_t>(rng());
      f.push_back(p);
    }
  }
  std::vector<apps::ml_gemm::Tile8> ref0, ref1;
  apps::ml_gemm::graph(feeds[0], feeds[1], feeds[2], feeds[3], feeds[4],
                       feeds[5], feeds[6], feeds[7], 6, 6, ref0, ref1);
  const auto d0 = digest(ref0);
  const auto d1 = digest(ref1);
  for (const int w : kWorkerCounts) {
    std::vector<apps::ml_gemm::Tile8> out0, out1;
    apps::ml_gemm::graph.run(mt_opts(w), feeds[0], feeds[1], feeds[2],
                             feeds[3], feeds[4], feeds[5], feeds[6], feeds[7],
                             6, 6, out0, out1);
    EXPECT_EQ(digest(out0), d0) << "workers=" << w;
    EXPECT_EQ(digest(out1), d1) << "workers=" << w;
  }
}

TEST(MlMt, Conv2dDigestIdenticalAcrossModes) {
  std::mt19937 rng(223);
  constexpr std::size_t kH = 10;
  std::array<std::vector<apps::conv2d::Row>, apps::conv2d::kChannels> img;
  std::array<apps::conv2d::Weights, apps::conv2d::kChannels> w;
  for (auto& ch : img) {
    for (std::size_t y = 0; y < kH; ++y) {
      apps::conv2d::Row r;
      for (auto& v : r.px) v = static_cast<std::int8_t>(rng());
      ch.push_back(r);
    }
  }
  for (auto& cw : w) {
    for (unsigned i = 0; i < 9; ++i) cw.w[i] = static_cast<std::int8_t>(rng());
  }
  std::vector<apps::conv2d::Row> ref;
  apps::conv2d::graph(img[0], img[1], img[2], img[3], w[0], w[1], w[2], w[3],
                      ref);
  const auto d = digest(ref);
  ASSERT_EQ(ref.size(), kH - 2);
  for (const int workers : kWorkerCounts) {
    std::vector<apps::conv2d::Row> out;
    apps::conv2d::graph.run(mt_opts(workers), img[0], img[1], img[2], img[3],
                            w[0], w[1], w[2], w[3], out);
    EXPECT_EQ(digest(out), d) << "workers=" << workers;
  }
}

TEST(MlMt, SoftmaxDigestIdenticalAcrossModes) {
  std::mt19937 rng(227);
  std::vector<apps::softmax::Block> in(16);
  for (auto& b : in) {
    for (auto& v : b.x) v = static_cast<std::int8_t>(rng());
  }
  std::vector<apps::softmax::Block> ref;
  apps::softmax::graph(in, ref);
  const auto d = digest(ref);
  for (const int workers : kWorkerCounts) {
    std::vector<apps::softmax::Block> out;
    apps::softmax::graph.run(mt_opts(workers), in, out);
    EXPECT_EQ(digest(out), d) << "workers=" << workers;
  }
}

// Repeated-run determinism at the widest worker count: the raciest
// configuration must stay fixed-point over many runs.
TEST(MlMt, SoftmaxFourWorkerRepeatedRunsDeterministic) {
  std::mt19937 rng(229);
  std::vector<apps::softmax::Block> in(24);
  for (auto& b : in) {
    for (auto& v : b.x) v = static_cast<std::int8_t>(rng());
  }
  std::vector<apps::softmax::Block> ref;
  apps::softmax::graph(in, ref);
  const auto d = digest(ref);
  for (unsigned rep = 0; rep < 8; ++rep) {
    std::vector<apps::softmax::Block> out;
    apps::softmax::graph.run(mt_opts(4), in, out);
    ASSERT_EQ(digest(out), d) << "rep " << rep;
  }
}

}  // namespace

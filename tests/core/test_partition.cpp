// Graph partitioning for sharded cooperative execution: connected
// components packed whole onto shards (never split, so no edge spans two
// shards), LPT balance, and the edge homes the runtime builds its channels
// on.
#include <gtest/gtest.h>

#include <vector>

#include "core/cgsim.hpp"

namespace {

using namespace cgsim;

COMPUTE_KERNEL(aie, pt_stage,
               KernelReadPort<int> in,
               KernelWritePort<int> out) {
  while (true) co_await out.put(co_await in.get() + 1);
}

inline constexpr PortSettings pt_rtp{.rtp = true};

COMPUTE_KERNEL(aie, pt_scaled,
               KernelReadPort<int> in,
               KernelReadPort<int, pt_rtp> factor,
               KernelWritePort<int> out) {
  while (true) co_await out.put(co_await in.get() * co_await factor.get());
}

COMPUTE_KERNEL(aie, pt_rtp_relay,
               KernelReadPort<int> in,
               KernelWritePort<int, pt_rtp> factor) {
  while (true) co_await factor.put(co_await in.get());
}

// Four disjoint two-stage pipelines: the canonical multi-component case.
constexpr auto four_pipes = make_compute_graph_v<[](
    IoConnector<int> a, IoConnector<int> b, IoConnector<int> c,
    IoConnector<int> d) {
  IoConnector<int> a1, a2, b1, b2, c1, c2, d1, d2;
  pt_stage(a, a1);
  pt_stage(a1, a2);
  pt_stage(b, b1);
  pt_stage(b1, b2);
  pt_stage(c, c1);
  pt_stage(c1, c2);
  pt_stage(d, d1);
  pt_stage(d1, d2);
  return std::make_tuple(a2, b2, c2, d2);
}>;

// One six-stage chain: a single component.
constexpr auto chain6 = make_compute_graph_v<[](IoConnector<int> a) {
  IoConnector<int> s1, s2, s3, s4, s5, s6;
  pt_stage(a, s1);
  pt_stage(s1, s2);
  pt_stage(s2, s3);
  pt_stage(s3, s4);
  pt_stage(s4, s5);
  pt_stage(s5, s6);
  return std::make_tuple(s6);
}>;

// An RTP edge inside a chain: the relay feeds pt_scaled's factor port.
constexpr auto rtp_chain = make_compute_graph_v<[](IoConnector<int> a,
                                                   IoConnector<int> f) {
  IoConnector<int> s1, s2, factor, s3;
  pt_stage(a, s1);
  pt_rtp_relay(f, factor);
  pt_scaled(s1, factor, s2);
  pt_stage(s2, s3);
  return std::make_tuple(s3);
}>;

/// Recomputes, from the flattened view, whether the kernel endpoints of
/// `edge` span more than one shard under `p`.
bool edge_spans_shards(const GraphView& g, const Partition& p, int edge) {
  int seen = -1;
  for (std::size_t ki = 0; ki < g.kernels.size(); ++ki) {
    const FlatKernel& k = g.kernels[ki];
    for (int pi = 0; pi < k.nports; ++pi) {
      if (g.ports[static_cast<std::size_t>(k.first_port + pi)].edge != edge) {
        continue;
      }
      const int s = p.kernel_shard[ki];
      if (seen < 0) {
        seen = s;
      } else if (s != seen) {
        return true;
      }
    }
  }
  return false;
}

void expect_no_edge_spans_shards(const GraphView& g, const Partition& p) {
  for (std::size_t e = 0; e < g.edges.size(); ++e) {
    EXPECT_FALSE(edge_spans_shards(g, p, static_cast<int>(e))) << "edge " << e;
  }
}

TEST(Partition, SingleShardHasNoCrossEdges) {
  const GraphView g = chain6.view();
  const Partition p = partition_graph(g, 1);
  EXPECT_EQ(p.n_shards, 1);
  expect_no_edge_spans_shards(g, p);
  for (int s : p.kernel_shard) EXPECT_EQ(s, 0);
}

TEST(Partition, DisjointComponentsSplitWithoutCuts) {
  const GraphView g = four_pipes.view();
  const Partition p = partition_graph(g, 4);
  EXPECT_EQ(p.n_components, 4);
  EXPECT_EQ(p.n_shards, 4);
  expect_no_edge_spans_shards(g, p);
  // Connected kernels stay together; all four shards are used.
  std::vector<int> used(4, 0);
  for (int s : p.kernel_shard) used[static_cast<std::size_t>(s)] = 1;
  EXPECT_EQ(used, (std::vector<int>{1, 1, 1, 1}));
}

TEST(Partition, FewerShardsThanComponentsBalancesLoad) {
  const GraphView g = four_pipes.view();
  const Partition p = partition_graph(g, 2);
  EXPECT_EQ(p.n_shards, 2);
  expect_no_edge_spans_shards(g, p);
  std::vector<int> load(2, 0);
  for (int s : p.kernel_shard) ++load[static_cast<std::size_t>(s)];
  EXPECT_EQ(load[0], 4);  // 8 kernels, two components per shard
  EXPECT_EQ(load[1], 4);
}

TEST(Partition, ComponentIsNeverSplit) {
  // One component stays on one shard however many shards are offered,
  // with or without an RTP edge inside it.
  for (const GraphView& g : {chain6.view(), rtp_chain.view()}) {
    for (const int shards : {2, 3, static_cast<int>(g.kernels.size())}) {
      const Partition p = partition_graph(g, shards);
      EXPECT_EQ(p.n_components, 1) << shards;
      EXPECT_EQ(p.n_shards, 1) << shards;
      expect_no_edge_spans_shards(g, p);
    }
  }
  // More shards than components: one shard per component, no more.
  const GraphView g = four_pipes.view();
  const Partition p = partition_graph(g, 8);
  EXPECT_EQ(p.n_shards, 4);
  expect_no_edge_spans_shards(g, p);
}

TEST(Partition, EdgeHomeIsAnEndpointShard) {
  const GraphView g = four_pipes.view();
  const Partition p = partition_graph(g, 4);
  for (std::size_t ki = 0; ki < g.kernels.size(); ++ki) {
    const FlatKernel& k = g.kernels[ki];
    for (int pi = 0; pi < k.nports; ++pi) {
      const FlatPort& fp = g.ports[static_cast<std::size_t>(k.first_port + pi)];
      // Every kernel endpoint of an edge lives on the edge's home shard.
      EXPECT_EQ(p.edge_home[static_cast<std::size_t>(fp.edge)],
                p.kernel_shard[ki]);
    }
  }
}

TEST(Partition, ShardCountClampedToKernelCount) {
  const GraphView g = chain6.view();
  const Partition p = partition_graph(g, 64);
  EXPECT_LE(p.n_shards, 6);
  EXPECT_GE(p.n_shards, 1);
}

TEST(Partition, NonPositiveMaxShardsMeansOne) {
  const GraphView g = four_pipes.view();
  const Partition p = partition_graph(g, 0);
  EXPECT_EQ(p.n_shards, 1);
  expect_no_edge_spans_shards(g, p);
}

}  // namespace

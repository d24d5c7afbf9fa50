// cgsim -- compute-graph partitioning for sharded cooperative simulation
// (ExecMode::coop_mt).
//
// The flattened graph is split into shards, each run by its own
// cooperative scheduler on its own thread. A shard is a set of whole
// connected components: kernels that share an edge are grouped with a
// union-find, and the components are packed onto at most `max_shards`
// shards, largest first onto the least-loaded shard (LPT). No edge ever
// spans two shards, so every channel stays single-threaded and a graph
// with one component runs exactly the cooperative schedule.
//
// Components are never split. Cutting one would turn each element that
// crosses the cut into a hand-off between OS threads, which costs more
// than the 260-440 ns of work a resume does on the fine-grained graphs
// measured (docs/PERF.md, "Parallel simulation"), and a GraphView carries
// no per-kernel cost to weigh a cut against.
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "graph_view.hpp"

namespace cgsim {

/// Shard assignment of one flattened graph.
struct Partition {
  int n_shards = 1;
  std::vector<int> kernel_shard;  ///< per kernel: owning shard
  std::vector<int> edge_home;     ///< per edge: shard of its endpoints
  int n_components = 0;           ///< connected components of kernels
};

namespace detail {

class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::size_t> parent_;
};

}  // namespace detail

/// Partitions `g` into min(max_shards, components) shards of whole
/// components. `max_shards < 1` is treated as 1; a graph with no kernels
/// gets one shard.
[[nodiscard]] inline Partition partition_graph(const GraphView& g,
                                               int max_shards) {
  const std::size_t nk = g.kernels.size();
  const std::size_t ne = g.edges.size();
  Partition p;
  p.kernel_shard.assign(nk, 0);
  p.edge_home.assign(ne, 0);
  if (nk == 0) {
    p.n_components = ne == 0 ? 0 : 1;
    return p;
  }

  // First kernel endpoint seen per edge; every later endpoint joins its
  // component.
  std::vector<int> edge_kernel(ne, -1);
  detail::UnionFind comp(nk);
  for (std::size_t ki = 0; ki < nk; ++ki) {
    const FlatKernel& k = g.kernels[ki];
    for (int pi = 0; pi < k.nports; ++pi) {
      const FlatPort& fp = g.ports[static_cast<std::size_t>(k.first_port + pi)];
      int& first = edge_kernel[static_cast<std::size_t>(fp.edge)];
      if (first < 0) {
        first = static_cast<int>(ki);
      } else {
        comp.unite(static_cast<std::size_t>(first), ki);
      }
    }
  }

  // Component sizes, numbered in order of each component's first kernel.
  std::vector<int> comp_of_root(nk, -1);
  std::vector<int> comp_of(nk);
  std::vector<std::size_t> comp_size;
  for (std::size_t k = 0; k < nk; ++k) {
    int& c = comp_of_root[comp.find(k)];
    if (c < 0) {
      c = static_cast<int>(comp_size.size());
      comp_size.push_back(0);
    }
    comp_of[k] = c;
    ++comp_size[static_cast<std::size_t>(c)];
  }
  p.n_components = static_cast<int>(comp_size.size());

  // LPT packing: components largest first, each onto the least-loaded
  // shard.
  p.n_shards = std::clamp(max_shards, 1, p.n_components);
  std::vector<int> order(comp_size.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return comp_size[static_cast<std::size_t>(b)] <
           comp_size[static_cast<std::size_t>(a)];
  });
  std::vector<int> shard_of(comp_size.size());
  std::vector<std::size_t> load(static_cast<std::size_t>(p.n_shards), 0);
  for (int c : order) {
    const auto s = static_cast<std::size_t>(
        std::min_element(load.begin(), load.end()) - load.begin());
    load[s] += comp_size[static_cast<std::size_t>(c)];
    shard_of[static_cast<std::size_t>(c)] = static_cast<int>(s);
  }
  for (std::size_t k = 0; k < nk; ++k) {
    p.kernel_shard[k] = shard_of[static_cast<std::size_t>(comp_of[k])];
  }
  // An edge with no kernel endpoint (a global passthrough) lives on
  // shard 0.
  for (std::size_t e = 0; e < ne; ++e) {
    if (edge_kernel[e] >= 0) {
      p.edge_home[e] = p.kernel_shard[static_cast<std::size_t>(edge_kernel[e])];
    }
  }
  return p;
}

}  // namespace cgsim

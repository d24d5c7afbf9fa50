// aiesim -- kernel-to-tile placement on the 2D AIE array.
//
// The AIE array is "a two-dimensional grid of VLIW processors" (paper
// Section 1); kernels communicate through the stream switch network, so
// the physical distance between two communicating tiles adds per-hop
// switch latency. aiecompiler performs this placement on hardware; the
// cycle-approximate simulator models it here: kernels get tile coordinates
// (user-specified or automatic snake placement) and intra-array streams
// are charged a Manhattan-distance hop cost.
#pragma once

#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/graph_view.hpp"

namespace aiesim {

struct TileCoord {
  int col = 0;
  int row = 0;

  [[nodiscard]] bool operator==(const TileCoord&) const = default;
};

[[nodiscard]] inline int manhattan(TileCoord a, TileCoord b) {
  return std::abs(a.col - b.col) + std::abs(a.row - b.row);
}

/// Assignment of every kernel (by index in the flattened graph) to a tile.
class Placement {
 public:
  Placement() = default;

  /// Automatic placement: kernels fill the array in snake (boustrophedon)
  /// order, which keeps adjacent kernel indices on adjacent tiles -- the
  /// heuristic aiecompiler applies to simple pipelines.
  static Placement automatic(const cgsim::GraphView& g, int columns = 8) {
    Placement p;
    for (std::size_t k = 0; k < g.kernels.size(); ++k) {
      const int row = static_cast<int>(k) / columns;
      const int col_in_row = static_cast<int>(k) % columns;
      const int col = row % 2 == 0 ? col_in_row : columns - 1 - col_in_row;
      p.coords_.push_back(TileCoord{col, row});
    }
    return p;
  }

  /// Explicit placement by kernel name; unknown kernels fall back to the
  /// automatic position.
  static Placement explicit_by_name(
      const cgsim::GraphView& g,
      const std::map<std::string, TileCoord>& by_name, int columns = 8) {
    Placement p = automatic(g, columns);
    for (std::size_t k = 0; k < g.kernels.size(); ++k) {
      const auto it = by_name.find(std::string{g.kernels[k].name});
      if (it != by_name.end()) p.coords_[k] = it->second;
    }
    return p;
  }

  [[nodiscard]] const std::vector<TileCoord>& coords() const {
    return coords_;
  }

  [[nodiscard]] TileCoord of(std::size_t kernel_index) const {
    return kernel_index < coords_.size() ? coords_[kernel_index]
                                         : TileCoord{};
  }
  [[nodiscard]] std::size_t size() const { return coords_.size(); }
  [[nodiscard]] bool empty() const { return coords_.empty(); }

  /// Stream-switch hops between producer and consumer kernels of `edge`
  /// (max over all communicating pairs; 0 when fewer than two endpoints
  /// are kernels).
  [[nodiscard]] int edge_hops(const cgsim::GraphView& g, int edge) const {
    std::vector<std::size_t> producers;
    std::vector<std::size_t> consumers;
    for (std::size_t k = 0; k < g.kernels.size(); ++k) {
      const cgsim::FlatKernel& fk = g.kernels[k];
      for (int pi = 0; pi < fk.nports; ++pi) {
        const cgsim::FlatPort& fp =
            g.ports[static_cast<std::size_t>(fk.first_port + pi)];
        if (fp.edge != edge) continue;
        (fp.is_read ? consumers : producers).push_back(k);
      }
    }
    int hops = 0;
    for (std::size_t p : producers) {
      for (std::size_t c : consumers) {
        hops = std::max(hops, manhattan(of(p), of(c)));
      }
    }
    return hops;
  }

  /// Hops for every edge in one pass over the port table. Equivalent to
  /// calling edge_hops() per edge, which rescans all kernel ports each
  /// time; setup-time callers building dense per-edge tables use this.
  [[nodiscard]] std::vector<int> all_edge_hops(
      const cgsim::GraphView& g) const {
    std::vector<std::vector<std::size_t>> producers(g.edges.size());
    std::vector<std::vector<std::size_t>> consumers(g.edges.size());
    for (std::size_t k = 0; k < g.kernels.size(); ++k) {
      const cgsim::FlatKernel& fk = g.kernels[k];
      for (int pi = 0; pi < fk.nports; ++pi) {
        const cgsim::FlatPort& fp =
            g.ports[static_cast<std::size_t>(fk.first_port + pi)];
        const auto e = static_cast<std::size_t>(fp.edge);
        (fp.is_read ? consumers : producers)[e].push_back(k);
      }
    }
    std::vector<int> hops(g.edges.size(), 0);
    for (std::size_t e = 0; e < g.edges.size(); ++e) {
      for (std::size_t p : producers[e]) {
        for (std::size_t c : consumers[e]) {
          hops[e] = std::max(hops[e], manhattan(of(p), of(c)));
        }
      }
    }
    return hops;
  }

 private:
  std::vector<TileCoord> coords_;
};

}  // namespace aiesim

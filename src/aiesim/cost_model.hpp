// aiesim -- VLIW / stream / window cost model for the cycle-approximate
// AIE-array simulator (DESIGN.md substitution #2 for AMD's aiesim).
//
// Timing sources, in the spirit of UG1079's published microarchitecture:
//   * Compute: the AIE tile is a VLIW core issuing, per cycle, one vector
//     op, one shuffle/permute, two 256-bit loads, one store, and two scalar
//     ops. A kernel activation's cycle count is the maximum over the slot
//     pressures (perfect software pipelining, which is what the
//     hand-optimized AMD kernels achieve), plus a per-activation pipeline
//     ramp.
//   * Stream I/O: 32-bit beats, one per AIE cycle; PLIO crossings run at
//     the PL clock (625 MHz vs 1250 MHz => 2 AIE cycles per beat). Each
//     access additionally pays a fixed stall/handshake cost.
//   * Extracted (generated) kernels reach streams through the adapter
//     thunk the extractor emits around KernelReadPort/KernelWritePort;
//     aiecompiler schedules an extra move per beat that does not always
//     pair into a free VLIW slot. This is the per-beat penalty the paper
//     names as the primary source of the <= 15 % throughput loss
//     (paper Section 5.2).
//   * Window (ping-pong) I/O: one lock acquire/release handshake per
//     window plus 256 bits per cycle of local-memory movement -- identical
//     for native and generated kernels, which is why the window-based IIR
//     example shows parity in Table 1.
#pragma once

#include <algorithm>
#include <cstdint>

#include "aie/cycle_model.hpp"
#include "core/port_config.hpp"

namespace aiesim {

/// Tunable cost-model constants (cycles at the AIE clock).
struct CostModel {
  // VLIW issue widths.
  double vector_slots = 1.0;
  double shuffle_slots = 1.0;
  double load_slots = 2.0;
  double store_slots = 1.0;
  double scalar_slots = 2.0;
  /// Charged once per kernel activation segment: kernel function call,
  /// loop prologue/epilogue and pipeline ramp (aiecompiler kernels pay a
  /// comparable per-invocation overhead on hardware).
  double activation_ramp = 12.0;

  // Stream access.
  int stream_beat_bits = 32;
  double plio_clock_ratio = 2.0;       ///< AIE 1250 MHz / PL 625 MHz
  double stream_access_overhead = 24.0;///< handshake + pipeline stall
  double generated_beat_factor = 1.4;  ///< adapter-thunk move per beat

  // Window (ping-pong buffer) access.
  double window_sync_cycles = 48.0;    ///< lock acquire + release
  double window_bytes_per_cycle = 32.0;///< 256-bit local memory port

  /// Stream-switch latency per routing hop between tiles (2D array,
  /// paper Section 1), charged per element on intra-array streams.
  double hop_cycles = 2.0;

  // Global-memory I/O (GMIO extension, paper Section 6 future work):
  // NoC burst DMA, immune to the adapter-thunk penalty like windows.
  double gmio_setup_cycles = 150.0;    ///< DMA descriptor + NoC round trip
  double gmio_bytes_per_cycle = 8.0;   ///< ~10 GB/s per GMIO port @ 1.25 GHz

  /// Converts a kernel activation's instrumentation into compute cycles.
  /// An activation that recorded no ops costs nothing and returns before
  /// any division.
  [[nodiscard]] std::uint64_t compute_cycles(const aie::OpCounts& c) const {
    const std::uint64_t vec_ops = c[aie::OpClass::vector_mac] +
                                  c[aie::OpClass::vector_alu] +
                                  c[aie::OpClass::vector_shift];
    if ((vec_ops | c[aie::OpClass::shuffle] | c[aie::OpClass::load] |
         c[aie::OpClass::store] | c[aie::OpClass::scalar]) == 0) {
      return 0;
    }
    const double vec = static_cast<double>(vec_ops) / vector_slots;
    const double shuf =
        static_cast<double>(c[aie::OpClass::shuffle]) / shuffle_slots;
    const double ld = static_cast<double>(c[aie::OpClass::load]) / load_slots;
    const double st =
        static_cast<double>(c[aie::OpClass::store]) / store_slots;
    const double sc =
        static_cast<double>(c[aie::OpClass::scalar]) / scalar_slots;
    const double cyc =
        std::max(std::max(std::max(vec, shuf), std::max(ld, st)), sc);
    if (cyc == 0.0) return 0;
    return static_cast<std::uint64_t>(cyc + activation_ramp + 0.5);
  }

  /// Cycles for moving one `elem_bytes` element through a port.
  /// `global_io` marks PLIO crossings; `generated` marks extracted kernels
  /// whose stream access goes through the adapter thunk.
  [[nodiscard]] std::uint64_t port_cycles(const cgsim::PortSettings& s,
                                          std::size_t elem_bytes,
                                          bool global_io,
                                          bool generated) const {
    if (global_io && s.io == cgsim::IoKind::gmio) {
      const double move =
          static_cast<double>(elem_bytes) / gmio_bytes_per_cycle;
      return static_cast<std::uint64_t>(gmio_setup_cycles + move + 0.5);
    }
    const bool window = s.buffer == cgsim::BufferMode::window ||
                        s.buffer == cgsim::BufferMode::pingpong;
    if (window) {
      const double move =
          static_cast<double>(elem_bytes) / window_bytes_per_cycle;
      return static_cast<std::uint64_t>(window_sync_cycles + move + 0.5);
    }
    const auto beat_bits = static_cast<std::size_t>(
        s.beat_bits == 0 ? stream_beat_bits : s.beat_bits);
    const auto beats = static_cast<double>(
        (elem_bytes * 8 + beat_bits - 1) / beat_bits);  // ceil, in beats
    double per_beat = global_io ? plio_clock_ratio : 1.0;
    if (generated) per_beat *= generated_beat_factor;
    return static_cast<std::uint64_t>(beats * per_beat +
                                      stream_access_overhead + 0.5);
  }
};

}  // namespace aiesim

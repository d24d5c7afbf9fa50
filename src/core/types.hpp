// cgsim -- core type identity and execution-mode definitions.
//
// TypeId gives every stream element type a unique, constexpr-storable
// identity (the address of a per-type tag variable). The flattened graph
// stores TypeIds so that the runtime and the extractor can check that the
// containers / channels supplied at run time match the types the graph was
// built with at compile time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace cgsim {

/// Execution backend selected when a graph is instantiated.
enum class ExecMode : std::uint8_t {
  coop,      ///< cooperative coroutine scheduler on one thread (cgsim default)
  threaded,  ///< one OS thread per kernel (x86sim-style functional simulation)
  sim,       ///< cycle-approximate virtual-time simulation (aiesim-style)
  coop_mt,   ///< one cooperative scheduler per shard of whole components
};

/// Target hardware realm of a kernel (paper Section 4.3). The paper's
/// implementation supports `aie` and `noextract`; `hls` realizes the
/// FPGA-fabric backend its Section 6 names as the natural extension of the
/// realm architecture.
enum class Realm : std::uint8_t {
  aie,        ///< map to the AI Engine array
  noextract,  ///< keep on the host; excluded from extraction
  hls,        ///< map to the programmable logic via Vitis HLS
  host,       ///< reserved for future host backends
};

[[nodiscard]] constexpr std::string_view realm_name(Realm r) {
  switch (r) {
    case Realm::aie: return "aie";
    case Realm::noextract: return "noextract";
    case Realm::hls: return "hls";
    case Realm::host: return "host";
  }
  return "?";
}

namespace detail {
template <class T>
inline constexpr char type_tag_v = 0;

template <class T>
[[nodiscard]] constexpr std::string_view pretty_type_name() {
  std::string_view p = __PRETTY_FUNCTION__;
  // GCC: "... [with T = int; std::string_view = ...]"
  const auto key = std::string_view{"T = "};
  const auto start = p.find(key);
  if (start == std::string_view::npos) return "?";
  const auto from = start + key.size();
  auto end = p.find(';', from);
  if (end == std::string_view::npos) end = p.find(']', from);
  if (end == std::string_view::npos) return "?";
  return p.substr(from, end - from);
}
}  // namespace detail

/// Unique identity for a stream element type; comparable and constexpr.
using TypeId = const char*;

template <class T>
[[nodiscard]] constexpr TypeId type_id() {
  return &detail::type_tag_v<T>;
}

/// Human-readable spelling of T, e.g. "float" -- used by the extractor's
/// code generator and in diagnostics.
template <class T>
[[nodiscard]] constexpr std::string_view type_name() {
  return detail::pretty_type_name<T>();
}

namespace detail {

/// Fixed-capacity constexpr string used for synthesized kernel names of
/// template-kernel instantiations, e.g. "axpy<float>".
struct NameBuf {
  static constexpr std::size_t kCapacity = 120;
  char buf[kCapacity] = {};
  std::size_t len = 0;

  constexpr void append(std::string_view s) {
    for (char c : s) {
      if (len < kCapacity - 1) buf[len++] = c;
    }
  }
  [[nodiscard]] constexpr std::string_view view() const {
    return std::string_view{buf, len};
  }
};

template <class T>
[[nodiscard]] constexpr NameBuf template_kernel_name(std::string_view base) {
  NameBuf b{};
  b.append(base);
  b.append("<");
  b.append(pretty_type_name<T>());
  b.append(">");
  return b;
}

}  // namespace detail

class ChannelBase;
class Executor;
class KernelTask;

/// Byte-level recording of all traffic on one edge during a simulation run:
/// every element pushed, in push order, with its virtual-time stamp. The
/// incremental re-simulation layer records these on the boundary edges of a
/// baseline run and replays them into a later run so everything upstream of
/// the boundary can be skipped. Only trivially-copyable element types can
/// be tapped (elements are stored as raw bytes).
struct EdgeTap {
  std::vector<std::byte> data;          ///< size() == count * elem_size
  std::vector<std::uint64_t> stamps;    ///< one per element, push order

  [[nodiscard]] std::size_t count() const { return stamps.size(); }
  void clear() {
    data.clear();
    stamps.clear();
  }
};

/// Per-element-type operations the runtime needs to build channels for an
/// edge whose element type was erased during flattening. One instance per
/// type T exists as a constexpr inline variable; the flattened graph stores
/// a pointer to it.
struct ChannelVTable {
  // Creates a channel for `mode`. `consumers` is the number of broadcast
  // endpoints, `capacity` the ring size in elements, `rtp` selects the
  // sticky runtime-parameter channel instead of a FIFO.
  ChannelBase* (*create)(ExecMode mode, int consumers, int capacity, bool rtp,
                         Executor* exec);
  std::string_view type_name;
  std::size_t elem_size;
  std::size_t elem_align;
  // Attaches `tap` to record every future push on `ch`. Returns false (and
  // attaches nothing) when the channel cannot be tapped: not a cooperative
  // ring (RTP/threaded backends) or a non-trivially-copyable element type.
  bool (*attach_tap)(ChannelBase* ch, EdgeTap* tap);
  // Builds a replay coroutine that re-pushes `tap`'s recording into `ch` at
  // the recorded virtual-time stamps, standing in for every original
  // producer of the edge. `blocked` is incremented whenever a replay push
  // has to park (ring full) -- a nonzero count means the re-simulated
  // consumers exerted backpressure the recording never saw, so the caller
  // must discard the incremental run. Requires a tappable channel (see
  // attach_tap); `tap`, `exec` and `blocked` must outlive the coroutine.
  KernelTask (*make_replay)(ChannelBase* ch, const EdgeTap* tap,
                            Executor* exec, std::uint64_t* blocked);
};

// Defined in channel.hpp; the address is taken at compile time inside
// constexpr graph construction, the definition is instantiated in any TU
// that includes cgsim.hpp.
template <class T>
const ChannelVTable& channel_vtable();

}  // namespace cgsim

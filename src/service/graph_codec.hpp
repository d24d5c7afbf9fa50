// cgsim::service -- wire codec for compute graphs.
//
// Kernels are code: they cannot cross a process boundary. What crosses is
// a GraphSpec -- edges (element type name, capacity, settings), kernel
// instantiations (registered kernel name + edge ids), and the global
// input/output lists. The receiving process rebuilds a runnable graph by
// resolving every name against its ServiceRegistry: type names map to
// add_edge/push/poll thunks, kernel names map to DynamicGraphBuilder
// add_kernel thunks. A spec naming a kernel or type the server never
// registered is rejected at open time, not at run time.
//
// The serialized byte string doubles as the cache/pool key (exact-bytes
// keying, the same policy CompiledGraphCache uses): two clients submitting
// the identical spec hit the same warm session pool entry.
#pragma once

#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "../core/dynamic_graph.hpp"
#include "../core/session.hpp"
#include "../net/frame.hpp"

namespace cgsim::service {

// ---------------------------------------------------------------------------
// GraphSpec: the transportable graph description.
// ---------------------------------------------------------------------------

struct EdgeSpec {
  std::string type;  ///< registered element type name, e.g. "i32"
  int capacity = kDefaultChannelCapacity;
  PortSettings settings{};
};

struct KernelSpec {
  std::string name;        ///< registered kernel name
  std::vector<int> edges;  ///< edge ids in kernel signature order
};

struct GraphSpec {
  std::vector<EdgeSpec> edges;
  std::vector<KernelSpec> kernels;
  std::vector<int> inputs;   ///< edge ids fed by the client
  std::vector<int> outputs;  ///< edge ids streamed back to the client
};

inline constexpr std::uint32_t kGraphSpecVersion = 1;
inline constexpr int kMaxEdgeCapacity = 1 << 24;  ///< elements per edge

namespace detail {
inline void put_str(std::string& out, std::string_view s) {
  net::put_varint(out, s.size());
  out.append(s);
}
inline bool get_str(const std::byte*& p, const std::byte* end,
                    std::string& s) {
  std::uint64_t n = 0;
  if (!net::get_varint(p, end, n)) return false;
  if (static_cast<std::uint64_t>(end - p) < n) return false;
  s.assign(reinterpret_cast<const char*>(p), static_cast<std::size_t>(n));
  p += n;
  return true;
}
/// Reads a varint into an int, failing above `max`: build_graph()
/// range-checks the narrowed value, and a wider one (2^32 + 64) would wrap
/// to a value it accepts (64).
inline bool get_int(const std::byte*& p, const std::byte* end, int& v,
                    std::uint64_t max = std::numeric_limits<int>::max()) {
  std::uint64_t x = 0;
  if (!net::get_varint(p, end, x) || x > max) return false;
  v = static_cast<int>(x);
  return true;
}
}  // namespace detail

/// Serializes a spec into the wire/cache-key byte string.
inline std::string serialize_graph(const GraphSpec& g) {
  std::string out;
  net::put_varint(out, kGraphSpecVersion);
  net::put_varint(out, g.edges.size());
  for (const EdgeSpec& e : g.edges) {
    detail::put_str(out, e.type);
    net::put_varint(out, static_cast<std::uint64_t>(e.capacity));
    net::put_varint(out, static_cast<std::uint64_t>(e.settings.beat_bits));
    out.push_back(e.settings.rtp ? 1 : 0);
    out.push_back(static_cast<char>(e.settings.buffer));
    net::put_varint(out, static_cast<std::uint64_t>(e.settings.window_size));
    out.push_back(static_cast<char>(e.settings.io));
  }
  net::put_varint(out, g.kernels.size());
  for (const KernelSpec& k : g.kernels) {
    detail::put_str(out, k.name);
    net::put_varint(out, k.edges.size());
    for (int e : k.edges) net::put_varint(out, static_cast<std::uint64_t>(e));
  }
  net::put_varint(out, g.inputs.size());
  for (int e : g.inputs) net::put_varint(out, static_cast<std::uint64_t>(e));
  net::put_varint(out, g.outputs.size());
  for (int e : g.outputs) net::put_varint(out, static_cast<std::uint64_t>(e));
  return out;
}

/// Parses a serialized spec; returns false on malformed bytes.
inline bool parse_graph(std::span<const std::byte> bytes, GraphSpec& g) {
  const std::byte* p = bytes.data();
  const std::byte* end = p + bytes.size();
  std::uint64_t version = 0, n = 0;
  if (!net::get_varint(p, end, version) || version != kGraphSpecVersion) {
    return false;
  }
  if (!net::get_varint(p, end, n) || n > (1u << 20)) return false;
  g.edges.resize(static_cast<std::size_t>(n));
  for (EdgeSpec& e : g.edges) {
    if (!detail::get_str(p, end, e.type) ||
        !detail::get_int(p, end, e.capacity, kMaxEdgeCapacity) ||
        !detail::get_int(p, end, e.settings.beat_bits)) {
      return false;
    }
    if (end - p < 2) return false;
    e.settings.rtp = static_cast<std::uint8_t>(*p++) != 0;
    e.settings.buffer = static_cast<BufferMode>(*p++);
    if (!detail::get_int(p, end, e.settings.window_size)) return false;
    if (end - p < 1) return false;
    e.settings.io = static_cast<IoKind>(*p++);
  }
  if (!net::get_varint(p, end, n) || n > (1u << 20)) return false;
  g.kernels.resize(static_cast<std::size_t>(n));
  for (KernelSpec& k : g.kernels) {
    std::uint64_t arity = 0;
    if (!detail::get_str(p, end, k.name) ||
        !net::get_varint(p, end, arity) || arity > 64) {
      return false;
    }
    k.edges.resize(static_cast<std::size_t>(arity));
    for (int& e : k.edges) {
      if (!detail::get_int(p, end, e)) return false;
    }
  }
  for (std::vector<int>* list : {&g.inputs, &g.outputs}) {
    if (!net::get_varint(p, end, n) || n > (1u << 20)) return false;
    list->resize(static_cast<std::size_t>(n));
    for (int& e : *list) {
      if (!detail::get_int(p, end, e)) return false;
    }
  }
  return p == end;
}

// ---------------------------------------------------------------------------
// ServiceRegistry: name -> construction/IO thunks.
// ---------------------------------------------------------------------------

/// Type-erased operations for one registered element type. The session
/// push/poll thunks move raw bytes between wire buffers and a typed
/// InteractiveSession; counts are in *elements*.
struct TypeOps {
  std::string name;
  std::size_t size = 0;
  int (*add_edge)(rt::DynamicGraphBuilder&, int capacity,
                  PortSettings) = nullptr;
  std::size_t (*session_push_n)(InteractiveSession&, std::size_t input_idx,
                                const void* src, std::size_t n) = nullptr;
  std::size_t (*session_poll_n)(InteractiveSession&, std::size_t output_idx,
                                void* dst, std::size_t n) = nullptr;
};

/// Type-erased instantiation thunk for one registered kernel.
struct KernelOps {
  std::string name;
  std::size_t arity = 0;
  void (*add)(rt::DynamicGraphBuilder&, std::span<const int> edges) = nullptr;
};

/// Process-wide name registries the codec resolves against. Registration
/// happens at daemon start-up (service/kernels.hpp registers the builtin
/// set); lookups are read-only afterwards, so no locking on the serve
/// path.
class ServiceRegistry {
 public:
  static ServiceRegistry& instance() {
    static ServiceRegistry r;
    return r;
  }

  template <class T>
  void register_type(std::string name) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "wire types must be trivially copyable");
    TypeOps ops;
    ops.name = name;
    ops.size = sizeof(T);
    ops.add_edge = [](rt::DynamicGraphBuilder& b, int cap, PortSettings s) {
      return b.add_edge<T>(cap, s);
    };
    ops.session_push_n = [](InteractiveSession& s, std::size_t idx,
                            const void* src, std::size_t n) {
      return s.push_n<T>(idx, static_cast<const T*>(src), n);
    };
    ops.session_poll_n = [](InteractiveSession& s, std::size_t idx,
                            void* dst, std::size_t n) {
      return s.poll_n<T>(idx, static_cast<T*>(dst), n);
    };
    types_[std::move(name)] = std::move(ops);
  }

  template <class Def>
  void register_kernel(KernelHandle<Def> /*handle*/) {
    using traits = fn_traits<decltype(&Def::body)>;
    KernelOps ops;
    ops.name = std::string{Def::kernel_name};
    ops.arity = traits::arity;
    ops.add = [](rt::DynamicGraphBuilder& b, std::span<const int> edges) {
      b.add_kernel(KernelHandle<Def>{}, edges);
    };
    kernels_[ops.name] = std::move(ops);
  }

  [[nodiscard]] const TypeOps* find_type(std::string_view name) const {
    const auto it = types_.find(std::string{name});
    return it == types_.end() ? nullptr : &it->second;
  }
  [[nodiscard]] const KernelOps* find_kernel(std::string_view name) const {
    const auto it = kernels_.find(std::string{name});
    return it == kernels_.end() ? nullptr : &it->second;
  }
  [[nodiscard]] std::size_t type_count() const { return types_.size(); }
  [[nodiscard]] std::size_t kernel_count() const { return kernels_.size(); }

 private:
  std::map<std::string, TypeOps, std::less<>> types_;
  std::map<std::string, KernelOps, std::less<>> kernels_;
};

// ---------------------------------------------------------------------------
// Spec -> runnable graph.
// ---------------------------------------------------------------------------

/// Validates `spec` against the registry and materializes it into `b`.
/// Throws std::invalid_argument with a client-presentable message on any
/// unknown name, bad edge id, or arity mismatch; DynamicGraphBuilder adds
/// its own type checks on top (port element type vs edge type).
inline void build_graph(const GraphSpec& spec, rt::DynamicGraphBuilder& b) {
  const ServiceRegistry& reg = ServiceRegistry::instance();
  const int n_edges = static_cast<int>(spec.edges.size());
  for (const EdgeSpec& e : spec.edges) {
    const TypeOps* t = reg.find_type(e.type);
    if (t == nullptr) {
      throw std::invalid_argument{"unknown element type: " + e.type};
    }
    if (e.capacity < 1 || e.capacity > kMaxEdgeCapacity) {
      throw std::invalid_argument{"edge capacity out of range"};
    }
    t->add_edge(b, e.capacity, e.settings);
  }
  for (const KernelSpec& k : spec.kernels) {
    const KernelOps* ops = reg.find_kernel(k.name);
    if (ops == nullptr) {
      throw std::invalid_argument{"unknown kernel: " + k.name};
    }
    if (ops->arity != k.edges.size()) {
      throw std::invalid_argument{k.name + ": wrong edge count"};
    }
    for (int e : k.edges) {
      if (e < 0 || e >= n_edges) {
        throw std::invalid_argument{k.name + ": edge id out of range"};
      }
    }
    ops->add(b, k.edges);
  }
  for (int e : spec.inputs) {
    if (e < 0 || e >= n_edges) {
      throw std::invalid_argument{"input edge id out of range"};
    }
    b.add_input(e);
  }
  for (int e : spec.outputs) {
    if (e < 0 || e >= n_edges) {
      throw std::invalid_argument{"output edge id out of range"};
    }
    b.add_output(e);
  }
  b.finalize();
}

/// Looks up the (single) element type shared by every edge of `spec`, the
/// shape the sim lane's uniform stream API requires; nullptr when edges
/// mix types.
inline const TypeOps* uniform_type(const GraphSpec& spec) {
  if (spec.edges.empty()) return nullptr;
  for (const EdgeSpec& e : spec.edges) {
    if (e.type != spec.edges.front().type) return nullptr;
  }
  return ServiceRegistry::instance().find_type(spec.edges.front().type);
}

}  // namespace cgsim::service

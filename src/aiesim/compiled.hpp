// aiesim -- ahead-of-time graph compilation for the cycle-approximate
// engine.
//
// Binding a graph to a SimEngine needs two per-edge tables that the
// flattened graph, the cost model and the placement fix: global/output
// flags and routing-hop cycles. Neither depends on run-time data, so both
// are hoisted here into a CompiledGraph artifact built once and reused.
// The artifact holds only what the graph fixes: a port-access cost
// depends on the accessing port's settings, so the engine computes it at
// each access.
//   * SimEngine binds only from an artifact and reads its edge flags and
//     hop costs in place, so the placement scan and the hop matrix run
//     once per artifact, not once per run;
//   * a process-wide CompiledGraphCache memoizes artifacts keyed on the
//     *complete serialized input* of compile() -- graph topology and
//     settings, cost-model constants, placement directives -- so repeated
//     simulations of the same configuration (parameter sweeps, warm-up +
//     measure loops, test suites) compile exactly once;
//   * the artifact also carries the kernel/edge adjacency lists the
//     incremental re-simulation layer (resim.hpp) uses to compute affected
//     cones, so cone analysis never rescans the port table.
//
// The cache key is an exact-match byte serialization, not a hash: two
// configurations collide only if every field compile() reads is identical,
// in which case sharing the artifact is correct by construction. Keys
// contain no pointers, so equal graphs rebuilt at different addresses
// still share one entry. The cache can optionally write through to a
// persistent on-disk store (compiled_store.hpp) keyed on the same bytes,
// so a restarted process binds warm from its first request.
//
// The artifact is stored as one flat 8-byte-aligned arena whose byte
// layout IS the on-disk payload format (compiled_store.hpp prepends only
// a CRC header): compile() builds the arena directly and the table
// members are spans into it, so persisting an artifact is a single write
// and loading one back is mmap + checksum + pointer fixup -- no per-table
// deserialization, which is what keeps a restarted daemon's first bind a
// small fraction of a recompile.
#pragma once

#include <cstdint>
#include <cstring>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "core/graph_view.hpp"
#include "cost_model.hpp"
#include "placement.hpp"

namespace aiesim {

/// Per-edge flag bits shared by the engine and the compiler.
inline constexpr std::uint8_t kEdgeGlobal = 1;     ///< global in or out
inline constexpr std::uint8_t kEdgeGlobalOut = 2;  ///< global output

/// CSR adjacency over the artifact arena: `offsets` has size()+1 entries
/// and `operator[]` returns one kernel's/edge's neighbor list as a span,
/// so cone traversal reads the (possibly mmap'd) artifact in place -- no
/// per-list vectors exist in any representation of the artifact.
struct AdjTable {
  std::span<const std::uint32_t> offsets;
  std::span<const std::int32_t> values;

  [[nodiscard]] std::size_t size() const {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }
  [[nodiscard]] std::span<const std::int32_t> operator[](
      std::size_t i) const {
    return values.subspan(offsets[i], offsets[i + 1] - offsets[i]);
  }
};

/// The ahead-of-time-compiled form of (graph, cost model, placement):
/// every static table the engine's hot path indexes, plus the adjacency
/// the incremental re-simulation layer traverses. Immutable after
/// compile(); safely shared across engines.
///
/// All table members are spans into `backing`, a single flat arena whose
/// bytes are exactly the persistent payload format -- either heap memory
/// built by compile_graph() or a read-only file mapping made by the
/// on-disk store. Copies of the struct share the arena.
struct CompiledGraph {
  std::string key;  ///< canonical serialized input (cache identity)

  CostModel cost{};
  bool generated_io = false;
  int array_columns = 8;

  /// Per-kernel tile coordinates (the placement the hop costs came from).
  std::span<const TileCoord> placement_coords;
  std::span<const std::uint8_t> edge_flags;  ///< kEdgeGlobal / kEdgeGlobalOut
  std::span<const std::uint64_t> edge_hop;   ///< routing cycles per element

  // Kernel/edge adjacency (kernel and edge indices of the flattened
  // graph). Source/sink tasks are not kernels and do not appear here;
  // edges touching them simply have fewer kernel endpoints.
  AdjTable kernel_in_edges;
  AdjTable kernel_out_edges;
  AdjTable edge_producer_kernels;
  AdjTable edge_consumer_kernels;

  std::size_t n_kernels = 0;
  std::size_t n_edges = 0;

  /// Runtime provenance, not part of the artifact: true when this object
  /// was deserialized from the persistent on-disk store instead of
  /// compiled in-process.
  bool from_store = false;

  /// The flat arena every span above points into, plus its extent: the
  /// exact payload the on-disk store writes/maps (see compiled_store.hpp).
  std::shared_ptr<const void> backing;
  const char* payload_data = nullptr;
  std::size_t payload_bytes = 0;

  [[nodiscard]] std::string_view payload() const {
    return {payload_data, payload_bytes};
  }
};

/// Persistence hook for the cache: implemented by CompiledStore
/// (compiled_store.hpp). Kept abstract here so the cache stays free of
/// file-format details and no include cycle forms.
struct CompiledArtifactStore {
  virtual ~CompiledArtifactStore() = default;
  /// Returns the artifact for `key`, or nullptr (missing / corrupt /
  /// stale -- the caller recompiles; a bad file must never throw).
  virtual std::shared_ptr<const CompiledGraph> load(
      const std::string& key) = 0;
  /// Persists a freshly compiled artifact (best effort; failures are
  /// swallowed into stats -- the in-process cache still has the entry).
  virtual void save(const CompiledGraph& cg) = 0;
};

namespace detail {

/// Append-only byte serializer for cache keys: fixed-width fields are
/// appended by value, strings with a length prefix, so no two distinct
/// field sequences serialize to the same bytes.
class KeyWriter {
 public:
  template <class T>
  void put(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto* b = reinterpret_cast<const char*>(&v);
    out_.append(b, sizeof(T));
  }
  void put_str(std::string_view s) {
    put(s.size());
    out_.append(s.data(), s.size());
  }
  void reserve(std::size_t n) { out_.reserve(n); }
  [[nodiscard]] std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

inline void key_settings(KeyWriter& w, const cgsim::PortSettings& s) {
  w.put(s.beat_bits);
  w.put(s.rtp);
  w.put(static_cast<std::uint8_t>(s.buffer));
  w.put(s.window_size);
  w.put(static_cast<std::uint8_t>(s.io));
}

[[nodiscard]] constexpr std::size_t align8(std::size_t n) {
  return (n + 7u) & ~std::size_t{7};
}

// ---------------------------------------------------------------------------
// Flat artifact payload. One 8-aligned arena, written once by
// compile_graph() and parsed in place by the store (compiled_store.hpp):
//
//   u64 n_kernels | u64 n_edges | u64 generated_io | u64 array_columns
//   15 x 8-byte cost-model fields (doubles raw, ints widened to i64)
//   u64 key_bytes | key bytes, zero-padded to 8
//   n_kernels x TileCoord                     (placement)
//   n_edges   x u8, zero-padded to 8          (edge_flags)
//   n_edges   x u64                           (edge_hop)
//   4 x CSR table (kernel_in, kernel_out, edge_producers, edge_consumers):
//     u64 nvals | (n+1) x u32 offsets, padded | nvals x i32 values, padded
//
// Every scalar is 8 bytes and every array section is padded to an 8-byte
// boundary, so all spans into the arena are naturally aligned whether it
// lives on the heap or at (page-aligned file mapping + 24-byte header).
// ---------------------------------------------------------------------------

static_assert(std::is_trivially_copyable_v<TileCoord> &&
              alignof(TileCoord) <= 8);

/// Bump-pointer writer over a pre-sized zeroed arena. Array sections are
/// handed back as writable spans so compile_graph() fills tables in their
/// final resting place; scalars land as full 8-byte slots.
class ArenaWriter {
 public:
  explicit ArenaWriter(std::size_t bytes)
      : buf_(std::make_shared<std::vector<std::uint64_t>>(
            align8(bytes) / 8)),  // value-init: arena (incl. padding) is 0
        cap_(bytes) {}

  void u64(std::uint64_t v) { std::memcpy(grab(8), &v, 8); }
  void f64(double v) { std::memcpy(grab(8), &v, 8); }

  template <class T>
  [[nodiscard]] std::span<T> arr(std::size_t count) {
    return {reinterpret_cast<T*>(grab(count * sizeof(T))), count};
  }
  void bytes(const void* p, std::size_t n) { std::memcpy(grab(n), p, n); }

  /// Transfers arena ownership into the artifact and rebinds the given
  /// object's payload view; call exactly once, after the last write.
  void finish(CompiledGraph& cg) {
    cg.payload_data = reinterpret_cast<const char*>(buf_->data());
    cg.payload_bytes = off_;
    cg.backing = std::shared_ptr<const void>(buf_, buf_->data());
  }

 private:
  char* grab(std::size_t n) {
    char* p = reinterpret_cast<char*>(buf_->data()) + off_;
    off_ += align8(n);
    if (off_ > align8(cap_)) std::abort();  // layout arithmetic bug
    return p;
  }

  std::shared_ptr<std::vector<std::uint64_t>> buf_;
  std::size_t cap_ = 0;
  std::size_t off_ = 0;
};

}  // namespace detail

/// Canonical serialization of every input compile() reads. Exact-match
/// identity: graphs that serialize equally compile to identical tables.
[[nodiscard]] inline std::string compiled_graph_key(
    const cgsim::GraphView& g, const CostModel& cost, bool generated_io,
    const std::map<std::string, TileCoord>& placement, int array_columns) {
  detail::KeyWriter w;
  // Keys run to tens of KiB on large graphs; one upper-bound reserve
  // (per-section field widths + name bytes) beats a dozen geometric
  // regrow copies on a hot path both the compile and load sides pay.
  std::size_t names = 0;
  for (const auto& [name, coord] : placement) names += name.size();
  for (const cgsim::FlatKernel& k : g.kernels) names += k.name.size();
  w.reserve(256 + names + 24 * placement.size() + 24 * g.kernels.size() +
            40 * g.ports.size() + 48 * g.edges.size() +
            16 * (g.inputs.size() + g.outputs.size()));
  w.put(cost.vector_slots);
  w.put(cost.shuffle_slots);
  w.put(cost.load_slots);
  w.put(cost.store_slots);
  w.put(cost.scalar_slots);
  w.put(cost.activation_ramp);
  w.put(cost.stream_beat_bits);
  w.put(cost.plio_clock_ratio);
  w.put(cost.stream_access_overhead);
  w.put(cost.generated_beat_factor);
  w.put(cost.window_sync_cycles);
  w.put(cost.window_bytes_per_cycle);
  w.put(cost.hop_cycles);
  w.put(cost.gmio_setup_cycles);
  w.put(cost.gmio_bytes_per_cycle);
  w.put(generated_io);
  w.put(array_columns);
  w.put(placement.size());
  for (const auto& [name, coord] : placement) {  // std::map: sorted, canonical
    w.put_str(name);
    w.put(coord.col);
    w.put(coord.row);
  }
  w.put(g.kernels.size());
  for (const cgsim::FlatKernel& k : g.kernels) {
    w.put_str(k.name);
    w.put(k.first_port);
    w.put(k.nports);
  }
  w.put(g.ports.size());
  for (const cgsim::FlatPort& p : g.ports) {
    w.put(p.is_read);
    w.put(p.edge);
    w.put(p.endpoint);
    detail::key_settings(w, p.settings);
  }
  w.put(g.edges.size());
  for (const cgsim::FlatEdge& e : g.edges) {
    detail::key_settings(w, e.settings);
    w.put(e.capacity);
    w.put(e.n_producers);
    w.put(e.n_consumers);
    w.put(e.vtable().elem_size);
  }
  w.put(g.inputs.size());
  for (const cgsim::FlatGlobal& in : g.inputs) {
    w.put(in.edge);
    w.put(in.endpoint);
  }
  w.put(g.outputs.size());
  for (const cgsim::FlatGlobal& out : g.outputs) {
    w.put(out.edge);
    w.put(out.endpoint);
  }
  return w.take();
}

namespace detail {

/// Emits the 15 cost-model fields as fixed 8-byte slots (format above).
inline void arena_cost(ArenaWriter& w, const CostModel& c) {
  w.f64(c.vector_slots);
  w.f64(c.shuffle_slots);
  w.f64(c.load_slots);
  w.f64(c.store_slots);
  w.f64(c.scalar_slots);
  w.f64(c.activation_ramp);
  w.u64(static_cast<std::uint64_t>(c.stream_beat_bits));
  w.f64(c.plio_clock_ratio);
  w.f64(c.stream_access_overhead);
  w.f64(c.generated_beat_factor);
  w.f64(c.window_sync_cycles);
  w.f64(c.window_bytes_per_cycle);
  w.f64(c.hop_cycles);
  w.f64(c.gmio_setup_cycles);
  w.f64(c.gmio_bytes_per_cycle);
}

/// A CSR table mid-construction: the artifact view plus the writable
/// values section the second adjacency pass fills through.
struct CsrBuild {
  AdjTable table;
  std::span<std::int32_t> fill;
};

/// Degree counts -> CSR offsets (prefix sum); `deg` becomes the per-list
/// fill cursor for the second pass.
inline CsrBuild arena_csr(ArenaWriter& w, std::vector<std::uint32_t>& deg,
                          std::uint64_t nvals) {
  w.u64(nvals);
  auto offs = w.arr<std::uint32_t>(deg.size() + 1);
  std::uint32_t at = 0;
  for (std::size_t i = 0; i < deg.size(); ++i) {
    offs[i] = at;
    at += deg[i];
    deg[i] = offs[i];  // fill cursor
  }
  offs[deg.size()] = at;
  auto vals = w.arr<std::int32_t>(nvals);
  return CsrBuild{AdjTable{offs, vals}, vals};
}

}  // namespace detail

/// Builds the compiled artifact for (graph, cost model, placement). Pure:
/// reads only its arguments, touches no channels or contexts. The tables
/// are written straight into the artifact's flat arena (format above), so
/// the result is ready to persist byte-for-byte.
[[nodiscard]] inline std::shared_ptr<const CompiledGraph> compile_graph(
    const cgsim::GraphView& g, const CostModel& cost, bool generated_io,
    const std::map<std::string, TileCoord>& placement, int array_columns) {
  auto cg = std::make_shared<CompiledGraph>();
  cg->key = compiled_graph_key(g, cost, generated_io, placement,
                               array_columns);
  cg->cost = cost;
  cg->generated_io = generated_io;
  cg->array_columns = array_columns;
  const std::size_t nk = g.kernels.size();
  const std::size_t ne = g.edges.size();
  cg->n_kernels = nk;
  cg->n_edges = ne;

  const Placement place =
      Placement::explicit_by_name(g, placement, array_columns);
  const std::vector<int> hops = place.all_edge_hops(g);

  // Adjacency degrees: one counting pass over the port table sizes all
  // four CSR tables exactly.
  std::vector<std::uint32_t> in_deg(nk, 0), out_deg(nk, 0);
  std::vector<std::uint32_t> prod_deg(ne, 0), cons_deg(ne, 0);
  std::uint64_t n_in = 0, n_out = 0;
  for (std::size_t k = 0; k < nk; ++k) {
    const cgsim::FlatKernel& fk = g.kernels[k];
    for (int pi = 0; pi < fk.nports; ++pi) {
      const cgsim::FlatPort& fp =
          g.ports[static_cast<std::size_t>(fk.first_port + pi)];
      const auto e = static_cast<std::size_t>(fp.edge);
      if (fp.is_read) {
        ++in_deg[k];
        ++cons_deg[e];
        ++n_in;
      } else {
        ++out_deg[k];
        ++prod_deg[e];
        ++n_out;
      }
    }
  }

  using detail::align8;
  const auto csr_bytes = [](std::size_t n, std::uint64_t nvals) {
    return 8 + align8((n + 1) * 4) + align8(nvals * 4);
  };
  const std::size_t total =
      8 * 4 + 8 * 15 +                          // meta + cost model
      8 + align8(cg->key.size()) +              // key
      align8(nk * sizeof(TileCoord)) +          // placement
      align8(ne) +                              // edge_flags
      ne * 8 +                                  // edge_hop
      2 * csr_bytes(nk, n_in) + csr_bytes(ne, n_out) + csr_bytes(ne, n_in);

  detail::ArenaWriter w{total};
  w.u64(nk);
  w.u64(ne);
  w.u64(generated_io ? 1 : 0);
  w.u64(static_cast<std::uint64_t>(
      static_cast<std::int64_t>(array_columns)));
  detail::arena_cost(w, cost);
  w.u64(cg->key.size());
  w.bytes(cg->key.data(), cg->key.size());

  auto coords = w.arr<TileCoord>(nk);
  std::memcpy(coords.data(), place.coords().data(),
              nk * sizeof(TileCoord));
  cg->placement_coords = coords;

  auto flags = w.arr<std::uint8_t>(ne);
  for (const cgsim::FlatGlobal& in : g.inputs) {
    flags[static_cast<std::size_t>(in.edge)] |= kEdgeGlobal;
  }
  for (const cgsim::FlatGlobal& out : g.outputs) {
    flags[static_cast<std::size_t>(out.edge)] |=
        kEdgeGlobal | kEdgeGlobalOut;
  }
  cg->edge_flags = flags;

  auto hop = w.arr<std::uint64_t>(ne);
  for (std::size_t e = 0; e < ne; ++e) {
    hop[e] = hops[e] > 0 ? static_cast<std::uint64_t>(
                               hops[e] * cost.hop_cycles + 0.5)
                         : 0;
  }
  cg->edge_hop = hop;

  auto kin = detail::arena_csr(w, in_deg, n_in);
  auto kout = detail::arena_csr(w, out_deg, n_out);
  auto eprod = detail::arena_csr(w, prod_deg, n_out);
  auto econs = detail::arena_csr(w, cons_deg, n_in);
  for (std::size_t k = 0; k < nk; ++k) {
    const cgsim::FlatKernel& fk = g.kernels[k];
    for (int pi = 0; pi < fk.nports; ++pi) {
      const cgsim::FlatPort& fp =
          g.ports[static_cast<std::size_t>(fk.first_port + pi)];
      const auto e = static_cast<std::size_t>(fp.edge);
      // The degree vectors are fill cursors now (see arena_csr).
      if (fp.is_read) {
        kin.fill[in_deg[k]++] = fp.edge;
        econs.fill[cons_deg[e]++] = static_cast<std::int32_t>(k);
      } else {
        kout.fill[out_deg[k]++] = fp.edge;
        eprod.fill[prod_deg[e]++] = static_cast<std::int32_t>(k);
      }
    }
  }
  cg->kernel_in_edges = kin.table;
  cg->kernel_out_edges = kout.table;
  cg->edge_producer_kernels = eprod.table;
  cg->edge_consumer_kernels = econs.table;

  w.finish(*cg);
  return cg;
}

/// Process-wide LRU cache of compiled artifacts, keyed on the canonical
/// serialization. Thread-safe; entries are shared_ptr<const>, so an
/// eviction never invalidates an artifact still in use by an engine.
class CompiledGraphCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t entries = 0;
    std::uint64_t store_hits = 0;    ///< misses served by the on-disk store
    std::uint64_t store_writes = 0;  ///< fresh compiles persisted to disk
  };

  static CompiledGraphCache& instance() {
    static CompiledGraphCache cache;
    return cache;
  }

  /// Looks the configuration up: in-memory LRU first, then (when a store
  /// is attached) the persistent on-disk store, compiling only when both
  /// miss. Freshly compiled artifacts are written through to the store.
  [[nodiscard]] std::shared_ptr<const CompiledGraph> get_or_compile(
      const cgsim::GraphView& g, const CostModel& cost, bool generated_io,
      const std::map<std::string, TileCoord>& placement,
      int array_columns) {
    std::string key =
        compiled_graph_key(g, cost, generated_io, placement, array_columns);
    std::shared_ptr<CompiledArtifactStore> store;
    {
      std::lock_guard lock{mu_};
      auto it = map_.find(key);
      if (it != map_.end()) {
        ++hits_;
        lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
        return it->second.value;
      }
      ++misses_;
      store = store_;
    }
    // Load/compile outside the lock: both are pure over an exact key, so
    // two threads racing the same key produce identical artifacts and the
    // loser's insert is a no-op.
    if (store != nullptr) {
      if (auto loaded = store->load(key)) {
        std::lock_guard lock{mu_};
        ++store_hits_;
        return insert_locked(std::move(key), std::move(loaded));
      }
    }
    auto cg = compile_graph(g, cost, generated_io, placement, array_columns);
    if (store != nullptr) store->save(*cg);
    std::lock_guard lock{mu_};
    if (store != nullptr) ++store_writes_;
    return insert_locked(std::move(key), std::move(cg));
  }

  /// Attaches (or with nullptr detaches) the persistent store consulted
  /// on in-memory misses. The cgsimd daemon wires this from --cache-dir.
  void set_store(std::shared_ptr<CompiledArtifactStore> s) {
    std::lock_guard lock{mu_};
    store_ = std::move(s);
  }

  [[nodiscard]] std::shared_ptr<CompiledArtifactStore> store() const {
    std::lock_guard lock{mu_};
    return store_;
  }

  [[nodiscard]] Stats stats() const {
    std::lock_guard lock{mu_};
    return Stats{hits_,    misses_,      evictions_,
                 map_.size(), store_hits_, store_writes_};
  }

  void clear() {
    std::lock_guard lock{mu_};
    map_.clear();
    lru_.clear();
    hits_ = misses_ = evictions_ = 0;
    store_hits_ = store_writes_ = 0;
  }

  /// Maximum retained artifacts (drops LRU overflow immediately).
  void set_capacity(std::size_t n) {
    std::lock_guard lock{mu_};
    capacity_ = n == 0 ? 1 : n;
    while (map_.size() > capacity_) {
      ++evictions_;
      map_.erase(lru_.back());
      lru_.pop_back();
    }
  }

 private:
  struct Entry {
    std::shared_ptr<const CompiledGraph> value;
    std::list<std::string>::iterator lru_pos;
  };

  /// Dedup-insert under mu_: a racing thread's earlier insert wins.
  std::shared_ptr<const CompiledGraph> insert_locked(
      std::string key, std::shared_ptr<const CompiledGraph> cg) {
    auto it = map_.find(key);
    if (it != map_.end()) return it->second.value;
    lru_.push_front(key);
    map_.emplace(std::move(key), Entry{cg, lru_.begin()});
    while (map_.size() > capacity_) {
      ++evictions_;
      map_.erase(lru_.back());
      lru_.pop_back();
    }
    return cg;
  }

  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> map_;
  std::list<std::string> lru_;  ///< most recent first
  std::size_t capacity_ = 64;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t store_hits_ = 0;
  std::uint64_t store_writes_ = 0;
  std::shared_ptr<CompiledArtifactStore> store_;
};

}  // namespace aiesim

// aiesim -- persistent on-disk store for CompiledGraph artifacts.
//
// Compiling a graph is ~hundreds of microseconds of key serialization,
// placement scans and hop matrices per configuration; the in-process
// CompiledGraphCache amortizes that within one process lifetime, but a
// restarted cgsimd pays it all again on the first request of every spec.
// This store extends the cache across restarts: an artifact's flat arena
// (compiled.hpp) is written verbatim behind a versioned CRC header, keyed
// by the SAME exact-match serialized bytes (topology + placement + cost)
// the in-process LRU uses, and loaded back as a read-only mmap the
// artifact's table spans point straight into -- one checksum pass plus
// bounds-checked pointer fixup, no per-table deserialization and no
// recomputation. The mapping is kept alive by the artifact's `backing`
// and unmapped when the last engine holding it lets go; publication is
// always whole-file rename, never in-place mutation, so a mapped
// artifact can never change underneath a running simulation.
//
// Robustness rules (a cache must never be able to break a simulation):
//   * atomic publication: artifacts are written to a temp file and
//     rename()d into place, so readers only ever see whole files;
//   * every load validates magic, format version, header CRC, payload CRC
//     and the FULL embedded key against the requested key -- any mismatch
//     (corruption, truncation, fnv collision, stale format) returns null
//     and the caller recompiles; the offending file is deleted;
//   * bounded on-disk LRU: size and count caps enforced after each save by
//     deleting oldest-mtime files first; files with a foreign version are
//     evicted on sight during the scan.
#pragma once

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "compiled.hpp"

#if defined(__SSE4_2__)
#include <nmmintrin.h>
#endif

namespace aiesim {

// ---------------------------------------------------------------------------
// CRC-32C (Castagnoli): hardware instruction when -march provides SSE4.2,
// bit-identical table fallback otherwise. Chosen over the wire protocol's
// CRC-32 because artifact payloads are hundreds of kilobytes and the
// checksum pass sits on the restart-to-warm-bind latency path.
// ---------------------------------------------------------------------------

namespace store_detail {

struct Crc32cTable {
  std::uint32_t t[256] = {};
  constexpr Crc32cTable() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) != 0 ? 0x82F63B78u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
  }
};
inline constexpr Crc32cTable crc32c_table{};

}  // namespace store_detail

namespace store_detail {

/// Unfinalized CRC-32C state update (no init/complement), so lanes and
/// tails can be chained.
[[nodiscard]] inline std::uint32_t crc32c_update(std::uint32_t c,
                                                 const std::uint8_t* p,
                                                 std::size_t n) {
#if defined(__SSE4_2__)
  while (n >= 8) {
    std::uint64_t v = 0;
    std::memcpy(&v, p, 8);
    c = static_cast<std::uint32_t>(_mm_crc32_u64(c, v));
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    c = _mm_crc32_u8(c, *p++);
    --n;
  }
#else
  for (std::size_t i = 0; i < n; ++i) {
    c = crc32c_table.t[(c ^ p[i]) & 0xff] ^ (c >> 8);
  }
#endif
  return c;
}

}  // namespace store_detail

[[nodiscard]] inline std::uint32_t store_crc32c(const void* data,
                                                std::size_t n) {
  return ~store_detail::crc32c_update(
      ~0u, static_cast<const std::uint8_t*>(data), n);
}

/// Payload checksum: four independent CRC-32C lanes over four equal
/// quarters (the last lane absorbs the remainder), combined by a CRC over
/// the lane results. The hardware crc32 instruction carries a 3-cycle
/// serial dependency, so one chain tops out near 2.5 bytes/cycle while
/// four interleaved chains run close to memory bandwidth -- and the
/// checksum pass sits directly on the restart-to-warm-bind latency path.
/// Any flipped payload bit flips its lane's CRC and therefore the
/// combined value, so corruption coverage matches a single full-length
/// CRC. Deterministic in n, hence stable as a file-format checksum.
[[nodiscard]] inline std::uint32_t store_crc32c_wide(const void* data,
                                                     std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  const std::size_t quarter = n / 4;
  std::uint32_t lane[4] = {~0u, ~0u, ~0u, ~0u};
#if defined(__SSE4_2__)
  // Scalar lane registers + explicit per-lane pointers: an indexed
  // lane[] update inside the loop round-trips the state through memory
  // and serializes again.
  std::uint32_t c0 = ~0u, c1 = ~0u, c2 = ~0u, c3 = ~0u;
  const std::uint8_t* p0 = p;
  const std::uint8_t* p1 = p + quarter;
  const std::uint8_t* p2 = p + 2 * quarter;
  const std::uint8_t* p3 = p + 3 * quarter;
  std::uint64_t v0, v1, v2, v3;
  for (std::size_t left = quarter / 8; left > 0; --left) {
    std::memcpy(&v0, p0, 8);
    std::memcpy(&v1, p1, 8);
    std::memcpy(&v2, p2, 8);
    std::memcpy(&v3, p3, 8);
    c0 = static_cast<std::uint32_t>(_mm_crc32_u64(c0, v0));
    c1 = static_cast<std::uint32_t>(_mm_crc32_u64(c1, v1));
    c2 = static_cast<std::uint32_t>(_mm_crc32_u64(c2, v2));
    c3 = static_cast<std::uint32_t>(_mm_crc32_u64(c3, v3));
    p0 += 8;
    p1 += 8;
    p2 += 8;
    p3 += 8;
  }
  lane[0] = c0;
  lane[1] = c1;
  lane[2] = c2;
  lane[3] = c3;
  const std::size_t done = (quarter / 8) * 8;
#else
  const std::size_t done = 0;
#endif
  for (int l = 0; l < 4; ++l) {
    const std::size_t begin = static_cast<std::size_t>(l) * quarter;
    const std::size_t len = (l == 3 ? n - begin : quarter) - done;
    lane[l] = ~store_detail::crc32c_update(lane[l], p + begin + done, len);
  }
  return store_crc32c(lane, sizeof(lane));
}

// ---------------------------------------------------------------------------
// Flat format.
// ---------------------------------------------------------------------------

inline constexpr std::uint32_t kStoreMagic = 0x43474353u;  // "CGCS"
// Version 3: payload is the artifact arena verbatim (compiled.hpp flat
// format, parsed in place) and payload_crc is the 4-lane wide CRC. It
// drops version 2's per-edge port-cost memo, whose bool fields a file
// could set to a byte that is undefined to read; every mapped type now
// accepts any byte pattern.
inline constexpr std::uint32_t kStoreVersion = 3;

/// 24-byte file header. `header_crc` covers the 20 bytes before it;
/// `payload_crc` covers the `payload_bytes` that follow the header.
struct StoreFileHdr {
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  std::uint64_t payload_bytes = 0;
  std::uint32_t payload_crc = 0;
  std::uint32_t header_crc = 0;
};
static_assert(sizeof(StoreFileHdr) == 24);

namespace store_detail {

/// Bounds-checked in-place parser over the arena payload (heap or mmap).
/// Mirrors ArenaWriter's emission exactly: scalars are 8-byte slots,
/// array sections are handed back as spans into the payload itself and
/// advanced over with 8-byte padding. Every accessor reports failure
/// instead of walking past the mapping, so a truncated or hostile file
/// degrades to "recompile", never to UB.
class ArenaParser {
 public:
  ArenaParser(const std::byte* p, std::size_t n) : base_(p), n_(n) {}

  bool u64(std::uint64_t& v) {
    if (n_ - off_ < 8 || off_ > n_) return false;
    std::memcpy(&v, base_ + off_, 8);
    off_ += 8;
    return true;
  }
  bool f64(double& v) {
    std::uint64_t bits = 0;
    if (!u64(bits)) return false;
    std::memcpy(&v, &bits, 8);
    return true;
  }
  bool i64_as_int(int& v) {
    std::uint64_t bits = 0;
    if (!u64(bits)) return false;
    v = static_cast<int>(static_cast<std::int64_t>(bits));
    return true;
  }

  template <class T>
  bool arr(std::span<const T>& out, std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T> && alignof(T) <= 8);
    const std::size_t bytes = count * sizeof(T);
    if (count > n_ / sizeof(T)) return false;  // overflow-safe bound
    const std::size_t need = (bytes + 7u) & ~std::size_t{7};
    if (off_ > n_ || n_ - off_ < need) return false;
    out = {reinterpret_cast<const T*>(base_ + off_), count};
    off_ += need;
    return true;
  }

  [[nodiscard]] bool exhausted() const { return off_ == n_; }

 private:
  const std::byte* base_;
  std::size_t n_;
  std::size_t off_ = 0;
};

inline bool parse_cost(ArenaParser& r, CostModel& c) {
  return r.f64(c.vector_slots) && r.f64(c.shuffle_slots) &&
         r.f64(c.load_slots) && r.f64(c.store_slots) &&
         r.f64(c.scalar_slots) && r.f64(c.activation_ramp) &&
         r.i64_as_int(c.stream_beat_bits) && r.f64(c.plio_clock_ratio) &&
         r.f64(c.stream_access_overhead) &&
         r.f64(c.generated_beat_factor) && r.f64(c.window_sync_cycles) &&
         r.f64(c.window_bytes_per_cycle) && r.f64(c.hop_cycles) &&
         r.f64(c.gmio_setup_cycles) && r.f64(c.gmio_bytes_per_cycle);
}

/// One CSR table: leading value count, offsets, values -- all borrowed
/// from the payload. Validates the CSR invariants (offsets start at 0,
/// never decrease, end at nvals) and that every value indexes inside
/// [0, limit), so traversals over a decoded artifact cannot stray even if
/// a corrupt file were to slip past the checksum.
inline bool parse_csr(ArenaParser& r, AdjTable& out, std::size_t n_lists,
                      std::size_t max_total, std::size_t value_limit) {
  std::uint64_t nvals = 0;
  if (!r.u64(nvals) || nvals > max_total) return false;
  if (!r.arr(out.offsets, n_lists + 1) ||
      !r.arr(out.values, static_cast<std::size_t>(nvals))) {
    return false;
  }
  if (out.offsets.front() != 0 || out.offsets.back() != nvals) return false;
  for (std::size_t i = 0; i < n_lists; ++i) {
    if (out.offsets[i] > out.offsets[i + 1]) return false;
  }
  for (const std::int32_t v : out.values) {
    if (v < 0 || static_cast<std::size_t>(v) >= value_limit) return false;
  }
  return true;
}

}  // namespace store_detail

/// The flat payload of an artifact -- exactly its arena bytes (the store
/// prepends only the CRC header on disk).
[[nodiscard]] inline std::string serialize_compiled_graph(
    const CompiledGraph& cg) {
  return std::string{cg.payload()};
}

/// Binds an artifact to payload bytes in place: table members become
/// spans into `payload`, whose lifetime is carried by `backing` (the
/// store passes the file mapping). Without a backing, the payload is
/// first copied to an owned arena, so callers holding transient buffers
/// stay safe. Returns nullptr on any structural violation; a decoded
/// artifact is internally consistent and in-bounds.
[[nodiscard]] inline std::shared_ptr<CompiledGraph>
deserialize_compiled_graph(const std::byte* payload, std::size_t n,
                           std::shared_ptr<const void> backing = nullptr) {
  if (backing == nullptr) {
    // Never 0 slots: an empty vector's data() is null, and a null aliased
    // backing would be indistinguishable from "no backing" above.
    auto own =
        std::make_shared<std::vector<std::uint64_t>>((n + 7) / 8 + 1);
    if (n > 0) std::memcpy(own->data(), payload, n);
    const auto* base = reinterpret_cast<const std::byte*>(own->data());
    return deserialize_compiled_graph(
        base, n, std::shared_ptr<const void>(own, own->data()));
  }

  store_detail::ArenaParser r{payload, n};
  auto cg = std::make_shared<CompiledGraph>();
  std::uint64_t n_kernels = 0, n_edges = 0, gen = 0, key_bytes = 0;
  if (!r.u64(n_kernels) || !r.u64(n_edges) || !r.u64(gen) ||
      !r.i64_as_int(cg->array_columns) ||
      !store_detail::parse_cost(r, cg->cost) || !r.u64(key_bytes) ||
      n_kernels > (1u << 24) || n_edges > (1u << 24) ||
      key_bytes > (1u << 30)) {
    return nullptr;
  }
  cg->generated_io = gen != 0;
  cg->n_kernels = static_cast<std::size_t>(n_kernels);
  cg->n_edges = static_cast<std::size_t>(n_edges);

  std::span<const char> key;
  if (!r.arr(key, static_cast<std::size_t>(key_bytes))) return nullptr;
  cg->key.assign(key.data(), key.size());

  const std::size_t max_adj = 16u * (cg->n_kernels + cg->n_edges + 1);
  if (!r.arr(cg->placement_coords, cg->n_kernels) ||
      !r.arr(cg->edge_flags, cg->n_edges) ||
      !r.arr(cg->edge_hop, cg->n_edges) ||
      !store_detail::parse_csr(r, cg->kernel_in_edges, cg->n_kernels,
                               max_adj, cg->n_edges) ||
      !store_detail::parse_csr(r, cg->kernel_out_edges, cg->n_kernels,
                               max_adj, cg->n_edges) ||
      !store_detail::parse_csr(r, cg->edge_producer_kernels, cg->n_edges,
                               max_adj, cg->n_kernels) ||
      !store_detail::parse_csr(r, cg->edge_consumer_kernels, cg->n_edges,
                               max_adj, cg->n_kernels) ||
      !r.exhausted()) {
    return nullptr;
  }
  cg->payload_data = reinterpret_cast<const char*>(payload);
  cg->payload_bytes = n;
  cg->backing = std::move(backing);
  return cg;
}

// ---------------------------------------------------------------------------
// The store.
// ---------------------------------------------------------------------------

/// Directory-backed artifact store with a bounded on-disk LRU. Safe for
/// concurrent use by multiple threads and multiple processes sharing one
/// directory: publication is an atomic rename, loads only ever see whole
/// files, and losing a file race degrades to a recompile.
class CompiledStore final : public CompiledArtifactStore {
 public:
  struct Stats {
    std::uint64_t load_hits = 0;
    std::uint64_t load_misses = 0;    ///< no file for the key
    std::uint64_t load_failures = 0;  ///< bad file: rejected + deleted
    std::uint64_t saves = 0;
    std::uint64_t save_failures = 0;
    std::uint64_t evicted_files = 0;  ///< LRU-cap + stale-version deletions
  };

  explicit CompiledStore(std::string dir,
                         std::size_t max_bytes = 256u << 20,
                         std::size_t max_files = 256)
      : dir_(std::move(dir)), max_bytes_(max_bytes), max_files_(max_files) {
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);  // best effort
  }

  [[nodiscard]] const std::string& dir() const { return dir_; }

  std::shared_ptr<const CompiledGraph> load(const std::string& key) override {
    const std::string path = path_for(key);
    auto cg = load_file(path, &key);
    if (cg != nullptr) {
      cg->from_store = true;
      bump(stats_.load_hits);
      touch(path);  // freshen mtime: LRU eviction order
      return cg;
    }
    return nullptr;
  }

  void save(const CompiledGraph& cg) override {
    const std::string payload = serialize_compiled_graph(cg);
    StoreFileHdr h;
    h.magic = kStoreMagic;
    h.version = kStoreVersion;
    h.payload_bytes = payload.size();
    h.payload_crc = store_crc32c_wide(payload.data(), payload.size());
    h.header_crc = store_crc32c(&h, offsetof(StoreFileHdr, header_crc));
    const std::string tmp =
        dir_ + "/.tmp-" + std::to_string(static_cast<long>(::getpid())) +
        "-" + std::to_string(
                  tmp_counter_.fetch_add(1, std::memory_order_relaxed));
    const std::string path = path_for(cg.key);
    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    if (f == nullptr) {
      bump(stats_.save_failures);
      return;
    }
    const bool ok = std::fwrite(&h, sizeof(h), 1, f) == 1 &&
                    (payload.empty() ||
                     std::fwrite(payload.data(), payload.size(), 1, f) == 1);
    const bool closed = std::fclose(f) == 0;
    if (!ok || !closed || std::rename(tmp.c_str(), path.c_str()) != 0) {
      std::remove(tmp.c_str());
      bump(stats_.save_failures);
      return;
    }
    bump(stats_.saves);
    evict_to_caps();
  }

  [[nodiscard]] Stats stats() const {
    std::lock_guard lock{mu_};
    return stats_;
  }

  /// Deletes every artifact (tests; never called on the hot path).
  void clear() {
    std::error_code ec;
    for (const auto& e : std::filesystem::directory_iterator{dir_, ec}) {
      if (e.path().extension() == kExt) {
        std::filesystem::remove(e.path(), ec);
      }
    }
  }

  /// File an artifact with `key` would live at (tests: corruption
  /// injection).
  [[nodiscard]] std::string path_for(const std::string& key) const {
    // Word-wide fnv1a-64 names the file; the embedded key resolves
    // collisions, so the hash only spreads names across the directory.
    // Eight bytes per multiply: keys run to tens of KiB and a byte-serial
    // FNV (one dependent multiply per byte) would cost more than the
    // mmap+checksum of the artifact it names.
    std::uint64_t hsh = 1469598103934665603ull;
    std::size_t i = 0;
    for (; i + 8 <= key.size(); i += 8) {
      std::uint64_t v = 0;
      std::memcpy(&v, key.data() + i, 8);
      hsh = (hsh ^ v) * 1099511628211ull;
    }
    for (; i < key.size(); ++i) {
      hsh = (hsh ^ static_cast<std::uint8_t>(key[i])) * 1099511628211ull;
    }
    hsh ^= hsh >> 32;  // fold high mixing back into the low hex digits
    hsh *= 0x9e3779b97f4a7c15ull;
    hsh ^= hsh >> 29;
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(hsh));
    return dir_ + "/" + hex + kExt;
  }

 private:
  static constexpr const char* kExt = ".cgc";

  void bump(std::uint64_t& field) {
    std::lock_guard lock{mu_};
    ++field;
  }

  static void touch(const std::string& path) {
    std::error_code ec;
    std::filesystem::last_write_time(
        path, std::filesystem::file_time_type::clock::now(), ec);
  }

  /// mmap + validate + bind in place. `want_key` non-null: reject
  /// artifacts whose embedded key differs (hash collision or foreign
  /// file). The returned artifact's spans point into the mapping, which
  /// its `backing` keeps mapped until the last holder drops it -- an
  /// unlink (eviction, clear) only frees the pages once every engine
  /// using the artifact is done.
  std::shared_ptr<CompiledGraph> load_file(const std::string& path,
                                           const std::string* want_key) {
    net_fd_guard fd{::open(path.c_str(), O_RDONLY | O_CLOEXEC)};
    if (fd.fd < 0) {
      bump(stats_.load_misses);
      return nullptr;
    }
    struct stat st{};
    if (::fstat(fd.fd, &st) != 0 ||
        static_cast<std::size_t>(st.st_size) < sizeof(StoreFileHdr)) {
      return reject(path);
    }
    const auto size = static_cast<std::size_t>(st.st_size);
    // MAP_POPULATE prefaults the whole artifact in one syscall; the
    // checksum pass reads every page immediately anyway, and dozens of
    // on-demand minor faults would otherwise dominate the bind latency.
#if defined(MAP_POPULATE)
    constexpr int kMapFlags = MAP_PRIVATE | MAP_POPULATE;
#else
    constexpr int kMapFlags = MAP_PRIVATE;
#endif
    void* map = ::mmap(nullptr, size, PROT_READ, kMapFlags, fd.fd, 0);
    if (map == MAP_FAILED) return reject(path);
    std::shared_ptr<const void> backing{
        map, [size](const void* p) { ::munmap(const_cast<void*>(p), size); }};
    const auto* bytes = static_cast<const std::byte*>(map);
    StoreFileHdr h;
    std::memcpy(&h, bytes, sizeof(h));
    if (h.magic != kStoreMagic || h.version != kStoreVersion ||
        h.header_crc !=
            store_crc32c(bytes, offsetof(StoreFileHdr, header_crc)) ||
        h.payload_bytes != size - sizeof(StoreFileHdr) ||
        h.payload_crc != store_crc32c_wide(bytes + sizeof(StoreFileHdr),
                                           static_cast<std::size_t>(
                                               h.payload_bytes))) {
      return reject(path);
    }
    auto cg = deserialize_compiled_graph(
        bytes + sizeof(StoreFileHdr),
        static_cast<std::size_t>(h.payload_bytes), std::move(backing));
    if (cg == nullptr || (want_key != nullptr && cg->key != *want_key)) {
      return reject(path);
    }
    return cg;
  }

  std::shared_ptr<CompiledGraph> reject(const std::string& path) {
    std::remove(path.c_str());  // a bad artifact must not be retried forever
    bump(stats_.load_failures);
    return nullptr;
  }

  /// Size/count caps + stale-version eviction: one directory scan, stale
  /// or foreign-version files deleted on sight, then oldest-mtime files
  /// until both caps hold.
  void evict_to_caps() {
    std::lock_guard lock{evict_mu_};
    struct Item {
      std::filesystem::path path;
      std::filesystem::file_time_type mtime;
      std::uintmax_t size;
    };
    std::vector<Item> items;
    std::uintmax_t total = 0;
    std::error_code ec;
    for (const auto& e : std::filesystem::directory_iterator{dir_, ec}) {
      if (e.path().extension() != kExt) continue;
      StoreFileHdr h{};
      bool stale = true;
      if (std::FILE* f = std::fopen(e.path().c_str(), "rb")) {
        stale = std::fread(&h, sizeof(h), 1, f) != 1 ||
                h.magic != kStoreMagic || h.version != kStoreVersion;
        std::fclose(f);
      }
      if (stale) {
        std::filesystem::remove(e.path(), ec);
        bump_evicted();
        continue;
      }
      std::error_code ec2;
      const auto size = std::filesystem::file_size(e.path(), ec2);
      const auto mtime = std::filesystem::last_write_time(e.path(), ec2);
      if (ec2) continue;  // raced a concurrent eviction
      total += size;
      items.push_back(Item{e.path(), mtime, size});
    }
    if (items.size() <= max_files_ && total <= max_bytes_) return;
    std::sort(items.begin(), items.end(),
              [](const Item& a, const Item& b) { return a.mtime < b.mtime; });
    std::size_t live = items.size();
    for (const Item& it : items) {
      if (live <= max_files_ && total <= max_bytes_) break;
      std::filesystem::remove(it.path, ec);
      total -= it.size;
      --live;
      bump_evicted();
    }
  }

  void bump_evicted() { bump(stats_.evicted_files); }

  struct net_fd_guard {
    int fd;
    ~net_fd_guard() {
      if (fd >= 0) ::close(fd);
    }
  };

  std::string dir_;
  std::size_t max_bytes_;
  std::size_t max_files_;
  mutable std::mutex mu_;       ///< stats
  std::mutex evict_mu_;         ///< one eviction scan at a time
  std::atomic<std::uint64_t> tmp_counter_{0};
  Stats stats_;
};

}  // namespace aiesim

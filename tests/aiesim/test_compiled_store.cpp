// Persistent compiled-artifact store: flat-format round-trip fidelity,
// cache/store integration, corruption hardening, caps eviction, and the
// differential contract -- a store-loaded artifact must drive simulation
// bit-identically to a freshly compiled one, and any damaged file must
// fall back to recompilation (never crash, never poison a run).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "aiesim/compiled.hpp"
#include "aiesim/compiled_store.hpp"
#include "aiesim/engine.hpp"
#include "core/cgsim.hpp"
#include "core/dynamic_graph.hpp"

namespace {

using namespace cgsim;
namespace fs = std::filesystem;

inline constexpr PortSettings cs_rtp{.rtp = true};

COMPUTE_KERNEL(aie, cs_inc,
               KernelReadPort<int> in,
               KernelWritePort<int> out) {
  while (true) co_await out.put(co_await in.get() + 1);
}

COMPUTE_KERNEL(aie, cs_scale,
               KernelReadPort<int> in,
               KernelReadPort<int, cs_rtp> factor,
               KernelWritePort<int> out) {
  while (true) {
    co_await out.put(co_await in.get() * co_await factor.get());
  }
}

/// in -> cs_inc -> cs_scale(rtp) -> out, same shape test_compiled uses.
class StoreChain {
 public:
  StoreChain() {
    a_ = b_.add_edge<int>();
    m_ = b_.add_edge<int>();
    z_ = b_.add_edge<int>();
    f_ = b_.add_edge<int>(1, cs_rtp);
    b_.add_kernel(cs_inc, {a_, m_});
    b_.add_kernel(cs_scale, {m_, f_, z_});
    b_.add_input(a_);
    b_.add_input(f_);
    b_.add_output(z_);
  }
  GraphView view() { return b_.view(); }

 private:
  rt::DynamicGraphBuilder b_;
  int a_, m_, z_, f_;
};

std::vector<int> iota_vec(std::size_t n, int start = 1) {
  std::vector<int> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = start + static_cast<int>(i);
  return v;
}

/// Scoped temp dir + guaranteed cache detach/clear so a failing test can
/// not leak a store into the process-global cache other suites share.
class StoreFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("cgsim-store-test-" +
             std::to_string(static_cast<long>(::getpid())) + "-" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    fs::remove_all(dir_);
    auto& cache = aiesim::CompiledGraphCache::instance();
    cache.set_store(nullptr);
    cache.clear();
  }
  void TearDown() override {
    auto& cache = aiesim::CompiledGraphCache::instance();
    cache.set_store(nullptr);
    cache.clear();
    fs::remove_all(dir_);
  }

  /// Compiles the chain (no store involved) and returns the artifact.
  std::shared_ptr<const aiesim::CompiledGraph> compile() {
    auto& cache = aiesim::CompiledGraphCache::instance();
    cache.clear();
    return cache.get_or_compile(chain_.view(), cost_, false, {}, 4);
  }

  std::string dir_;
  StoreChain chain_;
  aiesim::CostModel cost_{};
};

template <class T>
void expect_equal_spans(std::span<const T> a, std::span<const T> b,
                        const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(T)))
      << what;
}

void expect_equal_adj(const aiesim::AdjTable& a, const aiesim::AdjTable& b,
                      const char* what) {
  expect_equal_spans(a.offsets, b.offsets, what);
  expect_equal_spans(a.values, b.values, what);
}

void expect_equal_artifacts(const aiesim::CompiledGraph& a,
                            const aiesim::CompiledGraph& b) {
  EXPECT_EQ(a.key, b.key);
  EXPECT_EQ(a.generated_io, b.generated_io);
  EXPECT_EQ(a.array_columns, b.array_columns);
  EXPECT_EQ(a.n_kernels, b.n_kernels);
  EXPECT_EQ(a.n_edges, b.n_edges);
  expect_equal_spans(a.placement_coords, b.placement_coords, "placement");
  expect_equal_spans(a.edge_flags, b.edge_flags, "edge_flags");
  expect_equal_spans(a.edge_hop, b.edge_hop, "edge_hop");
  expect_equal_adj(a.kernel_in_edges, b.kernel_in_edges, "kernel_in");
  expect_equal_adj(a.kernel_out_edges, b.kernel_out_edges, "kernel_out");
  expect_equal_adj(a.edge_producer_kernels, b.edge_producer_kernels,
                   "edge_producers");
  expect_equal_adj(a.edge_consumer_kernels, b.edge_consumer_kernels,
                   "edge_consumers");
  // Field-by-field: CostModel has padding after its int member, so a
  // struct memcmp would compare indeterminate bytes.
  EXPECT_EQ(a.cost.vector_slots, b.cost.vector_slots);
  EXPECT_EQ(a.cost.shuffle_slots, b.cost.shuffle_slots);
  EXPECT_EQ(a.cost.load_slots, b.cost.load_slots);
  EXPECT_EQ(a.cost.store_slots, b.cost.store_slots);
  EXPECT_EQ(a.cost.scalar_slots, b.cost.scalar_slots);
  EXPECT_EQ(a.cost.activation_ramp, b.cost.activation_ramp);
  EXPECT_EQ(a.cost.stream_beat_bits, b.cost.stream_beat_bits);
  EXPECT_EQ(a.cost.plio_clock_ratio, b.cost.plio_clock_ratio);
  EXPECT_EQ(a.cost.stream_access_overhead, b.cost.stream_access_overhead);
  EXPECT_EQ(a.cost.generated_beat_factor, b.cost.generated_beat_factor);
  EXPECT_EQ(a.cost.window_sync_cycles, b.cost.window_sync_cycles);
  EXPECT_EQ(a.cost.window_bytes_per_cycle, b.cost.window_bytes_per_cycle);
  EXPECT_EQ(a.cost.hop_cycles, b.cost.hop_cycles);
  EXPECT_EQ(a.cost.gmio_setup_cycles, b.cost.gmio_setup_cycles);
  EXPECT_EQ(a.cost.gmio_bytes_per_cycle, b.cost.gmio_bytes_per_cycle);
  // The arena IS the payload, so equal artifacts are equal byte-for-byte.
  EXPECT_EQ(a.payload(), b.payload());
}

TEST_F(StoreFixture, SerializeDeserializeRoundTrip) {
  auto cg = compile();
  ASSERT_NE(cg, nullptr);
  const std::string payload = aiesim::serialize_compiled_graph(*cg);
  auto back = aiesim::deserialize_compiled_graph(
      reinterpret_cast<const std::byte*>(payload.data()), payload.size());
  ASSERT_NE(back, nullptr);
  expect_equal_artifacts(*cg, *back);
}

TEST_F(StoreFixture, DeserializeRejectsEveryTruncation) {
  auto cg = compile();
  const std::string payload = aiesim::serialize_compiled_graph(*cg);
  // Every proper prefix must be rejected cleanly (no crash, no partial
  // artifact) -- the Reader bounds-checks each field.
  for (std::size_t cut = 0; cut < payload.size();
       cut += std::max<std::size_t>(1, payload.size() / 97)) {
    EXPECT_EQ(aiesim::deserialize_compiled_graph(
                  reinterpret_cast<const std::byte*>(payload.data()), cut),
              nullptr)
        << "cut=" << cut;
  }
}

TEST_F(StoreFixture, SaveLoadThroughStore) {
  auto cg = compile();
  aiesim::CompiledStore store{dir_};
  store.save(*cg);
  EXPECT_EQ(store.stats().saves, 1u);
  ASSERT_TRUE(fs::exists(store.path_for(cg->key)));

  auto loaded = store.load(cg->key);
  ASSERT_NE(loaded, nullptr);
  EXPECT_TRUE(loaded->from_store);
  EXPECT_FALSE(cg->from_store);
  expect_equal_artifacts(*cg, *loaded);
  EXPECT_EQ(store.stats().load_hits, 1u);
  EXPECT_EQ(store.load("no-such-key"), nullptr);
  EXPECT_EQ(store.stats().load_misses, 1u);
}

TEST_F(StoreFixture, LoadedArtifactIsZeroCopyIntoItsPayload) {
  auto cg = compile();
  aiesim::CompiledStore store{dir_};
  store.save(*cg);
  auto loaded = store.load(cg->key);
  ASSERT_NE(loaded, nullptr);

  // Every table must be a view into the artifact's own payload arena
  // (for a store load: the file mapping) -- no per-table copies.
  const char* lo = loaded->payload_data;
  const char* hi = lo + loaded->payload_bytes;
  auto inside = [&](const void* p, std::size_t bytes) {
    const char* c = static_cast<const char*>(p);
    return lo <= c && c + bytes <= hi;
  };
  EXPECT_TRUE(inside(loaded->placement_coords.data(),
                     loaded->placement_coords.size_bytes()));
  EXPECT_TRUE(inside(loaded->edge_flags.data(),
                     loaded->edge_flags.size_bytes()));
  EXPECT_TRUE(inside(loaded->edge_hop.data(), loaded->edge_hop.size_bytes()));
  for (const aiesim::AdjTable* t :
       {&loaded->kernel_in_edges, &loaded->kernel_out_edges,
        &loaded->edge_producer_kernels, &loaded->edge_consumer_kernels}) {
    EXPECT_TRUE(inside(t->offsets.data(), t->offsets.size_bytes()));
    EXPECT_TRUE(inside(t->values.data(), t->values.size_bytes()));
  }

  // ...and every span must be naturally aligned despite living at an
  // arbitrary offset behind the 24-byte file header.
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(loaded->edge_hop.data()) % 8, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(
                loaded->kernel_in_edges.offsets.data()) %
                alignof(std::uint32_t),
            0u);

  // The compile-side artifact honors the same invariant (its arena).
  const char* clo = cg->payload_data;
  const char* chi = clo + cg->payload_bytes;
  const char* coords = reinterpret_cast<const char*>(
      cg->placement_coords.data());
  EXPECT_TRUE(clo <= coords && coords < chi);
}

TEST_F(StoreFixture, CacheIntegrationHitsTheStoreAcrossRestarts) {
  auto& cache = aiesim::CompiledGraphCache::instance();
  auto store = std::make_shared<aiesim::CompiledStore>(dir_);
  cache.set_store(store);
  cache.clear();

  auto first = cache.get_or_compile(chain_.view(), cost_, false, {}, 4);
  ASSERT_NE(first, nullptr);
  EXPECT_FALSE(first->from_store);
  EXPECT_EQ(cache.stats().store_writes, 1u);
  EXPECT_EQ(cache.stats().store_hits, 0u);

  cache.clear();  // simulated daemon restart: memory gone, disk warm
  auto second = cache.get_or_compile(chain_.view(), cost_, false, {}, 4);
  ASSERT_NE(second, nullptr);
  EXPECT_TRUE(second->from_store);
  EXPECT_EQ(cache.stats().store_hits, 1u);
  EXPECT_EQ(cache.stats().store_writes, 0u);
  expect_equal_artifacts(*first, *second);

  // In-memory hit on the already-bound artifact: the store is not asked.
  auto third = cache.get_or_compile(chain_.view(), cost_, false, {}, 4);
  EXPECT_EQ(third.get(), second.get());
  EXPECT_EQ(store->stats().load_hits, 1u);
}

TEST_F(StoreFixture, CorruptedFilesFallBackToRecompile) {
  auto cg = compile();
  aiesim::CompiledStore store{dir_};
  const std::string path = store.path_for(cg->key);

  auto corrupt_at = [&](std::size_t offset) {
    store.save(*cg);
    std::fstream f{path, std::ios::in | std::ios::out | std::ios::binary};
    ASSERT_TRUE(f.good());
    f.seekg(0, std::ios::end);
    const auto size = static_cast<std::size_t>(f.tellg());
    ASSERT_LT(offset, size);
    f.seekg(static_cast<std::streamoff>(offset));
    char c = 0;
    f.read(&c, 1);
    c = static_cast<char>(c ^ 0x5a);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&c, 1);
  };

  // Header CRC, payload CRC, and deep-payload corruption all reject and
  // delete the file; the next load is a plain miss.
  for (const std::size_t offset : {std::size_t{8}, std::size_t{30},
                                   std::size_t{200}}) {
    corrupt_at(offset);
    EXPECT_EQ(store.load(cg->key), nullptr) << "offset=" << offset;
    EXPECT_FALSE(fs::exists(path)) << "offset=" << offset;
  }

  // Truncations at every interesting boundary reject + delete too.
  for (const std::size_t keep : {std::size_t{0}, std::size_t{10},
                                 std::size_t{24}, std::size_t{60}}) {
    store.save(*cg);
    fs::resize_file(path, keep);
    EXPECT_EQ(store.load(cg->key), nullptr) << "keep=" << keep;
    EXPECT_FALSE(fs::exists(path)) << "keep=" << keep;
  }
  EXPECT_GE(store.stats().load_failures, 7u);

  // And an undamaged save still loads: the store was not poisoned.
  store.save(*cg);
  EXPECT_NE(store.load(cg->key), nullptr);
}

TEST_F(StoreFixture, StaleVersionRejectedAndDeleted) {
  auto cg = compile();
  aiesim::CompiledStore store{dir_};
  store.save(*cg);
  const std::string path = store.path_for(cg->key);

  // Bump the format version and re-seal the header CRC so only the
  // version check can reject it.
  std::fstream f{path, std::ios::in | std::ios::out | std::ios::binary};
  ASSERT_TRUE(f.good());
  aiesim::StoreFileHdr hdr{};
  f.read(reinterpret_cast<char*>(&hdr), sizeof(hdr));
  hdr.version = aiesim::kStoreVersion + 1;
  hdr.header_crc = aiesim::store_crc32c(
      &hdr, offsetof(aiesim::StoreFileHdr, header_crc));
  f.seekp(0);
  f.write(reinterpret_cast<const char*>(&hdr), sizeof(hdr));
  f.close();

  EXPECT_EQ(store.load(cg->key), nullptr);
  EXPECT_FALSE(fs::exists(path));
}

TEST_F(StoreFixture, FileCountCapEvictsOldestFirst) {
  aiesim::CompiledStore store{dir_, 256u << 20, /*max_files=*/2};
  auto& cache = aiesim::CompiledGraphCache::instance();
  // Distinct cost models produce distinct keys (and distinct files).
  for (int i = 0; i < 5; ++i) {
    cache.clear();
    aiesim::CostModel c = cost_;
    c.hop_cycles += static_cast<std::uint64_t>(i);
    auto cg = cache.get_or_compile(chain_.view(), c, false, {}, 4);
    store.save(*cg);
  }
  std::size_t files = 0;
  for (const auto& e : fs::directory_iterator{dir_}) {
    files += e.path().extension() == ".cgc" ? 1 : 0;
  }
  EXPECT_LE(files, 2u);
  EXPECT_GE(store.stats().evicted_files, 3u);
  // The most recent artifact survived the cap.
  aiesim::CostModel last = cost_;
  last.hop_cycles += 4;
  cache.clear();
  auto cg = cache.get_or_compile(chain_.view(), last, false, {}, 4);
  EXPECT_NE(store.load(cg->key), nullptr);
}

TEST_F(StoreFixture, ByteCapEvicts) {
  // A cap smaller than one artifact: every save immediately evicts, and
  // the directory never holds more than the just-written file.
  aiesim::CompiledStore store{dir_, /*max_bytes=*/1, /*max_files=*/256};
  auto cg = compile();
  store.save(*cg);
  std::size_t files = 0;
  for (const auto& e : fs::directory_iterator{dir_}) {
    files += e.path().extension() == ".cgc" ? 1 : 0;
  }
  EXPECT_EQ(files, 0u);
  EXPECT_GE(store.stats().evicted_files, 1u);
}

TEST_F(StoreFixture, StoreLoadedArtifactSimulatesIdentically) {
  auto& cache = aiesim::CompiledGraphCache::instance();
  auto store = std::make_shared<aiesim::CompiledStore>(dir_);

  // Fresh compile drives the baseline run.
  aiesim::SimConfig cfg;
  std::vector<int> out_fresh;
  const auto r_fresh =
      aiesim::simulate(chain_.view(), cfg, iota_vec(24), 5, out_fresh);

  // Persist, wipe memory, and rerun: the binding now comes off disk.
  cache.set_store(store);
  cache.clear();
  std::vector<int> out_warmup;
  (void)aiesim::simulate(chain_.view(), cfg, iota_vec(24), 5, out_warmup);
  EXPECT_GE(cache.stats().store_writes, 1u);
  cache.clear();
  std::vector<int> out_store;
  const auto r_store =
      aiesim::simulate(chain_.view(), cfg, iota_vec(24), 5, out_store);
  EXPECT_GE(cache.stats().store_hits, 1u);

  EXPECT_EQ(out_fresh, out_store);
  EXPECT_EQ(r_fresh.virtual_cycles, r_store.virtual_cycles);
  EXPECT_EQ(r_fresh.output_items, r_store.output_items);
  EXPECT_EQ(r_fresh.trace.digest(), r_store.trace.digest());
}

TEST_F(StoreFixture, CrcKnownVector) {
  // RFC 3720 iSCSI check value for "123456789" (CRC-32C Castagnoli).
  EXPECT_EQ(aiesim::store_crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(aiesim::store_crc32c("", 0), 0u);
}

TEST_F(StoreFixture, WideCrcIsDeterministicAndBitSensitive) {
  // The 4-lane payload checksum: stable across calls, and every single
  // flipped bit anywhere in the buffer changes the value (the property
  // the corruption tests lean on).
  std::vector<unsigned char> buf(4096 + 13);  // remainder lands in lane 3
  std::uint32_t x = 0x12345678u;
  for (auto& b : buf) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<unsigned char>(x >> 24);
  }
  const std::uint32_t ref = aiesim::store_crc32c_wide(buf.data(), buf.size());
  EXPECT_EQ(ref, aiesim::store_crc32c_wide(buf.data(), buf.size()));
  for (std::size_t at : {std::size_t{0}, buf.size() / 4 - 1, buf.size() / 2,
                         (3 * buf.size()) / 4 + 5, buf.size() - 1}) {
    buf[at] ^= 0x01;
    EXPECT_NE(ref, aiesim::store_crc32c_wide(buf.data(), buf.size()))
        << "at=" << at;
    buf[at] ^= 0x01;
  }
  EXPECT_EQ(ref, aiesim::store_crc32c_wide(buf.data(), buf.size()));
  // Tiny inputs (quarter == 0) are well-defined too.
  (void)aiesim::store_crc32c_wide("abc", 3);
  EXPECT_EQ(aiesim::store_crc32c_wide("abc", 3),
            aiesim::store_crc32c_wide("abc", 3));
}

}  // namespace

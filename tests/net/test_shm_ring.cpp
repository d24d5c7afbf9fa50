// Shared-memory data plane: SPSC ring semantics (all-or-nothing writes
// and reads, wraparound, a two-thread transfer through the try ops), the
// bidirectional ShmPlane over anonymous and named segments with its
// layout-version check, and the SocketChannel bulk path riding the ring
// -- which must stay bit-identical to the socket path it replaces.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "net/shm_ring.hpp"
#include "net/socket.hpp"
#include "net/socket_channel.hpp"

namespace {

using namespace cgsim;
using namespace cgsim::net;

std::vector<std::byte> pattern_bytes(std::size_t n, unsigned seed) {
  std::vector<std::byte> v(n);
  unsigned x = seed * 2654435761u + 1;
  for (std::size_t i = 0; i < n; ++i) {
    x = x * 1664525u + 1013904223u;
    v[i] = static_cast<std::byte>(x >> 24);
  }
  return v;
}

TEST(ShmRing, WriteReadRoundTripWithWrap) {
  auto plane = ShmPlane::create_anon(ShmPlane::kMinRingBytes);
  ShmRing& ring = plane.tx();
  ASSERT_TRUE(ring.valid());
  const std::size_t cap = ring.capacity();
  EXPECT_EQ(cap & (cap - 1), 0u) << "power-of-two capacity";

  // Many odd-sized chunks force the cursors through several wraps.
  const auto src = pattern_bytes(cap * 7 + 13, 1);
  std::vector<std::byte> dst(src.size());
  std::size_t w = 0, r = 0;
  while (r < src.size()) {
    const std::size_t chunk = std::min<std::size_t>(97, src.size() - w);
    if (chunk > 0 && ring.try_write(src.data() + w, chunk)) w += chunk;
    const std::size_t have = std::min(ring.readable(), src.size() - r);
    if (have > 0) {
      ASSERT_TRUE(ring.try_read_exact(dst.data() + r, have));
      r += have;
    }
  }
  EXPECT_EQ(dst, src);
}

TEST(ShmRing, TryWriteIsAllOrNothing) {
  auto plane = ShmPlane::create_anon(ShmPlane::kMinRingBytes);
  ShmRing& ring = plane.tx();
  const std::size_t cap = ring.capacity();
  const auto src = pattern_bytes(cap, 2);
  ASSERT_TRUE(ring.try_write(src.data(), cap));  // exactly full
  EXPECT_EQ(ring.free_bytes(), 0u);
  // A full ring rejects without touching the cursors.
  EXPECT_FALSE(ring.try_write(src.data(), 1));
  EXPECT_EQ(ring.readable(), cap);
  std::vector<std::byte> dst(cap);
  ASSERT_TRUE(ring.try_read_exact(dst.data(), cap));
  EXPECT_EQ(dst, src);
  // And an oversized request fails even on an empty ring.
  EXPECT_FALSE(ring.try_write(src.data(), cap + 1));
  EXPECT_EQ(ring.readable(), 0u);
}

TEST(ShmRing, TryReadExactIsAllOrNothing) {
  auto plane = ShmPlane::create_anon(ShmPlane::kMinRingBytes);
  ShmRing& ring = plane.tx();
  const auto src = pattern_bytes(100, 3);
  ASSERT_TRUE(ring.try_write(src.data(), 100));
  std::vector<std::byte> dst(101, std::byte{0});
  EXPECT_FALSE(ring.try_read_exact(dst.data(), 101));
  EXPECT_EQ(ring.readable(), 100u) << "failed read consumed nothing";
  EXPECT_TRUE(ring.try_read_exact(dst.data(), 100));
}

TEST(ShmRing, TryTransferAcrossThreads) {
  // A payload many times the ring size, moved by a producer and a consumer
  // thread in odd-sized chunks, so the cursor pair wraps repeatedly while
  // both sides race on it. Each side yields when the ring refuses. Any
  // write chunk plus any read chunk fits the ring, so one side can always
  // move.
  auto plane = ShmPlane::create_anon(ShmPlane::kMinRingBytes);
  auto peer = plane.peer_view();
  ASSERT_EQ(plane.tx().capacity(), ShmPlane::kMinRingBytes);
  const auto src = pattern_bytes(ShmPlane::kMinRingBytes * 23 + 5, 5);
  std::vector<std::byte> dst(src.size());
  std::thread producer{[&] {
    const std::size_t sizes[] = {1, 97, 1021, 2039};
    std::size_t w = 0;
    for (std::size_t k = 0; w < src.size(); ++k) {
      const std::size_t n = std::min(sizes[k % 4], src.size() - w);
      while (!plane.tx().try_write(src.data() + w, n)) {
        std::this_thread::yield();
      }
      w += n;
    }
  }};
  std::thread consumer{[&] {
    const std::size_t sizes[] = {3, 211, 1531, 2017};
    std::size_t r = 0;
    for (std::size_t k = 0; r < dst.size(); ++k) {
      const std::size_t n = std::min(sizes[k % 4], dst.size() - r);
      while (!peer.rx().try_read_exact(dst.data() + r, n)) {
        std::this_thread::yield();
      }
      r += n;
    }
  }};
  producer.join();
  consumer.join();
  EXPECT_EQ(dst, src);
  EXPECT_EQ(peer.rx().readable(), 0u);
}

TEST(ShmPlane, PeerViewCrossesTheRings) {
  auto plane = ShmPlane::create_anon(1 << 16);
  auto peer = plane.peer_view();
  const auto fwd = pattern_bytes(1000, 6);
  const auto bwd = pattern_bytes(1000, 7);
  ASSERT_TRUE(plane.tx().try_write(fwd.data(), fwd.size()));
  ASSERT_TRUE(peer.tx().try_write(bwd.data(), bwd.size()));
  std::vector<std::byte> got_fwd(fwd.size()), got_bwd(bwd.size());
  ASSERT_TRUE(peer.rx().try_read_exact(got_fwd.data(), got_fwd.size()));
  ASSERT_TRUE(plane.rx().try_read_exact(got_bwd.data(), got_bwd.size()));
  EXPECT_EQ(got_fwd, fwd);
  EXPECT_EQ(got_bwd, bwd);
}

TEST(ShmPlane, NamedSegmentAttachAndUnlink) {
  auto initiator = ShmPlane::create_initiator(1 << 16);
  const std::string name = initiator.name();
  ASSERT_FALSE(name.empty());
  ASSERT_EQ(name.front(), '/');

  auto peer = ShmPlane::attach_peer(name);
  // attach_peer unlinks: the name is single-use.
  EXPECT_THROW((void)ShmPlane::attach_peer(name), std::exception);

  const auto fwd = pattern_bytes(512, 8);
  ASSERT_TRUE(initiator.tx().try_write(fwd.data(), fwd.size()));
  std::vector<std::byte> got(fwd.size());
  ASSERT_TRUE(peer.rx().try_read_exact(got.data(), got.size()));
  EXPECT_EQ(got, fwd);
  initiator.unlink_name();  // idempotent after peer unlink
}

TEST(ShmPlane, AttachRejectsForeignSegment) {
  // A named segment without the plane header must be refused.
  auto seg = ShmSegment::create_named(1 << 16);
  std::memset(seg.data(), 0xab, 64);
  const std::string name = seg.name();
  EXPECT_THROW((void)ShmPlane::attach_peer(name), std::exception);
  seg.unlink_name();

  // So must a segment of the right size and magic stamped with the
  // previous layout version, whose ring headers held more than the two
  // cursors; the same segment stamped with the current version attaches.
  const auto stamped = [](std::uint32_t version) {
    auto s = ShmSegment::create_named(
        ShmPlane::layout_bytes(ShmPlane::kMinRingBytes));
    auto* hdr = reinterpret_cast<ShmPlaneHdr*>(s.data());
    hdr->magic = kShmPlaneMagic;
    hdr->version = version;
    hdr->ring_bytes = ShmPlane::kMinRingBytes;
    return s;
  };
  auto v1 = stamped(1);
  EXPECT_THROW((void)ShmPlane::attach_peer(v1.name()), std::exception);
  v1.unlink_name();
  auto current = stamped(kShmPlaneVersion);
  EXPECT_NO_THROW((void)ShmPlane::attach_peer(current.name()));
  current.unlink_name();
}

TEST(ShmSetup, CodecRoundTripAndValidation) {
  ShmSetupMsg m;
  m.ring_bytes = 4 << 20;
  m.name = "/cgsim-1234-0";
  const std::string wire = m.encode();
  ShmSetupMsg back;
  ASSERT_TRUE(ShmSetupMsg::decode(
      std::span<const std::byte>{
          reinterpret_cast<const std::byte*>(wire.data()), wire.size()},
      back));
  EXPECT_EQ(back.ring_bytes, m.ring_bytes);
  EXPECT_EQ(back.name, m.name);

  // Names not rooted at '/' (or empty) are rejected.
  ShmSetupMsg bad;
  bad.ring_bytes = 1;
  bad.name = "cgsim-no-slash";
  const std::string bad_wire = bad.encode();
  ShmSetupMsg out;
  EXPECT_FALSE(ShmSetupMsg::decode(
      std::span<const std::byte>{
          reinterpret_cast<const std::byte*>(bad_wire.data()),
          bad_wire.size()},
      out));
}

// --- SocketChannel over the plane ------------------------------------------

struct ChannelTransfer {
  std::vector<int> received;
  std::uint64_t ring_tx = 0;
  std::uint64_t ring_rx = 0;
};

/// Pushes `src` through a channel pair (optionally shm-attached) and
/// returns everything the consumer popped, in order.
ChannelTransfer channel_transfer(const std::vector<int>& src, bool use_shm,
                                 std::size_t batch) {
  auto [a, b] = socket_pair();
  SocketChannel<int> tx{0, std::move(a)};
  SocketChannel<int> rx{1, std::move(b)};
  tx.set_producers(1);
  rx.set_producers(1);
  ShmPlane plane, peer;
  if (use_shm) {
    plane = ShmPlane::create_anon(1 << 20);
    peer = plane.peer_view();
    tx.attach_shm(plane.tx(), plane.rx());
    rx.attach_shm(peer.tx(), peer.rx());
  }
  std::thread producer{[&] {
    std::size_t done = 0;
    while (done < src.size()) {
      ChanStatus st{};
      done += tx.try_push_n(src.data() + done,
                            std::min(batch, src.size() - done), st);
      tx.flush();
      if (done < src.size()) tx.pump();
    }
    tx.producer_done();
  }};
  ChannelTransfer out;
  std::vector<int> buf(8192);
  for (;;) {
    ChanStatus st{};
    const std::size_t k = rx.try_pop_n(0, buf.data(), buf.size(), st);
    out.received.insert(out.received.end(), buf.begin(),
                        buf.begin() + static_cast<std::ptrdiff_t>(k));
    if (k == 0) {
      if (st == ChanStatus::closed) break;
      rx.pump();
    }
  }
  producer.join();
  out.ring_tx = tx.shm_tx_bytes();
  out.ring_rx = rx.shm_rx_bytes();
  return out;
}

TEST(SocketChannelShm, BulkPayloadRidesTheRingBitIdentically) {
  std::vector<int> src(300'000);
  std::iota(src.begin(), src.end(), -17);
  // Batches above the 4 KiB threshold take the ring...
  const ChannelTransfer shm = channel_transfer(src, true, 32 << 10);
  EXPECT_EQ(shm.received, src);
  EXPECT_GT(shm.ring_tx, 0u) << "bulk path never engaged the ring";
  EXPECT_EQ(shm.ring_tx, shm.ring_rx);
  // ...and the socket-only run of the same data matches bit for bit.
  const ChannelTransfer sock = channel_transfer(src, false, 32 << 10);
  EXPECT_EQ(sock.received, src);
  EXPECT_EQ(sock.ring_tx, 0u);
}

TEST(SocketChannelShm, SmallBatchesStayOnTheSocket) {
  std::vector<int> src(10'000);
  std::iota(src.begin(), src.end(), 5);
  // 256-element (1 KiB) batches sit under the shm threshold.
  const ChannelTransfer out = channel_transfer(src, true, 256);
  EXPECT_EQ(out.received, src);
  EXPECT_EQ(out.ring_tx, 0u);
}

TEST(SocketChannelShm, MixedBatchSizesInterleaveInOrder) {
  std::vector<int> src(200'000);
  std::iota(src.begin(), src.end(), 1);
  auto [a, b] = socket_pair();
  SocketChannel<int> tx{0, std::move(a)};
  SocketChannel<int> rx{1, std::move(b)};
  tx.set_producers(1);
  rx.set_producers(1);
  auto plane = ShmPlane::create_anon(1 << 20);
  auto peer = plane.peer_view();
  tx.attach_shm(plane.tx(), plane.rx());
  rx.attach_shm(peer.tx(), peer.rx());

  std::thread producer{[&] {
    // Alternate tiny (socket) and huge (ring) batches: the consumer must
    // splice the two byte paths back into one ordered stream.
    const std::size_t plan[] = {64, 32 << 10, 128, 48 << 10, 256};
    std::size_t done = 0, pick = 0;
    while (done < src.size()) {
      const std::size_t want =
          std::min(plan[pick++ % 5], src.size() - done);
      std::size_t sent = 0;
      while (sent < want) {
        ChanStatus st{};
        sent += tx.try_push_n(src.data() + done + sent, want - sent, st);
        tx.flush();
        if (sent < want) tx.pump();
      }
      done += want;
    }
    tx.producer_done();
  }};
  std::vector<int> got;
  std::vector<int> buf(4096);
  for (;;) {
    ChanStatus st{};
    const std::size_t k = rx.try_pop_n(0, buf.data(), buf.size(), st);
    got.insert(got.end(), buf.begin(),
               buf.begin() + static_cast<std::ptrdiff_t>(k));
    if (k == 0) {
      if (st == ChanStatus::closed) break;
      rx.pump();
    }
  }
  producer.join();
  EXPECT_EQ(got, src);
  EXPECT_GT(tx.shm_tx_bytes(), 0u);
  EXPECT_LT(tx.shm_tx_bytes(), src.size() * sizeof(int))
      << "tiny batches should not have taken the ring";
}

}  // namespace

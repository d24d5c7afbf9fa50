// cgsim::net -- zero-copy shared-memory data plane for same-host peers.
//
// A ShmSegment is a POSIX shared-memory mapping (anonymous memfd for
// in-process use, named shm_open for cross-process negotiation over a
// socket: the initiator creates a named segment, ships the name in a
// control frame, and unlinks it once the peer has mapped it -- the
// mapping keeps the pages alive, the name does not outlive the
// handshake).
//
// Inside a segment lives a pair of SPSC byte rings (one per direction,
// see ShmPlane). Each ring is a classic monotonic-cursor design: `head`
// counts bytes ever produced, `tail` bytes ever consumed, both on their
// own cache line; data lands at cursor % capacity with at most two
// memcpys per transfer (wrap). The ring has two operations, both
// all-or-nothing and nonblocking: try_write() and try_read_exact(). A
// cursor store publishes the bytes before the new cursor value to the
// other side's acquire load; nothing parks on the ring.
//
// Protocol contract with the socket layer: payload bytes are written to
// the ring FIRST, the (tiny) control frame announcing them goes over the
// socket SECOND. The receiver therefore never waits on the ring -- by the
// time the control frame parses, the bytes are guaranteed present -- and
// ring occupancy is bounded by the credit window the socket layer already
// enforces. The socket frame is the wake-up.
#pragma once

#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <new>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "frame.hpp"
#include "socket.hpp"

namespace cgsim::net {

// ---------------------------------------------------------------------------
// Shared segment.
// ---------------------------------------------------------------------------

/// RAII shared-memory mapping. Move-only. Created anonymously (memfd) for
/// in-process planes or with a /dev/shm name for the socket handshake.
class ShmSegment {
 public:
  ShmSegment() = default;
  ShmSegment(ShmSegment&& o) noexcept { *this = std::move(o); }
  ShmSegment& operator=(ShmSegment&& o) noexcept {
    if (this != &o) {
      unmap();
      base_ = std::exchange(o.base_, nullptr);
      size_ = std::exchange(o.size_, 0);
      name_ = std::exchange(o.name_, {});
    }
    return *this;
  }
  ShmSegment(const ShmSegment&) = delete;
  ShmSegment& operator=(const ShmSegment&) = delete;
  ~ShmSegment() { unmap(); }

  /// Anonymous segment for in-process planes (both "sides" share the one
  /// mapping).
  static ShmSegment create_anon(std::size_t bytes) {
    Fd fd{static_cast<int>(
        ::syscall(SYS_memfd_create, "cgsim-shm", 0u))};
    if (!fd.valid()) throw_errno("memfd_create");
    return map_fd(fd.get(), bytes, /*truncate=*/true, {});
  }

  /// Named segment for the cross-process handshake. The name is unique to
  /// this process + call; the caller unlinks once the peer attached.
  static ShmSegment create_named(std::size_t bytes) {
    static std::atomic<std::uint32_t> counter{0};
    char name[64];
    std::snprintf(name, sizeof(name), "/cgsim-%d-%u",
                  static_cast<int>(::getpid()),
                  counter.fetch_add(1, std::memory_order_relaxed));
    const int raw = ::shm_open(name, O_CREAT | O_EXCL | O_RDWR, 0600);
    if (raw < 0) throw_errno("shm_open(create)");
    Fd fd{raw};
    ShmSegment s = map_fd(fd.get(), bytes, /*truncate=*/true, name);
    return s;
  }

  /// Attaches to a peer's named segment (validated by the caller against
  /// the negotiated layout). Throws when the name does not resolve --
  /// which is exactly what happens for a remote (different-host) peer, and
  /// is reported as a negotiation failure, not an error.
  static ShmSegment open_named(const std::string& name) {
    const int raw = ::shm_open(name.c_str(), O_RDWR, 0);
    if (raw < 0) throw_errno("shm_open(attach)");
    Fd fd{raw};
    struct stat st{};
    if (::fstat(fd.get(), &st) != 0) throw_errno("fstat(shm)");
    return map_fd(fd.get(), static_cast<std::size_t>(st.st_size),
                  /*truncate=*/false, name);
  }

  /// Removes the /dev/shm name (mappings stay alive). Idempotent.
  void unlink_name() {
    if (!name_.empty()) {
      ::shm_unlink(name_.c_str());
      name_.clear();
    }
  }

  [[nodiscard]] std::byte* data() const {
    return static_cast<std::byte*>(base_);
  }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] bool valid() const { return base_ != nullptr; }

 private:
  static ShmSegment map_fd(int fd, std::size_t bytes, bool truncate,
                           std::string name) {
    if (truncate && ::ftruncate(fd, static_cast<off_t>(bytes)) != 0) {
      if (!name.empty()) ::shm_unlink(name.c_str());
      throw_errno("ftruncate(shm)");
    }
    void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd,
                     0);
    if (p == MAP_FAILED) {
      if (!name.empty()) ::shm_unlink(name.c_str());
      throw_errno("mmap(shm)");
    }
    ShmSegment s;
    s.base_ = p;
    s.size_ = bytes;
    s.name_ = std::move(name);
    return s;
  }

  void unmap() {
    if (base_ != nullptr) {
      ::munmap(base_, size_);
      base_ = nullptr;
      size_ = 0;
    }
  }

  void* base_ = nullptr;
  std::size_t size_ = 0;
  std::string name_;  ///< non-empty until unlink_name()
};

// ---------------------------------------------------------------------------
// SPSC byte ring.
// ---------------------------------------------------------------------------

/// Shared-memory ring header. Lives inside the segment; producer and
/// consumer cursors are cache-line separated so the two sides never
/// false-share.
struct alignas(64) ShmRingHdr {
  std::atomic<std::uint64_t> head{0};  ///< bytes ever produced
  char pad0[56];
  std::atomic<std::uint64_t> tail{0};  ///< bytes ever consumed
  char pad1[56];
  std::uint64_t capacity{0};  ///< data bytes, power of two
};
static_assert(sizeof(ShmRingHdr) == 192);

/// Non-owning SPSC view over one (header, data) region. Exactly one
/// producer thread and one consumer thread may touch a ring; which role a
/// view plays is the caller's contract (ShmPlane hands out tx/rx pairs).
class ShmRing {
 public:
  ShmRing() = default;
  ShmRing(ShmRingHdr* h, std::byte* data) : h_(h), data_(data) {}

  /// Formats a fresh ring in place (initiator side only).
  static void init(ShmRingHdr* h, std::uint64_t capacity) {
    new (h) ShmRingHdr{};
    h->capacity = capacity;
  }

  [[nodiscard]] bool valid() const { return h_ != nullptr; }
  [[nodiscard]] std::size_t capacity() const {
    return static_cast<std::size_t>(h_->capacity);
  }
  [[nodiscard]] std::size_t readable() const {
    return static_cast<std::size_t>(
        h_->head.load(std::memory_order_acquire) -
        h_->tail.load(std::memory_order_acquire));
  }
  [[nodiscard]] std::size_t free_bytes() const {
    return capacity() - readable();
  }

  /// Producer side: all-or-nothing nonblocking write. The head store
  /// publishes the `n` bytes before it to the consumer's acquire load.
  bool try_write(const void* src, std::size_t n) {
    if (n > free_bytes()) return false;
    const std::uint64_t head = h_->head.load(std::memory_order_relaxed);
    copy_in(head, src, n);
    h_->head.store(head + n, std::memory_order_seq_cst);
    return true;
  }

  /// Consumer side: all-or-nothing nonblocking read of exactly `n` bytes.
  /// The tail store hands the `n` bytes before it back to the producer,
  /// whose acquire load orders its next overwrite after this copy. The
  /// service protocol guarantees announced bytes are present, so a false
  /// return there is a protocol violation, not a retry condition.
  bool try_read_exact(void* dst, std::size_t n) {
    if (readable() < n) return false;
    const std::uint64_t tail = h_->tail.load(std::memory_order_relaxed);
    copy_out(tail, dst, n);
    h_->tail.store(tail + n, std::memory_order_seq_cst);
    return true;
  }

 private:
  [[nodiscard]] std::size_t mask() const {
    return static_cast<std::size_t>(h_->capacity) - 1;
  }

  void copy_in(std::uint64_t head, const void* src, std::size_t n) {
    const std::size_t off = static_cast<std::size_t>(head) & mask();
    const std::size_t first = std::min(n, capacity() - off);
    std::memcpy(data_ + off, src, first);
    if (n > first) {
      std::memcpy(data_, static_cast<const std::byte*>(src) + first,
                  n - first);
    }
  }

  void copy_out(std::uint64_t tail, void* dst, std::size_t n) const {
    const std::size_t off = static_cast<std::size_t>(tail) & mask();
    const std::size_t first = std::min(n, capacity() - off);
    std::memcpy(dst, data_ + off, first);
    if (n > first) {
      std::memcpy(static_cast<std::byte*>(dst) + first, data_, n - first);
    }
  }

  ShmRingHdr* h_ = nullptr;
  std::byte* data_ = nullptr;
};

// ---------------------------------------------------------------------------
// Plane: one segment, two rings (one per direction).
// ---------------------------------------------------------------------------

inline constexpr std::uint32_t kShmPlaneMagic = 0x43475348u;  // "CGSH"
/// Bumped whenever the segment layout changes; attach_peer() refuses any
/// other version. Version 2: a ring header holds the two cursors and the
/// capacity, nothing else.
inline constexpr std::uint32_t kShmPlaneVersion = 2;

struct ShmPlaneHdr {
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  std::uint64_t ring_bytes = 0;  ///< data capacity per ring
};

/// Bidirectional data plane over one segment:
///
///   [plane hdr | ring A hdr | ring A data | ring B hdr | ring B data]
///
/// The INITIATOR (client) produces into ring A and consumes ring B; the
/// PEER (daemon) the other way around. tx()/rx() are pre-resolved for the
/// local role.
class ShmPlane {
 public:
  /// Smallest useful plane; create_* round the per-ring capacity down to a
  /// power of two.
  static constexpr std::size_t kMinRingBytes = 4096;

  /// Creates + formats a plane in a NAMED segment (socket handshake).
  static ShmPlane create_initiator(std::size_t ring_bytes) {
    return create(ring_bytes, /*named=*/true);
  }

  /// Creates + formats a plane in an anonymous segment (in-process use:
  /// hand `*this` to one side and `peer_view()` to the other).
  static ShmPlane create_anon(std::size_t ring_bytes) {
    return create(ring_bytes, /*named=*/false);
  }

  /// Attaches to an initiator's named segment and validates the layout.
  /// Throws when the name does not resolve or the header is foreign.
  static ShmPlane attach_peer(const std::string& name) {
    ShmPlane p;
    p.seg_ = ShmSegment::open_named(name);
    p.seg_.unlink_name();  // attached: the name has done its job
    const auto* ph = reinterpret_cast<const ShmPlaneHdr*>(p.seg_.data());
    if (p.seg_.size() < sizeof(ShmPlaneHdr) ||
        ph->magic != kShmPlaneMagic || ph->version != kShmPlaneVersion ||
        p.seg_.size() < layout_bytes(ph->ring_bytes)) {
      throw std::runtime_error{"shm plane: foreign or corrupt segment"};
    }
    p.wire(static_cast<std::size_t>(ph->ring_bytes), /*initiator=*/false);
    return p;
  }

  ShmPlane() = default;
  ShmPlane(ShmPlane&& o) noexcept { *this = std::move(o); }
  ShmPlane& operator=(ShmPlane&& o) noexcept {
    if (this != &o) {
      seg_ = std::move(o.seg_);
      tx_ = o.tx_;
      rx_ = o.rx_;
      ring_bytes_ = o.ring_bytes_;
      initiator_ = o.initiator_;
    }
    return *this;
  }

  /// In-process: the opposite-role view over the same anonymous segment.
  /// The returned plane borrows this plane's mapping (must not outlive
  /// it).
  [[nodiscard]] ShmPlane peer_view() {
    ShmPlane p;
    p.ring_bytes_ = ring_bytes_;
    p.initiator_ = !initiator_;
    p.wire_over(seg_.data(), ring_bytes_, p.initiator_);
    return p;
  }

  [[nodiscard]] ShmRing& tx() { return tx_; }
  [[nodiscard]] ShmRing& rx() { return rx_; }
  [[nodiscard]] const std::string& name() const { return seg_.name(); }
  [[nodiscard]] std::size_t ring_bytes() const { return ring_bytes_; }
  [[nodiscard]] bool valid() const { return tx_.valid(); }
  void unlink_name() { seg_.unlink_name(); }

  [[nodiscard]] static std::size_t layout_bytes(std::uint64_t ring_bytes) {
    return 64 + 2 * (sizeof(ShmRingHdr) + static_cast<std::size_t>(
                                              ring_bytes));
  }

 private:
  static ShmPlane create(std::size_t ring_bytes, bool named) {
    std::size_t cap = kMinRingBytes;
    while (cap * 2 <= ring_bytes) cap *= 2;  // round down to power of two
    ShmPlane p;
    const std::size_t total = layout_bytes(cap);
    p.seg_ = named ? ShmSegment::create_named(total)
                   : ShmSegment::create_anon(total);
    auto* ph = reinterpret_cast<ShmPlaneHdr*>(p.seg_.data());
    ph->magic = kShmPlaneMagic;
    ph->version = kShmPlaneVersion;
    ph->ring_bytes = cap;
    ShmRing::init(ring_hdr(p.seg_.data(), cap, 0), cap);
    ShmRing::init(ring_hdr(p.seg_.data(), cap, 1), cap);
    p.wire(cap, /*initiator=*/true);
    return p;
  }

  static ShmRingHdr* ring_hdr(std::byte* base, std::size_t cap, int which) {
    return reinterpret_cast<ShmRingHdr*>(
        base + 64 + static_cast<std::size_t>(which) *
                        (sizeof(ShmRingHdr) + cap));
  }
  static std::byte* ring_data(std::byte* base, std::size_t cap, int which) {
    return reinterpret_cast<std::byte*>(ring_hdr(base, cap, which)) +
           sizeof(ShmRingHdr);
  }

  void wire(std::size_t cap, bool initiator) {
    ring_bytes_ = cap;
    initiator_ = initiator;
    wire_over(seg_.data(), cap, initiator);
  }

  void wire_over(std::byte* base, std::size_t cap, bool initiator) {
    ShmRing a{ring_hdr(base, cap, 0), ring_data(base, cap, 0)};
    ShmRing b{ring_hdr(base, cap, 1), ring_data(base, cap, 1)};
    tx_ = initiator ? a : b;
    rx_ = initiator ? b : a;
  }

  ShmSegment seg_;
  ShmRing tx_;
  ShmRing rx_;
  std::size_t ring_bytes_ = 0;
  bool initiator_ = true;
};

// ---------------------------------------------------------------------------
// shm_setup codec (payload of FrameType::shm_setup).
// ---------------------------------------------------------------------------

struct ShmSetupMsg {
  std::uint64_t ring_bytes = 0;
  std::string name;

  [[nodiscard]] std::string encode() const {
    std::string s;
    put_varint(s, ring_bytes);
    s.append(name);
    return s;
  }
  [[nodiscard]] static bool decode(std::span<const std::byte> p,
                                   ShmSetupMsg& m) {
    const std::byte* it = p.data();
    const std::byte* end = it + p.size();
    if (!get_varint(it, end, m.ring_bytes)) return false;
    m.name.assign(reinterpret_cast<const char*>(it),
                  static_cast<std::size_t>(end - it));
    return !m.name.empty() && m.name.front() == '/';
  }
};

}  // namespace cgsim::net

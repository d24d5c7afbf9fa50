// cgsim::net -- SocketChannel: the channel interface over a stream socket,
// so one edge of a graph can span processes (or hosts).
//
// Each endpoint owns one side of a connected socket and behaves as a
// normal TypedChannel<T> to the kernels bound to it: the producer process
// pushes into its endpoint, the frames cross the wire, and the consumer
// process pops out of its endpoint. Elements must be trivially copyable
// (the same restriction the serialized-graph service imposes -- bytes are
// the wire format).
//
// Throughput model:
//   * pushes stage into an element buffer and leave as ONE data frame per
//     flush (threshold-triggered or explicit), so a bulk put_n crosses the
//     socket as a single writev of [header | payload];
//   * flow control is credit-based: a sender consumes credit bytes per
//     element staged and parks (ChanStatus::blocked) when the window is
//     exhausted; the receiver grants credit back as the application
//     actually pops, so a slow consumer exerts backpressure end-to-end
//     instead of ballooning the receive queue;
//   * end-of-stream and consumer-side closure travel as explicit frames,
//     mapping onto producer_done()/consumer_done() closure semantics.
//
// Concurrency contract: one thread drives an endpoint at a time (the coop
// scheduler thread calling pump(), or the single kernel thread inside
// blocking ops). Cooperative waiters are completed from pump(), which the
// owning event loop calls when the fd turns readable/writable -- the same
// completion protocol CoopChannel uses, with the I/O loop as completer.
#pragma once

#include <cassert>
#include <cstring>
#include <deque>
#include <type_traits>
#include <vector>

#include "../core/channel.hpp"
#include "../core/task.hpp"
#include "frame.hpp"
#include "shm_ring.hpp"
#include "socket.hpp"

namespace cgsim::net {

struct SocketChannelOptions {
  std::size_t flush_threshold = 64 << 10;  ///< staged bytes per data frame
  std::size_t credit_window = 4 << 20;     ///< send budget before parking
  std::size_t credit_refresh = 1 << 20;    ///< popped bytes per credit grant
  std::uint64_t stream = 1;                ///< stream id on the wire
  /// Batches of at least this many bytes take the shm ring (when one is
  /// attached); smaller ones stay on the socket, whose syscall is already
  /// amortized by frame staging.
  std::size_t shm_threshold = 4 << 10;
};

/// One endpoint of a socket-backed channel edge. `consumers` counts LOCAL
/// consumer endpoints (the remote side has its own object).
template <class T>
class SocketChannel final : public TypedChannel<T> {
  static_assert(std::is_trivially_copyable_v<T>,
                "socket channels carry raw bytes; T must be trivially "
                "copyable");
  using Base = TypedChannel<T>;
  using typename Base::BulkPopWaiter;
  using typename Base::BulkPushWaiter;
  using typename Base::PopWaiter;
  using typename Base::PushWaiter;

 public:
  SocketChannel(int consumers, Fd fd, Executor* exec = nullptr,
                SocketChannelOptions opts = {})
      : Base(consumers), fd_(std::move(fd)), exec_(exec), opts_(opts),
        send_credit_(opts.credit_window) {
    assert(consumers <= 1 && "socket channels carry point-to-point edges");
    // The channel is poll-driven throughout (blocking ops park in
    // wait_fd, not in the syscalls): a blocking fd would let writev
    // wedge this thread in the kernel on a full buffer, where the
    // peer's goodbye -- the only thing that could release it -- is
    // invisible.
    set_nonblocking(fd_.get());
    this->popped_.assign(static_cast<std::size_t>(std::max(consumers, 1)),
                         0);
    this->consumers_open_ = consumers;
  }

  ~SocketChannel() override = default;

  [[nodiscard]] int fd() const { return fd_.get(); }

  /// Attaches a negotiated shared-memory plane: `tx` is the ring this
  /// endpoint produces into, `rx` the one it consumes from (views borrowed
  /// from a ShmPlane the caller keeps alive). Bulk pushes of at least
  /// `opts.shm_threshold` bytes then travel the ring; a `data_shm` control
  /// frame on the socket announces each segment, so cross-path ordering
  /// follows socket order. The ring payload is written BEFORE the control
  /// frame is sent, so announced bytes are always already present and the
  /// receiver never waits on the ring.
  void attach_shm(ShmRing tx, ShmRing rx) {
    shm_tx_ = tx;
    shm_rx_ = rx;
    shm_attached_ = true;
  }

  [[nodiscard]] bool shm_attached() const { return shm_attached_; }
  /// Payload bytes that traveled the ring (tx / rx side), for tests and
  /// benchmarks asserting the fast path actually engaged.
  [[nodiscard]] std::uint64_t shm_tx_bytes() const { return shm_tx_bytes_; }
  [[nodiscard]] std::uint64_t shm_rx_bytes() const { return shm_rx_bytes_; }

  // --- cooperative fast path -------------------------------------------

  ChanStatus try_push(const T& v) override {
    ChanStatus st{};
    try_push_n(&v, 1, st);
    return st;
  }

  ChanStatus try_pop(int consumer, T& out) override {
    ChanStatus st{};
    try_pop_n(consumer, &out, 1, st);
    return st;
  }

  std::size_t try_push_n(const T* src, std::size_t n,
                         ChanStatus& st) override {
    if (peer_consumer_closed_ || io_error_) {
      st = ChanStatus::closed;
      return 0;
    }
    const std::size_t budget = send_credit_ / sizeof(T);
    const std::size_t k = std::min(n, budget);
    if (k > 0 && !push_via_shm(src, k)) {
      tx_.insert(tx_.end(), src, src + k);
      send_credit_ -= k * sizeof(T);
      this->pushed_ += k;
      if (tx_.size() * sizeof(T) >= opts_.flush_threshold) flush();
    }
    st = k == n ? ChanStatus::ok : ChanStatus::blocked;
    return k;
  }

  std::size_t try_pop_n(int consumer, T* dst, std::size_t n,
                        ChanStatus& st) override {
    const std::size_t k = std::min(n, rx_total_);
    take(consumer, dst, k);
    if (k == n) {
      st = ChanStatus::ok;
    } else if (pop_closed()) {
      st = ChanStatus::closed;
    } else {
      st = ChanStatus::blocked;
    }
    return k;
  }

  // --- cooperative completion ------------------------------------------

  void add_push_waiter(const T* value, ChanStatus* status,
                       TaskHandle h) override {
    ChanStatus st{};
    if (try_push_n(value, 1, st) == 1) {
      *status = ChanStatus::ok;
      ready(h);
      return;
    }
    if (st == ChanStatus::closed) {
      this->close_waiter(PushWaiter{value, status, h});
      ready(h);
      return;
    }
    push_waiters_.emplace_back(value, status, h);
    ++push_parks_;
  }

  void add_pop_waiter(T* out, ChanStatus* status, TaskHandle h,
                      int consumer) override {
    if (!rx_.empty()) {
      take(consumer, out, 1);
      *status = ChanStatus::ok;
      ready(h);
      return;
    }
    if (pop_closed()) {
      this->close_waiter(PopWaiter{out, status, h, consumer});
      ready(h);
      return;
    }
    pop_waiters_.emplace_back(out, status, h, consumer);
  }

  void add_bulk_push_waiter(const T* src, std::size_t n, std::size_t* moved,
                            ChanStatus* status, TaskHandle h) override {
    BulkPushWaiter w{src, n, *moved, moved, status, h};
    advance_bulk_push(w);
    if (w.done == w.n) {
      *w.moved = w.n;
      *w.status = ChanStatus::ok;
      ready(w.h);
    } else if (peer_consumer_closed_ || io_error_) {
      this->close_waiter(w);
      ready(w.h);
    } else {
      bulk_push_waiters_.push_back(w);
      ++push_parks_;
    }
  }

  void add_bulk_pop_waiter(T* dst, std::size_t n, std::size_t* moved,
                           ChanStatus* status, TaskHandle h,
                           int consumer) override {
    BulkPopWaiter w{dst, n, *moved, moved, status, h, consumer, 0};
    advance_bulk_pop(w);
    if (w.done == w.n) {
      *w.moved = w.n;
      *w.status = ChanStatus::ok;
      ready(w.h);
    } else if (pop_closed()) {
      this->close_waiter(w);
      ready(w.h);
    } else {
      bulk_pop_waiters_.push_back(w);
    }
  }

  // --- blocking (threaded runtime / host-side driver) ------------------

  bool blocking_push(const T& v) override {
    for (;;) {
      ChanStatus st = try_push(v);
      if (st == ChanStatus::ok) return true;
      if (st == ChanStatus::closed) return false;
      flush();                       // free credit can only arrive by wire
      if (io_error_) return false;
      wait_fd(fd_.get(), false, -1);
      pump_fill();
    }
  }

  bool blocking_pop(int consumer, T& out) override {
    for (;;) {
      ChanStatus st = try_pop(consumer, out);
      if (st == ChanStatus::ok) return true;
      if (st == ChanStatus::closed) return false;
      flush();                       // outstanding credit grant, if any
      if (io_error_) return false;
      wait_fd(fd_.get(), false, -1);
      pump_fill();
    }
  }

  // --- closure ----------------------------------------------------------

  void producer_done() override {
    if (--this->producers_open_ == 0) {
      stage_tx_frame();  // staged data must precede eos on the wire
      writer_.frame(FrameType::end_of_stream, opts_.stream, nullptr, 0);
      flush();
    }
  }

  void consumer_done(int consumer) override {
    (void)consumer;
    if (this->consumers_open_ > 0 && --this->consumers_open_ == 0) {
      writer_.frame(FrameType::goodbye, opts_.stream, nullptr, 0);
      flush();
    }
  }

  [[nodiscard]] std::uint64_t push_parks() const override {
    return push_parks_;
  }

  // --- I/O pump (owner loop / tests) ------------------------------------

  /// Drains readable frames and flushes pending output; completes parked
  /// waiters as data, credit or closure arrives. Returns true if any
  /// frame moved in either direction. Nonblocking when the fd is.
  bool pump() {
    const std::uint64_t before =
        reader_.parsed_frames() + writer_.flushed_bytes();
    flush();
    pump_fill();
    return reader_.parsed_frames() + writer_.flushed_bytes() != before;
  }

  /// Frames staged elements and writes as much as the kernel accepts.
  void flush() {
    if (in_flush_) return;  // re-entered via pump_fill -> service_waiters
    stage_tx_frame();
    if (!writer_.empty()) {
      // Zero-copy segments reference tx_; a would_block must not leave
      // them dangling, so retry until the frame fully leaves or the
      // kernel truly refuses. While parked on a full send buffer, drain
      // the read side too: the credit grant that will make the peer
      // resume reading -- or its goodbye, if it stopped for good -- can
      // only arrive by wire, and ignoring it would deadlock both ends.
      in_flush_ = true;
      FrameWriter::IoResult r = writer_.flush(fd_.get());
      while (r == FrameWriter::IoResult::would_block) {
        pump_fill();
        if (peer_consumer_closed_ || io_error_) {
          writer_.clear();  // undeliverable; drop dangling zero-copy refs
          break;
        }
        if (!wait_fd_rw(fd_.get(), 10'000)) {
          r = FrameWriter::IoResult::error;  // peer wedged; give up
          break;
        }
        r = writer_.flush(fd_.get());
      }
      in_flush_ = false;
      if (r == FrameWriter::IoResult::error) {
        writer_.clear();  // drop dangling zero-copy refs before tx_ dies
        mark_error();
      }
    }
    tx_.clear();
    tx_staged_ = false;
  }

  /// Turns the staged element buffer into one queued data frame.
  void stage_tx_frame() {
    if (tx_staged_ || tx_.empty()) return;
    writer_.frame(FrameType::data, opts_.stream, tx_.data(),
                  tx_.size() * sizeof(T));
    tx_staged_ = true;
  }

  [[nodiscard]] bool eos_received() const { return eos_received_; }
  [[nodiscard]] bool failed() const { return io_error_; }
  [[nodiscard]] std::size_t rx_buffered() const { return rx_total_; }

 private:
  /// One in-order slice of received data: socket-delivered elements live
  /// in rx_, ring-delivered ones stay IN the ring until popped (zero-copy
  /// until the final memcpy into the consumer's buffer).
  struct RxSeg {
    bool ring = false;
    std::size_t count = 0;  ///< elements
  };

  [[nodiscard]] bool pop_closed() const {
    return rx_total_ == 0 && (eos_received_ || io_error_);
  }

  /// Ships `k` elements through the shm ring: payload first, then the
  /// announcing data_shm frame on the socket. All-or-nothing -- a full
  /// ring returns false and the batch takes the socket instead (pure
  /// throughput fallback, never a stall).
  bool push_via_shm(const T* src, std::size_t k) {
    const std::size_t nbytes = k * sizeof(T);
    if (!shm_attached_ || nbytes < opts_.shm_threshold) return false;
    if (!shm_tx_.try_write(src, nbytes)) return false;
    // Staged socket data must be framed before the announcement so the
    // receiver sees the two paths in push order. (After the ring write:
    // the fallback path must leave no zero-copy frame referencing tx_.)
    stage_tx_frame();
    shm_tx_bytes_ += nbytes;
    send_credit_ -= nbytes;
    this->pushed_ += k;
    std::string ann;
    put_varint(ann, nbytes);
    writer_.frame_str(FrameType::data_shm, opts_.stream, ann);
    flush();
    return true;
  }

  void ready(TaskHandle h) {
    assert(exec_ != nullptr &&
           "cooperative ops on a SocketChannel require an executor");
    exec_->make_ready(h, 0);
  }

  void take(int consumer, T* dst, std::size_t k) {
    std::size_t left = k;
    while (left > 0) {
      RxSeg& seg = rx_segs_.front();
      const std::size_t m = std::min(left, seg.count);
      if (seg.ring) {
        // Announced ring bytes were written before the announcing frame
        // was sent, so they are guaranteed present.
        const bool ok = shm_rx_.try_read_exact(dst, m * sizeof(T));
        assert(ok && "shm protocol violation: announced bytes missing");
        (void)ok;
        shm_rx_bytes_ += m * sizeof(T);
        dst += m;
      } else {
        for (std::size_t i = 0; i < m; ++i) {
          *dst++ = rx_.front();
          rx_.pop_front();
        }
      }
      seg.count -= m;
      left -= m;
      if (seg.count == 0) rx_segs_.pop_front();
    }
    rx_total_ -= k;
    if (k == 0) return;
    this->popped_[static_cast<std::size_t>(consumer)] += k;
    popped_since_grant_ += k * sizeof(T);
    if (popped_since_grant_ >= opts_.credit_refresh) {
      std::string grant;
      put_varint(grant, popped_since_grant_);
      popped_since_grant_ = 0;
      writer_.frame_str(FrameType::credit, opts_.stream, grant);
      flush();
    }
  }

  void advance_bulk_push(BulkPushWaiter& w) {
    ChanStatus st{};
    w.done += try_push_n(w.src + w.done, w.n - w.done, st);
  }

  void advance_bulk_pop(BulkPopWaiter& w) {
    ChanStatus st{};
    w.done += try_pop_n(w.consumer, w.dst + w.done, w.n - w.done, st);
  }

  /// Reads every available frame and applies it.
  void pump_fill() {
    if (io_error_) return;
    for (;;) {
      FrameView f;
      std::string err;
      switch (reader_.next(f, &err)) {
        case FrameReader::ParseResult::frame:
          apply(f);
          continue;
        case FrameReader::ParseResult::corrupt:
          mark_error();
          return;
        case FrameReader::ParseResult::need_more:
          break;
      }
      // Only read when data is pending: on a blocking fd a bare readv of
      // a drained socket would wedge this thread (poll(0) costs nothing
      // on the nonblocking epoll path, which would get EAGAIN anyway).
      if (!wait_fd(fd_.get(), false, 0)) break;
      const auto io = reader_.fill(fd_.get());
      if (io == FrameReader::IoResult::would_block) break;
      if (io == FrameReader::IoResult::eof ||
          io == FrameReader::IoResult::error) {
        // A clean EOF after end_of_stream is normal teardown; anything
        // else is a failure that must release parked kernels.
        if (!(io == FrameReader::IoResult::eof && eos_received_)) {
          mark_error();
        }
        break;
      }
    }
    service_waiters();
  }

  void apply(const FrameView& f) {
    switch (f.type) {
      case FrameType::data: {
        const std::size_t count = f.payload.size() / sizeof(T);
        for (std::size_t i = 0; i < count; ++i) {
          T v;
          std::memcpy(&v, f.payload.data() + i * sizeof(T), sizeof(T));
          rx_.push_back(v);
        }
        append_seg(false, count);
        break;
      }
      case FrameType::data_shm: {
        const std::byte* p = f.payload.data();
        std::uint64_t nbytes = 0;
        if (shm_attached_ &&
            get_varint(p, p + f.payload.size(), nbytes) &&
            nbytes % sizeof(T) == 0) {
          append_seg(true, static_cast<std::size_t>(nbytes) / sizeof(T));
        } else {
          mark_error();  // announcement without a ring (or torn): fatal
        }
        break;
      }
      case FrameType::credit: {
        const std::byte* p = f.payload.data();
        std::uint64_t grant = 0;
        if (get_varint(p, p + f.payload.size(), grant)) {
          send_credit_ += static_cast<std::size_t>(grant);
        }
        break;
      }
      case FrameType::end_of_stream:
        eos_received_ = true;
        break;
      case FrameType::goodbye:
        peer_consumer_closed_ = true;
        break;
      default:
        break;  // unknown frame types are ignored (forward compat)
    }
  }

  /// Completes every parked waiter whose operation became possible (or
  /// terminally impossible).
  void service_waiters() {
    while (!pop_waiters_.empty() && (!rx_.empty() || pop_closed())) {
      PopWaiter w = pop_waiters_.front();
      pop_waiters_.pop_front();
      if (!rx_.empty()) {
        take(w.consumer, w.out, 1);
        *w.status = ChanStatus::ok;
      } else {
        this->close_waiter(w);
      }
      ready(w.h);
    }
    while (!bulk_pop_waiters_.empty() &&
           (!rx_.empty() || pop_closed())) {
      BulkPopWaiter& w = bulk_pop_waiters_.front();
      advance_bulk_pop(w);
      if (w.done == w.n) {
        *w.moved = w.n;
        *w.status = ChanStatus::ok;
        ready(w.h);
        bulk_pop_waiters_.pop_front();
      } else if (pop_closed()) {
        this->close_waiter(w);
        ready(w.h);
        bulk_pop_waiters_.pop_front();
      } else {
        break;  // partial fill; stay parked for the next frame
      }
    }
    while (!push_waiters_.empty() &&
           (send_credit_ >= sizeof(T) || peer_consumer_closed_ ||
            io_error_)) {
      PushWaiter w = push_waiters_.front();
      push_waiters_.pop_front();
      ChanStatus st{};
      if (try_push_n(w.value, 1, st) == 1) {
        *w.status = ChanStatus::ok;
      } else {
        this->close_waiter(w);
      }
      ready(w.h);
    }
    while (!bulk_push_waiters_.empty() &&
           (send_credit_ >= sizeof(T) || peer_consumer_closed_ ||
            io_error_)) {
      BulkPushWaiter& w = bulk_push_waiters_.front();
      advance_bulk_push(w);
      if (w.done == w.n) {
        *w.moved = w.n;
        *w.status = ChanStatus::ok;
        ready(w.h);
        bulk_push_waiters_.pop_front();
      } else if (peer_consumer_closed_ || io_error_) {
        this->close_waiter(w);
        ready(w.h);
        bulk_push_waiters_.pop_front();
      } else {
        break;
      }
    }
  }

  void append_seg(bool ring, std::size_t count) {
    if (count == 0) return;
    if (!rx_segs_.empty() && rx_segs_.back().ring == ring) {
      rx_segs_.back().count += count;  // merge: adjacent same-path slices
    } else {
      rx_segs_.push_back(RxSeg{ring, count});
    }
    rx_total_ += count;
  }

  void mark_error() {
    io_error_ = true;
    service_waiters();  // release everyone with closed
  }

  Fd fd_;
  Executor* exec_;
  SocketChannelOptions opts_;
  FrameWriter writer_;
  FrameReader reader_;
  std::vector<T> tx_;           ///< staged outgoing elements
  bool tx_staged_ = false;      ///< tx_ already queued as a data frame
  bool in_flush_ = false;       ///< reentry guard (pump_fill -> waiters)
  std::deque<T> rx_;            ///< socket-received, not yet popped
  std::deque<RxSeg> rx_segs_;   ///< in-order map of rx_ + ring residency
  std::size_t rx_total_ = 0;    ///< total poppable elements (both paths)
  ShmRing shm_tx_;              ///< produce side of the attached plane
  ShmRing shm_rx_;              ///< consume side of the attached plane
  bool shm_attached_ = false;
  std::uint64_t shm_tx_bytes_ = 0;
  std::uint64_t shm_rx_bytes_ = 0;
  std::size_t send_credit_;     ///< bytes we may still stage
  std::size_t popped_since_grant_ = 0;
  bool eos_received_ = false;
  bool peer_consumer_closed_ = false;
  bool io_error_ = false;
  std::uint64_t push_parks_ = 0;
  std::deque<PushWaiter> push_waiters_;
  std::deque<PopWaiter> pop_waiters_;
  std::deque<BulkPushWaiter> bulk_push_waiters_;
  std::deque<BulkPopWaiter> bulk_pop_waiters_;
};

}  // namespace cgsim::net

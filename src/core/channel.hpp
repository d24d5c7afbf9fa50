// cgsim -- MPMC broadcast channels connecting kernels (paper Section 3.6).
//
// Semantics: fixed capacity; every consumer endpoint receives a complete
// copy of all data written to the channel (broadcast); data from a single
// producer stays ordered, data from multiple producers may interleave.
//
// The cooperative backends use a *completion-based* protocol: a kernel that
// cannot make progress registers a waiter record pointing into its awaiter
// frame, and the channel itself performs the transfer the moment it becomes
// possible, then hands the coroutine back to the executor. This makes every
// wake-up productive (no spurious retries), which is where cgsim's
// near-zero synchronization overhead (paper Section 5.2) comes from. A
// parked operation that can never complete (the stream closed for good)
// ends its task: the channel marks it (mark_closed_parked(), task.hpp) and
// its executor retires it without resuming it. Only a bulk pop that
// already moved data resumes, to return its short count.
//
// Besides the per-element operations there is a bulk interface
// (try_push_n / try_pop_n plus bulk waiter records) that moves a whole
// window of elements per suspension with contiguous ring copies, split at
// the wrap point. Bulk waiters drain *incrementally* while parked, so a
// batch larger than the ring capacity still completes (the transfer streams
// through the ring in capacity-sized pieces).
//
// Three backends share one interface:
//   * CoopChannel     -- completion-based, single-threaded; also serves the
//                        cycle-approximate backend via per-item virtual-time
//                        stamps (SimHooks). Declared `final` so ports that
//                        know the execution mode can call its methods
//                        without virtual dispatch (see ports.hpp).
//   * ThreadedChannel -- mutex/condition-variable blocking ops for the
//                        thread-per-kernel x86sim-style runtime.
//   * RtpChannel      -- sticky single-value channel backing AIE runtime
//                        parameters (paper Section 3.7). Rejects bulk ops.
//
// CoopChannel and ThreadedChannel store their elements in one Ring: a
// power-of-two slot array addressed by masking the channel's 64-bit
// positions. The channel's logical capacity alone decides when it is full.
// coop_mt needs no channel of its own: its shards hold whole connected
// components, so every edge stays a CoopChannel on one shard's thread.
#pragma once

#include <algorithm>
#include <bit>
#include <condition_variable>
#include <coroutine>
#include <cstdint>
#include <cstring>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "port_config.hpp"
#include "task.hpp"
#include "types.hpp"

namespace cgsim {

/// The per-element cost of one port, resolved by the cycle engine at the
/// port's first access in a run and reused for every later access. A port
/// lives in its kernel's coroutine frame, which lasts one run, so a
/// resolved charge never outlives the cost model and placement it was
/// derived from.
struct PortCharge {
  std::uint64_t cycles = 0;     ///< port cost plus routing hops
  bool resolved = false;
  bool records_output = false;  ///< a kernel's write to a global output
};

/// Virtual-time hooks for the cycle-approximate backend. The engine knows
/// which kernel is currently executing and what its tile clock reads.
///
/// The clock is published, not asked for: `now_cycles` holds the running
/// task's mid-activation time, so a channel stamping or checking an
/// element, or a port adding a resolved charge, reads or writes a field
/// instead of making a virtual call. It reads 0 outside an activation: a
/// channel closed by a finished task wakes its parked peers at 0, which
/// the executor raises to each peer's own clock. The engine keeps it as
/// the segment base plus the port charges so far; the test oracle writes
/// it from its own formula at activation start, after each charge and
/// after the activation.
class SimHooks {
 public:
  virtual ~SimHooks() = default;
  /// Virtual time (cycles) of the currently running kernel.
  [[nodiscard]] std::uint64_t now() const { return now_cycles; }
  /// Charges stream/buffer access cost for one element of `elem_bytes`
  /// moved through the port bound to `ch` with the given settings to the
  /// currently running kernel. `charge` is that port's slot: a hook may
  /// resolve it once, after which ports add `charge.cycles` to
  /// `now_cycles` themselves unless the access records an output
  /// (PortSim::charge_access()); or it may leave it unresolved and derive
  /// the cost from the other arguments every time.
  virtual void charge_port_access(const PortSettings& s,
                                  std::size_t elem_bytes, bool is_read,
                                  const ChannelBase* ch,
                                  PortCharge& charge) = 0;

  /// The published clock (see above): written by the executor and by
  /// ports whose charge is resolved, read through now().
  std::uint64_t now_cycles = 0;
};

/// What a sim-mode port keeps for the cycle engine: the hooks (null in
/// every other mode) and the port's charge. Awaiters hold a pointer to it.
struct PortSim {
  SimHooks* hooks = nullptr;
  PortCharge charge{};

  /// Charges `n` accesses of one port to the running task. Once the
  /// engine has resolved the charge, an access that records no output
  /// iteration costs an add to the published clock; the first access in a
  /// run and every output-recording write (one trace record per element)
  /// go through the hooks.
  void charge_access(const PortSettings& s, std::size_t elem_bytes,
                     bool is_read, const ChannelBase* ch, std::size_t n) {
    if (hooks == nullptr) return;
    while (n > 0 && (!charge.resolved || charge.records_output)) {
      hooks->charge_port_access(s, elem_bytes, is_read, ch, charge);
      --n;
    }
    hooks->now_cycles += n * charge.cycles;
  }
};

/// Outcome of a non-blocking channel operation.
enum class ChanStatus : std::uint8_t {
  ok,       ///< transferred the requested element(s)
  blocked,  ///< would block (full / empty); caller should suspend
  closed,   ///< permanently unusable in this direction
};

/// Type-erased channel base: lifecycle, closure bookkeeping and statistics.
class ChannelBase {
 public:
  explicit ChannelBase(int consumers) : consumers_total_(consumers) {}
  virtual ~ChannelBase() = default;
  ChannelBase(const ChannelBase&) = delete;
  ChannelBase& operator=(const ChannelBase&) = delete;

  virtual void set_producers(int n) {
    producers_open_ = n;
    producers_total_ = n;
  }
  void set_debug_name(std::string name) { debug_name_ = std::move(name); }
  [[nodiscard]] const std::string& debug_name() const { return debug_name_; }

  /// Dense id of the graph edge this channel was deserialized from (set by
  /// RuntimeContext; -1 for standalone channels). Backends use it to index
  /// flat per-edge tables instead of hashing channel pointers.
  void set_edge_id(int id) { edge_id_ = id; }
  [[nodiscard]] int edge_id() const { return edge_id_; }

  /// One producer endpoint finished; closing the last one releases blocked
  /// consumers with ChanStatus::closed once the buffer drains.
  virtual void producer_done() = 0;
  /// One consumer endpoint finished; its cursor stops constraining ring
  /// reuse, and closing the last one releases blocked producers.
  virtual void consumer_done(int consumer) = 0;

  [[nodiscard]] int consumers() const { return consumers_total_; }
  [[nodiscard]] int producers_open() const { return producers_open_; }
  [[nodiscard]] int consumers_open() const { return consumers_open_; }
  [[nodiscard]] bool push_closed() const {
    return producers_total_ > 0 && producers_open_ == 0;
  }
  [[nodiscard]] std::uint64_t total_pushed() const { return pushed_; }
  [[nodiscard]] std::uint64_t popped(int consumer) const {
    return popped_.empty() ? 0 : popped_[static_cast<std::size_t>(consumer)];
  }

  /// How many push operations had to park on a full ring so far. The
  /// incremental re-simulation layer uses this as its exactness guard: an
  /// edge whose producers never felt backpressure can be replayed from a
  /// recording without re-running them.
  [[nodiscard]] virtual std::uint64_t push_parks() const { return 0; }

  /// Returns the channel to its freshly-constructed state (buffers empty,
  /// endpoints reopened, statistics zeroed) while keeping its allocations,
  /// so the same graph instance can be run again without rebuilding
  /// channels. Only the single-threaded backends support this; the
  /// threaded backend throws.
  virtual void reset_for_rerun() {
    throw std::logic_error{
        "reset_for_rerun is not supported by this channel backend"};
  }

  /// Attaches virtual-time hooks (cycle-approximate backend only).
  virtual void attach_sim_hooks(SimHooks*) {}

 protected:
  /// Shared half of reset_for_rerun() for the backends that support it.
  void reset_base_for_rerun() {
    producers_open_ = producers_total_;
    consumers_open_ = consumers_total_;
    pushed_ = 0;
    std::fill(popped_.begin(), popped_.end(), 0);
  }

  int consumers_total_ = 0;
  int producers_total_ = 0;
  int producers_open_ = 0;
  int consumers_open_ = 0;
  std::uint64_t pushed_ = 0;
  std::vector<std::uint64_t> popped_;
  std::string debug_name_;
  int edge_id_ = -1;
};

/// Typed channel operations. `consumer` identifies the broadcast endpoint.
template <class T>
class TypedChannel : public ChannelBase {
 public:
  using ChannelBase::ChannelBase;

  /// Pending push registered by a suspending producer. The channel performs
  /// `*value -> ring` itself when space appears, sets `*status`, and hands
  /// `h` to the executor. All pointers live in the coroutine frame (the
  /// awaiter, and the element its co_await expression refers to), which
  /// is stable while the coroutine is suspended.
  struct PushWaiter {
    const T* value;
    ChanStatus* status;
    TaskHandle h;
  };
  /// Pending pop registered by a suspending consumer.
  struct PopWaiter {
    T* out;
    ChanStatus* status;
    TaskHandle h;
    int consumer;
  };

  /// Pending bulk push: `src[done..n)` still has to enter the ring. The
  /// channel advances `done` incrementally as space appears and completes
  /// the waiter (writing `*moved`, `*status`, waking `h`) only when the
  /// whole batch is in or the transfer becomes impossible. `done` starts at
  /// the `*moved` the waiter was registered with.
  struct BulkPushWaiter {
    const T* src;
    std::size_t n;
    std::size_t done;
    std::size_t* moved;
    ChanStatus* status;
    TaskHandle h;
  };
  /// Pending bulk pop: `dst[done..n)` still has to be filled. `max_stamp`
  /// tracks the newest virtual-time stamp consumed so the wake-up can be
  /// scheduled at the batch's arrival time (cycle-approximate backend).
  struct BulkPopWaiter {
    T* dst;
    std::size_t n;
    std::size_t done;
    std::size_t* moved;
    ChanStatus* status;
    TaskHandle h;
    int consumer;
    std::uint64_t max_stamp;
  };
  /// The parked pop of one consumer endpoint, in the ring channels. One
  /// task owns an endpoint and parks at most one operation at a time, so
  /// an endpoint has at most one parked pop, scalar or bulk. A parked
  /// waiter always has a status to write, so a null one marks an empty
  /// field.
  struct ParkedPop {
    PopWaiter pop{};
    BulkPopWaiter bulk{};
    [[nodiscard]] bool has_pop() const { return pop.status != nullptr; }
    [[nodiscard]] bool has_bulk() const { return bulk.status != nullptr; }
  };

  // --- cooperative (non-blocking fast path + completion registration) ---
  virtual ChanStatus try_push(const T& v) = 0;
  virtual ChanStatus try_pop(int consumer, T& out) = 0;
  /// Registers a waiter, given as its record's fields; may complete it
  /// synchronously (executor notified) when the operation is already
  /// possible or permanently impossible. Fields, not a record: an awaiter
  /// that built the record on its stack would have the channel reload it
  /// with wide loads right after the narrow stores that wrote it, which
  /// cannot forward and stall; a channel that parks the waiter stores the
  /// fields into its slot instead.
  virtual void add_push_waiter(const T* value, ChanStatus* status,
                               TaskHandle h) = 0;
  virtual void add_pop_waiter(T* out, ChanStatus* status, TaskHandle h,
                              int consumer) = 0;

  // --- cooperative bulk (window-at-a-time transfers) ---
  /// Moves up to `n` elements, returning the count moved. `st` becomes ok
  /// when the full batch moved, closed when the channel is terminally
  /// unusable in this direction, blocked otherwise. Only the ring-buffered
  /// cooperative channel supports these; RTP channels reject them.
  virtual std::size_t try_push_n(const T* /*src*/, std::size_t /*n*/,
                                 ChanStatus& /*st*/) {
    reject_bulk();
  }
  virtual std::size_t try_pop_n(int /*consumer*/, T* /*dst*/,
                                std::size_t /*n*/, ChanStatus& /*st*/) {
    reject_bulk();
  }
  /// Bulk waiters: `*moved` holds the elements already moved when the
  /// waiter registers and the total once it completes.
  virtual void add_bulk_push_waiter(const T* /*src*/, std::size_t /*n*/,
                                    std::size_t* /*moved*/,
                                    ChanStatus* /*status*/, TaskHandle /*h*/) {
    reject_bulk();
  }
  virtual void add_bulk_pop_waiter(T* /*dst*/, std::size_t /*n*/,
                                   std::size_t* /*moved*/,
                                   ChanStatus* /*status*/, TaskHandle /*h*/,
                                   int /*consumer*/) {
    reject_bulk();
  }

  // --- threaded (blocking; return false when closed) ---
  virtual bool blocking_push(const T& v) = 0;
  virtual bool blocking_pop(int consumer, T& out) = 0;

 protected:
  /// Completes a parked operation whose stream closed for good; the caller
  /// then hands the task to its executor. The task ends there
  /// (mark_closed_parked()), except a bulk pop that already moved data: it
  /// resumes and returns its short count.
  static void close_waiter(const PushWaiter& w) {
    *w.status = ChanStatus::closed;
    mark_closed_parked(w.h);
  }
  static void close_waiter(const PopWaiter& w) {
    *w.status = ChanStatus::closed;
    mark_closed_parked(w.h);
  }
  static void close_waiter(const BulkPushWaiter& w) {
    *w.moved = w.done;
    *w.status = ChanStatus::closed;
    mark_closed_parked(w.h);
  }
  static void close_waiter(const BulkPopWaiter& w) {
    *w.moved = w.done;
    *w.status = ChanStatus::closed;
    if (w.done == 0) mark_closed_parked(w.h);
  }

  /// `p`, checked to be empty before a pop parks in it: a second parked
  /// pop means two tasks share the endpoint or one task parked twice.
  static ParkedPop& vacant(ParkedPop& p) {
    if (p.has_pop() || p.has_bulk()) {
      throw std::logic_error{
          "a second pop parked on one consumer endpoint; an endpoint "
          "belongs to one task"};
    }
    return p;
  }

 private:
  [[noreturn]] static void reject_bulk() {
    throw std::logic_error{
        "bulk channel ops are not supported by this channel"};
  }
};

/// Slot storage of the ring channels (and of CoopChannel's virtual-time
/// stamps). Positions are the channel's monotonically increasing 64-bit
/// head and cursors; the ring holds `std::bit_ceil(capacity)` slots, so a
/// position maps to its slot by a mask instead of a division. The owner
/// keeps the logical capacity and checks fullness against it, so at most
/// `capacity` slots are live and the spare ones only pad the array (the
/// largest capacity a wire spec may ask for, kMaxEdgeCapacity, is a power
/// of two, so the largest ring does not grow).
template <class T>
class Ring {
 public:
  Ring() = default;
  explicit Ring(std::size_t capacity)
      : slots_(std::bit_ceil(capacity)), mask_(slots_.size() - 1) {}

  [[nodiscard]] std::size_t slots() const { return slots_.size(); }
  [[nodiscard]] T& operator[](std::uint64_t pos) {
    return slots_[static_cast<std::size_t>(pos) & mask_];
  }
  [[nodiscard]] const T& operator[](std::uint64_t pos) const {
    return slots_[static_cast<std::size_t>(pos) & mask_];
  }

  /// Copies `k` (at most slots()) elements to positions [pos, pos + k):
  /// one element by assignment, more as at most two contiguous copies
  /// (a memmove for trivially copyable T), split at the physical wrap.
  void write(std::uint64_t pos, const T* src, std::size_t k) {
    if (k == 1) {
      (*this)[pos] = *src;
      return;
    }
    const std::size_t p = static_cast<std::size_t>(pos) & mask_;
    const std::size_t first = std::min(k, slots_.size() - p);
    std::copy_n(src, first, slots_.data() + p);
    std::copy_n(src + first, k - first, slots_.data());
  }

  /// Copies the `k` elements at positions [pos, pos + k) to `dst`.
  void read(std::uint64_t pos, T* dst, std::size_t k) const {
    if (k == 1) {
      *dst = (*this)[pos];
      return;
    }
    const std::size_t p = static_cast<std::size_t>(pos) & mask_;
    const std::size_t first = std::min(k, slots_.size() - p);
    std::copy_n(slots_.data() + p, first, dst);
    std::copy_n(slots_.data(), k - first, dst + first);
  }

 private:
  std::vector<T> slots_;
  std::size_t mask_ = 0;
};

/// Cooperative broadcast ring buffer. Single-threaded by construction; no
/// locks, no atomics. `final`: ports bound in a cooperative mode call these
/// methods through a concrete CoopChannel<T>*, so every call in the
/// simulation hot loop binds statically and inlines.
template <class T>
class CoopChannel final : public TypedChannel<T> {
  using typename TypedChannel<T>::PushWaiter;
  using typename TypedChannel<T>::PopWaiter;
  using typename TypedChannel<T>::BulkPushWaiter;
  using typename TypedChannel<T>::BulkPopWaiter;
  using typename TypedChannel<T>::ParkedPop;

 public:
  CoopChannel(int consumers, int capacity, Executor* exec)
      : TypedChannel<T>(consumers),
        capacity_(static_cast<std::size_t>(std::max(capacity, 1))),
        ring_(capacity_),
        cursors_(static_cast<std::size_t>(consumers), 0),
        consumer_active_(static_cast<std::size_t>(consumers), 1),
        parked_pops_(static_cast<std::size_t>(consumers)),
        exec_(exec) {
    this->popped_.assign(static_cast<std::size_t>(consumers), 0);
    this->consumers_open_ = consumers;
  }

  ChanStatus try_push(const T& v) override {
    if (this->consumers_total_ > 0 && this->consumers_open_ == 0) {
      return ChanStatus::closed;  // nobody will ever read again
    }
    if (ring_full()) return ChanStatus::blocked;
    raw_write(&v, 1);
    service_waiters();
    return ChanStatus::ok;
  }

  ChanStatus try_pop(int consumer, T& out) override {
    const auto c = static_cast<std::size_t>(consumer);
    if (cursors_[c] == head_) {
      return this->push_closed() ? ChanStatus::closed : ChanStatus::blocked;
    }
    if (sim_ != nullptr && stamps_[cursors_[c]] > sim_->now()) {
      // The element exists but has not yet arrived in virtual time; the
      // caller suspends and the completion path schedules the wake at the
      // element's stamp.
      return ChanStatus::blocked;
    }
    raw_read(c, &out, 1);
    service_waiters();
    return ChanStatus::ok;
  }

  void add_push_waiter(const T* value, ChanStatus* status,
                       TaskHandle h) override {
    // Completion may already be possible (or impossible); check-then-park.
    if (this->consumers_total_ > 0 && this->consumers_open_ == 0) {
      this->close_waiter(PushWaiter{value, status, h});
      exec_->make_ready(h, now_or_zero());
      return;
    }
    if (!ring_full()) {
      raw_write(value, 1);
      *status = ChanStatus::ok;
      exec_->make_ready(h, now_or_zero());
      service_waiters();
      return;
    }
    push_waiters_.emplace_back(value, status, h);
    ++parked_;
    ++push_parks_;
  }

  void add_pop_waiter(T* out, ChanStatus* status, TaskHandle h,
                      int consumer) override {
    const auto c = static_cast<std::size_t>(consumer);
    if (cursors_[c] != head_) {
      const std::uint64_t stamp = sim_ != nullptr ? stamps_[cursors_[c]] : 0;
      raw_read(c, out, 1);
      *status = ChanStatus::ok;
      exec_->make_ready(h, stamp);
      service_waiters();
      return;
    }
    if (this->push_closed()) {
      this->close_waiter(PopWaiter{out, status, h, consumer});
      exec_->make_ready(h, now_or_zero());
      return;
    }
    this->vacant(parked_pops_[c]).pop = PopWaiter{out, status, h, consumer};
    ++parked_;
  }

  std::size_t try_push_n(const T* src, std::size_t n,
                         ChanStatus& st) override {
    if (this->consumers_total_ > 0 && this->consumers_open_ == 0) {
      st = ChanStatus::closed;
      return 0;
    }
    if (this->consumers_total_ == 0) {
      // No consumers: writes are discarded after updating statistics, but
      // still pass through the ring (chunked) so behaviour matches the
      // scalar path.
      std::size_t left = n;
      const T* p = src;
      while (left > 0) {
        const std::size_t chunk = std::min(left, capacity_);
        raw_write(p, chunk);
        p += chunk;
        left -= chunk;
      }
      st = ChanStatus::ok;
      return n;
    }
    const std::size_t k = std::min(n, free_slots());
    if (k > 0) {
      raw_write(src, k);
      service_waiters();
    }
    st = k == n ? ChanStatus::ok : ChanStatus::blocked;
    return k;
  }

  std::size_t try_pop_n(int consumer, T* dst, std::size_t n,
                        ChanStatus& st) override {
    const auto c = static_cast<std::size_t>(consumer);
    std::size_t avail = static_cast<std::size_t>(head_ - cursors_[c]);
    if (sim_ != nullptr && avail > 0) {
      // Elements past the first not-yet-arrived stamp are still in flight
      // in virtual time.
      const std::uint64_t now = sim_->now();
      std::size_t ready = 0;
      while (ready < avail && stamps_[cursors_[c] + ready] <= now) {
        ++ready;
      }
      avail = ready;
    }
    const std::size_t k = std::min(n, avail);
    if (k > 0) {
      raw_read(c, dst, k);
      service_waiters();
    }
    if (k == n) {
      st = ChanStatus::ok;
    } else if (this->push_closed() && cursors_[c] == head_) {
      st = ChanStatus::closed;  // partial transfer at end-of-stream
    } else {
      st = ChanStatus::blocked;
    }
    return k;
  }

  void add_bulk_push_waiter(const T* src, std::size_t n, std::size_t* moved,
                            ChanStatus* status, TaskHandle h) override {
    std::size_t done = *moved;
    if (this->consumers_total_ > 0 && this->consumers_open_ == 0) {
      this->close_waiter(BulkPushWaiter{src, n, done, moved, status, h});
      exec_->make_ready(h, now_or_zero());
      return;
    }
    if (this->consumers_total_ == 0) {
      ChanStatus st{};
      try_push_n(src + done, n - done, st);
      *moved = n;
      *status = ChanStatus::ok;
      exec_->make_ready(h, now_or_zero());
      return;
    }
    const std::size_t k = std::min(n - done, free_slots());
    if (k > 0) {
      raw_write(src + done, k);
      done += k;
    }
    if (done == n) {
      *moved = n;
      *status = ChanStatus::ok;
      exec_->make_ready(h, now_or_zero());
    } else {
      bulk_push_waiters_.emplace_back(src, n, done, moved, status, h);
      ++parked_;
      ++push_parks_;
    }
    service_waiters();
  }

  void add_bulk_pop_waiter(T* dst, std::size_t n, std::size_t* moved,
                           ChanStatus* status, TaskHandle h,
                           int consumer) override {
    const auto c = static_cast<std::size_t>(consumer);
    // Like the scalar completion path, a parked bulk pop consumes buffered
    // data regardless of its stamp; the wake is scheduled at the newest
    // consumed stamp instead.
    std::size_t done = *moved;
    std::uint64_t max_stamp = 0;
    drain_into(c, dst, n, done, max_stamp);
    if (done == n) {
      *moved = n;
      *status = ChanStatus::ok;
      exec_->make_ready(h, max_stamp);
    } else if (this->push_closed() && cursors_[c] == head_) {
      this->close_waiter(
          BulkPopWaiter{dst, n, done, moved, status, h, consumer, max_stamp});
      exec_->make_ready(h, std::max(max_stamp, now_or_zero()));
    } else {
      this->vacant(parked_pops_[c]).bulk =
          BulkPopWaiter{dst, n, done, moved, status, h, consumer, max_stamp};
      ++parked_;
    }
    service_waiters();
  }

  bool blocking_push(const T&) override { unreachable_blocking(); }
  bool blocking_pop(int, T&) override { unreachable_blocking(); }

  void producer_done() override {
    if (--this->producers_open_ == 0) {
      // Consumers that already drained everything observe end-of-stream;
      // a parked bulk pop completes with whatever partial batch it holds.
      for (std::size_t c = 0; c < parked_pops_.size(); ++c) {
        if (cursors_[c] != head_) continue;  // still has data to read
        ParkedPop& p = parked_pops_[c];
        if (p.has_pop()) {
          const PopWaiter w = std::exchange(p.pop, PopWaiter{});
          --parked_;
          this->close_waiter(w);
          exec_->make_ready(w.h, now_or_zero());
        }
        if (p.has_bulk()) {
          const BulkPopWaiter w = std::exchange(p.bulk, BulkPopWaiter{});
          --parked_;
          this->close_waiter(w);
          exec_->make_ready(w.h, std::max(w.max_stamp, now_or_zero()));
        }
      }
    }
  }

  void consumer_done(int consumer) override {
    const auto c = static_cast<std::size_t>(consumer);
    if (consumer_active_[c] == 0) return;
    consumer_active_[c] = 0;
    --this->consumers_open_;
    if (this->consumers_open_ == 0) {
      parked_ -= push_waiters_.size() + bulk_push_waiters_.size();
      for (auto& w : push_waiters_) {
        this->close_waiter(w);
        exec_->make_ready(w.h, now_or_zero());
      }
      push_waiters_.clear();
      for (auto& w : bulk_push_waiters_) {
        this->close_waiter(w);
        exec_->make_ready(w.h, now_or_zero());
      }
      bulk_push_waiters_.clear();
    } else {
      recompute_min_cursor();  // this cursor no longer limits ring reuse
      service_waiters();
    }
  }

  void attach_sim_hooks(SimHooks* hooks) override {
    sim_ = hooks;
    // Stamp storage is paid for only when a virtual-time engine attaches.
    if (stamps_.slots() != ring_.slots()) {
      stamps_ = Ring<std::uint64_t>{capacity_};
    }
  }

  [[nodiscard]] std::uint64_t push_parks() const override {
    return push_parks_;
  }

  void reset_for_rerun() override {
    this->reset_base_for_rerun();
    head_ = 0;
    std::fill(cursors_.begin(), cursors_.end(), 0);
    min_cursor_ = 0;
    std::fill(consumer_active_.begin(), consumer_active_.end(), 1);
    std::fill(parked_pops_.begin(), parked_pops_.end(), ParkedPop{});
    push_waiters_.clear();
    bulk_push_waiters_.clear();
    parked_ = 0;
    push_parks_ = 0;
    tap_ = nullptr;  // recordings are re-attached per run by their owner
    has_forced_stamp_ = false;
    // stamps_ need no clearing: a stamp is only read for ring positions
    // between a consumer cursor and head_, which a push wrote first.
  }

  /// Directs all future pushes into `tap` (see EdgeTap). Pass nullptr to
  /// stop recording. Requires a trivially-copyable element type.
  void set_tap(EdgeTap* tap) {
    static_assert(std::is_trivially_copyable_v<T>);
    tap_ = tap;
  }

  /// Overrides the virtual-time stamp of subsequent pushes (replay of a
  /// recorded edge). Stays in effect until cleared, which also covers a
  /// parked replay push completed later from service_waiters() -- sound
  /// because a replay task is the edge's only producer.
  void set_forced_stamp(std::uint64_t t) {
    forced_stamp_ = t;
    has_forced_stamp_ = true;
  }
  void clear_forced_stamp() { has_forced_stamp_ = false; }

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t occupancy(int consumer) const {
    return static_cast<std::size_t>(
        head_ - cursors_[static_cast<std::size_t>(consumer)]);
  }

 private:
  [[noreturn]] static void unreachable_blocking() {
    throw std::logic_error{
        "blocking channel ops are not available on a cooperative channel"};
  }

  [[nodiscard]] std::uint64_t now_or_zero() const {
    return sim_ != nullptr ? sim_->now() : 0;
  }

  [[nodiscard]] bool ring_full() const {
    return this->consumers_total_ > 0 &&
           head_ - min_cursor_ >= capacity_;
  }
  [[nodiscard]] std::size_t free_slots() const {
    return this->consumers_total_ == 0
               ? capacity_
               : capacity_ - static_cast<std::size_t>(head_ - min_cursor_);
  }

  /// Rescans the cursor of every active consumer. Called only when the
  /// lagging consumer advances or retires -- every other mutation leaves
  /// the minimum untouched, so the per-push O(#consumers) scan of the
  /// original design disappears from the hot path.
  void recompute_min_cursor() {
    std::uint64_t m = head_;
    for (std::size_t c = 0; c < cursors_.size(); ++c) {
      if (consumer_active_[c] != 0) m = std::min(m, cursors_[c]);
    }
    min_cursor_ = m;
  }

  /// Copies `k` elements into the ring at `head_`. `k` must not exceed
  /// the free space (or capacity when unconsumed).
  void raw_write(const T* src, std::size_t k) {
    ring_.write(head_, src, k);
    if (sim_ != nullptr) {
      // A replay task re-pushing a recorded element carries the recording's
      // stamp instead of its own (zero-cost) clock.
      const std::uint64_t t =
          has_forced_stamp_ ? forced_stamp_ : sim_->now();
      for (std::size_t i = 0; i < k; ++i) stamps_[head_ + i] = t;
      if constexpr (std::is_trivially_copyable_v<T>) {
        if (tap_ != nullptr) {
          const auto* bytes = reinterpret_cast<const std::byte*>(src);
          tap_->data.insert(tap_->data.end(), bytes, bytes + k * sizeof(T));
          tap_->stamps.insert(tap_->stamps.end(), k, t);
        }
      }
    }
    head_ += k;
    this->pushed_ += k;
  }

  /// Copies `k` buffered elements (which must be available) to `dst` and
  /// advances consumer `c`, maintaining the cached minimum cursor.
  void raw_read(std::size_t c, T* dst, std::size_t k) {
    ring_.read(cursors_[c], dst, k);
    const std::uint64_t old = cursors_[c];
    cursors_[c] += k;
    this->popped_[c] += k;
    if (old == min_cursor_) {
      // A lone consumer's cursor is the minimum; no scan needed.
      if (this->consumers_total_ == 1) {
        min_cursor_ = cursors_[c];
      } else {
        recompute_min_cursor();
      }
    }
  }

  /// Moves consumer `c`'s buffered data into a bulk pop's `dst[done..n)`,
  /// advancing its progress `done` and stamp high-water mark `max_stamp`.
  void drain_into(std::size_t c, T* dst, std::size_t n, std::size_t& done,
                  std::uint64_t& max_stamp) {
    const std::size_t avail = static_cast<std::size_t>(head_ - cursors_[c]);
    const std::size_t k = std::min(n - done, avail);
    if (k == 0) return;
    if (sim_ != nullptr) {
      for (std::size_t i = 0; i < k; ++i) {
        max_stamp = std::max(max_stamp, stamps_[cursors_[c] + i]);
      }
    }
    raw_read(c, dst + done, k);
    done += k;
  }

  /// Completes parked operations until a fixpoint: a completed pop frees
  /// slots that may admit a parked push, whose data may feed another parked
  /// pop. Uses the raw transfer primitives directly, so there is no
  /// recursion; the loop terminates because every pass moves at least one
  /// element.
  void service_waiters() {
    if (parked_ == 0) return;
    bool progress = true;
    while (progress) {
      progress = false;
      for (std::size_t c = 0; c < parked_pops_.size(); ++c) {
        ParkedPop& p = parked_pops_[c];
        if (p.has_pop() && cursors_[c] != head_) {
          const PopWaiter w = std::exchange(p.pop, PopWaiter{});
          --parked_;
          const std::uint64_t stamp =
              sim_ != nullptr ? stamps_[cursors_[c]] : 0;
          raw_read(c, w.out, 1);
          *w.status = ChanStatus::ok;
          exec_->make_ready(w.h, stamp);
          progress = true;
        }
        if (p.has_bulk() && cursors_[c] != head_) {
          drain_into(c, p.bulk.dst, p.bulk.n, p.bulk.done, p.bulk.max_stamp);
          progress = true;
          // A short batch means the ring is drained: it waits for more.
          if (p.bulk.done == p.bulk.n) {
            const BulkPopWaiter fin = std::exchange(p.bulk, BulkPopWaiter{});
            --parked_;
            *fin.moved = fin.n;
            *fin.status = ChanStatus::ok;
            exec_->make_ready(fin.h, fin.max_stamp);
          }
        }
      }
      while (!push_waiters_.empty() && !ring_full()) {
        PushWaiter w = push_waiters_.front();
        push_waiters_.pop_front();
        --parked_;
        raw_write(w.value, 1);
        *w.status = ChanStatus::ok;
        exec_->make_ready(w.h, now_or_zero());
        progress = true;
      }
      while (!bulk_push_waiters_.empty() && !ring_full()) {
        BulkPushWaiter& w = bulk_push_waiters_.front();
        const std::size_t k = std::min(w.n - w.done, free_slots());
        raw_write(w.src + w.done, k);
        w.done += k;
        progress = true;
        if (w.done == w.n) {
          BulkPushWaiter fin = w;
          bulk_push_waiters_.pop_front();
          --parked_;
          *fin.moved = fin.n;
          *fin.status = ChanStatus::ok;
          exec_->make_ready(fin.h, now_or_zero());
        } else {
          break;  // ring full; wait for space
        }
      }
    }
  }

  std::size_t capacity_;  ///< logical capacity: every full/free check
  Ring<T> ring_;
  Ring<std::uint64_t> stamps_;  // allocated only with SimHooks
  std::uint64_t head_ = 0;
  std::vector<std::uint64_t> cursors_;
  /// Cached minimum over active consumer cursors (== head_ when none).
  /// Only a pop by the lagging consumer or a consumer retiring can change
  /// it; both update it (a lone consumer without a scan).
  std::uint64_t min_cursor_ = 0;
  std::vector<std::uint8_t> consumer_active_;
  std::vector<ParkedPop> parked_pops_;  ///< one slot per consumer
  std::deque<PushWaiter> push_waiters_;
  std::deque<BulkPushWaiter> bulk_push_waiters_;
  std::size_t parked_ = 0;  ///< parked pops plus both push queues
  std::uint64_t push_parks_ = 0;  ///< pushes that ever hit a full ring
  EdgeTap* tap_ = nullptr;        ///< recording target (sim runs only)
  std::uint64_t forced_stamp_ = 0;
  bool has_forced_stamp_ = false;
  Executor* exec_;
  SimHooks* sim_ = nullptr;
};

/// Thread-safe broadcast ring used by the thread-per-kernel runtime. This
/// deliberately reproduces the synchronization structure of AMD's x86sim
/// (one mutex + condition variables per channel), which is what Table 2 of
/// the paper compares cgsim against.
template <class T>
class ThreadedChannel final : public TypedChannel<T> {
  using typename TypedChannel<T>::PushWaiter;
  using typename TypedChannel<T>::PopWaiter;

 public:
  ThreadedChannel(int consumers, int capacity)
      : TypedChannel<T>(consumers),
        capacity_(static_cast<std::size_t>(std::max(capacity, 1))),
        ring_(capacity_),
        cursors_(static_cast<std::size_t>(consumers), 0),
        consumer_active_(static_cast<std::size_t>(consumers), 1) {
    this->popped_.assign(static_cast<std::size_t>(consumers), 0);
    this->consumers_open_ = consumers;
  }

  bool blocking_push(const T& v) override {
    std::unique_lock lk{m_};
    not_full_.wait(lk, [&] {
      return this->consumers_open_ == 0 || this->consumers_total_ == 0 ||
             head_ - min_cursor() < capacity_;
    });
    if (this->consumers_total_ > 0 && this->consumers_open_ == 0) {
      return false;
    }
    ring_[head_] = v;
    ++head_;
    ++this->pushed_;
    // One new element: with a single consumer endpoint only one waiter can
    // use it, so a single wake suffices. Broadcast channels must wake every
    // consumer -- each of them may read this element.
    if (this->consumers_total_ <= 1) {
      not_empty_.notify_one();
    } else {
      not_empty_.notify_all();
    }
    return true;
  }

  bool blocking_pop(int consumer, T& out) override {
    const auto c = static_cast<std::size_t>(consumer);
    std::unique_lock lk{m_};
    not_empty_.wait(lk,
                    [&] { return cursors_[c] != head_ || this->push_closed(); });
    if (cursors_[c] == head_) return false;  // closed and drained
    out = ring_[cursors_[c]];
    ++cursors_[c];
    ++this->popped_[c];
    // A pop frees at most one ring slot (none unless this consumer was the
    // laggard), and only producers wait on not_full_: one wake suffices. A
    // woken producer that finds the ring still full simply re-checks its
    // predicate and sleeps again.
    not_full_.notify_one();
    return true;
  }

  ChanStatus try_push(const T&) override { unreachable_coop(); }
  ChanStatus try_pop(int, T&) override { unreachable_coop(); }
  void add_push_waiter(const T*, ChanStatus*, TaskHandle) override {
    unreachable_coop();
  }
  void add_pop_waiter(T*, ChanStatus*, TaskHandle, int) override {
    unreachable_coop();
  }

  void producer_done() override {
    std::lock_guard lk{m_};
    // Close can release every blocked consumer at once: broadcast it.
    if (--this->producers_open_ == 0) not_empty_.notify_all();
  }
  void consumer_done(int consumer) override {
    std::lock_guard lk{m_};
    const auto c = static_cast<std::size_t>(consumer);
    if (consumer_active_[c] != 0) {
      consumer_active_[c] = 0;
      --this->consumers_open_;
      // Retiring the laggard can free many slots at once: broadcast.
      not_full_.notify_all();
    }
  }

 private:
  [[noreturn]] static void unreachable_coop() {
    throw std::logic_error{
        "cooperative channel ops are not available on a threaded channel"};
  }

  [[nodiscard]] std::uint64_t min_cursor() const {
    std::uint64_t m = head_;
    for (std::size_t c = 0; c < cursors_.size(); ++c) {
      if (consumer_active_[c] != 0) m = std::min(m, cursors_[c]);
    }
    return m;
  }

  std::size_t capacity_;
  Ring<T> ring_;
  std::uint64_t head_ = 0;
  std::vector<std::uint64_t> cursors_;
  std::vector<std::uint8_t> consumer_active_;
  std::mutex m_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
};

/// Sticky single-value channel for AIE runtime parameters: a read returns
/// the most recent value without consuming it; a write overwrites. Reads
/// block only until the first value arrives. Bulk operations are rejected
/// (a runtime parameter is not a stream; see TypedChannel's defaults).
template <class T>
class RtpChannel final : public TypedChannel<T> {
  using typename TypedChannel<T>::PushWaiter;
  using typename TypedChannel<T>::PopWaiter;

 public:
  RtpChannel(int consumers, ExecMode mode, Executor* exec)
      : TypedChannel<T>(consumers),
        mode_(mode),
        consumer_active_(static_cast<std::size_t>(std::max(consumers, 1)), 1),
        exec_(exec) {
    this->popped_.assign(static_cast<std::size_t>(std::max(consumers, 1)), 0);
    this->consumers_open_ = consumers;
  }

  ChanStatus try_push(const T& v) override {
    value_ = v;
    has_value_ = true;
    ++this->pushed_;
    for (auto& w : pop_waiters_) {
      *w.out = value_;
      ++this->popped_[static_cast<std::size_t>(w.consumer)];
      *w.status = ChanStatus::ok;
      exec_->make_ready(w.h, 0);
    }
    pop_waiters_.clear();
    return ChanStatus::ok;
  }

  ChanStatus try_pop(int consumer, T& out) override {
    if (!has_value_) {
      return this->push_closed() ? ChanStatus::closed : ChanStatus::blocked;
    }
    out = value_;
    ++this->popped_[static_cast<std::size_t>(consumer)];
    return ChanStatus::ok;
  }

  void add_push_waiter(const T* value, ChanStatus* status,
                       TaskHandle h) override {
    // Pushes to an RTP never block.
    try_push(*value);
    *status = ChanStatus::ok;
    exec_->make_ready(h, 0);
  }
  void add_pop_waiter(T* out, ChanStatus* status, TaskHandle h,
                      int consumer) override {
    if (has_value_) {
      *status = try_pop(consumer, *out);
      exec_->make_ready(h, 0);
      return;
    }
    if (this->push_closed()) {
      this->close_waiter(PopWaiter{out, status, h, consumer});
      exec_->make_ready(h, 0);
      return;
    }
    pop_waiters_.emplace_back(out, status, h, consumer);
  }

  bool blocking_push(const T& v) override {
    {
      std::lock_guard lk{m_};
      value_ = v;
      has_value_ = true;
      ++this->pushed_;
    }
    cv_.notify_all();
    return true;
  }

  bool blocking_pop(int consumer, T& out) override {
    std::unique_lock lk{m_};
    cv_.wait(lk, [&] { return has_value_ || this->push_closed(); });
    if (!has_value_) return false;
    out = value_;
    ++this->popped_[static_cast<std::size_t>(consumer)];
    return true;
  }

  void producer_done() override {
    if (mode_ == ExecMode::threaded) {
      std::lock_guard lk{m_};
      --this->producers_open_;
      cv_.notify_all();
      return;
    }
    if (--this->producers_open_ == 0 && !has_value_) {
      for (auto& w : pop_waiters_) {
        this->close_waiter(w);
        exec_->make_ready(w.h, 0);
      }
      pop_waiters_.clear();
    }
  }
  void consumer_done(int consumer) override {
    // Idempotent, like the ring channels: the runtime may report the same
    // endpoint done through several paths (rtp sink attachment + task
    // teardown), and a repeated decrement would drive consumers_open_
    // negative.
    const auto c =
        consumer >= 0 ? static_cast<std::size_t>(consumer) : std::size_t{0};
    if (c >= consumer_active_.size() || consumer_active_[c] == 0) return;
    consumer_active_[c] = 0;
    --this->consumers_open_;
  }

  void reset_for_rerun() override {
    this->reset_base_for_rerun();
    value_ = T{};
    has_value_ = false;
    pop_waiters_.clear();
    std::fill(consumer_active_.begin(), consumer_active_.end(), 1);
  }

  /// Final value, for runtime-parameter sinks.
  [[nodiscard]] bool latest(T& out) const {
    if (!has_value_) return false;
    out = value_;
    return true;
  }

 private:
  ExecMode mode_;
  T value_{};
  bool has_value_ = false;
  std::deque<PopWaiter> pop_waiters_;
  std::vector<std::uint8_t> consumer_active_;
  Executor* exec_;
  std::mutex m_;
  std::condition_variable cv_;
};

namespace detail {
template <class T>
ChannelBase* create_channel(ExecMode mode, int consumers, int capacity,
                            bool rtp, Executor* exec) {
  if (rtp) return new RtpChannel<T>(consumers, mode, exec);
  switch (mode) {
    case ExecMode::threaded:
      return new ThreadedChannel<T>(consumers, capacity);
    case ExecMode::coop:
    case ExecMode::sim:
    case ExecMode::coop_mt:
      // A coop_mt edge never spans two shards, so it is single-threaded.
      return new CoopChannel<T>(consumers, capacity, exec);
  }
  return nullptr;
}

template <class T>
bool attach_tap_impl(ChannelBase* ch, EdgeTap* tap) {
  if constexpr (std::is_trivially_copyable_v<T>) {
    auto* coop = dynamic_cast<CoopChannel<T>*>(ch);
    if (coop == nullptr) return false;  // RTP / threaded backend
    coop->set_tap(tap);
    return true;
  } else {
    (void)ch;
    (void)tap;
    return false;  // elements cannot be stored as raw bytes
  }
}

/// Suspends until the simulation clock of the awaiting task reaches `when`
/// (the executor advances a task's clock to at least `not_before` on wake).
struct WaitUntil {
  Executor* exec;
  std::uint64_t when;
  [[nodiscard]] bool await_ready() const noexcept { return false; }
  void await_suspend(TaskHandle h) const { exec->make_ready(h, when); }
  void await_resume() const noexcept {}
};

/// Push of one replayed element, bypassing the port layer so no access
/// cost is charged (the original producer already paid it in the recorded
/// stamps). Counts a park when the ring is full -- the signal that the
/// replayed timeline diverged from the recording. A parked push that the
/// channel completes as closed ends the replay task like any other.
template <class T>
struct ReplayPush {
  CoopChannel<T>* ch;
  const T* value;
  std::uint64_t* blocked;
  ChanStatus status = ChanStatus::ok;

  [[nodiscard]] bool await_ready() {
    status = ch->try_push(*value);
    return status != ChanStatus::blocked;
  }
  void await_suspend(TaskHandle h) {
    ++*blocked;
    ch->add_push_waiter(value, &status, h);
  }
  [[nodiscard]] ChanStatus await_resume() const { return status; }
};

/// Stands in for every original producer of a recorded edge: re-pushes the
/// recording element by element, pacing itself to each element's stamp.
/// The task charges no instrumented ops and no port costs, so its clock
/// lands exactly on the stamps and a consumer's wake times match the
/// baseline run bit for bit.
template <class T>
KernelTask replay_source(CoopChannel<T>* ch, const EdgeTap* tap,
                         Executor* exec, std::uint64_t* blocked) {
  static_assert(std::is_trivially_copyable_v<T>);
  const std::size_t n = tap->count();
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t stamp = tap->stamps[i];
    co_await WaitUntil{exec, stamp};
    T v;
    std::memcpy(&v, tap->data.data() + i * sizeof(T), sizeof(T));
    ch->set_forced_stamp(stamp);
    const ChanStatus st = co_await ReplayPush<T>{ch, &v, blocked};
    ch->clear_forced_stamp();
    if (st != ChanStatus::ok) break;  // all consumers retired early
  }
}

template <class T>
KernelTask make_replay_impl(ChannelBase* ch, const EdgeTap* tap,
                            Executor* exec, std::uint64_t* blocked) {
  if constexpr (std::is_trivially_copyable_v<T>) {
    // The caller attached a tap to this channel earlier, which proves it is
    // the cooperative ring backend.
    return replay_source<T>(static_cast<CoopChannel<T>*>(ch), tap, exec,
                            blocked);
  } else {
    throw std::logic_error{
        "replay requested for a non-trivially-copyable element type"};
  }
}

template <class T>
inline constexpr ChannelVTable channel_vtable_v{
    &create_channel<T>, detail::pretty_type_name<T>(), sizeof(T),
    alignof(T),         &attach_tap_impl<T>,          &make_replay_impl<T>};
}  // namespace detail

template <class T>
const ChannelVTable& channel_vtable() {
  return detail::channel_vtable_v<T>;
}

}  // namespace cgsim

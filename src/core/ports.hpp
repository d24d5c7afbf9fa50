// cgsim -- kernel-facing streaming I/O port types (paper Sections 3.3, 3.6).
//
// KernelReadPort / KernelWritePort appear in COMPUTE_KERNEL signatures.
// Behavioural settings (beat width, runtime-parameter flag, buffer mode)
// are non-type template parameters; they take part in connection merging at
// graph-construction (compile) time. At run time a port is bound to one
// broadcast-channel endpoint and accessed with `co_await port.get()` /
// `co_await port.put(v)`, or in whole windows with
// `co_await port.get_n(span)` / `co_await port.put_n(span)`.
//
// Fast path: in the cooperative modes (coop, coop_mt, sim) a streaming
// port knows its channel is the `final` CoopChannel<T>, so the awaiters
// call its methods through a concrete pointer -- every channel operation
// in the simulation hot loop binds statically and inlines into the
// coroutine frame. The virtual TypedChannel interface remains in use only
// for the threaded backend and for runtime-parameter (RTP) channels.
//
// Sim mode: a port keeps a PortSim, the engine's hooks plus the port's
// access charge, and its awaiters carry a pointer to it, so the cycle
// engine resolves a port's cost once per run (channel.hpp, PortCharge).
//
// End of stream: an operation that finds its stream closed for good marks
// the task closed and leaves it suspended (mark_closed(), task.hpp), so a
// `while (true)` kernel ends at that co_await without an exception; a
// parked operation is marked by the channel that completes it. Only a
// bulk read that already moved data completes, with a short count.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>

#include "channel.hpp"
#include "port_config.hpp"
#include "task.hpp"
#include "types.hpp"

namespace cgsim {

/// Runtime wiring of one kernel port; filled in by the RuntimeContext when
/// a serialized graph is instantiated (paper Section 3.6).
struct PortBinding {
  ChannelBase* channel = nullptr;
  int consumer = -1;  ///< broadcast endpoint for read ports
  ExecMode mode = ExecMode::coop;
  SimHooks* sim = nullptr;
  bool rtp = false;  ///< channel is a sticky runtime-parameter channel
};

namespace detail {

/// Concrete CoopChannel<T>* when the binding is a cooperative-mode
/// streaming channel, nullptr otherwise (threaded mode or an RTP channel).
template <class T>
[[nodiscard]] inline CoopChannel<T>* coop_fast_path(const PortBinding& b) {
  if (b.channel == nullptr || b.mode == ExecMode::threaded || b.rtp) {
    return nullptr;
  }
  return static_cast<CoopChannel<T>*>(b.channel);
}

/// A retired task was resumed by hand: its executor must never do that.
[[noreturn]] inline void resumed_after_close() {
  throw std::logic_error{
      "a kernel that ended on a closed stream was resumed"};
}

template <class T>
struct [[nodiscard]] ReadAwaiter {
  TypedChannel<T>* ch;
  CoopChannel<T>* coop;  ///< non-null => devirtualized cooperative path
  int consumer;
  ExecMode mode;
  PortSim* sim;  ///< the port's; sim->hooks is null outside sim mode
  PortSettings settings;
  T value{};
  ChanStatus st = ChanStatus::blocked;

  bool await_ready() {
    if (coop != nullptr) {
      st = coop->try_pop(consumer, value);  // static, inlinable
    } else if (mode == ExecMode::threaded) {
      st = ch->blocking_pop(consumer, value) ? ChanStatus::ok
                                             : ChanStatus::closed;
    } else {
      st = ch->try_pop(consumer, value);
    }
    return st == ChanStatus::ok;
  }
  void await_suspend(TaskHandle h) {
    if (st == ChanStatus::closed) {
      mark_closed(h);
    } else if (coop != nullptr) {
      coop->add_pop_waiter({&value, &st, h, consumer});
    } else {
      ch->add_pop_waiter({&value, &st, h, consumer});
    }
  }
  T await_resume() {
    if (st == ChanStatus::closed) resumed_after_close();
    if (sim->hooks != nullptr) {
      sim->hooks->charge_port_access(settings, sizeof(T), /*is_read=*/true,
                                     ch, sim->charge);
    }
    return std::move(value);
  }
};

/// Scalar write. Holds a pointer to the caller's element, not a copy (see
/// KernelWritePort::put()), so the element is copied once, into the ring;
/// a parked PushWaiter points at it too.
template <class T>
struct [[nodiscard]] WriteAwaiter {
  TypedChannel<T>* ch;
  CoopChannel<T>* coop;
  ExecMode mode;
  PortSim* sim;
  PortSettings settings;
  const T* value;
  ChanStatus st = ChanStatus::blocked;

  bool await_ready() {
    if (coop != nullptr) {
      st = coop->try_push(*value);
    } else if (mode == ExecMode::threaded) {
      st = ch->blocking_push(*value) ? ChanStatus::ok : ChanStatus::closed;
    } else {
      st = ch->try_push(*value);
    }
    return st == ChanStatus::ok;
  }
  void await_suspend(TaskHandle h) {
    if (st == ChanStatus::closed) {
      mark_closed(h);
    } else if (coop != nullptr) {
      coop->add_push_waiter({value, &st, h});
    } else {
      ch->add_push_waiter({value, &st, h});
    }
  }
  void await_resume() {
    if (st == ChanStatus::closed) resumed_after_close();
    if (sim->hooks != nullptr) {
      sim->hooks->charge_port_access(settings, sizeof(T), /*is_read=*/false,
                                     ch, sim->charge);
    }
  }
};

/// Bulk read: fills `dst[0..n)` with up to `n` stream elements, suspending
/// at most once. Resumes with the number of elements transferred; a short
/// count means the stream closed mid-batch (the next get/get_n ends the
/// task). With nothing left to read the task ends here, like get().
/// Observably equivalent to n scalar get() calls.
template <class T>
struct [[nodiscard]] BulkReadAwaiter {
  TypedChannel<T>* ch;
  CoopChannel<T>* coop;
  int consumer;
  ExecMode mode;
  PortSim* sim;
  PortSettings settings;
  T* dst;
  std::size_t n;
  std::size_t got = 0;
  ChanStatus st = ChanStatus::blocked;

  bool await_ready() {
    if (coop != nullptr) {
      got = coop->try_pop_n(consumer, dst, n, st);
    } else if (mode == ExecMode::threaded) {
      while (got < n && ch->blocking_pop(consumer, dst[got])) ++got;
      st = got == n ? ChanStatus::ok : ChanStatus::closed;
    } else {
      got = ch->try_pop_n(consumer, dst, n, st);
    }
    return st == ChanStatus::ok || (st == ChanStatus::closed && got > 0);
  }
  void await_suspend(TaskHandle h) {
    if (st == ChanStatus::closed) {
      mark_closed(h);
      return;
    }
    typename TypedChannel<T>::BulkPopWaiter w{
        dst, n, got, &got, &st, h, consumer, /*max_stamp=*/0};
    if (coop != nullptr) {
      coop->add_bulk_pop_waiter(w);
    } else {
      ch->add_bulk_pop_waiter(w);
    }
  }
  std::size_t await_resume() {
    if (got == 0 && st == ChanStatus::closed) resumed_after_close();
    if (sim->hooks != nullptr) {
      for (std::size_t i = 0; i < got; ++i) {
        sim->hooks->charge_port_access(settings, sizeof(T), /*is_read=*/true,
                                       ch, sim->charge);
      }
    }
    return got;
  }
};

/// Bulk write: moves `src[0..n)` into the channel, suspending at most once
/// (the parked waiter streams through the ring incrementally, so `n` may
/// exceed the channel capacity). Ends the task when every downstream
/// consumer is gone, like put(). Observably equivalent to n scalar put()
/// calls.
template <class T>
struct [[nodiscard]] BulkWriteAwaiter {
  TypedChannel<T>* ch;
  CoopChannel<T>* coop;
  ExecMode mode;
  PortSim* sim;
  PortSettings settings;
  const T* src;
  std::size_t n;
  std::size_t done = 0;
  ChanStatus st = ChanStatus::blocked;

  bool await_ready() {
    if (coop != nullptr) {
      done = coop->try_push_n(src, n, st);
    } else if (mode == ExecMode::threaded) {
      st = ChanStatus::ok;
      for (; done < n; ++done) {
        if (!ch->blocking_push(src[done])) {
          st = ChanStatus::closed;
          break;
        }
      }
    } else {
      done = ch->try_push_n(src, n, st);
    }
    return st == ChanStatus::ok;
  }
  void await_suspend(TaskHandle h) {
    if (st == ChanStatus::closed) {
      mark_closed(h);
      return;
    }
    typename TypedChannel<T>::BulkPushWaiter w{src, n, done, &done, &st, h};
    if (coop != nullptr) {
      coop->add_bulk_push_waiter(w);
    } else {
      ch->add_bulk_push_waiter(w);
    }
  }
  void await_resume() {
    if (st == ChanStatus::closed) resumed_after_close();
    if (sim->hooks != nullptr) {
      for (std::size_t i = 0; i < n; ++i) {
        sim->hooks->charge_port_access(settings, sizeof(T),
                                       /*is_read=*/false, ch, sim->charge);
      }
    }
  }
};

[[noreturn]] inline void reject_rtp_bulk() {
  throw std::logic_error{
      "bulk port ops (get_n/put_n) are not available on an RTP port"};
}

}  // namespace detail

/// Streaming input of a compute kernel.
///
/// `S` carries behaviour-affecting settings (paper Section 3.4): e.g.
/// `KernelReadPort<float, PortSettings{.rtp = true}>` declares an AIE
/// runtime parameter, `KernelReadPort<int, PortSettings{.beat_bits = 64}>`
/// pins the AXI beat width.
template <class T, PortSettings S = PortSettings{}>
class KernelReadPort {
 public:
  using value_type = T;
  static constexpr PortSettings settings = S;
  static constexpr bool is_read_port = true;

  KernelReadPort() = default;
  explicit KernelReadPort(const PortBinding& b)
      : ch_(static_cast<TypedChannel<T>*>(b.channel)),
        coop_(detail::coop_fast_path<T>(b)),
        consumer_(b.consumer),
        mode_(b.mode),
        sim_{b.sim},
        rtp_(b.rtp) {}

  /// Awaitable that yields the next stream element. Once the stream is
  /// exhausted for good, the kernel ends at this co_await.
  [[nodiscard]] detail::ReadAwaiter<T> get() const {
    return {ch_, coop_, consumer_, mode_, &sim_, S};
  }

  /// Awaitable that fills `out` with up to `out.size()` elements in one
  /// suspension and yields the count transferred; a short count means the
  /// stream closed mid-batch. Not available on RTP ports.
  [[nodiscard]] detail::BulkReadAwaiter<T> get_n(std::span<T> out) const {
    if (rtp_) detail::reject_rtp_bulk();
    return {ch_, coop_, consumer_, mode_, &sim_, S, out.data(), out.size()};
  }

  [[nodiscard]] TypedChannel<T>* channel() const { return ch_; }
  [[nodiscard]] int consumer() const { return consumer_; }

 private:
  TypedChannel<T>* ch_ = nullptr;
  CoopChannel<T>* coop_ = nullptr;
  int consumer_ = -1;
  ExecMode mode_ = ExecMode::coop;
  /// Mutable: the engine resolves the port's charge at its first access.
  mutable PortSim sim_{};
  bool rtp_ = false;
};

/// Streaming output of a compute kernel.
template <class T, PortSettings S = PortSettings{}>
class KernelWritePort {
 public:
  using value_type = T;
  static constexpr PortSettings settings = S;
  static constexpr bool is_read_port = false;

  KernelWritePort() = default;
  explicit KernelWritePort(const PortBinding& b)
      : ch_(static_cast<TypedChannel<T>*>(b.channel)),
        coop_(detail::coop_fast_path<T>(b)),
        mode_(b.mode),
        sim_{b.sim},
        rtp_(b.rtp) {}

  /// Awaitable that writes one element, suspending while the channel is
  /// full. Once every downstream consumer has finished, the kernel ends at
  /// this co_await. The awaiter refers to `v`, so await it in the
  /// expression that calls put(): `co_await port.put(v)`. `v` lives to the
  /// end of that full-expression, suspension included, so it may be a
  /// temporary.
  [[nodiscard]] detail::WriteAwaiter<T> put(const T& v) const {
    return {ch_, coop_, mode_, &sim_, S, &v};
  }

  /// Awaitable that writes all of `in` in one suspension (the transfer
  /// streams through the ring, so `in.size()` may exceed the channel
  /// capacity). Not available on RTP ports.
  [[nodiscard]] detail::BulkWriteAwaiter<T> put_n(
      std::span<const T> in) const {
    if (rtp_) detail::reject_rtp_bulk();
    return {ch_, coop_, mode_, &sim_, S, in.data(), in.size()};
  }

  [[nodiscard]] TypedChannel<T>* channel() const { return ch_; }

 private:
  TypedChannel<T>* ch_ = nullptr;
  CoopChannel<T>* coop_ = nullptr;
  ExecMode mode_ = ExecMode::coop;
  mutable PortSim sim_{};
  bool rtp_ = false;
};

/// Introspection over port parameter types of a kernel signature.
template <class P>
struct port_traits;

template <class T, PortSettings S>
struct port_traits<KernelReadPort<T, S>> {
  using value_type = T;
  static constexpr bool is_read = true;
  static constexpr PortSettings settings = S;
};

template <class T, PortSettings S>
struct port_traits<KernelWritePort<T, S>> {
  using value_type = T;
  static constexpr bool is_read = false;
  static constexpr PortSettings settings = S;
};

template <class P>
concept KernelPort = requires { port_traits<P>::is_read; };

}  // namespace cgsim

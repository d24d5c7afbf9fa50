// cgsim -- the kernel coroutine type and scheduler interface.
//
// Every compute kernel body is a C++20 coroutine of type KernelTask
// (paper Section 3.8). Kernels are created suspended, registered with the
// cooperative scheduler, and resumed until no coroutine can make progress.
//
// How a kernel ends. A kernel written as `while (true) { ... }` ends at the
// first read of a stream that is exhausted for good (all producers finished
// and the buffer drained), or at the first write to a stream whose
// consumers have all finished. Nothing is thrown, and the coroutine stays
// suspended at that co_await:
//   * a port operation that finds its stream closed marks the running task
//     closed (mark_closed()); the executor that resumed it sees it finished
//     as soon as the resume returns;
//   * a channel that completes a parked operation as closed marks the
//     parked task (mark_closed_parked()) and hands it to its executor, which
//     retires it instead of resuming it (resume_or_retire()): it counts the
//     step like a resume and does not run the task.
// Either way the executor then propagates end-of-stream to the task's
// channels. A retired kernel's locals live until its frame is destroyed
// (with the KernelTask, i.e. when the RuntimeContext is destroyed or reset
// for a rerun), not until the close. Resuming a retired task is a bug: the
// port operation then fails the task with std::logic_error.
#pragma once

#include <atomic>
#include <coroutine>
#include <cstdint>
#include <exception>
#include <utility>

namespace cgsim {

/// A stream endpoint became permanently unusable. Channel operations no
/// longer throw it (see the header comment); a kernel may still throw it by
/// hand to end itself, and the task then counts as closed normally rather
/// than failed, mirroring how real AIE kernels stop when their input
/// windows stop arriving.
struct StreamClosed {};

/// A task's slot for the executor that runs it, so the executor reaches
/// its own per-task state without a lookup (the cycle engine keeps its
/// task clock and accounting there).
///
/// Lifetime rule: `state` is valid only for the executor instance whose id
/// is in `owner`. An executor takes one id from new_executor_id() when it
/// is constructed, writes `state` and `owner` together, and treats a slot
/// that carries any other id as empty. Ids are never reused in a process,
/// so a slot written by an earlier executor is never trusted, even when a
/// later one is constructed at the same address (ResimSession re-creates
/// its engine in place for every run) and even after the earlier one and
/// the state it pointed to are gone.
struct ExecutorSlot {
  void* state = nullptr;
  std::uint64_t owner = 0;  ///< 0: no executor has written the slot
};

/// A fresh, nonzero executor id for ExecutorSlot::owner.
[[nodiscard]] inline std::uint64_t new_executor_id() noexcept {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

/// Move-only handle to a suspended kernel coroutine.
///
/// Lifetime: the coroutine frame is destroyed by ~KernelTask. The runtime
/// context keeps every task alive for the whole graph execution and reaps
/// them afterwards (paper Section 3.8).
class [[nodiscard]] KernelTask {
 public:
  struct promise_type {
    std::exception_ptr error{};
    /// The task ended on a closed stream: a port operation marked it, its
    /// executor retired it, or the body threw StreamClosed. Written only by
    /// the thread that runs or retires the task.
    bool closed_normally = false;
    /// A channel completed the task's parked operation as closed, possibly
    /// from another thread; the executor reads it only after taking the
    /// task from its ready queue. A separate flag, so that an executor
    /// checking closed_normally after a resume never races such a write.
    bool closed_while_parked = false;
    /// See ExecutorSlot for who may read it.
    ExecutorSlot executor_slot{};

    KernelTask get_return_object() {
      return KernelTask{
          std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() {
      try {
        throw;
      } catch (const StreamClosed&) {
        closed_normally = true;
      } catch (...) {
        error = std::current_exception();
      }
    }
  };

  KernelTask() = default;
  explicit KernelTask(std::coroutine_handle<promise_type> h) : h_(h) {}
  KernelTask(KernelTask&& o) noexcept : h_(std::exchange(o.h_, {})) {}
  KernelTask& operator=(KernelTask&& o) noexcept {
    if (this != &o) {
      destroy();
      h_ = std::exchange(o.h_, {});
    }
    return *this;
  }
  KernelTask(const KernelTask&) = delete;
  KernelTask& operator=(const KernelTask&) = delete;
  ~KernelTask() { destroy(); }

  /// True once the task behind `h` will never run again: it returned,
  /// failed, or ended on a closed stream.
  [[nodiscard]] static bool finished(std::coroutine_handle<promise_type> h) {
    return h.done() || h.promise().closed_normally;
  }

  [[nodiscard]] bool valid() const { return static_cast<bool>(h_); }
  [[nodiscard]] bool done() const { return h_ && finished(h_); }
  [[nodiscard]] std::coroutine_handle<promise_type> handle() const {
    return h_;
  }
  [[nodiscard]] std::exception_ptr error() const {
    return h_ ? h_.promise().error : nullptr;
  }

 private:
  void destroy() {
    if (h_) {
      h_.destroy();
      h_ = {};
    }
  }
  std::coroutine_handle<promise_type> h_{};
};

/// Handle to a kernel coroutine, typed so that executors and channels can
/// reach its promise.
using TaskHandle = std::coroutine_handle<KernelTask::promise_type>;

/// Ends the running task behind `h` at the co_await being suspended: for a
/// port operation that finds its stream closed, from its await_suspend.
inline void mark_closed(TaskHandle h) noexcept {
  h.promise().closed_normally = true;
}

/// Ends the parked task behind `h`: for a channel completing its operation
/// as closed, before the channel hands it to its executor.
inline void mark_closed_parked(TaskHandle h) noexcept {
  h.promise().closed_while_parked = true;
}

/// One executor step of a task taken from a ready queue: resumes it, or
/// retires it without running it when a channel ended it while it was
/// parked. Either way the caller counts one resume. Returns whether the
/// task has finished.
inline bool resume_or_retire(TaskHandle h) {
  KernelTask::promise_type& p = h.promise();
  if (p.closed_while_parked) {
    p.closed_normally = true;
  } else {
    h.resume();
  }
  return KernelTask::finished(h);
}

/// Abstract cooperative executor; channels use it to move coroutines whose
/// pending channel operation completed back onto the ready list.
class Executor {
 public:
  virtual ~Executor() = default;
  /// Marks `h` runnable. `not_before` is a virtual-time lower bound in
  /// cycles, used by the cycle-approximate backend; the plain cooperative
  /// scheduler ignores it. Channels complete an operation -- scalar or
  /// bulk; a parked bulk waiter may drain incrementally over several
  /// channel events first -- exactly once per suspension, so `h` is never
  /// enqueued twice. A task whose operation completed as closed arrives
  /// marked (mark_closed_parked()), and the executor retires it with
  /// resume_or_retire().
  virtual void make_ready(TaskHandle h, std::uint64_t not_before) = 0;
};

}  // namespace cgsim

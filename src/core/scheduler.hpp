// cgsim -- cooperative coroutine task scheduler (paper Section 3.8).
//
// Kernels are registered suspended and resumed FIFO until no coroutine can
// continue ("there is no explicit termination condition"). Channels hand
// coroutines back via Executor::make_ready exactly once per suspension, so
// the ready queue never holds duplicates.
//
// ExecMode::coop_mt runs a ShardPool: one plain Scheduler per graph shard.
// A shard holds whole connected components (partition.hpp), so no channel
// spans two shards, no task is ever woken from another thread, and each
// shard simply runs until its own ready queue is empty.
#pragma once

#include <algorithm>
#include <cassert>
#include <chrono>
#include <coroutine>
#include <cstdint>
#include <exception>
#include <thread>
#include <vector>

#include "graph_view.hpp"
#include "task.hpp"

namespace cgsim {

/// Flat circular FIFO of task handles. The ready queue never holds
/// duplicates (channels complete each suspension exactly once), so its
/// occupancy is bounded by the task count; a power-of-two vector with
/// monotonic head/tail indices replaces std::deque's chunked allocation,
/// which showed up in the scheduling ablation.
class ReadyQueue {
 public:
  [[nodiscard]] bool empty() const { return head_ == tail_; }
  [[nodiscard]] std::size_t size() const { return tail_ - head_; }

  void push(TaskHandle h) {
    if (tail_ - head_ == buf_.size()) grow();
    buf_[tail_++ & mask_] = h;
  }

  /// Precondition: !empty().
  TaskHandle pop() { return buf_[head_++ & mask_]; }

 private:
  void grow() {
    const std::size_t n = buf_.empty() ? 64 : buf_.size() * 2;
    std::vector<TaskHandle> nb(n);
    const std::size_t count = tail_ - head_;
    for (std::size_t i = 0; i < count; ++i) nb[i] = buf_[(head_ + i) & mask_];
    buf_ = std::move(nb);
    mask_ = n - 1;
    head_ = 0;
    tail_ = count;
  }

  std::vector<TaskHandle> buf_;
  std::size_t mask_ = 0;
  std::size_t head_ = 0;
  std::size_t tail_ = 0;
};

class Scheduler final : public Executor {
 public:
  void make_ready(TaskHandle h, std::uint64_t not_before) override {
    // The plain cooperative scheduler has no notion of virtual time; a
    // nonzero lower bound here means a virtual-time backend is driving the
    // wrong executor and its schedule would silently degrade to FIFO.
    assert(not_before == 0 &&
           "virtual-time make_ready routed to the plain FIFO scheduler");
    (void)not_before;
    ready_.push(h);
  }

  /// Runs until quiescence. `on_finished(h)` is invoked once for every
  /// task that finishes -- returns, fails, or is retired on a closed
  /// stream -- so the runtime can propagate end-of-stream closure to its
  /// channels.
  template <class OnFinished>
  std::uint64_t run(OnFinished&& on_finished) {
    std::uint64_t resumes = 0;
    while (!ready_.empty()) {
      const TaskHandle h = ready_.pop();
      const bool finished = resume_or_retire(h);
      ++resumes;
      if (finished) on_finished(h);
    }
    return resumes;
  }

  /// Like run(), but accumulates the wall-clock time spent *inside*
  /// coroutine resumptions into `resume_seconds`. The difference between
  /// the caller's total wall time and `resume_seconds` is pure scheduling
  /// overhead -- the quantity the paper's perf profile reports as
  /// "synchronization" (Section 5.2), since channel operations inline into
  /// the kernel coroutines and attribute to the kernel symbol.
  ///
  /// The clock is sampled once per iteration and the previous reading is
  /// reused as the interval start, so each loop pays one `now()` call
  /// instead of two. The queue bookkeeping between two samples is charged
  /// to the adjacent resume window -- the same attribution perf makes when
  /// inlined channel operations land on kernel symbols -- which keeps the
  /// instrumentation itself out of the "synchronization" bucket it is
  /// trying to measure.
  template <class OnFinished>
  std::uint64_t run_instrumented(OnFinished&& on_finished,
                                 double& resume_seconds) {
    std::uint64_t resumes = 0;
    resume_seconds = 0.0;
    auto last = std::chrono::steady_clock::now();
    while (!ready_.empty()) {
      const TaskHandle h = ready_.pop();
      const bool finished = resume_or_retire(h);
      const auto t = std::chrono::steady_clock::now();
      resume_seconds += std::chrono::duration<double>(t - last).count();
      last = t;
      ++resumes;
      if (finished) on_finished(h);
    }
    return resumes;
  }

  [[nodiscard]] bool idle() const { return ready_.empty(); }
  [[nodiscard]] std::size_t pending() const { return ready_.size(); }

 private:
  ReadyQueue ready_;
};

/// The shard pool of one coop_mt run: one Scheduler per shard. The calling
/// thread runs shard 0 and one std::jthread runs each other shard, so a
/// one-shard pool starts no thread and runs exactly the coop schedule.
class ShardPool {
 public:
  explicit ShardPool(int n_shards)
      : shards_(static_cast<std::size_t>(std::max(n_shards, 1))),
        loads_(shards_.size()) {}

  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;

  [[nodiscard]] int n_shards() const {
    return static_cast<int>(shards_.size());
  }
  /// Executor of the given shard's tasks and channels.
  [[nodiscard]] Scheduler& shard(int s) {
    return shards_[static_cast<std::size_t>(s)];
  }
  /// Per-shard statistics of the last run, indexed by shard.
  [[nodiscard]] const std::vector<WorkerLoad>& worker_loads() const {
    return loads_;
  }

  /// Runs every shard until its ready queue is empty and returns the total
  /// resumption count. `on_finished` is called on the finishing task's
  /// shard thread; cgsim's closure bookkeeping touches only channels of
  /// that shard. An exception out of a shard is rethrown here once every
  /// shard has stopped.
  template <class OnFinished>
  std::uint64_t run(OnFinished&& on_finished) {
    std::vector<std::exception_ptr> errors(shards_.size());
    const auto run_shard = [&](std::size_t s) {
      try {
        const auto t0 = std::chrono::steady_clock::now();
        loads_[s].resumes = shards_[s].run(on_finished);
        loads_[s].busy_s = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
      } catch (...) {
        errors[s] = std::current_exception();
      }
    };
    {
      std::vector<std::jthread> threads;
      threads.reserve(shards_.size() - 1);
      for (std::size_t s = 1; s < shards_.size(); ++s) {
        threads.emplace_back(run_shard, s);
      }
      run_shard(0);
    }  // join
    for (const std::exception_ptr& e : errors) {
      if (e) std::rethrow_exception(e);
    }
    std::uint64_t resumes = 0;
    for (const WorkerLoad& load : loads_) resumes += load.resumes;
    return resumes;
  }

 private:
  std::vector<Scheduler> shards_;  // never resized: channels point in
  std::vector<WorkerLoad> loads_;
};

}  // namespace cgsim

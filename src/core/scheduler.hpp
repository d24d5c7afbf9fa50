// cgsim -- cooperative coroutine task scheduler (paper Section 3.8).
//
// Kernels are registered suspended and resumed FIFO until no coroutine can
// continue ("there is no explicit termination condition"). Channels hand
// coroutines back via Executor::make_ready exactly once per suspension, so
// the ready queue never holds duplicates.
//
// Besides the single-threaded Scheduler, this header provides the sharded
// execution layer used by ExecMode::coop_mt: one ShardExecutor (a
// cooperative scheduler plus a locked inbox for cross-shard wakes) per
// graph shard, run by a ShardPool with one worker thread pinned to each
// shard.
#pragma once

#include <atomic>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <coroutine>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
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

// ---------------------------------------------------------------------------
// Sharded cooperative execution (ExecMode::coop_mt).
// ---------------------------------------------------------------------------

class ShardExecutor;

/// Global termination state shared by the workers of one coop_mt run.
///
/// Quiescence protocol (two phases, no sleeps):
///   phase 1 (announce): a worker whose local ready queue and inbox are
///     both empty increments `idle` and marks itself parked under its inbox
///     lock. A cross-shard wake targeting a parked worker decrements `idle`
///     on the sleeper's behalf *inside the same critical section* that
///     un-parks it, so `idle == n_shards` can only be observed while no
///     worker is running and no wake is in flight.
///   phase 2 (verify): the worker whose increment reached `n_shards`
///     re-checks every shard's inbox under its lock and then re-reads
///     `idle`; only if both still agree is `done` published and every
///     worker woken for shutdown. A failed verification simply parks --
///     whichever worker was still active repeats the protocol later.
struct ShardQuiescence {
  int n_shards = 1;
  std::atomic<int> idle{0};
  std::atomic<bool> done{false};
  std::vector<ShardExecutor*> shards;
};

/// Cooperative scheduler for one shard plus the cross-shard handoff path.
///
/// The owner worker thread runs the local ReadyQueue without any locking.
/// make_ready() from any other thread (a cross-shard channel completing a
/// waiter, routed here) lands in a mutex-guarded inbox; if the shard is
/// parked the poster un-parks it, takes over its idle-count decrement, and
/// notifies -- so idle shards sleep on a condition variable instead of
/// spinning (the pthreadChannel parking discipline).
class ShardExecutor final : public Executor {
 public:
  ShardExecutor(int shard, ShardQuiescence* q) : shard_(shard), q_(q) {}

  void make_ready(TaskHandle h, std::uint64_t not_before) override {
    assert(not_before == 0 &&
           "virtual-time make_ready routed to a shard executor");
    (void)not_before;
    if (std::this_thread::get_id() == owner_) {
      local_.push(h);
      return;
    }
    post_remote(h);
  }

  /// Pre-run registration from the controlling thread (workers not started
  /// yet, so the local queue is safe to touch).
  void seed(TaskHandle h) { local_.push(h); }

  [[nodiscard]] int shard() const { return shard_; }
  /// Wall time spent sleeping on the condition variable during the last
  /// worker_loop; the pool subtracts it from wall time to get busy time.
  [[nodiscard]] double parked_seconds() const { return parked_s_; }

  /// Worker body; returns the number of coroutine resumptions performed
  /// (a retired task counts as one, like in Scheduler::run).
  template <class OnFinished>
  std::uint64_t worker_loop(OnFinished&& on_finished) {
    owner_ = std::this_thread::get_id();
    parked_s_ = 0.0;
    std::uint64_t resumes = 0;
    for (;;) {
      while (!local_.empty()) {
        const TaskHandle h = local_.pop();
        const bool finished = resume_or_retire(h);
        ++resumes;
        if (finished) on_finished(h);
      }
      if (drain_inbox()) continue;
      // Phase 1: announce idleness, then re-check the inbox under the lock
      // (a wake may have slipped in between the drain and the increment).
      const int n = q_->idle.fetch_add(1) + 1;
      std::unique_lock lk{m_};
      if (!inbox_.empty()) {
        lk.unlock();
        q_->idle.fetch_sub(1);
        continue;
      }
      parked_ = true;
      lk.unlock();
      if (n == q_->n_shards && verify_quiescent()) {
        announce_done();
        return resumes;
      }
      lk.lock();
      const auto park_t0 = std::chrono::steady_clock::now();
      cv_.wait(lk, [&] { return !parked_ || q_->done.load(); });
      parked_s_ += std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - park_t0)
                       .count();
      if (parked_) {  // woken only by announce_done: global quiescence
        parked_ = false;
        return resumes;
      }
      // Woken with work: the poster already decremented the idle count.
    }
  }

 private:
  void post_remote(TaskHandle h) {
    std::lock_guard lk{m_};
    inbox_.push_back(h);
    if (parked_) {
      // Take over the sleeper's idle decrement before it can run again, so
      // the global count never over-reports idleness.
      parked_ = false;
      q_->idle.fetch_sub(1);
      cv_.notify_one();
    }
  }

  /// Moves inbox arrivals onto the local ready queue. Owner thread only.
  bool drain_inbox() {
    std::lock_guard lk{m_};
    if (inbox_.empty()) return false;
    for (TaskHandle h : inbox_) local_.push(h);
    inbox_.clear();
    return true;
  }

  /// Phase 2 of termination detection; see ShardQuiescence.
  [[nodiscard]] bool verify_quiescent() {
    for (ShardExecutor* s : q_->shards) {
      std::lock_guard lk{s->m_};
      if (!s->inbox_.empty()) return false;
    }
    // All inboxes observed empty; if nobody retracted an idle announcement
    // in the meantime the whole pool is quiescent.
    return q_->idle.load() == q_->n_shards;
  }

  void announce_done() {
    q_->done.store(true);
    for (ShardExecutor* s : q_->shards) {
      if (s == this) continue;
      std::lock_guard lk{s->m_};
      s->cv_.notify_one();
    }
  }

  int shard_;
  ShardQuiescence* q_;
  ReadyQueue local_;  // owner thread only
  std::thread::id owner_{};
  std::mutex m_;  // guards inbox_, parked_
  std::vector<TaskHandle> inbox_;
  bool parked_ = false;
  double parked_s_ = 0.0;
  std::condition_variable cv_;
};

/// Thread-safe executor handed to cross-shard channels: completions may
/// fire on any worker thread, so each coroutine is routed to the shard
/// that owns it. The route table is built before the workers start and is
/// read-only during the run.
class RouterExecutor final : public Executor {
 public:
  void add_route(void* frame, Executor* target) { routes_[frame] = target; }

  void make_ready(TaskHandle h, std::uint64_t not_before) override {
    auto it = routes_.find(h.address());
    assert(it != routes_.end() && "coroutine has no registered home shard");
    it->second->make_ready(h, not_before);
  }

 private:
  std::unordered_map<void*, Executor*> routes_;
};

/// Fixed pool of shard workers for one coop_mt run: owns the per-shard
/// executors, the cross-shard router, and the quiescence state. One worker
/// thread per shard; balance is whatever the static LPT packing gave.
class ShardPool {
 public:
  explicit ShardPool(int n_shards) {
    q_.n_shards = n_shards < 1 ? 1 : n_shards;
    shards_.reserve(static_cast<std::size_t>(q_.n_shards));
    for (int s = 0; s < q_.n_shards; ++s) {
      shards_.push_back(std::make_unique<ShardExecutor>(s, &q_));
      q_.shards.push_back(shards_.back().get());
    }
    loads_.resize(static_cast<std::size_t>(q_.n_shards));
  }

  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;

  [[nodiscard]] int n_shards() const { return q_.n_shards; }
  /// Executor homing the given shard's intra-shard channels.
  [[nodiscard]] ShardExecutor& shard(int s) {
    return *shards_[static_cast<std::size_t>(s)];
  }
  /// Thread-safe executor for cross-shard channels.
  [[nodiscard]] Executor& router() { return router_; }
  /// Per-worker statistics of the last run, indexed by shard.
  [[nodiscard]] const std::vector<WorkerLoad>& worker_loads() const {
    return loads_;
  }

  /// Registers a task with its home shard before the run starts.
  void register_task(TaskHandle h, int shard) {
    router_.add_route(h.address(), &this->shard(shard));
    this->shard(shard).seed(h);
  }

  /// Runs every shard worker to global quiescence and returns the total
  /// resumption count. `on_finished` must be safe to call from any worker
  /// thread (cgsim's closure bookkeeping touches only channels reachable
  /// from the finishing task, which are either shard-local or
  /// cross-shard-safe).
  template <class OnFinished>
  std::uint64_t run(OnFinished&& on_finished) {
    q_.idle.store(0);
    q_.done.store(false);
    std::atomic<std::uint64_t> resumes{0};
    {
      std::vector<std::jthread> workers;
      workers.reserve(shards_.size());
      for (auto& sh : shards_) {
        workers.emplace_back([this, &resumes, &on_finished, s = sh.get()] {
          const auto t0 = std::chrono::steady_clock::now();
          const std::uint64_t n = s->worker_loop(on_finished);
          WorkerLoad& load = loads_[static_cast<std::size_t>(s->shard())];
          load.resumes = n;
          load.busy_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count() -
                        s->parked_seconds();
          resumes.fetch_add(n);
        });
      }
    }  // join
    return resumes.load();
  }

 private:
  ShardQuiescence q_;
  std::vector<std::unique_ptr<ShardExecutor>> shards_;
  RouterExecutor router_;
  std::vector<WorkerLoad> loads_;
};

}  // namespace cgsim

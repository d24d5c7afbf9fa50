// cgsim -- batch scenario-sweep engine.
//
// Design-space exploration runs thousands of *independent* simulations of
// one graph (seed / RTP / placement / config variants). That workload is
// embarrassingly parallel and saturates any core count regardless of how
// well a single graph shards, so it gets its own engine:
//
//   * SweepRunner  -- persistent worker pool with one FIFO of jobs under
//                     one mutex; a batch enqueues one job per index, and
//                     each job hands its result back under that mutex to
//                     the caller thread, which aggregates in completion
//                     order. Every hand-off is a mutex plus a condition
//                     variable: nothing here parks on a hand-written
//                     protocol.
//   * SessionPool  -- keyed checkout/return pool with RAII leases. Warm
//                     simulation sessions (aiesim::ResimSession) are
//                     reusable but strictly single-threaded, so sweep
//                     workers *check them out* -- two workers can never
//                     hold the same session, which is what the session's
//                     thread-affinity guard enforces at runtime.
//   * SweepReport  -- per-variant rows (cycles, digest, incremental flag)
//                     plus order-independent summary statistics.
//
// The header is engine-agnostic: nothing here depends on aiesim. The
// aiesim sweep driver (bench_ablation_sweep) composes these pieces with
// CompiledGraphCache + ResimSession.
#pragma once

#include <atomic>
#include <cassert>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace cgsim {

// ---------------------------------------------------------------------------
// SessionPool: keyed exclusive checkout of warm sessions.
// ---------------------------------------------------------------------------

/// Pool of reusable single-threaded sessions, keyed by scenario class
/// (e.g. "baseline established with base inputs" vs "full-run lane").
/// checkout() hands out an exclusive lease -- the session leaves the pool
/// entirely while leased, so two workers can never share one. The lease
/// returns the session on destruction.
///
/// Retention is bounded: set_capacity(n) caps the number of *idle* warm
/// sessions, evicting least-recently-returned first, so a long-running
/// daemon serving many distinct graph keys does not grow its memory with
/// the key population. Leased sessions never count against the cap.
template <class Key, class Session>
class SessionPool {
 public:
  class Lease {
   public:
    Lease() = default;
    Lease(SessionPool* pool, Key key, std::unique_ptr<Session> s)
        : pool_(pool), key_(std::move(key)), s_(std::move(s)) {}
    Lease(Lease&& o) noexcept
        : pool_(o.pool_),
          key_(std::move(o.key_)),
          s_(std::move(o.s_)),
          fresh_(o.fresh_) {
      o.pool_ = nullptr;
    }
    Lease& operator=(Lease&& o) noexcept {
      release();
      pool_ = o.pool_;
      key_ = std::move(o.key_);
      s_ = std::move(o.s_);
      fresh_ = o.fresh_;
      o.pool_ = nullptr;
      return *this;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { release(); }

    [[nodiscard]] Session& operator*() { return *s_; }
    [[nodiscard]] Session* operator->() { return s_.get(); }
    [[nodiscard]] Session* get() { return s_.get(); }
    [[nodiscard]] bool fresh() const { return fresh_; }
    void mark_warm() { fresh_ = false; }

   private:
    friend class SessionPool;
    void release() {
      if (pool_ != nullptr && s_ != nullptr) {
        pool_->put_back(key_, std::move(s_));
      }
      pool_ = nullptr;
    }
    SessionPool* pool_ = nullptr;
    Key key_{};
    std::unique_ptr<Session> s_;
    bool fresh_ = true;
  };

  /// Checks out an idle session for `key`, or builds one via `make()`
  /// (called outside the pool lock -- construction may simulate).
  /// Lease::fresh() tells the caller whether the session still needs its
  /// baseline established.
  template <class Make>
  [[nodiscard]] Lease checkout(const Key& key, Make&& make) {
    {
      std::lock_guard lk{m_};
      auto it = index_.find(key);
      if (it != index_.end()) {
        std::unique_ptr<Session> s = std::move(it->second->session);
        lru_.erase(it->second);
        index_.erase(it);
        Lease l{this, key, std::move(s)};
        l.mark_warm();
        ++reused_;
        return l;
      }
    }
    ++created_;
    return Lease{this, key, make()};
  }

  /// Caps the number of idle warm sessions retained; 0 retains nothing
  /// (every put_back destroys). Applies immediately to current contents.
  void set_capacity(std::size_t cap) {
    std::vector<std::unique_ptr<Session>> doomed;  // destroyed unlocked
    {
      std::lock_guard lk{m_};
      capacity_ = cap;
      while (lru_.size() > capacity_) doomed.push_back(evict_oldest());
    }
  }

  [[nodiscard]] std::size_t capacity() const {
    std::lock_guard lk{m_};
    return capacity_;
  }
  [[nodiscard]] std::size_t idle_count() const {
    std::lock_guard lk{m_};
    return lru_.size();
  }
  [[nodiscard]] std::uint64_t created() const { return created_.load(); }
  [[nodiscard]] std::uint64_t reused() const { return reused_.load(); }
  [[nodiscard]] std::uint64_t evicted() const { return evicted_.load(); }

 private:
  struct Entry {
    Key key;
    std::unique_ptr<Session> session;
  };
  using LruList = std::list<Entry>;

  void put_back(const Key& key, std::unique_ptr<Session> s) {
    std::unique_ptr<Session> doomed;  // session dtor may simulate; unlocked
    {
      std::lock_guard lk{m_};
      if (capacity_ == 0) {
        doomed = std::move(s);
        ++evicted_;
        return;  // destroys after unlock via `doomed` going out of scope
      }
      lru_.push_back(Entry{key, std::move(s)});
      index_.emplace(key, std::prev(lru_.end()));
      if (lru_.size() > capacity_) doomed = evict_oldest();
    }
  }

  /// Pops the least-recently-returned idle session. Caller holds m_ and
  /// destroys the session outside the lock.
  std::unique_ptr<Session> evict_oldest() {
    assert(!lru_.empty());
    typename LruList::iterator victim = lru_.begin();
    auto [lo, hi] = index_.equal_range(victim->key);
    for (auto it = lo; it != hi; ++it) {
      if (it->second == victim) {
        index_.erase(it);
        break;
      }
    }
    std::unique_ptr<Session> s = std::move(victim->session);
    lru_.erase(victim);
    ++evicted_;
    return s;
  }

  mutable std::mutex m_;
  LruList lru_;  ///< idle sessions, least-recently-returned first
  std::multimap<Key, typename LruList::iterator> index_;
  std::size_t capacity_ = kDefaultCapacity;
  std::atomic<std::uint64_t> created_{0};
  std::atomic<std::uint64_t> reused_{0};
  std::atomic<std::uint64_t> evicted_{0};

 public:
  static constexpr std::size_t kDefaultCapacity = 256;
};

// ---------------------------------------------------------------------------
// SweepRunner: persistent worker pool, one job queue, one lock.
// ---------------------------------------------------------------------------

/// Persistent pool of sweep workers fed by one FIFO of jobs under one
/// mutex. run_batch() enqueues one job per index; each job hands its
/// result back under the same mutex and signals the pool's condition
/// variable, and the calling thread runs the collector on the results in
/// completion order. A sweep job is a whole simulation, so one
/// uncontended lock per job costs nothing measurable.
class SweepRunner {
 public:
  struct WorkerSlot {
    int worker = 0;  ///< index of the worker running the job
  };

  explicit SweepRunner(int n_workers) {
    if (n_workers < 1) n_workers = 1;
    threads_.reserve(static_cast<std::size_t>(n_workers));
    for (int i = 0; i < n_workers; ++i) {
      threads_.emplace_back([this, i] {
        WorkerSlot slot{i};
        worker_main(slot);
      });
    }
  }

  SweepRunner(const SweepRunner&) = delete;
  SweepRunner& operator=(const SweepRunner&) = delete;

  ~SweepRunner() {
    {
      std::lock_guard lk{m_};
      stop_ = true;
    }
    work_cv_.notify_all();
  }  // jthreads join

  [[nodiscard]] int workers() const {
    return static_cast<int>(threads_.size());
  }

  /// Runs `n_jobs` invocations of `fn(job_index, slot)` across the pool
  /// and calls `collect(job_index, result)` on *this* thread, in
  /// completion order, for every job that returned. Returns, or throws,
  /// only once every job of the batch has finished. The first exception,
  /// from a job or from `collect`, stops further `collect` calls and is
  /// rethrown after that; the pool survives for the next batch either way.
  template <class Fn, class Collect>
  void run_batch(std::size_t n_jobs, Fn&& fn, Collect&& collect) {
    using R = std::invoke_result_t<Fn&, std::size_t, WorkerSlot&>;
    static_assert(!std::is_void_v<R>,
                  "sweep jobs must return a result for aggregation");
    if (n_jobs == 0) return;
    // Batch-local state. A job touches it only under m_, as its last act,
    // so once `pending` reads 0 under m_ no worker can reach it again.
    // Both result vectors have room for every result, so a job's append
    // never allocates.
    struct Batch {
      std::vector<std::pair<std::size_t, R>> results;  ///< not yet collected
      std::size_t pending;        ///< jobs not yet finished
      std::exception_ptr error;   ///< first exception a job threw
    } b{{}, n_jobs, nullptr};
    b.results.reserve(n_jobs);
    std::vector<std::pair<std::size_t, R>> ready;
    ready.reserve(n_jobs);
    {
      std::lock_guard lk{m_};
      for (std::size_t i = 0; i < n_jobs; ++i) {
        jobs_.emplace_back([this, &b, &fn, i](WorkerSlot& slot) {
          std::optional<R> r;
          std::exception_ptr e;
          try {
            r.emplace(fn(i, slot));
          } catch (...) {
            e = std::current_exception();
          }
          {
            std::lock_guard lk{m_};
            if (r) {
              b.results.emplace_back(i, std::move(*r));
            } else if (!b.error) {
              b.error = std::move(e);
            }
            --b.pending;
          }
          // Unlocked, the batch may already be gone; the cv is the pool's.
          batch_cv_.notify_all();
        });
      }
    }
    work_cv_.notify_all();

    std::exception_ptr error;
    for (bool drained = false; !drained;) {
      {
        std::unique_lock lk{m_};
        batch_cv_.wait(lk,
                       [&] { return !b.results.empty() || b.pending == 0; });
        ready.swap(b.results);
        drained = b.pending == 0;
        if (!error) error = b.error;
      }
      for (auto& [i, r] : ready) {
        if (error) break;
        try {
          collect(i, std::move(r));
        } catch (...) {
          error = std::current_exception();
        }
      }
      ready.clear();
    }
    if (error) std::rethrow_exception(error);
  }

  /// Enqueues one fire-and-forget job for any worker: the service daemon's
  /// dispatch path (each request is one posted job; completion is reported
  /// through whatever channel the closure captured). Posted and batch jobs
  /// share one FIFO. A posted job must not throw.
  void post(std::function<void(WorkerSlot&)> job) {
    {
      std::lock_guard lk{m_};
      jobs_.push_back(std::move(job));
    }
    work_cv_.notify_one();
  }

 private:
  void worker_main(WorkerSlot& slot) {
    for (;;) {
      std::function<void(WorkerSlot&)> job;
      {
        std::unique_lock lk{m_};
        work_cv_.wait(lk, [&] { return stop_ || !jobs_.empty(); });
        if (stop_) return;
        job = std::move(jobs_.front());
        jobs_.pop_front();
      }
      job(slot);
    }
  }

  std::mutex m_;
  std::deque<std::function<void(WorkerSlot&)>> jobs_;  // guarded by m_
  bool stop_ = false;                                  // guarded by m_
  std::condition_variable work_cv_;   ///< jobs_ gained a job, or stop_
  std::condition_variable batch_cv_;  ///< a batch job finished
  std::vector<std::jthread> threads_;  // last member: joins before teardown
};

// ---------------------------------------------------------------------------
// SweepReport.
// ---------------------------------------------------------------------------

/// Result row for one scenario variant.
struct SweepVariantRow {
  std::string name;
  std::uint64_t cycles = 0;
  std::uint64_t digest = 0;
  bool incremental = false;  ///< served by cone-limited re-simulation
  double seconds = 0.0;
};

/// Aggregated outcome of one sweep batch.
struct SweepReport {
  std::vector<SweepVariantRow> rows;
  double wall_s = 0.0;
  int workers = 1;

  [[nodiscard]] double variants_per_sec() const {
    return wall_s > 0.0 ? static_cast<double>(rows.size()) / wall_s : 0.0;
  }
  [[nodiscard]] std::uint64_t incremental_runs() const {
    std::uint64_t n = 0;
    for (const SweepVariantRow& r : rows) n += r.incremental ? 1 : 0;
    return n;
  }
  /// Order-independent combination of the per-variant digests, so serial
  /// and pooled sweeps of the same variant set compare equal regardless of
  /// completion order.
  [[nodiscard]] std::uint64_t combined_digest() const {
    std::uint64_t x = 0, s = 0;
    for (const SweepVariantRow& r : rows) {
      x ^= r.digest;
      s += r.digest * 0x9e3779b97f4a7c15ull;
    }
    return x ^ s;
  }
};

}  // namespace cgsim

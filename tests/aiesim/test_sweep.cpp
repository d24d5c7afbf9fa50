// Sweep-engine primitives (core/sweep.hpp) and their composition with the
// aiesim ResimSession: SweepRunner batch execution, exception propagation
// and its shared job queue with posted jobs, SessionPool exclusive leases,
// the ResimSession thread-affinity guard, and a pooled RTP sweep whose
// per-variant digests must equal a serial sweep of the same variants.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "aiesim/engine.hpp"
#include "aiesim/resim.hpp"
#include "core/cgsim.hpp"
#include "core/dynamic_graph.hpp"
#include "core/sweep.hpp"

namespace {

using namespace cgsim;

// --- SweepRunner -----------------------------------------------------------

TEST(SweepRunner, RunsEveryJobExactlyOnceAcrossBatches) {
  SweepRunner runner{3};
  EXPECT_EQ(runner.workers(), 3);
  std::size_t collected = 0;
  for (int batch = 0; batch < 4; ++batch) {
    std::set<std::size_t> seen;
    runner.run_batch(
        17,
        [](std::size_t i, SweepRunner::WorkerSlot& slot) {
          EXPECT_GE(slot.worker, 0);
          EXPECT_LT(slot.worker, 3);
          return static_cast<int>(i) * 2;
        },
        [&](std::size_t i, int r) {
          EXPECT_EQ(r, static_cast<int>(i) * 2);
          EXPECT_TRUE(seen.insert(i).second) << "job " << i << " duplicated";
          ++collected;
        });
    EXPECT_EQ(seen.size(), 17u);
  }
  EXPECT_EQ(collected, 4u * 17u);
}

TEST(SweepRunner, JobExceptionRethrownAfterBatch) {
  constexpr std::size_t kJobs = 12;
  SweepRunner runner{3};
  std::atomic<std::size_t> finished{0};
  std::set<std::size_t> collected;
  const auto job = [&](std::size_t i, SweepRunner::WorkerSlot&) {
    // Slow jobs: if run_batch left early, they would still be running.
    std::this_thread::sleep_for(std::chrono::milliseconds(i % 3));
    finished.fetch_add(1);
    if (i == 4 || i == 9) throw std::runtime_error{"job " + std::to_string(i)};
    return i;
  };
  try {
    runner.run_batch(kJobs, job, [&](std::size_t i, std::size_t r) {
      EXPECT_EQ(i, r);
      collected.insert(i);
    });
    ADD_FAILURE() << "a throwing job did not propagate";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_TRUE(what == "job 4" || what == "job 9") << what;
  }
  EXPECT_EQ(finished.load(), kJobs) << "run_batch threw before its batch ended";
  EXPECT_EQ(collected.count(4), 0u) << "collect called for a job that threw";
  EXPECT_EQ(collected.count(9), 0u);

  // A throwing collect drains the batch too, and is not called again.
  finished = 0;
  std::size_t collect_calls = 0;
  EXPECT_THROW(runner.run_batch(
                   kJobs,
                   [&](std::size_t i, SweepRunner::WorkerSlot&) {
                     std::this_thread::sleep_for(
                         std::chrono::milliseconds(i % 3));
                     finished.fetch_add(1);
                     return i;
                   },
                   [&](std::size_t, std::size_t) {
                     ++collect_calls;
                     throw std::logic_error{"collect"};
                   }),
               std::logic_error);
  EXPECT_EQ(finished.load(), kJobs);
  EXPECT_EQ(collect_calls, 1u);

  // The pool stays usable.
  std::size_t sum = 0;
  runner.run_batch(
      kJobs, [](std::size_t i, SweepRunner::WorkerSlot&) { return i; },
      [&](std::size_t, std::size_t r) { sum += r; });
  EXPECT_EQ(sum, kJobs * (kJobs - 1) / 2);
}

TEST(SweepRunner, PostedJobsAndBatchesShareThePool) {
  constexpr int kPosted = 200;
  constexpr int kBatches = 20;
  constexpr std::size_t kJobs = 9;
  SweepRunner runner{2};
  std::vector<std::atomic<int>> runs(kPosted);
  std::atomic<int> posted_done{0};
  std::thread poster{[&] {
    for (int p = 0; p < kPosted; ++p) {
      runner.post([&runs, &posted_done, p](SweepRunner::WorkerSlot&) {
        runs[static_cast<std::size_t>(p)].fetch_add(1);
        posted_done.fetch_add(1);
      });
    }
  }};
  for (int batch = 0; batch < kBatches; ++batch) {
    std::vector<int> seen(kJobs, 0);
    runner.run_batch(
        kJobs,
        [batch](std::size_t i, SweepRunner::WorkerSlot&) {
          return batch * 100 + static_cast<int>(i);
        },
        [&](std::size_t i, int r) {
          EXPECT_EQ(r, batch * 100 + static_cast<int>(i));
          ++seen[i];
        });
    for (std::size_t i = 0; i < kJobs; ++i) {
      EXPECT_EQ(seen[i], 1) << "batch " << batch << " job " << i;
    }
  }
  poster.join();
  // Posted jobs report through their own closure; wait for the last one.
  while (posted_done.load() < kPosted) std::this_thread::yield();
  for (int p = 0; p < kPosted; ++p) {
    EXPECT_EQ(runs[static_cast<std::size_t>(p)].load(), 1) << "posted " << p;
  }
}

// --- SessionPool -----------------------------------------------------------

struct FakeSession {
  int id;
};

TEST(SessionPool, LeasesAreExclusiveAndWarmAfterReturn) {
  SessionPool<int, FakeSession> pool;
  int next_id = 0;
  const auto make = [&] {
    return std::make_unique<FakeSession>(FakeSession{next_id++});
  };
  {
    auto l1 = pool.checkout(0, make);
    auto l2 = pool.checkout(0, make);  // first lease still out: new session
    EXPECT_TRUE(l1.fresh());
    EXPECT_TRUE(l2.fresh());
    EXPECT_NE(l1->id, l2->id);
    EXPECT_EQ(pool.idle_count(), 0u);
  }
  EXPECT_EQ(pool.idle_count(), 2u);
  EXPECT_EQ(pool.created(), 2u);
  {
    auto l3 = pool.checkout(0, make);
    EXPECT_FALSE(l3.fresh());  // reused, baseline already established
    EXPECT_EQ(pool.idle_count(), 1u);
  }
  EXPECT_EQ(pool.reused(), 1u);
  // Keys are separate lanes: a different key never reuses lane 0 sessions.
  auto l4 = pool.checkout(7, make);
  EXPECT_TRUE(l4.fresh());
  EXPECT_EQ(pool.created(), 3u);
}

TEST(SessionPool, CapacityBoundsIdleRetention) {
  SessionPool<int, FakeSession> pool;
  pool.set_capacity(2);
  int next_id = 0;
  const auto make = [&] {
    return std::make_unique<FakeSession>(FakeSession{next_id++});
  };
  for (int key = 0; key < 3; ++key) {
    auto l = pool.checkout(key, make);  // returned at scope end
  }
  EXPECT_EQ(pool.idle_count(), 2u);
  EXPECT_EQ(pool.evicted(), 1u);
  // Key 0 was the least-recently-returned lane and is gone; 1 and 2 warm.
  // Hold all three leases at once so the put_backs can't evict mid-check.
  auto l0 = pool.checkout(0, make);
  auto l1 = pool.checkout(1, make);
  auto l2 = pool.checkout(2, make);
  EXPECT_TRUE(l0.fresh());
  EXPECT_FALSE(l1.fresh());
  EXPECT_FALSE(l2.fresh());
}

TEST(SessionPool, EvictionOrderFollowsRecency) {
  SessionPool<int, FakeSession> pool;
  pool.set_capacity(2);
  int next_id = 0;
  const auto make = [&] {
    return std::make_unique<FakeSession>(FakeSession{next_id++});
  };
  { auto l = pool.checkout(0, make); }
  { auto l = pool.checkout(1, make); }
  // Touch key 0: checkout + return moves it to most-recently-returned.
  { auto l = pool.checkout(0, make); }
  // A third lane overflows the pool; key 1 is now the oldest and evicts.
  { auto l = pool.checkout(2, make); }
  EXPECT_EQ(pool.evicted(), 1u);
  auto l0 = pool.checkout(0, make);
  auto l1 = pool.checkout(1, make);
  EXPECT_FALSE(l0.fresh());
  EXPECT_TRUE(l1.fresh());
}

TEST(SessionPool, SetCapacityShrinkEvictsImmediately) {
  SessionPool<int, FakeSession> pool;
  int next_id = 0;
  const auto make = [&] {
    return std::make_unique<FakeSession>(FakeSession{next_id++});
  };
  for (int key = 0; key < 4; ++key) {
    auto l = pool.checkout(key, make);
  }
  EXPECT_EQ(pool.idle_count(), 4u);
  pool.set_capacity(1);
  EXPECT_EQ(pool.idle_count(), 1u);
  EXPECT_EQ(pool.evicted(), 3u);
  EXPECT_FALSE(pool.checkout(3, make).fresh());  // newest lane survives
}

TEST(SessionPool, ZeroCapacityRetainsNothing) {
  SessionPool<int, FakeSession> pool;
  pool.set_capacity(0);
  int next_id = 0;
  const auto make = [&] {
    return std::make_unique<FakeSession>(FakeSession{next_id++});
  };
  { auto l = pool.checkout(0, make); }
  { auto l = pool.checkout(0, make); }
  EXPECT_EQ(pool.idle_count(), 0u);
  EXPECT_EQ(pool.created(), 2u);
  EXPECT_EQ(pool.reused(), 0u);
  EXPECT_EQ(pool.evicted(), 2u);
}

TEST(SessionPool, ConcurrentCheckoutStressUnderTinyCapacity) {
  // N threads hammer a capacity-2 pool across a handful of keys: every
  // lease must stay exclusive (no two threads inside one session at
  // once), no thread may ever observe a destroyed session (use after
  // evict), and the created/reused/evicted counters must balance.
  struct StressSession {
    std::atomic<int> occupants{0};
    std::atomic<bool> destroyed{false};
    std::uint64_t scribble = 0;

    ~StressSession() { destroyed.store(true, std::memory_order_release); }
  };
  SessionPool<int, StressSession> pool;
  pool.set_capacity(2);

  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 400;
  std::atomic<std::uint64_t> made{0};
  std::atomic<int> exclusivity_violations{0};
  std::atomic<int> dead_sessions_seen{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      unsigned x = static_cast<unsigned>(t) * 2654435761u + 1;
      for (int i = 0; i < kItersPerThread; ++i) {
        x = x * 1664525u + 1013904223u;
        const int key = static_cast<int>(x % 5);
        auto lease = pool.checkout(key, [&] {
          made.fetch_add(1, std::memory_order_relaxed);
          return std::make_unique<StressSession>();
        });
        if (lease->destroyed.load(std::memory_order_acquire)) {
          dead_sessions_seen.fetch_add(1, std::memory_order_relaxed);
        }
        if (lease->occupants.fetch_add(1, std::memory_order_acq_rel) !=
            0) {
          exclusivity_violations.fetch_add(1, std::memory_order_relaxed);
        }
        // Unsynchronized write: TSan flags any lease-sharing the
        // occupants counter somehow missed.
        lease->scribble += static_cast<std::uint64_t>(key) + 1;
        lease->occupants.fetch_sub(1, std::memory_order_acq_rel);
      }
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_EQ(exclusivity_violations.load(), 0);
  EXPECT_EQ(dead_sessions_seen.load(), 0);
  EXPECT_EQ(pool.created(), made.load());
  EXPECT_EQ(pool.created(),
            static_cast<std::uint64_t>(kThreads) * kItersPerThread -
                pool.reused());
  EXPECT_LE(pool.idle_count(), 2u) << "capacity cap violated";
  // Everything built either idles in the pool now or was evicted.
  EXPECT_EQ(pool.created(), pool.evicted() + pool.idle_count());
}

// --- ResimSession thread-affinity guard ------------------------------------

std::atomic<bool> sg_gate{false};
std::atomic<bool> sg_entered{false};

COMPUTE_KERNEL(aie, sg_slow_inc,
               KernelReadPort<int> in,
               KernelWritePort<int> out) {
  while (true) {
    const int v = co_await in.get();
    sg_entered.store(true, std::memory_order_release);
    while (!sg_gate.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    co_await out.put(v + 1);
  }
}

TEST(ResimGuard, ConcurrentEntryThrowsInsteadOfCorrupting) {
  rt::DynamicGraphBuilder b;
  const int e0 = b.add_edge<int>();
  const int e1 = b.add_edge<int>();
  b.add_kernel(sg_slow_inc, {e0, e1});
  b.add_input(e0);
  b.add_output(e1);
  const GraphView view = b.view();
  aiesim::SimConfig cfg;
  aiesim::ResimSession session{view, cfg};

  sg_gate.store(false);
  sg_entered.store(false);
  const std::vector<int> in{1, 2, 3};
  std::vector<int> out;
  std::jthread runner{[&] { (void)session.run(in, out); }};
  while (!sg_entered.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  // The session is mid-run on `runner`; entering from this thread must
  // fail loudly -- this is the invariant SessionPool's exclusive leases
  // uphold by construction.
  std::vector<int> out2;
  EXPECT_THROW((void)session.run(in, out2), std::logic_error);
  EXPECT_THROW((void)session.resimulate({}, in, out2), std::logic_error);
  sg_gate.store(true, std::memory_order_release);
  runner.join();
  EXPECT_EQ(out, (std::vector<int>{2, 3, 4}));
  // After the run finishes the guard is released: re-entry works again.
  (void)session.run(in, out2);
  EXPECT_EQ(out2, (std::vector<int>{2, 3, 4}));
}

// --- pooled aiesim sweep matches serial ------------------------------------

inline constexpr PortSettings ts_rtp{.rtp = true};

COMPUTE_KERNEL(aie, ts_scale,
               KernelReadPort<int> in,
               KernelReadPort<int, ts_rtp> factor,
               KernelWritePort<int> out) {
  while (true) {
    co_await out.put(co_await in.get() * co_await factor.get());
  }
}

COMPUTE_KERNEL(aie, ts_inc,
               KernelReadPort<int> in,
               KernelWritePort<int> out) {
  while (true) co_await out.put(co_await in.get() + 1);
}

// Distinct name on purpose: trace records are spliced by kernel name, so a
// name shared between a cone kernel and a skipped kernel forces the full-
// rerun fallback (see ResimSession::incremental_preconditions_hold).
COMPUTE_KERNEL(aie, ts_side_inc,
               KernelReadPort<int> in,
               KernelWritePort<int> out) {
  while (true) co_await out.put(co_await in.get() + 1);
}

/// input0 -> scale(rtp = input1) -> inc -> output0, plus an independent
/// side chain input2 -> side_inc -> output1. The side chain stays outside
/// the RTP cone, so resimulate({1}) can actually run incrementally -- with
/// every kernel in the cone the session falls back to a full rerun.
void build_rtp_graph(rt::DynamicGraphBuilder& b) {
  const int in = b.add_edge<int>();
  b.add_input(in);
  const int rtp = b.add_edge<int>(1, ts_rtp);
  const int mid = b.add_edge<int>();
  const int out = b.add_edge<int>();
  b.add_kernel(ts_scale, {in, rtp, mid});
  b.add_kernel(ts_inc, {mid, out});
  b.add_output(out);
  b.add_input(rtp);  // input 1
  const int side_in = b.add_edge<int>();
  const int side_out = b.add_edge<int>();
  b.add_kernel(ts_side_inc, {side_in, side_out});
  b.add_input(side_in);    // input 2
  b.add_output(side_out);  // output 1
}

std::uint64_t variant_digest(const aiesim::SimResult& r,
                             const std::vector<int>& out,
                             const std::vector<int>& side_out) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](const void* d, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(d);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  };
  const std::uint64_t td = r.trace.digest();
  mix(&td, sizeof td);
  mix(&r.virtual_cycles, sizeof r.virtual_cycles);
  mix(out.data(), out.size() * sizeof(int));
  mix(side_out.data(), side_out.size() * sizeof(int));
  return h;
}

TEST(SweepIntegration, PooledRtpSweepMatchesSerialDigests) {
  constexpr int kVariants = 8;
  rt::DynamicGraphBuilder b;
  build_rtp_graph(b);
  const GraphView view = b.view();
  aiesim::SimConfig cfg;
  const std::vector<int> in{1, 2, 3, 4, 5, 6, 7, 8};
  const std::vector<int> side{10, 20, 30};

  // Serial reference: simulate() per variant.
  std::vector<std::uint64_t> serial(kVariants);
  for (int v = 0; v < kVariants; ++v) {
    std::vector<int> out, side_out;
    const auto r = aiesim::simulate(view, cfg, in, v + 2, side, out, side_out);
    serial[static_cast<std::size_t>(v)] = variant_digest(r, out, side_out);
  }

  // Pooled: SweepRunner + SessionPool, resimulate({rtp}) per variant.
  SessionPool<int, aiesim::ResimSession> pool;
  SweepRunner runner{2};
  std::vector<std::uint64_t> pooled(kVariants);
  std::atomic<int> incremental{0};
  runner.run_batch(
      kVariants,
      [&](std::size_t i, SweepRunner::WorkerSlot&) {
        auto lease = pool.checkout(0, [&] {
          return std::make_unique<aiesim::ResimSession>(view, cfg);
        });
        std::vector<int> out, side_out;
        if (lease.fresh()) (void)lease->run(in, 1, side, out, side_out);
        const auto r = lease->resimulate({1}, in, static_cast<int>(i) + 2,
                                         side, out, side_out);
        if (lease->last_was_incremental()) {
          incremental.fetch_add(1, std::memory_order_relaxed);
        }
        return variant_digest(r, out, side_out);
      },
      [&](std::size_t i, std::uint64_t d) { pooled[i] = d; });

  EXPECT_EQ(pooled, serial);
  EXPECT_GE(incremental.load(), 1);  // warm sessions actually resimulate
  EXPECT_GE(pool.created(), 1u);
}

}  // namespace

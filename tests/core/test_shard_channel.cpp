// Cross-shard channel (coop_mt backend): SPSC and MPMC transfer across
// real threads, batched bulk operations, close propagation with partial
// batches, and the no-consumer discard path.
#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include "core/channel.hpp"

namespace {

using namespace cgsim;

/// Thread-safe executor stub: ShardChannel completions may fire on any
/// thread, so the collector locks. The unit tests below stay on the
/// non-blocking paths and never actually park a coroutine.
class CollectingExecutor final : public Executor {
 public:
  void make_ready(TaskHandle h, std::uint64_t) override {
    std::lock_guard lk{m_};
    ready_.push_back(h);
  }
  [[nodiscard]] std::size_t count() {
    std::lock_guard lk{m_};
    return ready_.size();
  }

 private:
  std::mutex m_;
  std::vector<std::coroutine_handle<>> ready_;
};

void spsc_order_preserved(int capacity) {
  SCOPED_TRACE(::testing::Message() << "capacity " << capacity);
  CollectingExecutor exec;
  ShardChannel<int> ch{/*consumers=*/1, capacity, &exec};
  ch.set_producers(1);
  constexpr int kN = 20000;

  std::thread producer{[&] {
    for (int i = 0; i < kN; ++i) {
      while (ch.try_push(i) == ChanStatus::blocked) std::this_thread::yield();
    }
    ch.producer_done();
  }};

  std::vector<int> got;
  got.reserve(kN);
  for (;;) {
    int v = 0;
    const ChanStatus st = ch.try_pop(0, v);
    if (st == ChanStatus::ok) {
      got.push_back(v);
    } else if (st == ChanStatus::closed) {
      break;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();

  ASSERT_EQ(got.size(), static_cast<std::size_t>(kN));
  for (int i = 0; i < kN; ++i) {
    ASSERT_EQ(got[static_cast<std::size_t>(i)], i);
  }
}

// Capacities 7 and 65 leave the ring spare slots (8 and 128 of them).
TEST(ShardChannel, SpscOrderPreservedAcrossThreads) {
  for (const int capacity : {8, 7, 65}) spsc_order_preserved(capacity);
}

void bulk_transfers_amortize(int capacity) {
  SCOPED_TRACE(::testing::Message() << "capacity " << capacity);
  CollectingExecutor exec;
  ShardChannel<int> ch{1, capacity, &exec};
  ch.set_producers(1);
  constexpr int kN = 4096;
  // Exceeds capacities 16 and 7: forces wrap+partial.
  constexpr std::size_t kBatch = 24;

  std::thread producer{[&] {
    std::vector<int> batch(kBatch);
    int next = 0;
    while (next < kN) {
      const std::size_t n =
          std::min(kBatch, static_cast<std::size_t>(kN - next));
      std::iota(batch.begin(), batch.begin() + static_cast<int>(n), next);
      std::size_t sent = 0;
      while (sent < n) {
        ChanStatus st{};
        sent += ch.try_push_n(batch.data() + sent, n - sent, st);
        if (st == ChanStatus::blocked) std::this_thread::yield();
        ASSERT_NE(st, ChanStatus::closed);
      }
      next += static_cast<int>(n);
    }
    ch.producer_done();
  }};

  std::vector<int> got;
  got.reserve(kN);
  std::vector<int> buf(31);  // co-prime with batch and capacity
  for (;;) {
    ChanStatus st{};
    const std::size_t k = ch.try_pop_n(0, buf.data(), buf.size(), st);
    got.insert(got.end(), buf.begin(),
               buf.begin() + static_cast<int>(k));
    if (st == ChanStatus::closed) break;
    if (k == 0) std::this_thread::yield();
  }
  producer.join();

  ASSERT_EQ(got.size(), static_cast<std::size_t>(kN));
  for (int i = 0; i < kN; ++i) {
    ASSERT_EQ(got[static_cast<std::size_t>(i)], i);
  }
}

TEST(ShardChannel, BulkTransfersAmortizeAcrossTheRing) {
  for (const int capacity : {16, 7, 65}) bulk_transfers_amortize(capacity);
}

TEST(ShardChannel, CloseDeliversPartialBatchThenClosed) {
  CollectingExecutor exec;
  ShardChannel<int> ch{1, 16, &exec};
  ch.set_producers(1);
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(ch.try_push(i), ChanStatus::ok);
  }
  ch.producer_done();

  int buf[8] = {};
  ChanStatus st{};
  const std::size_t k = ch.try_pop_n(0, buf, 8, st);
  EXPECT_EQ(k, 5u);  // short count at end-of-stream
  EXPECT_EQ(st, ChanStatus::closed);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(buf[i], i);

  int v = 0;
  EXPECT_EQ(ch.try_pop(0, v), ChanStatus::closed);
}

TEST(ShardChannel, ConsumerRetirementClosesProducers) {
  CollectingExecutor exec;
  ShardChannel<int> ch{1, 4, &exec};
  ch.set_producers(1);
  ASSERT_EQ(ch.try_push(1), ChanStatus::ok);
  ch.consumer_done(0);
  EXPECT_EQ(ch.try_push(2), ChanStatus::closed);
}

TEST(ShardChannel, BroadcastDeliversToEveryConsumer) {
  CollectingExecutor exec;
  ShardChannel<int> ch{/*consumers=*/2, /*capacity=*/8, &exec};
  ch.set_producers(1);
  constexpr int kN = 5000;

  auto consume = [&](int consumer, std::vector<int>& got) {
    for (;;) {
      int v = 0;
      const ChanStatus st = ch.try_pop(consumer, v);
      if (st == ChanStatus::ok) {
        got.push_back(v);
      } else if (st == ChanStatus::closed) {
        return;
      } else {
        std::this_thread::yield();
      }
    }
  };
  std::vector<int> got0, got1;
  std::thread c0{[&] { consume(0, got0); }};
  std::thread c1{[&] { consume(1, got1); }};
  for (int i = 0; i < kN; ++i) {
    while (ch.try_push(i) == ChanStatus::blocked) std::this_thread::yield();
  }
  ch.producer_done();
  c0.join();
  c1.join();

  ASSERT_EQ(got0.size(), static_cast<std::size_t>(kN));
  ASSERT_EQ(got1.size(), static_cast<std::size_t>(kN));
  for (int i = 0; i < kN; ++i) {
    ASSERT_EQ(got0[static_cast<std::size_t>(i)], i);
    ASSERT_EQ(got1[static_cast<std::size_t>(i)], i);
  }
}

TEST(ShardChannel, MpmcTwoProducersStayPerProducerOrdered) {
  CollectingExecutor exec;
  ShardChannel<int> ch{1, 8, &exec};
  ch.set_producers(2);
  constexpr int kPerProducer = 5000;

  // Producer p writes p * kPerProducer + i for increasing i.
  auto produce = [&](int p) {
    for (int i = 0; i < kPerProducer; ++i) {
      const int v = p * kPerProducer + i;
      while (ch.try_push(v) == ChanStatus::blocked) std::this_thread::yield();
    }
    ch.producer_done();
  };
  std::thread p0{[&] { produce(0); }};
  std::thread p1{[&] { produce(1); }};

  std::vector<int> got;
  got.reserve(2 * kPerProducer);
  for (;;) {
    int v = 0;
    const ChanStatus st = ch.try_pop(0, v);
    if (st == ChanStatus::ok) {
      got.push_back(v);
    } else if (st == ChanStatus::closed) {
      break;
    } else {
      std::this_thread::yield();
    }
  }
  p0.join();
  p1.join();

  ASSERT_EQ(got.size(), static_cast<std::size_t>(2 * kPerProducer));
  // Data from one producer must not reorder relative to itself.
  int next0 = 0;
  int next1 = kPerProducer;
  for (int v : got) {
    if (v < kPerProducer) {
      ASSERT_EQ(v, next0++);
    } else {
      ASSERT_EQ(v, next1++);
    }
  }
}

TEST(ShardChannel, NoConsumersDiscardsButCounts) {
  CollectingExecutor exec;
  ShardChannel<int> ch{/*consumers=*/0, 4, &exec};
  ch.set_producers(1);
  ChanStatus st{};
  EXPECT_EQ(ch.try_push_n(nullptr, 0, st), 0u);
  const int data[3] = {1, 2, 3};
  EXPECT_EQ(ch.try_push_n(data, 3, st), 3u);
  EXPECT_EQ(st, ChanStatus::ok);
  EXPECT_EQ(ch.total_pushed(), 3u);
}

TEST(ShardChannel, SecondParkedPopOnOneEndpointThrows) {
  // As in CoopChannel: one parked pop per consumer endpoint.
  CollectingExecutor exec;
  ShardChannel<int> ch{2, 4, &exec};
  ch.set_producers(1);
  int out0 = 0;
  ChanStatus st0 = ChanStatus::blocked;
  ch.add_pop_waiter({&out0, &st0, TaskHandle{}, 0});
  int again = 0;
  ChanStatus st_again = ChanStatus::blocked;
  EXPECT_THROW(ch.add_pop_waiter({&again, &st_again, TaskHandle{}, 0}),
               std::logic_error);
  int buf[2] = {};
  std::size_t moved = 0;
  ChanStatus st_bulk = ChanStatus::blocked;
  EXPECT_THROW(ch.add_bulk_pop_waiter(
                   {buf, 2, 0, &moved, &st_bulk, TaskHandle{}, 0, 0}),
               std::logic_error);
  ch.add_bulk_pop_waiter({buf, 2, 0, &moved, &st_bulk, TaskHandle{}, 1, 0});
  ASSERT_EQ(ch.try_push(7), ChanStatus::ok);
  EXPECT_EQ(st0, ChanStatus::ok);
  EXPECT_EQ(out0, 7);
  EXPECT_EQ(st_bulk, ChanStatus::blocked);  // one of two elements so far
  ch.producer_done();
  EXPECT_EQ(st_bulk, ChanStatus::closed);
  EXPECT_EQ(moved, 1u);
  EXPECT_EQ(buf[0], 7);
  EXPECT_EQ(st_again, ChanStatus::blocked);
  EXPECT_EQ(exec.count(), 2u);
}

TEST(ShardChannel, BlockingOpsAreRejected) {
  CollectingExecutor exec;
  ShardChannel<int> ch{1, 4, &exec};
  ch.set_producers(1);
  int v = 0;
  EXPECT_THROW((void)ch.blocking_push(1), std::logic_error);
  EXPECT_THROW((void)ch.blocking_pop(0, v), std::logic_error);
}

}  // namespace

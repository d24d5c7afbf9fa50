// Broadcast MPMC channel semantics (paper Section 3.6): fixed capacity,
// per-consumer complete copies, per-producer ordering, closure behaviour.
#include <gtest/gtest.h>

#include <array>
#include <coroutine>
#include <cstddef>
#include <span>
#include <thread>
#include <vector>

#include "core/cgsim.hpp"

namespace {

using namespace cgsim;

/// Executor stub recording wakes.
class StubExec final : public Executor {
 public:
  void make_ready(TaskHandle h, std::uint64_t nb) override {
    wakes.emplace_back(h, nb);
  }
  std::vector<std::pair<std::coroutine_handle<>, std::uint64_t>> wakes;
};

TEST(CoopChannel, FifoSingleConsumer) {
  StubExec ex;
  CoopChannel<int> ch{1, 8, &ex};
  ch.set_producers(1);
  EXPECT_EQ(ch.try_push(1), ChanStatus::ok);
  EXPECT_EQ(ch.try_push(2), ChanStatus::ok);
  int v = 0;
  EXPECT_EQ(ch.try_pop(0, v), ChanStatus::ok);
  EXPECT_EQ(v, 1);
  EXPECT_EQ(ch.try_pop(0, v), ChanStatus::ok);
  EXPECT_EQ(v, 2);
  EXPECT_EQ(ch.try_pop(0, v), ChanStatus::blocked);
}

TEST(CoopChannel, CapacityBlocksProducer) {
  StubExec ex;
  CoopChannel<int> ch{1, 2, &ex};
  ch.set_producers(1);
  EXPECT_EQ(ch.try_push(1), ChanStatus::ok);
  EXPECT_EQ(ch.try_push(2), ChanStatus::ok);
  EXPECT_EQ(ch.try_push(3), ChanStatus::blocked);
  int v = 0;
  ASSERT_EQ(ch.try_pop(0, v), ChanStatus::ok);
  EXPECT_EQ(ch.try_push(3), ChanStatus::ok);

  // Capacity 3 rounds the ring up to 4 slots; the logical capacity still
  // refuses the 4th push, and a parked 4th push counts as a push park.
  CoopChannel<int> odd{1, 3, &ex};
  odd.set_producers(1);
  for (int i = 0; i < 3; ++i) ASSERT_EQ(odd.try_push(i), ChanStatus::ok);
  EXPECT_EQ(odd.try_push(3), ChanStatus::blocked);
  EXPECT_EQ(odd.push_parks(), 0u);
  const int fourth = 3;
  ChanStatus st = ChanStatus::blocked;
  odd.add_push_waiter(&fourth, &st, TaskHandle{});
  EXPECT_EQ(st, ChanStatus::blocked);
  EXPECT_EQ(odd.push_parks(), 1u);
  EXPECT_EQ(odd.occupancy(0), 3u);
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(odd.try_pop(0, v), ChanStatus::ok);
    EXPECT_EQ(v, i);
  }
  EXPECT_EQ(st, ChanStatus::ok);  // the pop made room for the parked push
  EXPECT_EQ(odd.try_pop(0, v), ChanStatus::blocked);
}

TEST(CoopChannel, BroadcastEveryConsumerSeesEverything) {
  StubExec ex;
  CoopChannel<int> ch{3, 8, &ex};
  ch.set_producers(1);
  for (int i = 0; i < 5; ++i) ASSERT_EQ(ch.try_push(i), ChanStatus::ok);
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < 5; ++i) {
      int v = -1;
      ASSERT_EQ(ch.try_pop(c, v), ChanStatus::ok) << "consumer " << c;
      EXPECT_EQ(v, i);
    }
  }
}

TEST(CoopChannel, SlowestConsumerGatesRingReuse) {
  StubExec ex;
  CoopChannel<int> ch{2, 2, &ex};
  ch.set_producers(1);
  ASSERT_EQ(ch.try_push(1), ChanStatus::ok);
  ASSERT_EQ(ch.try_push(2), ChanStatus::ok);
  int v = 0;
  // Fast consumer drains; slow consumer has not read anything.
  ASSERT_EQ(ch.try_pop(0, v), ChanStatus::ok);
  ASSERT_EQ(ch.try_pop(0, v), ChanStatus::ok);
  EXPECT_EQ(ch.try_push(3), ChanStatus::blocked);  // gated by consumer 1
  ASSERT_EQ(ch.try_pop(1, v), ChanStatus::ok);
  EXPECT_EQ(ch.try_push(3), ChanStatus::ok);
}

TEST(CoopChannel, ConsumerDoneReleasesGating) {
  StubExec ex;
  CoopChannel<int> ch{2, 1, &ex};
  ch.set_producers(1);
  ASSERT_EQ(ch.try_push(1), ChanStatus::ok);
  EXPECT_EQ(ch.try_push(2), ChanStatus::blocked);
  ch.consumer_done(1);  // the slow consumer leaves
  int v = 0;
  ASSERT_EQ(ch.try_pop(0, v), ChanStatus::ok);
  EXPECT_EQ(ch.try_push(2), ChanStatus::ok);
}

TEST(CoopChannel, AllConsumersDoneClosesPush) {
  StubExec ex;
  CoopChannel<int> ch{1, 4, &ex};
  ch.set_producers(1);
  ch.consumer_done(0);
  EXPECT_EQ(ch.try_push(1), ChanStatus::closed);
}

TEST(CoopChannel, ProducerDoneDrainsThenCloses) {
  StubExec ex;
  CoopChannel<int> ch{1, 4, &ex};
  ch.set_producers(1);
  ASSERT_EQ(ch.try_push(7), ChanStatus::ok);
  ch.producer_done();
  int v = 0;
  EXPECT_EQ(ch.try_pop(0, v), ChanStatus::ok);  // drains remaining data
  EXPECT_EQ(v, 7);
  EXPECT_EQ(ch.try_pop(0, v), ChanStatus::closed);
}

TEST(CoopChannel, ZeroConsumersDiscardsWrites) {
  StubExec ex;
  CoopChannel<int> ch{0, 2, &ex};
  ch.set_producers(1);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(ch.try_push(i), ChanStatus::ok);
  }
  EXPECT_EQ(ch.total_pushed(), 10u);
}

TEST(CoopChannel, StatsCountPerConsumer) {
  StubExec ex;
  CoopChannel<int> ch{2, 8, &ex};
  ch.set_producers(1);
  ch.try_push(1);
  ch.try_push(2);
  int v = 0;
  ch.try_pop(0, v);
  EXPECT_EQ(ch.popped(0), 1u);
  EXPECT_EQ(ch.popped(1), 0u);
  EXPECT_EQ(ch.total_pushed(), 2u);
}

TEST(CoopChannel, BlockingOpsAreRejected) {
  StubExec ex;
  CoopChannel<int> ch{1, 2, &ex};
  int v = 0;
  EXPECT_THROW(ch.blocking_push(1), std::logic_error);
  EXPECT_THROW(ch.blocking_pop(0, v), std::logic_error);
}

// --- threaded channel ---

TEST(ThreadedChannel, BlockingRoundTrip) {
  // Capacity 3 leaves the ring one spare slot.
  for (const int capacity : {4, 3}) {
    SCOPED_TRACE(::testing::Message() << "capacity " << capacity);
    ThreadedChannel<int> ch{1, capacity};
    ch.set_producers(1);
    std::thread producer([&] {
      for (int i = 0; i < 100; ++i) ASSERT_TRUE(ch.blocking_push(i));
      ch.producer_done();
    });
    std::vector<int> got;
    int v = 0;
    while (ch.blocking_pop(0, v)) got.push_back(v);
    producer.join();
    ASSERT_EQ(got.size(), 100u);
    for (int i = 0; i < 100; ++i) {
      EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
    }
  }
}

TEST(ThreadedChannel, BroadcastTwoConsumers) {
  ThreadedChannel<int> ch{2, 4};
  ch.set_producers(1);
  std::vector<int> got0, got1;
  std::thread c0([&] {
    int v;
    while (ch.blocking_pop(0, v)) got0.push_back(v);
  });
  std::thread c1([&] {
    int v;
    while (ch.blocking_pop(1, v)) got1.push_back(v);
  });
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(ch.blocking_push(i));
  ch.producer_done();
  c0.join();
  c1.join();
  EXPECT_EQ(got0.size(), 50u);
  EXPECT_EQ(got0, got1);
}

TEST(ThreadedChannel, ConsumerDoneUnblocksProducer) {
  ThreadedChannel<int> ch{1, 1};
  ch.set_producers(1);
  ASSERT_TRUE(ch.blocking_push(1));
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds{20});
    ch.consumer_done(0);
  });
  // Full ring + departing consumer => push returns false (closed).
  EXPECT_FALSE(ch.blocking_push(2));
  closer.join();
}

TEST(ThreadedChannel, CoopOpsAreRejected) {
  ThreadedChannel<int> ch{1, 2};
  int v = 0;
  EXPECT_THROW(ch.try_push(1), std::logic_error);
  EXPECT_THROW(ch.try_pop(0, v), std::logic_error);
}

// --- RTP channel ---

TEST(RtpChannel, StickyLatestValue) {
  StubExec ex;
  RtpChannel<float> ch{1, ExecMode::coop, &ex};
  ch.set_producers(1);
  float v = 0;
  EXPECT_EQ(ch.try_pop(0, v), ChanStatus::blocked);  // no value yet
  ASSERT_EQ(ch.try_push(1.5f), ChanStatus::ok);
  ASSERT_EQ(ch.try_pop(0, v), ChanStatus::ok);
  EXPECT_EQ(v, 1.5f);
  // Reading again returns the same value (non-consuming).
  ASSERT_EQ(ch.try_pop(0, v), ChanStatus::ok);
  EXPECT_EQ(v, 1.5f);
  // Overwrite.
  ASSERT_EQ(ch.try_push(2.5f), ChanStatus::ok);
  ASSERT_EQ(ch.try_pop(0, v), ChanStatus::ok);
  EXPECT_EQ(v, 2.5f);
}

TEST(RtpChannel, LatestForSinks) {
  StubExec ex;
  RtpChannel<int> ch{1, ExecMode::coop, &ex};
  ch.set_producers(1);
  int v = 0;
  EXPECT_FALSE(ch.latest(v));
  ch.try_push(9);
  ASSERT_TRUE(ch.latest(v));
  EXPECT_EQ(v, 9);
}

TEST(RtpChannel, ClosedWithoutValueReportsClosed) {
  StubExec ex;
  RtpChannel<int> ch{1, ExecMode::coop, &ex};
  ch.set_producers(1);
  ch.producer_done();
  int v = 0;
  EXPECT_EQ(ch.try_pop(0, v), ChanStatus::closed);
}

TEST(RtpChannel, ConsumerDoneIsIdempotent) {
  StubExec ex;
  RtpChannel<int> ch{2, ExecMode::coop, &ex};
  ch.set_producers(1);
  EXPECT_EQ(ch.consumers_open(), 2);
  ch.consumer_done(0);
  EXPECT_EQ(ch.consumers_open(), 1);
  // Repeated reports for the same endpoint (rtp sink attachment + task
  // teardown) must not decrement again.
  ch.consumer_done(0);
  ch.consumer_done(0);
  EXPECT_EQ(ch.consumers_open(), 1);
  ch.consumer_done(1);
  ch.consumer_done(1);
  EXPECT_EQ(ch.consumers_open(), 0);
}

// --- bulk operations ---

TEST(CoopChannelBulk, PushPopRoundTrip) {
  StubExec ex;
  CoopChannel<int> ch{1, 8, &ex};
  ch.set_producers(1);
  const std::array<int, 5> src{1, 2, 3, 4, 5};
  ChanStatus st{};
  EXPECT_EQ(ch.try_push_n(src.data(), src.size(), st), 5u);
  EXPECT_EQ(st, ChanStatus::ok);
  std::array<int, 5> dst{};
  EXPECT_EQ(ch.try_pop_n(0, dst.data(), dst.size(), st), 5u);
  EXPECT_EQ(st, ChanStatus::ok);
  EXPECT_EQ(dst, src);
  EXPECT_EQ(ch.total_pushed(), 5u);
  EXPECT_EQ(ch.popped(0), 5u);
}

TEST(CoopChannelBulk, WrapAroundCopies) {
  StubExec ex;
  CoopChannel<int> ch{1, 8, &ex};
  ch.set_producers(1);
  // Advance head and cursor past the middle of the ring so the next bulk
  // transfer is split at the wrap point.
  ChanStatus st{};
  std::array<int, 6> pre{10, 11, 12, 13, 14, 15};
  ASSERT_EQ(ch.try_push_n(pre.data(), pre.size(), st), 6u);
  std::array<int, 6> drain{};
  ASSERT_EQ(ch.try_pop_n(0, drain.data(), drain.size(), st), 6u);
  // head == cursor == 6; an 8-element batch spans slots 6,7,0..5.
  std::array<int, 8> src{0, 1, 2, 3, 4, 5, 6, 7};
  ASSERT_EQ(ch.try_push_n(src.data(), src.size(), st), 8u);
  EXPECT_EQ(st, ChanStatus::ok);
  std::array<int, 8> dst{};
  ASSERT_EQ(ch.try_pop_n(0, dst.data(), dst.size(), st), 8u);
  EXPECT_EQ(st, ChanStatus::ok);
  EXPECT_EQ(dst, src);
}

TEST(CoopChannelBulk, PartialPopReportsBlockedThenClosed) {
  StubExec ex;
  CoopChannel<int> ch{1, 8, &ex};
  ch.set_producers(1);
  ChanStatus st{};
  const std::array<int, 3> src{1, 2, 3};
  ASSERT_EQ(ch.try_push_n(src.data(), src.size(), st), 3u);
  std::array<int, 5> dst{};
  // More requested than buffered while the producer is still open.
  EXPECT_EQ(ch.try_pop_n(0, dst.data(), dst.size(), st), 3u);
  EXPECT_EQ(st, ChanStatus::blocked);
  ch.producer_done();
  EXPECT_EQ(ch.try_pop_n(0, dst.data(), dst.size(), st), 0u);
  EXPECT_EQ(st, ChanStatus::closed);
}

TEST(CoopChannelBulk, ParkedPopCompletesPartiallyAtClose) {
  StubExec ex;
  CoopChannel<int> ch{1, 8, &ex};
  ch.set_producers(1);
  std::array<int, 4> dst{};
  std::size_t moved = 0;
  ChanStatus st = ChanStatus::blocked;
  ch.add_bulk_pop_waiter(dst.data(), dst.size(), &moved, &st, TaskHandle{},
                         0);
  EXPECT_EQ(st, ChanStatus::blocked);  // parked: nothing buffered yet
  ASSERT_EQ(ch.try_push(1), ChanStatus::ok);
  ASSERT_EQ(ch.try_push(2), ChanStatus::ok);
  EXPECT_EQ(st, ChanStatus::blocked);  // still short of 4
  ch.producer_done();
  EXPECT_EQ(st, ChanStatus::closed);  // completed with the partial batch
  EXPECT_EQ(moved, 2u);
  EXPECT_EQ(dst[0], 1);
  EXPECT_EQ(dst[1], 2);
  ASSERT_EQ(ex.wakes.size(), 1u);
}

TEST(CoopChannelBulk, SecondParkedPopOnOneEndpointThrows) {
  // One task owns an endpoint and parks one operation at a time, so the
  // channel keeps one parked pop per endpoint; a second one is a bug.
  StubExec ex;
  CoopChannel<int> ch{2, 8, &ex};
  ch.set_producers(1);
  int out0 = 0;
  ChanStatus st0 = ChanStatus::blocked;
  ch.add_pop_waiter(&out0, &st0, TaskHandle{}, 0);
  int again = 0;
  ChanStatus st_again = ChanStatus::blocked;
  EXPECT_THROW(ch.add_pop_waiter(&again, &st_again, TaskHandle{}, 0),
               std::logic_error);
  std::array<int, 2> dst{};
  std::size_t moved = 0;
  ChanStatus st_bulk = ChanStatus::blocked;
  EXPECT_THROW(ch.add_bulk_pop_waiter(dst.data(), dst.size(), &moved,
                                      &st_bulk, TaskHandle{}, 0),
               std::logic_error);
  // The other endpoint parks, and both parked pops complete.
  int out1 = 0;
  ChanStatus st1 = ChanStatus::blocked;
  ch.add_pop_waiter(&out1, &st1, TaskHandle{}, 1);
  ASSERT_EQ(ch.try_push(5), ChanStatus::ok);
  EXPECT_EQ(st0, ChanStatus::ok);
  EXPECT_EQ(out0, 5);
  EXPECT_EQ(st1, ChanStatus::ok);
  EXPECT_EQ(out1, 5);
  EXPECT_EQ(st_again, ChanStatus::blocked);
  EXPECT_EQ(ex.wakes.size(), 2u);
  // A completed pop frees its endpoint's slot.
  ch.add_bulk_pop_waiter(dst.data(), dst.size(), &moved, &st_bulk,
                         TaskHandle{}, 0);
  EXPECT_EQ(st_bulk, ChanStatus::blocked);
}

TEST(CoopChannelBulk, PushBlockedByLaggingBroadcastConsumer) {
  StubExec ex;
  CoopChannel<int> ch{2, 4, &ex};
  ch.set_producers(1);
  ChanStatus st{};
  const std::array<int, 4> first{0, 1, 2, 3};
  ASSERT_EQ(ch.try_push_n(first.data(), first.size(), st), 4u);
  // Fast consumer drains; consumer 1 still gates the ring.
  std::array<int, 4> dst{};
  ASSERT_EQ(ch.try_pop_n(0, dst.data(), dst.size(), st), 4u);
  const std::array<int, 2> more{4, 5};
  EXPECT_EQ(ch.try_push_n(more.data(), more.size(), st), 0u);
  EXPECT_EQ(st, ChanStatus::blocked);
  // The laggard advances two elements; exactly that much space opens up.
  ASSERT_EQ(ch.try_pop_n(1, dst.data(), 2, st), 2u);
  EXPECT_EQ(ch.try_push_n(more.data(), more.size(), st), 2u);
  EXPECT_EQ(st, ChanStatus::ok);
  // Both consumers still see the complete stream.
  ASSERT_EQ(ch.try_pop_n(0, dst.data(), 2, st), 2u);
  EXPECT_EQ(dst[0], 4);
  EXPECT_EQ(dst[1], 5);
  ASSERT_EQ(ch.try_pop_n(1, dst.data(), 4, st), 4u);
  EXPECT_EQ(dst[0], 2);
  EXPECT_EQ(dst[3], 5);
}

TEST(CoopChannelBulk, ParkedPushStreamsThroughSmallRing) {
  StubExec ex;
  CoopChannel<int> ch{1, 2, &ex};
  ch.set_producers(1);
  // A batch larger than the ring capacity: the waiter parks and streams
  // through the ring as the consumer drains it.
  const std::array<int, 6> src{1, 2, 3, 4, 5, 6};
  std::size_t moved = 0;
  ChanStatus st = ChanStatus::blocked;
  ch.add_bulk_push_waiter(src.data(), src.size(), &moved, &st, TaskHandle{});
  EXPECT_EQ(st, ChanStatus::blocked);  // 2 in the ring, 4 still pending
  std::vector<int> got;
  int v = 0;
  while (ch.try_pop(0, v) == ChanStatus::ok) got.push_back(v);
  EXPECT_EQ(st, ChanStatus::ok);
  EXPECT_EQ(moved, 6u);
  EXPECT_EQ(got, (std::vector<int>{1, 2, 3, 4, 5, 6}));
  ASSERT_EQ(ex.wakes.size(), 1u);  // exactly one wake per suspension
}

TEST(CoopChannelBulk, ZeroConsumersAcceptsOversizedBatch) {
  StubExec ex;
  CoopChannel<int> ch{0, 2, &ex};
  ch.set_producers(1);
  std::array<int, 7> src{};
  ChanStatus st{};
  EXPECT_EQ(ch.try_push_n(src.data(), src.size(), st), 7u);
  EXPECT_EQ(st, ChanStatus::ok);
  EXPECT_EQ(ch.total_pushed(), 7u);
}

TEST(ThreadedChannel, BulkOpsAreRejected) {
  ThreadedChannel<int> ch{1, 2};
  int v = 0;
  ChanStatus st{};
  EXPECT_THROW(ch.try_push_n(&v, 1, st), std::logic_error);
  EXPECT_THROW(ch.try_pop_n(0, &v, 1, st), std::logic_error);
}

TEST(RtpChannel, BulkOpsAreRejected) {
  StubExec ex;
  RtpChannel<int> ch{1, ExecMode::coop, &ex};
  int v = 0;
  ChanStatus st{};
  EXPECT_THROW(ch.try_push_n(&v, 1, st), std::logic_error);
  EXPECT_THROW(ch.try_pop_n(0, &v, 1, st), std::logic_error);
  std::size_t moved = 0;
  EXPECT_THROW(ch.add_bulk_push_waiter(&v, 1, &moved, &st, TaskHandle{}),
               std::logic_error);
  EXPECT_THROW(ch.add_bulk_pop_waiter(&v, 1, &moved, &st, TaskHandle{}, 0),
               std::logic_error);
}

TEST(RtpPort, BulkPortOpsAreRejected) {
  StubExec ex;
  RtpChannel<int> ch{1, ExecMode::coop, &ex};
  ch.set_producers(1);
  PortBinding b{&ch, 0, ExecMode::coop, nullptr, /*rtp=*/true};
  KernelReadPort<int> in{b};
  KernelWritePort<int> out{b};
  std::array<int, 2> buf{};
  EXPECT_THROW((void)in.get_n(std::span<int>{buf}), std::logic_error);
  EXPECT_THROW((void)out.put_n(std::span<const int>{buf}), std::logic_error);
}

// --- vtable factory ---

TEST(ChannelVTable, CreatesModeSpecificChannels) {
  StubExec ex;
  const ChannelVTable& vt = channel_vtable<int>();
  EXPECT_EQ(vt.elem_size, sizeof(int));
  EXPECT_EQ(vt.type_name, "int");
  std::unique_ptr<ChannelBase> coop{
      vt.create(ExecMode::coop, 1, 4, false, &ex)};
  std::unique_ptr<ChannelBase> thr{
      vt.create(ExecMode::threaded, 1, 4, false, &ex)};
  std::unique_ptr<ChannelBase> rtp{
      vt.create(ExecMode::coop, 1, 4, true, &ex)};
  EXPECT_NE(dynamic_cast<CoopChannel<int>*>(coop.get()), nullptr);
  EXPECT_NE(dynamic_cast<ThreadedChannel<int>*>(thr.get()), nullptr);
  EXPECT_NE(dynamic_cast<RtpChannel<int>*>(rtp.get()), nullptr);
}

}  // namespace

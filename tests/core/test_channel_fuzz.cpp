// Randomized property test: the cooperative broadcast channel against a
// simple oracle (per-consumer FIFO views over one shared sequence).
#include <gtest/gtest.h>

#include <coroutine>
#include <deque>
#include <random>
#include <vector>

#include "core/cgsim.hpp"

namespace {

using namespace cgsim;

class NullExec final : public Executor {
 public:
  void make_ready(TaskHandle, std::uint64_t) override {}
};

/// Oracle: every consumer sees the full pushed sequence in order; the ring
/// only admits a push when no consumer lags by `capacity`.
struct Oracle {
  explicit Oracle(int consumers, std::size_t capacity)
      : cursors(static_cast<std::size_t>(consumers), 0), cap(capacity) {}

  [[nodiscard]] bool can_push() const {
    std::size_t min_cursor = pushed.size();
    for (auto c : cursors) min_cursor = std::min(min_cursor, c);
    return pushed.size() - min_cursor < cap;
  }
  [[nodiscard]] bool can_pop(int c) const {
    return cursors[static_cast<std::size_t>(c)] < pushed.size();
  }

  std::vector<int> pushed;
  std::vector<std::size_t> cursors;
  std::size_t cap;
};

struct FuzzCase {
  unsigned seed;
  int consumers;
  int capacity;
};

class ChannelFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(ChannelFuzz, AgreesWithOracle) {
  const auto [seed, consumers, capacity] = GetParam();
  NullExec ex;
  CoopChannel<int> ch{consumers, capacity, &ex};
  ch.set_producers(1);
  Oracle oracle{consumers, static_cast<std::size_t>(capacity)};

  std::mt19937 rng{seed};
  std::uniform_int_distribution<int> op{0, consumers};  // 0=push, i=pop i-1
  int next_value = 0;
  for (int step = 0; step < 20000; ++step) {
    const int o = op(rng);
    if (o == 0) {
      const ChanStatus st = ch.try_push(next_value);
      if (oracle.can_push()) {
        ASSERT_EQ(st, ChanStatus::ok) << "step " << step;
        oracle.pushed.push_back(next_value);
        ++next_value;
      } else {
        ASSERT_EQ(st, ChanStatus::blocked) << "step " << step;
      }
    } else {
      const int c = o - 1;
      int v = -1;
      const ChanStatus st = ch.try_pop(c, v);
      if (oracle.can_pop(c)) {
        ASSERT_EQ(st, ChanStatus::ok) << "step " << step;
        const auto cur = oracle.cursors[static_cast<std::size_t>(c)]++;
        ASSERT_EQ(v, oracle.pushed[cur]) << "step " << step;
      } else {
        ASSERT_EQ(st, ChanStatus::blocked) << "step " << step;
      }
    }
  }
  // Statistics agree at the end.
  EXPECT_EQ(ch.total_pushed(), oracle.pushed.size());
  for (int c = 0; c < consumers; ++c) {
    EXPECT_EQ(ch.popped(c), oracle.cursors[static_cast<std::size_t>(c)]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ChannelFuzz,
    ::testing::Values(FuzzCase{1, 1, 1}, FuzzCase{2, 1, 7},
                      FuzzCase{3, 2, 1}, FuzzCase{4, 2, 16},
                      FuzzCase{5, 3, 4}, FuzzCase{6, 4, 64},
                      FuzzCase{7, 3, 2}, FuzzCase{8, 2, 3},
                      // Capacities below the ring's power-of-two slot count.
                      FuzzCase{9, 1, 5}, FuzzCase{10, 3, 65},
                      FuzzCase{19, 2, 100}));

/// Same oracle, but scalar and bulk operations (random batch lengths up to
/// twice the capacity) are randomly interleaved: the bulk path must be
/// observably identical to element-at-a-time transfers, including partial
/// transfers and wrap-around copies.
class ChannelBulkFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(ChannelBulkFuzz, InterleavedScalarAndBulkAgreeWithOracle) {
  const auto [seed, consumers, capacity] = GetParam();
  NullExec ex;
  CoopChannel<int> ch{consumers, capacity, &ex};
  ch.set_producers(1);
  const auto cap = static_cast<std::size_t>(capacity);
  Oracle oracle{consumers, cap};

  std::mt19937 rng{seed};
  std::uniform_int_distribution<int> op{0, 3};
  std::uniform_int_distribution<int> pick_c{0, consumers - 1};
  std::uniform_int_distribution<std::size_t> len{1, 2 * cap};
  int next_value = 0;

  const auto oracle_free = [&] {
    std::size_t min_cursor = oracle.pushed.size();
    for (auto c : oracle.cursors) min_cursor = std::min(min_cursor, c);
    return cap - (oracle.pushed.size() - min_cursor);
  };

  for (int step = 0; step < 20000; ++step) {
    switch (op(rng)) {
      case 0: {  // scalar push
        const ChanStatus st = ch.try_push(next_value);
        if (oracle.can_push()) {
          ASSERT_EQ(st, ChanStatus::ok) << "step " << step;
          oracle.pushed.push_back(next_value);
          ++next_value;
        } else {
          ASSERT_EQ(st, ChanStatus::blocked) << "step " << step;
        }
        break;
      }
      case 1: {  // scalar pop
        const int c = pick_c(rng);
        int v = -1;
        const ChanStatus st = ch.try_pop(c, v);
        if (oracle.can_pop(c)) {
          ASSERT_EQ(st, ChanStatus::ok) << "step " << step;
          const auto cur = oracle.cursors[static_cast<std::size_t>(c)]++;
          ASSERT_EQ(v, oracle.pushed[cur]) << "step " << step;
        } else {
          ASSERT_EQ(st, ChanStatus::blocked) << "step " << step;
        }
        break;
      }
      case 2: {  // bulk push
        const std::size_t n = len(rng);
        std::vector<int> src(n);
        for (std::size_t i = 0; i < n; ++i) {
          src[i] = next_value + static_cast<int>(i);
        }
        ChanStatus st{};
        const std::size_t moved = ch.try_push_n(src.data(), n, st);
        const std::size_t expected = std::min(n, oracle_free());
        ASSERT_EQ(moved, expected) << "step " << step;
        ASSERT_EQ(st, moved == n ? ChanStatus::ok : ChanStatus::blocked)
            << "step " << step;
        for (std::size_t i = 0; i < moved; ++i) {
          oracle.pushed.push_back(src[i]);
        }
        next_value += static_cast<int>(moved);
        break;
      }
      default: {  // bulk pop
        const int c = pick_c(rng);
        const std::size_t n = len(rng);
        std::vector<int> dst(n, -1);
        ChanStatus st{};
        const std::size_t moved = ch.try_pop_n(c, dst.data(), n, st);
        auto& cur = oracle.cursors[static_cast<std::size_t>(c)];
        const std::size_t expected = std::min(n, oracle.pushed.size() - cur);
        ASSERT_EQ(moved, expected) << "step " << step;
        ASSERT_EQ(st, moved == n ? ChanStatus::ok : ChanStatus::blocked)
            << "step " << step;
        for (std::size_t i = 0; i < moved; ++i) {
          ASSERT_EQ(dst[i], oracle.pushed[cur + i]) << "step " << step;
        }
        cur += moved;
        break;
      }
    }
  }

  // Close the producer: every consumer drains the exact remainder and then
  // observes end-of-stream, whichever transfer width it uses.
  ch.producer_done();
  for (int c = 0; c < consumers; ++c) {
    auto& cur = oracle.cursors[static_cast<std::size_t>(c)];
    const std::size_t remaining = oracle.pushed.size() - cur;
    std::vector<int> dst(remaining + 3, -1);
    ChanStatus st{};
    const std::size_t moved = ch.try_pop_n(c, dst.data(), dst.size(), st);
    ASSERT_EQ(moved, remaining);
    ASSERT_EQ(st, ChanStatus::closed);
    for (std::size_t i = 0; i < moved; ++i) {
      ASSERT_EQ(dst[i], oracle.pushed[cur + i]);
    }
    cur += moved;
  }

  EXPECT_EQ(ch.total_pushed(), oracle.pushed.size());
  for (int c = 0; c < consumers; ++c) {
    EXPECT_EQ(ch.popped(c), oracle.cursors[static_cast<std::size_t>(c)]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ChannelBulkFuzz,
    ::testing::Values(FuzzCase{11, 1, 1}, FuzzCase{12, 1, 7},
                      FuzzCase{13, 2, 1}, FuzzCase{14, 2, 16},
                      FuzzCase{15, 3, 4}, FuzzCase{16, 4, 64},
                      FuzzCase{17, 3, 2}, FuzzCase{18, 2, 3},
                      FuzzCase{20, 1, 5}, FuzzCase{21, 3, 65},
                      FuzzCase{22, 2, 100}));

}  // namespace

// aiesim -- event queues for the cycle-approximate engine.
//
// The engine orders kernel activations by (virtual time, sequence number):
// among simultaneous events the queue is FIFO in push order, which makes
// simulation runs deterministic and independent of container internals.
// That contract is locked in by tests/aiesim/test_event_queue.cpp.
//
// TimingWheelQueue implements it as a hierarchical timing wheel / bucket
// queue keyed on cycle time. Pushes hash into 64-slot levels of
// geometrically growing slot width; same-cycle events share one level-0
// slot and drain in push order, so pop is O(1) off the occupancy bitmasks.
// Wakes dated before the wheel floor (a consumer woken with the stamp of
// an item produced in its past) keep exact (time, seq) order through a
// small sorted side array. The binary-heap queue it replaced lives on as
// the test oracle's queue (tests/aiesim/oracle/), which the wheel is
// fuzz-compared against.
#pragma once

#include <algorithm>
#include <bit>
#include <coroutine>
#include <cstdint>
#include <vector>

namespace aiesim {

/// One scheduled kernel activation.
struct Event {
  std::uint64_t time = 0;
  std::uint64_t seq = 0;  ///< FIFO among simultaneous events
  std::coroutine_handle<> h;
};

/// Hierarchical timing wheel: kLevels levels of 64 slots; a level-l slot
/// spans 64^l cycles, so the wheel covers 64^kLevels cycles ahead of its
/// floor (the largest time popped from the wheel so far). Level-0 slots are
/// one cycle wide: all events in a slot share a timestamp and drain FIFO,
/// which is exactly the engine's same-cycle seq contract. Pops locate the
/// next slot with one count-trailing-zeros over the per-level occupancy
/// bitmask; entering a higher-level window cascades its slot down,
/// front-inserting so older (lower-seq) events stay ahead of same-time
/// events pushed directly to the lower level.
///
/// Exactness notes (fuzz-checked against the oracle's binary heap):
///  * equal-time events never split across levels once popping reaches
///    them: cascades complete before the window's first pop;
///  * pushes dated before the floor (a consumer woken with the stamp of an
///    item produced in its virtual past) go to `past_`, kept sorted by
///    (time, seq); everything there precedes the whole wheel by
///    construction, so draining it first preserves global order;
///  * pushes beyond the horizon go to `over_` and are re-filed when the
///    wheel approaches them.
class TimingWheelQueue {
 public:
  void push(const Event& e) {
    ++size_;
    if (e.time < floor_) {
      const auto before = [](const Event& a, const Event& b) {
        return a.time != b.time ? a.time < b.time : a.seq < b.seq;
      };
      past_.insert(std::upper_bound(past_.begin() +
                                        static_cast<std::ptrdiff_t>(past_head_),
                                    past_.end(), e, before),
                   e);
      return;
    }
    file(e);
  }

  bool pop(Event& out) {
    if (past_head_ < past_.size()) {
      // All past events predate the wheel floor, hence the whole wheel.
      out = past_[past_head_++];
      if (past_head_ == past_.size()) {
        past_.clear();
        past_head_ = 0;
      }
      --size_;
      return true;
    }
    if (size_ == 0) return false;
    for (;;) {
      const unsigned pos0 = static_cast<unsigned>(floor_ & 63);
      const std::uint64_t hi0 = occ_[0] & (~std::uint64_t{0} << pos0);
      if (hi0 != 0) {
        // Level-0 slots at or after the floor position hold events of the
        // current 64-cycle window; the lowest set bit is the next cycle.
        const unsigned s = static_cast<unsigned>(std::countr_zero(hi0));
        const std::uint64_t t0 = (floor_ & ~std::uint64_t{63}) + s;
        if (!over_.empty() && over_min_ <= t0) {
          // An overflow entry (always an older push than any same-time
          // wheel entry) dates at or before the next slot: re-file it
          // before popping, or the (time, seq) merge breaks -- and the
          // floor could overrun over_min_, later underflowing the
          // level-index computation in file_front().
          refile_overflow();
          continue;
        }
        Slot& sl = level_[0][s];
        out = sl.v[sl.head++];
        floor_ = out.time;
        if (sl.head == sl.v.size()) {
          sl.v.clear();
          sl.head = 0;
          occ_[0] &= ~(std::uint64_t{1} << s);
        }
        --size_;
        return true;
      }
      advance();
    }
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  static constexpr int kLevels = 5;
  static constexpr std::uint64_t kSpan = std::uint64_t{1}
                                         << (6 * kLevels);  // 2^30 cycles

  struct Slot {
    std::vector<Event> v;
    std::size_t head = 0;  ///< drained prefix (level 0 only)
  };

  void file(const Event& e) {
    const std::uint64_t d = e.time - floor_;
    if (d >= kSpan) {
      over_min_ = std::min(over_min_, e.time);
      over_.push_back(e);
      return;
    }
    const int l = d == 0 ? 0 : (std::bit_width(d) - 1) / 6;
    const unsigned s = static_cast<unsigned>((e.time >> (6 * l)) & 63);
    level_[l][s].v.push_back(e);
    occ_[l] |= std::uint64_t{1} << s;
  }

  /// Re-files `e` during a cascade or an overflow re-file. Among same-time
  /// entries a slot must stay seq-ordered. Cascaded events are *usually*
  /// the oldest of their cycle (floor_ only grows, so later pushes of a
  /// given time file at the same or a lower level) and land at the front --
  /// but an overflow re-file can drop an even older entry into a lower
  /// level while its same-cycle peers still sit in a higher slot awaiting
  /// cascade, so the insert position is found by seq among same-time
  /// entries rather than assumed to be the front. Order against
  /// different-time entries of a level>0 slot is immaterial: cascading
  /// re-sorts by time. Callers iterate sources in reverse so insertion
  /// preserves the sources' own order.
  void file_front(const Event& e) {
    const std::uint64_t d = e.time - floor_;
    const int l = d == 0 ? 0 : (std::bit_width(d) - 1) / 6;
    const unsigned s = static_cast<unsigned>((e.time >> (6 * l)) & 63);
    Slot& sl = level_[l][s];
    // Same-time entries in a slot are seq-ascending (pushes append in seq
    // order, and this insert keeps the invariant), so scanning backwards
    // for the last same-time lower-seq entry yields the position.
    std::size_t pos = sl.head;
    for (std::size_t i = sl.v.size(); i-- > sl.head;) {
      if (sl.v[i].time == e.time && sl.v[i].seq < e.seq) {
        pos = i + 1;
        break;
      }
    }
    sl.v.insert(sl.v.begin() + static_cast<std::ptrdiff_t>(pos), e);
    occ_[l] |= std::uint64_t{1} << s;
  }

  /// Re-files every overflow event now within the wheel span. Iterated in
  /// reverse so file_front() preserves the entries' own push order; the
  /// remainder (still beyond the span) stays in `over_` with a fresh
  /// minimum. Requires floor_ <= over_min_, which pop()'s pre-pop check
  /// and advance()'s refile-before-advance ordering maintain.
  void refile_overflow() {
    std::vector<Event> keep;
    over_min_ = ~std::uint64_t{0};
    for (std::size_t i = over_.size(); i-- > 0;) {
      const Event& e = over_[i];
      if (e.time - floor_ < kSpan) {
        file_front(e);
      } else {
        over_min_ = std::min(over_min_, e.time);
        keep.push_back(e);
      }
    }
    std::reverse(keep.begin(), keep.end());
    over_ = std::move(keep);
  }

  /// The current level-0 window is exhausted: jump the floor to the next
  /// occupied window and cascade down every level whose window starts
  /// exactly there. Candidates across levels can tie -- e.g. a level-1
  /// slot for [4096,4160) and a level-2 slot for [4096,8192) both bid
  /// 4096 -- and entering a window without cascading its slot would leave
  /// events stranded at slot == pos (misread as next-lap), so ALL tied
  /// slots cascade, not just one.
  void advance() {
    std::uint64_t cand[kLevels];
    std::uint64_t best_t = ~std::uint64_t{0};
    for (int l = 0; l < kLevels; ++l) {
      cand[l] = ~std::uint64_t{0};
      if (occ_[l] == 0) continue;
      const int shift = 6 * l;
      const unsigned pos = static_cast<unsigned>((floor_ >> shift) & 63);
      const std::uint64_t lap = std::uint64_t{1} << (shift + 6);
      const std::uint64_t lap_base = floor_ & ~(lap - 1);
      // The slot the floor currently sits in was cascaded on entry (and at
      // level 0 fully drained before advance() runs), so a set bit at
      // `pos` can only mean next-lap events.
      const std::uint64_t hi =
          occ_[l] & (~std::uint64_t{0} << pos) & ~(std::uint64_t{1} << pos);
      if (hi != 0) {
        const auto s = static_cast<unsigned>(std::countr_zero(hi));
        cand[l] = lap_base + (std::uint64_t{s} << shift);
      } else {
        const auto s = static_cast<unsigned>(std::countr_zero(occ_[l]));
        cand[l] = lap_base + lap + (std::uint64_t{s} << shift);
      }
      best_t = std::min(best_t, cand[l]);
    }
    // Overflow events re-file once the next stop is at or past their
    // minimum; <= so equal-time overflow entries (always older than wheel
    // entries of the same time) get filed before that time pops.
    if (!over_.empty() && over_min_ <= best_t) {
      if (best_t == ~std::uint64_t{0}) {
        floor_ = over_min_;  // wheel empty: jump straight there
      }
      refile_overflow();
      return;
    }
    floor_ = best_t;
    // Cascade tied levels lowest-first: a level-l slot's events re-file at
    // levels < l into slots strictly after the new floor's position, so a
    // higher tied level never refills a slot cascaded before it -- and for
    // same-time events split across levels or re-filed from the overflow
    // array, file_front's seq-aware insert keeps each slot's same-cycle
    // entries in push order.
    for (int l = 1; l < kLevels; ++l) {
      if (cand[l] != best_t) continue;
      const auto s = static_cast<unsigned>((floor_ >> (6 * l)) & 63);
      Slot& sl = level_[l][s];
      occ_[l] &= ~(std::uint64_t{1} << s);
      std::vector<Event> moved = std::move(sl.v);
      sl.v.clear();
      sl.head = 0;
      for (std::size_t i = moved.size(); i-- > 0;) file_front(moved[i]);
    }
  }

  Slot level_[kLevels][64];
  std::uint64_t occ_[kLevels]{};
  std::uint64_t floor_ = 0;
  std::size_t size_ = 0;
  std::vector<Event> past_;
  std::size_t past_head_ = 0;
  std::vector<Event> over_;
  std::uint64_t over_min_ = ~std::uint64_t{0};
};

}  // namespace aiesim

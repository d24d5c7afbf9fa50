// aiesim -- per-tile micro-architectural model for DetailLevel::cycle.
//
// Each simulated tile carries a small synthetic micro-model -- VLIW
// pipeline stages, the vector register scoreboard, stream FIFO
// occupancies, memory-bank arbitration -- advanced once per simulated
// cycle. Stepping it is what gives cycle-approximate simulation its
// characteristic wall-clock cost (paper Table 2's aiesim column).
//
// Cycles split into two classes:
//   * stall cycles (tile waiting on data): only the time-base LFSR
//     advances -- the pipeline holds, the scoreboard is quiesced and the
//     FIFO/bank state is frozen;
//   * busy cycles (an activation segment executing): full per-cycle
//     update of every structure, accumulating the run checksum.
//
// Two implementations expose identical observable state:
//   * TileMicroRef -- the reference loop, one cycle per iteration.
//     Retained so the fast path can be checked bit-for-bit in-tree.
//   * TileMicroFast -- word stepping. The LFSR's taps sit at bits >= 59,
//     so bit j < 60 of a state is the feedback bit j steps ahead: one
//     64-bit state word holds every bit the model reads over the next 40
//     cycles, and up to 60 steps are one shift/XOR expression
//     (detail::lfsr_window_jump). Stall gaps of <= 60 cycles jump in
//     O(1), longer ones through GF(2) jump-ahead tables. Busy spans
//     collapse every replicated structure to one representative
//     trajectory and advance 32 cycles per state word: the pipeline's
//     stage-7 checksum term becomes weighted popcounts of bit windows of
//     the word, and the FIFO and scoreboard recurrences advance 8 cycles
//     per lookup in transition tables built by running the per-cycle
//     rule. Each segment's last 8 cycles step one at a time to refill the
//     busy history. The checksum only regroups u64 additions (the
//     reference's bank XORs cancel in runs of eight equal values), so it
//     is bit-identical, not merely statistically equivalent;
//     tests/aiesim/test_micro_model.cpp holds the two implementations to
//     snapshot equality under fuzzing.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>

namespace aiesim {

inline constexpr int kPipeStages = 8;          ///< VLIW issue..writeback
inline constexpr int kScoreboardEntries = 32;  ///< vector register file
inline constexpr int kStreamFifos = 4;         ///< 2 in + 2 out, 16-deep
inline constexpr int kMemoryBanks = 8;

/// Galois LFSR driving the synthetic micro-architectural activity.
inline constexpr std::uint64_t kLfsrTaps = 0xD800000000000000ull;
inline constexpr std::uint64_t kLfsrSeed = 0x9E3779B97F4A7C15ull;

[[nodiscard]] constexpr std::uint64_t lfsr_step(std::uint64_t x) {
  return (x >> 1) ^ ((~(x & 1) + 1) & kLfsrTaps);
}

/// Full observable micro-model state, for bit-exactness comparison.
struct MicroSnapshot {
  std::uint64_t lfsr = 0;
  std::uint64_t pipe[kPipeStages]{};
  std::uint64_t scoreboard[kScoreboardEntries]{};
  std::uint64_t fifo[kStreamFifos]{};
  std::uint64_t banks[kMemoryBanks]{};
  std::uint64_t checksum = 0;

  [[nodiscard]] bool operator==(const MicroSnapshot&) const = default;
};

namespace detail {

/// Longest jump lfsr_window_jump covers: one past the lowest tap bit.
inline constexpr unsigned kLfsrWindow = 60;
static_assert(kLfsrTaps == (std::uint64_t{1} << 63 | std::uint64_t{1} << 62 |
                            std::uint64_t{1} << 60 | std::uint64_t{1} << 59) &&
                  kLfsrWindow == unsigned(std::countr_zero(kLfsrTaps)) + 1,
              "lfsr_window_jump hard-codes the tap positions");

/// k lfsr_steps, 1 <= k <= kLfsrWindow, in one expression. A step XORs the
/// taps in at bits >= 59 and shifts right by one, so bits below 59 only
/// shift: until step 60, bit 0 of the state after i steps -- the feedback
/// bit of step i+1 -- is bit i of x. The k feedback bits are therefore
/// L = x & (2^k - 1), and feedback bit i, XORed in at tap p and shifted
/// k-1-i more times, lands at bit p+1-k+i: all of them together are
/// L << (p+1-k) for each tap p.
[[nodiscard]] constexpr std::uint64_t lfsr_window_jump(std::uint64_t x,
                                                       unsigned k) {
  const std::uint64_t low = x & ((std::uint64_t{1} << k) - 1);
  return (x >> k) ^ (low << (64 - k)) ^ (low << (63 - k)) ^
         (low << (61 - k)) ^ (low << (60 - k));
}

/// lfsr_step is linear over GF(2) (shift and XOR of a constant selected by
/// one state bit), so n steps are the state vector times the n-th power of
/// the 64x64 step matrix. cols[k][j] caches (M^(2^k)) * e_j; a jump by n
/// multiplies by M^(2^k) for each set bit k of n -- O(64 * popcount(n))
/// word XORs total, independent of the gap length.
struct LfsrJumpTables {
  std::uint64_t cols[64][64];

  LfsrJumpTables() {
    for (int j = 0; j < 64; ++j) cols[0][j] = lfsr_step(std::uint64_t{1} << j);
    for (int k = 1; k < 64; ++k) {
      for (int j = 0; j < 64; ++j) {
        cols[k][j] = apply(cols[k - 1], cols[k - 1][j]);
      }
    }
  }

  [[nodiscard]] static std::uint64_t apply(const std::uint64_t (&col)[64],
                                           std::uint64_t x) {
    std::uint64_t y = 0;
    while (x != 0) {
      y ^= col[std::countr_zero(x)];
      x &= x - 1;
    }
    return y;
  }
};

[[nodiscard]] inline std::uint64_t lfsr_jump(std::uint64_t x,
                                             std::uint64_t n) {
  if (n == 0) return x;
  if (n <= kLfsrWindow) return lfsr_window_jump(x, static_cast<unsigned>(n));
  static const LfsrJumpTables t;  // ~32 KiB, built on first long jump
  for (int k = 0; n != 0; ++k, n >>= 1) {
    if (n & 1) x = LfsrJumpTables::apply(t.cols[k], x);
  }
  return x;
}

}  // namespace detail

/// Reference implementation: one loop iteration per simulated cycle.
class TileMicroRef {
 public:
  void step_stall(std::uint64_t n) {
    std::uint64_t lfsr = lfsr_;
    for (std::uint64_t i = 0; i < n; ++i) lfsr = lfsr_step(lfsr);
    lfsr_ = lfsr;
  }

  void step_busy(std::uint64_t n) {
    std::uint64_t lfsr = lfsr_;
    std::uint64_t sum = checksum_;
    for (std::uint64_t i = 0; i < n; ++i) {
      lfsr = lfsr_step(lfsr);
      // Advance the VLIW pipeline (issue -> writeback).
      for (int s = kPipeStages - 1; s > 0; --s) {
        pipe_[s] = pipe_[s - 1] + (lfsr >> s & 1);
      }
      pipe_[0] = lfsr & 0xFF;
      // Age the vector register scoreboard; retire ready entries.
      for (auto& r : scoreboard_) {
        r = r > 0 ? r - 1 : (lfsr >> 17) & 0x7;
        sum += r;
      }
      // Stream FIFO occupancies (2 in + 2 out x 16-deep).
      for (auto& f : fifo_) {
        f = (f + ((lfsr >> 5) & 3)) & 0xF;
        sum += f;
      }
      // Memory-bank arbitration round-robin state.
      for (auto& b : banks_) {
        b = (b + 1) & 7;
        sum ^= b;
      }
      sum += pipe_[kPipeStages - 1];
    }
    lfsr_ = lfsr;
    checksum_ = sum;
  }

  [[nodiscard]] std::uint64_t checksum() const { return checksum_; }

  [[nodiscard]] MicroSnapshot snapshot() const {
    MicroSnapshot s;
    s.lfsr = lfsr_;
    std::memcpy(s.pipe, pipe_, sizeof pipe_);
    std::memcpy(s.scoreboard, scoreboard_, sizeof scoreboard_);
    std::memcpy(s.fifo, fifo_, sizeof fifo_);
    std::memcpy(s.banks, banks_, sizeof banks_);
    s.checksum = checksum_;
    return s;
  }

 private:
  std::uint64_t lfsr_ = kLfsrSeed;
  std::uint64_t pipe_[kPipeStages]{};
  std::uint64_t scoreboard_[kScoreboardEntries]{};
  std::uint64_t fifo_[kStreamFifos]{};
  std::uint64_t banks_[kMemoryBanks]{};
  std::uint64_t checksum_ = 0;
};

/// Fast implementation: bit-identical to TileMicroRef by construction.
///
/// Collapse invariants (all hold from the zero-initialized start state and
/// are preserved by every step, so they hold forever):
///   * all scoreboard entries see identical updates -> one trajectory `sb_`
///     stands for 32 entries; the checksum contribution is 32x one entry,
///     accumulated unscaled and multiplied once at the end (exact mod 2^64).
///   * all FIFO occupancies are equal -> one trajectory `fifo_` stands for
///     4 FIFOs, its contribution scaled by 4 the same way.
///   * all banks are equal -> the reference's eight consecutive XORs of
///     one value cancel to zero in the checksum, and the state jumps to
///     (b + n) & 7.
///   * pipe stage s at cycle t equals (lfsr_{t-s} & 0xFF) plus the carry
///     bits sum_{k=1..s} bit_k(lfsr_{t-s+k}). Summing the stage-7 term
///     over a whole segment and regrouping by lfsr value, each interior
///     value x contributes (x & 0xFF) + popcount(x & 0xFE) -- its bits
///     1..7 each feed exactly one later stage-7 output -- with partial
///     bit masks only at the segment edges. The architectural pipe state
///     is never materialised during stepping: it is a pure function of
///     the last 8 busy-cycle lfsr values, which `hist_` carries across
///     segments (stalls freeze the pipe, so only busy values matter), and
///     snapshot() rebuilds it on demand. The all-zero initial history
///     reproduces the zero-initialised pipe exactly.
///   * all checksum terms are u64 additions, which commute and associate
///     mod 2^64 -- the regrouped sums are exact, not approximate.
///
/// Word stepping: the model reads only bits 0..19 of each busy-cycle lfsr
/// value, and bit j of the state i <= 59-j steps after x is bit i+j of x.
/// So from block start state x, the 32 values of the next block read bits
/// i..i+19 of x (i = 1..32): the block's stencil term is one popcount per
/// bit b of the 32-bit window starting at bit 1+b, weighted 2^b (+1 for
/// the carry of b >= 1), and its FIFO/scoreboard updates are four 8-cycle
/// lookups each, indexed by the trajectory value and the window of input
/// bits those 8 cycles read. Blocks never reach a segment's last 8
/// cycles: those step one at a time with their partial stencil masks and
/// fill the history ring.
class TileMicroFast {
 public:
  void step_stall(std::uint64_t n) { lfsr_ = detail::lfsr_jump(lfsr_, n); }

  void step_busy(std::uint64_t n) {
    if (n == 0) return;
    u64 ring[8];  // ring[m & 7] = lfsr value of busy cycle m (m counts
                  // from this segment's start; history occupies m = -8..-1)
    for (int i = 0; i < 8; ++i) ring[i] = hist_[i];
    u64 sum = 0;

    // Stage-7 stencil taps read by this segment's first 7 outputs from the
    // previous segment's tail: history value x_{-j} is the (x & 0xFF) base
    // of output 7-j and carry tap k of output 7-j-k.
    for (int j = 1; j <= 7; ++j) {
      const u64 x = hist_[8 - j];
      if (static_cast<u64>(7 - j) < n) sum += x & 0xFF;
      const int hi = 7 - j;
      const int lo =
          std::max(1, 8 - j - static_cast<int>(std::min<u64>(n, 8)));
      if (hi >= lo) {
        const u64 mask =
            (std::uint64_t{1} << (hi + 1)) - (std::uint64_t{1} << lo);
        sum += static_cast<unsigned>(std::popcount(x & mask));
      }
    }

    u64 x = lfsr_;
    u64 f = fifo_;
    u64 r = sb_;
    u64 sum_f = 0;
    u64 sum_r = 0;
    u64 m = 0;
    if (n >= kBlock + 8) {
      const BlockTables& t = block_tables();
      for (; m + kBlock + 8 <= n; m += kBlock) {
        for (unsigned b = 0; b < 8; ++b) {
          const u64 window = (x >> (1 + b)) & 0xFFFFFFFF;
          sum += ((u64{1} << b) + (b != 0)) *
                 static_cast<unsigned>(std::popcount(window));
        }
        for (unsigned g = 0; g < kBlock; g += 8) {
          const unsigned fe = t.fifo[f << 9 | ((x >> (g + 6)) & 0x1FF)];
          f = fe & 0xF;
          sum_f += fe >> 4;
          const unsigned re = t.scoreboard[r << 10 | ((x >> (g + 18)) & 0x3FF)];
          r = re & 7;
          sum_r += re >> 3;
        }
        x = detail::lfsr_window_jump(x, kBlock);
      }
    }
    // Interior values: full stencil contribution. The last 7 values feed
    // outputs beyond this segment, so their high carry bits drop out.
    const u64 n_main = n >= 8 ? n - 7 : 0;
    for (; m < n_main; ++m) {
      x = lfsr_step(x);
      ring[m & 7] = x;
      sum += (x & 0xFF) + static_cast<unsigned>(std::popcount(x & 0xFE));
      f = fifo_rule(f, x);
      sum_f += f;
      r = scoreboard_rule(r, x);
      sum_r += r;
    }
    for (; m < n; ++m) {
      x = lfsr_step(x);
      ring[m & 7] = x;
      const unsigned k0 = static_cast<unsigned>(m + 8 - n);  // 1..7
      sum += static_cast<unsigned>(
          std::popcount(x & (std::uint64_t{0xFF} << k0) & 0xFE));
      f = fifo_rule(f, x);
      sum_f += f;
      r = scoreboard_rule(r, x);
      sum_r += r;
    }

    for (int j = 0; j < 8; ++j) hist_[j] = ring[(n + j) & 7];
    lfsr_ = x;
    fifo_ = f;
    sb_ = r;
    bank_ = (bank_ + n) & 7;
    checksum_ += sum + kStreamFifos * sum_f + kScoreboardEntries * sum_r;
  }

  [[nodiscard]] std::uint64_t checksum() const { return checksum_; }

  [[nodiscard]] MicroSnapshot snapshot() const {
    MicroSnapshot s;
    s.lfsr = lfsr_;
    // Rebuild the pipe from the busy-cycle lfsr history (hist_[7] is the
    // most recent value): stage j = (x_{t-j} & 0xFF) + carries.
    for (int j = 0; j < kPipeStages; ++j) {
      u64 v = hist_[7 - j] & 0xFF;
      for (int k = 1; k <= j; ++k) v += (hist_[7 - j + k] >> k) & 1;
      s.pipe[j] = v;
    }
    for (auto& v : s.scoreboard) v = sb_;
    for (auto& v : s.fifo) v = fifo_;
    for (auto& v : s.banks) v = bank_;
    s.checksum = checksum_;
    return s;
  }

 private:
  using u64 = std::uint64_t;

  static constexpr unsigned kBlock = 32;  ///< busy cycles per state word

  // One busy cycle of the collapsed FIFO / scoreboard trajectory, given
  // that cycle's lfsr value: TileMicroRef's per-entry rules.
  static constexpr u64 fifo_rule(u64 f, u64 x) {
    return (f + ((x >> 5) & 3)) & 0xF;
  }
  static constexpr u64 scoreboard_rule(u64 r, u64 x) {
    return r != 0 ? r - 1 : (x >> 17) & 7;
  }

  /// 8-cycle transitions of the two trajectories, built by running the
  /// per-cycle rule from every (value, input window) pair. An entry packs
  /// the value after 8 cycles in its low bits (4 for the FIFO, 3 for the
  /// scoreboard) and the sum of the 8 per-cycle values above them. Cycle c
  /// of a group reads window bits c..c+1 (FIFO: lfsr bits 5..6) or
  /// c..c+2 (scoreboard: lfsr bits 17..19), so the rule sees the window
  /// shifted into place.
  struct BlockTables {
    std::uint16_t fifo[16 << 9];        ///< [f << 9 | 9-bit window]
    std::uint16_t scoreboard[8 << 10];  ///< [r << 10 | 10-bit window]

    BlockTables() {
      for (u64 f0 = 0; f0 < 16; ++f0) {
        for (u64 w = 0; w < (1u << 9); ++w) {
          u64 f = f0;
          u64 s = 0;
          for (unsigned c = 0; c < 8; ++c) {
            f = fifo_rule(f, w << 5 >> c);
            s += f;
          }
          fifo[f0 << 9 | w] = static_cast<std::uint16_t>(s << 4 | f);
        }
      }
      for (u64 r0 = 0; r0 < 8; ++r0) {
        for (u64 w = 0; w < (1u << 10); ++w) {
          u64 r = r0;
          u64 s = 0;
          for (unsigned c = 0; c < 8; ++c) {
            r = scoreboard_rule(r, w << 17 >> c);
            s += r;
          }
          scoreboard[r0 << 10 | w] = static_cast<std::uint16_t>(s << 3 | r);
        }
      }
    }
  };

  static const BlockTables& block_tables() {
    static const BlockTables t;  // 32 KiB, built on first long busy span
    return t;
  }

  std::uint64_t lfsr_ = kLfsrSeed;
  std::uint64_t hist_[8]{};  ///< last 8 busy-cycle lfsr values, oldest first
  std::uint64_t sb_ = 0;     ///< collapsed scoreboard trajectory (x32)
  std::uint64_t fifo_ = 0;   ///< collapsed FIFO occupancy (x4)
  std::uint64_t bank_ = 0;   ///< collapsed bank arbitration state (x8)
  std::uint64_t checksum_ = 0;
};

}  // namespace aiesim

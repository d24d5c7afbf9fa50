// Property / fuzz tests for the ML extensions of the SIMD backends
// (src/aie/simd.hpp): the int8 dot-product MAC (mac_dot4), the int32
// accumulator moves (srs32 / ups32), the saturating narrowing converts,
// the bf16 <-> fp32 converts (round-to-nearest-even, NaN quieting), and
// the fixed-point exp2_neg_q15 polynomial. Every op must be bit-identical
// between scalar_backend and native_backend -- including the int8 overflow
// extremes, the srs saturation edges and the bf16 rounding ties -- and
// must match an independently spelled-out reference where one exists.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>

#include "aie/aie.hpp"

namespace {

using Scalar = aie::simd::scalar_backend;
using Native = aie::simd::native_backend;

constexpr unsigned kFuzzRounds = 50;

template <class T, unsigned N>
aie::vector<T, N> random_int_vector(std::mt19937& rng) {
  static_assert(std::is_integral_v<T>);
  aie::vector<T, N> v;
  for (unsigned i = 0; i < N; ++i) {
    // Full range of T, extremes included.
    v.set(i, static_cast<T>(rng()));
  }
  return v;
}

/// Streamable representation of a lane: bf16 prints as its bit pattern,
/// everything else promotes through unary + (so int8 prints numerically).
int lane_repr(aie::bf16 v) { return v.bits; }
template <class T>
auto lane_repr(T v) {
  return +v;
}

/// Bit-exact vector comparison.
template <class T, unsigned N>
::testing::AssertionResult bits_eq(const aie::vector<T, N>& a,
                                   const aie::vector<T, N>& b) {
  if (std::memcmp(a.data().data(), b.data().data(), sizeof(T) * N) == 0) {
    return ::testing::AssertionSuccess();
  }
  auto r = ::testing::AssertionFailure() << "vectors differ:";
  for (unsigned i = 0; i < N; ++i) {
    if (std::memcmp(&a.data()[i], &b.data()[i], sizeof(T)) != 0) {
      r << " lane " << i << " (" << lane_repr(a.get(i)) << " vs "
        << lane_repr(b.get(i)) << ")";
    }
  }
  return r;
}

template <class Tag, unsigned N>
::testing::AssertionResult bits_eq(const aie::accum<Tag, N>& a,
                                   const aie::accum<Tag, N>& b) {
  using S = typename aie::accum<Tag, N>::storage;
  if (std::memcmp(a.data().data(), b.data().data(), sizeof(S) * N) == 0) {
    return ::testing::AssertionSuccess();
  }
  auto r = ::testing::AssertionFailure() << "accumulators differ:";
  for (unsigned i = 0; i < N; ++i) {
    if (std::memcmp(&a.data()[i], &b.data()[i], sizeof(S)) != 0) {
      r << " lane " << i << " (" << +a.get(i) << " vs " << +b.get(i) << ")";
    }
  }
  return r;
}

// ---------------------------------------------------------------------------
// mac_dot4: 4-deep int8 dot-product MAC into int32 lanes
// ---------------------------------------------------------------------------

/// base[l] + sum_{j<4} a[4l+j] * b[4l+j], summed exactly and truncated to
/// int32 once: the accumulator's two's-complement wrap.
template <unsigned N>
aie::vector<std::int32_t, N / 4> dot4_ref(
    const aie::vector<std::int32_t, N / 4>& base,
    const aie::vector<std::int8_t, N>& a,
    const aie::vector<std::int8_t, N>& b) {
  aie::vector<std::int32_t, N / 4> r;
  for (unsigned l = 0; l < N / 4; ++l) {
    std::int64_t s = base.get(l);
    for (unsigned j = 0; j < 4; ++j) {
      s += std::int64_t{a.get(4 * l + j)} * b.get(4 * l + j);
    }
    r.set(l, static_cast<std::int32_t>(s));
  }
  return r;
}

/// mac_dot4 on both backends, bit for bit against each other and against
/// dot4_ref.
template <unsigned N>
::testing::AssertionResult mac_dot4_matches(
    const aie::vector<std::int32_t, N / 4>& base,
    const aie::vector<std::int8_t, N>& a,
    const aie::vector<std::int8_t, N>& b) {
  const auto acc = aie::ups<aie::acc32_tag, Scalar>(base, 0);
  const auto rs = aie::mac_dot4<Scalar>(acc, a, b);
  const auto rn = aie::mac_dot4<Native>(acc, a, b);
  if (auto eq = bits_eq(rs, rn); !eq) return eq << " (scalar vs native)";
  const auto want =
      aie::ups<aie::acc32_tag, Scalar>(dot4_ref<N>(base, a, b), 0);
  if (auto eq = bits_eq(rs, want); !eq) return eq << " (scalar vs reference)";
  return ::testing::AssertionSuccess();
}

TEST(SimdMl, MacDot4MatchesLoopReference) {
  std::mt19937 rng(101);
  for (unsigned round = 0; round < kFuzzRounds; ++round) {
    auto a = random_int_vector<std::int8_t, 64>(rng);
    auto b = random_int_vector<std::int8_t, 64>(rng);
    if (round == 0) {
      // Worst-case magnitude: 4 * (-128 * -128) per lane group.
      for (unsigned i = 0; i < 64; ++i) {
        a.set(i, std::numeric_limits<std::int8_t>::min());
        b.set(i, std::numeric_limits<std::int8_t>::min());
      }
    }
    const auto base = random_int_vector<std::int32_t, 16>(rng);
    EXPECT_TRUE(mac_dot4_matches<64>(base, a, b)) << "round " << round;
  }

  // Mixed -128/127 operands, in a pattern whose 4-groups of b never sum to
  // 0: on AVX512-VNNI both the a ^ 0x80 bias and the 128 * sum(b) excess
  // it is corrected by show in every lane.
  aie::vector<std::int8_t, 64> a, b;
  for (unsigned i = 0; i < 64; ++i) {
    a.set(i, i % 3 == 0 ? std::int8_t{-128} : std::int8_t{127});
    b.set(i, (i + i / 4) % 3 == 0 ? std::int8_t{127} : std::int8_t{-128});
  }
  EXPECT_TRUE(mac_dot4_matches<64>(aie::vector<std::int32_t, 16>{}, a, b));

  // Accumulators at INT32_MAX under a positive dot product and INT32_MIN
  // under a negative one: every lane's sum wraps.
  aie::vector<std::int32_t, 16> edge;
  for (unsigned l = 0; l < 16; ++l) {
    const bool up = l % 2 == 0;
    edge.set(l, up ? std::numeric_limits<std::int32_t>::max()
                   : std::numeric_limits<std::int32_t>::min());
    for (unsigned j = 0; j < 4; ++j) {
      a.set(4 * l + j, -128);
      b.set(4 * l + j, up ? std::int8_t{-128} : std::int8_t{127});
    }
  }
  EXPECT_TRUE(mac_dot4_matches<64>(edge, a, b));

  // The shape apps::ml_gemm::mac_tile runs: 256 int8 lanes into 64
  // accumulator lanes (four zmms), extremes in the first round.
  for (unsigned round = 0; round < kFuzzRounds; ++round) {
    auto a256 = random_int_vector<std::int8_t, 256>(rng);
    const auto b256 = random_int_vector<std::int8_t, 256>(rng);
    auto base = random_int_vector<std::int32_t, 64>(rng);
    if (round == 0) {
      for (unsigned l = 0; l < 64; ++l) {
        base.set(l, l % 2 == 0 ? std::numeric_limits<std::int32_t>::max()
                               : std::numeric_limits<std::int32_t>::min());
        for (unsigned j = 0; j < 4; ++j) a256.set(4 * l + j, -128);
      }
    }
    EXPECT_TRUE(mac_dot4_matches<256>(base, a256, b256)) << "round " << round;
  }

  // Four accumulator lanes fill no zmm: the generic pair-sum path.
  for (unsigned round = 0; round < kFuzzRounds; ++round) {
    const auto a16 = random_int_vector<std::int8_t, 16>(rng);
    const auto b16 = random_int_vector<std::int8_t, 16>(rng);
    const auto base = random_int_vector<std::int32_t, 4>(rng);
    EXPECT_TRUE(mac_dot4_matches<16>(base, a16, b16)) << "round " << round;
  }
}

TEST(SimdMl, MulDot4Int16AndShortVectors) {
  std::mt19937 rng(202);
  for (unsigned round = 0; round < kFuzzRounds; ++round) {
    const auto a16 = random_int_vector<std::int16_t, 32>(rng);
    const auto b16 = random_int_vector<std::int16_t, 32>(rng);
    EXPECT_TRUE(bits_eq(aie::mul_dot4<Scalar>(a16, b16),
                        aie::mul_dot4<Native>(a16, b16)));
    const auto a8 = random_int_vector<std::int8_t, 16>(rng);
    const auto b8 = random_int_vector<std::int8_t, 16>(rng);
    EXPECT_TRUE(bits_eq(aie::mul_dot4<Scalar>(a8, b8),
                        aie::mul_dot4<Native>(a8, b8)));
  }
}

TEST(SimdMl, MacBroadcastInt32MatchesLoopReference) {
  std::mt19937 rng(303);
  for (unsigned round = 0; round < kFuzzRounds; ++round) {
    const auto a = random_int_vector<std::int8_t, 16>(rng);
    auto base = random_int_vector<std::int32_t, 16>(rng);
    const std::int32_t s =
        static_cast<std::int32_t>(rng() % 512) - 256;  // conv-tap range
    const auto acc = aie::ups<aie::acc32_tag, Scalar>(base, 0);
    const auto rs = aie::mac<Scalar>(acc, a, s);
    const auto rn = aie::mac<Native>(acc, a, s);
    EXPECT_TRUE(bits_eq(rs, rn));
    for (unsigned l = 0; l < 16; ++l) {
      EXPECT_EQ(rs.get(l),
                base.get(l) + s * static_cast<std::int32_t>(a.get(l)));
    }
  }
}

// ---------------------------------------------------------------------------
// srs32 / ups32: int32 accumulator moves, saturation edges
// ---------------------------------------------------------------------------

TEST(SimdMl, Srs32SaturationEdges) {
  constexpr std::int32_t kEdges[] = {
      std::numeric_limits<std::int32_t>::min(),
      std::numeric_limits<std::int32_t>::min() + 1,
      -129 << 7, -128 << 7, (-128 << 7) - 64, (-128 << 7) - 65,
      -1, 0, 1, 63, 64, 65,
      (127 << 7) + 63, (127 << 7) + 64, 128 << 7,
      std::numeric_limits<std::int32_t>::max() - 1,
  };
  aie::vector<std::int32_t, 16> v;
  for (unsigned i = 0; i < 16; ++i) v.set(i, kEdges[i]);
  for (const int shift : {0, 1, 2, 7, 15, 23, 30, 31, -1, -2}) {
    const auto acc = aie::ups<aie::acc32_tag, Scalar>(v, 0);
    const auto s8 = aie::srs<std::int8_t, Scalar>(acc, shift);
    const auto n8 = aie::srs<std::int8_t, Native>(acc, shift);
    EXPECT_TRUE(bits_eq(s8, n8)) << "shift " << shift;
    const auto s16 = aie::srs<std::int16_t, Scalar>(acc, shift);
    const auto n16 = aie::srs<std::int16_t, Native>(acc, shift);
    EXPECT_TRUE(bits_eq(s16, n16)) << "shift " << shift;
    const auto s32 = aie::srs<std::int32_t, Scalar>(acc, shift);
    const auto n32 = aie::srs<std::int32_t, Native>(acc, shift);
    EXPECT_TRUE(bits_eq(s32, n32)) << "shift " << shift;
    // Round-half-up + clamp reference on the int8 and int32 narrows.
    for (unsigned l = 0; l < 16; ++l) {
      std::int64_t r = static_cast<std::int64_t>(v.get(l));
      r = shift <= 0 ? (r << -shift) : ((r + (std::int64_t{1} << (shift - 1)))
                                        >> shift);
      EXPECT_EQ(s8.get(l), static_cast<std::int8_t>(
                               std::clamp<std::int64_t>(r, -128, 127)))
          << "shift " << shift << " lane " << l;
      EXPECT_EQ(s32.get(l), static_cast<std::int32_t>(std::clamp<std::int64_t>(
                                r, std::numeric_limits<std::int32_t>::min(),
                                std::numeric_limits<std::int32_t>::max())))
          << "shift " << shift << " lane " << l;
    }
  }
}

TEST(SimdMl, Srs32RoundingBiasCannotOverflow) {
  // INT32_MAX with shift 1: adding the rounding bias would overflow a
  // 32-bit lane. The scalar backend sums in 64 bits; the native one stays
  // in int32 lanes and never forms the sum, as (x >> 1) + (x & 1).
  // (2^31 - 1 + 1) >> 1 = 2^30.
  aie::vector<std::int32_t, 16> v;
  for (unsigned i = 0; i < 16; ++i) {
    v.set(i, std::numeric_limits<std::int32_t>::max());
  }
  const auto acc = aie::ups<aie::acc32_tag, Scalar>(v, 0);
  const auto s = aie::srs<std::int32_t, Scalar>(acc, 1);
  const auto n = aie::srs<std::int32_t, Native>(acc, 1);
  EXPECT_TRUE(bits_eq(s, n));
  EXPECT_EQ(s.get(0), std::int32_t{1} << 30);
}

TEST(SimdMl, Ups32RoundtripAndShift) {
  std::mt19937 rng(404);
  for (unsigned round = 0; round < kFuzzRounds; ++round) {
    const auto v8 = random_int_vector<std::int8_t, 16>(rng);
    for (const int sh : {0, 1, 8, 16}) {
      const auto as = aie::ups<aie::acc32_tag, Scalar>(v8, sh);
      const auto an = aie::ups<aie::acc32_tag, Native>(v8, sh);
      EXPECT_TRUE(bits_eq(as, an));
      for (unsigned l = 0; l < 16; ++l) {
        EXPECT_EQ(as.get(l), static_cast<std::int32_t>(v8.get(l)) << sh);
      }
      // srs undoes ups exactly for non-negative lanes scaled back down.
      const auto back = aie::srs<std::int8_t, Scalar>(as, sh);
      if (sh < 8) {
        for (unsigned l = 0; l < 16; ++l) {
          EXPECT_EQ(back.get(l), v8.get(l));
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// widening / saturating narrowing converts
// ---------------------------------------------------------------------------

TEST(SimdMl, UnpackWideningMatches) {
  std::mt19937 rng(505);
  for (unsigned round = 0; round < kFuzzRounds; ++round) {
    const auto v8 = random_int_vector<std::int8_t, 16>(rng);
    EXPECT_TRUE(bits_eq(aie::unpack<std::int32_t, Scalar>(v8),
                        aie::unpack<std::int32_t, Native>(v8)));
    EXPECT_TRUE(bits_eq(aie::unpack<std::int16_t, Scalar>(v8),
                        aie::unpack<std::int16_t, Native>(v8)));
    const auto v16 = random_int_vector<std::int16_t, 16>(rng);
    EXPECT_TRUE(bits_eq(aie::unpack<std::int32_t, Scalar>(v16),
                        aie::unpack<std::int32_t, Native>(v16)));
  }
}

template <class To, class From>
void check_pack_sat(unsigned seed) {
  std::mt19937 rng(seed);
  for (unsigned round = 0; round < kFuzzRounds; ++round) {
    auto v = random_int_vector<From, 16>(rng);
    if (round == 0) {
      v.set(0, std::numeric_limits<From>::min());
      v.set(1, std::numeric_limits<From>::max());
      v.set(2, static_cast<From>(std::numeric_limits<To>::min()) - From{1});
      v.set(3, static_cast<From>(std::numeric_limits<To>::max()) + From{1});
      v.set(4, static_cast<From>(std::numeric_limits<To>::min()));
      v.set(5, static_cast<From>(std::numeric_limits<To>::max()));
    }
    const auto s = aie::pack_sat<To, Scalar>(v);
    const auto n = aie::pack_sat<To, Native>(v);
    EXPECT_TRUE(bits_eq(s, n)) << "round " << round;
    for (unsigned l = 0; l < 16; ++l) {
      const auto c = std::clamp<std::int64_t>(
          v.get(l), std::numeric_limits<To>::min(),
          std::numeric_limits<To>::max());
      EXPECT_EQ(s.get(l), static_cast<To>(c)) << "lane " << l;
    }
  }
}

TEST(SimdMl, PackSatInt32ToInt8) { check_pack_sat<std::int8_t, std::int32_t>(606); }
TEST(SimdMl, PackSatInt32ToInt16) {
  check_pack_sat<std::int16_t, std::int32_t>(607);
}
TEST(SimdMl, PackSatInt16ToInt8) { check_pack_sat<std::int8_t, std::int16_t>(608); }

// ---------------------------------------------------------------------------
// bf16 converts: widen exact, narrow RNE, NaN quieting
// ---------------------------------------------------------------------------

aie::vector<aie::bf16, 16> bf16_vector(const std::array<std::uint16_t, 16>& u) {
  aie::vector<aie::bf16, 16> v;
  for (unsigned i = 0; i < 16; ++i) v.set(i, aie::bf16{u[i]});
  return v;
}

TEST(SimdMl, Bf16WidenIsExact) {
  std::mt19937 rng(707);
  for (unsigned round = 0; round < kFuzzRounds; ++round) {
    std::array<std::uint16_t, 16> u{};
    for (auto& x : u) x = static_cast<std::uint16_t>(rng());
    const auto v = bf16_vector(u);
    const auto fs = aie::to_float<Scalar>(v);
    const auto fn = aie::to_float<Native>(v);
    EXPECT_TRUE(bits_eq(fs, fn));
    for (unsigned l = 0; l < 16; ++l) {
      std::uint32_t w = static_cast<std::uint32_t>(u[l]) << 16;
      float f;
      std::memcpy(&f, &w, 4);
      std::uint32_t got;
      std::memcpy(&got, &fs.data()[l], 4);
      EXPECT_EQ(got, w) << "lane " << l;
      // Scalar helper agrees with the vector op bit for bit.
      std::uint32_t h;
      const float hf = aie::bf16_to_float(aie::bf16{u[l]});
      std::memcpy(&h, &hf, 4);
      EXPECT_EQ(h, w);
      (void)f;
    }
  }
}

TEST(SimdMl, Bf16NarrowRoundsToNearestEven) {
  // (upper16, guard/sticky pattern) -> expected bf16 bits.
  struct Case {
    std::uint32_t f32;
    std::uint16_t expect;
  };
  const Case cases[] = {
      {0x3f800000u, 0x3f80},  // 1.0 exact
      {0x3f808000u, 0x3f80},  // tie, round to even (down)
      {0x3f818000u, 0x3f82},  // tie, round to even (up)
      {0x3f808001u, 0x3f81},  // above tie, round up
      {0x3f80ffffu, 0x3f81},  // just below next, round up
      {0x3f800001u, 0x3f80},  // just above 1.0, round down
      {0x7f7fffffu, 0x7f80},  // FLT_MAX rounds up to inf
      {0x7f800000u, 0x7f80},  // +inf stays inf
      {0xff800000u, 0xff80},  // -inf stays -inf
      {0x80000000u, 0x8000},  // -0.0 keeps its sign
      {0x00000000u, 0x0000},  // +0.0
  };
  aie::vector<float, 16> v{};
  for (unsigned i = 0; i < std::size(cases); ++i) {
    float f;
    std::memcpy(&f, &cases[i].f32, 4);
    v.set(i, f);
  }
  const auto s = aie::to_bf16<Scalar>(v);
  const auto n = aie::to_bf16<Native>(v);
  EXPECT_TRUE(bits_eq(s, n));
  for (unsigned i = 0; i < std::size(cases); ++i) {
    EXPECT_EQ(s.get(i).bits, cases[i].expect)
        << "case " << i << " f32=0x" << std::hex << cases[i].f32;
  }
}

TEST(SimdMl, Bf16NarrowQuietsNaNs) {
  const std::uint32_t nans[] = {
      0x7f800001u,  // signaling NaN, minimal payload
      0x7fc00000u,  // quiet NaN
      0x7f80ffffu,  // signaling NaN, full payload
      0xffc12345u,  // negative quiet NaN with payload
      0xff800001u,  // negative signaling NaN
  };
  aie::vector<float, 16> v{};
  for (unsigned i = 0; i < std::size(nans); ++i) {
    float f;
    std::memcpy(&f, &nans[i], 4);
    v.set(i, f);
  }
  const auto s = aie::to_bf16<Scalar>(v);
  const auto n = aie::to_bf16<Native>(v);
  EXPECT_TRUE(bits_eq(s, n));
  for (unsigned i = 0; i < std::size(nans); ++i) {
    const bool is_nan = (nans[i] & 0x7fffffffu) > 0x7f800000u;
    if (!is_nan) continue;
    const std::uint16_t b = s.get(i).bits;
    EXPECT_GT(b & 0x7fffu, 0x7f80u) << "case " << i << " not NaN";
    EXPECT_TRUE(b & 0x0040u) << "case " << i << " not quiet";
  }
}

TEST(SimdMl, Bf16NarrowFullU32Fuzz) {
  std::mt19937 rng(808);
  for (unsigned round = 0; round < 4 * kFuzzRounds; ++round) {
    aie::vector<float, 16> v;
    for (unsigned i = 0; i < 16; ++i) {
      const std::uint32_t u = rng();
      float f;
      std::memcpy(&f, &u, 4);
      v.set(i, f);
    }
    const auto s = aie::to_bf16<Scalar>(v);
    const auto n = aie::to_bf16<Native>(v);
    EXPECT_TRUE(bits_eq(s, n)) << "round " << round;
  }
}

TEST(SimdMl, Bf16RoundtripThroughFloatIsIdentity) {
  // Every non-NaN bf16 widens exactly, so narrow(widen(x)) == x.
  for (std::uint32_t b = 0; b < 0x10000u; b += 16) {
    std::array<std::uint16_t, 16> u{};
    for (unsigned i = 0; i < 16; ++i) {
      u[i] = static_cast<std::uint16_t>(b + i);
    }
    const auto wide = aie::to_float<Scalar>(bf16_vector(u));
    const auto back = aie::to_bf16<Scalar>(wide);
    for (unsigned i = 0; i < 16; ++i) {
      const bool is_nan = (u[i] & 0x7fffu) > 0x7f80u;
      if (is_nan) continue;  // NaNs re-quiet; covered above
      EXPECT_EQ(back.get(i).bits, u[i]) << "bits 0x" << std::hex << u[i];
    }
  }
}

// ---------------------------------------------------------------------------
// exp2_neg_q15: endpoints, monotonicity, accuracy, backend equivalence
// ---------------------------------------------------------------------------

aie::vector<std::int32_t, 16> exp_inputs(const std::array<std::int32_t, 16>& u) {
  aie::vector<std::int32_t, 16> v;
  for (unsigned i = 0; i < 16; ++i) v.set(i, u[i]);
  return v;
}

TEST(SimdMl, Exp2NegQ15Endpoints) {
  const auto v = exp_inputs({0, 32768, 65536, 98304, 32768 * 15, -5, -100000,
                             1, 32767, 32769, 16384, 1 << 20, 1 << 25, 1 << 30,
                             std::numeric_limits<std::int32_t>::max(), 3});
  const auto s = aie::exp2_neg_q15<Scalar>(v);
  const auto n = aie::exp2_neg_q15<Native>(v);
  EXPECT_TRUE(bits_eq(s, n));
  EXPECT_EQ(s.get(0), 32768);  // 2^0 = 1.0
  EXPECT_EQ(s.get(1), 16384);  // 2^-1
  EXPECT_EQ(s.get(2), 8192);   // 2^-2
  EXPECT_EQ(s.get(3), 4096);   // 2^-3
  EXPECT_EQ(s.get(4), 1);      // 2^-15 in Q15
  EXPECT_EQ(s.get(5), 32768);  // negative input clamps to 1.0
  EXPECT_EQ(s.get(6), 32768);
  EXPECT_EQ(s.get(13), 0);  // deep underflow -> 0
  EXPECT_EQ(s.get(14), 0);  // INT32_MAX must not shift out of range (UB)
}

TEST(SimdMl, Exp2NegQ15MonotoneNonincreasing) {
  std::int32_t prev = 32769;
  for (std::int32_t u = 0; u <= (1 << 19); u += 37) {
    std::array<std::int32_t, 16> a{};
    for (unsigned i = 0; i < 16; ++i) a[i] = u + static_cast<std::int32_t>(i);
    const auto r = aie::exp2_neg_q15<Scalar>(exp_inputs(a));
    for (unsigned i = 0; i < 16; ++i) {
      EXPECT_LE(r.get(i), prev) << "u=" << (u + static_cast<std::int32_t>(i));
      prev = r.get(i);
    }
  }
}

TEST(SimdMl, Exp2NegQ15AccuracyVsLibm) {
  std::mt19937 rng(909);
  for (unsigned round = 0; round < 8 * kFuzzRounds; ++round) {
    std::array<std::int32_t, 16> a{};
    for (auto& x : a) {
      x = static_cast<std::int32_t>(rng() % (18u << 15));  // up to 2^-18
    }
    const auto v = exp_inputs(a);
    const auto s = aie::exp2_neg_q15<Scalar>(v);
    const auto n = aie::exp2_neg_q15<Native>(v);
    EXPECT_TRUE(bits_eq(s, n)) << "round " << round;
    for (unsigned l = 0; l < 16; ++l) {
      const double exact =
          std::exp2(-static_cast<double>(a[l]) / 32768.0) * 32768.0;
      EXPECT_NEAR(static_cast<double>(s.get(l)), exact, 12.0)
          << "u=" << a[l];
    }
  }
}

TEST(SimdMl, Exp2NegQ15FullRangeFuzzEquivalence) {
  std::mt19937 rng(1010);
  for (unsigned round = 0; round < 4 * kFuzzRounds; ++round) {
    aie::vector<std::int32_t, 16> v;
    for (unsigned i = 0; i < 16; ++i) {
      v.set(i, static_cast<std::int32_t>(rng()));  // full int32, sign included
    }
    const auto s = aie::exp2_neg_q15<Scalar>(v);
    const auto n = aie::exp2_neg_q15<Native>(v);
    EXPECT_TRUE(bits_eq(s, n)) << "round " << round;
  }
}

// ---------------------------------------------------------------------------
// instrumentation: the new ops record identical OpCounts on both backends
// ---------------------------------------------------------------------------

template <class B>
aie::OpCounts run_ml_op_mix(unsigned seed) {
  std::mt19937 rng(seed);
  const auto a8 = random_int_vector<std::int8_t, 64>(rng);
  const auto b8 = random_int_vector<std::int8_t, 64>(rng);
  const auto w = random_int_vector<std::int32_t, 16>(rng);
  aie::OpCounter cnt;
  {
    aie::ScopedCounter scoped{&cnt};
    auto acc = aie::mul_dot4<B>(a8, b8);
    acc = aie::mac_dot4<B>(acc, a8, b8);
    const auto narrowed = aie::srs<std::int8_t, B>(acc, 7);
    const auto widened = aie::ups<aie::acc32_tag, B>(narrowed, 0);
    const auto mixed = aie::mac<B>(widened, narrowed, std::int32_t{3});
    (void)aie::srs<std::int32_t, B>(mixed, 0);
    (void)aie::unpack<std::int32_t, B>(narrowed);
    (void)aie::pack_sat<std::int8_t, B>(w);
    const auto e = aie::exp2_neg_q15<B>(w);
    (void)e;
    aie::vector<float, 16> f{};
    for (unsigned i = 0; i < 16; ++i) f.set(i, static_cast<float>(i) * 0.5f);
    const auto bf = aie::to_bf16<B>(f);
    (void)aie::to_float<B>(bf);
  }
  return cnt.counts;
}

TEST(SimdMl, OpCountsIdenticalAcrossBackends) {
  const auto s = run_ml_op_mix<Scalar>(42);
  const auto n = run_ml_op_mix<Native>(42);
  EXPECT_EQ(s, n);
  EXPECT_GT(s[aie::OpClass::vector_mac], 0u);
  EXPECT_GT(s[aie::OpClass::vector_alu], 0u);
  EXPECT_GT(s[aie::OpClass::vector_shift], 0u);
}

}  // namespace

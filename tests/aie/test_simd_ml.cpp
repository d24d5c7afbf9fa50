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

/// Lanes of T in `Regs` host vector registers: at these widths an op whose
/// widest lane type is T runs on the native backend as one, two or four
/// register-wide pieces (simd.hpp, native_backend::kPiece).
template <class T, unsigned Regs>
constexpr unsigned kRegLanes = Regs * aie::simd::kRegBytes / sizeof(T);

/// f.template operator()<N>() at one, two and four registers of T, then at
/// the 64 lanes the conv2d and softmax kernels run.
template <class T, class F>
void at_registers_and_64(F f) {
  f.template operator()<kRegLanes<T, 1>>();
  f.template operator()<kRegLanes<T, 2>>();
  f.template operator()<kRegLanes<T, 4>>();
  f.template operator()<64>();
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
// the ML ops at one, two and four registers and at the kernels' 64 lanes
// ---------------------------------------------------------------------------

/// conv2d's tap: acc32 lanes += s * a[l], for any int32 s. Both backends
/// against the sum modulo 2^32.
template <class T, unsigned N>
void check_mac_bcast_acc32(unsigned seed) {
  SCOPED_TRACE(::testing::Message() << "N=" << N << " T=" << sizeof(T));
  std::mt19937 rng(seed);
  for (unsigned round = 0; round < kFuzzRounds; ++round) {
    const auto a = random_int_vector<T, N>(rng);
    const auto base = random_int_vector<std::int32_t, N>(rng);
    const auto s = round % 2 == 0
                       ? static_cast<std::int32_t>(rng() % 512) - 256
                       : static_cast<std::int32_t>(rng());
    const auto acc = aie::ups<aie::acc32_tag, Scalar>(base, 0);
    const auto rs = aie::mac<Scalar>(acc, a, s);
    EXPECT_TRUE(bits_eq(rs, aie::mac<Native>(acc, a, s))) << "round " << round;
    for (unsigned l = 0; l < N; ++l) {
      const auto want = static_cast<std::uint32_t>(base.get(l)) +
                        static_cast<std::uint32_t>(s) *
                            static_cast<std::uint32_t>(a.get(l));
      EXPECT_EQ(rs.get(l), static_cast<std::int32_t>(want)) << "lane " << l;
    }
  }
}

TEST(SimdMl, MacBroadcastInt32AtOneTwoFourRegisters) {
  at_registers_and_64<std::int32_t>([]<unsigned N>() {
    check_mac_bcast_acc32<std::int8_t, N>(2101);
    check_mac_bcast_acc32<std::int16_t, N>(2102);
  });
}

/// acc32 lanes near INT32_MAX and INT32_MIN take 127 * 100 and -128 * 100:
/// every lane's sum wraps, on both backends, to the exact sum truncated once.
template <unsigned N>
void check_mac_bcast_acc32_wraps() {
  SCOPED_TRACE(::testing::Message() << "N=" << N);
  aie::vector<std::int8_t, N> a;
  aie::vector<std::int32_t, N> base;
  for (unsigned l = 0; l < N; ++l) {
    const bool up = l % 2 == 0;
    a.set(l, up ? std::int8_t{127} : std::int8_t{-128});
    base.set(l, up ? std::numeric_limits<std::int32_t>::max() -
                         static_cast<std::int32_t>(l)
                   : std::numeric_limits<std::int32_t>::min() +
                         static_cast<std::int32_t>(l));
  }
  const auto acc = aie::ups<aie::acc32_tag, Scalar>(base, 0);
  const auto rs = aie::mac<Scalar>(acc, a, std::int32_t{100});
  EXPECT_TRUE(bits_eq(rs, aie::mac<Native>(acc, a, std::int32_t{100})));
  for (unsigned l = 0; l < N; ++l) {
    const std::int64_t exact = std::int64_t{base.get(l)} + 100 * a.get(l);
    EXPECT_EQ(rs.get(l), static_cast<std::int32_t>(exact)) << "lane " << l;
  }
}

TEST(SimdMl, MacBroadcastInt32Wraps) {
  check_mac_bcast_acc32_wraps<kRegLanes<std::int32_t, 1>>();
  check_mac_bcast_acc32_wraps<64>();
}

/// softmax's normalize: int32 lanes times an int32 scalar into int64
/// accumulator lanes, exact over the full range; then mac on top.
template <unsigned N>
void check_mul_scalar_i32(unsigned seed) {
  SCOPED_TRACE(::testing::Message() << "N=" << N);
  std::mt19937 rng(seed);
  for (unsigned round = 0; round < kFuzzRounds; ++round) {
    auto a = random_int_vector<std::int32_t, N>(rng);
    auto s = static_cast<std::int32_t>(rng());
    if (round == 0) {  // the largest product: INT32_MIN squared
      for (unsigned l = 0; l < N; ++l) {
        a.set(l, std::numeric_limits<std::int32_t>::min());
      }
      s = std::numeric_limits<std::int32_t>::min();
    }
    const auto ps = aie::mul<Scalar>(a, s);
    EXPECT_TRUE(bits_eq(ps, aie::mul<Native>(a, s))) << "round " << round;
    for (unsigned l = 0; l < N; ++l) {
      EXPECT_EQ(ps.get(l), std::int64_t{a.get(l)} * s) << "lane " << l;
    }
    const auto b = random_int_vector<std::int16_t, N>(rng);
    const auto t = static_cast<std::int16_t>(rng());
    EXPECT_TRUE(
        bits_eq(aie::mac<Scalar>(ps, b, t), aie::mac<Native>(ps, b, t)))
        << "round " << round;
  }
}

TEST(SimdMl, MulScalarInt32IntoInt64AtOneTwoFourRegisters) {
  at_registers_and_64<std::int64_t>(
      []<unsigned N>() { check_mul_scalar_i32<N>(2201); });
}

/// srs from int64 accumulator lanes to int8, int16 and int32, with lanes
/// that saturate both ways at every shift.
template <unsigned N>
void check_srs_from_i64(unsigned seed) {
  SCOPED_TRACE(::testing::Message() << "N=" << N);
  std::mt19937 rng(seed);
  for (unsigned round = 0; round < kFuzzRounds; ++round) {
    aie::acc48<N> acc;
    for (unsigned l = 0; l < N; ++l) {
      const auto raw = static_cast<std::int64_t>(
          (std::uint64_t{rng()} << 32) | rng());
      acc.set(l, raw >> (rng() % 40));  // magnitudes from 2^24 to 2^63
    }
    for (const int shift : {0, 1, 7, 23, 40, -1}) {
      const auto s8 = aie::srs<std::int8_t, Scalar>(acc, shift);
      const auto s16 = aie::srs<std::int16_t, Scalar>(acc, shift);
      const auto s32 = aie::srs<std::int32_t, Scalar>(acc, shift);
      EXPECT_TRUE(bits_eq(s8, aie::srs<std::int8_t, Native>(acc, shift)))
          << "shift " << shift;
      EXPECT_TRUE(bits_eq(s16, aie::srs<std::int16_t, Native>(acc, shift)))
          << "shift " << shift;
      EXPECT_TRUE(bits_eq(s32, aie::srs<std::int32_t, Native>(acc, shift)))
          << "shift " << shift;
      for (unsigned l = 0; l < N; ++l) {
        if (shift < 0) continue;  // a left shift of these lanes overflows
        const auto r = aie::simd::detail::shift_round(acc.get(l), shift);
        EXPECT_EQ(s8.get(l), aie::simd::detail::saturate_i64<std::int8_t>(r));
        EXPECT_EQ(s32.get(l),
                  aie::simd::detail::saturate_i64<std::int32_t>(r));
      }
    }
  }
}

TEST(SimdMl, SrsFromInt64AtOneTwoFourRegisters) {
  at_registers_and_64<std::int64_t>(
      []<unsigned N>() { check_srs_from_i64<N>(2301); });
}

/// srs from acc32 lanes (round-half-up, both clamps, the int64 detour for
/// shifts outside 0..31) and ups back into acc32.
template <unsigned N>
void check_srs32_ups32(unsigned seed) {
  SCOPED_TRACE(::testing::Message() << "N=" << N);
  std::mt19937 rng(seed);
  for (unsigned round = 0; round < kFuzzRounds; ++round) {
    const auto v = random_int_vector<std::int32_t, N>(rng);
    const auto acc = aie::ups<aie::acc32_tag, Scalar>(v, 0);
    for (const int shift : {0, 1, 7, 31, 33, -1}) {
      EXPECT_TRUE(bits_eq(aie::srs<std::int8_t, Scalar>(acc, shift),
                          aie::srs<std::int8_t, Native>(acc, shift)))
          << "shift " << shift;
      EXPECT_TRUE(bits_eq(aie::srs<std::int16_t, Scalar>(acc, shift),
                          aie::srs<std::int16_t, Native>(acc, shift)))
          << "shift " << shift;
      EXPECT_TRUE(bits_eq(aie::srs<std::int32_t, Scalar>(acc, shift),
                          aie::srs<std::int32_t, Native>(acc, shift)))
          << "shift " << shift;
    }
    const auto v8 = random_int_vector<std::int8_t, N>(rng);
    const auto v16 = random_int_vector<std::int16_t, N>(rng);
    for (const int sh : {0, 7, 16}) {
      EXPECT_TRUE(bits_eq(aie::ups<aie::acc32_tag, Scalar>(v8, sh),
                          aie::ups<aie::acc32_tag, Native>(v8, sh)));
      EXPECT_TRUE(bits_eq(aie::ups<aie::acc32_tag, Scalar>(v16, sh),
                          aie::ups<aie::acc32_tag, Native>(v16, sh)));
    }
  }
}

TEST(SimdMl, Srs32Ups32AtOneTwoFourRegisters) {
  at_registers_and_64<std::int32_t>(
      []<unsigned N>() { check_srs32_ups32<N>(2401); });
}

/// unpack, pack_sat, the bf16 converts and exp2_neg_q15 at N lanes.
template <unsigned N>
void check_ml_converts(unsigned seed) {
  SCOPED_TRACE(::testing::Message() << "N=" << N);
  std::mt19937 rng(seed);
  for (unsigned round = 0; round < kFuzzRounds; ++round) {
    const auto v8 = random_int_vector<std::int8_t, N>(rng);
    const auto v16 = random_int_vector<std::int16_t, N>(rng);
    const auto v32 = random_int_vector<std::int32_t, N>(rng);
    EXPECT_TRUE(bits_eq(aie::unpack<std::int32_t, Scalar>(v8),
                        aie::unpack<std::int32_t, Native>(v8)));
    EXPECT_TRUE(bits_eq(aie::unpack<std::int32_t, Scalar>(v16),
                        aie::unpack<std::int32_t, Native>(v16)));
    EXPECT_TRUE(bits_eq(aie::pack_sat<std::int8_t, Scalar>(v32),
                        aie::pack_sat<std::int8_t, Native>(v32)));
    EXPECT_TRUE(bits_eq(aie::pack_sat<std::int16_t, Scalar>(v32),
                        aie::pack_sat<std::int16_t, Native>(v32)));
    EXPECT_TRUE(bits_eq(aie::pack_sat<std::int8_t, Scalar>(v16),
                        aie::pack_sat<std::int8_t, Native>(v16)));
    EXPECT_TRUE(bits_eq(aie::exp2_neg_q15<Scalar>(v32),
                        aie::exp2_neg_q15<Native>(v32)));
    aie::vector<aie::bf16, N> bf;
    aie::vector<float, N> f;
    for (unsigned l = 0; l < N; ++l) {
      bf.set(l, aie::bf16{static_cast<std::uint16_t>(rng())});
      const auto bits = static_cast<std::uint32_t>(rng());
      float x;
      std::memcpy(&x, &bits, sizeof x);
      f.set(l, x);
    }
    EXPECT_TRUE(bits_eq(aie::to_float<Scalar>(bf), aie::to_float<Native>(bf)));
    EXPECT_TRUE(bits_eq(aie::to_bf16<Scalar>(f), aie::to_bf16<Native>(f)));
  }
}

TEST(SimdMl, ConvertsAndExpAtOneTwoFourRegisters) {
  at_registers_and_64<std::int32_t>(
      []<unsigned N>() { check_ml_converts<N>(2501); });
  at_registers_and_64<std::int16_t>(
      []<unsigned N>() { check_ml_converts<N>(2502); });
}

/// mac_dot4 splits by output lanes: one piece is the output lanes whose
/// 4-lane input groups fill one register.
TEST(SimdMl, MacDot4AtOneTwoFourPieces) {
  std::mt19937 rng(2601);
  const auto int8_at = [&]<unsigned Out>() {
    for (unsigned round = 0; round < kFuzzRounds; ++round) {
      const auto a = random_int_vector<std::int8_t, 4 * Out>(rng);
      const auto b = random_int_vector<std::int8_t, 4 * Out>(rng);
      const auto base = random_int_vector<std::int32_t, Out>(rng);
      EXPECT_TRUE(mac_dot4_matches<4 * Out>(base, a, b))
          << "Out=" << Out << " round " << round;
    }
  };
  int8_at.template operator()<kRegLanes<std::int32_t, 1>>();
  int8_at.template operator()<kRegLanes<std::int32_t, 2>>();
  int8_at.template operator()<kRegLanes<std::int32_t, 4>>();
  const auto int16_at = [&]<unsigned Out>() {
    for (unsigned round = 0; round < kFuzzRounds; ++round) {
      const auto a = random_int_vector<std::int16_t, 4 * Out>(rng);
      const auto b = random_int_vector<std::int16_t, 4 * Out>(rng);
      const auto acc = aie::mul_dot4<Scalar>(a, b);
      EXPECT_TRUE(bits_eq(acc, aie::mul_dot4<Native>(a, b)))
          << "Out=" << Out << " round " << round;
      EXPECT_TRUE(bits_eq(aie::mac_dot4<Scalar>(acc, b, a),
                          aie::mac_dot4<Native>(acc, b, a)))
          << "Out=" << Out << " round " << round;
    }
  };
  int16_at.template operator()<kRegLanes<std::int64_t, 1>>();
  int16_at.template operator()<kRegLanes<std::int64_t, 2>>();
  int16_at.template operator()<kRegLanes<std::int64_t, 4>>();
}

// The reductions, compares and select at the 64 lanes softmax runs:
// integer sums over full-range lanes wrap, float sums keep the sequential
// order.
TEST(SimdMl, ReductionsCompareSelectAt64Lanes) {
  std::mt19937 rng(2701);
  for (unsigned round = 0; round < kFuzzRounds; ++round) {
    const auto e = random_int_vector<std::int32_t, 64>(rng);
    std::uint32_t sum = 0;
    for (unsigned l = 0; l < 64; ++l) {
      sum += static_cast<std::uint32_t>(e.get(l));
    }
    EXPECT_EQ(aie::reduce_add<Scalar>(e), static_cast<std::int32_t>(sum));
    EXPECT_EQ(aie::reduce_add<Native>(e), static_cast<std::int32_t>(sum));
    EXPECT_EQ(aie::reduce_min<Scalar>(e), aie::reduce_min<Native>(e));
    EXPECT_EQ(aie::reduce_max<Scalar>(e), aie::reduce_max<Native>(e));
    const auto x = random_int_vector<std::int8_t, 64>(rng);
    EXPECT_EQ(aie::reduce_max<Scalar>(x), aie::reduce_max<Native>(x));
    EXPECT_EQ(aie::reduce_add<Scalar>(x), aie::reduce_add<Native>(x));

    aie::vector<float, 64> f, g;
    for (unsigned l = 0; l < 64; ++l) {
      f.set(l, static_cast<float>(static_cast<std::int32_t>(rng())) * 1e-3f);
      g.set(l, static_cast<float>(static_cast<std::int32_t>(rng())) * 1e-3f);
    }
    const float fs = aie::reduce_add<Scalar>(f);
    const float fn = aie::reduce_add<Native>(f);
    EXPECT_EQ(0, std::memcmp(&fs, &fn, sizeof fs)) << "round " << round;
    EXPECT_EQ(aie::reduce_max<Scalar>(f), aie::reduce_max<Native>(f));

    const auto y = random_int_vector<std::int32_t, 64>(rng);
    const auto m32 = aie::lt<Scalar>(e, y);
    EXPECT_EQ(m32, aie::lt<Native>(e, y));
    EXPECT_EQ(aie::ge<Scalar>(e, y), aie::ge<Native>(e, y));
    EXPECT_TRUE(bits_eq(aie::select<Scalar>(e, y, m32),
                        aie::select<Native>(e, y, m32)));
    const auto mf = aie::ge<Scalar>(f, g);
    EXPECT_EQ(mf, aie::ge<Native>(f, g));
    EXPECT_EQ(aie::lt<Scalar>(f, g), aie::lt<Native>(f, g));
    EXPECT_TRUE(bits_eq(aie::select<Scalar>(f, g, mf),
                        aie::select<Native>(f, g, mf)));
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

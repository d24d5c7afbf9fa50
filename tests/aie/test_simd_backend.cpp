// Property / fuzz tests for the SIMD execution backends (src/aie/simd.hpp):
// every emulated intrinsic must produce bit-identical results on the
// scalar_backend (per-lane reference loops) and the native_backend (vector
// extensions), including the saturation / rounding / overflow corners and
// the permutation index edge cases. Also pins down the instrumentation
// invariants: OpCounts are byte-identical across backends, and the batched
// recording paths (ScopedCounterBatch, the IIR per-window scalar batch)
// count exactly what the per-element form counted.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <typeinfo>

#include "aie/aie.hpp"
#include "apps/bilinear.hpp"
#include "apps/bitonic.hpp"
#include "apps/farrow.hpp"
#include "apps/iir.hpp"

namespace {

using Scalar = aie::simd::scalar_backend;
using Native = aie::simd::native_backend;

// ---------------------------------------------------------------------------
// helpers
// ---------------------------------------------------------------------------

template <class T>
T random_lane(std::mt19937& rng, bool full_range) {
  if constexpr (std::is_floating_point_v<T>) {
    if (!full_range) {
      // Finite-only: NaNs *generated* by float arithmetic (inf - inf,
      // 0 * inf) carry payload/sign bits that depend on how the compiler
      // schedules the operands, so the MAC-family fuzz sticks to numbers.
      // NaN *propagation* through min/max/select is covered by the
      // full-range element-wise fuzz, where it is well-defined.
      std::uniform_real_distribution<T> dist(T(-1e6), T(1e6));
      return dist(rng);
    }
    // Mostly finite values, with the order-sensitive specials mixed in.
    switch (rng() % 16) {
      case 0: return T(0.0);
      case 1: return T(-0.0);
      case 2: return std::numeric_limits<T>::quiet_NaN();
      case 3: return std::numeric_limits<T>::infinity();
      case 4: return -std::numeric_limits<T>::infinity();
      case 5: return std::numeric_limits<T>::denorm_min();
      default: {
        std::uniform_real_distribution<T> dist(T(-1e6), T(1e6));
        return dist(rng);
      }
    }
  } else {
    const auto raw = static_cast<std::int64_t>(rng()) -
                     static_cast<std::int64_t>(1u << 31);
    if (full_range) return static_cast<T>(raw);
    // MAC-safe range: keeps int64 accumulation far from overflow even for
    // 32-bit lanes (products stay below 2^40).
    return static_cast<T>(raw % (std::int64_t{1} << 20));
  }
}

template <class T, unsigned N>
aie::vector<T, N> random_vector(std::mt19937& rng, bool full_range = true) {
  aie::vector<T, N> v;
  for (unsigned i = 0; i < N; ++i) v.set(i, random_lane<T>(rng, full_range));
  return v;
}

/// Integer lanes over T's whole range (int64 included), about one lane in
/// five at an extreme; float lanes as random_lane's full range.
template <class T, unsigned N>
aie::vector<T, N> full_range_vector(std::mt19937& rng) {
  aie::vector<T, N> v;
  for (unsigned i = 0; i < N; ++i) {
    if constexpr (std::is_integral_v<T>) {
      const std::uint64_t bits = (std::uint64_t{rng()} << 32) | rng();
      switch (rng() % 10) {
        case 0: v.set(i, std::numeric_limits<T>::min()); break;
        case 1: v.set(i, std::numeric_limits<T>::max()); break;
        default: v.set(i, static_cast<T>(bits));
      }
    } else {
      v.set(i, random_lane<T>(rng, true));
    }
  }
  return v;
}

/// Lanes of T in `Regs` host vector registers. The native backend runs an
/// op on more lanes than one register holds as a loop over register-wide
/// pieces (simd.hpp, native_backend::kPiece); at these widths an op whose
/// widest lane type is T runs as one, two or four pieces.
template <class T, unsigned Regs>
constexpr unsigned kRegLanes = Regs * aie::simd::kRegBytes / sizeof(T);

/// f.template operator()<N>() at one, two and four registers of T.
template <class T, class F>
void at_registers(F f) {
  f.template operator()<kRegLanes<T, 1>>();
  f.template operator()<kRegLanes<T, 2>>();
  f.template operator()<kRegLanes<T, 4>>();
}

/// Bit-exact comparison (NaN payloads and -0.0 included).
template <class T, unsigned N>
::testing::AssertionResult bits_eq(const aie::vector<T, N>& a,
                                   const aie::vector<T, N>& b) {
  if (std::memcmp(a.data().data(), b.data().data(), sizeof(T) * N) == 0) {
    return ::testing::AssertionSuccess();
  }
  auto r = ::testing::AssertionFailure() << "vectors differ:";
  for (unsigned i = 0; i < N; ++i) {
    if (std::memcmp(&a.data()[i], &b.data()[i], sizeof(T)) != 0) {
      r << " lane " << i << " (" << +a.get(i) << " vs " << +b.get(i) << ")";
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

constexpr unsigned kFuzzRounds = 50;

// ---------------------------------------------------------------------------
// element-wise / compare / shuffle equivalence over the full type matrix
// ---------------------------------------------------------------------------

template <class T, unsigned N>
void check_elementwise(unsigned seed) {
  SCOPED_TRACE(::testing::Message() << "T=" << typeid(T).name() << " N=" << N);
  std::mt19937 rng(seed);
  for (unsigned round = 0; round < kFuzzRounds; ++round) {
    const auto a = random_vector<T, N>(rng);
    const auto b = random_vector<T, N>(rng);

    EXPECT_TRUE(bits_eq(aie::add<Scalar>(a, b), aie::add<Native>(a, b)));
    EXPECT_TRUE(bits_eq(aie::sub<Scalar>(a, b), aie::sub<Native>(a, b)));
    EXPECT_TRUE(bits_eq(aie::neg<Scalar>(a), aie::neg<Native>(a)));
    EXPECT_TRUE(bits_eq(aie::abs<Scalar>(a), aie::abs<Native>(a)));
    EXPECT_TRUE(bits_eq(aie::min<Scalar>(a, b), aie::min<Native>(a, b)));
    EXPECT_TRUE(bits_eq(aie::max<Scalar>(a, b), aie::max<Native>(a, b)));

    T lo = random_lane<T>(rng, true);
    T hi = random_lane<T>(rng, true);
    if constexpr (std::is_floating_point_v<T>) {
      // std::clamp requires an ordered (non-NaN) range.
      if (std::isnan(lo)) lo = T(-1);
      if (std::isnan(hi)) hi = T(1);
    }
    if (hi < lo) std::swap(lo, hi);
    EXPECT_TRUE(
        bits_eq(aie::clamp<Scalar>(a, lo, hi), aie::clamp<Native>(a, lo, hi)));

    const T s = random_lane<T>(rng, true);
    EXPECT_TRUE(bits_eq(aie::broadcast<T, N, Scalar>(s),
                        aie::broadcast<T, N, Native>(s)));
    EXPECT_TRUE(bits_eq((aie::iota<T, N, Scalar>(s, T{3})),
                        (aie::iota<T, N, Native>(s, T{3}))));

    // Compares and select must agree on every lane pattern they produce.
    const auto mlt_s = aie::lt<Scalar>(a, b);
    const auto mlt_n = aie::lt<Native>(a, b);
    EXPECT_EQ(mlt_s, mlt_n);
    const auto mge_s = aie::ge<Scalar>(a, b);
    EXPECT_EQ(mge_s, aie::ge<Native>(a, b));
    EXPECT_TRUE(bits_eq(aie::select<Scalar>(a, b, mlt_s),
                        aie::select<Native>(a, b, mlt_n)));

    // Lane permutations, including rotations beyond N (wrap semantics).
    for (unsigned n : {0u, 1u, N / 2, N - 1, N, N + 3, 7 * N + 5}) {
      EXPECT_TRUE(bits_eq(aie::shuffle_down<Scalar>(a, n),
                          aie::shuffle_down<Native>(a, n)));
      EXPECT_TRUE(bits_eq(aie::shuffle_up<Scalar>(a, n),
                          aie::shuffle_up<Native>(a, n)));
    }
    EXPECT_TRUE(bits_eq(aie::reverse<Scalar>(a), aie::reverse<Native>(a)));
    for (unsigned stride : {1u, 2u, N / 2, N - 1, N + 1}) {
      EXPECT_TRUE(bits_eq(aie::butterfly<Scalar>(a, stride),
                          aie::butterfly<Native>(a, stride)));
    }

    // Arbitrary gather with hostile indices: negative and far out of range
    // (both reduce modulo N).
    aie::vector<std::int32_t, N> idx;
    for (unsigned i = 0; i < N; ++i) {
      const std::int32_t raw = static_cast<std::int32_t>(rng());
      idx.set(i, raw % 5 == 0 ? -static_cast<std::int32_t>(i + 1)
                              : raw % (3 * static_cast<std::int32_t>(N) + 7));
    }
    EXPECT_TRUE(
        bits_eq(aie::permute<Scalar>(a, idx), aie::permute<Native>(a, idx)));

    const auto zip_s = aie::interleave_zip<Scalar>(a, b);
    const auto zip_n = aie::interleave_zip<Native>(a, b);
    EXPECT_TRUE(bits_eq(zip_s.first, zip_n.first));
    EXPECT_TRUE(bits_eq(zip_s.second, zip_n.second));
    const auto unzip_s = aie::interleave_unzip<Scalar>(a, b);
    const auto unzip_n = aie::interleave_unzip<Native>(a, b);
    EXPECT_TRUE(bits_eq(unzip_s.first, unzip_n.first));
    EXPECT_TRUE(bits_eq(unzip_s.second, unzip_n.second));
    EXPECT_TRUE(
        bits_eq(aie::filter_even<Scalar>(a), aie::filter_even<Native>(a)));
    EXPECT_TRUE(
        bits_eq(aie::filter_odd<Scalar>(a), aie::filter_odd<Native>(a)));
  }
}

/// A broadcast copies the bit pattern into every lane on both backends.
template <class T, unsigned N>
void check_broadcast_bits(T s) {
  SCOPED_TRACE(::testing::Message() << "T=" << typeid(T).name() << " N=" << N);
  const auto want = aie::broadcast<T, N, Scalar>(s);
  const auto got = aie::broadcast<T, N, Native>(s);
  EXPECT_TRUE(bits_eq(want, got));
  for (unsigned i = 0; i < N; ++i) {
    EXPECT_EQ(0, std::memcmp(&got.data()[i], &s, sizeof(T))) << "lane " << i;
  }
}

template <class T>
void check_broadcast_bits_all_widths(T s) {
  check_broadcast_bits<T, 8>(s);
  check_broadcast_bits<T, 16>(s);
  check_broadcast_bits<T, 32>(s);
  check_broadcast_bits<T, 64>(s);
}

/// select against its definition: all 256 masks at N = 8, random masks at
/// wider N.
template <class T, unsigned N>
void check_select_masks(unsigned seed) {
  SCOPED_TRACE(::testing::Message() << "T=" << typeid(T).name() << " N=" << N);
  std::mt19937 rng(seed);
  const auto a = random_vector<T, N>(rng);
  const auto b = random_vector<T, N>(rng);
  const unsigned rounds = N == 8 ? 256 : 64;
  for (unsigned r = 0; r < rounds; ++r) {
    aie::mask<N> m;
    for (unsigned i = 0; i < N; ++i) {
      m.set(i, N == 8 ? ((r >> i) & 1u) != 0 : (rng() & 1u) != 0);
    }
    const auto want = aie::select<Scalar>(a, b, m);
    EXPECT_TRUE(bits_eq(want, aie::select<Native>(a, b, m))) << "mask " << r;
    for (unsigned i = 0; i < N; ++i) {
      const T& pick = m.get(i) ? a.data()[i] : b.data()[i];
      EXPECT_EQ(0, std::memcmp(&want.data()[i], &pick, sizeof(T)));
    }
  }
}

template <class T>
void check_select_masks_all_widths(unsigned seed) {
  check_select_masks<T, 8>(seed);
  check_select_masks<T, 16>(seed + 1);
  check_select_masks<T, 32>(seed + 2);
  check_select_masks<T, 64>(seed + 3);
}

TEST(SimdBackend, ElementwiseEquivalenceAllTypes) {
  check_elementwise<std::int8_t, 8>(11);
  check_elementwise<std::int8_t, 16>(12);
  check_elementwise<std::int8_t, 32>(13);
  check_elementwise<std::int16_t, 8>(21);
  check_elementwise<std::int16_t, 16>(22);
  check_elementwise<std::int16_t, 32>(23);
  check_elementwise<std::int32_t, 8>(31);
  check_elementwise<std::int32_t, 16>(32);
  check_elementwise<std::int32_t, 32>(33);
  check_elementwise<float, 8>(41);
  check_elementwise<float, 16>(42);
  check_elementwise<float, 32>(43);

  // Broadcasts of patterns a lossy splat would change: -0.0, NaNs with
  // payloads (quiet and signalling), denormals, and integer minima.
  for (const std::uint32_t bits :
       {0x80000000u, 0x7fc12345u, 0xff812345u, 0x00000001u, 0x807fffffu}) {
    check_broadcast_bits_all_widths(std::bit_cast<float>(bits));
  }
  check_broadcast_bits_all_widths(std::numeric_limits<std::int8_t>::min());
  check_broadcast_bits_all_widths(std::numeric_limits<std::int16_t>::min());
  check_broadcast_bits_all_widths(std::numeric_limits<std::int32_t>::min());
  check_broadcast_bits_all_widths(std::numeric_limits<std::int64_t>::min());

  // select at every lane width.
  check_select_masks_all_widths<std::int8_t>(14);
  check_select_masks_all_widths<std::int16_t>(24);
  check_select_masks_all_widths<std::int32_t>(34);
  check_select_masks_all_widths<std::int64_t>(54);
  check_select_masks_all_widths<float>(44);
}

// ---------------------------------------------------------------------------
// reductions (sequential order must match exactly, floats included)
// ---------------------------------------------------------------------------

template <class T, unsigned N>
void check_reductions(unsigned seed) {
  std::mt19937 rng(seed);
  for (unsigned round = 0; round < kFuzzRounds; ++round) {
    const auto a = random_vector<T, N>(rng, /*full_range=*/false);
    const T add_s = aie::reduce_add<Scalar>(a);
    const T add_n = aie::reduce_add<Native>(a);
    EXPECT_EQ(0, std::memcmp(&add_s, &add_n, sizeof(T)));
    EXPECT_EQ(aie::reduce_min<Scalar>(a), aie::reduce_min<Native>(a));
    EXPECT_EQ(aie::reduce_max<Scalar>(a), aie::reduce_max<Native>(a));
  }
}

/// Integer reductions over full-range lanes, where the sums wrap: both
/// backends against the sum modulo 2^|T| and std::min/max_element.
template <class T, unsigned N>
void check_reductions_full_range(unsigned seed) {
  SCOPED_TRACE(::testing::Message() << "T=" << typeid(T).name() << " N=" << N);
  using U = std::make_unsigned_t<T>;
  std::mt19937 rng(seed);
  for (unsigned round = 0; round < kFuzzRounds; ++round) {
    auto a = full_range_vector<T, N>(rng);
    if (round < 2) {  // every partial sum past the first lane overflows
      for (unsigned i = 0; i < N; ++i) {
        a.set(i, round == 0 ? std::numeric_limits<T>::max()
                            : std::numeric_limits<T>::min());
      }
    }
    U sum = 0;
    for (unsigned i = 0; i < N; ++i) sum = static_cast<U>(sum + U(a.get(i)));
    const T add_s = aie::reduce_add<Scalar>(a);
    EXPECT_EQ(add_s, static_cast<T>(sum)) << "round " << round;
    EXPECT_EQ(add_s, aie::reduce_add<Native>(a)) << "round " << round;
    const auto& lanes = a.data();
    EXPECT_EQ(aie::reduce_min<Scalar>(a),
              *std::min_element(lanes.begin(), lanes.end()));
    EXPECT_EQ(aie::reduce_min<Native>(a),
              *std::min_element(lanes.begin(), lanes.end()));
    EXPECT_EQ(aie::reduce_max<Scalar>(a),
              *std::max_element(lanes.begin(), lanes.end()));
    EXPECT_EQ(aie::reduce_max<Native>(a),
              *std::max_element(lanes.begin(), lanes.end()));
  }
}

TEST(SimdBackend, ReductionEquivalence) {
  check_reductions<std::int16_t, 16>(51);
  check_reductions<std::int32_t, 8>(52);
  check_reductions<float, 8>(53);
  check_reductions<float, 32>(54);
  // Full range: the integer sums wrap on both backends.
  check_reductions_full_range<std::int32_t, 64>(55);
  check_reductions_full_range<std::int64_t, 16>(56);
}

// ---------------------------------------------------------------------------
// MAC family: widening accumulation, scalar broadcasts, float accumulators
// ---------------------------------------------------------------------------

template <class T, unsigned N>
void check_mul_mac(unsigned seed) {
  SCOPED_TRACE(::testing::Message() << "T=" << typeid(T).name() << " N=" << N);
  std::mt19937 rng(seed);
  for (unsigned round = 0; round < kFuzzRounds; ++round) {
    const auto a = random_vector<T, N>(rng, /*full_range=*/false);
    const auto b = random_vector<T, N>(rng, /*full_range=*/false);
    const auto c = random_vector<T, N>(rng, /*full_range=*/false);

    const auto acc_s = aie::mul<Scalar>(a, b);
    const auto acc_n = aie::mul<Native>(a, b);
    EXPECT_TRUE(bits_eq(acc_s, acc_n));
    EXPECT_TRUE(bits_eq(aie::mac<Scalar>(acc_s, b, c),
                        aie::mac<Native>(acc_n, b, c)));
    EXPECT_TRUE(bits_eq(aie::msc<Scalar>(acc_s, b, c),
                        aie::msc<Native>(acc_n, b, c)));

    const T s = random_lane<T>(rng, false);
    EXPECT_TRUE(bits_eq(aie::mul<Scalar>(a, s), aie::mul<Native>(a, s)));
    EXPECT_TRUE(
        bits_eq(aie::mac<Scalar>(acc_s, a, s), aie::mac<Native>(acc_n, a, s)));
  }
}

/// Lanes cycling through T's extremes and their neighbours, with a
/// rotation so that two such vectors pair different extremes.
template <class T, unsigned N>
aie::vector<T, N> extreme_vector(unsigned rotate) {
  constexpr T lo = std::numeric_limits<T>::min();
  constexpr T hi = std::numeric_limits<T>::max();
  constexpr T near_zero = std::is_signed_v<T> ? T(-1) : T(1);
  const std::array<T, 6> pattern = {lo, hi, static_cast<T>(lo + 1),
                                    static_cast<T>(hi - 1), T{0}, near_zero};
  aie::vector<T, N> v;
  for (unsigned i = 0; i < N; ++i) {
    v.set(i, pattern[(i + rotate) % pattern.size()]);
  }
  return v;
}

/// The widening MACs with 8/16-bit lanes at their extremes: exact in the
/// accumulator lanes on both backends (the 32-bit product shortcuts must
/// not overflow).
template <class T, unsigned N>
void check_mac_extremes() {
  SCOPED_TRACE(::testing::Message() << "T=" << typeid(T).name() << " N=" << N);
  for (unsigned r = 0; r < 6; ++r) {
    const auto a = extreme_vector<T, N>(0);
    const auto b = extreme_vector<T, N>(r);
    const auto acc_s = aie::mul<Scalar>(a, b);
    const auto acc_n = aie::mul<Native>(a, b);
    EXPECT_TRUE(bits_eq(acc_s, acc_n)) << "rotation " << r;
    for (unsigned i = 0; i < N; ++i) {
      EXPECT_EQ(acc_s.get(i), std::int64_t{a.get(i)} * std::int64_t{b.get(i)});
    }
    EXPECT_TRUE(bits_eq(aie::mac<Scalar>(acc_s, a, b),
                        aie::mac<Native>(acc_n, a, b)));
    EXPECT_TRUE(bits_eq(aie::msc<Scalar>(acc_s, a, b),
                        aie::msc<Native>(acc_n, a, b)));
    const T s = b.get(0);
    EXPECT_TRUE(bits_eq(aie::mul<Scalar>(a, s), aie::mul<Native>(a, s)));
    EXPECT_TRUE(bits_eq(aie::mac<Scalar>(acc_s, a, s),
                        aie::mac<Native>(acc_n, a, s)));
    // Broadcast-scalar MAC into int32 lanes (products kept inside int32).
    for (const std::int32_t c : {-1, 1, 3}) {
      EXPECT_TRUE(bits_eq(aie::mac<Scalar>(aie::acc32<N>{}, a, c),
                          aie::mac<Native>(aie::acc32<N>{}, a, c)));
    }
  }
}

TEST(SimdBackend, MulMacEquivalence) {
  check_mul_mac<std::int8_t, 16>(61);
  check_mul_mac<std::int16_t, 8>(62);
  check_mul_mac<std::int16_t, 16>(63);
  check_mul_mac<std::int32_t, 8>(64);
  check_mul_mac<float, 8>(65);
  check_mul_mac<float, 16>(66);

  check_mac_extremes<std::int8_t, 8>();
  check_mac_extremes<std::int8_t, 16>();
  check_mac_extremes<std::int8_t, 32>();
  check_mac_extremes<std::uint8_t, 8>();
  check_mac_extremes<std::uint8_t, 16>();
  check_mac_extremes<std::uint8_t, 32>();
  check_mac_extremes<std::int16_t, 8>();
  check_mac_extremes<std::int16_t, 16>();
  check_mac_extremes<std::int16_t, 32>();
  check_mac_extremes<std::uint16_t, 8>();
  check_mac_extremes<std::uint16_t, 16>();
  check_mac_extremes<std::uint16_t, 32>();
}

// The narrow-product fast path: int16 extremes whose products overflow
// int16 (and whose running sum overflows int32) must still accumulate
// exactly in the wide lanes on both backends.
TEST(SimdBackend, MacSignedOverflowWideAccumulation) {
  constexpr unsigned N = 16;
  aie::vector<std::int16_t, N> lo, hi;
  for (unsigned i = 0; i < N; ++i) {
    lo.set(i, std::numeric_limits<std::int16_t>::min());  // -32768
    hi.set(i, i % 2 ? std::numeric_limits<std::int16_t>::max()
                    : std::numeric_limits<std::int16_t>::min());
  }
  auto acc_s = aie::mul<Scalar>(lo, hi);
  auto acc_n = aie::mul<Native>(lo, hi);
  EXPECT_TRUE(bits_eq(acc_s, acc_n));
  // (-32768)^2 accumulated 8 times exceeds int32 range: the packed 32-bit
  // product shortcut must widen *before* the accumulation.
  for (unsigned k = 0; k < 8; ++k) {
    acc_s = aie::mac<Scalar>(acc_s, lo, hi);
    acc_n = aie::mac<Native>(acc_n, lo, hi);
    EXPECT_TRUE(bits_eq(acc_s, acc_n));
  }
  EXPECT_EQ(acc_s.get(0),
            std::int64_t{9} * 32768 * 32768);  // 9 exact products summed
}

// ---------------------------------------------------------------------------
// srs / ups: saturation boundaries and round-half-up edges
// ---------------------------------------------------------------------------

template <class T, unsigned N = 8>
void check_srs_boundaries() {
  SCOPED_TRACE(::testing::Message() << typeid(T).name() << " N=" << N);
  const std::int64_t kMin = std::numeric_limits<T>::min();
  const std::int64_t kMax = std::numeric_limits<T>::max();
  const std::array<std::int64_t, 8> lanes = {
      std::int64_t{1} << 47,     // saturates high through any small shift
      -(std::int64_t{1} << 47),  // saturates low
      kMax,                      // representable boundary
      kMin,
      2 * kMax + 1,  // (v+1)>>1 == kMax+1: saturates after rounding
      -1,            // round-half-up: (-1+1)>>1 == 0
      1,             // (1+1)>>1 == 1
      3,             // shift 2: (3+2)>>2 == 1
  };
  // Past 8 lanes each group of 8 rotates the pattern by one more lane.
  aie::acc48<N> acc;
  for (unsigned i = 0; i < N; ++i) acc.set(i, lanes[(i + i / 8) % 8]);

  for (int shift : {0, 1, 2, 14, 40}) {
    const auto s = aie::srs<T, Scalar>(acc, shift);
    const auto n = aie::srs<T, Native>(acc, shift);
    EXPECT_TRUE(bits_eq(s, n)) << "shift=" << shift;
    // Cross-check against the canonical scalar semantics.
    for (unsigned i = 0; i < N; ++i) {
      const auto want = aie::simd::detail::saturate_i64<T>(
          aie::simd::detail::shift_round(acc.get(i), shift));
      EXPECT_EQ(want, s.get(i)) << "shift=" << shift << " lane=" << i;
    }
  }

  // Negative shift is a plain left shift (no rounding, then saturate).
  aie::acc48<N> small;
  for (unsigned i = 0; i < N; ++i) small.set(i, static_cast<int>(i) - 4);
  const auto ls = aie::srs<T, Scalar>(small, -2);
  const auto ln = aie::srs<T, Native>(small, -2);
  EXPECT_TRUE(bits_eq(ls, ln));
  EXPECT_EQ(ls.get(0), static_cast<T>(-16));

  // Explicit saturation values survive the clamp on both backends.
  const auto sat0 = aie::srs<T, Scalar>(acc, 0);
  EXPECT_EQ(sat0.get(0), std::numeric_limits<T>::max());
  EXPECT_EQ(sat0.get(1), std::numeric_limits<T>::min());
}

TEST(SimdBackend, SrsSaturationBoundaries) {
  check_srs_boundaries<std::int8_t>();
  check_srs_boundaries<std::int16_t>();
  check_srs_boundaries<std::int32_t>();
  // The int16 target narrows one zmm at a time on AVX-512 (simd.hpp).
  check_srs_boundaries<std::int16_t, 16>();
  check_srs_boundaries<std::int16_t, 32>();
}

/// unpack to To when it widens T.
template <class To, class T, unsigned N>
void check_unpack_to(const aie::vector<T, N>& v) {
  if constexpr (sizeof(To) > sizeof(T)) {
    SCOPED_TRACE(::testing::Message() << "To=" << typeid(To).name());
    const auto want = aie::unpack<To, Scalar>(v);
    EXPECT_TRUE(bits_eq(want, aie::unpack<To, Native>(v)));
    for (unsigned i = 0; i < N; ++i) {
      EXPECT_EQ(want.get(i), static_cast<To>(v.get(i)));
    }
  }
}

/// unpack to every wider lane type and ups into 48- and 32-bit
/// accumulators, with lanes at T's extremes.
template <class T, unsigned N>
void check_widen_extremes() {
  SCOPED_TRACE(::testing::Message() << "T=" << typeid(T).name() << " N=" << N);
  const auto v = extreme_vector<T, N>(0);
  check_unpack_to<std::int16_t>(v);
  check_unpack_to<std::int32_t>(v);
  check_unpack_to<std::int64_t>(v);
  check_unpack_to<std::uint16_t>(v);
  check_unpack_to<std::uint32_t>(v);
  check_unpack_to<std::uint64_t>(v);
  for (int shift : {0, 1, 14}) {
    const auto want = aie::ups<aie::acc48_tag, Scalar>(v, shift);
    EXPECT_TRUE(bits_eq(want, aie::ups<aie::acc48_tag, Native>(v, shift)));
    EXPECT_EQ(want.get(0), std::int64_t{v.get(0)} * (std::int64_t{1} << shift));
    if constexpr (sizeof(T) <= 2) {
      EXPECT_TRUE(bits_eq(aie::ups<aie::acc32_tag, Scalar>(v, shift),
                          aie::ups<aie::acc32_tag, Native>(v, shift)));
    }
  }
}

TEST(SimdBackend, UpsAndFloatAccumMoves) {
  check_widen_extremes<std::int8_t, 8>();
  check_widen_extremes<std::int8_t, 16>();
  check_widen_extremes<std::int8_t, 32>();
  check_widen_extremes<std::uint8_t, 8>();
  check_widen_extremes<std::uint8_t, 16>();
  check_widen_extremes<std::uint8_t, 32>();
  check_widen_extremes<std::int16_t, 8>();
  check_widen_extremes<std::int16_t, 16>();
  check_widen_extremes<std::int16_t, 32>();
  check_widen_extremes<std::uint16_t, 8>();
  check_widen_extremes<std::uint16_t, 16>();
  check_widen_extremes<std::uint16_t, 32>();
  check_widen_extremes<std::int32_t, 8>();
  check_widen_extremes<std::int32_t, 16>();
  check_widen_extremes<std::int32_t, 32>();
  check_widen_extremes<std::uint32_t, 8>();
  check_widen_extremes<std::uint32_t, 16>();
  check_widen_extremes<std::uint32_t, 32>();

  std::mt19937 rng(71);
  constexpr unsigned N = 16;
  const auto v16 = random_vector<std::int16_t, N>(rng);
  for (int shift : {0, 1, 14}) {
    EXPECT_TRUE(bits_eq(aie::ups<aie::acc48_tag, Scalar>(v16, shift),
                        aie::ups<aie::acc48_tag, Native>(v16, shift)));
  }
  const auto vf = random_vector<float, 8>(rng);
  EXPECT_TRUE(bits_eq(aie::to_accum<Scalar>(vf), aie::to_accum<Native>(vf)));
  const auto af = aie::to_accum<Scalar>(vf);
  EXPECT_TRUE(bits_eq(aie::to_vector<Scalar>(af), aie::to_vector<Native>(af)));
  EXPECT_TRUE(bits_eq(aie::srs<float, Scalar>(af, 0),
                      aie::srs<float, Native>(af, 0)));
}

// ---------------------------------------------------------------------------
// every op the native backend splits, at one, two and four registers
// ---------------------------------------------------------------------------

/// The lane-wise element ops, compares and select over full-range lanes.
template <class T, unsigned N>
void check_lanewise_ops(unsigned seed) {
  SCOPED_TRACE(::testing::Message() << "T=" << typeid(T).name() << " N=" << N);
  std::mt19937 rng(seed);
  for (unsigned round = 0; round < kFuzzRounds; ++round) {
    const auto a = full_range_vector<T, N>(rng);
    const auto b = full_range_vector<T, N>(rng);
    EXPECT_TRUE(bits_eq(aie::add<Scalar>(a, b), aie::add<Native>(a, b)));
    EXPECT_TRUE(bits_eq(aie::sub<Scalar>(a, b), aie::sub<Native>(a, b)));
    EXPECT_TRUE(bits_eq(aie::neg<Scalar>(a), aie::neg<Native>(a)));
    EXPECT_TRUE(bits_eq(aie::abs<Scalar>(a), aie::abs<Native>(a)));
    EXPECT_TRUE(bits_eq(aie::min<Scalar>(a, b), aie::min<Native>(a, b)));
    EXPECT_TRUE(bits_eq(aie::max<Scalar>(a, b), aie::max<Native>(a, b)));
    T lo = a.get(0);
    T hi = b.get(0);
    if constexpr (std::is_floating_point_v<T>) {
      if (std::isnan(lo)) lo = T(-1);  // std::clamp needs an ordered range
      if (std::isnan(hi)) hi = T(1);
    }
    if (hi < lo) std::swap(lo, hi);
    EXPECT_TRUE(
        bits_eq(aie::clamp<Scalar>(a, lo, hi), aie::clamp<Native>(a, lo, hi)));
    EXPECT_TRUE(bits_eq(aie::broadcast<T, N, Scalar>(a.get(1)),
                        aie::broadcast<T, N, Native>(a.get(1))));
    const auto mlt = aie::lt<Scalar>(a, b);
    EXPECT_EQ(mlt, aie::lt<Native>(a, b));
    EXPECT_EQ(aie::ge<Scalar>(a, b), aie::ge<Native>(a, b));
    EXPECT_TRUE(bits_eq(aie::select<Scalar>(a, b, mlt),
                        aie::select<Native>(a, b, mlt)));
  }
}

TEST(SimdBackend, LaneWiseOpsAtOneTwoFourRegisters) {
  at_registers<std::int8_t>(
      []<unsigned N>() { check_lanewise_ops<std::int8_t, N>(1101); });
  at_registers<std::int16_t>(
      []<unsigned N>() { check_lanewise_ops<std::int16_t, N>(1102); });
  at_registers<std::int32_t>(
      []<unsigned N>() { check_lanewise_ops<std::int32_t, N>(1103); });
  at_registers<std::int64_t>(
      []<unsigned N>() { check_lanewise_ops<std::int64_t, N>(1104); });
  at_registers<float>(
      []<unsigned N>() { check_lanewise_ops<float, N>(1105); });
}

/// mul / mac / msc / mul_s / mac_s (check_mul_mac) and the backends'
/// broadcast MACs mac_bcast and mac_bcast_pair into A lanes.
template <class T, unsigned N>
void check_mac_family(unsigned seed) {
  check_mul_mac<T, N>(seed);
  SCOPED_TRACE(::testing::Message() << "T=" << typeid(T).name() << " N=" << N);
  using A = aie::detail::acc_elem_for<T>;
  std::mt19937 rng(seed + 1);
  for (unsigned round = 0; round < kFuzzRounds; ++round) {
    const auto d1 = random_vector<T, N>(rng, /*full_range=*/false);
    const auto d2 = random_vector<T, N>(rng, /*full_range=*/false);
    const auto base = aie::mul<Scalar>(d1, d2);
    const A c = static_cast<A>(random_lane<T>(rng, false));
    auto rs = base;
    auto rn = base;
    Scalar::mac_bcast<A, T, N>(rs.data().data(), d1.data().data(), c);
    Native::mac_bcast<A, T, N>(rn.data().data(), d1.data().data(), c);
    EXPECT_TRUE(bits_eq(rs, rn)) << "mac_bcast round " << round;
    Scalar::mac_bcast_pair<A, T, N>(rs.data().data(), d1.data().data(),
                                    d2.data().data(), c);
    Native::mac_bcast_pair<A, T, N>(rn.data().data(), d1.data().data(),
                                    d2.data().data(), c);
    EXPECT_TRUE(bits_eq(rs, rn)) << "mac_bcast_pair round " << round;
  }
}

TEST(SimdBackend, MacFamilyAtOneTwoFourRegisters) {
  // Integral MACs accumulate in int64 lanes: their piece is int64's.
  at_registers<std::int64_t>([]<unsigned N>() {
    check_mac_family<std::int8_t, N>(1201);
    check_mac_family<std::int16_t, N>(1202);
    check_mac_family<std::int32_t, N>(1203);
  });
  at_registers<float>([]<unsigned N>() { check_mac_family<float, N>(1204); });
}

/// The float accumulator moves: ups into accfloat (int16 -> float), srs
/// out of it (float -> int16), and to_accum / to_vector.
template <unsigned N>
void check_float_accum_moves(unsigned seed) {
  SCOPED_TRACE(::testing::Message() << "N=" << N);
  std::mt19937 rng(seed);
  const auto v16 = random_vector<std::int16_t, N>(rng);
  const auto af = aie::ups<aie::accfloat_tag, Scalar>(v16, 0);
  EXPECT_TRUE(bits_eq(af, aie::ups<aie::accfloat_tag, Native>(v16, 0)));
  EXPECT_TRUE(bits_eq(aie::srs<std::int16_t, Scalar>(af, 0),
                      aie::srs<std::int16_t, Native>(af, 0)));
  const auto vf = random_vector<float, N>(rng);
  const auto acc = aie::to_accum<Scalar>(vf);
  EXPECT_TRUE(bits_eq(acc, aie::to_accum<Native>(vf)));
  EXPECT_TRUE(
      bits_eq(aie::to_vector<Scalar>(acc), aie::to_vector<Native>(acc)));
}

TEST(SimdBackend, AccumMovesAtOneTwoFourRegisters) {
  // srs / ups between int64 accumulator lanes and vectors, and unpack into
  // int64 lanes: int64's piece.
  at_registers<std::int64_t>([]<unsigned N>() {
    check_srs_boundaries<std::int8_t, N>();
    check_srs_boundaries<std::int16_t, N>();
    check_srs_boundaries<std::int32_t, N>();
    check_widen_extremes<std::int8_t, N>();
    check_widen_extremes<std::int16_t, N>();
    check_widen_extremes<std::int32_t, N>();
    check_widen_extremes<std::uint16_t, N>();
  });
  // unpack into int32 / int16 lanes and ups into acc32.
  at_registers<std::int32_t>([]<unsigned N>() {
    check_widen_extremes<std::int8_t, N>();
    check_widen_extremes<std::uint8_t, N>();
    check_widen_extremes<std::int16_t, N>();
  });
  at_registers<std::int16_t>(
      []<unsigned N>() { check_widen_extremes<std::int8_t, N>(); });
  at_registers<float>([]<unsigned N>() { check_float_accum_moves<N>(1301); });
}

/// Sums per register-wide piece, then the piece sums in order: what a
/// float reduction folded per piece would return.
template <unsigned N>
float piecewise_sum(const aie::vector<float, N>& a) {
  constexpr unsigned kPiece = kRegLanes<float, 1>;
  float total = 0.0f;
  for (unsigned p = 0; p < N; p += kPiece) {
    float part = 0.0f;
    for (unsigned i = p; i < p + kPiece; ++i) part += a.get(i);
    total += part;
  }
  return total;
}

/// Float reductions keep the scalar backend's sequential order. The lanes
/// alternate +-1e8 with small values between them, so the sum depends on
/// the order of its additions; past one register the case first checks
/// that it tells the sequential order from a per-piece fold.
template <unsigned N>
void check_float_reduction_order() {
  SCOPED_TRACE(::testing::Message() << "N=" << N);
  aie::vector<float, N> a;
  for (unsigned i = 0; i < N; ++i) {
    a.set(i, i % 4 == 0 ? (i % 8 == 0 ? 1e8f : -1e8f)
                        : 1.0f + static_cast<float>(i % 7));
  }
  float seq = 0.0f;
  for (unsigned i = 0; i < N; ++i) seq += a.get(i);
  if constexpr (N > kRegLanes<float, 1>) {
    ASSERT_NE(seq, piecewise_sum(a)) << "lanes do not tell the orders apart";
  }
  const float s = aie::reduce_add<Scalar>(a);
  const float n = aie::reduce_add<Native>(a);
  EXPECT_EQ(0, std::memcmp(&s, &seq, sizeof s));
  EXPECT_EQ(0, std::memcmp(&n, &seq, sizeof n));
}

TEST(SimdBackend, ReductionsAtOneTwoFourRegisters) {
  at_registers<std::int8_t>([]<unsigned N>() {
    check_reductions_full_range<std::int8_t, N>(1401);
  });
  at_registers<std::int16_t>([]<unsigned N>() {
    check_reductions_full_range<std::int16_t, N>(1402);
  });
  at_registers<std::int32_t>([]<unsigned N>() {
    check_reductions_full_range<std::int32_t, N>(1403);
  });
  at_registers<std::int64_t>([]<unsigned N>() {
    check_reductions_full_range<std::int64_t, N>(1404);
  });
  at_registers<float>([]<unsigned N>() {
    check_reductions<float, N>(1405);
    check_float_reduction_order<N>();
  });
}

// ---------------------------------------------------------------------------
// sliding multiplies: fast contiguous path vs generic wrap path
// ---------------------------------------------------------------------------

/// Reference semantics straight from the sliding_mul_ops doc comment.
template <unsigned Lanes, unsigned Points, int CoeffStep, int DataStepX,
          int DataStepY, class C, unsigned NC, class D, unsigned ND>
aie::acc48<Lanes> sliding_ref(const aie::vector<C, NC>& coeff, unsigned cstart,
                              const aie::vector<D, ND>& data, unsigned dstart) {
  aie::acc48<Lanes> acc;
  for (unsigned lane = 0; lane < Lanes; ++lane) {
    std::int64_t sum = 0;
    for (unsigned p = 0; p < Points; ++p) {
      const auto ci = static_cast<unsigned>(static_cast<int>(cstart) +
                                            static_cast<int>(p) * CoeffStep) %
                      NC;
      const auto di = static_cast<unsigned>(static_cast<int>(dstart) +
                                            static_cast<int>(lane) * DataStepY +
                                            static_cast<int>(p) * DataStepX) %
                      ND;
      sum += static_cast<std::int64_t>(coeff.get(ci)) *
             static_cast<std::int64_t>(data.get(di));
    }
    acc.set(lane, sum);
  }
  return acc;
}

/// Every dstart in [0, ND) -- contiguous windows and wrapping ones -- and
/// two cstarts, for mul and mac, against the definition; the data mixes
/// random lanes with D's extremes and the coefficients include int16's.
template <unsigned Lanes, unsigned Points, int CoeffStep, int DataStepX,
          class D>
void check_sliding_all_starts(unsigned seed) {
  SCOPED_TRACE(::testing::Message()
               << "Lanes=" << Lanes << " Points=" << Points << " CoeffStep="
               << CoeffStep << " DataStepX=" << DataStepX
               << " D=" << typeid(D).name());
  using Ops = aie::sliding_mul_ops<Lanes, Points, CoeffStep, DataStepX, 1,
                                   Scalar>;
  using OpsN = aie::sliding_mul_ops<Lanes, Points, CoeffStep, DataStepX, 1,
                                    Native>;
  std::mt19937 rng(seed);
  auto coeff = random_vector<std::int16_t, 8>(rng);
  coeff.set(1, std::numeric_limits<std::int16_t>::min());
  coeff.set(4, std::numeric_limits<std::int16_t>::max());
  auto data = random_vector<D, 16>(rng);
  for (unsigned i = 0; i < 16; i += 3) {
    data.set(i, i % 2 ? std::numeric_limits<D>::max()
                      : std::numeric_limits<D>::min());
  }
  for (unsigned cstart : {0u, 3u}) {
    for (unsigned dstart = 0; dstart < 16; ++dstart) {
      const auto want = sliding_ref<Lanes, Points, CoeffStep, DataStepX, 1>(
          coeff, cstart, data, dstart);
      const auto got_s = Ops::mul(coeff, cstart, data, dstart);
      EXPECT_TRUE(bits_eq(want, got_s)) << "cstart=" << cstart
                                        << " dstart=" << dstart;
      EXPECT_TRUE(bits_eq(got_s, OpsN::mul(coeff, cstart, data, dstart)))
          << "cstart=" << cstart << " dstart=" << dstart;
      EXPECT_TRUE(bits_eq(Ops::mac(want, coeff, cstart, data, dstart),
                          OpsN::mac(want, coeff, cstart, data, dstart)))
          << "cstart=" << cstart << " dstart=" << dstart;
    }
  }
}

template <unsigned Lanes, unsigned Points, class D>
void check_sliding_steps(unsigned seed) {
  check_sliding_all_starts<Lanes, Points, 1, 1, D>(seed);
  check_sliding_all_starts<Lanes, Points, 1, 2, D>(seed + 1);
  check_sliding_all_starts<Lanes, Points, 2, 1, D>(seed + 2);
  check_sliding_all_starts<Lanes, Points, 2, 2, D>(seed + 3);
}

TEST(SimdBackend, SlidingMulFastAndGenericPaths) {
  check_sliding_steps<8, 8, std::int16_t>(810);
  check_sliding_steps<8, 4, std::int16_t>(820);
  check_sliding_steps<4, 4, std::int16_t>(830);
  check_sliding_steps<8, 8, std::uint16_t>(840);
  check_sliding_steps<8, 4, std::uint16_t>(850);

  std::mt19937 rng(81);
  const auto coeff = random_vector<std::int16_t, 8>(rng);
  const auto data = random_vector<std::int16_t, 16>(rng);
  // dstart 0/1: contiguous fast path; dstart 12: lane+point indices wrap
  // past ND=16, forcing the generic modulo path.
  for (unsigned dstart : {0u, 1u, 12u}) {
    const auto want =
        sliding_ref<8, 8, 1, 1, 1>(coeff, 0u, data, dstart);
    const auto got_s =
        aie::sliding_mul_ops<8, 8, 1, 1, 1, Scalar>::mul(coeff, 0u, data,
                                                         dstart);
    const auto got_n =
        aie::sliding_mul_ops<8, 8, 1, 1, 1, Native>::mul(coeff, 0u, data,
                                                         dstart);
    EXPECT_TRUE(bits_eq(want, got_s)) << "dstart=" << dstart;
    EXPECT_TRUE(bits_eq(got_s, got_n)) << "dstart=" << dstart;
  }
  // Strided coefficient / data steps fall back to the generic path too.
  const auto want2 = sliding_ref<4, 4, 2, 2, 1>(coeff, 1u, data, 2u);
  const auto got2_s =
      aie::sliding_mul_ops<4, 4, 2, 2, 1, Scalar>::mul(coeff, 1u, data, 2u);
  const auto got2_n =
      aie::sliding_mul_ops<4, 4, 2, 2, 1, Native>::mul(coeff, 1u, data, 2u);
  EXPECT_TRUE(bits_eq(want2, got2_s));
  EXPECT_TRUE(bits_eq(got2_s, got2_n));

  // mac continues an existing accumulator identically on both paths.
  const auto acc0 = aie::sliding_mul_ops<8, 8, 1, 1, 1, Scalar>::mul(
      coeff, 0u, data, 0u);
  EXPECT_TRUE(bits_eq(
      aie::sliding_mul_ops<8, 8, 1, 1, 1, Scalar>::mac(acc0, coeff, 2u, data,
                                                       1u),
      aie::sliding_mul_ops<8, 8, 1, 1, 1, Native>::mac(acc0, coeff, 2u, data,
                                                       1u)));
}

// Coefficients wider than int16 must bypass the packed-32-bit broadcast-MAC
// shortcut (the runtime magnitude check) and still match the reference.
TEST(SimdBackend, SlidingMulWideCoefficients) {
  std::mt19937 rng(82);
  aie::vector<std::int32_t, 8> coeff;
  for (unsigned i = 0; i < 8; ++i) {
    coeff.set(i, (i % 2 ? 1 : -1) * (100000 + static_cast<int>(i)));
  }
  const auto data = random_vector<std::int16_t, 16>(rng);
  const auto want = sliding_ref<8, 4, 1, 1, 1>(coeff, 0u, data, 0u);
  const auto got_s =
      aie::sliding_mul_ops<8, 4, 1, 1, 1, Scalar>::mul(coeff, 0u, data, 0u);
  const auto got_n =
      aie::sliding_mul_ops<8, 4, 1, 1, 1, Native>::mul(coeff, 0u, data, 0u);
  EXPECT_TRUE(bits_eq(want, got_s));
  EXPECT_TRUE(bits_eq(got_s, got_n));
}

TEST(SimdBackend, SlidingMulSymEquivalence) {
  std::mt19937 rng(83);
  const auto coeff = random_vector<std::int16_t, 8>(rng);
  const auto data = random_vector<std::int16_t, 16>(rng);
  for (unsigned dstart : {0u, 1u, 12u}) {  // 12: generic wrap path
    aie::acc48<8> want;
    for (unsigned lane = 0; lane < 8; ++lane) {
      std::int64_t sum = 0;
      for (unsigned p = 0; p < 4; ++p) {
        const std::int64_t c = coeff.get(p % 8);
        const std::int64_t d1 = data.get((dstart + lane + p) % 16);
        const std::int64_t d2 = data.get((dstart + lane + 7 - p) % 16);
        sum += c * (d1 + d2);
      }
      want.set(lane, sum);
    }
    const auto got_s =
        aie::sliding_mul_sym_ops<8, 8, Scalar>::mul(coeff, 0u, data, dstart);
    const auto got_n =
        aie::sliding_mul_sym_ops<8, 8, Native>::mul(coeff, 0u, data, dstart);
    EXPECT_TRUE(bits_eq(want, got_s)) << "dstart=" << dstart;
    EXPECT_TRUE(bits_eq(got_s, got_n)) << "dstart=" << dstart;
  }
}

// ---------------------------------------------------------------------------
// intrinsic spellings ride on the same backends
// ---------------------------------------------------------------------------

TEST(SimdBackend, IntrinsicsEquivalence) {
  std::mt19937 rng(91);
  const auto a = random_vector<float, 8>(rng);
  const auto b = random_vector<float, 8>(rng);
  const auto acc_s = aie::intrinsics::fpmul<Scalar>(a, b);
  const auto acc_n = aie::intrinsics::fpmul<Native>(a, b);
  EXPECT_TRUE(bits_eq(acc_s, acc_n));
  EXPECT_TRUE(bits_eq(aie::intrinsics::fpmac<Scalar>(acc_s, a, b),
                      aie::intrinsics::fpmac<Native>(acc_n, a, b)));
  EXPECT_TRUE(bits_eq(aie::intrinsics::fpmsc<Scalar>(acc_s, a, b),
                      aie::intrinsics::fpmsc<Native>(acc_n, a, b)));

  const auto i16a = random_vector<std::int16_t, 16>(rng);
  const auto i16b = random_vector<std::int16_t, 16>(rng);
  const auto m_s = aie::intrinsics::mul16<Scalar>(i16a, i16b);
  const auto m_n = aie::intrinsics::mul16<Native>(i16a, i16b);
  EXPECT_TRUE(bits_eq(m_s, m_n));
  EXPECT_TRUE(bits_eq(aie::intrinsics::mac16<Scalar>(m_s, i16a, i16b),
                      aie::intrinsics::mac16<Native>(m_n, i16a, i16b)));
}

// ---------------------------------------------------------------------------
// non-full register manipulation (block copies, backend-independent)
// ---------------------------------------------------------------------------

TEST(SimdBackend, ExtractInsertGrowRoundtrip) {
  std::mt19937 rng(101);
  const auto v = random_vector<std::int16_t, 16>(rng);
  const auto lo = v.extract<2>(0);
  const auto hi = v.extract<2>(1);
  for (unsigned i = 0; i < 8; ++i) {
    EXPECT_EQ(lo.get(i), v.get(i));
    EXPECT_EQ(hi.get(i), v.get(8 + i));
  }
  aie::vector<std::int16_t, 16> back;
  back.insert(0, lo);
  back.insert(1, hi);
  EXPECT_EQ(back, v);

  const auto g = lo.grow();
  for (unsigned i = 0; i < 8; ++i) EXPECT_EQ(g.get(i), lo.get(i));
  for (unsigned i = 8; i < 16; ++i) EXPECT_EQ(g.get(i), 0);  // zero upper half

  // Quarter extract (non-half split) keeps lane order.
  const auto q = v.extract<4>(2);
  for (unsigned i = 0; i < 4; ++i) EXPECT_EQ(q.get(i), v.get(8 + i));
}

// ---------------------------------------------------------------------------
// value initialization (satellite: lanes_ must never be stack garbage)
// ---------------------------------------------------------------------------

TEST(SimdBackend, VectorsValueInitialize) {
  const aie::vector<float, 16> dflt;
  for (unsigned i = 0; i < 16; ++i) EXPECT_EQ(dflt.get(i), 0.0f);

  const aie::vector<std::int16_t, 8> partial{1, 2, 3};
  EXPECT_EQ(partial.get(0), 1);
  EXPECT_EQ(partial.get(1), 2);
  EXPECT_EQ(partial.get(2), 3);
  for (unsigned i = 3; i < 8; ++i) EXPECT_EQ(partial.get(i), 0);

  const aie::acc48<8> acc;
  for (unsigned i = 0; i < 8; ++i) EXPECT_EQ(acc.get(i), 0);

  const aie::mask<8> m;
  for (unsigned i = 0; i < 8; ++i) EXPECT_FALSE(m.get(i));
}

// ---------------------------------------------------------------------------
// instrumentation invariants
// ---------------------------------------------------------------------------

/// A mixed op sequence touching every record() call shape.
template <class B>
void run_instrumented_sequence() {
  std::mt19937 rng(111);
  const auto a = random_vector<std::int16_t, 16>(rng, false);
  const auto b = random_vector<std::int16_t, 16>(rng, false);
  auto acc = aie::mul<B>(a, b);
  acc = aie::mac<B>(acc, a, b);
  const auto v = aie::srs<std::int16_t, B>(acc, 14);
  const auto m = aie::lt<B>(v, b);
  const auto sel = aie::select<B>(v, b, m);
  (void)aie::reduce_add<B>(sel);
  (void)aie::shuffle_down<B>(sel, 3);
  (void)aie::sliding_mul_ops<8, 8, 1, 1, 1, B>::mul(
      aie::vector<std::int16_t, 8>{1, 2, 3, 4}, 0u, a, 0u);
  aie::record(aie::OpClass::scalar, 5);
}

TEST(SimdBackend, OpCountsIdenticalAcrossBackends) {
  aie::OpCounter cs, cn;
  {
    aie::ScopedCounter scoped{&cs};
    run_instrumented_sequence<Scalar>();
  }
  {
    aie::ScopedCounter scoped{&cn};
    run_instrumented_sequence<Native>();
  }
  EXPECT_EQ(cs.counts, cn.counts);
  EXPECT_GT(cs.counts.total(), 0u);
}

TEST(SimdBackend, ScopedCounterBatchMatchesDirectCounter) {
  aie::OpCounter direct, batched;
  {
    aie::ScopedCounter scoped{&direct};
    run_instrumented_sequence<Native>();
  }
  {
    aie::ScopedCounterBatch scoped{&batched};
    run_instrumented_sequence<Native>();
  }
  EXPECT_EQ(direct.counts, batched.counts);

  // Null destination must not activate counting (functional mode): any
  // records inside the scope land nowhere, and the previously active
  // counter is restored afterwards.
  aie::OpCounter outer;
  {
    aie::ScopedCounter outer_scope{&outer};
    {
      aie::ScopedCounterBatch none{nullptr};
      aie::record(aie::OpClass::scalar, 100);
    }
    aie::record(aie::OpClass::scalar, 1);
  }
  EXPECT_EQ(outer.counts[aie::OpClass::scalar], 1u);
}

// The IIR feedback loop batches its per-sample scalar accounting into one
// record() per window; the batched total must equal the per-sample form it
// replaced (2 scalar MACs per sample).
TEST(SimdBackend, IirBatchedScalarRecordMatchesPerSample) {
  apps::iir::Block in{};
  for (unsigned i = 0; i < apps::iir::kBlockSamples; ++i) {
    in.samples[i] = static_cast<float>(i % 17) - 8.0f;
  }
  apps::iir::State st{};
  aie::OpCounter c;
  {
    aie::ScopedCounterBatch scoped{&c};
    (void)apps::iir::process_block(in, st, apps::iir::kDefaultCoeffs, 1.0f);
  }
  aie::OpCounts per_sample;
  for (unsigned i = 0; i < apps::iir::kBlockSamples; ++i) {
    per_sample.add(aie::OpClass::scalar, 2);
  }
  EXPECT_EQ(c.counts[aie::OpClass::scalar],
            per_sample[aie::OpClass::scalar]);
}

// ---------------------------------------------------------------------------
// whole-kernel equivalence: the four app inner loops, both backends
// ---------------------------------------------------------------------------

TEST(SimdBackend, AppKernelsBitExactAcrossBackends) {
  std::mt19937 rng(121);

  {  // bilinear
    apps::bilinear::Packet q;
    for (unsigned l = 0; l < apps::bilinear::kLanes; ++l) {
      std::uniform_real_distribution<float> dist(-100.0f, 100.0f);
      std::uniform_real_distribution<float> frac(0.0f, 1.0f);
      q.p00.set(l, dist(rng));
      q.p01.set(l, dist(rng));
      q.p10.set(l, dist(rng));
      q.p11.set(l, dist(rng));
      q.fx.set(l, frac(rng));
      q.fy.set(l, frac(rng));
    }
    EXPECT_TRUE(bits_eq(apps::bilinear::interpolate<Scalar>(q),
                        apps::bilinear::interpolate<Native>(q)));
  }

  {  // bitonic: both backends, and actually sorted
    apps::bitonic::Block v;
    for (unsigned l = 0; l < 16; ++l) {
      v.set(l, static_cast<float>(static_cast<int>(rng() % 2000) - 1000));
    }
    const auto s = apps::bitonic::sort16<Scalar>(v);
    const auto n = apps::bitonic::sort16<Native>(v);
    EXPECT_TRUE(bits_eq(s, n));
    std::array<float, 16> ref{};
    for (unsigned l = 0; l < 16; ++l) ref[l] = v.get(l);
    std::sort(ref.begin(), ref.end());
    for (unsigned l = 0; l < 16; ++l) EXPECT_EQ(s.get(l), ref[l]);
  }

  {  // farrow: two chained windows so the carried state is exercised
    apps::farrow::SampleBlock in;
    apps::farrow::MuBlock mu;
    apps::farrow::BranchState st_s{}, st_n{};
    for (unsigned w = 0; w < 2; ++w) {
      for (unsigned i = 0; i < apps::farrow::kBlockSamples; ++i) {
        in.s[i] = static_cast<std::int16_t>(rng());
        mu.mu[i] = static_cast<std::int16_t>(rng() % 16384);
      }
      const auto br_s = apps::farrow::branch_filters<Scalar>(in, st_s);
      const auto br_n = apps::farrow::branch_filters<Native>(in, st_n);
      EXPECT_EQ(br_s, br_n);
      const auto out_s = apps::farrow::combine<Scalar>(br_s, mu);
      const auto out_n = apps::farrow::combine<Native>(br_n, mu);
      EXPECT_EQ(out_s, out_n);
    }
  }

  {  // iir feed-forward
    apps::iir::Block in;
    for (unsigned i = 0; i < apps::iir::kBlockSamples; ++i) {
      std::uniform_real_distribution<float> dist(-100.0f, 100.0f);
      in.samples[i] = dist(rng);
    }
    apps::iir::State st_s{}, st_n{};
    const auto fir_s =
        apps::iir::feed_forward<Scalar>(in, st_s, apps::iir::kDefaultCoeffs);
    const auto fir_n =
        apps::iir::feed_forward<Native>(in, st_n, apps::iir::kDefaultCoeffs);
    EXPECT_EQ(0, std::memcmp(fir_s.data(), fir_n.data(),
                             sizeof(float) * fir_s.size()));
    EXPECT_EQ(st_s.x1, st_n.x1);
    EXPECT_EQ(st_s.x2, st_n.x2);
  }
}

}  // namespace

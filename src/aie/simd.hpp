// aie -- portable SIMD execution backends for the AIE emulation layer.
//
// The functional emulation in api.hpp/accum.hpp used to evaluate every
// operation as an N-iteration per-lane loop. This header factors the lane
// arithmetic into two interchangeable *backends* so the emulated intrinsics
// execute as a handful of host vector instructions instead:
//
//   * `scalar_backend` -- the canonical per-lane loops. This is the
//     bit-exact reference semantics of every operation, kept deliberately
//     scalar (vectorization is disabled per-function on GCC) so the
//     scalar-vs-SIMD ablation in bench_ablation_simd measures per-lane
//     execution, not the autovectorizer.
//   * `native_backend` -- the same operations on GCC/Clang vector
//     extensions (`__attribute__((vector_size(...)))`): one emulated AIE
//     vector op maps onto one or two host SIMD instructions. On compilers
//     without vector extensions it degrades to `scalar_backend`.
//
// Both backends are always compiled, so equivalence tests and ablation
// benches can compare them within one binary. The *default* backend used
// by the aie:: API (`aie::simd::backend`) is selected at configure time
// with the CGSIM_SIMD CMake option (native | scalar); `scalar` defines
// CGSIM_SIMD_FORCE_SCALAR.
//
// Backends are pure lane arithmetic: they never touch instrumentation.
// OpCounts recording stays in the api layer and is therefore byte-identical
// across backends by construction (asserted by tests/aie/test_simd_backend).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <type_traits>
#include <utility>

namespace aie::simd {

#if defined(__GNUC__) || defined(__clang__)
#define CGSIM_SIMD_HAVE_NATIVE 1
#else
#define CGSIM_SIMD_HAVE_NATIVE 0
#endif

// GCC's own x86 builtins for the 512-bit forms native_backend needs (see
// its kZmm).
#if defined(__GNUC__) && !defined(__clang__) && defined(__AVX512F__)
#define CGSIM_SIMD_ZMM_BUILTINS 1
#else
#define CGSIM_SIMD_ZMM_BUILTINS 0
#endif

// ... and the 512-bit byte dot product, vpdpbusd (native_backend::mac_dot4).
#if CGSIM_SIMD_ZMM_BUILTINS && defined(__AVX512VNNI__)
#define CGSIM_SIMD_VNNI 1
#else
#define CGSIM_SIMD_VNNI 0
#endif

// Pins the scalar backend's loops to per-lane code on GCC so that a
// "scalar" measurement means scalar execution (see header comment). This
// does not change results, only codegen.
#if defined(__GNUC__) && !defined(__clang__)
#define CGSIM_SIMD_SCALAR_LOOP \
  __attribute__((optimize("no-tree-vectorize", "no-tree-slp-vectorize")))
#else
#define CGSIM_SIMD_SCALAR_LOOP
#endif

namespace detail {

/// Signed integer type with the same width as a vector lane of sizeof
/// `Bytes` -- the element type vector comparisons and shuffle masks use.
template <unsigned Bytes>
struct int_of;
template <>
struct int_of<1> {
  using type = std::int8_t;
};
template <>
struct int_of<2> {
  using type = std::int16_t;
};
template <>
struct int_of<4> {
  using type = std::int32_t;
};
template <>
struct int_of<8> {
  using type = std::int64_t;
};
template <unsigned Bytes>
using int_of_t = typename int_of<Bytes>::type;

/// Saturates an int64 accumulator lane into T's range (AIE srs clamp).
template <class T>
[[nodiscard]] constexpr T saturate_i64(std::int64_t v) {
  constexpr auto lo = static_cast<std::int64_t>(std::numeric_limits<T>::min());
  constexpr auto hi = static_cast<std::int64_t>(std::numeric_limits<T>::max());
  return static_cast<T>(std::clamp(v, lo, hi));
}

/// Arithmetic shift right with round-half-up, as AIE srs does by default.
[[nodiscard]] constexpr std::int64_t shift_round(std::int64_t v, int shift) {
  if (shift <= 0) return v << -shift;
  const std::int64_t bias = std::int64_t{1} << (shift - 1);
  return (v + bias) >> shift;
}

// Cubic coefficients of the Q15 2^y approximation on y in (0, 1]:
// 2^y ~= 1 + y*(c1 + y*(c2 + y*c3)), max relative error ~2e-4. Every
// intermediate product below stays under 2^31, so the evaluation is exact
// int32 arithmetic (identical on both backends by construction).
inline constexpr std::int32_t kExp2C1 = 22803;  // round(0.695802 * 2^15)
inline constexpr std::int32_t kExp2C2 = 7354;   // round(0.224426 * 2^15)
inline constexpr std::int32_t kExp2C3 = 2603;   // round(0.0794415 * 2^15)

/// One lane of the fixed-point negative exponential: 2^(-u / 2^15) in Q15.
/// Negative inputs clamp to 0 (result 32768 == 1.0); u >= 32 * 2^15
/// underflows to 0. The canonical formula both backends follow.
[[nodiscard]] constexpr std::int32_t exp2_neg_q15_lane(std::int32_t u) {
  u = u < 0 ? 0 : u;
  const std::int32_t n = u >> 15;
  const std::int32_t f = u & 32767;
  // 2^(-(n + f/2^15)) == 2^(1 - f/2^15) >> (n + 1); the f == 0 split keeps
  // the poly argument in (0, 32768] and the result exact at integers.
  const std::int32_t x = 32768 - f;
  std::int32_t t = kExp2C3;
  t = kExp2C2 + ((t * x) >> 15);
  t = kExp2C1 + ((t * x) >> 15);
  const std::int32_t p = 32768 + ((t * x) >> 15);
  const std::int32_t sh0 = n > 31 ? 31 : n;          // shift counts clamp to
  const std::int32_t sh1 = n > 30 ? 31 : n + 1;      // 31 (defined behaviour)
  return f == 0 ? (32768 >> sh0) : (p >> sh1);
}

/// Wrapping lane arithmetic: signed overflow is UB, so integral lanes
/// compute in unsigned (defined modular wrap) and cast back; the result is
/// the two's-complement bit pattern both backends agree on. Float lanes
/// pass through untouched.
template <class T>
[[nodiscard]] constexpr T lane_add(T a, T b) {
  if constexpr (std::is_integral_v<T>) {
    using U = std::make_unsigned_t<T>;
    return static_cast<T>(
        static_cast<U>(static_cast<U>(a) + static_cast<U>(b)));
  } else {
    return a + b;
  }
}

template <class T>
[[nodiscard]] constexpr T lane_sub(T a, T b) {
  if constexpr (std::is_integral_v<T>) {
    using U = std::make_unsigned_t<T>;
    return static_cast<T>(
        static_cast<U>(static_cast<U>(a) - static_cast<U>(b)));
  } else {
    return a - b;
  }
}

template <class T>
[[nodiscard]] constexpr T lane_neg(T a) {
  if constexpr (std::is_integral_v<T>) {
    using U = std::make_unsigned_t<T>;
    return static_cast<T>(static_cast<U>(U{} - static_cast<U>(a)));
  } else {
    return -a;
  }
}

}  // namespace detail

// ---------------------------------------------------------------------------
// scalar_backend: canonical per-lane loops (the reference semantics).
// ---------------------------------------------------------------------------

struct scalar_backend {
  static constexpr const char* name = "scalar";
  static constexpr bool vectorized = false;

  // ---- element-wise arithmetic ----

  template <class T, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void add(T* r, const T* a, const T* b) {
    for (unsigned i = 0; i < N; ++i) r[i] = detail::lane_add(a[i], b[i]);
  }

  template <class T, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void sub(T* r, const T* a, const T* b) {
    for (unsigned i = 0; i < N; ++i) r[i] = detail::lane_sub(a[i], b[i]);
  }

  template <class T, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void neg(T* r, const T* a) {
    for (unsigned i = 0; i < N; ++i) r[i] = detail::lane_neg(a[i]);
  }

  template <class T, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void abs_(T* r, const T* a) {
    for (unsigned i = 0; i < N; ++i) {
      r[i] = a[i] < T{} ? detail::lane_neg(a[i]) : a[i];
    }
  }

  template <class T, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void min_(T* r, const T* a, const T* b) {
    for (unsigned i = 0; i < N; ++i) r[i] = std::min(a[i], b[i]);
  }

  template <class T, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void max_(T* r, const T* a, const T* b) {
    for (unsigned i = 0; i < N; ++i) r[i] = std::max(a[i], b[i]);
  }

  template <class T, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void clamp(T* r, const T* a, T lo, T hi) {
    for (unsigned i = 0; i < N; ++i) r[i] = std::clamp(a[i], lo, hi);
  }

  template <class T, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void broadcast(T* r, T v) {
    for (unsigned i = 0; i < N; ++i) r[i] = v;
  }

  template <class T, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void iota(T* r, T start, T step) {
    T v = start;
    for (unsigned i = 0; i < N; ++i, v = static_cast<T>(v + step)) r[i] = v;
  }

  // ---- multiply / multiply-accumulate into A-typed accumulator lanes ----

  template <class A, class T, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void mul(A* acc, const T* a, const T* b) {
    for (unsigned i = 0; i < N; ++i) {
      acc[i] = static_cast<A>(a[i]) * static_cast<A>(b[i]);
    }
  }

  template <class A, class T, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void mac(A* acc, const T* a, const T* b) {
    for (unsigned i = 0; i < N; ++i) {
      acc[i] = acc[i] + static_cast<A>(a[i]) * static_cast<A>(b[i]);
    }
  }

  template <class A, class T, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void msc(A* acc, const T* a, const T* b) {
    for (unsigned i = 0; i < N; ++i) {
      acc[i] = acc[i] - static_cast<A>(a[i]) * static_cast<A>(b[i]);
    }
  }

  template <class A, class T, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void mul_s(A* acc, const T* a, T s) {
    for (unsigned i = 0; i < N; ++i) {
      acc[i] = static_cast<A>(a[i]) * static_cast<A>(s);
    }
  }

  template <class A, class T, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void mac_s(A* acc, const T* a, T s) {
    for (unsigned i = 0; i < N; ++i) {
      acc[i] = acc[i] + static_cast<A>(a[i]) * static_cast<A>(s);
    }
  }

  /// acc[l] += c * data[l] over `N` contiguous data lanes -- the inner step
  /// of the contiguous sliding-multiply fast path.
  template <class A, class D, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void mac_bcast(A* acc, const D* data, A c) {
    for (unsigned i = 0; i < N; ++i) acc[i] = acc[i] + c * static_cast<A>(data[i]);
  }

  /// acc[l] += c * (d1[l] + d2[l]) -- the pre-add step of the symmetric
  /// sliding multiply (both data windows contiguous).
  template <class A, class D, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void mac_bcast_pair(A* acc, const D* d1,
                                                    const D* d2, A c) {
    for (unsigned i = 0; i < N; ++i) {
      acc[i] = acc[i] + c * (static_cast<A>(d1[i]) + static_cast<A>(d2[i]));
    }
  }

  // ---- accumulator <-> vector moves (srs / ups) ----

  /// Shift-round-saturate int64 accumulator lanes down to T.
  template <class T, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void srs(T* r, const std::int64_t* acc,
                                         int shift) {
    for (unsigned i = 0; i < N; ++i) {
      r[i] = detail::saturate_i64<T>(detail::shift_round(acc[i], shift));
    }
  }

  /// Upshift T lanes into int64 accumulator lanes.
  template <class T, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void ups(std::int64_t* acc, const T* v,
                                         int shift) {
    for (unsigned i = 0; i < N; ++i) {
      acc[i] = static_cast<std::int64_t>(v[i]) << shift;
    }
  }

  /// Lane-wise static_cast between accumulator and vector element types
  /// (the float accfloat<->vector moves and srs on float accumulators).
  template <class Dst, class Src, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void convert(Dst* r, const Src* a) {
    for (unsigned i = 0; i < N; ++i) r[i] = static_cast<Dst>(a[i]);
  }

  // ---- ML extensions: dot-product MAC, 32-bit accumulators, converts ----

  /// acc[l] += sum_{j<4} a[4l+j] * b[4l+j] -- the AIE-ML 8-bit MAC shape
  /// (4-deep multiply groups reduced into one accumulator lane). The sum
  /// evaluates exactly in int64 and truncates modulo the accumulator width
  /// (well-defined in C++20), so int16 inputs whose 4-product sum exceeds
  /// the int32 lane wrap instead of hitting signed-overflow UB; the native
  /// backend's pair-sum reduction lands on the same modular value.
  template <class A, class T, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void mac_dot4(A* acc, const T* a, const T* b) {
    for (unsigned i = 0; i < N; ++i) {
      const std::int64_t p0 = static_cast<std::int64_t>(a[4 * i + 0]) * b[4 * i + 0];
      const std::int64_t p1 = static_cast<std::int64_t>(a[4 * i + 1]) * b[4 * i + 1];
      const std::int64_t p2 = static_cast<std::int64_t>(a[4 * i + 2]) * b[4 * i + 2];
      const std::int64_t p3 = static_cast<std::int64_t>(a[4 * i + 3]) * b[4 * i + 3];
      acc[i] = static_cast<A>(acc[i] + ((p0 + p1) + (p2 + p3)));
    }
  }

  /// srs from int32 accumulator lanes (acc32). Evaluated in int64 so the
  /// rounding bias cannot overflow the lane, then the shared clamp.
  template <class T, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void srs32(T* r, const std::int32_t* acc,
                                           int shift) {
    for (unsigned i = 0; i < N; ++i) {
      r[i] = detail::saturate_i64<T>(detail::shift_round(acc[i], shift));
    }
  }

  /// Upshift T lanes into int32 accumulator lanes (acc32 ups).
  template <class T, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void ups32(std::int32_t* acc, const T* v,
                                           int shift) {
    for (unsigned i = 0; i < N; ++i) {
      acc[i] = static_cast<std::int32_t>(v[i]) << shift;
    }
  }

  /// Narrowing lane convert with saturation (AIE pack-with-saturate).
  template <class Dst, class Src, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void convert_sat(Dst* r, const Src* a) {
    static_assert(std::is_integral_v<Dst> && std::is_integral_v<Src> &&
                  sizeof(Dst) < sizeof(Src));
    constexpr auto lo = static_cast<Src>(std::numeric_limits<Dst>::min());
    constexpr auto hi = static_cast<Src>(std::numeric_limits<Dst>::max());
    for (unsigned i = 0; i < N; ++i) {
      r[i] = static_cast<Dst>(std::clamp(a[i], lo, hi));
    }
  }

  /// bf16 -> f32 widen: a bf16 pattern is the high half of the f32 bits.
  template <unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void bf16_to_f32(float* r,
                                                 const std::uint16_t* a) {
    for (unsigned i = 0; i < N; ++i) {
      const std::uint32_t u = static_cast<std::uint32_t>(a[i]) << 16;
      std::memcpy(&r[i], &u, sizeof(float));
    }
  }

  /// f32 -> bf16 narrow with round-to-nearest-even; NaNs quiet to a
  /// canonical payload. Branchless select so every input (including NaN
  /// payload bits) follows the identical formula on both backends.
  template <unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void f32_to_bf16(std::uint16_t* r,
                                                 const float* a) {
    for (unsigned i = 0; i < N; ++i) {
      std::uint32_t u;
      std::memcpy(&u, &a[i], sizeof(float));
      const bool nan = (u & 0x7fffffffu) > 0x7f800000u;
      const std::uint32_t rne = (u + 0x7fffu + ((u >> 16) & 1u)) >> 16;
      const std::uint32_t quiet = (u >> 16) | 0x0040u;
      r[i] = static_cast<std::uint16_t>(nan ? quiet : rne);
    }
  }

  /// Fixed-point negative exponential r[i] = 2^(-u[i]/2^15) in Q15 (the
  /// softmax kernel's exp). All-int32 arithmetic; see detail::exp2_neg_q15_lane.
  template <unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void exp2_neg_q15(std::int32_t* r,
                                                  const std::int32_t* u) {
    for (unsigned i = 0; i < N; ++i) r[i] = detail::exp2_neg_q15_lane(u[i]);
  }

  // ---- compares and select ----

  template <class T, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void lt(bool* m, const T* a, const T* b) {
    for (unsigned i = 0; i < N; ++i) m[i] = a[i] < b[i];
  }

  template <class T, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void ge(bool* m, const T* a, const T* b) {
    for (unsigned i = 0; i < N; ++i) m[i] = a[i] >= b[i];
  }

  template <class T, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void select(T* r, const T* a, const T* b,
                                            const bool* m) {
    for (unsigned i = 0; i < N; ++i) r[i] = m[i] ? a[i] : b[i];
  }

  // ---- lane permutations ----

  template <class T, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void shuffle_down(T* r, const T* a,
                                                  unsigned n) {
    for (unsigned i = 0; i < N; ++i) r[i] = a[(i + n) % N];
  }

  template <class T, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void shuffle_up(T* r, const T* a, unsigned n) {
    for (unsigned i = 0; i < N; ++i) r[i] = a[(i + N - (n % N)) % N];
  }

  template <class T, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void reverse(T* r, const T* a) {
    for (unsigned i = 0; i < N; ++i) r[i] = a[N - 1 - i];
  }

  template <class T, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void butterfly(T* r, const T* a,
                                               unsigned stride) {
    for (unsigned i = 0; i < N; ++i) r[i] = a[(i ^ stride) % N];
  }

  template <class T, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void permute(T* r, const T* a,
                                             const std::int32_t* idx) {
    for (unsigned i = 0; i < N; ++i) {
      r[i] = a[static_cast<unsigned>(idx[i]) % N];
    }
  }

  template <class T, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void interleave_zip(T* lo, T* hi, const T* a,
                                                    const T* b) {
    for (unsigned i = 0; i < N / 2; ++i) {
      lo[2 * i] = a[i];
      lo[2 * i + 1] = b[i];
      hi[2 * i] = a[N / 2 + i];
      hi[2 * i + 1] = b[N / 2 + i];
    }
  }

  template <class T, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void interleave_unzip(T* even, T* odd,
                                                      const T* a, const T* b) {
    for (unsigned i = 0; i < N / 2; ++i) {
      even[i] = a[2 * i];
      odd[i] = a[2 * i + 1];
      even[N / 2 + i] = b[2 * i];
      odd[N / 2 + i] = b[2 * i + 1];
    }
  }

  /// r (N/2 lanes) <- even-indexed lanes of a (N lanes).
  template <class T, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void filter_even(T* r, const T* a) {
    for (unsigned i = 0; i < N / 2; ++i) r[i] = a[2 * i];
  }

  template <class T, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static void filter_odd(T* r, const T* a) {
    for (unsigned i = 0; i < N / 2; ++i) r[i] = a[2 * i + 1];
  }

  // ---- reductions ----
  // Sequential on both backends: float reductions are order-sensitive, and
  // keeping one evaluation order is what makes the backends bit-exact.

  template <class T, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static T reduce_add(const T* a) {
    T s{};
    for (unsigned i = 0; i < N; ++i) s = static_cast<T>(s + a[i]);
    return s;
  }

  template <class T, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static T reduce_min(const T* a) {
    T s = a[0];
    for (unsigned i = 1; i < N; ++i) s = std::min(s, a[i]);
    return s;
  }

  template <class T, unsigned N>
  CGSIM_SIMD_SCALAR_LOOP static T reduce_max(const T* a) {
    T s = a[0];
    for (unsigned i = 1; i < N; ++i) s = std::max(s, a[i]);
    return s;
  }
};

// ---------------------------------------------------------------------------
// native_backend: the same operations on compiler vector extensions.
// ---------------------------------------------------------------------------

#if CGSIM_SIMD_HAVE_NATIVE

struct native_backend {
  static constexpr const char* name = "native";
  static constexpr bool vectorized = true;

 private:
  template <class T, unsigned N>
  struct vt {
    typedef T type __attribute__((vector_size(sizeof(T) * N)));
  };
  /// Host vector register of N T lanes.
  template <class T, unsigned N>
  using v = typename vt<T, N>::type;
  /// Same-shape signed integer vector (comparison results, shuffle masks).
  template <class T, unsigned N>
  using m = typename vt<detail::int_of_t<sizeof(T)>, N>::type;

  template <class T, unsigned N>
  static v<T, N> ld(const T* p) {
    v<T, N> r;
    std::memcpy(&r, p, sizeof r);
    return r;
  }
  template <class T, unsigned N>
  static void st(T* p, const v<T, N>& r) {
    std::memcpy(p, &r, sizeof r);
  }

  // Target features that pick a one-instruction form in the private helpers
  // below. GCC 12 does not derive these forms from vector-extension code
  // (docs/PERF.md, "Generic-vector codegen pitfalls"):
  //  * kSlpBytes: the widest vector GCC's SLP vectorizer forms, its
  //    preferred width (256 bits on AVX2 and AVX-512 tunings). Up to it, a
  //    lane-wise constructor of converted lanes becomes one vpmovsx/vpmovzx.
  //  * kZmm: 512-bit widening moves and the signed 32x32->64 multiply
  //    (vpmuldq), called through GCC's own x86 builtins -- the ones
  //    <immintrin.h> wraps -- so no intrinsics header is parsed.
  //  * CGSIM_SIMD_VNNI: the 4-deep byte dot product (vpdpbusd) of
  //    AVX512-VNNI, in mac_dot4.
  //  Every other target keeps the plain vector-extension code.
#if defined(__AVX2__)
  static constexpr unsigned kSlpBytes = 32;
#else
  static constexpr unsigned kSlpBytes = 16;
#endif
  static constexpr bool kZmm = CGSIM_SIMD_ZMM_BUILTINS;
#if defined(__AVX512BW__)
  static constexpr bool kZmmBytes = kZmm;
#else
  static constexpr bool kZmmBytes = false;
#endif

  /// True when widening T lanes to A lanes takes one instruction: the
  /// result fits the SLP width, or fills one zmm for which a vpmovsx/vpmovzx
  /// exists (bytes to words needs AVX512BW; bytes to quadwords, which
  /// would need a half-register source, hops through words instead).
  template <class A, class T, unsigned N>
  static constexpr bool kOneStepWiden =
      std::is_integral_v<A> && std::is_integral_v<T> &&
      sizeof(A) > sizeof(T) &&
      (N * sizeof(A) <= kSlpBytes ||
       (kZmm && N * sizeof(A) == 64 && !(sizeof(T) == 1 && sizeof(A) == 8) &&
        (kZmmBytes || !(sizeof(T) == 1 && sizeof(A) == 2))));

  /// Integer widening in one instruction (see kOneStepWiden).
  template <class A, class T, unsigned N>
  static v<A, N> widen(const v<T, N>& x) {
#if CGSIM_SIMD_ZMM_BUILTINS
    if constexpr (N * sizeof(A) > kSlpBytes) {
      typedef char b16 __attribute__((vector_size(16)));
      typedef char b32 __attribute__((vector_size(32)));
      typedef short h16 __attribute__((vector_size(16)));
      typedef short h32 __attribute__((vector_size(32)));
      typedef short h64 __attribute__((vector_size(64)));
      typedef int s32 __attribute__((vector_size(32)));
      typedef int s64 __attribute__((vector_size(64)));
      typedef long long q64 __attribute__((vector_size(64)));
      constexpr bool sx = std::is_signed_v<T>;
      if constexpr (sizeof(T) == 1 && sizeof(A) == 2) {
        const h64 r = sx ? __builtin_ia32_pmovsxbw512_mask((b32)x, h64{}, ~0u)
                         : __builtin_ia32_pmovzxbw512_mask((b32)x, h64{}, ~0u);
        return (v<A, N>)r;
      } else if constexpr (sizeof(T) == 1 && sizeof(A) == 4) {
        const s64 r =
            sx ? __builtin_ia32_pmovsxbd512_mask((b16)x, s64{}, 0xffff)
               : __builtin_ia32_pmovzxbd512_mask((b16)x, s64{}, 0xffff);
        return (v<A, N>)r;
      } else if constexpr (sizeof(T) == 2 && sizeof(A) == 4) {
        const s64 r =
            sx ? __builtin_ia32_pmovsxwd512_mask((h32)x, s64{}, 0xffff)
               : __builtin_ia32_pmovzxwd512_mask((h32)x, s64{}, 0xffff);
        return (v<A, N>)r;
      } else if constexpr (sizeof(T) == 2 && sizeof(A) == 8) {
        const q64 r = sx ? __builtin_ia32_pmovsxwq512_mask((h16)x, q64{}, 0xff)
                         : __builtin_ia32_pmovzxwq512_mask((h16)x, q64{}, 0xff);
        return (v<A, N>)r;
      } else {
        static_assert(sizeof(T) == 4 && sizeof(A) == 8);
        const q64 r = sx ? __builtin_ia32_pmovsxdq512_mask((s32)x, q64{}, 0xff)
                         : __builtin_ia32_pmovzxdq512_mask((s32)x, q64{}, 0xff);
        return (v<A, N>)r;
      }
    }
#endif
    return [&]<std::size_t... I>(std::index_sequence<I...>) {
      return v<A, N>{static_cast<A>(x[I])...};
    }(std::make_index_sequence<N>{});
  }

  /// Lane-type conversion. Integer widening runs in one instruction where
  /// the target has it (kOneStepWiden). Elsewhere GCC 12 lowers a 2x
  /// widening `__builtin_convertvector` to an unpack pair plus an insert,
  /// and a conversion between integer lanes whose widths differ by more
  /// than 2x can fall to per-lane scalar code (byte extracts + shifts), so
  /// such a conversion steps through the intermediate widths, each hop a
  /// packed convert. Value-identical to the one-step convert: sign/zero
  /// extension composes hop by hop (intermediate signedness follows the
  /// source), and integer narrowing truncates modulo the destination width
  /// either way.
  template <class A, class T, unsigned N>
  static v<A, N> cvt(const v<T, N>& x) {
    if constexpr (std::is_same_v<A, T>) {
      return x;
    } else if constexpr (kOneStepWiden<A, T, N>) {
      return widen<A, T, N>(x);
    } else if constexpr (std::is_integral_v<A> && std::is_integral_v<T> &&
                         sizeof(A) > 2 * sizeof(T)) {
      using MidS = detail::int_of_t<2 * sizeof(T)>;
      using Mid = std::conditional_t<std::is_signed_v<T>, MidS,
                                     std::make_unsigned_t<MidS>>;
      return cvt<A, Mid, N>(__builtin_convertvector(x, v<Mid, N>));
    } else if constexpr (std::is_integral_v<A> && std::is_integral_v<T> &&
                         sizeof(T) > 2 * sizeof(A)) {
      using MidS = detail::int_of_t<sizeof(T) / 2>;
      using Mid = std::conditional_t<std::is_signed_v<A>, MidS,
                                     std::make_unsigned_t<MidS>>;
      return cvt<A, Mid, N>(__builtin_convertvector(x, v<Mid, N>));
    } else {
      return __builtin_convertvector(x, v<A, N>);
    }
  }

  /// {0, 1, ..., N-1} as a shuffle-mask vector for T-sized lanes.
  template <class T, unsigned N>
  static m<T, N> lane_iota() {
    m<T, N> r{};
    for (unsigned i = 0; i < N; ++i) {
      r[i] = static_cast<detail::int_of_t<sizeof(T)>>(i);
    }
    return r;  // constant-folded at -O2
  }

  /// x in every lane, as one broadcast instruction up to one machine
  /// register. GCC 12 builds a lane-by-lane fill wider than 256 bits from
  /// 256-bit halves stored to the stack and reloaded, a failed
  /// store-to-load forward on every use; a constructor with x in each lane
  /// becomes one vpbroadcast. It copies the bit pattern (-0.0 and NaN
  /// payloads included).
  template <class T, unsigned N>
  static v<T, N> splat(T x) {
    return [&]<std::size_t... I>(std::index_sequence<I...>) {
      return v<T, N>{((void)I, x)...};
    }(std::make_index_sequence<N>{});
  }

  // `__builtin_shuffle` (runtime mask) is a GCC extension; Clang only has
  // the constant-index `__builtin_shufflevector`. Lane permutations fall
  // back to plain loops on non-GCC compilers.
#if defined(__GNUC__) && !defined(__clang__)
  static constexpr bool kHaveDynShuffle = true;
#else
  static constexpr bool kHaveDynShuffle = false;
#endif

 public:
  // ---- element-wise arithmetic ----

  template <class T, unsigned N>
  static void add(T* r, const T* a, const T* b) {
    if constexpr (std::is_integral_v<T>) {
      st<T, N>(r, wrap_add<T, N>(ld<T, N>(a), ld<T, N>(b)));
    } else {
      st<T, N>(r, ld<T, N>(a) + ld<T, N>(b));
    }
  }

  template <class T, unsigned N>
  static void sub(T* r, const T* a, const T* b) {
    if constexpr (std::is_integral_v<T>) {
      st<T, N>(r, wrap_sub<T, N>(ld<T, N>(a), ld<T, N>(b)));
    } else {
      st<T, N>(r, ld<T, N>(a) - ld<T, N>(b));
    }
  }

  template <class T, unsigned N>
  static void neg(T* r, const T* a) {
    if constexpr (std::is_integral_v<T>) {
      st<T, N>(r, wrap_neg<T, N>(ld<T, N>(a)));
    } else {
      st<T, N>(r, -ld<T, N>(a));
    }
  }

  template <class T, unsigned N>
  static void abs_(T* r, const T* a) {
    const auto va = ld<T, N>(a);
    // Mirrors the scalar `a < 0 ? -a : a` lane-wise (keeps -0.0f and NaN
    // behaviour identical to the scalar backend); the integral negate wraps
    // (abs(INT_MIN) == INT_MIN on both backends, not UB).
    if constexpr (std::is_integral_v<T>) {
      st<T, N>(r, (va < splat<T, N>(T{})) ? wrap_neg<T, N>(va) : va);
    } else {
      st<T, N>(r, (va < splat<T, N>(T{})) ? -va : va);
    }
  }

  template <class T, unsigned N>
  static void min_(T* r, const T* a, const T* b) {
    const auto va = ld<T, N>(a);
    const auto vb = ld<T, N>(b);
    st<T, N>(r, (vb < va) ? vb : va);  // == std::min per lane
  }

  template <class T, unsigned N>
  static void max_(T* r, const T* a, const T* b) {
    const auto va = ld<T, N>(a);
    const auto vb = ld<T, N>(b);
    st<T, N>(r, (va < vb) ? vb : va);  // == std::max per lane
  }

  template <class T, unsigned N>
  static void clamp(T* r, const T* a, T lo, T hi) {
    const auto va = ld<T, N>(a);
    const auto vlo = splat<T, N>(lo);
    const auto vhi = splat<T, N>(hi);
    // Two canonical min/max ternaries, not one nested select: GCC folds
    // each into MIN_EXPR/MAX_EXPR (packed at any vector width), while the
    // nested form lowers to a lane select that scalarizes past ~2 registers.
    const auto vmin = (vhi < va) ? vhi : va;
    st<T, N>(r, (vmin < vlo) ? vlo : vmin);
  }

  template <class T, unsigned N>
  static void broadcast(T* r, T x) {
    st<T, N>(r, splat<T, N>(x));
  }

  template <class T, unsigned N>
  static void iota(T* r, T start, T step) {
    // Sequential adds, matching the scalar backend's float rounding.
    scalar_backend::iota<T, N>(r, start, step);
  }

  // ---- multiply / multiply-accumulate ----

 private:
  /// Loads N T lanes widened to the accumulator element type A.
  template <class A, class T, unsigned N>
  static v<A, N> ldw(const T* p) {
    return cvt<A, T, N>(ld<T, N>(p));
  }

  /// True when T x T products provably fit in int32 lanes: then the
  /// int64-accumulator multiply can run as a packed 32-bit multiply (the
  /// host has no packed 64-bit multiply below AVX-512) and widen after.
  /// Exact either way, so bit-identical to the full-width form. uint16 is
  /// out: 65535 * 65535 exceeds int32.
  template <class A, class T>
  static constexpr bool kNarrowMul =
      std::is_integral_v<A> && std::is_integral_v<T> && sizeof(A) == 8 &&
      (sizeof(T) == 1 || (sizeof(T) == 2 && std::is_signed_v<T>));

  /// a[i] * b[i] widened into A lanes, via int32 lanes when exact.
  template <class A, class T, unsigned N>
  static v<A, N> wmul(const T* a, const T* b) {
    if constexpr (kNarrowMul<A, T>) {
      return cvt<A, std::int32_t, N>(ldw<std::int32_t, T, N>(a) *
                                     ldw<std::int32_t, T, N>(b));
    } else {
      return ldw<A, T, N>(a) * ldw<A, T, N>(b);
    }
  }

 public:
  template <class A, class T, unsigned N>
  static void mul(A* acc, const T* a, const T* b) {
    st<A, N>(acc, wmul<A, T, N>(a, b));
  }

  template <class A, class T, unsigned N>
  static void mac(A* acc, const T* a, const T* b) {
    st<A, N>(acc, ld<A, N>(acc) + wmul<A, T, N>(a, b));
  }

  template <class A, class T, unsigned N>
  static void msc(A* acc, const T* a, const T* b) {
    st<A, N>(acc, ld<A, N>(acc) - wmul<A, T, N>(a, b));
  }

  template <class A, class T, unsigned N>
  static void mul_s(A* acc, const T* a, T s) {
    st<A, N>(acc, ldw<A, T, N>(a) * splat<A, N>(static_cast<A>(s)));
  }

  template <class A, class T, unsigned N>
  static void mac_s(A* acc, const T* a, T s) {
    st<A, N>(acc,
             ld<A, N>(acc) + ldw<A, T, N>(a) * splat<A, N>(static_cast<A>(s)));
  }

  template <class A, class D, unsigned N>
  static void mac_bcast(A* acc, const D* data, A c) {
    if constexpr (kNarrowMul<A, D>) {
      // Coefficients come from a <=16-bit vector, but check anyway: the
      // narrow path is exact only when c * data fits in int32 lanes.
      if (c >= -32768 && c <= 32767) {
        const auto p = splat<std::int32_t, N>(static_cast<std::int32_t>(c)) *
                       ldw<std::int32_t, D, N>(data);
        st<A, N>(acc, ld<A, N>(acc) + cvt<A, std::int32_t, N>(p));
        return;
      }
    }
    st<A, N>(acc, ld<A, N>(acc) + splat<A, N>(c) * ldw<A, D, N>(data));
  }

  template <class A, class D, unsigned N>
  static void mac_bcast_pair(A* acc, const D* d1, const D* d2, A c) {
    if constexpr (kNarrowMul<A, D>) {
      if (c >= -32768 && c <= 32767) {
        // c*(d1+d2) == c*d1 + c*d2 exactly in int64; each product fits in
        // an int32 lane, so two packed 32-bit multiplies replace the
        // scalarized 64-bit one.
        const auto vc = splat<std::int32_t, N>(static_cast<std::int32_t>(c));
        const auto p1 = vc * ldw<std::int32_t, D, N>(d1);
        const auto p2 = vc * ldw<std::int32_t, D, N>(d2);
        st<A, N>(acc, ld<A, N>(acc) + cvt<A, std::int32_t, N>(p1) +
                          cvt<A, std::int32_t, N>(p2));
        return;
      }
    }
    st<A, N>(acc, ld<A, N>(acc) +
                      splat<A, N>(c) * (ldw<A, D, N>(d1) + ldw<A, D, N>(d2)));
  }

 private:
  /// Integer lanes whose every value fits int32.
  template <class T>
  static constexpr bool kFitsI32 =
      std::is_integral_v<T> &&
      (sizeof(T) < 4 || (sizeof(T) == 4 && std::is_signed_v<T>));

  /// The shapes mac_window runs: int64 lanes filling one zmm, a data
  /// vector of two such chunks, and data and coefficients that fit int32
  /// (the factors vpmuldq multiplies).
  template <class A, class C, class D, unsigned ND, unsigned L>
  static constexpr bool kWindowMac =
      kZmm && std::is_same_v<A, std::int64_t> && L * sizeof(A) == 64 &&
      ND == 2 * L && kFitsI32<C> && kFitsI32<D>;

#if CGSIM_SIMD_ZMM_BUILTINS
  /// x * c for int64 lanes whose values, like c, fit int32: one vpmuldq
  /// (it multiplies the low dwords), where GCC 12 emits the 3-uop vpmullq
  /// for the int64 `*`.
  static v<std::int64_t, 8> mul_i32(const v<std::int64_t, 8>& x,
                                    std::int32_t c) {
    typedef int s64 __attribute__((vector_size(64)));
    typedef long long q64 __attribute__((vector_size(64)));
    return (v<std::int64_t, 8>)__builtin_ia32_pmuldq512_mask(
        (s64)x, splat<std::int32_t, 16>(c), q64{}, 0xff);
  }
#endif

 public:
  /// The contiguous sliding multiply in one call: for p = 0 .. P-1 in turn,
  /// acc[l] += c[p] * data[dstart + p*S + l] for every lane l < L, where
  /// every such index lies in [0, ND). For the shapes kWindowMac admits it
  /// widens the data vector once (one vpmovsx per L lanes) and forms each
  /// tap from it with one two-source permute (vpermt2q) and one vpmuldq.
  /// Returns false, touching nothing, for any other shape; the caller then
  /// runs one mac_bcast per tap, which widens its L lanes itself.
  template <class A, class C, class D, unsigned ND, unsigned L, unsigned P,
            int S>
  static bool mac_window(A* acc, const C* c, const D* data, unsigned dstart) {
#if CGSIM_SIMD_ZMM_BUILTINS
    if constexpr (kWindowMac<A, C, D, ND, L>) {
      // The data widened once, one zmm per half.
      const auto lo = ldw<A, D, L>(data);
      const auto hi = ldw<A, D, L>(data + L);
      auto sum = ld<A, L>(acc);
      [&]<std::size_t... p>(std::index_sequence<p...>) {
        ((sum += mul_i32(
              __builtin_shuffle(
                  lo, hi,
                  lane_iota<A, L>() +
                      static_cast<std::int64_t>(static_cast<int>(dstart) +
                                                static_cast<int>(p) * S)),
              static_cast<std::int32_t>(c[p]))),
         ...);
      }(std::make_index_sequence<P>{});
      st<A, L>(acc, sum);
      return true;
    }
#endif
    (void)acc, (void)c, (void)data, (void)dstart;
    return false;
  }

  // ---- accumulator <-> vector moves (srs / ups) ----

 private:
  /// srs to int16 in 8-lane pieces, each narrowed from one zmm by one
  /// vpmovqw, where cvt's hop-by-hop narrowing takes two cross-lane
  /// permutes against a zeroed register. int8 and int32 targets keep cvt.
  template <class T, unsigned N>
  static constexpr bool kZmmNarrow16 =
      kZmm && std::is_same_v<T, std::int16_t> && N % 8 == 0;

 public:
  template <class T, unsigned N>
  static void srs(T* r, const std::int64_t* acc, int shift) {
    if constexpr (kZmmNarrow16<T, N> && N > 8) {
      for (unsigned i = 0; i < N; i += 8) srs<T, 8>(r + i, acc + i, shift);
    } else {
      auto va = ld<std::int64_t, N>(acc);
      if (shift <= 0) {
        va <<= -shift;
      } else {
        va = (va + splat<std::int64_t, N>(std::int64_t{1} << (shift - 1))) >>
             shift;
      }
      const auto vlo =
          splat<std::int64_t, N>(std::numeric_limits<T>::min());
      const auto vhi =
          splat<std::int64_t, N>(std::numeric_limits<T>::max());
      // Saturate with two canonical min/max ternaries: GCC folds each into
      // a packed MIN_EXPR/MAX_EXPR at any width, where the equivalent
      // nested select scalarizes to per-lane cmovs once the vector spans
      // more than a couple of registers.
      va = (va > vhi) ? vhi : va;
      va = (va < vlo) ? vlo : va;
#if CGSIM_SIMD_ZMM_BUILTINS
      if constexpr (kZmmNarrow16<T, N>) {
        // The lanes are clamped, so vpmovqw's truncation is exact.
        typedef short h16 __attribute__((vector_size(16)));
        typedef long long q64 __attribute__((vector_size(64)));
        const h16 n = __builtin_ia32_pmovqw512_mask((q64)va, h16{}, 0xff);
        std::memcpy(r, &n, sizeof n);
        return;
      }
#endif
      st<T, N>(r, cvt<T, std::int64_t, N>(va));
    }
  }

  template <class T, unsigned N>
  static void ups(std::int64_t* acc, const T* p, int shift) {
    st<std::int64_t, N>(acc, ldw<std::int64_t, T, N>(p) << shift);
  }

  template <class Dst, class Src, unsigned N>
  static void convert(Dst* r, const Src* a) {
    if constexpr (std::is_same_v<Dst, Src>) {
      std::memcpy(r, a, N * sizeof(Dst));
    } else {
      st<Dst, N>(r, cvt<Dst, Src, N>(ld<Src, N>(a)));
    }
  }

  // ---- ML extensions: dot-product MAC, 32-bit accumulators, converts ----

 private:
  /// Lane-wise wrapping add. Signed lane overflow is UB even in vector
  /// extensions, so the add runs in unsigned lanes (defined wrap); the bit
  /// pattern is what two's-complement wrapping produces.
  template <class T, unsigned N>
  static v<T, N> wrap_add(const v<T, N>& x, const v<T, N>& y) {
    using U = std::make_unsigned_t<T>;
    v<U, N> ux, uy;
    std::memcpy(&ux, &x, sizeof(ux));
    std::memcpy(&uy, &y, sizeof(uy));
    ux += uy;
    v<T, N> r;
    std::memcpy(&r, &ux, sizeof(r));
    return r;
  }

  /// Lane-wise wrapping subtract (same unsigned detour as wrap_add).
  template <class T, unsigned N>
  static v<T, N> wrap_sub(const v<T, N>& x, const v<T, N>& y) {
    using U = std::make_unsigned_t<T>;
    v<U, N> ux, uy;
    std::memcpy(&ux, &x, sizeof(ux));
    std::memcpy(&uy, &y, sizeof(uy));
    ux -= uy;
    v<T, N> r;
    std::memcpy(&r, &ux, sizeof(r));
    return r;
  }

  /// Lane-wise wrapping negate: -INT_MIN wraps to itself instead of UB.
  template <class T, unsigned N>
  static v<T, N> wrap_neg(const v<T, N>& x) {
    using U = std::make_unsigned_t<T>;
    v<U, N> ux;
    std::memcpy(&ux, &x, sizeof(ux));
    ux = v<U, N>{} - ux;
    v<T, N> r;
    std::memcpy(&r, &ux, sizeof(r));
    return r;
  }

  /// Splits a 2N-lane vector into its even and odd lanes, each widened to
  /// a double-width lane (sign-extended for signed T, zero-extended for
  /// unsigned): reinterpret each pair as one wide lane (little-endian:
  /// even lane = low half) and recover the halves with shifts. Every step
  /// is lane-local, which matters because GCC lowers cross-lane shuffles
  /// at these vector widths to scalar code.
  template <class T, unsigned N>
  static auto lane_split(const v<T, 2 * N>& x) {
    using WS = detail::int_of_t<2 * sizeof(T)>;
    using W = std::conditional_t<std::is_signed_v<T>, WS,
                                 std::make_unsigned_t<WS>>;
    using U = std::make_unsigned_t<WS>;
    constexpr int half = 8 * sizeof(T);
    v<U, N> u;
    std::memcpy(&u, &x, sizeof(u));
    const v<U, N> ulo = u << half;  // unsigned: left shift cannot be UB
    v<W, N> lo, hi;
    std::memcpy(&lo, &ulo, sizeof(lo));
    std::memcpy(&hi, &u, sizeof(hi));
    // For unsigned W, >> is logical: the even lanes zero-extend as needed.
    return std::pair<v<W, N>, v<W, N>>{lo >> half, hi >> half};
  }

  /// Sums adjacent lane pairs of a 2N-lane vector into N double-width
  /// lanes. Exact: the sum of two extended T values always fits W.
  template <class W, class T, unsigned N>
  static v<W, N> pair_sum_wide(const v<T, 2 * N>& x) {
    const auto [even, odd] = lane_split<T, N>(x);
    static_assert(std::is_same_v<decltype(even), const v<W, N>>);
    return even + odd;
  }

  /// Sums adjacent lane pairs modulo 2^|T|: reinterpret as unsigned
  /// double-width lanes, fold the high half onto the low half, truncate
  /// back. Lane-local like pair_sum_wide, and congruent to the exact pair
  /// sum modulo the lane width.
  template <class T, unsigned N>
  static v<T, N> pair_sum_mod(const v<T, 2 * N>& x) {
    using U = std::make_unsigned_t<detail::int_of_t<2 * sizeof(T)>>;
    v<U, N> u;
    std::memcpy(&u, &x, sizeof(u));
    u += u >> (8 * sizeof(T));
    return cvt<T, U, N>(u);
  }

#if CGSIM_SIMD_VNNI
  /// One zmm of mac_dot4<int32, int8>. vpdpbusd multiplies unsigned bytes
  /// by signed ones, so `a` enters as a ^ 0x80, which read unsigned is
  /// a + 128, and a second vpdpbusd against 0x80 bytes forms the excess
  /// 128 * sum_j b_j to take back out: a.b == (a + 128).b - 128 * sum_j b_j.
  /// Both wrap modulo 2^32, so each lane is congruent -- hence equal -- to
  /// the scalar backend's exact sum truncated once.
  static v<std::int32_t, 16> dot4_vnni(const v<std::int32_t, 16>& acc,
                                       const std::int8_t* a,
                                       const std::int8_t* b) {
    typedef int s64 __attribute__((vector_size(64)));
    const auto k80 = splat<std::int8_t, 64>(-128);
    const auto vb = (s64)ld<std::int8_t, 64>(b);
    const s64 biased = __builtin_ia32_vpdpbusd_v16si(
        acc, (s64)(ld<std::int8_t, 64>(a) ^ k80), vb);
    const s64 excess = __builtin_ia32_vpdpbusd_v16si(s64{}, (s64)k80, vb);
    return wrap_sub<std::int32_t, 16>(biased, excess);
  }
#endif

 public:
  /// acc[l] += dot of the l-th 4-deep product group. int8 into whole zmms
  /// of int32 lanes takes vpdpbusd where the target has it (dot4_vnni).
  /// Otherwise products are exact in double-width lanes; the 4-group
  /// reduction folds adjacent pairs with the lane-local reinterpret idiom
  /// above instead of cross-lane shuffles (which GCC scalarizes at these
  /// widths). Each narrowing step truncates modulo the accumulator width,
  /// so the result is congruent -- hence bit-identical -- to the scalar
  /// backend's exact int64 sum truncated once at the end.
  template <class A, class T, unsigned N>
  static void mac_dot4(A* acc, const T* a, const T* b) {
    using P = detail::int_of_t<2 * sizeof(T)>;  // exact product lane type
#if CGSIM_SIMD_VNNI
    if constexpr (std::is_same_v<A, std::int32_t> &&
                  std::is_same_v<T, std::int8_t> && N % 16 == 0) {
      for (unsigned i = 0; i < N; i += 16) {
        st<std::int32_t, 16>(
            acc + i, dot4_vnni(ld<std::int32_t, 16>(acc + i), a + 4 * i,
                               b + 4 * i));
      }
      return;
    }
#endif
    if constexpr (std::endian::native != std::endian::little ||
                  (sizeof(P) > sizeof(A))) {
      scalar_backend::mac_dot4<A, T, N>(acc, a, b);
    } else {
      const v<P, 4 * N> p = cvt<P, T, 4 * N>(ld<T, 4 * N>(a)) *
                            cvt<P, T, 4 * N>(ld<T, 4 * N>(b));
      v<A, 2 * N> s2;
      if constexpr (sizeof(P) < sizeof(A)) {
        // Pair sums can exceed the product lane type: widen exactly.
        s2 = pair_sum_wide<A, P, 2 * N>(p);
      } else {
        // Product lanes already match the accumulator width: fold mod 2^|A|.
        s2 = pair_sum_mod<A, 2 * N>(p);
      }
      st<A, N>(acc, wrap_add<A, N>(ld<A, N>(acc), pair_sum_mod<A, N>(s2)));
    }
  }

  /// srs from int32 accumulator lanes. For shifts 0..31 into a T whose
  /// range lies within int32's it stays in int32 lanes:
  /// (x >> s) + ((x >> (s - 1)) & 1) is floor((x + 2^(s-1)) / 2^s), the
  /// scalar backend's int64 round-half-up, without forming the sum, so
  /// INT32_MAX cannot wrap; then the clamp and the narrow. Anything else
  /// widens to int64 lanes and runs the int64 srs.
  template <class T, unsigned N>
  static void srs32(T* r, const std::int32_t* acc, int shift) {
    if constexpr (kFitsI32<T>) {
      if (shift >= 0 && shift <= 31) {
        auto x = ld<std::int32_t, N>(acc);
        if (shift > 0) {
          x = (x >> shift) +
              ((x >> (shift - 1)) & splat<std::int32_t, N>(1));
        }
        if constexpr (!std::is_same_v<T, std::int32_t>) {
          const auto vlo =
              splat<std::int32_t, N>(std::numeric_limits<T>::min());
          const auto vhi =
              splat<std::int32_t, N>(std::numeric_limits<T>::max());
          x = (x > vhi) ? vhi : x;  // canonical min/max pair, as in srs
          x = (x < vlo) ? vlo : x;
        }
        st<T, N>(r, cvt<T, std::int32_t, N>(x));
        return;
      }
    }
    alignas(32) std::int64_t wide[N];
    st<std::int64_t, N>(
        wide, cvt<std::int64_t, std::int32_t, N>(ld<std::int32_t, N>(acc)));
    srs<T, N>(r, wide, shift);
  }

  template <class T, unsigned N>
  static void ups32(std::int32_t* acc, const T* p, int shift) {
    st<std::int32_t, N>(acc, ldw<std::int32_t, T, N>(p) << shift);
  }

  template <class Dst, class Src, unsigned N>
  static void convert_sat(Dst* r, const Src* a) {
    static_assert(std::is_integral_v<Dst> && std::is_integral_v<Src> &&
                  sizeof(Dst) < sizeof(Src));
    const auto va = ld<Src, N>(a);
    const auto vlo = splat<Src, N>(
        static_cast<Src>(std::numeric_limits<Dst>::min()));
    const auto vhi = splat<Src, N>(
        static_cast<Src>(std::numeric_limits<Dst>::max()));
    const auto cmin = (va > vhi) ? vhi : va;       // canonical min/max pair:
    const auto c = (cmin < vlo) ? vlo : cmin;      // stays packed at any width
    st<Dst, N>(r, cvt<Dst, Src, N>(c));
  }

  template <unsigned N>
  static void bf16_to_f32(float* r, const std::uint16_t* a) {
    const auto wide =
        cvt<std::uint32_t, std::uint16_t, N>(ld<std::uint16_t, N>(a)) << 16;
    v<float, N> f;
    std::memcpy(&f, &wide, sizeof f);
    st<float, N>(r, f);
  }

  template <unsigned N>
  static void f32_to_bf16(std::uint16_t* r, const float* a) {
    const auto vf = ld<float, N>(a);
    v<std::uint32_t, N> u;
    std::memcpy(&u, &vf, sizeof u);
    // Same branchless RNE + NaN-quieting formula as the scalar backend.
    const auto nan = (u & splat<std::uint32_t, N>(0x7fffffffu)) >
                     splat<std::uint32_t, N>(0x7f800000u);
    const auto rne =
        (u + splat<std::uint32_t, N>(0x7fffu) +
         ((u >> 16) & splat<std::uint32_t, N>(1u))) >> 16;
    const auto quiet = (u >> 16) | splat<std::uint32_t, N>(0x0040u);
    st<std::uint16_t, N>(r, __builtin_convertvector(nan ? quiet : rne,
                                                    v<std::uint16_t, N>));
  }

  template <unsigned N>
  static void exp2_neg_q15(std::int32_t* r, const std::int32_t* up) {
    // Slice to one-register-wide steps: the shift clamps and the f==0 blend
    // only stay packed when the lane selects sit in a real machine vector
    // mode; on wider generic vectors GCC scalarizes them per lane once the
    // operands are register-resident (composed with surrounding vector code).
    if constexpr (N > 16 && N % 16 == 0) {
      for (unsigned i = 0; i < N; i += 16) exp2_neg_q15<16>(r + i, up + i);
      return;
    }
    using V = v<std::int32_t, N>;
    const auto sp = [](std::int32_t x) { return splat<std::int32_t, N>(x); };
    V u = ld<std::int32_t, N>(up);
    const V zero{};
    u = (u < zero) ? zero : u;
    const V n = u >> 15;
    const V f = u & sp(32767);
    const V x = sp(32768) - f;
    V t = sp(detail::kExp2C3);
    t = sp(detail::kExp2C2) + ((t * x) >> 15);
    t = sp(detail::kExp2C1) + ((t * x) >> 15);
    const V p = sp(32768) + ((t * x) >> 15);
    // Canonical min ternaries and a bitwise mask blend: both stay packed at
    // any vector width, where non-min/max lane selects scalarize once the
    // operands live in registers across more than a couple of zmms.
    const V sh0 = (n > sp(31)) ? sp(31) : n;
    const V n1 = n + sp(1);
    const V sh1 = (n1 > sp(31)) ? sp(31) : n1;
    const V r0 = sp(32768) >> sh0;
    const V r1 = p >> sh1;
    const V m = f == zero;  // -1/0 lanes
    st<std::int32_t, N>(r, (r0 & m) | (r1 & ~m));
  }

  // ---- compares and select ----

 private:
  /// Stores a lane-wise comparison result (0 / -1 lanes) as bools.
  template <class T, unsigned N>
  static void st_mask(bool* mp, const m<T, N>& cmp) {
    static_assert(sizeof(bool) == 1);
    using b8 = v<std::int8_t, N>;
    const b8 narrow = cvt<std::int8_t, detail::int_of_t<sizeof(T)>, N>(cmp) &
                      splat<std::int8_t, N>(1);
    std::memcpy(mp, &narrow, N);
  }

  /// Loads a bool mask as a 0 / nonzero T-sized integer vector: one
  /// vpmovsx from the bytes where cvt has the one-step form (16 float
  /// lanes: one vpmovsxbd).
  template <class T, unsigned N>
  static m<T, N> ld_mask(const bool* mp) {
    static_assert(sizeof(bool) == 1);
    v<std::int8_t, N> bytes;
    std::memcpy(&bytes, mp, N);
    return cvt<detail::int_of_t<sizeof(T)>, std::int8_t, N>(bytes);
  }

 public:
  template <class T, unsigned N>
  static void lt(bool* mp, const T* a, const T* b) {
    st_mask<T, N>(mp, ld<T, N>(a) < ld<T, N>(b));
  }

  template <class T, unsigned N>
  static void ge(bool* mp, const T* a, const T* b) {
    st_mask<T, N>(mp, ld<T, N>(a) >= ld<T, N>(b));
  }

  template <class T, unsigned N>
  static void select(T* r, const T* a, const T* b, const bool* mp) {
    st<T, N>(r, (ld_mask<T, N>(mp) != m<T, N>{}) ? ld<T, N>(a) : ld<T, N>(b));
  }

  // ---- lane permutations ----
  // GCC's __builtin_shuffle reads mask lanes modulo N, matching the scalar
  // backend's explicit `% N` for power-of-two N.

  template <class T, unsigned N>
  static void shuffle_down(T* r, const T* a, unsigned n) {
    if constexpr (kHaveDynShuffle) {
#if defined(__GNUC__) && !defined(__clang__)
      const auto idx = lane_iota<T, N>() +
                       splat<detail::int_of_t<sizeof(T)>, N>(
                           static_cast<detail::int_of_t<sizeof(T)>>(n % N));
      st<T, N>(r, __builtin_shuffle(ld<T, N>(a), idx));
#endif
    } else {
      scalar_backend::shuffle_down<T, N>(r, a, n);
    }
  }

  template <class T, unsigned N>
  static void shuffle_up(T* r, const T* a, unsigned n) {
    shuffle_down<T, N>(r, a, N - (n % N));
  }

  template <class T, unsigned N>
  static void reverse(T* r, const T* a) {
    if constexpr (kHaveDynShuffle) {
#if defined(__GNUC__) && !defined(__clang__)
      const auto idx =
          splat<detail::int_of_t<sizeof(T)>, N>(
              static_cast<detail::int_of_t<sizeof(T)>>(N - 1)) -
          lane_iota<T, N>();
      st<T, N>(r, __builtin_shuffle(ld<T, N>(a), idx));
#endif
    } else {
      scalar_backend::reverse<T, N>(r, a);
    }
  }

  template <class T, unsigned N>
  static void butterfly(T* r, const T* a, unsigned stride) {
    if constexpr (kHaveDynShuffle) {
#if defined(__GNUC__) && !defined(__clang__)
      const auto idx = lane_iota<T, N>() ^
                       splat<detail::int_of_t<sizeof(T)>, N>(
                           static_cast<detail::int_of_t<sizeof(T)>>(stride));
      st<T, N>(r, __builtin_shuffle(ld<T, N>(a), idx));
#endif
    } else {
      scalar_backend::butterfly<T, N>(r, a, stride);
    }
  }

  template <class T, unsigned N>
  static void permute(T* r, const T* a, const std::int32_t* idx) {
    if constexpr (kHaveDynShuffle && N <= 65536) {
#if defined(__GNUC__) && !defined(__clang__)
      // Truncating/extending int32 indices to lane-sized ones preserves the
      // value modulo N for power-of-two N <= 2^16 -- same lane selection as
      // the scalar `static_cast<unsigned>(idx) % N`.
      const auto mi = cvt<detail::int_of_t<sizeof(T)>, std::int32_t, N>(
          ld<std::int32_t, N>(idx));
      st<T, N>(r, __builtin_shuffle(ld<T, N>(a), mi));
#endif
    } else {
      scalar_backend::permute<T, N>(r, a, idx);
    }
  }

  template <class T, unsigned N>
  static void interleave_zip(T* lo, T* hi, const T* a, const T* b) {
    if constexpr (kHaveDynShuffle) {
#if defined(__GNUC__) && !defined(__clang__)
      using I = detail::int_of_t<sizeof(T)>;
      m<T, N> zlo{}, zhi{};
      for (unsigned i = 0; i < N / 2; ++i) {
        zlo[2 * i] = static_cast<I>(i);
        zlo[2 * i + 1] = static_cast<I>(N + i);
        zhi[2 * i] = static_cast<I>(N / 2 + i);
        zhi[2 * i + 1] = static_cast<I>(N + N / 2 + i);
      }  // constant-folded
      const auto va = ld<T, N>(a);
      const auto vb = ld<T, N>(b);
      st<T, N>(lo, __builtin_shuffle(va, vb, zlo));
      st<T, N>(hi, __builtin_shuffle(va, vb, zhi));
#endif
    } else {
      scalar_backend::interleave_zip<T, N>(lo, hi, a, b);
    }
  }

  template <class T, unsigned N>
  static void interleave_unzip(T* even, T* odd, const T* a, const T* b) {
    if constexpr (kHaveDynShuffle) {
#if defined(__GNUC__) && !defined(__clang__)
      using I = detail::int_of_t<sizeof(T)>;
      m<T, N> ze{}, zo{};
      for (unsigned i = 0; i < N; ++i) {
        ze[i] = static_cast<I>(2 * i);
        zo[i] = static_cast<I>(2 * i + 1);
      }  // constant-folded
      const auto va = ld<T, N>(a);
      const auto vb = ld<T, N>(b);
      st<T, N>(even, __builtin_shuffle(va, vb, ze));
      st<T, N>(odd, __builtin_shuffle(va, vb, zo));
#endif
    } else {
      scalar_backend::interleave_unzip<T, N>(even, odd, a, b);
    }
  }

  template <class T, unsigned N>
  static void filter_even(T* r, const T* a) {
    scalar_backend::filter_even<T, N>(r, a);  // N/2-lane strided copy
  }

  template <class T, unsigned N>
  static void filter_odd(T* r, const T* a) {
    scalar_backend::filter_odd<T, N>(r, a);
  }

  // ---- reductions ----
  // Integer lane folds are associative (adds wrap modulo 2^|T|, min/max
  // exactly), so a pairwise tree is bit-identical to the scalar backend's
  // sequential fold and runs in log2(N) lane-local steps. FP addition is
  // not associative, so float lanes keep the scalar sequential order.

 private:
  /// Pairwise tree fold: splits even/odd lanes into double-width vectors,
  /// combines them with `op`, narrows back to T (modulo 2^|T| for adds,
  /// exact for min/max), and recurses until one lane remains.
  template <class T, unsigned N, class F>
  static T fold_tree(const v<T, N>& x, F op) {
    if constexpr (N == 1) {
      return x[0];
    } else {
      using WS = detail::int_of_t<2 * sizeof(T)>;
      using W = std::conditional_t<std::is_signed_v<T>, WS,
                                   std::make_unsigned_t<WS>>;
      const auto [even, odd] = lane_split<T, N / 2>(x);
      return fold_tree<T, N / 2>(cvt<T, W, N / 2>(op(even, odd)), op);
    }
  }

  /// Tree folds need: integer lanes narrow enough to widen, a power-of-two
  /// lane count, and the little-endian pair reinterpretation.
  template <class T, unsigned N>
  static constexpr bool kTreeFold =
      std::is_integral_v<T> && sizeof(T) <= 4 && N > 1 &&
      (N & (N - 1)) == 0 && std::endian::native == std::endian::little;

 public:
  template <class T, unsigned N>
  static T reduce_add(const T* a) {
    if constexpr (kTreeFold<T, N>) {
      return fold_tree<T, N>(ld<T, N>(a),
                             [](auto e, auto o) { return e + o; });
    } else {
      return scalar_backend::reduce_add<T, N>(a);
    }
  }
  template <class T, unsigned N>
  static T reduce_min(const T* a) {
    if constexpr (kTreeFold<T, N>) {
      return fold_tree<T, N>(ld<T, N>(a),
                             [](auto e, auto o) { return (o < e) ? o : e; });
    } else {
      return scalar_backend::reduce_min<T, N>(a);
    }
  }
  template <class T, unsigned N>
  static T reduce_max(const T* a) {
    if constexpr (kTreeFold<T, N>) {
      return fold_tree<T, N>(ld<T, N>(a),
                             [](auto e, auto o) { return (o > e) ? o : e; });
    } else {
      return scalar_backend::reduce_max<T, N>(a);
    }
  }
};

#else  // !CGSIM_SIMD_HAVE_NATIVE

using native_backend = scalar_backend;

#endif

// The default backend the aie:: API dispatches to; the CGSIM_SIMD CMake
// option (native | scalar) controls CGSIM_SIMD_FORCE_SCALAR.
#if defined(CGSIM_SIMD_FORCE_SCALAR)
using backend = scalar_backend;
#else
using backend = native_backend;
#endif

}  // namespace aie::simd

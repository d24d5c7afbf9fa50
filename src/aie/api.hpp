// aie -- functional emulation of the AIE vector API (UG1079 "AIE API").
//
// The operation set covers what the paper's four ported AMD examples need:
// element-wise arithmetic and MACs (bilinear, IIR), sliding multiplies
// (farrow's fixed-point convolution), and compare/select/shuffle primitives
// (bitonic sorting networks). Every operation records its VLIW issue-slot
// class for the cycle-approximate simulator.
//
// Lane arithmetic executes on a SIMD backend (simd.hpp): the default
// (`aie::simd::backend`, selected by the CGSIM_SIMD CMake option) maps each
// emulated op onto host vector instructions; passing an explicit backend
// template argument (`aie::add<aie::simd::scalar_backend>(a, b)`) pins an
// individual call, which is how the equivalence tests and the SIMD ablation
// bench compare backends within one binary. Instrumentation is recorded
// once per emulated operation, before backend dispatch, so OpCounts are
// byte-identical across backends.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <type_traits>
#include <utility>

#include "accum.hpp"
#include "cycle_model.hpp"
#include "simd.hpp"
#include "vector.hpp"

namespace aie {

namespace detail {
template <class T>
using acc_tag_for = std::conditional_t<std::is_floating_point_v<T>,
                                       accfloat_tag, acc48_tag>;
template <class T>
using acc_elem_for =
    typename acc_storage<acc_tag_for<T>>::type;
}  // namespace detail

// ---------- element-wise vector arithmetic ----------

template <class B = simd::backend, class T, unsigned N>
[[nodiscard]] inline vector<T, N> add(const vector<T, N>& a,
                                      const vector<T, N>& b) {
  record(OpClass::vector_alu);
  vector<T, N> r;
  B::template add<T, N>(r.data().data(), a.data().data(), b.data().data());
  return r;
}

template <class B = simd::backend, class T, unsigned N>
[[nodiscard]] inline vector<T, N> sub(const vector<T, N>& a,
                                      const vector<T, N>& b) {
  record(OpClass::vector_alu);
  vector<T, N> r;
  B::template sub<T, N>(r.data().data(), a.data().data(), b.data().data());
  return r;
}

template <class B = simd::backend, class T, unsigned N>
[[nodiscard]] inline vector<T, N> neg(const vector<T, N>& a) {
  record(OpClass::vector_alu);
  vector<T, N> r;
  B::template neg<T, N>(r.data().data(), a.data().data());
  return r;
}

template <class B = simd::backend, class T, unsigned N>
[[nodiscard]] inline vector<T, N> abs(const vector<T, N>& a) {
  record(OpClass::vector_alu);
  vector<T, N> r;
  B::template abs_<T, N>(r.data().data(), a.data().data());
  return r;
}

/// Per-lane clamp into [lo, hi] (AIE `aie::max(aie::min(...))` idiom).
template <class B = simd::backend, class T, unsigned N>
[[nodiscard]] inline vector<T, N> clamp(const vector<T, N>& a, T lo, T hi) {
  record(OpClass::vector_alu, 2);
  vector<T, N> r;
  B::template clamp<T, N>(r.data().data(), a.data().data(), lo, hi);
  return r;
}

template <class B = simd::backend, class T, unsigned N>
[[nodiscard]] inline vector<T, N> min(const vector<T, N>& a,
                                      const vector<T, N>& b) {
  record(OpClass::vector_alu);
  vector<T, N> r;
  B::template min_<T, N>(r.data().data(), a.data().data(), b.data().data());
  return r;
}

template <class B = simd::backend, class T, unsigned N>
[[nodiscard]] inline vector<T, N> max(const vector<T, N>& a,
                                      const vector<T, N>& b) {
  record(OpClass::vector_alu);
  vector<T, N> r;
  B::template max_<T, N>(r.data().data(), a.data().data(), b.data().data());
  return r;
}

// ---------- multiply / multiply-accumulate ----------

/// Lane-wise multiply into an accumulator (AIE `aie::mul`).
template <class B = simd::backend, class T, unsigned N>
[[nodiscard]] inline accum<detail::acc_tag_for<T>, N> mul(
    const vector<T, N>& a, const vector<T, N>& b) {
  record(OpClass::vector_mac);
  accum<detail::acc_tag_for<T>, N> acc;
  B::template mul<detail::acc_elem_for<T>, T, N>(
      acc.data().data(), a.data().data(), b.data().data());
  return acc;
}

/// Lane-wise multiply-accumulate (AIE `aie::mac`).
template <class B = simd::backend, class T, unsigned N>
[[nodiscard]] inline accum<detail::acc_tag_for<T>, N> mac(
    const accum<detail::acc_tag_for<T>, N>& acc, const vector<T, N>& a,
    const vector<T, N>& b) {
  record(OpClass::vector_mac);
  accum<detail::acc_tag_for<T>, N> r = acc;
  B::template mac<detail::acc_elem_for<T>, T, N>(
      r.data().data(), a.data().data(), b.data().data());
  return r;
}

/// Lane-wise multiply-subtract (AIE `aie::msc`).
template <class B = simd::backend, class T, unsigned N>
[[nodiscard]] inline accum<detail::acc_tag_for<T>, N> msc(
    const accum<detail::acc_tag_for<T>, N>& acc, const vector<T, N>& a,
    const vector<T, N>& b) {
  record(OpClass::vector_mac);
  accum<detail::acc_tag_for<T>, N> r = acc;
  B::template msc<detail::acc_elem_for<T>, T, N>(
      r.data().data(), a.data().data(), b.data().data());
  return r;
}

/// Multiply by a broadcast scalar (AIE `aie::mul(vec, scalar)`).
template <class B = simd::backend, class T, unsigned N>
[[nodiscard]] inline accum<detail::acc_tag_for<T>, N> mul(
    const vector<T, N>& a, T s) {
  record(OpClass::vector_mac);
  accum<detail::acc_tag_for<T>, N> acc;
  B::template mul_s<detail::acc_elem_for<T>, T, N>(acc.data().data(),
                                                   a.data().data(), s);
  return acc;
}

template <class B = simd::backend, class T, unsigned N>
[[nodiscard]] inline accum<detail::acc_tag_for<T>, N> mac(
    const accum<detail::acc_tag_for<T>, N>& acc, const vector<T, N>& a, T s) {
  record(OpClass::vector_mac);
  accum<detail::acc_tag_for<T>, N> r = acc;
  B::template mac_s<detail::acc_elem_for<T>, T, N>(r.data().data(),
                                                   a.data().data(), s);
  return r;
}

// ---------- ML extensions: dot-product MACs, converts, fixed exp ----------

/// 4-deep dot-product multiply into int32 accumulator lanes (the AIE-ML
/// 8-bit MAC shape): result lane l = sum_{j<4} a[4l+j] * b[4l+j].
template <class B = simd::backend, class T, unsigned N>
[[nodiscard]] inline acc32<N / 4> mul_dot4(const vector<T, N>& a,
                                           const vector<T, N>& b) {
  static_assert(std::is_integral_v<T> && sizeof(T) <= 2 && N % 4 == 0);
  record(OpClass::vector_mac);
  acc32<N / 4> acc;
  B::template mac_dot4<std::int32_t, T, N / 4>(
      acc.data().data(), a.data().data(), b.data().data());
  return acc;
}

/// 4-deep dot-product multiply-accumulate (AIE-ML `aie::mac` 8-bit mode).
template <class B = simd::backend, class T, unsigned N>
[[nodiscard]] inline acc32<N / 4> mac_dot4(const acc32<N / 4>& acc,
                                           const vector<T, N>& a,
                                           const vector<T, N>& b) {
  static_assert(std::is_integral_v<T> && sizeof(T) <= 2 && N % 4 == 0);
  record(OpClass::vector_mac);
  acc32<N / 4> r = acc;
  B::template mac_dot4<std::int32_t, T, N / 4>(
      r.data().data(), a.data().data(), b.data().data());
  return r;
}

/// Broadcast-scalar MAC into int32 accumulator lanes: acc[l] += s * a[l]
/// (the conv2d tap step on AIE-ML's 32-bit accumulators).
template <class B = simd::backend, class T, unsigned N>
[[nodiscard]] inline acc32<N> mac(const acc32<N>& acc, const vector<T, N>& a,
                                  std::int32_t s) {
  static_assert(std::is_integral_v<T> && sizeof(T) <= 2);
  record(OpClass::vector_mac);
  acc32<N> r = acc;
  B::template mac_bcast<std::int32_t, T, N>(r.data().data(), a.data().data(),
                                            s);
  return r;
}

/// Widening lane convert (AIE `aie::unpack`): int8 -> int16/int32, etc.
template <class To, class B = simd::backend, class From, unsigned N>
[[nodiscard]] inline vector<To, N> unpack(const vector<From, N>& a) {
  static_assert(sizeof(To) >= sizeof(From));
  record(OpClass::vector_alu);
  vector<To, N> r;
  B::template convert<To, From, N>(r.data().data(), a.data().data());
  return r;
}

/// Narrowing lane convert with saturation (AIE `aie::pack` with the
/// saturating mode): int32 -> int16/int8, int16 -> int8.
template <class To, class B = simd::backend, class From, unsigned N>
[[nodiscard]] inline vector<To, N> pack_sat(const vector<From, N>& a) {
  record(OpClass::vector_shift);
  vector<To, N> r;
  B::template convert_sat<To, From, N>(r.data().data(), a.data().data());
  return r;
}

/// Widens bf16 lanes to a float vector (bf16 load/convert emulation).
template <class B = simd::backend, unsigned N>
[[nodiscard]] inline vector<float, N> to_float(const vector<bf16, N>& a) {
  record(OpClass::vector_alu);
  vector<float, N> r;
  // bf16 is layout-identical to its uint16 payload (single-member struct).
  B::template bf16_to_f32<N>(
      r.data().data(),
      reinterpret_cast<const std::uint16_t*>(a.data().data()));
  return r;
}

/// Narrows float lanes to bf16 (round-to-nearest-even, NaNs quieted).
template <class B = simd::backend, unsigned N>
[[nodiscard]] inline vector<bf16, N> to_bf16(const vector<float, N>& a) {
  record(OpClass::vector_alu);
  vector<bf16, N> r;
  B::template f32_to_bf16<N>(
      reinterpret_cast<std::uint16_t*>(r.data().data()), a.data().data());
  return r;
}

/// Fixed-point negative exponential: r[i] = 2^(-u[i]/2^15) in Q15 (cubic
/// polynomial, ~2e-4 relative error; negative inputs clamp to 0, i.e.
/// result 1.0). The softmax exponential on integer lanes.
template <class B = simd::backend, unsigned N>
[[nodiscard]] inline vector<std::int32_t, N> exp2_neg_q15(
    const vector<std::int32_t, N>& a) {
  record(OpClass::vector_alu, /*range split + poly*/ 6);
  vector<std::int32_t, N> r;
  B::template exp2_neg_q15<N>(r.data().data(), a.data().data());
  return r;
}

// ---------- sliding multiplies (FIR-style convolution) ----------

/// Mirrors aie::sliding_mul_ops<Lanes, Points, CoeffStep, DataStepX, ...>:
/// lane L computes sum_{p<Points} coeff[cstart + p*CoeffStep] *
/// data[dstart + L*DataStepY + p*DataStepX]. This is the workhorse of
/// hand-optimized AIE FIR/Farrow kernels.
///
/// When successive lanes read contiguous data (DataStepY == 1) and no index
/// wraps, the taps run over whole lane vectors: one backend mac_window call
/// where the backend has a window form for the shape (it widens the data
/// once for all taps), else one broadcast-MAC per tap (`Points` vector MACs
/// total). Otherwise the generic per-lane form runs. Every path accumulates
/// taps in the same order, so results are bit-exact across paths and
/// backends.
template <unsigned Lanes, unsigned Points, int CoeffStep = 1,
          int DataStepX = 1, int DataStepY = 1, class B = simd::backend>
struct sliding_mul_ops {
  template <class C, unsigned NC, class D, unsigned ND>
  [[nodiscard]] static accum<detail::acc_tag_for<D>, Lanes> mul(
      const vector<C, NC>& coeff, unsigned cstart, const vector<D, ND>& data,
      unsigned dstart) {
    record(OpClass::vector_mac, Points);  // Points MACs issue back-to-back
    accum<detail::acc_tag_for<D>, Lanes> acc;
    accumulate(acc, coeff, cstart, data, dstart);
    return acc;
  }

  template <class C, unsigned NC, class D, unsigned ND>
  [[nodiscard]] static accum<detail::acc_tag_for<D>, Lanes> mac(
      accum<detail::acc_tag_for<D>, Lanes> acc, const vector<C, NC>& coeff,
      unsigned cstart, const vector<D, ND>& data, unsigned dstart) {
    record(OpClass::vector_mac, Points);
    accumulate(acc, coeff, cstart, data, dstart);
    return acc;
  }

 private:
  /// True when every data access of this call lands in [0, ND) without the
  /// generic path's modulo wrap, so lanes can load contiguously.
  template <unsigned ND>
  [[nodiscard]] static bool contiguous_in_bounds(unsigned dstart) {
    if constexpr (DataStepY != 1) return (void)dstart, false;
    const int base = static_cast<int>(dstart);
    const int span = static_cast<int>(Points - 1) * DataStepX;
    const int lo = base + std::min(0, span);
    const int hi = base + std::max(0, span) + static_cast<int>(Lanes) - 1;
    return lo >= 0 && hi < static_cast<int>(ND);
  }

  template <class C, unsigned NC, class D, unsigned ND>
  static void accumulate(accum<detail::acc_tag_for<D>, Lanes>& acc,
                         const vector<C, NC>& coeff, unsigned cstart,
                         const vector<D, ND>& data, unsigned dstart) {
    using A = detail::acc_elem_for<D>;
    if (contiguous_in_bounds<ND>(dstart)) {
      std::array<C, Points> c;  // tap coefficients, in tap order
      for (unsigned p = 0; p < Points; ++p) {
        const auto ci =
            static_cast<unsigned>(static_cast<int>(cstart) +
                                  static_cast<int>(p) * CoeffStep) % NC;
        c[p] = coeff.get(ci);
      }
      if constexpr (B::vectorized) {
        if (B::template mac_window<A, C, D, ND, Lanes, Points, DataStepX>(
                acc.data().data(), c.data(), data.data().data(), dstart)) {
          return;
        }
      }
      for (unsigned p = 0; p < Points; ++p) {
        const int di0 = static_cast<int>(dstart) +
                        static_cast<int>(p) * DataStepX;
        B::template mac_bcast<A, D, Lanes>(
            acc.data().data(), data.data().data() + di0,
            static_cast<A>(c[p]));
      }
      return;
    }
    for (unsigned lane = 0; lane < Lanes; ++lane) {
      A sum = acc.get(lane);
      for (unsigned p = 0; p < Points; ++p) {
        const auto ci =
            static_cast<unsigned>(static_cast<int>(cstart) +
                                  static_cast<int>(p) * CoeffStep) % NC;
        const auto di = static_cast<unsigned>(
                            static_cast<int>(dstart) +
                            static_cast<int>(lane) * DataStepY +
                            static_cast<int>(p) * DataStepX) %
                        ND;
        sum = sum + static_cast<A>(coeff.get(ci)) * static_cast<A>(data.get(di));
      }
      acc.set(lane, sum);
    }
  }
};

/// Symmetric sliding multiply (AIE `sliding_mul_sym_ops`): exploits
/// coefficient symmetry c[p] == c[Points-1-p] by pre-adding the mirrored
/// data samples, halving the MAC count -- the standard trick in
/// hand-optimized symmetric FIR kernels.
template <unsigned Lanes, unsigned Points, class B = simd::backend>
struct sliding_mul_sym_ops {
  static_assert(Points % 2 == 0, "symmetric form implemented for even taps");

  template <class C, unsigned NC, class D, unsigned ND>
  [[nodiscard]] static accum<detail::acc_tag_for<D>, Lanes> mul(
      const vector<C, NC>& coeff, unsigned cstart, const vector<D, ND>& data,
      unsigned dstart) {
    record(OpClass::vector_mac, Points / 2);
    record(OpClass::vector_alu, Points / 2);  // the pre-adds
    using A = detail::acc_elem_for<D>;
    accum<detail::acc_tag_for<D>, Lanes> acc;
    // Contiguous fast path: lanes read data[dstart + lane + p] and the
    // mirrored data[dstart + lane + Points-1-p]; all accesses stay in
    // bounds when the widest one does.
    if (dstart + Points - 1 + Lanes - 1 < ND) {
      for (unsigned p = 0; p < Points / 2; ++p) {
        B::template mac_bcast_pair<A, D, Lanes>(
            acc.data().data(), data.data().data() + dstart + p,
            data.data().data() + dstart + Points - 1 - p,
            static_cast<A>(coeff.get((cstart + p) % NC)));
      }
      return acc;
    }
    for (unsigned lane = 0; lane < Lanes; ++lane) {
      A sum{};
      for (unsigned p = 0; p < Points / 2; ++p) {
        const A c = static_cast<A>(coeff.get((cstart + p) % NC));
        const A lo = static_cast<A>(data.get((dstart + lane + p) % ND));
        const A hi = static_cast<A>(
            data.get((dstart + lane + Points - 1 - p) % ND));
        sum += c * (lo + hi);
      }
      acc.set(lane, sum);
    }
    return acc;
  }
};

// ---------- compares, select, shuffles (sorting networks) ----------

template <class B = simd::backend, class T, unsigned N>
[[nodiscard]] inline mask<N> lt(const vector<T, N>& a, const vector<T, N>& b) {
  record(OpClass::vector_alu);
  mask<N> m;
  B::template lt<T, N>(m.data().data(), a.data().data(), b.data().data());
  return m;
}

template <class B = simd::backend, class T, unsigned N>
[[nodiscard]] inline mask<N> ge(const vector<T, N>& a, const vector<T, N>& b) {
  record(OpClass::vector_alu);
  mask<N> m;
  B::template ge<T, N>(m.data().data(), a.data().data(), b.data().data());
  return m;
}

/// Per-lane select: lane i is a[i] where m[i], else b[i] (AIE `select`).
template <class B = simd::backend, class T, unsigned N>
[[nodiscard]] inline vector<T, N> select(const vector<T, N>& a,
                                         const vector<T, N>& b,
                                         const mask<N>& m) {
  record(OpClass::vector_alu);
  vector<T, N> r;
  B::template select<T, N>(r.data().data(), a.data().data(), b.data().data(),
                           m.data().data());
  return r;
}

/// Rotates lanes down by `n` (lane i <- lane (i+n) mod N).
template <class B = simd::backend, class T, unsigned N>
[[nodiscard]] inline vector<T, N> shuffle_down(const vector<T, N>& a,
                                               unsigned n) {
  record(OpClass::shuffle);
  vector<T, N> r;
  B::template shuffle_down<T, N>(r.data().data(), a.data().data(), n);
  return r;
}

/// Rotates lanes up by `n` (lane i <- lane (i-n) mod N).
template <class B = simd::backend, class T, unsigned N>
[[nodiscard]] inline vector<T, N> shuffle_up(const vector<T, N>& a,
                                             unsigned n) {
  record(OpClass::shuffle);
  vector<T, N> r;
  B::template shuffle_up<T, N>(r.data().data(), a.data().data(), n);
  return r;
}

/// Reverses lane order (AIE `aie::reverse`).
template <class B = simd::backend, class T, unsigned N>
[[nodiscard]] inline vector<T, N> reverse(const vector<T, N>& a) {
  record(OpClass::shuffle);
  vector<T, N> r;
  B::template reverse<T, N>(r.data().data(), a.data().data());
  return r;
}

/// Exchanges lanes within blocks of 2*`stride`: lane i swaps with lane
/// i XOR stride. This is the butterfly permutation bitonic networks use.
template <class B = simd::backend, class T, unsigned N>
[[nodiscard]] inline vector<T, N> butterfly(const vector<T, N>& a,
                                            unsigned stride) {
  record(OpClass::shuffle);
  vector<T, N> r;
  B::template butterfly<T, N>(r.data().data(), a.data().data(), stride);
  return r;
}

/// Gathers arbitrary lanes: r[i] = a[idx[i]] (AIE generalized shuffle).
template <class B = simd::backend, class T, unsigned N>
[[nodiscard]] inline vector<T, N> permute(const vector<T, N>& a,
                                          const vector<std::int32_t, N>& idx) {
  record(OpClass::shuffle);
  vector<T, N> r;
  B::template permute<T, N>(r.data().data(), a.data().data(),
                            idx.data().data());
  return r;
}

/// Interleaves even/odd lanes of two vectors (AIE `interleave_zip`).
template <class B = simd::backend, class T, unsigned N>
[[nodiscard]] inline std::pair<vector<T, N>, vector<T, N>> interleave_zip(
    const vector<T, N>& a, const vector<T, N>& b) {
  record(OpClass::shuffle, 2);
  vector<T, N> lo, hi;
  B::template interleave_zip<T, N>(lo.data().data(), hi.data().data(),
                                   a.data().data(), b.data().data());
  return {lo, hi};
}

/// De-interleaves lanes of two vectors (AIE `interleave_unzip`).
template <class B = simd::backend, class T, unsigned N>
[[nodiscard]] inline std::pair<vector<T, N>, vector<T, N>> interleave_unzip(
    const vector<T, N>& a, const vector<T, N>& b) {
  record(OpClass::shuffle, 2);
  vector<T, N> even, odd;
  B::template interleave_unzip<T, N>(even.data().data(), odd.data().data(),
                                     a.data().data(), b.data().data());
  return {even, odd};
}

/// Keeps the even-indexed lanes in the lower half (AIE `filter_even`);
/// the upper half is zero.
template <class B = simd::backend, class T, unsigned N>
[[nodiscard]] inline vector<T, N / 2> filter_even(const vector<T, N>& a) {
  record(OpClass::shuffle);
  vector<T, N / 2> r;
  B::template filter_even<T, N>(r.data().data(), a.data().data());
  return r;
}

/// Keeps the odd-indexed lanes (AIE `filter_odd`).
template <class B = simd::backend, class T, unsigned N>
[[nodiscard]] inline vector<T, N / 2> filter_odd(const vector<T, N>& a) {
  record(OpClass::shuffle);
  vector<T, N / 2> r;
  B::template filter_odd<T, N>(r.data().data(), a.data().data());
  return r;
}

// ---------- reductions ----------
// Sequential on every backend: float reductions are order-sensitive, and a
// single evaluation order is what keeps backends bit-exact (simd.hpp).

template <class B = simd::backend, class T, unsigned N>
[[nodiscard]] inline T reduce_add(const vector<T, N>& a) {
  record(OpClass::vector_alu, /*log-tree*/ 4);
  return B::template reduce_add<T, N>(a.data().data());
}

template <class B = simd::backend, class T, unsigned N>
[[nodiscard]] inline T reduce_min(const vector<T, N>& a) {
  record(OpClass::vector_alu, 4);
  return B::template reduce_min<T, N>(a.data().data());
}

template <class B = simd::backend, class T, unsigned N>
[[nodiscard]] inline T reduce_max(const vector<T, N>& a) {
  record(OpClass::vector_alu, 4);
  return B::template reduce_max<T, N>(a.data().data());
}

}  // namespace aie

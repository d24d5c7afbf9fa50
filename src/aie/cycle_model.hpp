// aie -- operation instrumentation feeding the cycle-approximate simulator.
//
// The paper links AMD's proprietary x86 models of the AIE intrinsics into
// cgsim (Section 3.9) and measures cycle counts with AMD's aiesim. Neither
// is redistributable, so this emulation layer counts the operations a
// kernel executes (classified by VLIW issue slot) and the aiesim substitute
// converts the counts into cycles with a VLIW issue model (see
// src/aiesim/cost_model.hpp and DESIGN.md, substitution #2).
//
// Instrumentation is collected into whichever OpCounter is currently
// *active* (a thread-local pointer). When none is active -- the common case
// for functional simulation -- recording is a single predictable branch.
// The hot path pays one record() per emulated *operation*, never per lane:
// multi-issue ops pass their issue count as `n` instead of looping, and
// kernels with per-element scalar work batch it into one call (see
// src/apps/iir.hpp). Around a kernel activation the aiesim engine
// activates a stack-local OpCounter with ScopedCounter, prices the
// activation's compute from it and adds it to the tile's totals once.
// ScopedCounterBatch instead merges a stack-local count into a longer-lived
// counter when it ends; the engine's test oracle counts that way.
//
// Defining CGSIM_AIE_NO_INSTRUMENT (CMake option CGSIM_INSTRUMENT=OFF)
// compiles recording out entirely for pure functional runs; the
// cycle-approximate backend then sees all-zero counts, so only use it for
// builds that never ask for timing.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

namespace aie {

/// Classification of emulated operations by the AIE VLIW issue slot they
/// occupy (UG1079: one vector op, two loads, one store and scalar/move ops
/// can issue per cycle).
enum class OpClass : std::uint8_t {
  vector_mac,   ///< vector multiply-accumulate (the fixed/float MAC path)
  vector_alu,   ///< vector add/sub/min/max/compare/select
  vector_shift, ///< shift-round-saturate, upshift
  shuffle,      ///< lane permutes, extracts, interleaves
  load,         ///< 128/256-bit vector load
  store,        ///< vector store
  scalar,       ///< scalar ALU / address computation
};

constexpr std::size_t kNumOpClasses = 7;

[[nodiscard]] constexpr std::string_view op_class_name(OpClass c) {
  switch (c) {
    case OpClass::vector_mac: return "vector_mac";
    case OpClass::vector_alu: return "vector_alu";
    case OpClass::vector_shift: return "vector_shift";
    case OpClass::shuffle: return "shuffle";
    case OpClass::load: return "load";
    case OpClass::store: return "store";
    case OpClass::scalar: return "scalar";
  }
  return "?";
}

/// Accumulated operation counts for one kernel activation window.
struct OpCounts {
  std::array<std::uint64_t, kNumOpClasses> ops{};

  [[nodiscard]] std::uint64_t operator[](OpClass c) const {
    return ops[static_cast<std::size_t>(c)];
  }
  void add(OpClass c, std::uint64_t n) {
    ops[static_cast<std::size_t>(c)] += n;
  }
  OpCounts& operator+=(const OpCounts& o) {
    for (std::size_t i = 0; i < kNumOpClasses; ++i) ops[i] += o.ops[i];
    return *this;
  }
  [[nodiscard]] bool operator==(const OpCounts&) const = default;
  [[nodiscard]] std::uint64_t total() const {
    std::uint64_t t = 0;
    for (auto v : ops) t += v;
    return t;
  }
};

/// Collects instrumentation while attached; the aiesim engine attaches one
/// counter per simulated tile around every kernel resumption.
class OpCounter {
 public:
  OpCounts counts{};

  void reset() { counts = OpCounts{}; }
};

namespace detail {
inline thread_local OpCounter* g_active_counter = nullptr;
}

/// RAII activation of an OpCounter on the current thread.
class ScopedCounter {
 public:
  explicit ScopedCounter(OpCounter* c) : prev_(detail::g_active_counter) {
    detail::g_active_counter = c;
  }
  ~ScopedCounter() { detail::g_active_counter = prev_; }
  ScopedCounter(const ScopedCounter&) = delete;
  ScopedCounter& operator=(const ScopedCounter&) = delete;

 private:
  OpCounter* prev_;
};

[[nodiscard]] inline OpCounter* active_counter() {
  return detail::g_active_counter;
}

inline void set_active_counter(OpCounter* c) {
  detail::g_active_counter = c;
}

/// Records `n` operations of class `c` into the active counter, if any.
#if defined(CGSIM_AIE_NO_INSTRUMENT)
inline void record(OpClass, std::uint64_t = 1) {}
#else
inline void record(OpClass c, std::uint64_t n = 1) {
  if (OpCounter* cnt = detail::g_active_counter; cnt != nullptr) {
    cnt->counts.add(c, n);
  }
}
#endif

/// Batched activation for one kernel activation window: caches the
/// destination counter once, redirects all record() calls to a stack-local
/// (cache-hot) OpCounts, and merges into the destination with a single
/// add when the activation ends. Final counts are byte-identical to
/// attaching the destination directly with ScopedCounter.
class ScopedCounterBatch {
 public:
  // A null destination deactivates counting, matching ScopedCounter{nullptr}.
  explicit ScopedCounterBatch(OpCounter* dest)
      : dest_(dest), scoped_(dest != nullptr ? &local_ : nullptr) {}
  ~ScopedCounterBatch() {
    if (dest_ != nullptr) dest_->counts += local_.counts;
  }
  ScopedCounterBatch(const ScopedCounterBatch&) = delete;
  ScopedCounterBatch& operator=(const ScopedCounterBatch&) = delete;

 private:
  OpCounter local_{};
  OpCounter* dest_;
  ScopedCounter scoped_;
};

}  // namespace aie

// aiesim -- execution trace (the measurement instrument of paper Table 1).
//
// AMD's aiesim reports per-iteration timestamps in its execution trace; the
// paper derives "processing time per input block" from the deltas. This
// trace records one event per element a kernel writes to a global output,
// in virtual AIE cycles, and computes the same statistics.
//
// The engine records into an append-only store: kernel names are interned
// once at bind time, records carry a 12-byte POD (cycles, name id,
// iteration) into fixed-size chunks whose capacity is reserved up front,
// so the hot path never copies a string or reallocates an element. The
// string-based events() view is materialized lazily for consumers; the
// test oracle (tests/aiesim/oracle/) records through the string overload,
// and both funnel into the same store so their digests compare.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace aiesim {

struct TraceEvent {
  std::uint64_t cycles = 0;     ///< virtual time of the event (AIE cycles)
  std::string kernel;           ///< producing kernel name
  std::uint64_t iteration = 0;  ///< running iteration count of that kernel
};

/// Ordered list of output-iteration events in virtual time.
class Trace {
 public:
  /// Compact stored form: the kernel name is an interned id.
  struct Record {
    std::uint64_t cycles = 0;
    std::uint32_t name = 0;
    std::uint64_t iteration = 0;
  };

  static constexpr std::uint32_t kNoName = 0xFFFFFFFFu;

  /// Returns a stable id for `kernel`, interning it on first use.
  std::uint32_t intern(std::string_view kernel) {
    for (std::uint32_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == kernel) return i;
    }
    names_.emplace_back(kernel);
    return static_cast<std::uint32_t>(names_.size() - 1);
  }

  /// Pre-sizes the name table and the first record chunk so that a run
  /// recording up to `records_hint` events performs no element copies.
  void reserve(std::size_t names_hint, std::size_t records_hint) {
    names_.reserve(names_.size() + names_hint);
    chunks_.reserve(chunks_.size() + records_hint / kChunkSize + 1);
    if (chunks_.empty()) new_chunk();
  }

  /// Append by interned name id (the engine's path).
  void record(std::uint64_t cycles, std::uint32_t name,
              std::uint64_t iteration) {
    if (chunks_.empty() || chunks_.back().size() == kChunkSize) new_chunk();
    chunks_.back().push_back(Record{cycles, name, iteration});
    ++size_;
    cache_valid_ = false;
  }

  /// Append by kernel name (the test oracle, direct users): interns on the
  /// way in.
  void record(std::uint64_t cycles, const std::string& kernel,
              std::uint64_t iteration) {
    record(cycles, intern(kernel), iteration);
  }

  [[nodiscard]] std::size_t size() const { return size_; }

  [[nodiscard]] const std::string& name(std::uint32_t id) const {
    return names_[id];
  }

  [[nodiscard]] std::size_t name_count() const { return names_.size(); }

  /// Record-level view (interned-id form) for layers that merge traces
  /// without materializing strings; `i < size()`.
  [[nodiscard]] const Record& record_at(std::size_t i) const { return at(i); }

  /// String-typed view, materialized on first use after recording.
  [[nodiscard]] const std::vector<TraceEvent>& events() const {
    if (!cache_valid_) {
      events_cache_.clear();
      events_cache_.reserve(size_);
      for (std::size_t i = 0; i < size_; ++i) {
        const Record& r = at(i);
        events_cache_.push_back(
            TraceEvent{r.cycles, names_[r.name], r.iteration});
      }
      cache_valid_ = true;
    }
    return events_cache_;
  }

  /// Steady-state cycles between consecutive output iterations, skipping
  /// `warmup` leading events (pipeline fill).
  [[nodiscard]] double mean_iteration_delta(std::size_t warmup = 1) const {
    if (size_ < warmup + 2) return 0.0;
    const std::uint64_t first = at(warmup).cycles;
    const std::uint64_t last = at(size_ - 1).cycles;
    return static_cast<double>(last - first) /
           static_cast<double>(size_ - warmup - 1);
  }

  /// Dumps the trace in a simple line format.
  void dump(std::ostream& os) const {
    os << "# aiesim-substitute execution trace (cycles @ AIE clock)\n";
    for (std::size_t i = 0; i < size_; ++i) {
      const Record& r = at(i);
      os << "t=" << r.cycles << " kernel=" << names_[r.name]
         << " iteration=" << r.iteration << "\n";
    }
  }

  /// Digest of the trace as a *multiset* of records: each record is hashed
  /// independently with FNV-1a over (cycles, kernel name characters,
  /// iteration), and the per-record hashes are combined by wrapping
  /// addition. Two independence properties follow:
  ///  * intern-order independence -- the name *strings* are hashed, not the
  ///    intern ids, so the engine (names interned at bind) and the test
  ///    oracle (interned on first record) digest identically;
  ///  * record-order independence -- addition commutes, so a trace spliced
  ///    together from a partial re-simulation plus cached baseline records
  ///    digests identically to the full run that produced the same events.
  [[nodiscard]] std::uint64_t digest() const {
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < size_; ++i) {
      const Record& r = at(i);
      std::uint64_t h = 14695981039346656037ull;
      const auto mix = [&h](std::uint64_t v) {
        for (int b = 0; b < 8; ++b) {
          h = (h ^ (v & 0xFF)) * 1099511628211ull;
          v >>= 8;
        }
      };
      mix(r.cycles);
      for (const char c : names_[r.name]) {
        h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
      }
      mix(r.iteration);
      sum += h;
    }
    return sum;
  }

 private:
  static constexpr std::size_t kChunkSize = 4096;

  void new_chunk() {
    chunks_.emplace_back();
    chunks_.back().reserve(kChunkSize);
  }

  [[nodiscard]] const Record& at(std::size_t i) const {
    return chunks_[i / kChunkSize][i % kChunkSize];
  }

  std::vector<std::string> names_;
  std::vector<std::vector<Record>> chunks_;  ///< all but last full
  std::size_t size_ = 0;
  mutable std::vector<TraceEvent> events_cache_;
  mutable bool cache_valid_ = false;
};

}  // namespace aiesim

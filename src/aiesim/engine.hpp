// aiesim -- cycle-approximate AIE-array simulation engine
// (DESIGN.md substitution #2 for AMD's aiesim).
//
// The engine executes a cgsim graph in *virtual time*: every kernel owns a
// simulated AIE tile with its own cycle clock. Kernel coroutines run
// functionally; their instrumented operation counts (src/aie/cycle_model)
// are converted to cycles with the VLIW cost model after each activation
// segment, stream/window accesses are charged at the access point, and
// cross-kernel data dependencies propagate time through per-item
// virtual-time stamps in the channels. An event queue orders kernel
// activations by tile time, exactly like an event-driven RTL simulator.
//
// Detail levels:
//   * DetailLevel::event -- event-driven only; fast.
//   * DetailLevel::cycle -- additionally steps per-tile pipeline state for
//     every simulated cycle, reproducing the characteristic wall-clock cost
//     of cycle-approximate simulation (paper Table 2's aiesim column).
//
// Hot-path structures (checked bit for bit against the test-only oracle
// in tests/aiesim/oracle/ by the differential suites, and timed against
// it by bench_ablation_aiesim): a timing-wheel event queue; tasks resolved to
// dense integer ids at bind, so the hot path indexes flat arrays (task
// states, a lazy port-cost cache) instead of hashing pointers; per-edge
// global/output flags and hop costs read in place from the CompiledGraph
// artifact; a word-stepped micro model (busy spans 32 cycles per LFSR
// state word, stalls jumped in O(1) up to 60 cycles and by GF(2)
// jump-ahead beyond); buffered trace records.
#pragma once

#include <algorithm>
#include <cassert>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "aie/cycle_model.hpp"
#include "compiled.hpp"
#include "core/cgsim.hpp"
#include "cost_model.hpp"
#include "event_queue.hpp"
#include "micro_model.hpp"
#include "placement.hpp"
#include "trace.hpp"

namespace aiesim {

enum class DetailLevel : std::uint8_t {
  event,  ///< event-driven virtual time only
  cycle,  ///< plus per-cycle tile pipeline stepping
};

/// The engine has one variant. The enum and SimConfig::engine remain only
/// because perfbench/src/paper_apps.cpp:287 assigns
/// `cfg.engine = aiesim::EngineVariant::fast`; both go with that line.
enum class EngineVariant : std::uint8_t {
  fast,
};

/// Configuration of one cycle-approximate simulation run.
struct SimConfig {
  CostModel cost{};
  /// Model the extracted (generated) kernel I/O instead of the
  /// hand-optimized native stream access (paper Section 5.2).
  bool generated_io = false;
  DetailLevel detail = DetailLevel::event;
  /// Ignored by the engine; kept for perfbench/src/paper_apps.cpp:287.
  EngineVariant engine = EngineVariant::fast;
  double aie_mhz = 1250.0;  ///< paper Section 5.2 configuration
  double pl_mhz = 625.0;
  int repetitions = 1;  ///< input replay count (paper Table 2)
  /// Explicit kernel-to-tile placement (by kernel name); kernels not
  /// listed here get automatic snake placement on the array grid.
  std::map<std::string, TileCoord> placement{};
  int array_columns = 8;  ///< grid width used by automatic placement
};

/// Per-kernel (per simulated tile) accounting.
struct TileStats {
  std::string kernel;
  std::uint64_t busy_cycles = 0;   ///< compute + port-access cycles charged
  std::uint64_t final_clock = 0;   ///< tile time at quiescence
  std::uint64_t activations = 0;   ///< scheduler segments executed
  aie::OpCounts ops{};             ///< accumulated instrumentation
  std::uint64_t iterations = 0;    ///< global-output elements written

  /// Fraction of the makespan this tile spent busy.
  [[nodiscard]] double utilization(std::uint64_t makespan) const {
    return makespan == 0 ? 0.0
                         : static_cast<double>(busy_cycles) /
                               static_cast<double>(makespan);
  }
};

/// Result of a simulation: functional statistics plus virtual timing.
struct SimResult {
  cgsim::RunResult run{};
  std::uint64_t virtual_cycles = 0;  ///< makespan over all tiles
  double ns_total = 0.0;             ///< makespan at the AIE clock
  Trace trace{};
  std::uint64_t output_items = 0;
  std::vector<TileStats> tiles;      ///< one entry per kernel
  std::uint64_t step_checksum = 0;   ///< micro-model checksum (cycle detail)

  /// Steady-state nanoseconds between output iterations.
  [[nodiscard]] double ns_per_iteration(double aie_mhz,
                                        std::size_t warmup = 1) const {
    return trace.mean_iteration_delta(warmup) * 1e3 / aie_mhz;
  }
};

/// The virtual-time executor + accounting hooks.
class SimEngine final : public cgsim::Executor, public cgsim::SimHooks {
 public:
  explicit SimEngine(const SimConfig& cfg) : cfg_(cfg) {}

  /// Collects per-task metadata and resolves channels/tasks to dense ids;
  /// call after all sources/sinks are attached. Names are backfilled into
  /// any task states created before the context was attached, so traces
  /// and tile stats never show anonymous tasks.
  ///
  /// `compiled` is the artifact compile_graph() built for this graph and
  /// cfg_ (cost model, placement directives); bind() throws
  /// std::invalid_argument without one. The engine holds it for the run
  /// and reads its edge flags and hop costs in place; only the port-cost
  /// memo is copied, because a run overwrites entries on a settings
  /// mismatch.
  void bind(cgsim::RuntimeContext& ctx,
            std::shared_ptr<const CompiledGraph> compiled) {
    if (compiled == nullptr) {
      throw std::invalid_argument{
          "the engine needs a CompiledGraph to bind; build one with "
          "compile_graph() or CompiledGraphCache"};
    }
    ctx_ = &ctx;
    compiled_ = std::move(compiled);
    edge_flags_ = compiled_->edge_flags;
    edge_hop_ = compiled_->edge_hop;
    edge_cost_.assign(compiled_->edge_cost.begin(),
                      compiled_->edge_cost.end());
    bind_tasks(ctx);
  }

  // --- Executor ---
  void make_ready(std::coroutine_handle<> h,
                  std::uint64_t not_before) override {
    TaskState& s = state_for(h);
    wheel_.push(Event{std::max(s.clock, not_before), seq_++, h});
  }

  // --- SimHooks ---
  [[nodiscard]] std::uint64_t now() const override {
    if (current_ == nullptr) return 0;
    return segment_base_ + cfg_.cost.compute_cycles(current_->counter.counts) +
           port_pending_;
  }

  void charge_port_access(const cgsim::PortSettings& s,
                          std::size_t elem_bytes, bool is_read,
                          const cgsim::ChannelBase* ch) override {
    if (current_ == nullptr) return;
    const bool generated = cfg_.generated_io && current_->is_kernel;
    const int e = ch->edge_id();
    if (e < 0 || static_cast<std::size_t>(e) >= edge_flags_.size()) {
      // Channel from outside the bound graph: no global/hop metadata.
      port_pending_ += cfg_.cost.port_cycles(s, elem_bytes, false, generated);
      return;
    }
    const std::uint8_t flags = edge_flags_[static_cast<std::size_t>(e)];
    // The element width is a property of the edge, but the two sides of
    // an edge may access it through ports with different settings (a
    // stream_source writes with default settings into a window-read
    // kernel port), so the cost is cached per (edge, side, generated)
    // and the cache entry remembers every cost-relevant input it was
    // computed from, compared field-by-field -- a mismatch (possible
    // when a broadcast edge mixes kernel and sink readers) recomputes
    // and overwrites. A packed key would collide for beat widths whose
    // low bits alias after shifting; the fields cannot.
    const bool window = s.buffer == cgsim::BufferMode::window ||
                        s.buffer == cgsim::BufferMode::pingpong;
    const bool gmio = s.io == cgsim::IoKind::gmio;
    EdgeCost& cached =
        edge_cost_[static_cast<std::size_t>(e) * 4 + (is_read ? 2 : 0) +
                   (generated ? 1 : 0)];
    if (!cached.valid || cached.window != window || cached.gmio != gmio ||
        cached.beat_bits != s.beat_bits || cached.elem_bytes != elem_bytes) {
      cached.valid = true;
      cached.window = window;
      cached.gmio = gmio;
      cached.beat_bits = s.beat_bits;
      cached.elem_bytes = elem_bytes;
      cached.cycles = cfg_.cost.port_cycles(
          s, elem_bytes, (flags & kEdgeGlobal) != 0, generated);
    }
    port_pending_ += cached.cycles;
    if (is_read) {
      // Stream-switch routing latency, charged once per element on the
      // consuming side (0 for co-located or global endpoints).
      port_pending_ += edge_hop_[static_cast<std::size_t>(e)];
    }
    if (!is_read && current_->is_kernel && (flags & kEdgeGlobalOut) != 0) {
      if (current_->trace_name == Trace::kNoName) {
        current_->trace_name = trace_.intern(current_->name);
      }
      trace_.record(now(), current_->trace_name, ++current_->iterations);
      ++output_items_;
    }
  }

  /// Runs to quiescence. The context must already be bound and started.
  cgsim::RunResult run() {
    cgsim::RunResult r{};
    Event ev;
    const bool cycle_detail = cfg_.detail == DetailLevel::cycle;
    while (wheel_.pop(ev)) {
      TaskState& s = state_for(ev.h);
      segment_base_ = std::max(s.clock, ev.time);
      current_ = &s;
      port_pending_ = 0;
      s.counter.reset();
      {
        // Batched: records accumulate into a stack-local OpCounts and merge
        // into the tile counter once per activation (same final counts).
        aie::ScopedCounterBatch scoped{&s.counter};
        ev.h.resume();
      }
      ++r.resumes;
      const std::uint64_t end = segment_base_ +
                                cfg_.cost.compute_cycles(s.counter.counts) +
                                port_pending_;
      if (cycle_detail) {
        // Stall cycles (tile waiting on data) advance only the LFSR time
        // base; busy cycles do the full micro-model update.
        const std::uint64_t stall = segment_base_ - s.clock;
        const std::uint64_t busy = end - segment_base_;
        if (stall != 0) micro_.step_stall(stall);
        if (busy != 0) micro_.step_busy(busy);
      }
      s.busy_cycles += end - segment_base_;
      ++s.activations;
      s.total_ops += s.counter.counts;
      s.clock = end;
      makespan_ = std::max(makespan_, end);
      current_ = nullptr;
      if (ev.h.done()) ctx_->on_task_finished(ev.h);
    }
    r.virtual_cycles = makespan_;
    assert(state_tables_stable() &&
           "task state tables grew after bind-time reserve");
    return r;
  }

  /// The SimResult of a finished run: `run` (as returned by the context's
  /// finish()) plus the engine's makespan, trace, output items, tile stats
  /// and step checksum.
  [[nodiscard]] SimResult result(cgsim::RunResult run) const {
    SimResult res{};
    res.run = run;
    res.virtual_cycles = makespan_;
    res.ns_total = static_cast<double>(makespan_) * 1e3 / cfg_.aie_mhz;
    res.trace = trace_;
    res.output_items = output_items_;
    res.tiles = tile_stats();
    res.step_checksum = step_checksum();
    return res;
  }

  [[nodiscard]] const Trace& trace() const { return trace_; }

  /// Per-kernel tile statistics, ordered by kernel name.
  [[nodiscard]] std::vector<TileStats> tile_stats() const {
    std::vector<TileStats> out;
    const auto add = [&out](const TaskState& s) {
      if (!s.is_kernel) return;
      out.push_back(TileStats{s.name, s.busy_cycles, s.clock, s.activations,
                              s.total_ops, s.iterations});
    };
    for (const TaskState& s : states_) add(s);
    for (const TaskState& s : overflow_states_) add(s);
    std::sort(out.begin(), out.end(),
              [](const TileStats& a, const TileStats& b) {
                return a.kernel < b.kernel;
              });
    return out;
  }

  /// Per-kernel tile statistics indexed by flattened-graph kernel id;
  /// kernels the engine never saw keep a default entry. The incremental
  /// re-simulation layer splices baseline and partial-run stats by this
  /// index.
  [[nodiscard]] std::vector<TileStats> tile_stats_by_kernel(
      std::size_t n_kernels) const {
    std::vector<TileStats> out(n_kernels);
    const auto add = [&out, n_kernels](const TaskState& s) {
      if (s.kernel_index < 0 ||
          static_cast<std::size_t>(s.kernel_index) >= n_kernels) {
        return;
      }
      out[static_cast<std::size_t>(s.kernel_index)] =
          TileStats{s.name, s.busy_cycles, s.clock, s.activations,
                    s.total_ops, s.iterations};
    };
    for (const TaskState& s : states_) add(s);
    for (const TaskState& s : overflow_states_) add(s);
    return out;
  }

  /// Final tile clock of the task behind `h`; 0 when the engine never
  /// scheduled it. Read-only: never creates a state.
  [[nodiscard]] std::uint64_t task_clock(std::coroutine_handle<> h) const {
    const TaskState* s = hindex_.find(h.address());
    return s == nullptr ? 0 : s->clock;
  }

  [[nodiscard]] std::uint64_t makespan() const { return makespan_; }

  /// Checksum of the per-cycle pipeline stepping; consuming it keeps the
  /// cycle-detail work observable.
  [[nodiscard]] std::uint64_t step_checksum() const {
    return micro_.checksum();
  }
  /// Resolves `h` to the address of its task state, creating the state if
  /// unknown -- the same lookup the hot path uses. Exposed so tests can
  /// pin that resolution (and the one-entry cache in front of it) survives
  /// HandleIndex rehashes with state identity intact.
  [[nodiscard]] const void* state_identity(std::coroutine_handle<> h) {
    return &state_for(h);
  }

  /// False if a task state had to be allocated after bind() reserved the
  /// dense tables, or if the one-entry state cache disagrees with the
  /// handle index it mirrors (instrumented builds assert on this at end
  /// of run).
  [[nodiscard]] bool state_tables_stable() const {
    if (tables_grew_) return false;
    if (cached_addr_ == nullptr) return true;
    return cache_generation_ == hindex_.generation() &&
           hindex_.find(cached_addr_) == cached_state_;
  }

 private:
  struct TaskState {
    std::uint64_t clock = 0;
    aie::OpCounter counter{};
    std::uint64_t iterations = 0;
    std::string name;
    bool is_kernel = false;
    int kernel_index = -1;  ///< flattened-graph kernel id (-1: source/sink)
    std::uint32_t trace_name = Trace::kNoName;
    std::uint64_t busy_cycles = 0;
    std::uint64_t activations = 0;
    aie::OpCounts total_ops{};
  };

  /// Open-addressing map from coroutine frame address to its dense task
  /// state -- one multiply-shift hash and a short probe instead of
  /// std::unordered_map's bucket chase on the resume path.
  class HandleIndex {
   public:
    void reserve(std::size_t n) { rehash(2 * (n + size_) + 8); }

    [[nodiscard]] TaskState* find(void* key) const {
      if (cap_ == 0) return nullptr;
      std::size_t i = hash(key) & (cap_ - 1);
      while (keys_[i] != nullptr) {
        if (keys_[i] == key) return vals_[i];
        i = (i + 1) & (cap_ - 1);
      }
      return nullptr;
    }

    void insert(void* key, TaskState* val) {
      if (2 * (size_ + 1) > cap_) rehash(cap_ == 0 ? 16 : cap_ * 2);
      std::size_t i = hash(key) & (cap_ - 1);
      while (keys_[i] != nullptr) i = (i + 1) & (cap_ - 1);
      keys_[i] = key;
      vals_[i] = val;
      ++size_;
    }

    /// Bumped every time rehash() reallocates the key/value storage.
    /// Callers that hold results of find() across inserts compare this to
    /// detect that their pointers came from a dropped table generation.
    [[nodiscard]] std::uint64_t generation() const { return generation_; }

   private:
    static std::size_t hash(void* p) {
      auto x = reinterpret_cast<std::uintptr_t>(p);
      x ^= x >> 33;
      x *= 0xFF51AFD7ED558CCDull;
      x ^= x >> 33;
      return static_cast<std::size_t>(x);
    }

    void rehash(std::size_t want) {
      std::size_t cap = 16;
      while (cap < want) cap *= 2;
      if (cap <= cap_) return;
      std::vector<void*> keys(cap, nullptr);
      std::vector<TaskState*> vals(cap);
      for (std::size_t i = 0; i < cap_; ++i) {
        if (keys_[i] == nullptr) continue;
        std::size_t j = hash(keys_[i]) & (cap - 1);
        while (keys[j] != nullptr) j = (j + 1) & (cap - 1);
        keys[j] = keys_[i];
        vals[j] = vals_[i];
      }
      keys_ = std::move(keys);
      vals_ = std::move(vals);
      cap_ = cap;
      ++generation_;
    }

    std::vector<void*> keys_;
    std::vector<TaskState*> vals_;
    std::size_t cap_ = 0;
    std::size_t size_ = 0;
    std::uint64_t generation_ = 0;
  };

  /// Resolves the context's tasks to dense task states.
  void bind_tasks(cgsim::RuntimeContext& ctx) {
    // Dense task states in task-id order, sized once: pointers into
    // states_ stay valid for the whole run (emplace_back stays within the
    // reserved capacity, and post-bind discoveries go to overflow_states_).
    auto& tasks = ctx.tasks();
    states_.reserve(states_.size() + tasks.size());
    hindex_.reserve(tasks.size());
    // reserve()/insert() below may rehash; drop any pre-bind cache entry.
    cached_addr_ = nullptr;
    cached_state_ = nullptr;
    trace_.reserve(tasks.size(), 4096);
    for (auto& rec : tasks) {
      void* addr = rec.task.handle().address();
      if (addr == nullptr) continue;
      TaskState* s = hindex_.find(addr);
      if (s == nullptr) {
        states_.emplace_back();
        s = &states_.back();
        hindex_.insert(addr, s);
      }
      // Backfill: the state may predate the context (engine driven
      // manually before bind); it must not stay anonymous.
      s->name = rec.name;
      s->is_kernel = rec.kernel_index >= 0;
      s->kernel_index = rec.kernel_index;
      s->trace_name = trace_.intern(rec.name);
    }
    bound_ = true;
  }

  TaskState& state_for(std::coroutine_handle<> h) {
    void* addr = h.address();
    // The one-entry cache is only valid for the index generation it was
    // filled under: an insert() can rehash (reallocate) the table storage,
    // and a cache consulted across that boundary would answer from a
    // dropped generation.
    if (addr == cached_addr_ && cache_generation_ == hindex_.generation()) {
      return *cached_state_;
    }
    TaskState* s = hindex_.find(addr);
    if (s == nullptr) {
      // Task unknown at bind time: park it off the dense table so existing
      // TaskState pointers stay valid.
      if (bound_) tables_grew_ = true;
      overflow_states_.emplace_back();
      s = &overflow_states_.back();
      if (ctx_ != nullptr) {
        if (const auto* rec = ctx_->record_for(h)) {
          s->name = rec->name;
          s->is_kernel = rec->kernel_index >= 0;
          s->kernel_index = rec->kernel_index;
          s->trace_name = trace_.intern(rec->name);
        }
      }
      hindex_.insert(addr, s);
    }
    cached_addr_ = addr;
    cached_state_ = s;
    cache_generation_ = hindex_.generation();
    return *s;
  }

  // Edge flag bits and the EdgeCost memo struct live in compiled.hpp
  // (shared with the ahead-of-time graph compiler).

  SimConfig cfg_;
  cgsim::RuntimeContext* ctx_ = nullptr;
  TimingWheelQueue wheel_;

  // Dense tables resolved at bind.
  std::vector<TaskState> states_;          ///< task-id order, fixed capacity
  std::deque<TaskState> overflow_states_;  ///< post-bind discoveries
  HandleIndex hindex_;
  void* cached_addr_ = nullptr;  ///< consecutive events mostly hit one task
  TaskState* cached_state_ = nullptr;
  std::uint64_t cache_generation_ = 0;  ///< hindex_ generation of the cache
  /// The bound artifact; edge_flags_ and edge_hop_ are spans into it.
  std::shared_ptr<const CompiledGraph> compiled_;
  std::span<const std::uint8_t> edge_flags_;
  std::span<const std::uint64_t> edge_hop_;  ///< routing cycles per element
  /// [edge * 4 + is_read * 2 + generated] memoized port costs.
  std::vector<EdgeCost> edge_cost_;
  bool bound_ = false;
  bool tables_grew_ = false;

  TaskState* current_ = nullptr;
  std::uint64_t segment_base_ = 0;
  std::uint64_t port_pending_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t makespan_ = 0;
  std::uint64_t output_items_ = 0;
  Trace trace_;
  TileMicroFast micro_;
};

/// Cycle-approximate simulation of a compute graph with positional data
/// sources and sinks, mirroring cgsim's invocation convention
/// (paper Section 3.7). The engine binds through the process-wide
/// compiled-graph cache, so repeated simulations of one configuration
/// skip the per-run table derivation.
template <class... Args>
SimResult simulate(const cgsim::GraphView& g, const SimConfig& cfg,
                   Args&&... args) {
  SimEngine engine{cfg};
  cgsim::RuntimeContext ctx{g, cgsim::ExecMode::sim, &engine, &engine};
  cgsim::RunOptions opts{cgsim::ExecMode::sim, cfg.repetitions};
  std::size_t pos = 0;
  (cgsim::detail::attach_io(ctx, g, opts, pos++, std::forward<Args>(args)),
   ...);
  engine.bind(ctx, CompiledGraphCache::instance().get_or_compile(
                       g, cfg.cost, cfg.generated_io, cfg.placement,
                       cfg.array_columns));
  ctx.start_all();
  return engine.result(ctx.finish(engine.run()));
}

}  // namespace aiesim

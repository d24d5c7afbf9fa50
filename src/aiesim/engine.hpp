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
// A tile's busy and stall cycles follow from its activation times, so no
// per-cycle state is ever stepped.
//
// Element stamps. An element pushed inside an activation is stamped with
// the tile clock at the start of the activation plus the port costs
// charged so far in it: it is stamped before that activation's compute is
// charged, because the activation's instrumented op counts are priced
// only when the activation ends.
//
// A kernel that ends on a closed stream is never resumed again
// (src/core/task.hpp). One that finds its stream closed ends inside its
// activation; one whose parked operation a channel completed as closed is
// retired when its event comes up, as a zero-length activation at
// max(tile clock, event time).
//
// Per-event bookkeeping. Everything fixed for a run is derived once: the
// engine reaches a task's state through the task's executor slot
// (cgsim::ExecutorSlot, src/core/task.hpp), resolves each port's charge
// (CostModel::port_cycles(), routing hops and whether the access records
// an output iteration) at the port's first access and adds the stored
// integer from then on (cgsim::PortCharge), and skips the cost model for
// activations that recorded no ops.
//
// Per-element data path. The engine publishes the running task's
// mid-activation time in SimHooks::now_cycles: the segment base at the
// start of an activation, plus each port charge as it is made, and 0 once
// the activation ends. Channels read it for stamps and wake times, and a
// port whose charge is resolved adds the charge to it in place
// (cgsim::PortSim::charge_access()), so an element transfer makes no
// virtual call. Only a port's first access in a run and a kernel's write
// to a global output, which records one trace entry per element, reach
// charge_port_access().
//
// The engine is checked bit for bit against the test-only oracle in
// tests/aiesim/oracle/ by the differential suites, and timed against it by
// bench_ablation_aiesim. Both share the binary-heap event queue. Only the
// oracle keeps a handle-keyed task-state map and CostModel::port_cycles()
// at every port access, so the suites compare two separate derivations.
// The engine reads per-edge global/output flags and hop costs in place
// from the CompiledGraph artifact, where the oracle derives them from the
// graph, and buffers trace records with interned names.
#pragma once

#include <algorithm>
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
#include "placement.hpp"
#include "trace.hpp"

namespace aiesim {

/// Ignored by the engine: both levels run the same event-driven engine
/// and give the same result. The enum, SimConfig::detail and
/// SimResult::step_checksum remain only because
/// perfbench/src/paper_apps.cpp:286 assigns
/// `cfg.detail = aiesim::DetailLevel::cycle` and :400 records
/// `res.step_checksum`; all three go with those lines.
enum class DetailLevel : std::uint8_t {
  event,
  cycle,
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
  /// Ignored by the engine; kept for perfbench/src/paper_apps.cpp:286.
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
  /// Always 0; kept for perfbench/src/paper_apps.cpp:400.
  std::uint64_t step_checksum = 0;

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
  // Task slots point into states_ under this engine's id.
  SimEngine(const SimEngine&) = delete;
  SimEngine& operator=(const SimEngine&) = delete;

  /// Collects per-task metadata; call after all sources/sinks are
  /// attached. Names are backfilled into any task states created before
  /// the context was attached, so traces and tile stats never show
  /// anonymous tasks.
  ///
  /// `compiled` is the artifact compile_graph() built for this graph and
  /// cfg_ (cost model, placement directives); bind() throws
  /// std::invalid_argument without one. The engine holds it for the run
  /// and reads its edge flags and hop costs in place.
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
    trace_.reserve(ctx.tasks().size(), 4096);
    for (auto& rec : ctx.tasks()) {
      const cgsim::TaskHandle h = rec.task.handle();
      if (!h) continue;  // kernel skipped by a resim mask
      // Backfill: the state may predate the context (engine driven
      // manually before bind); it must not stay anonymous.
      name_state(state_for(h), rec);
    }
  }

  // --- Executor ---
  void make_ready(cgsim::TaskHandle h, std::uint64_t not_before) override {
    TaskState& s = state_for(h);
    queue_.push(Event{std::max(s.clock, not_before), seq_++, h});
  }

  // --- SimHooks ---
  /// Adds one access to the published clock (now_cycles), which is
  /// mid-activation time: compute is not part of it (see the header).
  /// Ports call this for their first access in a run, which resolves the
  /// charge, and for every write that records an output iteration.
  void charge_port_access(const cgsim::PortSettings& s,
                          std::size_t elem_bytes, bool is_read,
                          const cgsim::ChannelBase* ch,
                          cgsim::PortCharge& charge) override {
    if (current_ == nullptr) return;
    if (!charge.resolved) [[unlikely]] {
      resolve(charge, s, elem_bytes, is_read, ch);
    }
    now_cycles += charge.cycles;
    if (charge.records_output) {
      if (current_->trace_name == Trace::kNoName) {
        current_->trace_name = trace_.intern(current_->name);
      }
      trace_.record(now_cycles, current_->trace_name, ++current_->iterations);
      ++output_items_;
    }
  }

  /// Runs to quiescence. The context must already be bound and started.
  cgsim::RunResult run() {
    cgsim::RunResult r{};
    Event ev;
    while (queue_.pop(ev)) {
      // Queued by make_ready(), which wrote the task's slot.
      TaskState& s =
          *static_cast<TaskState*>(ev.h.promise().executor_slot.state);
      const std::uint64_t base = std::max(s.clock, ev.time);
      now_cycles = base;
      current_ = &s;
      // The activation's ops, counted once: they price its compute and
      // then join the tile's totals.
      aie::OpCounter ops;
      bool finished = false;
      {
        aie::ScopedCounter scoped{&ops};
        finished = cgsim::resume_or_retire(ev.h);
      }
      ++r.resumes;
      // now_cycles is the base plus the activation's port charges.
      const std::uint64_t end =
          now_cycles + cfg_.cost.compute_cycles(ops.counts);
      s.busy_cycles += end - base;
      ++s.activations;
      s.total_ops += ops.counts;
      s.clock = end;
      makespan_ = std::max(makespan_, end);
      current_ = nullptr;
      now_cycles = 0;  // a finished task's channels wake their peers at 0
      if (finished) ctx_->on_task_finished(ev.h);
    }
    r.virtual_cycles = makespan_;
    return r;
  }

  /// The SimResult of a finished run: `run` (as returned by the context's
  /// finish()) plus the engine's makespan, trace, output items and tile
  /// stats. On an engine about to be destroyed, the rvalue form moves the
  /// trace out instead of copying it.
  [[nodiscard]] SimResult result(cgsim::RunResult run) const& {
    SimResult res = untraced_result(run);
    res.trace = trace_;
    return res;
  }
  [[nodiscard]] SimResult result(cgsim::RunResult run) && {
    SimResult res = untraced_result(run);
    res.trace = std::move(trace_);
    return res;
  }

  [[nodiscard]] const Trace& trace() const { return trace_; }

  /// Per-kernel tile statistics, ordered by kernel name. The sort starts
  /// from kernel-id order, as ResimSession's splice does, so kernels that
  /// share a name come out in one order from both, whatever order the
  /// engine first saw the tasks in.
  [[nodiscard]] std::vector<TileStats> tile_stats() const {
    std::vector<const TaskState*> kernels;
    for (const TaskState& s : states_) {
      if (s.is_kernel) kernels.push_back(&s);
    }
    std::sort(kernels.begin(), kernels.end(),
              [](const TaskState* a, const TaskState* b) {
                return a->kernel_index < b->kernel_index;
              });
    std::vector<TileStats> out;
    for (const TaskState* s : kernels) out.push_back(tile(*s));
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
    for (const TaskState& s : states_) {
      if (s.kernel_index >= 0 &&
          static_cast<std::size_t>(s.kernel_index) < n_kernels) {
        out[static_cast<std::size_t>(s.kernel_index)] = tile(s);
      }
    }
    return out;
  }

  /// Final tile clock of the task behind `h`; 0 when the engine never
  /// scheduled it. Read-only: never creates a state.
  [[nodiscard]] std::uint64_t task_clock(cgsim::TaskHandle h) const {
    const cgsim::ExecutorSlot& slot = h.promise().executor_slot;
    return slot.owner == id_ ? static_cast<const TaskState*>(slot.state)->clock
                             : 0;
  }

  [[nodiscard]] std::uint64_t makespan() const { return makespan_; }

 private:
  struct TaskState {
    std::uint64_t clock = 0;
    std::uint64_t iterations = 0;
    std::string name;
    bool is_kernel = false;
    int kernel_index = -1;  ///< flattened-graph kernel id (-1: source/sink)
    std::uint32_t trace_name = Trace::kNoName;
    std::uint64_t busy_cycles = 0;
    std::uint64_t activations = 0;
    aie::OpCounts total_ops{};
  };

  [[nodiscard]] SimResult untraced_result(cgsim::RunResult run) const {
    SimResult res{};
    res.run = run;
    res.virtual_cycles = makespan_;
    res.ns_total = static_cast<double>(makespan_) * 1e3 / cfg_.aie_mhz;
    res.output_items = output_items_;
    res.tiles = tile_stats();
    return res;
  }

  static TileStats tile(const TaskState& s) {
    return TileStats{s.name,        s.busy_cycles, s.clock,
                     s.activations, s.total_ops,   s.iterations};
  }

  void name_state(TaskState& s, const cgsim::RuntimeContext::TaskRecord& rec) {
    s.name = rec.name;
    s.is_kernel = rec.kernel_index >= 0;
    s.kernel_index = rec.kernel_index;
    s.trace_name = trace_.intern(rec.name);
  }

  /// The state of the task behind `h`, created at the engine's first
  /// sight of the task (its slot then carries another engine's id or none).
  TaskState& state_for(cgsim::TaskHandle h) {
    const cgsim::ExecutorSlot& slot = h.promise().executor_slot;
    if (slot.owner != id_) [[unlikely]] {
      return adopt(h);
    }
    return *static_cast<TaskState*>(slot.state);
  }

  TaskState& adopt(cgsim::TaskHandle h) {
    TaskState& s = states_.emplace_back();
    h.promise().executor_slot = cgsim::ExecutorSlot{&s, id_};
    if (ctx_ != nullptr) {
      if (const auto* rec = ctx_->record_for(h)) name_state(s, *rec);
    }
    return s;
  }

  /// Derives a port's charge at its first access in the run. The port's
  /// own settings count, not the edge's: the two sides of an edge may
  /// access it differently (a stream_source writes with default settings
  /// into a window-read kernel port). The port belongs to the running
  /// task, so the task's generated-I/O and output-recording status hold
  /// for every later access too.
  void resolve(cgsim::PortCharge& charge, const cgsim::PortSettings& s,
               std::size_t elem_bytes, bool is_read,
               const cgsim::ChannelBase* ch) const {
    const bool generated = cfg_.generated_io && current_->is_kernel;
    const int e = ch->edge_id();
    // A channel from outside the bound graph has no global/hop metadata.
    const bool in_graph =
        e >= 0 && static_cast<std::size_t>(e) < edge_flags_.size();
    const std::uint8_t flags =
        in_graph ? edge_flags_[static_cast<std::size_t>(e)] : 0;
    charge.cycles = cfg_.cost.port_cycles(s, elem_bytes,
                                          (flags & kEdgeGlobal) != 0,
                                          generated);
    if (is_read && in_graph) {
      // Stream-switch routing latency, charged once per element on the
      // consuming side (0 for co-located or global endpoints).
      charge.cycles += edge_hop_[static_cast<std::size_t>(e)];
    }
    charge.records_output =
        !is_read && current_->is_kernel && (flags & kEdgeGlobalOut) != 0;
    charge.resolved = true;
  }

  SimConfig cfg_;
  /// This engine's ExecutorSlot::owner id.
  const std::uint64_t id_ = cgsim::new_executor_id();
  cgsim::RuntimeContext* ctx_ = nullptr;
  PriorityEventQueue queue_;
  /// A deque: a TaskState keeps its address while others are added, so
  /// task slots and current_ stay valid while a resumed task makes other
  /// tasks ready.
  std::deque<TaskState> states_;
  /// The bound artifact; edge_flags_ and edge_hop_ are spans into it.
  std::shared_ptr<const CompiledGraph> compiled_;
  std::span<const std::uint8_t> edge_flags_;
  std::span<const std::uint64_t> edge_hop_;  ///< routing cycles per element

  TaskState* current_ = nullptr;
  std::uint64_t seq_ = 0;
  std::uint64_t makespan_ = 0;
  std::uint64_t output_items_ = 0;
  Trace trace_;
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
  // The engine ends here: its trace moves into the result.
  return std::move(engine).result(ctx.finish(engine.run()));
}

}  // namespace aiesim

// Test-only oracle for the cycle-approximate engine (aiesim::SimEngine).
//
// ReferenceEngine is the engine's original executor, kept outside src/ so
// the production engine has one variant. Like the engine, it uses the
// binary-heap event queue (PriorityEventQueue, src/aiesim/event_queue.hpp).
// Unlike it, it keeps a handle-keyed task-state map, computes
// CostModel::port_cycles() at every port access (it never resolves the
// port's charge slot, so every access reaches charge_port_access()),
// writes the published clock (SimHooks::now_cycles) from its own formula
// at activation start, after each charge and at the activation's end, and
// keeps per-channel metadata in pointer-keyed hash maps
// and string trace records. It derives placement,
// edge flags, hop and port costs from the GraphView and the CostModel at
// every bind and never reads a CompiledGraph, so differential tests and
// the ablation benches check the compiled tables. oracle::simulate() takes
// aiesim::simulate()'s arguments.
#pragma once

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "aiesim/engine.hpp"

namespace aiesim::oracle {

/// The reference virtual-time executor: same observables as SimEngine.
class ReferenceEngine final : public cgsim::Executor, public cgsim::SimHooks {
 public:
  explicit ReferenceEngine(const SimConfig& cfg) : cfg_(cfg) {}

  /// Derives the global flags and hop costs of every channel from the
  /// graph, the placement directives and the cost model. Names are
  /// backfilled into task states created before the context existed.
  void bind(cgsim::RuntimeContext& ctx) {
    ctx_ = &ctx;
    const cgsim::GraphView& g = ctx.graph();
    // Kernel-to-tile placement: intra-array streams pay per-hop switch
    // latency proportional to the Manhattan distance between tiles.
    const Placement placement =
        Placement::explicit_by_name(g, cfg_.placement, cfg_.array_columns);
    for (const cgsim::FlatGlobal& out : g.outputs) {
      global_out_.insert(ctx.channel(out.edge));
    }
    for (const cgsim::FlatGlobal& in : g.inputs) {
      global_.insert(ctx.channel(in.edge));
    }
    for (const cgsim::FlatGlobal& out : g.outputs) {
      global_.insert(ctx.channel(out.edge));
    }
    for (std::size_t e = 0; e < g.edges.size(); ++e) {
      const int hops = placement.edge_hops(g, static_cast<int>(e));
      if (hops > 0) {
        hop_cost_[ctx.channel(static_cast<int>(e))] =
            static_cast<std::uint64_t>(hops * cfg_.cost.hop_cycles + 0.5);
      }
    }
    for (auto& [addr, s] : states_) {
      if (!s.name.empty()) continue;
      if (const auto* rec = ctx.record_for(
              std::coroutine_handle<>::from_address(addr))) {
        s.name = rec->name;
        s.is_kernel = rec->kernel_index >= 0;
      }
    }
  }

  // --- Executor ---
  void make_ready(cgsim::TaskHandle h, std::uint64_t not_before) override {
    TaskState& s = state_for(h);
    heap_.push(Event{std::max(s.clock, not_before), seq_++, h});
  }

  // --- SimHooks ---
  /// Ignores the port's charge slot and derives the cost at every access,
  /// so the differential suites check the engine's resolved charges.
  void charge_port_access(const cgsim::PortSettings& s,
                          std::size_t elem_bytes, bool is_read,
                          const cgsim::ChannelBase* ch,
                          cgsim::PortCharge& /*charge*/) override {
    if (current_ == nullptr) return;
    const bool generated = cfg_.generated_io && current_->is_kernel;
    port_pending_ += cfg_.cost.port_cycles(s, elem_bytes, global_.contains(ch),
                                           generated);
    if (is_read) {
      const auto hop = hop_cost_.find(ch);
      if (hop != hop_cost_.end()) port_pending_ += hop->second;
    }
    now_cycles = derived_now();
    if (!is_read && current_->is_kernel && global_out_.contains(ch)) {
      trace_.record(now_cycles, current_->name, ++current_->iterations);
      ++output_items_;
    }
  }

  /// Runs to quiescence. The context must already be bound and started.
  cgsim::RunResult run() {
    cgsim::RunResult r{};
    Event ev;
    while (heap_.pop(ev)) {
      TaskState& s = state_for(ev.h);
      segment_base_ = std::max(s.clock, ev.time);
      current_ = &s;
      port_pending_ = 0;
      s.counter.reset();
      now_cycles = derived_now();
      bool finished = false;
      {
        aie::ScopedCounterBatch scoped{&s.counter};
        finished = cgsim::resume_or_retire(ev.h);
      }
      ++r.resumes;
      const std::uint64_t end = segment_base_ +
                                cfg_.cost.compute_cycles(s.counter.counts) +
                                port_pending_;
      s.busy_cycles += end - segment_base_;
      ++s.activations;
      s.total_ops += s.counter.counts;
      s.clock = end;
      makespan_ = std::max(makespan_, end);
      current_ = nullptr;
      now_cycles = derived_now();
      if (finished) ctx_->on_task_finished(ev.h);
    }
    r.virtual_cycles = makespan_;
    return r;
  }

  /// Per-kernel tile statistics, ordered by kernel name.
  [[nodiscard]] std::vector<TileStats> tile_stats() const {
    std::vector<TileStats> out;
    for (const auto& [addr, s] : states_) {
      if (!s.is_kernel) continue;
      out.push_back(TileStats{s.name, s.busy_cycles, s.clock, s.activations,
                              s.total_ops, s.iterations});
    }
    std::sort(out.begin(), out.end(),
              [](const TileStats& a, const TileStats& b) {
                return a.kernel < b.kernel;
              });
    return out;
  }

  [[nodiscard]] SimResult result(cgsim::RunResult run) const {
    SimResult res{};
    res.run = run;
    res.virtual_cycles = makespan_;
    res.ns_total = static_cast<double>(makespan_) * 1e3 / cfg_.aie_mhz;
    res.trace = trace_;
    res.output_items = output_items_;
    res.tiles = tile_stats();
    return res;
  }

 private:
  struct TaskState {
    std::uint64_t clock = 0;
    aie::OpCounter counter{};
    std::uint64_t iterations = 0;
    std::string name;
    bool is_kernel = false;
    std::uint64_t busy_cycles = 0;
    std::uint64_t activations = 0;
    aie::OpCounts total_ops{};
  };

  /// Mid-activation time of the running task, 0 outside an activation.
  [[nodiscard]] std::uint64_t derived_now() const {
    if (current_ == nullptr) return 0;
    return segment_base_ + cfg_.cost.compute_cycles(current_->counter.counts) +
           port_pending_;
  }

  TaskState& state_for(std::coroutine_handle<> h) {
    auto [it, inserted] = states_.try_emplace(h.address());
    if (inserted && ctx_ != nullptr) {
      if (const auto* rec = ctx_->record_for(h)) {
        it->second.name = rec->name;
        it->second.is_kernel = rec->kernel_index >= 0;
      }
    }
    return it->second;
  }

  SimConfig cfg_;
  cgsim::RuntimeContext* ctx_ = nullptr;
  PriorityEventQueue heap_;
  std::unordered_map<void*, TaskState> states_;
  std::unordered_set<const cgsim::ChannelBase*> global_out_;
  std::unordered_set<const cgsim::ChannelBase*> global_;
  std::unordered_map<const cgsim::ChannelBase*, std::uint64_t> hop_cost_;
  TaskState* current_ = nullptr;
  std::uint64_t segment_base_ = 0;
  std::uint64_t port_pending_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t makespan_ = 0;
  std::uint64_t output_items_ = 0;
  Trace trace_;
};

/// aiesim::simulate() on the reference engine: same arguments, same
/// observables, no CompiledGraphCache.
template <class... Args>
SimResult simulate(const cgsim::GraphView& g, const SimConfig& cfg,
                   Args&&... args) {
  ReferenceEngine engine{cfg};
  cgsim::RuntimeContext ctx{g, cgsim::ExecMode::sim, &engine, &engine};
  cgsim::RunOptions opts{cgsim::ExecMode::sim, cfg.repetitions};
  std::size_t pos = 0;
  (cgsim::detail::attach_io(ctx, g, opts, pos++, std::forward<Args>(args)),
   ...);
  engine.bind(ctx);
  ctx.start_all();
  return engine.result(ctx.finish(engine.run()));
}

}  // namespace aiesim::oracle

// aiesim -- incremental cone re-simulation on top of the compiled-graph
// fast path.
//
// A ResimSession keeps one simulation instance warm across runs: the
// RuntimeContext (channels + kernel coroutines) is reset in place instead
// of reconstructed, the engine rebinds through the compiled-graph cache,
// and -- the centerpiece -- when only a subset of the inputs changed (an
// RTP sweep, a re-tuned parameter), only the *affected cone* of kernels is
// re-simulated. Everything outside the cone is skipped entirely: its edge
// traffic is replayed byte-for-byte from baseline recordings (EdgeTap) at
// the recorded virtual-time stamps, and its statistics, trace records and
// output data are spliced from the baseline result. Every paper-level
// observable is bit-identical to a full run -- trace digest, makespan,
// output items and data, per-tile busy cycles / final clock / iterations
// -- enforced by differential tests. Scheduler-execution metadata
// (TileStats::activations, RunResult::resumes, step_checksum) reflects the
// partial run instead: a stamp-paced replay wakes its consumer once per
// item where the original producer pushed a whole burst in one scheduler
// segment, so segment *counts* are not reproducible without recording the
// baseline's ring-occupancy history -- and they carry no timing meaning.
//
// Cone closure (fixpoint over the compiled adjacency):
//   (A) k in C  =>  every kernel consumer of k's out-edges joins C
//       (fresh traffic flows forward);
//   (B) k in C  =>  every kernel consumer of k's in-edges joins C
//       (those edges are re-fed -- by a fresh source, a replay task, or a
//       cone producer -- so all their consumers see fresh traffic);
//   (C) a live edge with any kernel producer in C pulls *all* its kernel
//       producers into C (an edge cannot be half-replayed);
//   (D) a live edge fed by a global input pulls its kernel producers into
//       C (a fresh source will feed it, so replay cannot stand in).
// An edge is *live* when any kernel endpoint is in C. After the fixpoint,
// every kernel consumer of a live edge is in C, and a live edge's kernel
// producers are either all in C or all skipped; the latter are *replay
// edges*, re-fed from their baseline tap by a zero-cost replay coroutine.
//
// Exactness preconditions (violations fall back to a full warm rerun):
//   * replay edges must be tappable, park-free in the baseline, and have
//     nondecreasing stamp sequences (then the replay's ring occupancy
//     matches the original producers' cycle for cycle, so the post-run
//     `blocked == 0` check is an exact no-backpressure-divergence proof);
//   * a replay push that parks means the re-simulated consumers exerted
//     backpressure the baseline never saw -- the run is discarded and
//     re-executed in full;
//   * skipped outputs need a byte-replayable baseline (tap or saved RTP
//     value); DetailLevel::cycle cannot splice its global micro-model.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "engine.hpp"

namespace aiesim {

/// A warm, incrementally re-runnable simulation of one compute graph.
///
///   ResimSession s{graph.view(), cfg};
///   auto base = s.run(in, rtp, out);              // full baseline run
///   for (float v : sweep) {
///     rtp = v;
///     auto r = s.resimulate({1}, in, rtp, out);   // input #1 changed
///   }
class ResimSession {
 public:
  ResimSession(const cgsim::GraphView& g, SimConfig cfg)
      : graph_(g), cfg_(std::move(cfg)) {
    // One artifact serves the engine's bind and the cone analysis.
    compiled_ = CompiledGraphCache::instance().get_or_compile(
        graph_, cfg_.cost, cfg_.generated_io, cfg_.placement,
        cfg_.array_columns);
  }

  ResimSession(const ResimSession&) = delete;
  ResimSession& operator=(const ResimSession&) = delete;

  /// Full simulation (positional sources/sinks as in aiesim::simulate()).
  /// The first call builds the runtime instance; later calls reset it in
  /// place (warm rerun). The result becomes the baseline for resimulate().
  template <class... Args>
  SimResult run(Args&&... args) {
    EntryGuard guard{*this};
    check_arity(sizeof...(args));
    return full_run_impl([&] {
      std::size_t pos = 0;
      (attach_io_arg(pos++, std::forward<Args>(args)), ...);
    });
  }

  /// Runtime-arity variant of run() for graphs whose shape is only known
  /// at run time (the service daemon's wire-deserialized graphs): every
  /// global input and output is a T-typed stream. inputs.size() and
  /// outputs.size() must match the graph's global counts.
  template <class T>
  SimResult run_streams(const std::vector<std::vector<T>>& inputs,
                        std::vector<std::vector<T>>& outputs) {
    EntryGuard guard{*this};
    check_arity(inputs.size() + outputs.size());
    return full_run_impl(make_stream_attach<T>(inputs, outputs));
  }

  /// Runtime-arity variant of resimulate(); same baseline/dirty-set
  /// contract. Unchanged inputs ride the cone-limited incremental path,
  /// which is what makes a warm daemon session cheap to re-drive.
  template <class T>
  SimResult resimulate_streams(const std::vector<std::size_t>& dirty_inputs,
                               const std::vector<std::vector<T>>& inputs,
                               std::vector<std::vector<T>>& outputs) {
    EntryGuard guard{*this};
    check_arity(inputs.size() + outputs.size());
    return resimulate_impl(dirty_inputs,
                           make_stream_attach<T>(inputs, outputs));
  }

  /// Re-simulates after the inputs listed in `dirty_inputs` (indices into
  /// the graph's global inputs) changed. All arguments are passed again;
  /// inputs NOT listed as dirty must hold the same data as the *baseline*
  /// run -- that is the caller's contract that makes cone skipping sound.
  /// The baseline advances only on full runs (run(), a fallback inside
  /// this call, resimulate_with_cost()); an incremental splice leaves it
  /// in place, so across consecutive incremental calls the dirty set is
  /// cumulative: keep listing every input that differs from the baseline,
  /// not just the ones that changed since the previous resimulate().
  /// Falls back to a full warm rerun whenever incremental execution cannot
  /// be proven exact (see file header); query last_was_incremental().
  template <class... Args>
  SimResult resimulate(const std::vector<std::size_t>& dirty_inputs,
                       Args&&... args) {
    EntryGuard guard{*this};
    check_arity(sizeof...(args));
    return resimulate_impl(dirty_inputs, [&] {
      std::size_t pos = 0;
      (attach_io_arg(pos++, std::forward<Args>(args)), ...);
    });
  }

  /// Changes the cost model and re-runs in full (cost constants affect
  /// every kernel, so there is no cone to narrow to); the warm context and
  /// the compiled-graph cache still make this far cheaper than a fresh
  /// simulate(). The result becomes the new baseline.
  template <class... Args>
  SimResult resimulate_with_cost(const CostModel& cost, Args&&... args) {
    EntryGuard guard{*this};
    check_arity(sizeof...(args));
    cfg_.cost = cost;
    compiled_ = CompiledGraphCache::instance().get_or_compile(
        graph_, cfg_.cost, cfg_.generated_io, cfg_.placement,
        cfg_.array_columns);
    return full_run_impl([&] {
      std::size_t pos = 0;
      (attach_io_arg(pos++, std::forward<Args>(args)), ...);
    });
  }

  /// True when the previous resimulate() ran incrementally (cone splice),
  /// false when it fell back to a full rerun.
  [[nodiscard]] bool last_was_incremental() const {
    return last_was_incremental_;
  }
  /// Kernels re-simulated by the last incremental run (0 for an empty
  /// cone; meaningless after a full run).
  [[nodiscard]] std::size_t last_cone_size() const { return last_cone_size_; }
  [[nodiscard]] const SimResult& baseline() const { return base_result_; }
  [[nodiscard]] const CompiledGraph& compiled() const { return *compiled_; }

 private:
  enum class Phase { baseline, incremental };

  /// Thread-affinity guard on the public entry points. A session is warm,
  /// mutable state (engine, channels, taps): it may move between threads
  /// across calls, but two threads must never be inside it at once. Sweep
  /// workers are expected to *check sessions out* of a cgsim::SessionPool
  /// rather than share one; this guard turns an accidental share into a
  /// deterministic std::logic_error instead of silent state corruption.
  class EntryGuard {
   public:
    explicit EntryGuard(ResimSession& s) : s_(s) {
      std::thread::id expected{};
      if (!s_.active_thread_.compare_exchange_strong(
              expected, std::this_thread::get_id(),
              std::memory_order_acq_rel)) {
        throw std::logic_error{
            "ResimSession entered concurrently from two threads; check "
            "sessions out of a pool instead of sharing one"};
      }
    }
    EntryGuard(const EntryGuard&) = delete;
    EntryGuard& operator=(const EntryGuard&) = delete;
    ~EntryGuard() {
      s_.active_thread_.store(std::thread::id{}, std::memory_order_release);
    }

   private:
    ResimSession& s_;
  };

  void check_arity(std::size_t n_args) const {
    if (n_args != graph_.inputs.size() + graph_.outputs.size()) {
      throw std::invalid_argument{
          "graph invocation: expected one argument per global input and "
          "output"};
    }
  }

  /// Binds a uniform stream-typed I/O list (the runtime-arity entry
  /// points). Captures by reference; the caller's containers must outlive
  /// the returned closure's use inside the same public call.
  template <class T>
  std::function<void()> make_stream_attach(
      const std::vector<std::vector<T>>& inputs,
      std::vector<std::vector<T>>& outputs) {
    return [this, &inputs, &outputs] {
      std::size_t pos = 0;
      for (const std::vector<T>& in : inputs) attach_io_arg(pos++, in);
      for (std::vector<T>& out : outputs) attach_io_arg(pos++, out);
    };
  }

  /// Body of resimulate(), shared by the variadic and runtime-arity entry
  /// points. `attach_io` re-binds every global input/output (it is invoked
  /// again on every fallback path, matching the original re-bind-per-run
  /// behaviour).
  SimResult resimulate_impl(const std::vector<std::size_t>& dirty_inputs,
                            const std::function<void()>& attach_io) {
    for (std::size_t idx : dirty_inputs) {
      if (idx >= graph_.inputs.size()) {
        throw std::out_of_range{"dirty input index out of range"};
      }
    }
    if (!base_valid_ || cfg_.detail == DetailLevel::cycle) {
      return full_run_impl(attach_io);
    }
    compute_cone(dirty_inputs);
    const std::size_t n_kernels = graph_.kernels.size();
    std::size_t cone_size = 0;
    for (char c : in_cone_) cone_size += static_cast<std::size_t>(c);
    if (cone_size == 0) {
      // Nothing is affected: refill the caller's outputs from the
      // baseline and hand back the baseline result.
      phase_ = Phase::incremental;
      attach_io();
      last_was_incremental_ = true;
      last_cone_size_ = 0;
      return base_result_;
    }
    if (cone_size == n_kernels || !incremental_preconditions_hold()) {
      return full_run_impl(attach_io);
    }

    phase_ = Phase::incremental;
    post_run_.clear();
    replay_blocked_ = 0;
    engine_.emplace(cfg_);  // same address: channel hook pointers stay valid
    // Kernels outside the cone never run: the mask keeps their task slots
    // (started=false) but skips building their coroutine frames.
    ctx_->reset_for_rerun(&in_cone_);
    attach_io();
    for (std::size_t e = 0; e < graph_.edges.size(); ++e) {
      if (!is_replay_edge(e)) continue;
      cgsim::ChannelBase* ch = ctx_->channel(static_cast<int>(e));
      cgsim::RuntimeContext::TaskRecord rec;
      rec.name = "replay#" + std::to_string(e);
      // The replay coroutine stands in for every skipped kernel producer;
      // listing the channel once per producer balances producer_done so
      // consumers see end-of-stream exactly when the baseline closed.
      const std::size_t n_prod = compiled_->edge_producer_kernels[e].size();
      rec.out_channels.assign(n_prod, ch);
      rec.task = graph_.edges[e].vtable().make_replay(
          ch, &taps_[e], &*engine_, &replay_blocked_);
      ctx_->push_task(std::move(rec));
    }
    engine_->bind(*ctx_, compiled_);
    ctx_->start_all();
    cgsim::RunResult r = ctx_->finish(engine_->run());
    if (replay_blocked_ != 0 || r.deadlocked) {
      // The cone diverged enough to push back into the replayed past (or
      // wedged); the incremental run is not exact -- discard it.
      return full_run_impl(attach_io);
    }
    for (auto& f : post_run_) f();
    last_was_incremental_ = true;
    last_cone_size_ = cone_size;
    return splice(std::move(r));
  }

  /// Body of run() / every full-rerun fallback.
  SimResult full_run_impl(const std::function<void()>& attach_io) {
    phase_ = Phase::baseline;
    post_run_.clear();
    engine_.emplace(cfg_);
    if (ctx_ == nullptr) {
      ctx_ = std::make_unique<cgsim::RuntimeContext>(
          graph_, cgsim::ExecMode::sim, &*engine_, &*engine_);
    } else {
      ctx_->reset_for_rerun();
    }
    const std::size_t n_edges = graph_.edges.size();
    taps_.resize(n_edges);
    tappable_.assign(n_edges, 0);
    for (std::size_t e = 0; e < n_edges; ++e) {
      taps_[e].clear();
      tappable_[e] = graph_.edges[e].vtable().attach_tap(
                         ctx_->channel(static_cast<int>(e)), &taps_[e])
                         ? 1
                         : 0;
    }
    attach_io();
    engine_->bind(*ctx_, compiled_);
    ctx_->start_all();
    SimResult res = engine_->result(ctx_->finish(engine_->run()));
    capture_baseline(res);
    for (auto& f : post_run_) f();
    last_was_incremental_ = false;
    return res;
  }

  void capture_baseline(const SimResult& res) {
    const std::size_t n_edges = graph_.edges.size();
    edge_parks_.assign(n_edges, 0);
    for (std::size_t e = 0; e < n_edges; ++e) {
      edge_parks_[e] = ctx_->channel(static_cast<int>(e))->push_parks();
    }
    base_tiles_ = engine_->tile_stats_by_kernel(graph_.kernels.size());
    io_clocks_.clear();
    for (auto& rec : ctx_->tasks()) {
      if (rec.kernel_index >= 0 || !rec.started) continue;
      io_clocks_[rec.name] = engine_->task_clock(rec.task.handle());
    }
    out_popped_.assign(graph_.outputs.size(), 0);
    for (std::size_t j = 0; j < graph_.outputs.size(); ++j) {
      const cgsim::FlatGlobal& go = graph_.outputs[j];
      if (go.endpoint >= 0) {
        out_popped_[j] = ctx_->channel(go.edge)->popped(go.endpoint);
      }
    }
    base_result_ = res;
    base_valid_ = !res.run.deadlocked;
  }

  // --- cone analysis ---

  void compute_cone(const std::vector<std::size_t>& dirty_inputs) {
    const std::size_t n_kernels = graph_.kernels.size();
    const std::size_t n_edges = graph_.edges.size();
    in_cone_.assign(n_kernels, 0);
    edge_live_.assign(n_edges, 0);
    input_edge_.assign(n_edges, 0);
    for (const cgsim::FlatGlobal& in : graph_.inputs) {
      input_edge_[static_cast<std::size_t>(in.edge)] = 1;
    }
    for (std::size_t idx : dirty_inputs) {
      const auto e = static_cast<std::size_t>(graph_.inputs[idx].edge);
      for (int k : compiled_->edge_consumer_kernels[e]) {
        in_cone_[static_cast<std::size_t>(k)] = 1;
      }
    }
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::size_t k = 0; k < n_kernels; ++k) {
        if (in_cone_[k] == 0) continue;
        for (int e : compiled_->kernel_out_edges[k]) {
          edge_live_[static_cast<std::size_t>(e)] = 1;
        }
        for (int e : compiled_->kernel_in_edges[k]) {
          edge_live_[static_cast<std::size_t>(e)] = 1;
        }
      }
      for (std::size_t e = 0; e < n_edges; ++e) {
        if (edge_live_[e] == 0) continue;
        for (int c : compiled_->edge_consumer_kernels[e]) {  // rules A, B
          if (in_cone_[static_cast<std::size_t>(c)] == 0) {
            in_cone_[static_cast<std::size_t>(c)] = 1;
            changed = true;
          }
        }
        bool pull_producers = input_edge_[e] != 0;  // rule D
        for (int p : compiled_->edge_producer_kernels[e]) {  // rule C
          if (in_cone_[static_cast<std::size_t>(p)] != 0) pull_producers = true;
        }
        if (pull_producers) {
          for (int p : compiled_->edge_producer_kernels[e]) {
            if (in_cone_[static_cast<std::size_t>(p)] == 0) {
              in_cone_[static_cast<std::size_t>(p)] = 1;
              changed = true;
            }
          }
        }
      }
    }
  }

  /// Live edge whose kernel producers are all skipped: re-fed by replay.
  [[nodiscard]] bool is_replay_edge(std::size_t e) const {
    if (edge_live_[e] == 0) return false;
    const auto& prods = compiled_->edge_producer_kernels[e];
    if (prods.empty()) return false;  // fed by a global source only
    for (int p : prods) {
      if (in_cone_[static_cast<std::size_t>(p)] != 0) return false;
    }
    return true;
  }

  [[nodiscard]] bool incremental_preconditions_hold() const {
    for (std::size_t e = 0; e < graph_.edges.size(); ++e) {
      if (!is_replay_edge(e)) continue;
      if (tappable_[e] == 0) return false;
      if (edge_parks_[e] != 0) return false;
      const auto& stamps = taps_[e].stamps;
      for (std::size_t i = 1; i < stamps.size(); ++i) {
        // Non-monotone stamps (multi-producer interleaving) would let the
        // replay's ring occupancy lag the original producers', weakening
        // the blocked-push divergence check from exact to conservative.
        if (stamps[i] < stamps[i - 1]) return false;
      }
    }
    for (std::size_t j = 0; j < graph_.outputs.size(); ++j) {
      const auto e = static_cast<std::size_t>(graph_.outputs[j].edge);
      if (edge_live_[e] != 0) continue;  // skipped output: must be
      if (graph_.edges[e].settings.rtp) {  // reconstructible from baseline
        if (!saved_rtp_.contains(j)) return false;
      } else if (tappable_[e] == 0) {
        return false;
      }
    }
    // Trace records are spliced by kernel *name*; a name shared between a
    // cone kernel and a skipped kernel would splice ambiguously.
    std::set<std::string_view> cone_names;
    std::set<std::string_view> skip_names;
    for (std::size_t k = 0; k < graph_.kernels.size(); ++k) {
      (in_cone_[k] != 0 ? cone_names : skip_names).insert(graph_.kernels[k].name);
    }
    for (std::string_view n : cone_names) {
      if (skip_names.contains(n)) return false;
    }
    return true;
  }

  // --- I/O attachment (both phases) ---

  template <class Arg>
  void attach_io_arg(std::size_t pos, Arg&& arg) {
    using V = std::remove_cvref_t<Arg>;
    const bool is_input = pos < graph_.inputs.size();
    const std::size_t idx = is_input ? pos : pos - graph_.inputs.size();
    constexpr bool sinkable = std::is_lvalue_reference_v<Arg&&> &&
                              !std::is_const_v<std::remove_reference_t<Arg>>;
    if constexpr (cgsim::detail::DataContainer<V>) {
      using T = typename V::value_type;
      if (is_input) {
        if (skip_io(graph_.inputs[idx].edge)) return;
        ctx_->add_stream_source<T>(idx, std::span<const T>{arg},
                                   cfg_.repetitions);
      } else if constexpr (sinkable) {
        const int e = graph_.outputs[idx].edge;
        if (skip_io(e)) {
          fill_output_from_tap<T>(static_cast<std::size_t>(e), arg);
          return;
        }
        arg.clear();
        ctx_->add_stream_sink<T>(idx, arg);
      } else {
        throw std::invalid_argument{
            "graph output sink must be a mutable lvalue container"};
      }
    } else {
      if (is_input) {
        if (skip_io(graph_.inputs[idx].edge)) return;
        ctx_->add_rtp_source<V>(idx, V{arg});
      } else if constexpr (sinkable) {
        if (skip_io(graph_.outputs[idx].edge)) {
          restore_rtp_output<V>(idx, arg);
          return;
        }
        ctx_->add_rtp_sink<V>(idx, arg);
        if (phase_ == Phase::baseline) {
          // The sink finalizer writes into `arg` during finish(); capture
          // the settled value afterwards so a later skipped run can
          // restore it.
          post_run_.push_back([this, idx, &arg] { save_rtp_output(idx, arg); });
        }
      } else {
        throw std::invalid_argument{
            "runtime-parameter sink must be a mutable lvalue"};
      }
    }
  }

  [[nodiscard]] bool skip_io(int edge) const {
    return phase_ == Phase::incremental &&
           edge_live_[static_cast<std::size_t>(edge)] == 0;
  }

  template <class T, class C>
  void fill_output_from_tap(std::size_t edge, C& out) {
    if constexpr (std::is_trivially_copyable_v<T>) {
      const cgsim::EdgeTap& tap = taps_[edge];
      out.clear();
      out.resize(tap.count());
      if (!tap.data.empty()) {
        std::memcpy(out.data(), tap.data.data(), tap.data.size());
      }
    } else {
      // Unreachable: incremental_preconditions_hold() requires a tappable
      // edge, and non-trivially-copyable edges are never tappable.
      throw std::logic_error{"untapped output cannot be restored"};
    }
  }

  template <class V>
  void save_rtp_output(std::size_t idx, const V& value) {
    if constexpr (std::is_trivially_copyable_v<V>) {
      auto& bytes = saved_rtp_[idx];
      bytes.resize(sizeof(V));
      std::memcpy(bytes.data(), &value, sizeof(V));
    }
  }

  template <class V>
  void restore_rtp_output(std::size_t idx, V& out) {
    if constexpr (std::is_trivially_copyable_v<V>) {
      const auto it = saved_rtp_.find(idx);
      if (it != saved_rtp_.end() && it->second.size() == sizeof(V)) {
        std::memcpy(&out, it->second.data(), sizeof(V));
      }
    }
  }

  // --- result splicing ---

  SimResult splice(cgsim::RunResult r) {
    const std::size_t n_kernels = graph_.kernels.size();
    SimResult out{};
    std::vector<TileStats> tiles = engine_->tile_stats_by_kernel(n_kernels);
    std::uint64_t makespan = engine_->makespan();
    for (std::size_t k = 0; k < n_kernels; ++k) {
      if (in_cone_[k] != 0) continue;
      tiles[k] = base_tiles_[k];
      makespan = std::max(makespan, tiles[k].final_clock);
    }
    for (std::size_t i = 0; i < graph_.inputs.size(); ++i) {
      if (edge_live_[static_cast<std::size_t>(graph_.inputs[i].edge)] != 0) {
        continue;
      }
      for (const char* prefix : {"source#", "rtp-source#"}) {
        const auto it = io_clocks_.find(prefix + std::to_string(i));
        if (it != io_clocks_.end()) makespan = std::max(makespan, it->second);
      }
    }
    for (std::size_t j = 0; j < graph_.outputs.size(); ++j) {
      const auto e = static_cast<std::size_t>(graph_.outputs[j].edge);
      if (edge_live_[e] != 0) continue;
      r.items_consumed += out_popped_[j];
      const auto it = io_clocks_.find("sink#" + std::to_string(j));
      if (it != io_clocks_.end()) makespan = std::max(makespan, it->second);
    }
    r.virtual_cycles = makespan;
    out.run = r;
    out.virtual_cycles = makespan;
    out.ns_total = static_cast<double>(makespan) * 1e3 / cfg_.aie_mhz;
    out.output_items = 0;
    for (const TileStats& t : tiles) out.output_items += t.iterations;
    // Merged trace: the partial run's records plus the baseline records of
    // skipped kernels, time-sorted. The digest is order-independent, so it
    // matches a full run's digest bit for bit. The merge works on interned
    // records -- each source's name table is remapped into the output trace
    // once up front, so no strings are copied or re-interned per record
    // (the baseline trace dominates splice cost on wide graphs).
    std::set<std::string_view> skipped_names;
    for (std::size_t k = 0; k < n_kernels; ++k) {
      if (in_cone_[k] == 0) skipped_names.insert(graph_.kernels[k].name);
    }
    const Trace& bt = base_result_.trace;
    const Trace& pt = engine_->trace();
    std::vector<std::uint32_t> bmap(bt.name_count(), Trace::kNoName);
    for (std::uint32_t i = 0; i < bmap.size(); ++i) {
      if (skipped_names.contains(bt.name(i))) {
        bmap[i] = out.trace.intern(bt.name(i));
      }
    }
    std::vector<std::uint32_t> pmap(pt.name_count(), Trace::kNoName);
    for (std::uint32_t i = 0; i < pmap.size(); ++i) {
      pmap[i] = out.trace.intern(pt.name(i));
    }
    // Each source was recorded by an engine that retires events in
    // nondecreasing virtual time, so the two record streams are already
    // time-sorted: a linear two-pointer merge (baseline records filtered
    // to skipped kernels on the fly) keeps the spliced trace time-sorted
    // without a comparison sort over the full record set.
    out.trace.reserve(0, bt.size() + pt.size());
    std::size_t i = 0;
    std::size_t j = 0;
    const std::size_t nb = bt.size();
    const std::size_t np = pt.size();
    const auto skip_cone_records = [&] {
      while (i < nb && bmap[bt.record_at(i).name] == Trace::kNoName) ++i;
    };
    skip_cone_records();
    while (i < nb || j < np) {
      if (i < nb &&
          (j >= np || bt.record_at(i).cycles <= pt.record_at(j).cycles)) {
        const Trace::Record& r = bt.record_at(i++);
        out.trace.record(r.cycles, bmap[r.name], r.iteration);
        skip_cone_records();
      } else {
        const Trace::Record& r = pt.record_at(j++);
        out.trace.record(r.cycles, pmap[r.name], r.iteration);
      }
    }
    out.tiles = tiles;
    std::sort(out.tiles.begin(), out.tiles.end(),
              [](const TileStats& a, const TileStats& b) {
                return a.kernel < b.kernel;
              });
    out.step_checksum = engine_->step_checksum();
    return out;
  }

  cgsim::GraphView graph_;
  SimConfig cfg_;
  std::shared_ptr<const CompiledGraph> compiled_;
  // Engine before context: the context's channels hold pointers INTO the
  // engine (executor + sim hooks), and `emplace` reconstructs the engine
  // at the same address so those stay valid across reruns.
  std::optional<SimEngine> engine_;
  std::unique_ptr<cgsim::RuntimeContext> ctx_;

  // Baseline capture.
  bool base_valid_ = false;
  SimResult base_result_{};
  std::vector<TileStats> base_tiles_;            ///< by kernel index
  std::map<std::string, std::uint64_t> io_clocks_;  ///< source/sink clocks
  std::vector<std::uint64_t> out_popped_;        ///< per output index
  std::vector<cgsim::EdgeTap> taps_;                    ///< per edge (stable ptrs)
  std::vector<char> tappable_;
  std::vector<std::uint64_t> edge_parks_;
  std::map<std::size_t, std::vector<std::byte>> saved_rtp_;

  // Per-call scratch.
  Phase phase_ = Phase::baseline;
  std::vector<char> in_cone_;
  std::vector<char> edge_live_;
  std::vector<char> input_edge_;
  std::vector<std::function<void()>> post_run_;
  std::uint64_t replay_blocked_ = 0;
  bool last_was_incremental_ = false;
  std::size_t last_cone_size_ = 0;

  // Thread currently inside a public entry point (default id = none).
  std::atomic<std::thread::id> active_thread_{};
};

}  // namespace aiesim

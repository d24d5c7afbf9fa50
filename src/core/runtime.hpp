// cgsim -- runtime graph instantiation and execution
// (paper Sections 3.6-3.8).
//
// RuntimeContext is the deserializer: it reconstructs a runnable copy of a
// flattened compute graph on the runtime heap -- channels first, then the
// kernels via their serialized thunks -- and manages the whole execution
// instance. Global inputs/outputs are attached as data source/sink
// coroutines reading/writing ordinary C++ containers (Section 3.7).
//
// Three execution strategies live here:
//   * run_coop():     cooperative single-threaded scheduling (cgsim proper)
//   * run_threaded(): one OS thread per kernel (the x86sim execution model)
//   * run_coop_mt():  sharded cooperative scheduling, one thread per shard;
//                     a shard holds whole connected components
//                     (partition.hpp), so every edge is shard-local and
//                     keeps the single-threaded CoopChannel fast path.
// The cycle-approximate backend drives the same context with its own
// executor (see src/aiesim/).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "channel.hpp"
#include "dma.hpp"
#include "flatten.hpp"
#include "graph_view.hpp"
#include "kernel.hpp"
#include "partition.hpp"
#include "ports.hpp"
#include "scheduler.hpp"
#include "task.hpp"
#include "types.hpp"

namespace cgsim {

/// Raised when the containers supplied at invocation do not match the
/// graph's global port types.
class TypeMismatchError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

namespace detail {

// NOTE: the DMA-transform branch is kept outside the co_await expressions;
// GCC 12 miscompiles conditional-operator temporaries of non-scalar type
// inside await expressions (the coroutine frame copy of the std::function
// gets clobbered).
template <class T>
KernelTask stream_source(KernelWritePort<T> out, std::span<const T> data,
                         int repetitions, dma::Transform<T> dma_transform) {
  for (int r = 0; r < repetitions; ++r) {
    if (dma_transform) {
      for (const T& v : data) co_await out.put(dma_transform(v));
    } else {
      for (const T& v : data) co_await out.put(v);
    }
  }
}

template <class T>
KernelTask stream_sink(KernelReadPort<T> in, std::vector<T>* out,
                       dma::Transform<T> dma_transform) {
  while (true) {
    T v = co_await in.get();  // ends here once the stream closes
    if (dma_transform) {
      out->push_back(dma_transform(v));
    } else {
      out->push_back(std::move(v));
    }
  }
}

template <class T>
KernelTask rtp_source(KernelWritePort<T> out, T value) {
  co_await out.put(std::move(value));
}

template <class C>
concept DataContainer = requires(const C& c) {
  typename C::value_type;
  std::span<const typename C::value_type>{c};
};

}  // namespace detail

/// One execution instance of a compute graph (paper Section 3.6).
class RuntimeContext {
 public:
  struct TaskRecord {
    KernelTask task;
    std::string name;
    std::vector<ChannelBase*> out_channels;
    std::vector<std::pair<ChannelBase*, int>> in_endpoints;
    Realm realm = Realm::noextract;
    int kernel_index = -1;  ///< -1 for source/sink tasks
    int shard = 0;          ///< coop_mt home shard
    bool finished = false;
    bool started = true;  ///< false: excluded from this run (resim skip set)
  };

  /// Deserializes `g`. When `exec` is null the context's own FIFO scheduler
  /// is used (cooperative mode); the cycle-approximate backend passes its
  /// event-queue executor and SimHooks instead. `workers` applies to
  /// ExecMode::coop_mt only (0 = hardware concurrency): the graph's
  /// connected components are packed onto at most that many shards, one
  /// thread per shard.
  explicit RuntimeContext(const GraphView& g, ExecMode mode = ExecMode::coop,
                          Executor* exec = nullptr, SimHooks* sim = nullptr,
                          int workers = 0)
      : graph_(g), mode_(mode), sim_(sim) {
    exec_ = exec != nullptr ? exec : &sched_;
    if (mode_ == ExecMode::coop_mt) {
      int w = workers > 0
                  ? workers
                  : static_cast<int>(std::thread::hardware_concurrency());
      if (w < 1) w = 1;
      partition_ = partition_graph(g, w);
      pool_.emplace(partition_.n_shards);
    }
    // Recreate all channels from the serialized edge descriptors. Ping-pong
    // window connections are double buffers on hardware: unless the user
    // overrode the capacity, model exactly two windows in flight.
    channels_.reserve(g.edges.size());
    for (std::size_t ei = 0; ei < g.edges.size(); ++ei) {
      const FlatEdge& e = g.edges[ei];
      int capacity = e.capacity;
      if (e.settings.buffer == BufferMode::pingpong &&
          capacity == kDefaultChannelCapacity) {
        capacity = 2;
      }
      // A coop_mt edge is shard-local: its channel wakes its shard's
      // scheduler.
      Executor* exec =
          pool_ ? &pool_->shard(partition_.edge_home[ei]) : exec_;
      ChannelBase* ch = e.vtable().create(mode_, e.n_consumers, capacity,
                                          e.settings.rtp, exec);
      ch->set_producers(e.n_producers);
      ch->set_edge_id(static_cast<int>(ei));
      if (sim_ != nullptr) ch->attach_sim_hooks(sim_);
      channels_.emplace_back(ch);
    }
    build_kernels();
  }

  /// (Re)creates all graph kernels through their serialized thunks. Called
  /// by the constructor and by reset_for_rerun(). With a `mask`, kernels
  /// whose entry is 0 get a placeholder record (started=false, no coroutine
  /// frame, no port bindings) -- the incremental re-simulation layer
  /// excludes them from the run anyway, so building their frames only to
  /// destroy them unresumed would be pure overhead. Task indices are
  /// unaffected: every kernel still occupies its slot in tasks().
  void build_kernels(const std::vector<char>* mask = nullptr) {
    const GraphView& g = graph_;
    tasks_.reserve(g.kernels.size());
    for (std::size_t ki = 0; ki < g.kernels.size(); ++ki) {
      const FlatKernel& k = g.kernels[ki];
      if (mask != nullptr && (*mask)[ki] == 0) {
        TaskRecord skip;
        skip.name = std::string{k.name};
        skip.realm = k.realm;
        skip.kernel_index = static_cast<int>(ki);
        skip.started = false;
        tasks_.push_back(std::move(skip));
        continue;
      }
      std::vector<PortBinding> bindings;
      bindings.reserve(static_cast<std::size_t>(k.nports));
      TaskRecord rec;
      rec.name = std::string{k.name};
      rec.realm = k.realm;
      rec.kernel_index = static_cast<int>(ki);
      for (int p = 0; p < k.nports; ++p) {
        const FlatPort& fp =
            g.ports[static_cast<std::size_t>(k.first_port + p)];
        const FlatEdge& fe = g.edges[static_cast<std::size_t>(fp.edge)];
        ChannelBase* ch = channels_[static_cast<std::size_t>(fp.edge)].get();
        bindings.push_back(
            PortBinding{ch, fp.endpoint, mode_, sim_, fe.settings.rtp});
        if (fp.is_read) {
          rec.in_endpoints.emplace_back(ch, fp.endpoint);
        } else {
          rec.out_channels.push_back(ch);
        }
      }
      if (pool_) {
        rec.shard = partition_.kernel_shard[ki];
      }
      rec.task = k.thunk(KernelBinding{bindings.data(), bindings.size()});
      tasks_.push_back(std::move(rec));
    }
  }

  /// Rewinds the context for another run over the same channels: destroys
  /// all task coroutines (including attached sources/sinks), resets every
  /// channel to its freshly-constructed state, and rebuilds the graph
  /// kernels. Channel addresses are preserved, so engines that cached
  /// channel pointers stay valid; the caller re-attaches I/O and calls
  /// start_all(). Cooperative single-threaded modes only. `kernel_mask`
  /// (optional, one entry per kernel) elides frame construction for
  /// kernels excluded from the upcoming run -- see build_kernels().
  void reset_for_rerun(const std::vector<char>* kernel_mask = nullptr) {
    if (pool_ || mode_ == ExecMode::threaded) {
      throw std::logic_error{
          "reset_for_rerun supports single-threaded cooperative modes only"};
    }
    tasks_.clear();
    by_handle_.clear();
    finalizers_.clear();
    for (auto& ch : channels_) ch->reset_for_rerun();
    build_kernels(kernel_mask);
  }

  RuntimeContext(const RuntimeContext&) = delete;
  RuntimeContext& operator=(const RuntimeContext&) = delete;

  // --- global I/O attachment (paper Section 3.7) ---

  /// Attaches a streaming data source. `dma_transform` models a DMA
  /// descriptor applied during the transfer (e.g. dma::CornerTurn).
  template <class T>
  void add_stream_source(std::size_t input_idx, std::span<const T> data,
                         int repetitions = 1,
                         dma::Transform<T> dma_transform = {}) {
    const FlatGlobal& in = global_input(input_idx, type_id<T>());
    auto* ch = channel_as<T>(in.edge);
    PortBinding b{ch, -1, mode_, sim_, edge_is_rtp(in.edge)};
    TaskRecord rec;
    rec.name = "source#" + std::to_string(input_idx);
    rec.shard = shard_for_edge(in.edge);
    rec.out_channels.push_back(ch);
    rec.task = detail::stream_source<T>(KernelWritePort<T>{b}, data,
                                        repetitions,
                                        std::move(dma_transform));
    tasks_.push_back(std::move(rec));
  }

  template <class T>
  void add_stream_sink(std::size_t output_idx, std::vector<T>& out,
                       dma::Transform<T> dma_transform = {}) {
    const FlatGlobal& go = global_output(output_idx, type_id<T>());
    auto* ch = channel_as<T>(go.edge);
    PortBinding b{ch, go.endpoint, mode_, sim_, edge_is_rtp(go.edge)};
    TaskRecord rec;
    rec.name = "sink#" + std::to_string(output_idx);
    rec.shard = shard_for_edge(go.edge);
    rec.in_endpoints.emplace_back(ch, go.endpoint);
    rec.task = detail::stream_sink<T>(KernelReadPort<T>{b}, &out,
                                      std::move(dma_transform));
    tasks_.push_back(std::move(rec));
  }

  template <class T>
  void add_rtp_source(std::size_t input_idx, T value) {
    const FlatGlobal& in = global_input(input_idx, type_id<T>());
    require_rtp(in.edge, "runtime-parameter source");
    auto* ch = channel_as<T>(in.edge);
    PortBinding b{ch, -1, mode_, sim_, /*rtp=*/true};
    TaskRecord rec;
    rec.name = "rtp-source#" + std::to_string(input_idx);
    rec.shard = shard_for_edge(in.edge);
    rec.out_channels.push_back(ch);
    rec.task = detail::rtp_source<T>(KernelWritePort<T>{b}, std::move(value));
    tasks_.push_back(std::move(rec));
  }

  /// A runtime-parameter sink has no coroutine: the final value is copied
  /// out after the run completes.
  template <class T>
  void add_rtp_sink(std::size_t output_idx, T& out) {
    const FlatGlobal& go = global_output(output_idx, type_id<T>());
    require_rtp(go.edge, "runtime-parameter sink");
    auto* ch = static_cast<RtpChannel<T>*>(
        channels_[static_cast<std::size_t>(go.edge)].get());
    ch->consumer_done(go.endpoint);  // never blocks ring reuse
    finalizers_.push_back([ch, &out] { (void)ch->latest(out); });
  }

  // --- execution ---

  /// Cooperative single-threaded execution (paper Section 3.8).
  RunResult run_coop() {
    if (pool_) {
      throw std::logic_error{
          "context built for ExecMode::coop_mt; call run_coop_mt()"};
    }
    start_all();
    RunResult r{};
    r.resumes = sched_.run([this](std::coroutine_handle<> h) {
      on_task_finished(h);
    });
    return finish(r);
  }

  /// Sharded cooperative execution: each shard's scheduler runs until its
  /// ready queue is empty, shard 0 on the calling thread and every other
  /// shard on a thread of its own.
  RunResult run_coop_mt() {
    if (!pool_) {
      throw std::logic_error{
          "run_coop_mt() requires a context built with ExecMode::coop_mt"};
    }
    start_all();
    RunResult r{};
    r.resumes = pool_->run(
        [this](std::coroutine_handle<> h) { on_task_finished(h); });
    r.shards_used = pool_->n_shards();
    r.worker_loads = pool_->worker_loads();
    return finish(r);
  }

  /// Thread-per-kernel execution (the x86sim model, paper Section 5.2).
  RunResult run_threaded() {
    RunResult r{};
    {
      std::vector<std::jthread> threads;
      threads.reserve(tasks_.size());
      for (TaskRecord& rec : tasks_) {
        threads.emplace_back([this, &rec] {
          rec.task.handle().resume();
          if (rec.task.done()) on_task_finished_record(rec);
        });
      }
    }  // join
    r.resumes = tasks_.size();
    return finish(r);
  }

  /// Registers every task with the executor in suspended state; used by
  /// run_coop(), run_coop_mt() and the cycle-approximate engine. In coop_mt
  /// each task goes to its home shard's scheduler.
  void start_all() {
    for (TaskRecord& rec : tasks_) {
      if (!rec.started) continue;
      by_handle_[rec.task.handle().address()] = &rec;
      Executor& exec = pool_ ? pool_->shard(rec.shard) : *exec_;
      exec.make_ready(rec.task.handle(), 0);
    }
  }

  /// Registers a single task with the executor; used by engines that start
  /// a task added after start_all() (e.g. a replay source).
  void start_one(TaskRecord& rec) {
    rec.started = true;
    by_handle_[rec.task.handle().address()] = &rec;
    exec_->make_ready(rec.task.handle(), 0);
  }

  /// Closure bookkeeping shared by all execution strategies.
  void on_task_finished(std::coroutine_handle<> h) {
    auto it = by_handle_.find(h.address());
    if (it != by_handle_.end()) on_task_finished_record(*it->second);
  }

  [[nodiscard]] std::vector<TaskRecord>& tasks() { return tasks_; }
  [[nodiscard]] const GraphView& graph() const { return graph_; }
  [[nodiscard]] Scheduler& scheduler() { return sched_; }
  [[nodiscard]] ChannelBase* channel(int edge) {
    return channels_[static_cast<std::size_t>(edge)].get();
  }
  [[nodiscard]] TaskRecord* record_for(std::coroutine_handle<> h) {
    auto it = by_handle_.find(h.address());
    return it == by_handle_.end() ? nullptr : it->second;
  }

  /// Gathers statistics, runs finalizers, and rethrows the first kernel
  /// error, if any. Exposed for custom engines.
  RunResult finish(RunResult r) {
    for (TaskRecord& rec : tasks_) {
      if (!rec.started) continue;  // resim skip set: never ran by design
      if (rec.task.done()) {
        ++r.kernels_completed;
      } else {
        ++r.kernels_destroyed;
        r.deadlocked = true;
        r.blocked_kernels.push_back(rec.name);
      }
      if (std::exception_ptr e = rec.task.error()) {
        std::rethrow_exception(e);
      }
    }
    for (std::size_t o = 0; o < graph_.outputs.size(); ++o) {
      const FlatGlobal& go = graph_.outputs[o];
      if (go.endpoint >= 0) {
        r.items_consumed +=
            channels_[static_cast<std::size_t>(go.edge)]->popped(go.endpoint);
      }
    }
    for (auto& f : finalizers_) f();
    return r;
  }

 private:
  void on_task_finished_record(TaskRecord& rec) {
    if (rec.finished) return;
    rec.finished = true;
    for (auto& [ch, endpoint] : rec.in_endpoints) ch->consumer_done(endpoint);
    for (ChannelBase* ch : rec.out_channels) ch->producer_done();
  }

  [[nodiscard]] const FlatGlobal& global_input(std::size_t idx, TypeId t) {
    if (idx >= graph_.inputs.size()) {
      throw std::out_of_range{"graph input index out of range"};
    }
    const FlatGlobal& g = graph_.inputs[idx];
    check_type(g, t, "input");
    return g;
  }
  [[nodiscard]] const FlatGlobal& global_output(std::size_t idx, TypeId t) {
    if (idx >= graph_.outputs.size()) {
      throw std::out_of_range{"graph output index out of range"};
    }
    const FlatGlobal& g = graph_.outputs[idx];
    check_type(g, t, "output");
    return g;
  }
  void check_type(const FlatGlobal& g, TypeId t, const char* what) {
    if (g.type != t) {
      const FlatEdge& e = graph_.edges[static_cast<std::size_t>(g.edge)];
      throw TypeMismatchError{
          std::string{"graph "} + what + " element type mismatch: graph " +
          "expects " + std::string{e.vtable().type_name}};
    }
  }
  [[nodiscard]] bool edge_is_rtp(int edge) const {
    return graph_.edges[static_cast<std::size_t>(edge)].settings.rtp;
  }
  /// Home shard for a source/sink task attached to `edge`: the shard of
  /// the edge's kernels, so every endpoint of the channel runs on the
  /// thread that owns it.
  [[nodiscard]] int shard_for_edge(int edge) const {
    return pool_ ? partition_.edge_home[static_cast<std::size_t>(edge)] : 0;
  }
  void require_rtp(int edge, const char* what) {
    if (!graph_.edges[static_cast<std::size_t>(edge)].settings.rtp) {
      throw TypeMismatchError{
          std::string{what} + " attached to a non-RTP connection"};
    }
  }
  template <class T>
  [[nodiscard]] TypedChannel<T>* channel_as(int edge) {
    return static_cast<TypedChannel<T>*>(
        channels_[static_cast<std::size_t>(edge)].get());
  }

  GraphView graph_;
  ExecMode mode_;
  SimHooks* sim_;
  Executor* exec_;
  Scheduler sched_;
  Partition partition_;
  // The pool outlives channels (which hold shard-scheduler pointers), and
  // channels are declared before tasks so tasks (which reference channels)
  // are destroyed first.
  std::optional<ShardPool> pool_;
  std::vector<std::unique_ptr<ChannelBase>> channels_;
  std::vector<TaskRecord> tasks_;
  std::unordered_map<void*, TaskRecord*> by_handle_;
  std::vector<std::function<void()>> finalizers_;
};

namespace detail {

template <class Arg>
void attach_io(RuntimeContext& ctx, const GraphView& g, const RunOptions& opts,
               std::size_t pos, Arg&& arg) {
  using V = std::remove_cvref_t<Arg>;
  const bool is_input = pos < g.inputs.size();
  const std::size_t idx = is_input ? pos : pos - g.inputs.size();
  // Whether `arg` could legally serve as a sink (mutable lvalue); const or
  // temporary arguments can only be sources.
  constexpr bool sinkable = std::is_lvalue_reference_v<Arg&&> &&
                            !std::is_const_v<std::remove_reference_t<Arg>>;
  if constexpr (DataContainer<V>) {
    using T = typename V::value_type;
    if (is_input) {
      ctx.add_stream_source<T>(idx, std::span<const T>{arg},
                               opts.repetitions);
    } else if constexpr (sinkable) {
      ctx.add_stream_sink<T>(idx, arg);
    } else {
      throw std::invalid_argument{
          "graph output sink must be a mutable lvalue container"};
    }
  } else {
    // Scalar: a runtime parameter (paper Section 3.7).
    if (is_input) {
      ctx.add_rtp_source<V>(idx, V{arg});
    } else if constexpr (sinkable) {
      ctx.add_rtp_sink<V>(idx, arg);
    } else {
      throw std::invalid_argument{
          "runtime-parameter sink must be a mutable lvalue"};
    }
  }
}

}  // namespace detail

/// Invokes a compute graph: positional data sources for every global input
/// first, then data sinks for every global output (paper Section 3.7).
/// Containers become element streams; scalars become runtime parameters.
template <class... Args>
RunResult run_graph(const GraphView& g, const RunOptions& opts,
                    Args&&... args) {
  if (sizeof...(args) != g.inputs.size() + g.outputs.size()) {
    throw std::invalid_argument{
        "graph invocation: expected one argument per global input and "
        "output"};
  }
  if (opts.mode == ExecMode::sim) {
    throw std::invalid_argument{
        "ExecMode::sim requires the cycle-approximate engine; use "
        "aiesim::simulate()"};
  }
  RuntimeContext ctx{g, opts.mode, nullptr, nullptr, opts.workers};
  std::size_t pos = 0;
  (detail::attach_io(ctx, g, opts, pos++, std::forward<Args>(args)), ...);
  if (opts.mode == ExecMode::threaded) return ctx.run_threaded();
  if (opts.mode == ExecMode::coop_mt) return ctx.run_coop_mt();
  return ctx.run_coop();
}

}  // namespace cgsim

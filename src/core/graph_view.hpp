// cgsim -- the flattened, array-based compute-graph representation
// (paper Section 3.5).
//
// Compile-time graph construction produces a pointer-based object graph on
// the constexpr heap, which cannot outlive constant evaluation. Flattening
// rewrites it into the index-based structures below, which can be stored in
// a constexpr variable and travel from compile time into run time (for the
// graph runtime) or into the extractor (for code generation).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "ct_graph.hpp"
#include "port_config.hpp"
#include "types.hpp"

namespace cgsim {

/// One stream connection, with settings merged over all endpoints.
struct FlatEdge {
  TypeId type = nullptr;
  VTableFn vtable = nullptr;
  PortSettings settings{};
  int capacity = kDefaultChannelCapacity;
  Attribute attrs[kMaxAttrsPerEdge]{};
  int n_attrs = 0;
  int n_producers = 0;  ///< kernel write ports + global inputs
  int n_consumers = 0;  ///< kernel read ports + global outputs
};

/// One kernel I/O endpoint. `endpoint` is the broadcast consumer slot for
/// read ports (-1 for write ports).
struct FlatPort {
  bool is_read = false;
  int edge = -1;
  PortSettings settings{};
  int endpoint = -1;
};

/// One kernel instantiation; `thunk` reconstructs the typed kernel at run
/// time (paper Section 3.6) and doubles as the extractor's source of type
/// information (Section 4.2).
struct FlatKernel {
  std::string_view name{};
  Realm realm = Realm::aie;
  KernelThunk thunk = nullptr;
  int first_port = 0;
  int nports = 0;
};

/// One global graph input or output (paper Section 3.7). `endpoint` is the
/// broadcast consumer slot for outputs (-1 for inputs).
struct FlatGlobal {
  int edge = -1;
  TypeId type = nullptr;
  int endpoint = -1;
};

/// Non-owning, type-erased view over any flattened graph; everything
/// downstream of construction (runtime, simulators, extractor) consumes
/// this instead of the size-templated FlatGraph.
struct GraphView {
  std::span<const FlatKernel> kernels;
  std::span<const FlatPort> ports;
  std::span<const FlatEdge> edges;
  std::span<const FlatGlobal> inputs;
  std::span<const FlatGlobal> outputs;
};

/// Per-shard execution statistics for one coop_mt run, reported through
/// RunResult so load imbalance between shards is visible.
struct WorkerLoad {
  std::uint64_t resumes = 0;  ///< coroutine resumptions on this shard
  double busy_s = 0.0;        ///< wall time of the shard's run (none parks)
};

/// Execution statistics returned by a graph run.
struct RunResult {
  std::uint64_t resumes = 0;          ///< coroutine resumptions
  std::uint64_t items_consumed = 0;   ///< elements delivered into sinks
  int kernels_completed = 0;          ///< kernels that terminated cleanly
  int kernels_destroyed = 0;          ///< kernels reaped while suspended
  bool deadlocked = false;            ///< quiescence with unfinished kernels
  std::vector<std::string> blocked_kernels;
  std::uint64_t virtual_cycles = 0;   ///< cycle-approximate backend only
  int shards_used = 0;                ///< coop_mt only: shards run
  /// coop_mt only: per-shard resume/busy statistics of the run.
  std::vector<WorkerLoad> worker_loads;
};

/// Options for a graph run.
struct RunOptions {
  ExecMode mode = ExecMode::coop;
  int repetitions = 1;  ///< how many times sources replay their data
  /// coop_mt only: shard-count ceiling; 0 = hardware concurrency. The
  /// graph runs on min(workers, connected components) shards, one thread
  /// each, the calling thread included.
  int workers = 0;
};

}  // namespace cgsim

// cgsim -- interactive streaming sessions.
//
// The paper's workflow keeps the compute-graph prototype embedded in a
// live application (Section 1: "a fully functional application throughout
// the graph development process"). Batch invocation (`graph(in, out)`)
// covers offline runs; InteractiveSession covers the embedded case: the
// host pushes input elements as they become available (e.g. from a socket
// or sensor loop), the cooperative scheduler advances the graph as far as
// data allows, and finished outputs are polled back — all on the caller's
// thread, with no background machinery.
#pragma once

#include <deque>
#include <optional>
#include <stdexcept>
#include <vector>

#include "channel.hpp"
#include "graph_view.hpp"
#include "runtime.hpp"
#include "types.hpp"

namespace cgsim {

/// A paused, incrementally-driven execution instance of a compute graph.
///
///   InteractiveSession s{graph.view()};
///   s.push<float>(0, 1.0f);
///   s.push<float>(1, 2.0f);
///   while (auto v = s.poll<float>(0)) consume(*v);
///   s.finish();   // end-of-stream: lets while(true) kernels terminate
class InteractiveSession {
 public:
  explicit InteractiveSession(const GraphView& g,
                              ExecMode mode = ExecMode::coop)
      : ctx_(g, require_coop(mode)), graph_(g) {
    // The host itself occupies the producer slot the flattened graph
    // reserves for each input's data source, and the consumer endpoint of
    // each output's sink; no source/sink coroutines are attached.
    ctx_.start_all();
    pump();
  }

  /// Feeds one element into global input `input_idx` and advances the
  /// graph. Returns false when the channel is full even after running the
  /// scheduler (downstream back-pressure) -- retry after polling outputs.
  template <class T>
  [[nodiscard]] bool push(std::size_t input_idx, const T& value) {
    auto* ch = input_channel<T>(input_idx);
    ChanStatus st = ch->try_push(value);
    if (st == ChanStatus::blocked) {
      pump();  // let consumers drain, then retry once
      st = ch->try_push(value);
    }
    if (st == ChanStatus::closed) {
      throw std::logic_error{"push into a finished session"};
    }
    pump();
    return st == ChanStatus::ok;
  }

  /// Feeds up to `n` elements into global input `input_idx`, advancing the
  /// graph whenever the channel fills. Returns the number accepted, which
  /// is less than `n` only under sustained downstream back-pressure (an
  /// un-polled output is full) -- drain outputs and push the rest. One
  /// bulk channel op per ring-full, not one per element.
  template <class T>
  std::size_t push_n(std::size_t input_idx, const T* src, std::size_t n) {
    auto* ch = input_channel<T>(input_idx);
    std::size_t done = 0;
    while (done < n) {
      ChanStatus st{};
      const std::size_t k = ch->try_push_n(src + done, n - done, st);
      done += k;
      if (st == ChanStatus::closed) {
        throw std::logic_error{"push into a finished session"};
      }
      const std::uint64_t before = resumes_;
      pump();
      if (k == 0 && resumes_ == before) break;  // graph is truly stuck
    }
    pump();
    return done;
  }

  /// Drains up to `n` finished elements from global output `output_idx`.
  template <class T>
  std::size_t poll_n(std::size_t output_idx, T* dst, std::size_t n) {
    auto* ch = output_channel<T>(output_idx);
    const int consumer = graph_.outputs[output_idx].endpoint;
    std::size_t done = 0;
    while (done < n) {
      ChanStatus st{};
      const std::size_t k = ch->try_pop_n(consumer, dst + done, n - done, st);
      done += k;
      const std::uint64_t before = resumes_;
      pump();  // popping may unblock producers, which may produce more
      if (k == 0 && resumes_ == before) break;
    }
    return done;
  }

  /// Retrieves the next available element from global output `output_idx`,
  /// or nullopt when the graph has not produced one yet.
  template <class T>
  [[nodiscard]] std::optional<T> poll(std::size_t output_idx) {
    auto* ch = output_channel<T>(output_idx);
    T v{};
    const ChanStatus st = ch->try_pop(graph_.outputs[output_idx].endpoint, v);
    pump();  // popping may unblock producers
    if (st == ChanStatus::ok) return v;
    return std::nullopt;
  }

  /// Signals end-of-stream on every input: kernels written as
  /// `while (true)` end at their next read once drained.
  void finish() {
    if (finished_) return;
    finished_ = true;
    for (const FlatGlobal& in : graph_.inputs) {
      ctx_.channel(in.edge)->producer_done();
    }
    pump();
  }

  /// Rewinds the session to its freshly-constructed state for another
  /// streaming pass over the same graph instance: kernels are rebuilt,
  /// channels emptied and reopened, and the session accepts pushes again.
  /// Far cheaper than constructing a new session (no graph deserialization,
  /// no channel allocation).
  void resimulate() {
    ctx_.reset_for_rerun();
    finished_ = false;
    ctx_.start_all();
    pump();
  }

  /// True when every kernel has terminated (only meaningful after
  /// finish()).
  [[nodiscard]] bool drained() {
    for (const auto& rec : ctx_.tasks()) {
      if (!rec.task.done()) return false;
    }
    return true;
  }

  [[nodiscard]] std::uint64_t resumes() const { return resumes_; }

 private:
  /// A session runs the graph on the caller's thread between host pushes:
  /// the thread-per-kernel and worker-pool backends have no meaningful
  /// paused state to hand back, so only the cooperative mode is legal.
  static ExecMode require_coop(ExecMode mode) {
    if (mode != ExecMode::coop) {
      throw std::invalid_argument{
          "InteractiveSession requires ExecMode::coop; threaded and coop_mt "
          "backends cannot pause on the caller's thread"};
    }
    return mode;
  }

  /// Runs the scheduler to quiescence (cheap when nothing is runnable).
  void pump() {
    resumes_ += ctx_.scheduler().run(
        [this](std::coroutine_handle<> h) { ctx_.on_task_finished(h); });
  }

  template <class T>
  TypedChannel<T>* input_channel(std::size_t input_idx) {
    if (input_idx >= graph_.inputs.size()) {
      throw std::out_of_range{"session input index out of range"};
    }
    const FlatGlobal& in = graph_.inputs[input_idx];
    if (graph_.edges[static_cast<std::size_t>(in.edge)].type !=
        type_id<T>()) {
      throw TypeMismatchError{"session push element type mismatch"};
    }
    return static_cast<TypedChannel<T>*>(ctx_.channel(in.edge));
  }

  /// Checks the element type before the downcast: casting a channel to
  /// the wrong TypedChannel<T> is undefined even if never used.
  template <class T>
  TypedChannel<T>* output_channel(std::size_t output_idx) {
    if (output_idx >= graph_.outputs.size()) {
      throw std::out_of_range{"session output index out of range"};
    }
    const FlatGlobal& out = graph_.outputs[output_idx];
    if (graph_.edges[static_cast<std::size_t>(out.edge)].type !=
        type_id<T>()) {
      throw TypeMismatchError{"session poll element type mismatch"};
    }
    return static_cast<TypedChannel<T>*>(ctx_.channel(out.edge));
  }

  RuntimeContext ctx_;
  GraphView graph_;
  bool finished_ = false;
  std::uint64_t resumes_ = 0;
};

}  // namespace cgsim

// End-to-end cgsimd loopback tests: digest identity with in-process runs,
// warm-session reuse, incremental sim reruns, quota enforcement and
// concurrent clients multiplexed over one daemon.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/dynamic_graph.hpp"
#include "core/session.hpp"
#include "net/socket.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "service/graph_codec.hpp"
#include "service/kernels.hpp"
#include "service/protocol.hpp"

namespace {

using namespace cgsim;
using namespace cgsim::service;

/// add(e0,e1) -> e2, split(e2) -> (e3, e4): two inputs, two outputs.
GraphSpec diamond_spec() {
  GraphSpec g;
  g.edges = {{"i32", 64, {}}, {"i32", 64, {}}, {"i32", 64, {}},
             {"i32", 64, {}}, {"i32", 64, {}}};
  g.kernels = {{"svc_add_i32", {0, 1, 2}}, {"svc_split_i32", {2, 3, 4}}};
  g.inputs = {0, 1};
  g.outputs = {3, 4};
  return g;
}

GraphSpec inc_chain_spec(int extra = 0) {
  GraphSpec g;
  g.edges = {{"i32", 64, {}}, {"i32", 64, {}}, {"i32", 64, {}}};
  g.kernels = {{"svc_inc_i32", {0, 1}}, {"svc_double_i32", {1, 2}}};
  g.inputs = {0};
  g.outputs = {2};
  for (int i = 0; i < extra; ++i) {
    const int in = static_cast<int>(g.edges.size()) - 1;
    g.edges.push_back({"i32", 64, {}});
    g.kernels.push_back({"svc_inc_i32", {in, in + 1}});
    g.outputs = {in + 1};
  }
  return g;
}

/// Two independent inc->double chains. Dirtying one input leaves the other
/// chain outside the resim cone, so a server-side incremental rerun is
/// actually possible (in diamond_spec every input's cone is the whole
/// graph and resim must fall back to a full rerun).
GraphSpec twin_chain_spec() {
  GraphSpec g;
  g.edges = {{"i32", 64, {}}, {"i32", 64, {}}, {"i32", 64, {}},
             {"i32", 64, {}}, {"i32", 64, {}}, {"i32", 64, {}}};
  g.kernels = {{"svc_inc_i32", {0, 1}},
               {"svc_double_i32", {1, 2}},
               {"svc_inc_i32", {3, 4}},
               {"svc_double_i32", {4, 5}}};
  g.inputs = {0, 3};
  g.outputs = {2, 5};
  return g;
}

std::vector<int> iota_vec(int n, int start) {
  std::vector<int> v(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) v[static_cast<std::size_t>(i)] = start + i;
  return v;
}

/// In-process reference run of `spec` (same interleaved drive the daemon's
/// coop lane uses); returns per-output element bytes.
std::vector<std::string> run_in_process(
    const GraphSpec& spec, const std::vector<std::vector<int>>& inputs) {
  rt::DynamicGraphBuilder b;
  build_graph(spec, b);
  InteractiveSession s{b.view()};
  std::vector<std::string> outputs(spec.outputs.size());
  std::vector<std::size_t> fed(inputs.size(), 0);
  int buf[1024];
  auto drain = [&] {
    bool any = false;
    for (std::size_t o = 0; o < outputs.size(); ++o) {
      for (;;) {
        const std::size_t k = s.poll_n<int>(o, buf, 1024);
        if (k == 0) break;
        outputs[o].append(reinterpret_cast<const char*>(buf),
                          k * sizeof(int));
        any = true;
        if (k < 1024) break;
      }
    }
    return any;
  };
  for (;;) {
    bool progress = false;
    bool all_fed = true;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      if (fed[i] >= inputs[i].size()) continue;
      const std::size_t k = s.push_n<int>(i, inputs[i].data() + fed[i],
                                          inputs[i].size() - fed[i]);
      fed[i] += k;
      progress |= k > 0;
      all_fed &= fed[i] >= inputs[i].size();
    }
    progress |= drain();
    if (all_fed) break;
    if (!progress) throw std::runtime_error{"reference run stalled"};
  }
  s.finish();
  while (drain()) {
  }
  return outputs;
}

/// Daemon on an ephemeral loopback port plus a connector helper.
struct LocalDaemon {
  std::uint16_t port = 0;
  Daemon daemon;

  explicit LocalDaemon(DaemonConfig cfg = {})
      : daemon{net::listen_tcp_loopback(0, &port), cfg} {}

  [[nodiscard]] ServiceClient connect() const {
    return ServiceClient{net::connect_tcp_loopback(port)};
  }
};

void send_vec(ServiceClient& cli, std::uint64_t sid, std::size_t idx,
              const std::vector<int>& v) {
  cli.send_input(sid, idx, v.data(), v.size() * sizeof(int));
}

TEST(Service, CoopDigestIdentityWithInProcessRun) {
  LocalDaemon d;
  auto cli = d.connect();
  const GraphSpec spec = diamond_spec();
  const std::vector<std::vector<int>> inputs = {iota_vec(500, 1),
                                                iota_vec(500, -250)};
  const std::vector<std::string> expect = run_in_process(spec, inputs);
  const std::uint64_t expect_digest = outputs_digest(expect);

  const auto sid = cli.open(RunMode::coop, spec);
  send_vec(cli, sid, 0, inputs[0]);
  send_vec(cli, sid, 1, inputs[1]);
  RunOutcome out = cli.run(sid);
  ASSERT_TRUE(out.ok) << out.error;
  EXPECT_FALSE(out.result.warm);
  EXPECT_EQ(out.outputs, expect) << "service outputs diverge from in-process";
  EXPECT_EQ(out.result.digest, expect_digest);
  EXPECT_EQ(outputs_digest(out.outputs), out.result.digest)
      << "server digest must cover exactly the bytes it shipped";
}

TEST(Service, WarmRerunIsFlaggedAndBitIdentical) {
  LocalDaemon d;
  auto cli = d.connect();
  const GraphSpec spec = inc_chain_spec();
  const auto sid = cli.open(RunMode::coop, spec);
  const std::vector<int> in = iota_vec(1000, 7);

  send_vec(cli, sid, 0, in);
  RunOutcome cold = cli.run(sid);
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_FALSE(cold.result.warm);

  send_vec(cli, sid, 0, in);
  RunOutcome warm = cli.run(sid);
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_TRUE(warm.result.warm) << "second run must hit the warm lane";
  EXPECT_EQ(warm.result.digest, cold.result.digest);
  EXPECT_EQ(warm.outputs, cold.outputs);
  EXPECT_GE(d.daemon.stats().warm_runs.load(), 1u);
}

TEST(Service, WarmLaneSurvivesSessionCloseViaPool) {
  LocalDaemon d;
  const GraphSpec spec = inc_chain_spec();
  const std::vector<int> in = iota_vec(256, 3);
  std::uint64_t first_digest = 0;
  {
    auto cli = d.connect();
    const auto sid = cli.open(RunMode::coop, spec);
    send_vec(cli, sid, 0, in);
    RunOutcome out = cli.run(sid);
    ASSERT_TRUE(out.ok) << out.error;
    first_digest = out.result.digest;
    cli.close_session(sid);
  }
  // A brand-new connection with the same spec bytes checks the lane back
  // out of the pool: warm run, identical bits.
  auto cli = d.connect();
  const auto sid = cli.open(RunMode::coop, spec);
  send_vec(cli, sid, 0, in);
  RunOutcome out = cli.run(sid);
  ASSERT_TRUE(out.ok) << out.error;
  EXPECT_TRUE(out.result.warm);
  EXPECT_EQ(out.result.digest, first_digest);
  EXPECT_GE(d.daemon.coop_pool().reused(), 1u);
}

TEST(Service, SimLaneRunsAndIncrementalRerun) {
  LocalDaemon d;
  auto cli = d.connect();
  const GraphSpec spec = twin_chain_spec();
  const auto sid = cli.open(RunMode::sim, spec);
  const std::vector<int> in0 = iota_vec(128, 0);
  std::vector<int> in1 = iota_vec(128, 100);

  send_vec(cli, sid, 0, in0);
  send_vec(cli, sid, 1, in1);
  RunOutcome cold = cli.run(sid);
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_FALSE(cold.result.warm);
  EXPECT_FALSE(cold.result.incremental);
  EXPECT_GT(cold.result.virtual_cycles, 0u);

  // Only input 1 changes: the server's byte diff must take the
  // incremental path, and the result must match a cold run of the same
  // changed inputs on a fresh daemon.
  in1[5] += 9000;
  cli.send_rtp(sid, 1, in1.data(), in1.size() * sizeof(int));
  RunOutcome warm = cli.run(sid);
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_TRUE(warm.result.warm);
  EXPECT_TRUE(warm.result.incremental);
  EXPECT_GE(d.daemon.stats().incremental_runs.load(), 1u);

  LocalDaemon fresh;
  auto cli2 = fresh.connect();
  const auto sid2 = cli2.open(RunMode::sim, spec);
  send_vec(cli2, sid2, 0, in0);
  send_vec(cli2, sid2, 1, in1);
  RunOutcome ref = cli2.run(sid2);
  ASSERT_TRUE(ref.ok) << ref.error;
  EXPECT_EQ(warm.result.digest, ref.result.digest)
      << "incremental rerun diverged from a cold run of the same inputs";
  EXPECT_EQ(warm.result.virtual_cycles, ref.result.virtual_cycles);
  EXPECT_EQ(warm.outputs, ref.outputs);
}

// The lane's ResimSession keeps the last full run as its baseline across
// incremental reruns, so the server must diff each rerun against that
// baseline. Resending the previous rerun's RTP must still produce that
// RTP's outputs, not the baseline's.
TEST(Service, RepeatedRtpRerunMatchesFreshDaemon) {
  LocalDaemon d;
  auto cli = d.connect();
  const GraphSpec spec = twin_chain_spec();
  const auto sid = cli.open(RunMode::sim, spec);
  const std::vector<int> in0 = iota_vec(128, 0);
  const std::vector<int> a = iota_vec(128, 100);
  std::vector<int> b = a;
  b[5] += 9000;

  send_vec(cli, sid, 0, in0);
  cli.send_rtp(sid, 1, a.data(), a.size() * sizeof(int));
  RunOutcome first = cli.run(sid);
  ASSERT_TRUE(first.ok) << first.error;
  cli.send_rtp(sid, 1, b.data(), b.size() * sizeof(int));
  RunOutcome second = cli.run(sid);
  ASSERT_TRUE(second.ok) << second.error;
  cli.send_rtp(sid, 1, b.data(), b.size() * sizeof(int));
  RunOutcome third = cli.run(sid);
  ASSERT_TRUE(third.ok) << third.error;
  EXPECT_TRUE(third.result.warm);

  LocalDaemon fresh;
  auto cli2 = fresh.connect();
  const auto sid2 = cli2.open(RunMode::sim, spec);
  send_vec(cli2, sid2, 0, in0);
  cli2.send_rtp(sid2, 1, b.data(), b.size() * sizeof(int));
  RunOutcome ref = cli2.run(sid2);
  ASSERT_TRUE(ref.ok) << ref.error;
  EXPECT_NE(first.result.digest, ref.result.digest);
  EXPECT_EQ(second.result.digest, ref.result.digest);
  EXPECT_EQ(third.result.digest, ref.result.digest)
      << "repeated RTP rerun returned stale outputs";
  EXPECT_EQ(third.result.virtual_cycles, ref.result.virtual_cycles);
  EXPECT_EQ(third.outputs, ref.outputs);
}

TEST(Service, ConcurrentClientsShareWarmLanes) {
  DaemonConfig cfg;
  cfg.io_threads = 2;
  LocalDaemon d{cfg};
  const GraphSpec spec = diamond_spec();
  const std::vector<std::vector<int>> inputs = {iota_vec(200, 11),
                                                iota_vec(200, -40)};
  const std::uint64_t expect = outputs_digest(run_in_process(spec, inputs));

  constexpr int kClients = 8;
  constexpr int kSessions = 8;
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&] {
      try {
        auto cli = d.connect();
        std::vector<std::uint64_t> sids;
        sids.reserve(kSessions);
        for (int s = 0; s < kSessions; ++s) {
          const auto sid = cli.open(RunMode::coop, spec);
          send_vec(cli, sid, 0, inputs[0]);
          send_vec(cli, sid, 1, inputs[1]);
          cli.start_run(sid);
          sids.push_back(sid);
        }
        for (const auto sid : sids) {
          RunOutcome out = cli.wait(sid);
          if (!out.ok || out.result.digest != expect) bad.fetch_add(1);
          cli.close_session(sid);
        }
      } catch (...) {
        bad.fetch_add(100);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(d.daemon.stats().runs.load(),
            static_cast<std::uint64_t>(kClients * kSessions));
  // All 64 sessions are closed, so the pool holds idle warm lanes: one
  // more run of the same spec bytes must check a warm lane back out.
  // (Asserting on warm_runs during the storm would race run completion
  // against close_session lane returns.)
  auto cli = d.connect();
  const auto sid = cli.open(RunMode::coop, spec);
  send_vec(cli, sid, 0, inputs[0]);
  send_vec(cli, sid, 1, inputs[1]);
  RunOutcome out = cli.run(sid);
  ASSERT_TRUE(out.ok) << out.error;
  EXPECT_TRUE(out.result.warm);
  EXPECT_EQ(out.result.digest, expect);
  EXPECT_GE(d.daemon.coop_pool().reused(), 1u);
}

TEST(Service, UnknownKernelRejectedAtOpen) {
  LocalDaemon d;
  auto cli = d.connect();
  GraphSpec spec = inc_chain_spec();
  spec.kernels[0].name = "svc_not_registered";
  EXPECT_THROW(cli.open(RunMode::coop, spec), std::runtime_error);
  // The connection survives the rejected open.
  const auto sid = cli.open(RunMode::coop, inc_chain_spec());
  const std::vector<int> in = iota_vec(16, 0);
  send_vec(cli, sid, 0, in);
  EXPECT_TRUE(cli.run(sid).ok);
}

TEST(Service, LiveByteQuotaRejectsChunkButKeepsSession) {
  DaemonConfig cfg;
  cfg.quotas.max_live_bytes = 1024;
  LocalDaemon d{cfg};
  auto cli = d.connect();
  const auto sid = cli.open(RunMode::coop, inc_chain_spec());

  const std::vector<int> big = iota_vec(2048, 0);  // 8 KiB > quota
  send_vec(cli, sid, 0, big);
  RunOutcome out = cli.run(sid);
  ASSERT_FALSE(out.ok);
  EXPECT_NE(out.error.find("quota"), std::string::npos) << out.error;
  EXPECT_GE(d.daemon.stats().quota_rejections.load(), 1u);
  // The error raced ahead of the run itself: the finish_inputs above still
  // ran with the (empty) surviving buffer. Absorb that result.
  RunOutcome empty_run = cli.wait(sid);
  ASSERT_TRUE(empty_run.ok) << empty_run.error;
  EXPECT_TRUE(empty_run.outputs.at(0).empty());

  // The chunk was dropped, not the session: a small send still runs.
  const std::vector<int> small = iota_vec(64, 5);
  send_vec(cli, sid, 0, small);
  RunOutcome ok = cli.run(sid);
  ASSERT_TRUE(ok.ok) << ok.error;
  EXPECT_EQ(ok.outputs, run_in_process(inc_chain_spec(), {small}));
}

TEST(Service, WallBudgetExceededReportsError) {
  DaemonConfig cfg;
  cfg.quotas.wall_budget_ms = 0;  // every run blows the budget
  LocalDaemon d{cfg};
  auto cli = d.connect();
  const auto sid = cli.open(RunMode::coop, inc_chain_spec());
  const std::vector<int> in = iota_vec(64, 0);
  send_vec(cli, sid, 0, in);
  RunOutcome out = cli.run(sid);
  ASSERT_FALSE(out.ok);
  EXPECT_NE(out.error.find("wall-clock"), std::string::npos) << out.error;
}

TEST(Service, PoolEvictionUnderTinyCapacity) {
  DaemonConfig cfg;
  cfg.pool_capacity = 1;
  LocalDaemon d{cfg};
  auto cli = d.connect();
  const std::vector<int> in = iota_vec(32, 1);
  // Three distinct specs churn the single-lane pool.
  for (int extra = 0; extra < 3; ++extra) {
    const auto sid = cli.open(RunMode::coop, inc_chain_spec(extra));
    send_vec(cli, sid, 0, in);
    RunOutcome out = cli.run(sid);
    ASSERT_TRUE(out.ok) << out.error;
    cli.close_session(sid);
  }
  // close_session is fire-and-forget, so the third lane's return to the
  // pool may still be in flight. Running a fourth, distinct spec over the
  // same connection is a barrier: its open is processed after the close,
  // and its run executes after the worker has released the previous
  // session's lease.
  const auto probe = cli.open(RunMode::coop, inc_chain_spec(3));
  send_vec(cli, probe, 0, in);
  ASSERT_TRUE(cli.run(probe).ok);
  EXPECT_EQ(d.daemon.coop_pool().capacity(), 1u);
  EXPECT_GE(d.daemon.coop_pool().evicted(), 2u);
}

TEST(Service, EmptyInputProducesEmptyOutputs) {
  LocalDaemon d;
  auto cli = d.connect();
  const auto sid = cli.open(RunMode::coop, inc_chain_spec());
  RunOutcome out = cli.run(sid);  // no inputs sent at all
  ASSERT_TRUE(out.ok) << out.error;
  ASSERT_EQ(out.outputs.size(), 1u);
  EXPECT_TRUE(out.outputs[0].empty());
}

}  // namespace

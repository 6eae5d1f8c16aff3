// The control plane's contract (src/control/README.md): every decision is a
// pure function of (window index, counter snapshot, config); the ControlLog
// is byte-identical at any worker count; every fleet-side knob is
// result-neutral; and re-running the fold over the same snapshots
// reproduces the log exactly.
#include "control/engine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <thread>
#include <utility>
#include <vector>

#include "control/log.hpp"
#include "control/policies.hpp"
#include "fleet/recorder.hpp"
#include "fleet/server.hpp"
#include "fleet/service.hpp"
#include "sim/fleet_workload.hpp"
#include "telemetry/collector.hpp"

namespace uwp::control {
namespace {

using telemetry::Counter;

telemetry::Snapshot snap_with(
    std::uint64_t window,
    std::initializer_list<std::pair<Counter, std::uint64_t>> vals) {
  telemetry::Snapshot s;
  s.window = window;
  for (const auto& [c, v] : vals) s.counts[static_cast<std::size_t>(c)] = v;
  return s;
}

// --- policy folds -----------------------------------------------------------

TEST(Policies, ArenaTunerStormsAndDecays) {
  ControlConfig cfg;
  ShardControls c;

  // Storm: retention jumps to the base, then doubles, capped at retain_max.
  tune_arena(cfg, snap_with(0, {{Counter::kEvicts, cfg.evict_storm}}), c);
  EXPECT_EQ(c.arena_retain, 2 * cfg.retain_base);
  for (int i = 0; i < 10; ++i)
    tune_arena(cfg, snap_with(1 + i, {{Counter::kEvicts, cfg.evict_storm}}), c);
  EXPECT_EQ(c.arena_retain, cfg.retain_max);

  // Idle windows decay retention back toward the base, never below it.
  for (int i = 0; i < 10; ++i) tune_arena(cfg, snap_with(20 + i, {}), c);
  EXPECT_EQ(c.arena_retain, cfg.retain_base);
}

TEST(Policies, ArenaTunerPicksPolicyFromMixDrift) {
  ControlConfig cfg;
  ShardControls c;

  // Balanced mix (mean admit size == mean evict size): LFU.
  tune_arena(cfg,
             snap_with(0, {{Counter::kAdmits, 4},
                           {Counter::kEvicts, 4},
                           {Counter::kAdmitDevices, 20},
                           {Counter::kEvictDevices, 20}}),
             c);
  EXPECT_EQ(c.cache_policy, CachePolicy::kLfu);

  // Drifting mix (admitted groups much larger than evicted): cost-aware.
  tune_arena(cfg,
             snap_with(1, {{Counter::kAdmits, 4},
                           {Counter::kEvicts, 4},
                           {Counter::kAdmitDevices, 40},
                           {Counter::kEvictDevices, 20}}),
             c);
  EXPECT_EQ(c.cache_policy, CachePolicy::kCostAware);
}

TEST(Policies, SolverTunerScalesWithIterationPressure) {
  ControlConfig cfg;
  ShardControls c;

  tune_solver(cfg,
              snap_with(0, {{Counter::kRounds, 10},
                            {Counter::kSolverIterations,
                             10 * (cfg.solver_iters_high + 1)}}),
              c);
  EXPECT_EQ(c.search_threads, 2u);
  // Pressure stays high: doubles to the cap, never past it.
  for (int i = 0; i < 8; ++i)
    tune_solver(cfg,
                snap_with(1 + i, {{Counter::kRounds, 10},
                                  {Counter::kSolverIterations,
                                   10 * (cfg.solver_iters_high + 1)}}),
                c);
  EXPECT_EQ(c.search_threads, cfg.max_search_threads);
  // Low pressure halves back down to 1.
  for (int i = 0; i < 8; ++i)
    tune_solver(cfg, snap_with(20 + i, {{Counter::kRounds, 10}}), c);
  EXPECT_EQ(c.search_threads, 1u);
  // No rounds at all: no change.
  c.search_threads = 4;
  tune_solver(cfg, snap_with(40, {}), c);
  EXPECT_EQ(c.search_threads, 4u);
}

TEST(Policies, ShaperTunerOpensUnderShedPressureAndRelaxes) {
  ControlConfig cfg;
  ShardControls base;
  base.shaper_rate = 4.0;
  base.shaper_burst = 8.0;
  base.shaper_max_defers = 8;
  ShardControls c = base;

  // Sheds while workers kept up: the bucket is the bottleneck.
  tune_shaper(cfg, base,
              snap_with(0, {{Counter::kIngestShed, 5},
                            {Counter::kIngestAdmitted, 10},
                            {Counter::kRounds, 10}}),
              c);
  EXPECT_DOUBLE_EQ(c.shaper_rate, 4.0 * cfg.rate_step);
  EXPECT_DOUBLE_EQ(c.shaper_burst, 10.0);
  EXPECT_EQ(c.shaper_max_defers, 10u);

  // Quiet windows step back to (never past) the baseline.
  for (int i = 0; i < 16; ++i) tune_shaper(cfg, base, snap_with(1 + i, {}), c);
  EXPECT_DOUBLE_EQ(c.shaper_rate, base.shaper_rate);
  EXPECT_DOUBLE_EQ(c.shaper_burst, base.shaper_burst);
  EXPECT_EQ(c.shaper_max_defers, base.shaper_max_defers);

  // Disabled baseline: inert no matter the counters.
  ShardControls off;
  ShardControls c2 = off;
  tune_shaper(cfg, off, snap_with(0, {{Counter::kIngestShed, 100}}), c2);
  EXPECT_TRUE(bit_equal(c2, off));
}

// --- engine -----------------------------------------------------------------

TEST(ControlEngine, FoldIsPureAndMasksItsOwnCounters) {
  ControlConfig cfg;
  cfg.enabled = true;
  const ShardControls base;

  std::vector<telemetry::Snapshot> snaps;
  snaps.push_back(snap_with(0, {{Counter::kEvicts, 8}, {Counter::kAdmits, 8},
                                {Counter::kAdmitDevices, 40},
                                {Counter::kEvictDevices, 39}}));
  snaps.push_back(snap_with(1, {{Counter::kRounds, 4},
                                {Counter::kSolverIterations, 4000}}));
  snaps.push_back(snap_with(2, {}));

  const ControlLog a = ControlEngine::reexecute(cfg, base, snaps);
  const ControlLog b = ControlEngine::reexecute(cfg, base, snaps);
  EXPECT_TRUE(bit_equal(a, b));
  EXPECT_EQ(a.windows_observed, 3u);
  EXPECT_FALSE(a.actions.empty());

  // The engine's own emissions must not feed back into decisions: spiking
  // the control counters in the input changes nothing.
  std::vector<telemetry::Snapshot> spiked = snaps;
  for (telemetry::Snapshot& s : spiked) {
    s.counts[static_cast<std::size_t>(Counter::kControlWindows)] = 999;
    s.counts[static_cast<std::size_t>(Counter::kControlActions)] = 999;
  }
  EXPECT_TRUE(bit_equal(a, ControlEngine::reexecute(cfg, base, spiked)));
}

// --- fleet integration ------------------------------------------------------

sim::WorkloadParams churn_params(std::size_t sessions) {
  sim::WorkloadParams p;
  p.sessions = sessions;
  p.seed = 0xC0117301u;
  p.min_group_size = 4;
  p.max_group_size = 6;
  p.min_rounds = 2;
  p.max_rounds = 4;
  p.admit_spread_ticks = 4;
  p.include_des = false;
  return p;
}

telemetry::TelemetryOptions fleet_tel_options(double window) {
  telemetry::TelemetryOptions t;
  t.enabled = true;
  t.timing = false;
  t.window = window;
  return t;
}

void expect_fleet_bits(const fleet::FleetResult& a, const fleet::FleetResult& b) {
  EXPECT_EQ(a.fleet_digest, b.fleet_digest);
  ASSERT_EQ(a.sessions.size(), b.sessions.size());
  for (std::size_t i = 0; i < a.sessions.size(); ++i)
    EXPECT_TRUE(a.sessions[i].bit_equal(b.sessions[i])) << "session " << i;
}

// The Replayer drives the same Session/ShardArena executor as the live
// service, so the counter plane it rebuilds (leases, admits, evicts, coasts,
// rounds, solver counters, window by window) equals the live one at any
// shard count.
TEST(ControlFleet, ReplayCountersEqualLiveCounters) {
  const sim::WorkloadParams params = churn_params(16);
  const std::vector<sim::GroupScenario> workload = sim::make_workload(params);
  for (const std::size_t shards : {1u, 3u}) {
    fleet::FleetOptions opts;
    opts.shards = shards;
    fleet::SessionRecorder recorder(opts.master_seed, params, workload);
    telemetry::Collector col(fleet_tel_options(4.0));
    const fleet::FleetResult live =
        fleet::FleetService(opts, workload).run(&recorder, &col);

    telemetry::Collector replay_col(fleet_tel_options(4.0));
    const fleet::Replayer::ReplayResult replayed =
        fleet::Replayer(recorder.trace()).replay(&replay_col);
    EXPECT_EQ(replayed.result_mismatches, 0u) << "shards=" << shards;
    expect_fleet_bits(live, replayed.fleet);
    EXPECT_TRUE(col.report().counters_equal(replay_col.report())) << "shards=" << shards;
  }
}

// --- serve integration ------------------------------------------------------

fleet::ServerResult serve_controlled(const std::vector<sim::GroupScenario>& workload,
                                     fleet::ServerOptions opts,
                                     telemetry::Collector& col,
                                     ControlEngine& engine) {
  fleet::Server server(opts, workload);
  fleet::RingBufferTransport transport(64);
  std::thread feeder(
      [&] { fleet::feed_workload(transport, workload, opts.master_seed, {}); });
  fleet::ServerResult res;
  try {
    res = server.serve(transport, nullptr, &col, &engine);
  } catch (...) {
    transport.close();
    feeder.join();
    throw;
  }
  feeder.join();
  return res;
}

TEST(ControlServe, LogAndResultWorkerCountInvariantUnderShaping) {
  ControlConfig cfg;
  cfg.enabled = true;
  const std::vector<sim::GroupScenario> workload =
      sim::make_workload(churn_params(16));

  fleet::ServerOptions opts;
  opts.shaping.policy = fleet::AdmissionPolicy::kDefer;
  opts.shaping.ingest_shards = 1;  // one bucket for the whole fleet: overload
  opts.shaping.rate_rounds_per_s = 1.0;
  opts.shaping.burst_rounds = 2.0;
  opts.shaping.queue_depth = 8;
  opts.shaping.drain_rounds_per_s = 4.0;
  opts.shaping.max_defers = 2;

  ShardControls base;
  base.shaper_rate = opts.shaping.rate_rounds_per_s;
  base.shaper_burst = opts.shaping.burst_rounds;
  base.shaper_max_defers = opts.shaping.max_defers;

  opts.workers = 1;
  telemetry::Collector col1(fleet_tel_options(4.0));
  ControlEngine e1(cfg, base);
  const fleet::ServerResult r1 = serve_controlled(workload, opts, col1, e1);

  opts.workers = 3;
  telemetry::Collector col3(fleet_tel_options(4.0));
  ControlEngine e3(cfg, base);
  const fleet::ServerResult r3 = serve_controlled(workload, opts, col3, e3);

  // The control-aware verifier recomputes the schedule (with the log's
  // retunes folded in at the same boundaries) bit for bit.
  EXPECT_EQ(r1.stats.schedule_mismatches, 0u);
  EXPECT_EQ(r3.stats.schedule_mismatches, 0u);

  // Log, schedule, and fleet bits are all worker-count invariant.
  EXPECT_TRUE(bit_equal(e1.log(), e3.log()));
  EXPECT_EQ(r1.schedule_digest, r3.schedule_digest);
  expect_fleet_bits(r1.fleet, r3.fleet);

  // Under this overload the shaper tuner must actually have acted.
  bool retuned = false;
  for (const ControlAction& a : e1.log().actions)
    if (a.kind == ActionKind::kShaperRate) retuned = true;
  EXPECT_TRUE(retuned);
}

// Fleet-side knobs are result-neutral: with shaping off, a controlled serve
// run reproduces FleetService::run bit for bit, at any worker count, while
// the engine really does retune the arena or solver knobs.
TEST(ControlServe, UnshapedControlledServeIsBitIdenticalToFleetService) {
  ControlConfig cfg;
  cfg.enabled = true;
  const std::vector<sim::GroupScenario> workload =
      sim::make_workload(churn_params(24));

  fleet::FleetOptions fo;
  fo.shards = 1;
  const fleet::FleetResult plain = fleet::FleetService(fo, workload).run();

  fleet::ServerOptions opts;
  opts.master_seed = fo.master_seed;
  opts.shaping.policy = fleet::AdmissionPolicy::kAdmitAll;
  const ShardControls base;

  opts.workers = 1;
  telemetry::Collector col1(fleet_tel_options(4.0));
  ControlEngine e1(cfg, base);
  const fleet::ServerResult r1 = serve_controlled(workload, opts, col1, e1);

  opts.workers = 3;
  telemetry::Collector col3(fleet_tel_options(4.0));
  ControlEngine e3(cfg, base);
  const fleet::ServerResult r3 = serve_controlled(workload, opts, col3, e3);

  expect_fleet_bits(plain, r1.fleet);
  expect_fleet_bits(plain, r3.fleet);
  EXPECT_EQ(r1.stats.shaper.rounds_shed, 0u);

  EXPECT_TRUE(bit_equal(e1.log(), e3.log()));
  EXPECT_EQ(control_log_digest(e1.log()), control_log_digest(e3.log()));
  bool fleet_side = false;
  for (const ControlAction& a : e1.log().actions)
    if (a.kind == ActionKind::kArenaCachePolicy || a.kind == ActionKind::kArenaRetain ||
        a.kind == ActionKind::kSearchThreads)
      fleet_side = true;
  EXPECT_TRUE(fleet_side);

  // The engine stream emitted one kControlWindows per observed window.
  const telemetry::TelemetryReport rep = col1.report();
  EXPECT_EQ(rep.totals[static_cast<std::size_t>(Counter::kControlWindows)],
            e1.log().windows_observed);
}

}  // namespace
}  // namespace uwp::control

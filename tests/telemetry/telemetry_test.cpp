// Telemetry plane invariants: histogram bucketing is exact at octave
// boundaries; the deterministic counter plane is bit-identical whatever the
// shard/worker partitioning — the contract uwp_run's "counters" section
// (and CI's cross-thread diff) relies on; the timing histograms and the
// flight recorder see every event of a run, however long; trace-span
// *structure* and the SLO scoreboard share the counters' determinism while
// their wall-clock side stays free; and the flight recorder dumps context
// when its triggers fire.
#include "telemetry/collector.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "config/json.hpp"
#include "fleet/server.hpp"
#include "fleet/service.hpp"
#include "sim/fleet_workload.hpp"
#include "telemetry/histogram.hpp"
#include "telemetry/slo.hpp"
#include "telemetry/trace.hpp"

namespace uwp::telemetry {
namespace {

// --- Histogram --------------------------------------------------------------

TEST(Histogram, OctaveBoundariesLandExactly) {
  const Histogram h;  // min 1e-9, 4 buckets per octave
  const int P = h.buckets_per_octave();
  // min * 2^k must land in bucket k*P exactly — frexp-based bucketing, not
  // raw logs, so no off-by-one from libm rounding.
  for (int k = 0; k < 40; ++k) {
    const double v = h.min_value() * std::pow(2.0, k);
    EXPECT_EQ(h.bucket_index(v), static_cast<std::size_t>(k * P)) << "octave " << k;
  }
  // Below-range values clamp into bucket 0; the top clamps to the last.
  EXPECT_EQ(h.bucket_index(0.0), 0u);
  EXPECT_EQ(h.bucket_index(h.min_value() / 2.0), 0u);
  EXPECT_EQ(h.bucket_index(1e300), h.buckets() - 1);
}

TEST(Histogram, NonFiniteAndOverflowingValuesHaveABucket) {
  const Histogram h;  // min 1e-9: DBL_MAX / min overflows to +Inf
  EXPECT_EQ(h.bucket_index(std::numeric_limits<double>::infinity()), h.buckets() - 1);
  EXPECT_EQ(h.bucket_index(std::numeric_limits<double>::max()), h.buckets() - 1);
  EXPECT_EQ(h.bucket_index(std::numeric_limits<double>::quiet_NaN()), 0u);
  EXPECT_EQ(h.bucket_index(-std::numeric_limits<double>::infinity()), 0u);
  // record() still drops non-finite samples; finite extremes are counted.
  Histogram r;
  r.record(std::numeric_limits<double>::infinity());
  r.record(std::numeric_limits<double>::quiet_NaN());
  r.record(std::numeric_limits<double>::max());
  EXPECT_EQ(r.count(), 1u);
  EXPECT_EQ(r.max_seen(), std::numeric_limits<double>::max());
}

TEST(Histogram, BucketLowerEdgesAreMonotonicGeometric) {
  const Histogram h;
  double prev = 0.0;
  for (std::size_t b = 0; b < h.buckets(); ++b) {
    const double edge = h.bucket_lower_edge(b);
    EXPECT_GT(edge, prev);
    EXPECT_EQ(h.bucket_index(edge), b) << "edge of bucket " << b;
    prev = edge;
  }
}

TEST(Histogram, QuantilesTrackRecordedRange) {
  Histogram h;
  EXPECT_EQ(h.quantile(0.5), 0.0);  // empty
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i) * 1e-6);
  EXPECT_EQ(h.count(), 1000u);
  // Log-bucket quantiles are approximate (~19%/bucket) but must bracket the
  // true value and stay inside the observed range.
  EXPECT_NEAR(h.quantile(0.5), 500e-6, 500e-6 * 0.25);
  EXPECT_NEAR(h.quantile(0.99), 990e-6, 990e-6 * 0.25);
  EXPECT_GE(h.quantile(0.001), h.min_seen());
  EXPECT_LE(h.quantile(1.0), h.max_seen());
}

TEST(Histogram, MergeAddsCountsAndRejectsMismatchedGeometry) {
  Histogram a, b;
  a.record(1e-6);
  b.record(2e-6);
  b.record(4e-3);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.sum(), 1e-6 + 2e-6 + 4e-3);
  EXPECT_EQ(a.max_seen(), 4e-3);

  Histogram other(1e-9, 8);
  EXPECT_THROW(a.merge(other), std::invalid_argument);
}

// --- counter plane determinism ----------------------------------------------

sim::WorkloadParams small_params(std::size_t sessions) {
  sim::WorkloadParams p;
  p.sessions = sessions;
  p.seed = 0xBADCAFEu;
  p.min_group_size = 4;
  p.max_group_size = 6;
  p.min_rounds = 2;
  p.max_rounds = 4;
  p.admit_spread_ticks = 3;
  p.include_des = true;
  return p;
}

TelemetryReport fleet_report(const std::vector<sim::GroupScenario>& workload,
                             std::size_t shards) {
  fleet::FleetOptions fo;
  fo.master_seed = 0x7E1Eu;
  fo.shards = shards;
  TelemetryOptions topts;
  topts.enabled = true;
  topts.window = 4.0;
  Collector collector(topts);
  fleet::FleetService(fo, workload).run(nullptr, &collector);
  return collector.report();
}

TEST(CounterPlane, FleetSnapshotsBitIdenticalAcrossShardCounts) {
  const std::vector<sim::GroupScenario> workload =
      sim::make_workload(small_params(12));
  const TelemetryReport one = fleet_report(workload, 1);
  const TelemetryReport four = fleet_report(workload, 4);
  const TelemetryReport three = fleet_report(workload, 3);

  EXPECT_TRUE(one.counters_equal(four));
  EXPECT_TRUE(one.counters_equal(three));
  // Sanity: the run did real work and the windows are populated.
  EXPECT_GT(one.totals[static_cast<std::size_t>(Counter::kRounds)], 0u);
  EXPECT_GT(one.totals[static_cast<std::size_t>(Counter::kSolverIterations)], 0u);
  EXPECT_EQ(one.totals[static_cast<std::size_t>(Counter::kAdmits)], workload.size());
  EXPECT_EQ(one.totals[static_cast<std::size_t>(Counter::kEvicts)], workload.size());
  EXPECT_GT(one.snapshots.size(), 1u);
}

TelemetryReport serve_report(const std::vector<sim::GroupScenario>& workload,
                             std::size_t workers, fleet::ServerOptions opts,
                             bool timing = true) {
  opts.workers = workers;
  TelemetryOptions topts;
  topts.enabled = true;
  topts.timing = timing;
  topts.window = 4.0;
  Collector collector(topts);
  fleet::Server server(opts, workload);
  fleet::RingBufferTransport transport(64);
  std::thread feeder(
      [&] { feed_workload(transport, workload, opts.master_seed, {}); });
  try {
    server.serve(transport, nullptr, &collector);
  } catch (...) {
    transport.close();
    feeder.join();
    throw;
  }
  feeder.join();
  return collector.report();
}

TEST(CounterPlane, ServeSnapshotsBitIdenticalAcrossWorkerCounts) {
  const std::vector<sim::GroupScenario> workload =
      sim::make_workload(small_params(10));
  fleet::ServerOptions opts;
  opts.master_seed = 0x7E1Eu;
  // Shaping on, with one partition squeezed well below the ~10 rounds/s the
  // workload offers so defers and sheds actually happen: the ingest verdict
  // counters must be exercised and still be worker-count invariant.
  opts.shaping.policy = fleet::AdmissionPolicy::kDefer;
  opts.shaping.ingest_shards = 1;
  opts.shaping.queue_depth = 4;
  opts.shaping.drain_rounds_per_s = 2.0;
  opts.shaping.rate_rounds_per_s = 2.0;
  opts.shaping.burst_rounds = 1.0;
  opts.shaping.max_defers = 2;

  const TelemetryReport one = serve_report(workload, 1, opts);
  const TelemetryReport four = serve_report(workload, 4, opts);
  EXPECT_TRUE(one.counters_equal(four));
  const std::uint64_t admitted =
      one.totals[static_cast<std::size_t>(Counter::kIngestAdmitted)];
  const std::uint64_t shed =
      one.totals[static_cast<std::size_t>(Counter::kIngestShed)];
  EXPECT_GT(admitted, 0u);
  // Every executed round was an admitted measurement frame.
  EXPECT_EQ(one.totals[static_cast<std::size_t>(Counter::kRounds)], admitted);
  EXPECT_GT(shed + one.totals[static_cast<std::size_t>(Counter::kIngestDeferred)], 0u);
  // Timing plane: one queue-residency span per executed round (shed and
  // coasted frames have none), like each pipeline stage, and one ingest span
  // per received frame.
  const std::uint64_t rounds = four.totals[static_cast<std::size_t>(Counter::kRounds)];
  for (const TraceOp op : {TraceOp::kQueue, TraceOp::kPredict, TraceOp::kLocalize,
                           TraceOp::kTrack, TraceOp::kRound})
    EXPECT_EQ(four.spans[static_cast<std::size_t>(op)].count(), rounds) << to_string(op);
  EXPECT_GT(four.spans[static_cast<std::size_t>(TraceOp::kIngest)].count(), rounds);
}

TEST(CounterPlane, UnshapedServeMatchesFleetSharedCounters) {
  const std::vector<sim::GroupScenario> workload =
      sim::make_workload(small_params(10));
  fleet::ServerOptions opts;
  opts.master_seed = 0x7E1Eu;  // must match fleet_report's seed
  const TelemetryReport served = serve_report(workload, 3, opts);
  const TelemetryReport fleet = fleet_report(workload, 2);
  // The serve path executes the same session timeline, so every counter the
  // two drivers share must agree; only the ingest verdicts are serve-only.
  for (const Counter c :
       {Counter::kRounds, Counter::kLocalized, Counter::kCoasts, Counter::kEvicts,
        Counter::kAdmits, Counter::kSolverIterations, Counter::kArenaLeases}) {
    const std::size_t i = static_cast<std::size_t>(c);
    EXPECT_EQ(served.totals[i], fleet.totals[i]) << to_string(c);
  }
}

TEST(CounterPlane, DisabledTimingKeepsCountersAndSkipsSpans) {
  const std::vector<sim::GroupScenario> workload =
      sim::make_workload(small_params(6));
  fleet::FleetOptions fo;
  fo.master_seed = 0x7E1Eu;
  fo.shards = 2;
  TelemetryOptions topts;
  topts.enabled = true;
  topts.timing = false;
  topts.window = 4.0;
  Collector collector(topts);
  fleet::FleetService(fo, workload).run(nullptr, &collector);
  TelemetryReport rep = collector.report();

  EXPECT_GT(rep.totals[static_cast<std::size_t>(Counter::kRounds)], 0u);
  for (std::size_t s = 0; s < kStageCount; ++s)
    EXPECT_EQ(rep.spans[s].count(), 0u) << to_string(static_cast<TraceOp>(s));
  for (std::size_t s = 0; s < kSampleCount; ++s)
    EXPECT_EQ(rep.samples[s].count(), 0u) << to_string(static_cast<Sample>(s));
  EXPECT_TRUE(rep.counters_equal(fleet_report(workload, 3)));
  // The server's ingest loop (queue depth) and workers' arenas sample too.
  fleet::ServerOptions so;
  so.master_seed = fo.master_seed;
  const TelemetryReport served = serve_report(workload, 2, so, false);
  EXPECT_GT(served.totals[static_cast<std::size_t>(Counter::kRounds)], 0u);
  for (std::size_t s = 0; s < kSampleCount; ++s)
    EXPECT_EQ(served.samples[s].count(), 0u) << to_string(static_cast<Sample>(s));
}

// --- timing plane -----------------------------------------------------------

// One stream, several thousand rounds of small static groups: the stream
// emits roughly 70,000 events, well past any fixed-size event buffer. The
// span and sample histograms must still cover every round and lease, and
// the flight recorder must still see the run's last window.
TEST(TimingPlane, HistogramsCoverEveryRoundOfALongRun) {
  sim::WorkloadParams p;
  p.sessions = 600;
  p.seed = 0xBADCAFEu;
  p.min_group_size = 4;
  p.max_group_size = 4;
  p.min_rounds = 10;
  p.max_rounds = 10;
  p.admit_spread_ticks = 64;
  p.include_des = false;
  p.force_kind = static_cast<int>(sim::GroupScenarioKind::kStatic);
  const std::vector<sim::GroupScenario> workload = sim::make_workload(p);
  fleet::FleetOptions fo;
  fo.master_seed = 0x7E1Eu;
  fo.shards = 1;
  TelemetryOptions topts;
  topts.enabled = true;
  topts.window = 4.0;

  // The counter plane is deterministic, so a first run tells how many
  // evictions land in the last window; the second run's evict_storm
  // threshold is exactly that, so the trigger fires only if the recorder
  // saw every one of them.
  const TelemetryReport counters = fleet_report(workload, 1);
  ASSERT_FALSE(counters.snapshots.empty());
  const std::uint64_t last_window = counters.snapshots.size() - 1;
  topts.flight.evict_storm = counters.snapshots.back()
                                 .counts[static_cast<std::size_t>(Counter::kEvicts)];
  ASSERT_GT(topts.flight.evict_storm, 0u);
  topts.flight.max_dumps = counters.snapshots.size();
  Collector collector(topts);
  fleet::FleetService(fo, workload).run(nullptr, &collector);
  const TelemetryReport rep = collector.report();

  const std::uint64_t rounds = rep.totals[static_cast<std::size_t>(Counter::kRounds)];
  ASSERT_GT(rounds, 5000u);
  // One span per stage per round: the tracker's predict and update are
  // separate stages, and the round span is the round's own.
  for (const TraceOp op : {TraceOp::kPredict, TraceOp::kQuantize, TraceOp::kRanging,
                           TraceOp::kLocalize, TraceOp::kTrack, TraceOp::kRound})
    EXPECT_EQ(rep.spans[static_cast<std::size_t>(op)].count(), rounds) << to_string(op);
  // Fleet mode has no ingest loop or dispatch queue.
  EXPECT_EQ(rep.spans[static_cast<std::size_t>(TraceOp::kIngest)].count(), 0u);
  EXPECT_EQ(rep.spans[static_cast<std::size_t>(TraceOp::kQueue)].count(), 0u);
  EXPECT_EQ(rep.samples[static_cast<std::size_t>(Sample::kArenaFreeHit)].count() +
                rep.samples[static_cast<std::size_t>(Sample::kArenaFreeMiss)].count(),
            rep.totals[static_cast<std::size_t>(Counter::kArenaLeases)]);
  bool last_window_storm = false;
  for (const FlightDump& d : rep.flight)
    if (d.trigger == FlightTrigger::kEvictStorm && d.window == last_window)
      last_window_storm = true;
  EXPECT_TRUE(last_window_storm);
}

// --- trace plane ------------------------------------------------------------

TEST(TracePlane, IdPackingRoundTrips) {
  const std::uint64_t id = make_trace_id(17, 0);
  EXPECT_NE(id, 0u);  // round 0 is biased away from the "not tracing" id
  EXPECT_EQ(trace_session(id), 17u);
  EXPECT_EQ(trace_round(id), 0u);
  EXPECT_EQ(trace_session(make_trace_id(0, 41)), 0u);
  EXPECT_EQ(trace_round(make_trace_id(0, 41)), 41u);
  EXPECT_NE(make_trace_id(0, 0), 0u);
}

fleet::FleetOptions trace_fleet_options(std::size_t shards) {
  fleet::FleetOptions fo;
  fo.master_seed = 0x7E1Eu;
  fo.shards = shards;
  return fo;
}

TelemetryReport fleet_trace_report(const std::vector<sim::GroupScenario>& workload,
                                   std::size_t shards) {
  const fleet::FleetOptions fo = trace_fleet_options(shards);
  TelemetryOptions topts;
  topts.enabled = true;
  topts.trace = true;
  topts.window = 4.0;
  Collector collector(topts);
  fleet::FleetService(fo, workload).run(nullptr, &collector);
  return collector.report();
}

TEST(TracePlane, FleetStructureDigestInvariantAcrossShardCounts) {
  const std::vector<sim::GroupScenario> workload =
      sim::make_workload(small_params(10));
  const TelemetryReport one = fleet_trace_report(workload, 1);
  const TelemetryReport four = fleet_trace_report(workload, 4);
  ASSERT_FALSE(one.trace.empty());
  EXPECT_EQ(one.trace.size(), four.trace.size());
  EXPECT_EQ(trace_structure_digest(one.trace), trace_structure_digest(four.trace));

  // Every executed round has a root span and every pipeline stage under it.
  std::set<std::pair<std::uint64_t, TraceOp>> spans;
  for (const TraceSpan& s : one.trace) {
    EXPECT_NE(s.trace_id, 0u);
    EXPECT_TRUE(spans.insert({s.trace_id, s.op}).second) << "duplicate span";
  }
  for (const TraceSpan& s : one.trace) {
    EXPECT_NE(s.op, TraceOp::kIngest);
    EXPECT_NE(s.op, TraceOp::kQueue);
    for (const TraceOp op : {TraceOp::kRound, TraceOp::kPredict, TraceOp::kQuantize,
                             TraceOp::kRanging, TraceOp::kLocalize, TraceOp::kTrack})
      EXPECT_TRUE(spans.count({s.trace_id, op})) << to_string(op);
  }

  // Trace ids cover exactly the executed rounds: one id per (session, round
  // index) for every round the (untraced) run reports, and nothing else.
  const fleet::FleetResult result =
      fleet::FleetService(trace_fleet_options(2), workload).run();
  std::set<std::uint64_t> expected_ids, traced_ids;
  for (const fleet::SessionMetrics& m : result.sessions)
    for (std::size_t r = 0; r < m.rounds; ++r)
      expected_ids.insert(make_trace_id(m.session_id, r));
  for (const TraceSpan& s : one.trace) traced_ids.insert(s.trace_id);
  EXPECT_EQ(traced_ids, expected_ids);
}

TelemetryReport serve_trace_report(const std::vector<sim::GroupScenario>& workload,
                                   std::size_t workers) {
  fleet::ServerOptions opts;
  opts.master_seed = 0x7E1Eu;
  opts.workers = workers;
  TelemetryOptions topts;
  topts.enabled = true;
  topts.trace = true;
  topts.window = 4.0;
  Collector collector(topts);
  fleet::Server server(opts, workload);
  fleet::RingBufferTransport transport(64);
  std::thread feeder(
      [&] { feed_workload(transport, workload, opts.master_seed, {}); });
  try {
    server.serve(transport, nullptr, &collector);
  } catch (...) {
    transport.close();
    feeder.join();
    throw;
  }
  feeder.join();
  return collector.report();
}

TEST(TracePlane, ServeChainsIngestQueueRoundAndDigestIsWorkerInvariant) {
  const std::vector<sim::GroupScenario> workload =
      sim::make_workload(small_params(8));
  const TelemetryReport one = serve_trace_report(workload, 1);
  const TelemetryReport four = serve_trace_report(workload, 4);
  ASSERT_FALSE(one.trace.empty());
  EXPECT_EQ(trace_structure_digest(one.trace), trace_structure_digest(four.trace));

  // Every admitted round's trace must chain ingest -> queue and root a
  // round with its stages, whatever the worker count: each span's parent
  // op is present under the same trace id.
  EXPECT_EQ(parent_of(TraceOp::kQueue), TraceOp::kIngest);
  EXPECT_EQ(parent_of(TraceOp::kPredict), TraceOp::kRound);
  std::set<std::pair<std::uint64_t, TraceOp>> spans;
  std::set<std::uint64_t> queue, round;
  for (const TraceSpan& s : four.trace) {
    spans.insert({s.trace_id, s.op});
    if (s.op == TraceOp::kQueue) queue.insert(s.trace_id);
    if (s.op == TraceOp::kRound) round.insert(s.trace_id);
  }
  ASSERT_FALSE(queue.empty());
  EXPECT_EQ(queue, round);
  for (const TraceSpan& s : four.trace) {
    if (parent_of(s.op) == TraceOp::kNone) continue;
    EXPECT_TRUE(spans.count({s.trace_id, parent_of(s.op)}))
        << to_string(s.op) << " " << s.trace_id;
  }
}

TEST(TracePlane, SpanCapCountsOverflowInsteadOfGrowing) {
  const std::vector<sim::GroupScenario> workload =
      sim::make_workload(small_params(8));
  fleet::FleetOptions fo;
  fo.master_seed = 0x7E1Eu;
  fo.shards = 2;
  TelemetryOptions topts;
  topts.enabled = true;
  topts.trace = true;
  topts.trace_max_spans = 4;
  Collector collector(topts);
  fleet::FleetService(fo, workload).run(nullptr, &collector);
  const TelemetryReport rep = collector.report();
  EXPECT_LE(rep.trace.size(), 4u * rep.streams);
  EXPECT_GT(rep.trace_dropped, 0u);
}

TEST(TracePlane, ChromeTraceExportParsesAsJson) {
  const std::vector<sim::GroupScenario> workload =
      sim::make_workload(small_params(6));
  const TelemetryReport rep = fleet_trace_report(workload, 2);
  std::ostringstream out;
  write_chrome_trace(out, rep.trace);
  const config::Json doc = config::parse_json(out.str());
  ASSERT_TRUE(doc.is_object());
  const config::Json* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  EXPECT_GE(events->items().size(), rep.trace.size());
  for (const config::Json& e : events->items()) {
    ASSERT_TRUE(e.is_object());
    ASSERT_NE(e.find("ph"), nullptr);
    const std::string& ph = e.find("ph")->as_string();
    EXPECT_TRUE(ph == "X" || ph == "s" || ph == "t");
    if (ph == "X") {
      EXPECT_NE(e.find("dur"), nullptr);
    }
  }
}

// --- flight recorder --------------------------------------------------------

TEST(FlightRecorder, EvictStormTriggerDumpsRecentEvents) {
  const std::vector<sim::GroupScenario> workload =
      sim::make_workload(small_params(12));
  fleet::FleetOptions fo;
  fo.master_seed = 0x7E1Eu;
  fo.shards = 2;
  TelemetryOptions topts;
  topts.enabled = true;
  topts.window = 4.0;
  topts.flight.capacity = 32;
  topts.flight.max_dumps = 2;
  topts.flight.evict_storm = 1;  // every eviction is a "storm"
  Collector collector(topts);
  fleet::FleetService(fo, workload).run(nullptr, &collector);
  const TelemetryReport rep = collector.report();

  ASSERT_FALSE(rep.flight.empty());
  EXPECT_LE(rep.flight.size(), 2u * rep.streams);  // budget per stream
  bool saw_evict_storm = false;
  for (const FlightDump& d : rep.flight) {
    EXPECT_LT(d.stream, rep.streams);
    EXPECT_FALSE(d.events.empty());
    EXPECT_LE(d.events.size(), 32u);
    if (d.trigger == FlightTrigger::kEvictStorm) saw_evict_storm = true;
  }
  EXPECT_TRUE(saw_evict_storm);
}

// A fleet thread restarts its stream's virtual time at each session's admit
// tick, so consecutive counter events may alternate between windows. Each
// window still accumulates its own trigger count and dumps once, on the
// event that reaches the threshold.
TEST(FlightRecorder, EvictStormFiresAtThresholdWhenWindowsAlternate) {
  TelemetryOptions topts;
  topts.enabled = true;
  topts.window = 4.0;
  topts.flight.evict_storm = 3;
  Collector collector(topts);
  collector.open(1);
  ShardStream& s = collector.stream(0);
  for (int i = 0; i < 5; ++i) {
    s.set_time(1.0);  // window 0
    s.count(Counter::kEvicts);
    s.set_time(5.0);  // window 1
    s.count(Counter::kEvicts);
  }
  const TelemetryReport rep = collector.report();

  ASSERT_EQ(rep.flight.size(), 2u);
  for (std::size_t w = 0; w < 2; ++w) {
    const FlightDump& d = rep.flight[w];
    EXPECT_EQ(d.trigger, FlightTrigger::kEvictStorm);
    EXPECT_EQ(d.window, w);
    // The third eviction of window w is event 5 (w = 0) or 6 (w = 1).
    EXPECT_EQ(d.events.size(), 5u + w);
  }
}

TEST(FlightRecorder, DisabledCapacityRecordsNothing) {
  const std::vector<sim::GroupScenario> workload =
      sim::make_workload(small_params(8));
  fleet::FleetOptions fo;
  fo.master_seed = 0x7E1Eu;
  fo.shards = 2;
  TelemetryOptions topts;
  topts.enabled = true;
  topts.flight.capacity = 0;
  topts.flight.evict_storm = 1;
  Collector collector(topts);
  fleet::FleetService(fo, workload).run(nullptr, &collector);
  EXPECT_TRUE(collector.report().flight.empty());
}

// --- SLO scoreboard ---------------------------------------------------------

TEST(Slo, CdfReducesKnownVector) {
  const SloCdf c = make_slo_cdf({10.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0});
  EXPECT_EQ(c.count, 10u);
  EXPECT_DOUBLE_EQ(c.mean, 5.5);
  EXPECT_DOUBLE_EQ(c.min, 1.0);
  EXPECT_DOUBLE_EQ(c.max, 10.0);
  EXPECT_DOUBLE_EQ(c.p50, 5.5);  // linear interpolation between order stats
  EXPECT_DOUBLE_EQ(c.p90, 9.1);
  EXPECT_DOUBLE_EQ(c.p999, 9.991);

  const SloCdf empty = make_slo_cdf({});
  EXPECT_EQ(empty.count, 0u);
  EXPECT_EQ(empty.p99, 0.0);
}

SloReport fleet_slo(const std::vector<sim::GroupScenario>& workload,
                    std::size_t shards) {
  fleet::FleetOptions fo;
  fo.master_seed = 0x7E1Eu;
  fo.shards = shards;
  TelemetryOptions topts;
  topts.enabled = true;
  topts.window = 4.0;
  Collector collector(topts);
  const fleet::FleetResult res =
      fleet::FleetService(fo, workload).run(nullptr, &collector);
  const TelemetryReport rep = collector.report();
  return build_slo_report(fleet::make_slo_inputs(res, &rep));
}

TEST(Slo, ScoreboardBitIdenticalAcrossShardCounts) {
  const std::vector<sim::GroupScenario> workload =
      sim::make_workload(small_params(12));
  const SloReport one = fleet_slo(workload, 1);
  const SloReport four = fleet_slo(workload, 4);

  EXPECT_EQ(one.sessions, workload.size());
  EXPECT_GT(one.rounds, 0u);
  EXPECT_GT(one.localized_rate, 0.0);
  EXPECT_GT(one.error.count, 0u);

  // The deterministic scoreboard must match bit-for-bit (EXPECT_EQ on
  // doubles is exact equality — that is the contract).
  EXPECT_EQ(one.rounds, four.rounds);
  EXPECT_EQ(one.localized, four.localized);
  EXPECT_EQ(one.coasts, four.coasts);
  EXPECT_EQ(one.evicts, four.evicts);
  EXPECT_EQ(one.warm_hits, four.warm_hits);
  EXPECT_EQ(one.warm_misses, four.warm_misses);
  EXPECT_EQ(one.localized_rate, four.localized_rate);
  EXPECT_EQ(one.warm_start_hit_rate, four.warm_start_hit_rate);
  EXPECT_EQ(one.error.mean, four.error.mean);
  EXPECT_EQ(one.error.p50, four.error.p50);
  EXPECT_EQ(one.error.p99, four.error.p99);
  EXPECT_EQ(one.error.p999, four.error.p999);

  // All workload kinds are reported, in enum order, with pooled counts that
  // add back up to the fleet totals.
  ASSERT_EQ(one.kinds.size(), four.kinds.size());
  std::uint64_t kind_rounds = 0;
  for (std::size_t i = 0; i < one.kinds.size(); ++i) {
    EXPECT_EQ(one.kinds[i].kind, four.kinds[i].kind);
    EXPECT_EQ(one.kinds[i].rounds, four.kinds[i].rounds);
    EXPECT_EQ(one.kinds[i].error.p99, four.kinds[i].error.p99);
    kind_rounds += one.kinds[i].rounds;
  }
  EXPECT_EQ(kind_rounds, one.rounds);
}

}  // namespace
}  // namespace uwp::telemetry

#include "runners.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <thread>

#include "control/engine.hpp"
#include "fleet/transport.hpp"
#include "fleet/wire.hpp"
#include "telemetry/collector.hpp"

namespace perfbench {

namespace fleet = uwp::fleet;
namespace pipeline = uwp::pipeline;
namespace sim = uwp::sim;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Adds the wall time of its scope to `acc` (and to `also`, when given);
// reads no clock when off.
class Span {
 public:
  Span(bool on, double& acc, double* also = nullptr)
      : on_(on), acc_(acc), also_(also) {
    if (on_) t0_ = Clock::now();
  }
  ~Span() {
    if (!on_) return;
    const double s = seconds_since(t0_);
    acc_ += s;
    if (also_ != nullptr) *also_ += s;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool on_;
  double& acc_;
  double* also_;
  Clock::time_point t0_;
};

// Bench-side copy of the overload settings of bench_fleet's
// overload_control_on: per-partition bucket at half the arrival share.
constexpr double kTelemetryWindowS = 4.0;

uwp::control::ControlConfig control_config() {
  uwp::control::ControlConfig cfg;
  cfg.enabled = true;
  cfg.window_ticks = 4;
  // The solver tuner may fan the outlier search out; cap it so the served
  // workload stays within its thread budget (feeder, ingest, one worker,
  // one extra search lane).
  cfg.max_search_threads = 2;
  return cfg;
}

uwp::control::ShardControls control_baseline(const fleet::ServerOptions& so) {
  uwp::control::ShardControls baseline;
  baseline.shaper_rate = so.shaping.rate_rounds_per_s;
  baseline.shaper_burst = so.shaping.burst_rounds;
  baseline.shaper_max_defers = so.shaping.max_defers;
  return baseline;
}

// One logged decision applied to the knob bundle it changed, the inverse
// of ControlEngine's diff.
void apply(const uwp::control::ControlAction& a, uwp::control::ShardControls& c) {
  using uwp::control::ActionKind;
  switch (a.kind) {
    case ActionKind::kArenaCachePolicy:
      c.cache_policy = static_cast<uwp::control::CachePolicy>(static_cast<std::uint8_t>(a.value));
      break;
    case ActionKind::kArenaRetain: c.arena_retain = static_cast<std::size_t>(a.value); break;
    case ActionKind::kShaperRate: c.shaper_rate = a.value; break;
    case ActionKind::kShaperBurst: c.shaper_burst = a.value; break;
    case ActionKind::kShaperMaxDefers: c.shaper_max_defers = static_cast<std::size_t>(a.value); break;
    case ActionKind::kSearchThreads: c.search_threads = static_cast<std::size_t>(a.value); break;
    case ActionKind::kCount_: break;
  }
}

// Transport wrapper that times how long the feeder blocks in send (ring
// full) and the ingest loop blocks in recv (ring empty).
class TimedTransport final : public fleet::Transport {
 public:
  TimedTransport(fleet::Transport& inner, TransportWaits& waits)
      : inner_(inner), waits_(waits) {}
  bool send(std::vector<std::uint8_t> frame) override {
    const auto t0 = Clock::now();
    const bool ok = inner_.send(std::move(frame));
    waits_.send_s += seconds_since(t0);
    return ok;
  }
  bool recv(std::vector<std::uint8_t>& frame) override {
    const auto t0 = Clock::now();
    const bool ok = inner_.recv(frame);
    waits_.recv_s += seconds_since(t0);
    return ok;
  }
  void close() override { inner_.close(); }

 private:
  fleet::Transport& inner_;
  TransportWaits& waits_;  // send_s: feeder thread only; recv_s: ingest only
};

// Keeps every frame fleet::feed_workload sends: the client's half of a
// served run, done once in set-up.
class CaptureTransport final : public fleet::Transport {
 public:
  explicit CaptureTransport(std::vector<std::vector<std::uint8_t>>& frames)
      : frames_(frames) {}
  bool send(std::vector<std::uint8_t> frame) override {
    frames_.push_back(std::move(frame));
    return true;
  }
  bool recv(std::vector<std::uint8_t>&) override { return false; }
  void close() override {}

 private:
  std::vector<std::vector<std::uint8_t>>& frames_;
};

std::size_t devices_of(const sim::GroupScenario& sc) {
  return sc.scene.protocol.num_devices;
}

}  // namespace

bool parse_workload(const std::string& name, Workload& out) {
  for (const Workload w :
       {Workload::kFleetMixed, Workload::kServeSmall, Workload::kServeOverload})
    if (name == to_string(w)) {
      out = w;
      return true;
    }
  return false;
}

const char* to_string(Workload w) {
  switch (w) {
    case Workload::kFleetMixed: return "fleet_mixed";
    case Workload::kServeSmall: return "serve_small";
    case Workload::kServeOverload: return "serve_overload";
  }
  return "?";
}

Spec make_spec(Workload w, std::uint64_t schedule_seed, std::uint64_t workload_seed) {
  Spec s;
  s.workload = w;
  s.schedule_seed = schedule_seed;
  s.params.seed = workload_seed;
  s.params.admit_spread_ticks = 16;
  switch (w) {
    case Workload::kFleetMixed:
      s.params.sessions = 2048;
      s.shards = 2;
      s.workers = 0;
      break;
    case Workload::kServeSmall:
      s.params.sessions = 4096;
      s.params.force_kind = static_cast<int>(sim::GroupScenarioKind::kStatic);
      s.params.min_group_size = 4;
      s.params.max_group_size = 5;
      s.served = true;
      s.shards = 0;
      break;
    case Workload::kServeOverload:
      // Sized so every repeat admits more than 10,000 distinct rounds, so
      // p999 has at least 10 of them beyond it.
      s.params.sessions = 5120;
      s.served = true;
      s.overload = true;
      s.shuffle_arrivals = false;
      s.shards = 0;
      break;
  }
  return s;
}

fleet::ServerOptions server_options(const Spec& spec, std::size_t sessions) {
  fleet::ServerOptions so;
  so.master_seed = spec.master_seed;
  so.workers = spec.workers;
  so.measure_latency = true;
  if (spec.overload) {
    so.shaping.policy = fleet::AdmissionPolicy::kDefer;
    const double share =
        static_cast<double>(sessions) / (4.0 * so.shaping.ingest_shards);
    so.shaping.rate_rounds_per_s = share * 0.5;
    so.shaping.burst_rounds = share;
    so.shaping.max_defers = 2;
    // The modeled partition queue (depth, drain rate) scaled from the
    // 1024-session setting by the same factor as the arrival share, so the
    // queue model caps admission the way it does at 1024 sessions.
    const double scale = static_cast<double>(sessions) / 1024.0;
    so.shaping.queue_depth =
        static_cast<std::size_t>(std::lround(static_cast<double>(so.shaping.queue_depth) * scale));
    so.shaping.drain_rounds_per_s *= scale;
  }
  return so;
}

Prepared prepare(const Spec& spec) {
  Prepared p;
  p.workload = sim::make_workload(spec.params);
  // Fisher-Yates over the admission ticks, drawn from uwp::Rng so the
  // schedule is the same on every platform.
  uwp::Rng rng(spec.schedule_seed);
  for (std::size_t i = spec.shuffle_arrivals ? p.workload.size() : 0; i > 1; --i) {
    const auto j = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(i - 1)));
    std::swap(p.workload[i - 1].admit_tick, p.workload[j].admit_tick);
  }
  if (!spec.served) {
    for (const sim::GroupScenario& sc : p.workload) p.frame_count += sc.lifetime_rounds + 1;
    fleet::FleetOptions fo;
    fo.master_seed = spec.master_seed;
    fo.shards = spec.shards;
    fo.measure_latency = true;
    p.service = std::make_unique<fleet::FleetService>(fo, p.workload);
    return p;
  }
  p.server = std::make_unique<fleet::Server>(
      server_options(spec, p.workload.size()), p.workload);
  CaptureTransport capture(p.frames);
  p.frame_count = fleet::feed_workload(capture, p.workload, spec.master_seed);
  return p;
}

Outcome run_untraced(const Spec& spec, const Prepared& prep, TransportWaits* waits) {
  Outcome out;
  if (!spec.served) {
    const auto t0 = Clock::now();
    out.fleet = prep.service->run();
    out.wall_s = seconds_since(t0);
    return out;
  }

  const fleet::ServerOptions& so = prep.server->options();
  uwp::telemetry::TelemetryOptions topts;
  topts.enabled = spec.overload;
  topts.timing = false;
  topts.window = kTelemetryWindowS;
  uwp::telemetry::Collector collector(topts);
  uwp::control::ControlEngine engine(control_config(), control_baseline(so));

  fleet::RingBufferTransport ring(256);
  std::unique_ptr<TimedTransport> timed;
  if (waits != nullptr) timed = std::make_unique<TimedTransport>(ring, *waits);
  fleet::Transport& transport = timed != nullptr ? static_cast<fleet::Transport&>(*timed)
                                                 : static_cast<fleet::Transport&>(ring);

  const auto t0 = Clock::now();
  std::thread feeder([&] {
    for (const std::vector<std::uint8_t>& f : prep.frames)
      if (!transport.send(f)) return;
    transport.close();
  });
  fleet::ServerResult res;
  try {
    res = prep.server->serve(transport, nullptr, spec.overload ? &collector : nullptr,
                             spec.overload ? &engine : nullptr);
  } catch (...) {
    transport.close();
    feeder.join();
    throw;
  }
  feeder.join();
  out.wall_s = seconds_since(t0);
  out.fleet = std::move(res.fleet);
  out.stats = res.stats;
  out.schedule_digest = res.schedule_digest;
  if (spec.overload) out.control = engine.log();
  return out;
}

std::uint64_t reference_fleet_digest(const Spec& spec, const Prepared& prep) {
  fleet::FleetOptions fo;
  fo.master_seed = spec.master_seed;
  fo.shards = 1;
  fo.batch_rounds = false;
  return fleet::FleetService(fo, prep.workload).run().fleet_digest;
}

std::size_t nonfinite_rounds(const fleet::FleetResult& r,
                             const std::vector<sim::GroupScenario>& workload) {
  std::size_t bad = 0;
  for (const fleet::SessionMetrics& s : r.sessions) {
    const std::size_t per_round = devices_of(workload[s.session_id]) - 1;
    std::size_t finite = 0;
    for (const double e : s.errors) finite += std::isfinite(e) ? 1 : 0;
    // Each broken round loses at least one of its per_round finite errors.
    const std::size_t lost = std::max(s.localized * per_round, s.errors.size()) - finite;
    bad += (lost + per_round - 1) / per_round;
  }
  return bad;
}

// --- outside-in runners -------------------------------------------------------

namespace {

// Per-layer accumulators of one traced run.
struct Ledger {
  bool spans = true;
  double quantize_s = 0.0, ranging_s = 0.0, localize_s = 0.0, search_s = 0.0;
  double track_s = 0.0, coast_s = 0.0, round_s = 0.0;
  double des_frontend_s = 0.0, frontend_s = 0.0;
  double decode_s = 0.0, shaper_s = 0.0;
  double wire_bytes = 0.0, wire_frames = 0.0;
  double smacof_iterations = 0.0, searched = 0.0, accepted = 0.0;
  std::size_t rounds = 0, nonfinite = 0;
  std::vector<double> session_cost;  // by session id
};

bool finite_output(const pipeline::RoundOutput& out) {
  if (!out.localized) return true;
  for (const uwp::Vec3& p : out.localization.positions)
    if (!std::isfinite(p.x) || !std::isfinite(p.y) || !std::isfinite(p.z)) return false;
  for (std::size_t i = 1; i < out.error_2d.size(); ++i)
    if (!std::isfinite(out.error_2d[i])) return false;
  return true;
}

// One round through the stage calls run_round composes, each timed.
const pipeline::RoundOutput& timed_round(pipeline::RoundPipeline& pipe,
                                         pipeline::RoundMeasurement& m, uwp::Rng& rng,
                                         double dt_s, Ledger& L, double& cost) {
  double round = 0.0, localize = 0.0;
  {
    Span s(L.spans, L.track_s, &round);
    pipe.begin_round(dt_s);
  }
  {
    Span s(L.spans, L.quantize_s, &round);
    pipe.stage_quantize(m);
  }
  {
    Span s(L.spans, L.ranging_s, &round);
    pipe.stage_ranging(m);
  }
  {
    Span s(L.spans, localize, &round);
    const uwp::proto::RangingSolution& rg = pipe.output().ranging;
    pipe.stage_localize(m, rng, rg.distances.data(), rg.weights.data());
  }
  {
    Span s(L.spans, L.track_s, &round);
    pipe.stage_track(m);
  }
  const pipeline::RoundOutput& out = pipe.finish_round();
  L.localize_s += localize;
  L.round_s += round;
  cost += round;
  ++L.rounds;
  // A failed round's localization buffer may hold a previous round's
  // values, so only a localized round's search flags are read.
  if (out.localized) {
    L.smacof_iterations += static_cast<double>(out.localization.solver_iterations);
    if (out.localization.outliers_suspected) {
      L.search_s += localize;
      L.searched += 1.0;
      if (!out.localization.dropped_links.empty()) L.accepted += 1.0;
    }
  }
  if (!finite_output(out)) ++L.nonfinite;
  return out;
}

void timed_coast(pipeline::RoundPipeline& pipe, double dt_s, Ledger& L, double& cost) {
  Span s(L.spans, L.coast_s, &cost);
  pipe.coast(dt_s);
}

double share(double part, double whole) { return whole > 0.0 ? part / whole : 0.0; }

// Skew ledger and layer map common to both traced runners. `executors` is how many
// shards/workers the deployed run spreads sessions over (by id).
void fill_layers(const Ledger& L, const std::vector<sim::GroupScenario>& workload,
                 std::size_t executors, TracedOutcome& out) {
  auto& m = out.layers;
  m["core.localize.busy_s"] = L.localize_s;
  m["core.localize.search_busy_s"] = L.search_s;
  m["core.localize.clean_busy_s"] = L.localize_s - L.search_s;
  m["core.localize.smacof_iterations"] = L.smacof_iterations;
  m["core.localize.searched_rounds"] = L.searched;
  m["core.localize.accept_ratio"] = share(L.accepted, L.searched);
  m["core.localize.round_share"] = share(L.localize_s, L.round_s);
  m["proto.quantize.busy_s"] = L.quantize_s;
  m["proto.ranging.busy_s"] = L.ranging_s;
  m["core.track.busy_s"] = L.track_s;
  m["pipeline.coast.busy_s"] = L.coast_s;
  m["pipeline.round.busy_s"] = L.round_s;
  m["des.frontend.busy_s"] = L.des_frontend_s;
  m["pipeline.frontend.busy_s"] = L.frontend_s;
  m["fleet.wire.decode_busy_s"] = L.decode_s;
  m["fleet.wire.bytes_per_frame"] = share(L.wire_bytes, L.wire_frames);
  m["fleet.shaper.busy_s"] = L.shaper_s;

  // The serving mix's kinds and group sizes (make_workload draws 4..8).
  constexpr sim::GroupScenarioKind kKinds[] = {
      sim::GroupScenarioKind::kStatic, sim::GroupScenarioKind::kLawnmower,
      sim::GroupScenarioKind::kWaypoint, sim::GroupScenarioKind::kDropoutChurn,
      sim::GroupScenarioKind::kPacketDes};
  constexpr std::size_t kMinSize = 4, kMaxSize = 8;
  double total = 0.0, top = 0.0;
  std::vector<double> by_kind(std::size(kKinds), 0.0), by_size(kMaxSize + 1, 0.0);
  std::vector<double> per_executor(std::max<std::size_t>(1, executors), 0.0);
  for (std::size_t id = 0; id < workload.size(); ++id) {
    const double c = L.session_cost[id];
    total += c;
    top = std::max(top, c);
    by_kind[static_cast<std::size_t>(workload[id].kind)] += c;
    by_size[std::min(devices_of(workload[id]), kMaxSize)] += c;
    per_executor[id % per_executor.size()] += c;
  }
  for (std::size_t k = 0; k < std::size(kKinds); ++k)
    m[std::string("fleet.service.cost_share.") + sim::to_string(kKinds[k])] =
        share(by_kind[k], total);
  for (std::size_t n = kMinSize; n <= kMaxSize; ++n)
    m["fleet.service.cost_share.n" + std::to_string(n)] = share(by_size[n], total);
  m["fleet.service.max_session_share"] = share(top, total);
  const double mean = total / static_cast<double>(per_executor.size());
  m["fleet.service.shard_imbalance"] =
      share(*std::max_element(per_executor.begin(), per_executor.end()), mean);
}

TracedOutcome traced_fleet(const Spec& spec, const Prepared& prep, bool spans) {
  const std::vector<sim::GroupScenario>& wl = prep.workload;
  Ledger L;
  L.spans = spans;
  L.session_cost.assign(wl.size(), 0.0);
  std::vector<fleet::SessionMetrics> metrics(wl.size());
  std::size_t total_ticks = 0;
  for (const sim::GroupScenario& sc : wl)
    total_ticks = std::max(total_ticks, sc.admit_tick + sc.lifetime_rounds);

  struct Live {
    const sim::GroupScenario* sc;
    fleet::MeasurementFeed feed;
    uwp::Rng rng;
    std::unique_ptr<fleet::SessionRuntime> rt;
    bool done = false;
  };
  std::size_t leases = 0, reuses = 0;
  const auto t0 = Clock::now();
  // Shards share nothing, so running them one after another reproduces
  // FleetService's per-shard tick order (and arena reuse) exactly.
  for (std::size_t shard = 0; shard < spec.shards; ++shard) {
    fleet::ShardArena arena;
    std::vector<Live> live;
    live.reserve(wl.size() / spec.shards + 1);
    for (std::size_t id = shard; id < wl.size(); id += spec.shards) {
      live.push_back(Live{&wl[id], fleet::MeasurementFeed(wl[id], spec.master_seed),
                          uwp::Rng(fleet::session_stream_seed(spec.master_seed, id,
                                                              fleet::kSolverStream)),
                          nullptr});
      metrics[id].session_id = id;
      metrics[id].kind = wl[id].kind;
    }
    for (std::size_t tick = 0; tick < total_ticks; ++tick) {
      for (Live& s : live) {
        if (s.done) continue;
        const std::size_t id = s.sc->session_id;
        double& cost = L.session_cost[id];
        const bool des = s.sc->kind == sim::GroupScenarioKind::kPacketDes;
        double& frontend = des ? L.des_frontend_s : L.frontend_s;
        if (s.rt == nullptr) {
          if (tick < s.sc->admit_tick) continue;
          s.rt = arena.lease(fleet::pipeline_options_for(*s.sc));
          Span span(spans, frontend, &cost);
          s.feed.open();
        }
        const double dt = s.feed.next_dt_s();
        fleet::MeasurementFeed::Event ev;
        {
          Span span(spans, frontend, &cost);
          ev = s.feed.next(s.rt->meas);
        }
        if (ev == fleet::MeasurementFeed::Event::kCoast) {
          timed_coast(s.rt->pipe, dt, L, cost);
          metrics[id].note_coast();
        } else {
          metrics[id].note_round(timed_round(s.rt->pipe, s.rt->meas, s.rng, dt, L, cost));
        }
        if (!s.feed.exhausted()) continue;
        arena.release(std::move(s.rt));
        s.feed.close();
        s.done = true;
      }
    }
    leases += arena.leases();
    reuses += arena.reuses();
  }
  TracedOutcome out;
  out.wall_s = seconds_since(t0);
  out.fleet_digest = fleet::finalize_fleet_result(std::move(metrics)).fleet_digest;
  out.rounds = L.rounds;
  out.nonfinite_rounds = L.nonfinite;
  fill_layers(L, wl, spec.shards, out);
  out.layers["fleet.wire.encode_busy_s"] = 0.0;  // no wire
  out.layers["fleet.arena.reuse_ratio"] = share(static_cast<double>(reuses),
                                                static_cast<double>(leases));
  return out;
}

// Client side of a served run: re-encodes every frame from its decoded
// contents with the encoders fleet::feed_workload uses, timing only the
// encoding, and counts frames whose bytes differ from the ones it sent.
double time_encoding(const Prepared& prep, std::size_t& mismatches) {
  double encode_s = 0.0;
  fleet::IngestFrame frame;
  pipeline::RoundMeasurement meas;
  for (const std::vector<std::uint8_t>& sent : prep.frames) {
    fleet::decode_ingest_frame(sent, frame);
    const bool measurement = frame.kind == fleet::IngestKind::kMeasurement;
    if (measurement) {
      std::size_t pos = 0;
      fleet::decode_measurement(frame.payload, pos, meas);
      frame.payload.clear();
    }
    std::vector<std::uint8_t> bytes;
    {
      Span span(true, encode_s);
      if (measurement) fleet::encode_measurement(meas, frame.payload);
      fleet::encode_ingest_frame(frame, bytes);
    }
    if (bytes != sent) ++mismatches;
    frame.clear();
  }
  return encode_s;
}

TracedOutcome traced_serve(const Spec& spec, const Prepared& prep, bool spans,
                           const uwp::control::ControlLog* control) {
  const std::vector<sim::GroupScenario>& wl = prep.workload;
  const fleet::ServerOptions& so = prep.server->options();
  TracedOutcome out;
  if (spans)
    out.layers["fleet.wire.encode_busy_s"] = time_encoding(prep, out.reencode_mismatches);
  Ledger L;
  L.spans = spans;
  L.session_cost.assign(wl.size(), 0.0);

  // One worker's serving state per session, as fleet::Server keeps it.
  struct Slot {
    std::unique_ptr<fleet::SessionRuntime> rt;
    uwp::Rng rng{0};
    fleet::SessionMetrics metrics;
    bool seen = false, active = false;
  };
  std::vector<Slot> slots(wl.size());
  std::vector<fleet::ShardArena> arenas(std::max<std::size_t>(1, so.workers));
  std::size_t leases = 0, reuses = 0;

  // A dispatched frame, or (when `controls` is set) the knob bundle the
  // ingest loop broadcasts to the workers at a control boundary.
  struct Item {
    fleet::IngestFrame frame;
    bool shed = false;
    std::shared_ptr<const uwp::control::ShardControls> controls;
  };
  std::deque<Item> dispatched;
  const fleet::IngestScheduler::Dispatch dispatch = [&](fleet::IngestFrame&& f, bool shed,
                                                         double) {
    dispatched.push_back(Item{std::move(f), shed, nullptr});
  };

  const auto process = [&](Item& item) {
    if (item.controls != nullptr) {
      for (fleet::ShardArena& arena : arenas) arena.set_controls(*item.controls);
      for (Slot& s : slots)
        if (s.active) s.rt->pipe.set_search_threads(item.controls->search_threads);
      return;
    }
    const std::uint64_t id = item.frame.session_id;
    const sim::GroupScenario& sc = wl[static_cast<std::size_t>(id)];
    Slot& s = slots[static_cast<std::size_t>(id)];
    fleet::ShardArena& arena = arenas[id % arenas.size()];
    double& cost = L.session_cost[static_cast<std::size_t>(id)];
    if (!s.seen) {
      s.seen = true;
      s.rng = uwp::Rng(fleet::session_stream_seed(spec.master_seed, id, fleet::kSolverStream));
    }
    if (item.frame.kind == fleet::IngestKind::kBye) {
      if (s.active) arena.release(std::move(s.rt));
      s.active = false;
      return;
    }
    if (!s.active) {
      s.rt = arena.lease(fleet::pipeline_options_for(sc));
      s.active = true;
    }
    if (item.frame.kind == fleet::IngestKind::kCoast || item.shed) {
      timed_coast(s.rt->pipe, item.frame.dt_s, L, cost);
      s.metrics.note_coast();
      return;
    }
    {
      Span span(spans, L.decode_s, &cost);
      std::size_t pos = 0;
      fleet::decode_measurement(item.frame.payload, pos, s.rt->meas);
    }
    if (s.rt->meas.protocol.timestamps.rows() != devices_of(sc))
      throw fleet::WireError("measurement device count != session's");
    s.metrics.note_round(
        timed_round(s.rt->pipe, s.rt->meas, s.rng, item.frame.dt_s, L, cost));
  };
  const auto drain = [&] {
    for (; !dispatched.empty(); dispatched.pop_front()) process(dispatched.front());
  };

  fleet::IngestScheduler scheduler(so.shaping, wl.size());
  // The overload workload's decisions, re-applied from the ControlLog at
  // the live ingest loop's window boundaries: the shaper is retuned in
  // place (see verify_ingest_schedule) and the whole knob bundle is queued
  // behind the frames dispatched so far, as Server broadcasts it.
  uwp::control::ShardControls controls = control_baseline(so);
  std::size_t next_action = 0;
  std::uint64_t closing = 0;
  double next_boundary = kTelemetryWindowS;
  const auto cross_boundaries = [&](double arrival_s) {
    if (control == nullptr) return;
    while (arrival_s >= next_boundary) {
      scheduler.flush_until(next_boundary, dispatch);
      const std::uint64_t w = closing++;
      for (; next_action < control->actions.size() &&
             control->actions[next_action].window <= w;
           ++next_action)
        apply(control->actions[next_action], controls);
      scheduler.retune(controls.shaper_rate, controls.shaper_burst,
                       controls.shaper_max_defers);
      dispatched.push_back(
          Item{{}, false, std::make_shared<const uwp::control::ShardControls>(controls)});
      next_boundary = static_cast<double>(closing + 1) * kTelemetryWindowS;
    }
  };

  const auto t0 = Clock::now();
  fleet::IngestFrame frame;
  for (const std::vector<std::uint8_t>& bytes : prep.frames) {
    {
      Span span(spans, L.decode_s);
      fleet::decode_ingest_frame(bytes, frame);
    }
    L.wire_bytes += static_cast<double>(bytes.size());
    L.wire_frames += 1.0;
    {
      Span span(spans, L.shaper_s);
      cross_boundaries(frame.t_s);
      scheduler.on_frame(std::move(frame), dispatch);
    }
    frame.clear();
    drain();
  }
  {
    Span span(spans, L.shaper_s);
    scheduler.finish(dispatch);
  }
  drain();

  out.wall_s = seconds_since(t0);
  std::vector<fleet::SessionMetrics> metrics(wl.size());
  for (std::size_t id = 0; id < wl.size(); ++id) {
    metrics[id] = std::move(slots[id].metrics);
    metrics[id].session_id = id;
    metrics[id].kind = wl[id].kind;
  }
  for (const fleet::ShardArena& a : arenas) {
    leases += a.leases();
    reuses += a.reuses();
  }
  out.fleet_digest = fleet::finalize_fleet_result(std::move(metrics)).fleet_digest;
  out.schedule_digest = fleet::ingest_schedule_digest(scheduler.schedule());
  out.rounds = L.rounds;
  out.nonfinite_rounds = L.nonfinite;
  fill_layers(L, wl, arenas.size(), out);
  out.layers["fleet.arena.reuse_ratio"] = share(static_cast<double>(reuses),
                                                static_cast<double>(leases));
  return out;
}

}  // namespace

TracedOutcome run_traced(const Spec& spec, const Prepared& prep, bool spans,
                         const uwp::control::ControlLog* control) {
  return spec.served ? traced_serve(spec, prep, spans, control)
                     : traced_fleet(spec, prep, spans);
}

}  // namespace perfbench

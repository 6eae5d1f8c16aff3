#include "fleet/session.hpp"

#include <bit>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "des/session_source.hpp"
#include "fleet/recorder.hpp"
#include "sim/sweep.hpp"
#include "telemetry/collector.hpp"

namespace uwp::fleet {

std::uint64_t session_stream_seed(std::uint64_t master_seed, std::uint64_t session_id,
                                  std::uint64_t stream) {
  return sim::trial_seed(master_seed ^ stream, session_id);
}

void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xffu;
    h *= kFnvPrime;
  }
}

void fnv_mix(std::uint64_t& h, double v) { fnv_mix(h, std::bit_cast<std::uint64_t>(v)); }

// --- SessionMetrics ---------------------------------------------------------

void SessionMetrics::note_coast() {
  ++coasts;
  fnv_mix(digest, static_cast<std::uint64_t>(2));
}

void SessionMetrics::note_round(const pipeline::RoundOutput& out) {
  ++rounds;
  fnv_mix(digest, static_cast<std::uint64_t>(1));
  fnv_mix(digest, static_cast<std::uint64_t>(out.localized ? 1 : 0));
  if (out.localized) {
    ++localized;
    // Stress is only folded in when this round produced it; on a failed
    // round the localization buffer may hold a previous tenant's values
    // (pipelines are arena-reused), which must never leak into the digest.
    fnv_mix(digest, out.localization.normalized_stress);
  }
  for (const double e : out.error_2d) fnv_mix(digest, e);
  for (const double e : out.tracked_error_2d) fnv_mix(digest, e);
  for (std::size_t i = 1; i < out.error_2d.size(); ++i) {
    if (std::isnan(out.error_2d[i])) continue;
    errors.push_back(out.error_2d[i]);
    error_sum += out.error_2d[i];
  }
}

bool SessionMetrics::bit_equal(const SessionMetrics& o) const {
  if (session_id != o.session_id || kind != o.kind || rounds != o.rounds ||
      localized != o.localized || coasts != o.coasts || digest != o.digest ||
      errors.size() != o.errors.size())
    return false;
  for (std::size_t i = 0; i < errors.size(); ++i)
    if (std::bit_cast<std::uint64_t>(errors[i]) !=
        std::bit_cast<std::uint64_t>(o.errors[i]))
      return false;
  return true;
}

FleetResult finalize_fleet_result(std::vector<SessionMetrics> sessions) {
  FleetResult out;
  out.sessions = std::move(sessions);
  std::size_t total = 0;
  for (const SessionMetrics& s : out.sessions) total += s.errors.size();
  out.errors.reserve(total);
  for (const SessionMetrics& s : out.sessions) {
    out.rounds += s.rounds;
    out.localized += s.localized;
    out.coasts += s.coasts;
    out.errors.insert(out.errors.end(), s.errors.begin(), s.errors.end());
    fnv_mix(out.fleet_digest, s.digest);
  }
  out.summary = summarize(out.errors);
  return out;
}

// --- ShardArena -------------------------------------------------------------

ShardArena::SizeStats& ShardArena::stats_for(std::size_t size) {
  if (size >= stats_by_size_.size()) stats_by_size_.resize(size + 1);
  return stats_by_size_[size];
}

std::unique_ptr<SessionRuntime> ShardArena::take(std::size_t size,
                                                 std::size_t slot) {
  std::vector<FreeSlot>& list = free_by_size_[size];
  std::unique_ptr<SessionRuntime> rt = std::move(list[slot].rt);
  list.erase(list.begin() + static_cast<std::ptrdiff_t>(slot));
  ++rt->arena_reuses;
  ++reuses_;
  return rt;
}

std::unique_ptr<SessionRuntime> ShardArena::lease(const pipeline::PipelineOptions& opts) {
  ++leases_;
  if (telemetry_ != nullptr) telemetry_->count(telemetry::Counter::kArenaLeases);
  const std::size_t n = opts.protocol.num_devices;

  // Pick a free slot under the active cache policy. Exact-size entries need
  // only a rebind to *equal* options; the cost-aware fallback additionally
  // considers slightly larger entries (their workspaces shrink-fit), paying
  // an explicit rebind-cost sample instead of a cold construction.
  std::size_t from_size = free_by_size_.size();  // sentinel: miss
  std::size_t slot = 0;
  if (n < free_by_size_.size() && !free_by_size_[n].empty()) {
    const std::vector<FreeSlot>& list = free_by_size_[n];
    from_size = n;
    slot = list.size() - 1;  // kLru: most recently released
    if (controls_.cache_policy == control::CachePolicy::kLfu) {
      for (std::size_t i = 0; i < list.size(); ++i) {
        const bool better = list[i].reuses > list[slot].reuses ||
                            (list[i].reuses == list[slot].reuses &&
                             list[i].seq > list[slot].seq);
        if (better) slot = i;
      }
    }
  } else if (controls_.cache_policy == control::CachePolicy::kCostAware) {
    for (std::size_t m = n + 1; m <= n + 2 && m < free_by_size_.size(); ++m) {
      if (free_by_size_[m].empty()) continue;
      from_size = m;
      slot = free_by_size_[m].size() - 1;
      break;
    }
  }

  SizeStats& stats = stats_for(n);
  if (from_size < free_by_size_.size()) {
    const std::size_t cost = from_size - n;
    std::unique_ptr<SessionRuntime> rt = take(from_size, slot);
    rt->pipe.rebind(opts);
    rt->pipe.set_search_threads(controls_.search_threads);
    ++stats.hits;
    stats.rebind_cost += cost;
    if (telemetry_ != nullptr) {
      telemetry_->sample(telemetry::Sample::kArenaReuse, 1.0);
      telemetry_->sample(telemetry::Sample::kArenaFreeHit, double(n));
      telemetry_->sample(telemetry::Sample::kArenaRebindCost, double(cost));
    }
    return rt;
  }

  ++stats.misses;
  if (telemetry_ != nullptr)
    telemetry_->sample(telemetry::Sample::kArenaFreeMiss, double(n));
  std::unique_ptr<SessionRuntime> rt = std::make_unique<SessionRuntime>(opts);
  rt->pipe.set_search_threads(controls_.search_threads);
  return rt;
}

void ShardArena::release(std::unique_ptr<SessionRuntime> rt) {
  if (rt == nullptr) return;
  const std::size_t n = rt->pipe.options().protocol.num_devices;
  if (n >= free_by_size_.size()) free_by_size_.resize(n + 1);
  std::vector<FreeSlot>& list = free_by_size_[n];
  list.push_back(FreeSlot{std::move(rt), next_seq_++, 0});
  list.back().reuses = list.back().rt->arena_reuses;
  if (controls_.arena_retain > 0 && list.size() > controls_.arena_retain)
    list.erase(list.begin());  // drop the oldest (smallest seq by invariant)
}

void ShardArena::set_controls(const control::ShardControls& controls) {
  controls_ = controls;
  if (controls_.arena_retain == 0) return;
  for (std::vector<FreeSlot>& list : free_by_size_)
    if (list.size() > controls_.arena_retain)
      list.erase(list.begin(),
                 list.end() - static_cast<std::ptrdiff_t>(controls_.arena_retain));
}

pipeline::PipelineOptions pipeline_options_for(const sim::GroupScenario& sc) {
  pipeline::PipelineOptions opts;
  opts.protocol = sc.scene.protocol;
  opts.quantize_payload = true;
  opts.sound_speed_error_mps = sc.sound_speed_error_mps;
  opts.track = true;
  return opts;
}

// --- Session ----------------------------------------------------------------

namespace {

std::shared_ptr<const des::MobilityModel> make_lawnmower(
    const std::vector<Vec3>& origins, const std::vector<sim::GroupMotion>& motion) {
  auto mob = std::make_shared<des::LawnmowerMobility>(origins);
  for (std::size_t i = 0; i < motion.size(); ++i) {
    if (motion[i].span_m <= 0.0) continue;
    des::LawnmowerTrack track;
    track.direction = motion[i].axis;
    track.span_m = motion[i].span_m;
    track.speed_mps = motion[i].speed_mps;
    track.phase_s = motion[i].phase_s;
    mob->set_track(i, track);
  }
  return mob;
}

std::shared_ptr<const des::MobilityModel> make_waypoint(
    const std::vector<Vec3>& origins, const std::vector<sim::GroupMotion>& motion) {
  auto mob = std::make_shared<des::WaypointMobility>(origins);
  for (std::size_t i = 0; i < motion.size(); ++i) {
    if (motion[i].waypoints.size() < 2) continue;
    des::WaypointTrack track;
    track.waypoints = motion[i].waypoints;
    track.speed_mps = motion[i].speed_mps;
    mob->set_track(i, track);
  }
  return mob;
}

}  // namespace

// --- MeasurementFeed --------------------------------------------------------

MeasurementFeed::MeasurementFeed(const sim::GroupScenario& scenario,
                                 std::uint64_t master_seed)
    : sc_(&scenario),
      rng_(session_stream_seed(master_seed, scenario.session_id, kMeasurementStream)) {}

void MeasurementFeed::open() {
  if (sc_->kind == sim::GroupScenarioKind::kPacketDes) {
    des::DesScenarioConfig cfg;
    cfg.protocol = sc_->scene.protocol;
    cfg.round_period_s = sc_->round_period_s;
    cfg.arrival = sc_->arrival;
    cfg.depth_sensor = sc_->scene.depth_sensor;
    cfg.pointing = sc_->scene.pointing;
    model_ = std::make_unique<des::DesSessionSource>(
        cfg, make_lawnmower(sc_->scene.positions, sc_->motion), sc_->scene.audio,
        sc_->scene.connectivity);
  } else {
    auto fast =
        std::make_unique<pipeline::FastMeasurementModel>(sc_->scene, sc_->arrival);
    closed_form_ = fast.get();
    model_ = std::move(fast);
    if (sc_->kind == sim::GroupScenarioKind::kLawnmower)
      mobility_ = make_lawnmower(sc_->scene.positions, sc_->motion);
    else if (sc_->kind == sim::GroupScenarioKind::kWaypoint)
      mobility_ = make_waypoint(sc_->scene.positions, sc_->motion);
  }
}

void MeasurementFeed::close() {
  model_.reset();
  mobility_.reset();
  closed_form_ = nullptr;
}

MeasurementFeed::Event MeasurementFeed::next(pipeline::RoundMeasurement& out) {
  // Jammed round (dropout/churn groups): no measurement exists, so nothing
  // reaches the wire; the serving side coasts its tracker.
  if (sc_->dropout_prob > 0.0 && rng_.bernoulli(sc_->dropout_prob)) {
    ++events_done_;
    return Event::kCoast;
  }
  // Closed-form motion advances between rounds (the DES front-end moves
  // its nodes itself, during rounds).
  if (mobility_ != nullptr && closed_form_ != nullptr) {
    const double t = static_cast<double>(events_done_) * sc_->round_period_s;
    std::vector<Vec3>& pos = closed_form_->positions();
    for (std::size_t i = 0; i < pos.size(); ++i) pos[i] = mobility_->position(i, t);
  }
  model_->measure(out, rng_);
  ++events_done_;
  return Event::kMeasurement;
}

// --- Session ----------------------------------------------------------------

Session::Session(const sim::GroupScenario& scenario, std::uint64_t master_seed)
    : sc_(&scenario),
      solve_rng_(session_stream_seed(master_seed, scenario.session_id, kSolverStream)) {
  metrics_.session_id = scenario.session_id;
  metrics_.kind = scenario.kind;
}

void Session::admit(ShardArena& arena, const SessionHooks& hooks) {
  hooks_ = hooks;
  rt_ = arena.lease(pipeline_options_for(*sc_));
  rt_->pipe.set_telemetry(hooks_.telemetry);
  if (hooks_.recorder != nullptr) hooks_.recorder->on_admit(*sc_);
  if (hooks_.telemetry != nullptr) {
    hooks_.telemetry->count(telemetry::Counter::kAdmits);
    hooks_.telemetry->count(telemetry::Counter::kAdmitDevices,
                            sc_->scene.protocol.num_devices);
  }
}

void Session::evict(ShardArena& arena) {
  arena.release(std::move(rt_));
  if (hooks_.recorder != nullptr) hooks_.recorder->on_evict(sc_->session_id);
  if (hooks_.telemetry != nullptr) {
    hooks_.telemetry->count(telemetry::Counter::kEvicts);
    hooks_.telemetry->count(telemetry::Counter::kEvictDevices,
                            sc_->scene.protocol.num_devices);
  }
}

void Session::apply_controls(const control::ShardControls& controls) {
  if (rt_ != nullptr) rt_->pipe.set_search_threads(controls.search_threads);
}

void Session::coast(double dt_s) {
  rt_->pipe.coast(dt_s);
  metrics_.note_coast();
  if (hooks_.recorder != nullptr) hooks_.recorder->on_coast(sc_->session_id, dt_s);
  if (hooks_.telemetry != nullptr) hooks_.telemetry->count(telemetry::Counter::kCoasts);
}

const RoundRecord& Session::run_round(std::uint32_t round, double dt_s) {
  if (hooks_.telemetry != nullptr && hooks_.telemetry->trace_enabled())
    rt_->pipe.set_trace(telemetry::make_trace_id(sc_->session_id, round));
  // Captured pre-quantization: the pipeline's quantize stage rewrites the
  // timestamp table in place.
  if (hooks_.recorder != nullptr)
    hooks_.recorder->on_measurement(sc_->session_id, round, dt_s, rt_->meas);

  const auto t0 = std::chrono::steady_clock::now();
  const pipeline::RoundOutput& out = rt_->pipe.run_round(rt_->meas, solve_rng_, dt_s);
  if (hooks_.latencies != nullptr)
    hooks_.latencies->push_back(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());

  metrics_.note_round(out);
  record_.round = round;
  record_.localized = out.localized;
  record_.normalized_stress = out.localized ? out.localization.normalized_stress : 0.0;
  record_.error_2d = out.error_2d;
  record_.tracked_error_2d = out.tracked_error_2d;
  if (hooks_.recorder != nullptr)
    hooks_.recorder->on_round_result(sc_->session_id, record_);
  return record_;
}

}  // namespace uwp::fleet

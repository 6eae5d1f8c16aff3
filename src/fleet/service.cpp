#include "fleet/service.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>

#include "fleet/recorder.hpp"
#include "telemetry/collector.hpp"
#include "util/thread_pool.hpp"

namespace uwp::fleet {

FleetService::FleetService(FleetOptions opts, std::vector<sim::GroupScenario> workload)
    : opts_(opts), workload_(std::move(workload)) {
  for (std::size_t i = 0; i < workload_.size(); ++i) {
    if (workload_[i].session_id != i)
      throw std::invalid_argument("FleetService: workload session_id != index");
    // A zero-lifetime session would either run one round anyway (eviction is
    // checked after the event) or never be admitted, depending on unrelated
    // sessions' timelines — reject it instead of picking either behavior.
    if (workload_[i].lifetime_rounds == 0)
      throw std::invalid_argument("FleetService: lifetime_rounds must be >= 1");
  }
}

std::size_t FleetService::ticks() const {
  std::size_t t = 0;
  for (const sim::GroupScenario& sc : workload_)
    t = std::max(t, sc.admit_tick + sc.lifetime_rounds);
  return t;
}

FleetResult FleetService::run(SessionRecorder* recorder,
                              telemetry::Collector* telemetry) const {
  const std::size_t n_sessions = workload_.size();
  const std::size_t shards = ThreadPool::resolve_thread_count(opts_.shards);
  const std::size_t total_ticks = ticks();

  telemetry::Collector* const col =
      telemetry != nullptr && telemetry->enabled() ? telemetry : nullptr;
  if (col != nullptr) col->open(shards);

  std::vector<SessionMetrics> metrics(n_sessions);
  std::vector<std::vector<double>> shard_latencies(shards);
  std::vector<ShardArena> arenas(shards);

  // One shard: the sessions with id % shards == shard, run through the full
  // tick timeline in id order, each admitted at its admit tick, advanced by
  // one event per tick, and evicted on the tick its lifetime is exhausted.
  // Each Session is paired with the MeasurementFeed that fills its
  // measurements, as feed_workload pairs them on the producer side of a
  // served run. Sessions are independent and the recorder's per-session
  // buffers are disjoint, so shards share nothing mutable (each telemetry
  // stream has exactly one producer: its shard).
  const auto shard_body = [&](std::size_t shard) {
    std::vector<std::size_t> ids;
    for (std::size_t id = shard; id < n_sessions; id += shards) ids.push_back(id);
    std::vector<Session> sessions;
    std::vector<MeasurementFeed> feeds;
    sessions.reserve(ids.size());
    feeds.reserve(ids.size());
    for (const std::size_t id : ids) {
      sessions.emplace_back(workload_[id], opts_.master_seed);
      feeds.emplace_back(workload_[id], opts_.master_seed);
    }

    ShardArena& arena = arenas[shard];
    SessionHooks hooks;
    hooks.recorder = recorder;
    hooks.telemetry = col != nullptr ? &col->stream(shard) : nullptr;
    if (opts_.measure_latency) hooks.latencies = &shard_latencies[shard];
    telemetry::ShardStream* const tel = hooks.telemetry;
    arena.set_telemetry(tel);
    for (std::size_t tick = 0; tick < total_ticks; ++tick) {
      if (tel != nullptr) tel->set_time(static_cast<double>(tick));
      for (std::size_t k = 0; k < sessions.size(); ++k) {
        Session& s = sessions[k];
        MeasurementFeed& feed = feeds[k];
        if (feed.exhausted()) continue;
        if (!s.active()) {
          if (tick < s.scenario().admit_tick) continue;
          s.admit(arena, hooks);
          feed.open();
        }
        const double dt = feed.next_dt_s();
        if (feed.next(s.measurement()) == MeasurementFeed::Event::kCoast) {
          s.coast(dt);
        } else {
          s.run_round(static_cast<std::uint32_t>(s.metrics().rounds), dt);
        }
        if (feed.exhausted()) {
          s.evict(arena);
          feed.close();
        }
      }
    }

    for (std::size_t k = 0; k < ids.size(); ++k)
      metrics[ids[k]] = sessions[k].take_metrics();
  };

  std::unique_ptr<ThreadPool> pool;
  if (shards > 1 && n_sessions > 1) pool = std::make_unique<ThreadPool>(shards);

  const auto t0 = std::chrono::steady_clock::now();
  if (pool != nullptr) {
    pool->parallel_for(shards, shard_body);
  } else {
    for (std::size_t shard = 0; shard < shards; ++shard) shard_body(shard);
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  arena_stats_ = {};
  for (const ShardArena& a : arenas) {
    arena_stats_.leases += a.leases();
    arena_stats_.reuses += a.reuses();
    for (const ShardArena::SizeStats& s : a.size_stats()) {
      arena_stats_.free_hits += s.hits;
      arena_stats_.free_misses += s.misses;
    }
  }

  FleetResult out = finalize_fleet_result(std::move(metrics));
  out.wall_seconds = wall;
  out.shards_used = shards;
  for (const std::vector<double>& lat : shard_latencies)
    out.round_latency_s.insert(out.round_latency_s.end(), lat.begin(), lat.end());
  return out;
}

telemetry::SloInputs make_slo_inputs(const FleetResult& result,
                                     const telemetry::TelemetryReport* report) {
  telemetry::SloInputs in;
  // One bucket per GroupScenarioKind, enum order, always present.
  constexpr sim::GroupScenarioKind kKinds[] = {
      sim::GroupScenarioKind::kStatic,       sim::GroupScenarioKind::kLawnmower,
      sim::GroupScenarioKind::kWaypoint,     sim::GroupScenarioKind::kDropoutChurn,
      sim::GroupScenarioKind::kPacketDes};
  in.kinds.resize(std::size(kKinds));
  for (std::size_t k = 0; k < std::size(kKinds); ++k)
    in.kinds[k].kind = sim::to_string(kKinds[k]);
  // Sessions arrive in id order (FleetResult's invariant), so each bucket's
  // error multiset is accumulated identically at any shard/worker count.
  for (const SessionMetrics& s : result.sessions) {
    const std::size_t k = static_cast<std::size_t>(s.kind);
    if (k >= in.kinds.size()) continue;
    telemetry::SloKindInput& bucket = in.kinds[k];
    ++bucket.sessions;
    bucket.rounds += s.rounds;
    bucket.localized += s.localized;
    bucket.coasts += s.coasts;
    bucket.errors.insert(bucket.errors.end(), s.errors.begin(), s.errors.end());
  }
  if (report != nullptr) {
    in.totals = report->totals;
    in.have_totals = true;
  }
  in.latency_s = result.round_latency_s;
  in.wall_s = result.wall_seconds;
  return in;
}

}  // namespace uwp::fleet

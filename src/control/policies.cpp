#include "control/policies.hpp"

#include <algorithm>

namespace uwp::control {
namespace {

std::uint64_t get(const telemetry::Snapshot& snap, telemetry::Counter c) {
  return snap.counts[static_cast<std::size_t>(c)];
}

}  // namespace

void tune_arena(const ControlConfig& cfg, const telemetry::Snapshot& snap,
                ShardControls& c) {
  using telemetry::Counter;
  const std::uint64_t admits = get(snap, Counter::kAdmits);
  const std::uint64_t evicts = get(snap, Counter::kEvicts);
  const std::uint64_t admit_dev = get(snap, Counter::kAdmitDevices);
  const std::uint64_t evict_dev = get(snap, Counter::kEvictDevices);

  if (evicts >= cfg.evict_storm) {
    // Storm: double retention so the wave of released pipelines survives to
    // serve the readmissions that usually follow.
    const std::size_t cur =
        c.arena_retain == 0 ? cfg.retain_base : c.arena_retain;
    c.arena_retain = std::min(cfg.retain_max,
                              std::max(cur * 2, cfg.retain_base));
  } else if (admits == 0 && evicts == 0 && c.arena_retain > cfg.retain_base) {
    // Idle: decay halfway back toward the base so a one-off storm doesn't
    // pin memory forever.
    c.arena_retain = std::max(cfg.retain_base, c.arena_retain / 2);
  }

  if (admits > 0 && evicts > 0) {
    // Mix drift: cross-multiplied integer compare of mean admitted group
    // size (admit_dev/admits) vs mean evicted size (evict_dev/evicts);
    // > 9/8 relative divergence counts as drift. Integer math keeps the
    // decision platform-exact.
    const std::uint64_t lhs = admit_dev * evicts;
    const std::uint64_t rhs = evict_dev * admits;
    const std::uint64_t hi = std::max(lhs, rhs);
    const std::uint64_t lo = std::min(lhs, rhs);
    const bool drift = hi * 8 > lo * 9;
    c.cache_policy = drift ? CachePolicy::kCostAware : CachePolicy::kLfu;
  }
}

void tune_shaper(const ControlConfig& cfg, const ShardControls& baseline,
                 const telemetry::Snapshot& snap, ShardControls& c) {
  using telemetry::Counter;
  if (baseline.shaper_rate <= 0.0) return;  // shaping disabled at baseline
  const std::uint64_t shed = get(snap, Counter::kIngestShed);
  const std::uint64_t deferred = get(snap, Counter::kIngestDeferred);
  const std::uint64_t admitted = get(snap, Counter::kIngestAdmitted);
  const std::uint64_t rounds = get(snap, Counter::kRounds);

  const double rate_max = baseline.shaper_rate * cfg.rate_max_multiplier;
  const double burst_max = baseline.shaper_burst * cfg.rate_max_multiplier;
  if (shed > 0 && rounds >= admitted) {
    // Frames shed while the workers drained everything they were given:
    // the bucket, not the solvers, was the bottleneck. Open it up.
    c.shaper_rate = std::min(rate_max, c.shaper_rate * cfg.rate_step);
    c.shaper_burst = std::min(burst_max, c.shaper_burst + 2.0);
    c.shaper_max_defers =
        std::min(baseline.shaper_max_defers * 4, c.shaper_max_defers + 2);
  } else if (shed == 0 && deferred == 0) {
    // Quiet window: step back toward the configured baseline.
    c.shaper_rate = std::max(baseline.shaper_rate, c.shaper_rate / cfg.rate_step);
    c.shaper_burst = std::max(baseline.shaper_burst, c.shaper_burst - 2.0);
    if (c.shaper_max_defers > baseline.shaper_max_defers)
      c.shaper_max_defers = c.shaper_max_defers - 1;
  }
}

void tune_solver(const ControlConfig& cfg, const telemetry::Snapshot& snap,
                 ShardControls& c) {
  using telemetry::Counter;
  const std::uint64_t rounds = get(snap, Counter::kRounds);
  if (rounds == 0) return;
  const std::uint64_t pressure = get(snap, Counter::kSolverIterations) / rounds;
  if (pressure > cfg.solver_iters_high) {
    c.search_threads = std::min(cfg.max_search_threads, c.search_threads * 2);
  } else if (pressure < cfg.solver_iters_low && c.search_threads > 1) {
    c.search_threads = std::max<std::size_t>(1, c.search_threads / 2);
  }
}

}  // namespace uwp::control

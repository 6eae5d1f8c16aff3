// The control-plane policies: three plain functions, each a *pure* fold of
// one window's merged counter Snapshot (and the config) over a
// ShardControls. They read only their arguments and write only the
// ShardControls they are handed — no wall-clock reads, no RNG, no state of
// their own — so the determinism pin (ControlLog byte identity at any
// worker/thread count, exact re-execution over the same snapshot sequence)
// holds by construction. ControlEngine::observe_window calls them in a
// fixed order: arena, shaper, solver.
#pragma once

#include <cstddef>
#include <cstdint>

#include "control/actions.hpp"
#include "telemetry/collector.hpp"

namespace uwp::control {

// Engine + policy tuning knobs. This struct is also the spec's "control"
// section (config::ScenarioSpec::control): every member except window_ticks
// is a spec key, named once in config/spec.cpp's control field list, and
// config::make_control_config returns it validated.
struct ControlConfig {
  bool enabled = false;
  // Per-policy enables: the three policies can be gated independently.
  bool arena = true;
  bool shaper = true;
  bool solver = true;
  // Ignored; kept because perfbench/ assigns it. The decision cadence is
  // the telemetry collector's window: fleet::Server folds the counter
  // plane's own windows (see TelemetryOptions::window).
  std::size_t window_ticks = 16;
  // tune_arena: evictions per window that count as a storm (raises
  // free-list retention), and the retention band it moves within.
  std::uint64_t evict_storm = 8;
  std::size_t retain_base = 4;
  std::size_t retain_max = 64;
  // tune_shaper: multiplicative rate step per congested window, and the
  // ceiling as a multiple of the spec's baseline rate.
  double rate_step = 1.25;
  double rate_max_multiplier = 4.0;
  // tune_solver: SMACOF iterations per round above which the pruned
  // outlier search fans out, and below which it folds back in.
  std::uint64_t solver_iters_high = 400;
  std::uint64_t solver_iters_low = 64;
  std::size_t max_search_threads = 8;
};

// Arena: free-list retention + cache policy from churn signals.
//   * evict storm (kEvicts >= evict_storm per window) — double retention
//     toward retain_max so evicted pipelines stay warm for readmissions.
//   * churn with a drifting group-size mix (mean admitted size diverges
//     from mean evicted size) — switch to kCostAware, which serves
//     near-size entries at a rebind cost instead of building cold.
//   * churn with a stable mix — kLfu keeps the most-reused pipelines.
//   * idle window — decay retention halfway back toward retain_base.
void tune_arena(const ControlConfig& cfg, const telemetry::Snapshot& snap,
                ShardControls& c);

// Shaper: token-bucket rate/burst/defer budget from shed pressure. Raises
// the admission rate multiplicatively while frames shed *and* the workers
// kept pace with what was admitted (rounds >= admitted — shedding was the
// bottleneck, not the solvers); decays back toward `baseline` on quiet
// windows. The defer budget rises with shed pressure so bursts spread into
// the retry heap instead of coasting. Inert when the baseline rate is 0.
void tune_shaper(const ControlConfig& cfg, const ShardControls& baseline,
                 const telemetry::Snapshot& snap, ShardControls& c);

// Solver: OutlierOptions::search_threads from SMACOF iteration pressure
// (iterations per executed round). Doubles the pruned-search fan-out above
// solver_iters_high, folds back toward 1 below solver_iters_low.
// Result-neutral: the parallel pruned search is bit-identical at any
// thread count.
void tune_solver(const ControlConfig& cfg, const telemetry::Snapshot& snap,
                 ShardControls& c);

}  // namespace uwp::control

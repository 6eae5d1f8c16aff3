// The control-plane policy contract.
//
// A Policy is a *pure* function of (window index, merged counter Snapshot,
// ControlConfig) folded over a ShardControls: observe() may read only its
// arguments and the config captured at construction, and must write only
// the ShardControls it is handed. No wall-clock reads, no RNG, no
// allocation-order dependence — the determinism pin (ControlLog byte
// identity at any worker/thread count, exact re-execution over the same
// snapshot sequence) holds exactly as long as every policy obeys this.
#pragma once

#include <cstddef>
#include <cstdint>

#include "control/actions.hpp"
#include "telemetry/collector.hpp"

namespace uwp::control {

// Engine + policy tuning knobs, spec-derived (config::make_control_config).
struct ControlConfig {
  bool enabled = false;
  // Per-policy enables: the three built-ins can be gated independently.
  bool arena = true;
  bool shaper = true;
  bool solver = true;
  // Ignored; kept because perfbench/ assigns it. The decision cadence is
  // the telemetry collector's window: fleet::Server folds the counter
  // plane's own windows (see TelemetryOptions::window).
  std::size_t window_ticks = 16;
  // ArenaTunerPolicy: evictions per window that count as a storm (raises
  // free-list retention), and the retention band it moves within.
  std::uint64_t evict_storm = 8;
  std::size_t retain_base = 4;
  std::size_t retain_max = 64;
  // ShaperTunerPolicy: multiplicative rate step per congested window, and
  // the ceiling as a multiple of the spec's baseline rate.
  double rate_step = 1.25;
  double rate_max_multiplier = 4.0;
  // SolverTunerPolicy: SMACOF iterations per round above which the pruned
  // outlier search fans out, and below which it folds back in.
  std::uint64_t solver_iters_high = 400;
  std::uint64_t solver_iters_low = 64;
  std::size_t max_search_threads = 8;
};

class Policy {
 public:
  virtual ~Policy() = default;
  virtual const char* name() const = 0;
  // Fold one window's merged counter snapshot into the knob bundle. Called
  // at every window boundary, in fixed policy order, single-threaded.
  virtual void observe(std::uint64_t window, const telemetry::Snapshot& snap,
                       ShardControls& controls) = 0;
};

}  // namespace uwp::control

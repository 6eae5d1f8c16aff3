// ControlEngine: the deterministic fold from counter snapshots to actions.
//
// The engine owns the active ShardControls, the spec baseline, and the
// ControlLog. At every window boundary its caller (fleet::Server) hands it
// the merged counter Snapshot for the window that just closed; the engine
// masks its own control counters out (so offline re-execution sees
// identical inputs), folds the policies in fixed order, diffs the
// resulting knob bundle against the active one, and appends one
// ControlAction per changed field. The whole fold is
//
//   log = f(config, baseline, snapshots[0..n])
//
// — no wall clock, no RNG, no thread-count dependence — which is what makes
// the log byte-identical across worker/thread counts and exactly
// re-derivable from the same snapshot sequence (reexecute()).
#pragma once

#include <cstdint>
#include <vector>

#include "control/actions.hpp"
#include "control/log.hpp"
#include "control/policies.hpp"

namespace uwp::control {

class ControlEngine {
 public:
  ControlEngine(const ControlConfig& cfg, const ShardControls& baseline);

  // Attach the engine's own telemetry stream (it emits kControlWindows /
  // kControlActions there). `window_span` is the telemetry window length in
  // the server's virtual-time unit (seconds), used to stamp emissions into
  // the window *after* the one observed (decisions apply going forward).
  void bind_stream(telemetry::ShardStream* stream, double window_span);

  // Fold one closed window. Windows must be presented in increasing order;
  // `snap` is the merged Snapshot for exactly that window.
  void observe_window(std::uint64_t window, telemetry::Snapshot snap);

  const ShardControls& controls() const { return controls_; }
  const ControlLog& log() const { return log_; }
  const ControlConfig& config() const { return cfg_; }

  // Re-run the fold over a snapshot sequence and return the log it
  // produces. Equals the live log whenever the snapshots and baseline match
  // the live run's.
  static ControlLog reexecute(const ControlConfig& cfg,
                              const ShardControls& baseline,
                              const std::vector<telemetry::Snapshot>& snaps);

 private:
  ControlConfig cfg_;
  ShardControls baseline_;
  ShardControls controls_;
  ControlLog log_;
  telemetry::ShardStream* stream_ = nullptr;
  double window_span_ = 0.0;
};

}  // namespace uwp::control

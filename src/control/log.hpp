// ControlLog: the flat record of every control decision.
//
// The log is the control plane's determinism artifact, playing the role the
// fleet trace plays for session rounds: a served run's log must be
// byte-identical at any worker/thread count, and re-running the fold over
// the same snapshots must reproduce it exactly (see
// ControlEngine::reexecute). `control_log_digest` gives a cheap fingerprint
// for CI diffs and the uwp_run metrics JSON, which writes the log itself as
// JSON.
#pragma once

#include <cstdint>
#include <vector>

#include "control/actions.hpp"

namespace uwp::control {

struct ControlLog {
  std::vector<ControlAction> actions;
  // Windows the engine observed (actions reference a subset of these).
  std::uint64_t windows_observed = 0;
};

bool bit_equal(const ControlLog& a, const ControlLog& b);

// FNV-1a over the log's canonical byte encoding (action fields in order,
// doubles by bit pattern). Stable across platforms.
std::uint64_t control_log_digest(const ControlLog& log);

}  // namespace uwp::control

// The multi-session positioning service: owns the lifecycle of thousands of
// concurrent positioning groups and runs them on a util::ThreadPool. Each
// session runs its whole tenancy (admit -> one event per tick -> evict) on
// whichever thread pulls it next, largest groups first, so a few expensive
// groups cannot pile up on one thread. Sessions are fully independent —
// each consumes only its two private rng streams, and counter events carry
// the tick as virtual time — so the aggregate (collected in session-id
// order) and the counter plane are bit-identical at ANY thread count,
// including the serial shards = 1 reference. This is the serving-side
// restatement of sim::SweepRunner's determinism contract.
#pragma once

#include <cstdint>
#include <vector>

#include "fleet/session.hpp"
#include "sim/fleet_workload.hpp"
#include "telemetry/slo.hpp"

namespace uwp::telemetry {
class Collector;
struct TelemetryReport;
}

namespace uwp::fleet {

class SessionRecorder;  // recorder.hpp

struct FleetOptions {
  std::uint64_t master_seed = 0x75770517u;
  // Worker threads (each with its own arena and telemetry stream) that pull
  // sessions; 0 = one per hardware thread, 1 = the serial reference path.
  std::size_t shards = 0;
  // Record the wall-clock of every run_round call into
  // FleetResult::round_latency_s (for the bench's p50/p99 reporting).
  bool measure_latency = false;
  // Ignored. It selected a batched round layout that has been removed (it
  // measured no faster than the per-session loop every run now takes); the
  // field stays only because perfbench/ still assigns it, and perfbench/ is
  // changed only together with the benchmark definition.
  bool batch_rounds = true;
};

class FleetService {
 public:
  // The workload (one scenario per session, indexed by session id) is
  // typically sim::make_workload(params); a custom vector works as long as
  // session_id == index. Throws std::invalid_argument otherwise.
  FleetService(FleetOptions opts, std::vector<sim::GroupScenario> workload);

  const FleetOptions& options() const { return opts_; }
  const std::vector<sim::GroupScenario>& workload() const { return workload_; }

  // Run every session to eviction. `recorder`, when given, captures the
  // whole run as a replayable trace (it must have been constructed for this
  // service's workload). `telemetry`, when given and enabled, is opened
  // with one stream per thread; counter events carry the tick as virtual
  // time, so the collector's counters section is bit-identical at any
  // thread count even though a stream's time jumps back at each new
  // session. There are no quiesce points; the control plane is a
  // fleet::Server feature (serve with admit_all shaping to run this
  // workload under it). Thread-safe internally; call from one thread.
  FleetResult run(SessionRecorder* recorder = nullptr,
                  telemetry::Collector* telemetry = nullptr) const;

  // Arena accounting of the last run (summed over threads): how many session
  // admissions there were, how many were served by rebinding an evicted
  // session's warm pipeline instead of allocating a fresh one, and the
  // free-list hit/miss split underneath (hits == reuses; misses are cold
  // constructions).
  struct ArenaStats {
    std::size_t leases = 0;
    std::size_t reuses = 0;
    std::size_t free_hits = 0;
    std::size_t free_misses = 0;
  };
  const ArenaStats& arena_stats() const { return arena_stats_; }

 private:
  FleetOptions opts_;
  std::vector<sim::GroupScenario> workload_;
  mutable ArenaStats arena_stats_;
};

// Fold a finished run into the SLO reducer's inputs: per-kind session /
// round / error tallies from the (deterministic, id-ordered) FleetResult,
// counter totals from `report` when given (evict/shed/warm-start rates),
// and the run-varying latency samples. Every GroupScenarioKind appears, in
// enum order, so the reduced scoreboard's shape is spec-independent and
// its content bit-identical at any shard/worker count.
telemetry::SloInputs make_slo_inputs(const FleetResult& result,
                                     const telemetry::TelemetryReport* report);

}  // namespace uwp::fleet

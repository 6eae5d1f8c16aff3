// One serving session: the full lifecycle (admit -> rounds -> coast ->
// evict) of a single positioning group inside the fleet, backed by a warm
// pipeline::RoundPipeline leased from its shard's arena. Its measurements
// come from a MeasurementFeed over one of the pipeline front-ends (the
// calibrated fast closed form for most groups, a full packet-level
// des::DesSessionSource for the DES slice) — in-process, over a Transport,
// or out of a recorded trace.
//
// Determinism contract (the fleet analog of sim::SweepRunner's): a session
// consumes exactly two private rng streams derived from
// (master_seed, session_id) —
//   * the measurement stream (motion-independent sensor/arrival/vote noise
//     and dropout draws), and
//   * the solver stream (localizer restarts),
// so its results never depend on which shard ran it, on the shard count, or
// on what its arena-shared pipeline computed for a previous tenant. The
// split is what makes record/replay exact: a replayed session skips the
// measurement stream entirely (measurements come from the trace as bytes)
// and re-derives only the solver stream.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "control/actions.hpp"
#include "des/mobility.hpp"
#include "fleet/wire.hpp"
#include "pipeline/closed_form.hpp"
#include "pipeline/round_pipeline.hpp"
#include "sim/fleet_workload.hpp"
#include "util/hash.hpp"
#include "util/stats.hpp"

namespace uwp::telemetry {
class ShardStream;
}

namespace uwp::fleet {

class SessionRecorder;  // recorder.hpp

// --- deterministic stream derivation ---------------------------------------

inline constexpr std::uint64_t kMeasurementStream = 0x6d656173u;  // "meas"
inline constexpr std::uint64_t kSolverStream = 0x736f6c76u;       // "solv"

// Seed of one session stream: splitmix64 over (master_seed xor stream tag,
// session_id), the same finalizer SweepRunner uses for trial streams.
std::uint64_t session_stream_seed(std::uint64_t master_seed, std::uint64_t session_id,
                                  std::uint64_t stream);

// --- metrics ----------------------------------------------------------------

// Per-session outcome record. `digest` folds every event (round or coast)
// in order — localized flags, error vectors, stress — so two runs agree on
// a session iff their digests (and sample vectors) agree bit for bit.
struct SessionMetrics {
  std::uint64_t session_id = 0;
  sim::GroupScenarioKind kind = sim::GroupScenarioKind::kStatic;
  std::size_t rounds = 0;
  std::size_t localized = 0;
  std::size_t coasts = 0;
  // Finite per-device horizontal errors in round order.
  std::vector<double> errors;
  double error_sum = 0.0;
  std::uint64_t digest = kFnvOffsetBasis;

  void note_coast();
  void note_round(const pipeline::RoundOutput& out);
  double mean_error() const {
    return errors.empty() ? 0.0 : error_sum / static_cast<double>(errors.size());
  }
  bool bit_equal(const SessionMetrics& o) const;
};

// Fleet-level aggregate, sessions in id order (so it is bit-identical for
// any shard count by construction). Latency/wall fields are filled by the
// service and are the only run-dependent parts.
struct FleetResult {
  std::vector<SessionMetrics> sessions;
  std::size_t rounds = 0;
  std::size_t localized = 0;
  std::size_t coasts = 0;
  std::vector<double> errors;  // flattened in session order
  Summary summary;
  std::uint64_t fleet_digest = kFnvOffsetBasis;  // FNV over session digests
  // Wall-clock measurements (not part of any determinism contract).
  std::vector<double> round_latency_s;
  double wall_seconds = 0.0;
  std::size_t shards_used = 0;
};

// Fold per-session metrics into the aggregate (deterministic part only).
FleetResult finalize_fleet_result(std::vector<SessionMetrics> sessions);

// --- arena ------------------------------------------------------------------

// One leased runtime slot: a pipeline plus the measurement buffer it churns.
// `arena_reuses` counts free-list round trips (the arena's LFU key).
struct SessionRuntime {
  pipeline::RoundPipeline pipe;
  pipeline::RoundMeasurement meas;
  std::uint64_t arena_reuses = 0;

  explicit SessionRuntime(const pipeline::PipelineOptions& opts) : pipe(opts) {}
};

// Per-thread free list of SessionRuntimes keyed by group size: an evicted
// session's pipeline is rebound to the next admitted group of the same size
// instead of reallocated, so steady-state churn performs near-zero heap
// allocation inside the solver stack. Single-threaded by construction (one
// arena per fleet thread or server worker, and a tenancy never changes
// thread).
//
// The free lists are the control plane's cache: set_controls() switches the
// replacement policy (LRU exact-LIFO, the historical default; LFU
// most-reused-first; cost-aware near-size rebinds) and caps per-size
// retention. Every knob is result-neutral — a leased pipeline is rebound to
// the requested options either way, so FleetResult cannot tell policies
// apart; only reuse rates and wall-clock change.
class ShardArena {
 public:
  std::unique_ptr<SessionRuntime> lease(const pipeline::PipelineOptions& opts);
  void release(std::unique_ptr<SessionRuntime> rt);

  std::size_t leases() const { return leases_; }
  std::size_t reuses() const { return reuses_; }

  // Apply a control-plane knob bundle: cache policy, per-size retention
  // (trimming oversized free lists immediately, oldest first), and the
  // search_threads applied to every subsequently leased pipeline.
  void set_controls(const control::ShardControls& controls);
  const control::ShardControls& controls() const { return controls_; }

  // Per-group-size free-list accounting (hits/misses/summed |size delta|
  // paid on near-size rebinds), for tests and offline tuning.
  struct SizeStats {
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t rebind_cost = 0;
  };
  const std::vector<SizeStats>& size_stats() const { return stats_by_size_; }

  // Attach the owning shard's telemetry stream (nullptr = off). lease()
  // then counts every lease (deterministic: leases == admissions) and
  // samples free-list hits/misses and rebind costs (run-varying: reuse
  // depends on the shard's own eviction interleaving, so it stays out of
  // the counters plane).
  void set_telemetry(telemetry::ShardStream* stream) { telemetry_ = stream; }

 private:
  // One retained runtime: `seq` orders releases (LRU evicts the smallest,
  // LFU tie-breaks toward the largest), `reuses` counts free-list round
  // trips (the LFU key).
  struct FreeSlot {
    std::unique_ptr<SessionRuntime> rt;
    std::uint64_t seq = 0;
    std::uint64_t reuses = 0;
  };

  std::unique_ptr<SessionRuntime> take(std::size_t size, std::size_t slot);
  SizeStats& stats_for(std::size_t size);

  // Group sizes are tiny integers; a flat per-size free list beats a map.
  std::vector<std::vector<FreeSlot>> free_by_size_;
  std::vector<SizeStats> stats_by_size_;
  control::ShardControls controls_;
  std::uint64_t next_seq_ = 0;
  std::size_t leases_ = 0;
  std::size_t reuses_ = 0;
  telemetry::ShardStream* telemetry_ = nullptr;
};

// The pipeline configuration a scenario's sessions run with (shared by the
// live service and the trace replayer, which must agree exactly).
pipeline::PipelineOptions pipeline_options_for(const sim::GroupScenario& sc);

// --- measurement feed -------------------------------------------------------

// The client side of a session: the deterministic event stream its devices
// produce — dropout draws, closed-form motion, front-end sampling — with no
// serving-side state attached. The live FleetService couples producer and
// consumer in-process (each Session is paired with a feed on its thread); the
// ingest server's workload feeder runs the same feed on the producer side of
// a Transport. Both paths consume the identical measurement rng stream, so a
// served fleet is bit-identical to the synchronous one on the same
// (workload, master_seed).
class MeasurementFeed {
 public:
  MeasurementFeed(const sim::GroupScenario& scenario, std::uint64_t master_seed);

  // Build the front-end (admit time) / drop it (evict time). The rng stream
  // is seeded at construction; open/close only manage front-end memory so a
  // large fleet holds models only for its live sessions.
  void open();
  void close();

  enum class Event : std::uint8_t { kCoast, kMeasurement };

  // dt the pipeline expects for the *next* event (0.0 for the first).
  double next_dt_s() const {
    return events_done_ == 0 ? 0.0 : sc_->round_period_s;
  }
  // Produce the session's next event. For kMeasurement `out` holds the
  // sampled round; for a jammed dropout round it is untouched. Requires
  // open() and !exhausted().
  Event next(pipeline::RoundMeasurement& out);

  std::size_t events_done() const { return events_done_; }
  bool exhausted() const { return events_done_ >= sc_->lifetime_rounds; }
  const sim::GroupScenario& scenario() const { return *sc_; }

 private:
  const sim::GroupScenario* sc_;
  std::size_t events_done_ = 0;
  uwp::Rng rng_;  // the session's private measurement stream
  std::unique_ptr<pipeline::MeasurementModel> model_;
  pipeline::ClosedFormModel* closed_form_ = nullptr;  // owned via model_
  std::shared_ptr<const des::MobilityModel> mobility_;  // closed-form motion
};

// --- session ----------------------------------------------------------------

// Where one tenancy's side effects go. Every field is optional: `recorder`
// captures the session's trace, `telemetry` receives the admit/coast/evict
// counters and is bound into the pipeline for stage spans (the caller sets
// its virtual time before each event), and `latencies` receives the
// wall-clock of each run_round.
struct SessionHooks {
  SessionRecorder* recorder = nullptr;
  telemetry::ShardStream* telemetry = nullptr;
  std::vector<double>* latencies = nullptr;
};

// The serving half of one session and the only executor of its lifecycle:
// admit (lease a warm runtime) -> run_round / coast per event -> evict
// (return it). FleetService, Server and Replayer all drive this class and
// differ only in how they fill measurement() — a MeasurementFeed on the
// same thread, a decoded ingest frame, a decoded trace record — so a
// served or replayed session cannot take a different code path than a live
// one. A session may be re-admitted after an evict (the server does so when
// frames follow a kBye); metrics and the solver stream carry over.
class Session {
 public:
  Session(const sim::GroupScenario& scenario, std::uint64_t master_seed);

  const sim::GroupScenario& scenario() const { return *sc_; }
  bool active() const { return rt_ != nullptr; }
  const SessionMetrics& metrics() const { return metrics_; }
  SessionMetrics take_metrics() { return std::move(metrics_); }

  // Lease a runtime from `arena` and start a tenancy whose events go to
  // `hooks` until evict(), which returns the runtime (requires active()).
  void admit(ShardArena& arena, const SessionHooks& hooks);
  void evict(ShardArena& arena);

  // The buffer the next run_round consumes (requires active()).
  pipeline::RoundMeasurement& measurement() { return rt_->meas; }

  // A round that never reached the pipeline (device-side dropout or a
  // server-side shed): the tracker coasts.
  void coast(double dt_s);

  // Run measurement() through the pipeline as round `round` (the session's
  // measurement index: the trace id and the recorded round number). Arms the
  // trace, records the pre-quantization measurement, times the round, folds
  // it into metrics(), and records the result. Returns the result record —
  // the one the recorder captured, built whether or not one is attached.
  const RoundRecord& run_round(std::uint32_t round, double dt_s);

  // Apply the control plane's result-neutral pipeline knobs to a live
  // session (no-op unless active). Called at control-window boundaries.
  void apply_controls(const control::ShardControls& controls);

 private:
  const sim::GroupScenario* sc_;
  uwp::Rng solve_rng_;
  std::unique_ptr<SessionRuntime> rt_;
  SessionHooks hooks_;
  SessionMetrics metrics_;
  RoundRecord record_;
};

}  // namespace uwp::fleet

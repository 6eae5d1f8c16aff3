// The leader-side round pipeline — the single owner of the chain
//   §2.4 payload quantization -> proto::RangingSolver -> core::Localizer ->
//   (optional) core::GroupTracker -> per-device error metrics
// for every front-end. sim::ScenarioRunner and des::DesScenario are thin
// adapters over this class; new scenario front-ends plug in a
// MeasurementModel and inherit the whole chain. All solver scratch lives in
// workspaces owned here, so a steady-state round performs near-zero heap
// allocations.
#pragma once

#include <span>
#include <vector>

#include "core/localizer.hpp"
#include "core/tracker.hpp"
#include "pipeline/measurement.hpp"
#include "proto/payload_codec.hpp"
#include "proto/ranging_solver.hpp"

namespace uwp::telemetry {
class ShardStream;
enum class TraceOp : std::uint8_t;
}

namespace uwp::pipeline {

struct PipelineOptions {
  // Protocol configuration with the water's TRUE sound speed (what the
  // measurement produced); the solver runs at true speed + the offset below.
  proto::ProtocolConfig protocol{};
  // Apply the §2.4 payload quantization (2-sample resolution) to the
  // reported timestamps before solving.
  bool quantize_payload = true;
  // Leader-side configured sound speed offset (§2 misestimation error).
  double sound_speed_error_mps = 22.0;
  core::LocalizerOptions localizer{};
  // Run the continuous-tracking stage (per-diver Kalman filters).
  bool track = false;
  core::TrackerConfig tracker{};
  // When >= 0, each round's tracker measurement noise is the localization's
  // normalized stress plus this offset (meters) — noisy rounds get less
  // Kalman gain. Negative = use TrackerConfig::measurement_sigma_m as is.
  double tracker_stress_sigma_offset_m = -1.0;
};

// One round's outputs. Returned by reference from run_round and reused
// across rounds; copy out whatever must outlive the next call.
struct RoundOutput {
  bool localized = false;
  proto::RangingSolution ranging;
  core::LocalizationResult localization;
  // The exact localization input used (distances, weights, depths, pointing,
  // votes) so ablations can re-localize the same measurements.
  core::LocalizationInput localizer_input;
  // Per-device horizontal errors vs ground truth; entry 0 (leader) = 0, NaN
  // when unavailable.
  std::vector<double> error_2d;
  std::vector<double> tracked_error_2d;  // NaN when track is off / cold
  // Per measured link |estimated - true| 1D distance errors (diagnostics).
  std::vector<double> ranging_errors;
};

class RoundPipeline {
 public:
  explicit RoundPipeline(PipelineOptions opts);

  const PipelineOptions& options() const { return opts_; }
  const core::GroupTracker& tracker() const { return tracker_; }

  // Forget cross-round state (the tracker); solver workspaces stay warm.
  void reset();

  // Rebind this pipeline to a new session's options, keeping the solver
  // workspaces' storage warm. This is the arena-reuse entry point for the
  // fleet layer: when one positioning group is evicted, its pipeline slot is
  // rebound to the next admitted group (usually of the same size, so the
  // warmed workspace capacity carries over) instead of being reallocated.
  // Equivalent to *this = RoundPipeline(opts) except for retained capacity;
  // throws std::invalid_argument like the constructor.
  void rebind(const PipelineOptions& opts);

  // Retune the outlier search's fan-out without a full rebind — the control
  // plane's solver knob. The pool it sizes belongs to the thread that runs
  // the round, not to this pipeline. Result-neutral: the search is
  // bit-identical at any thread count, so this never changes outputs, only
  // wall-clock. No-op when `n` is 0 or already matches.
  void set_search_threads(std::size_t n);

  // The §2.4 payload quantization table this pipeline applies, exposed so
  // codecs (fleet wire codec, trace tooling) stay in sync with the round
  // chain's on-the-wire resolution.
  const proto::PayloadCodecConfig& codec_config() const { return codec_; }

  // Attach the owning shard's/worker's telemetry stream (nullptr = off;
  // the default). run_round then records one span per stage (predict,
  // quantize, ranging, localize, track) plus the round span, and the
  // round/localized/solver-iteration counters. The binding survives
  // rebind() on purpose: an arena-reused pipeline keeps reporting into the
  // shard that owns it.
  void set_telemetry(telemetry::ShardStream* stream) { telemetry_ = stream; }

  // Arm the causal trace for the next round: that round's spans are also
  // recorded as trace spans tagged `trace_id` (the stages as children of
  // the round-root span) on the attached stream. finish_round() disarms,
  // so coasts and untraced rounds between explicit arms trace nothing.
  // No-op when the stream is null or its trace plane is off.
  void set_trace(std::uint64_t trace_id) { trace_id_ = trace_id; }

  // Process one measurement. `dt_s` is the time since the previous round
  // (tracker prediction horizon; ignored when tracking is off). Payload
  // quantization mutates m.protocol in place — afterwards it holds exactly
  // the table the leader decoded. The returned reference stays valid until
  // the next run_round/run_batch call.
  const RoundOutput& run_round(RoundMeasurement& m, uwp::Rng& rng, double dt_s = 0.0);

  // Stage-sliced round execution — the chain run_round composes, exposed so
  // a profiler can time each stage of a round on its own (perfbench's traced
  // runner does). Protocol per round, in order:
  //   begin_round(dt_s)                 tracker predict (warm-start basis)
  //   stage_quantize(m)                 §2.4 payload quantization
  //   stage_ranging(m)                  timestamp table -> distance matrix
  //   stage_localize(m, rng, d, w)      SMACOF + Algorithm 1 + ambiguity;
  //                                     d/w are row-major n*n views of the
  //                                     distance/weight matrices (usually
  //                                     output().ranging's)
  //   stage_track(m)                    Kalman update + tracked errors
  //   finish_round()                    round counters + round span
  // The results are bit-identical to run_round: stages only communicate
  // through this pipeline's own state. With telemetry attached, each
  // stage's span runs from where the previous one ended (begin_round for
  // predict) to the end of its own call, so the stage spans partition
  // begin_round -> last stage, and the round span runs begin_round ->
  // finish_round.
  void begin_round(double dt_s);
  void stage_quantize(RoundMeasurement& m);
  void stage_ranging(RoundMeasurement& m);
  void stage_localize(RoundMeasurement& m, uwp::Rng& rng,
                      std::span<const double> distances,
                      std::span<const double> weights);
  void stage_track(RoundMeasurement& m);
  const RoundOutput& finish_round();

  // The last round's outputs (valid between stage calls of a round too).
  const RoundOutput& output() const { return out_; }

  // A round that never happened (e.g. jammed by noise): advance the tracker
  // so it coasts on its motion model.
  void coast(double dt_s);

  // Batched entry point for sim::SweepRunner trials: run `rounds`
  // measure->solve rounds of `model`, appending every finite raw per-device
  // error to `samples`. `round_dt_s` is the tracker prediction interval
  // between consecutive rounds.
  void run_batch(MeasurementModel& model, std::size_t rounds, uwp::Rng& rng,
                 std::vector<double>& samples, double round_dt_s = 0.0);

 private:
  // Closes `op`'s span at the current stage edge and moves the edge.
  void end_stage(telemetry::TraceOp op);

  PipelineOptions opts_;
  proto::RangingSolver solver_;
  proto::PayloadCodecConfig codec_;
  core::Localizer localizer_;
  core::GroupTracker tracker_;
  core::LocalizerWorkspace loc_ws_;
  std::vector<std::optional<Vec2>> tracker_update_;
  RoundMeasurement batch_meas_;
  RoundOutput out_;
  telemetry::ShardStream* telemetry_ = nullptr;
  // Cross-round warm start: true when the previous event was a localized,
  // tracked round (cleared on reset/rebind/coast and failed rounds), so the
  // tracker's predicted geometry is a trustworthy SMACOF seed.
  bool warm_valid_ = false;
  std::vector<Vec2> warm_init_;
  std::uint64_t trace_id_ = 0;  // armed trace id; 0 = not tracing
  double round_ts0_ = 0.0;      // round span start (collector epoch)
  double stage_ts0_ = 0.0;      // current stage span start
};

}  // namespace uwp::pipeline

#include "pipeline/round_pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "telemetry/collector.hpp"

namespace uwp::pipeline {

namespace {
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

proto::ProtocolConfig solver_config(const PipelineOptions& opts) {
  proto::ProtocolConfig cfg = opts.protocol;
  cfg.sound_speed_mps += opts.sound_speed_error_mps;
  return cfg;
}

proto::PayloadCodecConfig make_codec_config(const PipelineOptions& opts) {
  proto::PayloadCodecConfig cfg;
  cfg.protocol = opts.protocol;
  return cfg;
}
}  // namespace

RoundPipeline::RoundPipeline(PipelineOptions opts)
    : opts_(opts),
      solver_(solver_config(opts)),
      codec_(make_codec_config(opts)),
      localizer_(opts.localizer),
      tracker_(opts.protocol.num_devices, opts.tracker) {
  if (opts_.protocol.num_devices < 2)
    throw std::invalid_argument("RoundPipeline: need >= 2 devices");
}

void RoundPipeline::reset() {
  tracker_ = core::GroupTracker(opts_.protocol.num_devices, opts_.tracker);
  warm_valid_ = false;
}

void RoundPipeline::rebind(const PipelineOptions& opts) {
  if (opts.protocol.num_devices < 2)
    throw std::invalid_argument("RoundPipeline: need >= 2 devices");
  opts_ = opts;
  solver_ = proto::RangingSolver(solver_config(opts));
  codec_ = make_codec_config(opts);
  localizer_ = core::Localizer(opts.localizer);
  tracker_ = core::GroupTracker(opts.protocol.num_devices, opts.tracker);
  warm_valid_ = false;
}

void RoundPipeline::set_search_threads(std::size_t n) {
  if (n == 0 || n == opts_.localizer.outlier.search_threads) return;
  opts_.localizer.outlier.search_threads = n;
  localizer_ = core::Localizer(opts_.localizer);
}

bool RoundPipeline::tracing() const {
  return trace_id_ != 0 && telemetry_ != nullptr &&
         telemetry_->trace_enabled();
}

double RoundPipeline::trace_begin() const {
  return tracing() ? telemetry_->trace_now() : 0.0;
}

void RoundPipeline::trace_emit(telemetry::TraceOp op, double ts0_s) {
  if (tracing())
    telemetry_->trace_span(trace_id_, op, telemetry::TraceOp::kRound, ts0_s);
}

void RoundPipeline::coast(double dt_s) {
  tracker_.predict(dt_s);
  // A coast gap means the predicted geometry has drifted unverified; the
  // next round re-seeds from cold classical MDS.
  warm_valid_ = false;
}

const RoundOutput& RoundPipeline::run_round(RoundMeasurement& m, uwp::Rng& rng,
                                            double dt_s) {
  begin_round(dt_s);
  stage_quantize(m);
  stage_ranging(m);
  stage_localize(m, rng, out_.ranging.distances.data(), out_.ranging.weights.data());
  stage_track(m);
  return finish_round();
}

void RoundPipeline::begin_round(double dt_s) {
  round_elapsed_ = 0.0;
  trace_ts0_ = trace_begin();
  // Tracker prediction runs first (it used to sit with the update after
  // localization — same predict/update sequence either way) so the predicted
  // geometry can warm-start the localize stage.
  if (opts_.track) {
    telemetry::SpanTimer span(telemetry_, telemetry::Stage::kTrack);
    tracker_.predict(dt_s);
    round_elapsed_ += span.stop();
  }
}

void RoundPipeline::stage_quantize(RoundMeasurement& m) {
  // Payload quantization (§2.4): timestamps ride to the leader as 10-bit
  // slot-relative deltas at 2-sample resolution.
  const double tts = trace_begin();
  telemetry::SpanTimer span(telemetry_, telemetry::Stage::kQuantize);
  if (opts_.quantize_payload) proto::quantize_run_payload(m.protocol, codec_);
  round_elapsed_ += span.stop();
  trace_emit(telemetry::TraceOp::kQuantize, tts);
}

void RoundPipeline::stage_ranging(RoundMeasurement& m) {
  const std::size_t n = opts_.protocol.num_devices;
  const double tts = trace_begin();
  telemetry::SpanTimer span(telemetry_, telemetry::Stage::kRanging);
  // Pairwise distances from the timestamp table.
  solver_.solve_into(out_.ranging, m.protocol);

  // Per-link 1D ranging diagnostics against the true geometry.
  out_.ranging_errors.clear();
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      if (out_.ranging.weights(i, j) > 0.0) {
        const double true_d = distance(m.truth_pos[i], m.truth_pos[j]);
        out_.ranging_errors.push_back(std::abs(out_.ranging.distances(i, j) - true_d));
      }
  round_elapsed_ += span.stop();
  trace_emit(telemetry::TraceOp::kRanging, tts);
}

void RoundPipeline::stage_localize(RoundMeasurement& m, uwp::Rng& rng,
                                   std::span<const double> distances,
                                   std::span<const double> weights) {
  const std::size_t n = opts_.protocol.num_devices;
  out_.localizer_input.distances.assign(n, n);
  out_.localizer_input.weights.assign(n, n);
  std::copy(distances.begin(), distances.end(),
            out_.localizer_input.distances.data().begin());
  std::copy(weights.begin(), weights.end(),
            out_.localizer_input.weights.data().begin());
  out_.localizer_input.depths = m.depths;
  out_.localizer_input.pointing_bearing_rad = m.pointing_bearing_rad;
  out_.localizer_input.votes = m.votes;

  out_.error_2d.assign(n, kNaN);
  out_.tracked_error_2d.assign(n, kNaN);
  out_.error_2d[0] = 0.0;

  // Cross-round warm start: when the previous round localized and updated
  // the tracker, seed SMACOF from the predicted geometry (leader pinned at
  // the origin) instead of cold classical MDS. SMACOF only sees pairwise
  // distances, so the output-frame prediction is a valid seed; ambiguity
  // resolution re-normalizes the frame afterwards as usual.
  bool warm = opts_.track && warm_valid_;
  if (warm) {
    warm_init_.resize(n);
    warm_init_[0] = {0.0, 0.0};
    for (std::size_t i = 1; i < n; ++i) {
      const core::DiverTrack& track = tracker_.track(i);
      if (!track.initialized()) {
        warm = false;
        break;
      }
      warm_init_[i] = track.position();
    }
  }

  const double tts = trace_begin();
  telemetry::SpanTimer span(telemetry_, telemetry::Stage::kLocalize);
  try {
    localizer_.localize_into(out_.localization, out_.localizer_input, rng, loc_ws_,
                             warm ? &warm_init_ : nullptr);
    // localized => finite: a hostile measurement (Inf or absurd timestamps,
    // a NaN bearing) can solve to non-finite positions. Such a round fails,
    // which also keeps it out of the tracker and the next warm start.
    out_.localized = true;
    for (const Vec3& p : out_.localization.positions)
      if (!std::isfinite(p.x) || !std::isfinite(p.y) || !std::isfinite(p.z))
        out_.localized = false;
  } catch (const std::exception&) {
    out_.localized = false;
  }
  round_elapsed_ += span.stop();
  trace_emit(telemetry::TraceOp::kLocalize, tts);
  if (telemetry_ != nullptr)
    telemetry_->count(warm ? telemetry::Counter::kWarmStartHits
                           : telemetry::Counter::kWarmStartMisses);

  if (out_.localized) {
    for (std::size_t i = 1; i < n; ++i)
      out_.error_2d[i] = distance(out_.localization.positions[i].xy(), m.truth_xy[i]);
  }
}

void RoundPipeline::stage_track(RoundMeasurement& m) {
  if (!opts_.track) return;
  const std::size_t n = opts_.protocol.num_devices;
  // Tracking: coast through failed rounds, fuse successful ones (the predict
  // half already ran in begin_round).
  const double tts = trace_begin();
  telemetry::SpanTimer span(telemetry_, telemetry::Stage::kTrack);
  if (out_.localized) {
    tracker_update_.assign(n, std::nullopt);
    for (std::size_t i = 1; i < n; ++i)
      tracker_update_[i] = out_.localization.positions[i].xy();
    const double sigma =
        opts_.tracker_stress_sigma_offset_m >= 0.0
            ? out_.localization.normalized_stress + opts_.tracker_stress_sigma_offset_m
            : -1.0;
    tracker_.update(tracker_update_, sigma);
  }
  for (std::size_t i = 1; i < n; ++i) {
    const core::DiverTrack& track = tracker_.track(i);
    if (track.initialized())
      out_.tracked_error_2d[i] = distance(track.position(), m.truth_xy[i]);
  }
  round_elapsed_ += span.stop();
  trace_emit(telemetry::TraceOp::kTrack, tts);
  warm_valid_ = out_.localized;
}

const RoundOutput& RoundPipeline::finish_round() {
  telemetry::ShardStream* const tel = telemetry_;
  if (tel != nullptr) {
    if (tel->timing_enabled()) tel->span(telemetry::Stage::kRound, round_elapsed_);
    tel->count(telemetry::Counter::kRounds);
    if (out_.localized) {
      tel->count(telemetry::Counter::kLocalized);
      tel->count(telemetry::Counter::kSolverIterations,
                 static_cast<std::uint64_t>(out_.localization.solver_iterations));
      tel->count(telemetry::Counter::kOutlierCandidatesPruned,
                 static_cast<std::uint64_t>(out_.localization.candidates_pruned));
    } else {
      tel->count(telemetry::Counter::kLocalizeFailures);
    }
  }
  if (tracing()) {
    // Root span: wall time from begin_round to here.
    telemetry_->trace_span(trace_id_, telemetry::TraceOp::kRound,
                           telemetry::TraceOp::kNone, trace_ts0_);
  }
  trace_id_ = 0;
  return out_;
}

void RoundPipeline::run_batch(MeasurementModel& model, std::size_t rounds,
                              uwp::Rng& rng, std::vector<double>& samples,
                              double round_dt_s) {
  for (std::size_t r = 0; r < rounds; ++r) {
    model.measure(batch_meas_, rng);
    const RoundOutput& out =
        run_round(batch_meas_, rng, r == 0 ? 0.0 : round_dt_s);
    for (std::size_t i = 1; i < out.error_2d.size(); ++i)
      if (!std::isnan(out.error_2d[i])) samples.push_back(out.error_2d[i]);
  }
}

}  // namespace uwp::pipeline

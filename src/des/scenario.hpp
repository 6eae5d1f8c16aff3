// Multi-round packet-level scenario driver: the DES counterpart of
// sim::ScenarioRunner. Each round the leader opens the slot schedule on the
// shared AcousticMedium, the ProtocolNode state machines produce a local
// timestamp table exactly as firmware would, and DesSessionSource — the DES
// implementation of pipeline::MeasurementModel (des/session_source.hpp) —
// assembles it (plus depths, pointing, and flip votes) into a
// pipeline::RoundMeasurement consumed by the shared pipeline::RoundPipeline
// (quantize -> proto::RangingSolver -> core::Localizer -> core::GroupTracker
// -> error metrics). What this adds over the closed form: many rounds,
// motion *during* a round, half-duplex/collision losses, range-gated links,
// and packet loss that unfolds over time.
//
// Determinism: a run consumes only its caller's uwp::Rng (arrival errors,
// sensor noise, votes, localizer) in event order, which the scheduler makes
// stable — so a DesScenario trial inside sim::SweepRunner is bit-identical
// at any thread count.
#pragma once

#include <memory>
#include <vector>

#include "core/localizer.hpp"
#include "core/tracker.hpp"
#include "des/medium.hpp"
#include "des/mobility.hpp"
#include "pipeline/arrival_error.hpp"
#include "proto/ranging_solver.hpp"
#include "sensors/depth_sensor_model.hpp"
#include "sensors/pointing_model.hpp"
#include "sim/trace.hpp"

namespace uwp::des {

struct DesScenarioConfig {
  proto::ProtocolConfig protocol{};  // num_devices must equal node count
  std::size_t rounds = 10;
  // Gap between round starts; 0 = auto (worst-case relay round trip plus a
  // packet and a settling margin, so rounds never overlap).
  double round_period_s = 0.0;
  double max_range_m = 0.0;  // medium range gate (0 = connectivity only)

  // Fast per-packet arrival-error model (the same calibrated Gaussian
  // sim::RoundOptions uses in fast mode; sigma grows with range).
  // ideal_arrivals disables it entirely — the cross-validation setting.
  bool ideal_arrivals = false;
  pipeline::ArrivalErrorModel arrival{};

  bool quantize_payload = true;
  // Leader-side configured sound speed offset (§2 misestimation error).
  double sound_speed_error_mps = 22.0;

  sensors::DepthSensorModel depth_sensor =
      sensors::DepthSensorModel::phone_pressure_in_pouch();
  sensors::PointingModel pointing{};
  core::LocalizerOptions localizer{};
  core::TrackerConfig tracker{};
};

struct DesRound {
  std::size_t index = 0;
  double t_start_s = 0.0;
  proto::ProtocolRun protocol;  // the round's timestamp table
  proto::RangingSolution ranging;
  bool localized = false;
  core::LocalizationResult localization;
  // Ground truth (leader-origin frame) sampled at the round start.
  std::vector<Vec2> truth_xy;
  // Per-device horizontal errors; NaN when unavailable (leader entry 0).
  std::vector<double> error_2d;
  std::vector<double> tracked_error_2d;
  MediumStats medium;  // per-round packet accounting
};

struct DesScenarioResult {
  std::vector<DesRound> rounds;
  std::size_t localized_rounds = 0;
  std::size_t total_collisions = 0;
  std::size_t total_half_duplex_drops = 0;
  std::size_t total_deliveries = 0;
  // All finite per-device errors flattened in round order — ready for
  // sim::metrics / SweepRunner aggregation.
  std::vector<double> errors;
  std::vector<double> tracked_errors;
};

// Throws std::invalid_argument unless a DES world's parts agree: a mobility
// model of >= 2 nodes, one audio config per node, protocol.num_devices equal
// to the node count, and an n x n connectivity matrix.
void check_world(const DesScenarioConfig& cfg, const MobilityModel* mobility,
                 std::size_t audio_configs, const Matrix& connectivity);

// Gap between round starts: cfg.round_period_s, or when that is 0 the
// worst-case relay round trip plus a packet and a settling margin.
double round_period_s(const DesScenarioConfig& cfg);

class DesScenario {
 public:
  // `audio[i]` is node i's clock model; `connectivity(rx, tx) > 0` gates
  // links (pass Matrix(n, n, 1.0) and a max_range_m for pure range gating —
  // the diagonal is ignored). The mobility model defines node count and is
  // shared, not owned.
  DesScenario(DesScenarioConfig cfg, std::shared_ptr<const MobilityModel> mobility,
              std::vector<audio::AudioTimingConfig> audio, Matrix connectivity);

  const DesScenarioConfig& config() const { return cfg_; }
  std::size_t size() const { return audio_.size(); }
  double round_period_s() const { return des::round_period_s(cfg_); }

  // Run all rounds through a DesSessionSource built on the stack.
  // Thread-safe for concurrent calls with distinct Rngs (all mutable state
  // lives on the stack). `trace`, when given, receives every packet event
  // of this run (serial use only).
  DesScenarioResult run(uwp::Rng& rng, sim::PacketTrace* trace = nullptr) const;

 private:
  DesScenarioConfig cfg_;
  std::shared_ptr<const MobilityModel> mobility_;
  std::vector<audio::AudioTimingConfig> audio_;
  Matrix connectivity_;
};

}  // namespace uwp::des

#include "des/scenario.hpp"

#include <cmath>
#include <stdexcept>

#include "des/session_source.hpp"
#include "pipeline/round_pipeline.hpp"

namespace uwp::des {

void check_world(const DesScenarioConfig& cfg, const MobilityModel* mobility,
                 std::size_t audio_configs, const Matrix& connectivity) {
  if (mobility == nullptr) throw std::invalid_argument("des: null mobility");
  const std::size_t n = mobility->size();
  if (n < 2) throw std::invalid_argument("des: need >= 2 nodes");
  if (audio_configs != n)
    throw std::invalid_argument("des: audio config count != node count");
  if (cfg.protocol.num_devices != n)
    throw std::invalid_argument("des: protocol.num_devices != node count");
  if (connectivity.rows() != n || connectivity.cols() != n)
    throw std::invalid_argument("des: connectivity shape mismatch");
}

double round_period_s(const DesScenarioConfig& cfg) {
  if (cfg.round_period_s > 0.0) return cfg.round_period_s;
  // Even a wrap-around relay slot has landed by the worst-case round trip;
  // one packet length covers the tail transmission, the margin covers
  // propagation and audio scheduling slop.
  return proto::round_trip_worst_case(cfg.protocol) + 2.0 * cfg.protocol.t_packet_s + 1.0;
}

DesScenario::DesScenario(DesScenarioConfig cfg,
                         std::shared_ptr<const MobilityModel> mobility,
                         std::vector<audio::AudioTimingConfig> audio,
                         Matrix connectivity)
    : cfg_(cfg),
      mobility_(std::move(mobility)),
      audio_(std::move(audio)),
      connectivity_(std::move(connectivity)) {
  check_world(cfg_, mobility_.get(), audio_.size(), connectivity_);
  if (cfg_.rounds == 0) throw std::invalid_argument("DesScenario: rounds == 0");
}

DesScenarioResult DesScenario::run(uwp::Rng& rng, sim::PacketTrace* trace) const {
  const std::size_t n = size();
  DesSessionSource source(cfg_, mobility_, audio_, connectivity_);
  source.set_trace(trace);
  const double period = source.round_period_s();

  // The shared leader-side chain, with tracking enabled.
  pipeline::PipelineOptions popts;
  popts.protocol = cfg_.protocol;
  popts.quantize_payload = cfg_.quantize_payload;
  popts.sound_speed_error_mps = cfg_.sound_speed_error_mps;
  popts.localizer = cfg_.localizer;
  popts.track = true;
  popts.tracker = cfg_.tracker;
  pipeline::RoundPipeline pipe(popts);

  pipeline::RoundMeasurement meas;

  DesScenarioResult out;
  out.rounds.reserve(cfg_.rounds);

  for (std::size_t r = 0; r < cfg_.rounds; ++r) {
    source.measure(meas, rng);
    const pipeline::RoundOutput& po =
        pipe.run_round(meas, rng, r == 0 ? 0.0 : period);

    DesRound round;
    round.index = r;
    round.t_start_s = static_cast<double>(r) * period;
    round.medium = source.medium_stats();
    round.protocol = meas.protocol;  // post-quantization leader view
    round.ranging = po.ranging;
    round.localized = po.localized;
    round.localization = po.localization;
    round.truth_xy = meas.truth_xy;
    round.error_2d = po.error_2d;
    round.tracked_error_2d = po.tracked_error_2d;

    for (std::size_t i = 1; i < n; ++i) {
      if (!std::isnan(round.error_2d[i])) out.errors.push_back(round.error_2d[i]);
      if (!std::isnan(round.tracked_error_2d[i]))
        out.tracked_errors.push_back(round.tracked_error_2d[i]);
    }

    out.localized_rounds += round.localized ? 1 : 0;
    out.total_collisions += round.medium.collisions;
    out.total_half_duplex_drops += round.medium.half_duplex_drops;
    out.total_deliveries += round.medium.deliveries;
    out.rounds.push_back(std::move(round));
  }
  return out;
}

}  // namespace uwp::des

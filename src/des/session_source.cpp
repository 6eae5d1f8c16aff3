#include "des/session_source.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace uwp::des {

namespace {
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
}

DesSessionSource::DesSessionSource(DesScenarioConfig cfg,
                                   std::shared_ptr<const MobilityModel> mobility,
                                   std::vector<audio::AudioTimingConfig> audio,
                                   Matrix connectivity)
    : cfg_(cfg),
      mobility_(std::move(mobility)),
      audio_(std::move(audio)),
      connectivity_(std::move(connectivity)) {
  check_world(cfg_, mobility_.get(), audio_.size(), connectivity_);
  period_ = des::round_period_s(cfg_);

  MediumConfig mc;
  mc.sound_speed_mps = cfg_.protocol.sound_speed_mps;
  mc.packet_duration_s = cfg_.protocol.t_packet_s;
  mc.max_range_m = cfg_.max_range_m;
  medium_ = std::make_unique<AcousticMedium>(mc, &sim_, mobility_.get(), connectivity_);

  // Arrival detection error, drawn per packet in event order (deterministic
  // given the scheduler's stable ordering) from whichever rng the current
  // measure() call received. The shared ArrivalErrorModel mirrors
  // sim::ScenarioRunner fast mode.
  if (!cfg_.ideal_arrivals) {
    medium_->set_error_hook([this](std::size_t at, std::size_t from) {
      const double t = sim_.now();
      const double range =
          distance(mobility_->position(at, t), mobility_->position(from, t));
      return cfg_.arrival.sample_seconds(range, cfg_.protocol.sound_speed_mps,
                                         *round_rng_);
    });
  }

  const std::size_t n = mobility_->size();
  nodes_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    nodes_.emplace_back(i, cfg_.protocol, audio_[i], &sim_, medium_.get());
  medium_->set_sink([this](std::size_t rx, std::size_t src, double detected) {
    nodes_[rx].on_packet(src, detected);
  });
}

void DesSessionSource::measure(pipeline::RoundMeasurement& out, uwp::Rng& rng) {
  round_rng_ = &rng;
  const std::size_t n = nodes_.size();
  const double t0 = static_cast<double>(round_) * period_;
  // Same expression as the next round's t0 — `t0 + period` can differ
  // from it by one ulp, which would put the next leader event "in the
  // past" after run_until() advanced the clock.
  const double t_end = static_cast<double>(round_ + 1) * period_;
  medium_->begin_round(round_);
  for (ProtocolNode& node : nodes_) node.begin_round(t0);
  sim_.run_until(t_end);
  round_rng_ = nullptr;

  // Assemble the round's timestamp table from the per-node state machines.
  out.protocol.timestamps.assign(n, n, kNaN);
  out.protocol.heard.assign(n, n, 0.0);
  out.protocol.sync_ref.assign(n, std::numeric_limits<std::size_t>::max());
  out.protocol.tx_global.assign(n, kNaN);
  for (std::size_t i = 0; i < n; ++i) {
    const NodeRoundState& st = nodes_[i].state();
    out.protocol.sync_ref[i] = st.sync_ref;
    // Round-local transmit time, comparable to the closed form's
    // leader-at-zero convention.
    out.protocol.tx_global[i] =
        std::isnan(st.tx_global_s) ? kNaN : st.tx_global_s - t0;
    for (std::size_t j = 0; j < n; ++j) {
      if (!st.heard[j]) continue;
      out.protocol.timestamps(i, j) = st.timestamps[j];
      out.protocol.heard(i, j) = 1.0;
    }
  }
  out.protocol.round_duration_s =
      std::max(0.0, medium_->stats().last_activity_s - t0);

  // Ground truth at the round start (the paper evaluates each round as an
  // independent snapshot; a mover's intra-round drift becomes error).
  const Vec3 leader_pos = mobility_->position(0, t0);
  out.truth_pos.resize(n);
  out.truth_xy.resize(n);
  out.truth_depths.resize(n);
  out.depths.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Vec3 pos = mobility_->position(i, t0);
    out.truth_pos[i] = pos;
    out.truth_xy[i] = (pos - leader_pos).xy();
    out.truth_depths[i] = pos.z;
    out.depths[i] = cfg_.depth_sensor.read(pos.z, rng);
  }

  // Leader pointing toward node 1 plus fast-mode dual-mic flip votes
  // (the same reliability model sim::ScenarioRunner fast mode uses).
  const Vec2 to_dev1 = out.truth_xy[1];
  out.pointing_bearing_rad =
      cfg_.pointing.point(bearing(to_dev1), to_dev1.norm(), rng);
  out.votes.clear();
  for (std::size_t i = 2; i < n; ++i) {
    if (out.protocol.heard(0, i) <= 0.0) continue;
    const int sign = pipeline::fast_vote_sign(out.truth_xy[i], to_dev1, rng);
    if (sign != 0) out.votes.push_back({i, sign});
  }

  ++round_;
}

}  // namespace uwp::des

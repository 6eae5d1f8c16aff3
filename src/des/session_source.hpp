// The packet-level measurement front-end. DesSessionSource owns a whole DES
// world (event queue, medium, protocol-node state machines, mobility) and
// produces one round per measure() call across its lifetime, through the
// same pipeline::MeasurementModel contract every other front-end uses. A
// fleet session backed by full packet physics keeps one for the session's
// life, a drop-in for one backed by the closed form; DesScenario::run builds
// one on its stack for a batch run.
#pragma once

#include <memory>
#include <vector>

#include "des/medium.hpp"
#include "des/mobility.hpp"
#include "des/protocol_node.hpp"
#include "des/scenario.hpp"
#include "pipeline/measurement.hpp"
#include "sim/trace.hpp"

namespace uwp::des {

class DesSessionSource final : public pipeline::MeasurementModel {
 public:
  // Same construction contract as DesScenario (cfg.rounds is ignored — the
  // caller decides how many rounds to run). The mobility model is shared,
  // not owned. Non-movable: the medium, nodes and hooks hold pointers into
  // each other, so fleet arenas keep it behind a unique_ptr.
  DesSessionSource(DesScenarioConfig cfg, std::shared_ptr<const MobilityModel> mobility,
                   std::vector<audio::AudioTimingConfig> audio, Matrix connectivity);

  DesSessionSource(const DesSessionSource&) = delete;
  DesSessionSource& operator=(const DesSessionSource&) = delete;

  std::size_t size() const override { return nodes_.size(); }
  std::size_t rounds_run() const { return round_; }
  double round_period_s() const { return period_; }
  const MediumStats& medium_stats() const { return medium_->stats(); }

  // Every packet event of later rounds goes to `trace` (nullptr: none).
  void set_trace(sim::PacketTrace* trace) { medium_->set_trace(trace); }

  // Run one full slot-schedule round of the packet simulation and assemble
  // its timestamp table, depth readings, leader pointing and fast-model
  // flip votes. The rng drives per-packet arrival errors (in event order),
  // sensor noise and votes.
  void measure(pipeline::RoundMeasurement& out, uwp::Rng& rng) override;

 private:
  DesScenarioConfig cfg_;
  std::shared_ptr<const MobilityModel> mobility_;
  std::vector<audio::AudioTimingConfig> audio_;
  Matrix connectivity_;
  double period_ = 0.0;
  Simulator sim_;
  std::unique_ptr<AcousticMedium> medium_;
  std::vector<ProtocolNode> nodes_;
  std::size_t round_ = 0;
  uwp::Rng* round_rng_ = nullptr;  // valid only inside measure()
};

}  // namespace uwp::des

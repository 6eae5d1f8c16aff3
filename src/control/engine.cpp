#include "control/engine.hpp"

#include "util/hash.hpp"

namespace uwp::control {

ControlEngine::ControlEngine(const ControlConfig& cfg,
                             const ShardControls& baseline)
    : cfg_(cfg), baseline_(baseline), controls_(baseline) {}

void ControlEngine::bind_stream(telemetry::ShardStream* stream,
                                double window_span) {
  stream_ = stream;
  window_span_ = window_span;
}

void ControlEngine::observe_window(std::uint64_t window,
                                   telemetry::Snapshot snap) {
  using telemetry::Counter;
  // Mask the engine's own counters: a replayed counter plane has no live
  // engine stream, and re-execution must see byte-identical inputs.
  snap.counts[static_cast<std::size_t>(Counter::kControlWindows)] = 0;
  snap.counts[static_cast<std::size_t>(Counter::kControlActions)] = 0;

  // Fixed fold order; part of the determinism contract (the policies
  // compose through the shared ShardControls).
  ShardControls next = controls_;
  if (cfg_.arena) tune_arena(cfg_, snap, next);
  if (cfg_.shaper) tune_shaper(cfg_, baseline_, snap, next);
  if (cfg_.solver) tune_solver(cfg_, snap, next);

  std::uint64_t emitted = 0;
  const auto emit = [&](ActionKind kind, double value) {
    log_.actions.push_back(ControlAction{window, kind, value});
    ++emitted;
  };
  if (next.cache_policy != controls_.cache_policy)
    emit(ActionKind::kArenaCachePolicy,
         static_cast<double>(static_cast<std::uint8_t>(next.cache_policy)));
  if (next.arena_retain != controls_.arena_retain)
    emit(ActionKind::kArenaRetain, static_cast<double>(next.arena_retain));
  if (!same_bits(next.shaper_rate, controls_.shaper_rate))
    emit(ActionKind::kShaperRate, next.shaper_rate);
  if (!same_bits(next.shaper_burst, controls_.shaper_burst))
    emit(ActionKind::kShaperBurst, next.shaper_burst);
  if (next.shaper_max_defers != controls_.shaper_max_defers)
    emit(ActionKind::kShaperMaxDefers,
         static_cast<double>(next.shaper_max_defers));
  if (next.search_threads != controls_.search_threads)
    emit(ActionKind::kSearchThreads, static_cast<double>(next.search_threads));

  controls_ = next;
  ++log_.windows_observed;

  if (stream_ != nullptr) {
    // Decisions take effect in the *next* window; stamp the emissions there
    // so the observed window's sums stay final.
    stream_->set_time(static_cast<double>(window + 1) * window_span_);
    stream_->count(Counter::kControlWindows, 1);
    if (emitted > 0) stream_->count(Counter::kControlActions, emitted);
  }
}

ControlLog ControlEngine::reexecute(
    const ControlConfig& cfg, const ShardControls& baseline,
    const std::vector<telemetry::Snapshot>& snaps) {
  ControlEngine engine(cfg, baseline);
  for (const telemetry::Snapshot& snap : snaps)
    engine.observe_window(snap.window, snap);
  return engine.log_;
}

}  // namespace uwp::control

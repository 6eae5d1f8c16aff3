#include "telemetry/events.hpp"

namespace uwp::telemetry {

const char* to_string(Counter c) {
  switch (c) {
    case Counter::kRounds:
      return "rounds";
    case Counter::kLocalized:
      return "localized";
    case Counter::kCoasts:
      return "coasts";
    case Counter::kEvicts:
      return "evicts";
    case Counter::kAdmits:
      return "admits";
    case Counter::kSolverIterations:
      return "solver_iterations";
    case Counter::kOutlierCandidatesPruned:
      return "outlier_candidates_pruned";
    case Counter::kArenaLeases:
      return "arena_leases";
    case Counter::kIngestAdmitted:
      return "ingest_admitted";
    case Counter::kIngestShed:
      return "ingest_shed";
    case Counter::kIngestDeferred:
      return "ingest_deferred";
    case Counter::kWarmStartHits:
      return "warm_start_hits";
    case Counter::kWarmStartMisses:
      return "warm_start_misses";
    case Counter::kLocalizeFailures:
      return "localize_failures";
    case Counter::kAdmitDevices:
      return "admit_devices";
    case Counter::kEvictDevices:
      return "evict_devices";
    case Counter::kControlWindows:
      return "control_windows";
    case Counter::kControlActions:
      return "control_actions";
    case Counter::kCount_:
      break;
  }
  return "unknown";
}

const char* to_string(TraceOp op) {
  switch (op) {
    case TraceOp::kRound:
      return "round";
    case TraceOp::kIngest:
      return "ingest";
    case TraceOp::kQueue:
      return "queue";
    case TraceOp::kPredict:
      return "predict";
    case TraceOp::kQuantize:
      return "quantize";
    case TraceOp::kRanging:
      return "ranging";
    case TraceOp::kLocalize:
      return "localize";
    case TraceOp::kTrack:
      return "track";
    case TraceOp::kCount_:
      break;
    case TraceOp::kNone:
      return "none";
  }
  return "unknown";
}

const char* to_string(Sample s) {
  switch (s) {
    case Sample::kQueueDepth:
      return "queue_depth";
    case Sample::kArenaFreeHit:
      return "arena_free_hit";
    case Sample::kArenaFreeMiss:
      return "arena_free_miss";
    case Sample::kArenaRebindCost:
      return "arena_rebind_cost";
    case Sample::kCount_:
      break;
  }
  return "unknown";
}

}  // namespace uwp::telemetry

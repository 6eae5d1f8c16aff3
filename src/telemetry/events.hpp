// Typed telemetry events for the fleet observability plane.
//
// Every instrumented site emits one of three event families, and the family
// decides which side of the metrics-vs-timing JSON contract the data lands
// on (the same split uwp_run enforces for run metrics):
//
//   * Counter — deterministic occurrence counts keyed by *virtual* time
//     (fleet tick, or a served frame's t_s). Counters are accumulated
//     producer-locally and merged per virtual-time window, so their sums
//     are bit-identical at any shard/worker/thread count. They are never
//     dropped.
//   * TraceOp — the stages of a round's causal chain, from ingest through
//     the queue and every pipeline stage. One span record per stage feeds
//     both the producer's log-bucket histograms (wall-clock durations,
//     p50/p99/p999) and, for a traced round, the causal trace, whose
//     *structure* (which ops fired, virtual time) is deterministic while
//     wall-clock start/duration is not.
//   * Sample — run-varying scalar observations (live queue depth, arena
//     free-list hits) whose values depend on scheduling, not the spec.
//
// The Event struct is the flight recorder's 32-byte POD record; `ref`
// carries the trace id of a traced span.
#pragma once

#include <cstdint>

namespace uwp::telemetry {

// Deterministic occurrence counters (the "counters" JSON section).
enum class Counter : std::uint8_t {
  kRounds = 0,               // measurement rounds executed by a pipeline
  kLocalized,                // rounds that produced a localization fix
  kCoasts,                   // tracker coasts (dropouts + shed rounds)
  kEvicts,                   // session evictions (lifetime end / kBye)
  kAdmits,                   // session admissions (arena lease at admit tick)
  kSolverIterations,         // SMACOF iterations of the solves run (base + candidates)
  kOutlierCandidatesPruned,  // Algorithm 1 candidates skipped by the stress bound
  kArenaLeases,              // ShardArena::lease calls (admissions, all shards)
  kIngestAdmitted,           // shaper verdicts: measurement frames dispatched
  kIngestShed,               // shaper verdicts: measurement frames shed to coast
  kIngestDeferred,           // shaper verdicts: individual defer attempts
  kWarmStartHits,            // localize stages seeded from predicted geometry
  kWarmStartMisses,          // localize stages cold-seeded (admit/rebind/coast gap)
  kLocalizeFailures,         // rounds whose localize stage produced no fix
  kAdmitDevices,             // devices admitted (group size summed at admit)
  kEvictDevices,             // devices evicted (group size summed at evict)
  kControlWindows,           // control-plane windows observed by the policy engine
  kControlActions,           // control actions emitted (ControlLog entries)
  kCount_,
};
inline constexpr std::size_t kCounterCount =
    static_cast<std::size_t>(Counter::kCount_);
const char* to_string(Counter c);

// Run-varying scalar samples (the "timing" JSON section).
enum class Sample : std::uint8_t {
  kQueueDepth = 0,   // dispatch-queue occupancy at enqueue time
  kArenaFreeHit,     // free-list hit; value = group size served
  kArenaFreeMiss,    // free-list miss (cold construction); value = group size
  kArenaRebindCost,  // |leased size - requested size| on a free-list hit
  kCount_,
};
inline constexpr std::size_t kSampleCount =
    static_cast<std::size_t>(Sample::kCount_);
const char* to_string(Sample s);

// The stages of a round, one enum for the timing histograms and the causal
// trace alike. Each op occurs at most once per trace id, so a span is
// identified by (trace_id, op), and its parent is fixed by the op alone
// (parent_of). kNone marks a root.
enum class TraceOp : std::uint8_t {
  kRound = 0,  // begin_round -> finish_round wall time, root span
  kIngest,     // serve mode: frame decode + shaper verdict (ingest stream), root span
  kQueue,      // serve mode: dispatch-queue residency (dispatch -> round start)
  kPredict,    // pipeline stage slices, children of kRound: tracker predict
  kQuantize,   //   §2.4 payload quantization round trip
  kRanging,    //   arrival solve + ranging diagnostics
  kLocalize,   //   outlier search + localization
  kTrack,      //   tracker update + tracked errors
  kCount_,
  kNone = 255,
};
inline constexpr std::size_t kStageCount =
    static_cast<std::size_t>(TraceOp::kCount_);
const char* to_string(TraceOp op);

inline constexpr TraceOp parent_of(TraceOp op) {
  switch (op) {
    case TraceOp::kRound:
    case TraceOp::kIngest:
      return TraceOp::kNone;
    case TraceOp::kQueue:
      return TraceOp::kIngest;
    default:
      return TraceOp::kRound;
  }
}

enum class EventKind : std::uint8_t {
  kCounter = 0,
  kSpan = 1,
  kSample = 2,
};

// One flight-recorder slot. `id` is the Counter/TraceOp/Sample enum value
// for `kind`; `t` is the producer's virtual time at emission; `value` is
// the counter delta, span seconds, or sample value; `ref` is a traced
// span's trace id and 0 otherwise.
struct Event {
  EventKind kind = EventKind::kCounter;
  std::uint8_t id = 0;
  double t = 0.0;
  double value = 0.0;
  std::uint64_t ref = 0;
};

}  // namespace uwp::telemetry

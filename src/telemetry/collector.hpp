// ShardStream + Collector: the two halves of the fleet telemetry plane.
//
// One ShardStream per producer thread (a fleet lane, a server worker, or
// the ingest loop). It is the only store for everything its producer
// emits, on two planes with different guarantees:
//
//   * Counter pages — deterministic. count() accumulates into a producer-
//     local dense page indexed by (virtual-time window, Counter). The
//     collector merges pages in stream order, and because every counter
//     event carries virtual time (fleet tick / frame t_s), the per-window
//     sums are invariant to how sessions are partitioned across shards,
//     workers, or threads. This is the section uwp_run emits as "counters"
//     and CI diffs bit-for-bit.
//   * Stage spans and samples — run-varying. span_end() is the one record
//     of a stage: it feeds the stage's log-bucket histogram and, for a
//     traced round, the stream's trace spans. sample() records scalars the
//     same way. Nothing is queued and nothing is dropped, so the
//     histograms cover every round.
//
// Each stream also keeps its flight recorder: a bounded circular buffer
// of its most recent events, dumped when count() crosses an anomaly
// threshold.
//
// The Collector owns the streams and renders the final TelemetryReport:
// deterministic window Snapshots + totals, the streams' histograms merged
// in stream order, the trace spans, and the flight dumps.
//
// Threading: open() before producers start; each stream is written by
// exactly one thread; report() only after producers have joined (it reads
// the producer-local state, which is intentionally unsynchronized).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "telemetry/events.hpp"
#include "telemetry/histogram.hpp"
#include "telemetry/trace.hpp"

namespace uwp::telemetry {

// Flight recorder knobs. Each stream keeps a bounded circular buffer of its
// most recent events and snapshots it when an anomaly trigger fires, so
// tail incidents are debuggable after the fact. Thresholds are per-window
// counter sums: a trigger fires on the count() that raises its counter's
// page value from below the threshold to at or above it (0 never fires).
// Also the spec's telemetry.flight section (config::TelemetrySpec::flight).
struct FlightOptions {
  std::size_t capacity = 256;  // events retained per stream; 0 disables
  std::size_t max_dumps = 4;   // dump budget per stream
  std::uint64_t evict_storm = 8;        // kEvicts per window
  std::uint64_t shed_burst = 16;        // kIngestShed per window
  std::uint64_t localize_failures = 8;  // kLocalizeFailures per window
};

struct TelemetryOptions {
  bool enabled = false;
  // Stage span histograms read steady_clock at each span edge; disabling
  // `timing` keeps the deterministic counter plane while skipping every
  // sample, and every clock read unless `trace` is on.
  bool timing = true;
  // Snapshot window in virtual-time units (ticks for the fleet driver,
  // seconds for the ingest server — the factory scales by tick_period_s).
  double window = 16.0;
  // Causal round traces: the same span records, also kept per traced round
  // with its trace id. Off by default.
  bool trace = false;
  // Per-stream span cap (safety valve; overflow counts as trace_dropped).
  std::size_t trace_max_spans = 1 << 20;
  FlightOptions flight;
};

enum class FlightTrigger : std::uint8_t {
  kEvictStorm = 0,  // session evictions clustered in one window
  kShedBurst,       // shaper shed a burst of measurement frames
  kSolverStall,     // localize stages failing to produce fixes
};
const char* to_string(FlightTrigger t);

// One flight-recorder dump: the retained events of `stream` at the moment
// `trigger` fired, oldest first, ending with the triggering counter event.
struct FlightDump {
  std::size_t stream = 0;
  FlightTrigger trigger = FlightTrigger::kEvictStorm;
  double t = 0.0;            // virtual time of the triggering event
  std::uint64_t window = 0;  // snapshot window of the triggering event
  std::vector<Event> events;
};

// Per-window deterministic counter sums, merged across streams.
struct Snapshot {
  std::uint64_t window = 0;  // window index: floor(t / options.window)
  std::array<std::uint64_t, kCounterCount> counts{};
};

struct TelemetryReport {
  TelemetryOptions options;
  std::size_t streams = 0;
  // Deterministic plane: one Snapshot per window, dense from window 0.
  std::vector<Snapshot> snapshots;
  std::array<std::uint64_t, kCounterCount> totals{};
  // Run-varying plane: every stream's histograms, merged in stream order;
  // `spans` is indexed by TraceOp.
  std::array<Histogram, kStageCount> spans;
  std::array<Histogram, kSampleCount> samples;
  // Trace plane: producer-local spans concatenated in stream order. The
  // span *structure* (trace_structure_digest) is deterministic; ts/dur and
  // stream placement are not.
  std::vector<TraceSpan> trace;
  std::uint64_t trace_dropped = 0;  // spans lost to the per-stream cap
  // Flight-recorder dumps in stream order, each stream's in capture order.
  std::vector<FlightDump> flight;

  // Bit-equality of the deterministic plane (the ctest pin).
  bool counters_equal(const TelemetryReport& o) const;
};

class ShardStream {
 public:
  using Clock = std::chrono::steady_clock;

  ShardStream(const TelemetryOptions& opts, std::size_t index,
              Clock::time_point epoch);

  // Set the producer's current virtual time; subsequent count() calls land
  // in floor(t / window). Negative times clamp to window 0.
  void set_time(double t);

  void count(Counter c, std::uint64_t delta = 1);
  // A no-op when timing is off: samples belong to the run-varying plane.
  void sample(Sample s, double value);

  bool timing_enabled() const { return timing_; }
  bool trace_enabled() const { return trace_; }

  // The span record. Stamps are seconds since the collector epoch, shared
  // by every stream so cross-stream spans (ingest -> queue) align.
  // span_begin() returns a span's start stamp. span_end() closes `op`'s
  // span begun at `ts0_s`: it records the duration in the op's histogram
  // when timing is on, appends a TraceSpan {trace_id, op, virtual time,
  // ts0, duration} when the trace plane is on and `trace_id` is nonzero,
  // and keeps one flight-recorder event. It returns the end stamp, so the
  // next stage of a chain can start there without a read of its own. Each
  // call reads the clock once, and not at all (returning 0.0) when it has
  // nothing to record: timing and trace off, or, for span_end, timing off
  // and no trace id.
  double span_begin() const;
  double span_end(TraceOp op, double ts0_s, std::uint64_t trace_id);

  const std::vector<TraceSpan>& trace_spans() const { return trace_spans_; }
  std::uint64_t trace_dropped() const { return trace_dropped_; }

  // Consumer-side views (post-join only, except pages() under the window
  // barrier the control plane keeps).
  using CounterPage = std::array<std::uint64_t, kCounterCount>;
  const std::vector<CounterPage>& pages() const { return pages_; }
  const std::array<Histogram, kStageCount>& spans() const { return spans_; }
  const std::array<Histogram, kSampleCount>& samples() const { return samples_; }
  const std::vector<FlightDump>& flight_dumps() const { return dumps_; }

 private:
  double clock_s() const;  // seconds since the collector epoch
  void flight_record(const Event& e);
  void flight_dump(FlightTrigger trigger);

  double window_ = 16.0;
  bool timing_ = true;
  bool trace_ = false;
  std::size_t index_ = 0;
  std::size_t trace_max_ = 0;
  Clock::time_point epoch_;
  double time_ = 0.0;
  std::size_t window_index_ = 0;
  std::vector<CounterPage> pages_;
  std::array<Histogram, kStageCount> spans_;
  std::array<Histogram, kSampleCount> samples_;
  std::vector<TraceSpan> trace_spans_;
  std::uint64_t trace_dropped_ = 0;
  // Flight recorder: appended until `capacity` events, then overwritten
  // oldest first; `flight_next_` is the oldest slot once full (0 before).
  FlightOptions flight_;
  std::vector<Event> flight_ring_;
  std::size_t flight_next_ = 0;
  std::vector<FlightDump> dumps_;
};

class Collector {
 public:
  explicit Collector(const TelemetryOptions& opts);

  const TelemetryOptions& options() const { return opts_; }
  bool enabled() const { return opts_.enabled; }

  // Allocate `n` producer streams (invalidates previous ones). Call before
  // the producer threads start.
  void open(std::size_t n);
  std::size_t streams() const { return streams_.size(); }
  ShardStream& stream(std::size_t i) { return *streams_[i]; }

  // Final report: merges every stream's pages, histograms, trace spans and
  // flight dumps in stream order. Producers must have finished.
  TelemetryReport report() const;

  // Deterministic counter sums for one window, merged across streams in
  // stream order — the control plane's window hook. Callers must have a
  // happens-before edge with every producer whose page row `w` they read
  // (e.g. a barrier at the window boundary); streams that have not reached
  // window `w` simply contribute nothing.
  Snapshot window_snapshot(std::uint64_t w) const;
  // Highest window index any stream has written, plus one.
  std::size_t window_count() const;

 private:
  TelemetryOptions opts_;
  std::chrono::steady_clock::time_point epoch_;
  // open()/report() vs window_snapshot()/window_count(), which the serve
  // loop's control hook calls from the ingest thread.
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ShardStream>> streams_;
};

}  // namespace uwp::telemetry

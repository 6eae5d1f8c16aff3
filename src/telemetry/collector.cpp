#include "telemetry/collector.hpp"

#include <algorithm>
#include <cmath>

namespace uwp::telemetry {

const char* to_string(FlightTrigger t) {
  switch (t) {
    case FlightTrigger::kEvictStorm:
      return "evict_storm";
    case FlightTrigger::kShedBurst:
      return "shed_burst";
    case FlightTrigger::kSolverStall:
      return "solver_stall";
  }
  return "unknown";
}

bool TelemetryReport::counters_equal(const TelemetryReport& o) const {
  if (totals != o.totals) return false;
  if (snapshots.size() != o.snapshots.size()) return false;
  for (std::size_t i = 0; i < snapshots.size(); ++i) {
    if (snapshots[i].window != o.snapshots[i].window) return false;
    if (snapshots[i].counts != o.snapshots[i].counts) return false;
  }
  return true;
}

ShardStream::ShardStream(const TelemetryOptions& opts, std::size_t index,
                         Clock::time_point epoch)
    : window_(opts.window > 0.0 ? opts.window : 1.0),
      timing_(opts.timing),
      trace_(opts.trace),
      index_(index),
      trace_max_(opts.trace_max_spans),
      epoch_(epoch),
      flight_(opts.flight) {}

void ShardStream::set_time(double t) {
  time_ = t;
  const double w = std::floor(t / window_);
  window_index_ = w > 0.0 ? static_cast<std::size_t>(w) : 0;
}

void ShardStream::count(Counter c, std::uint64_t delta) {
  if (window_index_ >= pages_.size()) pages_.resize(window_index_ + 1);
  std::uint64_t& page = pages_[window_index_][static_cast<std::size_t>(c)];
  const std::uint64_t before = page;
  page += delta;
  flight_record(Event{EventKind::kCounter, static_cast<std::uint8_t>(c), time_,
                      double(delta)});
  FlightTrigger trigger;
  std::uint64_t threshold;
  switch (c) {
    case Counter::kEvicts:
      trigger = FlightTrigger::kEvictStorm;
      threshold = flight_.evict_storm;
      break;
    case Counter::kIngestShed:
      trigger = FlightTrigger::kShedBurst;
      threshold = flight_.shed_burst;
      break;
    case Counter::kLocalizeFailures:
      trigger = FlightTrigger::kSolverStall;
      threshold = flight_.localize_failures;
      break;
    default:
      return;
  }
  // Pages only grow, so this crossing happens at most once per window.
  if (before < threshold && page >= threshold) flight_dump(trigger);
}

void ShardStream::sample(Sample s, double value) {
  if (!timing_) return;
  samples_[static_cast<std::size_t>(s)].record(value);
  flight_record(Event{EventKind::kSample, static_cast<std::uint8_t>(s), time_, value});
}

void ShardStream::span(Stage s, double seconds) {
  spans_[static_cast<std::size_t>(s)].record(seconds);
  flight_record(Event{EventKind::kSpan, static_cast<std::uint8_t>(s), time_, seconds});
}

void ShardStream::flight_record(const Event& e) {
  if (flight_.capacity == 0) return;
  if (flight_ring_.size() < flight_.capacity) {
    flight_ring_.push_back(e);
  } else {
    flight_ring_[flight_next_] = e;
    flight_next_ = (flight_next_ + 1) % flight_ring_.size();
  }
}

void ShardStream::flight_dump(FlightTrigger trigger) {
  if (flight_.capacity == 0 || dumps_.size() >= flight_.max_dumps) return;
  FlightDump d;
  d.stream = index_;
  d.trigger = trigger;
  d.t = time_;
  d.window = window_index_;
  const auto oldest = flight_ring_.begin() + static_cast<std::ptrdiff_t>(flight_next_);
  d.events.assign(oldest, flight_ring_.end());
  d.events.insert(d.events.end(), flight_ring_.begin(), oldest);
  dumps_.push_back(std::move(d));
}

double ShardStream::trace_now() const {
  if (!trace_) return 0.0;
  const std::chrono::duration<double> dt = Clock::now() - epoch_;
  return dt.count();
}

void ShardStream::trace_span(std::uint64_t trace_id, TraceOp op,
                             TraceOp parent, double ts0_s) {
  if (!trace_ || trace_id == 0) return;
  if (trace_spans_.size() >= trace_max_) {
    ++trace_dropped_;
    return;
  }
  const double dur = trace_now() - ts0_s;
  trace_spans_.push_back(TraceSpan{trace_id, op, parent,
                                   static_cast<std::uint16_t>(index_), time_,
                                   ts0_s, dur});
  flight_record(Event{EventKind::kTraceSpan, static_cast<std::uint8_t>(op), time_, dur,
                      trace_id});
}

Collector::Collector(const TelemetryOptions& opts)
    : opts_(opts), epoch_(std::chrono::steady_clock::now()) {}

void Collector::open(std::size_t n) {
  const std::lock_guard<std::mutex> lock(mu_);
  streams_.clear();
  streams_.reserve(n);
  epoch_ = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < n; ++i)
    streams_.push_back(std::make_unique<ShardStream>(opts_, i, epoch_));
}

Snapshot Collector::window_snapshot(std::uint64_t w) const {
  const std::lock_guard<std::mutex> lock(mu_);
  Snapshot snap;
  snap.window = w;
  for (const std::unique_ptr<ShardStream>& s : streams_) {
    const std::vector<ShardStream::CounterPage>& pages = s->pages();
    if (w >= pages.size()) continue;
    for (std::size_t c = 0; c < kCounterCount; ++c)
      snap.counts[c] += pages[w][c];
  }
  return snap;
}

std::size_t Collector::window_count() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::size_t windows = 0;
  for (const std::unique_ptr<ShardStream>& s : streams_)
    windows = std::max(windows, s->pages().size());
  return windows;
}

TelemetryReport Collector::report() const {
  const std::lock_guard<std::mutex> lock(mu_);
  TelemetryReport rep;
  rep.options = opts_;
  rep.streams = streams_.size();
  std::size_t windows = 0;
  for (const std::unique_ptr<ShardStream>& s : streams_)
    windows = std::max(windows, s->pages().size());
  rep.snapshots.resize(windows);
  for (std::size_t w = 0; w < windows; ++w) rep.snapshots[w].window = w;
  for (const std::unique_ptr<ShardStream>& s : streams_) {
    const std::vector<ShardStream::CounterPage>& pages = s->pages();
    for (std::size_t w = 0; w < pages.size(); ++w)
      for (std::size_t c = 0; c < kCounterCount; ++c)
        rep.snapshots[w].counts[c] += pages[w][c];
    for (std::size_t i = 0; i < kStageCount; ++i) rep.spans[i].merge(s->spans()[i]);
    for (std::size_t i = 0; i < kSampleCount; ++i) rep.samples[i].merge(s->samples()[i]);
    rep.trace.insert(rep.trace.end(), s->trace_spans().begin(),
                     s->trace_spans().end());
    rep.trace_dropped += s->trace_dropped();
    rep.flight.insert(rep.flight.end(), s->flight_dumps().begin(),
                      s->flight_dumps().end());
  }
  for (const Snapshot& snap : rep.snapshots)
    for (std::size_t c = 0; c < kCounterCount; ++c)
      rep.totals[c] += snap.counts[c];
  return rep;
}

}  // namespace uwp::telemetry

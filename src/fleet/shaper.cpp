#include "fleet/shaper.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "fleet/session.hpp"
#include "telemetry/collector.hpp"

namespace uwp::fleet {

const char* to_string(AdmissionPolicy policy) {
  switch (policy) {
    case AdmissionPolicy::kAdmitAll:
      return "admit-all";
    case AdmissionPolicy::kShed:
      return "shed";
    case AdmissionPolicy::kDefer:
      return "defer";
  }
  return "?";
}

const char* to_string(IngestDecision decision) {
  switch (decision) {
    case IngestDecision::kAdmit:
      return "admit";
    case IngestDecision::kShed:
      return "shed";
  }
  return "?";
}

bool bit_equal(const IngestRecord& a, const IngestRecord& b) {
  return same_bits(a.arrival_s, b.arrival_s) && same_bits(a.decide_s, b.decide_s) &&
         a.session_id == b.session_id && a.round == b.round && a.kind == b.kind &&
         a.decision == b.decision && a.defers == b.defers;
}

std::uint64_t ingest_schedule_digest(std::span<const IngestRecord> schedule) {
  std::uint64_t h = kFnvOffsetBasis;
  for (const IngestRecord& r : schedule) {
    fnv_mix(h, r.arrival_s);
    fnv_mix(h, r.decide_s);
    fnv_mix(h, r.session_id);
    fnv_mix(h, static_cast<std::uint64_t>(r.round));
    fnv_mix(h, static_cast<std::uint64_t>(r.kind));
    fnv_mix(h, static_cast<std::uint64_t>(r.decision));
    fnv_mix(h, static_cast<std::uint64_t>(r.defers));
  }
  return h;
}

// --- TokenBucketShaper ------------------------------------------------------

TokenBucketShaper::TokenBucketShaper(const ShaperOptions& opts)
    : opts_(opts), partitions_(opts.ingest_shards == 0 ? 1 : opts.ingest_shards) {
  for (Partition& p : partitions_) p.tokens = opts_.burst_rounds;
}

void TokenBucketShaper::advance(Partition& p, double t_s) {
  // Retry chains can interleave partitions slightly out of time order;
  // state only ever advances (dt clamps at 0), keeping it deterministic.
  const double dt = std::max(0.0, t_s - p.last_s);
  p.last_s = std::max(p.last_s, t_s);
  p.occupancy = std::max(0.0, p.occupancy - dt * opts_.drain_rounds_per_s);
  if (opts_.rate_rounds_per_s > 0.0) {
    // Occupancy feedback on the refill rate: past the threshold the rate
    // backs off linearly, hitting zero when the modeled queue is full. The
    // end-of-interval occupancy stands in for the whole interval — an
    // approximation, but a deterministic one.
    const double frac = p.occupancy / static_cast<double>(opts_.queue_depth);
    const double feedback =
        frac >= opts_.feedback_threshold ? std::max(0.0, 1.0 - frac) : 1.0;
    p.tokens = std::min(opts_.burst_rounds,
                        p.tokens + dt * opts_.rate_rounds_per_s * feedback);
  }
}

void TokenBucketShaper::retune(double rate_rounds_per_s, double burst_rounds) {
  opts_.rate_rounds_per_s = rate_rounds_per_s;
  opts_.burst_rounds = burst_rounds;
  for (Partition& p : partitions_) p.tokens = std::min(p.tokens, burst_rounds);
}

bool TokenBucketShaper::try_admit(std::size_t partition, double t_s) {
  Partition& p = partitions_[partition % partitions_.size()];
  advance(p, t_s);
  if (p.occupancy + 1.0 > static_cast<double>(opts_.queue_depth)) return false;
  if (opts_.rate_rounds_per_s > 0.0) {
    if (p.tokens < 1.0) return false;
    p.tokens -= 1.0;
  }
  p.occupancy += 1.0;
  peak_occupancy_ = std::max(peak_occupancy_, p.occupancy);
  return true;
}

// --- IngestScheduler --------------------------------------------------------

IngestScheduler::IngestScheduler(const ShaperOptions& opts, std::size_t sessions)
    : opts_(opts), shaper_(opts), backlog_(sessions) {}

bool IngestScheduler::resolve(Pending& p, double t_s, const Dispatch& dispatch) {
  IngestRecord& rec = schedule_[p.record];
  rec.decide_s = t_s;
  rec.defers = p.defers;

  // Control frames are not load; they pass whenever their turn comes.
  const bool is_round = p.frame.kind == IngestKind::kMeasurement;
  bool admit = true;
  if (is_round && opts_.policy != AdmissionPolicy::kAdmitAll)
    admit = shaper_.try_admit(static_cast<std::size_t>(p.frame.session_id), t_s);

  if (!admit && opts_.policy == AdmissionPolicy::kDefer && p.defers < opts_.max_defers) {
    if (p.defers == 0) ++stats_.frames_deferred;
    ++p.defers;
    ++stats_.defer_events;
    rec.defers = p.defers;
    if (telemetry_ != nullptr) {
      telemetry_->set_time(t_s);
      telemetry_->count(telemetry::Counter::kIngestDeferred);
    }
    return false;
  }

  rec.decision = admit ? IngestDecision::kAdmit : IngestDecision::kShed;
  if (is_round) {
    ++(admit ? stats_.rounds_admitted : stats_.rounds_shed);
    if (telemetry_ != nullptr) {
      telemetry_->set_time(t_s);
      telemetry_->count(admit ? telemetry::Counter::kIngestAdmitted
                              : telemetry::Counter::kIngestShed);
    }
  }
  dispatch(std::move(p.frame), !admit, t_s);
  return true;
}

void IngestScheduler::work_backlog(std::uint64_t session_id, double from_s,
                                   const Dispatch& dispatch) {
  std::deque<Pending>& chain = backlog_[static_cast<std::size_t>(session_id)];
  double t = from_s;
  while (!chain.empty()) {
    Pending& head = chain.front();
    // A chained frame may have arrived after the head's retry slot; it can
    // never be attempted before its own arrival time.
    t = std::max(t, head.frame.t_s);
    if (!resolve(head, t, dispatch)) {
      retries_.push({t + opts_.defer_delay_s, next_seq_++, session_id});
      return;
    }
    chain.pop_front();
  }
}

void IngestScheduler::flush(double now_s, const Dispatch& dispatch) {
  while (!retries_.empty() && retries_.top().retry_s <= now_s) {
    const Retry r = retries_.top();
    retries_.pop();
    work_backlog(r.session_id, r.retry_s, dispatch);
  }
}

void IngestScheduler::on_frame(IngestFrame f, const Dispatch& dispatch) {
  if (f.session_id >= backlog_.size())
    throw WireError("ingest: session id " + std::to_string(f.session_id) +
                    " outside the workload");
  flush(f.t_s, dispatch);

  ++stats_.frames;
  IngestRecord rec;
  rec.arrival_s = f.t_s;
  rec.decide_s = f.t_s;
  rec.session_id = f.session_id;
  rec.round = f.round;
  rec.kind = f.kind;
  schedule_.push_back(rec);

  Pending p;
  p.record = schedule_.size() - 1;
  p.frame = std::move(f);

  std::deque<Pending>& chain = backlog_[static_cast<std::size_t>(p.frame.session_id)];
  if (!chain.empty()) {
    // The session already has a deferred frame pending; preserve order by
    // chaining behind it (a retry entry for this session is already queued).
    chain.push_back(std::move(p));
    stats_.max_backlog = std::max(stats_.max_backlog, chain.size());
    return;
  }
  const double t = p.frame.t_s;
  if (!resolve(p, t, dispatch)) {
    const std::uint64_t session_id = p.frame.session_id;
    chain.push_back(std::move(p));
    stats_.max_backlog = std::max(stats_.max_backlog, chain.size());
    retries_.push({t + opts_.defer_delay_s, next_seq_++, session_id});
  }
}

void IngestScheduler::flush_until(double now_s, const Dispatch& dispatch) {
  flush(now_s, dispatch);
}

void IngestScheduler::retune(double rate_rounds_per_s, double burst_rounds,
                             std::size_t max_defers) {
  opts_.rate_rounds_per_s = rate_rounds_per_s;
  opts_.burst_rounds = burst_rounds;
  opts_.max_defers = max_defers;
  shaper_.retune(rate_rounds_per_s, burst_rounds);
}

void IngestScheduler::finish(const Dispatch& dispatch) {
  flush(std::numeric_limits<double>::infinity(), dispatch);
}

namespace {

std::size_t schedule_mismatches(std::span<const IngestRecord> recorded,
                                const std::vector<IngestRecord>& recomputed) {
  std::size_t mismatches =
      recomputed.size() > recorded.size() ? recomputed.size() - recorded.size() : 0;
  const std::size_t n = std::min(recomputed.size(), recorded.size());
  mismatches += recorded.size() - n;
  for (std::size_t i = 0; i < n; ++i)
    if (!bit_equal(recorded[i], recomputed[i])) ++mismatches;
  return mismatches;
}

}  // namespace

std::size_t verify_ingest_schedule(std::span<const IngestRecord> recorded,
                                   const ShaperOptions& opts, std::size_t sessions,
                                   std::span<const control::ControlAction> actions,
                                   double window_s) {
  IngestScheduler scheduler(opts, sessions);
  const IngestScheduler::Dispatch noop = [](IngestFrame&&, bool, double) {};

  // Re-apply the log's shaper retunes exactly as the live ingest loop did:
  // before feeding the first arrival at or past a window boundary, flush
  // retries due by the boundary and retune from the actions logged for the
  // window that just closed. Fold actions in order into a running knob
  // bundle so a boundary with no logged change retunes to the same values
  // it already had (a no-op, exactly as live).
  double rate = opts.rate_rounds_per_s;
  double burst = opts.burst_rounds;
  std::size_t max_defers = opts.max_defers;
  std::size_t ai = 0;
  std::uint64_t closing = 0;  // window index the next boundary closes
  double next_boundary = window_s;
  const auto cross_boundaries = [&](double arrival_s) {
    if (window_s <= 0.0) return;
    while (arrival_s >= next_boundary) {
      scheduler.flush_until(next_boundary, noop);
      const std::uint64_t w = closing++;
      for (; ai < actions.size() && actions[ai].window <= w; ++ai) {
        const control::ControlAction& a = actions[ai];
        if (a.kind == control::ActionKind::kShaperRate) rate = a.value;
        else if (a.kind == control::ActionKind::kShaperBurst) burst = a.value;
        else if (a.kind == control::ActionKind::kShaperMaxDefers)
          max_defers = static_cast<std::size_t>(a.value);
      }
      scheduler.retune(rate, burst, max_defers);
      // Multiply, don't accumulate: the live ingest loop computes each
      // boundary as (window + 1) * window_s, and the verifier must hit
      // bit-identical boundary times.
      next_boundary = static_cast<double>(closing + 1) * window_s;
    }
  };

  for (const IngestRecord& rec : recorded) {
    cross_boundaries(rec.arrival_s);
    IngestFrame f;
    f.kind = rec.kind;
    f.session_id = rec.session_id;
    f.round = rec.round;
    f.t_s = rec.arrival_s;
    scheduler.on_frame(std::move(f), noop);
  }
  scheduler.finish(noop);
  return schedule_mismatches(recorded, scheduler.schedule());
}

}  // namespace uwp::fleet

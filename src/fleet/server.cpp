#include "fleet/server.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>

#include "control/engine.hpp"
#include "fleet/recorder.hpp"
#include "telemetry/collector.hpp"
#include "util/thread_pool.hpp"

namespace uwp::fleet {

namespace {

// One admitted-or-shed frame on its way to a worker — or, when `control` is
// set, a knob-bundle broadcast from the ingest loop's control boundary (the
// frame fields are unused then).
struct WorkItem {
  IngestFrame frame;
  bool shed = false;
  double enq_ts = 0.0;    // queue span start (0 when no span is recorded)
  double decide_s = 0.0;  // virtual time of the shaper's final verdict
  std::shared_ptr<const control::ShardControls> control;
};

}  // namespace

Server::Server(const ServerOptions& opts, std::vector<sim::GroupScenario> workload)
    : opts_(opts), workload_(std::move(workload)) {
  for (std::size_t i = 0; i < workload_.size(); ++i) {
    if (workload_[i].session_id != i)
      throw std::invalid_argument("Server: workload must be indexed by session id");
    if (workload_[i].lifetime_rounds < 1)
      throw std::invalid_argument("Server: session lifetime must be >= 1 round");
  }
}

ServerResult Server::serve(Transport& transport, SessionRecorder* recorder,
                           telemetry::Collector* telemetry,
                           control::ControlEngine* engine) {
  const auto wall0 = std::chrono::steady_clock::now();
  const std::size_t workers = ThreadPool::resolve_thread_count(opts_.workers);

  // Stream 0 is the ingest loop, streams 1..workers the worker loops, and
  // (with control on) stream workers + 1 the engine.
  telemetry::Collector* const col =
      telemetry != nullptr && telemetry->enabled() ? telemetry : nullptr;
  if (engine != nullptr && col == nullptr)
    throw std::invalid_argument("Server: control requires enabled telemetry");
  if (col != nullptr) col->open(workers + 1 + (engine != nullptr ? 1 : 0));
  // The boundary length in virtual seconds is the collector's window (the
  // telemetry factory already scaled it by the tick period for serve mode).
  const double window_s = engine != nullptr ? col->options().window : 0.0;
  if (engine != nullptr && !(window_s > 0.0))
    throw std::invalid_argument("Server: control requires a positive telemetry window");
  if (engine != nullptr)
    engine->bind_stream(&col->stream(workers + 1), window_s);

  std::vector<std::unique_ptr<BoundedQueue<WorkItem>>> queues;
  queues.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w)
    queues.push_back(std::make_unique<BoundedQueue<WorkItem>>(opts_.queue_depth));

  // Per-worker outputs, merged in worker order after the join. `processed`
  // counters pair with the ingest loop's private dispatched counts to form
  // the boundary barrier: a worker publishes each consumed item with a
  // release increment, and the ingest loop's acquire spin at a window
  // boundary is the happens-before edge that makes the closed window's
  // counter pages safe to merge. Sessions map to workers by id: worker
  // id % workers owns session id, at index id / workers of its vector, so no
  // session state needs locks.
  std::vector<std::vector<Session>> states(workers);
  std::vector<std::vector<double>> latencies(workers);
  std::vector<std::exception_ptr> errors(workers);
  std::vector<std::atomic<std::uint64_t>> processed(workers);

  auto worker_body = [&](std::size_t w) {
    std::vector<Session>& mine = states[w];
    mine.reserve(workload_.size() / workers + 1);
    for (std::size_t id = w; id < workload_.size(); id += workers)
      mine.emplace_back(workload_[id], opts_.master_seed);
    ShardArena arena;
    SessionHooks hooks;
    hooks.recorder = recorder;
    hooks.telemetry = col != nullptr ? &col->stream(1 + w) : nullptr;
    if (opts_.measure_latency) hooks.latencies = &latencies[w];
    telemetry::ShardStream* const tel = hooks.telemetry;
    arena.set_telemetry(tel);

    const auto process = [&](WorkItem& item) {
      if (item.control != nullptr) {
        // Knob broadcast from a control boundary: retune the arena and the
        // live pipelines. All of these are result-neutral.
        arena.set_controls(*item.control);
        for (Session& s : mine) s.apply_controls(*item.control);
        return;
      }
      const std::uint64_t id = item.frame.session_id;
      Session& s = mine[static_cast<std::size_t>(id) / workers];
      // Counter windows key off the frame's virtual decision time (its own
      // t_s unless the shaper deferred it), which is what makes the
      // counters section worker-count invariant — and what guarantees a
      // frame's counters land in the window its verdict belongs to, so the
      // boundary barrier sees every closed window complete.
      if (tel != nullptr) tel->set_time(item.decide_s);

      if (item.frame.kind == IngestKind::kBye) {
        if (s.active()) s.evict(arena);
        return;
      }
      // A frame after kBye re-admits the session into a fresh lease.
      if (!s.active()) s.admit(arena, hooks);

      if (item.frame.kind == IngestKind::kCoast || item.shed) {
        // Device-side dropout and server-side shed land in the same
        // place: the tracker coasts, and the trace records a coast.
        s.coast(item.frame.dt_s);
        return;
      }

      // Queue residency (dispatch -> round start), traced under the ingest
      // span; run_round arms the pipeline with the same trace id.
      if (tel != nullptr)
        tel->span_end(telemetry::TraceOp::kQueue, item.enq_ts,
                      telemetry::make_trace_id(id, item.frame.round));

      pipeline::RoundMeasurement& meas = s.measurement();
      std::size_t pos = 0;
      decode_measurement(item.frame.payload, pos, meas);
      // A frame is only internally consistent; the pipeline indexes by
      // the scenario's device count, so a mismatched frame must be
      // rejected here, not read out of bounds downstream.
      if (meas.protocol.timestamps.rows() != s.scenario().scene.protocol.num_devices)
        throw WireError("ingest: measurement device count != session's");
      s.run_round(item.frame.round, item.frame.dt_s);
    };

    WorkItem item;
    while (queues[w]->pop(item)) {
      if (errors[w] == nullptr) {  // failed: drain without processing
        try {
          process(item);
        } catch (...) {
          errors[w] = std::current_exception();
        }
      }
      // Publish the consumption — after every side effect — so the ingest
      // loop's boundary barrier can acquire the counter pages this item
      // touched. Counted even on the drain path to keep the barrier live.
      processed[w].fetch_add(1, std::memory_order_release);
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) threads.emplace_back(worker_body, w);

  telemetry::ShardStream* const ingest_tel = col != nullptr ? &col->stream(0) : nullptr;
  IngestScheduler scheduler(opts_.shaping, workload_.size());
  scheduler.set_telemetry(ingest_tel);
  // Ingest-thread private: items pushed per queue, paired with `processed`
  // at boundary barriers.
  std::vector<std::uint64_t> dispatched(workers, 0);
  const IngestScheduler::Dispatch dispatch = [&](IngestFrame&& f, bool shed,
                                                 double decide_s) {
    const std::size_t w = static_cast<std::size_t>(f.session_id) % workers;
    if (ingest_tel != nullptr && ingest_tel->timing_enabled())
      ingest_tel->sample(telemetry::Sample::kQueueDepth,
                         static_cast<double>(queues[w]->size()));
    WorkItem item;
    item.frame = std::move(f);
    item.shed = shed;
    item.decide_s = decide_s;
    // Only a frame that runs a round closes a queue span.
    if (ingest_tel != nullptr && !shed && item.frame.kind == IngestKind::kMeasurement)
      item.enq_ts = ingest_tel->span_begin();
    queues[w]->push(std::move(item));
    ++dispatched[w];
  };

  // The serve-side control loop. Before feeding an arrival at or past a
  // window boundary: resolve every retry due by the boundary (so the
  // closing window's verdicts are final), quiesce the workers, fold the
  // window into the engine, retune the shaper in place, and broadcast the
  // new knob bundle to every worker queue. Every step keys off the frames'
  // virtual clock, so the ControlLog is a pure function of the ingest
  // schedule — byte-identical at any worker count. The boundary times are
  // computed as (window + 1) * window_s (multiplied, never accumulated) so
  // verify_ingest_schedule's re-run hits bit-identical boundaries.
  std::uint64_t closing = 0;  // window index the next boundary closes
  double next_boundary = window_s;
  const auto cross_boundaries = [&](double arrival_s) {
    while (arrival_s >= next_boundary) {
      scheduler.flush_until(next_boundary, dispatch);
      for (std::size_t w = 0; w < workers; ++w)
        while (processed[w].load(std::memory_order_acquire) < dispatched[w])
          std::this_thread::yield();
      const std::uint64_t w_closed = closing++;
      engine->observe_window(w_closed, col->window_snapshot(w_closed));
      const control::ShardControls& c = engine->controls();
      scheduler.retune(c.shaper_rate, c.shaper_burst, c.shaper_max_defers);
      auto bundle = std::make_shared<const control::ShardControls>(c);
      for (std::size_t w = 0; w < workers; ++w) {
        WorkItem item;
        item.control = bundle;
        queues[w]->push(std::move(item));
        ++dispatched[w];
      }
      next_boundary = static_cast<double>(closing + 1) * window_s;
    }
  };

  ServerResult out;
  std::exception_ptr ingest_error;
  try {
    std::vector<std::uint8_t> bytes;
    IngestFrame frame;
    const bool tracing =
        ingest_tel != nullptr && ingest_tel->trace_enabled();
    while (transport.recv(bytes)) {
      ++out.stats.frames_received;
      const double ingest_ts0 = ingest_tel != nullptr ? ingest_tel->span_begin() : 0.0;
      decode_ingest_frame(bytes, frame);
      if (engine != nullptr) cross_boundaries(frame.t_s);
      // One kIngest span per frame covering decode + the shaper's verdict;
      // a measurement frame's is the trace root of the serve-side chain,
      // tagged before on_frame consumes the frame.
      const std::uint64_t trace_id =
          tracing && frame.kind == IngestKind::kMeasurement
              ? telemetry::make_trace_id(frame.session_id, frame.round)
              : 0;
      const double frame_t_s = frame.t_s;
      scheduler.on_frame(std::move(frame), dispatch);
      if (ingest_tel != nullptr) {
        if (trace_id != 0) ingest_tel->set_time(frame_t_s);
        ingest_tel->span_end(telemetry::TraceOp::kIngest, ingest_ts0, trace_id);
      }
      frame.clear();
    }
    scheduler.finish(dispatch);
  } catch (...) {
    // Unblock producers stuck in send() and let the workers drain.
    ingest_error = std::current_exception();
    transport.close();
  }

  for (auto& q : queues) q->close();
  for (std::thread& t : threads) t.join();

  if (ingest_error != nullptr) std::rethrow_exception(ingest_error);
  for (const std::exception_ptr& e : errors)
    if (e != nullptr) std::rethrow_exception(e);

  // Observe the trailing windows (the join above is the barrier). The window
  // count is derived from the schedule's last decide time — a pure function
  // of the ingest schedule, never of page-count bookkeeping, so
  // ControlLog::windows_observed is worker-count invariant.
  if (engine != nullptr && !scheduler.schedule().empty()) {
    double last_decide = 0.0;
    for (const IngestRecord& r : scheduler.schedule())
      last_decide = std::max(last_decide, r.decide_s);
    const std::uint64_t n_windows =
        static_cast<std::uint64_t>(last_decide / window_s) + 1;
    while (closing < n_windows) {
      engine->observe_window(closing, col->window_snapshot(closing));
      ++closing;
    }
  }

  // Merge per-session metrics in id order: bit-identical for any worker
  // count by construction.
  std::vector<SessionMetrics> metrics(workload_.size());
  for (std::size_t id = 0; id < workload_.size(); ++id)
    metrics[id] = states[id % workers][id / workers].take_metrics();

  out.fleet = finalize_fleet_result(std::move(metrics));
  out.fleet.shards_used = workers;
  for (std::size_t w = 0; w < workers; ++w)
    out.fleet.round_latency_s.insert(out.fleet.round_latency_s.end(),
                                     latencies[w].begin(), latencies[w].end());
  out.fleet.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0).count();

  out.stats.shaper = scheduler.stats();
  out.stats.peak_occupancy = scheduler.peak_occupancy();
  out.stats.workers_used = workers;
  out.schedule = scheduler.take_schedule();
  out.schedule_digest = ingest_schedule_digest(out.schedule);
  std::span<const control::ControlAction> actions;
  if (engine != nullptr) actions = engine->log().actions;
  out.stats.schedule_mismatches = verify_ingest_schedule(
      out.schedule, opts_.shaping, workload_.size(), actions, window_s);
  return out;
}

// --- feed_workload ----------------------------------------------------------

std::size_t feed_workload(Transport& transport,
                          const std::vector<sim::GroupScenario>& workload,
                          std::uint64_t master_seed, const FeedOptions& opts) {
  std::vector<MeasurementFeed> feeds;
  feeds.reserve(workload.size());
  for (const sim::GroupScenario& sc : workload) feeds.emplace_back(sc, master_seed);

  std::vector<bool> open(workload.size(), false);
  std::vector<std::uint32_t> rounds(workload.size(), 0);
  std::size_t live = workload.size();
  std::size_t sent = 0;

  pipeline::RoundMeasurement meas;
  IngestFrame frame;
  std::vector<std::uint8_t> bytes;

  // Mirror the FleetService scheduler: one event per live session per tick,
  // sessions in id order within a tick, admission gated on admit_tick. This
  // ordering (with t_s = tick * tick_period_s) IS the ingest schedule every
  // shaping decision is a function of.
  for (std::size_t tick = 0; live > 0; ++tick) {
    const double t_s = static_cast<double>(tick) * opts.tick_period_s;
    for (std::size_t id = 0; id < workload.size(); ++id) {
      MeasurementFeed& feed = feeds[id];
      if (feed.exhausted()) continue;
      if (!open[id]) {
        if (tick < workload[id].admit_tick) continue;
        feed.open();
        open[id] = true;
      }

      frame.clear();
      frame.session_id = id;
      frame.t_s = t_s;
      frame.dt_s = feed.next_dt_s();
      frame.round = rounds[id];
      if (feed.next(meas) == MeasurementFeed::Event::kMeasurement) {
        frame.kind = IngestKind::kMeasurement;
        encode_measurement(meas, frame.payload);
        ++rounds[id];
      } else {
        frame.kind = IngestKind::kCoast;
      }
      encode_ingest_frame(frame, bytes);
      if (!transport.send(std::move(bytes))) return sent;
      bytes = {};
      ++sent;

      if (feed.exhausted()) {
        feed.close();
        frame.clear();
        frame.kind = IngestKind::kBye;
        frame.session_id = id;
        frame.round = rounds[id];
        frame.t_s = t_s;
        encode_ingest_frame(frame, bytes);
        if (!transport.send(std::move(bytes))) return sent;
        bytes = {};
        ++sent;
        --live;
      }
    }
  }

  transport.close();
  return sent;
}

}  // namespace uwp::fleet

// The benchmark's workloads and the runners that execute them.
//
// Untraced runners run the program exactly as deployed (fleet::FleetService
// or fleet::Server) and are what the end-to-end metrics time. Traced
// runners re-run the same computation from the outside: they call each
// layer's public entry points themselves (MeasurementFeed::next, the
// RoundPipeline stage calls, the ingest frame and measurement decoders,
// IngestScheduler::on_frame/finish) and time every call. Their fleet
// digest must equal the untraced run's, so the per-layer numbers describe
// the same work the end-to-end numbers time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "control/log.hpp"
#include "fleet/server.hpp"
#include "fleet/service.hpp"
#include "sim/fleet_workload.hpp"

namespace perfbench {

enum class Workload { kFleetMixed, kServeSmall, kServeOverload };

bool parse_workload(const std::string& name, Workload& out);
const char* to_string(Workload w);

struct Spec {
  Workload workload = Workload::kFleetMixed;
  // params.seed (the workload seed) fixes every group: kind, geometry,
  // motion, lifetime. master_seed fixes the noise the devices and the
  // localizer draw. Together they fix every round's work.
  uwp::sim::WorkloadParams params;
  std::uint64_t master_seed = 0xF1EE7u;
  // Arrival schedule: the groups' admission ticks are shuffled among them
  // with this seed, so runs differ in when groups arrive, not in what they
  // compute. Only where nothing is shaped: under shaping the arrival order
  // decides which rounds are admitted, so it is part of the workload.
  std::uint64_t schedule_seed = 0;
  bool shuffle_arrivals = true;
  bool served = false;    // through fleet::Server, else fleet::FleetService
  bool overload = false;  // kDefer shaping + control engine
  std::size_t shards = 1;   // FleetService shards (served: 0)
  std::size_t workers = 1;  // Server workers (fleet: 0)
  // Threads the untraced run keeps busy at once.
  std::size_t threads() const { return served ? workers + 2 : shards; }
};

Spec make_spec(Workload w, std::uint64_t schedule_seed, std::uint64_t workload_seed);

uwp::fleet::ServerOptions server_options(const Spec& spec, std::size_t sessions);

// Everything made before the timed phase: the generated workload, the
// service or server that runs it, and for served workloads the frames a
// client sends, encoded once by fleet::feed_workload.
struct Prepared {
  std::vector<uwp::sim::GroupScenario> workload;
  std::vector<std::vector<std::uint8_t>> frames;
  std::unique_ptr<uwp::fleet::FleetService> service;
  std::unique_ptr<uwp::fleet::Server> server;
  std::size_t frame_count = 0;  // frames the workload puts on the wire
};

Prepared prepare(const Spec& spec);

// Wall time spent blocked in a wrapped Transport's send / recv.
struct TransportWaits {
  double send_s = 0.0;
  double recv_s = 0.0;
};

// One untraced execution.
struct Outcome {
  uwp::fleet::FleetResult fleet;
  uwp::fleet::ServerStats stats;  // served only
  std::uint64_t schedule_digest = 0;
  uwp::control::ControlLog control;
  double wall_s = 0.0;  // the whole run as its caller sees it
};

// `waits`, when given, wraps the transport and records blocking time.
Outcome run_untraced(const Spec& spec, const Prepared& prep,
                     TransportWaits* waits = nullptr);

// Fleet digest of the same workload through FleetService's serial
// per-session reference loop (1 shard, no BatchPlane). An unshaped serve
// must reproduce it bit for bit.
std::uint64_t reference_fleet_digest(const Spec& spec, const Prepared& prep);

struct TracedOutcome {
  std::uint64_t fleet_digest = 0;
  std::uint64_t schedule_digest = 0;  // served only
  // Served with spans on: frames whose decoded contents re-encode to other
  // bytes than fleet::feed_workload sent.
  std::size_t reencode_mismatches = 0;
  std::size_t rounds = 0;
  std::size_t nonfinite_rounds = 0;
  double wall_s = 0.0;
  std::map<std::string, double> layers;
};

// Outside-in re-run. `spans` false skips every clock read (the overhead
// baseline). `control`, for the overload workload, is the untraced run's
// ControlLog: its knob bundles are re-applied at the same virtual-time
// window boundaries, the shaper retunes at ingest the way
// verify_ingest_schedule re-derives a schedule, the arena and search-thread
// knobs in the worker's dispatch order the way fleet::Server's worker does.
TracedOutcome run_traced(const Spec& spec, const Prepared& prep, bool spans,
                         const uwp::control::ControlLog* control);

// Localized rounds whose errors are not all finite, counted from session
// records: a localized round contributes one finite error per non-leader
// device, a failed round none.
std::size_t nonfinite_rounds(const uwp::fleet::FleetResult& r,
                             const std::vector<uwp::sim::GroupScenario>& workload);

}  // namespace perfbench

#include "config/spec.hpp"

#include <cmath>
#include <concepts>
#include <fstream>
#include <sstream>
#include <type_traits>

namespace uwp::config {

const char* to_string(RunMode mode) {
  switch (mode) {
    case RunMode::kRound:
      return "round";
    case RunMode::kSweep:
      return "sweep";
    case RunMode::kDes:
      return "des";
    case RunMode::kFleet:
      return "fleet";
    case RunMode::kServe:
      return "serve";
  }
  return "?";
}

const char* to_string(DeploymentPreset preset) {
  switch (preset) {
    case DeploymentPreset::kDock:
      return "dock";
    case DeploymentPreset::kBoathouse:
      return "boathouse";
    case DeploymentPreset::kAnalytical:
      return "analytical";
    case DeploymentPreset::kExplicit:
      return "explicit";
  }
  return "?";
}

const char* to_string(EnvironmentPreset preset) {
  switch (preset) {
    case EnvironmentPreset::kPool:
      return "pool";
    case EnvironmentPreset::kDock:
      return "dock";
    case EnvironmentPreset::kViewpoint:
      return "viewpoint";
    case EnvironmentPreset::kBoathouse:
      return "boathouse";
  }
  return "?";
}

namespace {

const char* to_string(phy::MicMode mode) {
  switch (mode) {
    case phy::MicMode::kDual:
      return "dual";
    case phy::MicMode::kMic1Only:
      return "mic1";
    case phy::MicMode::kMic2Only:
      return "mic2";
  }
  return "?";
}

const char* kind_mix_name(int force_kind) {
  if (force_kind < 0) return "mixed";
  return sim::to_string(static_cast<sim::GroupScenarioKind>(force_kind));
}

// --- field lists ------------------------------------------------------------
// Each section names its serialized fields once, in output order. Two
// walkers visit a list: ObjectWriter (to_json) and ObjectReader
// (spec_from_json). `S` is the section type or its const form, so the same
// list serves the const writer and the filling reader. A walker offers
//   io(key, field)                 bool, double, int, unsigned, string, Vec3,
//                                  and Vec3 lists
//   io.choice(key, field, last)    an enum spelled by to_string, its values
//                                  dense from 0 up to `last`
//   io.kind_mix(key, force_kind)   "mixed" or a sim::GroupScenarioKind name
//   io.section(key, field)         a nested object with its own field list
//   io.list(key, items)            an array of such objects

template <typename S, typename T>
concept SectionOf = std::same_as<std::remove_const_t<S>, T>;

template <typename Io, SectionOf<DeploymentSpec> S>
void fields(Io& io, S& d) {
  io.choice("preset", d.preset, DeploymentPreset::kExplicit);
  io.choice("environment", d.environment, EnvironmentPreset::kBoathouse);
  io("seed", d.seed);
  io("devices", d.devices);
  io("positions", d.positions);
  io("random_audio", d.random_audio);
}

template <typename Io, SectionOf<pipeline::ArrivalErrorModel> S>
void fields(Io& io, S& a) {
  io("sigma_m", a.sigma_m);
  io("sigma_per_m", a.sigma_per_m);
  io("detection_failure_prob", a.detection_failure_prob);
}

template <typename Io, SectionOf<sensors::DepthSensorModel> S>
void fields(Io& io, S& d) {
  io("bias_m", d.bias_m);
  io("noise_sigma_m", d.noise_sigma_m);
  io("quantization_m", d.quantization_m);
}

template <typename Io, SectionOf<sensors::PointingModel> S>
void fields(Io& io, S& p) {
  io("sigma_deg", p.sigma_deg);
  io("sigma_per_meter_deg", p.sigma_per_meter_deg);
}

template <typename Io, SectionOf<core::SmacofOptions> S>
void fields(Io& io, S& s) {
  io("max_iterations", s.max_iterations);
  io("rel_tolerance", s.rel_tolerance);
  io("random_restarts", s.random_restarts);
  io("init_spread", s.init_spread);
}

template <typename Io, SectionOf<core::OutlierOptions> S>
void fields(Io& io, S& o) {
  io("stress_threshold", o.stress_threshold);
  io("drop_ratio", o.drop_ratio);
  io("max_outliers", o.max_outliers);
  io("max_suspect_links", o.max_suspect_links);
  io("search_threads", o.search_threads);
  io.section("smacof", o.smacof);
}

template <typename Io, SectionOf<core::LocalizerOptions> S>
void fields(Io& io, S& l) {
  io.section("outlier", l.outlier);
}

template <typename Io, SectionOf<sim::RoundOptions> S>
void fields(Io& io, S& o) {
  io("waveform_phy", o.waveform_phy);
  io.section("arrival", o.fast_arrival);
  io("quantize_payload", o.quantize_payload);
  io("sound_speed_error_mps", o.sound_speed_error_mps);
  io.choice("mic_mode", o.mic_mode, phy::MicMode::kMic2Only);
  io.section("depth_sensor", o.depth_sensor);
  io.section("pointing", o.pointing);
  io.section("localizer", o.localizer);
}

template <typename Io, SectionOf<proto::ProtocolConfig> S>
void fields(Io& io, S& p) {
  io("num_devices", p.num_devices);
  io("delta0_s", p.delta0_s);
  io("t_packet_s", p.t_packet_s);
  io("t_guard_s", p.t_guard_s);
  io("sound_speed_mps", p.sound_speed_mps);
  io("fs_hz", p.fs_hz);
}

template <typename Io, SectionOf<core::TrackerConfig> S>
void fields(Io& io, S& t) {
  io("accel_noise", t.accel_noise);
  io("measurement_sigma_m", t.measurement_sigma_m);
  io("velocity_decay_tau_s", t.velocity_decay_tau_s);
  io("gate_sigmas", t.gate_sigmas);
}

template <typename Io, SectionOf<MotionSpec> S>
void fields(Io& io, S& m) {
  io("node", m.node);
  io("axis", m.motion.axis);
  io("span_m", m.motion.span_m);
  io("speed_mps", m.motion.speed_mps);
  io("phase_s", m.motion.phase_s);
  io("waypoints", m.motion.waypoints);
}

template <typename Io, SectionOf<DesSpec> S>
void fields(Io& io, S& d) {
  io("rounds", d.rounds);
  io("round_period_s", d.round_period_s);
  io("max_range_m", d.max_range_m);
  io("ideal_arrivals", d.ideal_arrivals);
  io.section("tracker", d.tracker);
  io.list("motion", d.motion);
}

template <typename Io, SectionOf<sim::SweepOptions> S>
void fields(Io& io, S& s) {
  io("trials", s.trials);
  io("master_seed", s.master_seed);
  io("threads", s.threads);
}

template <typename Io, SectionOf<sim::WorkloadParams> S>
void fields(Io& io, S& w) {
  io("sessions", w.sessions);
  io("seed", w.seed);
  io("min_group_size", w.min_group_size);
  io("max_group_size", w.max_group_size);
  io("min_rounds", w.min_rounds);
  io("max_rounds", w.max_rounds);
  io("admit_spread_ticks", w.admit_spread_ticks);
  io("include_des", w.include_des);
  io.kind_mix("kind_mix", w.force_kind);
}

template <typename Io, SectionOf<fleet::ShaperOptions> S>
void fields(Io& io, S& sh) {
  io.choice("policy", sh.policy, fleet::AdmissionPolicy::kDefer);
  io("ingest_shards", sh.ingest_shards);
  io("queue_depth", sh.queue_depth);
  io("drain_rounds_per_s", sh.drain_rounds_per_s);
  io("rate_rounds_per_s", sh.rate_rounds_per_s);
  io("burst_rounds", sh.burst_rounds);
  io("feedback_threshold", sh.feedback_threshold);
  io("defer_delay_s", sh.defer_delay_s);
  io("max_defers", sh.max_defers);
}

// ServerOptions::master_seed and measure_latency are not listed: they
// mirror fleet.options (make_fleet_server).
template <typename Io, SectionOf<ServeSpec> S>
void fields(Io& io, S& s) {
  io("workers", s.options.workers);
  io("queue_depth", s.options.queue_depth);
  io("tick_period_s", s.tick_period_s);
  io("transport_capacity", s.transport_capacity);
  io.section("shaping", s.options.shaping);
}

// FleetOptions::batch_rounds is not listed: it is ignored, kept only
// because perfbench/ assigns it.
template <typename Io, SectionOf<FleetSpec> S>
void fields(Io& io, S& f) {
  io("master_seed", f.options.master_seed);
  io("shards", f.options.shards);
  io("measure_latency", f.options.measure_latency);
  io.section("workload", f.workload);
  io.section("server", f.server);
}

template <typename Io, SectionOf<TelemetrySpec::TraceSpec> S>
void fields(Io& io, S& t) {
  io("enabled", t.enabled);
  io("max_spans", t.max_spans);
}

template <typename Io, SectionOf<telemetry::FlightOptions> S>
void fields(Io& io, S& f) {
  io("capacity", f.capacity);
  io("max_dumps", f.max_dumps);
  io("evict_storm", f.evict_storm);
  io("shed_burst", f.shed_burst);
  io("localize_failures", f.localize_failures);
}

template <typename Io, SectionOf<TelemetrySpec> S>
void fields(Io& io, S& t) {
  io("enabled", t.enabled);
  io("timing", t.timing);
  io("window_ticks", t.window_ticks);
  io.section("trace", t.trace);
  io.section("flight", t.flight);
}

// ControlConfig::window_ticks is not listed: it is ignored (the fold window
// is telemetry.window_ticks), kept only because perfbench/ assigns it.
template <typename Io, SectionOf<control::ControlConfig> S>
void fields(Io& io, S& c) {
  io("enabled", c.enabled);
  io("arena", c.arena);
  io("shaper", c.shaper);
  io("solver", c.solver);
  io("evict_storm", c.evict_storm);
  io("retain_base", c.retain_base);
  io("retain_max", c.retain_max);
  io("rate_step", c.rate_step);
  io("rate_max_multiplier", c.rate_max_multiplier);
  io("solver_iters_high", c.solver_iters_high);
  io("solver_iters_low", c.solver_iters_low);
  io("max_search_threads", c.max_search_threads);
}

template <typename Io, SectionOf<ScenarioSpec> S>
void fields(Io& io, S& s) {
  io("name", s.name);
  io.choice("mode", s.mode, RunMode::kServe);
  io.section("deployment", s.deployment);
  io.section("round", s.round);
  io.section("protocol", s.protocol);
  io.section("des", s.des);
  io.section("sweep", s.sweep);
  io.section("fleet", s.fleet);
  io.section("telemetry", s.telemetry);
  io.section("control", s.control);
}

double require_double(const Json& j, const std::string& path) {
  double out = 0.0;
  if (!json_as_double(j, out))
    throw SpecError(path, "expected a number (or nan/inf/hexfloat string)");
  return out;
}

Json vec3_to_json(const Vec3& v, bool hex) {
  Json arr = Json::array();
  arr.push_back(double_to_json(v.x, hex));
  arr.push_back(double_to_json(v.y, hex));
  arr.push_back(double_to_json(v.z, hex));
  return arr;
}

Vec3 vec3_from_json(const Json& j, const std::string& path) {
  if (!j.is_array() || j.items().size() != 3)
    throw SpecError(path, "expected [x, y, z]");
  return {require_double(j.items()[0], path + "[0]"),
          require_double(j.items()[1], path + "[1]"),
          require_double(j.items()[2], path + "[2]")};
}

// Whole numbers other than int; bool has its own overload.
template <typename T>
concept Unsigned = std::is_unsigned_v<T> && !std::is_same_v<T, bool>;

// --- writer -----------------------------------------------------------------
// Builds a section's object in field-list order. Unsigned fields go through
// u64_to_json (exact past 2^53). Signed ints ride verbatim as plain numbers
// (the reader accepts them), so even an invalid in-memory value round-trips
// exactly and bit_equal stays honest; validation rejects it separately.

class ObjectWriter {
 public:
  template <typename S>
  static Json write(const S& section, bool hex) {
    ObjectWriter w(hex);
    fields(w, section);
    return std::move(w.o_);
  }

  void operator()(const char* key, bool v) { o_.set(key, Json::boolean(v)); }
  void operator()(const char* key, double v) { o_.set(key, double_to_json(v, hex_)); }
  void operator()(const char* key, int v) { o_.set(key, Json::number(v)); }
  template <Unsigned T>
  void operator()(const char* key, T v) { o_.set(key, u64_to_json(v)); }
  void operator()(const char* key, const std::string& v) { o_.set(key, Json::string(v)); }
  void operator()(const char* key, const Vec3& v) { o_.set(key, vec3_to_json(v, hex_)); }
  void operator()(const char* key, const std::vector<Vec3>& vs) {
    Json arr = Json::array();
    for (const Vec3& v : vs) arr.push_back(vec3_to_json(v, hex_));
    o_.set(key, std::move(arr));
  }

  template <typename Enum>
  void choice(const char* key, Enum v, Enum) { o_.set(key, Json::string(to_string(v))); }

  void kind_mix(const char* key, int force_kind) {
    o_.set(key, Json::string(kind_mix_name(force_kind)));
  }

  template <typename S>
  void section(const char* key, const S& s) { o_.set(key, write(s, hex_)); }

  template <typename S>
  void list(const char* key, const std::vector<S>& items) {
    Json arr = Json::array();
    for (const S& s : items) arr.push_back(write(s, hex_));
    o_.set(key, std::move(arr));
  }

 private:
  explicit ObjectWriter(bool hex) : hex_(hex) {}

  bool hex_;
  Json o_ = Json::object();
};

// --- strict reader ----------------------------------------------------------
// Tracks which keys were consumed so unknown fields fail with their path —
// a typo'd knob must never silently fall back to a default. Absent fields
// keep their current value.

class ObjectReader {
 public:
  template <typename S>
  static void read(const Json& v, std::string path, S& section) {
    ObjectReader r(v, std::move(path));
    fields(r, section);
    r.finish();
  }

  void operator()(const char* key, bool& out) {
    if (const Json* j = take(key)) {
      if (!j->is_bool()) throw SpecError(sub(key), "expected a bool");
      out = j->as_bool();
    }
  }

  void operator()(const char* key, double& out) {
    if (const Json* j = take(key)) out = require_double(*j, sub(key));
  }

  void operator()(const char* key, int& out) {
    if (const Json* j = take(key)) {
      double d = 0.0;
      if (!json_as_double(*j, d) || d != std::floor(d) || d < -2147483648.0 ||
          d > 2147483647.0)
        throw SpecError(sub(key), "expected an integer");
      out = static_cast<int>(d);
    }
  }

  // One reader for every unsigned field: std::uint64_t seeds and
  // std::size_t counts are the same type on LP64.
  template <Unsigned T>
  void operator()(const char* key, T& out) {
    if (const Json* j = take(key)) {
      std::uint64_t v = 0;
      if (!json_as_u64(*j, v))
        throw SpecError(sub(key), "expected an unsigned integer");
      out = static_cast<T>(v);
    }
  }

  void operator()(const char* key, std::string& out) {
    if (const Json* j = take(key)) {
      if (!j->is_string()) throw SpecError(sub(key), "expected a string");
      out = j->as_string();
    }
  }

  void operator()(const char* key, Vec3& out) {
    if (const Json* j = take(key)) out = vec3_from_json(*j, sub(key));
  }

  void operator()(const char* key, std::vector<Vec3>& out) {
    if (const Json* j = take_array(key)) {
      out.clear();
      for (std::size_t i = 0; i < j->items().size(); ++i)
        out.push_back(vec3_from_json(j->items()[i], item(key, i)));
    }
  }

  template <typename Enum>
  void choice(const char* key, Enum& out, Enum last) {
    int v = static_cast<int>(out);
    const auto name = [](int i) { return to_string(static_cast<Enum>(i)); };
    pick(key, v, 0, static_cast<int>(last), name);
    out = static_cast<Enum>(v);
  }

  void kind_mix(const char* key, int& force_kind) {
    constexpr int kLastKind = static_cast<int>(sim::GroupScenarioKind::kPacketDes);
    pick(key, force_kind, -1, kLastKind, kind_mix_name);
  }

  template <typename S>
  void section(const char* key, S& s) {
    if (const Json* j = take(key)) read(*j, sub(key), s);
  }

  template <typename S>
  void list(const char* key, std::vector<S>& items) {
    if (const Json* j = take_array(key)) {
      items.clear();
      for (std::size_t i = 0; i < j->items().size(); ++i) {
        S s;
        read(j->items()[i], item(key, i), s);
        items.push_back(std::move(s));
      }
    }
  }

 private:
  ObjectReader(const Json& v, std::string path) : v_(v), path_(std::move(path)) {
    if (!v_.is_object()) throw SpecError(path_, "expected an object");
    used_.assign(v_.members().size(), false);
  }

  std::string sub(const std::string& key) const {
    return path_.empty() ? key : path_ + "." + key;
  }

  std::string item(const char* key, std::size_t i) const {
    return sub(key) + "[" + std::to_string(i) + "]";
  }

  const Json* take(const char* key) {
    const std::vector<Json::Member>& ms = v_.members();
    for (std::size_t i = 0; i < ms.size(); ++i) {
      if (ms[i].first != key) continue;
      used_[i] = true;
      return &ms[i].second;
    }
    return nullptr;
  }

  const Json* take_array(const char* key) {
    const Json* j = take(key);
    if (j != nullptr && !j->is_array()) throw SpecError(sub(key), "expected an array");
    return j;
  }

  void finish() const {
    const std::vector<Json::Member>& ms = v_.members();
    for (std::size_t i = 0; i < ms.size(); ++i)
      if (!used_[i]) throw SpecError(sub(ms[i].first), "unknown field");
  }

  // Sets `out` to the i in [first, last] whose name(i) is the field's string.
  template <typename Name>
  void pick(const char* key, int& out, int first, int last, Name name) {
    const Json* j = take(key);
    if (j == nullptr) return;
    if (!j->is_string()) throw SpecError(sub(key), "expected a string");
    std::string choices;
    for (int i = first; i <= last; ++i) {
      if (j->as_string() == name(i)) {
        out = i;
        return;
      }
      if (!choices.empty()) choices += "|";
      choices += name(i);
    }
    throw SpecError(sub(key), "unknown value \"" + j->as_string() + "\" (expected " +
                                  choices + ")");
  }

  const Json& v_;
  std::string path_;
  std::vector<bool> used_;
};

}  // namespace

// --- top level --------------------------------------------------------------

Json to_json(const ScenarioSpec& spec, bool hexfloat) {
  return ObjectWriter::write(spec, hexfloat);
}

ScenarioSpec spec_from_json(const Json& v) {
  ScenarioSpec spec;
  ObjectReader::read(v, "", spec);
  return spec;
}

std::string write_spec(const ScenarioSpec& spec, bool hexfloat) {
  JsonWriteOptions opts;
  opts.hexfloat = hexfloat;
  return write_json(to_json(spec, hexfloat), opts);
}

ScenarioSpec parse_spec(std::string_view json_text) {
  return spec_from_json(parse_json(json_text));
}

ScenarioSpec load_spec(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw SpecError("", "cannot open spec file " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  // Every failure mode below — JSON syntax, structural spec errors, failed
  // validation — must surface with the file's path: load_spec is what CLIs
  // call, and "round.arrival.sigma_m: must be >= 0" with no file name is
  // useless when a run loads several specs.
  try {
    ScenarioSpec spec = parse_spec(ss.str());
    validate_or_throw(spec);
    return spec;
  } catch (const JsonError& e) {
    throw SpecError("", path + ": " + e.what());
  } catch (const SpecError& e) {
    // e.what() already carries the dotted field path; prepend the file.
    throw SpecError("", path + ": " + e.what());
  }
}

void save_spec(const ScenarioSpec& spec, const std::string& path, bool hexfloat) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw SpecError("", "cannot open " + path + " for writing");
  out << write_spec(spec, hexfloat);
  if (!out) throw SpecError("", "write failed for " + path);
}

// --- validation -------------------------------------------------------------

std::size_t deployment_device_count(const ScenarioSpec& spec) {
  switch (spec.deployment.preset) {
    case DeploymentPreset::kDock:
    case DeploymentPreset::kBoathouse:
      return 5;
    case DeploymentPreset::kAnalytical:
      return spec.deployment.devices;
    case DeploymentPreset::kExplicit:
      return spec.deployment.positions.size();
  }
  return 0;
}

std::vector<std::string> validate(const ScenarioSpec& spec) {
  std::vector<std::string> errors;
  const auto err = [&errors](const std::string& path, const std::string& what) {
    errors.push_back(path + ": " + what);
  };
  const auto finite = [](double v) { return std::isfinite(v); };

  if (spec.name.empty()) err("name", "must be non-empty");

  // deployment
  const std::size_t n = deployment_device_count(spec);
  if (spec.deployment.preset == DeploymentPreset::kAnalytical &&
      spec.deployment.devices < 2)
    err("deployment.devices", "need at least 2 devices (leader + one)");
  if (spec.deployment.preset == DeploymentPreset::kExplicit &&
      spec.deployment.positions.size() < 2)
    err("deployment.positions", "need at least 2 positions (leader + one)");
  if (spec.deployment.preset != DeploymentPreset::kExplicit &&
      !spec.deployment.positions.empty())
    err("deployment.positions", "only valid with preset \"explicit\"");
  for (std::size_t i = 0; i < spec.deployment.positions.size(); ++i) {
    const Vec3& p = spec.deployment.positions[i];
    if (!finite(p.x) || !finite(p.y) || !finite(p.z))
      err("deployment.positions[" + std::to_string(i) + "]", "must be finite");
  }

  // round
  const pipeline::ArrivalErrorModel& a = spec.round.fast_arrival;
  if (!finite(a.sigma_m) || a.sigma_m < 0.0)
    err("round.arrival.sigma_m", "must be >= 0");
  if (!finite(a.sigma_per_m) || a.sigma_per_m < 0.0)
    err("round.arrival.sigma_per_m", "must be >= 0");
  if (!(a.detection_failure_prob >= 0.0 && a.detection_failure_prob <= 1.0))
    err("round.arrival.detection_failure_prob", "out of range [0, 1]");
  if (!finite(spec.round.sound_speed_error_mps))
    err("round.sound_speed_error_mps", "must be finite");
  const sensors::DepthSensorModel& ds = spec.round.depth_sensor;
  if (!finite(ds.bias_m)) err("round.depth_sensor.bias_m", "must be finite");
  if (!finite(ds.noise_sigma_m) || ds.noise_sigma_m < 0.0)
    err("round.depth_sensor.noise_sigma_m", "must be >= 0");
  if (!finite(ds.quantization_m) || ds.quantization_m < 0.0)
    err("round.depth_sensor.quantization_m", "must be >= 0");
  if (!finite(spec.round.pointing.sigma_deg) || spec.round.pointing.sigma_deg < 0.0)
    err("round.pointing.sigma_deg", "must be >= 0");
  if (!finite(spec.round.pointing.sigma_per_meter_deg) ||
      spec.round.pointing.sigma_per_meter_deg < 0.0)
    err("round.pointing.sigma_per_meter_deg", "must be >= 0");
  const core::OutlierOptions& out = spec.round.localizer.outlier;
  if (!finite(out.stress_threshold) || out.stress_threshold <= 0.0)
    err("round.localizer.outlier.stress_threshold", "must be > 0");
  if (!(out.drop_ratio >= 0.0 && out.drop_ratio <= 1.0))
    err("round.localizer.outlier.drop_ratio", "out of range [0, 1]");
  if (out.max_outliers < 0) err("round.localizer.outlier.max_outliers", "must be >= 0");
  if (out.smacof.max_iterations < 1)
    err("round.localizer.outlier.smacof.max_iterations", "must be >= 1");
  if (!finite(out.smacof.rel_tolerance) || out.smacof.rel_tolerance <= 0.0)
    err("round.localizer.outlier.smacof.rel_tolerance", "must be > 0");
  if (out.smacof.random_restarts < 0)
    err("round.localizer.outlier.smacof.random_restarts", "must be >= 0");
  if (!finite(out.smacof.init_spread) || out.smacof.init_spread <= 0.0)
    err("round.localizer.outlier.smacof.init_spread", "must be > 0");

  // protocol
  if (spec.protocol.num_devices < 2) err("protocol.num_devices", "must be >= 2");
  if (spec.mode != RunMode::kFleet && spec.protocol.num_devices != n)
    err("protocol.num_devices",
        "must equal the deployment's device count (" + std::to_string(n) + ")");
  if (!finite(spec.protocol.delta0_s) || spec.protocol.delta0_s <= 0.0)
    err("protocol.delta0_s", "must be > 0");
  if (!finite(spec.protocol.t_packet_s) || spec.protocol.t_packet_s <= 0.0)
    err("protocol.t_packet_s", "must be > 0");
  if (!finite(spec.protocol.t_guard_s) || spec.protocol.t_guard_s <= 0.0)
    err("protocol.t_guard_s", "must be > 0");
  if (!finite(spec.protocol.sound_speed_mps) || spec.protocol.sound_speed_mps <= 0.0)
    err("protocol.sound_speed_mps", "must be > 0");
  if (!finite(spec.protocol.fs_hz) || spec.protocol.fs_hz <= 0.0)
    err("protocol.fs_hz", "must be > 0");

  // des
  if (spec.des.rounds < 1) err("des.rounds", "must be >= 1");
  if (!finite(spec.des.round_period_s) || spec.des.round_period_s < 0.0)
    err("des.round_period_s", "must be >= 0 (0 = auto)");
  if (!finite(spec.des.max_range_m) || spec.des.max_range_m < 0.0)
    err("des.max_range_m", "must be >= 0 (0 = connectivity only)");
  const core::TrackerConfig& tr = spec.des.tracker;
  if (!finite(tr.accel_noise) || tr.accel_noise < 0.0)
    err("des.tracker.accel_noise", "must be >= 0");
  if (!finite(tr.measurement_sigma_m) || tr.measurement_sigma_m <= 0.0)
    err("des.tracker.measurement_sigma_m", "must be > 0");
  if (!finite(tr.velocity_decay_tau_s) || tr.velocity_decay_tau_s <= 0.0)
    err("des.tracker.velocity_decay_tau_s", "must be > 0");
  if (!finite(tr.gate_sigmas) || tr.gate_sigmas <= 0.0)
    err("des.tracker.gate_sigmas", "must be > 0");
  bool any_lawnmower = false, any_waypoint = false;
  for (std::size_t i = 0; i < spec.des.motion.size(); ++i) {
    const std::string path = "des.motion[" + std::to_string(i) + "]";
    const MotionSpec& m = spec.des.motion[i];
    if (m.node >= n) err(path + ".node", "out of range (deployment has " +
                                             std::to_string(n) + " devices)");
    if (!finite(m.motion.axis.x) || !finite(m.motion.axis.y) ||
        !finite(m.motion.axis.z))
      err(path + ".axis", "must be finite");
    if (!finite(m.motion.span_m) || m.motion.span_m < 0.0)
      err(path + ".span_m", "must be >= 0");
    if (!finite(m.motion.phase_s)) err(path + ".phase_s", "must be finite");
    if (m.motion.waypoints.size() == 1)
      err(path + ".waypoints", "need >= 2 waypoints (or none)");
    for (std::size_t w = 0; w < m.motion.waypoints.size(); ++w) {
      const Vec3& p = m.motion.waypoints[w];
      if (!finite(p.x) || !finite(p.y) || !finite(p.z))
        err(path + ".waypoints[" + std::to_string(w) + "]", "must be finite");
    }
    const bool lawnmower = std::isfinite(m.motion.span_m) && m.motion.span_m > 0.0;
    const bool waypoint = m.motion.waypoints.size() >= 2;
    if (lawnmower && waypoint)
      err(path, "set either a lawnmower track (span_m) or waypoints, not both");
    if (!lawnmower && !waypoint)
      err(path, "set a lawnmower track (span_m > 0) or >= 2 waypoints");
    any_lawnmower |= lawnmower;
    any_waypoint |= waypoint;
    if (!finite(m.motion.speed_mps) || m.motion.speed_mps <= 0.0)
      err(path + ".speed_mps", "must be > 0 for a moving node");
  }
  if (any_lawnmower && any_waypoint)
    err("des.motion", "one mobility model per scenario: all lawnmower or all "
                      "waypoint tracks");

  // Worker counts share threads_from_args' cap: 0 = all hardware threads,
  // anything above 1024 is a typo, not a machine.
  constexpr std::size_t kMaxWorkers = 1024;
  if (spec.round.localizer.outlier.search_threads > kMaxWorkers)
    err("round.localizer.outlier.search_threads", "must be <= 1024 (0 = all)");

  // sweep
  if (spec.sweep.trials < 1) err("sweep.trials", "must be >= 1");
  if (spec.sweep.threads > kMaxWorkers) err("sweep.threads", "must be <= 1024 (0 = all)");

  // fleet
  if (spec.fleet.options.shards > kMaxWorkers)
    err("fleet.shards", "must be <= 1024 (0 = one per hardware thread)");
  const sim::WorkloadParams& w = spec.fleet.workload;
  if (w.sessions < 1) err("fleet.workload.sessions", "must be >= 1");
  if (w.min_group_size < 4) err("fleet.workload.min_group_size", "must be >= 4");
  if (w.max_group_size < w.min_group_size)
    err("fleet.workload.max_group_size", "must be >= min_group_size");
  if (w.min_rounds < 1) err("fleet.workload.min_rounds", "must be >= 1");
  if (w.max_rounds < w.min_rounds)
    err("fleet.workload.max_rounds", "must be >= min_rounds");
  if (w.force_kind > static_cast<int>(sim::GroupScenarioKind::kPacketDes))
    err("fleet.workload.kind_mix", "out of range");

  // fleet.server (serve mode)
  const ServeSpec& srv = spec.fleet.server;
  if (srv.options.workers > kMaxWorkers)
    err("fleet.server.workers", "must be <= 1024 (0 = one per hardware thread)");
  if (srv.options.queue_depth < 1) err("fleet.server.queue_depth", "must be >= 1");
  if (!finite(srv.tick_period_s) || srv.tick_period_s <= 0.0)
    err("fleet.server.tick_period_s", "must be > 0");
  if (srv.transport_capacity < 1)
    err("fleet.server.transport_capacity", "must be >= 1");
  const fleet::ShaperOptions& sh = srv.options.shaping;
  if (sh.ingest_shards < 1 || sh.ingest_shards > kMaxWorkers)
    err("fleet.server.shaping.ingest_shards", "must be in [1, 1024]");
  if (sh.queue_depth < 1) err("fleet.server.shaping.queue_depth", "must be >= 1");
  if (!finite(sh.drain_rounds_per_s) || sh.drain_rounds_per_s <= 0.0)
    err("fleet.server.shaping.drain_rounds_per_s", "must be > 0");
  if (!finite(sh.rate_rounds_per_s) || sh.rate_rounds_per_s < 0.0)
    err("fleet.server.shaping.rate_rounds_per_s", "must be >= 0 (0 = unlimited)");
  if (!finite(sh.burst_rounds) || sh.burst_rounds < 1.0)
    err("fleet.server.shaping.burst_rounds", "must be >= 1");
  if (!(sh.feedback_threshold >= 0.0 && sh.feedback_threshold <= 1.0))
    err("fleet.server.shaping.feedback_threshold", "out of range [0, 1]");
  if (!finite(sh.defer_delay_s) || sh.defer_delay_s <= 0.0)
    err("fleet.server.shaping.defer_delay_s", "must be > 0");

  // telemetry
  if (spec.telemetry.window_ticks < 1) err("telemetry.window_ticks", "must be >= 1");
  // The ring rounds up to a power of two; cap it where "capacity" stops
  // being a buffer and starts being a typo'd byte count.
  if (spec.telemetry.trace.max_spans < 1 ||
      spec.telemetry.trace.max_spans > (std::size_t{1} << 26))
    err("telemetry.trace.max_spans", "must be in [1, 67108864]");
  if (spec.telemetry.flight.capacity > (std::size_t{1} << 20))
    err("telemetry.flight.capacity", "must be <= 1048576");
  if (spec.telemetry.flight.max_dumps > 1024)
    err("telemetry.flight.max_dumps", "must be <= 1024");
  if (spec.telemetry.flight.evict_storm < 1)
    err("telemetry.flight.evict_storm", "must be >= 1");
  if (spec.telemetry.flight.shed_burst < 1)
    err("telemetry.flight.shed_burst", "must be >= 1");
  if (spec.telemetry.flight.localize_failures < 1)
    err("telemetry.flight.localize_failures", "must be >= 1");

  // control
  const control::ControlConfig& ctl = spec.control;
  if (ctl.enabled && !spec.telemetry.enabled)
    err("control.enabled", "requires telemetry.enabled (the counter plane drives it)");
  if (ctl.evict_storm < 1) err("control.evict_storm", "must be >= 1");
  if (ctl.retain_base < 1) err("control.retain_base", "must be >= 1");
  if (ctl.retain_max < ctl.retain_base)
    err("control.retain_max", "must be >= control.retain_base");
  if (!finite(ctl.rate_step) || ctl.rate_step <= 1.0)
    err("control.rate_step", "must be > 1");
  if (!finite(ctl.rate_max_multiplier) || ctl.rate_max_multiplier < 1.0)
    err("control.rate_max_multiplier", "must be >= 1");
  if (ctl.solver_iters_high <= ctl.solver_iters_low)
    err("control.solver_iters_high", "must be > control.solver_iters_low");
  if (ctl.max_search_threads < 1 || ctl.max_search_threads > 1024)
    err("control.max_search_threads", "must be in [1, 1024]");

  return errors;
}

void validate_or_throw(const ScenarioSpec& spec) {
  const std::vector<std::string> errors = validate(spec);
  if (errors.empty()) return;
  std::string what = "invalid spec:";
  for (const std::string& e : errors) what += "\n  " + e;
  throw SpecError("", what);
}

bool bit_equal(const ScenarioSpec& a, const ScenarioSpec& b) {
  // Hexfloat serialization is injective on every field (bit-level for
  // doubles), so string equality IS structural bit equality.
  return write_spec(a, true) == write_spec(b, true);
}

}  // namespace uwp::config

// uwp_perfbench: runs one benchmark workload and prints what it measured as
// JSON lines on stdout (perfbench/run.py turns them into the result).
//
//   uwp_perfbench --workload=fleet_mixed|serve_small|serve_overload
//                 [--seed=N] [--workload-seed=N] [--seconds=S] [--trace=0|1]
//
// --workload-seed (default 0xBE7C) fixes the groups and their noise, and so
// every round's work; --seed shuffles the groups' arrival schedule.
// --trace=0 times the deployed executor (set-up repeats, then timed
// repeats for --seconds); --trace=1 runs the outside-in traced runner with
// spans on and off. Every line is one JSON object with a "kind" key;
// "check" lines carry ok=false when an output check fails.
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "runners.hpp"
#include "util/simd.hpp"

namespace {

using perfbench::Outcome;
using perfbench::Prepared;
using perfbench::Spec;
using Clock = std::chrono::steady_clock;

struct Args {
  perfbench::Workload workload = perfbench::Workload::kFleetMixed;
  std::uint64_t seed = 0;
  std::uint64_t workload_seed = 0xBE7Cu;
  double seconds = 10.0;
  bool trace = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "uwp_perfbench: %s\nusage: uwp_perfbench --workload=NAME [--seed=N] "
               "[--workload-seed=N] [--seconds=S] [--trace=0|1]\n",
               why);
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& v) {
  char* end = nullptr;
  const unsigned long long x = std::strtoull(v.c_str(), &end, 0);
  if (v.empty() || *end != '\0') usage(("bad number: " + v).c_str());
  return x;
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos)
      usage(("bad argument: " + arg).c_str());
    const std::string key = arg.substr(2, eq - 2), val = arg.substr(eq + 1);
    if (key == "workload") {
      if (!perfbench::parse_workload(val, a.workload))
        usage(("unknown workload: " + val).c_str());
      have_workload = true;
    } else if (key == "seed") {
      a.seed = parse_u64(val);
    } else if (key == "workload-seed") {
      a.workload_seed = parse_u64(val);
    } else if (key == "seconds") {
      a.seconds = static_cast<double>(parse_u64(val));
    } else if (key == "trace") {
      a.trace = parse_u64(val) != 0;
    } else {
      usage(("unknown flag: --" + key).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return a;
}

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void put_array(std::string& s, const std::vector<double>& v, double scale) {
  char buf[32];
  s += '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof(buf), i == 0 ? "%.9g" : ",%.9g", v[i] * scale);
    s += buf;
  }
  s += ']';
}

void emit(const std::string& line) {
  std::fwrite(line.data(), 1, line.size(), stdout);
  std::fputc('\n', stdout);
}

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "g++ " __VERSION__;
#endif

int g_failed_checks = 0;

void check(const char* name, bool ok, const std::string& detail = "") {
  if (!ok) ++g_failed_checks;
  emit(std::string("{\"kind\":\"check\",\"name\":\"") + name + "\",\"ok\":" +
       (ok ? "true" : "false") + ",\"detail\":\"" + detail + "\"}");
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Offered measurement rounds of one run: executed rounds plus shed ones.
std::size_t offered(const Outcome& o) { return o.fleet.rounds + o.stats.shaper.rounds_shed; }

std::string repeat_line(const Prepared& prep, const Outcome& o, bool with_errors) {
  std::string s = "{\"kind\":\"repeat\",\"wall_s\":" + num(o.wall_s) +
                  ",\"rounds\":" + std::to_string(o.fleet.rounds) +
                  ",\"offered\":" + std::to_string(offered(o)) +
                  ",\"localized\":" + std::to_string(o.fleet.localized) +
                  ",\"shed\":" + std::to_string(o.stats.shaper.rounds_shed) +
                  ",\"nonfinite\":" +
                  std::to_string(perfbench::nonfinite_rounds(o.fleet, prep.workload)) +
                  ",\"frames\":" + std::to_string(prep.frame_count) +
                  ",\"latency_ms\":";
  put_array(s, o.fleet.round_latency_s, 1e3);
  if (with_errors) {
    s += ",\"errors_m\":";
    put_array(s, o.fleet.errors, 1.0);
  }
  return s + "}";
}

void check_outcome(const char* what, const Outcome& o, const Outcome& first) {
  check((std::string(what) + ".digest_repeats").c_str(),
        o.fleet.fleet_digest == first.fleet.fleet_digest,
        hex(o.fleet.fleet_digest) + " vs " + hex(first.fleet.fleet_digest));
  check((std::string(what) + ".schedule_mismatches").c_str(),
        o.stats.schedule_mismatches == 0,
        std::to_string(o.stats.schedule_mismatches));
  check((std::string(what) + ".control_log_repeats").c_str(),
        uwp::control::control_log_digest(o.control) ==
            uwp::control::control_log_digest(first.control),
        hex(uwp::control::control_log_digest(o.control)));
}

void run_untraced_mode(const Args& a, const Spec& spec) {
  // Set-up, repeated at least 11 times and for at least 2 s (at most 400
  // times); the last one's inputs are used. The previous inputs are freed
  // first, so peak RSS holds one set of them.
  Prepared prep;
  const auto setup0 = Clock::now();
  for (int i = 0; i < 400 && (i < 11 || since(setup0) < 2.0); ++i) {
    prep = {};
    const auto t0 = Clock::now();
    prep = perfbench::prepare(spec);
    emit("{\"kind\":\"setup\",\"seconds\":" + num(since(t0)) + "}");
  }

  // Warm-up run (untimed); every timed repeat must reproduce its outputs.
  // Peak RSS is read after it: set-up plus one whole run. The timed repeats
  // would add allocator arena growth that depends on thread timing (on
  // serve_overload 125 MB after the warm-up run, 182-237 MB after 3-6
  // repeats).
  const Outcome first = perfbench::run_untraced(spec, prep);
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  emit("{\"kind\":\"rss\",\"peak_mb\":" + num(static_cast<double>(ru.ru_maxrss) / 1024.0) +
       "}");
  if (spec.workload == perfbench::Workload::kServeSmall) {
    const std::uint64_t ref = perfbench::reference_fleet_digest(spec, prep);
    check("serve_equals_fleet", first.fleet.fleet_digest == ref,
          hex(first.fleet.fleet_digest) + " vs " + hex(ref));
  }

  // Timed repeats: at least 3, then while another repeat of the mean length
  // still ends within --seconds. Every repeat runs the same rounds, so the
  // pooled latencies hold each round once per repeat.
  const auto t0 = Clock::now();
  std::size_t repeats = 0;
  while (repeats < 3 || since(t0) * (repeats + 1) / repeats <= a.seconds) {
    const Outcome o = perfbench::run_untraced(spec, prep);
    check_outcome("run", o, first);
    emit(repeat_line(prep, o, repeats == 0));
    ++repeats;
  }
}

std::string layers_line(const char* kind, const std::map<std::string, double>& values,
                        double wall_s, std::size_t rounds = 0, std::size_t nonfinite = 0) {
  std::string s = std::string("{\"kind\":\"") + kind + "\",\"wall_s\":" + num(wall_s) +
                  ",\"rounds\":" + std::to_string(rounds) + ",\"nonfinite\":" +
                  std::to_string(nonfinite) + ",\"values\":{";
  bool first = true;
  for (const auto& [k, v] : values) {
    s += (first ? "\"" : ",\"") + k + "\":" + num(v);
    first = false;
  }
  return s + "}}";
}

void run_traced_mode(const Args& a, const Spec& spec) {
  const Prepared prep = perfbench::prepare(spec);

  // The deployed executor once, with its transport wrapped, for the layers
  // only it can show (transport waits, shaper verdicts, control decisions)
  // and for the digests the traced runner must reproduce.
  perfbench::TransportWaits waits;
  const Outcome ref = perfbench::run_untraced(spec, prep, spec.served ? &waits : nullptr);
  double round_sum = 0.0;
  for (const double l : ref.fleet.round_latency_s) round_sum += l;
  const uwp::fleet::ShaperStats& sh = ref.stats.shaper;
  const double measured = static_cast<double>(sh.rounds_admitted + sh.rounds_shed);
  const std::map<std::string, double> deployed = {
      {"fleet.server.outside_round_s", spec.served ? ref.wall_s - round_sum : 0.0},
      {"fleet.transport.send_wait_s", waits.send_s},
      {"fleet.transport.recv_wait_s", waits.recv_s},
      {"fleet.shaper.rounds_admitted", static_cast<double>(sh.rounds_admitted)},
      {"fleet.shaper.rounds_shed", static_cast<double>(sh.rounds_shed)},
      {"fleet.shaper.frames_deferred", static_cast<double>(sh.frames_deferred)},
      {"fleet.shaper.defer_events", static_cast<double>(sh.defer_events)},
      {"fleet.shaper.shed_share", measured > 0 ? sh.rounds_shed / measured : 0.0},
      {"control.windows", static_cast<double>(ref.control.windows_observed)},
      {"control.actions", static_cast<double>(ref.control.actions.size())},
  };
  emit(layers_line("deployed", deployed, ref.wall_s));
  check("deployed.schedule_mismatches", ref.stats.schedule_mismatches == 0,
        std::to_string(ref.stats.schedule_mismatches));
  check("deployed.finite_outputs",
        perfbench::nonfinite_rounds(ref.fleet, prep.workload) == 0);

  // Traced runner, spans on and off alternately (the off runs are the
  // tracing-overhead baseline): at least one pair, then more while another
  // pair of the mean length still ends within --seconds.
  const uwp::control::ControlLog* log = spec.overload ? &ref.control : nullptr;
  const auto t0 = Clock::now();
  std::size_t pairs = 0;
  while (pairs < 1 || since(t0) * (pairs + 1) / pairs <= a.seconds) {
    for (const bool spans : {pairs % 2 == 0, pairs % 2 != 0}) {
      const perfbench::TracedOutcome t = perfbench::run_traced(spec, prep, spans, log);
      check("traced.digest_equals_untraced", t.fleet_digest == ref.fleet.fleet_digest,
            hex(t.fleet_digest) + " vs " + hex(ref.fleet.fleet_digest));
      if (spec.served)
        check("traced.schedule_equals_untraced", t.schedule_digest == ref.schedule_digest,
              hex(t.schedule_digest) + " vs " + hex(ref.schedule_digest));
      check("traced.finite_outputs", t.nonfinite_rounds == 0,
            std::to_string(t.nonfinite_rounds));
      if (spec.served && spans)
        check("traced.reencode_equals_frames", t.reencode_mismatches == 0,
              std::to_string(t.reencode_mismatches) + " frames differ");
      emit(layers_line(spans ? "traced" : "traced_off", t.layers, t.wall_s, t.rounds,
                       t.nonfinite_rounds));
    }
    ++pairs;
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  const Spec spec = perfbench::make_spec(a.workload, a.seed, a.workload_seed);
  emit(std::string("{\"kind\":\"context\",\"workload\":\"") + perfbench::to_string(a.workload) +
       "\",\"seed\":" + std::to_string(a.seed) + ",\"workload_seed\":\"" +
       hex(a.workload_seed) + "\",\"sessions\":" + std::to_string(spec.params.sessions) +
       ",\"threads\":" + std::to_string(spec.threads()) + ",\"shards\":" +
       std::to_string(spec.shards) + ",\"workers\":" + std::to_string(spec.workers) +
       ",\"loop\":\"" + (spec.served ? "closed (ring backpressure)" : "closed batch") +
       "\",\"simd\":\"" + uwp::simd::kBackendName + "\",\"uwp_simd\":\"" +
       uwp::simd::kSimdSetting + "\",\"master_seed\":\"" + hex(spec.master_seed) + "\",\"compiler\":\"" +
       kCompiler + "\"}");
  try {
    if (a.trace)
      run_traced_mode(a, spec);
    else
      run_untraced_mode(a, spec);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "uwp_perfbench: %s\n", e.what());
    return 1;
  }
  return g_failed_checks > 0 ? 1 : 0;
}

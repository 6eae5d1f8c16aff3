#include "sim/sweep.hpp"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>

#include "util/thread_pool.hpp"

namespace uwp::sim {

namespace {

std::size_t parse_threads(const char* s) {
  // Only plain decimal digits count; "-1", "abc" or "" fall back to 0 (all
  // cores) instead of wrapping through strtoul into a 2^64-worker request.
  if (s == nullptr || *s == '\0') return 0;
  for (const char* p = s; *p != '\0'; ++p)
    if (*p < '0' || *p > '9') return 0;
  const unsigned long long v = std::strtoull(s, nullptr, 10);
  return static_cast<std::size_t>(v > 1024 ? 1024 : v);
}

}  // namespace

std::size_t threads_from_args(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0)
      return parse_threads(argv[i] + 10);
  }
  return parse_threads(std::getenv("UWP_THREADS"));
}

const char* trace_out_from_args(int argc, char** argv) {
  constexpr std::size_t kLen = sizeof("--trace-out=") - 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--trace-out=", kLen) == 0 && argv[i][kLen] != '\0')
      return argv[i] + kLen;
  }
  return nullptr;
}

void SweepTally::add(const SweepResult& r) {
  trials += r.per_trial.size();
  wall_seconds += r.wall_seconds;
  threads_used = r.threads_used;
}

void SweepTally::print_footer() const {
  std::printf("\n[sweep] %zu trials across %zu threads in %.2f s\n", trials,
              threads_used, wall_seconds);
}

std::uint64_t trial_seed(std::uint64_t master_seed, std::uint64_t trial) {
  // splitmix64 finalizer over the (seed, trial) pair: cheap, full-avalanche,
  // and the standard way to spawn uncorrelated streams from one seed.
  std::uint64_t z = master_seed + 0x9e3779b97f4a7c15ull * (trial + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

SweepRunner::SweepRunner(SweepOptions opts) : opts_(opts) {}

SweepResult SweepRunner::run(const TrialFn& fn) const {
  return run([] { return std::shared_ptr<void>(); },
             [&fn](std::size_t t, Rng& rng, void*) { return fn(t, rng); });
}

SweepResult SweepRunner::run(const ContextFactory& make_context,
                             const ContextTrialFn& fn) const {
  SweepResult res;
  res.per_trial.resize(opts_.trials);
  res.threads_used = ThreadPool::resolve_thread_count(opts_.threads);

  std::atomic<std::size_t> failed{0};
  // One lazily-created context per worker lane; a lane runs its trials
  // sequentially, so the context is never shared.
  std::vector<std::shared_ptr<void>> contexts(res.threads_used);
  const auto run_trial = [&](std::size_t lane, std::size_t t) {
    if (contexts[lane] == nullptr) contexts[lane] = make_context();
    Rng rng(trial_seed(opts_.master_seed, t));
    try {
      res.per_trial[t] = fn(t, rng, contexts[lane].get());
    } catch (const std::exception&) {
      failed.fetch_add(1, std::memory_order_relaxed);
    }
  };

  const auto t0 = std::chrono::steady_clock::now();
  if (res.threads_used <= 1 || opts_.trials <= 1) {
    for (std::size_t t = 0; t < opts_.trials; ++t) run_trial(0, t);
  } else {
    ThreadPool pool(res.threads_used - 1);  // the calling thread is lane 0
    pool.parallel_for_lanes(opts_.trials, run_trial);
  }
  const auto t1 = std::chrono::steady_clock::now();
  res.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  res.failed_trials = failed.load();

  std::size_t total = 0;
  for (const auto& v : res.per_trial) total += v.size();
  res.samples.reserve(total);
  for (const auto& v : res.per_trial)
    for (const double x : v)
      if (!std::isnan(x)) res.samples.push_back(x);
  res.summary = summarize(res.samples);
  return res;
}

}  // namespace uwp::sim

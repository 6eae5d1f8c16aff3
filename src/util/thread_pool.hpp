// Fixed-size work-queue thread pool for the sweep engine's trials,
// FleetService's session lanes and the Algorithm 1 candidate-search fan-out
// (one pool per calling thread). Deliberately simple — a mutex-guarded FIFO,
// no work stealing — because each parallel_for lane is one queued task.
#pragma once

#include <cstddef>
#include <functional>
#include <mutex>
#include <condition_variable>
#include <queue>
#include <thread>
#include <vector>

namespace uwp {

class ThreadPool {
 public:
  // threads == 0 picks std::thread::hardware_concurrency() (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  // Enqueue a task; runs on some worker, in FIFO order of submission.
  void submit(std::function<void()> task);

  // Block until the queue is empty and every worker is idle.
  void wait_idle();

  // Run body(i) for i in [0, n) on the calling thread plus the pool's
  // workers, and block until done. Indices are handed out dynamically
  // (atomic counter), so load imbalance between trials self-corrects. If any
  // invocation throws, the first exception is rethrown here after every
  // lane finishes. Must be called from outside the pool's own workers (no
  // nesting).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

  // Like parallel_for, but the body also receives the executing lane index
  // (0 .. min(size() + 1, n) - 1), so callers can keep per-lane scratch
  // state without locking. Lane 0 is the calling thread; lanes 1.. are one
  // submitted worker task each, so k lanes need a pool of k - 1 threads.
  void parallel_for_lanes(std::size_t n,
                          const std::function<void(std::size_t lane, std::size_t i)>& body);

  // Resolve the `threads` convention used across the codebase: 0 means "all
  // hardware threads", anything else is taken literally (min 1).
  static std::size_t resolve_thread_count(std::size_t threads);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  mutable std::mutex mu_;
  std::condition_variable cv_task_;   // signals workers: task available / stop
  std::condition_variable cv_idle_;   // signals waiters: pool drained
  std::size_t active_ = 0;            // tasks currently executing
  bool stop_ = false;
};

}  // namespace uwp

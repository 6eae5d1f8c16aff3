#include "util/thread_pool.hpp"

#include <atomic>
#include <exception>
#include <memory>
#include <utility>

namespace uwp {

std::size_t ThreadPool::resolve_thread_count(std::size_t threads) {
  if (threads != 0) return threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t n = resolve_thread_count(threads);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push(std::move(task));
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
      ++active_;
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_;
      if (queue_.empty() && active_ == 0) cv_idle_.notify_all();
    }
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  parallel_for_lanes(n, [&body](std::size_t, std::size_t i) { body(i); });
}

void ThreadPool::parallel_for_lanes(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  const std::size_t lanes = std::min(size() + 1, n);
  if (lanes <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(0, i);
    return;
  }

  struct Shared {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> remaining;  // pool lanes still running
    std::mutex mu;
    std::condition_variable done;
    std::exception_ptr error;  // first exception thrown by any index
  };
  auto shared = std::make_shared<Shared>();
  shared->remaining.store(lanes - 1);
  const auto run_lane = [n, &body](Shared& sh, std::size_t lane) {
    for (;;) {
      const std::size_t i = sh.next.fetch_add(1);
      if (i >= n) break;
      try {
        body(lane, i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(sh.mu);
        if (!sh.error) sh.error = std::current_exception();
      }
    }
  };

  for (std::size_t lane = 1; lane < lanes; ++lane) {
    submit([shared, lane, &run_lane] {
      run_lane(*shared, lane);
      if (shared->remaining.fetch_sub(1) == 1) {
        std::lock_guard<std::mutex> lock(shared->mu);
        shared->done.notify_all();
      }
    });
  }
  run_lane(*shared, 0);

  std::unique_lock<std::mutex> lock(shared->mu);
  shared->done.wait(lock, [&] { return shared->remaining.load() == 0; });
  if (shared->error) std::rethrow_exception(shared->error);
}

}  // namespace uwp

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/thread_pool.hpp"

namespace uwp {
namespace {

TEST(ThreadPool, ResolveThreadCount) {
  EXPECT_GE(ThreadPool::resolve_thread_count(0), 1u);
  EXPECT_EQ(ThreadPool::resolve_thread_count(1), 1u);
  EXPECT_EQ(ThreadPool::resolve_thread_count(7), 7u);
}

TEST(ThreadPool, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i)
    pool.submit([&count] { count.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.wait_idle();  // nothing queued: must not hang
  SUCCEED();
}

TEST(ThreadPool, ParallelForVisitsEachIndexExactlyOnce) {
  ThreadPool pool(4);
  const std::size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(n, [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ParallelForHandlesFewerItemsThanThreads) {
  ThreadPool pool(8);
  std::atomic<int> count{0};
  pool.parallel_for(3, [&count](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 3);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "body must not run for n=0"; });
}

TEST(ThreadPool, ParallelForRethrowsFirstException) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  EXPECT_THROW(
      pool.parallel_for(64,
                        [&completed](std::size_t i) {
                          if (i == 17) throw std::runtime_error("trial 17 failed");
                          completed.fetch_add(1);
                        }),
      std::runtime_error);
  // All non-throwing indices still ran; the pool is reusable afterwards.
  EXPECT_EQ(completed.load(), 63);
  std::atomic<int> again{0};
  pool.parallel_for(10, [&again](std::size_t) { again.fetch_add(1); });
  EXPECT_EQ(again.load(), 10);
}

// k lanes take k - 1 pool threads: the calling thread runs lane 0.
TEST(ThreadPool, CallingThreadRunsLaneZero) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id ids[2];
  std::atomic<bool> lane1_ran{false};
  pool.parallel_for_lanes(2, [&](std::size_t lane, std::size_t) {
    ids[lane] = std::this_thread::get_id();
    if (lane == 1) lane1_ran = true;
    // Lane 0 holds its index until lane 1 has taken the other one, so both
    // lanes run (bounded, so a broken pool fails instead of hanging).
    for (int ms = 0; lane == 0 && !lane1_ran && ms < 10000; ++ms)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  EXPECT_EQ(ids[0], caller);
  ASSERT_TRUE(lane1_ran.load());
  EXPECT_NE(ids[1], caller);
}

TEST(ThreadPool, SingleThreadPoolStillCompletesWork) {
  ThreadPool pool(1);
  std::vector<int> order;
  // One worker: FIFO submissions run in order, no data race on `order`.
  for (int i = 0; i < 10; ++i)
    pool.submit([&order, i] { order.push_back(i); });
  pool.wait_idle();
  std::vector<int> expect(10);
  std::iota(expect.begin(), expect.end(), 0);
  EXPECT_EQ(order, expect);
}

}  // namespace
}  // namespace uwp

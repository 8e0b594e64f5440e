// Tests for the work-stealing thread pool: result delivery, ordering
// independence, exception propagation, and cooperative cancellation of
// queued tasks (the properties the parallel grid runner and the intra-cell
// stages depend on).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "support/thread_pool.hpp"

namespace velev {
namespace {

TEST(ThreadPool, HardwareThreadsIsAtLeastOne) {
  EXPECT_GE(ThreadPool::hardwareThreads(), 1u);
}

TEST(ThreadPool, ZeroThreadRequestClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPool, DeliversEveryResult) {
  ThreadPool pool(4);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; ++i)
    futures.push_back(pool.submit([i] { return i * i; }));
  for (int i = 0; i < 100; ++i) EXPECT_EQ(futures[i].get(), i * i);
}

TEST(ThreadPool, ResultsIndependentOfCompletionOrder) {
  // Tasks finish in a scrambled order (earlier tasks sleep longer); the
  // futures still pair each submission with its own result.
  ThreadPool pool(3);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 16; ++i)
    futures.push_back(pool.submit([i] {
      std::this_thread::sleep_for(std::chrono::microseconds((16 - i) * 50));
      return i;
    }));
  int sum = 0;
  for (int i = 0; i < 16; ++i) {
    const int v = futures[i].get();
    EXPECT_EQ(v, i);
    sum += v;
  }
  EXPECT_EQ(sum, 15 * 16 / 2);
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  auto bad = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  auto good = pool.submit([] { return 3; });
  EXPECT_THROW(bad.get(), std::runtime_error);
  // The worker survives the exception and keeps serving tasks.
  EXPECT_EQ(good.get(), 3);
  EXPECT_EQ(pool.submit([] { return 4; }).get(), 4);
}

TEST(ThreadPool, CancellationStopsQueuedTasks) {
  // One worker, blocked on a gate; every tokened task behind it must be
  // skipped once the token is cancelled — their bodies never run.
  ThreadPool pool(1);
  std::promise<void> gate;
  auto blocker = pool.submit([&gate] { gate.get_future().wait(); });

  CancelToken token;
  std::atomic<int> executed{0};
  std::vector<std::future<void>> queued;
  for (int i = 0; i < 20; ++i)
    queued.push_back(pool.submit(token, [&executed] { ++executed; }));

  token.cancel();
  gate.set_value();

  int cancelled = 0;
  for (auto& f : queued) {
    try {
      f.get();
    } catch (const CancelledError&) {
      ++cancelled;
    }
  }
  EXPECT_EQ(executed.load(), 0);
  EXPECT_EQ(cancelled, 20);
  blocker.get();
}

TEST(ThreadPool, UncancelledTokenRunsNormally) {
  ThreadPool pool(2);
  CancelToken token;
  EXPECT_EQ(pool.submit(token, [] { return 11; }).get(), 11);
}

TEST(ThreadPool, CancelTokenCopiesShareState) {
  CancelToken a;
  CancelToken b = a;
  EXPECT_FALSE(b.cancelled());
  a.cancel();
  EXPECT_TRUE(b.cancelled());
}

TEST(ThreadPool, DestructorDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i)
      pool.submit([&ran] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        ++ran;
      });
    // No explicit waits: the destructor must run every queued task.
  }
  EXPECT_EQ(ran.load(), 50);
}

TEST(ThreadPool, ManyMoreTasksThanWorkersAllSteal) {
  // More tasks than workers forces queue traffic between workers; every
  // task must run exactly once.
  ThreadPool pool(4);
  std::atomic<long> sum{0};
  std::vector<std::future<void>> futures;
  for (long i = 1; i <= 1000; ++i)
    futures.push_back(pool.submit([&sum, i] { sum += i; }));
  for (auto& f : futures) f.get();
  EXPECT_EQ(sum.load(), 1000L * 1001 / 2);
}

}  // namespace
}  // namespace velev

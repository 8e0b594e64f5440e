// Tests for parallelFor, the fork-join loop every parallel stage runs on:
// every index runs exactly once, results land at their own index, the
// first exception stops new indexes and reaches the caller, a size-1 pool
// runs inline, calls nest, and many short calls in a row all return.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/grid_runner.hpp"
#include "support/thread_pool.hpp"

namespace velev {
namespace {

TEST(ThreadPool, HardwareThreadsIsAtLeastOne) {
  EXPECT_GE(ThreadPool::hardwareThreads(), 1u);
}

TEST(ThreadPool, ZeroThreadRequestClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  int result = 0;
  parallelFor(&pool, 1, [&](std::size_t) { result = 7; });
  EXPECT_EQ(result, 7);
}

TEST(ThreadPool, HugeThreadRequestClampsToTheBound) {
  // Construction starts no thread, so the clamp is checked without one.
  EXPECT_EQ(ThreadPool(1'000'000).size(), kMaxWorkers);
  EXPECT_EQ(ThreadPool(kMaxWorkers).size(), kMaxWorkers);
}

TEST(ThreadPool, DeliversEveryResult) {
  ThreadPool pool(4);
  std::vector<int> results(100, -1);
  parallelFor(&pool, results.size(),
              [&](std::size_t i) { results[i] = static_cast<int>(i * i); });
  for (int i = 0; i < 100; ++i) EXPECT_EQ(results[i], i * i);
}

TEST(ThreadPool, ResultsIndependentOfCompletionOrder) {
  // Bodies finish in a scrambled order (earlier indexes sleep longer);
  // each result still lands at its own index.
  ThreadPool pool(3);
  std::vector<int> results(16, -1);
  parallelFor(&pool, results.size(), [&](std::size_t i) {
    std::this_thread::sleep_for(std::chrono::microseconds((16 - i) * 50));
    results[i] = static_cast<int>(i);
  });
  int sum = 0;
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(results[i], i);
    sum += results[i];
  }
  EXPECT_EQ(sum, 15 * 16 / 2);
}

TEST(ThreadPool, EveryIndexRunsExactlyOnce) {
  ThreadPool pool(4);
  for (const std::size_t count : {0u, 1u, 3u, 10'000u}) {
    std::vector<std::atomic<int>> runs(count);
    parallelFor(&pool, count, [&](std::size_t i) { ++runs[i]; });
    for (std::size_t i = 0; i < count; ++i)
      ASSERT_EQ(runs[i].load(), 1) << "count " << count << " index " << i;
  }
}

TEST(ThreadPool, SizeOnePoolRunsOnTheCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  ThreadPool one(1);
  for (const ThreadPool* pool : {&one, static_cast<ThreadPool*>(nullptr)}) {
    std::vector<std::thread::id> ids(50);
    parallelFor(pool, ids.size(),
                [&](std::size_t i) { ids[i] = std::this_thread::get_id(); });
    for (const std::thread::id id : ids) EXPECT_EQ(id, caller);
  }
}

TEST(ThreadPool, WorkerNumbersNameOneThreadEach) {
  // The optional second argument: 0 is the calling thread, every other
  // number below min(size, count) belongs to exactly one helper thread.
  ThreadPool pool(4);
  std::mutex m;
  std::set<std::pair<unsigned, std::thread::id>> seen;
  parallelFor(&pool, 2'000, [&](std::size_t, unsigned worker) {
    std::lock_guard<std::mutex> lk(m);
    seen.emplace(worker, std::this_thread::get_id());
  });
  std::set<unsigned> workers;
  for (const auto& [worker, id] : seen) {
    EXPECT_LT(worker, pool.size());
    EXPECT_TRUE(workers.insert(worker).second) << "worker " << worker;
    if (worker == 0) {
      EXPECT_EQ(id, std::this_thread::get_id());
    }
  }
  // Worker 0 may get no index at all: the helpers can drain the loop
  // before the caller takes its first one.
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture) {
  // The name predates parallelFor: the first exception a body throws
  // reaches the caller once every thread has joined, and the pool keeps
  // serving later calls.
  ThreadPool pool(2);
  EXPECT_THROW(parallelFor(&pool, 10,
                           [](std::size_t i) {
                             if (i == 3) throw std::runtime_error("boom");
                           }),
               std::runtime_error);
  int result = 0;
  parallelFor(&pool, 1, [&](std::size_t) { result = 4; });
  EXPECT_EQ(result, 4);
}

TEST(ThreadPool, ThrowStopsEveryLaterIndex) {
  ThreadPool pool(1);
  std::vector<std::size_t> ran;
  try {
    parallelFor(&pool, 1'000, [&](std::size_t i) {
      ran.push_back(i);
      if (i == 5) throw std::runtime_error("index 5");
    });
    FAIL() << "the exception did not reach the caller";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "index 5");
  }
  EXPECT_EQ(ran, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5}));
}

TEST(ThreadPool, ManyMoreTasksThanWorkersAllSteal) {
  // The name predates parallelFor: far more indexes than threads, each run
  // exactly once.
  ThreadPool pool(4);
  std::atomic<long> sum{0};
  parallelFor(&pool, 1000,
              [&](std::size_t i) { sum += static_cast<long>(i) + 1; });
  EXPECT_EQ(sum.load(), 1000L * 1001 / 2);
}

TEST(ThreadPool, NestedCallInsideABody) {
  ThreadPool outer(3), inner(3);
  std::vector<std::atomic<int>> runs(4 * 100);
  parallelFor(&outer, 4, [&](std::size_t o) {
    parallelFor(&inner, 100, [&](std::size_t i) { ++runs[o * 100 + i]; });
  });
  for (const std::atomic<int>& r : runs) ASSERT_EQ(r.load(), 1);
}

TEST(ThreadPool, NestedInsideGridCellsWithCellJobs) {
  // Grid cells on 2 threads, each cell's rewrite slices and CNF build on
  // 3 more: the verdicts and counters match the all-inline run.
  const auto cells = core::makeGridRequests(std::vector<unsigned>{8, 16},
                                            std::vector<unsigned>{2, 4});
  core::GridRunOptions seq;
  core::GridRunOptions nested;
  nested.jobs = 2;
  nested.cellJobs = 3;
  const auto a = core::runGrid(cells, seq);
  const auto b = core::runGrid(cells, nested);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(b[i].response.verdict, core::Verdict::Correct);
    EXPECT_EQ(b[i].response.verdict, a[i].response.verdict);
    EXPECT_EQ(b[i].response.counters, a[i].response.counters) << "cell " << i;
  }
}

TEST(ThreadPool, ManyShortCallsInARowAllReturn) {
  // The shape that once hung a pool with a lost wakeup: a stream of tiny
  // calls on a 4-thread pool. One-item calls run inline; the four-item
  // calls spawn and join three helpers each.
  ThreadPool pool(4);
  long total = 0;
  for (int call = 0; call < 10'000; ++call)
    parallelFor(&pool, 1, [&](std::size_t) { ++total; });
  std::atomic<long> spawned{0};
  for (int call = 0; call < 1'000; ++call)
    parallelFor(&pool, 4, [&](std::size_t) { ++spawned; });
  EXPECT_EQ(total, 10'000);
  EXPECT_EQ(spawned.load(), 4'000);
}

}  // namespace
}  // namespace velev

/**
 * @file
 * Unit tests of the campaign worker pool.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <stdexcept>
#include <vector>

#include "sim/metrics.hh"
#include "sim/thread_pool.hh"

using namespace fidelity;

TEST(ThreadPool, RunsSubmittedTasks)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4);

    std::atomic<int> counter{0};
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 100; ++i)
        futures.push_back(pool.submit([&counter] { counter += 1; }));
    for (auto &f : futures)
        f.get();
    EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, SingleWorkerStillCompletes)
{
    ThreadPool pool(1);
    std::atomic<int> counter{0};
    pool.forEach(25, [&counter](std::size_t) { counter += 1; });
    EXPECT_EQ(counter.load(), 25);
}

TEST(ThreadPool, ZeroSelectsHardwareThreads)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.size(), ThreadPool::hardwareThreads());
    EXPECT_GE(pool.size(), 1);
}

TEST(ThreadPool, ForEachCoversEveryIndexOnce)
{
    ThreadPool pool(8);
    std::vector<std::atomic<int>> hits(257);
    pool.forEach(hits.size(),
                 [&hits](std::size_t i) { hits[i] += 1; });
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, PropagatesTaskException)
{
    ThreadPool pool(2);
    std::future<void> ok = pool.submit([] {});
    std::future<void> bad = pool.submit(
        [] { throw std::runtime_error("task failed"); });
    EXPECT_NO_THROW(ok.get());
    EXPECT_THROW(bad.get(), std::runtime_error);
}

TEST(ThreadPool, ForEachRethrowsFirstExceptionAfterDraining)
{
    ThreadPool pool(4);
    std::atomic<int> completed{0};
    try {
        pool.forEach(64, [&completed](std::size_t i) {
            if (i == 7)
                throw std::runtime_error("shard 7 failed");
            completed += 1;
        });
        FAIL() << "forEach should have rethrown";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "shard 7 failed");
    }
    // Every other task still ran to completion before the rethrow.
    EXPECT_EQ(completed.load(), 63);
}

TEST(ThreadPool, ReusableAcrossSubmitWaves)
{
    ThreadPool pool(3);
    std::atomic<int> counter{0};
    for (int wave = 0; wave < 5; ++wave) {
        pool.forEach(40, [&counter](std::size_t) { counter += 1; });
        EXPECT_EQ(counter.load(), 40 * (wave + 1));
    }
}

TEST(ThreadPool, TasksRunConcurrently)
{
    // Two tasks that each wait for the other can only finish when at
    // least two workers execute them at the same time.
    ThreadPool pool(2);
    std::promise<void> a_started, b_started;
    auto fa = pool.submit([&] {
        a_started.set_value();
        b_started.get_future().wait();
    });
    auto fb = pool.submit([&] {
        b_started.set_value();
        a_started.get_future().wait();
    });
    fa.get();
    fb.get();
    SUCCEED();
}

TEST(ThreadPool, ForEachZeroIsANoOp)
{
    // A campaign round whose shards were all restored fans out nothing.
    ThreadPool pool(2);
    pool.forEach(0, [](std::size_t) { FAIL() << "must not run"; });
    SUCCEED();
}

TEST(ThreadPool, CallerSlotIsWorkerIndexOnPoolAndReservedOffPool)
{
    ThreadPool pool(3);
    EXPECT_EQ(pool.slotCount(), 4);

    // The main thread is not a pool worker: reserved slot, stable.
    EXPECT_EQ(ThreadPool::workerIndex(), -1);
    EXPECT_EQ(pool.callerSlot(), 3);
    EXPECT_EQ(pool.callerSlot(), 3);

    // A pool worker gets its own index, always < size().
    std::vector<std::atomic<int>> seen(4);
    pool.forEach(64, [&](std::size_t) {
        int slot = pool.callerSlot();
        ASSERT_GE(slot, 0);
        ASSERT_LT(slot, pool.size());
        EXPECT_EQ(slot, ThreadPool::workerIndex());
        seen[static_cast<std::size_t>(slot)] += 1;
    });
    EXPECT_EQ(seen[3].load(), 0); // reserved slot never used on-pool
}

TEST(ThreadPool, CallerSlotOnForeignPoolWorkerIsReserved)
{
    // A worker of pool B asking pool A for a slot must get A's
    // reserved slot — B's worker index would alias one of A's workers
    // (or index out of bounds when B is larger than A).
    ThreadPool a(2);
    ThreadPool b(4);
    b.forEach(16, [&](std::size_t) {
        EXPECT_EQ(a.callerSlot(), a.size());
        EXPECT_EQ(b.callerSlot(), ThreadPool::workerIndex());
    });
}

TEST(ThreadPool, MainAndWorkerRecordMetricsConcurrently)
{
    // The off-pool bug this guards against: the coordinator emitting
    // metrics during plan/merge phases while workers inject.  With
    // callerSlot() every thread owns a private slot, so recording is
    // race-free (this test runs under TSan in CI).
    ThreadPool pool(2);
    std::vector<MetricSet> slots(
        static_cast<std::size_t>(pool.slotCount()));

    std::atomic<bool> go{false};
    std::vector<std::future<void>> work;
    for (int t = 0; t < 2; ++t) {
        work.push_back(pool.submit([&] {
            while (!go.load(std::memory_order_acquire)) {
            }
            MetricSet &mine =
                slots[static_cast<std::size_t>(pool.callerSlot())];
            for (int i = 0; i < 5000; ++i)
                mine.counter("work").add();
        }));
    }
    go.store(true, std::memory_order_release);
    MetricSet &main_slot =
        slots[static_cast<std::size_t>(pool.callerSlot())];
    for (int i = 0; i < 5000; ++i)
        main_slot.counter("work").add();
    for (auto &f : work)
        f.get();

    MetricSet merged;
    for (MetricSet &s : slots)
        merged.mergeFrom(s);
    EXPECT_EQ(merged.counter("work").count(), 15000u);
}

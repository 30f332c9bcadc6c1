/**
 * @file
 * Fixed-size worker pool for embarrassingly parallel campaign work.
 *
 * Fault-injection campaigns fan out over independent (layer, category,
 * sample) shards; the pool runs those shards on a fixed set of worker
 * threads with a shared task queue.  Exceptions thrown inside a task are
 * captured and rethrown to the caller through the task's future, so a
 * panic-free error path (e.g. std::bad_alloc under memory pressure)
 * surfaces on the submitting thread instead of terminating a worker.
 */

#ifndef FIDELITY_SIM_THREAD_POOL_HH
#define FIDELITY_SIM_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace fidelity
{

/** A fixed pool of worker threads draining one task queue. */
class ThreadPool
{
  public:
    /**
     * Start the workers.
     * @param num_threads Worker count; 0 selects hardwareThreads().
     */
    explicit ThreadPool(int num_threads);

    /** Drains outstanding tasks, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Enqueue one task.  The returned future becomes ready when the
     * task finishes; if the task threw, future.get() rethrows the
     * exception on the caller's thread.
     */
    std::future<void> submit(std::function<void()> task);

    /**
     * Run fn(i) for every i in [0, n) across the pool and wait for all
     * of them.  Every task is allowed to finish even when one throws;
     * the first exception (in index order) is then rethrown.
     */
    void forEach(std::size_t n,
                 const std::function<void(std::size_t)> &fn);

    /** Number of worker threads. */
    int size() const { return static_cast<int>(workers_.size()); }

    /**
     * Index of the calling thread within its pool, in [0, size()), or
     * -1 on a thread that is not a pool worker.  Tasks use this to
     * claim a private per-worker accumulator slot (lock-free metric
     * accumulation in the campaign engine).
     */
    static int workerIndex();

    /**
     * Accumulator slot for the calling thread: its worker index if the
     * caller is one of THIS pool's workers, otherwise the reserved
     * slot size().  Unlike workerIndex(), this never returns an
     * out-of-range value, so a driver that emits metrics from the main
     * thread during plan/merge phases (or from another pool's worker)
     * gets a stable private slot instead of aliasing worker 0 or
     * indexing out of bounds.  Size accumulator arrays by slotCount().
     */
    int callerSlot() const;

    /** Number of accumulator slots callerSlot() can return:
     *  size() workers plus the reserved off-pool slot. */
    int slotCount() const { return size() + 1; }

    /** Concurrency the hardware advertises (at least 1). */
    static int hardwareThreads();

  private:
    void workerLoop(int index);

    std::vector<std::thread> workers_;
    std::queue<std::packaged_task<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stop_ = false;
};

} // namespace fidelity

#endif // FIDELITY_SIM_THREAD_POOL_HH

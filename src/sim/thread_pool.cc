#include "sim/thread_pool.hh"

#include <exception>
#include <utility>

#include "sim/logging.hh"

namespace fidelity
{

namespace
{

// Set once at worker startup; -1 everywhere else (the submitting
// thread never runs pool tasks).
thread_local int tlsWorkerIndex = -1;

// The pool the calling thread works for, so callerSlot() can tell "a
// worker of this pool" apart from "a worker of some other pool" — the
// latter must use the reserved slot, not its foreign index.
thread_local const ThreadPool *tlsPool = nullptr;

} // namespace

int
ThreadPool::workerIndex()
{
    return tlsWorkerIndex;
}

int
ThreadPool::callerSlot() const
{
    if (tlsPool == this && tlsWorkerIndex >= 0)
        return tlsWorkerIndex;
    return size();
}

int
ThreadPool::hardwareThreads()
{
    unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<int>(n);
}

ThreadPool::ThreadPool(int num_threads)
{
    if (num_threads == 0)
        num_threads = hardwareThreads();
    fatal_if(num_threads < 0, "ThreadPool requires a non-negative "
             "thread count, got ", num_threads);
    workers_.reserve(static_cast<std::size_t>(num_threads));
    for (int i = 0; i < num_threads; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    for (std::thread &w : workers_)
        w.join();
}

std::future<void>
ThreadPool::submit(std::function<void()> task)
{
    panic_if(!task, "ThreadPool::submit requires a callable task");
    std::packaged_task<void()> packaged(std::move(task));
    std::future<void> fut = packaged.get_future();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        panic_if(stop_, "ThreadPool::submit after shutdown");
        queue_.push(std::move(packaged));
    }
    cv_.notify_one();
    return fut;
}

void
ThreadPool::forEach(std::size_t n,
                    const std::function<void(std::size_t)> &fn)
{
    std::vector<std::future<void>> futures;
    futures.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        futures.push_back(submit([&fn, i] { fn(i); }));

    // Let every task run to completion before rethrowing, so no task
    // is left referencing caller state after forEach returns.
    std::exception_ptr first;
    for (std::future<void> &f : futures) {
        try {
            f.get();
        } catch (...) {
            if (!first)
                first = std::current_exception();
        }
    }
    if (first)
        std::rethrow_exception(first);
}

void
ThreadPool::workerLoop(int index)
{
    tlsWorkerIndex = index;
    tlsPool = this;
    for (;;) {
        std::packaged_task<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stop_ set and nothing left to drain
            task = std::move(queue_.front());
            queue_.pop();
        }
        task(); // exceptions land in the task's future
    }
}

} // namespace fidelity

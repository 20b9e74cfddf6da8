/**
 * @file
 * A queue-based worker thread pool for embarrassingly parallel
 * simulation work (sweep cells, seed replications).
 *
 * Design notes:
 *  - One shared FIFO task queue guarded by a mutex. Sweep cells are
 *    coarse (milliseconds to seconds each), so queue contention is
 *    negligible and a work-stealing deque would buy nothing.
 *  - Exceptions thrown by tasks are captured; the first one is
 *    rethrown from wait(), so a fatal() inside one sweep cell
 *    surfaces to the caller exactly as in a serial run.
 *  - The pool is reusable: submit / wait cycles may repeat. The
 *    destructor drains any queued work, then joins.
 */

#ifndef VMSIM_BASE_THREAD_POOL_HH
#define VMSIM_BASE_THREAD_POOL_HH

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace vmsim
{

/** Fixed-size pool of worker threads draining a shared task queue. */
class ThreadPool
{
  public:
    /**
     * Start @p threads workers; 0 picks defaultThreads(). A pool of
     * one worker still runs tasks off-thread but effectively serially.
     */
    explicit ThreadPool(unsigned threads = 0);

    /** Drains remaining queued tasks, then joins all workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Enqueue @p task for execution by some worker. Thread-safe; may
     * be called from tasks themselves (but wait() must not).
     */
    void submit(std::function<void()> task);

    /**
     * Block until the queue is empty and no task is in flight, then
     * rethrow the first exception any task raised (if any). Call only
     * from the owning (non-worker) thread.
     */
    void wait();

    /** std::thread::hardware_concurrency(), at least 1. */
    static unsigned defaultThreads();

  private:
    void workerLoop();

    std::mutex mutex_;
    std::condition_variable workReady_;
    std::condition_variable allIdle_;
    std::deque<std::function<void()>> queue_;
    std::vector<std::thread> workers_;
    unsigned active_ = 0;
    bool stopping_ = false;
    std::exception_ptr firstError_;
};

/**
 * Run fn(0) .. fn(n-1) on @p pool and wait for completion. @p fn must
 * be safe to invoke concurrently; the first exception it throws is
 * rethrown here after all iterations finish or drain.
 */
template <typename Fn>
void
parallelFor(ThreadPool &pool, std::size_t n, Fn &&fn)
{
    for (std::size_t i = 0; i < n; ++i)
        pool.submit([&fn, i] { fn(i); });
    pool.wait();
}

/**
 * Parallel map: returns {fn(0), ..., fn(n-1)} in index order
 * regardless of execution interleaving. The result type must be
 * default-constructible. @p jobs == 1 runs serially on the calling
 * thread (no pool is created).
 */
template <typename Fn>
auto
parallelMap(unsigned jobs, std::size_t n, Fn &&fn)
    -> std::vector<std::decay_t<decltype(fn(std::size_t{0}))>>
{
    std::vector<std::decay_t<decltype(fn(std::size_t{0}))>> out(n);
    if (jobs == 0)
        jobs = ThreadPool::defaultThreads();
    if (jobs <= 1 || n <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            out[i] = fn(i);
        return out;
    }
    ThreadPool pool(static_cast<unsigned>(
        std::min<std::size_t>(jobs, n)));
    parallelFor(pool, n, [&](std::size_t i) { out[i] = fn(i); });
    return out;
}

} // namespace vmsim

#endif // VMSIM_BASE_THREAD_POOL_HH

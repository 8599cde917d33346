/**
 * @file
 * Minimal fixed-size worker pool with a blocking parallelFor primitive,
 * used by the sweep runner to fan experiment jobs across cores.
 *
 * The calling thread participates in draining the queue while it waits,
 * so a pool of N workers applies N+1 threads to a batch and nested
 * parallelFor calls cannot deadlock.
 *
 * All shared state (the task queue, the stop flag, a batch's completion
 * counters) is GUARDED_BY its mutex and locked through util::MutexLock,
 * so Clang's -Wthread-safety analysis proves the locking discipline at
 * compile time (see util/annotations.h).
 */

#ifndef LASER_UTIL_THREAD_POOL_H
#define LASER_UTIL_THREAD_POOL_H

#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/mutex.h"

namespace laser::util {

class ThreadPool
{
  public:
    /** @p workers 0 selects the hardware concurrency. */
    explicit ThreadPool(int workers = 0)
    {
        int n = workers > 0
                    ? workers
                    : static_cast<int>(std::thread::hardware_concurrency());
        if (n < 1)
            n = 1;
        threads_.reserve(n);
        for (int i = 0; i < n; ++i)
            threads_.emplace_back([this] { workerLoop(); });
    }

    ~ThreadPool()
    {
        {
            MutexLock lock(&mu_);
            stop_ = true;
        }
        cv_.notifyAll();
        for (std::thread &t : threads_)
            t.join();
    }

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    int workers() const { return static_cast<int>(threads_.size()); }

    /**
     * Run fn(0) .. fn(n-1) across the pool; blocks until every call has
     * completed. The first exception thrown by any call is rethrown here
     * (after the whole batch has drained); further exceptions from the
     * same batch are counted in the rethrown message when the first one
     * derives from std::exception.
     */
    void
    parallelFor(std::size_t n, const std::function<void(std::size_t)> &fn)
    {
        if (n == 0)
            return;

        struct Batch
        {
            explicit Batch(std::size_t n_tasks) : remaining(n_tasks) {}
            Mutex mu;
            CondVar done;
            std::size_t remaining GUARDED_BY(mu);
            std::exception_ptr error GUARDED_BY(mu);
            std::size_t suppressed GUARDED_BY(mu) = 0;
        };
        auto batch = std::make_shared<Batch>(n);

        {
            MutexLock lock(&mu_);
            for (std::size_t i = 0; i < n; ++i) {
                // fn is captured by reference: parallelFor does not
                // return until every task has finished running it.
                queue_.emplace_back([batch, &fn, i] {
                    try {
                        fn(i);
                    } catch (...) {
                        MutexLock lk(&batch->mu);
                        if (!batch->error)
                            batch->error = std::current_exception();
                        else
                            ++batch->suppressed;
                    }
                    bool last = false;
                    {
                        MutexLock lk(&batch->mu);
                        last = --batch->remaining == 0;
                    }
                    if (last)
                        batch->done.notifyAll();
                });
            }
        }
        cv_.notifyAll();

        // Help drain until nothing is queued, then wait for stragglers.
        for (;;) {
            std::function<void()> task;
            {
                MutexLock lock(&mu_);
                if (!queue_.empty()) {
                    task = std::move(queue_.front());
                    queue_.pop_front();
                }
            }
            if (!task)
                break;
            task();
        }
        std::size_t suppressed = 0;
        std::exception_ptr error;
        {
            MutexLock lk(&batch->mu);
            while (batch->remaining != 0)
                batch->done.wait(batch->mu);
            error = batch->error;
            suppressed = batch->suppressed;
        }
        if (!error)
            return;
        if (suppressed > 0) {
            // Append a note for std::exceptions (the common case); a
            // foreign exception type is rethrown untouched below.
            try {
                std::rethrow_exception(error);
            } catch (const std::exception &e) {
                throw std::runtime_error(
                    std::string(e.what()) + " [" +
                    std::to_string(suppressed) +
                    " additional exception(s) from the same parallelFor "
                    "batch suppressed]");
            } catch (...) {
            }
        }
        std::rethrow_exception(error);
    }

  private:
    void
    workerLoop()
    {
        for (;;) {
            std::function<void()> task;
            {
                MutexLock lock(&mu_);
                while (!stop_ && queue_.empty())
                    cv_.wait(mu_);
                if (stop_ && queue_.empty())
                    return;
                task = std::move(queue_.front());
                queue_.pop_front();
            }
            task();
        }
    }

    Mutex mu_;
    CondVar cv_;
    std::deque<std::function<void()>> queue_ GUARDED_BY(mu_);
    bool stop_ GUARDED_BY(mu_) = false;
    /** Written only by the constructor; joined by the destructor. */
    std::vector<std::thread> threads_;
};

} // namespace laser::util

#endif // LASER_UTIL_THREAD_POOL_H

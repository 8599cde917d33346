/**
 * @file
 * Capability-annotated locking primitives: the only sanctioned way to
 * lock in this codebase.
 *
 * util::Mutex wraps std::mutex and carries the Clang `capability`
 * attribute, so `-Wthread-safety` can prove that every access to a
 * `GUARDED_BY(mu_)` member holds the right lock (see
 * util/annotations.h). util::MutexLock is the scoped holder;
 * util::CondVar pairs with Mutex for waiting. Raw std::mutex /
 * std::condition_variable / std::lock_guard / std::unique_lock are
 * banned outside this file by the `raw-mutex` rule of laser_lint —
 * an unannotated lock is invisible to the analysis, which silently
 * un-checks every member it guards.
 *
 * The wrappers are zero-cost: every method is an inline forward to the
 * std primitive underneath.
 */

#ifndef LASER_UTIL_MUTEX_H
#define LASER_UTIL_MUTEX_H

#include <condition_variable>
#include <mutex>

#include "util/annotations.h"

namespace laser::util {

class CondVar;

/** Standard exclusive mutex, visible to the capability analysis. */
class CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void lock() ACQUIRE() { mu_.lock(); }
    void unlock() RELEASE() { mu_.unlock(); }
    bool tryLock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

  private:
    friend class CondVar;
    std::mutex mu_; // laser-lint: allow(raw-mutex) — the wrapped primitive
};

/**
 * RAII lock holder (the std::lock_guard of this codebase): acquires on
 * construction, releases on destruction, and tells the analysis so.
 *
 *     util::MutexLock lock(&mu_);
 *     guarded_member = ...; // provably safe
 */
class SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(Mutex *mu) ACQUIRE(mu) : mu_(mu) { mu_->lock(); }
    ~MutexLock() RELEASE() { mu_->unlock(); }

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

  private:
    Mutex *const mu_;
};

/**
 * Condition variable over util::Mutex.
 *
 * The capability analysis cannot model a wait's release-and-reacquire,
 * so wait() is declared REQUIRES(mu) — callers must hold the lock, the
 * invariant std::condition_variable demands anyway — and its body opts
 * out of the analysis. Use the explicit-loop form so the predicate's
 * guarded reads stay inside the caller's locked scope where the
 * analysis can see them:
 *
 *     util::MutexLock lock(&mu_);
 *     while (!ready_)   // ready_ is GUARDED_BY(mu_): checked
 *         cv_.wait(mu_);
 */
class CondVar
{
  public:
    CondVar() = default;
    CondVar(const CondVar &) = delete;
    CondVar &operator=(const CondVar &) = delete;

    /** Atomically release @p mu, block, and reacquire before return. */
    void
    wait(Mutex &mu) REQUIRES(mu) NO_THREAD_SAFETY_ANALYSIS
    {
        // Justification: wait() releases and reacquires mu through the
        // adopt/release dance below; the net effect (mu held on entry,
        // held again on return) matches the REQUIRES contract, which is
        // what callers are checked against.
        // laser-lint: allow(raw-mutex) — adopting the wrapped primitive
        std::unique_lock<std::mutex> lk(mu.mu_, std::adopt_lock);
        cv_.wait(lk);
        lk.release();
    }

    void notifyAll() { cv_.notify_all(); }

  private:
    std::condition_variable cv_; // laser-lint: allow(raw-mutex)
};

} // namespace laser::util

#endif // LASER_UTIL_MUTEX_H

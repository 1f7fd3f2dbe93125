/**
 * @file
 * Annotated lock primitives: thin wrappers over std::mutex /
 * std::condition_variable that carry the Clang thread-safety
 * attributes from sim/annotations.hh.
 *
 * libstdc++ does not annotate its synchronization types, so code
 * locking a raw std::mutex is invisible to `-Wthread-safety`. These
 * wrappers restore the analysis: declare shared state
 * `VIP_GUARDED_BY(mutex_)`, take a `LockGuard` where you would have
 * taken a `std::lock_guard`/`std::unique_lock`, and the clang CI leg
 * rejects any access that can race. The wrappers compile to exactly
 * the std calls (everything is inline and attribute-only), so GCC
 * builds are bit-identical in behaviour.
 *
 * `LockGuard` supports the unique_lock idioms the repo uses: manual
 * `unlock()`/`lock()` for hand-over-hand emission (serve.cc) and
 * condition waits through `CondVar`, which adopts the guard's
 * underlying mutex for the duration of the wait.
 */

#ifndef VIP_SIM_MUTEX_HH
#define VIP_SIM_MUTEX_HH

#include <condition_variable>
#include <mutex>

#include "sim/annotations.hh"

namespace vip {

class CondVar;

/** An annotated std::mutex: the capability the analysis tracks. */
class VIP_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void lock() VIP_ACQUIRE() { m_.lock(); }
    void unlock() VIP_RELEASE() { m_.unlock(); }

  private:
    friend class CondVar;
    std::mutex m_;
};

/**
 * RAII guard over a Mutex, with std::unique_lock's manual
 * unlock()/lock() escape for hand-over-hand patterns. Non-movable:
 * a guard's scope IS the critical section.
 */
class VIP_SCOPED_CAPABILITY LockGuard
{
  public:
    explicit LockGuard(Mutex &m) VIP_ACQUIRE(m) : mutex_(m)
    {
        mutex_.lock();
    }

    ~LockGuard() VIP_RELEASE()
    {
        if (held_)
            mutex_.unlock();
    }

    LockGuard(const LockGuard &) = delete;
    LockGuard &operator=(const LockGuard &) = delete;

    /** Temporarily exit the critical section (e.g. to do I/O). */
    void
    unlock() VIP_RELEASE()
    {
        mutex_.unlock();
        held_ = false;
    }

    /** Re-enter after unlock(). */
    void
    lock() VIP_ACQUIRE()
    {
        mutex_.lock();
        held_ = true;
    }

  private:
    friend class CondVar;
    Mutex &mutex_;
    bool held_ = true;
};

/**
 * Condition variable for Mutex/LockGuard. wait() adopts the guard's
 * underlying std::mutex, so it is exactly a
 * std::condition_variable::wait — no condition_variable_any overhead.
 *
 * The analysis cannot model a wait's release-and-reacquire cycle, so
 * the wait methods are opted out; the capability is held again when
 * they return, which is what callers observe.
 */
class CondVar
{
  public:
    CondVar() = default;
    CondVar(const CondVar &) = delete;
    CondVar &operator=(const CondVar &) = delete;

    void notify_one() { cv_.notify_one(); }
    void notify_all() { cv_.notify_all(); }

    /** Atomically release @p guard, block, re-acquire. @p guard must
     *  be held (locked) on entry; it is held again on return. */
    void
    wait(LockGuard &guard) VIP_NO_THREAD_SAFETY_ANALYSIS
    {
        std::unique_lock<std::mutex> native(guard.mutex_.m_,
                                            std::adopt_lock);
        cv_.wait(native);
        native.release();  // the LockGuard still owns the lock
    }

    /** wait() until @p pred holds; pred runs with the lock held. */
    template <typename Pred>
    void
    wait(LockGuard &guard, Pred pred) VIP_NO_THREAD_SAFETY_ANALYSIS
    {
        std::unique_lock<std::mutex> native(guard.mutex_.m_,
                                            std::adopt_lock);
        cv_.wait(native, std::move(pred));
        native.release();
    }

  private:
    std::condition_variable cv_;
};

} // namespace vip

#endif // VIP_SIM_MUTEX_HH

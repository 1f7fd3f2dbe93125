/**
 * @file
 * Cooperative cancellation and wall-clock deadlines for runs.
 *
 * A CancelToken is the one-way stop signal for a simulation in
 * flight: the owner (a serve connection handling {"cmd":"cancel"}, a
 * SIGINT handler in vip-run, a test) flips it from any thread, and
 * the run loop polls it — VipSystem::run() every kCancelPollCycles
 * simulated cycles and after every fast-forward warp — and surfaces the stop as a structured CancelledError or
 * TimeoutError (sim/error.hh) on the calling thread.
 *
 * Two independent triggers share the token:
 *
 *  - cancel(): an explicit request. Sticky; safe to call from a
 *    signal handler (a lock-free atomic store) or any thread.
 *  - setBudgetMs(): arms a host wall-clock deadline. This is the
 *    *only* place simulated execution is allowed to read a host
 *    clock besides the host-timing fields of RunResult: a budget
 *    bounds host execution, never simulated behaviour. A run that
 *    completes within its budget is byte-identical to an unbudgeted
 *    run — which is why RunSpec::fingerprint() excludes budgetMs and
 *    cached responses stay valid for any budget.
 *
 * Polling cost: cancelled() is one relaxed atomic load; expired()
 * reads the clock, so the run loop rate-limits it (every
 * kCancelPollCycles cycles), bounding
 * cancellation latency to a few host milliseconds without taxing the
 * tick loop.
 */

#ifndef VIP_SIM_CANCEL_HH
#define VIP_SIM_CANCEL_HH

#include <atomic>
#include <chrono>
#include <cstdint>

#include "sim/error.hh"

namespace vip {

class CancelToken
{
  public:
    CancelToken() = default;
    CancelToken(const CancelToken &) = delete;
    CancelToken &operator=(const CancelToken &) = delete;

    /** Request a stop. Sticky, idempotent, callable from any thread
     *  or a signal handler (one lock-free atomic store). */
    void
    cancel()
    {
        cancelled_.store(true, std::memory_order_relaxed);
    }

    /** Has cancel() been called? One relaxed load — cheap enough for
     *  hot loops. */
    bool
    cancelled() const
    {
        return cancelled_.load(std::memory_order_relaxed);
    }

    /**
     * Arm a wall-clock deadline @p budget_ms from now (0 disarms).
     * Call before handing the token to a run; the deadline is not
     * synchronized against concurrent polls.
     */
    void
    setBudgetMs(std::uint64_t budget_ms)
    {
        budgetMs_ = budget_ms;
        if (budget_ms == 0) {
            armed_.store(false, std::memory_order_relaxed);
            return;
        }
        deadline_ = std::chrono::steady_clock::now() +  // vip-lint: allow(wall-clock)
                    std::chrono::milliseconds(budget_ms);
        armed_.store(true, std::memory_order_release);
    }

    /** A deadline is armed (setBudgetMs with a nonzero budget). */
    bool
    hasDeadline() const
    {
        return armed_.load(std::memory_order_relaxed);
    }

    /** The armed deadline has passed. Reads the host clock — poll at
     *  boundaries, not per tick. */
    bool
    expired() const
    {
        if (!armed_.load(std::memory_order_acquire))
            return false;
        return std::chrono::steady_clock::now() >= deadline_;  // vip-lint: allow(wall-clock)
    }

    /** Either trigger fired: stop at the next boundary. */
    bool
    shouldStop() const
    {
        return cancelled() || expired();
    }

    /**
     * Throw the structured error for whichever trigger fired:
     * CancelledError for an explicit cancel (it wins when both
     * fired — the explicit request is the stronger statement),
     * TimeoutError for an expired budget, nothing when neither did.
     */
    void
    check() const
    {
        if (cancelled())
            throw CancelledError("run cancelled");
        if (expired()) {
            throw TimeoutError("run exceeded its wall-clock budget of " +
                               std::to_string(budgetMs_) + "ms");
        }
    }

  private:
    std::atomic<bool> cancelled_{false};
    std::atomic<bool> armed_{false};
    std::uint64_t budgetMs_ = 0;
    std::chrono::steady_clock::time_point deadline_{};  // vip-lint: allow(wall-clock)
};

/** Serial-loop poll cadence: check the token every this many
 *  simulated cycles (and after every fast-forward warp). */
constexpr std::uint64_t kCancelPollCycles = 65'536;

} // namespace vip

#endif // VIP_SIM_CANCEL_HH

/**
 * @file
 * Parallel sweep engine: a fixed-size thread pool for running many
 * independent simulations (bench sweep points, BP tiles, per-layer CNN
 * slices) concurrently on host threads.
 *
 * The paper's methodology (Sec. V-A) measures one *independent tile*
 * per data point — work that shares no simulated PEs, DRAM, or network
 * with its peers — so a sweep is embarrassingly parallel across host
 * cores. The engine enforces the determinism contract that makes this
 * safe to exploit:
 *
 *  - **One VipSystem per thread.** Every job constructs, runs, and
 *    destroys its own VipSystem; nothing simulated is shared between
 *    jobs. `VipSystem::run()` asserts it is never entered concurrently.
 *  - **Results keyed by submission index**, never by completion order:
 *    `SweepEngine::run()` returns `outcomes[i]` for `points[i]` no
 *    matter which worker finished first.
 *  - **Per-job seeded Rng.** Jobs must not share generators; derive a
 *    seed from the submission index with `jobSeed()` (or seed locally
 *    with a constant, as the bench harness does) so a point's input
 *    data does not depend on scheduling.
 *
 * With `jobs == 1` the engine spawns no threads and runs every job
 * inline on the calling thread, byte-identically reproducing the old
 * serial behaviour.
 */

#ifndef VIP_SIM_SWEEP_HH
#define VIP_SIM_SWEEP_HH

#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "sim/error.hh"
#include "sim/mutex.hh"

namespace vip {

/**
 * What went wrong in one sweep job, captured structurally so a sweep
 * harness can attach the failure to its point instead of losing the
 * whole campaign.
 */
struct SweepFailure
{
    std::size_t index = 0;  ///< submission index of the failed job
    SimError error{{}, {}}; ///< what was thrown, as currentError() names it
    std::exception_ptr thrown;  ///< the original, for wait()'s rethrow
};

/** Deterministic per-job RNG seed (SplitMix64 scramble of the index). */
inline std::uint64_t
jobSeed(std::size_t index, std::uint64_t base = 0x9e3779b97f4a7c15ull)
{
    std::uint64_t z = base + 0x9e3779b97f4a7c15ull * (index + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

class SweepEngine
{
  public:
    /** Most workers an engine starts: far above the cores of any host
     *  the simulator runs on, far below a process's thread limit. */
    static constexpr unsigned kMaxJobs = 256;

    /**
     * @param jobs  worker count; 0 picks the host's hardware
     *              concurrency, 1 runs inline with no threads.
     * @throws ConfigError above kMaxJobs, before any thread starts.
     */
    explicit SweepEngine(unsigned jobs = 0);

    /** Joins the workers; pending jobs are completed first. */
    ~SweepEngine();

    SweepEngine(const SweepEngine &) = delete;
    SweepEngine &operator=(const SweepEngine &) = delete;

    /** Number of jobs that can make progress at once (>= 1). */
    unsigned jobs() const { return jobs_; }

    /** The default worker count for `jobs == 0`: the host's
     *  concurrency, in [1, kMaxJobs]. */
    static unsigned hardwareJobs();

    /**
     * Submit one job. Jobs may run on any worker thread, in any order;
     * never share mutable state (a VipSystem, an Rng, a StatGroup)
     * between jobs. @return the job's submission index.
     */
    std::size_t submit(std::function<void()> fn);

    /**
     * Block until every job submitted so far has finished. If any job
     * threw, rethrows the exception of the lowest-indexed failed job
     * (deterministic regardless of completion order).
     */
    void wait();

    /**
     * Block until every job submitted so far has finished and return
     * the failures (sorted by submission index) instead of throwing —
     * the isolation primitive: a wedged or misconfigured point reports
     * itself here while its siblings' results stand.
     */
    std::vector<SweepFailure> waitCollect();

    /** One point's outcome from run(). */
    template <typename R>
    struct Outcome
    {
        R result{};           ///< default-constructed when !ok
        bool ok = true;
        SweepFailure failure; ///< meaningful only when !ok
    };

    /**
     * Run a whole sweep: execute every callable and return its outcome
     * keyed by submission index. A throwing point marks only its own
     * outcome failed (carrying the structured failure) and every other
     * point completes normally. `R` must be default-constructible.
     */
    template <typename R>
    std::vector<Outcome<R>>
    run(const std::vector<std::function<R()>> &points)
    {
        std::vector<Outcome<R>> outcomes(points.size());
        std::size_t base = 0;
        for (std::size_t i = 0; i < points.size(); ++i) {
            const std::size_t idx = submit([&outcomes, &points, i] {
                outcomes[i].result = points[i]();
            });
            if (i == 0)
                base = idx;
        }
        for (SweepFailure &f : waitCollect()) {
            // Failures are keyed by global submission index; only map
            // the ones belonging to this batch.
            if (f.index < base || f.index - base >= outcomes.size())
                continue;
            const std::size_t i = f.index - base;
            outcomes[i].ok = false;
            outcomes[i].failure = std::move(f);
        }
        return outcomes;
    }

  private:
    struct Job
    {
        std::size_t index;
        std::function<void()> fn;
    };

    void workerLoop(unsigned worker_id);
    void runJob(const Job &job);

    unsigned jobs_ = 1;
    std::vector<std::thread> workers_;

    /** Guards every field below: the queue, the in-flight accounting,
     *  and the failure captures. Workers and the submitting thread
     *  meet nowhere else (jobs themselves share nothing by contract). */
    Mutex mutex_;
    CondVar workAvailable_;
    CondVar allDone_;
    std::deque<Job> queue_ VIP_GUARDED_BY(mutex_);
    std::size_t nextIndex_ VIP_GUARDED_BY(mutex_) = 0;  ///< submissions
    std::size_t inFlight_ VIP_GUARDED_BY(mutex_) = 0;   ///< queued+running
    bool shuttingDown_ VIP_GUARDED_BY(mutex_) = false;

    /** One entry per failed job, in completion order. */
    std::vector<SweepFailure> failures_ VIP_GUARDED_BY(mutex_);
};

} // namespace vip

#endif // VIP_SIM_SWEEP_HH

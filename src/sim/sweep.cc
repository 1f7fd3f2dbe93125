#include "sim/sweep.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace vip {

unsigned
SweepEngine::hardwareJobs()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return std::clamp(hw, 1u, kMaxJobs);
}

SweepEngine::SweepEngine(unsigned jobs)
    : jobs_(jobs ? jobs : hardwareJobs())
{
    if (jobs_ > kMaxJobs) {
        throw ConfigError("a sweep engine takes at most " +
                          std::to_string(kMaxJobs) + " workers, not " +
                          std::to_string(jobs_));
    }
    if (jobs_ == 1)
        return;  // inline mode: no threads at all
    workers_.reserve(jobs_);
    for (unsigned w = 0; w < jobs_; ++w)
        workers_.emplace_back([this, w] { workerLoop(w); });
}

SweepEngine::~SweepEngine()
{
    {
        LockGuard lock(mutex_);
        shuttingDown_ = true;
    }
    workAvailable_.notify_all();
    for (auto &t : workers_)
        t.join();
}

void
SweepEngine::runJob(const Job &job)
{
    setLogThreadLabel("job" + std::to_string(job.index));
    try {
        job.fn();
    } catch (...) {
        SweepFailure failure{job.index, currentError(),
                             std::current_exception()};
        LockGuard lock(mutex_);
        failures_.push_back(std::move(failure));
    }
    setLogThreadLabel("");
}

void
SweepEngine::workerLoop(unsigned)
{
    for (;;) {
        Job job;
        {
            LockGuard lock(mutex_);
            workAvailable_.wait(lock, [this]() VIP_REQUIRES(mutex_) {
                return !queue_.empty() || shuttingDown_;
            });
            if (queue_.empty())
                return;  // shutting down and drained
            job = std::move(queue_.front());
            queue_.pop_front();
        }
        runJob(job);
        {
            LockGuard lock(mutex_);
            if (--inFlight_ == 0)
                allDone_.notify_all();
        }
    }
}

std::size_t
SweepEngine::submit(std::function<void()> fn)
{
    if (jobs_ == 1) {
        // Inline mode: run immediately on the caller's thread, in
        // submission order — exactly the old serial behaviour. The
        // (uncontended) lock keeps the guarded-by contract uniform.
        std::size_t index;
        {
            LockGuard lock(mutex_);
            index = nextIndex_++;
        }
        runJob(Job{index, std::move(fn)});
        return index;
    }
    std::size_t index;
    {
        LockGuard lock(mutex_);
        vip_assert(!shuttingDown_, "submit after engine shutdown");
        index = nextIndex_++;
        queue_.push_back(Job{index, std::move(fn)});
        ++inFlight_;
    }
    workAvailable_.notify_one();
    return index;
}

std::vector<SweepFailure>
SweepEngine::waitCollect()
{
    std::vector<SweepFailure> failures;
    {
        LockGuard lock(mutex_);
        // Inline mode never has work in flight here, so the wait is
        // an immediate pass-through.
        allDone_.wait(lock, [this]() VIP_REQUIRES(mutex_) {
            return inFlight_ == 0;
        });
        failures.swap(failures_);
    }
    // Deterministic reporting: submission order, no matter which
    // worker hit its exception first.
    std::sort(failures.begin(), failures.end(),
              [](const SweepFailure &a, const SweepFailure &b) {
                  return a.index < b.index;
              });
    return failures;
}

void
SweepEngine::wait()
{
    const std::vector<SweepFailure> failures = waitCollect();
    if (!failures.empty())
        std::rethrow_exception(failures.front().thrown);
}

} // namespace vip

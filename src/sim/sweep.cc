#include "sim/sweep.hh"

#include <algorithm>
#include <new>

#include "sim/error.hh"
#include "sim/logging.hh"

namespace vip {

unsigned
SweepEngine::hardwareJobs()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

SweepEngine::SweepEngine(unsigned jobs)
    : jobs_(jobs ? jobs : hardwareJobs())
{
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
    SweepFailure failure;
    failure.index = job.index;
    std::exception_ptr eptr;
    try {
        job.fn();
    } catch (const std::bad_alloc &e) {
        // The host ran out of memory: a property of the moment, not
        // of the job, so it is reported apart from simulation errors.
        eptr = std::current_exception();
        failure.kind = "transient";
        failure.message = e.what();
    } catch (const SimError &e) {
        eptr = std::current_exception();
        failure.kind = e.kind();
        failure.message = e.message();
        failure.detail = e.detail();
    } catch (const std::exception &e) {
        eptr = std::current_exception();
        failure.kind = "exception";
        failure.message = e.what();
    } catch (...) {
        eptr = std::current_exception();
        failure.kind = "unknown";
        failure.message = "non-exception object thrown";
    }
    if (eptr) {
        LockGuard lock(mutex_);
        errors_.emplace_back(job.index, eptr);
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

void
SweepEngine::wait()
{
    std::vector<std::pair<std::size_t, std::exception_ptr>> errors;
    {
        LockGuard lock(mutex_);
        // Inline mode never has work in flight here, so the wait is
        // an immediate pass-through.
        allDone_.wait(lock, [this]() VIP_REQUIRES(mutex_) {
            return inFlight_ == 0;
        });
        errors.swap(errors_);
        failures_.clear();
    }
    if (errors.empty())
        return;
    // Deterministic error reporting: the lowest submission index wins,
    // no matter which worker hit its exception first.
    const auto first = std::min_element(
        errors.begin(), errors.end(),
        [](const auto &a, const auto &b) { return a.first < b.first; });
    std::rethrow_exception(first->second);
}

std::vector<SweepFailure>
SweepEngine::waitCollect()
{
    std::vector<SweepFailure> failures;
    {
        LockGuard lock(mutex_);
        allDone_.wait(lock, [this]() VIP_REQUIRES(mutex_) {
            return inFlight_ == 0;
        });
        failures.swap(failures_);
        errors_.clear();
    }
    std::sort(failures.begin(), failures.end(),
              [](const SweepFailure &a, const SweepFailure &b) {
                  return a.index < b.index;
              });
    return failures;
}

} // namespace vip

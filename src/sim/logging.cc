#include "sim/logging.hh"

#include <cstdio>
#include <cstdlib>

#include "sim/mutex.hh"

namespace vip {

namespace {

/** Serializes writes to the sink so concurrent records never interleave. */
Mutex sink_mutex;

/** Per-thread record tag (empty = untagged), set by the sweep engine. */
thread_local std::string thread_label;

} // namespace

void
setLogThreadLabel(std::string label)
{
    thread_label = std::move(label);
}

namespace detail {

void
panic(const std::string &msg, const char *file, int line)
{
    // Format the complete record off-lock; one write under the lock.
    std::string record = "[panic] ";
    if (!thread_label.empty())
        record += "[" + thread_label + "] ";
    record += msg + " (" + file + ":" + std::to_string(line) + ")\n";
    {
        LockGuard lock(sink_mutex);
        std::fwrite(record.data(), 1, record.size(), stderr);
    }
    std::abort();  // vip-lint: allow(no-exit)
}

} // namespace detail

} // namespace vip

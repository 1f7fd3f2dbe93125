/**
 * @file
 * Panic reporting for the VIP simulator.
 *
 * vip_panic() and vip_assert() are for simulator bugs: conditions that
 * no input should be able to reach. They print one record and abort.
 * Everything a caller can cause (a bad configuration, a malformed
 * program or binary, a wedged machine) throws a SimError instead (see
 * sim/error.hh); library code has no other way to stop.
 *
 * The sink is thread-safe: a record is formatted off-lock, emitted as
 * one atomic write, and carries the calling thread's label (see
 * setLogThreadLabel) so a parallel sweep job's panic stays
 * attributable.
 */

#ifndef VIP_SIM_LOGGING_HH
#define VIP_SIM_LOGGING_HH

#include <sstream>
#include <string>

namespace vip {

namespace detail {

/** Emit one panic record naming @p file:@p line, then abort. */
[[noreturn]] void panic(const std::string &msg, const char *file,
                        int line);

template <typename... Args>
std::string
formatArgs(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

} // namespace detail

/**
 * Tag every log record emitted by the calling thread with @p label
 * (e.g. "job7"); an empty label clears the tag. The SweepEngine sets
 * this around each job so concurrent workers' records are attributable.
 */
void setLogThreadLabel(std::string label);

} // namespace vip

/** Simulator bug: print and abort(). */
#define vip_panic(...)                                                      \
    ::vip::detail::panic(::vip::detail::formatArgs(__VA_ARGS__), __FILE__,  \
                         __LINE__)

/** Internal invariant check; panics with the expression text on failure. */
#define vip_assert(cond, ...)                                               \
    do {                                                                    \
        if (!(cond)) {                                                      \
            vip_panic("assertion failed: " #cond " ", ##__VA_ARGS__);       \
        }                                                                   \
    } while (0)

#endif // VIP_SIM_LOGGING_HH

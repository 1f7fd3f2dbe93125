/**
 * @file
 * Structured, recoverable errors for the VIP simulator.
 *
 * The logging layer's contract (sim/logging.hh) divides failures into
 * simulator bugs (vip_panic/vip_assert — conditions no input should be
 * able to reach, which abort) and *user-recoverable* conditions: a bad
 * configuration, a malformed program, a machine that wedges under an
 * injected fault. The latter used to exit or abort the whole process,
 * which is fatal to long design-space campaigns — one bad sweep point
 * killed thousands of good ones. They now throw a SimError subclass
 * instead, so callers (the sweep engine, vip-run, tests) can attach
 * the failure to the point that caused it and keep going.
 *
 * Conventions:
 *  - library code throws; it never calls std::exit or abort for
 *    conditions a caller could reasonably recover from,
 *  - every error carries a machine-readable `kind()` (stable short
 *    token), a one-line `message()`, and an optional multi-line
 *    `detail()` (e.g. the deadlock diagnosis report),
 *  - what() always contains message + detail, so code catching plain
 *    std::exception still sees everything.
 */

#ifndef VIP_SIM_ERROR_HH
#define VIP_SIM_ERROR_HH

#include <stdexcept>
#include <string>
#include <utility>

namespace vip {

class SimError : public std::runtime_error
{
  public:
    SimError(std::string kind, std::string message, std::string detail = {})
        : std::runtime_error(detail.empty() ? message
                                            : message + "\n" + detail),
          kind_(std::move(kind)), message_(std::move(message)),
          detail_(std::move(detail))
    {}

    /** Stable short token ("config", "assembly", "deadlock", ...). */
    const std::string &kind() const { return kind_; }

    /** One-line summary, suitable for a table cell or a JSON field. */
    const std::string &message() const { return message_; }

    /** Optional multi-line report (empty when there is none). */
    const std::string &detail() const { return detail_; }

  private:
    std::string kind_;
    std::string message_;
    std::string detail_;
};

/** Invalid user configuration, rejected before it can wedge or UB. */
class ConfigError : public SimError
{
  public:
    explicit ConfigError(std::string message)
        : SimError("config", std::move(message))
    {}
};

/** Source program failed to assemble. */
class AssemblyFailure : public SimError
{
  public:
    AssemblyFailure(unsigned line, const std::string &message)
        : SimError("assembly",
                   "assembly error at line " + std::to_string(line) +
                       ": " + message),
          line_(line)
    {}

    unsigned line() const { return line_; }

  private:
    unsigned line_;
};

/**
 * A program did something the ISA rules out at run time: a scratchpad
 * operand outside the scratchpad, an empty ld.sram/st.sram, a DRAM
 * access beyond the capacity, VL or MR unset or out of range, m.v
 * without the reduction unit, the PC running off the end, or (with
 * strict hazard checking) a read in a vector result's timing shadow.
 * The issuing PE throws it mid-run, naming itself, the PC and the
 * instruction; the machine is left mid-flight but destructible.
 */
class ProgramError : public SimError
{
  public:
    explicit ProgramError(std::string message)
        : SimError("program", std::move(message))
    {}
};

/**
 * The watchdog found the machine making no progress. detail() carries
 * the deadlock diagnosis report: per-PE PC / stall reason / LSQ
 * occupancy and per-vault queue depths (see VipSystem::run).
 */
class DeadlockError : public SimError
{
  public:
    DeadlockError(std::string message, std::string diagnosis)
        : SimError("deadlock", std::move(message), std::move(diagnosis))
    {}
};

/**
 * A run exceeded its wall-clock budget (RunSpec::budgetMs /
 * vip-run --timeout-ms) and was stopped at a poll boundary by its
 * CancelToken (sim/cancel.hh). The machine's partial state is
 * discarded; re-running the same spec without (or within) a budget
 * produces the full deterministic result.
 */
class TimeoutError : public SimError
{
  public:
    explicit TimeoutError(std::string message)
        : SimError("timeout", std::move(message))
    {}
};

/**
 * A run was stopped by an explicit cancellation request (a
 * {"cmd":"cancel"} on vip-serve, SIGINT/SIGTERM on vip-run, or a
 * direct CancelToken::cancel()).
 */
class CancelledError : public SimError
{
  public:
    explicit CancelledError(std::string message)
        : SimError("cancelled", std::move(message))
    {}
};

/**
 * A transient *host-level* failure (an allocation that may succeed
 * on retry, a worker that died and was replaced) — as opposed to a
 * deterministic simulation failure, which would recur identically.
 * The sweep engine's retry policy (sim/sweep.hh) re-runs jobs that
 * throw this (or std::bad_alloc) from their spec, so a retried
 * point's output is byte-identical to a first-try success.
 */
class TransientError : public SimError
{
  public:
    explicit TransientError(std::string message)
        : SimError("transient", std::move(message))
    {}
};

} // namespace vip

#endif // VIP_SIM_ERROR_HH

/**
 * @file
 * Structured, recoverable errors for the VIP simulator.
 *
 * A SimError is the one way library code reports a failure a caller
 * can cause: a bad configuration, a malformed program or binary, a
 * machine that wedges under an injected fault, a run out of time.
 * Simulator bugs, which no input should reach, panic instead (see
 * sim/logging.hh). Throwing lets a caller (the sweep engine, vip-serve,
 * vip-run, tests) attach the failure to the point that caused it and
 * keep going: one bad point in a design-space campaign must not kill
 * thousands of good ones.
 *
 * Conventions:
 *  - library code throws; it never calls std::exit or abort (vip-lint's
 *    no-exit rule enforces this under src/),
 *  - every error carries a machine-readable `kind()` (stable short
 *    token), a one-line `message()`, and an optional multi-line
 *    `detail()` (e.g. the deadlock diagnosis report),
 *  - what() always contains message + detail, so code catching plain
 *    std::exception still sees everything,
 *  - a catch-all names what it caught with currentError(), the one
 *    place a foreign exception becomes a SimError.
 */

#ifndef VIP_SIM_ERROR_HH
#define VIP_SIM_ERROR_HH

#include <new>
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
    AssemblyFailure(unsigned line, std::string reason)
        : SimError("assembly",
                   "assembly error at line " + std::to_string(line) +
                       ": " + reason),
          line_(line), reason_(std::move(reason))
    {}

    /** 1-based source line; 0 for a whole-program error. */
    unsigned line() const { return line_; }

    /** What is wrong, without the line prefix. */
    const std::string &reason() const { return reason_; }

  private:
    unsigned line_;
    std::string reason_;
};

/**
 * A program did something the ISA rules out at run time: a scratchpad
 * operand outside the scratchpad, an empty ld.sram/st.sram, a DRAM
 * access beyond the capacity, VL or MR unset or out of range, m.v
 * without the reduction unit, the PC running off the end, or (with
 * strict hazard checking) a read in a vector result's timing shadow.
 * The issuing PE throws it mid-run, naming itself, the PC and the
 * instruction; the machine is left mid-flight but destructible. The
 * ISA layer throws it too, for a program the PE cannot hold: a
 * generated program longer than the instruction buffer, an immediate
 * too wide to encode, or a binary image that does not decode.
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
 * The exception in flight, as a SimError; call it only inside a catch
 * block. A SimError stays itself (sliced to its kind, message and
 * detail); std::bad_alloc becomes "transient", since running out of
 * host memory is a property of the moment and not of the job; any
 * other std::exception becomes "exception"; anything else "unknown".
 */
inline SimError
currentError()
{
    try {
        throw;
    } catch (const SimError &e) {
        return e;
    } catch (const std::bad_alloc &e) {
        return SimError("transient", e.what());
    } catch (const std::exception &e) {
        return SimError("exception", e.what());
    } catch (...) {
        return SimError("unknown", "non-exception object thrown");
    }
}

} // namespace vip

#endif // VIP_SIM_ERROR_HH

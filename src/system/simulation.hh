/**
 * @file
 * The front door of the simulator: configuration helpers and the
 * `Simulation` facade.
 *
 * Every host-side user of the machine — the command-line runner, the
 * examples, the bench harness, tests — performs the same ritual:
 * build a SystemConfig, construct a VipSystem, stage DRAM, assemble
 * and load programs, run, then inspect memory and statistics. The
 * facade packages that ritual behind a fluent API:
 *
 *   RunResult r = Simulation(makeSystemConfig(1, 1))
 *                     .loadProgram(0, source_text)
 *                     .pokeDram(addr, {3, 1, 4})
 *                     .run(max_cycles);
 *
 * The facade owns its VipSystem and inherits its threading contract:
 * one Simulation is confined to one host thread, and a parallel sweep
 * (sim/sweep.hh) builds one Simulation per job.
 */

#ifndef VIP_SYSTEM_SIMULATION_HH
#define VIP_SYSTEM_SIMULATION_HH

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/error.hh"
#include "system/system.hh"

namespace vip {

class Json;

/**
 * NoC grid dimensions used for a given vault count: the most-square
 * power-of-two factorization (32 -> 8x4, 16 -> 4x4, 64 -> 8x8).
 * Throws ConfigError for non-power-of-two counts — the address
 * mapper cannot split vault index bits out of such an address, so
 * the old silent `{vaults, 1}` fallback only deferred the failure to
 * a less helpful place.
 */
inline std::pair<unsigned, unsigned>
nocDimsFor(unsigned vaults)
{
    if (vaults == 0 || (vaults & (vaults - 1)) != 0) {
        throw ConfigError(
            "vaults = " + std::to_string(vaults) +
            "; the NoC grid (and the address mapper's vault index "
            "bits) requires a nonzero power-of-two vault count");
    }
    unsigned log2 = 0;
    while ((1u << log2) < vaults)
        ++log2;
    const unsigned x = 1u << ((log2 + 1) / 2);
    return {x, vaults / x};
}

/**
 * A system configuration with @p vaults vaults (DRAM capacity is held
 * at the full stack's per-vault share) and @p pes_per_vault PEs.
 */
inline SystemConfig
makeSystemConfig(unsigned vaults = 32, unsigned pes_per_vault = 4)
{
    SystemConfig cfg;
    cfg.mem.geom.vaults = vaults;
    const auto [x, y] = nocDimsFor(vaults);
    cfg.nocX = x;
    cfg.nocY = y;
    cfg.pesPerVault = pes_per_vault;
    return cfg;
}

/** What one Simulation::run() observed. */
struct RunResult
{
    Cycles cycles = 0;  ///< total cycles simulated so far

    /** Every PE halted and the machine drained (not a budget stop). */
    bool haltedCleanly = false;

    /** Every counter in the statistics tree, keyed by dotted path
     *  ("system.pe0.issued", ...). For the human-readable text form,
     *  call StatGroup::dump on the system's stats() (vip-run
     *  --stats does). */
    std::map<std::string, std::uint64_t> counters;

    /** Host wall-clock seconds this run() call took. */
    double hostSeconds = 0.0;

    /** Simulated cycles advanced this run() per host second. */
    double simCyclesPerHostSecond = 0.0;

    /**
     * µop-cache / fast-path counters summed across PEs, keyed by
     * counter name ("block_runs", "fast_uops", "fallback_regs", ...)
     * — see Pe::FastPathStats. These measure the host-side execution
     * strategy, live outside the system stats tree, and are excluded
     * from toJson(): RunResult JSON is identical with the fast path on
     * or off.
     */
    std::map<std::string, std::uint64_t> fastpath;

    /** Largest MemRequest-pool working set across PEs: the most
     *  descriptors any one PE ever had in flight at once. */
    unsigned memRequestPoolHighWater = 0;

    /** Per-PE fresh MemRequest heap allocations. Steady state this
     *  stops growing; a perf PR that reintroduces per-transfer
     *  allocation shows up here immediately. */
    std::vector<std::uint64_t> peRequestAllocations;

    /** True when the run executed under a FaultPlan; the counters
     *  below are only meaningful then. */
    bool faultInjectionEnabled = false;

    /** Injection and ECC counters (see sim/fault.hh). */
    FaultStats faults;

    /** Flipped words still uncorrected/unoverwritten at run end
     *  (FaultInjector::outstandingFlippedWords()). */
    std::uint64_t outstandingFlippedWords = 0;

    double ms() const { return cyclesToMs(cycles); }

    /** Value of one counter by dotted path; 0 when absent. */
    std::uint64_t
    counter(const std::string &path) const
    {
        const auto it = counters.find(path);
        return it == counters.end() ? 0 : it->second;
    }

    /**
     * The structured result: cycles, halt state, the request-pool
     * counters, the typed counter map, an always-empty "formulas"
     * object, and the fault section when injection ran.
     * Deliberately excludes host wall-clock timing (hostSeconds,
     * simCyclesPerHostSecond) so the JSON of two identical runs is
     * byte-identical — the property the serve result cache serves
     * repeated requests on.
     */
    Json toJson() const;
};

/**
 * Owns one simulated machine and exposes the whole
 * stage-load-run-inspect workflow as a fluent API.
 */
class Simulation
{
  public:
    /** Defaults to the paper's full 32-vault, 128-PE machine. */
    explicit Simulation(const SystemConfig &cfg = makeSystemConfig())
        : sys_(cfg)
    {}

    /**
     * Assemble @p source (the paper's assembly notation) and load it
     * onto PE @p pe; throws AssemblyFailure (with the 1-based source
     * line) on assembly errors. Use assemble() + the Instruction
     * overload to inspect errors without exceptions.
     */
    Simulation &loadProgram(unsigned pe, const std::string &source);

    /** Load an already-assembled program onto PE @p pe. */
    Simulation &
    loadProgram(unsigned pe, std::vector<Instruction> prog)
    {
        sys_.pe(pe).loadProgram(std::move(prog));
        return *this;
    }

    /** Seed an argument register on PE @p pe. */
    Simulation &
    setReg(unsigned pe, unsigned reg, std::uint64_t value)
    {
        sys_.pe(pe).setReg(reg, value);
        return *this;
    }

    /** Store one 16-bit value into DRAM before (or between) runs.
     *  Host writes overwrite any injected flips in the covered bytes
     *  (the injector's ECC record is healed to match). Throws
     *  ConfigError (naming `pokes[].addr`) when the word does not lie
     *  inside the DRAM capacity. */
    Simulation &
    pokeDram(Addr addr, std::int16_t value)
    {
        return pokeWords(addr, &value, 1);
    }

    /** Store consecutive 16-bit values starting at @p addr, under the
     *  same rules. */
    Simulation &
    pokeDram(Addr addr, const std::vector<std::int16_t> &values)
    {
        return pokeWords(addr, values.data(), values.size());
    }

    /** Attach a per-issue trace hook to PE @p pe. */
    Simulation &
    trace(unsigned pe, Pe::Tracer tracer)
    {
        sys_.pe(pe).setTracer(std::move(tracer));
        return *this;
    }

    /**
     * Run until the machine drains or @p max_cycles elapse (0 = no
     * budget). Can be called again after loading further programs;
     * cycles accumulate. @p cancel, when given, is polled
     * cooperatively and stops the run with CancelledError /
     * TimeoutError (see VipSystem::run and sim/cancel.hh).
     */
    RunResult run(Cycles max_cycles = 0,
                  const CancelToken *cancel = nullptr);

    /** Read one 16-bit value back from DRAM. */
    std::int16_t
    peekDram(Addr addr) const
    {
        return sys_.dram().load<std::int16_t>(addr);
    }

    /** Read @p count consecutive 16-bit values starting at @p addr. */
    std::vector<std::int16_t> peekDram(Addr addr, std::size_t count) const;

    /** Start address of vault @p v's local DRAM region. */
    Addr vaultBase(unsigned v = 0) const { return sys_.vaultBase(v); }

    /** Escape hatch: the underlying machine, for anything not wrapped. */
    VipSystem &system() { return sys_; }
    const VipSystem &system() const { return sys_; }

  private:
    Simulation &pokeWords(Addr addr, const std::int16_t *values,
                          std::size_t count);

    VipSystem sys_;
};

} // namespace vip

#endif // VIP_SYSTEM_SIMULATION_HH

/**
 * @file
 * RunSpec: one complete simulation run as a value.
 *
 * Everything `vip-run` used to assemble imperatively — the system
 * configuration, the programs to load, DRAM contents to stage,
 * argument registers, the cycle budget — captured in one struct that
 * round-trips through JSON. This is the unit of the serializable
 * request/response API: the CLI runner builds a RunSpec from flags,
 * the `vip-serve` daemon decodes one per request line, and both
 * execute it through the same buildSimulation()/run() path, so a
 * request answered over the wire is bit-identical to the same run
 * launched locally.
 *
 * A RunSpec is also the *content address* of its result: two specs
 * with equal canonical JSON produce equal run output (the simulator
 * is deterministic; host wall-clock timing is deliberately excluded
 * from RunResult::toJson()), so fingerprint() — the repo's FNV-1a
 * hash primitive over the canonical encoding — keys the serve
 * result cache.
 */

#ifndef VIP_SYSTEM_RUNSPEC_HH
#define VIP_SYSTEM_RUNSPEC_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/json.hh"
#include "system/simulation.hh"

namespace vip {

struct RunSpec
{
    /** The machine, including fault plan and fast-forward switch. */
    SystemConfig config = makeSystemConfig(1, 1);

    /** One program per entry, assembled at build time. */
    struct Program
    {
        unsigned pe = 0;
        std::string source;  ///< assembly text (paper notation)

        bool
        operator==(const Program &o) const
        {
            return pe == o.pe && source == o.source;
        }
    };
    std::vector<Program> programs;

    /** 16-bit values staged into DRAM before the run. */
    struct DramPoke
    {
        Addr addr = 0;
        std::vector<std::int16_t> values;

        bool
        operator==(const DramPoke &o) const
        {
            return addr == o.addr && values == o.values;
        }
    };
    std::vector<DramPoke> pokes;

    /** Argument registers seeded before the run. */
    struct RegSet
    {
        unsigned pe = 0;
        unsigned reg = 0;
        std::uint64_t value = 0;

        bool
        operator==(const RegSet &o) const
        {
            return pe == o.pe && reg == o.reg && value == o.value;
        }
    };
    std::vector<RegSet> regs;

    /** Simulation budget; 0 = run until the machine drains. */
    Cycles maxCycles = 100'000'000;

    /**
     * Host wall-clock budget in milliseconds; 0 = none. A run that
     * exceeds it is stopped at the next poll boundary and fails with
     * a structured "timeout" error (sim/cancel.hh). Bounds *host*
     * execution, never simulated behaviour: a run that finishes
     * within any budget is byte-identical to an unbudgeted run, so
     * fingerprint() excludes this field and cached results stay
     * valid for every budget. Omitted from the JSON form when 0.
     */
    std::uint64_t budgetMs = 0;

    /** Canonical JSON encoding (sorted keys, full config). */
    Json toJson() const;

    /**
     * Decode a spec. `config` may be partial (see
     * SystemConfig::fromJson); unknown keys anywhere throw
     * ConfigError. Accepted shape:
     *
     *   {"config": {...}, "programs": [{"pe": 0, "source": "..."}],
     *    "pokes": [{"addr": 4096, "values": [1, 2, 3]}],
     *    "regs": [{"pe": 0, "reg": 4, "value": 7}],
     *    "maxCycles": 100000000}
     */
    static RunSpec fromJson(const Json &j);

    /**
     * Content-address of this spec (FNV-1a over the canonical compact
     * JSON): equal fingerprints => equal specs => equal run output.
     * budgetMs is excluded (hashed as if 0): it bounds host
     * execution, not results, so a cached success answers the same
     * spec under any budget.
     */
    std::uint64_t fingerprint() const;

    bool
    operator==(const RunSpec &o) const
    {
        // Configs compare through their canonical encoding; the
        // struct has no operator== of its own.
        return programs == o.programs && pokes == o.pokes &&
               regs == o.regs && maxCycles == o.maxCycles &&
               budgetMs == o.budgetMs &&
               config.toJson() == o.config.toJson();
    }
};

/**
 * Construct the simulation a spec describes: validate and build the
 * system, stage DRAM, seed registers, assemble and load every
 * program. Throws ConfigError (naming the key for a PE or register
 * index outside the machine) / AssemblyFailure. The caller runs it
 * (runSpec() does both steps) or keeps the Simulation around to
 * inspect memory afterwards, as vip-run does for its --dump flags.
 * Returned by pointer because a Simulation owns a VipSystem full of
 * internal references and is neither movable nor copyable.
 */
std::unique_ptr<Simulation> buildSimulation(const RunSpec &spec);

/**
 * Build and run in one step: the shared CLI/service code path.
 * When @p cancel is given it is armed with spec.budgetMs (replacing
 * any previous deadline) and polled throughout the run; when it is
 * null and the spec carries a budget, a run-local token enforces the
 * deadline. Throws TimeoutError / CancelledError on a tripped token.
 */
RunResult runSpec(const RunSpec &spec, CancelToken *cancel = nullptr);

} // namespace vip

#endif // VIP_SYSTEM_RUNSPEC_HH

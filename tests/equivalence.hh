/**
 * @file
 * The execution-strategy equivalence harness, shared by
 * strategy_equivalence_test (fixed scenarios and the seed goldens)
 * and property_test (generated programs).
 *
 * The simulator has two host execution strategies, the decoded-µop
 * fast path (pe/decode.hh) and fast-forward (sim/clocked.hh). Each is
 * exact by construction, so every combination must be
 * indistinguishable from the oracle, the interpreter ticking every
 * cycle. expectEquivalent() runs one drive under all four strategies
 * and requires every run to match the oracle in the cycle count and
 * the stats dump at every run() boundary, and at the end in the DRAM
 * fingerprint, the fault counters and the request-pool counters.
 */

#ifndef VIP_TESTS_EQUIVALENCE_HH
#define VIP_TESTS_EQUIVALENCE_HH

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "sim/fault.hh"
#include "system/system.hh"

namespace vip {

/** One host execution strategy. */
struct Strategy
{
    bool fastPath;
    bool fastForward;
    const char *name;
};

/** Every strategy; the first is the oracle. */
inline constexpr std::array<Strategy, 4> kStrategies = {{
    {false, false, "interpreter + tick"},
    {false, true, "interpreter + fast-forward"},
    {true, false, "fast path + tick"},
    {true, true, "fast path + fast-forward"},
}};

/** What one strategy's run of a drive showed. */
struct Observed
{
    /** "<cycle>\n<stats dump>" at each run() boundary. */
    std::vector<std::string> cuts;
    Cycles cycles = 0;
    std::uint64_t instructions = 0;  ///< committed, summed over PEs
    std::uint64_t dramDigest = 0;
    FaultStats faults;
    std::uint64_t flippedWords = 0;  ///< flips not yet scrubbed
    /** Each PE's request-pool high water and allocations: outside the
     *  stats tree but in RunResult's JSON, so in served bytes too. */
    std::vector<std::uint64_t> pools;
    Cycles skipped = 0;              ///< cycles fast-forward warped over
    std::uint64_t warps = 0;
    std::uint64_t fastUops = 0;      ///< µops the fast path retired
    std::uint64_t blockRuns = 0;
};

/** One Observed per strategy, in kStrategies order. */
using Runs = std::array<Observed, kStrategies.size()>;

/** The hook a drive calls instead of VipSystem::run(): it runs the
 *  machine (0 = no budget) and records the run() boundary. */
using RunHook = std::function<Cycles(Cycles max_cycles)>;

/** Stages DRAM, loads programs and runs a machine through the hook,
 *  possibly in several phases with host calls between them. */
using Drive = std::function<void(VipSystem &, const RunHook &)>;

/** Run @p drive on a machine built from @p cfg under @p strategy. */
inline Observed
observe(SystemConfig cfg, const Strategy &strategy, const Drive &drive)
{
    cfg.fastPath = strategy.fastPath;
    cfg.fastForward = strategy.fastForward;
    VipSystem sys(cfg);
    Observed o;
    drive(sys, [&sys, &o](Cycles max_cycles) {
        const Cycles now = sys.run(max_cycles);
        std::ostringstream os;
        os << now << "\n";
        sys.stats().dump(os);
        o.cuts.push_back(os.str());
        return now;
    });
    EXPECT_TRUE(sys.allIdle()) << strategy.name;
    o.cycles = sys.now();
    for (unsigned pe = 0; pe < sys.numPes(); ++pe) {
        o.instructions += sys.pe(pe).stats().instructions.value();
        o.fastUops += sys.pe(pe).fastPathStats().fastUops.value();
        o.blockRuns += sys.pe(pe).fastPathStats().blockRuns.value();
        o.pools.push_back(sys.pe(pe).requestPool().highWater());
        o.pools.push_back(sys.pe(pe).requestPool().allocations());
    }
    o.dramDigest = sys.dram().fingerprint();
    if (const FaultInjector *inj = sys.faultInjector()) {
        o.faults = inj->stats();
        o.flippedWords = inj->outstandingFlippedWords();
    }
    o.skipped = sys.fastForwardStats().skippedCycles;
    o.warps = sys.fastForwardStats().warps;
    return o;
}

/**
 * Run @p drive under every strategy and require each to match the
 * oracle. A strategy that is off must also leave no trace: no warps
 * without fast-forward, no replayed µops without the fast path.
 */
inline Runs
expectEquivalent(const SystemConfig &cfg, const Drive &drive)
{
    Runs runs;
    for (std::size_t s = 0; s < kStrategies.size(); ++s)
        runs[s] = observe(cfg, kStrategies[s], drive);
    const Observed &oracle = runs[0];
    EXPECT_FALSE(oracle.cuts.empty()) << "the drive never called run()";
    for (std::size_t s = 0; s < kStrategies.size(); ++s) {
        const Strategy &strategy = kStrategies[s];
        const Observed &o = runs[s];
        EXPECT_EQ(o.cuts.size(), oracle.cuts.size()) << strategy.name;
        for (std::size_t i = 0; i < o.cuts.size() && i < oracle.cuts.size();
             ++i) {
            if (o.cuts[i] != oracle.cuts[i]) {
                EXPECT_EQ(o.cuts[i], oracle.cuts[i])
                    << strategy.name << ", run() boundary " << i;
                break;
            }
        }
        EXPECT_EQ(o.dramDigest, oracle.dramDigest) << strategy.name;
        EXPECT_TRUE(o.faults == oracle.faults) << strategy.name;
        EXPECT_EQ(o.flippedWords, oracle.flippedWords) << strategy.name;
        EXPECT_EQ(o.pools, oracle.pools) << strategy.name;
        if (!strategy.fastForward) {
            EXPECT_EQ(o.skipped, 0u) << strategy.name;
            EXPECT_EQ(o.warps, 0u) << strategy.name;
        }
        if (!strategy.fastPath) {
            EXPECT_EQ(o.fastUops, 0u) << strategy.name;
            EXPECT_EQ(o.blockRuns, 0u) << strategy.name;
        }
    }
    return runs;
}

/** True when some vault's ingress queue holds a parked request. */
inline bool
parkedInIngress(const VipSystem &sys)
{
    const std::string diag = sys.deadlockDiagnosis();
    for (std::size_t at = diag.find(" ingress="); at != std::string::npos;
         at = diag.find(" ingress=", at + 1)) {
        if (diag[at + 9] != '0')
            return true;
    }
    return false;
}

} // namespace vip

#endif // VIP_TESTS_EQUIVALENCE_HH

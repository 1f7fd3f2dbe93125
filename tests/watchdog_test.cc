/**
 * @file
 * The run-loop watchdog and the vault backlog under event-horizon
 * fast-forward.
 *
 * The warp clamps its target to the cycle where the watchdog would
 * next look (see VipSystem::run), so a machine that stops making
 * progress throws DeadlockError at the same point whether or not dead
 * cycles are being skipped — warped cycles count toward the
 * no-progress window. The error carries a human-readable diagnosis of
 * the stuck machine state and leaves the system object intact.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "isa/builder.hh"
#include "sim/error.hh"
#include "system/simulation.hh"

namespace vip {
namespace {

/**
 * A program whose PE issues nothing for far longer than the watchdog
 * window: a full-scratchpad vector op occupies the pipe for ~512
 * cycles, and the next vector op stalls on it. With watchdogCycles
 * well below the stall, two consecutive checks see identical progress.
 */
std::vector<Instruction>
stalledProgram()
{
    AsmBuilder b;
    b.movImm(1, 2048);  // vl: 2048 halfwords = the whole scratchpad
    b.setVl(1);
    b.movImm(2, 0);
    b.vv(VecOp::Add, 2, 2, 2);
    b.vv(VecOp::Add, 2, 2, 2);  // stalls ~512 cycles on the pipe
    b.halt();
    return b.finish();
}

TEST(Watchdog, FiresUnderFastForward)
{
    SystemConfig cfg = makeSystemConfig(1, 1);
    cfg.fastForward = true;
    cfg.watchdogCycles = 100;
    VipSystem sys(cfg);
    sys.pe(0).loadProgram(stalledProgram());
    try {
        sys.run(1'000'000);
        FAIL() << "watchdog did not fire";
    } catch (const DeadlockError &e) {
        EXPECT_EQ(e.kind(), "deadlock");
        EXPECT_NE(e.message().find("deadlocked"), std::string::npos);
        // The diagnosis names the stuck PE with its PC, stall reason,
        // and LSQ occupancy.
        const std::string &d = e.detail();
        EXPECT_NE(d.find("pe0"), std::string::npos) << d;
        EXPECT_NE(d.find("stall="), std::string::npos) << d;
        EXPECT_NE(d.find("lsq="), std::string::npos) << d;
    }
}

TEST(Watchdog, FiresWithoutFastForward)
{
    SystemConfig cfg = makeSystemConfig(1, 1);
    cfg.fastForward = false;
    cfg.watchdogCycles = 100;
    VipSystem sys(cfg);
    sys.pe(0).loadProgram(stalledProgram());
    EXPECT_THROW(sys.run(1'000'000), DeadlockError);
}

TEST(Watchdog, SystemSurvivesTheThrow)
{
    // The watchdog reports instead of killing the process; the system
    // object stays usable, so a caller with a bigger budget (or a
    // sweep harness moving to the next point) can carry on.
    SystemConfig cfg = makeSystemConfig(1, 1);
    cfg.watchdogCycles = 100;
    VipSystem sys(cfg);
    sys.pe(0).loadProgram(stalledProgram());
    EXPECT_THROW(sys.run(1'000'000), DeadlockError);
    // Same machine, same stall — a follow-up run() must throw again
    // (not trip the one-thread-per-system assert on a stale flag).
    EXPECT_THROW(sys.run(1'000'000), DeadlockError);
}

TEST(Watchdog, GenerousWindowLetsTheStallResolve)
{
    // The same stall with a normal watchdog budget completes fine —
    // the panic above is the watchdog, not a real wedge.
    SystemConfig cfg = makeSystemConfig(1, 1);
    VipSystem sys(cfg);
    sys.pe(0).loadProgram(stalledProgram());
    sys.run(1'000'000);
    EXPECT_TRUE(sys.allIdle());
}

/** FNV-1a over @p text: a stable digest of a stats dump. */
std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

TEST(IngressBackpressure, DrainOrderSurvivesWarps)
{
    // A depth-1 transaction queue forces arrivals into the vault's
    // backlog. Four PEs hammering one vault must produce the identical
    // cycle count and statistics tree with and without fast-forward —
    // i.e. a warp never jumps over an admission and never reorders
    // waiting requests — and both must equal the pinned result, so a
    // change that moves both paths together fails too.
    auto run = [](bool ff) {
        SystemConfig cfg = makeSystemConfig(1, 4);
        cfg.fastForward = ff;
        cfg.mem.transQueueDepth = 1;
        VipSystem sys(cfg);
        for (unsigned pe = 0; pe < 4; ++pe) {
            AsmBuilder b;
            const Addr base = sys.vaultBase(0) + pe * (1ull << 20);
            b.movImm(1, 0);
            b.movImm(2, 16);    // chunks
            b.movImm(3, static_cast<std::int64_t>(base));
            b.movImm(5, 512);   // stride
            b.movImm(6, 256);   // elements per chunk
            b.movImm(7, 0);
            const auto loop = b.newLabel();
            b.bind(loop);
            b.ldSram(7, 3, 6);
            b.stSram(7, 3, 6);
            b.scalar(ScalarOp::Add, 3, 3, 5);
            b.addImm(1, 1, 1);
            b.branch(BranchCond::Lt, 1, 2, loop);
            b.memfence();
            b.halt();
            sys.pe(pe).loadProgram(b.finish());
        }
        sys.run(50'000'000);
        EXPECT_TRUE(sys.allIdle());
        std::ostringstream os;
        sys.stats().dump(os);
        return std::make_pair(sys.now(), os.str());
    };

    const auto [ff_cycles, ff_stats] = run(true);
    const auto [slow_cycles, slow_stats] = run(false);
    EXPECT_EQ(ff_cycles, slow_cycles);
    EXPECT_EQ(ff_stats, slow_stats);
    EXPECT_EQ(slow_cycles, 15571u);
    EXPECT_EQ(fnv1a(slow_stats), 0x0c33c8b4f6c2eb0eULL)
        << "0x" << std::hex << fnv1a(slow_stats);
}

} // namespace
} // namespace vip

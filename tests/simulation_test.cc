/**
 * @file
 * Tests for the vip::Simulation facade and the parallel SweepEngine:
 * end-to-end program execution through the fluent API, parallel-vs-
 * serial sweep equivalence, error propagation, configuration helpers,
 * and the JSON statistics dump.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/json.hh"
#include "sim/stats.hh"
#include "sim/sweep.hh"
#include "system/simulation.hh"

namespace vip {
namespace {

/// The paper's Fig. 2-style dot product: A . B via m.v.mul.add with
/// one matrix row; result stored as a single 16-bit word.
const char *kDotProduct = R"(
    mov.imm r1, 8
    set.vl r1
    mov.imm r2, 1
    set.mr r2
    mov.imm r10, 0x1000
    mov.imm r11, 0x1100
    mov.imm r12, 0x2000
    mov.imm r20, 0
    mov.imm r21, 64
    mov.imm r22, 128
    ld.sram[16] r20, r10, r1
    ld.sram[16] r21, r11, r1
    m.v.mul.add[16] r22, r20, r21
    v.drain
    st.sram[16] r22, r12, r2
    memfence
    halt
)";

TEST(Simulation, FluentDotProductEndToEnd)
{
    const std::vector<std::int16_t> a = {2, 3, 5, 7, 11, 13, 17, 19};
    const std::vector<std::int16_t> b = {1, 2, 3, 4, 5, 6, 7, 8};
    std::int16_t want = 0;
    for (std::size_t i = 0; i < a.size(); ++i)
        want = static_cast<std::int16_t>(want + a[i] * b[i]);

    Simulation sim(makeSystemConfig(1, 1));
    const RunResult result = sim.pokeDram(0x1000, a)
                                 .pokeDram(0x1100, b)
                                 .loadProgram(0, kDotProduct)
                                 .run();

    EXPECT_TRUE(result.haltedCleanly);
    EXPECT_GT(result.cycles, 0u);
    EXPECT_GT(result.ms(), 0.0);
    // The typed counter map replaces parsing the stats text (which
    // stays debug-only).
    EXPECT_GT(result.counter("system.pe0.instructions"), 0u);
    EXPECT_FALSE(result.counters.empty());
    EXPECT_EQ(result.counter("system.no.such.counter"), 0u);
    EXPECT_EQ(sim.peekDram(0x2000), want);
    EXPECT_EQ(sim.peekDram(0x2000, 1),
              std::vector<std::int16_t>{want});
}

TEST(Simulation, RunResultReportsBudgetExhaustion)
{
    // An empty program never halts; a tiny budget must end the run
    // with haltedCleanly == false.
    Simulation sim(makeSystemConfig(1, 1));
    sim.loadProgram(0, "spin:\n    jmp spin\n");
    const RunResult result = sim.run(64);
    EXPECT_FALSE(result.haltedCleanly);
    EXPECT_GE(result.cycles, 64u);
}

TEST(Simulation, NocDimsForCoversPowersOfTwoRejectsOthers)
{
    const auto check = [](unsigned vaults, unsigned x, unsigned y) {
        const auto d = nocDimsFor(vaults);
        EXPECT_EQ(d.first, x) << vaults << " vaults";
        EXPECT_EQ(d.second, y) << vaults << " vaults";
        EXPECT_EQ(d.first * d.second, vaults);
    };
    check(1, 1, 1);
    check(2, 2, 1);
    check(4, 2, 2);
    check(8, 4, 2);
    check(16, 4, 4);
    check(32, 8, 4);
    check(64, 8, 8);
    // Non-power-of-two (and zero) counts have no mesh mapping; the
    // address interleave requires a power of two anyway, so reject
    // them up front instead of silently degrading to a ring.
    EXPECT_THROW(nocDimsFor(0), ConfigError);
    EXPECT_THROW(nocDimsFor(3), ConfigError);
    EXPECT_THROW(nocDimsFor(6), ConfigError);
    EXPECT_THROW(nocDimsFor(48), ConfigError);
}

TEST(Simulation, MakeSystemConfigMatchesNocDims)
{
    for (const unsigned vaults : {1u, 2u, 4u, 8u, 16u, 32u}) {
        const SystemConfig cfg = makeSystemConfig(vaults, 4);
        EXPECT_EQ(cfg.mem.geom.vaults, vaults);
        EXPECT_EQ(cfg.nocX * cfg.nocY, vaults);
        EXPECT_EQ(cfg.pesPerVault, 4u);
    }
}

/// One independent sweep point: run the dot product on fresh inputs
/// derived from the point index and return the simulated result word.
std::int16_t
dotPoint(std::size_t index)
{
    std::vector<std::int16_t> a, b;
    for (unsigned i = 0; i < 8; ++i) {
        a.push_back(static_cast<std::int16_t>(index + i + 1));
        b.push_back(static_cast<std::int16_t>(2 * i + 1));
    }
    Simulation sim(makeSystemConfig(1, 1));
    sim.pokeDram(0x1000, a).pokeDram(0x1100, b)
        .loadProgram(0, kDotProduct).run();
    return sim.peekDram(0x2000);
}

/// The results of a sweep whose points must all succeed.
template <typename R>
std::vector<R>
resultsOf(const std::vector<SweepEngine::Outcome<R>> &outcomes)
{
    std::vector<R> results;
    for (const auto &o : outcomes) {
        EXPECT_TRUE(o.ok) << o.failure.error.what();
        results.push_back(o.result);
    }
    return results;
}

TEST(SweepEngine, ParallelMatchesSerial)
{
    std::vector<std::function<std::int16_t()>> points;
    for (std::size_t i = 0; i < 12; ++i)
        points.push_back([i] { return dotPoint(i); });

    SweepEngine serial(1);
    const std::vector<std::int16_t> want = resultsOf(serial.run(points));
    ASSERT_EQ(want.size(), points.size());

    SweepEngine pool(4);
    EXPECT_EQ(pool.jobs(), 4u);
    EXPECT_EQ(resultsOf(pool.run(points)), want);
}

TEST(SweepEngine, ResultsKeyedBySubmissionIndex)
{
    std::vector<std::function<int()>> points;
    for (int i = 0; i < 64; ++i)
        points.push_back([i] { return 1000 + i; });
    SweepEngine engine(3);
    const std::vector<int> results = resultsOf(engine.run(points));
    ASSERT_EQ(results.size(), 64u);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(results[i], 1000 + i);
}

TEST(SweepEngine, RethrowsLowestIndexError)
{
    SweepEngine engine(2);
    for (int i = 0; i < 8; ++i) {
        engine.submit([i] {
            if (i == 2 || i == 5)
                throw std::runtime_error("point " + std::to_string(i));
        });
    }
    try {
        engine.wait();
        FAIL() << "expected wait() to rethrow";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "point 2");
    }
}

TEST(SweepEngine, RunMarksOnlyTheFailedPoints)
{
    std::vector<std::function<int()>> points;
    for (int i = 0; i < 8; ++i) {
        points.push_back([i]() -> int {
            if (i == 2 || i == 5)
                throw std::runtime_error("point " + std::to_string(i));
            return 10 * i;
        });
    }
    SweepEngine engine(2);
    const auto outcomes = engine.run(points);
    ASSERT_EQ(outcomes.size(), 8u);
    for (int i = 0; i < 8; ++i) {
        const bool failed = i == 2 || i == 5;
        EXPECT_EQ(outcomes[i].ok, !failed) << i;
        EXPECT_EQ(outcomes[i].result, failed ? 0 : 10 * i) << i;
    }
    EXPECT_EQ(outcomes[5].failure.index, 5u);
    EXPECT_EQ(outcomes[5].failure.error.kind(), "exception");
    EXPECT_EQ(outcomes[5].failure.error.message(), "point 5");
}

TEST(SweepEngine, JobSeedIsDeterministicAndDistinct)
{
    EXPECT_EQ(jobSeed(7), jobSeed(7));
    EXPECT_NE(jobSeed(0), jobSeed(1));
    EXPECT_NE(jobSeed(1), jobSeed(2));
    EXPECT_NE(jobSeed(3, 1), jobSeed(3, 2));
}

TEST(Stats, DumpIsOneLinePerVisitAndWireKeepsFormulas)
{
    // Two vaults, one PE each, both running the dot product: every
    // stat group of a real machine (PEs, vaults, NoC) is in the tree.
    Simulation sim(makeSystemConfig(2, 1));
    const std::vector<std::int16_t> a = {1, 2, 3, 4, 5, 6, 7, 8};
    sim.pokeDram(0x1000, a).pokeDram(0x1100, a);
    sim.loadProgram(0, kDotProduct).loadProgram(1, kDotProduct);
    const RunResult result = sim.run();
    ASSERT_TRUE(result.haltedCleanly);

    std::string visited;
    std::size_t callbacks = 0;
    sim.system().stats().visit([&](const std::string &path,
                                   std::uint64_t value,
                                   const char *desc) {
        visited += path + " " + std::to_string(value) + " # " + desc + "\n";
        ++callbacks;
    });
    std::ostringstream dumped;
    sim.system().stats().dump(dumped);
    EXPECT_EQ(dumped.str(), visited);
    EXPECT_EQ(callbacks, result.counters.size());
    EXPECT_GT(result.counter("system.pe1.instructions"), 0u);

    // No stat is a formula; the key stays because served and pinned
    // RunResult bytes carry it.
    EXPECT_NE(result.toJson().str().find("\"formulas\":{}"),
              std::string::npos);
}

} // namespace
} // namespace vip

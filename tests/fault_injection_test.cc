/**
 * @file
 * The fault-injection subsystem: the determinism contract (same seed,
 * same strikes — with and without event-horizon fast-forward), the
 * SECDED ECC model on the vault read path, forced deadlock under 100%
 * packet loss with a useful diagnosis, sweep isolation of failing
 * points, and the config-validation front door.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "isa/builder.hh"
#include "mem/storage.hh"
#include "sim/error.hh"
#include "sim/fault.hh"
#include "sim/json.hh"
#include "sim/sweep.hh"
#include "system/simulation.hh"

namespace vip {
namespace {

/** Chunked DRAM read-modify-write loop: plenty of word reads, NoC
 *  round trips, and issued instructions for the rates to bite on. */
std::vector<Instruction>
streamProgram(Addr base, unsigned chunks)
{
    AsmBuilder b;
    b.movImm(1, 0);
    b.movImm(2, chunks);
    b.movImm(3, static_cast<std::int64_t>(base));
    b.movImm(5, 512);  // stride (bytes)
    b.movImm(6, 256);  // elements per chunk
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
    return b.finish();
}

/** Copy @p elems int16 values src -> dst through the scratchpad. */
std::vector<Instruction>
copyProgram(Addr src, Addr dst, unsigned elems)
{
    AsmBuilder b;
    b.movImm(10, static_cast<std::int64_t>(src));
    b.movImm(11, static_cast<std::int64_t>(dst));
    b.movImm(6, elems);
    b.movImm(7, 0);
    b.ldSram(7, 10, 6);
    b.stSram(7, 11, 6);
    b.memfence();
    b.halt();
    return b.finish();
}

struct Snapshot
{
    Cycles cycles = 0;
    FaultStats stats;
    std::vector<FaultSite> sites;
    std::uint64_t fingerprint = 0;
};

bool
sameStats(const FaultStats &a, const FaultStats &b)
{
    return a.dramBitFlips == b.dramBitFlips &&
           a.retentionErrors == b.retentionErrors &&
           a.eccCorrected == b.eccCorrected &&
           a.eccDetected == b.eccDetected && a.eccSilent == b.eccSilent &&
           a.nocDropped == b.nocDropped &&
           a.nocCorrupted == b.nocCorrupted &&
           a.nocRetransmits == b.nocRetransmits &&
           a.spBitFlips == b.spBitFlips;
}

constexpr unsigned kChunks = 64;
constexpr unsigned kElems = kChunks * 256;

/** Run the stream workload under @p plan and snapshot everything the
 *  determinism contract promises to reproduce. */
Snapshot
runCampaign(const FaultPlan &plan, bool fast_forward)
{
    SystemConfig cfg = makeSystemConfig(1, 1);
    cfg.fastForward = fast_forward;
    cfg.faults = plan;
    Simulation sim(cfg);
    const Addr base = sim.vaultBase(0);
    std::vector<std::int16_t> data(kElems);
    for (unsigned i = 0; i < kElems; ++i)
        data[i] = static_cast<std::int16_t>(i * 7 + 1);
    sim.pokeDram(base, data);
    sim.loadProgram(0, streamProgram(base, kChunks));

    const RunResult r = sim.run(50'000'000);
    EXPECT_TRUE(r.haltedCleanly);
    EXPECT_TRUE(r.faultInjectionEnabled);

    Snapshot s;
    s.cycles = r.cycles;
    s.stats = r.faults;
    s.sites = sim.system().faultInjector()->sites();
    // FNV-1a over the whole touched DRAM range: any divergence in what
    // was flipped (or corrected) shows up here.
    std::uint64_t h = 14695981039346656037ull;
    for (const std::int16_t v : sim.peekDram(base, kElems)) {
        h ^= static_cast<std::uint16_t>(v);
        h *= 1099511628211ull;
    }
    s.fingerprint = h;
    return s;
}

FaultPlan
noisyPlan(std::uint64_t seed)
{
    FaultPlan plan;
    plan.enabled = true;
    plan.seed = seed;
    plan.dramReadBitFlipRate = 0.01;
    plan.retentionErrorRate = 0.5;
    plan.nocDropRate = 0.02;
    plan.nocCorruptRate = 0.02;
    plan.spBitFlipRate = 1e-4;
    return plan;
}

TEST(FaultInjection, SameSeedSameStrikes)
{
    const Snapshot a = runCampaign(noisyPlan(42), true);
    const Snapshot b = runCampaign(noisyPlan(42), true);

    // The campaign must actually have injected something — otherwise
    // this test pins nothing.
    EXPECT_GT(a.stats.dramBitFlips, 0u);
    EXPECT_GT(a.stats.retentionErrors, 0u);
    EXPECT_GT(a.stats.nocRetransmits, 0u);

    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_TRUE(sameStats(a.stats, b.stats));
    EXPECT_EQ(a.sites.size(), b.sites.size());
    EXPECT_TRUE(a.sites == b.sites);
    EXPECT_EQ(a.fingerprint, b.fingerprint);
}

TEST(FaultInjection, DifferentSeedDifferentStrikes)
{
    const Snapshot a = runCampaign(noisyPlan(42), true);
    const Snapshot b = runCampaign(noisyPlan(43), true);
    EXPECT_FALSE(a.sites == b.sites);
}

TEST(FaultInjection, FastForwardInjectsIdentically)
{
    // Injection decisions are keyed by event identity, never by the
    // cycle number, so warping over dead cycles must not change one
    // strike: same sites, same counters, same cycle count, same bytes.
    const Snapshot ff = runCampaign(noisyPlan(7), true);
    const Snapshot slow = runCampaign(noisyPlan(7), false);
    EXPECT_GT(ff.stats.dramBitFlips, 0u);
    EXPECT_EQ(ff.cycles, slow.cycles);
    EXPECT_TRUE(sameStats(ff.stats, slow.stats));
    EXPECT_TRUE(ff.sites == slow.sites);
    EXPECT_EQ(ff.fingerprint, slow.fingerprint);
}

TEST(FaultInjection, DisabledPlanAllocatesNoInjector)
{
    Simulation sim(makeSystemConfig(1, 1));
    EXPECT_EQ(sim.system().faultInjector(), nullptr);
    const RunResult r = sim.loadProgram(0, "halt\n").run(1000);
    EXPECT_FALSE(r.faultInjectionEnabled);
}

// --- ECC ---

struct EccFixture
{
    /** A copy workload over exactly one aligned 8-byte DRAM word. */
    explicit EccFixture(bool ecc)
    {
        FaultPlan plan;
        plan.enabled = true;
        plan.eccEnabled = ecc;
        SystemConfig cfg = makeSystemConfig(1, 1);
        cfg.faults = plan;
        sim = std::make_unique<Simulation>(cfg);
        src = sim->vaultBase(0);
        dst = src + 4096;
        sim->pokeDram(src, {100, 200, 300, 400});
    }

    RunResult
    copyAndRun()
    {
        sim->loadProgram(0, copyProgram(src, dst, 4));
        return sim->run(1'000'000);
    }

    std::unique_ptr<Simulation> sim;
    Addr src = 0, dst = 0;
};

TEST(FaultInjectionEcc, SingleBitFlipIsCorrected)
{
    EccFixture f(true);
    f.sim->system().faultInjector()->plantBitFlip(f.src, 0);
    const RunResult r = f.copyAndRun();
    EXPECT_TRUE(r.haltedCleanly);
    // The PE's read scrubbed the word: copied data is clean, the
    // backing store was corrected in place, and the record retired.
    EXPECT_EQ(f.sim->peekDram(f.dst, 4),
              (std::vector<std::int16_t>{100, 200, 300, 400}));
    EXPECT_EQ(f.sim->peekDram(f.src), 100);
    EXPECT_EQ(r.faults.eccCorrected, 1u);
    EXPECT_EQ(r.faults.eccDetected, 0u);
    EXPECT_EQ(f.sim->system().faultInjector()->outstandingFlippedWords(),
              0u);
}

TEST(FaultInjectionEcc, DoubleBitFlipIsDetectedNotCorrected)
{
    EccFixture f(true);
    FaultInjector *inj = f.sim->system().faultInjector();
    inj->plantBitFlip(f.src, 0);      // bit 0 of element 0's low byte
    inj->plantBitFlip(f.src + 1, 0);  // bit 0 of element 0's high byte
    const RunResult r = f.copyAndRun();
    EXPECT_TRUE(r.haltedCleanly);
    // SECDED sees two flipped bits in the word: detected, not fixed.
    EXPECT_EQ(f.sim->peekDram(f.dst),
              static_cast<std::int16_t>(100 ^ 0x0101));
    EXPECT_EQ(r.faults.eccCorrected, 0u);
    EXPECT_EQ(r.faults.eccDetected, 1u);
}

TEST(FaultInjectionEcc, EccOffLetsFlipsPropagate)
{
    EccFixture f(false);
    f.sim->system().faultInjector()->plantBitFlip(f.src, 0);
    const RunResult r = f.copyAndRun();
    EXPECT_TRUE(r.haltedCleanly);
    EXPECT_EQ(f.sim->peekDram(f.dst),
              static_cast<std::int16_t>(100 ^ 1));
    EXPECT_EQ(r.faults.eccCorrected, 0u);
    EXPECT_EQ(r.faults.eccDetected, 0u);
}

TEST(FaultInjectionEcc, HostWriteHealsTheRecord)
{
    EccFixture f(true);
    FaultInjector *inj = f.sim->system().faultInjector();
    inj->plantBitFlip(f.src, 0);
    EXPECT_EQ(inj->outstandingFlippedWords(), 1u);
    // A host poke overwrites the corrupt bytes; the ECC record must
    // follow, or the next read would "correct" fresh data.
    f.sim->pokeDram(f.src, {100, 200, 300, 400});
    EXPECT_EQ(inj->outstandingFlippedWords(), 0u);
    const RunResult r = f.copyAndRun();
    EXPECT_EQ(f.sim->peekDram(f.dst), 100);
    EXPECT_EQ(r.faults.eccCorrected, 0u);
}

TEST(FaultInjectionEcc, OneWritePokesMatchPerValueStores)
{
    // A poke is staged with one DramStorage::write. The per-value
    // stores it replaced must leave the same bytes, fingerprint, ECC
    // records and, after a faulty run over the poked data, the same
    // fault counters. The pokes cover an odd address, a page crossing,
    // a single word, and an overlap where the later poke wins.
    struct Poke
    {
        Addr offset;
        std::vector<std::int16_t> values;
    };
    const std::vector<Poke> pokes = {
        {1, {-1, 2, -3, 4, 0x1234}},
        {DramStorage::kPageBytes - 5, {7, -8, 9, -10, 11, 0x7fff}},
        {600, {-32768}},
        {40, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10}},
        {47, {-11, -12, -13}},  // lands inside the previous poke
    };
    constexpr std::size_t kSpan = 2 * DramStorage::kPageBytes;

    struct Staged
    {
        std::vector<std::uint8_t> bytes;
        std::uint64_t fingerprint = 0;
        std::size_t flippedAfterStaging = 0;
        RunResult result;
        std::uint64_t fingerprintAfterRun = 0;
    };
    const auto stage = [&](bool one_write) {
        SystemConfig cfg = makeSystemConfig(1, 1);
        cfg.faults = noisyPlan(9);
        Simulation sim(cfg);
        const Addr base = sim.vaultBase(0);
        FaultInjector *inj = sim.system().faultInjector();
        // Flips under the pokes give the heal records to drop; the
        // last one lies outside every poke and must survive.
        for (const Addr at : {Addr{2}, Addr{DramStorage::kPageBytes - 2},
                              Addr{52}, Addr{3000}})
            inj->plantBitFlip(base + at, 1);
        for (const Poke &p : pokes) {
            const Addr addr = base + p.offset;
            if (one_write) {
                if (p.values.size() == 1)
                    sim.pokeDram(addr, p.values[0]);
                else
                    sim.pokeDram(addr, p.values);
                continue;
            }
            for (std::size_t i = 0; i < p.values.size(); ++i) {
                sim.system().dram().store<std::int16_t>(
                    addr + 2 * static_cast<Addr>(i), p.values[i]);
            }
            inj->onDramWrite(addr, 2 * p.values.size());
        }
        Staged st;
        st.bytes.resize(kSpan);
        sim.system().dram().read(base, st.bytes.data(), kSpan);
        st.fingerprint = sim.system().dram().fingerprint();
        st.flippedAfterStaging = inj->outstandingFlippedWords();
        sim.loadProgram(0, streamProgram(base, 16));
        st.result = sim.run(50'000'000);
        st.fingerprintAfterRun = sim.system().dram().fingerprint();
        return st;
    };

    const Staged one = stage(true);
    const Staged each = stage(false);
    EXPECT_EQ(one.bytes, each.bytes);
    EXPECT_EQ(one.fingerprint, each.fingerprint);
    EXPECT_EQ(one.flippedAfterStaging, 1u);
    EXPECT_EQ(each.flippedAfterStaging, 1u);
    EXPECT_TRUE(one.result.haltedCleanly);
    EXPECT_EQ(one.result.cycles, each.result.cycles);
    EXPECT_TRUE(sameStats(one.result.faults, each.result.faults));
    // The run struck beyond the four planted flips, and ECC fixed some.
    EXPECT_GT(one.result.faults.dramBitFlips, 4u);
    EXPECT_GT(one.result.faults.eccCorrected, 0u);
    EXPECT_EQ(one.result.outstandingFlippedWords,
              each.result.outstandingFlippedWords);
    EXPECT_EQ(one.fingerprintAfterRun, each.fingerprintAfterRun);

    // The bytes themselves: each poke's little-endian words in order,
    // so the overlap holds the later poke's values.
    std::vector<std::uint8_t> want(kSpan, 0);
    for (const Poke &p : pokes) {
        for (std::size_t i = 0; i < p.values.size(); ++i) {
            const auto v = static_cast<std::uint16_t>(p.values[i]);
            want[p.offset + 2 * i] = static_cast<std::uint8_t>(v);
            want[p.offset + 2 * i + 1] = static_cast<std::uint8_t>(v >> 8);
        }
    }
    // The surviving planted flip at 3000 (bit 1) is still in DRAM.
    want[3000] ^= 2;
    EXPECT_EQ(one.bytes, want);
}

// --- graceful failure handling ---

TEST(FaultInjectionDeadlock, TotalPacketLossYieldsDiagnosis)
{
    FaultPlan plan;
    plan.enabled = true;
    plan.nocDropRate = 1.0;  // no memory response ever arrives
    SystemConfig cfg = makeSystemConfig(1, 1);
    cfg.faults = plan;
    cfg.watchdogCycles = 5'000;
    Simulation sim(cfg);
    const Addr base = sim.vaultBase(0);
    sim.loadProgram(0, copyProgram(base, base + 4096, 4));
    try {
        sim.run(10'000'000);
        FAIL() << "expected DeadlockError";
    } catch (const DeadlockError &e) {
        const std::string &d = e.detail();
        EXPECT_NE(d.find("pe0"), std::string::npos) << d;
        EXPECT_NE(d.find("lsq="), std::string::npos) << d;
        EXPECT_NE(d.find("noc"), std::string::npos) << d;
    }
    EXPECT_GT(sim.system().faultInjector()->stats().nocDropped, 0u);
}

TEST(FaultInjectionDeadlock, SweepIsolatesTheWedgedPoint)
{
    // Three points; the middle one wedges under total packet loss. The
    // campaign must report one structured failure and two results.
    auto point = [](bool wedged) -> Cycles {
        FaultPlan plan;
        plan.enabled = true;
        plan.nocDropRate = wedged ? 1.0 : 0.0;
        SystemConfig cfg = makeSystemConfig(1, 1);
        cfg.faults = plan;
        cfg.watchdogCycles = 5'000;
        Simulation sim(cfg);
        const Addr base = sim.vaultBase(0);
        sim.loadProgram(0, copyProgram(base, base + 4096, 4));
        return sim.run(10'000'000).cycles;
    };

    SweepEngine engine(2);
    const auto outcomes = engine.run<Cycles>({
        [&] { return point(false); },
        [&] { return point(true); },
        [&] { return point(false); },
    });
    ASSERT_EQ(outcomes.size(), 3u);
    EXPECT_TRUE(outcomes[0].ok);
    EXPECT_FALSE(outcomes[1].ok);
    EXPECT_TRUE(outcomes[2].ok);
    const SimError &error = outcomes[1].failure.error;
    EXPECT_EQ(error.kind(), "deadlock");
    EXPECT_NE(error.message().find("deadlocked"), std::string::npos);
    EXPECT_NE(error.detail().find("pe0"), std::string::npos);
    EXPECT_GT(outcomes[0].result, 0u);
    EXPECT_EQ(outcomes[0].result, outcomes[2].result);
}

// --- plan parsing & config validation ---

TEST(FaultPlanSpec, ParsesAndRoundTrips)
{
    const FaultPlan p = FaultPlan::parse(
        "seed=42,dram-read=1e-3,retention=0.5,noc-drop=0.25,"
        "noc-corrupt=0.125,sp-flip=1e-6,ecc=off");
    EXPECT_TRUE(p.enabled);
    EXPECT_EQ(p.seed, 42u);
    EXPECT_DOUBLE_EQ(p.dramReadBitFlipRate, 1e-3);
    EXPECT_DOUBLE_EQ(p.retentionErrorRate, 0.5);
    EXPECT_DOUBLE_EQ(p.nocDropRate, 0.25);
    EXPECT_DOUBLE_EQ(p.nocCorruptRate, 0.125);
    EXPECT_DOUBLE_EQ(p.spBitFlipRate, 1e-6);
    EXPECT_FALSE(p.eccEnabled);
    const FaultPlan q = FaultPlan::parse(p.toString());
    EXPECT_EQ(q.toString(), p.toString());
}

TEST(FaultPlanSpec, RejectsBadSpecs)
{
    EXPECT_THROW(FaultPlan::parse("bogus=1"), ConfigError);
    EXPECT_THROW(FaultPlan::parse("dram-read=2.0"), ConfigError);
    EXPECT_THROW(FaultPlan::parse("dram-read=-0.5"), ConfigError);
    EXPECT_THROW(FaultPlan::parse("dram-read=notanumber"), ConfigError);
    EXPECT_THROW(FaultPlan::parse("seed"), ConfigError);
    EXPECT_THROW(FaultPlan::parse("ecc=maybe"), ConfigError);
}

TEST(ConfigValidation, RejectsBadConfigs)
{
    {
        SystemConfig cfg = makeSystemConfig(1, 1);
        cfg.mem.geom.vaults = 3;  // not a power of two
        EXPECT_THROW(VipSystem{cfg}, ConfigError);
    }
    {
        SystemConfig cfg = makeSystemConfig(1, 1);
        cfg.mem.timing.tCL = 0;
        EXPECT_THROW(VipSystem{cfg}, ConfigError);
    }
    {
        SystemConfig cfg = makeSystemConfig(4, 1);
        cfg.nocX = 3;  // 3x2 grid for 4 vaults
        EXPECT_THROW(VipSystem{cfg}, ConfigError);
    }
    {
        SystemConfig cfg = makeSystemConfig(1, 1);
        cfg.mem.transQueueDepth = 0;
        EXPECT_THROW(VipSystem{cfg}, ConfigError);
    }
    {
        SystemConfig cfg = makeSystemConfig(1, 1);
        cfg.faults.enabled = true;
        cfg.faults.nocDropRate = 1.5;
        EXPECT_THROW(VipSystem{cfg}, ConfigError);
    }
    {
        SystemConfig cfg = makeSystemConfig(1, 1);
        cfg.watchdogCycles = 0;
        EXPECT_THROW(VipSystem{cfg}, ConfigError);
    }
    {
        SystemConfig cfg = makeSystemConfig(1, 1);
        cfg.mem.geom.banksPerVault = 512;  // past the scheduler's keys
        EXPECT_THROW(VipSystem{cfg}, ConfigError);
    }
}

TEST(ConfigValidation, MessagesNameTheParameter)
{
    SystemConfig cfg = makeSystemConfig(1, 1);
    cfg.mem.geom.vaults = 3;
    try {
        VipSystem sys(cfg);
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_EQ(e.kind(), "config");
        EXPECT_NE(e.message().find("vault"), std::string::npos)
            << e.message();
    }
}

TEST(ConfigValidation, AllocationCapsAreInclusive)
{
    // Each key that sizes a host allocation validates at its cap.
    const SystemConfig cfg = SystemConfig::fromJson(Json::parse(R"({
        "mem": {"geom": {"vaults": 1024, "banksPerVault": 1,
                         "rowsPerBank": 1},
                "transQueueDepth": 4096},
        "pe": {"arcEntries": 1024, "mulStages": 256, "aluStages": 256,
               "reduceStages": 256}})"));
    EXPECT_NO_THROW(validateSystemConfig(cfg));
}

/**
 * One row per validateSystemConfig rule: a wire config that
 * SystemConfig::fromJson accepts and validation rejects, and the dotted
 * key its message must name so a client can find the field at fault.
 * (A fault plan is validated when its spec string is parsed, so it
 * never reaches validation as a bad plan.)
 */
TEST(ConfigValidation, EveryRuleNamesItsKey)
{
    struct Row
    {
        const char *json;
        const char *key;
    };
    const Row rows[] = {
        {R"({"mem": {"geom": {"vaults": 3}}, "nocX": 3, "nocY": 1})",
         "mem.geom.vaults"},
        // 2^20 one-bank, one-row vaults would be 4,194,304 PEs.
        {R"({"mem": {"geom": {"vaults": 1048576, "banksPerVault": 1,
             "rowsPerBank": 1}}})",
         "mem.geom.vaults"},
        {R"({"mem": {"geom": {"banksPerVault": 0}}})",
         "mem.geom.banksPerVault"},
        {R"({"mem": {"geom": {"banksPerVault": 512}}})",
         "mem.geom.banksPerVault"},
        {R"({"mem": {"geom": {"rowsPerBank": 0}}})", "mem.geom.rowsPerBank"},
        {R"({"mem": {"geom": {"rowBytes": 0}}})", "mem.geom.rowBytes"},
        {R"({"mem": {"geom": {"colBytes": 0}}})", "mem.geom.colBytes"},
        {R"({"mem": {"geom": {"colBytes": 96}}})", "mem.geom.colBytes"},
        {R"({"mem": {"geom": {"colBytes": 512}}})", "mem.geom.colBytes"},
        // 32 * 16 * 2^30 * 256 bytes: 128 TiB, past the 64 GiB store.
        {R"({"mem": {"geom": {"rowsPerBank": 1073741824}}})",
         "mem.geom.rowsPerBank"},
        // 32 * 16 * 2^55 * 256 wraps to 0 in 64 bits.
        {R"({"mem": {"geom": {"rowsPerBank": 36028797018963968}}})",
         "mem.geom.rowBytes"},
        {R"({"mem": {"timing": {"tCL": 0}}})", "mem.timing.tCL"},
        {R"({"mem": {"timing": {"tRCD": 0}}})", "mem.timing.tRCD"},
        {R"({"mem": {"timing": {"tRP": 0}}})", "mem.timing.tRP"},
        {R"({"mem": {"timing": {"tRAS": 0}}})", "mem.timing.tRAS"},
        {R"({"mem": {"timing": {"tWR": 0}}})", "mem.timing.tWR"},
        {R"({"mem": {"timing": {"tCCD": 0}}})", "mem.timing.tCCD"},
        {R"({"mem": {"timing": {"tRFC": 0}}})", "mem.timing.tRFC"},
        {R"({"mem": {"timing": {"tREFI": 0}}})", "mem.timing.tREFI"},
        {R"({"mem": {"timing": {"tBurst": 0}}})", "mem.timing.tBurst"},
        {R"({"mem": {"timing": {"tREFI": 100, "tRFC": 200}}})",
         "mem.timing.tREFI"},
        {R"({"mem": {"cmdQueueDepth": 0}})", "mem.cmdQueueDepth"},
        {R"({"mem": {"transQueueDepth": 0}})", "mem.transQueueDepth"},
        {R"({"mem": {"transQueueDepth": 4097}})", "mem.transQueueDepth"},
        {R"({"mem": {"transQueueDepth": 4294967295}})",
         "mem.transQueueDepth"},
        {R"({"nocX": 3})", "nocX"},
        {R"({"nocY": 0})", "nocY"},
        // (2^31 + 1) * 2 wraps to 2 in 32-bit arithmetic.
        {R"({"mem": {"geom": {"vaults": 2}}, "nocX": 2147483649,
             "nocY": 2})",
         "nocX"},
        {R"({"pesPerVault": 0})", "pesPerVault"},
        {R"({"pesPerVault": 5})", "pesPerVault"},
        {R"({"pe": {"lsqEntries": 0}})", "pe.lsqEntries"},
        {R"({"pe": {"arcEntries": 0}})", "pe.arcEntries"},
        {R"({"pe": {"arcEntries": 1025}})", "pe.arcEntries"},
        {R"({"pe": {"arcEntries": 1000000000}})", "pe.arcEntries"},
        {R"({"pe": {"mulStages": 0}})", "pe.mulStages"},
        {R"({"pe": {"mulStages": 257}})", "pe.mulStages"},
        {R"({"pe": {"aluStages": 0}})", "pe.aluStages"},
        {R"({"pe": {"aluStages": 257}})", "pe.aluStages"},
        {R"({"pe": {"reduceStages": 0}})", "pe.reduceStages"},
        {R"({"pe": {"reduceStages": 4294967295}})", "pe.reduceStages"},
        {R"({"watchdogCycles": 0})", "watchdogCycles"},
    };
    for (const Row &row : rows) {
        SystemConfig cfg;
        ASSERT_NO_THROW(cfg = SystemConfig::fromJson(Json::parse(row.json)))
            << row.json;
        try {
            validateSystemConfig(cfg);
            ADD_FAILURE() << "accepted " << row.json;
        } catch (const ConfigError &e) {
            EXPECT_NE(e.message().find(row.key), std::string::npos)
                << row.json << " -> " << e.message();
        }
    }
}

} // namespace
} // namespace vip

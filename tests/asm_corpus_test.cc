/**
 * @file
 * The shipped assembly corpus (examples/asm/) must assemble, run to
 * completion on one PE, and produce correct results — keeping the
 * vip-run documentation honest.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "isa/assembler.hh"
#include "system/simulation.hh"
#include "workloads/fixed.hh"

namespace vip {
namespace {

std::vector<Instruction>
assembleFile(const std::string &name)
{
    std::ifstream in(std::string(VIP_SOURCE_DIR "/examples/asm/") + name);
    EXPECT_TRUE(in.good()) << name;
    std::ostringstream ss;
    ss << in.rdbuf();
    return assemble(ss.str());
}

TEST(AsmCorpus, DotProduct)
{
    SystemConfig cfg = makeSystemConfig(1, 1);
    cfg.pe.strictHazards = true;
    VipSystem sys(cfg);
    std::int64_t want = 0;
    for (unsigned i = 0; i < 8; ++i) {
        const Fx16 a = static_cast<Fx16>(i + 1);
        const Fx16 b = static_cast<Fx16>(10 * i - 3);
        sys.dram().store<Fx16>(0x1000 + 2 * i, a);
        sys.dram().store<Fx16>(0x1100 + 2 * i, b);
        want += static_cast<std::int64_t>(a) * b;
    }
    sys.pe(0).loadProgram(assembleFile("dot_product.s"));
    sys.run(1'000'000);
    ASSERT_TRUE(sys.allIdle());
    EXPECT_EQ(sys.dram().load<Fx16>(0x2000), sat16(want));
}

TEST(AsmCorpus, BpUpdate)
{
    SystemConfig cfg = makeSystemConfig(1, 1);
    cfg.pe.strictHazards = true;
    VipSystem sys(cfg);
    const unsigned L = 8;
    Fx16 theta[8];
    Fx16 smooth[64];
    for (unsigned l = 0; l < L; ++l) {
        const Fx16 data = static_cast<Fx16>(3 * l);
        const Fx16 ma = static_cast<Fx16>(7 - l);
        const Fx16 mb = static_cast<Fx16>(l * l % 11);
        const Fx16 mc = 2;
        sys.dram().store<Fx16>(0x1000 + 2 * l, data);
        sys.dram().store<Fx16>(0x1100 + 2 * l, ma);
        sys.dram().store<Fx16>(0x1200 + 2 * l, mb);
        sys.dram().store<Fx16>(0x1300 + 2 * l, mc);
        theta[l] = addSat(addSat(addSat(data, ma), mb), mc);
    }
    for (unsigned i = 0; i < 64; ++i) {
        smooth[i] = static_cast<Fx16>((i * 5) % 13);
        sys.dram().store<Fx16>(0x2000 + 2 * i, smooth[i]);
    }
    sys.pe(0).loadProgram(assembleFile("bp_update.s"));
    sys.run(1'000'000);
    ASSERT_TRUE(sys.allIdle());
    for (unsigned lo = 0; lo < L; ++lo) {
        EXPECT_EQ(sys.dram().load<Fx16>(0x3000 + 2 * lo),
                  addMinReduce(smooth + lo * L, theta, L))
            << lo;
    }
    EXPECT_EQ(sys.pe(0).stats().timingHazards.value(), 0u);
}

} // namespace
} // namespace vip

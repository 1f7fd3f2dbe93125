/**
 * @file
 * The random-program generator shared by the fuzz tests (property_test)
 * and the assembler round-trip tests (assembler_errors_test).
 */

#ifndef VIP_TESTS_RANDOM_PROGRAM_HH
#define VIP_TESTS_RANDOM_PROGRAM_HH

#include <utility>
#include <vector>

#include "isa/builder.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace vip {

/**
 * Generate a structurally valid random program: bounded scratchpad
 * ranges, in-range DRAM addresses, forward-only branches, and a
 * terminal halt. The machine must never panic and must reach the halt.
 */
inline std::vector<Instruction>
randomProgram(Rng &rng, Addr dram_base)
{
    AsmBuilder b;
    // r1..r8: scratchpad bases (vector operands fit below 4096).
    for (unsigned r = 1; r <= 8; ++r)
        b.movImm(r, 64 * r + rng.nextBelow(32) * 2);
    // r10: DRAM base; r11: element count; r12: VL candidates.
    b.movImm(10, static_cast<std::int64_t>(dram_base +
                                           rng.nextBelow(1 << 16)));
    b.movImm(11, 1 + rng.nextBelow(16));
    b.movImm(12, 1 + rng.nextBelow(16));
    b.movImm(13, 1 + rng.nextBelow(8));
    b.setVl(12);
    b.setMr(13);

    const unsigned body = 20 + static_cast<unsigned>(rng.nextBelow(60));
    std::vector<std::pair<AsmBuilder::Label, unsigned>> pending;
    for (unsigned i = 0; i < body; ++i) {
        // Resolve any forward branch that lands here.
        for (auto it = pending.begin(); it != pending.end();) {
            if (it->second == i) {
                b.bind(it->first);
                it = pending.erase(it);
            } else {
                ++it;
            }
        }
        const auto sp_reg = [&] {
            return 1 + static_cast<unsigned>(rng.nextBelow(8));
        };
        switch (rng.nextBelow(12)) {
          case 0:
            b.vv(static_cast<VecOp>(rng.nextBelow(5)), sp_reg(),
                 sp_reg(), sp_reg());
            break;
          case 1:
            b.vs(static_cast<VecOp>(rng.nextBelow(5)), sp_reg(),
                 sp_reg(), 11);
            break;
          case 2:
            // Matrix fits: MR(<=8) * VL(<=16) * 2 <= 256 from base r1.
            b.mv(static_cast<VecOp>(rng.nextBelow(6)),
                 static_cast<RedOp>(rng.nextBelow(3)), sp_reg(), 1,
                 sp_reg());
            break;
          case 3:
            b.ldSram(sp_reg(), 10, 11);
            break;
          case 4:
            b.stSram(sp_reg(), 10, 11);
            break;
          case 5:
            b.scalar(static_cast<ScalarOp>(rng.nextBelow(8)),
                     40 + rng.nextBelow(8), 11,
                     40 + rng.nextBelow(8));
            break;
          case 6:
            b.scalarImm(static_cast<ScalarOp>(rng.nextBelow(8)),
                        40 + rng.nextBelow(8), 11,
                        static_cast<std::int64_t>(rng.nextBelow(64)));
            break;
          case 7: {
            // Forward branch over a small window.
            const auto target = b.newLabel();
            pending.emplace_back(
                target, i + 1 + static_cast<unsigned>(rng.nextBelow(5)));
            b.branch(static_cast<BranchCond>(rng.nextBelow(4)),
                     40 + rng.nextBelow(8), 41, target);
            break;
          }
          case 8:
            b.memfence();
            break;
          case 9:
            b.vdrain();
            break;
          case 10:
            // A later scalar op or branch on the target waits for the
            // response.
            b.ldReg(40 + static_cast<unsigned>(rng.nextBelow(8)), 10,
                    ElemWidth::W16);
            break;
          case 11:
            b.stReg(40 + static_cast<unsigned>(rng.nextBelow(8)), 10,
                    ElemWidth::W16);
            break;
        }
    }
    // Bind any labels that point past the body.
    for (auto &[label, at] : pending)
        b.bind(label);
    b.memfence();
    b.halt();
    return b.finish();
}

} // namespace vip

#endif // VIP_TESTS_RANDOM_PROGRAM_HH

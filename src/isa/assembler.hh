/**
 * @file
 * Two-pass text assembler for the VIP ISA.
 *
 * Accepts the notation used in the paper's Figure 2: one instruction
 * per line, `;` or `#` comments, `name:` labels, an optional element
 * width tag (`[8]`, `[16]`, `[32]`, `[64]`, or the paper's verbose
 * `[16-bit]`), registers `r0`..`r63`, and decimal / 0x-hex immediates.
 *
 * Example:
 * @code
 * loop:
 *     ld.sram[16-bit] r11, r7, r61  ; load messages
 *     v.v.add[16] r11, r11, r12
 *     m.v.add.min[16] r10, r15, r11
 *     st.sram[16] r10, r14, r61
 *     add.imm r7, r7, 32
 *     blt r7, r20, loop
 *     halt
 * @endcode
 */

#ifndef VIP_ISA_ASSEMBLER_HH
#define VIP_ISA_ASSEMBLER_HH

#include <string>
#include <string_view>
#include <vector>

#include "isa/isa.hh"

namespace vip {

/**
 * Assemble VIP source text into a program.
 * @throws AssemblyFailure naming the 1-based line of the first syntax
 *         error, or line 0 for a program longer than the PE
 *         instruction buffer.
 */
std::vector<Instruction> assemble(std::string_view source);

} // namespace vip

#endif // VIP_ISA_ASSEMBLER_HH

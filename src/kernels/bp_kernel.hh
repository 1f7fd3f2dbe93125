/**
 * @file
 * VIP assembly generators for BP-M message-update sweeps (Sec. IV-A and
 * Fig. 2 of the paper).
 *
 * A sweep walks the grid along its sequential axis (the BP-M ordering
 * constraint) while lanes — the orthogonal coordinate — are divided
 * among PEs. Per update the kernel performs exactly the paper's
 * 3L + 2L^2 operations and 4L element transfers: three vector loads
 * (data cost + the two cross-direction messages), a three-step
 * v.v.add chain building theta-hat, one m.v.add.min against the
 * resident smoothness matrix, and one vector store. The along-sweep
 * input message is never re-loaded: it is the previous update's output,
 * carried in a ping-pong chain buffer (this is what makes the sweep
 * sequential). Loads are software-pipelined four iterations ahead
 * (Fig. 2's caption) with the ARC providing the use-before-load
 * interlock, and stores are deferred one iteration so they never read
 * the m.v result inside its timing shadow.
 *
 * Variants reproduce the Fig. 4 ablation:
 *  - reduction=false replaces m.v.add.min with an unrolled
 *    divide-and-conquer software reduction (the classic vector-ISA
 *    approach);
 *  - registerFile=true emulates a 16 x 256 B vector-register machine:
 *    operands live in 256 B-aligned slots holding eight packed 32 B
 *    vectors, with per-update unpack/repack copies and one contiguous
 *    256 B load/store per eight updates (the paper's maximally
 *    favorable register-file setup).
 */

#ifndef VIP_KERNELS_BP_KERNEL_HH
#define VIP_KERNELS_BP_KERNEL_HH

#include <array>
#include <span>
#include <vector>

#include "isa/isa.hh"
#include "kernels/layout.hh"
#include "workloads/mrf.hh"

namespace vip {

/** Fig. 4 configuration axes, plus the software-pipelining depth. */
struct BpVariant
{
    bool reduction = true;     ///< use the horizontal (reduction) unit
    bool registerFile = false; ///< emulate a vector-register file

    /** Iterations ahead loads are issued (1..4; the paper's code uses
     *  four). Scratchpad mode only. */
    unsigned prefetchDepth = 4;

    /**
     * Periodic message normalization (see BpState / kBpNormPeriod):
     * broadcast-subtract min(chain) via a resident zero matrix, which
     * keeps 16-bit messages bounded over any iteration count. Requires
     * the reduction unit and the scratchpad configuration.
     */
    bool normalize = true;
};

enum class SweepDir { Right, Left, Down, Up };

/** The slice of one sweep assigned to one PE. */
struct BpSweepJob
{
    SweepDir dir = SweepDir::Down;
    unsigned laneBegin = 0;  ///< first lane (column for Down/Up, row
                             ///< for Right/Left), inclusive
    unsigned laneEnd = 0;    ///< last lane, exclusive
};

/**
 * Generate a standalone program executing one sweep slice, ending in
 * halt. @p layout supplies every address; the program is fully
 * self-contained (no argument registers).
 */
std::vector<Instruction> genBpSweep(const MrfDramLayout &layout,
                                    const BpVariant &variant,
                                    const BpSweepJob &job);

/**
 * Generate a full BP-M program: @p iterations iterations of the
 * right, left, down, up sweep sequence with an all-PE barrier after
 * each sweep. @p jobs gives this PE's lane slice for each direction
 * (indexed by SweepDir). Flags for the barrier live at @p flag_base
 * (see emitBarrier for the layout); the host must zero them first.
 */
std::vector<Instruction> genBpIterations(
    const MrfDramLayout &layout, const BpVariant &variant,
    std::span<const BpSweepJob, 4> jobs, unsigned iterations,
    Addr flag_base, unsigned pe_index, unsigned num_pes);

/**
 * PE @p pe's share of a width x height tile, as genBpIterations' jobs:
 * ceil(height / num_pes) rows of each horizontal sweep and
 * ceil(width / num_pes) columns of each vertical one, cut at the
 * tile's edge (so a PE past it gets empty slices).
 */
std::array<BpSweepJob, 4> bpTileJobs(unsigned width, unsigned height,
                                     unsigned pe, unsigned num_pes);

} // namespace vip

#endif // VIP_KERNELS_BP_KERNEL_HH

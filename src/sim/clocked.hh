/**
 * @file
 * The simulator's time model: the `Clocked` component interface and
 * the event-horizon fast-forward contract.
 *
 * Every tickable unit of the machine (PE, NoC, vault, the system's
 * ingress drains) implements `tick(now)` plus `nextEventAt(now)`: the
 * earliest future cycle at which the component, left alone, could
 * change architectural or statistical state. The serial run loop uses
 * it twice when fast-forward is on, both from one pass per cycle
 * (`VipSystem::tickDue`):
 *
 *  - Per component: the system caches the NoC's, each vault's and
 *    each PE's due cycle, its `nextEventAt(now + 1)` as of its last
 *    tick, and ticks it only once that cycle has come.
 *  - For the whole machine: the same pass folds the refreshed entries
 *    and the ingress drain into the horizon `min(nextEventAt)` and,
 *    when it exceeds the next cycle, the loop warps simulated time
 *    directly to it.
 *
 * The contract that keeps both *exact* rather than approximate:
 *
 *  - `nextEventAt` may be conservative (early). Reporting a cycle at
 *    which the component turns out to do nothing merely costs a tick;
 *    the component is ticked there and re-reports.
 *  - `nextEventAt` must never be late. If the component would have
 *    changed any observable state (including statistics) at cycle t,
 *    it must report a value <= t. A busy or unknown component reports
 *    `now` (equivalently `now + 1` relative to the cycle it just
 *    ticked), which disables skipping it.
 *  - External wake-ups must be delivered. A component waiting on
 *    another component's event (a PE waiting on a DRAM response that
 *    arrives through the NoC) may report `kIdleForever` while it
 *    waits; the event is in the queue of the component that will
 *    deliver it, whose `nextEventAt` bounds the horizon. The delivery
 *    itself must make the waiting component due in the delivery
 *    cycle. Every such delivery passes through the system, which
 *    lowers the cached due cycle: a vault enqueue from the NoC and a
 *    response landing at its PE set the entry to 0, a vault the
 *    ingress drain feeds is recomputed (the drain runs after the vault
 *    phase), and every packet a vault or PE sends lowers the NoC's
 *    entry to the NoC's next event. The tick order (NoC, vaults,
 *    ingress drains, PEs)
 *    delivers each wake-up before the woken component's due check in
 *    the same cycle. Host calls between runs (`Pe::setReg`,
 *    `Pe::loadProgram`, `VipSystem::tick()`) bypass these, so `run()`
 *    recomputes every entry when it starts; the components' own
 *    wake-ups (`Pe::wake`, a vault's dirty gates) keep `nextEventAt`
 *    honest for that.
 *  - A component whose per-cycle behaviour is observable even when
 *    "nothing happens" (the PE's per-cycle stall counters) accounts
 *    for skipped cycles itself: a PE charges the stall recorded at
 *    its last tick for every cycle since then at its next tick
 *    (`Pe::settle`), and the run loop settles every PE on each exit.
 *
 * The system's ingress drain runs in every cycle in which a request is
 * parked, never gated on its own `nextEventAt`: a vault completion
 * earlier in the same cycle frees the slot a parked request drains
 * into, but by then the vault's `nextCompletionAt()` already names its
 * *next* completion, so the drain would miss the cycle. A vault keeps
 * one completion per transaction, pushed when its last column issues,
 * so `nextCompletionAt()` is exactly the cycle the next slot frees. The system
 * counts parked requests, so with none parked the drain and its
 * horizon term cost nothing.
 */

#ifndef VIP_SIM_CLOCKED_HH
#define VIP_SIM_CLOCKED_HH

#include <limits>

#include "sim/types.hh"

namespace vip {

/** "No self-generated future event": the component is externally
 *  driven or fully idle. */
inline constexpr Cycles kIdleForever = std::numeric_limits<Cycles>::max();

/** A component driven by the global 1.25 GHz clock. */
class Clocked
{
  public:
    virtual ~Clocked() = default;

    /** Advance the component through cycle @p now. */
    virtual void tick(Cycles now) = 0;

    /**
     * Earliest cycle >= @p now at which this component could change
     * state on its own. May be early, must never be late; see the
     * file comment for the full contract.
     */
    virtual Cycles nextEventAt(Cycles now) const = 0;
};

/** What the event-horizon fast-forward did during a run. */
struct FastForwardStats
{
    Cycles skippedCycles = 0;  ///< dead cycles warped over
    std::uint64_t warps = 0;   ///< number of time warps taken
};

} // namespace vip

#endif // VIP_SIM_CLOCKED_HH

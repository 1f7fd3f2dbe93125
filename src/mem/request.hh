/**
 * @file
 * Memory request descriptor exchanged between PEs, NoC, and vaults.
 */

#ifndef VIP_MEM_REQUEST_HH
#define VIP_MEM_REQUEST_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/types.hh"

namespace vip {

class MemRequestPool;

/**
 * One memory transaction. Requests larger than a DRAM column are split
 * by the vault controller into multiple column accesses internally; a
 * request completes when its last column access has been serviced.
 */
struct MemRequest
{
    Addr addr = 0;
    unsigned bytes = 0;
    bool isWrite = false;

    /** Issuing PE's global id, for response routing and stats. */
    unsigned sourcePe = 0;

    /** Invoked (once) at the cycle the request fully completes. */
    std::function<void(MemRequest &)> onComplete;

    /** Unique id assigned by the issuer; carried through for debugging. */
    std::uint64_t id = 0;

    /** Simulation bookkeeping. */
    Cycles issuedAt = 0;
    Cycles completedAt = 0;

    /**
     * The pool this request recycles through, or null for a plain
     * heap allocation. Set once by MemRequestPool::acquire(); the
     * completion endpoints (VipSystem's response delivery and
     * VaultController's direct-callback path) hand completed pooled
     * requests back instead of freeing them.
     */
    MemRequestPool *pool = nullptr;
};

/**
 * Free-list recycler for MemRequests. A steady-state PE↔memory hot
 * loop reuses a handful of descriptors instead of allocating one per
 * transfer piece; highWater() bounds the working set and
 * allocations() counts the fresh heap allocations (both exported via
 * `vip-run --json-stats` so perf PRs can spot allocation regressions).
 *
 * The pool is thread-confined to the host thread driving its
 * VipSystem (like every piece of simulated state — see the
 * concurrency contract on VipSystem::run): acquire/release are
 * unsynchronized by design, and sharing a pool across threads is a
 * caller bug, not a missing lock.
 *
 * The pool must outlive every completion callback of its requests
 * (the issuing PE owns both, and completions are delivered only while
 * the machine ticks). Requests still in flight at teardown are freed
 * by their owning container — a vault's transaction slots or its
 * backlog, or the NoC packet carrying them (Packet::req) — never by
 * the pool: release() is only called from the completion paths, so a
 * destroyed pool is never touched, and a machine torn down mid-flight
 * (expired budget, deadlock throw) leaks nothing.
 */
class MemRequestPool
{
  public:
    std::unique_ptr<MemRequest> acquire()
    {
        ++live_;
        highWater_ = std::max(highWater_, live_);
        if (free_.empty()) {
            ++allocations_;
            auto req = std::make_unique<MemRequest>();
            req->pool = this;
            return req;
        }
        auto req = std::move(free_.back());
        free_.pop_back();
        return req;
    }

    /** Return a completed request; resets every field but the pool link. */
    void release(std::unique_ptr<MemRequest> req)
    {
        --live_;
        req->addr = 0;
        req->bytes = 0;
        req->isWrite = false;
        req->sourcePe = 0;
        req->onComplete = nullptr;
        req->id = 0;
        req->issuedAt = 0;
        req->completedAt = 0;
        free_.push_back(std::move(req));
    }

    /** Pooled requests currently in flight. */
    unsigned live() const { return live_; }

    /** Most requests ever simultaneously in flight. */
    unsigned highWater() const { return highWater_; }

    /** Fresh heap allocations (steady state: stops growing). */
    std::uint64_t allocations() const { return allocations_; }

  private:
    std::vector<std::unique_ptr<MemRequest>> free_;
    unsigned live_ = 0;
    unsigned highWater_ = 0;
    std::uint64_t allocations_ = 0;
};

} // namespace vip

#endif // VIP_MEM_REQUEST_HH

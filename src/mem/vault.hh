/**
 * @file
 * Cycle-level model of one HMC vault: 16 banks sharing data TSVs, a
 * transaction queue, a command scheduler (FR-FCFS for the open-page
 * policy, auto-precharge for closed-page), and a refresh controller.
 */

#ifndef VIP_MEM_VAULT_HH
#define VIP_MEM_VAULT_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "mem/addrmap.hh"
#include "mem/request.hh"
#include "mem/timing.hh"
#include "sim/clocked.hh"
#include "sim/histogram.hh"
#include "sim/ring.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace vip {

class FaultInjector;

class VaultController final : public Clocked
{
  public:
    /** Most banks one vault can schedule (see kBankBits). */
    static constexpr unsigned kMaxBanks = 256;

    VaultController(unsigned vaultId, const MemConfig &cfg,
                    const AddressMapper &mapper, StatGroup *parent);

    /**
     * Offer a transaction to this vault. Returns false (and leaves the
     * request with the caller) when the transaction queue is full.
     * @pre every byte of the request maps to this vault.
     */
    bool enqueue(std::unique_ptr<MemRequest> req);

    /** Advance one clock cycle: retire data, issue at most one command. */
    void tick(Cycles now) override;

    /**
     * Earliest cycle this vault could act: the head of the completion
     * queue, the next refresh deadline, or the earliest cycle any
     * queued column access clears its timing constraints (tRCD/tCCD/
     * tBurst for a row hit; tRP/tRAS precharge or tRFC/activate
     * windows for row-state progress). Conservative — the FR-FCFS
     * passes may pick a different access — but never late.
     */
    Cycles nextEventAt(Cycles now) const override;

    /** Head of the completion queue (kIdleForever when empty): the
     *  cycle the next transaction completes and frees its slot. */
    Cycles
    nextCompletionAt() const
    {
        return completions_.empty() ? kIdleForever : completions_.front().at;
    }

    /**
     * Handler receiving ownership of completed transactions. When set
     * (by the system, which must route a response packet back through
     * the NoC before the issuer may observe completion), it is invoked
     * *instead of* the request's own onComplete callback.
     */
    using CompletionHandler =
        std::function<void(std::unique_ptr<MemRequest>)>;

    void setCompletionHandler(CompletionHandler h)
    {
        completionHandler_ = std::move(h);
    }

    bool idle() const;

    /** Live (incomplete) transactions currently in the queue. */
    unsigned pendingTransactions() const;

    bool canAccept() const
    {
        return pendingTransactions() < cfg_.transQueueDepth;
    }

    /** Statistics, public so tests can read them. */
    struct Stats
    {
        Counter readBytes;
        Counter writeBytes;
        Counter rowHits;
        Counter rowMisses;
        Counter rowConflicts;
        Counter refreshes;
        Counter colCommands;
        Counter reqCount;
        Counter totalReqLatency;
    };

    const Stats &stats() const { return stats_; }

    /** Distribution of transaction latencies (cycles). */
    const Histogram &latencyHistogram() const { return latencyHist_; }

    /**
     * Attach a fault injector: each refresh interval rolls for a
     * retention error (a weak cell that decayed before the refresh
     * reached it); on a hit this vault picks the victim cell from the
     * injector's dice and plants the flip. Null detaches.
     */
    void setFaultInjector(FaultInjector *f) { injector_ = f; }

  private:
    /**
     * A run of pending DRAM column accesses: consecutive columns of
     * one transaction in one (bank, row). Runs live in their bank's
     * queue (oldest first). Every column still takes its own arrival
     * stamp, so a run's columns hold consecutive stamps and @c seq,
     * the stamp of its next unissued column, keeps FR-FCFS age
     * comparisons across banks exact.
     */
    struct ColumnAccess
    {
        std::uint64_t seq;       ///< stamp of the next unissued column
        std::uint64_t row;
        std::size_t transIndex;  ///< owning transaction slot
        unsigned left;           ///< unissued columns; 0 is a tombstone
        bool isWrite;
    };

    /** An in-flight transaction and its split bookkeeping. */
    struct Transaction
    {
        std::unique_ptr<MemRequest> req;
        unsigned pendingColumns = 0;  ///< columns not yet issued
        bool live = false;
    };

    /** Per-bank timing state and queued column accesses. */
    struct Bank
    {
        Cycles actAllowedAt = 0;
        Cycles colAllowedAt = 0;     ///< tRCD after ACT
        Cycles colCmdAllowedAt = 0;  ///< tCCD after this bank's last col
        Cycles preAllowedAt = 0;
        std::uint64_t openRow = 0;
        bool rowOpen = false;

        /** Unissued columns in @c cols; nonzero exactly while listed
         *  in activeBanks_. */
        unsigned queued = 0;

        /**
         * How many of those columns target @c openRow, maintained
         * while the row is open (meaningless when closed). Lets the
         * scheduler classify a bank without scanning its queue.
         */
        unsigned hitQueued = 0;

        /**
         * Position in @c cols and next stamp of the oldest run to
         * @c openRow; valid while the row is open and hitQueued > 0.
         * Every live run ahead of it targets another row and stays
         * queued until the row closes, so the position only moves
         * forward: the run stays the oldest hit until its last column
         * issues, and the search then resumes just past it.
         */
        std::uint64_t hitPos = 0;
        std::uint64_t hitSeq = 0;

        /**
         * Next stamp of the oldest run to a row other than @c openRow
         * (the precharge candidate); valid while the row is open and
         * queued > hitQueued. Only hits issue while the row is open,
         * so it changes only when the row does, or when an enqueue
         * adds the bank's first non-hit.
         */
        std::uint64_t missSeq = 0;

        /**
         * Queued runs, oldest first, in a ring addressed by absolute
         * position: positions never shift, so the scheduler can hold
         * on to one (hitPos). Finishing a run other than the oldest
         * leaves a tombstone (left == 0) that is dropped once it
         * reaches the front; the front is always live.
         */
        Ring<ColumnAccess> cols;
    };

    struct CompletionEvent
    {
        Cycles at;
        std::size_t transIndex;
    };

    void splitIntoColumns(std::size_t trans_index);
    void issueOldestHit(Cycles now);
    void issueColumn(unsigned bank_idx, Cycles now);
    void deactivateBank(unsigned bank_idx);
    void progressOldest(Cycles now);
    void openRow(Bank &bank, Cycles now);
    void updateBank(unsigned bank_idx);
    std::uint64_t oldestEligible(const std::vector<Cycles> &gate,
                                 const std::vector<std::uint64_t> &key,
                                 Cycles now) const;
    void refreshGates() const;
    void beginRefresh(Cycles now);
    void retireCompletions(Cycles now);
    void finishTransaction(std::size_t trans_index, Cycles now);

    unsigned vaultId_;
    MemConfig cfg_;
    const AddressMapper &mapper_;

    std::vector<Bank> banks_;

    /**
     * One bank's scheduling candidates, rebuilt by updateBank() after
     * every change to that bank: the earliest cycle its oldest hit may
     * issue (tRCD, tCCD) and that hit's key, and the earliest cycle
     * its row-state progress candidate — the oldest conflicting access
     * with the row open, the oldest access with it closed — may
     * precharge or activate, and that access's key. A gate is
     * kIdleForever when the bank has no such candidate. Kept apart
     * from Bank, one contiguous array per field, so the FR-FCFS passes
     * and the gate recompute are short loops that never touch a queue.
     *
     * A key is the candidate's arrival stamp << kBankBits | its bank.
     * Stamps are unique, so keys order as the stamps do, and the
     * smallest key also names its bank: picking the oldest eligible
     * candidate is a branch-free minimum.
     */
    static constexpr unsigned kBankBits = 8;
    static_assert(kMaxBanks == 1u << kBankBits);
    static constexpr std::uint64_t kBankMask = (1u << kBankBits) - 1;
    std::vector<Cycles> hitGate_;
    std::vector<std::uint64_t> hitKey_;
    std::vector<Cycles> progGate_;
    std::vector<std::uint64_t> progKey_;

    /**
     * Indices of banks with queued accesses, unordered. The scheduler
     * passes and the gate recompute are min-computations over banks,
     * so iteration order is free — which keeps them O(busy banks)
     * instead of O(all banks) for sparse traffic.
     */
    std::vector<unsigned> activeBanks_;

    std::vector<Transaction> trans_;
    std::vector<std::size_t> freeSlots_;  ///< free transaction slots
    unsigned liveTrans_ = 0;              ///< live entries in trans_
    std::size_t totalColumns_ = 0;        ///< unissued columns, all banks
    std::uint64_t nextSeq_ = 0;           ///< arrival-order stamp
    /**
     * Fully issued transactions awaiting their data, in completion
     * order. Only a transaction's last column pushes an entry: every
     * column completes a fixed tCL + tBurst after its issue and issue
     * cycles only grow, so the last column's completion is the
     * transaction's, and arrival order is completion order. At most
     * one entry per live transaction, so a ring of transQueueDepth
     * slots never grows.
     */
    Ring<CompletionEvent> completions_;

    Cycles colIssueAllowedAt_ = 0;

    /**
     * Memoized vault gates, recomputed by refreshGates() only after a
     * state change set gatesDirty_: hitAt_ is the earliest cycle any
     * open-row hit clears tRCD/tCCD/tBurst, progAt_ the earliest cycle
     * any precharge (tRAS/tWR) or activate (tRP/tRFC) may happen
     * (kIdleForever when no such access is queued). They depend only
     * on bank state, never on the current cycle, so tick() skips a
     * pass whose gate has not opened and nextEventAt() is O(1) between
     * state changes.
     */
    mutable Cycles hitAt_ = kIdleForever;
    mutable Cycles progAt_ = kIdleForever;
    mutable bool gatesDirty_ = false;

    Cycles refreshUntil_ = 0;
    Cycles nextRefreshAt_;
    CompletionHandler completionHandler_;

    FaultInjector *injector_ = nullptr;
    std::uint64_t refreshIndex_ = 0;  ///< refreshes begun (event key)

    StatGroup statGroup_;
    Stats stats_;
    Histogram latencyHist_;
};

} // namespace vip

#endif // VIP_MEM_VAULT_HH

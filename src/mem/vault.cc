#include "mem/vault.hh"

#include <algorithm>

#include "sim/fault.hh"
#include "sim/logging.hh"

namespace vip {

VaultController::VaultController(unsigned vaultId, const MemConfig &cfg,
                                 const AddressMapper &mapper,
                                 StatGroup *parent)
    : vaultId_(vaultId), cfg_(cfg), mapper_(mapper),
      banks_(cfg.geom.banksPerVault),
      hitGate_(cfg.geom.banksPerVault, kIdleForever),
      hitKey_(cfg.geom.banksPerVault, 0),
      progGate_(cfg.geom.banksPerVault, kIdleForever),
      progKey_(cfg.geom.banksPerVault, 0),
      trans_(cfg.transQueueDepth),
      completions_(cfg.transQueueDepth),
      nextRefreshAt_(cfg.timing.tREFI),
      statGroup_("vault" + std::to_string(vaultId), parent),
      stats_{Counter(&statGroup_, "read_bytes", "bytes read from DRAM"),
             Counter(&statGroup_, "write_bytes", "bytes written to DRAM"),
             Counter(&statGroup_, "row_hits", "column accesses to open row"),
             Counter(&statGroup_, "row_misses",
                     "activates with bank precharged"),
             Counter(&statGroup_, "row_conflicts",
                     "precharges forced by a different open row"),
             Counter(&statGroup_, "refreshes", "refresh commands issued"),
             Counter(&statGroup_, "col_commands", "RD/WR commands issued"),
             Counter(&statGroup_, "req_count", "transactions completed"),
             Counter(&statGroup_, "req_latency_total",
                     "sum of transaction latencies (cycles)")}
{
    vip_assert(cfg.geom.banksPerVault <= kMaxBanks,
               "scheduler keys hold at most ", kMaxBanks,
               " banks per vault");
    // Stacked descending so the next slot handed out is the lowest
    // index, matching the original linear free-slot search.
    freeSlots_.reserve(cfg.transQueueDepth);
    for (std::size_t i = cfg.transQueueDepth; i-- > 0;)
        freeSlots_.push_back(i);
}

void
VaultController::enqueue(std::unique_ptr<MemRequest> req)
{
    vip_assert(req->bytes > 0, "zero-length memory request");
    if (freeSlots_.empty() || !backlog_.empty())
        backlog_.push_back(std::move(req));
    else
        admit(std::move(req));
}

void
VaultController::admit(std::unique_ptr<MemRequest> req)
{
    const std::size_t slot = freeSlots_.back();
    freeSlots_.pop_back();
    ++liveTrans_;
    trans_[slot].req = std::move(req);
    trans_[slot].live = true;
    trans_[slot].pendingColumns = 0;
    splitIntoColumns(slot);
}

void
VaultController::splitIntoColumns(std::size_t trans_index)
{
    Transaction &t = trans_[trans_index];
    const MemRequest &req = *t.req;
    const unsigned col_bytes = cfg_.geom.colBytes;

    // A column extends the run the previous one opened when both sit
    // in the same (bank, row): that run is still its bank's newest.
    ColumnAccess *run = nullptr;
    unsigned run_bank = 0;
    std::uint64_t remaining = req.bytes;
    for (DramCoord c = mapper_.decode(req.addr); remaining > 0;
         c = mapper_.nextColumn(c)) {
        vip_assert(c.vault == vaultId_, "request for vault ", c.vault,
                   " enqueued at vault ", vaultId_);
        const unsigned within = col_bytes - c.offset;
        const std::uint64_t chunk = std::min<std::uint64_t>(remaining,
                                                            within);
        Bank &bank = banks_[c.bank];
        const std::uint64_t seq = nextSeq_++;
        vip_assert(seq < (~0ull >> kBankBits), "arrival stamps exhausted");
        const bool hit = bank.rowOpen && bank.openRow == c.row;
        const bool new_run = !run || run_bank != c.bank || run->row != c.row;
        if (new_run) {
            if (bank.queued == 0)
                activeBanks_.push_back(c.bank);
            if (hit) {
                if (bank.hitQueued == 0) {
                    bank.hitPos = bank.cols.end();
                    bank.hitSeq = seq;
                }
            } else if (bank.rowOpen && bank.queued == bank.hitQueued) {
                bank.missSeq = seq;  // every live access ahead hits
            }
            bank.cols.push({seq, c.row, trans_index, 0, req.isWrite});
            run = &bank.cols.back();
            run_bank = c.bank;
        }
        ++run->left;
        ++bank.queued;
        bank.hitQueued += hit;
        // Extending a run changes no gate or key: its first column
        // already classified the bank.
        if (new_run)
            updateBank(c.bank);
        ++totalColumns_;
        ++t.pendingColumns;
        remaining -= chunk;
    }
}

void
VaultController::retireCompletions(Cycles now)
{
    while (!completions_.empty() && completions_.front().at <= now) {
        const CompletionEvent ev = completions_.front();
        completions_.pop();
        finishTransaction(ev.transIndex, ev.at);
    }
}

void
VaultController::finishTransaction(std::size_t trans_index, Cycles now)
{
    Transaction &t = trans_[trans_index];
    vip_assert(t.live && t.pendingColumns == 0,
               "completion of a transaction with unissued columns");
    std::unique_ptr<MemRequest> req = std::move(t.req);
    t.live = false;
    freeSlots_.push_back(trans_index);
    --liveTrans_;
    req->completedAt = now;
    stats_.reqCount += 1;
    stats_.totalReqLatency += now - req->issuedAt;
    latencyHist_.sample(now - req->issuedAt);
    if (req->isWrite)
        stats_.writeBytes += req->bytes;
    else
        stats_.readBytes += req->bytes;
    if (completionHandler_) {
        completionHandler_(std::move(req));
    } else if (req->onComplete) {
        req->onComplete(*req);
    }
    // Direct-callback path: hand pooled descriptors back for reuse.
    if (req && req->pool)
        req->pool->release(std::move(req));
}

void
VaultController::beginRefresh(Cycles now)
{
    for (unsigned bi = 0; bi < banks_.size(); ++bi) {
        Bank &bank = banks_[bi];
        bank.rowOpen = false;
        bank.hitQueued = 0;
        bank.actAllowedAt = std::max(bank.actAllowedAt,
                                     now + cfg_.timing.tRFC);
        updateBank(bi);
    }
    refreshUntil_ = now + cfg_.timing.tRFC;
    nextRefreshAt_ += cfg_.timing.tREFI;
    stats_.refreshes += 1;

    // Retention errors: keyed by (vault, refresh ordinal), never the
    // cycle, so fast-forwarded and ticked runs strike identically.
    const std::uint64_t refresh_index = refreshIndex_++;
    if (injector_) {
        std::uint64_t dice = 0;
        if (injector_->retentionStrike(vaultId_, refresh_index, &dice)) {
            // Split the dice into a victim cell in this vault; the
            // injector cannot pick it itself because the address
            // mapping lives on this side of the layering.
            const DramGeometry &g = cfg_.geom;
            DramCoord c;
            c.vault = vaultId_;
            c.bank = static_cast<unsigned>(dice % g.banksPerVault);
            dice /= g.banksPerVault;
            c.row = dice % g.rowsPerBank;
            dice /= g.rowsPerBank;
            c.col = static_cast<unsigned>(dice % g.colsPerRow());
            dice /= g.colsPerRow();
            c.offset = static_cast<unsigned>(dice % g.colBytes);
            dice /= g.colBytes;
            injector_->plantRetentionFlip(
                mapper_.encode(c), static_cast<unsigned>(dice % 8));
        }
    }
}

void
VaultController::deactivateBank(unsigned bank_idx)
{
    auto it = std::find(activeBanks_.begin(), activeBanks_.end(),
                        bank_idx);
    vip_assert(it != activeBanks_.end(), "bank missing from active list");
    *it = activeBanks_.back();
    activeBanks_.pop_back();
}

void
VaultController::issueColumn(unsigned bank_idx, Cycles now)
{
    Bank &bank = banks_[bank_idx];
    ColumnAccess &run = bank.cols.at(bank.hitPos);
    const std::size_t trans_index = run.transIndex;
    const bool is_write = run.isWrite;
    const DramTiming &t = cfg_.timing;

    // Data occupies the shared TSVs for tBurst beats (the vault-wide
    // constraint); tCCD paces column commands within one bank.
    colIssueAllowedAt_ = now + t.tBurst;
    bank.colCmdAllowedAt = now + t.tCCD;
    stats_.colCommands += 1;
    stats_.rowHits += 1;

    const Cycles done_at = now + t.tCL + t.tBurst;
    if (is_write) {
        bank.preAllowedAt = std::max(bank.preAllowedAt,
                                     done_at + t.tWR);
    }
    // Only the last column's completion is observable: it is the
    // transaction's, and no earlier one frees anything.
    if (--trans_[trans_index].pendingColumns == 0)
        completions_.push({done_at, trans_index});

    --totalColumns_;
    if (--bank.queued == 0)
        deactivateBank(bank_idx);
    --bank.hitQueued;
    if (--run.left > 0) {
        // The run's next column is the bank's oldest hit.
        bank.hitSeq = ++run.seq;
    } else {
        while (!bank.cols.empty() && bank.cols.front().left == 0)
            bank.cols.pop();  // drop the tombstones at the front
        if (bank.hitQueued > 0) {
            // Only tombstones and non-hits lie between this run and
            // the next hit; the pop may have dropped leading
            // tombstones.
            std::uint64_t pos =
                std::max(bank.hitPos + 1, bank.cols.head());
            while (bank.cols.at(pos).left == 0 ||
                   bank.cols.at(pos).row != bank.openRow)
                ++pos;
            bank.hitPos = pos;
            bank.hitSeq = bank.cols.at(pos).seq;
        }
    }

    if (cfg_.pagePolicy == PagePolicy::Closed && bank.hitQueued == 0) {
        // Auto-precharge: no other queued access needs this row.
        bank.rowOpen = false;
        bank.actAllowedAt = std::max(bank.preAllowedAt,
                                     is_write ? done_at + t.tWR
                                              : done_at) +
                            t.tRP;
    }
    updateBank(bank_idx);
}

void
VaultController::issueOldestHit(Cycles now)
{
    // FR-FCFS first pass. Within one bank every open-row access shares
    // the same timing gates, so the bank's oldest hit is its only
    // candidate; across banks the globally oldest eligible candidate
    // is exactly the access a front-to-back scan of one combined
    // arrival-ordered queue would have issued. The vault-wide tBurst
    // gate is folded into hitAt_, which the caller has checked.
    const std::uint64_t best = oldestEligible(hitGate_, hitKey_, now);
    vip_assert(best != ~0ull, "hit gate open with no eligible hit");
    issueColumn(static_cast<unsigned>(best & kBankMask), now);
}

std::uint64_t
VaultController::oldestEligible(const std::vector<Cycles> &gate,
                               const std::vector<std::uint64_t> &key,
                               Cycles now) const
{
    // Branch-free: which banks qualify changes from cycle to cycle, so
    // a branch mispredicts. A bank whose gate is still closed offers
    // ~0, which never wins.
    std::uint64_t best = ~0ull;
    for (const unsigned bi : activeBanks_) {
        best = std::min(best, key[bi] | -static_cast<std::uint64_t>(
                                            gate[bi] > now));
    }
    return best;
}

void
VaultController::openRow(Bank &bank, Cycles now)
{
    const DramTiming &t = cfg_.timing;
    const ColumnAccess &oldest = bank.cols.front();
    bank.rowOpen = true;
    bank.openRow = oldest.row;
    bank.colAllowedAt = now + t.tRCD;
    bank.preAllowedAt = now + t.tRAS;
    // The activating access is the bank's oldest, so it is the oldest
    // hit; one pass counts the hits and finds the oldest non-hit.
    bank.hitPos = bank.cols.head();
    bank.hitSeq = oldest.seq;
    bank.hitQueued = 0;
    bool miss_found = false;
    for (std::uint64_t pos = bank.cols.head(); pos != bank.cols.end();
         ++pos) {
        const ColumnAccess &c = bank.cols.at(pos);
        if (c.left == 0)
            continue;
        if (c.row == bank.openRow) {
            bank.hitQueued += c.left;
        } else if (!miss_found) {
            miss_found = true;
            bank.missSeq = c.seq;
        }
    }
}

void
VaultController::progressOldest(Cycles now)
{
    // Oldest-first row-state progress. A bank contributes one
    // candidate: with its row open, the oldest access needing a
    // different row (precharge); with its row closed, its oldest
    // access (activate). Same-class accesses within a bank share the
    // timing gate, so taking the globally oldest eligible candidate
    // reproduces the arrival-ordered scan exactly.
    const std::uint64_t best = oldestEligible(progGate_, progKey_, now);
    vip_assert(best != ~0ull, "progress gate open with no candidate");

    const auto best_bank = static_cast<unsigned>(best & kBankMask);
    Bank &bank = banks_[best_bank];
    if (!bank.rowOpen) {
        openRow(bank, now);
        stats_.rowMisses += 1;
    } else {
        bank.rowOpen = false;
        bank.hitQueued = 0;
        bank.actAllowedAt = std::max(bank.actAllowedAt,
                                     now + cfg_.timing.tRP);
        stats_.rowConflicts += 1;
    }
    updateBank(best_bank);
}

void
VaultController::updateBank(unsigned bank_idx)
{
    const Bank &bank = banks_[bank_idx];
    Cycles hit = kIdleForever;
    Cycles prog = kIdleForever;
    std::uint64_t prog_seq = 0;
    if (bank.rowOpen) {
        if (bank.hitQueued > 0) {
            // Row hit: gated by tRCD and this bank's tCCD.
            hit = std::max(bank.colAllowedAt, bank.colCmdAllowedAt);
        }
        if (bank.queued > bank.hitQueued) {
            // Conflict: the wrong row closes once tRAS/tWR allow.
            prog = bank.preAllowedAt;
            prog_seq = bank.missSeq;
        }
    } else if (bank.queued > 0) {
        // Precharged: activates once tRP/tRFC allow.
        prog = bank.actAllowedAt;
        prog_seq = bank.cols.front().seq;
    }
    hitGate_[bank_idx] = hit;
    hitKey_[bank_idx] = bank.hitSeq << kBankBits | bank_idx;
    progGate_[bank_idx] = prog;
    progKey_[bank_idx] = prog_seq << kBankBits | bank_idx;
    gatesDirty_ = true;
}

void
VaultController::refreshGates() const
{
    if (!gatesDirty_)
        return;
    // min over banks of max(floor, gate) == max(floor, min of gates),
    // so the vault-wide tBurst gate folds in once, after the walk.
    Cycles hit = kIdleForever;
    Cycles prog = kIdleForever;
    for (const unsigned bi : activeBanks_) {
        hit = std::min(hit, hitGate_[bi]);
        prog = std::min(prog, progGate_[bi]);
    }
    hitAt_ = std::max(hit, colIssueAllowedAt_);
    progAt_ = prog;
    gatesDirty_ = false;
}

void
VaultController::tick(Cycles now)
{
    retireCompletions(now);
    issueCommand(now);
    while (!backlog_.empty() && !freeSlots_.empty()) {
        admit(std::move(backlog_.front()));
        backlog_.pop_front();
    }
}

void
VaultController::issueCommand(Cycles now)
{
    if (now < refreshUntil_)
        return;
    if (now >= nextRefreshAt_) {
        beginRefresh(now);
        return;
    }
    if (totalColumns_ == 0)
        return;

    refreshGates();
    // First pass (FR-FCFS): issue the oldest row-hit column access.
    if (now >= hitAt_) {
        issueOldestHit(now);
        return;
    }
    // Second pass: make row-state progress for the oldest access.
    if (now >= progAt_)
        progressOldest(now);
}

Cycles
VaultController::nextEventAt(Cycles now) const
{
    // Refresh fires unconditionally at its deadline (and changes bank
    // state and the refresh counter), so it is always a hard event.
    Cycles next = std::max(nextRefreshAt_, now);
    if (!completions_.empty())
        next = std::min(next, std::max(completions_.front().at, now));

    if (totalColumns_ == 0 || next <= now)
        return next;

    // No command issues while the refresh window is open; otherwise
    // the earliest queued access to clear its gates acts first.
    refreshGates();
    return std::min(next, std::max({now, refreshUntil_,
                                    std::min(hitAt_, progAt_)}));
}

unsigned
VaultController::pendingTransactions() const
{
    return liveTrans_;
}

bool
VaultController::idle() const
{
    return totalColumns_ == 0 && completions_.empty() && liveTrans_ == 0;
}

} // namespace vip

/**
 * @file
 * Focused tests of the vault scheduler's timing behavior: write
 * recovery, bank-level pipelining, FR-FCFS reordering, per-bank tCCD
 * pacing, closed-page row-burst retention, latency histograms, and
 * one completion event per transaction — plus a differential test
 * against a naive reference scheduler on seeded random traffic.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <list>
#include <memory>
#include <vector>

#include "mem/vault.hh"
#include "sim/rng.hh"

namespace vip {
namespace {

struct Harness
{
    explicit Harness(const MemConfig &c)
        : cfg(c), mapper(c.geom, c.addrMap), vault(0, c, mapper, nullptr)
    {}

    /** Enqueue a request; records completion time into @p out. */
    void
    issue(Addr addr, unsigned bytes, bool write, Cycles *out)
    {
        auto req = std::make_unique<MemRequest>();
        req->addr = addr;
        req->bytes = bytes;
        req->isWrite = write;
        req->issuedAt = now;
        req->onComplete = [out](MemRequest &r) { *out = r.completedAt; };
        vault.enqueue(std::move(req));
        ASSERT_EQ(vault.backlog(), 0u);
    }

    void
    drain()
    {
        while (!vault.idle() && now < 1'000'000)
            vault.tick(now++);
        ASSERT_TRUE(vault.idle());
    }

    MemConfig cfg;
    AddressMapper mapper;
    VaultController vault;
    Cycles now = 0;
};

MemConfig
oneVault()
{
    MemConfig cfg;
    cfg.geom.vaults = 1;
    return cfg;
}

TEST(VaultSched, WriteRecoveryDelaysRowClose)
{
    // Write to row A, then read row B of the SAME bank: the precharge
    // must wait out tWR after the write's data, so the read completes
    // later than in the read-read case.
    const MemConfig cfg = oneVault();
    const Addr row_a = 0;
    // Next row of the same bank: rows advance above the bank bits.
    const Addr row_b =
        static_cast<Addr>(cfg.geom.rowBytes) * cfg.geom.banksPerVault;
    ASSERT_EQ(AddressMapper(cfg.geom, cfg.addrMap).decode(row_b).bank,
              0u);
    ASSERT_EQ(AddressMapper(cfg.geom, cfg.addrMap).decode(row_b).row, 1u);

    Cycles after_write = 0, after_read = 0;
    {
        Harness h(cfg);
        Cycles w = 0;
        h.issue(row_a, 32, true, &w);
        h.issue(row_b, 32, false, &after_write);
        h.drain();
    }
    {
        Harness h(cfg);
        Cycles r = 0;
        h.issue(row_a, 32, false, &r);
        h.issue(row_b, 32, false, &after_read);
        h.drain();
    }
    EXPECT_GT(after_write, after_read + cfg.timing.tWR / 2);
}

TEST(VaultSched, BankParallelismPipelinesActivates)
{
    // Eight accesses: all to one bank's distinct rows vs spread over
    // eight banks. The spread case must finish much sooner.
    auto run = [&](bool spread) {
        const MemConfig cfg = oneVault();
        Harness h(cfg);
        const Addr bank_stride = cfg.geom.rowBytes;   // next bank
        const Addr row_stride =
            static_cast<Addr>(cfg.geom.rowBytes) * cfg.geom.banksPerVault;
        Cycles done[8] = {};
        for (unsigned i = 0; i < 8; ++i) {
            const Addr addr = spread ? i * bank_stride
                                     : i * row_stride;
            h.issue(addr, 32, false, &done[i]);
        }
        h.drain();
        Cycles last = 0;
        for (Cycles d : done)
            last = std::max(last, d);
        return last;
    };
    const Cycles same_bank = run(false);
    const Cycles spread = run(true);
    EXPECT_LT(spread * 2, same_bank);
}

TEST(VaultSched, FrFcfsServesRowHitsFirst)
{
    // Queue: [row A col 0, row B, row A col 1]. Under FR-FCFS the
    // second row-A access is serviced before row B's activate path
    // finishes, i.e. it completes before the row-B access.
    const MemConfig cfg = oneVault();
    const Addr row_b =
        static_cast<Addr>(cfg.geom.rowBytes) * cfg.geom.banksPerVault;
    Harness h(cfg);
    Cycles a0 = 0, b0 = 0, a1 = 0;
    h.issue(0, 32, false, &a0);
    h.issue(row_b, 32, false, &b0);
    h.issue(32, 32, false, &a1);
    h.drain();
    EXPECT_LT(a0, b0);
    EXPECT_LT(a1, b0) << "row hit should bypass the pending miss";
}

TEST(VaultSched, PerBankCcdAllowsCrossBankStreaming)
{
    // Alternating columns across two banks can issue every tBurst;
    // consecutive columns in one bank are paced by tCCD.
    auto run = [&](bool two_banks) {
        const MemConfig cfg = oneVault();
        Harness h(cfg);
        Cycles done[8] = {};
        for (unsigned i = 0; i < 8; ++i) {
            const Addr addr =
                two_banks
                    ? (i % 2) * cfg.geom.rowBytes + (i / 2) * 32
                    : i * 32;
            h.issue(addr, 32, false, &done[i]);
        }
        h.drain();
        Cycles last = 0;
        for (Cycles d : done)
            last = std::max(last, d);
        return last;
    };
    // With tCCD (7) > tBurst (4), two banks should be faster.
    EXPECT_LT(run(true), run(false));
}

TEST(VaultSched, ClosedPageKeepsRowForQueuedHits)
{
    // Closed-page auto-precharge is suppressed while more queued
    // accesses target the same row: a 128 B request (4 columns) should
    // activate its row exactly once.
    MemConfig cfg = oneVault();
    cfg.pagePolicy = PagePolicy::Closed;
    Harness h(cfg);
    Cycles done = 0;
    h.issue(0, 128, false, &done);
    h.drain();
    EXPECT_EQ(h.vault.stats().rowMisses.value(), 1u);
    EXPECT_EQ(h.vault.stats().colCommands.value(), 4u);
}

TEST(VaultSched, LatencyHistogramTracksCompletions)
{
    const MemConfig cfg = oneVault();
    Harness h(cfg);
    Cycles done[4] = {};
    for (unsigned i = 0; i < 4; ++i)
        h.issue(i * 32, 32, false, &done[i]);
    h.drain();
    const Histogram &hist = h.vault.latencyHistogram();
    EXPECT_EQ(hist.count(), 4u);
    EXPECT_GT(hist.mean(), static_cast<double>(cfg.timing.tCL));
    EXPECT_GE(hist.max(), static_cast<Cycles>(hist.mean()));
}

TEST(VaultSched, OneCompletionEventPerTransaction)
{
    // A row-aligned 256-B read is one row's 8 columns. Driven only at
    // the cycles nextEventAt() names, the vault wakes to activate, to
    // issue each column, and once more to complete the transaction:
    // the intermediate columns' data is not an event.
    const MemConfig cfg = oneVault();
    ASSERT_EQ(cfg.geom.rowBytes, 256u);
    Harness h(cfg);
    Cycles done = 0;
    h.issue(0, 256, false, &done);

    unsigned wakes = 0;
    Cycles completion = kIdleForever;
    while (!h.vault.idle() && wakes < 100) {
        h.now = h.vault.nextEventAt(h.now);
        ASSERT_LT(h.now, cfg.timing.tREFI) << "refresh intervened";
        h.vault.tick(h.now++);
        ++wakes;
        if (h.vault.stats().colCommands.value() < 8) {
            EXPECT_EQ(h.vault.nextCompletionAt(), kIdleForever)
                << "after wake " << wakes;
        } else if (completion == kIdleForever) {
            completion = h.vault.nextCompletionAt();
        }
    }
    ASSERT_TRUE(h.vault.idle());
    EXPECT_EQ(h.vault.stats().rowMisses.value(), 1u);
    EXPECT_EQ(h.vault.stats().colCommands.value(), 8u);
    EXPECT_EQ(completion, done);
    EXPECT_EQ(wakes, 1u + 8u + 1u);
}

TEST(VaultSched, ReadsAndWritesShareTheDataBus)
{
    // Mixed traffic still totals correctly.
    const MemConfig cfg = oneVault();
    Harness h(cfg);
    Cycles sink[6] = {};
    for (unsigned i = 0; i < 6; ++i)
        h.issue(i * 64, 64, i % 2 == 0, &sink[i]);
    h.drain();
    EXPECT_EQ(h.vault.stats().writeBytes.value(), 3u * 64);
    EXPECT_EQ(h.vault.stats().readBytes.value(), 3u * 64);
    EXPECT_EQ(h.vault.stats().reqCount.value(), 6u);
}

/**
 * Reference FR-FCFS vault: the textbook form of the scheduler. Every
 * queued column access lives in one arrival-ordered list; each cycle
 * retires due data, honours refresh, then scans the list front to back
 * for the first row hit whose bank may issue, and failing that for the
 * first access whose bank may precharge (wrong row open) or activate
 * (bank closed). It shares no code with VaultController beyond the
 * address mapping and the timing parameters.
 */
class RefVault
{
  public:
    using Counters = std::array<std::uint64_t, 9>;

    RefVault(const MemConfig &cfg, const AddressMapper &mapper)
        : cfg_(cfg), mapper_(mapper), banks_(cfg.geom.banksPerVault),
          nextRefreshAt_(cfg.timing.tREFI)
    {}

    /** Returns false (queue full) or queues request @p id. */
    bool
    enqueue(std::size_t id, Addr addr, unsigned bytes, bool write,
            Cycles now)
    {
        if (live_ == cfg_.transQueueDepth)
            return false;
        ++live_;
        if (trans_.size() <= id)
            trans_.resize(id + 1);
        Trans &t = trans_[id];
        t = Trans{bytes, write, now, 0, 0};
        for (Addr a = addr; a < addr + bytes;) {
            const DramCoord c = mapper_.decode(a);
            queue_.push_back({c.bank, c.row, write, id});
            ++t.pending;
            a += cfg_.geom.colBytes - c.offset;
        }
        return true;
    }

    void
    tick(Cycles now)
    {
        const DramTiming &tm = cfg_.timing;
        for (auto it = done_.begin(); it != done_.end();) {
            if (it->first > now) {
                ++it;
                continue;
            }
            Trans &t = trans_[it->second];
            t.lastDone = std::max(t.lastDone, it->first);
            if (--t.pending == 0)
                complete(it->second);
            it = done_.erase(it);
        }
        if (now < refreshUntil_)
            return;
        if (now >= nextRefreshAt_) {
            for (Bank &b : banks_) {
                b.open = false;
                b.actAllowedAt = std::max(b.actAllowedAt, now + tm.tRFC);
            }
            refreshUntil_ = now + tm.tRFC;
            nextRefreshAt_ += tm.tREFI;
            ++c_[5];
            return;
        }
        for (auto it = queue_.begin(); it != queue_.end(); ++it) {
            Bank &b = banks_[it->bank];
            if (b.open && b.row == it->row && now >= b.colAllowedAt &&
                now >= b.colCmdAllowedAt && now >= colIssueAllowedAt_) {
                issue(it, now);
                return;
            }
        }
        for (const Access &a : queue_) {
            Bank &b = banks_[a.bank];
            if (b.open && b.row != a.row && now >= b.preAllowedAt) {
                b.open = false;
                b.actAllowedAt = std::max(b.actAllowedAt, now + tm.tRP);
                ++c_[4];
                return;
            }
            if (!b.open && now >= b.actAllowedAt) {
                b.open = true;
                b.row = a.row;
                b.colAllowedAt = now + tm.tRCD;
                b.preAllowedAt = now + tm.tRAS;
                ++c_[3];
                return;
            }
        }
    }

    /** Completion cycle of request @p id (0 while pending). */
    Cycles completedAt(std::size_t id) const { return trans_[id].doneAt; }

    /** Same order as vaultCounters(). */
    const Counters &counters() const { return c_; }

  private:
    struct Access
    {
        unsigned bank;
        std::uint64_t row;
        bool write;
        std::size_t id;
    };
    struct Trans
    {
        unsigned bytes;
        bool write;
        Cycles issuedAt;
        unsigned pending;
        Cycles lastDone;
        Cycles doneAt = 0;
    };
    struct Bank
    {
        bool open = false;
        std::uint64_t row = 0;
        Cycles actAllowedAt = 0, colAllowedAt = 0, colCmdAllowedAt = 0,
               preAllowedAt = 0;
    };

    void
    issue(std::list<Access>::iterator it, Cycles now)
    {
        const DramTiming &tm = cfg_.timing;
        const Access a = *it;
        Bank &b = banks_[a.bank];
        colIssueAllowedAt_ = now + tm.tBurst;
        b.colCmdAllowedAt = now + tm.tCCD;
        ++c_[6];  // col commands
        ++c_[2];  // row hits
        const Cycles done = now + tm.tCL + tm.tBurst;
        if (a.write)
            b.preAllowedAt = std::max(b.preAllowedAt, done + tm.tWR);
        done_.emplace_back(done, a.id);
        queue_.erase(it);
        if (cfg_.pagePolicy != PagePolicy::Closed)
            return;
        for (const Access &o : queue_) {
            if (o.bank == a.bank && o.row == b.row)
                return;  // a queued access still needs the row
        }
        b.open = false;
        b.actAllowedAt =
            std::max(b.preAllowedAt, a.write ? done + tm.tWR : done) +
            tm.tRP;
    }

    void
    complete(std::size_t id)
    {
        Trans &t = trans_[id];
        t.doneAt = t.lastDone;
        --live_;
        ++c_[7];
        c_[8] += t.doneAt - t.issuedAt;
        c_[t.write ? 1 : 0] += t.bytes;
    }

    MemConfig cfg_;
    const AddressMapper &mapper_;
    std::vector<Bank> banks_;
    std::list<Access> queue_;
    std::list<std::pair<Cycles, std::size_t>> done_;
    std::vector<Trans> trans_;
    unsigned live_ = 0;
    Cycles colIssueAllowedAt_ = 0;
    Cycles refreshUntil_ = 0;
    Cycles nextRefreshAt_;
    Counters c_{};
};

/** VaultController's Stats in RefVault::Counters order. */
RefVault::Counters
vaultCounters(const VaultController &v)
{
    const VaultController::Stats &s = v.stats();
    return {s.readBytes.value(),    s.writeBytes.value(),
            s.rowHits.value(),      s.rowMisses.value(),
            s.rowConflicts.value(), s.refreshes.value(),
            s.colCommands.value(),  s.reqCount.value(),
            s.totalReqLatency.value()};
}

/** One seeded request stream: arrival cycle, address, size, kind. */
struct TrafficReq
{
    Cycles arrival;
    Addr addr;
    unsigned bytes;
    bool write;
};

/** @p hot_banks > 0 confines the traffic to banks [0, hot_banks). */
std::vector<TrafficReq>
randomTraffic(const MemConfig &cfg, std::uint64_t seed, unsigned count,
              unsigned hot_banks = 0)
{
    // Bursts (which fill the queue) alternate with idle gaps (which
    // let refreshes land on an empty vault); a few hot rows per bank
    // make hits, misses and conflicts all common.
    const AddressMapper mapper(cfg.geom, cfg.addrMap);
    Rng rng(seed);
    std::vector<TrafficReq> reqs;
    Cycles t = 0;
    while (reqs.size() < count) {
        const bool burst = rng.nextBelow(3) != 0;
        const unsigned n = 1 + static_cast<unsigned>(rng.nextBelow(24));
        for (unsigned i = 0; i < n && reqs.size() < count; ++i) {
            t += burst ? rng.nextBelow(3) : rng.nextBelow(40);
            DramCoord c;
            c.vault = 0;
            c.bank = static_cast<unsigned>(rng.nextBelow(
                hot_banks ? hot_banks : cfg.geom.banksPerVault));
            c.row = rng.nextBelow(4);
            c.col = static_cast<unsigned>(
                rng.nextBelow(cfg.geom.colsPerRow()));
            c.offset = static_cast<unsigned>(
                rng.nextBelow(cfg.geom.colBytes));
            // Large requests can span a whole row, so wide-row
            // geometries see full-row column runs.
            const unsigned large =
                std::max(600u, cfg.geom.rowBytes + 64);
            const unsigned bytes =
                1 + static_cast<unsigned>(rng.nextBelow(
                        rng.nextBelow(4) == 0 ? large : 64));
            reqs.push_back({t, mapper.encode(c), bytes,
                            rng.nextBelow(3) == 0});
        }
        if (rng.nextBelow(4) == 0)
            t += 500 + rng.nextBelow(3000);  // idle: refresh crossings
    }
    return reqs;
}

/**
 * Drives a VaultController with @p reqs: requests queue FIFO at their
 * arrival cycle and are offered head-first while the vault can accept
 * them. Ticking every cycle, or (warp) only at cycles where something
 * can happen — the vault's nextEventAt(), the next arrival, or a
 * waiting request that the vault can now take. Offered with
 * @c check_slot false, every request is enqueued at its arrival and a
 * full vault holds it in its own backlog.
 */
struct VaultDriver
{
    VaultDriver(const MemConfig &cfg, const std::vector<TrafficReq> &reqs)
        : cfg(cfg), mapper(cfg.geom, cfg.addrMap),
          vault(0, cfg, mapper, nullptr), reqs(reqs),
          enqueuedAt(reqs.size(), 0), completedAt(reqs.size(), 0)
    {}

    /** Offer every arrived request (FIFO, head first) at @p now. */
    void
    offer(Cycles now, bool check_slot = true)
    {
        while (next < reqs.size() && reqs[next].arrival <= now) {
            if (check_slot && !vault.canAccept())
                return;
            const TrafficReq &r = reqs[next];
            auto req = std::make_unique<MemRequest>();
            req->addr = r.addr;
            req->bytes = r.bytes;
            req->isWrite = r.write;
            req->issuedAt = now;
            const std::size_t id = next;
            req->onComplete = [this, id](MemRequest &m) {
                completedAt[id] = m.completedAt;
            };
            vault.enqueue(std::move(req));
            enqueuedAt[id] = now;
            ++next;
        }
    }

    bool done() const { return next == reqs.size() && vault.idle(); }

    MemConfig cfg;
    AddressMapper mapper;
    VaultController vault;
    const std::vector<TrafficReq> &reqs;
    std::size_t next = 0;
    std::vector<Cycles> enqueuedAt;
    std::vector<Cycles> completedAt;
};

struct SchedCase
{
    const char *name;
    PagePolicy policy;
    unsigned transDepth;
    Cycles tREFI;
    bool moreBanks;
    bool widerRows = false;  ///< 4x rows: runs of up to 32 columns
    unsigned hotBanks = 0;   ///< nonzero: traffic on that many banks
};

class VaultDifferential : public ::testing::TestWithParam<SchedCase>
{};

TEST_P(VaultDifferential, MatchesNaiveReferenceAndNeverWakesLate)
{
    const SchedCase &sc = GetParam();
    MemConfig cfg = oneVault();
    cfg.pagePolicy = sc.policy;
    cfg.transQueueDepth = sc.transDepth;
    if (sc.tREFI)
        cfg.timing.tREFI = sc.tREFI;
    if (sc.moreBanks)
        cfg.geom.scaleBanks(true);
    if (sc.widerRows)
        cfg.geom.scaleRowWidth(true);

    for (const std::uint64_t seed : {11ull, 12ull, 13ull}) {
        SCOPED_TRACE(std::string(sc.name) + " seed " +
                     std::to_string(seed));
        const std::vector<TrafficReq> reqs =
            randomTraffic(cfg, seed, 1500, sc.hotBanks);
        constexpr Cycles kLimit = 5'000'000;

        // Reference and real controller, both ticked every cycle. In
        // every cycle that nextEventAt() calls dead, the real tick
        // must change nothing a caller can observe.
        const AddressMapper mapper(cfg.geom, cfg.addrMap);
        RefVault ref(cfg, mapper);
        std::vector<Cycles> ref_enqueued(reqs.size(), 0);
        std::size_t ref_next = 0;
        VaultDriver step(cfg, reqs);
        Cycles now = 0;
        unsigned dead_cycles = 0;
        for (; now < kLimit && !step.done(); ++now) {
            while (ref_next < reqs.size() &&
                   reqs[ref_next].arrival <= now &&
                   ref.enqueue(ref_next, reqs[ref_next].addr,
                               reqs[ref_next].bytes,
                               reqs[ref_next].write, now)) {
                ref_enqueued[ref_next++] = now;
            }
            ref.tick(now);

            step.offer(now);
            VaultController &v = step.vault;
            const Cycles wake = v.nextEventAt(now);
            ASSERT_GE(wake, now);
            if (wake > now) {
                ++dead_cycles;
                const auto counters = vaultCounters(v);
                const unsigned pending = v.pendingTransactions();
                const Cycles completion = v.nextCompletionAt();
                v.tick(now);
                ASSERT_EQ(vaultCounters(v), counters)
                    << "cycle " << now << " before nextEventAt " << wake;
                ASSERT_EQ(v.pendingTransactions(), pending);
                ASSERT_EQ(v.nextCompletionAt(), completion);
                ASSERT_EQ(v.nextEventAt(now + 1), wake);
            } else {
                v.tick(now);
            }
        }
        ASSERT_TRUE(step.done()) << "traffic did not drain";
        EXPECT_GT(dead_cycles, 0u);

        // The same traffic, ticked only at event cycles.
        VaultDriver warp(cfg, reqs);
        Cycles t = 0;
        while (t < kLimit && !warp.done()) {
            warp.offer(t);
            warp.vault.tick(t);
            Cycles to = warp.vault.nextEventAt(t + 1);
            if (warp.next < reqs.size()) {
                // An arrived request waits for a slot, which frees
                // only at a completion: nextEventAt() covers that.
                const Cycles arrival = reqs[warp.next].arrival;
                if (arrival > t)
                    to = std::min(to, arrival);
                else if (warp.vault.canAccept())
                    to = t + 1;
            }
            ASSERT_GT(to, t);
            t = to;
        }
        ASSERT_TRUE(warp.done()) << "warped traffic did not drain";

        // The same traffic enqueued at each arrival without asking
        // canAccept(), ticked only at event cycles: the vault's backlog
        // must admit each request exactly when the reference takes it.
        VaultDriver backlog(cfg, reqs);
        std::size_t max_backlog = 0;
        t = 0;
        while (t < kLimit && !backlog.done()) {
            backlog.offer(t, false);
            max_backlog = std::max(max_backlog, backlog.vault.backlog());
            backlog.vault.tick(t);
            Cycles to = backlog.vault.nextEventAt(t + 1);
            if (backlog.next < reqs.size())
                to = std::min(to, reqs[backlog.next].arrival);
            ASSERT_GT(to, t);
            t = to;
        }
        ASSERT_TRUE(backlog.done()) << "backlogged traffic did not drain";
        if (sc.transDepth <= 4) {
            EXPECT_GT(max_backlog, 0u) << "no backlog exercised";
        }
        // Its latencies count from arrival, not admission.
        RefVault::Counters from_arrival = ref.counters();
        for (std::size_t i = 0; i < reqs.size(); ++i)
            from_arrival[8] += ref_enqueued[i] - reqs[i].arrival;

        EXPECT_EQ(vaultCounters(step.vault), ref.counters());
        EXPECT_EQ(vaultCounters(warp.vault), ref.counters());
        EXPECT_EQ(vaultCounters(backlog.vault), from_arrival);
        EXPECT_GT(ref.counters()[4], 0u) << "no row conflicts exercised";
        EXPECT_GT(ref.counters()[5], 0u) << "no refresh exercised";
        for (std::size_t i = 0; i < reqs.size(); ++i) {
            ASSERT_EQ(step.enqueuedAt[i], ref_enqueued[i]) << "req " << i;
            ASSERT_EQ(step.completedAt[i], ref.completedAt(i))
                << "req " << i;
            ASSERT_EQ(warp.enqueuedAt[i], ref_enqueued[i]) << "req " << i;
            ASSERT_EQ(warp.completedAt[i], ref.completedAt(i))
                << "req " << i;
            ASSERT_EQ(backlog.completedAt[i], ref.completedAt(i))
                << "req " << i;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Traffic, VaultDifferential,
    ::testing::Values(
        SchedCase{"open", PagePolicy::Open, 32, 0, false},
        SchedCase{"closed", PagePolicy::Closed, 32, 0, false},
        SchedCase{"open_backpressure", PagePolicy::Open, 3, 0, false},
        SchedCase{"closed_backpressure", PagePolicy::Closed, 4, 0, false},
        SchedCase{"open_fast_refresh", PagePolicy::Open, 16, 300, false},
        SchedCase{"open_64_banks", PagePolicy::Open, 32, 0, true},
        SchedCase{"open_wide_rows", PagePolicy::Open, 32, 0, false, true},
        SchedCase{"closed_wide_rows", PagePolicy::Closed, 32, 0, false,
                  true},
        // A deep queue on two banks: each bank's run ring holds dozens
        // of runs, so it grows, and its positions wrap many times.
        SchedCase{"open_deep_two_banks", PagePolicy::Open, 128, 0, false,
                  false, 2},
        SchedCase{"closed_deep_two_banks", PagePolicy::Closed, 128, 0,
                  false, false, 2}),
    [](const ::testing::TestParamInfo<SchedCase> &info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace vip

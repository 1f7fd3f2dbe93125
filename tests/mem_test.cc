/**
 * @file
 * Unit tests for the HMC memory model: address mapping, the sparse
 * backing store, bank timing, page policies, refresh, and the Fig. 5
 * geometry knobs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "mem/addrmap.hh"
#include "mem/hmc.hh"
#include "mem/storage.hh"
#include "sim/rng.hh"

namespace vip {
namespace {

class AddrMapRoundTrip : public ::testing::TestWithParam<AddrMap>
{
};

TEST_P(AddrMapRoundTrip, EncodeDecodeIdentity)
{
    DramGeometry geom;
    const AddressMapper mapper(geom, GetParam());
    Rng rng(5);
    for (unsigned n = 0; n < 2000; ++n) {
        const Addr addr = rng.nextBelow(geom.capacity());
        const DramCoord c = mapper.decode(addr);
        EXPECT_EQ(mapper.encode(c), addr);
        EXPECT_LT(c.vault, geom.vaults);
        EXPECT_LT(c.bank, geom.banksPerVault);
        EXPECT_LT(c.row, geom.rowsPerBank);
        EXPECT_LT(c.col, geom.colsPerRow());
        EXPECT_LT(c.offset, geom.colBytes);
    }
}

TEST_P(AddrMapRoundTrip, NextColumnMatchesDecode)
{
    // Random addresses plus every carry boundary: the last column of
    // a row, of a bank, and of a vault.
    DramGeometry geom;
    const AddressMapper mapper(geom, GetParam());
    Rng rng(6);
    std::vector<Addr> addrs;
    for (unsigned n = 0; n < 2000; ++n)
        addrs.push_back(rng.nextBelow(geom.capacity() - geom.colBytes));
    for (const Addr unit : {Addr{geom.rowBytes},
                            Addr{geom.rowBytes} * geom.banksPerVault,
                            geom.bytesPerVault(),
                            Addr{geom.colBytes} * geom.vaults}) {
        addrs.push_back(unit - 1);
        addrs.push_back(5 * unit - geom.colBytes + 3);
    }
    for (const Addr addr : addrs) {
        const Addr next = addr - addr % geom.colBytes + geom.colBytes;
        EXPECT_EQ(mapper.nextColumn(mapper.decode(addr)),
                  mapper.decode(next))
            << "addr 0x" << std::hex << addr;
    }
}

INSTANTIATE_TEST_SUITE_P(BothSchemes, AddrMapRoundTrip,
                         ::testing::Values(AddrMap::VaultRowBankCol,
                                           AddrMap::RowBankColVault));

TEST(AddrMap, VaultHighGivesContiguousVaultRegions)
{
    DramGeometry geom;
    const AddressMapper mapper(geom, AddrMap::VaultRowBankCol);
    for (unsigned v = 0; v < geom.vaults; ++v) {
        const Addr base = mapper.vaultBase(v);
        EXPECT_EQ(mapper.decode(base).vault, v);
        EXPECT_EQ(mapper.decode(base + geom.bytesPerVault() - 1).vault,
                  v);
    }
}

TEST(AddrMap, VaultLowInterleavesColumns)
{
    DramGeometry geom;
    const AddressMapper mapper(geom, AddrMap::RowBankColVault);
    // Consecutive 32 B columns land in consecutive vaults.
    EXPECT_EQ(mapper.decode(0).vault, 0u);
    EXPECT_EQ(mapper.decode(geom.colBytes).vault, 1u);
    EXPECT_EQ(mapper.decode(2 * geom.colBytes).vault, 2u);
}

TEST(Geometry, ScalingPreservesCapacity)
{
    DramGeometry geom;
    const auto cap = geom.capacity();
    DramGeometry more = geom;
    more.scaleBanks(true);
    EXPECT_EQ(more.capacity(), cap);
    EXPECT_EQ(more.banksPerVault, geom.banksPerVault * 4);
    DramGeometry fewer = geom;
    fewer.scaleBanks(false);
    EXPECT_EQ(fewer.capacity(), cap);
    DramGeometry wide = geom;
    wide.scaleRowWidth(true);
    EXPECT_EQ(wide.capacity(), cap);
    EXPECT_EQ(wide.rowBytes, geom.rowBytes * 4);
    DramGeometry narrow = geom;
    narrow.scaleRowWidth(false);
    EXPECT_EQ(narrow.capacity(), cap);
}

TEST(Storage, ZeroFilledAndSparse)
{
    DramStorage storage;
    EXPECT_EQ(storage.load<std::uint64_t>(123456789), 0u);
    EXPECT_EQ(storage.touchedPages(), 0u);
    storage.store<std::uint32_t>(1 << 30, 0xdeadbeef);
    EXPECT_EQ(storage.load<std::uint32_t>(1 << 30), 0xdeadbeefu);
    EXPECT_EQ(storage.touchedPages(), 1u);
}

TEST(Storage, CrossPageTransfers)
{
    DramStorage storage;
    std::vector<std::uint8_t> data(10000);
    Rng rng(6);
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.nextBelow(256));
    const Addr base = DramStorage::kPageBytes - 1234;
    storage.write(base, data.data(), data.size());
    std::vector<std::uint8_t> back(data.size());
    storage.read(base, back.data(), back.size());
    EXPECT_EQ(back, data);
}

TEST(Storage, FingerprintMatchesByteSerialFnv)
{
    // The reference: one FNV-1a chain per non-zero page, seeded with
    // the page number, XOR-combined, read back through read().
    auto reference = [](const DramStorage &storage) {
        std::uint64_t digest = 0;
        std::vector<std::uint8_t> page(DramStorage::kPageBytes);
        for (Addr page_no : storage.touchedPageNumbers()) {
            storage.read(page_no * DramStorage::kPageBytes, page.data(),
                         page.size());
            if (std::all_of(page.begin(), page.end(),
                            [](std::uint8_t b) { return b == 0; }))
                continue;
            std::uint64_t h = 0xcbf29ce484222325ULL ^ page_no;
            for (std::uint8_t b : page)
                h = (h ^ b) * 0x100000001b3ULL;
            digest ^= h;
        }
        return digest;
    };

    // 0-9 non-zero pages, alternating between the first two radix
    // leaves (4096 pages each), with a touched all-zero page after
    // each one.
    for (unsigned pages = 0; pages <= 9; ++pages) {
        DramStorage storage;
        Rng rng(pages + 1);
        for (unsigned k = 0; k < pages; ++k) {
            const Addr page_no = (k % 2) * 4096 + 3 * k + 1;
            std::vector<std::uint8_t> data(1 + rng.nextBelow(
                                                   DramStorage::kPageBytes));
            for (auto &b : data)
                b = static_cast<std::uint8_t>(1 + rng.nextBelow(255));
            storage.write(page_no * DramStorage::kPageBytes, data.data(),
                          data.size());
            storage.store<std::uint8_t>(
                (page_no + 1) * DramStorage::kPageBytes, 0);
        }
        EXPECT_EQ(storage.touchedPages(), 2u * pages);
        EXPECT_EQ(storage.fingerprint(), reference(storage))
            << pages << " pages";
        if (pages == 0) {
            EXPECT_EQ(storage.fingerprint(), 0u);
        }
    }
}

/** Harness: drive one vault until a request completes. */
struct VaultHarness
{
    explicit VaultHarness(const MemConfig &cfg)
        : config(cfg), mapper(cfg.geom, cfg.addrMap),
          vault(0, cfg, mapper, nullptr)
    {}

    /** Issue a read and return its completion latency. */
    Cycles
    readLatency(Addr addr, unsigned bytes = 32)
    {
        Cycles done = 0;
        auto req = std::make_unique<MemRequest>();
        req->addr = addr;
        req->bytes = bytes;
        req->issuedAt = now;
        req->onComplete = [&](MemRequest &r) {
            done = r.completedAt - r.issuedAt;
        };
        vault.enqueue(std::move(req));
        EXPECT_EQ(vault.backlog(), 0u);
        while (done == 0 && now < 100000)
            vault.tick(now++);
        return done;
    }

    MemConfig config;
    AddressMapper mapper;
    VaultController vault;
    Cycles now = 0;
};

TEST(Vault, ColdReadLatencyIsActPlusCasPlusBurst)
{
    MemConfig cfg;
    cfg.geom.vaults = 1;
    VaultHarness h(cfg);
    const Cycles lat = h.readLatency(64);
    // tRCD + tCL + tBurst, plus scheduler cycles.
    const Cycles floor = cfg.timing.tRCD + cfg.timing.tCL +
                         cfg.timing.tBurst;
    EXPECT_GE(lat, floor);
    EXPECT_LE(lat, floor + 8);
}

TEST(Vault, OpenPageHitIsFasterThanMiss)
{
    MemConfig cfg;
    cfg.geom.vaults = 1;
    VaultHarness h(cfg);
    const Cycles miss = h.readLatency(0);
    const Cycles hit = h.readLatency(32);  // same row, next column
    EXPECT_LT(hit, miss);
    EXPECT_EQ(h.vault.stats().rowHits.value(), 2u)
        << "second access and one column of the first hit the open row";
}

TEST(Vault, ClosedPagePolicyReopensRows)
{
    MemConfig cfg;
    cfg.geom.vaults = 1;
    cfg.pagePolicy = PagePolicy::Closed;
    VaultHarness h(cfg);
    const Cycles first = h.readLatency(0);
    const Cycles second = h.readLatency(32);
    // With auto-precharge and an empty queue, the second access must
    // activate again: no faster than the first.
    EXPECT_GE(second + 2, first);
    EXPECT_GE(h.vault.stats().rowMisses.value(), 2u);
}

TEST(Vault, MultiColumnRequestCompletesOnce)
{
    MemConfig cfg;
    cfg.geom.vaults = 1;
    VaultHarness h(cfg);
    unsigned completions = 0;
    auto req = std::make_unique<MemRequest>();
    req->addr = 16;       // misaligned: spans 9 columns
    req->bytes = 270;
    req->onComplete = [&](MemRequest &) { ++completions; };
    h.vault.enqueue(std::move(req));
    ASSERT_EQ(h.vault.pendingTransactions(), 1u);
    while (!h.vault.idle())
        h.vault.tick(h.now++);
    EXPECT_EQ(completions, 1u);
    EXPECT_EQ(h.vault.stats().colCommands.value(), 9u);
    EXPECT_EQ(h.vault.stats().readBytes.value(), 270u);
}

TEST(Vault, RefreshFiresAtTrefi)
{
    MemConfig cfg;
    cfg.geom.vaults = 1;
    VaultHarness h(cfg);
    for (Cycles t = 0; t < 3 * cfg.timing.tREFI + 10; ++t)
        h.vault.tick(h.now++);
    EXPECT_EQ(h.vault.stats().refreshes.value(), 3u);
}

TEST(Vault, QueueBackpressure)
{
    MemConfig cfg;
    cfg.geom.vaults = 1;
    cfg.transQueueDepth = 4;
    VaultHarness h(cfg);
    // Eight requests into four slots: four are live and four wait in
    // the vault's own backlog, to be admitted as slots free.
    std::vector<unsigned> order;
    for (unsigned i = 0; i < 8; ++i) {
        auto req = std::make_unique<MemRequest>();
        req->addr = i * 4096;
        req->bytes = 32;
        req->onComplete = [&order, i](MemRequest &) { order.push_back(i); };
        h.vault.enqueue(std::move(req));
    }
    EXPECT_EQ(h.vault.pendingTransactions(), 4u);
    EXPECT_EQ(h.vault.backlog(), 4u);
    // canAccept() stays false while anything waits: the fifth
    // completion is the first that leaves a slot free.
    while (order.size() < 8 && h.now < 100000) {
        EXPECT_EQ(h.vault.canAccept(), order.size() >= 5)
            << "after " << order.size() << " completions";
        EXPECT_FALSE(h.vault.idle());
        EXPECT_EQ(h.vault.backlog(),
                  order.size() < 4 ? 4 - order.size() : 0u);
        h.vault.tick(h.now++);
    }
    EXPECT_EQ(order, (std::vector<unsigned>{0, 1, 2, 3, 4, 5, 6, 7}));
    EXPECT_TRUE(h.vault.idle());
    EXPECT_TRUE(h.vault.canAccept());
}

TEST(Hmc, RoutesToHomeVaultAndTracksBytes)
{
    MemConfig cfg;
    HmcStack hmc(cfg);
    const Addr in_vault3 = hmc.mapper().vaultBase(3) + 1000;
    EXPECT_EQ(hmc.homeVault(in_vault3), 3u);

    bool done = false;
    auto req = std::make_unique<MemRequest>();
    req->addr = in_vault3;
    req->bytes = 64;
    req->isWrite = true;
    req->onComplete = [&](MemRequest &) { done = true; };
    hmc.enqueue(std::move(req));
    ASSERT_EQ(hmc.vault(3).pendingTransactions(), 1u);
    Cycles now = 0;
    while (!done && now < 10000)
        hmc.tick(now++);
    EXPECT_TRUE(done);
    EXPECT_EQ(hmc.vault(3).stats().writeBytes.value(), 64u);
    EXPECT_EQ(hmc.totalBytesMoved(), 64u);
}

TEST(Hmc, MoreBanksImproveRandomAccessThroughput)
{
    // The Fig. 5 "more/fewer ranks" mechanism: random single-column
    // reads across banks complete sooner with more banks.
    auto run = [](int scale) {
        MemConfig cfg;
        cfg.geom.vaults = 1;
        if (scale > 0)
            cfg.geom.scaleBanks(true);
        else if (scale < 0)
            cfg.geom.scaleBanks(false);
        VaultHarness h(cfg);
        Rng rng(7);
        unsigned done = 0;
        const unsigned N = 64;
        for (unsigned i = 0; i < N; ++i) {
            auto req = std::make_unique<MemRequest>();
            req->addr = (rng.nextBelow(1 << 20)) & ~31ull;
            req->bytes = 32;
            req->onComplete = [&](MemRequest &) { ++done; };
            while (!h.vault.canAccept())
                h.vault.tick(h.now++);
            h.vault.enqueue(std::move(req));
            EXPECT_EQ(h.vault.backlog(), 0u);
        }
        while (done < N)
            h.vault.tick(h.now++);
        return h.now;
    };
    const Cycles fewer = run(-1);
    const Cycles base = run(0);
    const Cycles more = run(+1);
    EXPECT_LT(more, fewer);
    EXPECT_LE(base, fewer);
}

TEST(Timing, RefreshScalingFollowsJedecRatios)
{
    DramTiming t1;
    DramTiming t2 = t1;
    t2.scaleRefresh(2);
    DramTiming t4 = t1;
    t4.scaleRefresh(4);
    EXPECT_EQ(t2.tREFI, 2 * t1.tREFI);
    EXPECT_EQ(t4.tREFI, 4 * t1.tREFI);
    // tRFC grows sublinearly: longer blocks, but lower duty overhead.
    EXPECT_GT(t2.tRFC, t1.tRFC);
    EXPECT_GT(t4.tRFC, t2.tRFC);
    EXPECT_LT(t4.tRFC, 4 * t1.tRFC);
    const double duty1 = static_cast<double>(t1.tRFC) / t1.tREFI;
    const double duty4 = static_cast<double>(t4.tRFC) / t4.tREFI;
    EXPECT_LT(duty4, duty1);
}

} // namespace
} // namespace vip

#include "mem/storage.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace vip {

const std::uint8_t *
DramStorage::pageFor(Addr addr) const
{
    const Addr page_no = addr / kPageBytes;
    const Leaf *leaf = root_[page_no >> kLeafBits].get();
    if (!leaf)
        return nullptr;
    return leaf->pages[page_no & (kLeafSlots - 1)].get();
}

std::uint8_t *
DramStorage::pageForWrite(Addr addr)
{
    const Addr page_no = addr / kPageBytes;
    vip_assert(page_no >> (kRootBits + kLeafBits) == 0,
               "DRAM address past the 64 GiB radix span");

    auto &leaf = root_[page_no >> kLeafBits];
    if (!leaf)
        leaf = std::make_unique<Leaf>();
    auto &page = leaf->pages[page_no & (kLeafSlots - 1)];
    if (!page) {
        page = std::make_unique<std::uint8_t[]>(kPageBytes);
        ++touched_;
    }
    return page.get();
}

void
DramStorage::read(Addr addr, void *dst, std::size_t bytes) const
{
    auto *out = static_cast<std::uint8_t *>(dst);
    while (bytes > 0) {
        const std::size_t off = addr % kPageBytes;
        const std::size_t chunk = std::min(bytes, kPageBytes - off);
        const std::uint8_t *page = pageFor(addr);
        if (page)
            std::memcpy(out, page + off, chunk);
        else
            std::memset(out, 0, chunk);
        out += chunk;
        addr += chunk;
        bytes -= chunk;
    }
}

void
DramStorage::write(Addr addr, const void *src, std::size_t bytes)
{
    const auto *in = static_cast<const std::uint8_t *>(src);
    while (bytes > 0) {
        const std::size_t off = addr % kPageBytes;
        const std::size_t chunk = std::min(bytes, kPageBytes - off);
        std::memcpy(pageForWrite(addr) + off, in, chunk);
        in += chunk;
        addr += chunk;
        bytes -= chunk;
    }
}

std::vector<Addr>
DramStorage::touchedPageNumbers() const
{
    std::vector<Addr> numbers;
    numbers.reserve(touchedPages());
    for (std::size_t r = 0; r < kRootSlots; ++r) {
        const Leaf *leaf = root_[r].get();
        if (!leaf)
            continue;
        for (std::size_t l = 0; l < kLeafSlots; ++l)
            if (leaf->pages[l])
                numbers.push_back((Addr{r} << kLeafBits) | l);
    }
    return numbers;
}

std::uint64_t
DramStorage::fingerprint() const
{
    // FNV-1a per page (seeded with the page number so content at the
    // wrong address cannot cancel out), XOR-combined across pages and
    // walked in ascending radix order — the digest is order-independent
    // twice over. One page's chain is serial, a multiply per byte, so
    // four pages' chains run interleaved to overlap their latencies.
    constexpr std::uint64_t kBasis = 0xcbf29ce484222325ULL;
    constexpr std::uint64_t kPrime = 0x100000001b3ULL;
    const std::uint8_t *group[4];
    std::uint64_t seed[4];
    std::size_t grouped = 0;
    std::uint64_t digest = 0;
    for (std::size_t r = 0; r < kRootSlots; ++r) {
        const Leaf *leaf = root_[r].get();
        if (!leaf)
            continue;
        for (std::size_t l = 0; l < kLeafSlots; ++l) {
            const std::uint8_t *bytes = leaf->pages[l].get();
            if (!bytes)
                continue;
            const bool all_zero = std::all_of(bytes, bytes + kPageBytes,
                                              [](std::uint8_t b) {
                                                  return b == 0;
                                              });
            if (all_zero)
                continue;
            group[grouped] = bytes;
            seed[grouped] = kBasis ^ ((Addr{r} << kLeafBits) | l);
            if (++grouped < 4)
                continue;
            std::uint64_t h0 = seed[0], h1 = seed[1], h2 = seed[2],
                          h3 = seed[3];
            for (std::size_t i = 0; i < kPageBytes; ++i) {
                h0 = (h0 ^ group[0][i]) * kPrime;
                h1 = (h1 ^ group[1][i]) * kPrime;
                h2 = (h2 ^ group[2][i]) * kPrime;
                h3 = (h3 ^ group[3][i]) * kPrime;
            }
            digest ^= h0 ^ h1 ^ h2 ^ h3;
            grouped = 0;
        }
    }
    for (std::size_t g = 0; g < grouped; ++g) {
        std::uint64_t h = seed[g];
        for (std::size_t i = 0; i < kPageBytes; ++i)
            h = (h ^ group[g][i]) * kPrime;
        digest ^= h;
    }
    return digest;
}

} // namespace vip

#include "sim/fault.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "sim/error.hh"
#include "sim/logging.hh"

namespace vip {

namespace {

/** SplitMix64 finalizer: the same scramble Rng and jobSeed() use. */
std::uint64_t
mix64(std::uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
toUnit(std::uint64_t h)
{
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

double
parseRate(const std::string &key, const std::string &value)
{
    char *end = nullptr;
    const double rate = std::strtod(value.c_str(), &end);
    if (end != value.c_str() + value.size() || !std::isfinite(rate) ||
        rate < 0.0 || rate > 1.0) {
        throw ConfigError("fault spec: " + key + "=" + value +
                          " is not a probability in [0, 1]");
    }
    return rate;
}

void
appendRate(std::ostringstream &os, const char *key, double rate)
{
    if (rate > 0.0)
        os << "," << key << "=" << rate;
}

} // namespace

FaultPlan
FaultPlan::parse(const std::string &spec)
{
    FaultPlan plan;
    plan.enabled = true;

    std::size_t pos = 0;
    while (pos < spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        const std::string item = spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (item.empty())
            continue;
        const std::size_t eq = item.find('=');
        if (eq == std::string::npos) {
            throw ConfigError("fault spec: '" + item +
                              "' is not key=value");
        }
        const std::string key = item.substr(0, eq);
        const std::string value = item.substr(eq + 1);
        if (key == "seed") {
            char *end = nullptr;
            plan.seed = std::strtoull(value.c_str(), &end, 0);
            if (end != value.c_str() + value.size()) {
                throw ConfigError("fault spec: seed=" + value +
                                  " is not an integer");
            }
        } else if (key == "dram-read") {
            plan.dramReadBitFlipRate = parseRate(key, value);
        } else if (key == "retention") {
            plan.retentionErrorRate = parseRate(key, value);
        } else if (key == "noc-drop") {
            plan.nocDropRate = parseRate(key, value);
        } else if (key == "noc-corrupt") {
            plan.nocCorruptRate = parseRate(key, value);
        } else if (key == "sp-flip") {
            plan.spBitFlipRate = parseRate(key, value);
        } else if (key == "ecc") {
            if (value == "on") {
                plan.eccEnabled = true;
            } else if (value == "off") {
                plan.eccEnabled = false;
            } else {
                throw ConfigError("fault spec: ecc=" + value +
                                  " (expected on or off)");
            }
        } else {
            throw ConfigError(
                "fault spec: unknown key '" + key +
                "' (expected seed, dram-read, retention, noc-drop, "
                "noc-corrupt, sp-flip, or ecc)");
        }
    }
    plan.validate();
    return plan;
}

std::string
FaultPlan::toString() const
{
    std::ostringstream os;
    os << "seed=" << seed;
    appendRate(os, "dram-read", dramReadBitFlipRate);
    appendRate(os, "retention", retentionErrorRate);
    appendRate(os, "noc-drop", nocDropRate);
    appendRate(os, "noc-corrupt", nocCorruptRate);
    appendRate(os, "sp-flip", spBitFlipRate);
    os << ",ecc=" << (eccEnabled ? "on" : "off");
    return os.str();
}

void
FaultPlan::validate() const
{
    const struct { const char *name; double rate; } rates[] = {
        {"dram-read", dramReadBitFlipRate},
        {"retention", retentionErrorRate},
        {"noc-drop", nocDropRate},
        {"noc-corrupt", nocCorruptRate},
        {"sp-flip", spBitFlipRate},
    };
    for (const auto &[name, rate] : rates) {
        if (!std::isfinite(rate) || rate < 0.0 || rate > 1.0) {
            throw ConfigError(std::string("fault plan: ") + name +
                              " rate must be in [0, 1]");
        }
    }
}

FaultInjector::FaultInjector(const FaultPlan &plan) : plan_(plan)
{
    plan_.validate();
}

std::uint64_t
FaultInjector::diceFor(FaultSite::Kind kind, std::uint64_t a,
                       std::uint64_t b) const
{
    std::uint64_t h = mix64(plan_.seed +
                            0x9e3779b97f4a7c15ull *
                                (static_cast<std::uint64_t>(kind) + 1));
    h = mix64(h ^ a);
    return mix64(h ^ b);
}

bool
FaultInjector::hit(std::uint64_t dice, double rate)
{
    return rate > 0.0 && toUnit(dice) < rate;
}

void
FaultInjector::record(FaultSite::Kind kind, std::uint64_t a,
                      std::uint64_t b)
{
    if (sites_.size() >= kMaxRecordedSites) {
        sitesTruncated_ = true;
        return;
    }
    sites_.push_back({kind, a, b});
}

void
FaultInjector::toggleAndRecord(Addr addr, unsigned bit)
{
    vip_assert(toggle_, "fault injector used before bindStorage()");
    vip_assert(bit < 8, "bit index out of byte range");
    toggle_(addr, bit);
    const Addr word = addr & ~Addr{7};
    const unsigned word_bit = static_cast<unsigned>(addr - word) * 8 + bit;
    flipped_[word] ^= std::uint64_t{1} << word_bit;
    if (flipped_[word] == 0)
        flipped_.erase(word);
}

void
FaultInjector::scrubWord(Addr word)
{
    const auto it = flipped_.find(word);
    if (it == flipped_.end())
        return;
    const int n = std::popcount(it->second);
    if (n == 1) {
        // SECDED corrects the single-bit upset in place.
        const unsigned word_bit =
            static_cast<unsigned>(std::countr_zero(it->second));
        toggle_(word + word_bit / 8, word_bit % 8);
        flipped_.erase(it);
        ++stats_.eccCorrected;
    } else if (n == 2) {
        // Detected-uncorrectable: flagged, data stays corrupt.
        ++stats_.eccDetected;
    } else {
        // Three or more flips alias into a valid codeword.
        ++stats_.eccSilent;
    }
}

void
FaultInjector::onDramRead(Addr addr, std::uint64_t bytes, unsigned src)
{
    if (bytes == 0)
        return;
    const Addr first = addr & ~Addr{7};
    const Addr last = (addr + bytes - 1) & ~Addr{7};
    const bool roll = plan_.dramReadBitFlipRate > 0.0;
    const bool scrub = plan_.eccEnabled && !flipped_.empty();
    if (!roll && !scrub)
        return;
    for (Addr word = first;; word += 8) {
        if (roll) {
            // The event identity is (word, reader, how many times this
            // reader has read this word): program order per reader, so
            // independent of the cycle the read lands in. The
            // reader id shares the low 12 bits of the map key and the
            // dice's b operand with the ordinal shifted above it.
            const std::uint64_t key =
                ((word >> 3) << 12) | (src & 0xfffu);
            const std::uint64_t ordinal = ++readOrdinal_[key];
            const std::uint64_t dice =
                diceFor(FaultSite::Kind::DramRead, word,
                        (ordinal << 12) | (src & 0xfffu));
            if (hit(dice, plan_.dramReadBitFlipRate)) {
                const unsigned word_bit =
                    static_cast<unsigned>(mix64(dice) % 64);
                toggleAndRecord(word + word_bit / 8, word_bit % 8);
                ++stats_.dramBitFlips;
                record(FaultSite::Kind::DramRead, word + word_bit / 8,
                       word_bit % 8);
            }
        }
        if (plan_.eccEnabled)
            scrubWord(word);
        if (word == last)
            break;
    }
}

void
FaultInjector::onDramWrite(Addr addr, std::uint64_t bytes)
{
    if (bytes == 0)
        return;
    if (flipped_.empty())
        return;
    const Addr first = addr & ~Addr{7};
    const Addr last = (addr + bytes - 1) & ~Addr{7};
    for (Addr word = first;; word += 8) {
        const auto it = flipped_.find(word);
        if (it != flipped_.end()) {
            // Mask of bits in bytes the write covers within this word.
            const Addr lo = addr > word ? addr - word : 0;
            const Addr hi =
                addr + bytes < word + 8 ? addr + bytes - word : 8;
            std::uint64_t cover = ~std::uint64_t{0};
            if (hi - lo < 8) {
                cover = ((std::uint64_t{1} << ((hi - lo) * 8)) - 1)
                        << (lo * 8);
            }
            it->second &= ~cover;
            if (it->second == 0)
                flipped_.erase(it);
        }
        if (word == last)
            break;
    }
}

bool
FaultInjector::retentionStrike(unsigned vault, std::uint64_t refreshIndex,
                               std::uint64_t *entropy)
{
    const std::uint64_t dice =
        diceFor(FaultSite::Kind::Retention, vault, refreshIndex);
    if (!hit(dice, plan_.retentionErrorRate))
        return false;
    *entropy = mix64(dice);
    return true;
}

void
FaultInjector::plantRetentionFlip(Addr addr, unsigned bit)
{
    toggleAndRecord(addr, bit);
    ++stats_.retentionErrors;
    record(FaultSite::Kind::Retention, addr, bit);
}

FaultInjector::NocVerdict
FaultInjector::onNocArrival(std::uint64_t seq, unsigned attempts)
{
    if (hit(diceFor(FaultSite::Kind::NocDrop, seq, attempts),
            plan_.nocDropRate)) {
        ++stats_.nocDropped;
        ++stats_.nocRetransmits;
        record(FaultSite::Kind::NocDrop, seq, attempts);
        return NocVerdict::Drop;
    }
    if (hit(diceFor(FaultSite::Kind::NocCorrupt, seq, attempts),
            plan_.nocCorruptRate)) {
        ++stats_.nocCorrupted;
        ++stats_.nocRetransmits;
        record(FaultSite::Kind::NocCorrupt, seq, attempts);
        return NocVerdict::Corrupt;
    }
    return NocVerdict::Deliver;
}

long
FaultInjector::spFlip(unsigned peId, std::uint64_t instIndex,
                      std::uint64_t bitSpace)
{
    const std::uint64_t dice =
        diceFor(FaultSite::Kind::SpFlip, peId, instIndex);
    if (!hit(dice, plan_.spBitFlipRate))
        return -1;
    const auto bit = static_cast<long>(mix64(dice) % bitSpace);
    ++stats_.spBitFlips;
    record(FaultSite::Kind::SpFlip, peId,
           static_cast<std::uint64_t>(bit));
    return bit;
}

std::vector<std::pair<Addr, std::uint64_t>>
FaultInjector::outstandingFlips() const
{
    std::vector<std::pair<Addr, std::uint64_t>> flips;
    flips.reserve(flipped_.size());
    // Hash-order scan only collects entries; callers see the sorted
    // copy. // vip-lint: allow(unordered-iter)
    for (const auto &entry : flipped_)
        flips.emplace_back(entry.first, entry.second);
    std::sort(flips.begin(), flips.end());
    return flips;
}

void
FaultInjector::plantBitFlip(Addr addr, unsigned bit)
{
    toggleAndRecord(addr, bit);
    ++stats_.dramBitFlips;
    record(FaultSite::Kind::Planted, addr, bit);
}

} // namespace vip

/**
 * @file
 * Deterministic fault injection for the VIP machine.
 *
 * A FaultPlan describes *what* can go wrong (seeded rates for DRAM
 * read-disturb bit flips, refresh-interval retention errors, NoC packet
 * drop/corruption, scratchpad upsets, and whether SECDED ECC guards the
 * vault read path); a FaultInjector owned by the VipSystem decides
 * *where and when* each fault strikes and keeps the fault bookkeeping
 * (outstanding flipped bits per ECC word, counters, recorded sites).
 *
 * ## Determinism contract
 *
 * Every injection decision is a pure hash of (plan seed, site kind,
 * event identity) — a DRAM word address and the per-(word, reader)
 * read ordinal, a packet's source-lane key and delivery attempt, a
 * refresh index, an instruction count. Decisions are *never* keyed by
 * the current cycle: event-horizon fast-forward (sim/clocked.hh) warps
 * over dead cycles, so cycle-keyed sampling would inject differently
 * with and without the warp. Keyed by event identity, a
 * fast-forwarded run injects bit-identically to a ticked run, and two
 * runs with the same seed and plan strike the same sites
 * (fault_injection_test and ff_equivalence_test pin this). Like the
 * rest of the machine, an injector is confined to the thread running
 * its system.
 *
 * ## Layering
 *
 * This file lives in vip_sim, *below* the memory model, so it cannot
 * touch DramStorage directly. The system binds a ToggleFn at
 * construction that flips one bit of backing store; retention victims
 * are picked by the vault controller itself from entropy this class
 * hands out (the vault owns the address mapping needed to turn
 * bank/row/column dice rolls into a physical address).
 *
 * ## ECC model
 *
 * SECDED over each aligned 8-byte DRAM word. The injector tracks the
 * set of outstanding flipped bits per word; on every read of a word it
 * scrubs: one flipped bit is corrected in place (counter
 * `eccCorrected`), two are detected but not corrected (`eccDetected`,
 * the data stays corrupt), three or more alias into a valid codeword
 * and pass silently (`eccSilent`). Writes overwrite the affected bytes
 * and heal their recorded flips. With `ecc=off` flips simply propagate.
 */

#ifndef VIP_SIM_FAULT_HH
#define VIP_SIM_FAULT_HH

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace vip {

/** User-facing description of an injection campaign. */
struct FaultPlan
{
    /** Master switch; parse() and tests set it. All hooks are inert
     *  (and the system allocates no injector) when false. */
    bool enabled = false;

    std::uint64_t seed = 1;

    /** Probability an aligned 8-byte word suffers a transient bit flip
     *  on each functional DRAM read of it. */
    double dramReadBitFlipRate = 0.0;

    /** Probability one retention error strikes a vault per refresh
     *  interval (a weak cell lost its charge before being refreshed). */
    double retentionErrorRate = 0.0;

    /** Per-delivery-attempt probability a NoC packet is dropped at the
     *  ejection port (lost flit) and must be retransmitted. */
    double nocDropRate = 0.0;

    /** Per-delivery-attempt probability a packet arrives corrupted
     *  (link CRC failure) and must be retransmitted. */
    double nocCorruptRate = 0.0;

    /** Per-issued-instruction probability a random scratchpad bit
     *  flips in the issuing PE (SRAM soft error; no ECC). */
    double spBitFlipRate = 0.0;

    /** SECDED ECC on the vault read path. */
    bool eccEnabled = true;

    /**
     * Parse a spec string: comma-separated `key=value` with keys
     * `seed`, `dram-read`, `retention`, `noc-drop`, `noc-corrupt`,
     * `sp-flip`, and `ecc` (`on`/`off`), e.g.
     * `"seed=42,dram-read=1e-3,ecc=on"`. The result has
     * `enabled == true`. Throws ConfigError on unknown keys, bad
     * numbers, or rates outside [0, 1].
     */
    static FaultPlan parse(const std::string &spec);

    /** Canonical spec string (round-trips through parse()). */
    std::string toString() const;

    /** Throws ConfigError when any rate is non-finite or outside
     *  [0, 1]. Called by system-config validation. */
    void validate() const;
};

/** Counters exported through RunResult and `vip-run --json-stats`.
 *  Kept out of the StatGroup tree so stats dumps stay byte-identical
 *  when injection is disabled. */
struct FaultStats
{
    std::uint64_t dramBitFlips = 0;    ///< transient read-path flips
    std::uint64_t retentionErrors = 0; ///< refresh-interval cell losses
    std::uint64_t eccCorrected = 0;    ///< single-bit words corrected
    std::uint64_t eccDetected = 0;     ///< double-bit words detected
    std::uint64_t eccSilent = 0;       ///< >=3-bit words passed silently
    std::uint64_t nocDropped = 0;      ///< packets lost at ejection
    std::uint64_t nocCorrupted = 0;    ///< packets failing link CRC
    std::uint64_t nocRetransmits = 0;  ///< re-injections (drop+corrupt)
    std::uint64_t spBitFlips = 0;      ///< scratchpad upsets

    bool operator==(const FaultStats &) const = default;
};

/** One injected fault, recorded for reproducibility checks. */
struct FaultSite
{
    enum class Kind : std::uint8_t
    {
        DramRead,   ///< a = byte address, b = bit within byte
        Retention,  ///< a = byte address, b = bit within byte
        NocDrop,    ///< a = packet seq, b = delivery attempt
        NocCorrupt, ///< a = packet seq, b = delivery attempt
        SpFlip,     ///< a = PE id, b = bit within the scratchpad
        Planted,    ///< a = byte address, b = bit (test seam)
    };

    Kind kind;
    std::uint64_t a;
    std::uint64_t b;

    bool
    operator==(const FaultSite &o) const
    {
        return kind == o.kind && a == o.a && b == o.b;
    }
};

class FaultInjector
{
  public:
    /** Flip one bit of DRAM backing store: (byte address, bit 0-7). */
    using ToggleFn = std::function<void(Addr, unsigned)>;

    explicit FaultInjector(const FaultPlan &plan);

    /** Bind the storage mutator (the system does this once). Until
     *  bound, DRAM-touching hooks must not be called. */
    void bindStorage(ToggleFn toggle) { toggle_ = std::move(toggle); }

    /**
     * Functional DRAM read of [addr, addr+bytes) issued by reader
     * @p src (a PE id): roll for a transient flip per aligned 8-byte
     * word touched, then (when ECC is on) scrub each word against the
     * outstanding-flip record. Call *before* the data is consumed so
     * corruption and correction are architecturally visible. The roll
     * is keyed by (word, src, per-(word, src) read ordinal): each
     * reader issues its reads in program order, so the identity is
     * independent of the cycle a read lands in.
     */
    void onDramRead(Addr addr, std::uint64_t bytes, unsigned src);

    /** Functional DRAM write of [addr, addr+bytes): the new data
     *  overwrites any recorded flips in the covered bytes. */
    void onDramWrite(Addr addr, std::uint64_t bytes);

    /**
     * Should refresh number @p refreshIndex of @p vault suffer a
     * retention error? On true, @p entropy receives deterministic dice
     * for the caller to pick the victim cell (the vault controller
     * owns the address mapping); it then reports the victim through
     * plantRetentionFlip().
     */
    bool retentionStrike(unsigned vault, std::uint64_t refreshIndex,
                         std::uint64_t *entropy);

    /** Flip the retention victim chosen by the vault controller. */
    void plantRetentionFlip(Addr addr, unsigned bit);

    /** What happens to a packet reaching its ejection port. Anything
     *  but Deliver means the NoC retransmits from the source. */
    enum class NocVerdict : std::uint8_t { Deliver, Drop, Corrupt };

    NocVerdict onNocArrival(std::uint64_t seq, unsigned attempts);

    /**
     * Roll for a scratchpad upset after PE @p peId issued its
     * instruction number @p instIndex. Returns the bit to flip in
     * [0, bitSpace), or -1 for no fault.
     */
    long spFlip(unsigned peId, std::uint64_t instIndex,
                std::uint64_t bitSpace);

    /** Test seam: flip one DRAM bit now and record it for ECC, as a
     *  retention/read fault would. */
    void plantBitFlip(Addr addr, unsigned bit);

    /** Outstanding (uncorrected, unoverwritten) flipped bits. */
    std::size_t outstandingFlippedWords() const { return flipped_.size(); }

    /**
     * Snapshot of the outstanding flips as (word address, flipped-bit
     * mask) pairs in ascending address order. flipped_ is a hash map,
     * so anything reporting its contents (stats, diagnosis dumps,
     * JSON) must go through this sorted view, never iterate it
     * directly — hash-order output is the nondeterminism the
     * `unordered-iter` vip-lint rule exists to catch.
     */
    std::vector<std::pair<Addr, std::uint64_t>> outstandingFlips() const;

    const FaultPlan &plan() const { return plan_; }

    const FaultStats &stats() const { return stats_; }

    /** Recorded injection sites, in strike order (capped; see
     *  sitesTruncated()). */
    const std::vector<FaultSite> &sites() const { return sites_; }

    bool sitesTruncated() const { return sitesTruncated_; }

  private:
    static constexpr std::size_t kMaxRecordedSites = 4096;

    /** Pure decision hash for (kind, a, b) under the plan seed. */
    std::uint64_t diceFor(FaultSite::Kind kind, std::uint64_t a,
                          std::uint64_t b) const;

    /** True with probability @p rate, from the dice's top 53 bits. */
    static bool hit(std::uint64_t dice, double rate);

    void toggleAndRecord(Addr addr, unsigned bit);
    void scrubWord(Addr word);
    void record(FaultSite::Kind kind, std::uint64_t a, std::uint64_t b);

    FaultPlan plan_;
    ToggleFn toggle_;

    FaultStats stats_;

    /** Word-aligned address -> mask of flipped bits in that word. */
    std::unordered_map<Addr, std::uint64_t> flipped_;

    /**
     * ((word index) << 12 | reader id) -> how many times that reader
     * has read that word: the event identity keying read-disturb
     * rolls, independent of the cycle. Only populated when the plan
     * can actually roll (dram-read rate > 0), so fault-free and
     * ECC-only runs pay no memory for it.
     */
    std::unordered_map<std::uint64_t, std::uint64_t> readOrdinal_;

    std::vector<FaultSite> sites_;
    bool sitesTruncated_ = false;
};

} // namespace vip

#endif // VIP_SIM_FAULT_HH

/**
 * @file
 * SystemConfig's schema: one field table, forEachField(), drives the
 * wire encoder (toJson), the strict decoder (fromJson) and the
 * per-field checks of validateSystemConfig(). Adding a knob is one row.
 *
 * The wire form mirrors the struct: nested "mem" (with "timing" and
 * "geom" sections) and "pe" objects, scalar knobs at the top level,
 * the fault plan as its canonical `FaultPlan::toString()` spec string.
 * Decoding is strict about *names* (an unknown key is a ConfigError —
 * a typo must not silently become a default) but lenient about
 * *presence* (absent keys keep their defaults, so requests only say
 * what they change). Values are checked by validateSystemConfig() at
 * VipSystem construction, not while decoding.
 */

#include <algorithm>
#include <bit>
#include <limits>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <vector>

#include "sim/json.hh"
#include "system/simulation.hh"
#include "system/system.hh"

namespace vip {

namespace {

/** Caps on the keys that size host allocations. Each sits far above
 *  any modelled machine (the benches use at most 40 ARC entries, a
 *  32-deep transaction queue and 32 vaults) and far below a request
 *  that would exhaust the host. */
constexpr unsigned kMaxArcEntries = 1024;
constexpr unsigned kMaxTransQueueDepth = 4096;
constexpr unsigned kMaxVaults = 1024;

/** When a row's field is written to the wire. */
enum class Wire : std::uint8_t { Always, OnlyWhenFalse, OnlyWhenEnabled };

/** A row's part in the decoder's one cross-field default: a config
 *  that gives the vault count but no torus dimension gets the shape
 *  nocDimsFor() derives. Bit flags, collected over the rows present. */
enum Grid : unsigned { kNoGrid = 0, kGridSize = 1, kGridShape = 2 };

/** What a row's field must satisfy and how it travels. */
struct Rule
{
    bool nonzero = false;   ///< "<key> must be nonzero"
    std::uint64_t cap = 0;  ///< "<key> = v exceeds its cap of cap"; 0: none
    Wire wire = Wire::Always;
    Grid grid = kNoGrid;
};

constexpr Rule kNonzero{.nonzero = true};
/** The stage caps bound how far a vector result's ready time leads
 *  its issue, which the scratchpad's 16-bit ready clock relies on. */
constexpr Rule kStages{.nonzero = true, .cap = PeConfig::kMaxStages};

/**
 * The field table: one row per wire field — its dotted key, its
 * member of @p cfg and its Rule — in decode order. A section's rows
 * ("mem.timing.*") are contiguous.
 */
template <typename Cfg, typename Row>
void
forEachField(Cfg &cfg, Row &&row)
{
    auto &t = cfg.mem.timing;
    row("mem.timing.tCL", t.tCL, kNonzero);
    row("mem.timing.tRCD", t.tRCD, kNonzero);
    row("mem.timing.tRP", t.tRP, kNonzero);
    row("mem.timing.tRAS", t.tRAS, kNonzero);
    row("mem.timing.tWR", t.tWR, kNonzero);
    row("mem.timing.tCCD", t.tCCD, kNonzero);
    row("mem.timing.tRFC", t.tRFC, kNonzero);
    row("mem.timing.tREFI", t.tREFI, kNonzero);
    row("mem.timing.tBurst", t.tBurst, kNonzero);
    auto &g = cfg.mem.geom;
    row("mem.geom.vaults", g.vaults,
        Rule{.cap = kMaxVaults, .grid = kGridSize});
    row("mem.geom.banksPerVault", g.banksPerVault, kNonzero);
    row("mem.geom.rowsPerBank", g.rowsPerBank, kNonzero);
    row("mem.geom.rowBytes", g.rowBytes, kNonzero);
    row("mem.geom.colBytes", g.colBytes, kNonzero);
    row("mem.pagePolicy", cfg.mem.pagePolicy, Rule{});
    row("mem.addrMap", cfg.mem.addrMap, Rule{});
    row("mem.cmdQueueDepth", cfg.mem.cmdQueueDepth, kNonzero);
    row("mem.transQueueDepth", cfg.mem.transQueueDepth,
        Rule{.nonzero = true, .cap = kMaxTransQueueDepth});
    auto &pe = cfg.pe;
    row("pe.lsqEntries", pe.lsqEntries, kNonzero);
    row("pe.arcEntries", pe.arcEntries,
        Rule{.nonzero = true, .cap = kMaxArcEntries});
    row("pe.mulStages", pe.mulStages, kStages);
    row("pe.aluStages", pe.aluStages, kStages);
    row("pe.reduceStages", pe.reduceStages, kStages);
    row("pe.strictHazards", pe.strictHazards, Rule{});
    row("pe.enableReduction", pe.enableReduction, Rule{});
    row("pe.arcCoversVector", pe.arcCoversVector, Rule{});
    row("pesPerVault", cfg.pesPerVault, Rule{});
    row("nocX", cfg.nocX, Rule{.grid = kGridShape});
    row("nocY", cfg.nocY, Rule{.grid = kGridShape});
    row("watchdogCycles", cfg.watchdogCycles, Rule{});
    row("fastForward", cfg.fastForward, Rule{});
    row("fastPath", cfg.fastPath, Rule{.wire = Wire::OnlyWhenFalse});
    row("faults", cfg.faults, Rule{.wire = Wire::OnlyWhenEnabled});
}

/**
 * The rows of the section at @p path ("" or "mem." or "mem.timing."),
 * in table order: leaf(name, key, member, rule) for each row directly
 * in it, and sub(name, subpath) once for each section nested in it.
 */
template <typename Cfg, typename Leaf, typename Sub>
void
forEachInSection(Cfg &cfg, std::string_view path, Leaf &&leaf, Sub &&sub)
{
    std::string_view last;
    forEachField(cfg, [&](const char *key, auto &member, Rule rule) {
        const std::string_view k(key);
        if (!k.starts_with(path))
            return;
        const std::string_view rest = k.substr(path.size());
        const std::size_t dot = rest.find('.');
        if (dot == std::string_view::npos) {
            leaf(rest, key, member, rule);
        } else if (rest.substr(0, dot) != last) {
            last = rest.substr(0, dot);
            sub(last, k.substr(0, path.size() + dot + 1));
        }
    });
}

/** The wire names of an enum knob, indexed by value. */
template <typename E>
constexpr const char *kWireNames[2] = {};
template <>
constexpr const char *kWireNames<PagePolicy>[2] = {"open", "closed"};
template <>
constexpr const char *kWireNames<AddrMap>[2] = {"vault-row-bank-col",
                                                "row-bank-col-vault"};

/** @p v as its wire value, or null where @p wire leaves it off. */
template <typename T>
Json
toWire(const T &v, Wire wire)
{
    if constexpr (std::is_enum_v<T>)
        return kWireNames<T>[static_cast<unsigned>(v)];
    else if constexpr (std::is_same_v<T, FaultPlan>)
        return wire == Wire::OnlyWhenEnabled && !v.enabled ? Json()
                                                           : v.toString();
    else if constexpr (std::is_same_v<T, bool>)
        return wire == Wire::OnlyWhenFalse && v ? Json() : Json(v);
    else
        return std::uint64_t{v};
}

/** Decode @p w into @p v; a ConfigError names @p key for a count that
 *  does not fit (it would silently decode to a different machine) or
 *  a string that names no value of the enum. */
template <typename T>
void
fromWire(const Json &w, const char *key, T &v)
{
    if constexpr (std::is_enum_v<T>) {
        const auto &names = kWireNames<T>;
        const std::string &s = w.asString();
        if (s != names[0] && s != names[1]) {
            throw ConfigError(std::string(key) + " must be \"" + names[0] +
                              "\" or \"" + names[1] + "\", got \"" + s +
                              "\"");
        }
        v = static_cast<T>(s == names[1]);
    } else if constexpr (std::is_same_v<T, FaultPlan>) {
        v = FaultPlan::parse(w.asString());
    } else if constexpr (std::is_same_v<T, bool>) {
        v = w.asBool();
    } else {
        const std::uint64_t u = w.asU64();
        if (u > std::numeric_limits<T>::max()) {
            throw ConfigError(std::string(key) + " = " + std::to_string(u) +
                              " does not fit in " +
                              std::to_string(8 * sizeof(T)) + " bits");
        }
        v = static_cast<T>(u);
    }
}

Json
encodeSection(const SystemConfig &cfg, std::string_view path)
{
    Json out = Json::object();
    forEachInSection(
        cfg, path,
        [&](std::string_view name, const char *, const auto &v, Rule rule) {
            if (Json w = toWire(v, rule.wire); !w.isNull())
                out.set(std::string(name), std::move(w));
        },
        [&](std::string_view name, std::string_view sub) {
            out.set(std::string(name), encodeSection(cfg, sub));
        });
    return out;
}

/**
 * Decode the section at @p path from @p in, then reject any key of
 * @p in the table does not give it — so a section's fields decode
 * before its unknown-key check, and it is done before the next
 * section begins. @p said collects the Grid flags of the rows present.
 */
void
decodeSection(const Json &in, std::string_view path, SystemConfig &cfg,
              unsigned &said)
{
    // On a non-object find() is null, so nothing below decodes and
    // requireKnownKeys() throws the type error: the first error, as if
    // the type had been checked up front.
    std::vector<std::string_view> names;
    forEachInSection(
        cfg, path,
        [&](std::string_view name, const char *key, auto &v, Rule rule) {
            names.push_back(name);
            if (const Json *w = in.find(std::string(name))) {
                fromWire(*w, key, v);
                said |= rule.grid;
            }
        },
        [&](std::string_view name, std::string_view sub) {
            names.push_back(name);
            if (const Json *w = in.find(std::string(name)))
                decodeSection(*w, sub, cfg, said);
        });
    requireKnownKeys(in, "config key", path, names);
}

void
require(bool ok, const std::string &message)
{
    if (!ok)
        throw ConfigError(message);
}

} // namespace

void
requireKnownKeys(const Json &j, std::string_view noun, std::string_view path,
                 std::span<const std::string_view> known)
{
    for (const auto &[key, value] : j.asObject()) {
        if (std::find(known.begin(), known.end(), key) == known.end()) {
            throw ConfigError("unknown " + std::string(noun) + " \"" +
                              std::string(path) + key + "\"");
        }
    }
}

Json
SystemConfig::toJson() const
{
    return encodeSection(*this, "");
}

SystemConfig
SystemConfig::fromJson(const Json &j)
{
    SystemConfig cfg;
    unsigned said = 0;
    decodeSection(j, "", cfg, said);
    if (said == kGridSize)
        std::tie(cfg.nocX, cfg.nocY) = nocDimsFor(cfg.mem.geom.vaults);
    return cfg;
}

void
validateSystemConfig(const SystemConfig &cfg)
{
    const DramGeometry &g = cfg.mem.geom;
    // First, so a vault count that is neither a power of two nor under
    // its cap is named for the former.
    require(std::has_single_bit(g.vaults),
            "mem.geom.vaults = " + std::to_string(g.vaults) +
                "; must be a nonzero power of two so vault index bits "
                "split cleanly out of the address");
    forEachField(cfg, []<typename T>(const char *key, const T &v, Rule rule) {
        if constexpr (std::is_arithmetic_v<T>) {
            if (rule.nonzero && v == 0)
                throw ConfigError(std::string(key) + " must be nonzero");
            if (rule.cap != 0 && v > rule.cap) {
                throw ConfigError(std::string(key) + " = " +
                                  std::to_string(v) + " exceeds its cap of " +
                                  std::to_string(rule.cap));
            }
        }
    });

    require(g.banksPerVault <= VaultController::kMaxBanks,
            "mem.geom.banksPerVault = " + std::to_string(g.banksPerVault) +
                "; the vault scheduler addresses at most " +
                std::to_string(VaultController::kMaxBanks) + " banks");
    require(g.rowBytes % g.colBytes == 0,
            "mem.geom.colBytes = " + std::to_string(g.colBytes) +
                " must divide mem.geom.rowBytes = " +
                std::to_string(g.rowBytes));
    // The backing store's page table spans kSpanBytes: an address past
    // it would index outside the table. The first product fits 64 bits
    // (both factors are capped above); the others must not wrap.
    std::uint64_t capacity = 0;
    require(!__builtin_mul_overflow(std::uint64_t{g.vaults} * g.banksPerVault,
                                    g.rowsPerBank, &capacity) &&
                !__builtin_mul_overflow(capacity, g.rowBytes, &capacity) &&
                capacity <= DramStorage::kSpanBytes,
            "mem.geom.vaults * mem.geom.banksPerVault * "
            "mem.geom.rowsPerBank * mem.geom.rowBytes = " +
                std::to_string(g.vaults) + " * " +
                std::to_string(g.banksPerVault) + " * " +
                std::to_string(g.rowsPerBank) + " * " +
                std::to_string(g.rowBytes) + " bytes exceeds the " +
                std::to_string(DramStorage::kSpanBytes) +
                "-byte span of the DRAM backing store");

    const DramTiming &t = cfg.mem.timing;
    require(t.tREFI > t.tRFC,
            "mem.timing.tREFI = " + std::to_string(t.tREFI) +
                " must exceed mem.timing.tRFC = " +
                std::to_string(t.tRFC) +
                " or the vault never leaves refresh");

    // 64-bit product: two 32-bit dimensions must not wrap onto the
    // vault count.
    require(std::uint64_t{cfg.nocX} * cfg.nocY == g.vaults,
            "nocX * nocY = " + std::to_string(cfg.nocX) + " * " +
                std::to_string(cfg.nocY) + " does not match "
                "mem.geom.vaults = " + std::to_string(g.vaults) +
                " (use makeSystemConfig() or set nocX*nocY to the "
                "vault count)");

    require(cfg.pesPerVault >= 1 &&
                cfg.pesPerVault <= TorusNoc::kLanes - 1,
            "pesPerVault = " + std::to_string(cfg.pesPerVault) +
                "; each vault router has " +
                std::to_string(TorusNoc::kLanes - 1) +
                " PE star lanes");

    require(cfg.watchdogCycles > 0,
            "watchdogCycles must be nonzero (it bounds deadlock "
            "detection latency)");

    cfg.faults.validate();
}

} // namespace vip

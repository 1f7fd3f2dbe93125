/**
 * @file
 * SystemConfig <-> JSON, the config half of the serializable run API.
 *
 * The schema mirrors the struct: nested "mem" (with "timing" and
 * "geom" sections) and "pe" objects, scalar knobs at the top level,
 * the fault plan as its canonical `FaultPlan::toString()` spec string.
 * Decoding is strict about *names* (an unknown key is a ConfigError —
 * a typo must not silently become a default) but lenient about
 * *presence* (absent keys keep their defaults, so requests only say
 * what they change). Value validation stays where it always was, in
 * validateSystemConfig() at VipSystem construction.
 */

#include <functional>
#include <initializer_list>

#include "sim/json.hh"
#include "system/simulation.hh"
#include "system/system.hh"

namespace vip {

namespace {

/**
 * Strict object decoder: the caller registers a handler per known
 * key, then decode() walks the object and throws ConfigError for any
 * key without a handler, naming it with its dotted path.
 */
class StrictObject
{
  public:
    StrictObject(const Json &j, std::string path)
        : obj_(j.asObject()), path_(std::move(path))
    {}

    /** Register @p fn to decode @p key when present. */
    StrictObject &
    key(const std::string &key, std::function<void(const Json &)> fn)
    {
        handlers_.emplace_back(key, std::move(fn));
        return *this;
    }

    /** Run every registered handler, then reject unknown keys. */
    void
    decode() const
    {
        for (const auto &[name, fn] : handlers_) {
            const auto it = obj_.find(name);
            if (it != obj_.end())
                fn(it->second);
        }
        for (const auto &[name, value] : obj_) {
            bool known = false;
            for (const auto &[hname, fn] : handlers_) {
                if (hname == name) {
                    known = true;
                    break;
                }
            }
            if (!known) {
                throw ConfigError("unknown config key \"" + path_ +
                                  name + "\"");
            }
        }
    }

  private:
    const Json::Object &obj_;
    std::string path_;
    std::vector<std::pair<std::string,
                          std::function<void(const Json &)>>> handlers_;
};

template <typename T>
std::function<void(const Json &)>
intoUnsigned(T &field)
{
    return [&field](const Json &v) { field = static_cast<T>(v.asU64()); };
}

std::function<void(const Json &)>
intoBool(bool &field)
{
    return [&field](const Json &v) { field = v.asBool(); };
}

const char *
pagePolicyName(PagePolicy p)
{
    return p == PagePolicy::Open ? "open" : "closed";
}

PagePolicy
pagePolicyFrom(const Json &v)
{
    const std::string &s = v.asString();
    if (s == "open")
        return PagePolicy::Open;
    if (s == "closed")
        return PagePolicy::Closed;
    throw ConfigError("mem.pagePolicy must be \"open\" or \"closed\", "
                      "got \"" + s + "\"");
}

const char *
addrMapName(AddrMap m)
{
    return m == AddrMap::VaultRowBankCol ? "vault-row-bank-col"
                                         : "row-bank-col-vault";
}

AddrMap
addrMapFrom(const Json &v)
{
    const std::string &s = v.asString();
    if (s == "vault-row-bank-col")
        return AddrMap::VaultRowBankCol;
    if (s == "row-bank-col-vault")
        return AddrMap::RowBankColVault;
    throw ConfigError("mem.addrMap must be \"vault-row-bank-col\" or "
                      "\"row-bank-col-vault\", got \"" + s + "\"");
}

} // namespace

Json
SystemConfig::toJson() const
{
    Json timing = Json::object();
    timing.set("tCL", static_cast<std::uint64_t>(mem.timing.tCL));
    timing.set("tRCD", static_cast<std::uint64_t>(mem.timing.tRCD));
    timing.set("tRP", static_cast<std::uint64_t>(mem.timing.tRP));
    timing.set("tRAS", static_cast<std::uint64_t>(mem.timing.tRAS));
    timing.set("tWR", static_cast<std::uint64_t>(mem.timing.tWR));
    timing.set("tCCD", static_cast<std::uint64_t>(mem.timing.tCCD));
    timing.set("tRFC", static_cast<std::uint64_t>(mem.timing.tRFC));
    timing.set("tREFI", static_cast<std::uint64_t>(mem.timing.tREFI));
    timing.set("tBurst", static_cast<std::uint64_t>(mem.timing.tBurst));

    Json geom = Json::object();
    geom.set("vaults", mem.geom.vaults);
    geom.set("banksPerVault", mem.geom.banksPerVault);
    geom.set("rowsPerBank", mem.geom.rowsPerBank);
    geom.set("rowBytes", mem.geom.rowBytes);
    geom.set("colBytes", mem.geom.colBytes);

    Json memj = Json::object();
    memj.set("timing", std::move(timing));
    memj.set("geom", std::move(geom));
    memj.set("pagePolicy", pagePolicyName(mem.pagePolicy));
    memj.set("addrMap", addrMapName(mem.addrMap));
    memj.set("cmdQueueDepth", mem.cmdQueueDepth);
    memj.set("transQueueDepth", mem.transQueueDepth);

    Json pej = Json::object();
    pej.set("lsqEntries", pe.lsqEntries);
    pej.set("arcEntries", pe.arcEntries);
    pej.set("mulStages", pe.mulStages);
    pej.set("aluStages", pe.aluStages);
    pej.set("reduceStages", pe.reduceStages);
    pej.set("strictHazards", pe.strictHazards);
    pej.set("enableReduction", pe.enableReduction);
    pej.set("arcCoversVector", pe.arcCoversVector);

    Json j = Json::object();
    j.set("mem", std::move(memj));
    j.set("pe", std::move(pej));
    j.set("pesPerVault", pesPerVault);
    j.set("nocX", nocX);
    j.set("nocY", nocY);
    j.set("watchdogCycles", static_cast<std::uint64_t>(watchdogCycles));
    j.set("fastForward", fastForward);
    // The µop fast path is absent when on (the default), so
    // pre-fast-path fingerprints — and cached serve responses — stay
    // valid.
    if (!fastPath)
        j.set("fastPath", fastPath);
    if (faults.enabled)
        j.set("faults", faults.toString());
    return j;
}

SystemConfig
SystemConfig::fromJson(const Json &j)
{
    SystemConfig cfg;
    bool sawVaults = false, sawNocX = false, sawNocY = false;

    StrictObject root(j, "");
    root.key("mem", [&cfg, &sawVaults](const Json &m) {
        StrictObject memj(m, "mem.");
        memj.key("timing", [&cfg](const Json &t) {
            DramTiming &dt = cfg.mem.timing;
            StrictObject tj(t, "mem.timing.");
            tj.key("tCL", intoUnsigned(dt.tCL))
                .key("tRCD", intoUnsigned(dt.tRCD))
                .key("tRP", intoUnsigned(dt.tRP))
                .key("tRAS", intoUnsigned(dt.tRAS))
                .key("tWR", intoUnsigned(dt.tWR))
                .key("tCCD", intoUnsigned(dt.tCCD))
                .key("tRFC", intoUnsigned(dt.tRFC))
                .key("tREFI", intoUnsigned(dt.tREFI))
                .key("tBurst", intoUnsigned(dt.tBurst))
                .decode();
        });
        memj.key("geom", [&cfg, &sawVaults](const Json &g) {
            DramGeometry &dg = cfg.mem.geom;
            StrictObject gj(g, "mem.geom.");
            gj.key("vaults",
                   [&dg, &sawVaults](const Json &v) {
                       dg.vaults = static_cast<unsigned>(v.asU64());
                       sawVaults = true;
                   })
                .key("banksPerVault", intoUnsigned(dg.banksPerVault))
                .key("rowsPerBank", intoUnsigned(dg.rowsPerBank))
                .key("rowBytes", intoUnsigned(dg.rowBytes))
                .key("colBytes", intoUnsigned(dg.colBytes))
                .decode();
        });
        memj.key("pagePolicy", [&cfg](const Json &v) {
            cfg.mem.pagePolicy = pagePolicyFrom(v);
        });
        memj.key("addrMap", [&cfg](const Json &v) {
            cfg.mem.addrMap = addrMapFrom(v);
        });
        memj.key("cmdQueueDepth", intoUnsigned(cfg.mem.cmdQueueDepth));
        memj.key("transQueueDepth",
                 intoUnsigned(cfg.mem.transQueueDepth));
        memj.decode();
    });
    root.key("pe", [&cfg](const Json &p) {
        PeConfig &pc = cfg.pe;
        StrictObject pj(p, "pe.");
        pj.key("lsqEntries", intoUnsigned(pc.lsqEntries))
            .key("arcEntries", intoUnsigned(pc.arcEntries))
            .key("mulStages", intoUnsigned(pc.mulStages))
            .key("aluStages", intoUnsigned(pc.aluStages))
            .key("reduceStages", intoUnsigned(pc.reduceStages))
            .key("strictHazards", intoBool(pc.strictHazards))
            .key("enableReduction", intoBool(pc.enableReduction))
            .key("arcCoversVector", intoBool(pc.arcCoversVector))
            .decode();
    });
    root.key("pesPerVault", intoUnsigned(cfg.pesPerVault));
    root.key("nocX", [&cfg, &sawNocX](const Json &v) {
        cfg.nocX = static_cast<unsigned>(v.asU64());
        sawNocX = true;
    });
    root.key("nocY", [&cfg, &sawNocY](const Json &v) {
        cfg.nocY = static_cast<unsigned>(v.asU64());
        sawNocY = true;
    });
    root.key("watchdogCycles", intoUnsigned(cfg.watchdogCycles));
    root.key("fastForward", intoBool(cfg.fastForward));
    // Accepted and ignored (see SystemConfig::islands), but a
    // malformed value is still an error, not a silent no-op.
    root.key("islands", [](const Json &v) {
        try {
            v.asU64();
        } catch (const JsonError &e) {
            throw ConfigError("islands: " + e.message());
        }
    });
    root.key("fastPath", intoBool(cfg.fastPath));
    root.key("faults", [&cfg](const Json &v) {
        cfg.faults = FaultPlan::parse(v.asString());
    });
    root.decode();

    // A request that resizes the machine shouldn't have to know the
    // grid arithmetic: derive the torus shape unless given explicitly.
    if (sawVaults && !sawNocX && !sawNocY) {
        const auto [x, y] = nocDimsFor(cfg.mem.geom.vaults);
        cfg.nocX = x;
        cfg.nocY = y;
    }
    return cfg;
}

} // namespace vip

/**
 * @file
 * Tests for the vip-serve request/response surface: RunSpec JSON
 * round-trips, SystemConfig strict decoding, and the VipServer loop
 * driven over string streams exactly the way vip-serve drives it
 * over stdin — cache hits must be byte-identical, failures must come
 * back structured without killing the loop.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <streambuf>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#ifdef __unix__
#include <poll.h>
#include <unistd.h>

#include <ext/stdio_filebuf.h>
#endif

#include "serve/journal.hh"
#include "serve/serve.hh"
#include "sim/json.hh"
#include "sim/rng.hh"
#include "system/runspec.hh"

namespace vip {
namespace {

/// The same dot product simulation_test pins, so serve responses
/// carry real counters and a nontrivial DRAM result.
const char *kDotProduct = R"(
    mov.imm r1, 8
    set.vl r1
    mov.imm r2, 1
    set.mr r2
    mov.imm r10, 0x1000
    mov.imm r11, 0x1100
    mov.imm r12, 0x2000
    mov.imm r20, 0
    mov.imm r21, 64
    mov.imm r22, 128
    ld.sram[16] r20, r10, r1
    ld.sram[16] r21, r11, r1
    m.v.mul.add[16] r22, r20, r21
    v.drain
    st.sram[16] r22, r12, r2
    memfence
    halt
)";

RunSpec
dotSpec()
{
    RunSpec spec;
    spec.config = makeSystemConfig(2, 2);
    spec.programs.push_back({0, kDotProduct});
    spec.pokes.push_back({0x1000, {2, 3, 5, 7, 11, 13, 17, 19}});
    spec.pokes.push_back({0x1100, {1, 2, 3, 4, 5, 6, 7, 8}});
    spec.maxCycles = 200'000;
    return spec;
}

/// The shape of a benchmark serve request: one small program and a
/// 10k-value poke, so the line is mostly numbers.
RunSpec
serveMixSpec()
{
    RunSpec spec;
    spec.programs.push_back({0, kDotProduct});
    Rng rng(23);
    RunSpec::DramPoke big{0x1000, {}};
    for (unsigned i = 0; i < 10'000; ++i) {
        big.values.push_back(
            static_cast<std::int16_t>(rng.nextRange(-50, 50)));
    }
    spec.pokes.push_back(std::move(big));
    spec.pokes.push_back({0x1100, {1, 2, 3, 4, 5, 6, 7, 8}});
    spec.regs.push_back({0, 3, 0x1234});
    spec.maxCycles = 200'000;
    return spec;
}

/// Split serve() output into its '\n'-terminated response lines.
std::vector<std::string>
lines(const std::string &text)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    for (;;) {
        const std::size_t nl = text.find('\n', start);
        if (nl == std::string::npos)
            break;
        out.push_back(text.substr(start, nl - start));
        start = nl + 1;
    }
    return out;
}

/// Run one request stream through a fresh inline server.
std::vector<std::string>
serveLines(const std::string &requests, const ServeOptions &opts = {})
{
    VipServer server(opts);
    std::istringstream in(requests);
    std::ostringstream out;
    server.serve(in, out);
    return lines(out.str());
}

TEST(RunSpec, JsonRoundTripIsLossless)
{
    RunSpec spec = dotSpec();
    spec.config.fastForward = false;
    spec.config.pe.strictHazards = true;
    spec.regs.push_back({0, 3, 0x1234});

    const std::string text = spec.toJson().str();
    const RunSpec back = RunSpec::fromJson(Json::parse(text));

    EXPECT_TRUE(back == spec);
    EXPECT_EQ(back.fingerprint(), spec.fingerprint());
    EXPECT_EQ(back.toJson().str(), text);
    // And the round-tripped spec simulates identically.
    EXPECT_EQ(runSpec(back).toJson().str(),
              runSpec(spec).toJson().str());
}

TEST(RunSpec, RoundTripSurvivesPerturbedSpecs)
{
    // Property-style sweep: vary every field group and require
    // fromJson(toJson(s)) == s with an equal fingerprint.
    for (unsigned i = 0; i < 8; ++i) {
        RunSpec spec;
        spec.config = makeSystemConfig(1u << (i % 4), 1 + i % 3);
        spec.config.watchdogCycles = 1000 * (i + 1);
        spec.config.fastForward = (i % 2) == 0;
        spec.maxCycles = 1000 + 17 * i;
        spec.programs.push_back({i % 2, "halt\n"});
        spec.pokes.push_back(
            {0x100 * (i + 1),
             {static_cast<std::int16_t>(i), -32768, 32767}});
        spec.regs.push_back({0, i % 8, 0xdeadbeef00ull + i});

        const RunSpec back =
            RunSpec::fromJson(Json::parse(spec.toJson().str()));
        EXPECT_TRUE(back == spec) << "spec " << i;
        EXPECT_EQ(back.fingerprint(), spec.fingerprint());
    }
}

TEST(RunSpec, FingerprintsArePinned)
{
    // The serve cache key, the responses' "key" field and recovered
    // journals all depend on these exact values: a change here is a
    // wire change, not a refactor.
    RunSpec spec = serveMixSpec();
    EXPECT_EQ(spec.fingerprint(), 0x8dd81caa50186f72ull);
    EXPECT_EQ(fnv1a(spec.toJson().str()), 0x8dd81caa50186f72ull);
    // The budget is on the wire but not in the key.
    spec.budgetMs = 250;
    EXPECT_EQ(spec.fingerprint(), 0x8dd81caa50186f72ull);
    EXPECT_EQ(fnv1a(spec.toJson().str()), 0x73a5acf678a1e2e4ull);

    // Poke rows at the int16 extremes and the digit-count edges, and
    // one with no values: the hash sink must match the hash of the
    // text sink's bytes.
    RunSpec edges;
    edges.pokes.push_back({0x2000, {-32768, -1, 0, 9, 10, 32767}});
    edges.pokes.push_back({0x2100, {}});
    EXPECT_NE(edges.toJson().str().find(
                  "\"values\":[-32768,-1,0,9,10,32767]},"
                  "{\"addr\":8448,\"values\":[]}"),
              std::string::npos);
    EXPECT_EQ(edges.fingerprint(), 0xcd64a8b18925fb83ull);
    EXPECT_EQ(fnv1a(edges.toJson().str()), 0xcd64a8b18925fb83ull);
}

TEST(RunSpec, FromJsonRejectsUnknownAndMalformedFields)
{
    EXPECT_THROW(RunSpec::fromJson(Json::parse("{\"bogus\": 1}")),
                 ConfigError);
    // A poke value outside int16 range must be rejected, not wrapped.
    EXPECT_THROW(
        RunSpec::fromJson(Json::parse(
            "{\"pokes\": [{\"addr\": 0, \"values\": [70000]}]}")),
        ConfigError);

    // Indices must be rejected by name, never truncated to 32 bits
    // (pe 2^32 would load PE 0, reg 2^32 + 2 would set r2) nor left
    // to trip a range check deep inside the machine.
    auto expectNamed = [](const char *text, const char *key) {
        try {
            buildSimulation(RunSpec::fromJson(Json::parse(text)));
            ADD_FAILURE() << "expected ConfigError for " << text;
        } catch (const ConfigError &e) {
            EXPECT_NE(e.message().find(key), std::string::npos)
                << e.message();
        }
    };
    expectNamed("{\"programs\": [{\"pe\": 4294967296, "
                "\"source\": \"halt\"}]}",
                "programs[].pe");
    expectNamed("{\"regs\": [{\"pe\": 4294967296, \"reg\": 1, "
                "\"value\": 7}]}",
                "regs[].pe");
    expectNamed("{\"regs\": [{\"pe\": 0, \"reg\": 4294967298, "
                "\"value\": 7}]}",
                "regs[].reg");
    expectNamed("{\"programs\": [{\"pe\": 99999, "
                "\"source\": \"halt\"}]}",
                "programs[].pe");
    expectNamed("{\"regs\": [{\"pe\": 99999, \"reg\": 1, "
                "\"value\": 7}]}",
                "regs[].pe");
    expectNamed("{\"regs\": [{\"pe\": 0, \"reg\": 64, "
                "\"value\": 7}]}",
                "regs[].reg");
}

TEST(SystemConfig, JsonRoundTripIsLossless)
{
    SystemConfig cfg = makeSystemConfig(8, 4);
    cfg.mem.timing.tCL = 13;
    cfg.mem.pagePolicy = PagePolicy::Closed;
    cfg.pe.lsqEntries = 12;
    cfg.watchdogCycles = 123456;
    cfg.fastForward = false;

    const SystemConfig back =
        SystemConfig::fromJson(Json::parse(cfg.toJson().str()));
    EXPECT_EQ(back.toJson().str(), cfg.toJson().str());
    EXPECT_EQ(back.mem.timing.tCL, 13u);
    EXPECT_EQ(back.mem.pagePolicy, PagePolicy::Closed);
    EXPECT_EQ(back.pe.lsqEntries, 12u);
    EXPECT_FALSE(back.fastForward);
}

TEST(SystemConfig, FromJsonRejectsUnknownKeysWithPath)
{
    try {
        SystemConfig::fromJson(
            Json::parse("{\"mem\": {\"timing\": {\"tCLL\": 9}}}"));
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("mem.timing.tCLL"),
                  std::string::npos)
            << e.what();
    }
}

TEST(SystemConfig, FromJsonDerivesNocGridFromVaults)
{
    const SystemConfig cfg = SystemConfig::fromJson(
        Json::parse("{\"mem\": {\"geom\": {\"vaults\": 16}}}"));
    EXPECT_EQ(cfg.nocX, 4u);
    EXPECT_EQ(cfg.nocY, 4u);
    EXPECT_THROW(SystemConfig::fromJson(Json::parse(
                     "{\"mem\": {\"geom\": {\"vaults\": 6}}}")),
                 ConfigError);
}

TEST(VipServer, CacheHitIsByteIdenticalAndCounted)
{
    Json req = Json::object();
    req.set("run", dotSpec().toJson());
    const std::string line = req.str();

    VipServer server;
    std::istringstream in(line + "\n" + line + "\n" +
                          "{\"cmd\": \"stats\"}\n");
    std::ostringstream out;
    server.serve(in, out);

    const std::vector<std::string> rsp = lines(out.str());
    ASSERT_EQ(rsp.size(), 3u);
    // The hit re-emits the stored bytes: identical, and nothing in
    // the body says it was a hit.
    EXPECT_EQ(rsp[0], rsp[1]);
    EXPECT_EQ(rsp[0].find("cached"), std::string::npos);

    const Json body = Json::parse(rsp[0]);
    EXPECT_EQ(body.at("key").asString().size(), 16u);
    EXPECT_TRUE(body.at("result").at("haltedCleanly").asBool());
    EXPECT_GT(body.at("result").at("cycles").asU64(), 0u);

    EXPECT_EQ(server.requests(), 3u);
    EXPECT_EQ(server.cacheMisses(), 1u);
    EXPECT_EQ(server.cacheHits(), 1u);
    EXPECT_EQ(server.errors(), 0u);

    const Json stats = Json::parse(rsp[2]);
    EXPECT_EQ(stats.at("serve").at("cacheHits").asU64(), 1u);
    EXPECT_EQ(stats.at("serve").at("cacheMisses").asU64(), 1u);
    EXPECT_EQ(stats.at("serve").at("cacheEntries").asU64(), 1u);
}

TEST(VipServer, MalformedRequestsGetErrorsAndLoopSurvives)
{
    Json req = Json::object();
    req.set("run", dotSpec().toJson());

    // Config rejection: unknown key inside the run's config.
    Json bad_spec = Json::parse("{\"config\": {\"wombats\": 3}}");
    Json bad_req = Json::object();
    bad_req.set("run", std::move(bad_spec));

    const std::string requests =
        "this is not json\n" +        // parse failure
        bad_req.str() + "\n" +        // ConfigError
        std::string("{\"cmd\": \"no-such-command\"}\n") +
        req.str() + "\n";             // still served after all that

    VipServer server;
    std::istringstream in(requests);
    std::ostringstream out;
    server.serve(in, out);

    const std::vector<std::string> rsp = lines(out.str());
    ASSERT_EQ(rsp.size(), 4u);
    EXPECT_EQ(Json::parse(rsp[0]).at("error").at("kind").asString(),
              "json");
    EXPECT_EQ(Json::parse(rsp[1]).at("error").at("kind").asString(),
              "config");
    EXPECT_NE(Json::parse(rsp[1])
                  .at("error")
                  .at("message")
                  .asString()
                  .find("wombats"),
              std::string::npos);
    EXPECT_EQ(Json::parse(rsp[2]).at("error").at("kind").asString(),
              "config");
    // The loop survived and the valid request still ran.
    EXPECT_TRUE(Json::parse(rsp[3])
                    .at("result")
                    .at("haltedCleanly")
                    .asBool());
    EXPECT_EQ(server.errors(), 3u);
    EXPECT_EQ(server.cacheMisses(), 1u);
}

TEST(VipServer, OversizedBankCountIsAConfigErrorAndLoopSurvives)
{
    // More banks than the vault scheduler can key used to abort the
    // whole daemon from inside the VaultController constructor.
    Json ok = Json::object();
    ok.set("run", dotSpec().toJson());
    const std::vector<std::string> rsp = serveLines(
        "{\"run\": {\"config\": {\"mem\": {\"geom\": "
        "{\"banksPerVault\": 512}}}, \"programs\": []}}\n" +
        ok.str() + "\n");
    ASSERT_EQ(rsp.size(), 2u);
    const Json err = Json::parse(rsp[0]).at("error");
    EXPECT_EQ(err.at("kind").asString(), "config");
    EXPECT_NE(err.at("message").asString().find(
                  "mem.geom.banksPerVault"),
              std::string::npos)
        << rsp[0];
    EXPECT_TRUE(Json::parse(rsp[1])
                    .at("result")
                    .at("haltedCleanly")
                    .asBool());
}

TEST(VipServer, PokePastTheDramIsAConfigErrorAndLoopSurvives)
{
    // A poke past the 64 GiB page table used to abort the daemon from
    // inside DramStorage; now buildSimulation() rejects any poke that
    // leaves the machine's DRAM.
    Json ok = Json::object();
    ok.set("run", dotSpec().toJson());
    const std::vector<std::string> rsp = serveLines(
        "{\"run\":{\"programs\":[{\"pe\":0,\"source\":\"halt\\n\"}],"
        "\"pokes\":[{\"addr\":68719476736,\"values\":[1]}],"
        "\"maxCycles\":1000}}\n" +
        ok.str() + "\n");
    ASSERT_EQ(rsp.size(), 2u);
    const Json err = Json::parse(rsp[0]).at("error");
    EXPECT_EQ(err.at("kind").asString(), "config");
    EXPECT_NE(err.at("message").asString().find("pokes[].addr"),
              std::string::npos)
        << rsp[0];
    EXPECT_TRUE(Json::parse(rsp[1])
                    .at("result")
                    .at("haltedCleanly")
                    .asBool());
}

TEST(VipServer, GeometryPastTheDramStoreIsAConfigErrorAndLoopSurvives)
{
    // A geometry of 128 TiB passed validation, so a poke inside it but
    // past the backing store's 64 GiB span aborted the daemon.
    Json ok = Json::object();
    ok.set("run", dotSpec().toJson());
    const std::vector<std::string> rsp = serveLines(
        "{\"run\":{\"config\":{\"mem\":{\"geom\":"
        "{\"rowsPerBank\":1073741824}}},"
        "\"programs\":[{\"pe\":0,\"source\":\"halt\\n\"}],"
        "\"pokes\":[{\"addr\":137438953472,\"values\":[1]}]}}\n" +
        ok.str() + "\n");
    ASSERT_EQ(rsp.size(), 2u);
    const Json err = Json::parse(rsp[0]).at("error");
    EXPECT_EQ(err.at("kind").asString(), "config");
    EXPECT_NE(err.at("message").asString().find("mem.geom.rowsPerBank"),
              std::string::npos)
        << rsp[0];
    EXPECT_TRUE(Json::parse(rsp[1])
                    .at("result")
                    .at("haltedCleanly")
                    .asBool());
}

TEST(VipServer, AllocationSizingKeysPastTheirCapsAreConfigErrors)
{
    // Each of these passed validation and sized a host allocation from
    // the request: a billion ARC entries per PE (the daemon was killed
    // without answering), a 2^32-deep transaction queue (a bad_alloc
    // the client was told to retry) and 2^20 vaults (a 4M-PE machine).
    struct Case
    {
        const char *config;
        const char *key;
    };
    const Case cases[] = {
        {R"({"pe":{"arcEntries":1000000000}})", "pe.arcEntries"},
        {R"({"mem":{"transQueueDepth":4294967295}})",
         "mem.transQueueDepth"},
        {R"({"mem":{"geom":{"vaults":1048576,"banksPerVault":1,)"
         R"("rowsPerBank":1}}})",
         "mem.geom.vaults"},
        {R"({"pe":{"mulStages":4294967295}})", "pe.mulStages"},
    };
    Json ok = Json::object();
    ok.set("run", dotSpec().toJson());
    for (const Case &c : cases) {
        const std::vector<std::string> rsp = serveLines(
            std::string("{\"run\":{\"config\":") + c.config +
            ",\"programs\":[{\"pe\":0,\"source\":\"halt\\n\"}]}}\n" +
            ok.str() + "\n");
        ASSERT_EQ(rsp.size(), 2u) << c.config;
        const Json err = Json::parse(rsp[0]).at("error");
        EXPECT_EQ(err.at("kind").asString(), "config") << rsp[0];
        EXPECT_NE(err.at("message").asString().find(c.key),
                  std::string::npos)
            << rsp[0];
        EXPECT_TRUE(Json::parse(rsp[1])
                        .at("result")
                        .at("haltedCleanly")
                        .asBool())
            << c.config;
    }
}

TEST(VipServer, AssemblyAndDeadlockFailuresAreStructured)
{
    RunSpec bad_asm = dotSpec();
    bad_asm.programs[0].source = "not_an_instruction r1, r2\n";
    Json asm_req = Json::object();
    asm_req.set("run", bad_asm.toJson());

    RunSpec spin;
    spin.config = makeSystemConfig(1, 1);
    spin.config.watchdogCycles = 2000;
    spin.programs.push_back({0, "spin:\n    jmp spin\n"});
    spin.maxCycles = 1'000'000;
    Json spin_req = Json::object();
    spin_req.set("run", spin.toJson());

    const std::vector<std::string> rsp =
        serveLines(asm_req.str() + "\n" + spin_req.str() + "\n");
    ASSERT_EQ(rsp.size(), 2u);
    EXPECT_EQ(Json::parse(rsp[0]).at("error").at("kind").asString(),
              "assembly");
    // The spinning program either deadlocks (watchdog) or exhausts
    // its budget; both must come back as a normal response, not kill
    // the server. A budget exhaustion is a clean non-halted result.
    const Json second = Json::parse(rsp[1]);
    if (const Json *err = second.find("error")) {
        EXPECT_EQ(err->at("kind").asString(), "deadlock");
    } else {
        EXPECT_FALSE(second.at("result").at("haltedCleanly").asBool());
    }
}

TEST(VipServer, HostileProgramsAreProgramErrorsAndLoopSurvives)
{
    // Programs that break the ISA's run-time rules. Each one must come
    // back as a "program" error naming the PE and the instruction, and
    // the next request must still be served.
    const char *hostile[] = {
        // ld.sram of 16 bytes at sp 4090 runs off the scratchpad.
        "mov.imm r1, 4090\nmov.imm r2, 0x1000\nmov.imm r3, 8\n"
        "ld.sram[16] r1, r2, r3\nmemfence\nhalt\n",
        // An empty st.sram.
        "mov.imm r2, 0x1000\nmov.imm r3, 0\nst.sram[16] r1, r2, r3\n"
        "halt\n",
        // A vector operand whose end wraps a 32-bit address.
        "mov.imm r1, 4\nset.vl r1\nmov.imm r2, -4\n"
        "v.v.add[16] r3, r2, r3\nhalt\n",
        "mov.imm r1, 0\nset.vl r1\nhalt\n",
        "mov.imm r1, 8\nset.mr r1\nv.v.add[16] r1, r1, r1\nhalt\n",
        "mov.imm r1, 8\nset.vl r1\nm.v.mul.add[16] r1, r1, r1\nhalt\n",
        "mov.imm r2, -8\nld.reg[64] r1, r2\nmemfence\nhalt\n",
        // No halt: the PC runs off the end.
        "mov.imm r1, 1\n",
    };
    std::string requests;
    for (const char *src : hostile) {
        RunSpec spec;
        spec.config = makeSystemConfig(1, 1);
        spec.programs.push_back({0, src});
        spec.maxCycles = 100'000;
        Json req = Json::object();
        req.set("run", spec.toJson());
        requests += req.str() + "\n";
    }
    Json ok = Json::object();
    ok.set("run", dotSpec().toJson());
    requests += ok.str() + "\n";

    const std::vector<std::string> rsp = serveLines(requests);
    const std::size_t n = std::size(hostile);
    ASSERT_EQ(rsp.size(), n + 1);
    for (std::size_t i = 0; i < n; ++i) {
        const Json r = Json::parse(rsp[i]);
        const Json *err = r.find("error");
        ASSERT_NE(err, nullptr) << "program " << i << ": " << rsp[i];
        EXPECT_EQ(err->at("kind").asString(), "program") << rsp[i];
        EXPECT_EQ(err->at("message").asString().rfind("pe0 pc ", 0), 0u)
            << rsp[i];
    }
    EXPECT_TRUE(Json::parse(rsp[n]).at("result").at("haltedCleanly")
                    .asBool());
}

TEST(VipServer, LruEvictsAndCountsWhenBounded)
{
    ServeOptions opts;
    opts.cacheEntries = 1;
    VipServer server(opts);

    RunSpec a = dotSpec();
    RunSpec b = dotSpec();
    b.maxCycles += 1;  // distinct fingerprint
    Json ra = Json::object();
    ra.set("run", a.toJson());
    Json rb = Json::object();
    rb.set("run", b.toJson());

    std::istringstream in(ra.str() + "\n" + rb.str() + "\n" +
                          ra.str() + "\n");
    std::ostringstream out;
    server.serve(in, out);

    ASSERT_EQ(lines(out.str()).size(), 3u);
    EXPECT_EQ(server.cacheMisses(), 3u);  // a evicted by b, re-ran
    EXPECT_EQ(server.cacheHits(), 0u);
    EXPECT_EQ(server.cacheEvictions(), 2u);
}

// ---- Framing: how the reader splits a stream into request lines ------

/// The smallest useful run request.
const std::string kHaltRequest =
    "{\"run\":{\"maxCycles\":1000,\"programs\":[{\"pe\":0,"
    "\"source\":\"halt\\n\"}]}}";

/// kHaltRequest padded with trailing JSON whitespace to exactly
/// @p bytes.
std::string
paddedRequest(std::size_t bytes)
{
    std::string line = kHaltRequest;
    EXPECT_LE(line.size(), bytes);
    line.resize(bytes, ' ');
    return line;
}

struct Served
{
    std::vector<std::string> responses;
    std::uint64_t requests = 0;
    std::uint64_t errors = 0;
};

Served
serveStream(const std::string &stream, const ServeOptions &opts = {})
{
    VipServer server(opts);
    std::istringstream in(stream);
    std::ostringstream out;
    server.serve(in, out);
    return {lines(out.str()), server.requests(), server.errors()};
}

/// The response every spelling of kHaltRequest must get.
std::string
haltResponse()
{
    const Served s = serveStream(kHaltRequest + "\n");
    EXPECT_EQ(s.responses.size(), 1u);
    return s.responses.empty() ? "" : s.responses[0];
}

std::string
jsonError(const std::string &message)
{
    return "{\"error\":{\"detail\":\"\",\"kind\":\"json\",\"message\":\"" +
           message + "\"}}";
}

TEST(ServeFraming, LinesAroundTheReadChunkAreServedWhole)
{
    const std::size_t c = kServeReadChunk;
    const std::string want = haltResponse();
    ASSERT_NE(want.find("\"key\""), std::string::npos) << want;
    // Chunk - 1 and chunk bytes (the newline lands right after the
    // first chunk: on the boundary), one over, and lines spanning two
    // and three chunks.
    const std::vector<std::size_t> sizes = {
        c - 1, c, c + 1, 2 * c - 1, 2 * c, 2 * c + 1, 3 * c + 17};
    std::string stream;
    for (const std::size_t n : sizes)
        stream += paddedRequest(n) + "\n";
    ServeOptions opts;
    opts.cacheEntries = 0;  // every line must decode and run itself
    const Served s = serveStream(stream, opts);
    ASSERT_EQ(s.responses.size(), sizes.size());
    for (std::size_t i = 0; i < sizes.size(); ++i)
        EXPECT_EQ(s.responses[i], want) << sizes[i] << "-byte line";
    EXPECT_EQ(s.requests, sizes.size());
    EXPECT_EQ(s.errors, 0u);
}

/// A stream buffer that hands out at most @p step bytes per refill, the
/// way a pipe or socket delivers a long line in pieces.
class TrickleBuf : public std::streambuf
{
  public:
    TrickleBuf(std::string data, std::size_t step)
        : data_(std::move(data)), step_(step)
    {}

  protected:
    int_type
    underflow() override
    {
        if (gptr() < egptr())
            return traits_type::to_int_type(*gptr());
        if (pos_ == data_.size())
            return traits_type::eof();
        const std::size_t n = std::min(step_, data_.size() - pos_);
        char *base = data_.data() + pos_;
        setg(base, base, base + n);
        pos_ += n;
        return traits_type::to_int_type(*base);
    }

  private:
    std::string data_;
    std::size_t step_;
    std::size_t pos_ = 0;
};

TEST(ServeFraming, LinesSplitAcrossStreamRefillsAreServedWhole)
{
    const std::size_t c = kServeReadChunk;
    const std::string want = haltResponse();
    const std::string stream = paddedRequest(c) + "\n\n" +
                               paddedRequest(2 * c + 1) + "\n" +
                               kHaltRequest;
    for (const std::size_t step : {std::size_t{1}, std::size_t{7},
                                   c - 1, c + 3}) {
        TrickleBuf buf(stream, step);
        std::istream in(&buf);
        std::ostringstream out;
        VipServer server;
        server.serve(in, out);
        const std::vector<std::string> rsp = lines(out.str());
        ASSERT_EQ(rsp.size(), 3u) << step;
        for (const std::string &r : rsp)
            EXPECT_EQ(r, want) << step;
        EXPECT_EQ(server.requests(), 3u);
    }
}

TEST(ServeFraming, MaxLineBytesIsInclusiveAndOversizedLinesAreNotJournaled)
{
    const std::string want = haltResponse();
    for (const std::size_t max : {std::size_t{100},
                                  2 * kServeReadChunk + 5}) {
        const std::string path =
            ::testing::TempDir() + "serve_framing_journal.jsonl";
        std::remove(path.c_str());
        ServeOptions opts;
        opts.maxLineBytes = max;
        opts.journalPath = path;
        const std::string exact = paddedRequest(max);
        const std::string stream =
            exact + "\n" + paddedRequest(max + 1) + "\n" + kHaltRequest +
            "\n" + std::string(3 * kServeReadChunk, 'x') + "\n" +
            kHaltRequest + "\n";
        const Served s = serveStream(stream, opts);
        const std::string protocol =
            "{\"error\":{\"detail\":\"\",\"kind\":\"protocol\","
            "\"message\":\"request line exceeds " +
            std::to_string(max) + " bytes\"}}";
        ASSERT_EQ(s.responses.size(), 5u) << max;
        EXPECT_EQ(s.responses[0], want) << max;
        EXPECT_EQ(s.responses[1], protocol) << max;
        EXPECT_EQ(s.responses[2], want) << max;
        EXPECT_EQ(s.responses[3], protocol) << max;
        EXPECT_EQ(s.responses[4], want) << max;
        EXPECT_EQ(s.requests, 5u);
        EXPECT_EQ(s.errors, 2u);

        // Only the served lines reached the write-ahead journal.
        const auto entries = CampaignJournal::load(path);
        ASSERT_EQ(entries.size(), 3u) << max;
        EXPECT_EQ(entries[0].request, exact);
        EXPECT_EQ(entries[1].request, kHaltRequest);
        EXPECT_EQ(entries[2].request, kHaltRequest);
        for (const auto &e : entries)
            EXPECT_EQ(e.response, want);
        std::remove(path.c_str());
    }
}

TEST(ServeFraming, UnterminatedFinalLineIsServed)
{
    const std::string want = haltResponse();
    for (const std::size_t n : {kHaltRequest.size(),
                                2 * kServeReadChunk + 3}) {
        const Served s =
            serveStream(kHaltRequest + "\n" + paddedRequest(n));
        ASSERT_EQ(s.responses.size(), 2u) << n;
        EXPECT_EQ(s.responses[0], want);
        EXPECT_EQ(s.responses[1], want);
        EXPECT_EQ(s.requests, 2u);
    }
}

TEST(ServeFraming, EmptyAndWhitespaceOnlyLinesAreSkipped)
{
    const Served s = serveStream("\n\n \t \r\n\r\n" + kHaltRequest +
                                 "\n\n" + std::string(kServeReadChunk, ' ') +
                                 "\n   \t");
    ASSERT_EQ(s.responses.size(), 1u);
    EXPECT_EQ(s.responses[0], haltResponse());
    EXPECT_EQ(s.requests, 1u);
    EXPECT_EQ(s.errors, 0u);
}

TEST(ServeFraming, EmbeddedNulAndCarriageReturnAreRequestBytes)
{
    const std::string nul(1, '\0');
    // A NUL inside the padding of a line longer than one chunk, right
    // on the chunk boundary.
    std::string boundary = paddedRequest(kServeReadChunk + 10);
    boundary[kServeReadChunk] = '\0';
    const std::string stream =
        kHaltRequest + "\r\n" +                       // \r is whitespace
        "\r\n" +                                      // blank
        nul + "\n" +                                  // not blank
        kHaltRequest + nul + "\n" +                   // trailing NUL
        "{\"cmd\":\"st" + nul + "ats\"}\n" +          // NUL in a string
        boundary + "\n";
    const Served s = serveStream(stream);
    ASSERT_EQ(s.responses.size(), 5u);
    EXPECT_EQ(s.responses[0], haltResponse());
    EXPECT_EQ(s.responses[1], jsonError("invalid JSON number at offset 0"));
    EXPECT_EQ(s.responses[2],
              jsonError("trailing characters after JSON document at "
                        "offset " +
                        std::to_string(kHaltRequest.size())));
    EXPECT_EQ(s.responses[3],
              "{\"error\":{\"detail\":\"\",\"kind\":\"config\","
              "\"message\":\"unknown command \\\"st\\u0000ats\\\"\"}}");
    EXPECT_EQ(s.responses[4],
              jsonError("trailing characters after JSON document at "
                        "offset " +
                        std::to_string(kServeReadChunk)));
    EXPECT_EQ(s.requests, 5u);
    EXPECT_EQ(s.errors, 4u);
}

TEST(VipServer, ShutdownStopsTheLoop)
{
    Json req = Json::object();
    req.set("run", dotSpec().toJson());

    VipServer server;
    std::istringstream in("{\"cmd\": \"shutdown\"}\n" + req.str() +
                          "\n");
    std::ostringstream out;
    server.serve(in, out);

    const std::vector<std::string> rsp = lines(out.str());
    ASSERT_EQ(rsp.size(), 1u);
    EXPECT_TRUE(Json::parse(rsp[0]).at("ok").asBool());
    EXPECT_TRUE(server.shutdownRequested());
    EXPECT_EQ(server.cacheMisses(), 0u);  // the run never dispatched
}

TEST(VipServer, ParallelPoolKeepsRequestOrder)
{
    // Distinct specs through a 4-worker pool must come back in
    // request order with the keys matching each spec's fingerprint.
    ServeOptions opts;
    opts.jobs = 4;
    VipServer server(opts);

    std::string requests;
    std::vector<std::string> want_keys;
    for (unsigned i = 0; i < 8; ++i) {
        RunSpec spec = dotSpec();
        spec.maxCycles = 200'000 + i;
        char buf[20];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(
                          spec.fingerprint()));
        want_keys.push_back(buf);
        Json req = Json::object();
        req.set("run", spec.toJson());
        requests += req.str() + "\n";
    }

    std::istringstream in(requests);
    std::ostringstream out;
    server.serve(in, out);

    const std::vector<std::string> rsp = lines(out.str());
    ASSERT_EQ(rsp.size(), 8u);
    for (unsigned i = 0; i < 8; ++i) {
        EXPECT_EQ(Json::parse(rsp[i]).at("key").asString(),
                  want_keys[i])
            << "response " << i;
    }
}

#ifdef __unix__
TEST(VipServer, ClosedLoopClientIsAnsweredByAPool)
{
    // A closed-loop client sends its next request only after reading
    // the previous response. With a worker pool, serve() must emit a
    // finished run while it is blocked reading that next line.
    ServeOptions opts;
    opts.jobs = 2;
    VipServer server(opts);
    int to_server[2];
    int from_server[2];
    ASSERT_EQ(::pipe(to_server), 0);
    ASSERT_EQ(::pipe(from_server), 0);
    std::thread daemon([&server, &to_server, &from_server] {
        // The buffers own (and close) the daemon's pipe ends.
        __gnu_cxx::stdio_filebuf<char> inbuf(to_server[0], std::ios::in);
        __gnu_cxx::stdio_filebuf<char> outbuf(from_server[1],
                                              std::ios::out);
        std::istream in(&inbuf);
        std::ostream out(&outbuf);
        server.serve(in, out);
    });

    // One response line, or false once 30 s pass without a byte.
    auto read_line = [fd = from_server[0]](std::string *line) {
        line->clear();
        for (;;) {
            pollfd p{fd, POLLIN, 0};
            if (::poll(&p, 1, 30'000) != 1)
                return false;
            char c = 0;
            if (::read(fd, &c, 1) != 1)
                return false;
            if (c == '\n')
                return true;
            line->push_back(c);
        }
    };

    for (unsigned i = 0; i < 4; ++i) {
        RunSpec spec = dotSpec();
        spec.maxCycles = 300'000 + i;
        char want[20];
        std::snprintf(want, sizeof(want), "%016llx",
                      static_cast<unsigned long long>(spec.fingerprint()));
        Json req = Json::object();
        req.set("run", spec.toJson());
        const std::string text = req.str() + "\n";
        ASSERT_EQ(::write(to_server[1], text.data(), text.size()),
                  static_cast<ssize_t>(text.size()));
        std::string rsp;
        const bool answered = read_line(&rsp);
        EXPECT_TRUE(answered) << "request " << i << " got no response";
        if (!answered)
            break;
        EXPECT_EQ(Json::parse(rsp).at("key").asString(), want)
            << "response " << i;
    }
    ::close(to_server[1]);  // EOF: serve() drains and returns
    daemon.join();
    ::close(from_server[0]);
}
#endif

} // namespace
} // namespace vip

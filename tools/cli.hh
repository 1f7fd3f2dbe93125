/**
 * @file
 * Shared command-line parsing for the VIP executables.
 *
 * Every front end (vip-run, vip-serve, the table/figure bench mains)
 * grew its own copy of the same flag handling: `--jobs N`,
 * `--json-stats FILE`, `--no-fast-forward`, `--inject SPEC`. This
 * header is the single home for those flags — one parser, one piece
 * of --help text per flag, one error style — so a flag behaves
 * identically everywhere it is accepted.
 *
 * Usage: pick the flags a tool accepts with a `Flag` mask, call
 * consumeCommon() once per unrecognized argv element before the
 * tool's own flags, and splice commonHelp() into the usage message:
 *
 *   cli::CommonOptions common;
 *   for (int i = 1; i < argc; ++i) {
 *       if (cli::consumeCommon(argc, argv, i,
 *                              cli::kJobs | cli::kFastForward, common))
 *           continue;
 *       // tool-specific flags...
 *   }
 *
 * A malformed value (non-numeric or out-of-range --jobs, missing
 * argument) prints "<tool>: <problem>" to stderr and exits 2, matching
 * the historical behaviour of every main this replaces.
 */

#ifndef VIP_TOOLS_CLI_HH
#define VIP_TOOLS_CLI_HH

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

namespace vip::cli {

/** Which shared flags a tool accepts (or-able mask). */
enum Flag : unsigned
{
    kJobs = 1u << 0,         ///< --jobs N
    kJsonStats = 1u << 1,    ///< --json-stats FILE
    kFastForward = 1u << 2,  ///< --no-fast-forward
    kInject = 1u << 3,       ///< --inject SPEC
    kFastPath = 1u << 4,     ///< --no-fast-path
};

/** Most worker threads --jobs accepts: far above the cores of any host
 *  the simulator runs on, far below a process's thread limit. */
constexpr unsigned kMaxJobs = 256;

/** Values of the shared flags, pre-set to their defaults. */
struct CommonOptions
{
    unsigned jobs = 0;          ///< 0 = hardware concurrency
    std::string jsonStatsPath;  ///< empty = no JSON dump; "-" = stdout
    bool fastForward = true;    ///< false after --no-fast-forward
    std::string injectSpec;     ///< empty = no fault campaign
    bool fastPath = true;       ///< false after --no-fast-path
};

/**
 * Parse "N", "0xN" or, for a signed T, "-N" into a T. Exits 2 with
 * @p tool's name on garbage or on a value above @p max or below T's
 * minimum.
 */
template <typename T = std::uint64_t>
T
parseNum(const char *tool, const char *flag, const char *text,
         T max = std::numeric_limits<T>::max())
{
    using Limits = std::numeric_limits<T>;
    const bool negative = text[0] == '-';
    const char *digits = text + negative;
    // strtoull would skip blanks and take a sign itself: "-1" wraps.
    const bool digit = *digits >= '0' && *digits <= '9';
    char *end = nullptr;
    errno = 0;
    const std::uint64_t magnitude =
        digit ? std::strtoull(digits, &end, 0) : 0;
    if (!digit || *end != '\0') {
        std::fprintf(stderr, "%s: %s: '%s' is not a number\n", tool, flag,
                     text);
        std::exit(2);
    }
    // The most negative T has a magnitude one past the largest.
    const std::uint64_t limit =
        !negative ? static_cast<std::uint64_t>(max)
        : Limits::is_signed ? static_cast<std::uint64_t>(Limits::max()) + 1
                            : 0;
    if (errno == ERANGE || magnitude > limit) {
        std::fprintf(stderr, "%s: %s: %s is outside [%lld, %llu]\n", tool,
                     flag, text, static_cast<long long>(Limits::min()),
                     static_cast<unsigned long long>(max));
        std::exit(2);
    }
    return negative ? static_cast<T>(0 - magnitude)
                    : static_cast<T>(magnitude);
}

/**
 * If argv[i] is one of the shared flags enabled in @p flags, consume
 * it (advancing @p i past its value where it takes one), record it in
 * @p out, and return true. Exits 2 on a missing or malformed value.
 */
inline bool
consumeCommon(int argc, char **argv, int &i, unsigned flags,
              CommonOptions &out)
{
    const char *arg = argv[i];
    const auto value = [&](const char *flag) -> const char * {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "%s: %s needs a value\n", argv[0],
                         flag);
            std::exit(2);
        }
        return argv[++i];
    };
    if ((flags & kJobs) && std::strcmp(arg, "--jobs") == 0) {
        out.jobs = parseNum<unsigned>(argv[0], "--jobs", value("--jobs"),
                                      kMaxJobs);
        return true;
    }
    if ((flags & kJsonStats) && std::strcmp(arg, "--json-stats") == 0) {
        out.jsonStatsPath = value("--json-stats");
        return true;
    }
    if ((flags & kFastForward) &&
        std::strcmp(arg, "--no-fast-forward") == 0) {
        out.fastForward = false;
        return true;
    }
    if ((flags & kInject) && std::strcmp(arg, "--inject") == 0) {
        out.injectSpec = value("--inject");
        return true;
    }
    if ((flags & kFastPath) && std::strcmp(arg, "--no-fast-path") == 0) {
        out.fastPath = false;
        return true;
    }
    return false;
}

/** One usage line ("[--jobs N] [--no-fast-forward]") for the mask. */
inline std::string
commonUsage(unsigned flags)
{
    std::string out;
    const auto add = [&out](const char *piece) {
        if (!out.empty())
            out += ' ';
        out += piece;
    };
    if (flags & kJobs)
        add("[--jobs N]");
    if (flags & kJsonStats)
        add("[--json-stats FILE]");
    if (flags & kInject)
        add("[--inject SPEC]");
    if (flags & kFastForward)
        add("[--no-fast-forward]");
    if (flags & kFastPath)
        add("[--no-fast-path]");
    return out;
}

/** Aligned per-flag help lines for the mask, for --help output. */
inline std::string
commonHelp(unsigned flags)
{
    std::string out;
    if (flags & kJobs) {
        out += "  --jobs N            worker threads, at most " +
               std::to_string(kMaxJobs) + " (0 = hardware concurrency)\n";
    }
    if (flags & kJsonStats) {
        out += "  --json-stats FILE   write statistics as JSON "
               "(\"-\" = stdout)\n";
    }
    if (flags & kInject) {
        out += "  --inject SPEC       fault campaign, e.g. "
               "seed=7,dram-read=1e-7,ecc=on\n";
    }
    if (flags & kFastForward) {
        out += "  --no-fast-forward   tick every cycle instead of "
               "warping dead ones\n";
    }
    if (flags & kFastPath) {
        out += "  --no-fast-path      issue one instruction per tick "
               "instead of running\n"
               "                      ahead (output is "
               "bit-identical)\n";
    }
    return out;
}

} // namespace vip::cli

#endif // VIP_TOOLS_CLI_HH

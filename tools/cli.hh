/**
 * @file
 * Command-line parsing for the VIP executables.
 *
 * Each tool describes its flags once, as a table of rows: a flag's
 * name, its value's name (none for a switch), its help line, and what
 * it stores. cli::parse() matches argv against the table and prints
 * the usage it generates from the same rows, so a flag cannot be
 * parsed but undocumented, or documented but unparsed:
 *
 *   unsigned jobs = 0;
 *   bool verbose = false;
 *   cli::parse(argc, argv, "[options]",
 *              {cli::jobs(jobs),
 *               cli::toggle("--verbose", "say more", verbose)});
 *
 * The flags several tools share (--jobs, --json-stats, --inject,
 * --no-fast-forward, --no-fast-path) are row helpers bound to the
 * caller's own variables, so a flag reads and behaves the same
 * everywhere it is accepted.
 *
 * Every tool accepts --help: it prints the usage on stdout and exits
 * 0. An unknown flag prints the usage on stderr and exits 2. A
 * missing value, or one a row's store() rejects by throwing a
 * ConfigError, prints one "<tool>: <flag> ..." line and exits 2.
 */

#ifndef VIP_TOOLS_CLI_HH
#define VIP_TOOLS_CLI_HH

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <initializer_list>
#include <limits>
#include <string>
#include <string_view>

#include "sim/error.hh"
#include "sim/sweep.hh"

namespace vip::cli {

/**
 * Parse "N", "0xN" or, for a signed T, "-N" into a T: the one number
 * rule of every flag. Throws ConfigError on garbage or on a value
 * above @p max or below T's minimum.
 */
template <typename T = std::uint64_t>
T
parseNum(const std::string &text, T max = std::numeric_limits<T>::max())
{
    using Limits = std::numeric_limits<T>;
    const bool negative = text[0] == '-';
    const char *digits = text.c_str() + negative;
    // strtoull would skip blanks and take a sign itself: "-1" wraps.
    const bool digit = *digits >= '0' && *digits <= '9';
    char *end = nullptr;
    errno = 0;
    const std::uint64_t magnitude =
        digit ? std::strtoull(digits, &end, 0) : 0;
    if (!digit || *end != '\0')
        throw ConfigError("'" + text + "' is not a number");
    // The most negative T has a magnitude one past the largest.
    const std::uint64_t limit =
        !negative ? static_cast<std::uint64_t>(max)
        : Limits::is_signed ? static_cast<std::uint64_t>(Limits::max()) + 1
                            : 0;
    if (errno == ERANGE || magnitude > limit) {
        throw ConfigError(text + " is outside [" +
                          std::to_string(Limits::min()) + ", " +
                          std::to_string(max) + "]");
    }
    return negative ? static_cast<T>(0 - magnitude)
                    : static_cast<T>(magnitude);
}

/** One flag (or a tool's positional argument) in a tool's table. */
struct Row
{
    const char *name;   ///< "--jobs"; for a positional, its usage name
    const char *value;  ///< the value's usage name; nullptr for a switch
    std::string help;   ///< one line of --help
    /** Records the flag, given its value (nullptr for a switch);
     *  throws ConfigError to reject the value. */
    std::function<void(const char *)> store;
};

/** A switch that sets @p target to @p to. */
inline Row
toggle(const char *name, std::string help, bool &target, bool to = true)
{
    return {name, nullptr, std::move(help),
            [&target, to](const char *) { target = to; }};
}

/** A flag (or, with @p value nullptr, a positional) kept as typed. */
inline Row
text(const char *name, const char *value, std::string help,
     std::string &target)
{
    return {name, value, std::move(help),
            [&target](const char *v) { target = v; }};
}

/** A flag whose value N is a number (parseNum()) no larger than @p max. */
template <typename T>
Row
number(const char *name, std::string help, T &target,
       T max = std::numeric_limits<T>::max())
{
    return {name, "N", std::move(help), [&target, max](const char *v) {
                target = parseNum<T>(v, max);
            }};
}

/** --jobs N, bounded by SweepEngine::kMaxJobs. */
inline Row
jobs(unsigned &target)
{
    return number("--jobs",
                  "worker threads, at most " +
                      std::to_string(SweepEngine::kMaxJobs) +
                      " (0 = hardware concurrency)",
                  target, SweepEngine::kMaxJobs);
}

/** --json-stats FILE. */
inline Row
jsonStats(std::string &path)
{
    return text("--json-stats", "FILE",
                "write statistics as JSON (\"-\" = stdout)", path);
}

/** --inject SPEC. */
inline Row
inject(std::string &spec)
{
    return text("--inject", "SPEC",
                "fault campaign, e.g. seed=7,dram-read=1e-7,ecc=on", spec);
}

/** --no-fast-forward: clears @p fastForward. */
inline Row
noFastForward(bool &fastForward)
{
    return toggle("--no-fast-forward",
                  "tick every cycle instead of warping dead ones",
                  fastForward, false);
}

/** --no-fast-path: clears @p fastPath. */
inline Row
noFastPath(bool &fastPath)
{
    return toggle("--no-fast-path",
                  "issue one instruction per tick instead of running "
                  "ahead",
                  fastPath, false);
}

/** Print "<tool>: <message>" on stderr and exit 2. */
[[noreturn]] inline void
fail(const char *tool, const std::string &message)
{
    std::fprintf(stderr, "%s: %s\n", tool, message.c_str());
    std::exit(2);
}

/**
 * Match argv[1..] against @p rows, storing each flag in turn; an
 * argument not starting with '-' goes to @p positional. Prints the
 * usage ("usage: <tool> @p synopsis" and one line per row) and exits
 * 0 on --help; prints it and exits 2 on an unknown flag, or on an
 * argument when there is no @p positional. A missing value, or one
 * the row rejects, exits 2 naming the flag.
 */
inline void
parse(int argc, char **argv, const char *synopsis,
      std::initializer_list<Row> rows, const Row *positional = nullptr)
{
    const char *tool = argv[0];
    const auto usage = [&](std::FILE *to) {
        std::fprintf(to, "usage: %s %s\n", tool, synopsis);
        const auto line = [to](const Row &r) {
            std::string left = r.name;
            if (r.value)
                (left += ' ') += r.value;
            std::fprintf(to, "  %-20s%s\n", left.c_str(), r.help.c_str());
        };
        if (positional)
            line(*positional);
        for (const Row &r : rows)
            line(r);
        line({"--help", nullptr, "print this help and exit", {}});
    };
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage(stdout);
            std::exit(0);
        }
        const bool flag = arg.starts_with('-');
        const Row *row = flag ? nullptr : positional;
        for (const Row &r : rows) {
            if (flag && arg == r.name)
                row = &r;
        }
        if (!row) {
            std::fprintf(stderr, "%s: unknown %s %s\n", tool,
                         flag ? "flag" : "argument", argv[i]);
            usage(stderr);
            std::exit(2);
        }
        const char *value = flag ? nullptr : argv[i];
        if (row->value) {
            if (i + 1 >= argc)
                fail(tool, std::string(row->name) + " needs a value");
            value = argv[++i];
        }
        try {
            row->store(value);
        } catch (const ConfigError &e) {
            fail(tool, std::string(row->name) + ": " + e.message());
        }
    }
}

} // namespace vip::cli

#endif // VIP_TOOLS_CLI_HH

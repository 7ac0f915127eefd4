/**
 * @file
 * Strict parsing of the counts the tools read from their command lines
 * and environment: cycle budgets, run counts and thread counts.
 *
 * std::strtoul is too forgiving for these: it skips leading space,
 * accepts a sign (so "-1" wraps to ULONG_MAX, which would reach thread
 * creation as a worker count), and stops at the first non-digit (so
 * "5x" reads 5 and "abc" reads 0). parseCount() accepts only a
 * non-empty run of decimal digits whose value lies in a closed range.
 */

#ifndef SMT_COMMON_PARSE_HH
#define SMT_COMMON_PARSE_HH

#include <cstdint>
#include <optional>
#include <string_view>

namespace smt
{

/** Most workers or threads any tool starts (--jobs, --dispatch-threads,
 *  SMTSIM_POOL_WORKERS). */
inline constexpr std::uint64_t kMaxThreadCount = 256;

/** Largest cycle budget or period a tool accepts (--cycles, --warmup,
 *  --pipe-sample): 10^12 cycles is days of detailed simulation. */
inline constexpr std::uint64_t kMaxCycleCount = 1'000'000'000'000;

/** Most rotation runs per data point (--runs). */
inline constexpr std::uint64_t kMaxRunCount = 1000;

/** `text` as a decimal count in [lo, hi]; nullopt when it is empty,
 *  holds anything but the digits 0-9, or lies outside the range. */
std::optional<std::uint64_t> parseCount(std::string_view text,
                                        std::uint64_t lo, std::uint64_t hi);

/** parseCount(), or print `<what> needs a count in [lo, hi], got
 *  "<text>"` to stderr and exit with status 2 (bad usage). */
std::uint64_t parseCountOrExit(const char *what, const char *text,
                               std::uint64_t lo, std::uint64_t hi);

} // namespace smt

#endif // SMT_COMMON_PARSE_HH

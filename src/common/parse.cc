#include "common/parse.hh"

#include <cstdio>
#include <cstdlib>
#include <limits>

namespace smt
{

std::optional<std::uint64_t>
parseCount(std::string_view text, std::uint64_t lo, std::uint64_t hi)
{
    if (text.empty())
        return std::nullopt;
    std::uint64_t value = 0;
    for (char c : text) {
        if (c < '0' || c > '9')
            return std::nullopt;
        const unsigned digit = static_cast<unsigned>(c - '0');
        if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10)
            return std::nullopt; // beyond 64 bits: over any range.
        value = value * 10 + digit;
    }
    if (value < lo || value > hi)
        return std::nullopt;
    return value;
}

std::uint64_t
parseCountOrExit(const char *what, const char *text, std::uint64_t lo,
                 std::uint64_t hi)
{
    if (const auto value = parseCount(text, lo, hi))
        return *value;
    std::fprintf(stderr, "%s needs a count in [%llu, %llu], got \"%s\"\n",
                 what, static_cast<unsigned long long>(lo),
                 static_cast<unsigned long long>(hi), text);
    std::exit(2);
}

} // namespace smt

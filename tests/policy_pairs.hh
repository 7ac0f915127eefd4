/**
 * @file
 * Shared by the core test suites: the (fetch, issue) policy pairs the
 * paper sweeps, and the stat fields a single divergent cycle anywhere
 * would disturb.
 */

#ifndef SMT_TESTS_POLICY_PAIRS_HH
#define SMT_TESTS_POLICY_PAIRS_HH

#include <cstdint>
#include <ostream>

#include "stats/stats.hh"

namespace smt
{

struct PolicyPair
{
    const char *fetch;
    const char *issue;
};

/** Every fetch policy under the default issue policy (Section 5), and
 *  the issue-policy sweep under ICOUNT (Section 6). */
inline constexpr PolicyPair kPaperPairs[] = {
    {"RR", "OLDEST_FIRST"},
    {"BRCOUNT", "OLDEST_FIRST"},
    {"MISSCOUNT", "OLDEST_FIRST"},
    {"ICOUNT", "OLDEST_FIRST"},
    {"IQPOSN", "OLDEST_FIRST"},
    {"ICOUNT+MISSCOUNT", "OLDEST_FIRST"},
    {"ICOUNT", "OPT_LAST"},
    {"ICOUNT", "SPEC_LAST"},
    {"ICOUNT", "BRANCH_FIRST"},
};

/** The stat fields a single divergent cycle anywhere would disturb. */
struct StatKey
{
    std::uint64_t cycles, committed, fetched, fetchedWrongPath, issued,
        issuedWrongPath, optimisticSquashes, mispredicts, dcacheMisses;

    static StatKey
    of(const SimStats &s)
    {
        return {s.cycles,
                s.committedInstructions,
                s.fetchedInstructions,
                s.fetchedWrongPath,
                s.issuedInstructions,
                s.issuedWrongPath,
                s.optimisticSquashes,
                s.condBranchMispredicts,
                s.dcache.misses};
    }

    bool operator==(const StatKey &) const = default;

    friend std::ostream &
    operator<<(std::ostream &os, const StatKey &k)
    {
        return os << "{" << k.cycles << ", " << k.committed << ", "
                  << k.fetched << ", " << k.fetchedWrongPath << ", "
                  << k.issued << ", " << k.issuedWrongPath << ", "
                  << k.optimisticSquashes << ", " << k.mispredicts
                  << ", " << k.dcacheMisses << "}";
    }
};

} // namespace smt

#endif // SMT_TESTS_POLICY_PAIRS_HH

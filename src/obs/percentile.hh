/**
 * @file
 * The one percentile definition the analyzers and load tools report:
 * inclusive nearest rank.
 */

#ifndef SMT_OBS_PERCENTILE_HH
#define SMT_OBS_PERCENTILE_HH

#include <cmath>
#include <cstddef>
#include <vector>

namespace smt::obs
{

/**
 * The p-th percentile (p in 0..100) of an ascending-sorted sample by
 * inclusive nearest rank: the smallest value with at least p% of the
 * sample at or below it. p = 0 gives the minimum, p = 100 the maximum;
 * an empty sample gives 0.
 */
inline double
percentile(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    const double rank =
        std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
    std::size_t idx = rank <= 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    if (idx >= sorted.size())
        idx = sorted.size() - 1;
    return sorted[idx];
}

} // namespace smt::obs

#endif // SMT_OBS_PERCENTILE_HH

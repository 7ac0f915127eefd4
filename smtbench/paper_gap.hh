/**
 * @file
 * paper_gap_pct: how far measured figures sit from the paper's values.
 *
 * The reference values live in paper_refs.json beside this file, one
 * entry per number quoted in a report string of
 * src/sweep/experiments.cc, each citing its source line. A "point" ref
 * names one grid point (grid, axis choice, thread count) and a SimStats
 * metric; the other kinds are the derived figures the reports print
 * (Fig 3 peak speedup, Fig 4 gains at 8T, Fig 5 peak IPC, Fig 7 best
 * context count).
 */

#ifndef SMTBENCH_PAPER_GAP_HH
#define SMTBENCH_PAPER_GAP_HH

#include <map>
#include <string>
#include <vector>

#include "config/config.hh"
#include "stats/stats.hh"
#include "sweep/runner.hh"

namespace smtbench
{

struct PaperRef
{
    std::string id;
    std::string kind; ///< "point" or a derived-figure kind.
    std::string grid;
    std::string metric;
    std::vector<std::size_t> axis;
    unsigned threads = 0;
    std::size_t scheme = 0, partition = 0, policy = 0;
    double value = 0.0;
    std::string source;
};

/** Parse paper_refs.json (fatal when missing or malformed). */
std::vector<PaperRef> loadPaperRefs(const std::string &path);

/** One compared value. */
struct Gap
{
    const PaperRef *ref;
    double measured;
};

/** Gaps for every ref whose grid is among `outcomes` (keyed by spec
 *  name). */
std::vector<Gap>
gapsFromGrids(const std::vector<PaperRef> &refs,
              const std::map<std::string, const smt::sweep::SweepOutcome *>
                  &outcomes);

/** One simulated machine and its statistics. */
struct MachineResult
{
    smt::SmtConfig cfg;
    smt::SimStats stats;
};

/** Gaps for the point refs whose grid point is exactly one of
 *  `machines` (same SmtConfig). */
std::vector<Gap> gapsFromMachines(const std::vector<PaperRef> &refs,
                                  const std::vector<MachineResult> &machines);

/** Mean of |measured - value| / |value|, in percent (0 when empty). */
double meanGapPct(const std::vector<Gap> &gaps);

} // namespace smtbench

#endif // SMTBENCH_PAPER_GAP_HH

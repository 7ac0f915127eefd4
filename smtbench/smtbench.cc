/**
 * @file
 * smtbench: the smtsim benchmark. One run measures one workload for a
 * given number of seconds and prints, as its last stdout line,
 *
 *   {"correct": ..., "attempted": N, "failed": F, "metrics": {...}}
 *
 * with every end-to-end metric (--trace 0) or every per-layer metric
 * (--trace 1). Above that line it prints a human-readable table: the
 * host, every metric with its unit, and the error rate. Workloads:
 *
 *   paper-cold    all eight paper grids through sweep::runSweep into an
 *                 empty local-directory store, default budgets;
 *   core-serial   the six simspeed shapes on one thread, no pool, no
 *                 store in the timed part;
 *   paper-replay  the eight grids replayed from an smtstore child on
 *                 loopback, every point a cache hit.
 *
 * See README.md in this directory for the metric definitions and the
 * layer-to-end-to-end map. Run it through run.py, which builds it.
 */

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/rng.hh"
#include "paper_gap.hh"
#include "sim/simspeed.hh"
#include "sim/simulator.hh"
#include "store_server.hh"
#include "sweep/digest.hh"
#include "sweep/experiments.hh"
#include "sweep/remote_store.hh"
#include "sweep/result_store.hh"
#include "sweep/serialize.hh"
#include "workload/mix.hh"

namespace smtbench
{
namespace
{

namespace fs = std::filesystem;
namespace sw = smt::sweep;
using smt::MeasureOptions;
using smt::SimStats;
using smt::SmtConfig;
using smt::sweep::Json;

// ---- Command line ----------------------------------------------------------

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string dataDir = "smtbench"; ///< holds paper_refs.json.
    std::string workDir = ".bench_build/smtbench/work";
    std::string sourceId = "unknown"; ///< keys the determinism ledger.
    bool tiny = false;       ///< self-test budgets.
    bool emptyStore = false; ///< paper-replay with no set-up fill.
};

[[noreturn]] void
usage(const std::string &problem)
{
    std::fprintf(stderr,
                 "smtbench: %s\n"
                 "usage: smtbench --workload paper-cold|core-serial|"
                 "paper-replay --seed N --seconds S --trace 0|1\n"
                 "                [--data-dir D] [--work-dir D] "
                 "[--source-id ID] [--tiny] [--empty-store]\n",
                 problem.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--workload")
            a.workload = value();
        else if (arg == "--seed")
            a.seed = std::stoull(value());
        else if (arg == "--seconds")
            a.seconds = std::stod(value());
        else if (arg == "--trace")
            a.trace = value() != "0";
        else if (arg == "--data-dir")
            a.dataDir = value();
        else if (arg == "--work-dir")
            a.workDir = value();
        else if (arg == "--source-id")
            a.sourceId = value();
        else if (arg == "--tiny")
            a.tiny = true;
        else if (arg == "--empty-store")
            a.emptyStore = true;
        else
            usage("unknown argument " + arg);
    }
    if (a.workload != "paper-cold" && a.workload != "core-serial" &&
        a.workload != "paper-replay")
        usage("unknown workload \"" + a.workload + "\"");
    if (!(a.seconds > 0.0))
        usage("--seconds must be positive");
    return a;
}

// ---- Budgets ---------------------------------------------------------------

struct Budgets
{
    MeasureOptions cold;  ///< paper-cold: the repository defaults.
    MeasureOptions fill;  ///< paper-replay's set-up fill (reduced).
    std::uint64_t shapeWarmup = 30000;
    std::uint64_t shapeMeasure = 200000;
    std::size_t samples = 1000; ///< per latency distribution (p99).
    unsigned minReps = 3;
    std::size_t probePoints = 8; ///< paper-cold sim/core probe sample.
};

Budgets
budgets(bool tiny)
{
    Budgets b;
    b.fill.cyclesPerRun = 2000;
    b.fill.warmupCycles = 1000;
    if (tiny) {
        b.cold.cyclesPerRun = 300;
        b.cold.warmupCycles = 100;
        b.cold.runs = 2;
        b.fill = b.cold;
        b.shapeWarmup = 500;
        b.shapeMeasure = 3000;
        b.samples = 20;
        b.minReps = 1;
        b.probePoints = 2;
    }
    return b;
}

// ---- Metrics and the result line -------------------------------------------

struct MetricDef
{
    std::string name;
    std::string unit;
};

const std::vector<MetricDef> &
endToEndDefs()
{
    static const std::vector<MetricDef> defs = {
        {"wall_s", "s"},
        {"cpu_s", "s"},
        {"sim_mcycles_per_s", "Mcycles/s"},
        {"replay_ms_p50", "ms"},
        {"replay_ms_p99", "ms"},
        {"setup_s", "s"},
        {"peak_rss_mb", "MB"},
        {"paper_gap_pct", "%"},
    };
    return defs;
}

const std::vector<MetricDef> &
perLayerDefs()
{
    static const std::vector<MetricDef> defs = [] {
        std::vector<MetricDef> d = {
            {"sim.build_ms_p50", "ms"},
            {"sim.warmup_ns_per_cycle", "ns/cycle"},
            {"sim.measure_ns_per_cycle", "ns/cycle"},
            {"sim.warmup_share", "fraction"},
        };
        for (const char *stage : {"fetch", "decode", "rename", "issue",
                                  "execute", "commit", "squash"})
            d.push_back({std::string("core.") + stage + "_ns_per_cycle",
                         "ns/cycle"});
        for (const smt::simspeed::ShapeSpec &s :
             smt::simspeed::defaultShapes())
            d.push_back({"core.mcycles_per_s." + s.name, "Mcycles/s"});
        const std::vector<MetricDef> rest = {
            {"core.ipc", "IPC"},
            {"core.wrong_path_fetch_frac", "fraction"},
            {"core.useless_issue_frac", "fraction"},
            {"core.int_iq_full_frac", "fraction"},
            {"core.out_of_regs_frac", "fraction"},
            {"core.lost_issue_slots_per_cycle", "slots/cycle"},
            {"branch.cond_mispredict_rate", "fraction"},
            {"branch.jump_mispredict_rate", "fraction"},
            {"mem.icache_miss_rate", "fraction"},
            {"mem.dcache_miss_rate", "fraction"},
            {"mem.l2_miss_rate", "fraction"},
            {"mem.l3_miss_rate", "fraction"},
            {"sweep.pool_busy_frac", "fraction"},
            {"sweep.cache_hit_frac", "fraction"},
            {"sweep.digest_us_p50", "us"},
            {"sweep.lookup_ms_p50", "ms"},
            {"sweep.lookup_ms_p99", "ms"},
            {"sweep.store_ms_p50", "ms"},
            {"net.requests_per_replay", "count"},
            {"net.bytes_out_per_replay", "bytes"},
            {"net.server_us_p50", "us"},
            {"stats.report_ms", "ms"},
            {"obs.trace_overhead_frac", "fraction"},
        };
        d.insert(d.end(), rest.begin(), rest.end());
        return d;
    }();
    return defs;
}

struct Host
{
    std::string cpu;
    unsigned nproc = 1;
    unsigned jobs = 1;            ///< pool workers (the caller helps too).
    unsigned dispatchThreads = 0; ///< smtstore --dispatch-threads.
};

Host
detectHost()
{
    Host h;
    h.cpu = smt::simspeed::hostFingerprint();
    h.cpu = h.cpu.substr(0, h.cpu.rfind(" / "));
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof set, &set) == 0)
        h.nproc = std::max(1, CPU_COUNT(&set));
    // ThreadPool::wait() runs queued tasks on the waiting thread, so
    // nproc - 1 workers plus the caller keep exactly nproc threads busy.
    h.jobs = std::max(1u, h.nproc - 1);
    return h;
}

/** Everything one run accumulates: checks, metrics, notes. */
class Ledger
{
  public:
    void
    check(bool ok, const std::string &what)
    {
        ++attempted_;
        if (!ok) {
            ++failed_;
            if (failures_.size() < 10)
                failures_.push_back(what);
        }
    }

    void
    set(const std::string &name, double value, std::string note = "")
    {
        values_[name] = std::isfinite(value) ? value : 0.0;
        if (!note.empty())
            notes_[name] = std::move(note);
    }

    std::uint64_t failed() const { return failed_; }

    void
    print(const Args &args, const Host &host) const
    {
        std::printf("smtbench %s seed=%llu seconds=%g trace=%d%s\n",
                    args.workload.c_str(),
                    static_cast<unsigned long long>(args.seed), args.seconds,
                    args.trace ? 1 : 0, args.tiny ? " (tiny budgets)" : "");
        std::printf("host: cpu=\"%s\" nproc=%u build=%s jobs=%u "
                    "dispatch_threads=%u\n",
                    host.cpu.c_str(), host.nproc, SMTBENCH_BUILD_TYPE,
                    host.jobs, host.dispatchThreads);
        const auto table = [&](const std::vector<MetricDef> &defs) {
            for (const MetricDef &d : defs) {
                const auto note = notes_.find(d.name);
                std::printf("  %-34s %14.6g %-10s %s\n", d.name.c_str(),
                            value(d.name), d.unit.c_str(),
                            note != notes_.end() ? note->second.c_str()
                                                 : "");
            }
        };
        table(args.trace ? perLayerDefs() : endToEndDefs());
        std::printf("  %-34s %14.6g %-10s (%llu failed / %llu attempted)\n",
                    "error_rate",
                    attempted_ ? static_cast<double>(failed_) / attempted_
                               : 0.0,
                    "fraction", static_cast<unsigned long long>(failed_),
                    static_cast<unsigned long long>(attempted_));
        for (const std::string &f : failures_)
            std::printf("  FAILED: %s\n", f.c_str());

        std::string line = "{\"correct\": ";
        line += failed_ == 0 ? "true" : "false";
        line += ", \"attempted\": " + std::to_string(attempted_);
        line += ", \"failed\": " + std::to_string(failed_);
        line += ", \"metrics\": {";
        bool first = true;
        for (const MetricDef &d :
             args.trace ? perLayerDefs() : endToEndDefs()) {
            char num[64];
            std::snprintf(num, sizeof num, "%.17g", value(d.name));
            line += std::string(first ? "" : ", ") + "\"" + d.name +
                    "\": {\"value\": " + num + ", \"unit\": \"" + d.unit +
                    "\"}";
            first = false;
        }
        line += "}}";
        std::printf("%s\n", line.c_str());
        std::fflush(stdout);
    }

  private:
    double
    value(const std::string &name) const
    {
        const auto it = values_.find(name);
        return it != values_.end() ? it->second : 0.0;
    }

    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> failures_;
    std::map<std::string, double> values_;
    std::map<std::string, std::string> notes_;
};

/** "(n=N, lo..hi)": the samples behind a summary value and their
 *  range — the noise a reader should judge the value against. */
std::string
spreadNote(const std::vector<double> &v)
{
    char buf[96];
    std::snprintf(buf, sizeof buf, "(n=%zu, %.4g..%.4g, median=%.6g)", v.size(),
                  *std::min_element(v.begin(), v.end()),
                  *std::max_element(v.begin(), v.end()), median(v));
    return buf;
}

/** A latency distribution as <prefix>_p50 and <prefix>_p99 (the tail
 *  the sample count supports; the note says which and of how many). */
void
setLatency(Ledger &ledger, const std::string &prefix,
           const std::vector<double> &samples)
{
    const unsigned tail = tailPercentile(samples.size());
    ledger.set(prefix + "_p50", median(samples),
               "(n=" + std::to_string(samples.size()) + ")");
    ledger.set(prefix + "_p99", percentile(samples, tail),
               "(p" + std::to_string(tail) +
                   " of n=" + std::to_string(samples.size()) + ")");
}

// ---- Shared machinery ------------------------------------------------------

struct Ctx
{
    Args args;
    Host host;
    Budgets budgets;
    std::string work; ///< this run's private scratch directory.
    std::vector<PaperRef> refs;
    StdoutCapture capture;
    Ledger ledger;
};

const std::vector<std::string> kPaperGrids = {
    "fig3", "fig4", "fig5", "fig6", "fig7", "table3", "table4", "table5",
};

/** The eight paper grids, in an order drawn from the seed. */
std::vector<const sw::NamedExperiment *>
gridsInSeedOrder(std::uint64_t seed)
{
    std::vector<const sw::NamedExperiment *> grids;
    for (const std::string &name : kPaperGrids)
        grids.push_back(sw::findExperiment(name));
    std::mt19937_64 rng(seed);
    std::shuffle(grids.begin(), grids.end(), rng);
    return grids;
}

sw::RunnerOptions
runnerOptions(const Ctx &c, const std::string &store,
              const MeasureOptions &measure)
{
    sw::RunnerOptions r;
    r.measure = measure;
    r.measure.parallel = true;
    r.cacheDir = store;
    r.jobs = c.host.jobs;
    return r;
}

std::string
statsBytes(const SimStats &s)
{
    return sw::toJson(s).dump();
}

/** One pass over the eight grids: each grid's outcome and report, and
 *  the wall time and CPU each took (runSweep plus report rendering;
 *  CPU includes a store server's, when one is given). `after_grid`,
 *  when set, runs untimed after each grid, given the pass so far. */
struct GridPass
{
    std::vector<sw::SweepOutcome> outcomes;
    std::vector<std::string> reports;
    std::vector<double> gridMs;
    double wall = 0.0;
    double cpu = 0.0;
};

GridPass
runGrids(Ctx &c, const std::vector<const sw::NamedExperiment *> &grids,
         const sw::RunnerOptions &ropts,
         const StoreServer *server = nullptr,
         const std::function<void(const GridPass &)> &after_grid = {})
{
    GridPass pass;
    for (const sw::NamedExperiment *g : grids) {
        const double server0 = server ? server->cpuSeconds() : 0.0;
        const double cpu0 = processCpuSeconds();
        const auto g0 = Clock::now();
        pass.outcomes.push_back(sw::runSweep(g->spec, ropts));
        pass.reports.push_back(c.capture.run(
            [&] { g->report(pass.outcomes.back()); }));
        pass.gridMs.push_back(1e3 * secondsSince(g0));
        pass.wall += pass.gridMs.back() / 1e3;
        pass.cpu += processCpuSeconds() - cpu0 +
                    (server ? server->cpuSeconds() - server0 : 0.0);
        if (after_grid)
            after_grid(pass);
    }
    return pass;
}

/** Measured cycles carried by every point a pass delivered. */
double
resultCycles(const GridPass &pass)
{
    double cycles = 0.0;
    for (const sw::SweepOutcome &o : pass.outcomes)
        for (const sw::PointResult &p : o.points)
            cycles += static_cast<double>(p.data.stats.cycles);
    return cycles;
}

std::map<std::string, std::string>
statsByDigest(const GridPass &pass)
{
    std::map<std::string, std::string> out;
    for (const sw::SweepOutcome &o : pass.outcomes)
        for (const sw::PointResult &p : o.points)
            out.emplace(p.digest, statsBytes(p.data.stats));
    return out;
}

/** A digest over every point's statistics, independent of grid order. */
std::string
passDigest(const GridPass &pass)
{
    std::map<std::string, std::string> by_grid;
    for (const sw::SweepOutcome &o : pass.outcomes) {
        std::string &text = by_grid[o.spec.name];
        for (const sw::PointResult &p : o.points)
            text += p.digest + statsBytes(p.data.stats);
    }
    std::string all;
    for (const auto &[name, text] : by_grid)
        all += name + text;
    return sw::digestHex(all);
}

std::map<std::string, std::string>
reportsByGrid(const GridPass &pass)
{
    std::map<std::string, std::string> out;
    for (std::size_t i = 0; i < pass.outcomes.size(); ++i)
        out[pass.outcomes[i].spec.name] = pass.reports[i];
    return out;
}

std::map<std::string, const sw::SweepOutcome *>
outcomesByGrid(const GridPass &pass)
{
    std::map<std::string, const sw::SweepOutcome *> out;
    for (const sw::SweepOutcome &o : pass.outcomes)
        out[o.spec.name] = &o;
    return out;
}

/** Every point a cache hit whose statistics equal `expected`, and every
 *  report byte-identical to `reports`. */
void
checkReplay(Ctx &c, const GridPass &pass,
            const std::map<std::string, std::string> &expected,
            const std::map<std::string, std::string> &reports,
            const char *what)
{
    for (std::size_t i = 0; i < pass.outcomes.size(); ++i) {
        const sw::SweepOutcome &o = pass.outcomes[i];
        for (const sw::PointResult &p : o.points) {
            const auto it = expected.find(p.digest);
            c.ledger.check(p.cached && it != expected.end() &&
                               it->second == statsBytes(p.data.stats),
                           std::string(what) + " " + o.spec.name + " " +
                               p.point.label + " t" +
                               std::to_string(p.point.threads) +
                               (p.cached ? ": differs from the stored stats"
                                         : ": cache miss"));
        }
        const auto r = reports.find(o.spec.name);
        c.ledger.check(r != reports.end() && r->second == pass.reports[i],
                       std::string(what) + " " + o.spec.name +
                           ": report differs");
    }
}

/** The sum of each distinct point's statistics. */
SimStats
aggregateDistinct(const GridPass &pass)
{
    std::set<std::string> seen;
    SimStats total;
    for (const sw::SweepOutcome &o : pass.outcomes)
        for (const sw::PointResult &p : o.points)
            if (seen.insert(p.digest).second)
                total.add(p.data.stats);
    return total;
}

/** The modelled, exact per-layer counts of core, branch and mem. */
void
setModelled(Ledger &l, const SimStats &s)
{
    l.set("core.ipc", s.ipc());
    l.set("core.wrong_path_fetch_frac", s.wrongPathFetchedFraction());
    l.set("core.useless_issue_frac", s.uselessIssueFraction());
    l.set("core.int_iq_full_frac", s.intIQFullFraction());
    l.set("core.out_of_regs_frac", s.outOfRegistersFraction());
    l.set("core.lost_issue_slots_per_cycle",
          s.cycles ? static_cast<double>(s.stalls.totalStalledSlots()) /
                         static_cast<double>(s.cycles)
                   : 0.0);
    l.set("branch.cond_mispredict_rate", s.branchMispredictRate());
    l.set("branch.jump_mispredict_rate", s.jumpMispredictRate());
    l.set("mem.icache_miss_rate", s.icache.missRate());
    l.set("mem.dcache_miss_rate", s.dcache.missRate());
    l.set("mem.l2_miss_rate", s.l2.missRate());
    l.set("mem.l3_miss_rate", s.l3.missRate());
}

/** paper_gap_pct, noting how many reference values were compared;
 *  every one must have a finite measured counterpart. */
void
setPaperGap(Ctx &c, const std::vector<Gap> &gaps)
{
    c.ledger.check(!gaps.empty(), "paper_gap_pct: no reference values");
    for (const Gap &g : gaps)
        c.ledger.check(std::isfinite(g.measured),
                       "paper ref " + g.ref->id + ": measured value is not "
                       "finite");
    c.ledger.set("paper_gap_pct", meanGapPct(gaps),
                 "(" + std::to_string(gaps.size()) + " paper values)");
}

/** Outside timings of Simulator construction, warmup and measurement,
 *  and (when asked) the per-stage split from SmtCore::tickTimed. */
struct SimProbe
{
    std::vector<double> buildMs;
    double warmupSec = 0.0, measureSec = 0.0;
    double warmupCycles = 0.0, measureCycles = 0.0;
    smt::StageTimes stages;
    double stagedSec = 0.0, stagedCycles = 0.0;

    /** Build and warm one machine the way measureRun() does for
     *  rotation run 0, then run `measure` cycles (plain or staged). */
    SimStats
    probe(const SmtConfig &cfg, std::uint64_t warmup, std::uint64_t measure,
          bool staged)
    {
        auto t0 = Clock::now();
        smt::Simulator sim(cfg, smt::mixForRun(cfg.numThreads, 0),
                           smt::mix64(1));
        buildMs.push_back(1e3 * secondsSince(t0));
        t0 = Clock::now();
        sim.warmup(warmup);
        warmupSec += secondsSince(t0);
        warmupCycles += static_cast<double>(warmup);
        t0 = Clock::now();
        if (staged) {
            for (std::uint64_t i = 0; i < measure; ++i)
                sim.core().tickTimed(stages);
            stagedSec += secondsSince(t0);
            stagedCycles += static_cast<double>(measure);
        } else {
            sim.run(measure);
            measureSec += secondsSince(t0);
            measureCycles += static_cast<double>(measure);
        }
        return sim.stats();
    }

    /** `warmup` and `measure` are one run's budgets: the warmup share
     *  is warmup's part of that run's host time. */
    void
    report(Ledger &l, double warmup, double measure) const
    {
        l.set("sim.build_ms_p50", median(buildMs),
              "(n=" + std::to_string(buildMs.size()) + ")");
        const double warmup_ns = 1e9 * warmupSec / warmupCycles;
        const double measure_ns = 1e9 * measureSec / measureCycles;
        l.set("sim.warmup_ns_per_cycle", warmup_ns);
        l.set("sim.measure_ns_per_cycle", measure_ns);
        l.set("sim.warmup_share", warmup_ns * warmup /
                                      (warmup_ns * warmup +
                                       measure_ns * measure));
        for (unsigned i = 0; i < smt::StageTimes::kNumStages && stagedCycles;
             ++i)
            l.set(std::string("core.") + smt::StageTimes::stageName(i) +
                      "_ns_per_cycle",
                  static_cast<double>(stages.ns[i]) / stagedCycles);
    }
};

/** measurementDigest() cost, over `points` repeated to `samples`. */
std::vector<double>
timeDigests(const std::vector<sw::SweepPoint> &points, std::size_t samples)
{
    std::vector<double> us;
    while (us.size() < samples && !points.empty())
        for (const sw::SweepPoint &p : points) {
            const auto t0 = Clock::now();
            sw::measurementDigest(p.config, p.options);
            us.push_back(1e6 * secondsSince(t0));
        }
    return us;
}

/** ResultStore::lookup() cost over `digests` repeated to `samples`;
 *  every lookup must hit. */
std::vector<double>
timeLookups(Ctx &c, const sw::ResultStore &store,
            const std::vector<std::string> &digests, std::size_t samples)
{
    std::vector<double> ms;
    while (ms.size() < samples && !digests.empty())
        for (const std::string &d : digests) {
            const auto t0 = Clock::now();
            const bool hit = store.lookup(d).has_value();
            ms.push_back(1e3 * secondsSince(t0));
            c.ledger.check(hit, "lookup " + d + " missed");
        }
    return ms;
}

std::vector<sw::SweepPoint>
allPoints(const GridPass &pass)
{
    std::vector<sw::SweepPoint> points;
    for (const sw::SweepOutcome &o : pass.outcomes)
        for (const sw::PointResult &p : o.points)
            points.push_back(p.point);
    return points;
}

std::vector<std::string>
distinctDigests(const GridPass &pass)
{
    std::set<std::string> d;
    for (const sw::SweepOutcome &o : pass.outcomes)
        for (const sw::PointResult &p : o.points)
            d.insert(p.digest);
    return {d.begin(), d.end()};
}

/** The eight report() calls on a pass's outcomes, median of 5. */
double
reportMs(Ctx &c, const GridPass &pass)
{
    std::vector<double> ms;
    for (int rep = 0; rep < 5; ++rep) {
        const auto t0 = Clock::now();
        for (const sw::SweepOutcome &o : pass.outcomes) {
            const sw::NamedExperiment *e = sw::findExperiment(o.spec.name);
            c.capture.run([&] { e->report(o); });
        }
        ms.push_back(1e3 * secondsSince(t0));
    }
    return median(ms);
}

std::vector<Json>
readSpans(const std::string &path)
{
    std::vector<Json> spans;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        Json j;
        if (Json::parse(line, j))
            spans.push_back(std::move(j));
    }
    return spans;
}

/** Run-to-run determinism: the first run of a build records `digest`
 *  under `key`; every later run of the same sources must match it. */
void
checkLedger(Ctx &c, const std::string &key, const std::string &digest)
{
    const fs::path dir = fs::path(c.args.workDir) / "ledger";
    fs::create_directories(dir);
    const fs::path file = dir / (key + "-" + c.args.sourceId);
    std::string recorded;
    std::ifstream(file) >> recorded;
    if (recorded.empty())
        std::ofstream(file) << digest << "\n";
    c.ledger.check(recorded.empty() || recorded == digest,
                   key + ": results differ from an earlier run of the "
                         "same sources");
}

// ---- paper-cold ------------------------------------------------------------

/** Set-up of a cold reproduction: a fresh empty store, every grid
 *  expanded and every point's digest confirmed absent. */
double
prepareColdStore(Ctx &c, const std::string &dir)
{
    const auto t0 = Clock::now();
    fs::remove_all(dir);
    std::unique_ptr<sw::ResultStore> store = sw::openLocalStore(dir);
    bool cold = true;
    for (const std::string &name : kPaperGrids)
        for (const sw::SweepPoint &p :
             sw::findExperiment(name)->spec.expand(c.budgets.cold))
            cold = cold && !store->lookup(
                               sw::measurementDigest(p.config, p.options));
    const double s = secondsSince(t0);
    c.ledger.check(cold, "paper-cold: store not empty after set-up");
    return s;
}

void
paperCold(Ctx &c)
{
    const Budgets &b = c.budgets;
    const auto grids = gridsInSeedOrder(c.args.seed);
    const std::string store = c.work + "/cold-store";
    const sw::RunnerOptions ropts = runnerOptions(c, store, b.cold);

    std::vector<double> setups;
    for (int i = 0; i < 9; ++i)
        setups.push_back(prepareColdStore(c, store));

    // After each grid of a cold pass, untimed by the pass: that grid is
    // replayed warm from the store it just filled (every point a hit),
    // and the set-up is repeated on a scratch store. So these samples
    // span the whole pass, on a host whose speed drifts. A grid is
    // replayed 8 times per point it has, so the percentiles fall inside
    // the large grids' samples rather than in the gap between small and
    // large grids, and the mix is the same on every run.
    std::vector<GridPass> passes;
    std::vector<double> replay_ms;
    std::size_t grid_points = 0;
    for (const sw::NamedExperiment *g : grids)
        grid_points += g->spec.gridSize();
    const std::size_t replays_per_point =
        (b.samples + grid_points - 1) / grid_points;
    const auto after_grid = [&](const GridPass &so_far) {
        for (int i = 0; i < 3; ++i)
            setups.push_back(prepareColdStore(c, c.work + "/setup-store"));
        if (!passes.empty())
            return; // only the first pass is replayed
        const std::size_t g = so_far.outcomes.size() - 1;
        const sw::SweepOutcome &o = so_far.outcomes[g];
        GridPass just_run;
        just_run.outcomes = {o};
        const auto expected = statsByDigest(just_run);
        const std::map<std::string, std::string> report = {
            {o.spec.name, so_far.reports[g]}};
        for (std::size_t i = 0; i < replays_per_point * o.points.size();
             ++i) {
            const GridPass warm = runGrids(c, {grids[g]}, ropts);
            checkReplay(c, warm, expected, report, "paper-cold warm replay");
            replay_ms.push_back(warm.gridMs[0]);
        }
    };

    // One cold iteration takes ~35 s at the default budgets, so a run
    // usually measures exactly one; traced runs always measure one.
    const auto t0 = Clock::now();
    do {
        if (!passes.empty())
            setups.push_back(prepareColdStore(c, store));
        passes.push_back(runGrids(c, grids, ropts, nullptr, after_grid));
    } while (!c.args.trace && secondsSince(t0) < c.args.seconds);

    const GridPass &cold = passes.front();
    const std::string digest = passDigest(cold);
    for (const GridPass &p : passes) {
        for (const sw::SweepOutcome &o : p.outcomes)
            for (const sw::PointResult &r : o.points)
                c.ledger.check(r.data.stats.cycles > 0 &&
                                   r.data.stats.committedInstructions > 0,
                               "paper-cold " + o.spec.name + " " +
                                   r.point.label + ": point failed");
        c.ledger.check(passDigest(p) == digest,
                       "paper-cold: results differ between iterations");
    }
    checkLedger(c, std::string("paper-cold") + (c.args.tiny ? "-tiny" : ""),
                digest);

    std::vector<double> wall, cpu, rate;
    for (const GridPass &p : passes) {
        wall.push_back(p.wall);
        cpu.push_back(p.cpu);
        rate.push_back(resultCycles(p) / p.wall / 1e6);
    }
    Ledger &l = c.ledger;
    l.set("wall_s", median(wall), spreadNote(wall));
    l.set("cpu_s", median(cpu));
    l.set("sim_mcycles_per_s", median(rate));
    setLatency(l, "replay_ms", replay_ms);
    l.set("setup_s", median(setups), spreadNote(setups));
    setPaperGap(c, gapsFromGrids(c.refs, outcomesByGrid(cold)));

    if (!c.args.trace)
        return;

    // Traced pass: the same cold reproduction with runner spans on.
    prepareColdStore(c, store);
    const std::string span_file = c.work + "/cold-spans.jsonl";
    smt::obs::TraceWriter writer(span_file);
    sw::RunnerOptions traced = ropts;
    traced.trace = &writer;
    const GridPass tp = runGrids(c, grids, traced);
    l.check(passDigest(tp) == digest,
            "paper-cold: traced results differ from untraced");
    l.set("obs.trace_overhead_frac", tp.wall / cold.wall - 1.0);

    double run_seconds = 0.0, sweep_wall = 0.0;
    std::vector<double> store_ms;
    for (const Json &s : readSpans(span_file)) {
        const std::string &event = s.at("event").asString();
        if (event == "run")
            run_seconds += s.at("seconds").asDouble();
        else if (event == "stored")
            store_ms.push_back(s.at("dur_us").asDouble() / 1e3);
    }
    std::size_t points = 0, hits = 0;
    for (const sw::SweepOutcome &o : tp.outcomes) {
        sweep_wall += o.wallSeconds;
        points += o.points.size();
        hits += o.cacheHits;
    }
    l.set("sweep.pool_busy_frac",
          run_seconds / (sweep_wall * (c.host.jobs + 1)));
    l.set("sweep.cache_hit_frac", static_cast<double>(hits) / points);
    l.set("sweep.store_ms_p50", median(store_ms),
          "(n=" + std::to_string(store_ms.size()) + ")");
    l.set("sweep.digest_us_p50", median(timeDigests(allPoints(cold),
                                                    b.samples)));
    const std::unique_ptr<sw::ResultStore> dir = sw::openLocalStore(store);
    setLatency(l, "sweep.lookup_ms",
               timeLookups(c, *dir, distinctDigests(cold), b.samples));
    l.set("stats.report_ms", reportMs(c, cold));
    setModelled(l, aggregateDistinct(cold));

    // Simulator and stage costs on the six simspeed shapes, built the
    // way measureRun() builds rotation run 0, at the cold budgets: each
    // run once plainly and once through tickTimed.
    SimProbe probe;
    for (const smt::simspeed::ShapeSpec &shape :
         smt::simspeed::defaultShapes()) {
        const double secs = probe.measureSec;
        probe.probe(shape.cfg, b.cold.warmupCycles, b.cold.cyclesPerRun,
                    false);
        l.set("core.mcycles_per_s." + shape.name,
              static_cast<double>(b.cold.cyclesPerRun) /
                  (probe.measureSec - secs) / 1e6);
        probe.probe(shape.cfg, b.cold.warmupCycles, b.cold.cyclesPerRun,
                    true);
    }
    probe.report(l, b.cold.warmupCycles, b.cold.cyclesPerRun);
}

// ---- core-serial -----------------------------------------------------------

void
coreSerial(Ctx &c)
{
    const Budgets &b = c.budgets;
    std::vector<smt::simspeed::ShapeSpec> shapes =
        smt::simspeed::defaultShapes();
    std::mt19937_64 rng(c.args.seed);
    std::shuffle(shapes.begin(), shapes.end(), rng);
    const std::size_t n = shapes.size();

    // The read-back store: each shape is rotation run 0 of a runs=1
    // measurement, exactly what measureRun() computes, so its measured
    // result is a valid store entry for that point.
    const std::string dir = c.work + "/shape-store";
    fs::remove_all(dir);
    std::unique_ptr<sw::ResultStore> store = sw::openLocalStore(dir);
    MeasureOptions opts;
    opts.warmupCycles = b.shapeWarmup;
    opts.cyclesPerRun = b.shapeMeasure;
    opts.runs = 1;
    std::vector<sw::SweepPoint> points(n);
    std::vector<std::string> digests(n);
    for (std::size_t i = 0; i < n; ++i) {
        points[i].label = shapes[i].name;
        points[i].threads = shapes[i].cfg.numThreads;
        points[i].config = shapes[i].cfg;
        points[i].options = opts;
        digests[i] = sw::measurementDigest(shapes[i].cfg, opts);
    }
    const sw::RunnerOptions ropts = runnerOptions(c, dir, opts);

    // Each repeat builds and warms fresh machines (untimed set-up),
    // times the identical measured window on each — so every repeat's
    // statistics must match the first's bit for bit — and then reads
    // the results back through sweep::runPoints (one sample = all six
    // shapes, every one a hit) for a third as long as the repeat took,
    // so the read-back samples span the whole run.
    std::vector<double> setups, rep_wall, store_ms, replay_ms;
    std::vector<std::vector<double>> shape_secs(n), shape_cpu(n);
    std::vector<std::string> first(n);
    std::vector<SimStats> results(n);
    std::size_t hits = 0, read = 0;
    const auto read_back = [&] {
        const auto s0 = Clock::now();
        const std::vector<sw::PointResult> got = sw::runPoints(points, ropts);
        replay_ms.push_back(1e3 * secondsSince(s0));
        for (std::size_t i = 0; i < n; ++i) {
            hits += got[i].cached;
            ++read;
            c.ledger.check(got[i].cached &&
                               statsBytes(got[i].data.stats) == first[i],
                           "core-serial read-back " + shapes[i].name +
                               ": not the measured result");
        }
    };
    const auto t0 = Clock::now();
    do {
        const auto r0 = Clock::now();
        std::vector<std::unique_ptr<smt::Simulator>> sims;
        for (const auto &shape : shapes) {
            sims.push_back(std::make_unique<smt::Simulator>(
                shape.cfg, shape.mix, smt::mix64(1)));
            sims.back()->warmup(b.shapeWarmup);
        }
        setups.push_back(secondsSince(r0));

        double wall = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            const double cpu0 = threadCpuSeconds();
            const auto m0 = Clock::now();
            results[i] = sims[i]->run(b.shapeMeasure);
            shape_secs[i].push_back(secondsSince(m0));
            shape_cpu[i].push_back(threadCpuSeconds() - cpu0);
            wall += shape_secs[i].back();
        }
        rep_wall.push_back(wall);
        for (std::size_t i = 0; i < n; ++i) {
            const std::string bytes = statsBytes(results[i]);
            if (first[i].empty()) {
                first[i] = bytes;
                const auto s0 = Clock::now();
                store->store(digests[i], shapes[i].cfg, opts, results[i]);
                store_ms.push_back(1e3 * secondsSince(s0));
            }
            c.ledger.check(results[i].committedInstructions > 0 &&
                               bytes == first[i],
                           "core-serial " + shapes[i].name +
                               ": repeat differs from the first");
        }

        const double share = secondsSince(r0) / 3;
        const auto q0 = Clock::now();
        while (secondsSince(q0) < share)
            read_back();
    } while (rep_wall.size() < b.minReps ||
             (!c.args.trace && secondsSince(t0) < c.args.seconds));
    while (replay_ms.size() < b.samples)
        read_back();

    // Every repeat simulates identical work, so a shape's fastest
    // repeat is its least host-disturbed time (the best-of-N convention
    // of --bench-simspeed); one iteration is the six shapes' bests
    // summed.
    double wall = 0.0, cpu = 0.0, cycles = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        wall += best(shape_secs[i]);
        cpu += best(shape_cpu[i]);
        cycles += static_cast<double>(results[i].cycles);
    }

    Ledger &l = c.ledger;
    l.set("wall_s", wall, "(best per shape; repeats " +
                              spreadNote(rep_wall) + ")");
    l.set("cpu_s", cpu, "(best per shape)");
    l.set("sim_mcycles_per_s", cycles / wall / 1e6);
    setLatency(l, "replay_ms", replay_ms);
    l.set("setup_s", median(setups), spreadNote(setups));
    std::vector<MachineResult> machines;
    for (std::size_t i = 0; i < n; ++i)
        machines.push_back({shapes[i].cfg, results[i]});
    setPaperGap(c, gapsFromMachines(c.refs, machines));

    if (!c.args.trace)
        return;

    // Traced repeat: construction and warmup timed per machine, the
    // measured window through tickTimed for the stage split.
    SimProbe probe;
    SimStats total;
    for (std::size_t i = 0; i < n; ++i) {
        const SimStats s = probe.probe(shapes[i].cfg, b.shapeWarmup,
                                       b.shapeMeasure, true);
        l.check(statsBytes(s) == first[i],
                "core-serial " + shapes[i].name +
                    ": traced pass differs from untraced");
        total.add(s);
        l.set("core.mcycles_per_s." + shapes[i].name,
              static_cast<double>(s.cycles) / best(shape_secs[i]) / 1e6);
    }
    // The plain measured window from the untraced repeats.
    probe.measureSec = wall;
    probe.measureCycles = cycles;
    probe.report(l, b.shapeWarmup, b.shapeMeasure);
    l.set("obs.trace_overhead_frac", probe.stagedSec / wall - 1.0);
    setModelled(l, total);
    l.set("sweep.cache_hit_frac",
          static_cast<double>(hits) / static_cast<double>(read));
    l.set("sweep.store_ms_p50", median(store_ms),
          "(n=" + std::to_string(store_ms.size()) + ")");
    l.set("sweep.digest_us_p50", median(timeDigests(points, b.samples)));
    setLatency(l, "sweep.lookup_ms", timeLookups(c, *store, digests,
                                                 b.samples));
}

// ---- paper-replay ----------------------------------------------------------

/** One snapshot of the server's /v1/stats, minus the stats route. */
struct ServerCounters
{
    double requests = 0.0, bytesOut = 0.0;
    std::vector<std::uint64_t> bounds;
    std::vector<double> counts;
};

ServerCounters
serverCounters(const sw::RemoteResultStore &remote)
{
    ServerCounters sc;
    const std::optional<Json> snap = remote.stats();
    if (!snap.has_value())
        return sc;
    const auto skip = [](const std::string &name) {
        return name.size() >= 6 &&
               name.compare(name.size() - 6, 6, ".stats") == 0;
    };
    for (const auto &[name, v] : snap->at("counters").items()) {
        if (skip(name))
            continue;
        if (name.rfind("store.requests.", 0) == 0)
            sc.requests += v.asDouble();
        else if (name.rfind("store.bytes_out.", 0) == 0)
            sc.bytesOut += v.asDouble();
    }
    for (const auto &[name, h] : snap->at("histograms").items()) {
        if (skip(name) || name.rfind("store.latency_us.", 0) != 0)
            continue;
        const Json &counts = h.at("counts");
        if (sc.bounds.empty()) {
            for (std::size_t i = 0; i < h.at("bounds").size(); ++i)
                sc.bounds.push_back(h.at("bounds")[i].asUInt());
            sc.counts.assign(counts.size(), 0.0);
        }
        for (std::size_t i = 0; i < counts.size() && i < sc.counts.size();
             ++i)
            sc.counts[i] += counts[i].asDouble();
    }
    return sc;
}

/** Median of a bucketed latency delta, interpolated within its bucket. */
double
bucketMedian(const ServerCounters &before, const ServerCounters &after)
{
    std::vector<double> delta = after.counts;
    double total = 0.0;
    for (std::size_t i = 0; i < delta.size(); ++i) {
        if (i < before.counts.size())
            delta[i] -= before.counts[i];
        total += delta[i];
    }
    double seen = 0.0;
    for (std::size_t i = 0; i < delta.size() && total > 0; ++i) {
        if (seen + delta[i] >= total / 2 && delta[i] > 0) {
            const double lo = i == 0 ? 0.0 : after.bounds[i - 1];
            const double hi =
                i < after.bounds.size() ? after.bounds[i] : lo;
            return lo + (hi - lo) * (total / 2 - seen) / delta[i];
        }
        seen += delta[i];
    }
    return 0.0;
}

std::string
selfDir()
{
    return fs::read_symlink("/proc/self/exe").parent_path().string();
}

void
paperReplay(Ctx &c)
{
    const Budgets &b = c.budgets;
    c.host.dispatchThreads = 1;
    const auto grids = gridsInSeedOrder(c.args.seed);
    const std::string smtstore = selfDir() + "/smtstore";

    // Set-up, three times: fill a fresh store directory at the reduced
    // budget (canonical grid order), then serve it from an smtstore
    // child. The last set-up's server is the one replayed against.
    std::vector<double> setups;
    std::map<std::string, std::string> expected;
    std::unique_ptr<StoreServer> server;
    const int setup_reps = c.args.tiny ? 2 : 3;
    for (int i = 0; i < setup_reps; ++i) {
        const std::string dir = c.work + "/replay-store-" + std::to_string(i);
        const auto s0 = Clock::now();
        fs::remove_all(dir);
        fs::create_directories(dir);
        GridPass fill;
        if (!c.args.emptyStore)
            fill = runGrids(c, gridsInSeedOrder(0),
                            runnerOptions(c, dir, b.fill));
        auto next = std::make_unique<StoreServer>(smtstore, dir,
                                                  c.host.dispatchThreads);
        setups.push_back(secondsSince(s0));
        if (server)
            server->stop();
        server = std::move(next);
        const auto filled = statsByDigest(fill);
        c.ledger.check(expected.empty() || filled == expected,
                       "paper-replay: set-up fills differ");
        expected = filled;
    }
    const std::string url = server->url();
    const sw::RunnerOptions ropts = runnerOptions(c, url, b.fill);
    smt::net::Url parsed;
    smt_assert(smt::net::parseUrl(url, parsed), "bad store url %s",
               url.c_str());
    const sw::RemoteResultStore observer(parsed);

    // Replay iterations. The untraced half also brackets /v1/stats for
    // the net layer; a traced run spends its second half with spans on.
    const double budget = c.args.trace ? c.args.seconds / 2 : c.args.seconds;
    std::map<std::string, std::string> reports;
    std::vector<double> replay_ms, iter_wall, iter_cpu;
    const ServerCounters before = serverCounters(observer);
    GridPass first_pass;
    auto t0 = Clock::now();
    do {
        GridPass pass = runGrids(c, grids, ropts, server.get());
        if (reports.empty())
            reports = reportsByGrid(pass);
        checkReplay(c, pass, expected, reports, "paper-replay");
        replay_ms.insert(replay_ms.end(), pass.gridMs.begin(),
                         pass.gridMs.end());
        iter_wall.push_back(pass.wall);
        iter_cpu.push_back(pass.cpu);
        if (first_pass.outcomes.empty())
            first_pass = std::move(pass);
    } while (iter_wall.size() < b.minReps || secondsSince(t0) < budget);
    const ServerCounters after = serverCounters(observer);
    const double iterations = static_cast<double>(iter_wall.size());

    // Iterations replay identical work: the fastest is the least
    // host-disturbed. The latency percentiles keep every sample.
    const double wall = best(iter_wall);
    Ledger &l = c.ledger;
    l.set("wall_s", wall, "(best of " + spreadNote(iter_wall) + ")");
    l.set("cpu_s", best(iter_cpu), "(client + server, best iteration)");
    l.set("sim_mcycles_per_s", resultCycles(first_pass) / wall / 1e6);
    setLatency(l, "replay_ms", replay_ms);
    l.set("setup_s", median(setups), spreadNote(setups));
    setPaperGap(c, gapsFromGrids(c.refs, outcomesByGrid(first_pass)));

    if (c.args.trace) {
        l.set("net.requests_per_replay",
              (after.requests - before.requests) / iterations);
        l.set("net.bytes_out_per_replay",
              (after.bytesOut - before.bytesOut) / iterations);
        l.set("net.server_us_p50", bucketMedian(before, after));

        const std::string span_file = c.work + "/replay-spans.jsonl";
        smt::obs::TraceWriter writer(span_file);
        sw::RunnerOptions traced = ropts;
        traced.trace = &writer;
        std::vector<double> traced_wall;
        std::size_t points = 0, hits = 0;
        t0 = Clock::now();
        do {
            const GridPass pass = runGrids(c, grids, traced);
            checkReplay(c, pass, expected, reports, "paper-replay traced");
            traced_wall.push_back(pass.wall);
            for (const sw::SweepOutcome &o : pass.outcomes) {
                points += o.points.size();
                hits += o.cacheHits;
            }
        } while (traced_wall.size() < b.minReps || secondsSince(t0) < budget);
        l.set("obs.trace_overhead_frac",
              median(traced_wall) / median(iter_wall) - 1.0);
        l.set("sweep.cache_hit_frac",
              static_cast<double>(hits) / static_cast<double>(points));
        l.set("sweep.digest_us_p50",
              median(timeDigests(allPoints(first_pass), b.samples)));
        setLatency(l, "sweep.lookup_ms",
                   timeLookups(c, observer, distinctDigests(first_pass),
                               b.samples));
        l.set("stats.report_ms", reportMs(c, first_pass));
        setModelled(l, aggregateDistinct(first_pass));
    }
    server->stop();
}

} // namespace
} // namespace smtbench

int
main(int argc, char **argv)
{
    using namespace smtbench;
    Ctx c;
    c.args = parseArgs(argc, argv);
    c.host = detectHost();
    c.budgets = budgets(c.args.tiny);
    c.refs = loadPaperRefs(c.args.dataDir + "/paper_refs.json");
    c.work = c.args.workDir + "/" + c.args.workload + "-" +
             std::to_string(::getpid());
    fs::remove_all(c.work);
    fs::create_directories(c.work);

    if (c.args.workload == "paper-cold")
        paperCold(c);
    else if (c.args.workload == "core-serial")
        coreSerial(c);
    else
        paperReplay(c);
    c.ledger.set("peak_rss_mb", peakRssMb());

    fs::remove_all(c.work);
    c.ledger.print(c.args, c.host);
    return 0;
}

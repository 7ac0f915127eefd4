#include "sim/mix_runner.hh"

#include <cstdlib>
#include <future>
#include <vector>

#include "common/logging.hh"
#include "common/parse.hh"
#include "sim/simulator.hh"
#include "sweep/thread_pool.hh"
#include "workload/mix.hh"

namespace smt
{

SimStats
measureRun(const SmtConfig &cfg, unsigned run, const MeasureOptions &opts,
           obs::PipeTrace *pipe)
{
    Simulator sim(cfg, mixForRun(cfg.numThreads, run),
                  /*seed_salt=*/mix64(run + 1));
    if (pipe != nullptr)
        sim.attachPipeTrace(pipe);
    if (opts.warmupCycles > 0)
        sim.warmup(opts.warmupCycles);
    return sim.run(opts.cyclesPerRun);
}

DataPoint
measure(const SmtConfig &cfg, const MeasureOptions &opts)
{
    smt_assert(opts.runs >= 1);
    DataPoint point;

    if (!opts.parallel || opts.runs == 1) {
        for (unsigned r = 0; r < opts.runs; ++r)
            point.stats.add(measureRun(cfg, r, opts));
        return point;
    }

    // Rotation runs ride the shared pool; aggregation stays in run
    // order, so parallel and serial measurements are bit-identical.
    sweep::ThreadPool &pool = sweep::ThreadPool::global();
    std::vector<std::future<SimStats>> futures;
    futures.reserve(opts.runs);
    for (unsigned r = 0; r < opts.runs; ++r) {
        futures.push_back(
            pool.submit([&cfg, r, &opts] { return measureRun(cfg, r, opts); }));
    }
    for (auto &f : futures)
        point.stats.add(pool.wait(std::move(f)));
    return point;
}

MeasureOptions
defaultMeasureOptions()
{
    MeasureOptions opts;
    if (const char *env = std::getenv("SMTSIM_CYCLES"); env != nullptr)
        opts.cyclesPerRun =
            parseCountOrExit("SMTSIM_CYCLES", env, 1, kMaxCycleCount);
    if (const char *env = std::getenv("SMTSIM_WARMUP"); env != nullptr)
        opts.warmupCycles =
            parseCountOrExit("SMTSIM_WARMUP", env, 0, kMaxCycleCount);
    if (const char *env = std::getenv("SMTSIM_RUNS"); env != nullptr)
        opts.runs = static_cast<unsigned>(
            parseCountOrExit("SMTSIM_RUNS", env, 1, kMaxRunCount));
    if (std::getenv("SMTSIM_SERIAL") != nullptr)
        opts.parallel = false;
    return opts;
}

} // namespace smt

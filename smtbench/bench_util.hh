/**
 * @file
 * Small measurement helpers shared by the smtbench workloads: clocks,
 * process CPU and peak memory, order statistics, and a stdout capture
 * for the report printers (which write with printf).
 */

#ifndef SMTBENCH_BENCH_UTIL_HH
#define SMTBENCH_BENCH_UTIL_HH

#include <sys/mman.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <string>
#include <vector>

#include "common/logging.hh"

namespace smtbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** User plus system CPU of the whole process (every thread). */
inline double
processCpuSeconds()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                      ru.ru_stime.tv_usec);
}

/** CPU time of the calling thread. */
inline double
threadCpuSeconds()
{
    timespec ts{};
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
}

/** Peak resident set of this process, in MB. */
inline double
peakRssMb()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** Linear-interpolated percentile, q in [0, 100]; 0 for no samples. */
inline double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q / 100.0 * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double
median(const std::vector<double> &v)
{
    return percentile(v, 50.0);
}

/** The smallest sample: over repeats of identical work, the time
 *  least disturbed by the rest of the host. */
inline double
best(const std::vector<double> &v)
{
    return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

/**
 * The tail percentile a sample set can support: the highest of
 * p99..p50 with at least ten samples beyond it (p99 needs 1000).
 */
inline unsigned
tailPercentile(std::size_t samples)
{
    for (unsigned p = 99; p > 50; --p)
        if (static_cast<double>(samples) * (100 - p) / 100.0 >= 10.0)
            return p;
    return 50;
}

/**
 * Redirects fd 1 into an in-memory file while a callable runs and
 * returns what it printed — the paper reports print with printf, and
 * the benchmark's own stdout must end with its JSON result line.
 */
class StdoutCapture
{
  public:
    StdoutCapture()
        : mem_(::memfd_create("smtbench-report", 0)), saved_(::dup(1))
    {
        smt_assert(mem_ >= 0 && saved_ >= 0, "stdout capture setup failed");
    }
    ~StdoutCapture()
    {
        ::close(mem_);
        ::close(saved_);
    }
    StdoutCapture(const StdoutCapture &) = delete;
    StdoutCapture &operator=(const StdoutCapture &) = delete;

    template <typename F>
    std::string
    run(F fn)
    {
        std::fflush(stdout);
        smt_assert(::ftruncate(mem_, 0) == 0 && ::dup2(mem_, 1) == 1,
                   "stdout capture failed");
        fn();
        std::fflush(stdout);
        smt_assert(::dup2(saved_, 1) == 1, "stdout restore failed");
        const off_t size = ::lseek(mem_, 0, SEEK_END);
        std::string out(static_cast<std::size_t>(size), '\0');
        smt_assert(::pread(mem_, out.data(), out.size(), 0) == size,
                   "stdout capture read failed");
        ::lseek(mem_, 0, SEEK_SET);
        return out;
    }

  private:
    int mem_;
    int saved_;
};

} // namespace smtbench

#endif // SMTBENCH_BENCH_UTIL_HH

/**
 * @file
 * Order statistics for the benchmark: percentiles, Python-compatible
 * quartiles, and the reporting rule that a percentile is only quoted
 * when at least ten samples lie beyond it.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <array>
#include <cstddef>
#include <string>
#include <vector>

namespace perfbench
{

/** Samples needed strictly beyond a percentile before it is quoted. */
constexpr std::size_t kTailSamples = 10;

/**
 * Nearest-rank percentile: the smallest sample such that at least
 * p percent of the samples are <= it. `sorted` must be ascending and
 * non-empty; p in (0, 100].
 */
double percentileSorted(const std::vector<double>& sorted, double p);

/** percentileSorted on an unsorted copy; 0 for no samples. */
double percentile(std::vector<double> samples, double p);

/** Samples strictly beyond the nearest-rank p-th percentile. */
std::size_t samplesBeyond(std::size_t n, double p);

/** Whether the p-th percentile of n samples may be reported. */
bool reportable(std::size_t n, double p);

/**
 * The highest of 50, 90, 99, 99.9 that is reportable for n samples,
 * or 0 when not even the median is.
 */
double highestReportable(std::size_t n);

/**
 * Quartiles exactly as Python's statistics.quantiles(data, n=4)
 * (method "exclusive") computes them. Needs >= 2 samples.
 */
std::array<double, 3> quartiles(std::vector<double> samples);

/** Median, p90, highest reportable tail and max of a latency set. */
struct Summary
{
    std::size_t n = 0;
    double p50 = 0.0;
    double p90 = 0.0;
    /** Percentile of `tail` (0 when nothing is reportable). */
    double tailP = 0.0;
    double tail = 0.0;
    double max = 0.0;
};

Summary summarize(std::vector<double> samples);

/** "p50=.. p90=.. p99=..(n beyond) max=.." for the report. */
std::string describe(const Summary& s, const std::string& unit);

/** Run the helpers against hand-computed cases; false on mismatch
 * (each mismatch is printed). */
bool selfTest();

} // namespace perfbench

#endif // PERFBENCH_STATS_HH

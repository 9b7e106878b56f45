/**
 * @file
 * Shared plumbing of the benchmark driver: command-line arguments,
 * the metric report, the client-side span log of traced runs, and
 * small timing/memory helpers.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include <sys/types.h>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Parsed command line. */
struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Source revision the build came from (informational). */
    std::string commit = "unknown";
    /** Directory for scratch files (worker checkpoints, traces). */
    std::string workDir = ".";
};

/** Seconds between two steady-clock points. */
inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Microseconds between two steady-clock points. */
inline double
usBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

/** Bitwise equality of two doubles (distinguishes -0.0, NaN bits). */
inline bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** Peak resident set of this process, MiB. */
double peakRssMb();

/** Peak resident set (VmHWM) of another live process, MiB; 0 when
 * it cannot be read. */
double peakRssMbOf(pid_t pid);

/** The metrics and verdict one run prints. */
class Report
{
  public:
    struct Metric
    {
        std::string name;
        double value = 0.0;
        std::string unit;
    };

    /** An end-to-end metric (printed with --trace 0). */
    void endToEnd(const std::string& name, double value,
                  const std::string& unit);

    /** A per-layer metric (printed with --trace 1). */
    void layer(const std::string& name, double value,
               const std::string& unit);

    /** A human-readable report line. */
    void note(const std::string& line) const;

    /** A failed correctness check: the run is marked incorrect. */
    void fail(const std::string& why);

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool correct = true;
    std::vector<Metric> endToEndMetrics;
    std::vector<Metric> layerMetrics;
};

/**
 * In-memory span log of a traced run. Spans carry a name, start, end,
 * the index of their parent span (-1 for a root) and the id of the
 * request they belong to; they are written out once, at exit.
 */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        std::uint64_t request = 0;
        std::int64_t parent = -1;
        Clock::time_point start;
        Clock::time_point end;
    };

    /** Self time of one span name: duration minus child coverage. */
    struct Totals
    {
        std::uint64_t count = 0;
        double totalUs = 0.0;
        double selfUs = 0.0;
    };

    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Record a finished span; returns its index (-1 if disabled). */
    std::int64_t add(const std::string& name, std::uint64_t request,
                     std::int64_t parent, Clock::time_point start,
                     Clock::time_point end);

    /** Open a span whose end is set later by close(). */
    std::int64_t open(const std::string& name, std::uint64_t request,
                      std::int64_t parent, Clock::time_point start);
    void close(std::int64_t index, Clock::time_point end);

    /** Per-name totals and self times (children must not overlap
     * each other inside a parent). */
    std::map<std::string, Totals> totals() const;

    /** Write chrome://tracing JSON; false on I/O failure. */
    bool write(const std::string& path) const;

  private:
    bool enabled_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    Clock::time_point epoch_ = Clock::now();
};

/** Times one call into a layer from outside and records a span. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog& log, const std::string& name,
               std::uint64_t request, std::int64_t parent)
        : log_(log), index_(log.open(name, request, parent, Clock::now()))
    {
    }

    ~ScopedSpan() { log_.close(index_, Clock::now()); }

    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

  private:
    SpanLog& log_;
    std::int64_t index_;
};

/** Names and units of every per-layer metric, in report order. A
 * traced run prints all of them; a layer its workload does not
 * exercise reads 0. */
const std::vector<std::pair<std::string, std::string>>& layerMetricNames();

/** Names and units of every end-to-end metric, in report order. */
const std::vector<std::pair<std::string, std::string>>&
endToEndMetricNames();

/** Workload entry points. */
void runRankCold(const Args& args, Report& report);
void runHotCompare(const Args& args, Report& report, bool ipc);
void runTrain(const Args& args, Report& report);

/** Median of up to a few set-up timings (seconds). */
double medianOf(std::vector<double> values);

/** How many times each workload repeats its set-up for setup_s. */
constexpr int kSetupRepeats = 5;

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH

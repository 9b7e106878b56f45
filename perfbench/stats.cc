#include "stats.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench
{

namespace
{

/** 1-based nearest rank of the p-th percentile among n samples. */
std::size_t
nearestRank(std::size_t n, double p)
{
    double exact = p * static_cast<double>(n) / 100.0;
    auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
    return std::min(n, std::max<std::size_t>(1, rank));
}

} // namespace

double
percentileSorted(const std::vector<double>& sorted, double p)
{
    return sorted[nearestRank(sorted.size(), p) - 1];
}

double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    return percentileSorted(samples, p);
}

std::size_t
samplesBeyond(std::size_t n, double p)
{
    return n == 0 ? 0 : n - nearestRank(n, p);
}

bool
reportable(std::size_t n, double p)
{
    return samplesBeyond(n, p) >= kTailSamples;
}

double
highestReportable(std::size_t n)
{
    double best = 0.0;
    for (double p : {50.0, 90.0, 99.0, 99.9})
        if (reportable(n, p))
            best = p;
    return best;
}

std::array<double, 3>
quartiles(std::vector<double> samples)
{
    std::sort(samples.begin(), samples.end());
    const long ld = static_cast<long>(samples.size());
    const long n = 4;
    const long m = ld + 1;
    std::array<double, 3> out{};
    for (long i = 1; i < n; ++i) {
        long j = i * m / n;
        j = j < 1 ? 1 : (j > ld - 1 ? ld - 1 : j);
        long delta = i * m - j * n;
        out[static_cast<std::size_t>(i - 1)] =
            (samples[static_cast<std::size_t>(j - 1)] *
                 static_cast<double>(n - delta) +
             samples[static_cast<std::size_t>(j)] *
                 static_cast<double>(delta)) /
            static_cast<double>(n);
    }
    return out;
}

Summary
summarize(std::vector<double> samples)
{
    Summary s;
    s.n = samples.size();
    if (samples.empty())
        return s;
    std::sort(samples.begin(), samples.end());
    s.p50 = percentileSorted(samples, 50.0);
    s.p90 = percentileSorted(samples, 90.0);
    s.tailP = highestReportable(s.n);
    s.tail = s.tailP > 0.0 ? percentileSorted(samples, s.tailP) : 0.0;
    s.max = samples.back();
    return s;
}

std::string
describe(const Summary& s, const std::string& unit)
{
    char buf[256];
    if (s.tailP > 90.0) {
        std::snprintf(buf, sizeof(buf),
                      "n=%zu p50=%.4f%s p90=%.4f%s p%g=%.4f%s "
                      "(%zu beyond) max=%.4f%s",
                      s.n, s.p50, unit.c_str(), s.p90, unit.c_str(),
                      s.tailP, s.tail, unit.c_str(),
                      samplesBeyond(s.n, s.tailP), s.max, unit.c_str());
    } else {
        std::snprintf(buf, sizeof(buf),
                      "n=%zu p50=%.4f%s p90=%.4f%s max=%.4f%s", s.n,
                      s.p50, unit.c_str(), s.p90, unit.c_str(), s.max,
                      unit.c_str());
    }
    return buf;
}

bool
selfTest()
{
    bool ok = true;
    auto expect = [&](bool cond, const char* what) {
        if (!cond) {
            std::printf("selftest FAILED: %s\n", what);
            ok = false;
        }
    };
    auto near = [](double a, double b) { return std::fabs(a - b) < 1e-12; };

    std::vector<double> ten;
    for (int i = 10; i >= 1; --i)
        ten.push_back(i);
    expect(percentile(ten, 50.0) == 5.0, "nearest-rank p50 of 1..10");
    expect(percentile(ten, 90.0) == 9.0, "nearest-rank p90 of 1..10");
    expect(percentile(ten, 100.0) == 10.0, "p100 is the max");
    expect(percentile(ten, 1.0) == 1.0, "p1 of 1..10 is the min");
    expect(percentile({}, 50.0) == 0.0, "empty set");

    // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
    auto q = quartiles(ten);
    expect(near(q[0], 2.75) && near(q[1], 5.5) && near(q[2], 8.25),
           "quartiles of 1..10 match Python");
    // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
    q = quartiles({3.0, 1.0});
    expect(near(q[0], 0.5) && near(q[1], 2.0) && near(q[2], 3.5),
           "quartiles of two samples match Python");
    // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
    q = quartiles({5.0, 1.0, 4.0, 2.0, 3.0});
    expect(near(q[0], 1.5) && near(q[1], 3.0) && near(q[2], 4.5),
           "quartiles of five samples match Python");

    // Ten samples beyond the reported percentile, no fewer.
    expect(samplesBeyond(100, 90.0) == 10, "100 samples: 10 beyond p90");
    expect(reportable(100, 90.0), "p90 reportable at n=100");
    expect(!reportable(99, 90.0), "p90 not reportable at n=99");
    expect(!reportable(999, 99.0), "p99 not reportable at n=999");
    expect(reportable(1000, 99.0), "p99 reportable at n=1000");
    expect(reportable(10000, 99.9), "p99.9 reportable at n=10000");
    expect(highestReportable(19) == 0.0, "nothing reportable at n=19");
    expect(highestReportable(20) == 50.0, "median reportable at n=20");
    expect(highestReportable(5000) == 99.0, "p99 is the top at n=5000");
    expect(highestReportable(20000) == 99.9, "p99.9 at n=20000");

    Summary s = summarize(ten);
    expect(s.n == 10 && s.p50 == 5.0 && s.p90 == 9.0 && s.max == 10.0 &&
               s.tailP == 0.0,
           "summary of 1..10");
    return ok;
}

} // namespace perfbench

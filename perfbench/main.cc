/**
 * @file
 * perfbench — end-to-end benchmark of the ccsa serving and training
 * stack. One invocation runs one workload for a fixed time, checks
 * every answer against a synchronous reference, and prints the
 * metrics; the last line of standard output is one JSON object:
 *
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 *
 * Usage:
 *   perfbench --workload rank_cold|hot_compare|hot_compare_ipc|train
 *             --seed N --seconds S --trace 0|1
 *             [--commit REV] [--work-dir DIR]
 *   perfbench --selftest
 *
 * With --trace 0 the metrics are the end-to-end ones; with --trace 1
 * the run measures once untraced, once traced, replays a sample of
 * the served requests through each layer's public functions, and the
 * metrics are the per-layer ones. See NOTES.md.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include <sys/resource.h>
#include <unistd.h>

#include "bench.hh"
#include "serve/latent_f16_dispatch.hh"
#include "stats.hh"
#include "tensor/matmul_dispatch.hh"

namespace perfbench
{

double
peakRssMb()
{
    struct rusage usage {};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB
}

double
peakRssMbOf(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string key;
    while (in >> key) {
        if (key == "VmHWM:") {
            double kib = 0.0;
            in >> kib;
            return kib / 1024.0;
        }
        std::string rest;
        std::getline(in, rest);
    }
    return 0.0;
}

double
medianOf(std::vector<double> values)
{
    return percentile(std::move(values), 50.0);
}

void
Report::endToEnd(const std::string& name, double value,
                 const std::string& unit)
{
    endToEndMetrics.push_back({name, value, unit});
}

void
Report::layer(const std::string& name, double value,
              const std::string& unit)
{
    layerMetrics.push_back({name, value, unit});
}

void
Report::note(const std::string& line) const
{
    std::printf("  %s\n", line.c_str());
    std::fflush(stdout);
}

void
Report::fail(const std::string& why)
{
    correct = false;
    std::printf("  CHECK FAILED: %s\n", why.c_str());
    std::fflush(stdout);
}

std::int64_t
SpanLog::add(const std::string& name, std::uint64_t request,
             std::int64_t parent, Clock::time_point start,
             Clock::time_point end)
{
    if (!enabled_)
        return -1;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, request, parent, start, end});
    return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::int64_t
SpanLog::open(const std::string& name, std::uint64_t request,
              std::int64_t parent, Clock::time_point start)
{
    return add(name, request, parent, start, start);
}

void
SpanLog::close(std::int64_t index, Clock::time_point end)
{
    if (index < 0)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(index)].end = end;
}

std::map<std::string, SpanLog::Totals>
SpanLog::totals() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> childUs(spans_.size(), 0.0);
    for (const Span& s : spans_)
        if (s.parent >= 0)
            childUs[static_cast<std::size_t>(s.parent)] +=
                usBetween(s.start, s.end);
    std::map<std::string, Totals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        Totals& t = out[spans_[i].name];
        double us = usBetween(spans_[i].start, spans_[i].end);
        ++t.count;
        t.totalUs += us;
        t.selfUs += us - childUs[i];
    }
    return out;
}

bool
SpanLog::write(const std::string& path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        out << "{\"name\": \"" << s.name
            << "\", \"ph\": \"X\", \"pid\": 0, \"tid\": 0, \"ts\": "
            << usBetween(epoch_, s.start)
            << ", \"dur\": " << usBetween(s.start, s.end)
            << ", \"args\": {\"span\": " << i << ", \"parent\": "
            << s.parent << ", \"req\": " << s.request << "}}"
            << (i + 1 == spans_.size() ? "\n" : ",\n");
    }
    out << "]}\n";
    return static_cast<bool>(out);
}

const std::vector<std::pair<std::string, std::string>>&
endToEndMetricNames()
{
    static const std::vector<std::pair<std::string, std::string>> names =
        {
            {"setup_s", "s"},
            {"work_per_s", "1/s"},
            {"light_p50_ms", "ms"},
            {"heavy_p50_ms", "ms"},
        };
    return names;
}

const std::vector<std::pair<std::string, std::string>>&
layerMetricNames()
{
    static const std::vector<std::pair<std::string, std::string>> names =
        {
            {"frontend.parse_us", "us"},
            {"ast.prune_us", "us"},
            {"model.encode_us", "us"},
            {"model.encode_ns_per_node", "ns"},
            {"model.head_us", "us"},
            {"serve.admission_us", "us"},
            {"serve.queue_wait_us", "us"},
            {"serve.coalesce_wait_us", "us"},
            {"serve.engine_encode_us", "us"},
            {"serve.engine_score_us", "us"},
            {"serve.batch_pairs", "count"},
            {"serve.batches", "count"},
            {"serve.digest_us", "us"},
            {"serve.cache.lookup_us", "us"},
            {"serve.cache.hit_ratio", "ratio"},
            {"serve.cache.evictions", "count"},
            {"serve.trees_encoded", "count"},
            {"serve.latent_codec.decode_us", "us"},
            {"ipc.frame_bytes", "bytes"},
            {"ipc.encode_frame_us", "us"},
            {"ipc.decode_reply_us", "us"},
            {"ipc.rpc_residual_us", "us"},
            {"ipc.worker_restarts", "count"},
            {"train.encode_us", "us"},
            {"train.head_loss_us", "us"},
            {"tensor.backward_us", "us"},
            {"nn.optim_step_us", "us"},
            {"dataset.corpus_build_s", "s"},
            {"gen.late_p50_us", "us"},
            {"gen.late_p99_us", "us"},
            {"gen.late_max_us", "us"},
            {"gen.sent", "count"},
            {"gen.succeeded", "count"},
            {"gen.failed", "count"},
            {"gen.refused", "count"},
            {"workload.resident_share", "ratio"},
            {"workload.tree_nodes_p50", "count"},
            {"workload.tree_depth_p50", "count"},
            {"trace.residual_share", "ratio"},
            {"trace.overhead_ratio", "ratio"},
        };
    return names;
}

} // namespace perfbench

namespace
{

using namespace perfbench;

[[noreturn]] void
usage(const char* why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "rank_cold|hot_compare|hot_compare_ipc|train --seed N "
                 "--seconds S --trace 0|1 [--commit REV] "
                 "[--work-dir DIR]\n       perfbench --selftest\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char** argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        std::string key = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + key).c_str());
        std::string value = argv[++i];
        char* end = nullptr;
        if (key == "--workload") {
            args.workload = value;
        } else if (key == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
            if (*end != '\0')
                usage("--seed takes a non-negative integer");
        } else if (key == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
            if (*end != '\0' || !(args.seconds >= 1.0) ||
                args.seconds > 120.0)
                usage("--seconds takes a number in [1, 120]");
        } else if (key == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            args.trace = value == "1";
        } else if (key == "--commit") {
            args.commit = value;
        } else if (key == "--work-dir") {
            args.workDir = value;
        } else {
            usage(("unknown argument " + key).c_str());
        }
    }
    if (args.workload.empty())
        usage("--workload is required");
    return args;
}

/** The ccsa_worker binary ProcessShardedServer will exec: the same
 * lookup as its default (Options::workerPath): $CCSA_WORKER, else
 * next to this executable. */
std::string
workerPath()
{
    const char* env = std::getenv("CCSA_WORKER");
    if (env != nullptr && *env != '\0')
        return env;
    char buf[4096];
    ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0)
        return "ccsa_worker";
    std::string self(buf, static_cast<std::size_t>(n));
    return self.substr(0, self.rfind('/') + 1) + "ccsa_worker";
}

void
printHost(const Args& args)
{
#ifdef NDEBUG
    const bool ndebug = true;
#else
    const bool ndebug = false;
#endif
    std::printf("host: nproc=%ld hardware_concurrency=%u\n",
                ::sysconf(_SC_NPROCESSORS_ONLN),
                std::thread::hardware_concurrency());
    std::printf("build: type=%s ndebug=%d compiler=\"%s\" commit=%s\n",
                PERFBENCH_BUILD_TYPE, ndebug ? 1 : 0, PERFBENCH_COMPILER,
                args.commit.c_str());
    std::printf("worker: %s (%s)\n", workerPath().c_str(),
                ::access(workerPath().c_str(), X_OK) == 0 ? "found"
                                                          : "MISSING");
    std::printf("kernels: matmul=%s f16=%s\n",
                ccsa::kernels::activeKernelName(),
                ccsa::kernels::activeF16KernelName());
    std::printf("workload: %s seed=%llu seconds=%g trace=%d\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);
    std::fflush(stdout);
}

/** The final line: metrics of the requested kind, every name once. */
void
printResult(const Args& args, const Report& report)
{
    const auto& names =
        args.trace ? layerMetricNames() : endToEndMetricNames();
    const auto& measured =
        args.trace ? report.layerMetrics : report.endToEndMetrics;
    std::string json = "{\"correct\": ";
    json += report.correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(report.attempted);
    json += ", \"failed\": " + std::to_string(report.failed);
    json += ", \"metrics\": {";
    bool firstMetric = true;
    for (const auto& [name, unit] : names) {
        double value = 0.0;
        for (const Report::Metric& m : measured)
            if (m.name == name)
                value = m.value;
        if (!std::isfinite(value))
            value = 0.0;
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.9g", value);
        json += (firstMetric ? "\"" : ", \"") + name +
            "\": {\"value\": " + buf + ", \"unit\": \"" + unit + "\"}";
        firstMetric = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char** argv)
{
    if (argc == 2 && std::string(argv[1]) == "--selftest") {
        bool ok = selfTest();
        std::printf("selftest: %s\n", ok ? "ok" : "FAILED");
        return ok ? 0 : 1;
    }
    Args args = parseArgs(argc, argv);
    printHost(args);
#ifndef NDEBUG
    std::fprintf(stderr, "perfbench: refusing to measure a build "
                         "without NDEBUG (build type %s)\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
#endif
    if (!selfTest()) {
        std::fprintf(stderr, "perfbench: statistics self-test failed\n");
        return 1;
    }

    if (args.workload == "hot_compare_ipc" &&
        ::access(workerPath().c_str(), X_OK) != 0) {
        std::fprintf(stderr, "perfbench: ccsa_worker not found at %s\n",
                     workerPath().c_str());
        return 1;
    }

    Report report;
    try {
        if (args.workload == "rank_cold")
            runRankCold(args, report);
        else if (args.workload == "hot_compare")
            runHotCompare(args, report, false);
        else if (args.workload == "hot_compare_ipc")
            runHotCompare(args, report, true);
        else if (args.workload == "train")
            runTrain(args, report);
        else
            usage(("unknown workload " + args.workload).c_str());
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }

    for (const Report::Metric& m : args.trace ? report.layerMetrics
                                              : report.endToEndMetrics)
        std::printf("metric %-30s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    printResult(args, report);
    return report.correct ? 0 : 1;
}

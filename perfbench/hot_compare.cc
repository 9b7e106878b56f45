/**
 * @file
 * hot_compare and hot_compare_ipc: open-loop single-pair comparisons
 * over a pool of 256 digest-distinct codegen trees, all resident
 * after warm-up, in two phases (light: 1,000 pairs/s, heavy: 20,000
 * pairs/s). hot_compare serves through an in-process ShardedServer
 * (2 shards, fp32 cache); hot_compare_ipc through a
 * ProcessShardedServer (2 worker processes, int8 latents).
 *
 * Every request is timed from the moment it was due, not from when
 * the generator got round to sending it. A single collector thread
 * resolves the futures in submission order and stamps completion.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <future>
#include <memory>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "bench.hh"
#include "inputs.hh"
#include "model/predictor.hh"
#include "serve/encoding_cache.hh"
#include "serve/ipc/process_sharded_server.hh"
#include "serve/ipc/wire.hh"
#include "serve/latent_codec.hh"
#include "serve/sharded_server.hh"
#include "serve/trace/trace_recorder.hh"
#include "stats.hh"
#include "tensor/arena.hh"

namespace perfbench
{

namespace
{

using ccsa::Ast;
using ccsa::Engine;
using ccsa::LatentPrecision;
using ccsa::ProcessShardedServer;
using ccsa::Result;
using ccsa::ShardedServer;

constexpr std::size_t kPoolSize = 256;
constexpr double kLightRate = 1000.0;
constexpr double kHeavyRate = 20000.0;
/** Share of --seconds spent in the light phase. */
constexpr double kLightShare = 0.4;
/** A phase is invalid when the generator's p99 lateness exceeds
 * this, or its last send slips this far past the phase end. */
constexpr double kMaxLateP99Us = 10000.0;
constexpr double kMinSendRateShare = 0.95;
/** Served requests replayed layer by layer in a traced run. */
constexpr std::size_t kReplaySamples = 2000;
/** Pairs per warm-up request that makes the pool resident. */
constexpr std::size_t kWarmBatch = 16;
/** Frame header: magic u32, type u8, id u64, length u32. */
constexpr std::size_t kFrameHeaderBytes = 17;

struct PhaseResult
{
    std::string name;
    double rate = 0.0;
    Summary latencyMs;
    Summary lateUs;
    double lateP99Us = 0.0;
    std::uint64_t sent = 0;
    std::uint64_t ok = 0;
    std::uint64_t failed = 0;
    std::uint64_t refused = 0;
    /** Due time of the first request to the last completion, s. */
    double spanS = 0.0;
    bool valid = true;
    std::string invalidWhy;
};

/** One timed request of a phase, kept for checking and replay. */
struct Served
{
    std::uint32_t first = 0;
    std::uint32_t second = 0;
    /** NaN when the request failed or was refused. */
    double prob = 0.0;
};

bool
isRefusal(const ccsa::Status& s)
{
    return s.code() == ccsa::StatusCode::ResourceExhausted ||
        s.code() == ccsa::StatusCode::Unavailable;
}

/** Run one open-loop phase against `server`. */
template <class Server>
PhaseResult
runPhase(Server& server, const std::vector<Ast>& pool,
         const std::vector<Arrival>& schedule, const std::string& name,
         double rate, double phaseSeconds, std::vector<Served>& served,
         SpanLog& log, std::uint64_t requestBase)
{
    const std::size_t n = schedule.size();
    std::vector<std::future<Result<double>>> futures(n);
    std::vector<Clock::time_point> sentAt(n), submittedAt(n);
    std::vector<double> latencyMs(n, 0.0), lateUs(n, 0.0);
    std::vector<int> outcome(n, 0); // 0 ok, 1 failed, 2 refused
    std::vector<double> probs(n, 0.0);
    std::atomic<std::size_t> published{0};
    Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
    Clock::time_point lastDone = start;

    std::thread collector([&] {
        for (std::size_t i = 0; i < n; ++i) {
            // Sleep rather than spin while the generator is ahead: a
            // reply takes longer than the nap, so stamps stay exact.
            while (published.load(std::memory_order_acquire) <= i)
                std::this_thread::sleep_for(std::chrono::microseconds(50));
            Result<double> r = futures[i].get();
            Clock::time_point done = Clock::now();
            Clock::time_point due =
                start + std::chrono::nanoseconds(schedule[i].dueNs);
            latencyMs[i] = usBetween(due, done) / 1000.0;
            lastDone = done;
            if (r.isOk()) {
                probs[i] = r.value();
            } else {
                outcome[i] = isRefusal(r.status()) ? 2 : 1;
                probs[i] = std::nan("");
            }
            if (log.enabled()) {
                std::uint64_t id = requestBase + i;
                std::int64_t root = log.add("request", id, -1, due, done);
                log.add("gen.late", id, root, due, sentAt[i]);
                log.add("serve.submit", id, root, sentAt[i],
                        submittedAt[i]);
                log.add("serve.wait", id, root, submittedAt[i], done);
            }
        }
    });

    for (std::size_t i = 0; i < n; ++i) {
        Clock::time_point due =
            start + std::chrono::nanoseconds(schedule[i].dueNs);
        if (due - Clock::now() > std::chrono::microseconds(300))
            std::this_thread::sleep_until(due -
                                          std::chrono::microseconds(200));
        while (Clock::now() < due) {
        }
        sentAt[i] = Clock::now();
        lateUs[i] = usBetween(due, sentAt[i]);
        futures[i] = server.submitCompare(pool[schedule[i].first],
                                          pool[schedule[i].second]);
        submittedAt[i] = Clock::now();
        published.store(i + 1, std::memory_order_release);
    }
    collector.join();

    PhaseResult out;
    out.name = name;
    out.rate = rate;
    out.sent = n;
    std::vector<double> okLatency;
    okLatency.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        served.push_back({schedule[i].first, schedule[i].second,
                          probs[i]});
        if (outcome[i] == 0) {
            ++out.ok;
            okLatency.push_back(latencyMs[i]);
        } else if (outcome[i] == 1) {
            ++out.failed;
        } else {
            ++out.refused;
        }
    }
    // A failure misses every latency limit: it enters the
    // distribution as +inf, so it can only push percentiles up.
    for (std::uint64_t k = 0; k < out.failed + out.refused; ++k)
        okLatency.push_back(INFINITY);
    out.latencyMs = summarize(okLatency);
    out.lateUs = summarize(lateUs);
    out.spanS = n == 0 ? 0.0 : secondsBetween(start, lastDone);
    double lastSendS =
        n == 0 ? 0.0 : secondsBetween(start, sentAt[n - 1]);
    out.lateP99Us = percentile(lateUs, 99.0);
    if (reportable(n, 99.0) && out.lateP99Us > kMaxLateP99Us) {
        out.valid = false;
        out.invalidWhy = "generator p99 lateness above bound";
    }
    if (phaseSeconds / std::max(phaseSeconds, lastSendS) <
        kMinSendRateShare) {
        out.valid = false;
        out.invalidWhy = "achieved send rate below offered rate";
    }
    return out;
}

void
notePhase(const Report& report, const PhaseResult& p)
{
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "phase %s: offered %.0f/s sent=%llu succeeded=%llu "
                  "failed=%llu refused=%llu%s",
                  p.name.c_str(), p.rate,
                  static_cast<unsigned long long>(p.sent),
                  static_cast<unsigned long long>(p.ok),
                  static_cast<unsigned long long>(p.failed),
                  static_cast<unsigned long long>(p.refused),
                  p.valid ? "" : (" INVALID: " + p.invalidWhy).c_str());
    report.note(buf);
    report.note("  latency from due time: " + describe(p.latencyMs, "ms"));
    report.note("  generator lateness:    " + describe(p.lateUs, "us"));
}

/** Everything one measured server instance needs. */
template <class Server>
struct Instance
{
    std::shared_ptr<ccsa::ComparativePredictor> model;
    std::vector<Ast> pool;
    std::unique_ptr<Server> server;
};

std::unique_ptr<ShardedServer>
makeServer(std::shared_ptr<ccsa::ComparativePredictor> model,
           const Args&, ccsa::TraceRecorder* trace, ShardedServer*)
{
    return std::make_unique<ShardedServer>(
        model, Engine::Options(),
        ShardedServer::Options().withNumShards(2).withTrace(trace));
}

std::unique_ptr<ProcessShardedServer>
makeServer(std::shared_ptr<ccsa::ComparativePredictor> model,
           const Args& args, ccsa::TraceRecorder*, ProcessShardedServer*)
{
    return std::make_unique<ProcessShardedServer>(
        model, ProcessShardedServer::Options()
                   .withNumShards(2)
                   .withCachePerWorker(4 * kPoolSize)
                   .withLatentPrecision(LatentPrecision::kInt8)
                   .withCheckpointDir(args.workDir));
}

/** Inputs, model, server and warm-up: the timed set-up. */
template <class Server>
Instance<Server>
setUp(const Args& args, ccsa::TraceRecorder* trace)
{
    Instance<Server> inst;
    inst.pool = distinctPool(kPoolSize, args.seed);
    inst.model = std::make_shared<ccsa::ComparativePredictor>(
        ccsa::EncoderConfig{}, args.seed);
    inst.server = makeServer(inst.model, args, trace,
                             static_cast<Server*>(nullptr));

    // Make every pool tree resident in small batches, then run a
    // burst of single requests so threads, arenas and sockets are warm.
    for (std::size_t lo = 0; lo < kPoolSize; lo += kWarmBatch) {
        std::vector<Engine::PairRequest> cover;
        for (std::size_t i = lo; i < lo + kWarmBatch && i < kPoolSize; ++i)
            cover.push_back(
                {&inst.pool[i], &inst.pool[(i + 1) % kPoolSize]});
        Result<std::vector<double>> warm =
            inst.server->submitCompareMany(cover).get();
        if (!warm.isOk())
            throw std::runtime_error("warm-up failed: " +
                                     warm.status().toString());
    }
    std::vector<std::future<Result<double>>> burst;
    for (std::size_t i = 0; i < 2000; ++i)
        burst.push_back(inst.server->submitCompare(
            inst.pool[i % kPoolSize], inst.pool[(i * 7 + 3) % kPoolSize]));
    for (auto& f : burst)
        if (!f.get().isOk())
            throw std::runtime_error("warm-up request failed");
    return inst;
}

/** Both phases against one instance. */
template <class Server>
std::vector<PhaseResult>
measure(Instance<Server>& inst, const Args& args,
        std::vector<Served>& served, SpanLog& log)
{
    ccsa::Rng rng(args.seed, 0xA11CE);
    double lightS = args.seconds * kLightShare;
    double heavyS = args.seconds - lightS;
    std::vector<Arrival> light =
        poissonSchedule(kLightRate, lightS, kPoolSize, rng);
    std::vector<Arrival> heavy =
        poissonSchedule(kHeavyRate, heavyS, kPoolSize, rng);
    std::vector<PhaseResult> phases;
    phases.push_back(runPhase(*inst.server, inst.pool, light, "light",
                              kLightRate, lightS, served, log, 0));
    phases.push_back(runPhase(*inst.server, inst.pool, heavy, "heavy",
                              kHeavyRate, heavyS, served, log,
                              light.size()));
    return phases;
}

/** Bitwise check of every served probability against a synchronous
 * Engine::compareMany on the same weights and cache precision.
 * Returns the number of mismatching requests. */
std::uint64_t
checkServed(const std::shared_ptr<ccsa::ComparativePredictor>& model,
            const std::vector<Ast>& pool, LatentPrecision precision,
            const std::vector<Served>& served)
{
    Engine ref(model, Engine::Options()
                          .withThreads(1)
                          .withCacheCapacity(4 * kPoolSize)
                          .withLatentPrecision(precision));
    std::uint64_t bad = 0;
    const std::size_t chunk = 4096;
    for (std::size_t lo = 0; lo < served.size(); lo += chunk) {
        std::size_t hi = std::min(served.size(), lo + chunk);
        std::vector<Engine::PairRequest> pairs;
        for (std::size_t i = lo; i < hi; ++i)
            pairs.push_back({&pool[served[i].first],
                             &pool[served[i].second]});
        Result<std::vector<double>> probs = ref.compareMany(pairs);
        if (!probs.isOk())
            throw std::runtime_error("reference compareMany failed: " +
                                     probs.status().toString());
        for (std::size_t i = lo; i < hi; ++i)
            if (!std::isnan(served[i].prob) &&
                !sameBits(served[i].prob, probs.value()[i - lo]))
                ++bad;
    }
    return bad;
}

/** Mean duration per server trace phase, plus batch shape. */
struct ServerSpans
{
    std::map<std::string, double> meanUs;
    std::uint64_t chains = 0;
};

ServerSpans
serverSpans(const ccsa::TraceRecorder& trace)
{
    ServerSpans out;
    std::map<std::string, std::pair<double, std::uint64_t>> sums;
    std::unordered_set<std::uint64_t> chains;
    for (const auto& s : trace.spans()) {
        auto& [sum, count] = sums[ccsa::tracePhaseName(s.phase)];
        sum += static_cast<double>(s.durUs);
        ++count;
        chains.insert(s.chain);
    }
    for (const auto& [name, sc] : sums)
        out.meanUs[name] = sc.first / static_cast<double>(sc.second);
    out.chains = chains.size();
    return out;
}

/** Mean pairs per executed batch between two stats snapshots. */
template <class Stats>
double
pairsPerBatchOf(const Stats& before, const Stats& after)
{
    double batches = static_cast<double>(after.aggregate.batches -
                                         before.aggregate.batches);
    double pairs = static_cast<double>(after.aggregate.pairsServed -
                                       before.aggregate.pairsServed);
    return batches > 0 ? pairs / batches : 0.0;
}

/** Replays a sample of served requests through each layer's public
 * functions, timing every call and checking the probabilities.
 * Returns the replayed compute and codec time of one request, us. */
template <class Server>
double
replay(Instance<Server>& inst, const std::vector<Served>& served,
       LatentPrecision precision, bool ipc, double batchLatencyUs,
       double pairsPerBatch, Report& report)
{
    const auto& model = *inst.model;

    // model: encode every pool tree on its own, no tape.
    std::vector<ccsa::Tensor> latents(kPoolSize);
    double encodeUs = 0.0;
    double nodes = 0.0;
    for (std::size_t i = 0; i < kPoolSize; ++i) {
        Clock::time_point t0 = Clock::now();
        {
            ccsa::InferenceScope scope;
            std::vector<ccsa::ag::Var> z = model.encodeMany({&inst.pool[i]});
            latents[i] = z[0].value().toOwned();
        }
        encodeUs += usBetween(t0, Clock::now());
        nodes += inst.pool[i].size();
    }
    report.layer("model.encode_us", encodeUs / kPoolSize, "us");
    report.layer("model.encode_ns_per_node", encodeUs * 1000.0 / nodes,
                 "ns");

    // serve cache / codec: what a hit costs. A cache of the served
    // precision holds the pool, as the server's did after warm-up.
    if (precision != LatentPrecision::kFp32) {
        double decodeUs = 0.0;
        for (const ccsa::Tensor& latent : latents) {
            ccsa::StoredLatent stored = ccsa::encodeLatent(latent, precision);
            Clock::time_point t0 = Clock::now();
            ccsa::Tensor decoded = ccsa::decodeLatent(stored);
            decodeUs += usBetween(t0, Clock::now());
        }
        report.layer("serve.latent_codec.decode_us", decodeUs / kPoolSize,
                     "us");
    }
    ccsa::ShardedEncodingCache cache(2, 4 * kPoolSize, precision);
    const std::uint64_t ns = 1;
    for (std::size_t i = 0; i < kPoolSize; ++i)
        cache.insert(ccsa::EncodingKey{ns, ccsa::digestAst(inst.pool[i])},
                     latents[i]);

    std::size_t stride = std::max<std::size_t>(1, served.size() /
                                                      kReplaySamples);
    double digestUs = 0.0, lookupUs = 0.0, headUs = 0.0;
    double frameUs = 0.0, replyUs = 0.0, frameBytes = 0.0;
    std::size_t samples = 0, mismatches = 0;
    for (std::size_t k = 0; k < served.size(); k += stride) {
        const Served& s = served[k];
        if (std::isnan(s.prob))
            continue;
        ++samples;
        Clock::time_point t0 = Clock::now();
        ccsa::AstDigest da = ccsa::digestAst(inst.pool[s.first]);
        ccsa::AstDigest db = ccsa::digestAst(inst.pool[s.second]);
        Clock::time_point t1 = Clock::now();
        ccsa::Tensor la, lb;
        bool hit = cache.lookup(ccsa::EncodingKey{ns, da}, &la) &&
            cache.lookup(ccsa::EncodingKey{ns, db}, &lb);
        Clock::time_point t2 = Clock::now();
        if (!hit) {
            ++mismatches;
            continue;
        }
        double prob = 0.0;
        {
            ccsa::InferenceScope scope;
            ccsa::ag::Var z = model.logitFromEncodings(
                ccsa::ag::constant(la), ccsa::ag::constant(lb));
            prob = 1.0 / (1.0 + std::exp(-z.value().at(0, 0)));
        }
        Clock::time_point t3 = Clock::now();
        digestUs += usBetween(t0, t1) / 2.0;
        lookupUs += usBetween(t1, t2) / 2.0;
        headUs += usBetween(t2, t3);
        if (!sameBits(prob, s.prob))
            ++mismatches;
        if (ipc) {
            // The warm hot path: a zero-tree encode frame plus a
            // digest-pair compare frame out, one compare reply back.
            Clock::time_point f0 = Clock::now();
            auto encodeFrame = ccsa::ipc::encodeEncodeRequest({});
            auto compareFrame =
                ccsa::ipc::encodeCompareDigestsRequest({{da, db}});
            Clock::time_point f1 = Clock::now();
            auto reply = ccsa::ipc::encodeCompareReply(
                Result<std::vector<double>>(std::vector<double>{prob}));
            Clock::time_point f2 = Clock::now();
            Result<std::vector<double>> decoded =
                ccsa::Status::internal("unset");
            ccsa::Status st = ccsa::ipc::decodeCompareReply(reply, &decoded);
            Clock::time_point f3 = Clock::now();
            frameUs += usBetween(f0, f1);
            replyUs += usBetween(f2, f3);
            frameBytes += static_cast<double>(
                encodeFrame.size() + compareFrame.size() + reply.size() +
                3 * kFrameHeaderBytes);
            if (!st.isOk() || !decoded.isOk() ||
                !sameBits(decoded.value()[0], prob))
                ++mismatches;
        }
    }
    double n = static_cast<double>(std::max<std::size_t>(1, samples));
    report.layer("serve.digest_us", digestUs / n, "us");
    report.layer("serve.cache.lookup_us", lookupUs / n, "us");
    report.layer("model.head_us", headUs / n, "us");
    if (ipc) {
        report.layer("ipc.frame_bytes", frameBytes / n, "bytes");
        report.layer("ipc.encode_frame_us", frameUs / n, "us");
        report.layer("ipc.decode_reply_us", replyUs / n, "us");
        // Batch latency minus the replayed compute and codec work of
        // an average batch: socket round trips, wake-ups, queueing.
        double perPair = 2.0 * (digestUs / n + lookupUs / n) + headUs / n;
        double residual = batchLatencyUs - pairsPerBatch * perPair -
            frameUs / n - replyUs / n;
        report.layer("ipc.rpc_residual_us", residual, "us");
    }
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "replay: %zu served requests re-scored layer by layer, "
                  "%zu mismatches",
                  samples, mismatches);
    report.note(buf);
    if (mismatches > 0)
        report.fail("replayed probabilities differ from served ones");
    return 2.0 * (digestUs + lookupUs) / n + headUs / n +
        (frameUs + replyUs) / n;
}

template <class Server>
void
runWorkload(const Args& args, Report& report, bool ipc)
{
    const LatentPrecision precision =
        ipc ? LatentPrecision::kInt8 : LatentPrecision::kFp32;

    // Set up kSetupRepeats times; the last instance is measured.
    std::vector<double> setups;
    Instance<Server> inst;
    for (int r = 0; r < kSetupRepeats; ++r) {
        inst = Instance<Server>();
        Clock::time_point t0 = Clock::now();
        inst = setUp<Server>(args, nullptr);
        setups.push_back(secondsBetween(t0, Clock::now()));
    }

    auto before = inst.server->stats();
    std::vector<Served> served;
    SpanLog off(false);
    std::vector<PhaseResult> phases = measure(inst, args, served, off);
    auto after = inst.server->stats();

    double peakMb = peakRssMb();
    std::uint64_t restarts = 0;
    if constexpr (std::is_same_v<Server, ProcessShardedServer>) {
        for (const auto& h : after.health) {
            restarts += h.restarts;
            double workerMb = h.pid > 0 ? peakRssMbOf(h.pid) : 0.0;
            report.note("worker pid " + std::to_string(h.pid) +
                        " peak rss " + std::to_string(workerMb) + " MB");
            peakMb += workerMb;
        }
    }

    std::uint64_t ok = 0, failed = 0, refused = 0, sent = 0;
    double workS = 0.0;
    bool valid = true;
    for (const PhaseResult& p : phases) {
        notePhase(report, p);
        ok += p.ok;
        failed += p.failed;
        refused += p.refused;
        sent += p.sent;
        workS += p.spanS;
        valid = valid && p.valid;
    }
    std::uint64_t mismatches =
        checkServed(inst.model, inst.pool, precision, served);
    report.attempted = sent;
    report.failed = failed + refused + mismatches;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "correctness: %llu served probabilities checked "
                  "bitwise against Engine::compareMany (%s), %llu "
                  "mismatches",
                  static_cast<unsigned long long>(ok),
                  ccsa::latentPrecisionName(precision),
                  static_cast<unsigned long long>(mismatches));
    report.note(buf);
    if (mismatches > 0)
        report.fail("served probabilities differ from Engine::compareMany");
    if (!valid)
        report.fail("an open-loop phase is invalid (see above)");
    if (restarts > 0)
        report.fail("worker restarts during the run: " +
                    std::to_string(restarts));

    double pairsPerBatch = pairsPerBatchOf(before, after);
    std::vector<double> nodes, depth;
    for (const Ast& t : inst.pool) {
        nodes.push_back(t.size());
        depth.push_back(t.depth());
    }
    std::snprintf(buf, sizeof(buf),
                  "workload: pool=%zu trees resident at submit=100%% "
                  "(warmed), nodes %s, depth p50=%.0f p90=%.0f, "
                  "mean pairs per batch=%.2f",
                  kPoolSize, describe(summarize(nodes), "").c_str(),
                  percentile(depth, 50), percentile(depth, 90),
                  pairsPerBatch);
    report.note(buf);
    double errorRate =
        static_cast<double>(report.failed) / static_cast<double>(sent);
    std::snprintf(buf, sizeof(buf), "error_rate=%.6f peak_rss_mb=%.1f "
                                    "worker_restarts=%llu",
                  errorRate, peakMb,
                  static_cast<unsigned long long>(restarts));
    report.note(buf);

    report.endToEnd("setup_s", medianOf(setups), "s");
    report.endToEnd("work_per_s", static_cast<double>(ok) / workS, "1/s");
    report.endToEnd("light_p50_ms", phases[0].latencyMs.p50, "ms");
    report.endToEnd("heavy_p50_ms", phases[1].latencyMs.p50, "ms");

    if (!args.trace)
        return;

    // ------------------------------------------------ traced run
    inst = Instance<Server>();
    ccsa::TraceRecorder recorder(1u << 21);
    Instance<Server> traced = setUp<Server>(args, &recorder);
    recorder.clear();
    SpanLog log(true);
    std::vector<Served> tracedServed;
    auto tBefore = traced.server->stats();
    std::vector<PhaseResult> tPhases =
        measure(traced, args, tracedServed, log);
    auto tAfter = traced.server->stats();
    report.note("traced run:");
    for (const PhaseResult& p : tPhases)
        notePhase(report, p);
    std::uint64_t tMismatch =
        checkServed(traced.model, traced.pool, precision, tracedServed);
    if (tMismatch > 0)
        report.fail("traced run served wrong probabilities");

    std::map<std::string, SpanLog::Totals> totals = log.totals();
    double requests = static_cast<double>(totals["request"].count);
    double e2eUs = totals["request"].totalUs / requests;
    double lateUs = totals["gen.late"].selfUs / requests;
    double submitUs = totals["serve.submit"].selfUs / requests;
    double waitUs = totals["serve.wait"].selfUs / requests;
    ServerSpans spans = serverSpans(recorder);
    double accounted = lateUs;
    std::snprintf(buf, sizeof(buf),
                  "self time per request: e2e=%.2fus gen.late=%.2fus "
                  "serve.submit=%.2fus serve.wait=%.2fus",
                  e2eUs, lateUs, submitUs, waitUs);
    report.note(buf);
    if (!ipc) {
        // Server spans tile submit entry -> score end of each request.
        const char* layers[][2] = {
            {"admission", "serve.admission_us"},
            {"queue", "serve.queue_wait_us"},
            {"coalesce", "serve.coalesce_wait_us"},
            {"encode", "serve.engine_encode_us"},
            {"score", "serve.engine_score_us"}};
        for (const auto& l : layers) {
            double us = spans.meanUs[l[0]];
            report.layer(l[1], us, "us");
            accounted += us;
            std::snprintf(buf, sizeof(buf), "  server %-10s %.2fus",
                          l[0], us);
            report.note(buf);
        }
    } else {
        // No server spans cross the process boundary: the replay
        // splits the wait into compute and codec time; the rest of it
        // (socket round trips, queueing, coalescing) is residual.
        double batchLatencyUs = tAfter.aggregate.latencyMeanMs * 1000.0;
        double replayedUs = replay(traced, tracedServed, precision, ipc,
                                   batchLatencyUs, pairsPerBatchOf(tBefore, tAfter),
                                   report);
        accounted += submitUs + replayedUs;
        std::snprintf(buf, sizeof(buf),
                      "  replayed compute+codec %.2fus of serve.wait",
                      replayedUs);
        report.note(buf);
    }
    double residual = e2eUs - accounted;
    report.layer("trace.residual_share", residual / e2eUs, "ratio");
    std::snprintf(buf, sizeof(buf),
                  "residual (e2e minus layers) = %.2fus (%.1f%% of e2e)",
                  residual, 100.0 * residual / e2eUs);
    report.note(buf);
    report.layer("trace.overhead_ratio",
                 tPhases[1].latencyMs.p50 / phases[1].latencyMs.p50,
                 "ratio");
    std::snprintf(buf, sizeof(buf),
                  "tracing overhead (traced/untraced): light_p50 %.3f "
                  "light_p90 %.3f heavy_p50 %.3f heavy_p90 %.3f",
                  tPhases[0].latencyMs.p50 / phases[0].latencyMs.p50,
                  tPhases[0].latencyMs.p90 / phases[0].latencyMs.p90,
                  tPhases[1].latencyMs.p50 / phases[1].latencyMs.p50,
                  tPhases[1].latencyMs.p90 / phases[1].latencyMs.p90);
    report.note(buf);

    double tBatches = static_cast<double>(tAfter.aggregate.batches -
                                          tBefore.aggregate.batches);
    report.layer("serve.batches", tBatches, "count");
    report.layer("serve.batch_pairs", pairsPerBatchOf(tBefore, tAfter),
                 "count");
    const auto& e0 = tBefore.aggregate.engine;
    const auto& e1 = tAfter.aggregate.engine;
    double hits = static_cast<double>(e1.cacheHits - e0.cacheHits);
    double misses = static_cast<double>(e1.cacheMisses - e0.cacheMisses);
    // The IPC parent sees no worker cache counters; every served tree
    // was made resident by the warm-up, which the replay confirms.
    report.layer("serve.cache.hit_ratio",
                 ipc ? 1.0 : (hits + misses > 0 ? hits / (hits + misses)
                                                : 0.0),
                 "ratio");
    report.layer("serve.cache.evictions",
                 static_cast<double>(e1.cacheEvictions - e0.cacheEvictions),
                 "count");
    report.layer("serve.trees_encoded",
                 static_cast<double>(e1.treesEncoded - e0.treesEncoded),
                 "count");
    std::uint64_t tRestarts = 0;
    if constexpr (std::is_same_v<Server, ProcessShardedServer>)
        for (const auto& h : tAfter.health)
            tRestarts += h.restarts;
    report.layer("ipc.worker_restarts", static_cast<double>(tRestarts),
                 "count");

    std::vector<double> late;
    std::uint64_t tOk = 0, tFailed = 0, tRefused = 0, tSent = 0;
    for (const PhaseResult& p : tPhases) {
        tOk += p.ok;
        tFailed += p.failed;
        tRefused += p.refused;
        tSent += p.sent;
    }
    // Lateness over both phases of the untraced run.
    report.layer("gen.late_p50_us", phases[1].lateUs.p50, "us");
    report.layer("gen.late_p99_us", phases[1].lateP99Us, "us");
    report.layer("gen.late_max_us",
                 std::max(phases[0].lateUs.max, phases[1].lateUs.max), "us");
    report.layer("gen.sent", static_cast<double>(tSent), "count");
    report.layer("gen.succeeded", static_cast<double>(tOk), "count");
    report.layer("gen.failed", static_cast<double>(tFailed), "count");
    report.layer("gen.refused", static_cast<double>(tRefused), "count");
    report.layer("workload.resident_share", 1.0, "ratio");
    report.layer("workload.tree_nodes_p50", percentile(nodes, 50), "count");
    report.layer("workload.tree_depth_p50", percentile(depth, 50), "count");

    if (!ipc)
        replay(traced, tracedServed, precision, ipc, 0.0,
               pairsPerBatchOf(tBefore, tAfter), report);

    std::string path = args.workDir + "/trace-" + args.workload + ".json";
    if (log.write(path))
        report.note("client spans written to " + path);
}

} // namespace

void
runHotCompare(const Args& args, Report& report, bool ipc)
{
    if (ipc)
        runWorkload<ProcessShardedServer>(args, report, true);
    else
        runWorkload<ShardedServer>(args, report, false);
}

} // namespace perfbench

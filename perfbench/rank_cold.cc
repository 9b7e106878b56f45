/**
 * @file
 * rank_cold: closed-loop ranking of structurally novel candidates.
 * Each request is six composed candidate programs sent as source
 * text; the client parses them with Engine::parseSource and ranks
 * them with ShardedServer::submitRank (2 shards x 1 thread, library
 * defaults, fp32 cache). Almost no candidate has been seen before,
 * so parsing and the no-grad tree-LSTM encode do most of the work.
 * The light phase runs one client, the heavy phase two.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_set>

#include "bench.hh"
#include "frontend/parser.hh"
#include "inputs.hh"
#include "model/predictor.hh"
#include "serve/encoding_cache.hh"
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
using ccsa::Result;
using ccsa::ShardedServer;

constexpr std::size_t kCandidates = 6;
constexpr double kLightShare = 0.4;
constexpr std::size_t kWarmupRequests = 8;
/** Served rankings replayed layer by layer in a traced run. */
constexpr std::size_t kReplaySamples = 100;

/** One served request. Its inputs are not kept: request i is the
 * composer's i-th batch after the warm-up, so checks regenerate them
 * and memory does not grow with throughput. */
struct RankRequest
{
    std::vector<Engine::RankedCandidate> ranking;
    double latencyMs = 0.0;
    bool done = false;
    bool ok = false;
    int phase = 0;
    std::uint64_t id = 0;
};

struct Instance
{
    std::shared_ptr<ccsa::ComparativePredictor> model;
    std::unique_ptr<ShardedServer> server;
    /** Request i is the composer's i-th batch of candidates after the
     * warm-up, made untimed by the client that takes index i. */
    std::unique_ptr<CandidateComposer> composer;
    std::mutex composerMutex;
    std::deque<RankRequest> requests;
};

void
setUp(Instance& inst, const Args& args, ccsa::TraceRecorder* trace)
{
    inst.composer = std::make_unique<CandidateComposer>(args.seed);
    CandidateComposer& composer = *inst.composer;
    inst.model = std::make_shared<ccsa::ComparativePredictor>(
        ccsa::EncoderConfig{}, args.seed);
    inst.server = std::make_unique<ShardedServer>(
        inst.model, Engine::Options(),
        ShardedServer::Options().withNumShards(2).withTrace(trace));

    // Warm-up on candidates the measured requests never use.
    for (std::size_t w = 0; w < kWarmupRequests; ++w) {
        std::vector<Ast> trees;
        for (std::size_t c = 0; c < kCandidates; ++c) {
            Result<Ast> t = Engine::parseSource(composer.next());
            if (!t.isOk())
                throw std::runtime_error("warm-up parse failed: " +
                                         t.status().toString());
            trees.push_back(std::move(t.value()));
        }
        std::vector<const Ast*> ptrs;
        for (const Ast& t : trees)
            ptrs.push_back(&t);
        if (!inst.server->submitRank(ptrs).get().isOk())
            throw std::runtime_error("warm-up ranking failed");
    }
}

/** The next batch of candidate sources from `composer`. */
std::vector<std::string>
nextSources(CandidateComposer& composer)
{
    std::vector<std::string> sources;
    for (std::size_t c = 0; c < kCandidates; ++c)
        sources.push_back(composer.next());
    return sources;
}

/** A composer positioned at request 0, for regenerating inputs. */
std::unique_ptr<CandidateComposer>
replayComposer(const Args& args)
{
    auto composer = std::make_unique<CandidateComposer>(args.seed);
    for (std::size_t w = 0; w < kWarmupRequests; ++w)
        nextSources(*composer);
    return composer;
}

/** Parse a request's sources (they are known to parse). */
std::vector<Ast>
parseAll(const std::vector<std::string>& sources)
{
    std::vector<Ast> trees;
    for (const std::string& source : sources)
        trees.push_back(ccsa::parseAndPrune(source));
    return trees;
}

/** One closed-loop request; parse and rank, spans when traced. */
void
serveOne(Instance& inst, RankRequest& r,
         const std::vector<std::string>& sources, SpanLog& log)
{
    const std::uint64_t id = r.id;
    Clock::time_point t0 = Clock::now();
    std::int64_t root = log.open("request", id, -1, t0);
    std::vector<Ast> trees;
    r.ok = true;
    for (const std::string& source : sources) {
        if (!log.enabled()) {
            Result<Ast> tree = Engine::parseSource(source);
            if (!tree.isOk()) {
                r.ok = false;
                break;
            }
            trees.push_back(std::move(tree.value()));
            continue;
        }
        // Traced: the two halves of Engine::parseSource, each timed.
        Ast full;
        try {
            ScopedSpan span(log, "frontend.parse", id, root);
            full = ccsa::parseSource(source);
        } catch (const std::exception&) {
            r.ok = false;
            break;
        }
        ScopedSpan span(log, "ast.prune", id, root);
        trees.push_back(ccsa::pruneToFunctions(full));
    }
    if (r.ok) {
        std::vector<const Ast*> ptrs;
        for (const Ast& t : trees)
            ptrs.push_back(&t);
        ScopedSpan span(log, "serve.submit_get", id, root);
        Result<std::vector<Engine::RankedCandidate>> ranking =
            inst.server->submitRank(ptrs).get();
        if (ranking.isOk())
            r.ranking = std::move(ranking.value());
        else
            r.ok = false;
    }
    Clock::time_point t1 = Clock::now();
    log.close(root, t1);
    r.latencyMs = usBetween(t0, t1) / 1000.0;
    r.done = true;
}

struct PhaseResult
{
    Summary latencyMs;
    std::uint64_t attempted = 0;
    std::uint64_t ok = 0;
    double seconds = 0.0;
};

PhaseResult
runPhase(Instance& inst, int clients, double seconds, int phase,
         SpanLog& log)
{
    Clock::time_point start = Clock::now();
    Clock::time_point end = start + std::chrono::duration_cast<
                                        Clock::duration>(
                                        std::chrono::duration<double>(
                                            seconds));
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&] {
            while (Clock::now() < end) {
                RankRequest* r = nullptr;
                std::vector<std::string> sources;
                {
                    std::lock_guard<std::mutex> lock(inst.composerMutex);
                    r = &inst.requests.emplace_back();
                    r->phase = phase;
                    r->id = inst.requests.size() - 1;
                    sources = nextSources(*inst.composer);
                }
                serveOne(inst, *r, sources, log);
            }
        });
    }
    for (std::thread& t : threads)
        t.join();

    PhaseResult out;
    out.seconds = secondsBetween(start, Clock::now());
    std::vector<double> latency;
    for (const RankRequest& r : inst.requests) {
        if (!r.done || r.phase != phase)
            continue;
        ++out.attempted;
        if (r.ok) {
            ++out.ok;
            latency.push_back(r.latencyMs);
        } else {
            latency.push_back(INFINITY);
        }
    }
    out.latencyMs = summarize(latency);
    return out;
}

std::vector<PhaseResult>
measure(Instance& inst, const Args& args, SpanLog& log)
{
    double lightS = args.seconds * kLightShare;
    std::vector<PhaseResult> phases;
    phases.push_back(runPhase(inst, 1, lightS, 1, log));
    phases.push_back(runPhase(inst, 2, args.seconds - lightS, 2, log));
    return phases;
}

bool
sameRanking(const std::vector<Engine::RankedCandidate>& a,
            const std::vector<Engine::RankedCandidate>& b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i].index != b[i].index || a[i].wins != b[i].wins ||
            !sameBits(a[i].meanProbFaster, b[i].meanProbFaster))
            return false;
    return true;
}

/** Every served ranking against Engine::rank on the same weights.
 * Also collects the shape and novelty of the candidate trees. */
struct CheckResult
{
    std::uint64_t mismatches = 0;
    std::uint64_t trees = 0;
    std::uint64_t repeats = 0;
    std::vector<double> nodes;
    std::vector<double> depth;
};

CheckResult
checkRankings(const Instance& inst, const Args& args)
{
    Engine ref(inst.model, Engine::Options().withThreads(4));
    auto composer = replayComposer(args);
    std::unordered_set<ccsa::AstDigest, ccsa::AstDigestHash> seen;
    CheckResult out;
    for (const RankRequest& r : inst.requests) {
        std::vector<Ast> trees = parseAll(nextSources(*composer));
        if (!r.done || !r.ok)
            continue;
        std::vector<const Ast*> ptrs;
        for (const Ast& t : trees) {
            ptrs.push_back(&t);
            ++out.trees;
            out.nodes.push_back(t.size());
            out.depth.push_back(t.depth());
            if (!seen.insert(ccsa::digestAst(t)).second)
                ++out.repeats;
        }
        Result<std::vector<Engine::RankedCandidate>> expect = ref.rank(ptrs);
        if (!expect.isOk() || !sameRanking(expect.value(), r.ranking))
            ++out.mismatches;
    }
    return out;
}

void
notePhase(const Report& report, const char* name, int clients,
          const PhaseResult& p)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "phase %s: %d client(s), closed loop, %llu rankings in "
                  "%.2fs (%.1f/s)",
                  name, clients, static_cast<unsigned long long>(p.ok),
                  p.seconds, static_cast<double>(p.ok) / p.seconds);
    report.note(buf);
    report.note("  latency source->ranking: " +
                describe(p.latencyMs, "ms"));
}

/** Replay sampled rankings through digest, lookup, encode and head. */
void
replay(Instance& inst, const Args& args, Report& report)
{
    const auto& model = *inst.model;
    std::uint64_t ns = inst.server->shardEngine(0).modelVersion()->id;
    double digestUs = 0, lookupUs = 0, encodeUs = 0, headUs = 0;
    double nodes = 0, trees = 0, pairs = 0;
    std::size_t samples = 0, mismatches = 0;
    std::size_t served = 0;
    for (const RankRequest& r : inst.requests)
        served += r.done && r.ok;
    std::size_t stride = std::max<std::size_t>(1, served / kReplaySamples);
    std::size_t seen = 0;
    auto composer = replayComposer(args);
    for (RankRequest& r : inst.requests) {
        std::vector<std::string> sources = nextSources(*composer);
        if (!r.done || !r.ok || seen++ % stride != 0)
            continue;
        ++samples;
        std::vector<Ast> requestTrees = parseAll(sources);
        std::vector<const Ast*> ptrs;
        for (const Ast& t : requestTrees) {
            ptrs.push_back(&t);
            nodes += t.size();
        }
        trees += static_cast<double>(ptrs.size());
        Clock::time_point t0 = Clock::now();
        for (const Ast* t : ptrs) {
            ccsa::Tensor latent;
            ccsa::AstDigest d = ccsa::digestAst(*t);
            Clock::time_point t1 = Clock::now();
            inst.server->cache().lookup(ccsa::EncodingKey{ns, d}, &latent);
            Clock::time_point t2 = Clock::now();
            digestUs += usBetween(t0, t1);
            lookupUs += usBetween(t1, t2);
            t0 = Clock::now();
        }
        std::vector<ccsa::Tensor> latents;
        Clock::time_point e0 = Clock::now();
        {
            ccsa::InferenceScope scope;
            std::vector<ccsa::ag::Var> z = model.encodeMany(ptrs);
            for (const auto& v : z)
                latents.push_back(v.value().toOwned());
        }
        encodeUs += usBetween(e0, Clock::now());
        std::vector<double> probs;
        Clock::time_point h0 = Clock::now();
        {
            ccsa::InferenceScope scope;
            for (std::size_t i = 0; i < ptrs.size(); ++i)
                for (std::size_t j = 0; j < ptrs.size(); ++j) {
                    if (i == j)
                        continue;
                    ccsa::ag::Var z = model.logitFromEncodings(
                        ccsa::ag::constant(latents[i]),
                        ccsa::ag::constant(latents[j]));
                    probs.push_back(1.0 / (1.0 + std::exp(-z.value().at(0, 0))));
                }
        }
        headUs += usBetween(h0, Clock::now());
        pairs += static_cast<double>(probs.size());
        if (!sameRanking(Engine::aggregateTournament(ptrs.size(), probs),
                         r.ranking))
            ++mismatches;
    }
    report.layer("serve.digest_us", digestUs / trees, "us");
    report.layer("serve.cache.lookup_us", lookupUs / trees, "us");
    report.layer("model.encode_us", encodeUs / trees, "us");
    report.layer("model.encode_ns_per_node", encodeUs * 1000.0 / nodes,
                 "ns");
    report.layer("model.head_us", headUs / pairs, "us");
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "replay: %zu served rankings re-scored layer by layer, "
                  "%zu mismatches",
                  samples, mismatches);
    report.note(buf);
    if (mismatches > 0)
        report.fail("replayed rankings differ from served ones");
}

} // namespace

void
runRankCold(const Args& args, Report& report)
{
    std::vector<double> setups;
    std::unique_ptr<Instance> holder;
    for (int r = 0; r < kSetupRepeats; ++r) {
        holder.reset();
        holder = std::make_unique<Instance>();
        Clock::time_point t0 = Clock::now();
        setUp(*holder, args, nullptr);
        setups.push_back(secondsBetween(t0, Clock::now()));
    }
    Instance& inst = *holder;

    SpanLog off(false);
    auto before = inst.server->stats().aggregate.engine;
    std::vector<PhaseResult> phases = measure(inst, args, off);
    auto after = inst.server->stats().aggregate.engine;
    double peakMb = peakRssMb();
    notePhase(report, "light", 1, phases[0]);
    notePhase(report, "heavy", 2, phases[1]);

    std::uint64_t attempted = phases[0].attempted + phases[1].attempted;
    std::uint64_t ok = phases[0].ok + phases[1].ok;
    CheckResult checked = checkRankings(inst, args);
    std::uint64_t mismatches = checked.mismatches;
    report.attempted = attempted;
    report.failed = attempted - ok + mismatches;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "correctness: %llu served rankings checked bitwise "
                  "against Engine::rank, %llu mismatches",
                  static_cast<unsigned long long>(ok),
                  static_cast<unsigned long long>(mismatches));
    report.note(buf);
    if (mismatches > 0)
        report.fail("served rankings differ from Engine::rank");
    if (ok != attempted)
        report.fail("some rankings failed");

    // Workload properties: novelty, tree shape, cache behaviour.
    const std::vector<double>& nodes = checked.nodes;
    const std::vector<double>& depth = checked.depth;
    std::uint64_t trees = checked.trees, repeats = checked.repeats;
    double hits = static_cast<double>(after.cacheHits - before.cacheHits);
    double misses =
        static_cast<double>(after.cacheMisses - before.cacheMisses);
    double hitRatio = hits + misses > 0 ? hits / (hits + misses) : 0.0;
    double repeatShare =
        static_cast<double>(repeats) / static_cast<double>(trees);
    std::snprintf(buf, sizeof(buf),
                  "workload: %llu candidate trees, repeat share %.4f, "
                  "resident at submit (cache hit ratio) %.4f, "
                  "evictions %llu",
                  static_cast<unsigned long long>(trees), repeatShare,
                  hitRatio,
                  static_cast<unsigned long long>(after.cacheEvictions -
                                                  before.cacheEvictions));
    report.note(buf);
    report.note("  tree nodes " + describe(summarize(nodes), ""));
    report.note("  tree depth " + describe(summarize(depth), ""));

    double rankedPerS =
        static_cast<double>(phases[1].ok) / phases[1].seconds;
    std::snprintf(buf, sizeof(buf),
                  "ranks_per_s=%.2f rank_p50_ms=%.4f error_rate=%.6f "
                  "peak_rss_mb=%.1f",
                  rankedPerS, phases[1].latencyMs.p50,
                  static_cast<double>(report.failed) /
                      static_cast<double>(attempted),
                  peakMb);
    report.note(buf);

    report.endToEnd("setup_s", medianOf(setups), "s");
    report.endToEnd("work_per_s", rankedPerS, "1/s");
    report.endToEnd("light_p50_ms", phases[0].latencyMs.p50, "ms");
    report.endToEnd("heavy_p50_ms", phases[1].latencyMs.p50, "ms");

    if (!args.trace)
        return;

    // ------------------------------------------------ traced run
    holder.reset();
    ccsa::TraceRecorder recorder(1u << 20);
    Instance traced;
    setUp(traced, args, &recorder);
    recorder.clear();
    SpanLog log(true);
    auto tBefore = traced.server->stats().aggregate;
    std::vector<PhaseResult> tPhases = measure(traced, args, log);
    auto tAfter = traced.server->stats().aggregate;
    report.note("traced run:");
    notePhase(report, "light", 1, tPhases[0]);
    notePhase(report, "heavy", 2, tPhases[1]);
    if (checkRankings(traced, args).mismatches > 0)
        report.fail("traced run served wrong rankings");

    auto totals = log.totals();
    double requests = static_cast<double>(totals["request"].count);
    double e2eUs = totals["request"].totalUs / requests;
    double parseUs = totals["frontend.parse"].selfUs;
    double pruneUs = totals["ast.prune"].selfUs;
    double perSource = static_cast<double>(totals["frontend.parse"].count);
    report.layer("frontend.parse_us", parseUs / perSource, "us");
    report.layer("ast.prune_us", pruneUs / perSource, "us");

    // Server spans: one five-span chain per shard slice. The slices
    // of a request run side by side, so a request's server time is
    // one chain's length; the mean chain stands in for it.
    std::map<std::string, double> phaseUs;
    std::unordered_set<std::uint64_t> chains;
    for (const auto& s : recorder.spans()) {
        phaseUs[ccsa::tracePhaseName(s.phase)] +=
            static_cast<double>(s.durUs);
        chains.insert(s.chain);
    }
    double nChains = static_cast<double>(std::max<std::size_t>(1, chains.size()));
    const char* layers[][2] = {{"admission", "serve.admission_us"},
                               {"queue", "serve.queue_wait_us"},
                               {"coalesce", "serve.coalesce_wait_us"},
                               {"encode", "serve.engine_encode_us"},
                               {"score", "serve.engine_score_us"}};
    double accounted = (parseUs + pruneUs) / requests;
    std::snprintf(buf, sizeof(buf),
                  "self time per request: e2e=%.1fus frontend.parse=%.1fus "
                  "ast.prune=%.1fus serve.submit_get=%.1fus",
                  e2eUs, parseUs / requests, pruneUs / requests,
                  totals["serve.submit_get"].selfUs / requests);
    report.note(buf);
    for (const auto& l : layers) {
        double us = phaseUs[l[0]] / nChains;
        report.layer(l[1], us, "us");
        accounted += us;
        std::snprintf(buf, sizeof(buf), "  server %-10s %.1fus per slice",
                      l[0], us);
        report.note(buf);
    }
    double residual = e2eUs - accounted;
    report.layer("trace.residual_share", residual / e2eUs, "ratio");
    std::snprintf(buf, sizeof(buf),
                  "residual (e2e minus layers) = %.1fus (%.1f%% of e2e)",
                  residual, 100.0 * residual / e2eUs);
    report.note(buf);
    double tRate = static_cast<double>(tPhases[1].ok) / tPhases[1].seconds;
    report.layer("trace.overhead_ratio",
                 tPhases[1].latencyMs.p50 / phases[1].latencyMs.p50,
                 "ratio");
    std::snprintf(buf, sizeof(buf),
                  "tracing overhead (traced/untraced): work_per_s %.3f "
                  "light_p50 %.3f light_p90 %.3f heavy_p50 %.3f "
                  "heavy_p90 %.3f",
                  tRate / rankedPerS,
                  tPhases[0].latencyMs.p50 / phases[0].latencyMs.p50,
                  tPhases[0].latencyMs.p90 / phases[0].latencyMs.p90,
                  tPhases[1].latencyMs.p50 / phases[1].latencyMs.p50,
                  tPhases[1].latencyMs.p90 / phases[1].latencyMs.p90);
    report.note(buf);

    double batches =
        static_cast<double>(tAfter.batches - tBefore.batches);
    double pairs =
        static_cast<double>(tAfter.pairsServed - tBefore.pairsServed);
    report.layer("serve.batches", batches, "count");
    report.layer("serve.batch_pairs", batches > 0 ? pairs / batches : 0,
                 "count");
    double tHits = static_cast<double>(tAfter.engine.cacheHits -
                                       tBefore.engine.cacheHits);
    double tMisses = static_cast<double>(tAfter.engine.cacheMisses -
                                         tBefore.engine.cacheMisses);
    report.layer("serve.cache.hit_ratio",
                 tHits + tMisses > 0 ? tHits / (tHits + tMisses) : 0.0,
                 "ratio");
    report.layer("serve.cache.evictions",
                 static_cast<double>(tAfter.engine.cacheEvictions -
                                     tBefore.engine.cacheEvictions),
                 "count");
    report.layer("serve.trees_encoded",
                 static_cast<double>(tAfter.engine.treesEncoded -
                                     tBefore.engine.treesEncoded),
                 "count");
    std::uint64_t tAttempted = tPhases[0].attempted + tPhases[1].attempted;
    std::uint64_t tOk = tPhases[0].ok + tPhases[1].ok;
    report.layer("gen.sent", static_cast<double>(tAttempted), "count");
    report.layer("gen.succeeded", static_cast<double>(tOk), "count");
    report.layer("gen.failed", static_cast<double>(tAttempted - tOk),
                 "count");
    report.layer("workload.resident_share", hitRatio, "ratio");
    report.layer("workload.tree_nodes_p50", percentile(nodes, 50), "count");
    report.layer("workload.tree_depth_p50", percentile(depth, 50), "count");

    replay(traced, args, report);

    std::string path = args.workDir + "/trace-" + args.workload + ".json";
    if (log.write(path))
        report.note("client spans written to " + path);
}

} // namespace perfbench

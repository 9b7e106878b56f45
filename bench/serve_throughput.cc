/**
 * @file
 * Serving-throughput comparison, three rungs of the serving ladder:
 *
 *  1. N closed-loop clients calling the synchronous Engine one
 *     request at a time;
 *  2. the same clients submitting through futures to a one-shard
 *     ShardedServer — cross-request dynamic batching by a single
 *     batcher;
 *  3. the same clients on ShardedServer at 2/4/8 shards — N
 *     batcher workers over a partitioned encoding cache.
 *
 * A fourth measurement gates the ModelRegistry refactor: the SAME
 * single-model workload through a direct Engine vs a
 * registry-backed one (per-batch name resolution + namespaced cache
 * keys). The registry path must stay >= 0.95x direct — the lookup
 * is one mutex-protected map probe amortised over a whole batch, so
 * anything below that means the resolution leaked into a hot loop.
 *
 * A fifth measurement gates the metrics plane: the interactive
 * workload through a bare one-shard server vs one with the full
 * MetricsRegistry/SloTracker/sampler stack attached. Instrumented
 * serving must stay >= 0.97x bare — recording is relaxed atomics
 * outside the server's stats mutex, so a lower ratio means metrics
 * work leaked into a serial section.
 *
 * A sixth gates the request path itself: one closed-loop client
 * through a one-shard, one-thread ShardedServer vs the same stream
 * straight into a one-thread Engine::compareMany. Both sides run
 * identical engine calls, so the ratio is the front end's overhead
 * (queue, worker wakeup, futures, accounting).
 *
 * Every row counts the pairs answered with an error ("failed");
 * they are left out of pairs_per_sec, and the run stops at once if
 * the ccsa_worker binary the ipc row needs is missing.
 *
 * The workload models a busy ranking service under cache pressure:
 * requests draw pairs from a tree pool larger than any single
 * encoding cache, so the synchronous path keeps re-encoding evicted
 * trees and the single batcher is bounded by one thread's serial
 * sections plus one 12-entry LRU. Sharding attacks both: up to N
 * batches execute concurrently, and the partitioned cache holds
 * numShards * 12 latents at the same fixed per-shard memory budget,
 * so eviction pressure collapses as shards are added. The report
 * includes trees-encoded counts so the mechanism (not just the
 * speedup) is visible.
 *
 * Every row also carries the CLIENT-observed p50/p99 latency (submit
 * -> answer seen, per request; per call for the synchronous and
 * batched-engine rows), and the JSON records the host: CPU count,
 * the selected matmul and fp16 kernel families, and the build type.
 *
 * Usage: ./serve_throughput [--json BENCH_serve.json]
 * (CCSA_SCALE scales requests per client; the JSON feeds
 * tools/check_bench_serve.py, which gates sharded >= 1.5x the
 * single-batcher rate at 4 shards in CI.)
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "base/rng.hh"
#include "base/str.hh"
#include "base/table.hh"
#include "frontend/parser.hh"
#include "serve/ipc/process_sharded_server.hh"
#include "serve/latent_f16_dispatch.hh"
#include "serve/metrics/metrics.hh"
#include "serve/metrics/metrics_sampler.hh"
#include "serve/metrics/slo_tracker.hh"
#include "serve/model_registry.hh"
#include "serve/sharded_server.hh"
#include "tensor/matmul_dispatch.hh"

#ifndef CCSA_BUILD_TYPE
#define CCSA_BUILD_TYPE "unknown"
#endif

using namespace ccsa;

namespace
{

/** Distinct tiny program: `loops` loops plus `pad` extra decls. */
Ast
makeVariant(int loops, int pad)
{
    std::string src = "int main() {\n int n;\n cin >> n;\n";
    for (int p = 0; p < pad; ++p)
        src += " int pad" + std::to_string(p) + " = " +
            std::to_string(p) + ";\n";
    for (int i = 0; i < loops; ++i) {
        std::string v = "i" + std::to_string(i);
        src += " for (int " + v + " = 0; " + v + " < n; " + v +
            "++) { int z" + std::to_string(i) + " = " + v + "; }\n";
    }
    src += " return 0;\n}\n";
    return parseAndPrune(src);
}

Engine::Options
servingOptions()
{
    // A cache smaller than the tree pool: the memory-pressure regime
    // where cross-request dedup (and cache sharding) pays the most.
    // cacheCapacity is per shard, so the one-shard baselines hold
    // 12 of the 48 pool trees while a 4-shard server holds all 48 at
    // the same per-shard budget — sharding converts a thrashing
    // cache into a resident one without growing any single shard.
    return Engine::Options()
        .withEmbedDim(24)
        .withHiddenDim(32)
        .withSeed(42)
        .withThreads(0)
        .withCacheCapacity(12);
}

/** The single-batcher baseline: one shard whose one engine encodes
 * on every core (servingOptions().threads), at the same
 * per-partition cache budget as the sharded rows. */
ShardedServer::Options
singleBatcherOptions()
{
    return ShardedServer::Options()
        .withNumShards(1)
        .withThreadsPerShard(servingOptions().threads)
        .withQueueCapacity(1024)
        .withMaxBatchSize(256);
}

struct WorkItem
{
    int first;
    int second;
};

/** Deterministic per-client request stream over the tree pool. */
std::vector<WorkItem>
clientStream(int client, int requests, int poolSize)
{
    Rng rng(1000 + static_cast<std::uint64_t>(client));
    std::vector<WorkItem> items;
    items.reserve(static_cast<std::size_t>(requests));
    for (int k = 0; k < requests; ++k) {
        int i = rng.uniformInt(0, poolSize - 1);
        int j = rng.uniformInt(0, poolSize - 2);
        if (j >= i)
            ++j;
        items.push_back(WorkItem{i, j});
    }
    return items;
}

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Client-observed outcome of one measured run. */
struct RunStats
{
    /** Pairs answered successfully per second of wall time. */
    double pairsPerSec = 0.0;
    /** Pairs answered with an error (excluded from pairsPerSec). */
    std::uint64_t failed = 0;
    /** Per-request (per-call) latency quantiles, ms. */
    double p50Ms = 0.0;
    double p99Ms = 0.0;
    /** Trees the serving engines encoded (0 where not reported). */
    std::uint64_t treesEncoded = 0;
};

/** Repetitions of every gated configuration: one closed-loop run on
 * a shared multi-core host swings by tens of percent, so a gated row
 * reports its median-throughput repetition. */
constexpr int kReps = 5;

/** The median-throughput run (its latency and encodes ride along);
 * its failure count is the total over every repetition. */
RunStats
medianRun(std::vector<RunStats> runs)
{
    std::uint64_t failed = 0;
    for (const RunStats& r : runs)
        failed += r.failed;
    std::sort(runs.begin(), runs.end(),
              [](const RunStats& a, const RunStats& b) {
                  return a.pairsPerSec < b.pairsPerSec;
              });
    RunStats median = runs[runs.size() / 2];
    median.failed = failed;
    return median;
}

/** Throughput of the `pairs` sent less the `failed` ones, plus
 * nearest-rank p50/p99 of every client's latency samples
 * (microseconds). */
RunStats
summarize(double pairs, std::uint64_t failed,
          std::chrono::steady_clock::time_point start,
          const std::vector<std::vector<double>>& latencyUs)
{
    RunStats out;
    out.pairsPerSec =
        (pairs - static_cast<double>(failed)) / secondsSince(start);
    out.failed = failed;
    std::vector<double> all;
    for (const auto& samples : latencyUs)
        all.insert(all.end(), samples.begin(), samples.end());
    if (all.empty())
        return out;
    auto quantileMs = [&all](double q) {
        auto k = static_cast<std::size_t>(
            q * static_cast<double>(all.size() - 1) + 0.5);
        std::nth_element(all.begin(),
                         all.begin() + static_cast<std::ptrdiff_t>(k),
                         all.end());
        return all[k] / 1000.0;
    };
    out.p50Ms = quantileMs(0.5);
    out.p99Ms = quantileMs(0.99);
    return out;
}

double
microsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** One measured configuration, also emitted as a JSON row. */
struct BenchRow
{
    std::string mode; // sync|async|single_closed|sharded|ipc|
                      // frontend_engine|frontend_server|
                      // engine_direct|engine_registry|
                      // tenant_solo|tenant_flood|
                      // metrics_off|metrics_on
    int clients = 0;
    int shards = 0; // 0 for unsharded modes, 1 for single-batcher
    RunStats run;
};

/** Drive a deep-pipelining client fleet: every request is submitted
 * up front, then all futures are drained in order (a request's
 * latency is submit -> its get() returns). Batches grow as large as
 * the backlog allows — the regime where ONE batcher shines. */
template <typename SubmitFn>
RunStats
runPipelinedClients(int clients,
                    const std::vector<std::vector<WorkItem>>& streams,
                    const std::vector<Ast>& pool, SubmitFn submit)
{
    std::vector<std::vector<double>> latencyUs(
        static_cast<std::size_t>(clients));
    std::atomic<std::uint64_t> failed{0};
    auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            const auto& stream = streams[static_cast<std::size_t>(c)];
            std::vector<std::future<Result<double>>> futures;
            std::vector<std::chrono::steady_clock::time_point> sent;
            futures.reserve(stream.size());
            sent.reserve(stream.size());
            for (const WorkItem& w : stream) {
                sent.push_back(std::chrono::steady_clock::now());
                futures.push_back(submit(
                    pool[static_cast<std::size_t>(w.first)],
                    pool[static_cast<std::size_t>(w.second)]));
            }
            auto& samples = latencyUs[static_cast<std::size_t>(c)];
            for (std::size_t k = 0; k < futures.size(); ++k) {
                Result<double> r = futures[k].get();
                samples.push_back(microsSince(sent[k]));
                if (!r.isOk()) {
                    ++failed;
                    std::fprintf(stderr, "client: %s\n",
                                 r.status().toString().c_str());
                }
            }
        });
    }
    for (std::thread& t : threads)
        t.join();
    return summarize(static_cast<double>(clients) *
                         static_cast<double>(streams[0].size()),
                     failed.load(), start, latencyUs);
}

/** Drive an interactive client fleet: one outstanding request per
 * client (call, wait, repeat); `call(a, b)` blocks until the answer
 * is in hand. Batches are bounded by the client count, so
 * cross-request dedup can no longer mask a thrashing cache — the
 * regime sharded serving is for. */
template <typename CallFn>
RunStats
runClosedLoopClients(int clients,
                     const std::vector<std::vector<WorkItem>>& streams,
                     const std::vector<Ast>& pool, CallFn call)
{
    std::vector<std::vector<double>> latencyUs(
        static_cast<std::size_t>(clients));
    std::atomic<std::uint64_t> failed{0};
    auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            auto& samples = latencyUs[static_cast<std::size_t>(c)];
            for (const WorkItem& w :
                 streams[static_cast<std::size_t>(c)]) {
                auto sent = std::chrono::steady_clock::now();
                auto r = call(pool[static_cast<std::size_t>(w.first)],
                              pool[static_cast<std::size_t>(w.second)]);
                samples.push_back(microsSince(sent));
                if (!r.isOk()) {
                    ++failed;
                    std::fprintf(stderr, "client: %s\n",
                                 r.status().toString().c_str());
                }
            }
        });
    }
    for (std::thread& t : threads)
        t.join();
    return summarize(static_cast<double>(clients) *
                         static_cast<double>(streams[0].size()),
                     failed.load(), start, latencyUs);
}

/** Blocking call through a server's submitCompare. */
template <typename Server>
auto
compareVia(Server& server)
{
    return [&server](const Ast& a, const Ast& b) {
        return server.submitCompare(a, b).get();
    };
}

void
writeJson(const std::string& path, int poolSize,
          int requestsPerClient, const std::vector<BenchRow>& rows)
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return;
    }
    std::fprintf(f, "{\n  \"bench\": \"serve_throughput\",\n");
    std::fprintf(f,
                 "  \"host\": {\"cpus\": %u, \"matmul_kernels\": "
                 "\"%s\", \"f16_kernels\": \"%s\", "
                 "\"build_type\": \"%s\"},\n",
                 std::thread::hardware_concurrency(),
                 kernels::activeKernelName(),
                 kernels::activeF16KernelName(), CCSA_BUILD_TYPE);
    std::fprintf(f, "  \"pool_size\": %d,\n", poolSize);
    std::fprintf(f, "  \"requests_per_client\": %d,\n",
                 requestsPerClient);
    std::fprintf(f, "  \"rows\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const BenchRow& r = rows[i];
        std::fprintf(f,
                     "    {\"mode\": \"%s\", \"clients\": %d, "
                     "\"shards\": %d, \"pairs_per_sec\": %.1f, "
                     "\"failed\": %llu, "
                     "\"trees_encoded\": %llu, \"p50_ms\": %.3f, "
                     "\"p99_ms\": %.3f}%s\n",
                     r.mode.c_str(), r.clients, r.shards,
                     r.run.pairsPerSec,
                     static_cast<unsigned long long>(r.run.failed),
                     static_cast<unsigned long long>(
                         r.run.treesEncoded),
                     r.run.p50Ms, r.run.p99Ms,
                     i + 1 == rows.size() ? "" : ",");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", path.c_str());
}

} // namespace

int
main(int argc, char** argv)
{
    std::string jsonPath;
    for (int a = 1; a + 1 < argc; ++a)
        if (std::string(argv[a]) == "--json")
            jsonPath = argv[a + 1];

    // The ipc row needs the worker binary; without it every request
    // fails and the row would measure nothing.
    const std::string worker = ProcessShardedServer::defaultWorkerPath();
    if (::access(worker.c_str(), X_OK) != 0) {
        std::fprintf(stderr, "serve_throughput: ccsa_worker not found "
                             "at %s\n",
                     worker.c_str());
        return 1;
    }

    std::printf("=====================================================\n");
    std::printf("ccsa bench: serve_throughput\n");
    std::printf("sync Engine vs one-shard vs N-shard ShardedServer\n");
    std::printf("scale: CCSA_SCALE=%.2f (set >1 for longer runs)\n",
                envScale());
    std::printf("host: cpus=%u kernels: matmul=%s f16=%s build=%s\n",
                std::thread::hardware_concurrency(),
                kernels::activeKernelName(),
                kernels::activeF16KernelName(), CCSA_BUILD_TYPE);
    std::printf("=====================================================\n");

    const int poolSize = 48;
    const int requestsPerClient =
        std::max(50, static_cast<int>(150 * envScale()));

    std::vector<Ast> pool;
    pool.reserve(poolSize);
    for (int t = 0; t < poolSize; ++t)
        pool.push_back(makeVariant(t % 12 + 1, t / 12));

    std::printf("tree pool: %d distinct programs, cache capacity 12 "
                "per shard, %d requests/client\n\n",
                poolSize, requestsPerClient);

    std::vector<BenchRow> rows;

    // ------------------------------------------- sync vs async sweep
    TextTable table({"clients", "sync pairs/s", "async pairs/s",
                     "speedup", "sync encodes", "async encodes",
                     "batches", "mean batch", "async p99 ms"});
    const int gateClients = 8;

    for (int clients : {1, 2, 4, 8}) {
        std::vector<std::vector<WorkItem>> streams;
        for (int c = 0; c < clients; ++c)
            streams.push_back(
                clientStream(c, requestsPerClient, poolSize));

        // ---- synchronous: every client blocks on its own request.
        RunStats sync;
        {
            Engine engine(servingOptions());
            sync = runClosedLoopClients(
                clients, streams, pool,
                [&engine](const Ast& a, const Ast& b) {
                    return engine.compareMany(
                        {Engine::PairRequest{&a, &b}});
                });
            sync.treesEncoded = engine.stats().treesEncoded;
        }
        rows.push_back(BenchRow{"sync", clients, 0, sync});

        // ---- async: one batcher coalescing across every client.
        RunStats async;
        std::uint64_t batches = 0;
        double meanBatch = 0.0;
        {
            ShardedServer server(servingOptions(),
                                 singleBatcherOptions());
            async = runPipelinedClients(
                clients, streams, pool,
                [&server](const Ast& a, const Ast& b) {
                    return server.submitCompare(a, b);
                });
            ServerStats stats = server.stats().aggregate;
            async.treesEncoded = stats.engine.treesEncoded;
            batches = stats.batches;
            meanBatch = stats.batchSizes.meanValue();
        }
        rows.push_back(BenchRow{"async", clients, 1, async});

        char speedup[32];
        std::snprintf(speedup, sizeof(speedup), "%.2fx",
                      async.pairsPerSec / sync.pairsPerSec);
        char meanBatchStr[32];
        std::snprintf(meanBatchStr, sizeof(meanBatchStr), "%.1f",
                      meanBatch);
        char p99[32];
        std::snprintf(p99, sizeof(p99), "%.2f", async.p99Ms);
        table.addRow(
            {std::to_string(clients),
             std::to_string(static_cast<long>(sync.pairsPerSec)),
             std::to_string(static_cast<long>(async.pairsPerSec)),
             speedup, std::to_string(sync.treesEncoded),
             std::to_string(async.treesEncoded), std::to_string(batches),
             meanBatchStr, p99});
    }

    table.print(std::cout);
    std::printf("\nasync wins by encoding each distinct tree once per"
                " coalesced batch,\nwhere the thrashing synchronous"
                " cache re-encodes almost every request.\n");

    // -------------------------- sharded scaling, interactive clients
    // Depth-1 closed-loop clients: batches are capped at one pair
    // per client, so the giant pipelined batches above cannot form
    // and the single 12-entry cache thrashes against the 48-tree
    // pool. This is the latency-bound serving regime sharding is
    // for; the single_closed row below is the single-batcher
    // baseline under the SAME client behaviour.
    std::printf("\ninteractive clients (1 outstanding request each), "
                "%d clients:\n\n",
                gateClients);
    std::vector<std::vector<WorkItem>> streams;
    for (int c = 0; c < gateClients; ++c)
        streams.push_back(
            clientStream(c, requestsPerClient, poolSize));

    std::vector<RunStats> singleRuns;
    for (int r = 0; r < kReps; ++r) {
        ShardedServer server(servingOptions(), singleBatcherOptions());
        singleRuns.push_back(runClosedLoopClients(
            gateClients, streams, pool, compareVia(server)));
        singleRuns.back().treesEncoded =
            server.stats().aggregate.engine.treesEncoded;
    }
    RunStats single = medianRun(singleRuns);
    rows.push_back(BenchRow{"single_closed", gateClients, 1, single});
    std::printf("single batcher (one shard, multi-threaded engine; "
                "median of %d runs): %ld pairs/s, p99 %.2f ms, %llu "
                "trees encoded\n\n",
                kReps, static_cast<long>(single.pairsPerSec),
                single.p99Ms,
                static_cast<unsigned long long>(single.treesEncoded));

    TextTable shardTable({"shards", "pairs/s", "vs 1 batcher",
                          "encodes", "cache resident", "p50 ms",
                          "p99 ms"});
    for (int shards : {2, 4, 8}) {
        std::vector<RunStats> runs;
        std::string resident;
        for (int r = 0; r < kReps; ++r) {
            ShardedServer server(
                servingOptions(),
                ShardedServer::Options()
                    .withNumShards(static_cast<std::size_t>(shards))
                    .withQueueCapacity(1024)
                    .withMaxBatchSize(256)
                    .withThreadsPerShard(1));
            runs.push_back(runClosedLoopClients(
                gateClients, streams, pool, compareVia(server)));
            runs.back().treesEncoded =
                server.stats().aggregate.engine.treesEncoded;
            resident = std::to_string(server.cache().size()) + "/" +
                std::to_string(server.cache().numShards() *
                               server.cache().capacityPerShard());
        }
        RunStats run = medianRun(runs);
        rows.push_back(BenchRow{"sharded", gateClients, shards, run});

        char vsSingle[32];
        std::snprintf(vsSingle, sizeof(vsSingle), "%.2fx",
                      run.pairsPerSec / single.pairsPerSec);
        char p50[32], p99[32];
        std::snprintf(p50, sizeof(p50), "%.2f", run.p50Ms);
        std::snprintf(p99, sizeof(p99), "%.2f", run.p99Ms);
        shardTable.addRow(
            {std::to_string(shards),
             std::to_string(static_cast<long>(run.pairsPerSec)),
             vsSingle, std::to_string(run.treesEncoded), resident, p50,
             p99});
    }
    shardTable.print(std::cout);
    std::printf("\nsharding wins twice: N coalesced batches execute"
                " concurrently, and the\npartitioned cache keeps"
                " numShards x 12 latents resident, so the re-encode\n"
                "storm the small single caches suffer above fades"
                " as shards are added.\n");

    // ------------- front-end overhead: one-thread server vs engine
    // One closed-loop client replays every gate client's stream,
    // four times over (about half a second a side, so host noise
    // averages out), through a one-shard, one-thread ShardedServer
    // and through a one-thread Engine::compareMany. With one request
    // outstanding every batch is one pair, so both sides run the
    // same sequence of engine calls against the same 12-entry cache
    // (equal trees_encoded) and the ratio is the price of the
    // request path alone: admission, queue, worker wakeup, future
    // fan-out and accounting (gated by tools/check_bench_serve.py).
    {
        std::vector<std::vector<WorkItem>> replay(1);
        for (int pass = 0; pass < 4; ++pass)
            for (const auto& stream : streams)
                replay[0].insert(replay[0].end(), stream.begin(),
                                 stream.end());
        std::vector<RunStats> engineRuns, serverRuns;
        for (int r = 0; r < kReps; ++r) {
            {
                Engine engine(servingOptions().withThreads(1));
                engineRuns.push_back(runClosedLoopClients(
                    1, replay, pool,
                    [&engine](const Ast& a, const Ast& b) {
                        return engine.compareMany(
                            {Engine::PairRequest{&a, &b}});
                    }));
                engineRuns.back().treesEncoded =
                    engine.stats().treesEncoded;
            }
            ShardedServer server(servingOptions(),
                                 ShardedServer::Options()
                                     .withNumShards(1)
                                     .withThreadsPerShard(1));
            serverRuns.push_back(runClosedLoopClients(
                1, replay, pool, compareVia(server)));
            serverRuns.back().treesEncoded =
                server.stats().aggregate.engine.treesEncoded;
        }
        RunStats direct = medianRun(engineRuns);
        RunStats served = medianRun(serverRuns);
        rows.push_back(BenchRow{"frontend_engine", 1, 0, direct});
        rows.push_back(BenchRow{"frontend_server", 1, 1, served});
        std::printf(
            "\nfront-end overhead (1 closed-loop client, one engine"
            " thread):\n  Engine::compareMany %10.0f pairs/s  p50 %.3f"
            " ms  %llu encodes\n  one-shard server    %10.0f pairs/s"
            "  p50 %.3f ms  %llu encodes  (%.3fx, CI floor 0.65x)\n",
            direct.pairsPerSec, direct.p50Ms,
            static_cast<unsigned long long>(direct.treesEncoded),
            served.pairsPerSec, served.p50Ms,
            static_cast<unsigned long long>(served.treesEncoded),
            served.pairsPerSec / direct.pairsPerSec);
    }

    // -------------- process isolation: crash-isolated worker fleet
    // The same interactive workload on ProcessShardedServer at 4
    // shards: every request now pays tree serialization (cold trees
    // only, thanks to the residency mirror) plus one pipelined
    // socketpair round trip per batch. That tax buys crash isolation
    // (a SIGKILLed worker costs one shard's in-flight batch, not the
    // process), so the gate is a floor on the isolation overhead,
    // not a speedup: ipc >= 0.45x the in-process sharded rate at 4
    // shards (tools/check_bench_serve.py).
    //
    // Per-worker caches are provisioned POOL-RESIDENT (48 entries,
    // not the in-process 12-per-shard): the in-process server's
    // digest-partitioned cache is shared, so 4x12 holds the whole
    // pool once, while worker processes cannot share latents across
    // address spaces and digest routing shows every worker the whole
    // pool. At 12 each worker thrashes (measured ~0.11x — a cache
    // geometry artifact, not wire overhead); at pool size the row
    // isolates the serialization + RPC tax the gate is about.
    {
        const int ipcShards = 4;
        auto model = std::make_shared<ComparativePredictor>(
            servingOptions().encoder, 42);
        std::vector<RunStats> runs;
        for (int r = 0; r < kReps; ++r) {
            ProcessShardedServer server(
                model, ProcessShardedServer::Options()
                           .withNumShards(
                               static_cast<std::size_t>(ipcShards))
                           .withQueueCapacity(1024)
                           .withMaxBatchSize(256)
                           .withCachePerWorker(
                               static_cast<std::size_t>(poolSize)));
            runs.push_back(runClosedLoopClients(
                gateClients, streams, pool, compareVia(server)));
        }
        RunStats ipc = medianRun(runs);
        rows.push_back(BenchRow{"ipc", gateClients, ipcShards, ipc});
        double shardedRate = 1.0;
        for (const BenchRow& r : rows)
            if (r.mode == "sharded" && r.shards == ipcShards)
                shardedRate = r.run.pairsPerSec;
        std::printf(
            "\nprocess-sharded serving (%d crash-isolated worker"
            " processes):\n  ipc %10.0f pairs/s  p99 %.2f ms  (%.2fx"
            " in-process sharded-%d, CI floor 0.45x)\n",
            ipcShards, ipc.pairsPerSec, ipc.p99Ms,
            ipc.pairsPerSec / shardedRate, ipcShards);
    }

    // ---------------------- registry overhead, single-model traffic
    // The same deterministic batched workload through a direct
    // Engine and through a registry-backed one serving the SAME
    // model object. Both see identical cache behaviour (one
    // namespace, same capacity); the only delta is the per-batch
    // name resolution, which must stay in the noise.
    {
        const int batchPairs = 16;
        const int registryRounds =
            std::max(40, static_cast<int>(120 * envScale()));
        std::vector<WorkItem> stream =
            clientStream(99, registryRounds * batchPairs, poolSize);
        auto runBatches = [&](Engine& engine) {
            std::vector<std::vector<double>> latencyUs(1);
            std::uint64_t failed = 0;
            auto start = std::chrono::steady_clock::now();
            std::size_t cursor = 0;
            for (int r = 0; r < registryRounds; ++r) {
                std::vector<Engine::PairRequest> request;
                request.reserve(batchPairs);
                for (int k = 0; k < batchPairs; ++k) {
                    const WorkItem& w = stream[cursor++];
                    request.push_back(
                        {&pool[static_cast<std::size_t>(w.first)],
                         &pool[static_cast<std::size_t>(w.second)]});
                }
                auto sent = std::chrono::steady_clock::now();
                auto probs = engine.compareMany(request);
                latencyUs[0].push_back(microsSince(sent));
                if (!probs.isOk()) {
                    failed += batchPairs;
                    std::fprintf(stderr, "registry bench: %s\n",
                                 probs.status().toString().c_str());
                }
            }
            return summarize(static_cast<double>(registryRounds) *
                                 static_cast<double>(batchPairs),
                             failed, start, latencyUs);
        };

        auto model = std::make_shared<ComparativePredictor>(
            servingOptions().encoder, 42);
        // Interleaved repetitions: host drift hits both sides alike.
        std::vector<RunStats> directRuns, registryRuns;
        for (int r = 0; r < kReps; ++r) {
            {
                Engine engine(model, servingOptions());
                directRuns.push_back(runBatches(engine));
            }
            auto registry = std::make_shared<ModelRegistry>();
            registry->publish("prod", model);
            Engine engine(registry, servingOptions());
            registryRuns.push_back(runBatches(engine));
        }
        RunStats direct = medianRun(directRuns);
        RunStats viaRegistry = medianRun(registryRuns);
        rows.push_back(BenchRow{"engine_direct", 1, 0, direct});
        rows.push_back(BenchRow{"engine_registry", 1, 0, viaRegistry});
        std::printf("\nregistry overhead (single model, %d-pair "
                    "batches):\n  direct Engine   %10.0f pairs/s\n"
                    "  via registry    %10.0f pairs/s  (%.3fx, CI "
                    "floor 0.95x)\n",
                    batchPairs, direct.pairsPerSec,
                    viaRegistry.pairsPerSec,
                    viaRegistry.pairsPerSec / direct.pairsPerSec);
    }

    // ------------------ admission control: noisy-neighbor isolation
    // Two tenants share one single-batcher server. "fg" is an
    // interactive closed-loop fleet; "bulk" floods quota-capped
    // batch-class compareMany traffic from a free-running thread.
    // The token bucket sheds the flood at submit time and the
    // two-lane batcher flushes interactive work as soon as the queue
    // runs dry, so the fg clients' p99 under flood must stay within
    // 3x of the flood-free run (gated by tools/check_bench_serve.py).
    {
        const int fgClients = 4;
        std::vector<std::vector<WorkItem>> fgStreams;
        for (int c = 0; c < fgClients; ++c)
            fgStreams.push_back(
                clientStream(200 + c, requestsPerClient, poolSize));

        auto runTenantScenario = [&](bool flood, std::uint64_t& shed) {
            AdmissionController admission;
            // ~500 admitted flood pairs/s sustained; everything above
            // is rejected before it can touch the queue.
            admission.setQuota(
                "bulk", AdmissionController::Quota{500.0, 32.0});
            ShardedServer server(
                servingOptions(),
                singleBatcherOptions().withAdmission(&admission));
            std::atomic<bool> stop{false};
            std::thread flooder;
            if (flood)
                flooder = std::thread([&] {
                    Rng rng(4242);
                    const SubmitOptions bulk =
                        SubmitOptions().withTenant("bulk").withPriority(
                            Priority::kBatch);
                    std::vector<
                        std::future<Result<std::vector<double>>>>
                        inflight;
                    while (!stop.load(std::memory_order_relaxed)) {
                        std::vector<Engine::PairRequest> pairs;
                        pairs.reserve(16);
                        for (int k = 0; k < 16; ++k) {
                            int i = rng.uniformInt(0, poolSize - 1);
                            int j = rng.uniformInt(0, poolSize - 2);
                            if (j >= i)
                                ++j;
                            pairs.push_back(
                                {&pool[static_cast<std::size_t>(i)],
                                 &pool[static_cast<std::size_t>(
                                     j)]});
                        }
                        inflight.push_back(
                            server.submitCompareMany(pairs, bulk));
                        if (inflight.size() >= 8) {
                            for (auto& f : inflight)
                                f.wait();
                            inflight.clear();
                            // Breathe between salvos so the rejected
                            // submissions don't degenerate into a
                            // pure admission-mutex spin.
                            std::this_thread::sleep_for(
                                std::chrono::microseconds(500));
                        }
                    }
                    for (auto& f : inflight)
                        f.wait();
                });
            const SubmitOptions fg = SubmitOptions().withTenant("fg");
            RunStats run = runClosedLoopClients(
                fgClients, fgStreams, pool,
                [&server, &fg](const Ast& a, const Ast& b) {
                    return server.submitCompare(a, b, fg).get();
                });
            stop.store(true, std::memory_order_relaxed);
            if (flooder.joinable())
                flooder.join();
            shed = 0;
            for (const auto& row : admission.stats())
                if (row.tenant == "bulk")
                    shed = row.rejected;
            return run;
        };

        std::uint64_t soloShed = 0, floodShed = 0;
        std::vector<RunStats> soloRuns, floodRuns;
        for (int r = 0; r < kReps; ++r) {
            soloRuns.push_back(runTenantScenario(false, soloShed));
            floodRuns.push_back(runTenantScenario(true, floodShed));
        }
        RunStats solo = medianRun(soloRuns);
        RunStats flood = medianRun(floodRuns);
        rows.push_back(BenchRow{"tenant_solo", fgClients, 1, solo});
        rows.push_back(BenchRow{"tenant_flood", fgClients, 1, flood});
        std::printf(
            "\nnoisy neighbor (%d interactive clients, quota-capped"
            " bulk flood):\n  solo   p99 %7.2f ms  %8.0f pairs/s\n"
            "  flood  p99 %7.2f ms  %8.0f pairs/s  (%.2fx p99, CI"
            " ceiling 3x;\n          %llu flood requests shed by"
            " admission)\n",
            fgClients, solo.p99Ms, solo.pairsPerSec, flood.p99Ms,
            flood.pairsPerSec,
            solo.p99Ms > 0.0 ? flood.p99Ms / solo.p99Ms : 0.0,
            static_cast<unsigned long long>(floodShed));
    }

    // -------------------- metrics overhead: instrumented vs bare
    // The same interactive closed-loop workload through two
    // identically configured single-batcher servers: one bare, one
    // with the full metrics plane attached (engine phase histograms,
    // per-request latency histograms, SLO tracking, and a 100 ms
    // background sampler sweeping gauges the whole run). Recording
    // is a handful of relaxed atomic adds outside the server's
    // stats mutex, so the instrumented path must stay >= 0.97x
    // bare (gated by tools/check_bench_serve.py).
    {
        auto runMetricsScenario = [&](bool instrumented) {
            MetricsRegistry metrics;
            SloTracker slo(metrics);
            slo.setObjective("model", "",
                             SloTracker::Objective()
                                 .withLatencyThresholdUs(5000));
            MetricsSampler sampler(
                metrics, MetricsSampler::Options().withPeriod(
                             std::chrono::milliseconds(100)));
            ShardedServer::Options opts = singleBatcherOptions();
            if (instrumented)
                opts = opts.withMetrics(&metrics).withSlo(&slo);
            ShardedServer server(
                instrumented ? servingOptions().withMetrics(&metrics)
                             : servingOptions(),
                opts);
            if (instrumented) {
                sampler.addProbe(
                    [&server] { server.sampleMetrics(); });
                sampler.addProbe([&slo] { slo.publishGauges(); });
                sampler.start();
            }
            RunStats run = runClosedLoopClients(
                gateClients, streams, pool, compareVia(server));
            sampler.stop();
            return run;
        };

        std::vector<RunStats> offRuns, onRuns;
        for (int r = 0; r < kReps; ++r) {
            offRuns.push_back(runMetricsScenario(false));
            onRuns.push_back(runMetricsScenario(true));
        }
        RunStats off = medianRun(offRuns);
        RunStats on = medianRun(onRuns);
        rows.push_back(BenchRow{"metrics_off", gateClients, 1, off});
        rows.push_back(BenchRow{"metrics_on", gateClients, 1, on});
        std::printf(
            "\nmetrics overhead (%d interactive clients, full"
            " instrumentation):\n  metrics off %10.0f pairs/s\n"
            "  metrics on  %10.0f pairs/s  (%.3fx, CI floor"
            " 0.97x)\n",
            gateClients, off.pairsPerSec, on.pairsPerSec,
            on.pairsPerSec / off.pairsPerSec);
    }

    if (!jsonPath.empty())
        writeJson(jsonPath, poolSize, requestsPerClient, rows);
    return 0;
}

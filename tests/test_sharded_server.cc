/**
 * @file
 * The stress/property harness for ShardedServer, with the one-shard
 * (single-batcher) configuration as an input to every case. Pinned
 * contracts: results are bitwise-identical to the synchronous Engine
 * at 1, 2, 4 and 8 shards under deterministic multi-producer
 * schedules (seeded base/rng streams, precomputed before any thread
 * starts) and an 8-producer closed-loop stress; cross-shard requests
 * split and join without reordering; staged requests coalesce into
 * one batch; shutdown drains every accepted request; a queued
 * deadline expires once per request; trySubmit load-shed is
 * all-or-nothing even for requests split across shards; malformed
 * requests fail only their own future; and the stats aggregate is
 * exactly the per-shard rows merged (latency percentiles from
 * merged histograms, cache partitions summing to the shared cache).
 */

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "base/rng.hh"
#include "frontend/parser.hh"
#include "serve/sharded_server.hh"

namespace ccsa
{
namespace
{

using std::chrono::microseconds;
using std::chrono::milliseconds;

Ast
tinyProgram(int loops)
{
    std::string src = "int main() {\n int n;\n cin >> n;\n";
    for (int i = 0; i < loops; ++i) {
        std::string v = "i" + std::to_string(i);
        src += " for (int " + v + " = 0; " + v + " < n; " + v +
            "++) { int z" + std::to_string(i) + " = " + v + "; }\n";
    }
    src += " return 0;\n}\n";
    return parseAndPrune(src);
}

Engine::Options
tinyOptions()
{
    return Engine::Options()
        .withEmbedDim(8)
        .withHiddenDim(8)
        .withSeed(7)
        .withThreads(1);
}

// ------------------------------------------------- ShardedServer

TEST(ShardedServer, CompareMatchesSynchronousEngineBitwise)
{
    Engine reference(tinyOptions());
    Ast a = tinyProgram(2);
    Ast b = tinyProgram(5);
    double expected = reference.compare(a, b).value();

    for (std::size_t shards : {1u, 2u, 4u, 8u}) {
        ShardedServer server(
            tinyOptions(),
            ShardedServer::Options().withNumShards(shards));
        Result<double> got = server.submitCompare(a, b).get();
        ASSERT_TRUE(got.isOk()) << "shards=" << shards;
        EXPECT_EQ(got.value(), expected) << "shards=" << shards;
    }
}

TEST(ShardedServer, SplitJoinPreservesRequestOrderBitwise)
{
    Engine reference(tinyOptions());
    std::vector<Ast> trees;
    for (int i = 1; i <= 6; ++i)
        trees.push_back(tinyProgram(i));
    std::vector<Engine::PairRequest> pairs;
    for (std::size_t i = 0; i < trees.size(); ++i)
        for (std::size_t j = 0; j < trees.size(); ++j)
            if (i != j)
                pairs.push_back({&trees[i], &trees[j]});
    std::vector<double> expected =
        reference.compareMany(pairs).value();

    for (std::size_t shards : {1u, 2u, 4u}) {
        ShardedServer server(
            tinyOptions(),
            ShardedServer::Options().withNumShards(shards));
        auto got = server.submitCompareMany(pairs).get();
        ASSERT_TRUE(got.isOk()) << "shards=" << shards;
        ASSERT_EQ(got.value().size(), expected.size());
        // The 30-pair request is split across shards and joined;
        // every slice must land back in its original slot with the
        // exact synchronous value.
        for (std::size_t k = 0; k < expected.size(); ++k)
            EXPECT_EQ(got.value()[k], expected[k])
                << "shards=" << shards << " pair " << k;
    }
}

TEST(ShardedServer, RankSplitsAcrossShardsAndMatchesEngineExactly)
{
    Engine reference(tinyOptions());
    std::vector<Ast> trees;
    for (int i = 1; i <= 5; ++i)
        trees.push_back(tinyProgram(i));
    std::vector<const Ast*> candidates;
    for (const Ast& t : trees)
        candidates.push_back(&t);
    auto expected = reference.rank(candidates).value();

    for (std::size_t shards : {1u, 2u, 4u}) {
        ShardedServer server(
            tinyOptions(),
            ShardedServer::Options().withNumShards(shards));
        auto got = server.submitRank(candidates).get();
        ASSERT_TRUE(got.isOk()) << "shards=" << shards;
        ASSERT_EQ(got.value().size(), expected.size());
        for (std::size_t i = 0; i < expected.size(); ++i) {
            EXPECT_EQ(got.value()[i].index, expected[i].index);
            EXPECT_EQ(got.value()[i].wins, expected[i].wins);
            EXPECT_EQ(got.value()[i].meanProbFaster,
                      expected[i].meanProbFaster);
        }
    }
}

TEST(ShardedServer, DeterministicMultiProducerStressMatchesSyncPath)
{
    constexpr int kClients = 6;
    constexpr int kRequestsPerClient = 60;
    constexpr int kTrees = 8;

    std::vector<Ast> trees;
    for (int i = 1; i <= kTrees; ++i)
        trees.push_back(tinyProgram(i));

    // Reference matrix from the synchronous path.
    Engine reference(tinyOptions());
    std::vector<Engine::PairRequest> allPairs;
    for (int i = 0; i < kTrees; ++i)
        for (int j = 0; j < kTrees; ++j)
            if (i != j)
                allPairs.push_back({&trees[i], &trees[j]});
    std::vector<double> refProbs =
        reference.compareMany(allPairs).value();
    auto expectedProb = [&](int i, int j) {
        int row = i * (kTrees - 1);
        int col = j < i ? j : j - 1;
        return refProbs[static_cast<std::size_t>(row + col)];
    };

    // Fixed request schedule: one seeded base/rng stream per client,
    // fully materialised BEFORE any thread runs, so every shard
    // configuration replays the identical workload.
    struct WorkItem
    {
        int first;
        int second;
    };
    std::vector<std::vector<WorkItem>> schedule(kClients);
    for (int c = 0; c < kClients; ++c) {
        Rng rng(9000 + static_cast<std::uint64_t>(c));
        for (int k = 0; k < kRequestsPerClient; ++k) {
            int i = rng.uniformInt(0, kTrees - 1);
            int j = rng.uniformInt(0, kTrees - 2);
            if (j >= i)
                ++j;
            schedule[static_cast<std::size_t>(c)].push_back(
                WorkItem{i, j});
        }
    }

    for (std::size_t shards : {1u, 2u, 4u}) {
        ShardedServer server(tinyOptions(),
                             ShardedServer::Options()
                                 .withNumShards(shards)
                                 .withQueueCapacity(64)
                                 .withMaxBatchSize(16));
        std::vector<std::thread> clients;
        std::vector<int> mismatches(kClients, 0);
        std::vector<int> failures(kClients, 0);
        for (int c = 0; c < kClients; ++c) {
            clients.emplace_back([&, c] {
                std::vector<std::future<Result<double>>> futures;
                futures.reserve(kRequestsPerClient);
                for (const WorkItem& w :
                     schedule[static_cast<std::size_t>(c)])
                    futures.push_back(server.submitCompare(
                        trees[static_cast<std::size_t>(w.first)],
                        trees[static_cast<std::size_t>(w.second)]));
                for (int k = 0; k < kRequestsPerClient; ++k) {
                    Result<double> got =
                        futures[static_cast<std::size_t>(k)].get();
                    const WorkItem& w = schedule[static_cast<
                        std::size_t>(c)][static_cast<std::size_t>(k)];
                    if (!got.isOk())
                        failures[static_cast<std::size_t>(c)]++;
                    else if (got.value() !=
                             expectedProb(w.first, w.second))
                        mismatches[static_cast<std::size_t>(c)]++;
                }
            });
        }
        for (std::thread& t : clients)
            t.join();
        for (int c = 0; c < kClients; ++c) {
            EXPECT_EQ(failures[static_cast<std::size_t>(c)], 0)
                << "shards=" << shards << " client " << c;
            EXPECT_EQ(mismatches[static_cast<std::size_t>(c)], 0)
                << "shards=" << shards << " client " << c;
        }

        ShardedServerStats stats = server.stats();
        const auto total = static_cast<std::uint64_t>(
            kClients * kRequestsPerClient);
        EXPECT_EQ(stats.aggregate.requestsSubmitted, total);
        EXPECT_EQ(stats.aggregate.requestsCompleted, total);
        EXPECT_EQ(stats.aggregate.requestsFailed, 0u);
        EXPECT_EQ(stats.aggregate.pairsServed, total);
        EXPECT_GE(stats.aggregate.batches, 1u);
        // Every distinct tree is resident on exactly one partition
        // of the shared cache.
        EXPECT_EQ(server.cache().size(),
                  static_cast<std::size_t>(kTrees));
    }
}

TEST(ShardedServer, ClosedLoopEightProducerStressIsBitwiseEqual)
{
    constexpr int kClients = 8;
    constexpr int kRequestsPerClient = 100;
    constexpr int kTrees = 6;

    std::vector<Ast> trees;
    for (int i = 1; i <= kTrees; ++i)
        trees.push_back(tinyProgram(i));

    // Reference matrix from the synchronous path.
    Engine reference(tinyOptions());
    std::vector<Engine::PairRequest> allPairs;
    for (int i = 0; i < kTrees; ++i)
        for (int j = 0; j < kTrees; ++j)
            if (i != j)
                allPairs.push_back({&trees[i], &trees[j]});
    std::vector<double> refProbs =
        reference.compareMany(allPairs).value();
    auto expectedProb = [&](int i, int j) {
        // Row-major over ordered pairs with the diagonal removed.
        int row = i * (kTrees - 1);
        int col = j < i ? j : j - 1;
        return refProbs[static_cast<std::size_t>(row + col)];
    };

    // Submit-and-wait clients: batches are bounded by the client
    // count, so coalescing runs on every tick.
    for (std::size_t shards : {1u, 4u}) {
        ShardedServer server(tinyOptions(),
                             ShardedServer::Options()
                                 .withNumShards(shards)
                                 .withQueueCapacity(64)
                                 .withMaxBatchSize(32));
        std::vector<std::thread> clients;
        std::vector<int> mismatches(kClients, 0);
        std::vector<int> failures(kClients, 0);
        for (int c = 0; c < kClients; ++c) {
            clients.emplace_back([&, c] {
                for (int k = 0; k < kRequestsPerClient; ++k) {
                    int i = (c * 7 + k) % kTrees;
                    int j = (c * 11 + 3 * k + 1) % kTrees;
                    if (i == j)
                        j = (j + 1) % kTrees;
                    Result<double> got =
                        server
                            .submitCompare(
                                trees[static_cast<std::size_t>(i)],
                                trees[static_cast<std::size_t>(j)])
                            .get();
                    if (!got.isOk())
                        failures[static_cast<std::size_t>(c)]++;
                    else if (got.value() != expectedProb(i, j))
                        mismatches[static_cast<std::size_t>(c)]++;
                }
            });
        }
        for (std::thread& t : clients)
            t.join();
        for (int c = 0; c < kClients; ++c) {
            EXPECT_EQ(failures[static_cast<std::size_t>(c)], 0)
                << "shards=" << shards << " client " << c;
            EXPECT_EQ(mismatches[static_cast<std::size_t>(c)], 0)
                << "shards=" << shards << " client " << c;
        }

        ServerStats stats = server.stats().aggregate;
        EXPECT_EQ(stats.requestsSubmitted,
                  static_cast<std::uint64_t>(kClients *
                                             kRequestsPerClient));
        EXPECT_EQ(stats.requestsCompleted, stats.requestsSubmitted);
        EXPECT_EQ(stats.requestsFailed, 0u);
        EXPECT_EQ(stats.pairsServed, stats.requestsSubmitted);
        EXPECT_GE(stats.batches, 1u);
        EXPECT_EQ(stats.batchSizes.count(), stats.batches);
        EXPECT_EQ(stats.batchSizes.sum(), stats.pairsServed);
    }
}

TEST(ShardedServer, OneShardCoalescesStagedRequestsIntoOneBatch)
{
    Ast a = tinyProgram(1);
    Ast b = tinyProgram(2);

    ShardedServer server(tinyOptions(),
                         ShardedServer::Options()
                             .withNumShards(1)
                             .withStartPaused(true)
                             .withMaxBatchSize(10));
    std::vector<std::future<Result<double>>> futures;
    for (int k = 0; k < 10; ++k)
        futures.push_back(server.submitCompare(a, b));
    EXPECT_EQ(server.stats().aggregate.queueDepth, 10u);

    server.start();
    for (auto& f : futures)
        EXPECT_TRUE(f.get().isOk());

    // All ten single-pair requests were staged before the one worker
    // ran, so they coalesce into exactly one full batch.
    ServerStats stats = server.stats().aggregate;
    EXPECT_EQ(stats.batches, 1u);
    EXPECT_EQ(stats.pairsServed, 10u);
    EXPECT_EQ(stats.batchSizes.max(), 10u);
    EXPECT_EQ(stats.queueDepth, 0u);
}

TEST(ShardedServer, ShutdownDrainsEveryAcceptedRequest)
{
    Engine reference(tinyOptions());
    Ast a = tinyProgram(1);
    Ast b = tinyProgram(3);
    std::vector<Ast> trees;
    for (int i = 1; i <= 5; ++i)
        trees.push_back(tinyProgram(i));
    std::vector<Engine::PairRequest> manyPairs;
    for (std::size_t i = 0; i + 1 < trees.size(); ++i)
        manyPairs.push_back({&trees[i], &trees[i + 1]});
    double expected = reference.compare(a, b).value();
    auto expectedMany = reference.compareMany(manyPairs).value();

    // Paused server: nothing runs until shutdown, which must still
    // answer every accepted request — including ones already split
    // across shards — before returning.
    for (std::size_t shards : {1u, 4u}) {
        ShardedServer server(tinyOptions(),
                             ShardedServer::Options()
                                 .withNumShards(shards)
                                 .withStartPaused(true)
                                 .withQueueCapacity(256));
        std::vector<std::future<Result<double>>> singles;
        for (int k = 0; k < 20; ++k)
            singles.push_back(server.submitCompare(a, b));
        auto split = server.submitCompareMany(manyPairs);
        // One queue entry per single plus one per slice of the
        // split request (the whole request at one shard).
        EXPECT_GE(server.stats().aggregate.queueDepth, 21u)
            << "shards=" << shards;

        server.shutdown();
        EXPECT_TRUE(server.isShutdown());

        for (auto& f : singles) {
            Result<double> got = f.get();
            ASSERT_TRUE(got.isOk());
            EXPECT_EQ(got.value(), expected);
        }
        auto gotMany = split.get();
        ASSERT_TRUE(gotMany.isOk());
        ASSERT_EQ(gotMany.value().size(), expectedMany.size());
        for (std::size_t k = 0; k < expectedMany.size(); ++k)
            EXPECT_EQ(gotMany.value()[k], expectedMany[k]);
        EXPECT_EQ(server.stats().aggregate.requestsCompleted, 21u);
    }
}

TEST(ShardedServer, DeadlineExpiresWhileQueuedAndCountsOnce)
{
    Engine reference(tinyOptions());
    std::vector<Ast> trees;
    for (int i = 1; i <= 5; ++i)
        trees.push_back(tinyProgram(i));
    std::vector<Engine::PairRequest> pairs;
    for (std::size_t i = 0; i + 1 < trees.size(); ++i)
        pairs.push_back({&trees[i], &trees[i + 1]});

    // Paused server: the request sits queued past its deadline, so
    // the worker must answer DeadlineExceeded instead of encoding it
    // — the deadline bounds queue wait, not execution. At 2 shards
    // the request is split and expires on every shard it touched,
    // but the rejection is attributed to ONE request — the join must
    // not double-count slices.
    for (std::size_t shards : {1u, 2u}) {
        ShardedServer server(tinyOptions(),
                             ShardedServer::Options()
                                 .withNumShards(shards)
                                 .withStartPaused(true));
        auto expired = server.submitCompareMany(
            pairs, SubmitOptions().withDeadline(microseconds(1000)));
        std::this_thread::sleep_for(milliseconds(50));
        server.start();
        auto got = expired.get();
        ASSERT_FALSE(got.isOk());
        EXPECT_EQ(got.status().code(), StatusCode::DeadlineExceeded);

        // A generous deadline completes with the exact sync values.
        auto fine = server.submitCompareMany(
            pairs,
            SubmitOptions().withDeadline(microseconds(30'000'000)));
        auto fineGot = fine.get();
        ASSERT_TRUE(fineGot.isOk());
        EXPECT_EQ(fineGot.value(),
                  reference.compareMany(pairs).value());

        server.shutdown();
        ServerStats stats = server.stats().aggregate;
        EXPECT_EQ(stats.requestsSubmitted, 2u);
        EXPECT_EQ(stats.requestsRejectedDeadline, 1u);
        EXPECT_EQ(stats.requestsCompleted, 1u);
        // Every request here entered the queue, so each submitted
        // request ended completed, failed, or deadline-rejected.
        EXPECT_EQ(stats.requestsSubmitted,
                  stats.requestsCompleted + stats.requestsFailed +
                      stats.requestsRejectedDeadline);
    }
}

TEST(ShardedServer, TrySubmitShedsLoadWhenQueueIsFull)
{
    Ast a = tinyProgram(1);
    Ast b = tinyProgram(2);

    for (std::size_t shards : {1u, 4u}) {
        ShardedServer server(tinyOptions(),
                             ShardedServer::Options()
                                 .withNumShards(shards)
                                 .withStartPaused(true)
                                 .withQueueCapacity(2));
        auto first = server.trySubmitCompare(a, b);
        auto second = server.trySubmitCompare(a, b);
        ASSERT_TRUE(first.has_value());
        ASSERT_TRUE(second.has_value());

        auto third = server.trySubmitCompare(a, b);
        EXPECT_FALSE(third.has_value()); // queue full: load shed

        ServerStats stats = server.stats().aggregate;
        EXPECT_EQ(stats.queueDepth, 2u);
        EXPECT_EQ(stats.queueCapacity, 2u);
        EXPECT_EQ(stats.requestsSubmitted, 2u);
        EXPECT_EQ(stats.requestsRejected, 1u);
        EXPECT_EQ(stats.requestsRejectedShed, 1u);

        // The accepted requests are still answered once draining
        // starts.
        server.shutdown();
        EXPECT_TRUE(first->get().isOk());
        EXPECT_TRUE(second->get().isOk());
    }
}

TEST(ShardedServer, TrySubmitLoadShedIsAllOrNothingAcrossShards)
{
    // Find two trees whose digests live on different partitions of a
    // 4-way cache, so a pair batch over them must split into at
    // least two queue slices.
    std::vector<Ast> pool;
    for (int i = 1; i <= 8; ++i)
        pool.push_back(tinyProgram(i));
    int first = 0, second = -1;
    std::size_t shard0 =
        ShardedEncodingCache::shardOf(digestAst(pool[0]), 4);
    for (std::size_t i = 1; i < pool.size(); ++i) {
        if (ShardedEncodingCache::shardOf(digestAst(pool[i]), 4) !=
            shard0) {
            second = static_cast<int>(i);
            break;
        }
    }
    ASSERT_GE(second, 0) << "pool unexpectedly hashed to one shard";

    ShardedServer server(tinyOptions(),
                         ShardedServer::Options()
                             .withNumShards(4)
                             .withStartPaused(true)
                             .withQueueCapacity(1));
    // Splits into two slices, but only one slot exists: the whole
    // request is shed and the queue stays empty — no stranded half.
    std::vector<Engine::PairRequest> crossShard{
        {&pool[static_cast<std::size_t>(first)],
         &pool[static_cast<std::size_t>(second)]},
        {&pool[static_cast<std::size_t>(second)],
         &pool[static_cast<std::size_t>(first)]}};
    auto shed = server.trySubmitCompareMany(crossShard);
    EXPECT_FALSE(shed.has_value());
    EXPECT_EQ(server.stats().aggregate.queueDepth, 0u);
    EXPECT_EQ(server.stats().aggregate.requestsRejected, 1u);

    // A single-pair request fits the one slot...
    auto accepted = server.trySubmitCompare(pool[0], pool[1]);
    ASSERT_TRUE(accepted.has_value());
    EXPECT_EQ(server.stats().aggregate.queueDepth, 1u);
    // ...and the next one is shed.
    EXPECT_FALSE(server.trySubmitCompare(pool[0], pool[2])
                     .has_value());
    EXPECT_EQ(server.stats().aggregate.requestsRejected, 2u);

    // Accepted work is still answered once draining starts.
    server.shutdown();
    EXPECT_TRUE(accepted->get().isOk());
    EXPECT_EQ(server.stats().aggregate.requestsCompleted, 1u);
}

TEST(ShardedServer, SubmitAfterShutdownResolvesUnavailable)
{
    Ast a = tinyProgram(1);
    Ast b = tinyProgram(2);
    for (std::size_t shards : {1u, 2u}) {
        ShardedServer server(
            tinyOptions(),
            ShardedServer::Options().withNumShards(shards));
        server.shutdown();
        server.shutdown(); // idempotent

        auto blocking = server.submitCompare(a, b).get();
        ASSERT_FALSE(blocking.isOk());
        EXPECT_EQ(blocking.status().code(), StatusCode::Unavailable);

        // trySubmit distinguishes teardown (future with Unavailable)
        // from backpressure (nullopt).
        auto attempted = server.trySubmitCompare(a, b);
        ASSERT_TRUE(attempted.has_value());
        auto tried = attempted->get();
        ASSERT_FALSE(tried.isOk());
        EXPECT_EQ(tried.status().code(), StatusCode::Unavailable);
        EXPECT_EQ(server.stats().aggregate.requestsRejectedShutdown,
                  2u);
        EXPECT_EQ(server.stats().aggregate.requestsRejected, 2u);
    }
}

TEST(ShardedServer, TrySubmitOfSplitRequestAfterShutdownResolves)
{
    // Regression: a cross-shard request rejected by a CLOSED queue
    // must resolve every slice, or the join never fires and the
    // caller's future dies as a broken promise instead of carrying
    // Unavailable.
    std::vector<Ast> pool;
    for (int i = 1; i <= 8; ++i)
        pool.push_back(tinyProgram(i));
    std::size_t shard0 =
        ShardedEncodingCache::shardOf(digestAst(pool[0]), 4);
    int other = -1;
    for (std::size_t i = 1; i < pool.size(); ++i) {
        if (ShardedEncodingCache::shardOf(digestAst(pool[i]), 4) !=
            shard0) {
            other = static_cast<int>(i);
            break;
        }
    }
    ASSERT_GE(other, 0) << "pool unexpectedly hashed to one shard";

    ShardedServer server(
        tinyOptions(), ShardedServer::Options().withNumShards(4));
    server.shutdown();

    std::vector<Engine::PairRequest> crossShard{
        {&pool[0], &pool[static_cast<std::size_t>(other)]},
        {&pool[static_cast<std::size_t>(other)], &pool[0]}};
    auto attempted = server.trySubmitCompareMany(crossShard);
    ASSERT_TRUE(attempted.has_value());
    auto got = attempted->get(); // must not throw broken_promise
    ASSERT_FALSE(got.isOk());
    EXPECT_EQ(got.status().code(), StatusCode::Unavailable);

    // The blocking path makes the same promise.
    auto blocked = server.submitCompareMany(crossShard).get();
    ASSERT_FALSE(blocked.isOk());
    EXPECT_EQ(blocked.status().code(), StatusCode::Unavailable);
    // A refused request counts as rejected ONLY —
    // completed/failed/rejected stay disjoint outcomes.
    EXPECT_EQ(server.stats().aggregate.requestsRejected, 2u);
    EXPECT_EQ(server.stats().aggregate.requestsFailed, 0u);
    EXPECT_EQ(server.stats().aggregate.requestsCompleted, 0u);
}

TEST(ShardedServer, MalformedRequestsFailOnlyTheirOwnFuture)
{
    Ast a = tinyProgram(1);
    Ast b = tinyProgram(2);
    for (std::size_t shards : {1u, 2u}) {
        ShardedServer server(
            tinyOptions(),
            ShardedServer::Options().withNumShards(shards));

        auto nullPair = server
                            .submitCompareMany(
                                {Engine::PairRequest{&a, nullptr}})
                            .get();
        ASSERT_FALSE(nullPair.isOk());
        EXPECT_EQ(nullPair.status().code(),
                  StatusCode::InvalidArgument);

        auto degenerate = server.submitRank({&a}).get();
        ASSERT_FALSE(degenerate.isOk());
        EXPECT_EQ(degenerate.status().code(),
                  StatusCode::InvalidArgument);

        auto empty = server.submitCompareMany({}).get();
        ASSERT_TRUE(empty.isOk());
        EXPECT_TRUE(empty.value().empty());

        // The server keeps serving after rejecting malformed
        // requests.
        EXPECT_TRUE(server.submitCompare(a, b).get().isOk());
        EXPECT_EQ(server.stats().aggregate.requestsFailed, 2u);
    }
}

TEST(ShardedServer, StatsExposeEngineCacheCountersAndLatency)
{
    Ast a = tinyProgram(2);
    Ast b = tinyProgram(4);
    for (std::size_t shards : {1u, 4u}) {
        ShardedServer server(
            tinyOptions(),
            ShardedServer::Options().withNumShards(shards));

        // Same pair repeatedly: the first batch encodes, later ones
        // hit the shared cache whichever worker serves them.
        for (int round = 0; round < 3; ++round)
            ASSERT_TRUE(server.submitCompare(a, b).get().isOk());

        ServerStats stats = server.stats().aggregate;
        EXPECT_EQ(stats.engine.treesEncoded, 2u) << "shards=" << shards;
        EXPECT_GE(stats.engine.cacheHits, 2u);
        EXPECT_GE(stats.engine.cacheMisses, 2u);
        EXPECT_EQ(stats.engine.cacheSize, 2u);
        EXPECT_EQ(stats.engine.pairsServed, 3u);

        EXPECT_GE(stats.latencyP50Ms, 0.0);
        EXPECT_GE(stats.latencyP99Ms, stats.latencyP50Ms);
        EXPECT_GE(stats.latencyMaxMs, stats.latencyP99Ms);
        EXPECT_GT(stats.latencyMaxMs, 0.0);
    }
}

TEST(ShardedServer, StatsAggregateIsExactlyTheShardRowsMerged)
{
    std::vector<Ast> trees;
    for (int i = 1; i <= 6; ++i)
        trees.push_back(tinyProgram(i));
    std::vector<Engine::PairRequest> pairs;
    for (std::size_t i = 0; i < trees.size(); ++i)
        for (std::size_t j = 0; j < trees.size(); ++j)
            if (i != j)
                pairs.push_back({&trees[i], &trees[j]});

    ShardedServer server(
        tinyOptions(), ShardedServer::Options().withNumShards(4));
    // Two rounds: the second one hits the now-warm shared cache.
    for (int round = 0; round < 2; ++round)
        ASSERT_TRUE(server.submitCompareMany(pairs).get().isOk());

    ShardedServerStats stats = server.stats();
    ASSERT_EQ(stats.shards.size(), 4u);

    std::uint64_t batches = 0, pairsServed = 0, latencyCount = 0;
    std::uint64_t hits = 0, misses = 0, evictions = 0;
    std::size_t cacheSize = 0;
    for (const ServerStats& row : stats.shards) {
        batches += row.batches;
        pairsServed += row.pairsServed;
        latencyCount += row.latencyUs.count();
        hits += row.engine.cacheHits;
        misses += row.engine.cacheMisses;
        evictions += row.engine.cacheEvictions;
        cacheSize += row.engine.cacheSize;
    }
    EXPECT_EQ(stats.aggregate.batches, batches);
    EXPECT_EQ(stats.aggregate.pairsServed, pairsServed);
    EXPECT_EQ(stats.aggregate.pairsServed,
              static_cast<std::uint64_t>(2 * pairs.size()));
    EXPECT_EQ(stats.aggregate.latencyUs.count(), latencyCount);
    EXPECT_EQ(stats.aggregate.batchSizes.sum(),
              stats.aggregate.pairsServed);

    // Cache partition rows sum to the shared cache's own counters.
    EXPECT_EQ(stats.aggregate.engine.cacheHits, hits);
    EXPECT_EQ(stats.aggregate.engine.cacheMisses, misses);
    EXPECT_EQ(stats.aggregate.engine.cacheEvictions, evictions);
    EXPECT_EQ(stats.aggregate.engine.cacheSize, cacheSize);
    EXPECT_EQ(hits, server.cache().stats().hits);
    EXPECT_EQ(misses, server.cache().stats().misses);
    EXPECT_EQ(cacheSize, server.cache().size());
    EXPECT_EQ(cacheSize, trees.size());
    // The warm round guarantees real hits.
    EXPECT_GE(hits, trees.size());

    // Aggregate percentiles come from the merged histogram, never
    // from averaging shard percentiles.
    Histogram merged;
    for (const ServerStats& row : stats.shards)
        merged.merge(row.latencyUs);
    EXPECT_DOUBLE_EQ(stats.aggregate.latencyP50Ms,
                     static_cast<double>(
                         merged.quantileUpperBound(0.5)) /
                         1000.0);
    EXPECT_DOUBLE_EQ(stats.aggregate.latencyP99Ms,
                     static_cast<double>(
                         merged.quantileUpperBound(0.99)) /
                         1000.0);
    EXPECT_LE(stats.aggregate.latencyP50Ms,
              stats.aggregate.latencyP99Ms);
    EXPECT_LE(stats.aggregate.latencyP99Ms,
              stats.aggregate.latencyMaxMs);
}

TEST(ShardedServer, ServesTrainedSharedModelAcrossAllShards)
{
    // All shard engines must serve the SAME model object: a model
    // handed in once answers identically through every shard.
    auto model = std::make_shared<ComparativePredictor>(
        tinyOptions().encoder, /*seed=*/7);
    Engine reference(model);
    Ast a = tinyProgram(2);
    Ast b = tinyProgram(4);
    double expected = reference.compare(a, b).value();

    ShardedServer server(model, tinyOptions(),
                         ShardedServer::Options().withNumShards(3));
    for (std::size_t s = 0; s < server.numShards(); ++s)
        EXPECT_EQ(&server.shardEngine(s).model(), model.get());
    auto got = server.submitCompare(a, b).get();
    ASSERT_TRUE(got.isOk());
    EXPECT_EQ(got.value(), expected);
}

} // namespace
} // namespace ccsa

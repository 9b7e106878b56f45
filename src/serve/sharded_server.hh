/**
 * @file
 * ccsa::ShardedServer — futures-based serving with cross-request
 * dynamic batching, executed by N worker threads over a partitioned
 * encoding cache. Clients submit comparisons and tournaments and get
 * a std::future back at once; the request side (validation,
 * admission, model resolution, digest split/join, accounting) is the
 * shared serve/front_end.hh. This class is the in-process EXECUTION
 * side:
 *
 *  - N worker threads consume the SAME BoundedQueue (work-stealing
 *    load balance: an idle worker takes whatever is next), each
 *    running the serve/coalesce.hh two-lane coalescing loop against
 *    its own Engine, so up to N batches are in flight at once. A
 *    worker flushes its batch when it holds maxBatchSize pairs or,
 *    with interactive work pending, as soon as the queue runs dry
 *    (batch-lane work alone waits up to maxBatchClassDelay), then
 *    fans results back to each caller's promise.
 *  - All N engines share one ShardedEncodingCache: the key space is
 *    partitioned by AST structural digest (digest % numShards), each
 *    partition is an independently-locked LRU, so a tree's latent
 *    lives on exactly one shard no matter which worker encoded it,
 *    workers only contend when their trees hash to the same
 *    partition, and aggregate cache capacity scales with the shard
 *    count at a fixed per-shard memory budget.
 *  - A multi-pair request is split into per-partition slices that
 *    different workers execute concurrently and joined back in
 *    request order; submitRank rides the same machinery, so a big
 *    tournament parallelises across shards.
 *
 * One shard (Options::withNumShards(1)) is the single-batcher
 * configuration: one worker, one engine, one cache partition — the
 * right default for a small deployment and the baseline the
 * sharded rows of bench/serve_throughput.cc are measured against.
 *
 * Determinism contract: every pair's probability is produced by
 * Engine::compareMany, whose per-pair output is independent of batch
 * composition, worker assignment, and shard count, so results are
 * bitwise-identical to a synchronous Engine on the same weights at
 * 1, 2, 4, or 8 shards (tests/test_sharded_server.cc pins this under
 * multi-producer stress schedules).
 *
 * Stats: per-shard ServerStats plus an aggregate whose latency
 * percentiles are derived from the MERGED per-shard latency
 * histograms (mergeServerStats) — never by averaging per-shard
 * percentiles, which is statistically wrong.
 *
 * Multi-model serving: construct over a ModelRegistry and submit
 * with SubmitOptions().withModel(name). Names resolve to immutable
 * ModelVersion snapshots AT ADMISSION (a request admitted before a
 * hot swap completes on the version it was admitted under); each
 * worker tick executes one engine call per (model version, pairs)
 * group of its coalesced batch; and the shared cache keys latents by
 * (version id, digest), so models and hot-swapped versions occupy
 * isolated namespaces while all N workers still share each
 * version's latents. Per model, results stay bitwise-identical to a
 * dedicated single-model Engine at any shard count.
 *
 * Failure semantics: per-request Status, never process death. A
 * malformed request fails only its own future; a batch-level engine
 * failure fails only the requests of its model group; submissions
 * after shutdown() resolve immediately with Unavailable.
 *
 * Lifetime: trees referenced by a request must stay alive until its
 * future is ready. shutdown() closes the queue, answers everything
 * accepted, joins the workers, and is idempotent; the destructor
 * calls it.
 */

#ifndef CCSA_SERVE_SHARDED_SERVER_HH
#define CCSA_SERVE_SHARDED_SERVER_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "base/result.hh"
#include "serve/admission/admission_controller.hh"
#include "serve/engine.hh"
#include "serve/front_end.hh"
#include "serve/server_stats.hh"
#include "serve/trace/trace_recorder.hh"

namespace ccsa
{

class SloTracker;

/** Fleet-plus-per-shard snapshot; see ShardedServer::stats(). */
struct ShardedServerStats
{
    /** Whole-server view. Queue and request counters are global;
     * batching/latency/engine fields are the per-shard rows merged
     * (latency percentiles from the merged histogram). */
    ServerStats aggregate;
    /** One row per shard: that worker's batching volume and latency
     * distribution, its engine's encode volume, and its cache
     * PARTITION's hit/miss/eviction/size counters (request-level
     * and queue fields stay zero — those are global). */
    std::vector<ServerStats> shards;
};

/** N-worker sharded serving front over one request queue. */
class ShardedServer
{
  public:
    /** Builder-style serving options. */
    struct Options
    {
        /** Worker threads == engines == cache partitions. */
        std::size_t numShards = 4;
        /** Max requests waiting in the shared queue. */
        std::size_t queueCapacity = 1024;
        /** Flush a worker's batch once it holds this many pairs. */
        std::size_t maxBatchSize = 256;
        /** Flush budget of the BATCH priority lane (see
         * serve/coalesce.hh): batch-class members may be held past
         * an interactive flush until the oldest waited this long,
         * so background traffic rides full batches. Interactive
         * work has no timer: it flushes once the queue runs dry. */
        std::chrono::microseconds maxBatchClassDelay{4000};
        /** Optional per-tenant admission gate shared by every submit
         * endpoint (not owned; must outlive the server). */
        AdmissionController* admission = nullptr;
        /** Optional span sink (not owned; must outlive the server).
         * A split request records one chain PER SHARD SLICE, with
         * the executing worker's index as the lane/tid. */
        TraceRecorder* trace = nullptr;
        /** Encoder threads inside EACH shard engine. The default of
         * 1 (inline) is right when numShards already covers the
         * cores; raise it for few shards + huge batches. */
        int threadsPerShard = 1;
        /** Do not start the workers until start(). */
        bool startPaused = false;
        /** Optional process-wide metrics plane (not owned; must
         * outlive the server). Counters update inline under
         * {server="sharded"}; pull-style gauges publish on
         * sampleMetrics(). */
        MetricsRegistry* metrics = nullptr;
        /** Optional SLO accountant fed one event per SHARD SLICE a
         * worker completes (not owned; must outlive the server).
         * Slice latency bounds the caller-observed latency from
         * below — see ServerStats::latencyUs. */
        SloTracker* slo = nullptr;
        /** Window shape for ccsa_request_latency_us. The FIRST
         * server (of either flavour) to record into the family fixes
         * its shape process-wide (MetricsRegistry family
         * semantics). */
        WindowedHistogram::Options metricsWindow;

        Options& withNumShards(std::size_t n)
        {
            numShards = n == 0 ? 1 : n;
            return *this;
        }

        Options& withQueueCapacity(std::size_t n)
        {
            queueCapacity = n;
            return *this;
        }

        Options& withMaxBatchSize(std::size_t n)
        {
            maxBatchSize = n == 0 ? 1 : n;
            return *this;
        }

        Options& withMaxBatchClassDelay(std::chrono::microseconds d)
        {
            maxBatchClassDelay = d;
            return *this;
        }

        Options& withAdmission(AdmissionController* controller)
        {
            admission = controller;
            return *this;
        }

        Options& withTrace(TraceRecorder* recorder)
        {
            trace = recorder;
            return *this;
        }

        Options& withThreadsPerShard(int n)
        {
            threadsPerShard = n;
            return *this;
        }

        Options& withStartPaused(bool paused)
        {
            startPaused = paused;
            return *this;
        }

        Options& withMetrics(MetricsRegistry* registry)
        {
            metrics = registry;
            return *this;
        }

        Options& withSlo(SloTracker* tracker)
        {
            slo = tracker;
            return *this;
        }

        Options& withMetricsWindow(WindowedHistogram::Options w)
        {
            metricsWindow = w;
            return *this;
        }
    };

    /** Build a fresh model from engineOpts and serve it sharded. */
    explicit ShardedServer(Engine::Options engineOpts);
    ShardedServer(Engine::Options engineOpts, Options opts);

    /**
     * Serve an existing (typically trained) predictor: every shard
     * engine shares the SAME model object (wrapped once in one
     * ModelVersion, so they also share its cache namespace) and all
     * shards answer with identical weights. engineOpts supplies the
     * per-shard serving knobs (cacheCapacity is PER PARTITION;
     * threads is overridden by opts.threadsPerShard).
     */
    ShardedServer(std::shared_ptr<ComparativePredictor> model,
                  Engine::Options engineOpts, Options opts);

    /**
     * Multi-model serving: every shard engine resolves model names
     * through the same registry, over one shared namespace-aware
     * cache. Submit with SubmitOptions().withModel(name); hot-swap
     * by publishing to the registry while traffic flows.
     */
    ShardedServer(std::shared_ptr<ModelRegistry> registry,
                  Engine::Options engineOpts, Options opts);

    /** Equivalent to shutdown(). */
    ~ShardedServer();

    ShardedServer(const ShardedServer&) = delete;
    ShardedServer& operator=(const ShardedServer&) = delete;

    /**
     * Submit one comparison; resolves to P(first slower-or-equal),
     * exactly as Engine::compare. Blocks while the queue is full.
     * SubmitOptions carries the model name (registry serving),
     * tenant, priority lane and deadline.
     */
    std::future<Result<double>>
    submitCompare(const Ast& first, const Ast& second,
                  const SubmitOptions& submitOpts = SubmitOptions());

    /**
     * Submit a pair batch; resolves to one probability per pair in
     * request order. Multi-pair requests are split into per-shard
     * sub-requests executed by different workers and joined back in
     * order — the result is bitwise-identical to
     * Engine::compareMany on the whole batch.
     */
    std::future<Result<std::vector<double>>>
    submitCompareMany(std::vector<Engine::PairRequest> pairs,
                      const SubmitOptions& submitOpts = SubmitOptions());

    /**
     * Submit a ranking tournament: tournamentPairs splits it across
     * shards, aggregateTournament joins it, so the ranking is
     * bitwise-identical to Engine::rank.
     */
    std::future<Result<std::vector<Engine::RankedCandidate>>>
    submitRank(std::vector<const Ast*> candidates,
               const SubmitOptions& submitOpts = SubmitOptions());

    /**
     * Non-blocking submitCompare: nullopt when the queue lacks room
     * (nothing was enqueued). A shut-down server still returns a
     * future carrying Unavailable, so callers can tell backpressure
     * from teardown.
     */
    std::optional<std::future<Result<double>>>
    trySubmitCompare(const Ast& first, const Ast& second,
                     const SubmitOptions& submitOpts = SubmitOptions());

    /**
     * Non-blocking submitCompareMany. Admission is all-or-nothing:
     * either every per-shard piece of the request fits in the queue
     * or none is enqueued and nullopt is returned — a load-shed
     * request never leaves half of itself behind.
     */
    std::optional<std::future<Result<std::vector<double>>>>
    trySubmitCompareMany(
        std::vector<Engine::PairRequest> pairs,
        const SubmitOptions& submitOpts = SubmitOptions());

    /** Start the workers if construction was startPaused. */
    void start();

    /**
     * Stop accepting requests, drain and answer everything already
     * accepted (starting the workers if they never ran), then join
     * all N workers. Idempotent.
     */
    void shutdown();

    /** @return true once shutdown() has completed. */
    bool isShutdown() const;

    /** Aggregate + per-shard counters snapshot. */
    ShardedServerStats stats() const;

    /** Publish the pull-style gauges (queue depth/capacity, live
     * models, per-namespace cache levels) to the attached registry;
     * no-op without one. Wire as a MetricsSampler probe. */
    void sampleMetrics() const;

    std::size_t numShards() const { return workers_.size(); }
    const Options& options() const { return opts_; }

    /** Shard s's engine (shares the model and the cache). */
    Engine& shardEngine(std::size_t s);

    /** The shared partitioned cache. */
    ShardedEncodingCache& cache() { return *cache_; }
    const ShardedEncodingCache& cache() const { return *cache_; }

  private:
    /** A worker: one thread, one engine, its own counters. */
    struct Worker
    {
        std::unique_ptr<Engine> engine;
        ShardCounters counters;
        std::thread thread;
    };

    /** The front end's wiring: one shared queue, numShards
     * partitions, model names resolved by the shard engines. */
    FrontEnd::Config frontEndConfig();

    void workerLoop(std::size_t shard);
    /** Emit one slice's five-span chain (no-op when untraced). */
    void recordTrace(const ServeRequest& request,
                     const Engine::PhaseTiming& timing,
                     std::uint32_t lane);

    /** Spawn all worker threads; caller holds lifecycleMutex_. */
    void startWorkersLocked();

    Options opts_;
    std::shared_ptr<ShardedEncodingCache> cache_;
    ServeQueue queue_;
    std::vector<std::unique_ptr<Worker>> workers_;
    /** Request side ({server="sharded"} instruments). */
    FrontEnd front_;

    /** Guards the worker-thread lifecycle (start/shutdown). */
    mutable std::mutex lifecycleMutex_;
    bool started_ = false;
    bool shutdown_ = false;
};

} // namespace ccsa

#endif // CCSA_SERVE_SHARDED_SERVER_HH

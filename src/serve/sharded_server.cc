#include "serve/sharded_server.hh"

#include <string>
#include <utility>

#include "base/logging.hh"
#include "serve/coalesce.hh"

namespace ccsa
{

namespace
{

ShardedServer::Options
normalized(ShardedServer::Options opts)
{
    if (opts.numShards == 0)
        opts.numShards = 1;
    if (opts.maxBatchSize == 0)
        opts.maxBatchSize = 1;
    return opts;
}

} // namespace

ShardedServer::ShardedServer(Engine::Options engineOpts)
    : ShardedServer(std::move(engineOpts), Options())
{
}

ShardedServer::ShardedServer(Engine::Options engineOpts, Options opts)
    : ShardedServer(std::make_shared<ComparativePredictor>(
                        engineOpts.encoder, engineOpts.seed),
                    engineOpts, opts)
{
}

ShardedServer::ShardedServer(
    std::shared_ptr<ComparativePredictor> model,
    Engine::Options engineOpts, Options opts)
    : opts_(normalized(opts)),
      cache_(ShardedEncodingCache::makeShared(
          opts_.numShards, engineOpts.cacheCapacity,
          engineOpts.latentPrecision)),
      queue_(opts_.queueCapacity), front_(frontEndConfig())
{
    engineOpts.threads = opts_.threadsPerShard;
    // Wrap the model ONCE: every worker engine shares this version
    // and therefore its cache namespace — a latent encoded by any
    // worker serves all of them.
    auto version = std::make_shared<ModelVersion>();
    version->name = "model";
    version->id = cache_->namespaceFor(model);
    version->sequence = 1;
    version->model = std::move(model);
    workers_.reserve(opts_.numShards);
    for (std::size_t s = 0; s < opts_.numShards; ++s) {
        auto worker = std::make_unique<Worker>();
        worker->engine =
            std::make_unique<Engine>(version, engineOpts, cache_);
        workers_.push_back(std::move(worker));
    }
    if (!opts_.startPaused)
        start();
}

ShardedServer::ShardedServer(std::shared_ptr<ModelRegistry> registry,
                             Engine::Options engineOpts, Options opts)
    : opts_(normalized(opts)),
      cache_(ShardedEncodingCache::makeShared(
          opts_.numShards, engineOpts.cacheCapacity,
          engineOpts.latentPrecision)),
      queue_(opts_.queueCapacity), front_(frontEndConfig())
{
    engineOpts.threads = opts_.threadsPerShard;
    workers_.reserve(opts_.numShards);
    for (std::size_t s = 0; s < opts_.numShards; ++s) {
        auto worker = std::make_unique<Worker>();
        worker->engine =
            std::make_unique<Engine>(registry, engineOpts, cache_);
        workers_.push_back(std::move(worker));
    }
    if (!opts_.startPaused)
        start();
}

FrontEnd::Config
ShardedServer::frontEndConfig()
{
    FrontEnd::Config config;
    config.name = "ShardedServer";
    config.metricsLabel = "sharded";
    config.partitions = opts_.numShards;
    config.queues = {&queue_};
    // Any worker's engine resolves names the same way (they share
    // the model or the registry); called per submit, after the
    // workers exist.
    config.resolve = [this](const std::string& name) {
        return workers_[0]->engine->resolveModel(name);
    };
    config.admission = opts_.admission;
    config.trace = opts_.trace;
    config.metrics = opts_.metrics;
    config.slo = opts_.slo;
    config.metricsWindow = opts_.metricsWindow;
    return config;
}

ShardedServer::~ShardedServer()
{
    shutdown();
}

void
ShardedServer::startWorkersLocked()
{
    for (std::size_t s = 0; s < workers_.size(); ++s)
        workers_[s]->thread =
            std::thread([this, s] { workerLoop(s); });
    started_ = true;
}

void
ShardedServer::start()
{
    std::lock_guard<std::mutex> lock(lifecycleMutex_);
    if (shutdown_ || started_)
        return;
    startWorkersLocked();
}

void
ShardedServer::shutdown()
{
    std::lock_guard<std::mutex> lock(lifecycleMutex_);
    if (shutdown_)
        return;
    // No new requests; already-queued ones stay poppable.
    queue_.close();
    // A paused server still owes answers for everything it
    // accepted: run the workers now so the closed queue drains.
    if (!started_)
        startWorkersLocked();
    for (auto& worker : workers_)
        worker->thread.join();
    shutdown_ = true;
}

bool
ShardedServer::isShutdown() const
{
    std::lock_guard<std::mutex> lock(lifecycleMutex_);
    return shutdown_;
}

Engine&
ShardedServer::shardEngine(std::size_t s)
{
    if (s >= workers_.size())
        fatal("ShardedServer: shard index out of range");
    return *workers_[s]->engine;
}

std::future<Result<double>>
ShardedServer::submitCompare(const Ast& first, const Ast& second,
                             const SubmitOptions& submitOpts)
{
    return *front_.compare(first, second, submitOpts,
                           /*blocking=*/true);
}

std::future<Result<std::vector<double>>>
ShardedServer::submitCompareMany(std::vector<Engine::PairRequest> pairs,
                                 const SubmitOptions& submitOpts)
{
    return *front_.compareMany(std::move(pairs), submitOpts,
                               /*blocking=*/true);
}

std::future<Result<std::vector<Engine::RankedCandidate>>>
ShardedServer::submitRank(std::vector<const Ast*> candidates,
                          const SubmitOptions& submitOpts)
{
    return front_.rank(std::move(candidates), submitOpts);
}

std::optional<std::future<Result<double>>>
ShardedServer::trySubmitCompare(const Ast& first, const Ast& second,
                                const SubmitOptions& submitOpts)
{
    return front_.compare(first, second, submitOpts,
                          /*blocking=*/false);
}

std::optional<std::future<Result<std::vector<double>>>>
ShardedServer::trySubmitCompareMany(
    std::vector<Engine::PairRequest> pairs,
    const SubmitOptions& submitOpts)
{
    return front_.compareMany(std::move(pairs), submitOpts,
                              /*blocking=*/false);
}

void
ShardedServer::workerLoop(std::size_t shard)
{
    Worker& worker = *workers_[shard];
    Coalescer<ServeRequest> coalescer(queue_, opts_.maxBatchSize,
                                      opts_.maxBatchClassDelay);
    for (;;) {
        // Two-lane pop-and-coalesce (serve/coalesce.hh); nullopt
        // means the queue is closed, fully drained, and this worker
        // holds nothing over — clean exit.
        std::optional<ServeBatch> batch = coalescer.next();
        if (!batch)
            return;

        // Expired members answer DeadlineExceeded instead of riding
        // the engine call; the front end's completion wrapper
        // attributes the rejection.
        expireDeadlines(*batch, std::chrono::steady_clock::now(),
                        "ShardedServer");
        if (batch->requests.empty())
            continue;

        // One engine call per model version in this worker's tick.
        // Other workers run their own ticks concurrently; the shared
        // cache dedups latents per version across all of them.
        ModelBatches grouped = groupBatchByModel(*batch);
        std::vector<Result<std::vector<double>>> results;
        std::vector<Engine::PhaseTiming> timings(
            grouped.groups.size());
        results.reserve(grouped.groups.size());
        for (std::size_t g = 0; g < grouped.groups.size(); ++g)
            results.push_back(worker.engine->compareMany(
                *grouped.groups[g].version, grouped.groups[g].pairs,
                &timings[g]));

        front_.recordBatch(worker.counters, *batch);

        // Fan slices (or their group's failure) back out in
        // submission order.
        for (std::size_t i = 0; i < batch->requests.size(); ++i) {
            ServeRequest& r = batch->requests[i];
            const Result<std::vector<double>>& probs =
                results[grouped.groupOf[i]];
            if (probs.isOk()) {
                recordTrace(r, timings[grouped.groupOf[i]],
                            static_cast<std::uint32_t>(shard));
                auto begin = probs.value().begin() +
                    static_cast<std::ptrdiff_t>(grouped.offsetOf[i]);
                r.complete(std::vector<double>(
                    begin,
                    begin + static_cast<std::ptrdiff_t>(
                                r.pairs.size())));
            } else {
                r.complete(probs.status());
            }
        }
    }
}

void
ShardedServer::recordTrace(const ServeRequest& request,
                           const Engine::PhaseTiming& timing,
                           std::uint32_t lane)
{
    if (opts_.trace == nullptr || request.traceId == 0)
        return;
    TraceRecorder& trace = *opts_.trace;
    auto pairs = static_cast<std::uint32_t>(request.pairs.size());
    trace.record(request.traceId, TracePhase::Admission,
                 request.submitted, request.enqueued, lane,
                 request.tenant, pairs);
    trace.record(request.traceId, TracePhase::Queue,
                 request.enqueued, request.dequeued, lane,
                 request.tenant, pairs);
    trace.record(request.traceId, TracePhase::Coalesce,
                 request.dequeued, timing.encodeStart, lane,
                 request.tenant, pairs);
    trace.record(request.traceId, TracePhase::Encode,
                 timing.encodeStart, timing.encodeEnd, lane,
                 request.tenant, pairs);
    trace.record(request.traceId, TracePhase::Score,
                 timing.encodeEnd, timing.scoreEnd, lane,
                 request.tenant, pairs);
}

void
ShardedServer::sampleMetrics() const
{
    if (opts_.metrics == nullptr)
        return;
    // Any worker's engine sees the same registry and shared cache,
    // so one engine's per-model rows describe the whole server.
    publishServerGauges(*opts_.metrics, "sharded", queue_.size(),
                        queue_.capacity(),
                        workers_[0]->engine->perModelCacheStats());
}

ShardedServerStats
ShardedServer::stats() const
{
    ShardedServerStats out;
    out.shards.reserve(workers_.size());
    for (std::size_t s = 0; s < workers_.size(); ++s) {
        const Worker& worker = *workers_[s];
        ServerStats row = worker.counters.row();
        // Engine volume is per shard engine; cache counters are the
        // shard's PARTITION of the shared cache, so the per-shard
        // rows partition the aggregate exactly.
        Engine::Stats engine = worker.engine->stats();
        EncodingCache::Stats part = cache_->shardStats(s);
        row.engine.treesEncoded = engine.treesEncoded;
        row.engine.pairsServed = engine.pairsServed;
        row.engine.cacheHits = part.hits;
        row.engine.cacheMisses = part.misses;
        row.engine.cacheEvictions = part.evictions;
        row.engine.cacheSize = cache_->shardSize(s);
        out.shards.push_back(std::move(row));
    }

    // Merged histograms drive the aggregate latency percentiles;
    // per-shard cache partitions sum to the shared cache's totals.
    out.aggregate = mergeServerStats(out.shards);
    out.aggregate.queueDepth = queue_.size();
    out.aggregate.queueCapacity = queue_.capacity();
    // Per-model rows describe the ONE shared cache; any worker's
    // engine sees the same namespaces, so fill them once rather than
    // summing N identical copies.
    out.aggregate.models = workers_[0]->engine->perModelCacheStats();
    front_.fillRequestStats(out.aggregate);
    return out;
}

} // namespace ccsa

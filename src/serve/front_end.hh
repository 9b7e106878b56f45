/**
 * @file
 * ccsa::FrontEnd — the request side both shard servers share.
 * ShardedServer (threads over one work-stealing queue and a shared
 * partitioned cache) and ProcessShardedServer (worker processes,
 * one queue per cache partition) differ only in how they EXECUTE a
 * queued slice. Everything between a submit call and a queue push —
 * and the accounting of how each request ends — lives here, once:
 *
 *  - validation: a null tree fails only its own request, an empty
 *    request completes with no values, a tournament needs two
 *    candidates;
 *  - the admission charge (AdmissionController token bucket),
 *    BEFORE model resolution, so a flooding tenant is turned away at
 *    the door whatever it asks for;
 *  - model resolution through the server's hook, once per request:
 *    every slice pins the same ModelVersion, so a hot swap never
 *    straddles a request;
 *  - deadline and trace-id stamping;
 *  - digest split/join: pairs group by the cache partition owning
 *    each pair's first tree (ShardedEncodingCache::shardOf), a
 *    request touching several partitions becomes one slice per
 *    partition, and a join fans the slices back into one result in
 *    request order. Routing is advisory on a server with one shared
 *    queue (it only spreads big requests across workers) and
 *    load-bearing on one with a queue per partition (a slice must
 *    reach the process that owns its latents);
 *  - request and tenant outcome accounting: every submit call ends
 *    as exactly one of completed / failed / rejected{shed, shutdown,
 *    quota, deadline} (see ServerStats), counted before the caller's
 *    future resolves so a returned future never sees lagging stats;
 *  - the typed endpoints: compare, compare-many and rank (split by
 *    Engine::tournamentPairs, joined by aggregateTournament).
 *
 * Each executor keeps a ShardCounters for its batching volume and
 * slice latency and reports a served batch through recordBatch(),
 * which also feeds the metrics registry and the SLO tracker.
 */

#ifndef CCSA_SERVE_FRONT_END_HH
#define CCSA_SERVE_FRONT_END_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/bounded_queue.hh"
#include "base/result.hh"
#include "base/stats.hh"
#include "serve/admission/admission_controller.hh"
#include "serve/coalesce.hh"
#include "serve/engine.hh"
#include "serve/server_stats.hh"
#include "serve/trace/trace_recorder.hh"

namespace ccsa
{

class SloTracker;

/** One queued unit: a per-partition slice of a client request,
 * pinned to the ModelVersion resolved at admission. */
struct ServeRequest
{
    std::vector<Engine::PairRequest> pairs;
    std::shared_ptr<const ModelVersion> version;
    std::function<void(Result<std::vector<double>>)> complete;
    /** Scheduling lane (serve/coalesce.hh two-lane flush). */
    Priority priority = Priority::kInteractive;
    /** Admission tenant ("" = default tenant). */
    std::string tenant;
    /** Cache partition owning the slice's first trees (0 when the
     * request was not routed); picks the queue on a server with one
     * queue per partition. */
    std::size_t partition = 0;
    /** TraceRecorder chain id, PER SLICE; 0 = untraced. */
    std::uint64_t traceId = 0;
    /** Submit entry — the admission trace span's start. */
    std::chrono::steady_clock::time_point submitted;
    std::chrono::steady_clock::time_point enqueued;
    /** Stamped by the Coalescer when popped (queue-span end). */
    std::chrono::steady_clock::time_point dequeued;
    /** Absolute submit-side deadline (max() = none); an executor
     * answers an expired slice with DeadlineExceeded instead of
     * running it. A split request's join propagates the first
     * slice's error, so however many slices expire the CLIENT
     * request resolves (and is counted) once. */
    std::chrono::steady_clock::time_point deadline =
        std::chrono::steady_clock::time_point::max();
};

using ServeQueue = BoundedQueue<ServeRequest>;
using ServeBatch = CoalescedBatch<ServeRequest>;

/** One executor's batching volume and slice latency: the source of
 * a per-shard ServerStats row. Thread-safe. */
class ShardCounters
{
  public:
    /** Count one served batch: one latency sample per slice,
     * measured enqueue -> completedAt. */
    void record(const ServeBatch& batch,
                std::chrono::steady_clock::time_point completedAt);

    /** batches, pairsServed, batchSizes, latency (percentiles
     * filled) and latency-only tenant rows sorted by name. */
    ServerStats row() const;

    /** The ccsa_request_latency_us instrument of `r`'s label set.
     * The registry lookup (label rendering under the registry mutex)
     * runs once per label set; later requests hit this cache. Only
     * the executor that owns these counters may call it. */
    WindowedHistogram& latencyHistogram(
        MetricsRegistry& registry, const std::string& server,
        const ServeRequest& r, const WindowedHistogram::Options& window);

  private:
    std::unordered_map<std::string, WindowedHistogram*>
        latencyHistograms_;
    mutable std::mutex mutex_;
    std::uint64_t batches_ = 0;
    std::uint64_t pairsServed_ = 0;
    Histogram batchSizes_;
    Histogram latencyUs_;
    std::unordered_map<std::string, Histogram> tenantLatencyUs_;
};

/** The request side of a shard server; see the file comment. */
class FrontEnd
{
  public:
    using Completion = std::function<void(Result<std::vector<double>>)>;
    using ResolveModel =
        std::function<Result<std::shared_ptr<const ModelVersion>>(
            const std::string& name)>;

    /** How a server wires its front end (fixed at construction). */
    struct Config
    {
        /** Server name in Status messages ("ShardedServer"). */
        std::string name;
        /** {server=...} label of the registry instruments. */
        std::string metricsLabel;
        /** Cache partitions requests are routed across. */
        std::size_t partitions = 1;
        /** One queue shared by every partition, or one queue per
         * partition (indexed by ServeRequest::partition). Not
         * owned. */
        std::vector<ServeQueue*> queues;
        /** Model name -> admission-time snapshot. */
        ResolveModel resolve;
        AdmissionController* admission = nullptr;
        TraceRecorder* trace = nullptr;
        MetricsRegistry* metrics = nullptr;
        SloTracker* slo = nullptr;
        WindowedHistogram::Options metricsWindow;
    };

    explicit FrontEnd(Config config);

    FrontEnd(const FrontEnd&) = delete;
    FrontEnd& operator=(const FrontEnd&) = delete;

    /**
     * The typed endpoints. `blocking` waits for queue room; a
     * non-blocking submit (servers with ONE queue only) returns
     * nullopt when the queue lacks room for every slice of the
     * request — nothing was enqueued, all-or-nothing, so a shed
     * request never leaves half of itself behind. A blocking submit
     * always returns a future; so does a shut-down server (carrying
     * Unavailable).
     */
    std::optional<std::future<Result<double>>>
    compare(const Ast& first, const Ast& second,
            const SubmitOptions& opts, bool blocking);
    std::optional<std::future<Result<std::vector<double>>>>
    compareMany(std::vector<Engine::PairRequest> pairs,
                const SubmitOptions& opts, bool blocking);
    std::future<Result<std::vector<Engine::RankedCandidate>>>
    rank(std::vector<const Ast*> candidates,
         const SubmitOptions& opts);

    /** Count one served batch into `shard`, the registry's batch
     * counters and per-slice latency histograms, and the SLO
     * tracker. */
    void recordBatch(ShardCounters& shard, const ServeBatch& batch);

    /** Write the request-level counters and per-tenant outcome
     * counts into a merged aggregate (tenant rows are merged by
     * name; a tenant rejected before reaching an executor still gets
     * a row). */
    void fillRequestStats(ServerStats& aggregate) const;

  private:
    struct TenantCounters
    {
        std::uint64_t submitted = 0;
        std::uint64_t completed = 0;
        std::uint64_t failed = 0;
        std::uint64_t rejectedQuota = 0;
        std::uint64_t rejectedDeadline = 0;
    };

    /**
     * Validate, charge admission, resolve the model, split and
     * enqueue. Every outcome but a full queue is answered through
     * `complete` (immediately, on the calling thread, for requests
     * that never reach a queue).
     * @return false only when a non-blocking attempt found the queue
     * full — the one case where no future should be handed out.
     */
    bool submit(const SubmitOptions& opts,
                std::vector<Engine::PairRequest> pairs,
                Completion complete, bool blocking);

    /** Route validated pairs into slices wired to one completion
     * (directly, or through a join when the request crosses
     * partitions). */
    std::vector<ServeRequest>
    split(std::vector<Engine::PairRequest> pairs,
          std::shared_ptr<const ModelVersion> version,
          Completion complete, const SubmitOptions& opts,
          std::chrono::steady_clock::time_point submitStart);

    /** Answer a request that never reached a queue, counting it. */
    void finish(const std::string& tenant, const Completion& complete,
                Result<std::vector<double>> result);
    /** Count how an accepted (or validated) request ended. */
    void countOutcome(const std::string& tenant,
                      const Result<std::vector<double>>& result);
    void countSubmitted(const std::string& tenant);
    /** Count a queue refusal (shed or shutdown). */
    void countRefused(QueuePush refusal);

    ServeQueue& queueOf(const ServeRequest& slice) const;

    Config cfg_;
    ServerMetrics metrics_;

    /** Guards the request-level counters below. */
    mutable std::mutex mutex_;
    std::uint64_t submitted_ = 0;
    std::uint64_t rejectedShed_ = 0;
    std::uint64_t rejectedShutdown_ = 0;
    std::uint64_t rejectedQuota_ = 0;
    std::uint64_t rejectedDeadline_ = 0;
    std::uint64_t completed_ = 0;
    std::uint64_t failed_ = 0;
    std::unordered_map<std::string, TenantCounters> tenants_;
};

} // namespace ccsa

#endif // CCSA_SERVE_FRONT_END_HH

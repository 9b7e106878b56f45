/**
 * @file
 * ccsa::ProcessShardedServer — crash-isolated sharded serving.
 * ShardedServer scaled execution across N threads, but every shard
 * still shares one address space: a single segfault in any encode
 * path takes the whole service down. This server moves each shard
 * into its own PROCESS (a `ccsa_worker` binary speaking the
 * length-prefixed protocol of serve/ipc/wire.hh over a socketpair),
 * so a worker crash costs one partition for the respawn window, not
 * the service.
 *
 * Transport & routing:
 *  - The model ships once, as a v2 checkpoint the parent writes at
 *    construction; every worker loads it at exec (float32 checkpoint
 *    round-trips are bitwise-exact, so cross-process results stay
 *    bitwise-identical to a local Engine on the same weights).
 *  - The request side — validation, admission, digest split/join,
 *    outcome accounting — is serve/front_end.hh, shared with
 *    ShardedServer (shard = digest.lo % numShards on each pair's
 *    first tree). Here routing is CORRECTNESS-adjacent, not just an
 *    optimisation: each worker process owns its partition's
 *    encoding cache in its own address space (partition-per-
 *    process), so each shard has its own request queue + dispatcher
 *    instead of one work-stealing queue, and there is no
 *    all-or-nothing trySubmit across those queues.
 *  - Each dispatcher coalesces with the shared idle-flush policy of
 *    serve/coalesce.hh: interactive work goes as soon as its shard
 *    queue runs dry, so a batch is whatever queued up while the
 *    previous one was on the wire; batch-lane work alone waits up to
 *    maxBatchClassDelay for company.
 *  - Each dispatcher serves a coalesced batch in two phases: an
 *    ENCODE RPC (idempotent — latents are a pure function of the
 *    trees — so it is retried on a freshly respawned worker, up to
 *    Options::encodeRetryLimit), then a COMPARE RPC that is NEVER
 *    retried: if the worker dies mid-compare the batch fails fast
 *    with an attributed Status instead of risking double execution.
 *
 * Supervision (the robustness layer):
 *  - Every RPC carries a deadline; an overdue reply means the worker
 *    is hung (e.g. the stall fault): it is SIGKILLed, the batch
 *    completes with Status::DeadlineExceeded, and a respawn is
 *    scheduled.
 *  - A supervisor thread heartbeats idle workers (ping/pong, latency
 *    into ccsa_heartbeat_latency_us), reaps spontaneous exits, and
 *    respawns dead workers under capped exponential backoff (first
 *    respawn immediate, then backoffInitial doubling up to
 *    backoffMax).
 *  - A circuit breaker degrades a flapping shard: breakerThreshold
 *    restarts within breakerWindow open the breaker, and while it is
 *    open the shard answers Unavailable IMMEDIATELY (clients fail
 *    fast; the other N-1 shards keep serving their partitions).
 *    After breakerCooldown one half-open respawn is attempted; a
 *    healthy ping closes the breaker.
 *  - Nothing is ever lost: every accepted request resolves with a
 *    value or an attributed error (crash -> Unavailable, hang ->
 *    DeadlineExceeded, open breaker -> Unavailable), and nothing is
 *    ever double-executed (only the idempotent encode phase
 *    retries).
 *
 * Fault injection: Options::faultSpec (serve/ipc/fault_injector.hh,
 * same grammar as the daemon's --fault-inject flag) is exported as
 * CCSA_FAULT to the FIRST spawn of Options::faultShard only —
 * respawned workers never inherit it, so recovery after the injected
 * fault is the clean path the tests and tools/check_crash_recovery.py
 * assert.
 *
 * Metrics plane: ServerMetrics under {server="ipc"} plus
 * ccsa_worker_restarts_total / ccsa_worker_up / ccsa_shard_degraded
 * per shard and the heartbeat latency histogram.
 *
 * Single-model by design: multi-model registry serving stays
 * in-process (ShardedServer); this server trades that flexibility
 * for fault isolation. A SubmitOptions model name other than ""
 * or "model" fails InvalidArgument, after the admission charge —
 * the same order ShardedServer answers an unknown name in.
 */

#ifndef CCSA_SERVE_IPC_PROCESS_SHARDED_SERVER_HH
#define CCSA_SERVE_IPC_PROCESS_SHARDED_SERVER_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include <sys/types.h>

#include "base/fd_util.hh"
#include "base/result.hh"
#include "serve/admission/admission_controller.hh"
#include "serve/engine.hh"
#include "serve/front_end.hh"
#include "serve/ipc/fault_injector.hh"
#include "serve/ipc/wire.hh"
#include "serve/server_stats.hh"

namespace ccsa
{

/** One shard's supervision snapshot. */
struct WorkerHealth
{
    /** Current worker pid (-1 while down). */
    pid_t pid = -1;
    /** Spawn count for this shard; the first spawn is generation 0
     * (the only one that inherits Options::faultSpec). */
    std::uint64_t generation = 0;
    /** Respawns performed (generation - 1 while up, clamped >= 0). */
    std::uint64_t restarts = 0;
    /** True while a live worker is serving the partition. */
    bool up = false;
    /** True while the circuit breaker has the shard degraded. */
    bool degraded = false;
};

/** Fleet + per-shard + supervision snapshot. */
struct ProcessShardedServerStats
{
    /** Whole-server view (mergeServerStats semantics). */
    ServerStats aggregate;
    /** Per-shard dispatcher rows (batching volume + latency). */
    std::vector<ServerStats> shards;
    /** Per-shard supervision state. */
    std::vector<WorkerHealth> health;
};

/** Sharded serving over crash-isolated worker processes. */
class ProcessShardedServer
{
  public:
    /** Builder-style options; supervision knobs are deliberately
     * test-tunable (small deadlines make fault tests fast). */
    struct Options
    {
        /** Worker processes == digest partitions. */
        std::size_t numShards = 2;
        /** Max requests waiting PER SHARD queue. */
        std::size_t queueCapacity = 1024;
        /** Flush a dispatcher batch at this many pairs. */
        std::size_t maxBatchSize = 256;
        /** Batch-lane flush budget (serve/coalesce.hh); interactive
         * work flushes once the shard queue runs dry. */
        std::chrono::microseconds maxBatchClassDelay{4000};
        /** Optional per-tenant admission gate (not owned). */
        AdmissionController* admission = nullptr;
        /** Optional metrics plane (not owned; {server="ipc"}). */
        MetricsRegistry* metrics = nullptr;
        /** Window shape for ccsa_request_latency_us /
         * ccsa_heartbeat_latency_us. */
        WindowedHistogram::Options metricsWindow;
        /** Encoder threads inside each worker process. */
        int threadsPerWorker = 1;
        /** Encoding-cache capacity per worker process. */
        std::size_t cachePerWorker = 4096;
        /** Storage precision of each worker's encoding cache
         * (passed on the ccsa_worker command line); fp16/int8 fit
         * 2-4x more latents into cachePerWorker's bytes. */
        LatentPrecision latentPrecision = LatentPrecision::kFp32;
        /** ccsa_worker binary; "" = $CCSA_WORKER, else the
         * directory of /proc/self/exe + "/ccsa_worker". */
        std::string workerPath;
        /** Where the model checkpoint temp file is written. */
        std::string checkpointDir = "/tmp";
        /** Deadline on every compare/encode RPC; an overdue reply is
         * a HANG (worker killed, batch answers DeadlineExceeded). */
        std::chrono::milliseconds rpcDeadline{5000};
        /** Deadline on the post-spawn handshake ping (covers model
         * load in the fresh process). */
        std::chrono::milliseconds spawnDeadline{20000};
        /** Supervisor pass period (idle-worker heartbeats + reaping
         * + deferred respawns). */
        std::chrono::milliseconds heartbeatInterval{100};
        /** Deadline on an idle heartbeat's pong. */
        std::chrono::milliseconds heartbeatDeadline{2000};
        /** Backoff after the SECOND consecutive spawn failure (the
         * first respawn is immediate); doubles, capped at
         * backoffMax. */
        std::chrono::milliseconds backoffInitial{10};
        std::chrono::milliseconds backoffMax{1000};
        /** Restarts within breakerWindow that open the breaker. */
        std::size_t breakerThreshold = 3;
        std::chrono::milliseconds breakerWindow{10000};
        /** Open-breaker rejection period before one half-open
         * respawn attempt. */
        std::chrono::milliseconds breakerCooldown{1000};
        /** Bounded retries of the idempotent ENCODE phase on a
         * fresh worker after a crash (compare never retries). */
        std::size_t encodeRetryLimit = 1;
        /** Fault injected into faultShard's generation-0 worker
         * (fault_injector.hh grammar); "" = none. */
        std::string faultSpec;
        std::size_t faultShard = 0;
        /** Do not spawn workers / dispatchers until start(). */
        bool startPaused = false;

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

        Options& withAdmission(AdmissionController* controller)
        {
            admission = controller;
            return *this;
        }

        Options& withMetrics(MetricsRegistry* registry)
        {
            metrics = registry;
            return *this;
        }

        Options& withThreadsPerWorker(int n)
        {
            threadsPerWorker = n;
            return *this;
        }

        Options& withCachePerWorker(std::size_t n)
        {
            cachePerWorker = n;
            return *this;
        }

        Options& withLatentPrecision(LatentPrecision p)
        {
            latentPrecision = p;
            return *this;
        }

        Options& withWorkerPath(std::string path)
        {
            workerPath = std::move(path);
            return *this;
        }

        Options& withCheckpointDir(std::string dir)
        {
            checkpointDir = std::move(dir);
            return *this;
        }

        Options& withRpcDeadline(std::chrono::milliseconds d)
        {
            rpcDeadline = d;
            return *this;
        }

        Options& withHeartbeatInterval(std::chrono::milliseconds d)
        {
            heartbeatInterval = d;
            return *this;
        }

        Options& withHeartbeatDeadline(std::chrono::milliseconds d)
        {
            heartbeatDeadline = d;
            return *this;
        }

        Options& withBackoff(std::chrono::milliseconds initial,
                             std::chrono::milliseconds max)
        {
            backoffInitial = initial;
            backoffMax = max;
            return *this;
        }

        Options& withBreaker(std::size_t threshold,
                             std::chrono::milliseconds window,
                             std::chrono::milliseconds cooldown)
        {
            breakerThreshold = threshold;
            breakerWindow = window;
            breakerCooldown = cooldown;
            return *this;
        }

        Options& withEncodeRetryLimit(std::size_t n)
        {
            encodeRetryLimit = n;
            return *this;
        }

        Options& withFault(std::string spec, std::size_t shard = 0)
        {
            faultSpec = std::move(spec);
            faultShard = shard;
            return *this;
        }

        Options& withStartPaused(bool paused)
        {
            startPaused = paused;
            return *this;
        }
    };

    /**
     * Serve an existing predictor across numShards worker processes.
     * Writes the model to a temp v2 checkpoint (removed on
     * destruction) that every spawn loads. FatalError when the
     * checkpoint cannot be written.
     */
    ProcessShardedServer(std::shared_ptr<ComparativePredictor> model,
                         Options opts);

    /** Equivalent to shutdown() (plus checkpoint cleanup). */
    ~ProcessShardedServer();

    ProcessShardedServer(const ProcessShardedServer&) = delete;
    ProcessShardedServer&
    operator=(const ProcessShardedServer&) = delete;

    /** Same submit contracts as ShardedServer's blocking endpoints
     * (results bitwise-identical to a sync Engine on the same
     * weights while the serving shard is healthy). */
    std::future<Result<double>>
    submitCompare(const Ast& first, const Ast& second,
                  const SubmitOptions& submitOpts = SubmitOptions());
    std::future<Result<std::vector<double>>>
    submitCompareMany(std::vector<Engine::PairRequest> pairs,
                      const SubmitOptions& submitOpts = SubmitOptions());
    std::future<Result<std::vector<Engine::RankedCandidate>>>
    submitRank(std::vector<const Ast*> candidates,
               const SubmitOptions& submitOpts = SubmitOptions());

    /** Spawn workers + dispatchers if construction was paused. */
    void start();

    /**
     * Stop accepting, drain and answer everything accepted, then
     * stop the supervisor, shut every worker down (kShutdown, then
     * EOF, then SIGKILL for stragglers) and reap. Idempotent.
     */
    void shutdown();

    bool isShutdown() const;

    /** Aggregate + per-shard + supervision snapshot. */
    ProcessShardedServerStats stats() const;

    /** Publish pull-style gauges ({server="ipc"} queue levels plus
     * per-shard worker_up/degraded); no-op without a registry. */
    void sampleMetrics() const;

    std::size_t numShards() const { return shards_.size(); }
    const Options& options() const { return opts_; }

    /** The checkpoint path workers load (tests reuse it to build a
     * bitwise-identical local Engine). */
    const std::string& checkpointPath() const { return checkpoint_; }

    /** The worker binary an empty Options::workerPath resolves to:
     * $CCSA_WORKER, else ccsa_worker next to the running binary (the
     * build tree layout), else bare "ccsa_worker" ($PATH). */
    static std::string defaultWorkerPath();

  private:
    /** Outcome of one RPC round-trip. */
    enum class Rpc
    {
        Ok,
        /** No (complete) reply within the deadline: worker hung. */
        Timeout,
        /** Socket closed / torn frame / protocol violation: worker
         * crashed (or is treated as crashed). */
        Closed,
    };

    /** One shard: queue + dispatcher thread + supervised process.
     * proc-prefixed fields are guarded by rpcMutex (whoever holds it
     * owns the socket AND the supervision state). */
    struct Shard
    {
        std::unique_ptr<ServeQueue> queue;
        std::thread dispatcher;

        std::mutex rpcMutex;
        FdGuard fd;
        pid_t pid = -1;
        bool up = false;
        std::uint64_t generation = 0;
        std::uint64_t nextFrameId = 1;
        unsigned consecutiveFailures = 0;
        std::chrono::steady_clock::time_point nextSpawnAllowed{};
        bool breakerOpen = false;
        std::chrono::steady_clock::time_point breakerOpenedAt{};
        /** Restart stamps inside the flap window. */
        std::deque<std::chrono::steady_clock::time_point>
            recentRestarts;

        /** EXACT mirror of the worker's resident latents: an LRU
         * evicts nothing until its distinct-insert count exceeds
         * capacity, so while this set stays within cachePerWorker
         * every member is provably resident and serveBatch ships
         * only unknown trees (steady state: a zero-tree encode
         * frame). Cleared on respawn (cold cache); abandoned for the
         * worker's lifetime once the capacity is exceeded
         * (residentOverflow — eviction order is no longer knowable
         * parent-side, so every batch ships all its trees again).
         * rpcMutex guards both. */
        std::unordered_set<AstDigest, AstDigestHash> residentDigests;
        bool residentOverflow = false;

        /** Batching volume + slice latency (stats() shard row). */
        ShardCounters counters;

        /** Lock-free mirrors for stats()/gauges. */
        std::atomic<std::uint64_t> restarts{0};
        std::atomic<bool> upFlag{false};
        std::atomic<bool> degradedFlag{false};
        std::atomic<pid_t> pidFlag{-1};
        std::atomic<std::uint64_t> generationFlag{0};

        /** Per-shard registry instruments (null w/o metrics). */
        Counter* restartsMetric = nullptr;
        Gauge* upMetric = nullptr;
        Gauge* degradedMetric = nullptr;
        WindowedHistogram* heartbeatMetric = nullptr;
    };

    /** One shard per partition, each with its own queue. */
    static std::vector<std::unique_ptr<Shard>>
    makeShards(const Options& opts);
    /** The front end's wiring: a queue per partition, one model. */
    FrontEnd::Config frontEndConfig();

    void initMetrics();
    /** Spawn workers, dispatchers and the supervisor;
     * lifecycleMutex_ held. */
    void startWorkersLocked();
    void dispatcherLoop(std::size_t shard);
    /** Execute one coalesced batch against shard s's worker (both
     * phases + failure handling). Takes rpcMutex. */
    void serveBatch(std::size_t s, ServeBatch& batch);
    /** Record one served batch into shard + registry counters and
     * fan the probabilities out. */
    void completeBatch(std::size_t s, ServeBatch& batch,
                       const std::vector<double>& probs);
    /** Fail every member of a batch with `status`. */
    static void failBatch(ServeBatch& batch, const Status& status);

    /** One ping/pong with per-call deadline; rpcMutex held. */
    Rpc pingLocked(Shard& shard, std::chrono::milliseconds deadline,
                   std::chrono::microseconds* latency = nullptr);
    /** Send a frame and await its reply; rpcMutex held. */
    Rpc rpcLocked(Shard& shard, ipc::MsgType type,
                  const std::vector<std::uint8_t>& payload,
                  std::chrono::milliseconds deadline,
                  ipc::Frame* reply);
    /** Write one request frame without waiting (serveBatch pipelines
     * encode + compare into one worker wakeup); rpcMutex held.
     * @return false when the peer is gone. */
    bool sendRequestLocked(Shard& shard, ipc::MsgType type,
                           const std::vector<std::uint8_t>& payload,
                           std::uint64_t* id);
    /** Write the pipelined request pair in a single send; rpcMutex
     * held. @return false when the peer is gone. */
    bool sendRequestPairLocked(Shard& shard, ipc::MsgType type1,
                               const std::vector<std::uint8_t>& payload1,
                               std::uint64_t* id1, ipc::MsgType type2,
                               const std::vector<std::uint8_t>& payload2,
                               std::uint64_t* id2);
    /** Await the reply to frame `id`, skipping stale replies from
     * abandoned earlier RPCs; rpcMutex held. */
    Rpc awaitReplyLocked(Shard& shard, std::uint64_t id,
                         std::chrono::milliseconds deadline,
                         ipc::Frame* reply);

    /** Ensure a live worker (respecting backoff gate + breaker
     * half-open policy); rpcMutex held. @return true when up. */
    bool ensureWorkerLocked(std::size_t s);
    /** Mark the worker dead: SIGKILL + reap, count the restart,
     * advance backoff, maybe open the breaker; rpcMutex held. */
    void handleFailureLocked(std::size_t s);
    /** fork/exec one worker and handshake; rpcMutex held. */
    bool spawnLocked(std::size_t s);
    /** Resolved worker binary path (cached). */
    const std::string& workerBinary();

    void supervisorLoop();

    Options opts_;
    std::shared_ptr<const ModelVersion> version_;
    std::string checkpoint_;
    std::string workerBinary_;
    std::vector<std::unique_ptr<Shard>> shards_;
    /** Request side ({server="ipc"} instruments). */
    FrontEnd front_;

    mutable std::mutex lifecycleMutex_;
    bool started_ = false;
    bool shutdown_ = false;

    std::thread supervisor_;
    std::mutex supervisorMutex_;
    std::condition_variable supervisorCv_;
    bool supervisorStop_ = false;
};

} // namespace ccsa

#endif // CCSA_SERVE_IPC_PROCESS_SHARDED_SERVER_HH

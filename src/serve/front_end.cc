#include "serve/front_end.hh"

#include <algorithm>
#include <atomic>
#include <utility>

#include "serve/encoding_cache.hh"
#include "serve/metrics/slo_tracker.hh"

namespace ccsa
{

// --------------------------------------------------- ShardCounters

void
ShardCounters::record(const ServeBatch& batch,
                      std::chrono::steady_clock::time_point completedAt)
{
    std::lock_guard<std::mutex> lock(mutex_);
    batches_++;
    pairsServed_ += batch.pairCount;
    batchSizes_.add(batch.pairCount);
    for (const ServeRequest& r : batch.requests) {
        std::size_t us = latencySampleUs(completedAt - r.enqueued);
        latencyUs_.add(us);
        tenantLatencyUs_[r.tenant].add(us);
    }
}

WindowedHistogram&
ShardCounters::latencyHistogram(MetricsRegistry& registry,
                                const std::string& server,
                                const ServeRequest& r,
                                const WindowedHistogram::Options& window)
{
    std::string key = r.version->name;
    key += '\0';
    key += r.tenant;
    key += static_cast<char>(r.priority);
    WindowedHistogram*& slot = latencyHistograms_[key];
    if (slot == nullptr)
        slot = &serverLatencyHistogram(registry, server, r.version->name,
                                       r.tenant, r.priority, window);
    return *slot;
}

ServerStats
ShardCounters::row() const
{
    ServerStats row;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        row.batches = batches_;
        row.pairsServed = pairsServed_;
        row.batchSizes = batchSizes_;
        row.latencyUs = latencyUs_;
        row.tenants.reserve(tenantLatencyUs_.size());
        for (const auto& [name, hist] : tenantLatencyUs_) {
            TenantStats t;
            t.tenant = name;
            t.latencyUs = hist;
            row.tenants.push_back(std::move(t));
        }
    }
    std::sort(row.tenants.begin(), row.tenants.end(),
              [](const TenantStats& a, const TenantStats& b) {
                  return a.tenant < b.tenant;
              });
    for (TenantStats& t : row.tenants)
        fillTenantPercentiles(t);
    fillLatencyPercentiles(row);
    return row;
}

// -------------------------------------------------------- FrontEnd

FrontEnd::FrontEnd(Config config) : cfg_(std::move(config))
{
    if (cfg_.partitions == 0)
        cfg_.partitions = 1;
    if (cfg_.metrics != nullptr)
        metrics_.init(*cfg_.metrics, cfg_.metricsLabel);
}

ServeQueue&
FrontEnd::queueOf(const ServeRequest& slice) const
{
    return *cfg_.queues[cfg_.queues.size() == 1 ? 0 : slice.partition];
}

std::optional<std::future<Result<double>>>
FrontEnd::compare(const Ast& first, const Ast& second,
                  const SubmitOptions& opts, bool blocking)
{
    auto promise = std::make_shared<std::promise<Result<double>>>();
    std::future<Result<double>> future = promise->get_future();
    bool accepted =
        submit(opts, {Engine::PairRequest{&first, &second}},
               [promise](Result<std::vector<double>> r) {
                   if (r.isOk())
                       promise->set_value(r.value()[0]);
                   else
                       promise->set_value(r.status());
               },
               blocking);
    if (!accepted)
        return std::nullopt;
    return future;
}

std::optional<std::future<Result<std::vector<double>>>>
FrontEnd::compareMany(std::vector<Engine::PairRequest> pairs,
                      const SubmitOptions& opts, bool blocking)
{
    auto promise = std::make_shared<
        std::promise<Result<std::vector<double>>>>();
    std::future<Result<std::vector<double>>> future =
        promise->get_future();
    bool accepted = submit(opts, std::move(pairs),
                           [promise](Result<std::vector<double>> r) {
                               promise->set_value(std::move(r));
                           },
                           blocking);
    if (!accepted)
        return std::nullopt;
    return future;
}

std::future<Result<std::vector<Engine::RankedCandidate>>>
FrontEnd::rank(std::vector<const Ast*> candidates,
               const SubmitOptions& opts)
{
    auto promise = std::make_shared<
        std::promise<Result<std::vector<Engine::RankedCandidate>>>>();
    std::future<Result<std::vector<Engine::RankedCandidate>>> future =
        promise->get_future();
    std::size_t n = candidates.size();
    Completion complete = [promise, n](Result<std::vector<double>> r) {
        if (r.isOk())
            promise->set_value(
                Engine::aggregateTournament(n, r.value()));
        else
            promise->set_value(r.status());
    };
    if (n < 2) {
        finish(opts.tenant, complete,
               Status::invalidArgument(
                   "submitRank: need at least two candidates"));
        return future;
    }
    submit(opts, Engine::tournamentPairs(candidates),
           std::move(complete), /*blocking=*/true);
    return future;
}

bool
FrontEnd::submit(const SubmitOptions& opts,
                 std::vector<Engine::PairRequest> pairs,
                 Completion complete, bool blocking)
{
    auto submitStart = std::chrono::steady_clock::now();

    // Per-request validation: a malformed request fails only its own
    // future and never reaches a shared batch.
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        if (pairs[i].first == nullptr || pairs[i].second == nullptr) {
            finish(opts.tenant, complete,
                   Status::invalidArgument(
                       "submit: null tree in pair " +
                       std::to_string(i)));
            return true;
        }
    }
    if (pairs.empty()) {
        finish(opts.tenant, complete, std::vector<double>{});
        return true;
    }

    // Admission: charge the tenant's bucket BEFORE resolving,
    // splitting or queueing, so a flooding tenant is turned away at
    // the door. A refused request counts as rejected only.
    if (cfg_.admission != nullptr) {
        Status admitted =
            cfg_.admission->admit(opts.tenant, pairs.size());
        if (!admitted.isOk()) {
            if (metrics_.enabled())
                metrics_.rejectedQuota->inc();
            {
                std::lock_guard<std::mutex> lock(mutex_);
                rejectedQuota_++;
                tenants_[opts.tenant].rejectedQuota++;
            }
            complete(admitted);
            return true;
        }
    }

    // Admission-time model resolution: the whole request (however
    // many slices it splits into) runs on this one snapshot.
    Result<std::shared_ptr<const ModelVersion>> version =
        cfg_.resolve(opts.model);
    if (!version.isOk()) {
        finish(opts.tenant, complete, version.status());
        return true;
    }

    // From here the outcome is counted when the (joined) completion
    // fires — unless a closed queue refuses the request, which
    // raises `refused` before resolving any slice so the request
    // counts as rejected only (outcomes stay disjoint).
    auto refused = std::make_shared<std::atomic<bool>>(false);
    Completion counted = [this, refused, tenant = opts.tenant,
                          complete = std::move(complete)](
                             Result<std::vector<double>> r) {
        if (!refused->load())
            countOutcome(tenant, r);
        complete(std::move(r));
    };
    std::vector<ServeRequest> slices =
        split(std::move(pairs), version.take(), std::move(counted),
              opts, submitStart);
    auto closed = [this] {
        return Status::unavailable(cfg_.name +
                                   ": submit after shutdown");
    };

    if (!blocking) {
        // All-or-nothing: either every slice is admitted or none.
        QueuePush pushed = cfg_.queues[0]->tryPushAll(slices);
        if (pushed == QueuePush::Ok) {
            countSubmitted(opts.tenant);
            return true;
        }
        countRefused(pushed);
        if (pushed == QueuePush::Full)
            return false; // caller keeps no future and may retry
        // Resolve EVERY slice: a split request's join only completes
        // (and the caller's promise only resolves) once all of its
        // slices have reported in.
        refused->store(true);
        for (ServeRequest& slice : slices)
            slice.complete(closed());
        return true;
    }

    bool anyClosed = false;
    for (ServeRequest& slice : slices) {
        if (queueOf(slice).push(std::move(slice)) != QueuePush::Closed)
            continue;
        // push leaves a refused slice untouched; resolving it through
        // its own completion keeps a join fanning in correctly even
        // when shutdown lands mid-split.
        if (!anyClosed) {
            anyClosed = true;
            refused->store(true);
            countRefused(QueuePush::Closed);
        }
        slice.complete(closed());
    }
    if (!anyClosed)
        countSubmitted(opts.tenant);
    return true;
}

std::vector<ServeRequest>
FrontEnd::split(std::vector<Engine::PairRequest> pairs,
                std::shared_ptr<const ModelVersion> version,
                Completion complete, const SubmitOptions& opts,
                std::chrono::steady_clock::time_point submitStart)
{
    auto now = std::chrono::steady_clock::now();
    auto slice = [&](std::size_t partition) {
        ServeRequest request;
        request.version = version;
        request.priority = opts.priority;
        request.tenant = opts.tenant;
        request.partition = partition;
        if (cfg_.trace != nullptr)
            request.traceId = cfg_.trace->nextChain();
        request.submitted = submitStart;
        request.enqueued = now;
        if (opts.deadline.count() > 0)
            request.deadline = submitStart + opts.deadline;
        return request;
    };
    std::vector<ServeRequest> slices;

    // Group pair indices by the partition owning each first tree.
    // Placement matters only with a queue per partition; with one
    // shared queue, routing just spreads a multi-pair request across
    // workers, so a single pair skips the digest walk. Memoise by
    // tree identity: tournaments repeat each candidate as .first
    // many times, and one digest walk per DISTINCT tree routes them
    // all.
    std::vector<std::vector<std::size_t>> groups(cfg_.partitions);
    bool route = cfg_.partitions > 1 &&
        (cfg_.queues.size() > 1 || pairs.size() > 1);
    std::size_t nonEmpty = 0;
    std::size_t owner = 0;
    if (route) {
        std::unordered_map<const Ast*, std::size_t> partitionOf;
        for (std::size_t i = 0; i < pairs.size(); ++i) {
            auto [it, inserted] =
                partitionOf.emplace(pairs[i].first, 0);
            if (inserted)
                it->second = ShardedEncodingCache::shardOf(
                    digestAst(*pairs[i].first), cfg_.partitions);
            groups[it->second].push_back(i);
        }
        for (std::size_t p = 0; p < groups.size(); ++p) {
            if (!groups[p].empty()) {
                nonEmpty++;
                owner = p;
            }
        }
    }

    if (nonEmpty <= 1) {
        // One partition owns the whole request: no join needed.
        slices.push_back(slice(owner));
        slices.back().pairs = std::move(pairs);
        slices.back().complete = std::move(complete);
        return slices;
    }

    struct Join
    {
        std::mutex mutex;
        std::vector<double> values;
        Status error; // Ok until the first failing slice
        std::size_t remaining = 0;
        Completion complete;
    };
    auto join = std::make_shared<Join>();
    join->values.resize(pairs.size(), 0.0);
    join->remaining = nonEmpty;
    join->complete = std::move(complete);

    for (std::size_t p = 0; p < groups.size(); ++p) {
        const std::vector<std::size_t>& slots = groups[p];
        if (slots.empty())
            continue;
        slices.push_back(slice(p));
        ServeRequest& request = slices.back();
        request.pairs.reserve(slots.size());
        for (std::size_t i : slots)
            request.pairs.push_back(pairs[i]);
        request.complete = [join,
                            slots](Result<std::vector<double>> r) {
            bool done = false;
            {
                std::lock_guard<std::mutex> lock(join->mutex);
                if (r.isOk()) {
                    for (std::size_t k = 0; k < slots.size(); ++k)
                        join->values[slots[k]] = r.value()[k];
                } else if (join->error.isOk()) {
                    join->error = r.status();
                }
                done = --join->remaining == 0;
            }
            // Last slice completes the caller. No lock held: nobody
            // else can touch the join once remaining hit zero.
            if (done) {
                if (join->error.isOk())
                    join->complete(std::move(join->values));
                else
                    join->complete(join->error);
            }
        };
    }
    return slices;
}

// ------------------------------------------------------ accounting

void
FrontEnd::finish(const std::string& tenant, const Completion& complete,
                 Result<std::vector<double>> result)
{
    countOutcome(tenant, result);
    complete(std::move(result));
}

void
FrontEnd::countOutcome(const std::string& tenant,
                       const Result<std::vector<double>>& result)
{
    // Deadline expiries are attributed rejections, not failures: the
    // request was accepted but its answer came due before an
    // executor ran it.
    bool deadline = !result.isOk() &&
        result.status().code() == StatusCode::DeadlineExceeded;
    if (metrics_.enabled())
        (result.isOk()   ? metrics_.completed
             : deadline  ? metrics_.rejectedDeadline
                         : metrics_.failed)
            ->inc();
    std::lock_guard<std::mutex> lock(mutex_);
    TenantCounters& row = tenants_[tenant];
    if (result.isOk()) {
        completed_++;
        row.completed++;
    } else if (deadline) {
        rejectedDeadline_++;
        row.rejectedDeadline++;
    } else {
        failed_++;
        row.failed++;
    }
}

void
FrontEnd::countSubmitted(const std::string& tenant)
{
    if (metrics_.enabled())
        metrics_.submitted->inc();
    std::lock_guard<std::mutex> lock(mutex_);
    submitted_++;
    tenants_[tenant].submitted++;
}

void
FrontEnd::countRefused(QueuePush refusal)
{
    bool shed = refusal == QueuePush::Full;
    if (metrics_.enabled())
        (shed ? metrics_.rejectedShed : metrics_.rejectedShutdown)
            ->inc();
    std::lock_guard<std::mutex> lock(mutex_);
    (shed ? rejectedShed_ : rejectedShutdown_)++;
}

void
FrontEnd::recordBatch(ShardCounters& shard, const ServeBatch& batch)
{
    auto completedAt = std::chrono::steady_clock::now();
    if (metrics_.enabled()) {
        metrics_.batches->inc();
        metrics_.batchPairs->inc(batch.pairCount);
    }
    shard.record(batch, completedAt);
    // Registry instruments synchronise themselves. One sample per
    // SLICE, like ServerStats::latencyUs (split requests bound the
    // caller latency from below).
    if (!metrics_.enabled() && cfg_.slo == nullptr)
        return;
    for (const ServeRequest& r : batch.requests) {
        std::size_t us = latencySampleUs(completedAt - r.enqueued);
        if (metrics_.enabled())
            shard
                .latencyHistogram(*cfg_.metrics, cfg_.metricsLabel, r,
                                  cfg_.metricsWindow)
                .add(us, completedAt);
        if (cfg_.slo != nullptr)
            cfg_.slo->record(r.version->name, r.tenant, us,
                             completedAt);
    }
}

void
FrontEnd::fillRequestStats(ServerStats& aggregate) const
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        aggregate.requestsSubmitted = submitted_;
        aggregate.requestsRejectedShed = rejectedShed_;
        aggregate.requestsRejectedShutdown = rejectedShutdown_;
        aggregate.requestsRejectedQuota = rejectedQuota_;
        aggregate.requestsRejectedDeadline = rejectedDeadline_;
        aggregate.requestsRejected = rejectedShed_ +
            rejectedShutdown_ + rejectedQuota_ + rejectedDeadline_;
        aggregate.requestsCompleted = completed_;
        aggregate.requestsFailed = failed_;
        for (const auto& [name, counters] : tenants_) {
            auto it = std::find_if(
                aggregate.tenants.begin(), aggregate.tenants.end(),
                [&name = name](const TenantStats& t) {
                    return t.tenant == name;
                });
            if (it == aggregate.tenants.end()) {
                aggregate.tenants.emplace_back();
                aggregate.tenants.back().tenant = name;
                it = aggregate.tenants.end() - 1;
            }
            it->submitted = counters.submitted;
            it->completed = counters.completed;
            it->failed = counters.failed;
            it->rejectedQuota = counters.rejectedQuota;
            it->rejectedDeadline = counters.rejectedDeadline;
        }
    }
    std::sort(aggregate.tenants.begin(), aggregate.tenants.end(),
              [](const TenantStats& a, const TenantStats& b) {
                  return a.tenant < b.tenant;
              });
}

} // namespace ccsa

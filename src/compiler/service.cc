#include "compiler/service.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "common/error.h"
#include "metrics/metrics.h"
#include "nuop/decomposition_strategy.h"

namespace qiset {

namespace {

using Clock = std::chrono::steady_clock;

double
nsSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::nano>(Clock::now() - start)
        .count();
}

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

/** Sum the translation pass's shared-cache counters of one compile. */
void
cacheTraffic(const std::vector<PassMetric>& metrics, double& hits,
             double& misses)
{
    for (const PassMetric& metric : metrics) {
        if (metric.pass != "translation")
            continue;
        auto hit = metric.counters.find("cache_hits");
        if (hit != metric.counters.end())
            hits += hit->second;
        auto miss = metric.counters.find("cache_misses");
        if (miss != metric.counters.end())
            misses += miss->second;
    }
}

} // namespace

const char*
toString(JobStatus status)
{
    switch (status) {
    case JobStatus::Queued: return "queued";
    case JobStatus::Running: return "running";
    case JobStatus::Done: return "done";
    case JobStatus::Cancelled: return "cancelled";
    case JobStatus::Failed: return "failed";
    case JobStatus::Rejected: return "rejected";
    }
    return "unknown";
}

// ------------------------------------------------------------ job state

/** Shared state of one job; outlives both service and handles. */
struct CompileJob::State
{
    // Immutable after admission.
    uint64_t id = 0;
    std::vector<Circuit> circuits;
    std::optional<CompileOptions> options;
    int priority = 0;
    std::string tag;
    ShardPlan plan;
    Clock::time_point submit_time;
    std::weak_ptr<CompileService::Impl> service;

    // Guarded by m. The service's lock order is service mutex first,
    // then this one; handle-only methods take only this one.
    mutable std::mutex m;
    mutable std::condition_variable cv;
    JobStatus status = JobStatus::Queued;
    bool cancel_requested = false;
    /** Circuits finished or skipped (terminal when == circuits). */
    size_t accounted = 0;
    size_t compiled_count = 0;
    std::vector<CompileResult> results;
    std::vector<double> queue_wait_ns;
    std::vector<double> wall_ms;
    std::vector<uint64_t> dispatch_seq;
    std::vector<char> compiled;
    std::exception_ptr error;
    /**
     * Completion callbacks not yet fired. Appended under m; swapped
     * out (again under m) and invoked with no lock held once the job
     * is terminal, so each runs exactly once.
     */
    std::vector<std::function<void(CompileJob)>> callbacks;

    bool terminalLocked() const
    {
        return status == JobStatus::Done ||
               status == JobStatus::Cancelled ||
               status == JobStatus::Failed ||
               status == JobStatus::Rejected;
    }

    CompileJobStats statsLocked() const
    {
        CompileJobStats out;
        out.circuits = circuits.size();
        out.shards.reserve(plan.assignments.size());
        for (const ShardAssignment& a : plan.assignments) {
            out.shards.push_back(a.shard);
            out.mean_predicted_fidelity += a.predicted_fidelity;
        }
        if (!plan.assignments.empty())
            out.mean_predicted_fidelity /= plan.assignments.size();
        out.dispatch_seq = dispatch_seq;

        size_t dispatched = 0;
        for (size_t i = 0; i < circuits.size(); ++i) {
            out.compile_wall_ms += wall_ms[i];
            if (dispatch_seq[i] != 0) {
                ++dispatched;
                out.queue_wait_ns_mean += queue_wait_ns[i];
                out.queue_wait_ns_max =
                    std::max(out.queue_wait_ns_max, queue_wait_ns[i]);
            }
            if (!compiled[i])
                continue;
            out.swaps_inserted += results[i].swaps_inserted;
            out.teleports_inserted += results[i].teleports_inserted;
            out.epr_attempts += results[i].epr_attempts;
            out.mean_estimated_fidelity += results[i].estimated_fidelity;
            for (const PassMetric& metric : results[i].pass_metrics) {
                if (metric.pass != "translation")
                    continue;
                auto hit = metric.counters.find("cache_hits");
                if (hit != metric.counters.end())
                    out.cache_hits +=
                        static_cast<uint64_t>(hit->second);
                auto miss = metric.counters.find("cache_misses");
                if (miss != metric.counters.end())
                    out.cache_misses +=
                        static_cast<uint64_t>(miss->second);
            }
        }
        if (dispatched > 0)
            out.queue_wait_ns_mean /= dispatched;
        if (compiled_count > 0)
            out.mean_estimated_fidelity /= compiled_count;
        uint64_t lookups = out.cache_hits + out.cache_misses;
        if (lookups > 0)
            out.cache_hit_ratio =
                static_cast<double>(out.cache_hits) / lookups;
        return out;
    }
};

// --------------------------------------------------------- service impl

struct CompileService::Impl
    : std::enable_shared_from_this<CompileService::Impl>
{
    /** One queued circuit of one job. */
    struct QueueEntry
    {
        std::shared_ptr<CompileJob::State> job;
        size_t index = 0;
        int priority = 0;
        uint64_t seq = 0;
    };

    /** Per-shard running telemetry (guarded by m). */
    struct ShardAccum
    {
        uint64_t assigned = 0;
        uint64_t completed = 0;
        double wall_ms = 0.0;
        int swaps = 0;
        int teleports = 0;
        double epr_attempts = 0.0;
        double est_fid_sum = 0.0;
        double pred_fid_sum = 0.0;
        std::vector<PassMetric> pass_rollup;
    };

    DeviceFleet fleet;
    GateSet gate_set;
    CompileServiceOptions opts;
    ProfileCache owned_cache;
    ProfileCache* cache = nullptr;
    /** Worker pool (owned or borrowed); null => inline execution. */
    ThreadPool* pool = nullptr;
    /** Borrowed event stream; null publishes nothing. */
    EventStream* events = nullptr;

    mutable std::mutex m;
    std::condition_variable idle_cv;
    bool paused = false;
    bool stopping = false;
    bool cache_saved = false;
    uint64_t next_job_id = 1;
    uint64_t next_entry_seq = 1;
    uint64_t next_dispatch_seq = 1;
    size_t queued = 0;
    size_t in_flight = 0;

    /**
     * Per-shard admission queues, each sorted so the back holds the
     * next dispatch: ascending (priority, then submission recency) —
     * i.e. back = highest priority, earliest sequence number.
     */
    std::vector<std::vector<QueueEntry>> queues;
    /** Gauge: predicted ns admitted but not yet compiled, per shard. */
    std::vector<double> backlog_ns;
    /** Monotonic predicted ns ever admitted, per shard. */
    std::vector<double> admitted_ns;
    std::vector<ShardAccum> shard_accum;

    uint64_t submitted = 0;
    uint64_t admitted_jobs = 0;
    uint64_t rejected = 0;
    uint64_t completed_jobs = 0;
    uint64_t failed_jobs = 0;
    uint64_t cancelled_jobs = 0;

    /**
     * Jobs that turned terminal with callbacks still registered
     * (guarded by m). Every path that can finalize a job drains this
     * via fireReadyCallbacks() after releasing m, so callbacks never
     * run under a service or job lock.
     */
    std::vector<std::shared_ptr<CompileJob::State>> ready_callbacks;
    /** Threads currently inside fireReadyCallbacks' invoke loop
     *  (guarded by m); shutdown() drains to zero so no callback ever
     *  outlives the service. */
    size_t callback_firers = 0;

    // Periodic shardTelemetry() publisher (separate mutex: the thread
    // must be stoppable without touching the heavily-contended m).
    std::thread publisher;
    std::mutex pub_m;
    std::condition_variable pub_cv;
    bool pub_stop = false;

    /** True when a dispatches before b (FIFO within priority). */
    static bool dispatchesBefore(const QueueEntry& a, const QueueEntry& b)
    {
        if (a.priority != b.priority)
            return a.priority > b.priority;
        return a.seq < b.seq;
    }

    void enqueueLocked(QueueEntry entry)
    {
        auto& queue = queues[static_cast<size_t>(
            entry.job->plan.assignments[entry.index].shard)];
        // Sorted worst-first so the best entry pops from the back.
        auto pos = std::upper_bound(
            queue.begin(), queue.end(), entry,
            [](const QueueEntry& a, const QueueEntry& b) {
                return dispatchesBefore(b, a);
            });
        queue.insert(pos, std::move(entry));
        ++queued;
    }

    /**
     * Fill the identity fields and publish one packet; no-op without
     * a stream. Lock-free — safe under any lock.
     */
    void publishEvent(ServiceEventType type, uint64_t job,
                      int32_t circuit, int32_t shard, double a = 0.0,
                      double b = 0.0)
    {
        if (!events)
            return;
        ServiceEvent event;
        event.type = type;
        event.job = job;
        event.circuit = circuit;
        event.shard = shard;
        event.worker = EventStream::currentWorker();
        event.a = a;
        event.b = b;
        events->publishNow(event);
    }

    /**
     * Finalize a job whose circuits are all accounted for. Both the
     * service mutex and the job mutex must be held. A finalized job
     * with registered callbacks lands on ready_callbacks; the caller
     * must fireReadyCallbacks() after releasing every lock.
     */
    void maybeFinalizeJobLocked(
        const std::shared_ptr<CompileJob::State>& job_ptr)
    {
        CompileJob::State& job = *job_ptr;
        if (job.accounted < job.circuits.size() || job.terminalLocked())
            return;
        if (job.error) {
            job.status = JobStatus::Failed;
            ++failed_jobs;
        } else if (job.compiled_count == job.circuits.size()) {
            job.status = JobStatus::Done;
            ++completed_jobs;
        } else {
            job.status = JobStatus::Cancelled;
            ++cancelled_jobs;
        }
        job.cv.notify_all();
        if (!job.callbacks.empty())
            ready_callbacks.push_back(job_ptr);
    }

    /**
     * Invoke the completion callbacks of every newly-terminal job.
     * Must be called with no service or job lock held; safe to call
     * concurrently (each callback still runs exactly once, because
     * both the ready list and each job's callback list are swapped
     * out under their mutex before any invocation).
     */
    void fireReadyCallbacks()
    {
        std::vector<std::shared_ptr<CompileJob::State>> ready;
        {
            std::lock_guard<std::mutex> lock(m);
            if (ready_callbacks.empty())
                return;
            ready.swap(ready_callbacks);
            ++callback_firers;
        }
        for (const auto& job : ready) {
            std::vector<std::function<void(CompileJob)>> callbacks;
            {
                std::lock_guard<std::mutex> jl(job->m);
                callbacks.swap(job->callbacks);
            }
            for (const auto& callback : callbacks)
                callback(CompileJob(job));
        }
        {
            std::lock_guard<std::mutex> lock(m);
            --callback_firers;
        }
        idle_cv.notify_all();
    }

    /**
     * Dispatch queued entries while capacity allows (m held). At most
     * pool-size circuits are in flight, so the admission queue, not
     * the pool's FIFO, orders work.
     */
    void pumpLocked()
    {
        if (!pool)
            return;
        while (!paused && in_flight < pool->size()) {
            int best_shard = -1;
            for (size_t s = 0; s < queues.size(); ++s) {
                if (queues[s].empty())
                    continue;
                if (best_shard < 0 ||
                    dispatchesBefore(
                        queues[s].back(),
                        queues[static_cast<size_t>(best_shard)].back()))
                    best_shard = static_cast<int>(s);
            }
            if (best_shard < 0)
                break;
            auto& queue = queues[static_cast<size_t>(best_shard)];
            QueueEntry entry = std::move(queue.back());
            queue.pop_back();
            --queued;

            bool skip = false;
            {
                std::lock_guard<std::mutex> jl(entry.job->m);
                skip = entry.job->cancel_requested ||
                       entry.job->error != nullptr;
                if (skip) {
                    ++entry.job->accounted;
                    maybeFinalizeJobLocked(entry.job);
                } else {
                    markDispatchedLocked(*entry.job, entry.index);
                }
            }
            if (skip) {
                publishEvent(ServiceEventType::Cancel, entry.job->id,
                             static_cast<int32_t>(entry.index),
                             entry.job->plan.assignments[entry.index]
                                 .shard);
                releaseBacklogLocked(entry);
                idle_cv.notify_all();
                continue;
            }
            ++in_flight;
            auto self = shared_from_this();
            pool->submit([self, entry] { self->runEntry(entry); });
        }
    }

    /** Stamp dispatch bookkeeping on one circuit (job mutex held). */
    void markDispatchedLocked(CompileJob::State& job, size_t index)
    {
        job.dispatch_seq[index] = next_dispatch_seq++;
        job.queue_wait_ns[index] = nsSince(job.submit_time);
        if (job.status == JobStatus::Queued)
            job.status = JobStatus::Running;
    }

    void releaseBacklogLocked(const QueueEntry& entry)
    {
        const ShardAssignment& a =
            entry.job->plan.assignments[entry.index];
        backlog_ns[static_cast<size_t>(a.shard)] -=
            a.predicted_duration_ns;
    }

    /** Compile one circuit (no service lock held). */
    void runEntry(const QueueEntry& entry)
    {
        const ShardAssignment& assignment =
            entry.job->plan.assignments[entry.index];
        const Shard& shard =
            fleet.shard(static_cast<size_t>(assignment.shard));
        const CompileOptions& options =
            entry.job->options ? *entry.job->options : shard.options;
        // Dispatch is published here, on the worker, so the trace's
        // job span opens on the track that actually runs it.
        publishEvent(ServiceEventType::Dispatch, entry.job->id,
                     static_cast<int32_t>(entry.index),
                     assignment.shard);
        CompileTelemetry telemetry;
        telemetry.stream = events;
        telemetry.job = entry.job->id;
        telemetry.circuit = static_cast<int32_t>(entry.index);
        telemetry.shard = assignment.shard;
        // Async workers fan a single circuit's decompositions across
        // the same pool: parallelFor is cooperative (the worker claims
        // indices itself; it never waits on the pool), so a lone large
        // job recruits otherwise-idle workers while a saturated pool
        // degrades gracefully to per-worker serial, and
        // options.intra_circuit_parallelism caps the fan-out. Inline
        // submits (no pool) translate serially.
        CompileResult result;
        std::exception_ptr error;
        auto start = Clock::now();
        try {
            result = runCompilePipeline(entry.job->circuits[entry.index],
                                        shard.device, gate_set, *cache,
                                        options, pool,
                                        events ? &telemetry : nullptr);
        } catch (...) {
            error = std::current_exception();
        }
        finishEntry(entry, std::move(result), error, msSince(start));
    }

    /**
     * Account one already-dispatched circuit as skipped without
     * compiling it (inline-mode fail-fast after a sibling's error).
     */
    void skipEntry(const QueueEntry& entry)
    {
        publishEvent(ServiceEventType::Cancel, entry.job->id,
                     static_cast<int32_t>(entry.index),
                     entry.job->plan.assignments[entry.index].shard);
        {
            std::lock_guard<std::mutex> lock(m);
            releaseBacklogLocked(entry);
            {
                std::lock_guard<std::mutex> jl(entry.job->m);
                ++entry.job->accounted;
                maybeFinalizeJobLocked(entry.job);
            }
            --in_flight;
            idle_cv.notify_all();
        }
        fireReadyCallbacks();
    }

    void finishEntry(const QueueEntry& entry, CompileResult result,
                     std::exception_ptr error, double wall_ms)
    {
        const ShardAssignment& assignment =
            entry.job->plan.assignments[entry.index];
        size_t s = static_cast<size_t>(assignment.shard);

        // Telemetry before any lock: the packets come from the
        // finishing worker's thread (its trace track).
        double hits = 0.0, misses = 0.0;
        if (!error)
            cacheTraffic(result.pass_metrics, hits, misses);
        if (!error && hits + misses > 0.0)
            publishEvent(ServiceEventType::CacheStats, entry.job->id,
                         static_cast<int32_t>(entry.index),
                         assignment.shard, hits, misses);
        if (!error && result.teleports_inserted > 0)
            publishEvent(ServiceEventType::Teleport, entry.job->id,
                         static_cast<int32_t>(entry.index),
                         assignment.shard,
                         static_cast<double>(result.teleports_inserted),
                         result.epr_attempts);
        publishEvent(ServiceEventType::Complete, entry.job->id,
                     static_cast<int32_t>(entry.index), assignment.shard,
                     wall_ms, error ? 0.0 : 1.0);

        {
            std::lock_guard<std::mutex> lock(m);
            releaseBacklogLocked(entry);
            if (!error) {
                ShardAccum& acc = shard_accum[s];
                ++acc.completed;
                acc.wall_ms += totalWallMs(result.pass_metrics);
                acc.swaps += result.swaps_inserted;
                acc.teleports += result.teleports_inserted;
                acc.epr_attempts += result.epr_attempts;
                acc.est_fid_sum += result.estimated_fidelity;
                accumulatePassMetrics(acc.pass_rollup,
                                      result.pass_metrics);
            }
            {
                std::lock_guard<std::mutex> jl(entry.job->m);
                CompileJob::State& job = *entry.job;
                if (error) {
                    if (!job.error)
                        job.error = error;
                } else {
                    job.results[entry.index] = std::move(result);
                    job.compiled[entry.index] = 1;
                    ++job.compiled_count;
                }
                job.wall_ms[entry.index] = wall_ms;
                ++job.accounted;
                maybeFinalizeJobLocked(entry.job);
            }
            --in_flight;
            pumpLocked();
            idle_cv.notify_all();
        }
        fireReadyCallbacks();
    }

    /** shardTelemetry() body, shared with the publisher thread. */
    std::vector<PassMetric> shardTelemetrySnapshot() const
    {
        std::lock_guard<std::mutex> lock(m);
        std::vector<PassMetric> out;
        out.reserve(fleet.size());
        for (size_t s = 0; s < fleet.size(); ++s) {
            const ShardAccum& acc = shard_accum[s];
            PassMetric metric{"shard:" + fleet.shard(s).name,
                              acc.wall_ms,
                              {}};
            metric.counters["assigned"] =
                static_cast<double>(acc.assigned);
            metric.counters["completed"] =
                static_cast<double>(acc.completed);
            metric.counters["queue_ns"] = admitted_ns[s];
            metric.counters["backlog_ns"] = backlog_ns[s];
            metric.counters["swaps_inserted"] = acc.swaps;
            metric.counters["teleports_inserted"] = acc.teleports;
            metric.counters["epr_attempts"] = acc.epr_attempts;
            if (acc.completed > 0)
                metric.counters["mean_estimated_fidelity"] =
                    acc.est_fid_sum / acc.completed;
            if (acc.assigned > 0)
                metric.counters["mean_predicted_fidelity"] =
                    acc.pred_fid_sum / acc.assigned;
            out.push_back(std::move(metric));
        }
        return out;
    }

    /** Publisher thread: deliver periodic snapshots to the sink. */
    void publisherLoop()
    {
        std::unique_lock<std::mutex> lock(pub_m);
        while (!pub_stop) {
            pub_cv.wait_for(lock,
                            std::chrono::duration<double, std::milli>(
                                opts.telemetry_interval_ms),
                            [this] { return pub_stop; });
            if (pub_stop)
                return;
            lock.unlock();
            // The sink runs outside pub_m and m (the snapshot takes m
            // only while copying), so it may call back into the
            // service.
            opts.telemetry_sink(shardTelemetrySnapshot());
            lock.lock();
        }
    }
};

// -------------------------------------------------------------- handles

uint64_t
CompileJob::id() const
{
    QISET_REQUIRE(state_, "id() on an invalid CompileJob");
    return state_->id;
}

const std::string&
CompileJob::tag() const
{
    QISET_REQUIRE(state_, "tag() on an invalid CompileJob");
    return state_->tag;
}

JobStatus
CompileJob::poll() const
{
    QISET_REQUIRE(state_, "poll() on an invalid CompileJob");
    std::lock_guard<std::mutex> lock(state_->m);
    return state_->status;
}

JobStatus
CompileJob::wait() const
{
    QISET_REQUIRE(state_, "wait() on an invalid CompileJob");
    std::unique_lock<std::mutex> lock(state_->m);
    state_->cv.wait(lock, [this] { return state_->terminalLocked(); });
    return state_->status;
}

JobStatus
CompileJob::waitFor(double timeout_ms) const
{
    QISET_REQUIRE(state_, "waitFor() on an invalid CompileJob");
    std::unique_lock<std::mutex> lock(state_->m);
    // An expired deadline answers immediately — never charge the
    // caller a dispatch cycle for asking about the present.
    if (timeout_ms <= 0.0 || state_->terminalLocked())
        return state_->status;
    state_->cv.wait_for(
        lock, std::chrono::duration<double, std::milli>(timeout_ms),
        [this] { return state_->terminalLocked(); });
    return state_->status;
}

void
CompileJob::onComplete(std::function<void(CompileJob)> callback)
{
    QISET_REQUIRE(state_, "onComplete() on an invalid CompileJob");
    QISET_REQUIRE(callback != nullptr,
                  "onComplete() needs a non-empty callback");
    {
        std::lock_guard<std::mutex> lock(state_->m);
        if (!state_->terminalLocked()) {
            state_->callbacks.push_back(std::move(callback));
            return;
        }
    }
    // Already terminal: run here, outside the lock, so registration
    // can never miss the completion (and never deadlocks a callback
    // that touches the job).
    callback(*this);
}

const std::vector<CompileResult>&
CompileJob::results() const
{
    JobStatus status = wait();
    std::lock_guard<std::mutex> lock(state_->m);
    if (state_->error)
        std::rethrow_exception(state_->error);
    QISET_REQUIRE(status == JobStatus::Done,
                  "results() on a job that ended \"", toString(status),
                  "\"");
    return state_->results;
}

const ShardPlan&
CompileJob::plan() const
{
    QISET_REQUIRE(state_, "plan() on an invalid CompileJob");
    return state_->plan;
}

CompileJobStats
CompileJob::stats() const
{
    QISET_REQUIRE(state_, "stats() on an invalid CompileJob");
    std::lock_guard<std::mutex> lock(state_->m);
    return state_->statsLocked();
}

std::vector<PassMetric>
CompileJob::passMetrics() const
{
    QISET_REQUIRE(state_, "passMetrics() on an invalid CompileJob");
    std::lock_guard<std::mutex> lock(state_->m);
    std::vector<PassMetric> out;
    for (size_t i = 0; i < state_->circuits.size(); ++i)
        if (state_->compiled[i])
            accumulatePassMetrics(out,
                                  state_->results[i].pass_metrics);
    CompileJobStats stats = state_->statsLocked();
    // Summable counters only: accumulatePassMetrics adds counters
    // across jobs, so ratios and means (which do not survive
    // summation) stay on CompileJobStats; consumers derive them from
    // these sums plus "circuits"/"runs".
    PassMetric service{"service:job", stats.compile_wall_ms, {}};
    service.counters["circuits"] =
        static_cast<double>(stats.circuits);
    double queue_wait_total = 0.0;
    for (double wait : state_->queue_wait_ns)
        queue_wait_total += wait;
    service.counters["queue_wait_ns_total"] = queue_wait_total;
    service.counters["cache_hits"] =
        static_cast<double>(stats.cache_hits);
    service.counters["cache_misses"] =
        static_cast<double>(stats.cache_misses);
    service.counters["swaps_inserted"] =
        static_cast<double>(stats.swaps_inserted);
    service.counters["teleports_inserted"] =
        static_cast<double>(stats.teleports_inserted);
    service.counters["epr_attempts"] = stats.epr_attempts;
    double fidelity_sum = 0.0;
    for (size_t i = 0; i < state_->circuits.size(); ++i)
        if (state_->compiled[i])
            fidelity_sum += state_->results[i].estimated_fidelity;
    service.counters["estimated_fidelity_sum"] = fidelity_sum;
    out.push_back(std::move(service));
    return out;
}

bool
CompileJob::cancel()
{
    QISET_REQUIRE(state_, "cancel() on an invalid CompileJob");
    std::shared_ptr<CompileService::Impl> impl = state_->service.lock();
    if (!impl) {
        // The service is gone, so the job was drained to a terminal
        // state; there is nothing left to cancel.
        return false;
    }
    size_t dropped = 0;
    {
        std::lock_guard<std::mutex> lock(impl->m);
        std::lock_guard<std::mutex> jl(state_->m);
        if (state_->terminalLocked())
            return false;
        state_->cancel_requested = true;

        // Drop this job's still-queued circuits and release their
        // backlog.
        for (auto& queue : impl->queues) {
            auto it = queue.begin();
            while (it != queue.end()) {
                if (it->job.get() != state_.get()) {
                    ++it;
                    continue;
                }
                impl->publishEvent(
                    ServiceEventType::Cancel, state_->id,
                    static_cast<int32_t>(it->index),
                    state_->plan.assignments[it->index].shard);
                impl->releaseBacklogLocked(*it);
                ++state_->accounted;
                ++dropped;
                --impl->queued;
                it = queue.erase(it);
            }
        }
        impl->maybeFinalizeJobLocked(state_);
        impl->idle_cv.notify_all();
    }
    impl->fireReadyCallbacks();
    return dropped > 0;
}

// -------------------------------------------------------------- service

CompileServiceOptions
oneShotServiceOptions(ProfileCache& cache, size_t batch_size,
                      ThreadPool* pool)
{
    CompileServiceOptions options;
    options.cache = &cache;
    if (pool && pool->size() > 1 && batch_size > 1)
        options.pool = pool;
    return options;
}

CompileService::CompileService(DeviceFleet fleet, GateSet gate_set,
                               CompileServiceOptions options)
{
    validateFleet(fleet);

    impl_ = std::make_shared<Impl>();
    impl_->fleet = std::move(fleet);
    impl_->gate_set = std::move(gate_set);
    impl_->opts = std::move(options);
    impl_->cache = impl_->opts.cache ? impl_->opts.cache
                                     : &impl_->owned_cache;
    if (!impl_->opts.cache && !impl_->opts.cache_path.empty()) {
        // Warm state from a previous service run; a stale, missing or
        // differently-stamped file simply means a cold start.
        impl_->owned_cache.load(
            impl_->opts.cache_path, impl_->fleet.shard(0).options.nuop,
            *makeDecompositionStrategy(
                impl_->fleet.shard(0).options.decomposition));
    }
    if (!impl_->opts.pool && impl_->opts.workers > 0)
        owned_pool_ = std::make_unique<ThreadPool>(impl_->opts.workers);
    impl_->pool = impl_->opts.pool ? impl_->opts.pool
                                   : owned_pool_.get();

    size_t shards = impl_->fleet.size();
    impl_->queues.resize(shards);
    impl_->backlog_ns.assign(shards, 0.0);
    impl_->admitted_ns.assign(shards, 0.0);
    impl_->shard_accum.resize(shards);

    impl_->events = impl_->opts.events;

    if (impl_->opts.telemetry_interval_ms > 0.0 &&
        impl_->opts.telemetry_sink) {
        // Raw capture is safe: shutdown() joins before impl_ dies.
        Impl* impl = impl_.get();
        impl_->publisher = std::thread([impl] { impl->publisherLoop(); });
    }
}

CompileService::~CompileService()
{
    shutdown();
    // Joining the owned workers after the drain guarantees no task
    // still references impl state through the raw pool pointer.
    owned_pool_.reset();
}

CompileJob
CompileService::submit(CompileRequest request)
{
    if (request.options) {
        QISET_REQUIRE(
            sameNuOpOptions(request.options->nuop,
                            impl_->fleet.shard(0).options.nuop),
            "per-request NuOp settings differ from the fleet's; the "
            "shared profile cache would mix incompatible profiles");
        // Per-request decomposition engines are fine — strategy tags
        // in the cache keys keep mixed engines collision-free — but
        // an unknown name should reject at submit, not mid-compile.
        makeDecompositionStrategy(request.options->decomposition);
    }

    auto state = std::make_shared<CompileJob::State>();
    state->circuits = std::move(request.circuits);
    state->options = std::move(request.options);
    state->priority = request.priority;
    state->tag = std::move(request.tag);
    state->service = impl_;
    if (request.on_complete)
        state->callbacks.push_back(std::move(request.on_complete));

    std::unique_lock<std::mutex> lock(impl_->m);
    QISET_REQUIRE(!impl_->stopping,
                  "submit() on a CompileService that was shut down");
    state->id = impl_->next_job_id++;
    state->submit_time = Clock::now();
    impl_->publishEvent(ServiceEventType::Submit, state->id, -1, -1,
                        static_cast<double>(state->circuits.size()));
    // Re-plan on arrival against the current predicted backlog: the
    // plan is cheap and deterministic, and load-balances new work away
    // from busy shards.
    state->plan =
        planShardAssignments(state->circuits, impl_->fleet,
                             impl_->gate_set, impl_->opts.planner,
                             impl_->backlog_ns);
    ++impl_->submitted;

    size_t n = state->circuits.size();
    state->results.resize(n);
    state->queue_wait_ns.assign(n, 0.0);
    state->wall_ms.assign(n, 0.0);
    state->dispatch_seq.assign(n, 0);
    state->compiled.assign(n, 0);

    // ---- admission control over the planner's predicted queue_ns ----
    double predicted_completion_ns = 0.0;
    for (size_t s = 0; s < impl_->fleet.size(); ++s)
        if (!state->plan.queues[s].empty())
            predicted_completion_ns = std::max(predicted_completion_ns,
                                               state->plan.queue_ns[s]);
    bool reject = false;
    if (request.deadline_ns > 0.0 &&
        predicted_completion_ns > request.deadline_ns)
        reject = true;
    if (impl_->opts.max_queue_ns > 0.0)
        for (size_t s = 0; s < impl_->fleet.size(); ++s)
            if (!state->plan.queues[s].empty() &&
                state->plan.queue_ns[s] > impl_->opts.max_queue_ns)
                reject = true;
    if (reject) {
        ++impl_->rejected;
        impl_->publishEvent(ServiceEventType::Reject, state->id, -1, -1,
                            static_cast<double>(n));
        {
            std::lock_guard<std::mutex> jl(state->m);
            state->status = JobStatus::Rejected;
            state->cv.notify_all();
            if (!state->callbacks.empty())
                impl_->ready_callbacks.push_back(state);
        }
        lock.unlock();
        impl_->fireReadyCallbacks();
        return CompileJob(std::move(state));
    }

    ++impl_->admitted_jobs;
    if (n == 0) {
        ++impl_->completed_jobs;
        {
            std::lock_guard<std::mutex> jl(state->m);
            state->status = JobStatus::Done;
            state->cv.notify_all();
            if (!state->callbacks.empty())
                impl_->ready_callbacks.push_back(state);
        }
        lock.unlock();
        impl_->fireReadyCallbacks();
        return CompileJob(std::move(state));
    }

    for (size_t s = 0; s < impl_->fleet.size(); ++s) {
        impl_->admitted_ns[s] +=
            state->plan.queue_ns[s] - impl_->backlog_ns[s];
        impl_->backlog_ns[s] = state->plan.queue_ns[s];
    }
    for (size_t c = 0; c < n; ++c) {
        const ShardAssignment& a = state->plan.assignments[c];
        Impl::ShardAccum& acc =
            impl_->shard_accum[static_cast<size_t>(a.shard)];
        ++acc.assigned;
        acc.pred_fid_sum += a.predicted_fidelity;
        impl_->publishEvent(ServiceEventType::Admit, state->id,
                            static_cast<int32_t>(c), a.shard,
                            a.predicted_duration_ns,
                            a.predicted_fidelity);
    }

    if (impl_->pool) {
        for (size_t c = 0; c < n; ++c)
            impl_->enqueueLocked(Impl::QueueEntry{
                state, c, state->priority, impl_->next_entry_seq++});
        impl_->pumpLocked();
        lock.unlock();
        impl_->fireReadyCallbacks();
        return CompileJob(std::move(state));
    }

    // Inline mode: compile on the calling thread before returning.
    std::vector<Impl::QueueEntry> entries;
    entries.reserve(n);
    {
        std::lock_guard<std::mutex> jl(state->m);
        for (size_t c = 0; c < n; ++c) {
            impl_->markDispatchedLocked(*state, c);
            entries.push_back(Impl::QueueEntry{
                state, c, state->priority, impl_->next_entry_seq++});
        }
    }
    impl_->in_flight += n;
    lock.unlock();
    for (const Impl::QueueEntry& entry : entries) {
        bool bail;
        {
            std::lock_guard<std::mutex> jl(state->m);
            // Fail fast: once one circuit errored (or another thread
            // cancelled), skip the rest instead of compiling work
            // whose job is already lost.
            bail = state->error != nullptr || state->cancel_requested;
        }
        if (bail)
            impl_->skipEntry(entry);
        else
            impl_->runEntry(entry);
    }
    return CompileJob(std::move(state));
}

void
CompileService::pause()
{
    std::lock_guard<std::mutex> lock(impl_->m);
    impl_->paused = true;
}

void
CompileService::resume()
{
    {
        std::lock_guard<std::mutex> lock(impl_->m);
        impl_->paused = false;
        impl_->pumpLocked();
    }
    impl_->fireReadyCallbacks();
}

void
CompileService::shutdown()
{
    bool save = false;
    {
        std::unique_lock<std::mutex> lock(impl_->m);
        impl_->stopping = true;
        impl_->paused = false;
        impl_->pumpLocked();
        impl_->idle_cv.wait(lock, [this] {
            return impl_->queued == 0 && impl_->in_flight == 0;
        });
        if (!impl_->opts.cache && !impl_->opts.cache_path.empty() &&
            !impl_->cache_saved) {
            impl_->cache_saved = true;
            save = true;
        }
    }
    // The drain can finalize jobs whose callbacks nothing else will
    // fire (e.g. cancelled work skipped by the pump).
    impl_->fireReadyCallbacks();
    {
        // Workers decrement in_flight before invoking callbacks, so
        // also wait until every firing thread has finished: after
        // shutdown() no callback is running or pending.
        std::unique_lock<std::mutex> lock(impl_->m);
        impl_->idle_cv.wait(lock, [this] {
            return impl_->ready_callbacks.empty() &&
                   impl_->callback_firers == 0;
        });
    }
    {
        std::lock_guard<std::mutex> pl(impl_->pub_m);
        impl_->pub_stop = true;
    }
    impl_->pub_cv.notify_all();
    if (impl_->publisher.joinable()) {
        impl_->publisher.join();
        // One final snapshot so the sink always sees the drained end
        // state (fires once: joinable() is false from here on).
        impl_->opts.telemetry_sink(impl_->shardTelemetrySnapshot());
    }
    if (save)
        impl_->owned_cache.save(
            impl_->opts.cache_path, impl_->fleet.shard(0).options.nuop,
            *makeDecompositionStrategy(
                impl_->fleet.shard(0).options.decomposition));
}

CompileServiceStats
CompileService::stats() const
{
    std::lock_guard<std::mutex> lock(impl_->m);
    CompileServiceStats out;
    out.submitted = impl_->submitted;
    out.admitted = impl_->admitted_jobs;
    out.rejected = impl_->rejected;
    out.completed = impl_->completed_jobs;
    out.failed = impl_->failed_jobs;
    out.cancelled = impl_->cancelled_jobs;
    out.queued = impl_->queued;
    out.in_flight = impl_->in_flight;
    out.backlog_ns = impl_->backlog_ns;
    out.admitted_ns = impl_->admitted_ns;
    return out;
}

std::vector<PassMetric>
CompileService::shardTelemetry() const
{
    return impl_->shardTelemetrySnapshot();
}

std::vector<std::vector<PassMetric>>
CompileService::shardPassRollups() const
{
    std::lock_guard<std::mutex> lock(impl_->m);
    std::vector<std::vector<PassMetric>> out;
    out.reserve(impl_->shard_accum.size());
    for (const Impl::ShardAccum& acc : impl_->shard_accum)
        out.push_back(acc.pass_rollup);
    return out;
}

const DeviceFleet&
CompileService::fleet() const
{
    return impl_->fleet;
}

const GateSet&
CompileService::gateSet() const
{
    return impl_->gate_set;
}

ProfileCache&
CompileService::profileCache()
{
    return *impl_->cache;
}

} // namespace qiset

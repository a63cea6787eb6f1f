#ifndef QISET_COMPILER_SERVICE_H
#define QISET_COMPILER_SERVICE_H

/**
 * @file
 * The async compile service: one long-lived process front end serving
 * many concurrent clients on top of the shard planner's queues.
 *
 * Clients build a CompileRequest (circuits + optional per-request
 * CompileOptions + QoS hints: priority, deadline; optionally an
 * on_complete callback — the primary completion pattern) and submit()
 * it to a CompileService, getting back a CompileJob — a future-like
 * handle with onComplete()/wait()/waitFor()/poll()/cancel() and
 * per-job telemetry (queue wait, per-circuit shard assignment, cache
 * hit ratio, accumulated PassMetric roll-up). Observability is
 * streaming: an optional EventStream receives one lock-free packet
 * per lifecycle transition and per compiler pass (exportable as a
 * Chrome trace, metrics/trace_export.h), and a periodic publisher can
 * push shardTelemetry() snapshots to a sink. Internally the service
 * owns a DeviceFleet, one
 * shared persistable ProfileCache, a worker ThreadPool, and per-shard
 * admission queues keyed by the planner's predicted queue_ns:
 * arriving requests are re-planned against the current backlog (the
 * plan is cheap and deterministic), admission control can reject work
 * whose predicted completion misses its deadline or overflows a
 * backlog cap, and dispatch is FIFO within priority.
 *
 * Determinism: every circuit compiles through runCompilePipeline —
 * the function compileCircuit, compileBatch and compileBatchSharded
 * call directly — with the same seeded-multistart guarantee, so
 * service results are bit-identical to solo compiles on the assigned
 * shard's device.
 */

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "compiler/shard.h"
#include "metrics/event_stream.h"

namespace qiset {

class CompileService;
class CompileJob;

/** Lifecycle states of a CompileJob. */
enum class JobStatus
{
    /** Admitted; at least one circuit still waits for dispatch. */
    Queued,
    /** At least one circuit has been dispatched to a worker. */
    Running,
    /** All circuits compiled; results() is complete. */
    Done,
    /** cancel() stopped the job before every circuit compiled. */
    Cancelled,
    /** A compile threw; results() rethrows the first error. */
    Failed,
    /** Admission control refused the request (deadline/backlog). */
    Rejected,
};

/** Human-readable status name ("queued", "done", ...). */
const char* toString(JobStatus status);

/** One client request: circuits plus per-request options and QoS. */
struct CompileRequest
{
    /** Workload; every circuit is planned onto one fleet shard. */
    std::vector<Circuit> circuits;
    /**
     * Per-request compile options. When unset, each circuit compiles
     * with its assigned shard's options. When set, they override the
     * shard options for this request — except NuOpOptions, which must
     * match the fleet's (the shared profile cache is keyed by
     * (unitary, gate type) only; submit() raises FatalError on a
     * mismatch).
     */
    std::optional<CompileOptions> options;
    /** Dispatch priority: higher runs sooner; FIFO within a level. */
    int priority = 0;
    /**
     * Admission deadline in predicted-queue ns (the planner's
     * queue_ns scale). When > 0, the request is Rejected if its
     * predicted completion backlog exceeds this. 0 disables.
     */
    double deadline_ns = 0.0;
    /** Client label carried into telemetry. */
    std::string tag;
    /**
     * Completion callback, invoked exactly once when the job reaches a
     * terminal state (Done / Cancelled / Failed / Rejected — check the
     * handle's poll()). The primary completion pattern: no poll loop,
     * no blocked waiter thread. Runs outside every service and job
     * lock — on the worker that finished the last circuit (async), on
     * the submitting thread (inline mode, rejections, empty requests),
     * or on the draining thread at shutdown. Any service method except
     * shutdown() may be called from inside it; keep it brief, it runs
     * on a compile worker. See also CompileJob::onComplete for
     * registering after submission.
     */
    std::function<void(CompileJob)> on_complete;
};

/** ShardedBatchResult-style aggregate statistics of one job. */
struct CompileJobStats
{
    /** Circuits in the request. */
    size_t circuits = 0;
    /** Mean / max wall-clock wait between admission and dispatch. */
    double queue_wait_ns_mean = 0.0;
    double queue_wait_ns_max = 0.0;
    /** Summed compile wall-clock across the job's circuits. */
    double compile_wall_ms = 0.0;
    /** Shared-cache traffic of this job's translations (exact:
     *  summed from the per-compile translation-pass counters). */
    uint64_t cache_hits = 0;
    uint64_t cache_misses = 0;
    /** hits / (hits + misses); 0 when the job did no lookups. */
    double cache_hit_ratio = 0.0;
    int swaps_inserted = 0;
    /** Inter-core teleports of this job's compiles (chiplet shards). */
    int teleports_inserted = 0;
    /** Expected EPR generation attempts those teleports cost. */
    double epr_attempts = 0.0;
    double mean_estimated_fidelity = 0.0;
    double mean_predicted_fidelity = 0.0;
    /** Per-circuit assigned shard index (the plan's view). */
    std::vector<int> shards;
    /**
     * Per-circuit global dispatch sequence number (1-based service-
     * wide order in which circuits reached a worker; 0 = never
     * dispatched). Exposes FIFO-within-priority for tests/telemetry.
     */
    std::vector<uint64_t> dispatch_seq;
};

/**
 * Future-like handle to one submitted request. Copyable (all copies
 * share the same state) and safe to wait()/poll() after the service
 * that produced it has been destroyed (shutdown drains every job to a
 * terminal state first).
 */
class CompileJob
{
  public:
    CompileJob() = default;

    /** False for a default-constructed handle. */
    bool valid() const { return state_ != nullptr; }

    /** Service-wide id (1-based submission order). */
    uint64_t id() const;

    /** Current status without blocking. */
    JobStatus poll() const;

    /** Block until the job reaches a terminal state; returns it. */
    JobStatus wait() const;

    /**
     * Block until the job is terminal or `timeout_ms` elapses; returns
     * the status either way (non-terminal = timed out). A non-positive
     * timeout — including a deadline that already passed before the
     * call — never blocks: it returns the current status immediately
     * rather than waiting out a dispatch cycle.
     */
    JobStatus waitFor(double timeout_ms) const;

    /**
     * Register a completion callback on a live handle (same contract
     * as CompileRequest::on_complete: invoked exactly once, outside
     * all locks). On an already-terminal job the callback runs
     * immediately on the calling thread, so registration can never
     * miss the completion.
     */
    void onComplete(std::function<void(CompileJob)> callback);

    /**
     * Best-effort cancel: circuits not yet dispatched are dropped
     * (releasing their predicted backlog); circuits already on a
     * worker run to completion. Returns true when the job will end
     * Cancelled (some work was dropped), false when it was already
     * terminal or every circuit had been dispatched.
     */
    bool cancel();

    /**
     * Compiled circuits, aligned with the request (blocks until
     * terminal). Throws FatalError unless the status is Done; a
     * Failed job rethrows the first compile error instead.
     */
    const std::vector<CompileResult>& results() const;

    /** The admission-time plan of this request's circuits. */
    const ShardPlan& plan() const;

    /** Aggregate statistics (complete once the job is terminal). */
    CompileJobStats stats() const;

    /**
     * Per-pass roll-up across the job's circuits
     * (accumulatePassMetrics) plus one trailing "service:job" row of
     * *summable* service counters (circuits, queue_wait_ns_total,
     * cache_hits/misses, swaps_inserted, estimated_fidelity_sum), so
     * folding several jobs with accumulatePassMetrics aggregates
     * service telemetry meaningfully — derive means/ratios from the
     * sums (per-job ones are precomputed on stats()).
     */
    std::vector<PassMetric> passMetrics() const;

    /** The request's client label. */
    const std::string& tag() const;

  private:
    friend class CompileService;
    struct State;
    explicit CompileJob(std::shared_ptr<State> state)
        : state_(std::move(state))
    {
    }
    std::shared_ptr<State> state_;
};

/** Service tuning. */
struct CompileServiceOptions
{
    /**
     * Worker threads of a service-owned ThreadPool. 0 with no
     * borrowed pool means *inline* execution: submit() compiles the
     * request on the calling thread before returning, with a serial
     * translation (no thread spin-up per call).
     */
    size_t workers = 0;
    /**
     * Borrowed worker pool (takes precedence over `workers`; must
     * outlive the service). Never submit() from inside one of its
     * workers — the drain would deadlock. At most pool-size circuits
     * are dispatched at once, so the admission queue, not the pool's
     * FIFO, orders work and priorities hold under load.
     */
    ThreadPool* pool = nullptr;
    /** Shard planner settings used on every arrival re-plan. */
    ShardPlannerOptions planner;
    /**
     * Admission cap: reject a request when any shard's predicted
     * backlog would exceed this many ns. 0 = unbounded.
     */
    double max_queue_ns = 0.0;
    /**
     * Borrowed profile cache (must outlive the service). When null
     * the service owns one — the warm state the ROADMAP's service
     * item names, persistable across restarts via `cache_path`.
     */
    ProfileCache* cache = nullptr;
    /**
     * When set, the owned cache is load()ed from this path at
     * construction (ignored on NuOp-stamp mismatch) and save()d at
     * shutdown. No effect on a borrowed cache.
     */
    std::string cache_path;
    /**
     * Borrowed event stream (must outlive the service). When set,
     * every lifecycle transition — submit, per-circuit admit, reject,
     * dispatch, per-pass begin/complete, cache traffic, complete,
     * cancel — publishes one fixed-size packet (lock-free, drop-on-
     * full; see metrics/event_stream.h). Null (the default) publishes
     * nothing and keeps the hot path untouched. Telemetry never
     * affects compile results.
     */
    EventStream* events = nullptr;
    /**
     * When > 0 (ms) and telemetry_sink is set, a service-owned
     * publisher thread delivers a shardTelemetry() snapshot to the
     * sink every interval, plus one final snapshot at shutdown after
     * the drain. The sink runs outside all service locks.
     */
    double telemetry_interval_ms = 0.0;
    std::function<void(std::vector<PassMetric>)> telemetry_sink;
};

/** Counter snapshot of a service (all monotonic except gauges). */
struct CompileServiceStats
{
    uint64_t submitted = 0;
    uint64_t admitted = 0;
    uint64_t rejected = 0;
    uint64_t completed = 0;
    uint64_t failed = 0;
    uint64_t cancelled = 0;
    /** Gauge: circuits currently awaiting dispatch. */
    size_t queued = 0;
    /** Gauge: circuits currently on a worker. */
    size_t in_flight = 0;
    /** Gauge: per-shard predicted ns admitted but not yet compiled. */
    std::vector<double> backlog_ns;
    /** Monotonic per-shard predicted ns ever admitted. */
    std::vector<double> admitted_ns;
};

/**
 * Options for a one-shot service compiling one batch: borrow the
 * caller's cache, and borrow the caller's pool as the worker pool
 * when it can parallelize the batch (pool of > 1 worker, > 1 circuit,
 * the forEachCircuit rule); otherwise the service runs inline with a
 * serial translation. Results match compileBatch bit for bit.
 */
CompileServiceOptions oneShotServiceOptions(ProfileCache& cache,
                                            size_t batch_size,
                                            ThreadPool* pool);

/**
 * Long-lived request/job compile front end over a DeviceFleet. All
 * public methods are thread-safe; many clients may submit()
 * concurrently. Destruction (or shutdown()) stops admission, drains
 * every queued and running job to a terminal state, and persists the
 * owned cache when cache_path is set.
 */
class CompileService
{
  public:
    /**
     * @throws FatalError when the fleet fails validateFleet(): it is
     *         empty, its shards carry mismatched NuOpOptions (they
     *         share one profile cache), or a shard names an unknown
     *         decomposition engine.
     */
    CompileService(DeviceFleet fleet, GateSet gate_set,
                   CompileServiceOptions options = CompileServiceOptions());
    ~CompileService();

    CompileService(const CompileService&) = delete;
    CompileService& operator=(const CompileService&) = delete;

    /**
     * Plan the request against the current per-shard backlog, apply
     * admission control, and enqueue (async) or run (inline mode) its
     * circuits. Returns immediately in async mode. An empty request
     * completes Done immediately; QoS refusals return a Rejected job
     * rather than throwing. Raises FatalError after shutdown, when a
     * circuit fits no shard, or when request options carry NuOp
     * settings different from the fleet's.
     */
    CompileJob submit(CompileRequest request);

    /** Stop dispatching queued circuits (async mode; running ones
     *  finish). Inline submits are unaffected. */
    void pause();

    /** Resume dispatching. */
    void resume();

    /**
     * Stop admitting, resume if paused, and block until every queued
     * and running circuit has drained; saves the owned cache when
     * cache_path is set. Idempotent; called by the destructor.
     */
    void shutdown();

    /** Counter/gauge snapshot. */
    CompileServiceStats stats() const;

    /**
     * Per-shard telemetry in ShardedBatchResult::shard_metrics form:
     * one "shard:<name>" PassMetric per shard with assigned /
     * completed counts, cumulative predicted queue_ns, swaps and mean
     * estimated/predicted fidelities across everything the service
     * has compiled so far.
     */
    std::vector<PassMetric> shardTelemetry() const;

    /** Per-shard per-pass roll-ups (accumulatePassMetrics totals). */
    std::vector<std::vector<PassMetric>> shardPassRollups() const;

    const DeviceFleet& fleet() const;
    const GateSet& gateSet() const;
    /** The shared profile cache (owned or borrowed). */
    ProfileCache& profileCache();

  private:
    friend class CompileJob;
    struct Impl;
    std::shared_ptr<Impl> impl_;
    std::unique_ptr<ThreadPool> owned_pool_;
};

} // namespace qiset

#endif // QISET_COMPILER_SERVICE_H

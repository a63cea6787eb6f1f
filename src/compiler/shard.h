#ifndef QISET_COMPILER_SHARD_H
#define QISET_COMPILER_SHARD_H

/**
 * @file
 * Multi-device sharded batch compilation.
 *
 * A DeviceFleet is a set of compile *shards*: whole devices and/or
 * disjoint connected regions carved out of one large device
 * (Topology::balancedPartitions + Device::extractRegion), each with
 * its own CompileOptions (so per-shard routing strategy and SABRE
 * tuning can differ). planShardAssignments() scores every
 * (circuit, shard) candidate by predicted fidelity and by the
 * Schedule IR's depth / critical-path duration, then assigns circuits
 * with a load-balancing policy; compileBatchSharded() executes the
 * plan, fanning the batch's circuits over a ThreadPool with one
 * shared ProfileCache (profile keys are device-independent, so
 * sharing across shards is sound and maximizes BFGS reuse).
 *
 * Determinism: planning is pure arithmetic over calibration data and
 * schedules, and per-circuit compiles inherit the seeded-multistart
 * guarantee, so a sharded batch is bit-identical to compiling each
 * circuit alone on its assigned shard's device.
 */

#include <string>
#include <vector>

#include "compiler/pipeline.h"

namespace qiset {

/** One compile target of a fleet: a device plus per-shard options. */
struct Shard
{
    std::string name;
    Device device;
    CompileOptions options;
};

/** The set of compile shards a sharded batch spreads over. */
class DeviceFleet
{
  public:
    /**
     * @param default_options Options shards get when addDevice /
     *        addRegions are called without explicit ones.
     */
    explicit DeviceFleet(CompileOptions default_options = CompileOptions())
        : defaults_(std::move(default_options))
    {
    }

    /**
     * Add a whole device as one shard (name defaults to the device's).
     * @return the new shard's index.
     */
    size_t addDevice(Device device, std::string name = "");
    size_t addDevice(Device device, CompileOptions options,
                     std::string name = "");

    /**
     * Carve `num_regions` disjoint connected regions out of one large
     * device (balanced partition of its topology) and add each as a
     * shard named "<device>/r<k>".
     * @return the index of the first added region shard.
     */
    size_t addRegions(const Device& device, int num_regions);
    size_t addRegions(const Device& device, int num_regions,
                      CompileOptions options);

    size_t size() const { return shards_.size(); }
    const Shard& shard(size_t i) const { return shards_.at(i); }
    const std::vector<Shard>& shards() const { return shards_; }
    const CompileOptions& defaultOptions() const { return defaults_; }

  private:
    CompileOptions defaults_;
    std::vector<Shard> shards_;
};

/** Shard-planner knobs. */
struct ShardPlannerOptions
{
    /** Weight of the normalized queue-load penalty. */
    double load_weight = 1.0;
};

/** One circuit's planned placement. */
struct ShardAssignment
{
    /** Index into the fleet of the chosen shard. */
    int shard = -1;
    /** Product-model fidelity estimate on that shard. */
    double predicted_fidelity = 0.0;
    /** Schedule-derived compile/queue cost estimate on that shard. */
    double predicted_duration_ns = 0.0;
};

/** Output of the shard planner. */
struct ShardPlan
{
    /** Per-circuit placements, aligned with the workload. */
    std::vector<ShardAssignment> assignments;
    /** Circuit indices queued per shard, in assignment order. */
    std::vector<std::vector<size_t>> queues;
    /** Predicted accumulated load per shard, in ns. */
    std::vector<double> queue_ns;
};

/**
 * Score every (circuit, shard) candidate and assign each circuit to
 * one shard. Candidate scoring is cheap by construction: one Schedule
 * build per circuit (depth / critical path), plus per-shard
 * calibration aggregates (mean edge fidelity under the gate set,
 * mean coupling distance as a routing-overhead proxy). Circuits are
 * ranked by predicted duration (longest first), then each goes to the
 * shard maximizing predicted fidelity minus a queue-depth penalty
 * proportional to the shard's accumulated load. Deterministic;
 * throws FatalError when a circuit fits no shard or the fleet is
 * empty.
 *
 * `initial_queue_ns` seeds the per-shard predicted load (one value
 * per shard, or empty for an idle fleet): the CompileService re-plans
 * every arriving request against its live backlog this way, so the
 * planner steers new work away from busy shards. The returned
 * plan's queue_ns is cumulative (initial load plus this workload).
 */
ShardPlan planShardAssignments(const std::vector<Circuit>& apps,
                               const DeviceFleet& fleet,
                               const GateSet& gate_set,
                               const ShardPlannerOptions& planner =
                                   ShardPlannerOptions(),
                               const std::vector<double>&
                                   initial_queue_ns = {});

/**
 * True when two NuOp option sets produce interchangeable cached
 * profiles (including the inner BFGS knobs, which shape the optimized
 * parameters even though profile keys omit them). Everything sharing
 * one ProfileCache — the shards of a fleet, the requests of a
 * CompileService — must agree under this predicate.
 */
bool sameNuOpOptions(const NuOpOptions& a, const NuOpOptions& b);

/**
 * Check that a fleet can serve compiles from one shared ProfileCache:
 * it has at least one shard, every shard agrees under
 * sameNuOpOptions, and every shard names a registered decomposition
 * engine. Raises FatalError otherwise. The CompileService constructor
 * and compileBatchSharded both call it, so unknown engines and
 * mismatched optimizer settings fail before any circuit compiles.
 */
void validateFleet(const DeviceFleet& fleet);

/** A sharded batch's results plus its plan and per-shard telemetry. */
struct ShardedBatchResult
{
    /** Aligned with the input workload. */
    std::vector<CompileResult> results;
    ShardPlan plan;
    /**
     * One roll-up record per shard ("shard:<name>"): wall_ms is the
     * summed compile time of the shard's queue; counters report
     * assigned circuits, predicted queue_ns, swaps and the mean
     * estimated/predicted fidelities.
     */
    std::vector<PassMetric> shard_metrics;
    /** Per-shard per-pass totals (accumulatePassMetrics roll-up). */
    std::vector<std::vector<PassMetric>> shard_pass_rollups;
};

/**
 * Plan and execute a sharded batch: circuits are assigned to shards
 * by planShardAssignments(), then each compiles through
 * runCompilePipeline on its shard's device with the shard's options,
 * dispatched like compileBatch (fanned over `pool` when it can
 * parallelize the batch, in order otherwise). The fleet must pass
 * validateFleet() — the shared cache's profiles are keyed by
 * (unitary, gate type) only, so mixing optimizer settings across
 * shards would let one shard's profiles answer another's lookups.
 * Results are bit-identical to compileCircuit() on the assigned
 * shard's device with the shard's options. Raises FatalError when the
 * fleet fails validation or a circuit fits no shard, and rethrows the
 * first compile error.
 */
ShardedBatchResult
compileBatchSharded(const std::vector<Circuit>& apps,
                    const DeviceFleet& fleet, const GateSet& gate_set,
                    ProfileCache& cache,
                    const ShardPlannerOptions& planner =
                        ShardPlannerOptions(),
                    ThreadPool* pool = nullptr);

} // namespace qiset

#endif // QISET_COMPILER_SHARD_H

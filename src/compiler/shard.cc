#include "compiler/shard.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <queue>

#include "common/error.h"
#include "compiler/mapping.h"
#include "metrics/metrics.h"
#include "nuop/decomposition_strategy.h"

namespace qiset {

// ---------------------------------------------------------- DeviceFleet

size_t
DeviceFleet::addDevice(Device device, std::string name)
{
    return addDevice(std::move(device), defaults_, std::move(name));
}

size_t
DeviceFleet::addDevice(Device device, CompileOptions options,
                       std::string name)
{
    std::string shard_name = name.empty() ? device.name() : std::move(name);
    shards_.push_back(Shard{std::move(shard_name), std::move(device),
                            std::move(options)});
    return shards_.size() - 1;
}

size_t
DeviceFleet::addRegions(const Device& device, int num_regions)
{
    return addRegions(device, num_regions, defaults_);
}

size_t
DeviceFleet::addRegions(const Device& device, int num_regions,
                        CompileOptions options)
{
    std::vector<std::vector<int>> regions =
        device.topology().balancedPartitions(num_regions);
    size_t first = shards_.size();
    for (size_t r = 0; r < regions.size(); ++r) {
        std::string name =
            device.name() + "/r" + std::to_string(r);
        addDevice(device.extractRegion(regions[r], name), options, name);
    }
    return first;
}

// -------------------------------------------------------------- planner

namespace {

/** Per-shard calibration aggregates, computed once per plan. */
struct ShardAggregates
{
    int capacity = 0;
    int num_edges = 0;
    /** Mean best-available edge fidelity under the gate set. */
    double mean_edge_fid = 1.0;
    double avg_1q_error = 0.0;
    /** Mean pairwise coupling distance (routing-overhead proxy). */
    double mean_distance = 0.0;
};

/** Per-circuit workload features, computed once per plan. */
struct CircuitFeatures
{
    int qubits = 0;
    int two_q = 0;
    int one_q = 0;
    ScheduleSummary schedule;
};

double
meanPairwiseDistance(const Topology& topo)
{
    int n = topo.numQubits();
    if (n < 2)
        return 0.0;
    long long total = 0;
    long long pairs = 0;
    // Chiplet couplings are disconnected across cores by design;
    // traversing teleport links as unit edges keeps the proxy finite
    // there instead of charging every cross-core pair the worst-case
    // distance n. Topologies without links are unaffected.
    const auto& links = topo.teleportEdges();
    for (int source = 0; source < n; ++source) {
        std::vector<int> dist(n, -1);
        std::queue<int> frontier;
        frontier.push(source);
        dist[source] = 0;
        while (!frontier.empty()) {
            int u = frontier.front();
            frontier.pop();
            for (int v : topo.neighbors(u))
                if (dist[v] < 0) {
                    dist[v] = dist[u] + 1;
                    frontier.push(v);
                }
            for (const TeleportEdge& link : links) {
                int v = link.comm_a == u
                            ? link.comm_b
                            : (link.comm_b == u ? link.comm_a : -1);
                if (v >= 0 && dist[v] < 0) {
                    dist[v] = dist[u] + 1;
                    frontier.push(v);
                }
            }
        }
        for (int target = source + 1; target < n; ++target) {
            // Unreachable pairs get the worst-case distance so
            // fragmented shards rank below connected ones.
            total += dist[target] > 0 ? dist[target] : n;
            ++pairs;
        }
    }
    return static_cast<double>(total) / static_cast<double>(pairs);
}

ShardAggregates
aggregatesFor(const Shard& shard, const GateSet& gate_set)
{
    const Device& device = shard.device;
    ShardAggregates agg;
    agg.capacity = device.numQubits();
    agg.num_edges = device.topology().numEdges();
    // The set's type ids, resolved once per shard; edges are read by id.
    std::vector<int> types = fidelityTypeIds(device, gate_set);
    double sum = 0.0;
    for (int edge = 0; edge < agg.num_edges; ++edge)
        sum += bestEdgeFidelity(device, edge, types);
    agg.mean_edge_fid = agg.num_edges == 0 ? 1.0 : sum / agg.num_edges;
    agg.avg_1q_error = device.averageOneQubitError();
    agg.mean_distance = meanPairwiseDistance(device.topology());
    return agg;
}

/** One (circuit, shard) candidate's predicted cost/quality. */
struct Candidate
{
    bool feasible = false;
    double fidelity = 0.0;
    double duration_ns = 0.0;
};

Candidate
scoreCandidate(const CircuitFeatures& circuit, const ShardAggregates& agg,
               const Device& device)
{
    Candidate candidate;
    if (circuit.qubits > agg.capacity)
        return candidate;
    if (circuit.two_q > 0 && agg.num_edges == 0)
        return candidate;
    candidate.feasible = true;

    // Routing-overhead proxy: half the excess mean coupling distance
    // in SWAPs per 2Q gate, each SWAP ~3 native 2Q gates.
    double est_swaps = circuit.two_q * 0.5 *
                       std::max(0.0, agg.mean_distance - 1.0);
    double est_native_2q = circuit.two_q + 3.0 * est_swaps;
    candidate.fidelity =
        std::pow(agg.mean_edge_fid, est_native_2q) *
        std::pow(1.0 - agg.avg_1q_error, circuit.one_q);

    // Queue cost: the schedule's critical path (or its depth at the
    // device's 2Q cadence when the logical circuit carries no
    // durations), stretched by the predicted routing overhead.
    double base_ns =
        std::max(circuit.schedule.duration_ns,
                 circuit.schedule.depth * device.twoQubitDurationNs());
    double overhead =
        circuit.two_q > 0 ? est_native_2q / circuit.two_q : 1.0;
    candidate.duration_ns = base_ns * overhead;
    return candidate;
}

} // namespace

ShardPlan
planShardAssignments(const std::vector<Circuit>& apps,
                     const DeviceFleet& fleet, const GateSet& gate_set,
                     const ShardPlannerOptions& planner,
                     const std::vector<double>& initial_queue_ns)
{
    QISET_REQUIRE(fleet.size() > 0,
                  "cannot plan a sharded batch over an empty fleet");
    QISET_REQUIRE(initial_queue_ns.empty() ||
                      initial_queue_ns.size() == fleet.size(),
                  "initial_queue_ns must carry one entry per shard (",
                  fleet.size(), "), got ", initial_queue_ns.size());

    ShardPlan plan;
    plan.assignments.resize(apps.size());
    plan.queues.resize(fleet.size());
    plan.queue_ns.resize(fleet.size(), 0.0);
    if (!initial_queue_ns.empty())
        plan.queue_ns = initial_queue_ns;
    if (apps.empty())
        return plan;

    std::vector<ShardAggregates> aggregates;
    aggregates.reserve(fleet.size());
    for (const Shard& shard : fleet.shards())
        aggregates.push_back(aggregatesFor(shard, gate_set));

    std::vector<CircuitFeatures> features(apps.size());
    for (size_t c = 0; c < apps.size(); ++c) {
        features[c].qubits = apps[c].numQubits();
        features[c].two_q = apps[c].twoQubitGateCount();
        features[c].one_q = apps[c].oneQubitGateCount();
        features[c].schedule = Schedule(apps[c]).summary();
    }

    // All (circuit, shard) candidates up front: cheap (schedule
    // summaries + calibration aggregates).
    std::vector<std::vector<Candidate>> candidates(apps.size());
    for (size_t c = 0; c < apps.size(); ++c) {
        candidates[c].reserve(fleet.size());
        for (size_t s = 0; s < fleet.size(); ++s)
            candidates[c].push_back(scoreCandidate(
                features[c], aggregates[s], fleet.shard(s).device));
    }

    // Ranked assignment, longest predicted duration first so big
    // circuits anchor the balance and small ones fill the gaps.
    std::vector<double> sort_dur(apps.size(), 0.0);
    double total_min_dur = 0.0;
    for (size_t c = 0; c < apps.size(); ++c) {
        double min_dur = std::numeric_limits<double>::max();
        bool found = false;
        for (const Candidate& candidate : candidates[c])
            if (candidate.feasible) {
                found = true;
                sort_dur[c] =
                    std::max(sort_dur[c], candidate.duration_ns);
                min_dur = std::min(min_dur, candidate.duration_ns);
            }
        QISET_REQUIRE(found, "circuit ", c, " (", features[c].qubits,
                      " qubits, ", features[c].two_q,
                      " 2Q gates) fits no shard of the fleet");
        total_min_dur += min_dur;
    }
    std::vector<size_t> order(apps.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t a, size_t b) {
                         return sort_dur[a] > sort_dur[b];
                     });

    // Normalize queue load by the ideal per-shard makespan so the
    // penalty stays commensurate with fidelity regardless of device
    // time scales.
    double scale = std::max(1.0, total_min_dur / fleet.size());
    for (size_t c : order) {
        // The first feasible shard is taken whatever its score (an
        // infinite load_weight scores every shard -inf), and a later
        // one only on a strictly higher score.
        size_t best = fleet.size();
        double best_score = 0.0;
        for (size_t s = 0; s < fleet.size(); ++s) {
            const Candidate& candidate = candidates[c][s];
            if (!candidate.feasible)
                continue;
            double load =
                (plan.queue_ns[s] + candidate.duration_ns) / scale;
            double score =
                candidate.fidelity - planner.load_weight * load;
            if (best == fleet.size() || score > best_score) {
                best_score = score;
                best = s;
            }
        }
        const Candidate& chosen = candidates[c][best];
        plan.assignments[c].shard = static_cast<int>(best);
        plan.assignments[c].predicted_fidelity = chosen.fidelity;
        plan.assignments[c].predicted_duration_ns = chosen.duration_ns;
        plan.queues[best].push_back(c);
        plan.queue_ns[best] += chosen.duration_ns;
    }
    return plan;
}

// ------------------------------------------------------------ execution

/**
 * Profiles are keyed by (unitary, gate type) only, so every shard
 * sharing one cache must run NuOp under identical optimizer settings
 * — including the inner BFGS knobs, which shape the cached LayerFit
 * params even though the ProfileCache save-file stamp omits them.
 */
bool
sameNuOpOptions(const NuOpOptions& a, const NuOpOptions& b)
{
    return a.max_layers == b.max_layers &&
           a.multistarts == b.multistarts &&
           a.exact_threshold == b.exact_threshold &&
           a.one_qubit_fidelity == b.one_qubit_fidelity &&
           a.seed == b.seed &&
           a.bfgs.max_iterations == b.bfgs.max_iterations &&
           a.bfgs.gradient_tol == b.bfgs.gradient_tol &&
           a.bfgs.value_tol == b.bfgs.value_tol &&
           a.bfgs.stop_below == b.bfgs.stop_below;
}

void
validateFleet(const DeviceFleet& fleet)
{
    QISET_REQUIRE(fleet.size() > 0,
                  "a compile fleet needs at least one shard");
    for (size_t s = 1; s < fleet.size(); ++s)
        QISET_REQUIRE(
            sameNuOpOptions(fleet.shard(0).options.nuop,
                            fleet.shard(s).options.nuop),
            "shards \"", fleet.shard(0).name, "\" and \"",
            fleet.shard(s).name,
            "\" have different NuOp settings; they cannot share one "
            "profile cache");
    // Fail fast on unknown engines (per-shard knobs are resolved
    // per-compile inside the translation pass).
    for (const Shard& shard : fleet.shards())
        makeDecompositionStrategy(shard.options.decomposition);
}

ShardedBatchResult
compileBatchSharded(const std::vector<Circuit>& apps,
                    const DeviceFleet& fleet, const GateSet& gate_set,
                    ProfileCache& cache,
                    const ShardPlannerOptions& planner, ThreadPool* pool)
{
    validateFleet(fleet);
    ShardedBatchResult out;
    out.plan = planShardAssignments(apps, fleet, gate_set, planner);
    out.results.resize(apps.size());
    forEachCircuit(apps.size(), pool, [&](size_t i) {
        const Shard& shard = fleet.shard(
            static_cast<size_t>(out.plan.assignments[i].shard));
        out.results[i] = runCompilePipeline(apps[i], shard.device,
                                            gate_set, cache,
                                            shard.options, pool);
    });

    out.shard_pass_rollups.resize(fleet.size());
    for (size_t s = 0; s < fleet.size(); ++s) {
        PassMetric metric{"shard:" + fleet.shard(s).name, 0.0, {}};
        double estimated_sum = 0.0;
        double predicted_sum = 0.0;
        int swaps = 0;
        int teleports = 0;
        double epr_attempts = 0.0;
        for (size_t i : out.plan.queues[s]) {
            metric.wall_ms += totalWallMs(out.results[i].pass_metrics);
            estimated_sum += out.results[i].estimated_fidelity;
            predicted_sum += out.plan.assignments[i].predicted_fidelity;
            swaps += out.results[i].swaps_inserted;
            teleports += out.results[i].teleports_inserted;
            epr_attempts += out.results[i].epr_attempts;
            accumulatePassMetrics(out.shard_pass_rollups[s],
                                  out.results[i].pass_metrics);
        }
        size_t assigned = out.plan.queues[s].size();
        metric.counters["assigned"] = static_cast<double>(assigned);
        metric.counters["queue_ns"] = out.plan.queue_ns[s];
        metric.counters["swaps_inserted"] = swaps;
        metric.counters["teleports_inserted"] = teleports;
        metric.counters["epr_attempts"] = epr_attempts;
        if (assigned > 0) {
            metric.counters["mean_estimated_fidelity"] =
                estimated_sum / assigned;
            metric.counters["mean_predicted_fidelity"] =
                predicted_sum / assigned;
        }
        out.shard_metrics.push_back(std::move(metric));
    }
    return out;
}

} // namespace qiset

// Sharded batch compilation tests: balanced region carving, region
// extraction correctness, planner determinism and load balance, and
// bit-identity of sharded results with single-device compiles.

#include <limits>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/qaoa.h"
#include "apps/qft.h"
#include "compiler/shard.h"

namespace qiset {
namespace {

CompileOptions
fastCompile()
{
    CompileOptions opts;
    opts.nuop.max_layers = 4;
    opts.nuop.multistarts = 3;
    opts.nuop.exact_threshold = 1.0 - 1e-6;
    return opts;
}

Device
lineDevice(const std::string& name, int n, double fid)
{
    Device d(name, Topology::line(n));
    for (auto [a, b] : d.topology().edges()) {
        d.setEdgeFidelity(a, b, "S3", fid);
        d.setEdgeFidelity(a, b, "S4", fid - 0.005);
    }
    for (int q = 0; q < n; ++q)
        d.setOneQubitError(q, 0.0005);
    return d;
}

std::vector<Circuit>
makeWorkload(int circuits, int qubits)
{
    std::vector<Circuit> apps;
    Rng rng(401);
    for (int i = 0; i < circuits; ++i)
        apps.push_back(i % 2 == 0 ? makeQftCircuit(qubits)
                                  : makeRandomQaoaCircuit(qubits, rng));
    return apps;
}

void
expectIdentical(const CompileResult& a, const CompileResult& b)
{
    EXPECT_EQ(a.physical, b.physical);
    EXPECT_EQ(a.initial_positions, b.initial_positions);
    EXPECT_EQ(a.final_positions, b.final_positions);
    EXPECT_EQ(a.swaps_inserted, b.swaps_inserted);
    EXPECT_EQ(a.two_qubit_count, b.two_qubit_count);
    EXPECT_EQ(a.type_usage, b.type_usage);
    EXPECT_DOUBLE_EQ(a.estimated_fidelity, b.estimated_fidelity);
    ASSERT_EQ(a.circuit.size(), b.circuit.size());
    for (size_t i = 0; i < a.circuit.size(); ++i) {
        ConstOpRef x = a.circuit.ops()[i];
        ConstOpRef y = b.circuit.ops()[i];
        EXPECT_EQ(x.qubits(), y.qubits());
        EXPECT_EQ(x.labelId(), y.labelId());
        EXPECT_DOUBLE_EQ(x.errorRate(), y.errorRate());
        EXPECT_EQ(x.unitary().maxAbsDiff(y.unitary()), 0.0);
    }
}

// ------------------------------------------------- region primitives

TEST(BalancedPartitions, DisjointConnectedAndCovering)
{
    Topology grid = Topology::grid(4, 4);
    for (int count : {1, 2, 3, 4}) {
        SCOPED_TRACE("count " + std::to_string(count));
        auto regions = grid.balancedPartitions(count);
        ASSERT_EQ(regions.size(), static_cast<size_t>(count));
        std::set<int> seen;
        for (const auto& region : regions) {
            EXPECT_FALSE(region.empty());
            EXPECT_TRUE(
                grid.inducedSubgraph(region).connected());
            for (int q : region) {
                EXPECT_TRUE(seen.insert(q).second)
                    << "qubit " << q << " in two regions";
            }
        }
        EXPECT_EQ(seen.size(), 16u) << "partition must cover the device";
        // Roughly equal: no region more than twice another.
        size_t smallest = regions.front().size();
        size_t largest = regions.front().size();
        for (const auto& region : regions) {
            smallest = std::min(smallest, region.size());
            largest = std::max(largest, region.size());
        }
        EXPECT_LE(largest, 2 * smallest);
    }
}

TEST(BalancedPartitions, DeterministicAcrossCalls)
{
    Topology grid = Topology::grid(3, 5);
    EXPECT_EQ(grid.balancedPartitions(3), grid.balancedPartitions(3));
}

TEST(BalancedPartitions, RejectsBadCountAndDisconnected)
{
    Topology line = Topology::line(4);
    EXPECT_ANY_THROW(line.balancedPartitions(0));
    EXPECT_ANY_THROW(line.balancedPartitions(5));
    Topology disconnected(4);
    disconnected.addEdge(0, 1);
    disconnected.addEdge(2, 3);
    EXPECT_ANY_THROW(disconnected.balancedPartitions(2));
}

TEST(ExtractRegion, PreservesCalibrationAndRelabels)
{
    Device d("parent", Topology::grid(2, 3));
    int edge_index = 0;
    for (auto [a, b] : d.topology().edges())
        d.setEdgeFidelity(a, b, "S3", 0.99 - 0.001 * edge_index++);
    for (int q = 0; q < 6; ++q) {
        d.setOneQubitError(q, 0.0001 * (q + 1));
        QubitNoise noise;
        noise.t1_ns = 1000.0 * (q + 1);
        d.setQubitNoise(q, noise);
    }
    d.setTwoQubitDuration(42.0);
    d.setOneQubitDuration(21.0);

    // Right 2x2 block of the 2x3 grid: qubits 1, 2, 4, 5.
    std::vector<int> qubits = {1, 2, 4, 5};
    Device region = d.extractRegion(qubits, "parent/right");

    EXPECT_EQ(region.name(), "parent/right");
    EXPECT_EQ(region.numQubits(), 4);
    EXPECT_EQ(region.topology().numEdges(), 4);
    EXPECT_EQ(region.twoQubitDurationNs(), 42.0);
    EXPECT_EQ(region.oneQubitDurationNs(), 21.0);
    for (size_t i = 0; i < qubits.size(); ++i) {
        EXPECT_EQ(region.oneQubitError(static_cast<int>(i)),
                  d.oneQubitError(qubits[i]));
        EXPECT_EQ(region.qubitNoise(static_cast<int>(i)).t1_ns,
                  d.qubitNoise(qubits[i]).t1_ns);
    }
    for (size_t i = 0; i < qubits.size(); ++i)
        for (size_t j = i + 1; j < qubits.size(); ++j)
            EXPECT_EQ(region.edgeFidelity(static_cast<int>(i),
                                          static_cast<int>(j), "S3"),
                      d.edgeFidelity(qubits[i], qubits[j], "S3"));

    EXPECT_ANY_THROW(d.extractRegion({}));
    EXPECT_ANY_THROW(d.extractRegion({0, 0}));
    EXPECT_ANY_THROW(d.extractRegion({0, 99}));
}

// --------------------------------------------------------- planning

TEST(ShardPlan, DeterministicUnderFixedSeeds)
{
    GateSet set = isa::rigettiSet(1);
    CompileOptions opts = fastCompile();
    std::vector<Circuit> apps = makeWorkload(8, 3);

    auto makeFleet = [&] {
        DeviceFleet fleet(opts);
        fleet.addDevice(lineDevice("alpha", 4, 0.995));
        fleet.addDevice(lineDevice("beta", 4, 0.990));
        return fleet;
    };
    DeviceFleet fleet_a = makeFleet();
    DeviceFleet fleet_b = makeFleet();

    ShardPlan plan_a = planShardAssignments(apps, fleet_a, set);
    ShardPlan plan_b = planShardAssignments(apps, fleet_b, set);
    ASSERT_EQ(plan_a.assignments.size(), plan_b.assignments.size());
    for (size_t i = 0; i < plan_a.assignments.size(); ++i) {
        EXPECT_EQ(plan_a.assignments[i].shard,
                  plan_b.assignments[i].shard);
        EXPECT_DOUBLE_EQ(plan_a.assignments[i].predicted_fidelity,
                         plan_b.assignments[i].predicted_fidelity);
    }
    EXPECT_EQ(plan_a.queues, plan_b.queues);
}

TEST(ShardPlan, GreedyBalancesIdenticalShards)
{
    GateSet set = isa::rigettiSet(1);
    DeviceFleet fleet(fastCompile());
    fleet.addDevice(lineDevice("alpha", 4, 0.995));
    fleet.addDevice(lineDevice("beta", 4, 0.995));
    std::vector<Circuit> apps = makeWorkload(8, 3);

    ShardPlan plan = planShardAssignments(apps, fleet, set);
    ASSERT_EQ(plan.queues.size(), 2u);
    EXPECT_EQ(plan.queues[0].size() + plan.queues[1].size(), 8u);
    // Identical shards, comparable circuits: the queue-depth penalty
    // must keep the split even.
    EXPECT_GE(plan.queues[0].size(), 3u);
    EXPECT_GE(plan.queues[1].size(), 3u);
}

TEST(ShardPlan, PrefersHigherFidelityShardWhenLoadIsFree)
{
    GateSet set = isa::rigettiSet(1);
    DeviceFleet fleet(fastCompile());
    fleet.addDevice(lineDevice("worse", 4, 0.95));
    fleet.addDevice(lineDevice("better", 4, 0.999));
    std::vector<Circuit> apps = makeWorkload(6, 3);

    ShardPlannerOptions planner;
    planner.load_weight = 0.0;
    ShardPlan plan = planShardAssignments(apps, fleet, set, planner);
    for (const ShardAssignment& a : plan.assignments)
        EXPECT_EQ(a.shard, 1) << "load-free planning must chase fidelity";
}

TEST(ShardPlan, InfiniteLoadWeightStillPicksAFeasibleShard)
{
    // Every score is -inf, so none beats a finite floor; the first
    // feasible shard must still be chosen, never an infeasible one.
    GateSet set = isa::rigettiSet(1);
    DeviceFleet fleet(fastCompile());
    fleet.addDevice(lineDevice("tiny", 2, 0.995));
    fleet.addDevice(lineDevice("big", 5, 0.990));
    ShardPlannerOptions planner;
    planner.load_weight = std::numeric_limits<double>::infinity();
    ShardPlan plan =
        planShardAssignments({makeQftCircuit(4)}, fleet, set, planner);
    EXPECT_EQ(plan.assignments[0].shard, 1);
}

TEST(ShardPlan, SkipsShardsTooSmallAndThrowsWhenNoneFit)
{
    GateSet set = isa::rigettiSet(1);
    DeviceFleet fleet(fastCompile());
    fleet.addDevice(lineDevice("tiny", 2, 0.995));
    fleet.addDevice(lineDevice("big", 5, 0.990));
    std::vector<Circuit> apps = {makeQftCircuit(4)};

    ShardPlan plan = planShardAssignments(apps, fleet, set);
    EXPECT_EQ(plan.assignments[0].shard, 1);

    DeviceFleet small_fleet(fastCompile());
    small_fleet.addDevice(lineDevice("tiny", 2, 0.995));
    EXPECT_ANY_THROW(planShardAssignments(apps, small_fleet, set));
    EXPECT_ANY_THROW(
        planShardAssignments(apps, DeviceFleet(fastCompile()), set));
}

// -------------------------------------------------------- execution

TEST(CompileBatchSharded, BitIdenticalToSingleDeviceCompiles)
{
    GateSet set = isa::rigettiSet(1);
    CompileOptions opts = fastCompile();
    DeviceFleet fleet(opts);
    fleet.addDevice(lineDevice("alpha", 4, 0.995));
    fleet.addDevice(lineDevice("beta", 4, 0.990));
    std::vector<Circuit> apps = makeWorkload(8, 3);

    ProfileCache cache;
    ThreadPool pool(4);
    ShardedBatchResult sharded =
        compileBatchSharded(apps, fleet, set, cache, {}, &pool);

    ASSERT_EQ(sharded.results.size(), apps.size());
    for (size_t i = 0; i < apps.size(); ++i) {
        SCOPED_TRACE("circuit " + std::to_string(i));
        int s = sharded.plan.assignments[i].shard;
        ASSERT_GE(s, 0);
        const Shard& shard = fleet.shard(static_cast<size_t>(s));
        ProfileCache solo_cache;
        CompileResult solo = compileCircuit(apps[i], shard.device, set,
                                            solo_cache, shard.options);
        expectIdentical(solo, sharded.results[i]);
    }

    // Per-shard roll-ups line up with the plan.
    ASSERT_EQ(sharded.shard_metrics.size(), 2u);
    size_t rolled_up = 0;
    for (size_t s = 0; s < fleet.size(); ++s) {
        const PassMetric& metric = sharded.shard_metrics[s];
        EXPECT_EQ(metric.pass, "shard:" + fleet.shard(s).name);
        EXPECT_EQ(metric.counters.at("assigned"),
                  static_cast<double>(sharded.plan.queues[s].size()));
        rolled_up += static_cast<size_t>(metric.counters.at("assigned"));
        if (!sharded.plan.queues[s].empty()) {
            EXPECT_GT(metric.counters.at("mean_estimated_fidelity"), 0.0);
            EXPECT_FALSE(sharded.shard_pass_rollups[s].empty());
        }
    }
    EXPECT_EQ(rolled_up, apps.size());
}

TEST(CompileBatchSharded, SerialAndParallelAgree)
{
    GateSet set = isa::rigettiSet(1);
    DeviceFleet fleet(fastCompile());
    fleet.addDevice(lineDevice("alpha", 4, 0.995));
    fleet.addDevice(lineDevice("beta", 4, 0.990));
    std::vector<Circuit> apps = makeWorkload(6, 3);

    ProfileCache serial_cache;
    ShardedBatchResult serial =
        compileBatchSharded(apps, fleet, set, serial_cache);
    ProfileCache parallel_cache;
    ThreadPool pool(4);
    ShardedBatchResult parallel =
        compileBatchSharded(apps, fleet, set, parallel_cache, {}, &pool);

    ASSERT_EQ(serial.results.size(), parallel.results.size());
    for (size_t i = 0; i < serial.results.size(); ++i) {
        SCOPED_TRACE("circuit " + std::to_string(i));
        EXPECT_EQ(serial.plan.assignments[i].shard,
                  parallel.plan.assignments[i].shard);
        expectIdentical(serial.results[i], parallel.results[i]);
    }
}

TEST(CompileBatchSharded, RegionCarvedFleetMatchesExtractedDevices)
{
    GateSet set = isa::rigettiSet(1);
    CompileOptions opts = fastCompile();

    Device big = lineDevice("big", 8, 0.995);
    DeviceFleet fleet(opts);
    fleet.addRegions(big, 2);
    ASSERT_EQ(fleet.size(), 2u);
    EXPECT_EQ(fleet.shard(0).device.numQubits(), 4);
    EXPECT_EQ(fleet.shard(1).device.numQubits(), 4);

    std::vector<Circuit> apps = makeWorkload(6, 3);
    ProfileCache cache;
    ThreadPool pool(4);
    ShardedBatchResult sharded =
        compileBatchSharded(apps, fleet, set, cache, {}, &pool);
    for (size_t i = 0; i < apps.size(); ++i) {
        SCOPED_TRACE("circuit " + std::to_string(i));
        const Shard& shard = fleet.shard(
            static_cast<size_t>(sharded.plan.assignments[i].shard));
        ProfileCache solo_cache;
        CompileResult solo = compileCircuit(apps[i], shard.device, set,
                                            solo_cache, shard.options);
        expectIdentical(solo, sharded.results[i]);
    }
}

TEST(CompileBatchSharded, RejectsMismatchedNuOpSettings)
{
    GateSet set = isa::rigettiSet(1);
    CompileOptions opts_a = fastCompile();
    CompileOptions opts_b = fastCompile();
    opts_b.nuop.seed = 99;

    DeviceFleet fleet;
    fleet.addDevice(lineDevice("alpha", 4, 0.995), opts_a);
    fleet.addDevice(lineDevice("beta", 4, 0.990), opts_b);
    std::vector<Circuit> apps = makeWorkload(2, 3);
    ProfileCache cache;
    EXPECT_ANY_THROW(compileBatchSharded(apps, fleet, set, cache));

    // The inner BFGS knobs shape cached profiles too, so a
    // bfgs-only divergence must also be rejected.
    CompileOptions opts_c = fastCompile();
    opts_c.nuop.bfgs.max_iterations = 10;
    DeviceFleet bfgs_fleet;
    bfgs_fleet.addDevice(lineDevice("alpha", 4, 0.995), opts_a);
    bfgs_fleet.addDevice(lineDevice("beta", 4, 0.990), opts_c);
    EXPECT_ANY_THROW(compileBatchSharded(apps, bfgs_fleet, set, cache));
}

// ------------------------------------- per-shard routing / SabreOptions

TEST(CompileOptionsSabre, RefinementRoundsControlStartLayout)
{
    GateSet set = isa::rigettiSet(1);
    Device d = lineDevice("line6", 6, 0.995);
    std::vector<int> identity = {0, 1, 2, 3, 4, 5};

    CompileOptions no_refine = fastCompile();
    no_refine.routing = "sabre";
    no_refine.sabre.refinement_rounds = 0;
    ProfileCache cache_a;
    CompileResult plain = compileCircuit(makeQftCircuit(6), d, set,
                                         cache_a, no_refine);
    EXPECT_EQ(plain.initial_positions, identity)
        << "refinement_rounds=0 must keep the identity start layout";

    // The knob must actually reach the router: neutering the lookahead
    // and refinement changes the SWAP sequence on a long-range QFT.
    CompileOptions neutered = no_refine;
    neutered.sabre.extended_set_size = 0;
    neutered.sabre.extended_set_weight = 0.0;
    CompileOptions tuned = fastCompile();
    tuned.routing = "sabre";
    ProfileCache cache_b;
    ProfileCache cache_c;
    CompileResult weak = compileCircuit(makeQftCircuit(6), d, set,
                                        cache_b, neutered);
    CompileResult strong = compileCircuit(makeQftCircuit(6), d, set,
                                          cache_c, tuned);
    bool routed_differently =
        weak.swaps_inserted != strong.swaps_inserted ||
        weak.initial_positions != strong.initial_positions;
    EXPECT_TRUE(routed_differently)
        << "SabreOptions in CompileOptions must reach the router";
}

} // namespace
} // namespace qiset

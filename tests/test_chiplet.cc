// Chiplet subsystem tests: grid-of-grids device construction, core /
// teleport-link metadata, the TeleportRouter's bit-identity with SABRE
// on single-core devices, unknown router and engine names on every
// device kind, capacity-aware placement and shard planning, service
// plumbing, and the teleport trace events' conformance to
// scripts/trace_lint.py.

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/qaoa.h"
#include "apps/qft.h"
#include "apps/qv.h"
#include "common/error.h"
#include "compiler/mapping.h"
#include "compiler/pass_manager.h"
#include "compiler/passes.h"
#include "compiler/pipeline.h"
#include "compiler/routing_strategy.h"
#include "compiler/service.h"
#include "compiler/shard.h"
#include "device/device.h"
#include "isa/gate_set.h"
#include "metrics/trace_export.h"
#include "qc/gates.h"

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

Device
chiplet2x2(uint64_t seed = 77)
{
    Rng rng(seed);
    ChipletSpec spec;
    spec.core_rows = 2;
    spec.core_cols = 2;
    spec.rows = 2;
    spec.cols = 3;
    return makeChipletDevice(spec, rng);
}

void
expectIdenticalRouted(const RoutedCircuit& a, const RoutedCircuit& b)
{
    EXPECT_EQ(a.initial_positions, b.initial_positions);
    EXPECT_EQ(a.final_positions, b.final_positions);
    EXPECT_EQ(a.swaps_inserted, b.swaps_inserted);
    EXPECT_EQ(a.teleports_inserted, b.teleports_inserted);
    ASSERT_EQ(a.circuit.size(), b.circuit.size());
    for (size_t i = 0; i < a.circuit.size(); ++i) {
        ConstOpRef x = a.circuit.ops()[i];
        ConstOpRef y = b.circuit.ops()[i];
        EXPECT_EQ(x.qubits(), y.qubits());
        EXPECT_EQ(x.labelId(), y.labelId());
        EXPECT_EQ(x.unitary().maxAbsDiff(y.unitary()), 0.0);
    }
}

// ------------------------------------------------ device construction

TEST(GridOfGrids, ConstructionAndCoreMetadata)
{
    Topology topo = Topology::gridOfGrids(2, 3, 2, 2);
    EXPECT_EQ(topo.numQubits(), 24);
    ASSERT_EQ(topo.numCores(), 6);
    EXPECT_TRUE(topo.hasCores());

    // Full partition into 2x2 cores, ids laid out core-major.
    for (int c = 0; c < 6; ++c) {
        const Core& core = topo.core(c);
        EXPECT_EQ(core.capacity(), 4);
        for (int q : core.qubits)
            EXPECT_EQ(topo.coreOf(q), c);
        EXPECT_FALSE(core.comm_qubits.empty());
    }

    // 2x3 core grid: 2*2 horizontal + 1*3 vertical links.
    EXPECT_EQ(topo.teleportEdges().size(), 7u);
    for (const TeleportEdge& edge : topo.teleportEdges()) {
        EXPECT_EQ(topo.coreOf(edge.comm_a), edge.core_a);
        EXPECT_EQ(topo.coreOf(edge.comm_b), edge.core_b);
        // Comm endpoints are never coupled: crossing needs the link.
        EXPECT_FALSE(topo.adjacent(edge.comm_a, edge.comm_b));
    }

    // The coupling graph is disconnected across cores by design, yet
    // the device is connected once teleport links count.
    EXPECT_FALSE(topo.connected());
    EXPECT_TRUE(topo.connectedWithTeleport());
}

TEST(GridOfGrids, DistanceMatrices)
{
    Topology topo = Topology::gridOfGrids(2, 3, 2, 2);
    // Core BFS distance over the 2x3 core grid.
    EXPECT_EQ(topo.coreDistance(0, 0), 0);
    EXPECT_EQ(topo.coreDistance(0, 1), 1);
    EXPECT_EQ(topo.coreDistance(0, 5), 3); // (0,0) -> (1,2)
    EXPECT_EQ(topo.coreDistance(3, 2), 3); // (1,0) -> (0,2)

    // Intra-core distances stay inside the core...
    const Core& core = topo.core(0);
    EXPECT_EQ(topo.intraCoreDistance(core.qubits[0], core.qubits[0]), 0);
    EXPECT_GT(topo.intraCoreDistance(core.qubits[0], core.qubits[3]), 0);
    // ...and cross-core pairs are unreachable without a link.
    EXPECT_EQ(
        topo.intraCoreDistance(core.qubits[0], topo.core(1).qubits[0]),
        -1);
}

TEST(ChipletDevice, CalibratedLikeAMonolithicDevice)
{
    Device d = chiplet2x2();
    EXPECT_EQ(d.numQubits(), 24);
    EXPECT_EQ(d.topology().numCores(), 4);
    for (auto [a, b] : d.topology().edges()) {
        double fid = d.edgeFidelity(a, b, "S3");
        EXPECT_GT(fid, 0.9);
        EXPECT_LT(fid, 1.0);
    }
}

// ------------------------------------------------- router bit-identity

TEST(TeleportRouter, BitIdenticalToSabreOnSingleCoreDevices)
{
    struct Case
    {
        Circuit circuit;
        Topology coupling;
    };
    Rng rng(11);
    std::vector<Case> cases;
    cases.push_back({makeQftCircuit(8), Topology::line(8)});
    cases.push_back({makeQftCircuit(9), Topology::grid(3, 3)});
    cases.push_back(
        {makeQuantumVolumeCircuit(12, rng), Topology::grid(3, 4)});

    for (size_t i = 0; i < cases.size(); ++i) {
        SCOPED_TRACE("case " + std::to_string(i));
        Schedule schedule(cases[i].circuit);
        RoutedCircuit sabre = SabreRouter().route(
            cases[i].circuit, cases[i].coupling, schedule);
        RoutedCircuit tele = TeleportRouter().route(
            cases[i].circuit, cases[i].coupling, schedule);
        expectIdenticalRouted(sabre, tele);
        EXPECT_EQ(tele.teleports_inserted, 0);
        EXPECT_EQ(tele.epr_attempts, 0.0);
    }
}

TEST(TeleportRouter, SwapsAndLinkCrossingsShareOneSwapEntry)
{
    Device d = chiplet2x2();
    Circuit qft = makeQftCircuit(10);
    std::vector<int> physical =
        chooseMapping(d, qft.numQubits(), isa::singleTypeSet(3));
    Topology coupling = d.topology().inducedSubgraph(physical);
    ASSERT_GT(coupling.numCores(), 1);
    for (bool use_teleport : {true, false}) {
        SCOPED_TRACE(use_teleport ? "teleport" : "teleswap");
        TeleportOptions teleport;
        teleport.use_teleport = use_teleport;
        RoutedCircuit routed =
            TeleportRouter(SabreOptions(), teleport).route(qft, coupling);
        const Circuit& c = routed.circuit;
        std::vector<size_t> moves;
        for (size_t i = 0; i < c.size(); ++i) {
            const std::string& label = c.ops()[i].label();
            if (label == "SWAP" || label == "TELEPORT" ||
                label == "TELESWAP")
                moves.push_back(i);
        }
        ASSERT_FALSE(moves.empty());
        EXPECT_GT(use_teleport ? c.countLabel("TELEPORT")
                               : c.countLabel("TELESWAP"),
                  0);
        for (size_t i : moves)
            EXPECT_EQ(c.opUnitaryId(i), c.opUnitaryId(moves[0]));
        EXPECT_EQ(c.opUnitary(moves[0]).maxAbsDiff(gates::swap()), 0.0);
        EXPECT_EQ(c.unitaryTableSize(), qft.size() + 1);
    }
}

TEST(TeleportRouter, MadeByNameAsTelesabre)
{
    auto names = routingStrategyNames();
    EXPECT_NE(std::find(names.begin(), names.end(), "telesabre"),
              names.end());
    EXPECT_EQ(makeRoutingStrategy("telesabre")->name(), "telesabre");
}

TEST(TeleportRouter, CountsStuckFallbackMoves)
{
    // QFT-14 on a drifted 3x3 chiplet cycles through link moves until
    // the stuck fallback forces progress (pinned in test_ir_identity,
    // on the same snapshot: drift seed 3, snapshot 0).
    Rng dev_rng(10);
    ChipletSpec spec;
    spec.core_rows = 3;
    spec.core_cols = 3;
    Device chiplet = makeChipletDevice(spec, dev_rng);
    Rng drift_rng(3);
    Device snapshot = chiplet.withDriftedCalibration(drift_rng, 3.0);
    Circuit qft14 = makeQftCircuit(14);
    GateSet g3 = isa::googleSet(3);
    Topology coupling = snapshot.topology().inducedSubgraph(
        chooseMapping(snapshot, qft14.numQubits(), g3));
    RoutedCircuit routed = TeleportRouter().route(qft14, coupling);
    EXPECT_GT(routed.fallback_moves, 0);

    // The routing pass reports the count as its counter.
    ProfileCache cache;
    CompilationContext ctx(qft14, snapshot, g3, fastCompile(), cache);
    PassManager manager;
    manager.append(makeMappingPass());
    manager.append(makeRoutingPass("telesabre"));
    manager.run(ctx);
    const PassMetric& row = ctx.pass_metrics.back();
    ASSERT_EQ(row.pass, "routing");
    EXPECT_EQ(row.counters.at("fallback_moves"), routed.fallback_moves);

    // A route that never stalls reports none, and the pass then
    // reports no counter.
    RoutedCircuit sabre =
        SabreRouter().route(makeQftCircuit(16), Topology::grid(4, 4));
    EXPECT_EQ(sabre.fallback_moves, 0);
    Circuit qft4 = makeQftCircuit(4);
    Device line = lineDevice("line", 6, 0.99);
    CompilationContext line_ctx(qft4, line, isa::singleTypeSet(3),
                                fastCompile(), cache);
    manager.run(line_ctx);
    EXPECT_EQ(line_ctx.pass_metrics.back().counters.count("fallback_moves"),
              0u);
}

// ----------------------------------------------- capacity-aware layout

TEST(ChipletMapping, NarrowCircuitStaysInsideOneCore)
{
    Device d = chiplet2x2();
    std::vector<int> physical =
        chooseMapping(d, 4, isa::singleTypeSet(3));
    ASSERT_EQ(physical.size(), 4u);
    int core = d.topology().coreOf(physical[0]);
    for (int q : physical)
        EXPECT_EQ(d.topology().coreOf(q), core);
}

TEST(ChipletMapping, WideCircuitSpansCoresThroughCommQubits)
{
    Device d = chiplet2x2();
    const Topology& topo = d.topology();
    std::vector<int> physical =
        chooseMapping(d, 10, isa::singleTypeSet(3));
    ASSERT_EQ(physical.size(), 10u);
    std::set<int> unique(physical.begin(), physical.end());
    EXPECT_EQ(unique.size(), 10u);

    std::set<int> cores;
    for (int q : physical)
        cores.insert(topo.coreOf(q));
    EXPECT_GE(cores.size(), 2u); // wider than one 6-qubit core

    // Every selected core holds at least one comm qubit, so the
    // routed circuit can actually reach the rest of the selection.
    for (int c : cores) {
        const std::vector<int>& comm = topo.core(c).comm_qubits;
        bool has_comm = false;
        for (int q : physical)
            if (std::find(comm.begin(), comm.end(), q) != comm.end())
                has_comm = true;
        EXPECT_TRUE(has_comm) << "core " << c << " has no comm qubit";
    }
}

TEST(ChipletPlanner, WideCircuitsAdmitOnlyToChipletShards)
{
    DeviceFleet fleet(fastCompile());
    size_t mono = fleet.addDevice(lineDevice("mono", 6, 0.995));
    size_t chip = fleet.addDevice(chiplet2x2());

    GateSet set = isa::singleTypeSet(3);
    std::vector<Circuit> apps;
    apps.push_back(makeQftCircuit(10)); // wider than the 6-qubit line
    apps.push_back(makeQftCircuit(4));  // fits anywhere

    ShardPlan plan = planShardAssignments(apps, fleet, set);
    EXPECT_EQ(plan.assignments[0].shard, static_cast<int>(chip));
    EXPECT_GE(plan.assignments[1].shard, 0);
    (void)mono;

    // Nothing fits: wider than the whole chiplet device.
    std::vector<Circuit> too_wide;
    too_wide.push_back(makeQftCircuit(25));
    EXPECT_ANY_THROW(planShardAssignments(too_wide, fleet, set));
}

// ------------------------------------------------- end-to-end compile

TEST(ChipletPipeline, TeleportsCrossCoresAndPreserveTheRegister)
{
    Device d = chiplet2x2();
    const Topology& topo = d.topology();
    GateSet set = isa::singleTypeSet(3);
    ProfileCache cache;
    CompileOptions options = fastCompile();
    options.routing = "telesabre";

    CompileResult result =
        compileCircuit(makeQftCircuit(10), d, set, cache, options);
    EXPECT_GT(result.teleports_inserted, 0);
    EXPECT_GT(result.epr_attempts, 0.0);
    EXPECT_GT(result.estimated_fidelity, 0.0);
    EXPECT_LT(result.estimated_fidelity, 1.0);
    EXPECT_GT(result.type_usage.count("TELEPORT"), 0u);

    // The final layout is a register bijection (teleports exchange
    // occupants; they never leak a logical qubit).
    std::set<int> positions(result.final_positions.begin(),
                            result.final_positions.end());
    EXPECT_EQ(positions.size(), result.final_positions.size());

    // Every 2Q op is physically executable: coupled within a core, or
    // a TELEPORT over a designated comm pair.
    static const LabelId teleport_label = internLabel("TELEPORT");
    for (const auto& op : result.circuit.ops()) {
        if (!op.isTwoQubit())
            continue;
        int a = result.physical[static_cast<size_t>(op.qubits()[0])];
        int b = result.physical[static_cast<size_t>(op.qubits()[1])];
        if (op.labelId() == teleport_label) {
            bool on_link = false;
            for (const TeleportEdge& edge : topo.teleportEdges())
                if ((edge.comm_a == a && edge.comm_b == b) ||
                    (edge.comm_a == b && edge.comm_b == a))
                    on_link = true;
            EXPECT_TRUE(on_link)
                << "TELEPORT on non-link pair " << a << "," << b;
        } else {
            EXPECT_TRUE(topo.adjacent(a, b))
                << "2Q op on uncoupled pair " << a << "," << b;
        }
    }

    // Multi-core couplings force telesabre even when the options ask
    // for a monolithic router.
    CompileOptions greedy = fastCompile();
    greedy.routing = "greedy";
    CompileResult forced =
        compileCircuit(makeQftCircuit(10), d, set, cache, greedy);
    EXPECT_GT(forced.teleports_inserted, 0);
}

TEST(ChipletPipeline, UnknownNamesFailOnEveryDevice)
{
    // Names are checked before a multi-core coupling forces
    // telesabre, so an unknown router or engine fails on a chiplet as
    // it does on a monolithic device.
    GateSet set = isa::singleTypeSet(3);
    Circuit app = makeQftCircuit(10);
    std::vector<Device> devices = {lineDevice("line10", 10, 0.995),
                                   chiplet2x2()};
    for (const Device& d : devices) {
        SCOPED_TRACE(d.name());
        ProfileCache cache;
        for (const char* routing : {"no-such-router", "best-of"}) {
            CompileOptions options = fastCompile();
            options.routing = routing;
            EXPECT_THROW(compileCircuit(app, d, set, cache, options),
                         FatalError)
                << routing;
        }
        CompileOptions kak = fastCompile();
        kak.decomposition = "kak";
        EXPECT_THROW(compileCircuit(app, d, set, cache, kak), FatalError);
    }
}

TEST(ChipletPipeline, KnobOffSwapOnlyLinksCostMoreFidelity)
{
    Device d = chiplet2x2();
    GateSet set = isa::singleTypeSet(3);
    ProfileCache cache;
    CompileOptions tele = fastCompile();
    tele.routing = "telesabre";
    CompileOptions swap_only = tele;
    swap_only.teleport.use_teleport = false;

    Circuit app = makeQftCircuit(10);
    CompileResult with = compileCircuit(app, d, set, cache, tele);
    CompileResult without =
        compileCircuit(app, d, set, cache, swap_only);
    ASSERT_GT(with.teleports_inserted, 0);
    EXPECT_EQ(without.teleports_inserted, 0);
    // Identical routing decisions, cheaper link crossings.
    EXPECT_EQ(with.circuit.depth(), without.circuit.depth());
    EXPECT_GT(with.estimated_fidelity, without.estimated_fidelity);
    EXPECT_LT(with.epr_attempts, without.epr_attempts);
}

TEST(ChipletPipeline, SingleCoreCompileBitIdenticalToSabre)
{
    Device d = lineDevice("line8", 8, 0.993);
    GateSet set = isa::singleTypeSet(3);
    ProfileCache cache;
    CompileOptions sabre = fastCompile();
    sabre.routing = "sabre";
    CompileOptions tele = fastCompile();
    tele.routing = "telesabre";

    Circuit app = makeQftCircuit(8);
    CompileResult a = compileCircuit(app, d, set, cache, sabre);
    CompileResult b = compileCircuit(app, d, set, cache, tele);
    EXPECT_EQ(a.physical, b.physical);
    EXPECT_EQ(a.final_positions, b.final_positions);
    EXPECT_EQ(a.swaps_inserted, b.swaps_inserted);
    EXPECT_EQ(b.teleports_inserted, 0);
    EXPECT_DOUBLE_EQ(a.estimated_fidelity, b.estimated_fidelity);
    ASSERT_EQ(a.circuit.size(), b.circuit.size());
    for (size_t i = 0; i < a.circuit.size(); ++i) {
        ConstOpRef x = a.circuit.ops()[i];
        ConstOpRef y = b.circuit.ops()[i];
        EXPECT_EQ(x.qubits(), y.qubits());
        EXPECT_EQ(x.labelId(), y.labelId());
        EXPECT_EQ(x.unitary().maxAbsDiff(y.unitary()), 0.0);
    }
}

// --------------------------------------------------- service plumbing

TEST(ChipletService, MonolithicShardsCompleteWithoutTeleports)
{
    GateSet set = isa::singleTypeSet(3);
    std::vector<Circuit> apps;
    for (int i = 0; i < 6; ++i)
        apps.push_back(makeQftCircuit(4));

    DeviceFleet fleet(fastCompile());
    fleet.addDevice(lineDevice("alpha", 6, 0.995));
    fleet.addDevice(lineDevice("beta", 6, 0.990));
    CompileServiceOptions options;
    options.workers = 3;
    CompileService service(fleet, set, options);
    CompileRequest request;
    request.circuits = apps;
    CompileJob job = service.submit(std::move(request));
    EXPECT_EQ(job.wait(), JobStatus::Done);
    EXPECT_EQ(job.results().size(), apps.size());
    // Monolithic shards never teleport, and their telemetry says so
    // explicitly.
    for (const PassMetric& row : service.shardTelemetry())
        EXPECT_EQ(row.counters.at("teleports_inserted"), 0.0);
}

// ------------------------------------------------------ trace linting

TEST(ChipletTrace, TeleportEventsPassTraceLint)
{
    GateSet set = isa::singleTypeSet(3);
    DeviceFleet fleet(fastCompile());
    fleet.addDevice(chiplet2x2(), "chip");

    EventStream stream;
    EventRecorder recorder(stream, 1.0);
    {
        CompileServiceOptions options;
        options.workers = 2;
        options.events = &stream;
        CompileService service(fleet, set, options);
        CompileRequest request;
        request.circuits.push_back(makeQftCircuit(10));
        CompileJob job = service.submit(std::move(request));
        ASSERT_EQ(job.wait(), JobStatus::Done);
        EXPECT_GT(job.stats().teleports_inserted, 0);
        service.shutdown();
    }
    recorder.stop();

    bool saw_teleport = false;
    for (const ServiceEvent& event : recorder.events())
        if (event.type == ServiceEventType::Teleport) {
            saw_teleport = true;
            EXPECT_GT(event.a, 0.0); // teleports
            EXPECT_GT(event.b, 0.0); // epr attempts
            EXPECT_EQ(event.shard, 0);
        }
    EXPECT_TRUE(saw_teleport);

    TraceExportOptions trace_options;
    trace_options.shard_names = {"chip"};
    trace_options.pass_names = stream.passNames();
    std::string json =
        chromeTraceJson(recorder.events(), trace_options);
    EXPECT_NE(json.find("\"teleport\""), std::string::npos);

    std::string trace_path = "test_chiplet_trace.json";
    {
        std::ofstream out(trace_path);
        ASSERT_TRUE(out.good());
        out << json;
    }
    // scripts/ lives next to tests/ in the source tree.
    std::string source_dir = __FILE__;
    source_dir = source_dir.substr(0, source_dir.find_last_of('/'));
    std::string lint =
        source_dir + "/../scripts/trace_lint.py";
    if (std::system("python3 --version > /dev/null 2>&1") != 0)
        GTEST_SKIP() << "python3 unavailable; skipping lint run";
    std::string command = "python3 " + lint + " " + trace_path;
    EXPECT_EQ(std::system(command.c_str()), 0)
        << "trace_lint.py rejected the teleport trace";
}

} // namespace
} // namespace qiset

// SWAP-routing tests: the greedy baseline, the fixed strategy set and
// the SABRE-style lookahead router.

#include <algorithm>

#include <gtest/gtest.h>

#include "apps/qft.h"
#include "apps/qv.h"
#include "common/error.h"
#include "common/rng.h"
#include "compiler/consolidate.h"
#include "compiler/routing.h"
#include "compiler/routing_strategy.h"
#include "qc/gates.h"
#include "sim/statevector.h"

namespace qiset {
namespace {

using namespace gates;

/**
 * Check a routed circuit implements the logical one: run both from
 * |0...0>, undo the router's output permutation, compare amplitudes.
 * Valid for any initial_positions (the all-zeros input is symmetric
 * under the start permutation, and every preparation gate rides along
 * inside the routed circuit).
 */
void
expectPreservesSemantics(const Circuit& logical,
                         const RoutedCircuit& routed)
{
    int n = logical.numQubits();
    size_t dim = size_t{1} << n;

    StateVector ideal(n);
    ideal.run(logical);
    StateVector physical(n);
    physical.run(routed.circuit);

    const auto& map = routed.final_positions;
    std::vector<cplx> restored(dim);
    for (size_t phys = 0; phys < dim; ++phys) {
        size_t logical_idx = 0;
        for (int l = 0; l < n; ++l) {
            size_t mask = size_t{1} << (n - 1 - map[l]);
            if (phys & mask)
                logical_idx |= size_t{1} << (n - 1 - l);
        }
        restored[logical_idx] = physical.amplitudes()[phys];
    }
    cplx overlap(0.0, 0.0);
    for (size_t i = 0; i < dim; ++i)
        overlap += std::conj(ideal.amplitudes()[i]) * restored[i];
    EXPECT_NEAR(std::abs(overlap), 1.0, 1e-10);
}

/** All 2Q ops on coupled pairs; both position maps are permutations. */
void
expectWellFormedRouting(const RoutedCircuit& routed,
                        const Topology& coupling)
{
    for (const auto& op : routed.circuit.ops()) {
        if (op.isTwoQubit()) {
            EXPECT_TRUE(coupling.adjacent(op.qubits()[0], op.qubits()[1]));
        }
    }
    for (const auto* positions :
         {&routed.initial_positions, &routed.final_positions}) {
        std::vector<bool> seen(routed.circuit.numQubits(), false);
        ASSERT_EQ(positions->size(),
                  static_cast<size_t>(routed.circuit.numQubits()));
        for (int pos : *positions) {
            ASSERT_GE(pos, 0);
            ASSERT_LT(pos, routed.circuit.numQubits());
            EXPECT_FALSE(seen[pos]);
            seen[pos] = true;
        }
    }
}

TEST(Routing, AdjacentOpsPassThrough)
{
    Circuit logical(3);
    logical.add2q(0, 1, cz(), "CZ");
    logical.add2q(1, 2, cz(), "CZ");
    RoutedCircuit routed = routeCircuit(logical, Topology::line(3));
    EXPECT_EQ(routed.swaps_inserted, 0);
    EXPECT_EQ(routed.circuit.twoQubitGateCount(), 2);
}

TEST(Routing, InsertsSwapForDistantPair)
{
    Circuit logical(3);
    logical.add2q(0, 2, cz(), "CZ");
    RoutedCircuit routed = routeCircuit(logical, Topology::line(3));
    EXPECT_EQ(routed.swaps_inserted, 1);
    EXPECT_EQ(routed.circuit.countLabel("SWAP"), 1);
}

TEST(Routing, AllEmittedOpsAreOnCoupledPairs)
{
    // All-to-all logical circuit on a line: heavy routing.
    Circuit logical(5);
    for (int a = 0; a < 5; ++a)
        for (int b = a + 1; b < 5; ++b)
            logical.add2q(a, b, iswap(), "ISWAP");
    Topology line = Topology::line(5);
    RoutedCircuit routed = routeCircuit(logical, line);
    for (const auto& op : routed.circuit.ops()) {
        if (op.isTwoQubit()) {
            EXPECT_TRUE(line.adjacent(op.qubits()[0], op.qubits()[1]));
        }
    }
    EXPECT_GT(routed.swaps_inserted, 0);
}

TEST(Routing, FinalPositionsAreAPermutation)
{
    Circuit logical(4);
    logical.add2q(0, 3, cz(), "CZ");
    logical.add2q(1, 3, cz(), "CZ");
    RoutedCircuit routed = routeCircuit(logical, Topology::line(4));
    std::vector<bool> seen(4, false);
    for (int pos : routed.final_positions) {
        ASSERT_GE(pos, 0);
        ASSERT_LT(pos, 4);
        EXPECT_FALSE(seen[pos]);
        seen[pos] = true;
    }
}

TEST(Routing, PreservesCircuitSemantics)
{
    // The routed circuit, followed by undoing the final permutation,
    // must equal the logical circuit's unitary.
    Circuit logical(4);
    logical.add1q(0, hadamard(), "H");
    logical.add2q(0, 3, cnot(), "CNOT");
    logical.add2q(1, 2, fsim(0.3, 0.7), "fSim");
    logical.add2q(0, 2, cz(), "CZ");

    Topology line = Topology::line(4);
    RoutedCircuit routed = routeCircuit(logical, line);

    StateVector ideal(4);
    ideal.run(logical);

    StateVector physical(4);
    physical.run(routed.circuit);

    // Permute physical amplitudes back: logical qubit l lives at
    // position final_positions[l].
    const auto& map = routed.final_positions;
    std::vector<cplx> restored(16);
    for (size_t phys = 0; phys < 16; ++phys) {
        size_t logical_idx = 0;
        for (int l = 0; l < 4; ++l) {
            size_t mask = size_t{1} << (3 - map[l]);
            if (phys & mask)
                logical_idx |= size_t{1} << (3 - l);
        }
        restored[logical_idx] = physical.amplitudes()[phys];
    }
    cplx overlap(0.0, 0.0);
    for (size_t i = 0; i < 16; ++i)
        overlap += std::conj(ideal.amplitudes()[i]) * restored[i];
    EXPECT_NEAR(std::abs(overlap), 1.0, 1e-10);
}

TEST(Routing, OneQubitOpsFollowTheirQubit)
{
    Circuit logical(3);
    logical.add2q(0, 2, cz(), "CZ"); // forces a swap on a line
    logical.add1q(0, pauliX(), "X");
    RoutedCircuit routed = routeCircuit(logical, Topology::line(3));
    // The X must land on logical 0's current position.
    auto ops = routed.circuit.ops();
    ConstOpRef x_op = ops[ops.size() - 1];
    EXPECT_EQ(x_op.label(), "X");
    EXPECT_EQ(x_op.qubits()[0], routed.final_positions[0]);
}

TEST(Routing, WidthMismatchThrows)
{
    Circuit logical(3);
    EXPECT_THROW(routeCircuit(logical, Topology::line(4)), FatalError);
}

// ------------------------------------------------------- strategy set

TEST(RoutingStrategy, BuiltinsMadeByName)
{
    auto names = routingStrategyNames();
    EXPECT_NE(std::find(names.begin(), names.end(), "greedy"),
              names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "sabre"),
              names.end());
    EXPECT_EQ(makeRoutingStrategy("greedy")->name(), "greedy");
    EXPECT_EQ(makeRoutingStrategy("sabre")->name(), "sabre");
}

TEST(RoutingStrategy, UnknownNameThrows)
{
    EXPECT_THROW(makeRoutingStrategy("no-such-router"), FatalError);
}

TEST(RoutingStrategy, GreedyStrategyMatchesRouteCircuit)
{
    Circuit logical(4);
    logical.add2q(0, 3, cz(), "CZ");
    logical.add2q(1, 3, cz(), "CZ");
    Topology line = Topology::line(4);

    RoutedCircuit direct = routeCircuit(logical, line);
    RoutedCircuit via_strategy =
        GreedyRouter().route(logical, line, Schedule(logical));
    EXPECT_EQ(via_strategy.swaps_inserted, direct.swaps_inserted);
    EXPECT_EQ(via_strategy.final_positions, direct.final_positions);
    EXPECT_EQ(via_strategy.circuit.size(), direct.circuit.size());
    // Greedy keeps the identity start layout.
    for (size_t l = 0; l < via_strategy.initial_positions.size(); ++l)
        EXPECT_EQ(via_strategy.initial_positions[l],
                  static_cast<int>(l));
}

TEST(RoutingStrategy, EveryRouterStoresTheSwapOnce)
{
    Circuit qft = makeQftCircuit(9);
    for (const std::string& name : routingStrategyNames()) {
        SCOPED_TRACE(name);
        RoutedCircuit routed =
            makeRoutingStrategy(name)->route(qft, Topology::line(9));
        ASSERT_GT(routed.swaps_inserted, 0);
        // One entry per logical op, plus the one shared SWAP.
        EXPECT_EQ(routed.circuit.unitaryTableSize(), qft.size() + 1);
        LabelId swap_label = internLabel("SWAP");
        std::vector<size_t> swaps;
        for (size_t i = 0; i < routed.circuit.size(); ++i)
            if (routed.circuit.opLabels()[i] == swap_label)
                swaps.push_back(i);
        ASSERT_EQ(swaps.size(), static_cast<size_t>(routed.swaps_inserted));
        for (size_t i : swaps)
            EXPECT_EQ(routed.circuit.opUnitaryId(i),
                      routed.circuit.opUnitaryId(swaps[0]));
        EXPECT_EQ(routed.circuit.opUnitary(swaps[0]).maxAbsDiff(swap()),
                  0.0);
    }
}

TEST(RoutingStrategy, ConsolidationKeepsTheSwapOneEntry)
{
    // Greedy SWAP chains rarely fuse: most SWAPs leave consolidation
    // as one-op blocks or pass through, and all of them keep sharing
    // the routed circuit's one SWAP entry.
    Circuit qft = makeQftCircuit(16);
    RoutedCircuit routed = GreedyRouter().route(qft, Topology::grid(4, 4));
    Circuit fused = consolidateTwoQubitBlocks(routed.circuit);
    std::vector<size_t> swaps;
    for (size_t i = 0; i < fused.size(); ++i)
        if (fused.ops()[i].isTwoQubit() &&
            fused.opUnitary(i).maxAbsDiff(swap()) == 0.0)
            swaps.push_back(i);
    ASSERT_GT(swaps.size(), 1u);
    for (size_t i : swaps)
        EXPECT_EQ(fused.opUnitaryId(i), fused.opUnitaryId(swaps[0]));
    EXPECT_LE(fused.unitaryTableSize(), routed.circuit.unitaryTableSize());
}

// -------------------------------------------------------------- sabre

TEST(SabreRouter, PreservesCircuitSemantics)
{
    Circuit logical(4);
    logical.add1q(0, hadamard(), "H");
    logical.add2q(0, 3, cnot(), "CNOT");
    logical.add2q(1, 2, fsim(0.3, 0.7), "fSim");
    logical.add2q(0, 2, cz(), "CZ");

    Topology line = Topology::line(4);
    RoutedCircuit routed = SabreRouter().route(logical, line);
    expectWellFormedRouting(routed, line);
    expectPreservesSemantics(logical, routed);
}

TEST(SabreRouter, PreservesSemanticsOnQftWithPreparation)
{
    // X-preparation gates ride inside the routed circuit, so a
    // permuted start layout must still reproduce the logical state.
    Circuit logical = makeQftCircuitOnInput(4, 0b1011);
    Topology line = Topology::line(4);
    RoutedCircuit routed = SabreRouter().route(logical, line);
    expectWellFormedRouting(routed, line);
    expectPreservesSemantics(logical, routed);
}

TEST(SabreRouter, HeavyAllToAllWorkloadStaysLegal)
{
    Circuit logical(5);
    for (int a = 0; a < 5; ++a)
        for (int b = a + 1; b < 5; ++b)
            logical.add2q(a, b, iswap(), "ISWAP");
    Topology line = Topology::line(5);
    RoutedCircuit routed = SabreRouter().route(logical, line);
    expectWellFormedRouting(routed, line);
    EXPECT_GT(routed.swaps_inserted, 0);
    EXPECT_EQ(routed.circuit.twoQubitGateCount(),
              10 + routed.swaps_inserted);
}

TEST(SabreRouter, DeterministicAcrossRuns)
{
    Circuit logical = makeQftCircuit(6);
    Topology grid = Topology::grid(2, 3);
    RoutedCircuit first = SabreRouter().route(logical, grid);
    RoutedCircuit second = SabreRouter().route(logical, grid);
    EXPECT_EQ(first.swaps_inserted, second.swaps_inserted);
    EXPECT_EQ(first.initial_positions, second.initial_positions);
    EXPECT_EQ(first.final_positions, second.final_positions);
    ASSERT_EQ(first.circuit.size(), second.circuit.size());
    for (size_t i = 0; i < first.circuit.size(); ++i)
        EXPECT_EQ(first.circuit.ops()[i].qubits(),
                  second.circuit.ops()[i].qubits());
}

TEST(SabreRouter, RequiresMatchingSchedule)
{
    Circuit logical = makeQftCircuit(4);
    Circuit other(4);
    other.add2q(0, 1, cz(), "CZ");
    EXPECT_THROW(SabreRouter().route(logical, Topology::line(4),
                                     Schedule(other)),
                 FatalError);
}

TEST(SabreRouter, FewerSwapsThanGreedyOnQft16)
{
    // The acceptance bar of this refactor: SABRE's lookahead must
    // strictly beat greedy nearest-neighbor SWAP chains on the
    // long-range 16-qubit QFT (both on the 4x4 grid and on a line).
    Circuit qft = makeQftCircuit(16);
    for (const Topology& coupling :
         {Topology::grid(4, 4), Topology::line(16)}) {
        Schedule schedule(qft);
        RoutedCircuit greedy =
            GreedyRouter().route(qft, coupling, schedule);
        RoutedCircuit sabre =
            SabreRouter().route(qft, coupling, schedule);
        expectWellFormedRouting(sabre, coupling);
        EXPECT_LT(sabre.swaps_inserted, greedy.swaps_inserted);
    }
}

TEST(SabreRouter, EmptyExtendedSetIgnoresItsWeight)
{
    // extended_set_size = 0 scores the front layer alone, so the
    // lookahead weight must not change the route. Covers both routers:
    // SABRE on lines, telesabre on a two-core chiplet.
    Rng rng(5);
    struct Case
    {
        Circuit circuit;
        Topology coupling;
        bool teleport;
    };
    std::vector<Case> cases;
    for (int n = 5; n <= 10; ++n) {
        cases.push_back({makeQftCircuit(n), Topology::line(n), false});
        cases.push_back(
            {makeQuantumVolumeCircuit(n, rng), Topology::line(n), false});
    }
    cases.push_back(
        {makeQftCircuit(12), Topology::gridOfGrids(1, 2, 2, 3), true});

    for (size_t i = 0; i < cases.size(); ++i) {
        SCOPED_TRACE("case " + std::to_string(i));
        const Case& c = cases[i];
        SabreOptions unweighted;
        unweighted.extended_set_size = 0;
        unweighted.extended_set_weight = 0.0;
        SabreOptions weighted = unweighted;
        weighted.extended_set_weight = 1.0;
        auto route = [&](const SabreOptions& options) {
            return makeRoutingStrategy(c.teleport ? "telesabre" : "sabre",
                                       options)
                ->route(c.circuit, c.coupling);
        };
        RoutedCircuit a = route(unweighted);
        RoutedCircuit b = route(weighted);
        EXPECT_EQ(a.initial_positions, b.initial_positions);
        EXPECT_EQ(a.final_positions, b.final_positions);
        EXPECT_EQ(a.swaps_inserted, b.swaps_inserted);
        EXPECT_EQ(a.teleports_inserted, b.teleports_inserted);
        ASSERT_EQ(a.circuit.size(), b.circuit.size());
        for (size_t op = 0; op < a.circuit.size(); ++op)
            EXPECT_EQ(a.circuit.ops()[op].qubits(),
                      b.circuit.ops()[op].qubits());
    }
}

} // namespace
} // namespace qiset

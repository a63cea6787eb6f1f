// Workload generator tests: structure counts from Section VI.

#include <set>

#include <gtest/gtest.h>

#include "apps/fermi_hubbard.h"
#include "qc/gates.h"
#include "apps/qaoa.h"
#include "apps/qft.h"
#include "apps/qv.h"
#include "sim/statevector.h"

namespace qiset {
namespace {

TEST(Qv, LayerAndGateCounts)
{
    Rng rng(1);
    for (int n : {3, 4, 5, 6}) {
        Circuit c = makeQuantumVolumeCircuit(n, rng);
        // n layers, floor(n/2) SU4 gates each.
        EXPECT_EQ(c.twoQubitGateCount(), n * (n / 2)) << "n=" << n;
        EXPECT_EQ(c.countLabel("SU4"), c.twoQubitGateCount());
    }
}

TEST(Qv, BlocksAreSu4)
{
    Rng rng(2);
    Circuit c = makeQuantumVolumeCircuit(4, rng);
    for (const auto& op : c.ops()) {
        ASSERT_TRUE(op.isTwoQubit());
        EXPECT_TRUE(op.unitary().isUnitary(1e-10));
    }
}

TEST(Qv, RandomSu4HasUnitDeterminant)
{
    Rng rng(3);
    Matrix u = randomSu4(rng);
    EXPECT_TRUE(u.isUnitary(1e-10));
}

TEST(Qv, CircuitsDiffer)
{
    Rng rng(4);
    Circuit a = makeQuantumVolumeCircuit(4, rng);
    Circuit b = makeQuantumVolumeCircuit(4, rng);
    // Same structure but different unitaries (overwhelmingly likely).
    EXPECT_GT(a.ops()[0].unitary().maxAbsDiff(b.ops()[0].unitary()), 1e-6);
}

TEST(Qaoa, GraphSizeFollowsThreeQuartersRule)
{
    Rng rng(5);
    EXPECT_EQ(randomMaxcutGraph(4, rng).size(), 3u);  // ceil(12/4)
    EXPECT_EQ(randomMaxcutGraph(6, rng).size(), 5u);  // ceil(18/4)
    EXPECT_EQ(randomMaxcutGraph(8, rng).size(), 6u);  // ceil(24/4)
}

TEST(Qaoa, CircuitStructure)
{
    Rng rng(6);
    Circuit c = makeRandomQaoaCircuit(6, rng);
    // 2Q count equals edge count; H and RX layers on every qubit.
    EXPECT_EQ(c.twoQubitGateCount(), 5);
    EXPECT_EQ(c.countLabel("H"), 6);
    EXPECT_EQ(c.countLabel("RX"), 6);
    EXPECT_EQ(c.countLabel("ZZ"), 5);
}

TEST(Qaoa, EdgesAreValidAndDistinct)
{
    Rng rng(7);
    auto edges = randomMaxcutGraph(6, rng);
    std::set<std::pair<int, int>> seen;
    for (auto [a, b] : edges) {
        EXPECT_GE(a, 0);
        EXPECT_LT(b, 6);
        EXPECT_LT(a, b);
        EXPECT_TRUE(seen.insert({a, b}).second);
    }
}

TEST(FermiHubbard, InteractionCountsMatchPaper)
{
    for (int n : {6, 10, 20}) {
        Circuit c = makeFermiHubbardCircuit(n, 0.4, 0.2);
        // ~2n ZZ interactions and ~4n hopping terms (Section VI).
        int zz = c.countLabel("ZZ");
        int hop = c.countLabel("XXYY");
        EXPECT_NEAR(zz, 2 * n, 2.0) << "n=" << n;
        EXPECT_NEAR(hop, 4 * n, 8.0) << "n=" << n;
        EXPECT_EQ(c.twoQubitGateCount(), zz + hop);
    }
}

TEST(FermiHubbard, NearestNeighbourOnly)
{
    Circuit c = makeFermiHubbardCircuit(8, 0.3, 0.1);
    for (const auto& op : c.ops()) {
        if (op.isTwoQubit()) {
            EXPECT_EQ(std::abs(op.qubits()[0] - op.qubits()[1]), 1);
        }
    }
}

TEST(Qft, GateCountIsQuadratic)
{
    for (int n : {3, 4, 6}) {
        Circuit c = makeQftCircuit(n);
        EXPECT_EQ(c.twoQubitGateCount(), n * (n - 1) / 2);
        EXPECT_EQ(c.countLabel("H"), n);
    }
}

TEST(Qft, ThreeQubitUnitaryMatchesDft)
{
    // QFT matrix elements: omega^(jk) / sqrt(8) with bit-reversed
    // output ordering (we omit the final SWAP network).
    Circuit c = makeQftCircuit(3);
    Matrix u = c.unitary();
    const int n = 8;
    auto bitrev3 = [](int x) {
        return ((x & 1) << 2) | (x & 2) | ((x >> 2) & 1);
    };
    double s = 1.0 / std::sqrt(8.0);
    for (int row = 0; row < n; ++row) {
        for (int col = 0; col < n; ++col) {
            double angle =
                2.0 * gates::kPi * bitrev3(row) * col / 8.0;
            cplx expected = cplx(std::cos(angle), std::sin(angle)) * s;
            EXPECT_NEAR(std::abs(u(row, col) - expected), 0.0, 1e-9)
                << row << "," << col;
        }
    }
}

TEST(Qft, InputPreparationProducesFourierState)
{
    const int n = 3;
    const size_t input = 5;
    Circuit c = makeQftCircuitOnInput(n, input);
    StateVector s(n);
    s.run(c);
    // All output probabilities are uniform 1/8 for a basis input.
    for (double p : s.probabilities())
        EXPECT_NEAR(p, 1.0 / 8.0, 1e-9);
}

} // namespace
} // namespace qiset

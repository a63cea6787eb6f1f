// Circuit IR tests: construction, counting, depth, scheduling, the
// full-unitary builder and structure stamps.

#include <algorithm>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "circuit/circuit.h"
#include "common/error.h"
#include "qc/gates.h"

namespace qiset {
namespace {

using namespace gates;

TEST(Circuit, CountsGatesByArity)
{
    Circuit c(3);
    c.add1q(0, hadamard(), "H");
    c.add2q(0, 1, cz(), "CZ");
    c.add2q(1, 2, iswap(), "iSWAP");
    EXPECT_EQ(c.oneQubitGateCount(), 1);
    EXPECT_EQ(c.twoQubitGateCount(), 2);
    EXPECT_EQ(c.size(), 3u);
}

TEST(Circuit, CountLabel)
{
    Circuit c(2);
    c.add2q(0, 1, swap(), "SWAP");
    c.add2q(0, 1, swap(), "SWAP");
    c.add2q(0, 1, cz(), "CZ");
    EXPECT_EQ(c.countLabel("SWAP"), 2);
    EXPECT_EQ(c.countLabel("CZ"), 1);
    EXPECT_EQ(c.countLabel("nope"), 0);
}

TEST(Circuit, RejectsBadQubits)
{
    Circuit c(2);
    EXPECT_THROW(c.add1q(2, hadamard()), FatalError);
    EXPECT_THROW(c.add2q(0, 0, cz()), FatalError);
    EXPECT_THROW(c.add2q(0, 5, cz()), FatalError);
}

TEST(Circuit, RejectsWrongShapes)
{
    Circuit c(2);
    EXPECT_THROW(c.add1q(0, cz()), FatalError);
    EXPECT_THROW(c.add2q(0, 1, hadamard()), FatalError);
}

TEST(Circuit, DepthTracksParallelism)
{
    Circuit c(4);
    c.add1q(0, hadamard());
    c.add1q(1, hadamard());
    EXPECT_EQ(c.depth(), 1); // parallel 1Q layer
    c.add2q(0, 1, cz());
    EXPECT_EQ(c.depth(), 2);
    c.add2q(2, 3, cz());
    EXPECT_EQ(c.depth(), 2); // disjoint pair packs into moment 2
    c.add2q(1, 2, cz());
    EXPECT_EQ(c.depth(), 3);
}

TEST(Circuit, ScheduledDuration)
{
    Circuit c(2);
    Operation a;
    a.qubits = {0};
    a.unitary = hadamard();
    a.duration_ns = 25.0;
    c.add(a);
    Operation b;
    b.qubits = {0, 1};
    b.unitary = cz();
    b.duration_ns = 100.0;
    c.add(b);
    EXPECT_NEAR(c.scheduledDurationNs(), 125.0, 1e-9);
}

TEST(Circuit, AppendConcatenates)
{
    Circuit a(2), b(2);
    a.add1q(0, hadamard());
    b.add2q(0, 1, cz());
    a.append(b);
    EXPECT_EQ(a.size(), 2u);
}

TEST(Circuit, UnitaryOfBellPreparation)
{
    Circuit c(2);
    c.add1q(0, hadamard(), "H");
    c.add2q(0, 1, cnot(), "CNOT");
    Matrix u = c.unitary();
    // First column = state (|00> + |11>)/sqrt(2).
    double s = 1.0 / std::sqrt(2.0);
    EXPECT_NEAR(std::abs(u(0, 0) - cplx(s)), 0.0, 1e-12);
    EXPECT_NEAR(std::abs(u(3, 0) - cplx(s)), 0.0, 1e-12);
    EXPECT_NEAR(std::abs(u(1, 0)), 0.0, 1e-12);
    EXPECT_NEAR(std::abs(u(2, 0)), 0.0, 1e-12);
}

TEST(Circuit, EmbedUnitaryMatchesKroneckerForAdjacentPair)
{
    // 2Q gate on qubits (0, 1) of a 2-qubit register is the matrix
    // itself.
    Matrix g = iswap();
    Matrix full = embedUnitary(g, {0, 1}, 2);
    EXPECT_LT(full.maxAbsDiff(g), 1e-12);
}

TEST(Circuit, EmbedUnitaryHandlesReversedQubitOrder)
{
    // Applying CNOT on (1, 0) must equal SWAP * CNOT * SWAP on (0, 1).
    Matrix reversed = embedUnitary(cnot(), {1, 0}, 2);
    Matrix expected = swap() * cnot() * swap();
    EXPECT_LT(reversed.maxAbsDiff(expected), 1e-12);
}

TEST(Circuit, EmbedSingleQubitOnSecondQubit)
{
    Matrix full = embedUnitary(pauliX(), {1}, 2);
    Matrix expected = identity1q().kron(pauliX());
    EXPECT_LT(full.maxAbsDiff(expected), 1e-12);
}

TEST(Circuit, UnitaryIsUnitaryForRandomCircuit)
{
    Circuit c(3);
    c.add1q(0, hadamard());
    c.add2q(0, 2, iswap());
    c.add1q(1, tGate());
    c.add2q(2, 1, fsim(0.4, 1.1));
    EXPECT_TRUE(c.unitary().isUnitary(1e-10));
}

TEST(Circuit, ToStringListsOps)
{
    Circuit c(2);
    c.add2q(0, 1, cz(), "CZ");
    std::string s = c.toString();
    EXPECT_NE(s.find("CZ q0, q1"), std::string::npos);
}

TEST(Circuit, StructureStampFollowsStructuralEdits)
{
    Circuit c(2);
    uint64_t empty = c.structureStamp();
    c.add2q(0, 1, cz(), "CZ");
    uint64_t one_op = c.structureStamp();
    EXPECT_NE(one_op, empty);

    auto ops = c.mutableOps();
    ops[0].setErrorRate(0.1);
    ops[0].setLabel("CZ2");
    ops[0].setUnitary(iswap());
    c.mutableErrorRates()[0] = 0.2;
    EXPECT_EQ(c.structureStamp(), one_op);

    ops[0].setDurationNs(30.0);
    uint64_t timed = c.structureStamp();
    EXPECT_NE(timed, one_op);

    Circuit copy(c);
    EXPECT_EQ(copy.structureStamp(), timed);
    Circuit moved(std::move(copy));
    EXPECT_EQ(moved.structureStamp(), timed);
    EXPECT_NE(copy.structureStamp(), timed); // moved-from: renewed

    c.append(moved);
    EXPECT_NE(c.structureStamp(), timed);
    EXPECT_EQ(moved.structureStamp(), timed);
}

TEST(Circuit, StampsDrawnOnFourThreadsNeverRepeat)
{
    // Enough appends per thread to draw several thread-local blocks.
    constexpr int kThreads = 4;
    constexpr int kCircuits = 100;
    constexpr int kOps = 50;
    std::vector<std::vector<uint64_t>> seen(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&seen, t] {
            for (int i = 0; i < kCircuits; ++i) {
                Circuit c(2);
                seen[t].push_back(c.structureStamp());
                for (int k = 0; k < kOps; ++k) {
                    c.add1q(k % 2, hadamard(), "H");
                    seen[t].push_back(c.structureStamp());
                }
            }
        });
    for (std::thread& thread : threads)
        thread.join();
    std::vector<uint64_t> all;
    for (const auto& stamps : seen)
        all.insert(all.end(), stamps.begin(), stamps.end());
    std::sort(all.begin(), all.end());
    EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end());
    EXPECT_EQ(all.size(),
              static_cast<size_t>(kThreads * kCircuits * (kOps + 1)));
}

} // namespace
} // namespace qiset

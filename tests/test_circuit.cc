// Circuit IR tests: construction, counting, depth, scheduling, the
// full-unitary builder, the unitary table and structure stamps.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <thread>
#include <utility>
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

bool
sameBytes(const Matrix& a, const Matrix& b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(cplx)) == 0;
}

/** Every op's unitary, by value. */
std::vector<Matrix>
opBytes(const Circuit& c)
{
    std::vector<Matrix> out;
    for (const auto& op : c.ops())
        out.push_back(op.unitary());
    return out;
}

void
expectSameOpBytes(const Circuit& c, const std::vector<Matrix>& expected)
{
    ASSERT_EQ(c.size(), expected.size());
    for (size_t i = 0; i < c.size(); ++i)
        EXPECT_TRUE(sameBytes(c.opUnitary(i), expected[i])) << i;
}

/** Two shared entries and one per-op Matrix add, on three qubits. */
Circuit
sharedTableCircuit()
{
    Circuit c(3);
    LabelId u3_label = internLabel("U3");
    LabelId cz_label = internLabel("CZ");
    UnitaryId u3_id = c.storeUnitary(u3(0.3, 0.2, 0.1));
    UnitaryId cz_id = c.storeUnitary(cz());
    c.add1q(0, u3_id, u3_label);
    c.add2q(0, 1, cz_id, cz_label, 0.01, 40.0);
    c.add1q(1, u3_id, u3_label);
    c.add2q(1, 2, cz_id, cz_label);
    c.add1q(2, hadamard(), "H");
    c.add1q(2, u3_id, u3_label);
    return c;
}

TEST(Circuit, OpsAddedByOneIdShareTheirBytes)
{
    Circuit c = sharedTableCircuit();
    EXPECT_EQ(c.size(), 6u);
    EXPECT_EQ(c.unitaryTableSize(), 3u); // U3, CZ and the H add
    EXPECT_EQ(c.twoQubitGateCount(), 2);
    EXPECT_EQ(c.opUnitaryId(0), c.opUnitaryId(2));
    EXPECT_EQ(c.opUnitaryId(0), c.opUnitaryId(5));
    EXPECT_EQ(c.opUnitaryId(1), c.opUnitaryId(3));
    EXPECT_NE(c.opUnitaryId(0), c.opUnitaryId(4));
    EXPECT_EQ(&c.opUnitary(0), &c.opUnitary(5));
    EXPECT_EQ(&c.ops()[1].unitary(), &c.ops()[3].unitary());
    EXPECT_TRUE(sameBytes(c.opUnitary(0), u3(0.3, 0.2, 0.1)));
    EXPECT_TRUE(sameBytes(c.opUnitary(1), cz()));
    EXPECT_TRUE(sameBytes(c.opUnitary(4), hadamard()));
    EXPECT_DOUBLE_EQ(c.ops()[1].errorRate(), 0.01);
    EXPECT_DOUBLE_EQ(c.ops()[1].durationNs(), 40.0);
    EXPECT_EQ(c.ops()[3].label(), "CZ");
}

TEST(Circuit, SetUnitaryNeverRewritesASharedEntry)
{
    Circuit c = sharedTableCircuit();
    std::vector<Matrix> before = opBytes(c);
    uint64_t stamp = c.structureStamp();

    c.mutableOps()[2].setUnitary(pauliX());
    EXPECT_TRUE(sameBytes(c.opUnitary(2), pauliX()));
    EXPECT_NE(c.opUnitaryId(2), c.opUnitaryId(0));
    EXPECT_EQ(c.unitaryTableSize(), 4u);
    before[2] = pauliX();
    expectSameOpBytes(c, before); // ops 0 and 5 keep the U3
    EXPECT_EQ(c.structureStamp(), stamp);

    c.mutableOps()[1].setUnitary(iswap());
    before[1] = iswap();
    expectSameOpBytes(c, before); // op 3 keeps the CZ

    // A shape that does not match the op's arity is rejected, and the
    // op keeps its unitary.
    EXPECT_THROW(c.mutableOps()[0].setUnitary(cz()), FatalError);
    EXPECT_THROW(c.mutableOps()[1].setUnitary(hadamard()), FatalError);
    expectSameOpBytes(c, before);
}

TEST(Circuit, CopiesMovesAndAppendsKeepEveryOpsBytes)
{
    Circuit c = sharedTableCircuit();
    std::vector<Matrix> bytes = opBytes(c);

    Circuit copy(c);
    expectSameOpBytes(copy, bytes);
    EXPECT_EQ(copy.unitaryTableSize(), c.unitaryTableSize());
    EXPECT_EQ(copy.opUnitaryId(5), c.opUnitaryId(5));
    // The copy owns its table: editing it leaves the source alone.
    copy.mutableOps()[0].setUnitary(pauliY());
    expectSameOpBytes(c, bytes);

    Circuit assigned(1);
    assigned = c;
    expectSameOpBytes(assigned, bytes);

    Circuit moved(std::move(copy));
    std::vector<Matrix> edited = bytes;
    edited[0] = pauliY();
    expectSameOpBytes(moved, edited);

    // append and cross-circuit add store one entry per op.
    Circuit target(3);
    target.add1q(1, sGate(), "S");
    target.append(c);
    std::vector<Matrix> appended = {sGate()};
    appended.insert(appended.end(), bytes.begin(), bytes.end());
    expectSameOpBytes(target, appended);
    EXPECT_EQ(target.unitaryTableSize(), target.size());

    Circuit picked(3);
    for (size_t i = c.size(); i-- > 0;)
        picked.add(c.ops()[i]);
    picked.add(c.ops()[3], Qubits(2, 0));
    std::vector<Matrix> reversed(bytes.rbegin(), bytes.rend());
    reversed.push_back(bytes[3]);
    expectSameOpBytes(picked, reversed);
    EXPECT_EQ(picked.ops()[6].qubits(), Qubits(2, 0));
}

TEST(Circuit, UnitaryIsTheSameBuiltByIdsOrByMatrices)
{
    Circuit by_ids = sharedTableCircuit();
    Circuit by_matrices(3);
    for (const auto& op : by_ids.ops()) {
        Operation copy;
        copy.qubits = op.qubits();
        copy.unitary = op.unitary();
        copy.label = op.label();
        by_matrices.add(copy);
    }
    EXPECT_EQ(by_matrices.unitaryTableSize(), by_matrices.size());
    EXPECT_TRUE(sameBytes(by_ids.unitary(), by_matrices.unitary()));
}

TEST(Circuit, RejectsBadTableEntriesAndIds)
{
    Circuit c(2);
    EXPECT_THROW(c.storeUnitary(Matrix::identity(3)), FatalError);
    EXPECT_THROW(c.storeUnitary(Matrix(2, 4)), FatalError);
    EXPECT_EQ(c.unitaryTableSize(), 0u);

    UnitaryId one = c.storeUnitary(hadamard());
    UnitaryId two = c.storeUnitary(cz());
    LabelId label = internLabel("G");
    EXPECT_THROW(c.add1q(0, UnitaryId{2}, label), FatalError);
    EXPECT_THROW(c.add2q(0, 1, UnitaryId{7}, label), FatalError);
    EXPECT_THROW(c.add1q(0, two, label), FatalError); // 4x4 on a 1Q op
    EXPECT_THROW(c.add2q(0, 1, one, label), FatalError);
    EXPECT_THROW(c.add2q(0, 0, two, label), FatalError);
    EXPECT_THROW(c.add1q(2, one, label), FatalError);
    EXPECT_EQ(c.size(), 0u);
    EXPECT_EQ(c.twoQubitGateCount(), 0);

    c.add1q(1, one, label);
    c.add2q(1, 0, two, label);
    EXPECT_EQ(c.size(), 2u);
    EXPECT_EQ(c.twoQubitGateCount(), 1);
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

// Two-qubit block consolidation tests.

#include <gtest/gtest.h>

#include "compiler/consolidate.h"
#include "qc/gates.h"

namespace qiset {
namespace {

using namespace gates;

TEST(Consolidate, MergesSamePairRun)
{
    Circuit c(2);
    c.add2q(0, 1, swap(), "SWAP");
    c.add2q(0, 1, zz(0.4), "ZZ");
    Circuit out = consolidateTwoQubitBlocks(c);
    EXPECT_EQ(out.twoQubitGateCount(), 1);
    EXPECT_NEAR(traceFidelity(out.ops()[0].unitary(),
                              zz(0.4) * swap()),
                1.0, 1e-12);
}

TEST(Consolidate, AbsorbsInterleavedOneQubitOps)
{
    Circuit c(2);
    c.add2q(0, 1, cz(), "CZ");
    c.add1q(0, hadamard(), "H");
    c.add1q(1, tGate(), "T");
    c.add2q(0, 1, iswap(), "iSWAP");
    Circuit out = consolidateTwoQubitBlocks(c);
    ASSERT_EQ(out.size(), 1u);
    Matrix expected = iswap() *
                      hadamard().kron(tGate()) * cz();
    EXPECT_NEAR(traceFidelity(out.ops()[0].unitary(), expected), 1.0,
                1e-12);
}

TEST(Consolidate, HandlesReversedQubitOrder)
{
    Circuit c(2);
    c.add2q(0, 1, cnot(), "CNOT");
    c.add2q(1, 0, cnot(), "CNOT");
    Circuit out = consolidateTwoQubitBlocks(c);
    ASSERT_EQ(out.twoQubitGateCount(), 1);
    Matrix expected = (swap() * cnot() * swap()) * cnot();
    EXPECT_NEAR(traceFidelity(out.ops()[0].unitary(), expected), 1.0,
                1e-12);
}

TEST(Consolidate, DifferentPairsStaySeparate)
{
    Circuit c(3);
    c.add2q(0, 1, cz(), "CZ");
    c.add2q(1, 2, cz(), "CZ");
    c.add2q(0, 1, cz(), "CZ");
    Circuit out = consolidateTwoQubitBlocks(c);
    EXPECT_EQ(out.twoQubitGateCount(), 3);
}

TEST(Consolidate, PreservesCircuitUnitary)
{
    Circuit c(4);
    c.add1q(0, hadamard(), "H");
    c.add2q(0, 2, fsim(0.3, 0.7), "fSim");
    c.add1q(2, tGate(), "T");
    c.add2q(2, 0, swap(), "SWAP");
    c.add2q(1, 3, cz(), "CZ");
    c.add1q(1, pauliX(), "X");
    c.add2q(3, 1, iswap(), "iSWAP");
    c.add2q(0, 1, cnot(), "CNOT");

    Circuit out = consolidateTwoQubitBlocks(c);
    EXPECT_LT(out.size(), c.size());
    EXPECT_NEAR(traceFidelity(out.unitary(), c.unitary()), 1.0, 1e-10);
}

TEST(Consolidate, LoneOneQubitOpsPassThrough)
{
    Circuit c(3);
    c.add1q(0, hadamard(), "H");
    c.add1q(2, tGate(), "T");
    Circuit out = consolidateTwoQubitBlocks(c);
    EXPECT_EQ(out.size(), 2u);
    EXPECT_EQ(out.oneQubitGateCount(), 2);
}

TEST(Consolidate, TrailingOneQubitAfterBlockIsAbsorbed)
{
    Circuit c(2);
    c.add2q(0, 1, cz(), "CZ");
    c.add1q(0, hadamard(), "H");
    Circuit out = consolidateTwoQubitBlocks(c);
    ASSERT_EQ(out.size(), 1u);
    Matrix expected = hadamard().kron(identity1q()) * cz();
    EXPECT_NEAR(traceFidelity(out.ops()[0].unitary(), expected), 1.0,
                1e-12);
}

TEST(Consolidate, QaoaStyleChainShrinks)
{
    // H layer + ZZ chain + RX layer on a line: each qubit's 1Q ops
    // merge into neighbouring interaction blocks.
    Circuit c(4);
    for (int q = 0; q < 4; ++q)
        c.add1q(q, hadamard(), "H");
    for (int q = 0; q + 1 < 4; ++q)
        c.add2q(q, q + 1, zz(0.7), "ZZ");
    for (int q = 0; q < 4; ++q)
        c.add1q(q, rx(0.9), "RX");
    Circuit out = consolidateTwoQubitBlocks(c);
    EXPECT_EQ(out.twoQubitGateCount(), 3);
    EXPECT_NEAR(traceFidelity(out.unitary(), c.unitary()), 1.0, 1e-10);
}

TEST(Consolidate, UnfusedOpsShareOutputEntries)
{
    // Two stored entries (H and CZ) serve every input op. The H ops
    // pass through, and the blocks (0,1) and (2,3) close holding one
    // CZ each, so all of them keep one output entry per input entry;
    // only the block on (1,2), which fuses a second op, adds its own.
    Circuit c(4);
    LabelId h_label = internLabel("H");
    LabelId cz_label = internLabel("CZ");
    UnitaryId h = c.storeUnitary(hadamard());
    UnitaryId z = c.storeUnitary(cz());
    c.add1q(0, h, h_label);
    c.add1q(1, h, h_label);
    c.add2q(0, 1, z, cz_label);
    c.add2q(2, 3, z, cz_label);
    c.add2q(1, 2, z, cz_label); // closes (0,1) and (2,3), opens (1,2)
    c.add1q(3, h, h_label);     // qubit 3 is free: passes through
    c.add2q(2, 1, z, cz_label); // reversed: fuses into (1,2)
    Circuit out = consolidateTwoQubitBlocks(c);
    ASSERT_EQ(out.size(), 6u);
    EXPECT_EQ(out.opUnitaryId(1), out.opUnitaryId(0));
    EXPECT_EQ(out.opUnitaryId(4), out.opUnitaryId(0));
    EXPECT_EQ(out.opUnitaryId(3), out.opUnitaryId(2));
    EXPECT_EQ(out.ops()[2].label(), "block");
    EXPECT_EQ(out.opUnitary(2).maxAbsDiff(cz()), 0.0);
    EXPECT_EQ(out.unitaryTableSize(), 3u);
    EXPECT_NEAR(traceFidelity(out.unitary(), c.unitary()), 1.0, 1e-10);
}

} // namespace
} // namespace qiset

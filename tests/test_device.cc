// Device model tests: calibration storage and the synthetic Aspen-8 /
// Sycamore generators.

#include <gtest/gtest.h>

#include "common/error.h"
#include "device/device.h"

namespace qiset {
namespace {

TEST(Device, EdgeFidelityRoundTrip)
{
    Device d("toy", Topology::line(3));
    d.setEdgeFidelity(0, 1, "CZ", 0.93);
    EXPECT_NEAR(d.edgeFidelity(0, 1, "CZ"), 0.93, 1e-12);
    // Unordered lookup.
    EXPECT_NEAR(d.edgeFidelity(1, 0, "CZ"), 0.93, 1e-12);
    // Unknown type or edge: zero.
    EXPECT_EQ(d.edgeFidelity(0, 1, "XY"), 0.0);
    EXPECT_EQ(d.edgeFidelity(1, 2, "CZ"), 0.0);
    EXPECT_GT(d.edgeFidelity(0, 1, "CZ"), 0.0);
    // Uncoupled or out-of-range pairs read zero too.
    for (auto [a, b] : {std::pair{0, 2}, {5, 0}, {-1, 0}, {0, 5}, {1, 1}})
        EXPECT_EQ(d.edgeFidelity(a, b, "CZ"), 0.0) << a << "," << b;

    // The same cell by id.
    int edge = d.edgeId(1, 0);
    int type = d.gateTypeId("CZ");
    EXPECT_EQ(edge, 0);
    EXPECT_EQ(type, 0);
    EXPECT_EQ(d.edgeFidelity(edge, type), d.edgeFidelity(0, 1, "CZ"));
    EXPECT_EQ(d.edgeId(2, 1), 1);
    EXPECT_EQ(d.gateTypeId("XY"), -1);

    // Type columns stay in name order, and a new column keeps every
    // cell set before it.
    d.setEdgeFidelity(1, 2, "S4", 0.94);
    d.setEdgeFidelity(0, 1, "BB", 0.92);
    EXPECT_EQ(d.gateTypeId("BB"), 0);
    EXPECT_EQ(d.gateTypeId("CZ"), 1);
    EXPECT_EQ(d.gateTypeId("S4"), 2);
    EXPECT_EQ(d.edgeFidelity(0, 1, "CZ"), 0.93);
    EXPECT_EQ(d.edgeFidelity(1, 2, "S4"), 0.94);
    EXPECT_EQ(d.edgeFidelity(0, 1, "S4"), 0.0);
}

TEST(Device, RejectsNonCoupledPairs)
{
    Device d("toy", Topology::line(3));
    for (auto [a, b] : {std::pair{0, 2}, {5, 0}, {-1, 0}, {0, 5}, {1, 1}}) {
        EXPECT_THROW(d.setEdgeFidelity(a, b, "CZ", 0.9), FatalError)
            << a << "," << b;
        EXPECT_EQ(d.edgeId(a, b), -1) << a << "," << b;
    }
}

TEST(Device, UniformGateTypeAblation)
{
    Device d("toy", Topology::line(2));
    d.setEdgeFidelity(0, 1, "S1", 0.99);
    d.setEdgeFidelity(0, 1, "S2", 0.90);
    Device uniform = d.withUniformGateTypes("S1");
    EXPECT_NEAR(uniform.edgeFidelity(0, 1, "S2"), 0.99, 1e-12);
    // Original untouched.
    EXPECT_NEAR(d.edgeFidelity(0, 1, "S2"), 0.90, 1e-12);
}

TEST(Device, ScaledErrors)
{
    Device d("toy", Topology::line(2));
    d.setEdgeFidelity(0, 1, "S1", 0.99);
    Device scaled = d.withScaledTwoQubitErrors(2.0);
    EXPECT_NEAR(scaled.edgeFidelity(0, 1, "S1"), 0.98, 1e-12);
    Device half = d.withScaledTwoQubitErrors(0.5);
    EXPECT_NEAR(half.edgeFidelity(0, 1, "S1"), 0.995, 1e-12);
}

TEST(Device, NoiseModelForSubsetPreservesOrder)
{
    Device d("toy", Topology::line(3));
    QubitNoise qn0;
    qn0.t1_ns = 111.0;
    QubitNoise qn2;
    qn2.t1_ns = 333.0;
    d.setQubitNoise(0, qn0);
    d.setQubitNoise(2, qn2);
    NoiseModel model = d.noiseModelFor({2, 0});
    EXPECT_NEAR(model.qubit(0).t1_ns, 333.0, 1e-12);
    EXPECT_NEAR(model.qubit(1).t1_ns, 111.0, 1e-12);
}

TEST(Aspen8, MatchesPaperDescription)
{
    Rng rng(1);
    Device d = makeAspen8(rng);
    EXPECT_EQ(d.numQubits(), 30);
    EXPECT_TRUE(d.topology().connected());

    // Fig. 3 hardcoded ring-0 values.
    EXPECT_NEAR(d.edgeFidelity(0, 1, "S3"), 0.86, 1e-12);
    EXPECT_NEAR(d.edgeFidelity(0, 1, "S4"), 0.0, 1e-12);
    EXPECT_NEAR(d.edgeFidelity(2, 3, "S4"), 0.97, 1e-12);
    EXPECT_NEAR(d.edgeFidelity(6, 7, "S4"), 0.70, 1e-12);
    EXPECT_NEAR(d.edgeFidelity(7, 0, "S3"), 0.96, 1e-12);

    // Arbitrary-angle XY types live in the 95-99% band everywhere.
    for (auto [a, b] : d.topology().edges()) {
        double f = d.edgeFidelity(a, b, "XY");
        EXPECT_GE(f, 0.95);
        EXPECT_LE(f, 0.99);
        // CZ is calibrated on every edge.
        EXPECT_GT(d.edgeFidelity(a, b, "S3"), 0.8);
    }
}

TEST(Aspen8, SomeXyEdgesUnavailable)
{
    Rng rng(2);
    Device d = makeAspen8(rng);
    int unavailable = 0;
    for (auto [a, b] : d.topology().edges())
        if (d.edgeFidelity(a, b, "S4") == 0.0)
            ++unavailable;
    EXPECT_GT(unavailable, 0);
    EXPECT_LT(unavailable, d.topology().numEdges());
}

TEST(Sycamore, MatchesPaperDescription)
{
    Rng rng(3);
    Device d = makeSycamore(rng);
    EXPECT_EQ(d.numQubits(), 54);
    EXPECT_TRUE(d.topology().connected());

    // Every studied gate type calibrated on every edge, error within
    // the truncation band.
    for (auto [a, b] : d.topology().edges()) {
        for (const char* type : {"S1", "S4", "SWAP", "fSim"}) {
            double err = 1.0 - d.edgeFidelity(a, b, type);
            EXPECT_GE(err, 0.0005);
            EXPECT_LE(err, 0.03);
        }
    }

    // Mean SYC error near 0.62%.
    double mean_err = 1.0 - d.meanEdgeFidelity("S1");
    EXPECT_NEAR(mean_err, 0.0062, 0.0015);
}

TEST(Sycamore, GateTypesVaryPerEdge)
{
    Rng rng(4);
    Device d = makeSycamore(rng);
    // Cross-gate-type noise variation is the point of Fig. 10b vs 10e:
    // S1 and S2 fidelities must differ on most edges.
    int differing = 0;
    for (auto [a, b] : d.topology().edges())
        if (std::abs(d.edgeFidelity(a, b, "S1") -
                     d.edgeFidelity(a, b, "S2")) > 1e-6)
            ++differing;
    EXPECT_GT(differing, d.topology().numEdges() / 2);

    // And the ablated copy removes the variation.
    Device uniform = d.withUniformGateTypes("S1");
    for (auto [a, b] : uniform.topology().edges())
        EXPECT_NEAR(uniform.edgeFidelity(a, b, "S2"),
                    uniform.edgeFidelity(a, b, "S1"), 1e-12);
}

TEST(Device, ScaledNoiseAffectsEverything)
{
    Device d("toy", Topology::line(2));
    d.setEdgeFidelity(0, 1, "S1", 0.99);
    d.setOneQubitError(0, 0.002);
    QubitNoise qn;
    qn.t1_ns = 10e3;
    qn.t2_ns = 8e3;
    qn.readout_p01 = 0.02;
    d.setQubitNoise(0, qn);

    Device better = d.withScaledNoise(0.5);
    EXPECT_NEAR(better.edgeFidelity(0, 1, "S1"), 0.995, 1e-12);
    EXPECT_NEAR(better.oneQubitError(0), 0.001, 1e-12);
    EXPECT_NEAR(better.qubitNoise(0).t1_ns, 20e3, 1e-9);
    EXPECT_NEAR(better.qubitNoise(0).readout_p01, 0.01, 1e-12);
}

TEST(Device, DriftedCalibrationStaysBounded)
{
    Rng rng(9);
    Device d = makeSycamore(rng);
    Device drifted = d.withDriftedCalibration(rng, 3.0);
    int changed = 0;
    for (auto [a, b] : d.topology().edges()) {
        double e0 = 1.0 - d.edgeFidelity(a, b, "S1");
        double e1 = 1.0 - drifted.edgeFidelity(a, b, "S1");
        EXPECT_GE(e1, e0 / 3.0 - 1e-12);
        EXPECT_LE(e1, std::min(1.0, 3.0 * e0) + 1e-12);
        if (std::abs(e1 - e0) > 1e-9)
            ++changed;
    }
    EXPECT_GT(changed, d.topology().numEdges() / 2);
}

TEST(Device, DriftDependsOnlyOnTheCalibration)
{
    // Two devices with the same values: one filled in makeSycamore's
    // order, one with its edges and types visited in reverse.
    Rng rng(9);
    Device forward = makeSycamore(rng);
    const std::vector<std::string> types = {
        "S1", "S2", "S3", "S4", "S5", "S6", "S7", "SWAP", "fSim", "CZt"};
    const auto edges = forward.topology().edges();
    Device reverse("Sycamore", forward.topology());
    for (auto edge = edges.rbegin(); edge != edges.rend(); ++edge)
        for (auto type = types.rbegin(); type != types.rend(); ++type)
            reverse.setEdgeFidelity(
                edge->second, edge->first, *type,
                forward.edgeFidelity(edge->first, edge->second, *type));

    // Equal tables...
    for (const std::string& type : types) {
        int id = forward.gateTypeId(type);
        ASSERT_GE(id, 0) << type;
        ASSERT_EQ(reverse.gateTypeId(type), id) << type;
        for (int e = 0; e < static_cast<int>(edges.size()); ++e)
            ASSERT_EQ(reverse.edgeFidelity(e, id), forward.edgeFidelity(e, id))
                << type << " on edge " << e;
    }

    // ...drift to bitwise-equal snapshots under one seed.
    Rng drift_forward(2021), drift_reverse(2021);
    for (int snapshot = 0; snapshot < 2; ++snapshot) {
        Device a = forward.withDriftedCalibration(drift_forward, 3.0);
        Device b = reverse.withDriftedCalibration(drift_reverse, 3.0);
        int moved = 0;
        for (const std::string& type : types) {
            int id = a.gateTypeId(type);
            for (int e = 0; e < static_cast<int>(edges.size()); ++e) {
                EXPECT_EQ(a.edgeFidelity(e, id), b.edgeFidelity(e, id))
                    << type << " on edge " << e << ", snapshot "
                    << snapshot;
                moved += a.edgeFidelity(e, id) != forward.edgeFidelity(e, id);
            }
            EXPECT_EQ(a.meanEdgeFidelity(type), b.meanEdgeFidelity(type))
                << type << ", snapshot " << snapshot;
        }
        EXPECT_GT(moved, static_cast<int>(edges.size() * types.size()) / 2);
    }
    for (const std::string& type : types)
        EXPECT_EQ(forward.meanEdgeFidelity(type),
                  reverse.meanEdgeFidelity(type))
            << type;
}

TEST(Device, UnitScalingIsIdentity)
{
    Rng rng(11);
    Device d = makeSycamore(rng);
    Device same = d.withScaledTwoQubitErrors(1.0);
    for (auto [a, b] : d.topology().edges())
        EXPECT_NEAR(same.edgeFidelity(a, b, "S1"),
                    d.edgeFidelity(a, b, "S1"), 1e-15);
}

TEST(Device, FamilyFidelityDominatesMembers)
{
    // The continuous-family key must be >= every member type on each
    // edge (DESIGN.md substitution model).
    Rng rng(12);
    Device syc = makeSycamore(rng);
    for (auto [a, b] : syc.topology().edges()) {
        double family = syc.edgeFidelity(a, b, "fSim");
        for (const char* member :
             {"S1", "S2", "S3", "S4", "S5", "S6", "S7", "SWAP"})
            EXPECT_GE(family + 1e-12,
                      syc.edgeFidelity(a, b, member));
        EXPECT_GE(syc.edgeFidelity(a, b, "CZt") + 1e-12,
                  syc.edgeFidelity(a, b, "S3"));
    }

    Device aspen = makeAspen8(rng);
    for (auto [a, b] : aspen.topology().edges()) {
        double family = aspen.edgeFidelity(a, b, "XY");
        for (const char* member : {"S2", "S5", "S6"})
            EXPECT_GE(family + 1e-12,
                      aspen.edgeFidelity(a, b, member));
    }
}

TEST(Devices, DeterministicUnderSeed)
{
    Rng rng_a(7), rng_b(7);
    Device a = makeSycamore(rng_a);
    Device b = makeSycamore(rng_b);
    for (auto [x, y] : a.topology().edges())
        EXPECT_EQ(a.edgeFidelity(x, y, "S1"), b.edgeFidelity(x, y, "S1"));
}

} // namespace
} // namespace qiset

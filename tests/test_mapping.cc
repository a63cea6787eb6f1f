// Qubit-mapping pass tests.

#include <algorithm>

#include <gtest/gtest.h>

#include "common/error.h"
#include "compiler/mapping.h"

namespace qiset {
namespace {

Device
toyDevice()
{
    Device d("toy", Topology::line(5));
    // Edge fidelities ramp upward: best edge is (3, 4).
    d.setEdgeFidelity(0, 1, "S3", 0.90);
    d.setEdgeFidelity(1, 2, "S3", 0.92);
    d.setEdgeFidelity(2, 3, "S3", 0.94);
    d.setEdgeFidelity(3, 4, "S3", 0.99);
    return d;
}

TEST(Mapping, FidelityKeysIncludeFamilies)
{
    auto keys = fidelityKeys(isa::fullXy());
    EXPECT_NE(std::find(keys.begin(), keys.end(), "XY"), keys.end());
    EXPECT_NE(std::find(keys.begin(), keys.end(), "S3"), keys.end());

    keys = fidelityKeys(isa::fullFsim());
    EXPECT_NE(std::find(keys.begin(), keys.end(), "fSim"), keys.end());

    keys = fidelityKeys(isa::googleSet(2));
    EXPECT_EQ(keys.size(), 3u);
}

TEST(Mapping, BestEdgeFidelityTakesMaxOverTypes)
{
    Device d("toy", Topology::line(2));
    d.setEdgeFidelity(0, 1, "S3", 0.86);
    d.setEdgeFidelity(0, 1, "S4", 0.95);
    GateSet set = isa::rigettiSet(1); // {S3, S4}
    EXPECT_NEAR(bestEdgeFidelity(d, d.edgeId(0, 1), fidelityTypeIds(d, set)),
                0.95, 1e-12);
    // An uncoupled pair has no edge id and reads zero.
    EXPECT_EQ(bestEdgeFidelity(d, d.edgeId(0, 0), fidelityTypeIds(d, set)),
              0.0);
}

TEST(Mapping, SeedsOnBestEdge)
{
    Device d = toyDevice();
    GateSet set = isa::singleTypeSet(3); // CZ only
    auto mapping = chooseMapping(d, 2, set);
    std::sort(mapping.begin(), mapping.end());
    EXPECT_EQ(mapping[0], 3);
    EXPECT_EQ(mapping[1], 4);
}

TEST(Mapping, SubgraphIsConnected)
{
    Rng rng(5);
    Device d = makeSycamore(rng);
    GateSet set = isa::googleSet(3);
    for (int n : {2, 4, 6, 10}) {
        auto mapping = chooseMapping(d, n, set);
        EXPECT_EQ(static_cast<int>(mapping.size()), n);
        Topology sub = d.topology().inducedSubgraph(mapping);
        EXPECT_TRUE(sub.connected()) << "n=" << n;
    }
}

TEST(Mapping, NoDuplicatePhysicalQubits)
{
    Rng rng(6);
    Device d = makeAspen8(rng);
    auto mapping = chooseMapping(d, 8, isa::rigettiSet(3));
    std::sort(mapping.begin(), mapping.end());
    EXPECT_EQ(std::adjacent_find(mapping.begin(), mapping.end()),
              mapping.end());
}

TEST(Mapping, RejectsOversizedCircuits)
{
    Device d = toyDevice();
    EXPECT_THROW(chooseMapping(d, 6, isa::singleTypeSet(3)), FatalError);
}

TEST(Mapping, SingleQubitCircuit)
{
    Device d = toyDevice();
    auto mapping = chooseMapping(d, 1, isa::singleTypeSet(3));
    EXPECT_EQ(mapping.size(), 1u);
}

} // namespace
} // namespace qiset

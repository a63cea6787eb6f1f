// Schedule IR tests: ASAP/ALAP invariants, per-moment frontiers,
// timing, and invalidation when the circuit is rewritten (structure
// stamps).

#include <gtest/gtest.h>

#include "apps/qft.h"
#include "apps/qv.h"
#include "circuit/schedule.h"
#include "common/error.h"
#include "common/rng.h"
#include "compiler/routing.h"
#include "qc/gates.h"

namespace qiset {
namespace {

using namespace gates;

TEST(Schedule, AsapMomentsOfKnownCircuit)
{
    // 0-1 and 2-3 commute into moment 0; 1-2 depends on both.
    Circuit c(4);
    c.add2q(0, 1, cz(), "CZ");
    c.add2q(2, 3, cz(), "CZ");
    c.add2q(1, 2, cz(), "CZ");
    c.add1q(0, hadamard(), "H");

    Schedule schedule(c);
    ASSERT_TRUE(schedule.valid());
    EXPECT_EQ(schedule.numOps(), 4u);
    EXPECT_EQ(schedule.depth(), 2);
    EXPECT_EQ(schedule.asapMoment(0), 0);
    EXPECT_EQ(schedule.asapMoment(1), 0);
    EXPECT_EQ(schedule.asapMoment(2), 1);
    EXPECT_EQ(schedule.asapMoment(3), 1); // H waits for the 0-1 CZ
}

TEST(Schedule, DepthMatchesCircuitDepth)
{
    Rng rng(321);
    Circuit qv = makeQuantumVolumeCircuit(5, rng);
    Schedule schedule(qv);
    EXPECT_EQ(schedule.depth(), qv.depth());

    Circuit qft = makeQftCircuit(6);
    EXPECT_EQ(Schedule(qft).depth(), qft.depth());
}

TEST(Schedule, AlapInvariants)
{
    Rng rng(322);
    Circuit c = makeQuantumVolumeCircuit(4, rng);
    Schedule schedule(c);

    // ALAP never schedules earlier than ASAP and never past the last
    // moment; slack is their gap.
    for (size_t i = 0; i < schedule.numOps(); ++i) {
        EXPECT_LE(schedule.asapMoment(i), schedule.alapMoment(i));
        EXPECT_LT(schedule.alapMoment(i), schedule.depth());
        EXPECT_GE(schedule.asapMoment(i), 0);
        EXPECT_EQ(schedule.slack(i),
                  schedule.alapMoment(i) - schedule.asapMoment(i));
    }

    // Both directions agree on the critical path: some op sits at
    // slack zero in every moment of a maximal chain.
    int zero_slack = 0;
    for (size_t i = 0; i < schedule.numOps(); ++i)
        if (schedule.slack(i) == 0)
            ++zero_slack;
    EXPECT_GE(zero_slack, schedule.depth());
}

TEST(Schedule, AlapOfChainEqualsAsap)
{
    // A pure dependency chain has no slack anywhere.
    Circuit c(3);
    c.add2q(0, 1, cz(), "CZ");
    c.add2q(1, 2, cz(), "CZ");
    c.add2q(0, 1, cz(), "CZ");
    Schedule schedule(c);
    for (size_t i = 0; i < schedule.numOps(); ++i)
        EXPECT_EQ(schedule.slack(i), 0) << "op " << i;
}

TEST(Schedule, ShortParallelBranchHasSlack)
{
    Circuit c(3);
    c.add2q(0, 1, cz(), "CZ");
    c.add2q(0, 1, cz(), "CZ");
    c.add1q(2, hadamard(), "H"); // free to run in either moment
    Schedule schedule(c);
    EXPECT_EQ(schedule.depth(), 2);
    EXPECT_EQ(schedule.asapMoment(2), 0);
    EXPECT_EQ(schedule.alapMoment(2), 1);
    EXPECT_EQ(schedule.slack(2), 1);
}

TEST(Schedule, MomentsAndFrontierPartitionTheCircuit)
{
    Rng rng(323);
    Circuit c = makeQuantumVolumeCircuit(5, rng);
    c.add1q(0, hadamard(), "H");
    Schedule schedule(c);

    ASSERT_EQ(schedule.moments().size(),
              static_cast<size_t>(schedule.depth()));
    ASSERT_EQ(schedule.twoQubitFrontier().size(),
              static_cast<size_t>(schedule.depth()));

    size_t seen = 0;
    for (int m = 0; m < schedule.depth(); ++m) {
        const auto& moment = schedule.moments()[m];
        EXPECT_FALSE(moment.empty()) << "empty moment " << m;
        // No two ops of one moment may share a qubit.
        std::vector<bool> used(c.numQubits(), false);
        for (size_t op : moment) {
            EXPECT_EQ(schedule.asapMoment(op), m);
            for (int q : c.ops()[op].qubits()) {
                EXPECT_FALSE(used[q]) << "qubit collision in moment";
                used[q] = true;
            }
        }
        // The frontier is exactly the moment's 2Q subset, in order.
        std::vector<size_t> expected_frontier;
        for (size_t op : moment)
            if (c.ops()[op].isTwoQubit())
                expected_frontier.push_back(op);
        MomentView frontier = schedule.twoQubitFrontier()[m];
        std::vector<size_t> actual_frontier(frontier.begin(),
                                            frontier.end());
        EXPECT_EQ(actual_frontier, expected_frontier);
        seen += moment.size();
    }
    EXPECT_EQ(seen, c.size());
    EXPECT_GE(schedule.maxParallelTwoQubit(), 1u);
}

TEST(Schedule, StartTimesRespectDurations)
{
    Circuit c(3);
    c.add2q(0, 1, cz(), "CZ");
    c.add2q(1, 2, cz(), "CZ");
    c.add1q(2, hadamard(), "H");
    auto ops = c.mutableOps();
    ops[0].setDurationNs(30.0);
    ops[1].setDurationNs(40.0);
    ops[2].setDurationNs(10.0);

    Schedule schedule(c);
    EXPECT_DOUBLE_EQ(schedule.startTimeNs(0), 0.0);
    EXPECT_DOUBLE_EQ(schedule.startTimeNs(1), 30.0);
    EXPECT_DOUBLE_EQ(schedule.startTimeNs(2), 70.0);
    EXPECT_DOUBLE_EQ(schedule.durationNs(), 80.0);
    EXPECT_DOUBLE_EQ(schedule.durationNs(), c.scheduledDurationNs());
}

TEST(Schedule, InvalidationAfterSwapInsertion)
{
    // Routing rewrites the circuit; a schedule built before must
    // report itself stale and rebuild cleanly.
    Circuit logical(3);
    logical.add2q(0, 2, cz(), "CZ"); // non-adjacent on a line
    Schedule schedule(logical);
    ASSERT_TRUE(schedule.consistentWith(logical));

    RoutedCircuit routed = routeCircuit(logical, Topology::line(3));
    ASSERT_GT(routed.swaps_inserted, 0);
    EXPECT_FALSE(schedule.consistentWith(routed.circuit));

    schedule.build(routed.circuit);
    EXPECT_TRUE(schedule.consistentWith(routed.circuit));
    EXPECT_EQ(schedule.numOps(), routed.circuit.size());
}

TEST(Schedule, ErrorRateEditsKeepScheduleConsistent)
{
    // Crosstalk inflation rewrites error rates only; the moment
    // structure must stay valid so passes can share one schedule.
    Circuit c(2);
    c.add2q(0, 1, cz(), "CZ");
    Schedule schedule(c);
    c.mutableOps()[0].setErrorRate(0.5);
    EXPECT_TRUE(schedule.consistentWith(c));

    // Changing the qubit structure breaks consistency...
    Circuit widened(2);
    widened.add2q(1, 0, cz(), "CZ");
    EXPECT_FALSE(schedule.consistentWith(widened));

    // ...and so does changing a duration (timing went stale).
    c.mutableOps()[0].setDurationNs(25.0);
    EXPECT_FALSE(schedule.consistentWith(c));
}

TEST(Schedule, ExplicitInvalidateAndRejectsUseBeforeBuild)
{
    Circuit c(2);
    c.add2q(0, 1, cz(), "CZ");
    Schedule schedule(c);
    schedule.invalidate();
    EXPECT_FALSE(schedule.valid());
    EXPECT_FALSE(schedule.consistentWith(c));
    EXPECT_THROW(schedule.asapMoment(0), FatalError);

    Schedule unbuilt;
    EXPECT_FALSE(unbuilt.valid());
    EXPECT_THROW(unbuilt.alapMoment(0), FatalError);
    EXPECT_THROW(unbuilt.startTimeNs(0), FatalError);
}

TEST(Schedule, StructuralEditsMakeBuiltScheduleStale)
{
    // Every append path and every duration edit renews the circuit's
    // structure stamp, so a schedule built before reads as stale.
    Circuit c(3);
    c.add2q(0, 1, cz(), "CZ");
    Schedule schedule(c);
    ASSERT_TRUE(schedule.consistentWith(c));

    c.add1q(2, hadamard(), "H");
    EXPECT_FALSE(schedule.consistentWith(c)) << "add1q";
    schedule.build(c);
    c.add2q(1, 2, cz(), "CZ");
    EXPECT_FALSE(schedule.consistentWith(c)) << "add2q";
    schedule.build(c);
    c.add(Operation{Qubits(0), hadamard(), "H", 0.0, 0.0});
    EXPECT_FALSE(schedule.consistentWith(c)) << "add(Operation)";
    schedule.build(c);
    c.add(c.ops()[0], Qubits(2, 0));
    EXPECT_FALSE(schedule.consistentWith(c)) << "add(op, remapped)";
    schedule.build(c);
    Circuit tail(3);
    tail.add2q(0, 2, cz(), "CZ");
    c.append(tail);
    EXPECT_FALSE(schedule.consistentWith(c)) << "append";
    schedule.build(c);
    ASSERT_TRUE(schedule.consistentWith(c));
    c.mutableOps()[1].setDurationNs(40.0);
    EXPECT_FALSE(schedule.consistentWith(c)) << "setDurationNs";
}

TEST(Schedule, AnnotationEditsKeepScheduleConsistent)
{
    Circuit c(2);
    c.add2q(0, 1, cz(), "CZ");
    c.add1q(0, hadamard(), "H");
    Schedule schedule(c);
    auto ops = c.mutableOps();
    ops[0].setErrorRate(0.25);
    ops[0].setUnitary(iswap());
    ops[1].setLabel("H2");
    ops[1].setLabel(internLabel("H3"));
    c.mutableErrorRates()[1] = 0.125;
    EXPECT_TRUE(schedule.consistentWith(c));
}

TEST(Schedule, CopiesStayConsistentMovedFromCircuitsDoNot)
{
    Circuit c(2);
    c.add2q(0, 1, cz(), "CZ");
    Schedule schedule(c);

    Circuit copy(c);
    EXPECT_TRUE(schedule.consistentWith(copy));
    Circuit assigned(1);
    assigned = c;
    EXPECT_TRUE(schedule.consistentWith(assigned));

    // A copy edited afterwards goes stale on its own; the source stays.
    copy.add1q(0, hadamard(), "H");
    EXPECT_FALSE(schedule.consistentWith(copy));
    EXPECT_TRUE(schedule.consistentWith(c));

    Circuit moved(std::move(c));
    EXPECT_TRUE(schedule.consistentWith(moved));
    EXPECT_FALSE(schedule.consistentWith(c)); // moved-from
    Circuit move_assigned(1);
    move_assigned = std::move(moved);
    EXPECT_TRUE(schedule.consistentWith(move_assigned));
    EXPECT_FALSE(schedule.consistentWith(moved)); // moved-from

    // Equal structure alone is not enough: a circuit built the same
    // way, but not a copy, reads as stale and rebuilds.
    Circuit twin(2);
    twin.add2q(0, 1, cz(), "CZ");
    EXPECT_FALSE(schedule.consistentWith(twin));
}

TEST(Schedule, EmptyCircuit)
{
    Circuit c(2);
    Schedule schedule(c);
    EXPECT_TRUE(schedule.valid());
    EXPECT_EQ(schedule.depth(), 0);
    EXPECT_EQ(schedule.numOps(), 0u);
    EXPECT_DOUBLE_EQ(schedule.durationNs(), 0.0);
    EXPECT_EQ(schedule.maxParallelTwoQubit(), 0u);
}

} // namespace
} // namespace qiset

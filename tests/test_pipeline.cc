// End-to-end compilation + simulation integration tests.

#include <gtest/gtest.h>

#include "apps/qaoa.h"
#include "apps/qft.h"
#include "apps/qv.h"
#include "common/error.h"
#include "compiler/pipeline.h"
#include "metrics/metrics.h"
#include "qc/gates.h"
#include "sim/statevector.h"

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

TEST(Pipeline, CompiledNoiselessCircuitMatchesIdeal)
{
    // Build a perfect device: compiling must preserve semantics
    // exactly (up to the tracked output permutation).
    Device d("perfect", Topology::line(3));
    for (auto [a, b] : d.topology().edges()) {
        d.setEdgeFidelity(a, b, "S3", 1.0);
        d.setEdgeFidelity(a, b, "S4", 1.0);
    }
    QubitNoise noiseless;
    noiseless.t1_ns = 1e15;
    noiseless.t2_ns = 1e15;
    for (int q = 0; q < 3; ++q)
        d.setQubitNoise(q, noiseless);

    Rng rng(81);
    Circuit app = makeQuantumVolumeCircuit(3, rng);

    ProfileCache cache;
    CompileOptions opts = fastCompile();
    opts.approximate = false;
    CompileResult result =
        compileCircuit(app, d, isa::rigettiSet(1), cache, opts);

    auto ideal = idealProbabilities(app);
    auto compiled = simulateCompiled(result);
    // Exact decompositions carry up to sqrt(1 - threshold) amplitude
    // error each; allow the accumulated slack.
    for (size_t i = 0; i < ideal.size(); ++i)
        EXPECT_NEAR(compiled[i], ideal[i], 2e-3) << "outcome " << i;
}

TEST(Pipeline, NoisyCompilationDegradesGracefully)
{
    Rng rng(82);
    Device d = makeSycamore(rng);
    Circuit app = makeQuantumVolumeCircuit(3, rng);

    ProfileCache cache;
    CompileResult result =
        compileCircuit(app, d, isa::googleSet(3), cache, fastCompile());

    auto ideal = idealProbabilities(app);
    auto noisy = simulateCompiled(result);

    double hop_ideal = heavyOutputProbability(ideal, ideal);
    double hop_noisy = heavyOutputProbability(ideal, noisy);
    EXPECT_LT(hop_noisy, hop_ideal + 1e-9);
    EXPECT_GT(hop_noisy, 0.4); // still far from fully depolarized
}

TEST(Pipeline, NativeSwapReducesInstructionCount)
{
    Rng rng(83);
    Device d = makeSycamore(rng);
    // QFT has long-range CPhases: routing inserts SWAPs on the grid.
    Circuit app = makeQftCircuit(5);

    ProfileCache cache;
    CompileOptions opts = fastCompile();
    CompileResult without_swap =
        compileCircuit(app, d, isa::googleSet(6), cache, opts);
    CompileResult with_swap =
        compileCircuit(app, d, isa::googleSet(7), cache, opts);

    if (with_swap.swaps_inserted > 0) {
        EXPECT_LT(with_swap.two_qubit_count,
                  without_swap.two_qubit_count);
        EXPECT_GT(with_swap.type_usage.count("SWAP"), 0u);
    }
}

TEST(Pipeline, IntraCircuitParallelismBitIdenticalAcrossCaps)
{
    // Full pipeline through compileCircuit with a worker pool: every
    // intra_circuit_parallelism setting must reproduce the serial
    // compile bit-for-bit (cold cache per variant, so nothing is
    // shared between runs but the inputs).
    Rng rng(84);
    Device d = makeSycamore(rng);
    Circuit app = makeQuantumVolumeCircuit(4, rng);
    GateSet set = isa::googleSet(3);

    auto compile = [&](ThreadPool* pool, size_t cap) {
        ProfileCache cold;
        CompileOptions opts = fastCompile();
        opts.intra_circuit_parallelism = cap;
        return compileCircuit(app, d, set, cold, opts, pool);
    };

    CompileResult serial = compile(nullptr, 0);
    ThreadPool pool(4);
    for (size_t cap : {size_t(0), size_t(1), size_t(2)}) {
        SCOPED_TRACE("cap " + std::to_string(cap));
        CompileResult parallel = compile(&pool, cap);
        EXPECT_EQ(serial.physical, parallel.physical);
        EXPECT_EQ(serial.final_positions, parallel.final_positions);
        EXPECT_EQ(serial.swaps_inserted, parallel.swaps_inserted);
        EXPECT_EQ(serial.two_qubit_count, parallel.two_qubit_count);
        EXPECT_EQ(serial.type_usage, parallel.type_usage);
        EXPECT_DOUBLE_EQ(serial.estimated_fidelity,
                         parallel.estimated_fidelity);
        ASSERT_EQ(serial.circuit.size(), parallel.circuit.size());
        for (size_t i = 0; i < serial.circuit.size(); ++i) {
            ConstOpRef x = serial.circuit.ops()[i];
            ConstOpRef y = parallel.circuit.ops()[i];
            EXPECT_EQ(x.qubits(), y.qubits());
            EXPECT_EQ(x.labelId(), y.labelId());
            EXPECT_EQ(x.unitary().maxAbsDiff(y.unitary()), 0.0);
        }
    }
}

TEST(Pipeline, EstimatedFidelityIsProbability)
{
    Rng rng(84);
    Device d = makeAspen8(rng);
    Circuit app = makeRandomQaoaCircuit(4, rng);
    ProfileCache cache;
    CompileOptions approx = fastCompile();
    CompileResult result =
        compileCircuit(app, d, isa::rigettiSet(3), cache, approx);
    EXPECT_GT(result.estimated_fidelity, 0.0);
    EXPECT_LE(result.estimated_fidelity, 1.0);

    // Exact mode must realize every ZZ with real entangling gates
    // (approximate mode may legally drop near-identity interactions
    // on hardware this noisy, Eq. 2).
    CompileOptions exact = approx;
    exact.approximate = false;
    CompileResult exact_result =
        compileCircuit(app, d, isa::rigettiSet(3), cache, exact);
    EXPECT_GT(exact_result.two_qubit_count, 0);
    // And Eq. 2 guarantees the approximate pick estimates at least as
    // high an overall fidelity.
    EXPECT_GE(result.estimated_fidelity,
              exact_result.estimated_fidelity - 1e-9);
}

TEST(Pipeline, SharedCacheAcrossGateSets)
{
    Rng rng(85);
    Device d = makeSycamore(rng);
    Circuit app = makeRandomQaoaCircuit(4, rng);
    ProfileCache cache;
    compileCircuit(app, d, isa::googleSet(1), cache, fastCompile());
    size_t after_first = cache.size();
    // G2 adds one type: only the new (target, type) pairs compute.
    compileCircuit(app, d, isa::googleSet(2), cache, fastCompile());
    size_t after_second = cache.size();
    EXPECT_GT(after_second, after_first);
    // S1/S2 profiles were reused, so growth is at most one per target.
    EXPECT_LE(after_second - after_first, after_first);
}

TEST(Pipeline, ConsolidationToggleAffectsCounts)
{
    Rng rng(87);
    Device d = makeSycamore(rng);
    // QFT's long-range CPhases force routing SWAPs, which fuse with
    // application gates only when consolidation is on.
    Circuit app = makeQftCircuit(5);
    ProfileCache cache;
    CompileOptions with = fastCompile();
    CompileOptions without = with;
    without.consolidate = false;
    CompileResult merged =
        compileCircuit(app, d, isa::googleSet(3), cache, with);
    CompileResult split =
        compileCircuit(app, d, isa::googleSet(3), cache, without);
    EXPECT_LE(merged.two_qubit_count, split.two_qubit_count);

    // Both still implement the same distribution (approximately).
    auto ideal = idealProbabilities(app);
    auto p_merged = simulateCompiled(merged);
    EXPECT_LT(totalVariationDistance(ideal, p_merged), 0.5);
}

TEST(Pipeline, SuccessRateMatchesPerfectCompilation)
{
    Device d("perfect", Topology::line(3));
    for (auto [a, b] : d.topology().edges())
        d.setEdgeFidelity(a, b, "S3", 1.0);
    QubitNoise noiseless;
    noiseless.t1_ns = 1e15;
    noiseless.t2_ns = 1e15;
    for (int q = 0; q < 3; ++q)
        d.setQubitNoise(q, noiseless);

    Rng rng(88);
    Circuit app = makeQuantumVolumeCircuit(3, rng);
    ProfileCache cache;
    CompileOptions opts = fastCompile();
    opts.approximate = false;
    opts.nuop.exact_threshold = 1.0 - 1e-8;
    CompileResult result =
        compileCircuit(app, d, isa::singleTypeSet(3), cache, opts);
    EXPECT_NEAR(simulateSuccessRate(result, app), 1.0, 1e-4);
}

TEST(Pipeline, SabreRoutingCompilesCorrectly)
{
    // End-to-end with options.routing = "sabre" on a perfect device:
    // the permuted start layout and tracked output permutation must
    // still reproduce the ideal state exactly.
    Device d("perfect", Topology::line(4));
    for (auto [a, b] : d.topology().edges())
        d.setEdgeFidelity(a, b, "S3", 1.0);
    QubitNoise noiseless;
    noiseless.t1_ns = 1e15;
    noiseless.t2_ns = 1e15;
    for (int q = 0; q < 4; ++q)
        d.setQubitNoise(q, noiseless);

    // Long-range CPhases force real routing on the line.
    Circuit app = makeQftCircuit(4);
    ProfileCache cache;
    CompileOptions opts = fastCompile();
    opts.routing = "sabre";
    opts.approximate = false;
    opts.nuop.exact_threshold = 1.0 - 1e-8;
    CompileResult result =
        compileCircuit(app, d, isa::singleTypeSet(3), cache, opts);
    EXPECT_NEAR(simulateSuccessRate(result, app), 1.0, 1e-4);
    ASSERT_EQ(result.initial_positions.size(), 4u);
}

TEST(Pipeline, SabreRoutingNeverWorseOnQft)
{
    Rng rng(91);
    Device d = makeSycamore(rng);
    Circuit app = makeQftCircuit(6);
    ProfileCache cache;
    CompileOptions greedy_opts = fastCompile();
    CompileOptions sabre_opts = greedy_opts;
    sabre_opts.routing = "sabre";
    CompileResult greedy =
        compileCircuit(app, d, isa::googleSet(3), cache, greedy_opts);
    CompileResult sabre =
        compileCircuit(app, d, isa::googleSet(3), cache, sabre_opts);
    EXPECT_LE(sabre.swaps_inserted, greedy.swaps_inserted);
}

TEST(Pipeline, UnknownRoutingStrategyFailsLoudly)
{
    Device d("line", Topology::line(2));
    for (auto [a, b] : d.topology().edges())
        d.setEdgeFidelity(a, b, "S3", 0.99);
    Circuit app(2);
    app.add2q(0, 1, gates::cz(), "CZ");
    ProfileCache cache;
    CompileOptions opts = fastCompile();
    opts.routing = "definitely-not-registered";
    EXPECT_THROW(
        compileCircuit(app, d, isa::rigettiSet(1), cache, opts),
        FatalError);
}

TEST(Pipeline, AutoDecompositionCompilesExactly)
{
    // End-to-end options.decomposition = "auto" on a perfect device:
    // the analytic engine must reproduce the ideal output exactly,
    // without any BFGS profile computation for CZ-class targets.
    Device d("perfect", Topology::line(4));
    for (auto [a, b] : d.topology().edges())
        d.setEdgeFidelity(a, b, "S3", 1.0);
    QubitNoise noiseless;
    noiseless.t1_ns = 1e15;
    noiseless.t2_ns = 1e15;
    for (int q = 0; q < 4; ++q)
        d.setQubitNoise(q, noiseless);

    Circuit app = makeQftCircuit(4);
    ProfileCache cache;
    CompileOptions opts = fastCompile();
    opts.decomposition = "auto";
    opts.approximate = false;
    CompileResult result =
        compileCircuit(app, d, isa::singleTypeSet(3), cache, opts);
    EXPECT_NEAR(simulateSuccessRate(result, app), 1.0, 1e-4);

    // The translation pass reported analytic coverage.
    double analytic = 0.0;
    for (const auto& metric : result.pass_metrics)
        if (metric.pass == "translation")
            analytic = metric.counters.at("analytic_ops");
    EXPECT_GT(analytic, 0.0);
}

TEST(Pipeline, UnknownDecompositionStrategyFailsLoudly)
{
    Device d("line", Topology::line(2));
    for (auto [a, b] : d.topology().edges())
        d.setEdgeFidelity(a, b, "S3", 0.99);
    Circuit app(2);
    app.add2q(0, 1, gates::cz(), "CZ");
    ProfileCache cache;
    CompileOptions opts = fastCompile();
    opts.decomposition = "definitely-not-registered";
    EXPECT_THROW(
        compileCircuit(app, d, isa::singleTypeSet(3), cache, opts),
        FatalError);
}

TEST(Pipeline, FullCphaseSetCompilesQaoaCheaply)
{
    // Nearest-neighbour MaxCut on a line device: no routing, so the
    // CZ(phi) family's one-gate-per-ZZ advantage is isolated.
    Device d("line4", Topology::line(4));
    for (auto [a, b] : d.topology().edges()) {
        d.setEdgeFidelity(a, b, "S3", 0.99);
        d.setEdgeFidelity(a, b, "CZt", 0.99);
    }
    Rng rng(89);
    Circuit app = makeQaoaCircuit(
        4, {{0, 1}, {1, 2}, {2, 3}}, rng);
    ProfileCache cache;
    CompileOptions opts = fastCompile();
    opts.approximate = false;
    CompileResult czt =
        compileCircuit(app, d, isa::fullCphase(), cache, opts);
    CompileResult cz_only =
        compileCircuit(app, d, isa::singleTypeSet(3), cache, opts);
    EXPECT_EQ(czt.two_qubit_count, 3);     // one CZ(phi) per ZZ
    EXPECT_EQ(cz_only.two_qubit_count, 6); // two CZs per ZZ
}

TEST(Pipeline, ReannotateErrorRatesUsesTruthDevice)
{
    Rng rng(90);
    Device stale = makeSycamore(rng);
    Device truth = stale.withDriftedCalibration(rng, 2.0);
    Circuit app = makeRandomQaoaCircuit(3, rng);
    ProfileCache cache;
    CompileResult result =
        compileCircuit(app, stale, isa::googleSet(2), cache,
                       fastCompile());
    reannotateErrorRates(result, truth);
    for (const auto& op : result.circuit.ops()) {
        if (!op.isTwoQubit())
            continue;
        int pa = result.physical[op.qubits()[0]];
        int pb = result.physical[op.qubits()[1]];
        EXPECT_NEAR(op.errorRate(),
                    1.0 - truth.edgeFidelity(pa, pb, op.label()),
                    1e-12);
    }
}

TEST(Pipeline, ContinuousFamilyCompiles)
{
    Rng rng(86);
    Device d = makeSycamore(rng);
    Circuit app = makeRandomQaoaCircuit(3, rng);
    ProfileCache cache;
    CompileOptions opts = fastCompile();
    opts.approximate = false; // keep every interaction entangling
    CompileResult result =
        compileCircuit(app, d, isa::fullFsim(), cache, opts);
    EXPECT_GT(result.two_qubit_count, 0);
    // All native 2Q gates must carry the family label.
    for (const auto& [type, count] : result.type_usage)
        EXPECT_EQ(type, "fSim");

    auto ideal = idealProbabilities(app);
    auto noisy = simulateCompiled(result);
    EXPECT_GT(crossEntropyDifference(ideal, noisy), 0.3);
}

} // namespace
} // namespace qiset

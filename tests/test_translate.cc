// NuOp translation pass tests: profiles, selection and emission.

#include <gtest/gtest.h>

#include <atomic>

#include "apps/qft.h"
#include "apps/qv.h"
#include "common/error.h"
#include "compiler/pipeline.h"
#include "compiler/translate.h"
#include "qc/gates.h"

namespace qiset {
namespace {

using namespace gates;

NuOpOptions
fastNuOp()
{
    NuOpOptions opts;
    opts.max_layers = 4;
    opts.multistarts = 3;
    opts.exact_threshold = 1.0 - 1e-6;
    return opts;
}

Device
twoQubitDevice(double cz_fid, double iswap_fid)
{
    Device d("pair", Topology::line(2));
    d.setEdgeFidelity(0, 1, "S3", cz_fid);
    d.setEdgeFidelity(0, 1, "S4", iswap_fid);
    d.setOneQubitError(0, 0.001);
    d.setOneQubitError(1, 0.001);
    return d;
}

TEST(ProfileCache, MemoizesAcrossCalls)
{
    NuOpDecomposer decomposer(fastNuOp());
    ProfileCache cache;
    GateSpec spec;
    spec.type_name = "S3";
    spec.unitary = cz();

    auto a = cache.get(zz(0.3), spec, decomposer);
    EXPECT_EQ(cache.size(), 1u);
    auto b = cache.get(zz(0.3), spec, decomposer);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(a.get(), b.get());
    // Different target: new entry.
    cache.get(zz(0.4), spec, decomposer);
    EXPECT_EQ(cache.size(), 2u);
    // The counters saw one hit and two computed profiles.
    ProfileCacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 2u);
}

TEST(ProfileCache, FitsStopAtExactThreshold)
{
    NuOpDecomposer decomposer(fastNuOp());
    ProfileCache cache;
    GateSpec spec;
    spec.type_name = "S3";
    spec.unitary = cz();
    auto profile = cache.get(zz(0.3), spec, decomposer);
    // ZZ with CZ is exact at 2 layers: fits = depths 0, 1, 2.
    ASSERT_EQ(profile->fits.size(), 3u);
    EXPECT_GE(profile->fits.back().fd, 1.0 - 1e-6);
    EXPECT_LT(profile->fits[1].fd, 1.0 - 1e-6);
}

TEST(SelectGate, PrefersHigherOverallFidelity)
{
    NuOpDecomposer decomposer(fastNuOp());
    ProfileCache cache;
    GateSpec cz_spec{"S3", TemplateFamily::Fixed, cz()};
    GateSpec isw_spec{"S4", TemplateFamily::Fixed, iswap()};
    Matrix target = zz(0.5);
    auto cz_profile = cache.get(target, cz_spec, decomposer);
    auto isw_profile = cache.get(target, isw_spec, decomposer);
    std::vector<const GateProfile*> profiles = {cz_profile.get(),
                                                isw_profile.get()};

    GateChoice pick_cz = selectGate(profiles, {0.99, 0.90}, 1.0, true,
                                    1.0 - 1e-6);
    EXPECT_EQ(pick_cz.profile->type_name, "S3");
    GateChoice pick_isw = selectGate(profiles, {0.90, 0.99}, 1.0, true,
                                     1.0 - 1e-6);
    EXPECT_EQ(pick_isw.profile->type_name, "S4");
}

TEST(SelectGate, SkipsUncalibratedTypes)
{
    NuOpDecomposer decomposer(fastNuOp());
    ProfileCache cache;
    GateSpec cz_spec{"S3", TemplateFamily::Fixed, cz()};
    GateSpec isw_spec{"S4", TemplateFamily::Fixed, iswap()};
    Matrix target = zz(0.5);
    auto cz_profile = cache.get(target, cz_spec, decomposer);
    auto isw_profile = cache.get(target, isw_spec, decomposer);
    std::vector<const GateProfile*> profiles = {cz_profile.get(),
                                                isw_profile.get()};
    GateChoice choice =
        selectGate(profiles, {0.0, 0.92}, 1.0, true, 1.0 - 1e-6);
    EXPECT_EQ(choice.profile->type_name, "S4");
}

TEST(SelectGate, BreaksExactTiesDeterministically)
{
    // Two gate types with bit-identical fit ladders and equal edge
    // fidelities: the selection must not depend on the order the
    // profiles are supplied in — fewer layers wins, then the
    // lexicographically smaller type name.
    GateProfile a;
    a.type_name = "S3";
    a.fits.push_back(LayerFit{2, 0.999, {}});
    a.fits.push_back(LayerFit{3, 0.999, {}});
    GateProfile b = a;
    b.type_name = "S4";

    GateChoice forward =
        selectGate({&a, &b}, {0.95, 0.95}, 1.0, true, 1.0 - 1e-6);
    GateChoice reversed =
        selectGate({&b, &a}, {0.95, 0.95}, 1.0, true, 1.0 - 1e-6);
    EXPECT_EQ(forward.profile->type_name, "S3");
    EXPECT_EQ(reversed.profile->type_name, "S3");
    EXPECT_EQ(forward.fit->layers, 2); // equal Fu would need equal Fh
    EXPECT_EQ(reversed.fit->layers, 2);

    // Within one profile, an exactly tied Fu prefers the shallower
    // fit even when the deeper one is listed first.
    GateProfile c;
    c.type_name = "S3";
    c.fits.push_back(LayerFit{3, 0.5, {}});
    c.fits.push_back(LayerFit{2, 0.5, {}});
    GateChoice depth = selectGate({&c}, {1.0}, 1.0, true, 1.0 - 1e-6);
    EXPECT_EQ(depth.fit->layers, 2);
}

TEST(Translate, EmittedCircuitImplementsTarget)
{
    Device d = twoQubitDevice(0.99, 0.98);
    GateSet set = isa::rigettiSet(1); // {CZ, iSWAP}
    NuOpDecomposer decomposer(fastNuOp());
    ProfileCache cache;

    Rng rng(71);
    Circuit logical(2);
    logical.add2q(0, 1, randomSu4(rng), "SU4");

    TranslateResult result =
        translateCircuit(logical, {0, 1}, d, set, decomposer, cache,
                         /*approximate=*/false);

    // Exact mode: compiled block must equal the target up to phase.
    Matrix compiled = result.circuit.unitary();
    Matrix target = logical.unitary();
    EXPECT_NEAR(traceFidelity(compiled, target), 1.0, 1e-5);
    EXPECT_EQ(result.two_qubit_count, 3);
}

TEST(Translate, BlocksOfOneFitShareTheirGates)
{
    Device d = twoQubitDevice(0.95, 0.0);
    GateSet set = isa::singleTypeSet(3);
    NuOpDecomposer decomposer(fastNuOp());
    ProfileCache cache;

    // Three blocks with equal bytes on one edge, the last reversed:
    // one slot, one fit.
    Circuit logical(2);
    logical.add2q(0, 1, zz(0.4), "ZZ");
    logical.add1q(0, hadamard(), "H");
    logical.add2q(0, 1, zz(0.4), "ZZ");
    logical.add2q(1, 0, zz(0.4), "ZZ");
    TranslateResult result = translateCircuit(
        logical, {0, 1}, d, set, decomposer, cache, true);
    const Circuit& c = result.circuit;
    ASSERT_EQ((c.size() - 1) % 3, 0u);
    size_t per_block = (c.size() - 1) / 3;
    ASSERT_GE(per_block, 2u);

    // The table holds the H and the fit's gates, once.
    EXPECT_EQ(c.unitaryTableSize(), 1 + per_block);
    size_t starts[] = {0, per_block + 1, 2 * per_block + 1};
    for (size_t j = 0; j < per_block; ++j) {
        EXPECT_EQ(c.opUnitaryId(starts[1] + j), c.opUnitaryId(j)) << j;
        EXPECT_EQ(c.opUnitaryId(starts[2] + j), c.opUnitaryId(j)) << j;
    }
    EXPECT_EQ(c.ops()[starts[2]].qubits(), Qubits(1));
    EXPECT_EQ(c.ops()[per_block].label(), "H");
}

TEST(Translate, AnnotatesErrorRatesAndDurations)
{
    Device d = twoQubitDevice(0.95, 0.0);
    GateSet set = isa::singleTypeSet(3);
    NuOpDecomposer decomposer(fastNuOp());
    ProfileCache cache;

    Circuit logical(2);
    logical.add2q(0, 1, zz(0.4), "ZZ");
    TranslateResult result = translateCircuit(
        logical, {0, 1}, d, set, decomposer, cache, true);

    for (const auto& op : result.circuit.ops()) {
        EXPECT_GT(op.durationNs(), 0.0) << op.label();
        if (op.isTwoQubit())
            EXPECT_NEAR(op.errorRate(), 0.05, 1e-9);
        else
            EXPECT_NEAR(op.errorRate(), 0.001, 1e-9);
    }
}

TEST(Translate, NoiseAdaptiveAcrossEdges)
{
    // Three-qubit line: edge (0,1) has good CZ, edge (1,2) good iSWAP.
    Device d("line3", Topology::line(3));
    d.setEdgeFidelity(0, 1, "S3", 0.99);
    d.setEdgeFidelity(0, 1, "S4", 0.90);
    d.setEdgeFidelity(1, 2, "S3", 0.90);
    d.setEdgeFidelity(1, 2, "S4", 0.99);
    for (int q = 0; q < 3; ++q)
        d.setOneQubitError(q, 0.001);

    GateSet set = isa::rigettiSet(1);
    NuOpDecomposer decomposer(fastNuOp());
    ProfileCache cache;

    Circuit logical(3);
    logical.add2q(0, 1, zz(0.5), "ZZ");
    logical.add2q(1, 2, zz(0.5), "ZZ");
    TranslateResult result = translateCircuit(
        logical, {0, 1, 2}, d, set, decomposer, cache, true);

    // The same application unitary must compile to different gate
    // types on the two edges (the Fig. 5 scenario).
    std::string first_type, second_type;
    for (const auto& op : result.circuit.ops()) {
        if (!op.isTwoQubit())
            continue;
        if (op.qubits()[0] == 0 || op.qubits()[1] == 0)
            first_type = op.label();
        else
            second_type = op.label();
    }
    EXPECT_EQ(first_type, "S3");
    EXPECT_EQ(second_type, "S4");
}

TEST(Translate, ContinuousFamilyEmissionIsExact)
{
    // FullfSim templates optimize the two-qubit angles too; the
    // emitted per-layer fSim gates + U3s must reproduce the target.
    Device d("pair", Topology::line(2));
    d.setEdgeFidelity(0, 1, "fSim", 0.995);
    GateSet set = isa::fullFsim();
    NuOpOptions opts = fastNuOp();
    opts.multistarts = 6;
    NuOpDecomposer decomposer(opts);
    ProfileCache cache;

    Rng rng(72);
    Circuit logical(2);
    logical.add2q(0, 1, randomSu4(rng), "SU4");
    TranslateResult result = translateCircuit(
        logical, {0, 1}, d, set, decomposer, cache,
        /*approximate=*/false);
    EXPECT_NEAR(
        traceFidelity(result.circuit.unitary(), logical.unitary()),
        1.0, 1e-5);
    for (const auto& [type, count] : result.type_usage)
        EXPECT_EQ(type, "fSim");
}

TEST(Translate, ThrowsWhenNoTypeCalibratedOnEdge)
{
    // Failure injection: the edge has no calibrated member of the
    // instruction set at all.
    Device d("pair", Topology::line(2));
    d.setEdgeFidelity(0, 1, "S1", 0.99); // SYC only
    GateSet set = isa::singleTypeSet(3);  // wants CZ
    NuOpDecomposer decomposer(fastNuOp());
    ProfileCache cache;
    Circuit logical(2);
    logical.add2q(0, 1, zz(0.4), "ZZ");
    EXPECT_THROW(translateCircuit(logical, {0, 1}, d, set, decomposer,
                                  cache, true),
                 FatalError);

    // A pair with no coupler reads zero fidelity for every type, just
    // like an edge without calibration.
    Device line("line", Topology::line(3));
    line.setEdgeFidelity(0, 1, "S3", 0.99);
    line.setEdgeFidelity(1, 2, "S3", 0.99);
    Circuit far(3);
    far.add2q(0, 2, zz(0.4), "ZZ");
    EXPECT_THROW(translateCircuit(far, {0, 1, 2}, line, set, decomposer,
                                  cache, true),
                 FatalError);
}

TEST(Translate, SwapTypeUsedForRoutedSwaps)
{
    // A consolidated SWAP block on a G7-style edge should compile to
    // the native SWAP in one gate.
    Device d("pair", Topology::line(2));
    d.setEdgeFidelity(0, 1, "S3", 0.99);
    d.setEdgeFidelity(0, 1, "SWAP", 0.99);
    GateSet set;
    set.name = "toy";
    set.types = {isa::s3(), isa::swapType()};
    NuOpDecomposer decomposer(fastNuOp());
    ProfileCache cache;
    Circuit logical(2);
    logical.add2q(0, 1, gates::swap(), "SWAP");
    TranslateResult result = translateCircuit(
        logical, {0, 1}, d, set, decomposer, cache, true);
    EXPECT_EQ(result.two_qubit_count, 1);
    EXPECT_EQ(result.type_usage.at("SWAP"), 1);
}

/** Emitted circuits and bookkeeping agree bit for bit. */
void
expectBitIdentical(const TranslateResult& a, const TranslateResult& b,
                   const std::string& where)
{
    EXPECT_EQ(a.two_qubit_count, b.two_qubit_count) << where;
    EXPECT_EQ(a.type_usage, b.type_usage) << where;
    EXPECT_EQ(a.estimated_fidelity, b.estimated_fidelity) << where;
    ASSERT_EQ(a.circuit.size(), b.circuit.size()) << where;
    for (size_t i = 0; i < a.circuit.size(); ++i) {
        ConstOpRef x = a.circuit.ops()[i];
        ConstOpRef y = b.circuit.ops()[i];
        EXPECT_EQ(x.qubits(), y.qubits()) << where << " op " << i;
        EXPECT_EQ(x.labelId(), y.labelId()) << where << " op " << i;
        EXPECT_EQ(x.errorRate(), y.errorRate()) << where << " op " << i;
        EXPECT_EQ(x.unitary().maxAbsDiff(y.unitary()), 0.0)
            << where << " op " << i;
    }
}

/** A four-qubit line calibrated for rigettiSet(1) ({S3, S4}). */
Device
rigettiLine4()
{
    Device d("line4", Topology::line(4));
    for (auto [a, b] : d.topology().edges()) {
        d.setEdgeFidelity(a, b, "S3", 0.99);
        d.setEdgeFidelity(a, b, "S4", 0.98 - 0.01 * a);
    }
    for (int q = 0; q < 4; ++q)
        d.setOneQubitError(q, 0.001);
    return d;
}

TEST(Translate, ParallelProfileWarmupBitIdenticalToSerial)
{
    // The intra-circuit fan-out parallelizes each distinct block's
    // profile lookups and (for canonicalizing engines) its dressing;
    // selection and emission stay serial. Whatever the thread count
    // or cap, the emitted circuit must be bit-identical — each variant
    // runs against its own cold cache so identity is established by
    // recomputation, not by sharing profile objects.
    Device d = rigettiLine4();
    GateSet set = isa::rigettiSet(1);
    NuOpDecomposer decomposer(fastNuOp());

    Rng rng(73);
    Circuit logical(4);
    logical.add2q(0, 1, randomSu4(rng), "SU4");
    logical.add1q(2, hadamard(), "H");
    logical.add2q(1, 2, zz(0.3), "ZZ");
    logical.add2q(2, 3, randomSu4(rng), "SU4");
    logical.add2q(0, 1, zz(0.3), "ZZ"); // repeat: cache-hit path
    logical.add2q(1, 2, randomSu4(rng), "SU4");

    ThreadPool pool(4);
    for (const char* engine : {"nuop", "auto"}) {
        auto strategy = makeDecompositionStrategy(engine);
        auto translate = [&](ThreadPool* with, size_t cap) {
            ProfileCache cold;
            return translateCircuit(logical, {0, 1, 2, 3}, d, set,
                                    decomposer, *strategy, cold,
                                    /*approximate=*/true, with, cap);
        };
        TranslateResult serial = translate(nullptr, 0);
        TranslateResult uncapped = translate(&pool, 0);
        TranslateResult capped = translate(&pool, 2);
        TranslateResult forced_serial = translate(&pool, 1);

        // One lookup per (2Q block, spec): 5 blocks x 2 specs. The
        // hit/miss split is timing-dependent under concurrency (racing
        // same-key requesters both compute and both count as misses,
        // by ProfileCache design), but the total is exact.
        EXPECT_EQ(serial.cache_hits + serial.cache_misses, 10u) << engine;
        for (const TranslateResult* other :
             {&uncapped, &capped, &forced_serial}) {
            expectBitIdentical(serial, *other, engine);
            EXPECT_EQ(other->cache_hits + other->cache_misses,
                      serial.cache_hits + serial.cache_misses)
                << engine;
        }
        EXPECT_EQ(serial.cache_hits, forced_serial.cache_hits) << engine;
        EXPECT_EQ(serial.cache_misses, forced_serial.cache_misses)
            << engine;
    }
}

/** The "nuop" engine, counting the cache keys it builds. */
class KeyCountingStrategy : public DecompositionStrategy
{
  public:
    std::string name() const override { return "nuop"; }

    void cacheKeyInto(std::string& out, const Matrix& target,
                      const GateSpec& spec) const override
    {
        ++key_builds;
        nuopDecompositionStrategy().cacheKeyInto(out, target, spec);
    }

    GateProfile computeProfile(const Matrix& target, const GateSpec& spec,
                               const NuOpDecomposer& decomposer)
        const override
    {
        return nuopDecompositionStrategy().computeProfile(target, spec,
                                                          decomposer);
    }

    mutable std::atomic<int> key_builds{0};
};

/**
 * Nine blocks over four distinct unitaries on a four-qubit line, the
 * way routing leaves them: SWAPs and repeats on different edges and in
 * both qubit orders.
 */
Circuit
repeatedBlocksCircuit()
{
    Rng rng(74);
    Matrix su4 = randomSu4(rng);
    Circuit routed(4);
    routed.add2q(0, 1, zz(0.3), "ZZ");
    routed.add2q(1, 2, swap(), "SWAP");
    routed.add2q(2, 3, zz(0.3), "ZZ");
    routed.add1q(1, hadamard(), "H");
    routed.add2q(2, 1, cphase(kPi / 4), "CP");
    routed.add2q(0, 1, su4, "SU4");
    routed.add2q(1, 2, cphase(kPi / 4), "CP");
    routed.add2q(2, 3, swap(), "SWAP");
    routed.add2q(1, 0, zz(0.3), "ZZ");
    routed.add2q(2, 3, su4, "SU4");
    return routed;
}

TEST(Translate, BuildsOneCacheKeyPerDistinctBlockAndSpec)
{
    // Each distinct block unitary is looked up once per gate spec,
    // cold or warm, however many blocks carry it; the lookups still
    // count once per block.
    Device d = rigettiLine4();
    GateSet set = isa::rigettiSet(1);
    NuOpDecomposer decomposer(fastNuOp());
    Circuit routed = repeatedBlocksCircuit();
    KeyCountingStrategy strategy;
    ProfileCache cache;
    for (const char* pass : {"cold", "warm"}) {
        strategy.key_builds = 0;
        TranslateResult result =
            translateCircuit(routed, {0, 1, 2, 3}, d, set, decomposer,
                             strategy, cache, /*approximate=*/true);
        EXPECT_EQ(strategy.key_builds.load(), 4 * 2) << pass;
        EXPECT_EQ(result.cache_hits + result.cache_misses, 9u * 2) << pass;
    }
    EXPECT_EQ(cache.stats().misses, 4u * 2);
    EXPECT_EQ(cache.stats().hits, 9u * 2 * 2 - 4 * 2);
}

TEST(Translate, BoundedCacheTranslatesLikeUnbounded)
{
    // Two entries hold less than one compile's working set (4 distinct
    // unitaries x 2 specs), so entries are evicted and recomputed while
    // the compile still uses them; the output must not change.
    Device d = rigettiLine4();
    GateSet set = isa::rigettiSet(1);
    NuOpDecomposer decomposer(fastNuOp());
    Circuit routed = repeatedBlocksCircuit();
    for (const char* engine : {"nuop", "auto"}) {
        auto strategy = makeDecompositionStrategy(engine);
        ProfileCache unbounded;
        ProfileCache bounded(2);
        TranslateResult reference =
            translateCircuit(routed, {0, 1, 2, 3}, d, set, decomposer,
                             *strategy, unbounded, /*approximate=*/true);
        for (const char* pass : {"cold", "warm"}) {
            TranslateResult result =
                translateCircuit(routed, {0, 1, 2, 3}, d, set, decomposer,
                                 *strategy, bounded, /*approximate=*/true);
            expectBitIdentical(reference, result,
                               std::string(engine) + " " + pass);
        }
        EXPECT_LE(bounded.size(), 2u) << engine;
        EXPECT_GT(bounded.stats().evictions, 0u) << engine;
    }
}

/** Settings of the compile goldens in test_ir_identity.cc. */
CompileOptions
goldenOptions()
{
    CompileOptions options;
    options.approximate = true;
    options.nuop.max_layers = 5;
    options.nuop.multistarts = 3;
    options.nuop.exact_threshold = 1.0 - 1e-6;
    options.nuop.bfgs.max_iterations = 150;
    return options;
}

/** Per-compile translation counters plus the cache's global tallies. */
struct CacheTraffic
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    int analytic_ops = 0;
    int dressing_fallbacks = 0;
    uint64_t global_hits = 0;
    uint64_t global_misses = 0;
};

void
expectTraffic(const CacheTraffic& got, const CacheTraffic& want,
              const std::string& where)
{
    EXPECT_EQ(got.hits, want.hits) << where;
    EXPECT_EQ(got.misses, want.misses) << where;
    EXPECT_EQ(got.analytic_ops, want.analytic_ops) << where;
    EXPECT_EQ(got.dressing_fallbacks, want.dressing_fallbacks) << where;
    EXPECT_EQ(got.global_hits, want.global_hits) << where;
    EXPECT_EQ(got.global_misses, want.global_misses) << where;
}

CacheTraffic
compileTraffic(const CompileResult& result, const ProfileCache& cache)
{
    CacheTraffic traffic;
    for (const PassMetric& metric : result.pass_metrics) {
        if (metric.pass != "translation")
            continue;
        auto read = [&metric](const char* name) {
            auto it = metric.counters.find(name);
            return it == metric.counters.end() ? 0.0 : it->second;
        };
        traffic.hits = static_cast<uint64_t>(read("cache_hits"));
        traffic.misses = static_cast<uint64_t>(read("cache_misses"));
        traffic.analytic_ops = static_cast<int>(read("analytic_ops"));
        traffic.dressing_fallbacks =
            static_cast<int>(read("dressing_fallbacks"));
    }
    traffic.global_hits = cache.stats().hits;
    traffic.global_misses = cache.stats().misses;
    return traffic;
}

TEST(Translate, CanonicalEngineCacheTrafficMatchesGoldens)
{
    // The QFT-16 compiles of IrIdentity.CanonicalEngineCompilesMatchGoldens:
    // serial, cold then warm on one cache. Every 2Q block counts one
    // lookup per gate spec, however translation groups them.
    Rng dev_rng(4242);
    Device device = makeSycamore(dev_rng);
    GateSet set = isa::googleSet(3);
    Circuit qft16 = makeQftCircuit(16);
    struct Case
    {
        const char* engine;
        CacheTraffic cold;
        CacheTraffic warm;
    };
    const Case cases[] = {
        {"auto", {1428, 64, 98, 0, 1428, 64}, {1492, 0, 98, 0, 2920, 64}},
    };
    for (const Case& c : cases) {
        CompileOptions options = goldenOptions();
        options.decomposition = c.engine;
        ProfileCache cache;
        CompileResult cold = compileCircuit(qft16, device, set, cache,
                                            options);
        expectTraffic(compileTraffic(cold, cache), c.cold,
                      std::string(c.engine) + " cold");
        CompileResult warm = compileCircuit(qft16, device, set, cache,
                                            options);
        expectTraffic(compileTraffic(warm, cache), c.warm,
                      std::string(c.engine) + " warm");
    }
}

TEST(Translate, DressingFallbackCacheTrafficMatchesGolden)
{
    // The circuit of IrIdentity.DressingFallbackTranslationMatchesGolden:
    // four cphase(pi/2^22) blocks that each take the dressing fallback
    // among blocks that dress normally, translated cold then warm.
    Device pair("pair", Topology::line(2));
    for (const char* type : {"S1", "S2", "S3", "S4"})
        pair.setEdgeFidelity(0, 1, type, 0.99);
    pair.setOneQubitError(0, 0.001);
    pair.setOneQubitError(1, 0.002);
    Matrix tiny = cphase(kPi / (1 << 22));
    Rng rng(2022);
    Circuit logical(2);
    logical.add2q(0, 1, tiny, "CP22");
    logical.add2q(0, 1, zz(0.3), "ZZ");
    logical.add1q(0, hadamard(), "H");
    logical.add2q(0, 1, tiny, "CP22");
    logical.add2q(0, 1, randomSu4(rng), "SU4");
    logical.add2q(1, 0, tiny, "CP22");
    logical.add2q(0, 1, rz(0.4).kron(hadamard()) * cphase(kPi / 8),
                  "CP8");
    logical.add2q(0, 1, tiny, "CP22");

    CompileOptions options = goldenOptions();
    NuOpDecomposer decomposer(options.nuop);
    auto automatic = makeDecompositionStrategy("auto");
    ProfileCache cache;
    auto traffic = [&] {
        TranslateResult result = translateCircuit(
            logical, {0, 1}, pair, isa::googleSet(3), decomposer,
            *automatic, cache, options.approximate);
        CacheTraffic t;
        t.hits = result.cache_hits;
        t.misses = result.cache_misses;
        t.analytic_ops = result.analytic_ops;
        t.dressing_fallbacks = result.dressing_fallbacks;
        t.global_hits = cache.stats().hits;
        t.global_misses = cache.stats().misses;
        return t;
    };
    expectTraffic(traffic(), {12, 20, 2, 4, 12, 20}, "cold");
    expectTraffic(traffic(), {28, 0, 2, 4, 40, 20}, "warm");
}

TEST(Translate, TypeUsageAccounting)
{
    Device d = twoQubitDevice(0.99, 0.99);
    GateSet set = isa::singleTypeSet(3);
    NuOpDecomposer decomposer(fastNuOp());
    ProfileCache cache;

    Circuit logical(2);
    logical.add2q(0, 1, zz(0.3), "ZZ");
    logical.add2q(0, 1, zz(0.7), "ZZ");
    TranslateResult result = translateCircuit(
        logical, {0, 1}, d, set, decomposer, cache, false);
    EXPECT_EQ(result.type_usage.at("S3"), result.two_qubit_count);
    EXPECT_EQ(result.two_qubit_count, 4); // 2 layers per ZZ
}

TEST(Translate, CountsExactModeFallbacks)
{
    // SWAP needs three CZs. With fewer layers allowed no fit meets the
    // exact threshold, so exact-mode selection takes the best lossy
    // fit; translation counts the block and the pass reports it.
    Device d = twoQubitDevice(0.99, 0.0);
    GateSet set = isa::singleTypeSet(3);
    Circuit logical(2);
    logical.add2q(0, 1, swap(), "SWAP");
    const int expected[] = {1, 1, 0}; // max_layers 1, 2, 3
    for (int max_layers = 1; max_layers <= 3; ++max_layers) {
        SCOPED_TRACE(max_layers);
        int want = expected[max_layers - 1];
        CompileOptions options;
        options.approximate = false;
        options.nuop = fastNuOp();
        options.nuop.max_layers = max_layers;
        NuOpDecomposer decomposer(options.nuop);
        ProfileCache cache;
        TranslateResult result = translateCircuit(
            logical, {0, 1}, d, set, decomposer, cache, false);
        EXPECT_EQ(result.exact_fallbacks, want);

        CompileResult compiled =
            compileCircuit(logical, d, set, cache, options);
        for (const PassMetric& metric : compiled.pass_metrics) {
            if (metric.pass != "translation")
                continue;
            auto it = metric.counters.find("exact_fallbacks");
            EXPECT_EQ(it == metric.counters.end() ? 0.0 : it->second,
                      want);
        }
    }
}

} // namespace
} // namespace qiset

// Batch compilation tests: serial/parallel equivalence, cache sharing
// across a batch, warm-start from a persisted cache, and the errors
// the compile entry points raise.

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/qaoa.h"
#include "apps/qft.h"
#include "common/error.h"
#include "compiler/pipeline.h"
#include "compiler/shard.h"

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

Device
lineDevice(int n)
{
    Device d("line", Topology::line(n));
    for (auto [a, b] : d.topology().edges()) {
        d.setEdgeFidelity(a, b, "S3", 0.995);
        d.setEdgeFidelity(a, b, "S4", 0.99);
    }
    for (int q = 0; q < n; ++q)
        d.setOneQubitError(q, 0.0005);
    return d;
}

/** Workload of >= 8 small circuits with overlapping 2Q unitaries. */
std::vector<Circuit>
makeWorkload()
{
    std::vector<Circuit> apps;
    Rng rng(301);
    for (int i = 0; i < 6; ++i)
        apps.push_back(makeRandomQaoaCircuit(3, rng));
    apps.push_back(makeQftCircuit(3));
    apps.push_back(makeQftCircuit(3)); // duplicate: pure cache reuse
    return apps;
}

void
expectIdentical(const CompileResult& a, const CompileResult& b)
{
    EXPECT_EQ(a.physical, b.physical);
    EXPECT_EQ(a.final_positions, b.final_positions);
    EXPECT_EQ(a.swaps_inserted, b.swaps_inserted);
    EXPECT_EQ(a.two_qubit_count, b.two_qubit_count);
    EXPECT_EQ(a.type_usage, b.type_usage);
    EXPECT_DOUBLE_EQ(a.estimated_fidelity, b.estimated_fidelity);
    ASSERT_EQ(a.circuit.size(), b.circuit.size());
    for (size_t i = 0; i < a.circuit.size(); ++i) {
        ConstOpRef x = a.circuit.ops()[i];
        ConstOpRef y = b.circuit.ops()[i];
        EXPECT_EQ(x.qubits(), y.qubits());
        EXPECT_EQ(x.labelId(), y.labelId());
        EXPECT_DOUBLE_EQ(x.errorRate(), y.errorRate());
        EXPECT_EQ(x.unitary().maxAbsDiff(y.unitary()), 0.0);
    }
}

TEST(CompileBatch, MatchesSerialCompileExactly)
{
    Device d = lineDevice(3);
    GateSet set = isa::rigettiSet(1);
    CompileOptions opts = fastCompile();
    std::vector<Circuit> apps = makeWorkload();
    ASSERT_GE(apps.size(), 8u);

    // Serial reference: one compile() per circuit, its own cache.
    ProfileCache serial_cache;
    std::vector<CompileResult> serial;
    for (const auto& app : apps)
        serial.push_back(
            compileCircuit(app, d, set, serial_cache, opts));

    // Parallel batch over a shared cache.
    ProfileCache batch_cache;
    ThreadPool pool(4);
    std::vector<CompileResult> batch =
        compileBatch(apps, d, set, batch_cache, opts, &pool);

    ASSERT_EQ(batch.size(), serial.size());
    for (size_t i = 0; i < batch.size(); ++i) {
        SCOPED_TRACE("circuit " + std::to_string(i));
        expectIdentical(serial[i], batch[i]);
    }

    // Re-running the batch against the now-warm shared cache is pure
    // hits and still identical.
    batch_cache.resetStats();
    std::vector<CompileResult> warm =
        compileBatch(apps, d, set, batch_cache, opts, &pool);
    ProfileCacheStats stats = batch_cache.stats();
    EXPECT_EQ(stats.misses, 0u);
    EXPECT_GT(stats.hits, 0u);
    for (size_t i = 0; i < warm.size(); ++i) {
        SCOPED_TRACE("warm circuit " + std::to_string(i));
        expectIdentical(serial[i], warm[i]);
    }
}

TEST(CompileBatch, SharesProfilesAcrossTheBatch)
{
    Device d = lineDevice(3);
    GateSet set = isa::rigettiSet(1);
    CompileOptions opts = fastCompile();
    std::vector<Circuit> apps = makeWorkload();

    // Compiling each circuit with its own cold cache repeats BFGS work
    // for every unitary shared between circuits; the shared batch
    // cache must do strictly fewer optimizations.
    uint64_t isolated_misses = 0;
    for (const auto& app : apps) {
        ProfileCache isolated;
        compileCircuit(app, d, set, isolated, opts);
        isolated_misses += isolated.stats().misses;
    }

    ProfileCache shared;
    ThreadPool pool(4);
    compileBatch(apps, d, set, shared, opts, &pool);
    EXPECT_LT(shared.stats().misses, isolated_misses);
    EXPECT_GT(shared.stats().hits, 0u);
}

TEST(CompileBatch, PersistedCacheSkipsAllBfgs)
{
    Device d = lineDevice(3);
    GateSet set = isa::rigettiSet(1);
    CompileOptions opts = fastCompile();
    std::vector<Circuit> apps = makeWorkload();

    std::string path =
        std::string(::testing::TempDir()) + "qiset_batch_cache.txt";

    // First run: compile everything, persist the cache.
    ProfileCache first_cache;
    std::vector<CompileResult> first =
        compileBatch(apps, d, set, first_cache, opts);
    EXPECT_GT(first_cache.stats().misses, 0u);
    ASSERT_TRUE(first_cache.save(path, opts.nuop));

    // Second process run (simulated by a fresh cache): loading the
    // persisted profiles means zero new BFGS optimizations.
    ProfileCache second_cache;
    ASSERT_TRUE(second_cache.load(path, opts.nuop));
    ThreadPool pool(4);
    std::vector<CompileResult> second =
        compileBatch(apps, d, set, second_cache, opts, &pool);

    ProfileCacheStats stats = second_cache.stats();
    EXPECT_EQ(stats.misses, 0u) << "persisted cache must cover the run";
    EXPECT_GT(stats.hits, 0u);
    for (size_t i = 0; i < second.size(); ++i) {
        SCOPED_TRACE("circuit " + std::to_string(i));
        expectIdentical(first[i], second[i]);
    }
    std::remove(path.c_str());
}

TEST(CompileBatch, EmptyAndSerialFallback)
{
    Device d = lineDevice(3);
    GateSet set = isa::rigettiSet(1);
    CompileOptions opts = fastCompile();
    ProfileCache cache;

    EXPECT_TRUE(compileBatch({}, d, set, cache, opts).empty());

    // No pool: serial path, same results as compileCircuit.
    Rng rng(302);
    std::vector<Circuit> apps = {makeRandomQaoaCircuit(3, rng)};
    std::vector<CompileResult> batch =
        compileBatch(apps, d, set, cache, opts);
    ASSERT_EQ(batch.size(), 1u);
    ProfileCache reference_cache;
    CompileResult reference =
        compileCircuit(apps[0], d, set, reference_cache, opts);
    expectIdentical(reference, batch[0]);
}

TEST(CompileBatch, EntryPointsRaiseFatalErrorOnBadInput)
{
    Device d = lineDevice(3);
    GateSet set = isa::rigettiSet(1);
    CompileOptions opts = fastCompile();
    ProfileCache cache;
    Circuit wide = makeQftCircuit(5);

    EXPECT_THROW(compileCircuit(wide, d, set, cache, opts), FatalError);

    // One bad circuit fails the whole batch, serial or fanned out.
    std::vector<Circuit> batch = {makeQftCircuit(3), wide,
                                  makeQftCircuit(3)};
    EXPECT_THROW(compileBatch(batch, d, set, cache, opts), FatalError);
    ThreadPool pool(4);
    EXPECT_THROW(compileBatch(batch, d, set, cache, opts, &pool),
                 FatalError);

    DeviceFleet fleet(opts);
    fleet.addDevice(lineDevice(3), "a");
    fleet.addDevice(lineDevice(3), "b");
    EXPECT_THROW(compileBatchSharded(batch, fleet, set, cache), FatalError);

    CompileOptions unknown = opts;
    unknown.decomposition = "no-such-engine";
    DeviceFleet bad_engine(opts);
    bad_engine.addDevice(lineDevice(3), "a");
    bad_engine.addDevice(lineDevice(3), unknown, "b");
    EXPECT_THROW(compileBatchSharded({makeQftCircuit(3)}, bad_engine, set,
                                     cache),
                 FatalError);
}

} // namespace
} // namespace qiset

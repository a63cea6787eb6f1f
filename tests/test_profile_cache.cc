// Profile-cache tests: counters, eviction, concurrency, persistence.

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "compiler/profile_cache.h"
#include "nuop/decomposer.h"
#include "qc/gates.h"

namespace qiset {
namespace {

using namespace gates;

NuOpOptions
fastNuOp()
{
    NuOpOptions opts;
    opts.max_layers = 3;
    opts.multistarts = 2;
    opts.exact_threshold = 1.0 - 1e-6;
    return opts;
}

GateSpec
czSpec()
{
    return GateSpec{"S3", TemplateFamily::Fixed, cz()};
}

/** Temp file path removed on scope exit. */
struct TempFile
{
    std::string path;
    explicit TempFile(const std::string& name)
        : path(std::string(::testing::TempDir()) + name)
    {
    }
    ~TempFile() { std::remove(path.c_str()); }
};

TEST(ProfileCacheCore, CountsHitsAndMisses)
{
    NuOpDecomposer decomposer(fastNuOp());
    ProfileCache cache;
    cache.get(zz(0.3), czSpec(), decomposer);
    cache.get(zz(0.3), czSpec(), decomposer);
    cache.get(zz(0.7), czSpec(), decomposer);

    ProfileCacheStats stats = cache.stats();
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.entries, 2u);
    EXPECT_EQ(stats.evictions, 0u);

    cache.resetStats();
    stats = cache.stats();
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.misses, 0u);
    EXPECT_EQ(stats.entries, 2u); // entries survive a stats reset.
}

TEST(ProfileCacheCore, BoundedCacheEvictsLeastRecentlyUsed)
{
    NuOpDecomposer decomposer(fastNuOp());
    ProfileCache cache(2);
    auto first = cache.get(zz(0.1), czSpec(), decomposer);
    cache.get(zz(0.2), czSpec(), decomposer);
    cache.get(zz(0.1), czSpec(), decomposer); // refresh 0.1
    cache.get(zz(0.3), czSpec(), decomposer); // evicts 0.2
    ProfileCacheStats stats = cache.stats();
    EXPECT_EQ(stats.entries, 2u);
    EXPECT_EQ(stats.evictions, 1u);

    // 0.1 was refreshed, so it survived; 0.2 recomputes (miss).
    uint64_t misses_before = cache.stats().misses;
    cache.get(zz(0.1), czSpec(), decomposer);
    EXPECT_EQ(cache.stats().misses, misses_before);
    cache.get(zz(0.2), czSpec(), decomposer);
    EXPECT_EQ(cache.stats().misses, misses_before + 1);

    // The handle returned before any eviction is still valid.
    EXPECT_FALSE(first->fits.empty());
}

TEST(ProfileCacheCore, ConcurrentGetIsConsistent)
{
    NuOpDecomposer decomposer(fastNuOp());
    ProfileCache cache;
    ThreadPool pool(8);

    const int kDistinct = 4;
    const size_t kCalls = 64;
    std::vector<std::shared_ptr<const GateProfile>> seen(kCalls);
    parallelFor(pool, kCalls, [&](size_t i) {
        double theta = 0.2 + 0.1 * static_cast<double>(i % kDistinct);
        seen[i] = cache.get(zz(theta), czSpec(), decomposer);
    });

    EXPECT_EQ(cache.size(), static_cast<size_t>(kDistinct));
    ProfileCacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits + stats.misses, kCalls);
    EXPECT_GE(stats.misses, static_cast<uint64_t>(kDistinct));

    // Every call for the same target observed the same stored profile.
    for (size_t i = 0; i < kCalls; ++i) {
        ASSERT_NE(seen[i], nullptr);
        EXPECT_EQ(seen[i].get(), seen[i % kDistinct].get());
    }
}

TEST(ProfileCacheCore, SaveLoadRoundTrip)
{
    NuOpDecomposer decomposer(fastNuOp());
    ProfileCache cache;
    auto a = cache.get(zz(0.3), czSpec(), decomposer);
    GateSpec isw{"S4", TemplateFamily::Fixed, iswap()};
    auto b = cache.get(zz(0.3), isw, decomposer);

    TempFile file("qiset_profile_cache_roundtrip.txt");
    ASSERT_TRUE(cache.save(file.path, fastNuOp()));

    ProfileCache restored;
    ASSERT_TRUE(restored.load(file.path, fastNuOp()));
    ProfileCacheStats stats = restored.stats();
    EXPECT_EQ(stats.loaded, 2u);
    EXPECT_EQ(stats.entries, 2u);

    // Reading back the same (target, spec) pairs is pure cache hits —
    // zero new BFGS optimizations — and reproduces the fits exactly.
    auto a2 = restored.get(zz(0.3), czSpec(), decomposer);
    auto b2 = restored.get(zz(0.3), isw, decomposer);
    stats = restored.stats();
    EXPECT_EQ(stats.misses, 0u);
    EXPECT_EQ(stats.hits, 2u);

    ASSERT_EQ(a2->fits.size(), a->fits.size());
    for (size_t i = 0; i < a->fits.size(); ++i) {
        EXPECT_EQ(a2->fits[i].layers, a->fits[i].layers);
        EXPECT_EQ(a2->fits[i].fd, a->fits[i].fd); // %.17g is lossless
        EXPECT_EQ(a2->fits[i].params, a->fits[i].params);
    }
    EXPECT_EQ(b2->type_name, "S4");
    EXPECT_EQ(b2->unitary.maxAbsDiff(iswap()), 0.0);
}

TEST(ProfileCacheCore, LoadMergesWithoutOverwriting)
{
    NuOpDecomposer decomposer(fastNuOp());
    ProfileCache cache;
    auto original = cache.get(zz(0.3), czSpec(), decomposer);

    TempFile file("qiset_profile_cache_merge.txt");
    ASSERT_TRUE(cache.save(file.path, fastNuOp()));

    // Loading into a cache that already has the key keeps the
    // in-memory profile and counts nothing as loaded.
    ASSERT_TRUE(cache.load(file.path, fastNuOp()));
    EXPECT_EQ(cache.stats().loaded, 0u);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.get(zz(0.3), czSpec(), decomposer).get(),
              original.get());
}

TEST(ProfileCacheCore, LoadRejectsMissingAndMalformedFiles)
{
    ProfileCache cache;
    EXPECT_FALSE(cache.load("/nonexistent/path/cache.txt", fastNuOp()));

    TempFile file("qiset_profile_cache_garbage.txt");
    {
        std::ofstream os(file.path);
        os << "not-a-cache 99\ngarbage\n";
    }
    EXPECT_FALSE(cache.load(file.path, fastNuOp()));
    EXPECT_EQ(cache.size(), 0u);
}

TEST(ProfileCacheCore, LoadRejectsMismatchedNuOpOptions)
{
    NuOpDecomposer decomposer(fastNuOp());
    ProfileCache cache;
    cache.get(zz(0.3), czSpec(), decomposer);

    TempFile file("qiset_profile_cache_stale.txt");
    ASSERT_TRUE(cache.save(file.path, fastNuOp()));

    // Any change to the optimizer settings the profiles were computed
    // under invalidates the whole file.
    auto expect_rejected = [&](NuOpOptions changed) {
        ProfileCache fresh;
        EXPECT_FALSE(fresh.load(file.path, changed));
        EXPECT_EQ(fresh.size(), 0u);
        EXPECT_EQ(fresh.stats().loaded, 0u);
    };
    NuOpOptions more_layers = fastNuOp();
    more_layers.max_layers += 1;
    expect_rejected(more_layers);
    NuOpOptions more_starts = fastNuOp();
    more_starts.multistarts += 1;
    expect_rejected(more_starts);
    NuOpOptions tighter = fastNuOp();
    tighter.exact_threshold = 1.0 - 1e-9;
    expect_rejected(tighter);
    NuOpOptions reseeded = fastNuOp();
    reseeded.seed += 1;
    expect_rejected(reseeded);

    // The exact settings still load.
    ProfileCache fresh;
    EXPECT_TRUE(fresh.load(file.path, fastNuOp()));
    EXPECT_EQ(fresh.stats().loaded, 1u);
}

TEST(ProfileCacheCore, LoadRejectsUnstampedLegacyFiles)
{
    // v1 files (no NuOp stamp) and v2 files (no strategy stamp)
    // cannot prove their profiles match the current configuration:
    // reject rather than risk stale or wrongly-keyed reuse.
    for (const char* header :
         {"qiset-profile-cache 1\n0\n",
          "qiset-profile-cache 2\nnuop 3 2 0.999999 17\n0\n"}) {
        TempFile file("qiset_profile_cache_legacy.txt");
        {
            std::ofstream os(file.path);
            os << header;
        }
        ProfileCache cache;
        EXPECT_FALSE(cache.load(file.path, fastNuOp())) << header;
        EXPECT_EQ(cache.size(), 0u);
    }
}

TEST(ProfileCacheCore, V3RoundTripsCanonicalStrategies)
{
    // A canonical-keyed cache saved under "auto" reloads under "auto"
    // — entries, keys and engine tags intact — and serves the dressed
    // variants of its classes as pure hits.
    NuOpDecomposer decomposer(fastNuOp());
    auto automatic = makeDecompositionStrategy("auto");
    ProfileCache cache;
    cache.get(zz(0.3), czSpec(), decomposer, *automatic);

    TempFile file("qiset_profile_cache_v3_auto.txt");
    ASSERT_TRUE(cache.save(file.path, fastNuOp(), *automatic));

    ProfileCache restored;
    ASSERT_TRUE(restored.load(file.path, fastNuOp(), *automatic));
    EXPECT_EQ(restored.stats().loaded, 1u);
    Matrix dressed = gates::u3(0.4, 1.1, 2.2)
                         .kron(gates::u3(0.7, 0.2, 1.9)) *
                     zz(0.3);
    auto profile =
        restored.get(dressed, czSpec(), decomposer, *automatic);
    EXPECT_EQ(restored.stats().misses, 0u);
    EXPECT_EQ(restored.stats().hits, 1u);
    EXPECT_EQ(profile->engine, "kak"); // analytic tier served zz-class
}

TEST(ProfileCacheCore, LoadRejectsMismatchedStrategy)
{
    // Raw "nuop" keys and canonical "auto" keys are not
    // interchangeable; files stamped with a different strategy are
    // rejected wholesale.
    NuOpDecomposer decomposer(fastNuOp());
    ProfileCache cache;
    cache.get(zz(0.3), czSpec(), decomposer);

    TempFile file("qiset_profile_cache_strategy.txt");
    ASSERT_TRUE(cache.save(file.path, fastNuOp()));
    ProfileCache fresh;
    EXPECT_FALSE(fresh.load(file.path, fastNuOp(),
                            *makeDecompositionStrategy("auto")));
    EXPECT_EQ(fresh.size(), 0u);
    EXPECT_TRUE(fresh.load(file.path, fastNuOp(),
                           *makeDecompositionStrategy("nuop")));
    EXPECT_EQ(fresh.stats().loaded, 1u);
}

TEST(ProfileCacheCore, StripeContentionKeepsExactCounts)
{
    // Readers and writers hammer the striped cache concurrently; every
    // hit, miss and eviction must be accounted for exactly (shared-
    // lock hits update recency and counters atomically, so nothing is
    // lost or double-counted).
    NuOpDecomposer decomposer(fastNuOp());
    ProfileCache cache; // unbounded: 16 stripes
    ThreadPool pool(8);

    const int kDistinct = 12; // spreads keys across stripes
    auto target = [](int i) {
        return zz(0.05 * static_cast<double>(i + 1));
    };

    // Phase 1: cold fill under contention. Exactly kDistinct entries
    // come out, and every one of the kCalls is tallied exactly once.
    const size_t kCalls = 768;
    std::vector<std::shared_ptr<const GateProfile>> seen(kCalls);
    parallelFor(pool, kCalls, [&](size_t i) {
        seen[i] = cache.get(target(static_cast<int>(i) % kDistinct),
                            czSpec(), decomposer);
    });
    ProfileCacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits + stats.misses, kCalls);
    EXPECT_GE(stats.misses, static_cast<uint64_t>(kDistinct));
    EXPECT_EQ(stats.entries, static_cast<size_t>(kDistinct));
    EXPECT_EQ(stats.evictions, 0u);
    for (size_t i = 0; i < kCalls; ++i) {
        ASSERT_NE(seen[i], nullptr);
        EXPECT_EQ(seen[i].get(),
                  seen[i % static_cast<size_t>(kDistinct)].get());
    }

    // Phase 2: pure read contention on a warm cache. Every call is a
    // shared-lock hit — the counts are exact, not approximate.
    cache.resetStats();
    parallelFor(pool, kCalls, [&](size_t i) {
        auto p = cache.get(target(static_cast<int>(i) % kDistinct),
                           czSpec(), decomposer);
        ASSERT_NE(p, nullptr);
    });
    stats = cache.stats();
    EXPECT_EQ(stats.hits, kCalls);
    EXPECT_EQ(stats.misses, 0u);
    EXPECT_EQ(stats.evictions, 0u);
    EXPECT_EQ(stats.entries, static_cast<size_t>(kDistinct));

    // Phase 3: bounded cache under mixed reader/writer contention.
    // Hits + misses still account for every call exactly, and the
    // entry count respects the bound.
    ProfileCache bounded(2);
    const size_t kBoundedCalls = 256;
    parallelFor(pool, kBoundedCalls, [&](size_t i) {
        auto p = cache.get(target(static_cast<int>(i) % 4), czSpec(),
                           decomposer); // warm reads on the big cache
        ASSERT_NE(p, nullptr);
        auto q = bounded.get(target(static_cast<int>(i) % 4), czSpec(),
                             decomposer);
        ASSERT_NE(q, nullptr);
    });
    ProfileCacheStats bstats = bounded.stats();
    EXPECT_EQ(bstats.hits + bstats.misses, kBoundedCalls);
    EXPECT_LE(bstats.entries, 2u);
    // Every insert past the bound evicted exactly one entry; inserts
    // can be fewer than misses (racing computes merge) but evictions
    // never exceed inserts minus the survivors.
    EXPECT_GE(bstats.misses, bstats.evictions + bstats.entries);
}

TEST(ProfileCacheCore, KeySeparatesTargetsAndSpecs)
{
    GateSpec cz_spec = czSpec();
    GateSpec isw{"S4", TemplateFamily::Fixed, iswap()};
    EXPECT_NE(ProfileCache::key(zz(0.3), cz_spec),
              ProfileCache::key(zz(0.4), cz_spec));
    EXPECT_NE(ProfileCache::key(zz(0.3), cz_spec),
              ProfileCache::key(zz(0.3), isw));
    EXPECT_EQ(ProfileCache::key(zz(0.3), cz_spec),
              ProfileCache::key(zz(0.3), cz_spec));
}

} // namespace
} // namespace qiset

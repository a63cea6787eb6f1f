#ifndef QISET_COMPILER_PROFILE_CACHE_H
#define QISET_COMPILER_PROFILE_CACHE_H

/**
 * @file
 * The decomposition profile cache shared across compilations.
 *
 * Decomposition fidelity Fd for a (target unitary, gate type, layer
 * count) triple is independent of which edge the gate runs on, so the
 * translation pass computes a *fidelity profile* per (unitary, type)
 * once and reuses it across edges, circuits, instruction sets — and,
 * via save()/load(), across process runs. Profiles are the output of
 * NuOp's BFGS multistarts, by far the most expensive part of
 * compilation, which makes this cache the compiler's main
 * amortization lever.
 *
 * The cache is thread-safe and built for contended service traffic:
 * entries live in lock stripes (16 when unbounded, 1 when bounded so
 * the capacity bound keeps exact global LRU semantics), each guarded
 * by a shared_mutex. Warm lookups — the overwhelming majority of
 * traffic once a workload's profiles exist — take only a *shared*
 * lock on one stripe, so concurrent service workers hitting the cache
 * never serialize against each other; recency and the hit/miss/
 * eviction/loaded statistics are maintained exactly via per-stripe
 * atomic counters aggregated on read. The expensive profile
 * computation runs outside any lock. Entries are handed out as
 * shared_ptr so a bounded cache can evict without invalidating
 * profiles still in use by a translation in flight.
 */

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "nuop/decomposition_strategy.h"
#include "nuop/template_circuit.h"
#include "qc/matrix.h"

namespace qiset {

class NuOpDecomposer;
struct NuOpOptions;

/** Counters describing cache effectiveness (monotonic since reset). */
struct ProfileCacheStats
{
    /**
     * Lookups answered from the map (no BFGS run), counted per block
     * served (see get()).
     */
    uint64_t hits = 0;
    /** get() calls that computed a new profile (BFGS runs). */
    uint64_t misses = 0;
    /** Entries dropped to respect the capacity bound. */
    uint64_t evictions = 0;
    /** Entries deserialized by load(). */
    uint64_t loaded = 0;
    /** Current entry count. */
    size_t entries = 0;
};

/**
 * Per-caller hit/miss tally. A translation pass passes one of these
 * to get() so a circuit's own cache traffic can be reported even when
 * the cache is shared with concurrently-compiling circuits (whose
 * activity would pollute a before/after delta of the global stats).
 */
struct LocalCacheCounters
{
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
};

/** Thread-safe, optionally bounded, persistable profile memoization. */
class ProfileCache
{
  public:
    /**
     * @param max_entries Capacity bound; 0 (default) means unbounded.
     *        When bounded, inserting past capacity evicts the least
     *        recently used entries (eviction counter incremented).
     */
    explicit ProfileCache(size_t max_entries = 0);

    /**
     * Profile of decomposing `target` with `spec` under the given
     * decomposition strategy, computing it on first use. The key's
     * target part, the stored representative and the fit contents are
     * all the strategy's choice; the key leads with the strategy's
     * name (see key()), so one cache safely serves mixed engines. The
     * returned profile stays
     * valid even if the entry is later evicted. When `local` is given,
     * the call is additionally tallied there.
     *
     * `blocks` is the number of circuit blocks the lookup serves: the
     * translator resolves each distinct block unitary once and counts
     * the lookup for every block that carries it, as if they had
     * looked up one after another. A hit counts `blocks` hits; a miss
     * counts one miss (the profile computation) and `blocks - 1` hits.
     * `blocks = 0` counts a miss but no hit — for re-fetches that are
     * the pipeline's own bookkeeping rather than genuine reuse.
     */
    std::shared_ptr<const GateProfile>
    get(const Matrix& target, const GateSpec& spec,
        const NuOpDecomposer& decomposer,
        const DecompositionStrategy& strategy,
        LocalCacheCounters* local = nullptr, uint64_t blocks = 1);

    /**
     * get() with the target part of the key already rendered by
     * `strategy.targetKeyInto(target_key, target)`: the translator
     * renders it once per distinct block and shares it across the
     * gate specs.
     */
    std::shared_ptr<const GateProfile>
    get(const Matrix& target, std::string_view target_key,
        const GateSpec& spec, const NuOpDecomposer& decomposer,
        const DecompositionStrategy& strategy,
        LocalCacheCounters* local = nullptr, uint64_t blocks = 1);

    /** Baseline overload: the "nuop" engine. */
    std::shared_ptr<const GateProfile>
    get(const Matrix& target, const GateSpec& spec,
        const NuOpDecomposer& decomposer,
        LocalCacheCounters* local = nullptr, uint64_t blocks = 1);

    size_t size() const;

    /** Snapshot of the hit/miss/eviction counters. */
    ProfileCacheStats stats() const;

    /** Zero the hit/miss/eviction/loaded counters (entries stay). */
    void resetStats();

    /** Drop every entry (counters keep their values). */
    void clear();

    /**
     * Serialize every entry to `path` (plain-text format, versioned).
     * The v3 header stamps the NuOp settings the profiles were
     * computed under (layer bound, multistarts, exact-threshold
     * tolerance, seed) *and* the decomposition strategy (name +
     * whether it canonicalizes targets), so a later load() can tell
     * stale or incompatible profiles from reusable ones.
     * @return false when the file cannot be written.
     */
    bool save(const std::string& path, const NuOpOptions& nuop,
              const DecompositionStrategy& strategy =
                  nuopDecompositionStrategy()) const;

    /**
     * Merge entries from a file produced by save(). Existing keys are
     * kept (the in-memory profile wins). Loaded entries count toward
     * the capacity bound.
     *
     * The header's stamps must match: profiles computed under
     * different optimizer settings are not comparable, and profiles
     * keyed or computed by a different decomposition strategy (or
     * with different canonicalization) would silently stand in for
     * the wrong circuits. Mismatched files — including every pre-v3
     * file — are rejected wholesale and the cache is left untouched.
     * @return false when the file is missing, malformed, from an
     *         older format version, or stamped with different NuOp
     *         settings or strategy.
     */
    bool load(const std::string& path, const NuOpOptions& nuop,
              const DecompositionStrategy& strategy =
                  nuopDecompositionStrategy());

    /**
     * The key the cache stores the profile of (target, spec) under:
     * "<strategy name>|<spec type>|<target part>" (exposed for tests).
     */
    static std::string key(const Matrix& target, const GateSpec& spec,
                           const DecompositionStrategy& strategy =
                               nuopDecompositionStrategy());

  private:
    struct Entry
    {
        std::shared_ptr<const GateProfile> profile;
        /**
         * Recency tick drawn from the owning stripe's clock (higher =
         * more recently used). Atomic so hits can refresh it under a
         * shared lock.
         */
        std::atomic<uint64_t> last_used{0};
    };

    /**
     * One lock stripe: a shard of the key space with its own reader/
     * writer lock, recency clock and exact statistics counters. The
     * map is node-based, so concurrent shared-lock readers can copy
     * entry shared_ptrs while other stripes mutate freely.
     */
    struct Stripe
    {
        mutable std::shared_mutex mutex;
        std::unordered_map<std::string, Entry> profiles;
        /** Monotonic recency clock; ticks order entries for LRU. */
        std::atomic<uint64_t> clock{0};
        std::atomic<uint64_t> hits{0};
        std::atomic<uint64_t> misses{0};
        std::atomic<uint64_t> evictions{0};
        std::atomic<uint64_t> loaded{0};
    };

    /** Stripe count when unbounded; bounded caches use one stripe so
     *  the capacity bound evicts in exact global-LRU order. */
    static constexpr size_t kUnboundedStripes = 16;

    /** Append the key of (spec, target part) under `strategy`. */
    static void composeKey(std::string& out,
                           const DecompositionStrategy& strategy,
                           const GateSpec& spec,
                           std::string_view target_key);

    Stripe& stripeFor(const std::string& k);
    const Stripe& stripeFor(const std::string& k) const;

    /**
     * Insert under an exclusive lock on `stripe`, evicting least-
     * recently-used entries past capacity (lowest recency tick first;
     * the entry just inserted holds the freshest tick and is never
     * the victim).
     */
    std::shared_ptr<const GateProfile>
    insertLocked(Stripe& stripe, const std::string& k,
                 std::shared_ptr<const GateProfile> profile);

    size_t max_entries_ = 0;
    /** Fixed at construction; never resized (stripes cannot move). */
    std::vector<Stripe> stripes_;
};

} // namespace qiset

#endif // QISET_COMPILER_PROFILE_CACHE_H

#include "compiler/profile_cache.h"

#include <cstdio>
#include <fstream>
#include <iomanip>
#include <mutex>
#include <shared_mutex>

#include "common/error.h"
#include "nuop/decomposer.h"

namespace qiset {

ProfileCache::ProfileCache(size_t max_entries)
    : max_entries_(max_entries),
      stripes_(max_entries == 0 ? kUnboundedStripes : 1)
{
}

void
ProfileCache::composeKey(std::string& out,
                         const DecompositionStrategy& strategy,
                         const GateSpec& spec, std::string_view target_key)
{
    // The one place keys are composed, for every engine. The bytes are
    // those of v3 files, so saved caches keep loading.
    out += strategy.name();
    out += '|';
    out += spec.type_name;
    out += '|';
    out += target_key;
}

std::string
ProfileCache::key(const Matrix& target, const GateSpec& spec,
                  const DecompositionStrategy& strategy)
{
    std::string target_key;
    strategy.targetKeyInto(target_key, target);
    std::string k;
    composeKey(k, strategy, spec, target_key);
    return k;
}

ProfileCache::Stripe&
ProfileCache::stripeFor(const std::string& k)
{
    // FNV-1a over the key, independent of the map's std::hash so the
    // per-stripe buckets stay well distributed.
    uint64_t h = 1469598103934665603ull;
    for (char c : k) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    return stripes_[h % stripes_.size()];
}

const ProfileCache::Stripe&
ProfileCache::stripeFor(const std::string& k) const
{
    return const_cast<ProfileCache*>(this)->stripeFor(k);
}

std::shared_ptr<const GateProfile>
ProfileCache::insertLocked(Stripe& stripe, const std::string& k,
                           std::shared_ptr<const GateProfile> profile)
{
    auto [it, inserted] = stripe.profiles.try_emplace(k);
    it->second.last_used.store(
        stripe.clock.fetch_add(1, std::memory_order_relaxed) + 1,
        std::memory_order_relaxed);
    if (!inserted) {
        // Another thread computed the same profile first: its insert
        // wins, this call just refreshed the recency tick.
        return it->second.profile;
    }
    it->second.profile = std::move(profile);
    // Evict from the cold end (lowest tick); the new entry holds the
    // freshest tick and is never the victim while anything else
    // remains.
    while (max_entries_ > 0 && stripe.profiles.size() > max_entries_ &&
           stripe.profiles.size() > 1) {
        auto victim = stripe.profiles.end();
        uint64_t min_tick = 0;
        for (auto iter = stripe.profiles.begin();
             iter != stripe.profiles.end(); ++iter) {
            if (iter == it)
                continue;
            uint64_t tick =
                iter->second.last_used.load(std::memory_order_relaxed);
            if (victim == stripe.profiles.end() || tick < min_tick) {
                victim = iter;
                min_tick = tick;
            }
        }
        if (victim == stripe.profiles.end())
            break;
        stripe.profiles.erase(victim);
        stripe.evictions.fetch_add(1, std::memory_order_relaxed);
    }
    return it->second.profile;
}

std::shared_ptr<const GateProfile>
ProfileCache::get(const Matrix& target, const GateSpec& spec,
                  const NuOpDecomposer& decomposer,
                  const DecompositionStrategy& strategy,
                  LocalCacheCounters* local, uint64_t blocks)
{
    thread_local std::string target_key;
    target_key.clear();
    strategy.targetKeyInto(target_key, target);
    return get(target, target_key, spec, decomposer, strategy, local,
               blocks);
}

std::shared_ptr<const GateProfile>
ProfileCache::get(const Matrix& target, std::string_view target_key,
                  const GateSpec& spec, const NuOpDecomposer& decomposer,
                  const DecompositionStrategy& strategy,
                  LocalCacheCounters* local, uint64_t blocks)
{
    // Warm lookups are the pass-sweep hot path: build the key in a
    // reused per-thread buffer so a cache hit performs zero heap
    // allocations. The map copies the buffer only on insert (misses).
    thread_local std::string k;
    k.clear();
    composeKey(k, strategy, spec, target_key);
    Stripe& stripe = stripeFor(k);
    {
        // Hits touch only this stripe, and only with a shared lock:
        // concurrent readers proceed in parallel, against each other
        // and against writers of other stripes. Recency and counters
        // update atomically under the shared lock, so stats and LRU
        // order stay exact.
        std::shared_lock<std::shared_mutex> lock(stripe.mutex);
        auto it = stripe.profiles.find(k);
        if (it != stripe.profiles.end()) {
            it->second.last_used.store(
                stripe.clock.fetch_add(1, std::memory_order_relaxed) +
                    1,
                std::memory_order_relaxed);
            if (blocks > 0) {
                stripe.hits.fetch_add(blocks, std::memory_order_relaxed);
                if (local)
                    local->hits.fetch_add(blocks,
                                          std::memory_order_relaxed);
            }
            return it->second.profile;
        }
        // The first block computes; the rest would have hit its entry.
        stripe.misses.fetch_add(1, std::memory_order_relaxed);
        if (local)
            local->misses.fetch_add(1, std::memory_order_relaxed);
        if (blocks > 1) {
            stripe.hits.fetch_add(blocks - 1, std::memory_order_relaxed);
            if (local)
                local->hits.fetch_add(blocks - 1,
                                      std::memory_order_relaxed);
        }
    }

    // Compute outside any lock (the expensive part); duplicated work
    // between racing threads is harmless and rare — the first insert
    // wins and both count as misses, since both paid the computation.
    // Snapshot the key first: computeProfile may call back into code
    // that reuses this thread's key buffer.
    std::string key_copy = k;
    auto profile = std::make_shared<GateProfile>(
        strategy.computeProfile(target, spec, decomposer));

    std::unique_lock<std::shared_mutex> lock(stripe.mutex);
    return insertLocked(stripe, key_copy, std::move(profile));
}

std::shared_ptr<const GateProfile>
ProfileCache::get(const Matrix& target, const GateSpec& spec,
                  const NuOpDecomposer& decomposer,
                  LocalCacheCounters* local, uint64_t blocks)
{
    return get(target, spec, decomposer, nuopDecompositionStrategy(),
               local, blocks);
}

size_t
ProfileCache::size() const
{
    size_t total = 0;
    for (const Stripe& stripe : stripes_) {
        std::shared_lock<std::shared_mutex> lock(stripe.mutex);
        total += stripe.profiles.size();
    }
    return total;
}

ProfileCacheStats
ProfileCache::stats() const
{
    // Exact aggregation: each stripe's counters are updated atomically
    // at the moment of the event, so the sums account for every hit,
    // miss, eviction and load that completed before this call.
    ProfileCacheStats s;
    for (const Stripe& stripe : stripes_) {
        std::shared_lock<std::shared_mutex> lock(stripe.mutex);
        s.hits += stripe.hits.load(std::memory_order_relaxed);
        s.misses += stripe.misses.load(std::memory_order_relaxed);
        s.evictions +=
            stripe.evictions.load(std::memory_order_relaxed);
        s.loaded += stripe.loaded.load(std::memory_order_relaxed);
        s.entries += stripe.profiles.size();
    }
    return s;
}

void
ProfileCache::resetStats()
{
    for (Stripe& stripe : stripes_) {
        std::unique_lock<std::shared_mutex> lock(stripe.mutex);
        stripe.hits.store(0, std::memory_order_relaxed);
        stripe.misses.store(0, std::memory_order_relaxed);
        stripe.evictions.store(0, std::memory_order_relaxed);
        stripe.loaded.store(0, std::memory_order_relaxed);
    }
}

void
ProfileCache::clear()
{
    for (Stripe& stripe : stripes_) {
        std::unique_lock<std::shared_mutex> lock(stripe.mutex);
        stripe.profiles.clear();
    }
}

namespace {

constexpr const char* kMagic = "qiset-profile-cache";
// v3: the header carries the NuOp options stamp *and* the
// decomposition strategy stamp (name + canonicalization), and every
// entry records the engine that computed it. v1 files (no stamp) and
// v2 files (no strategy stamp, raw-keyed only) cannot prove their
// profiles match the current configuration and are rejected.
constexpr int kVersion = 3;

void
writeMatrix(std::ostream& os, const Matrix& m)
{
    os << m.rows() << ' ' << m.cols();
    for (size_t i = 0; i < m.rows(); ++i)
        for (size_t j = 0; j < m.cols(); ++j)
            os << ' ' << m(i, j).real() << ' ' << m(i, j).imag();
    os << '\n';
}

bool
readMatrix(std::istream& is, Matrix& m)
{
    size_t rows = 0, cols = 0;
    if (!(is >> rows >> cols))
        return false;
    if (rows > 16 || cols > 16)
        return false; // gates are at most 4x4; reject corrupt sizes.
    m = Matrix(rows, cols);
    for (size_t i = 0; i < rows; ++i)
        for (size_t j = 0; j < cols; ++j) {
            double re = 0.0, im = 0.0;
            if (!(is >> re >> im))
                return false;
            m(i, j) = cplx(re, im);
        }
    return true;
}

} // namespace

bool
ProfileCache::save(const std::string& path, const NuOpOptions& nuop,
                   const DecompositionStrategy& strategy) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << std::setprecision(17);

    // Hold every stripe (shared) for a consistent snapshot. Stripes
    // are always acquired in index order (this is the only multi-
    // stripe acquisition), so writers cannot deadlock against save().
    std::vector<std::shared_lock<std::shared_mutex>> locks;
    locks.reserve(stripes_.size());
    for (const Stripe& stripe : stripes_)
        locks.emplace_back(stripe.mutex);

    os << kMagic << ' ' << kVersion << '\n';
    // The strategy shapes both the keys (canonicalized or raw) and
    // the fit contents, so it is part of the compatibility contract.
    os << "strategy " << strategy.name() << ' '
       << (strategy.canonicalizesTargets() ? 1 : 0) << '\n';
    // Everything that changes what the BFGS multistarts can find:
    // layer bound, start count, exact tolerance, and the seed.
    os << "nuop " << nuop.max_layers << ' ' << nuop.multistarts << ' '
       << nuop.exact_threshold << ' ' << nuop.seed << '\n';
    size_t total = 0;
    for (const Stripe& stripe : stripes_)
        total += stripe.profiles.size();
    os << total << '\n';
    // Entry order follows stripe + bucket order; it was never part of
    // the v3 contract (the historical single map hashed arbitrarily)
    // and load() merges entries one by one.
    for (const Stripe& stripe : stripes_) {
        for (const auto& [k, entry] : stripe.profiles) {
            const GateProfile& p = *entry.profile;
            os << k.size() << '\n' << k << '\n';
            os << p.type_name.size() << '\n' << p.type_name << '\n';
            os << p.engine.size() << '\n' << p.engine << '\n';
            os << static_cast<int>(p.family) << '\n';
            writeMatrix(os, p.unitary);
            os << p.fits.size() << '\n';
            for (const auto& fit : p.fits) {
                os << fit.layers << ' ' << fit.fd << ' '
                   << fit.params.size();
                for (double v : fit.params)
                    os << ' ' << v;
                os << '\n';
            }
        }
    }
    return static_cast<bool>(os);
}

namespace {

/** Read a length-prefixed string ("N\n<N bytes>\n"). */
bool
readLenString(std::istream& is, std::string& out)
{
    size_t len = 0;
    if (!(is >> len))
        return false;
    if (len > (1u << 20))
        return false;
    is.ignore(); // the newline after the length
    out.resize(len);
    is.read(out.empty() ? nullptr : &out[0],
            static_cast<std::streamsize>(len));
    return static_cast<bool>(is);
}

} // namespace

bool
ProfileCache::load(const std::string& path, const NuOpOptions& nuop,
                   const DecompositionStrategy& strategy)
{
    std::ifstream is(path);
    if (!is)
        return false;

    std::string magic;
    int version = 0;
    if (!(is >> magic >> version) || magic != kMagic ||
        version != kVersion)
        return false;

    // Reject profiles keyed or computed by a different decomposition
    // strategy: raw and canonicalized keys are not interchangeable,
    // and neither are analytic and BFGS fit contents.
    std::string strategy_stamp, strategy_name;
    int canonical = -1;
    if (!(is >> strategy_stamp >> strategy_name >> canonical) ||
        strategy_stamp != "strategy")
        return false;
    if (strategy_name != strategy.name() ||
        canonical != (strategy.canonicalizesTargets() ? 1 : 0))
        return false;

    // Reject profiles computed under different optimizer settings:
    // they would silently stand in for results the current settings
    // might improve on (or never reach). %.17g round-trips doubles
    // exactly, so equality is the right comparison.
    std::string stamp;
    int max_layers = 0, multistarts = 0;
    double exact_threshold = 0.0;
    uint64_t seed = 0;
    if (!(is >> stamp >> max_layers >> multistarts >> exact_threshold >>
          seed) ||
        stamp != "nuop")
        return false;
    if (max_layers != nuop.max_layers ||
        multistarts != nuop.multistarts ||
        exact_threshold != nuop.exact_threshold || seed != nuop.seed)
        return false;

    size_t count = 0;
    if (!(is >> count) || count > (1u << 20))
        return false; // reject absurd entry counts from corrupt files.

    // Parse the whole file before touching the cache: a truncated or
    // corrupt file must not leave a half-merged state behind a false
    // return.
    std::vector<
        std::pair<std::string, std::shared_ptr<GateProfile>>>
        parsed;
    parsed.reserve(count);
    for (size_t e = 0; e < count; ++e) {
        std::string k, type_name, engine;
        if (!readLenString(is, k) || !readLenString(is, type_name) ||
            !readLenString(is, engine))
            return false;
        int family = 0;
        if (!(is >> family))
            return false;
        auto profile = std::make_shared<GateProfile>();
        profile->type_name = std::move(type_name);
        profile->engine = std::move(engine);
        profile->family = static_cast<TemplateFamily>(family);
        if (!readMatrix(is, profile->unitary))
            return false;
        size_t num_fits = 0;
        if (!(is >> num_fits) || num_fits > 1024)
            return false;
        profile->fits.resize(num_fits);
        for (auto& fit : profile->fits) {
            size_t num_params = 0;
            if (!(is >> fit.layers >> fit.fd >> num_params) ||
                num_params > 4096)
                return false;
            fit.params.resize(num_params);
            for (double& v : fit.params)
                if (!(is >> v))
                    return false;
        }
        parsed.emplace_back(std::move(k), std::move(profile));
    }

    for (auto& [k, profile] : parsed) {
        Stripe& stripe = stripeFor(k);
        std::unique_lock<std::shared_mutex> lock(stripe.mutex);
        if (stripe.profiles.count(k) == 0) {
            insertLocked(stripe, k, std::move(profile));
            stripe.loaded.fetch_add(1, std::memory_order_relaxed);
        }
    }
    return true;
}

} // namespace qiset

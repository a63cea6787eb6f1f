/**
 * @file
 * Single-circuit compile hot-path bench: p50/p95 cold- and warm-cache
 * latency of one 32-qubit compile (QFT-32 and QV-32 on the Sycamore
 * device, CZ instruction set), the intra-circuit parallel speedup of
 * fanning one circuit's decompositions over a worker pool, and global
 * allocation counters (operator new count/bytes) per cold compile —
 * so the arena/SBO savings are measured, not asserted.
 *
 * A warm QFT-32 leg with the four-type G3 set under "sabre" routing
 * reports its p50 and per-pass p50s: the shape of a recalibration
 * recompile (Eq. 2 selection over several types, SABRE scoring).
 *
 * A last serial cold leg compiles QV-24 under "nuop" on the SYC (S1)
 * set, a gate type no analytic tier covers, and reports the
 * translation pass's share of that compile: the BFGS cost any engine
 * still pays there.
 *
 * QFT-32's controlled-phase ladder canonicalizes to a few dozen
 * distinct profiles (cache-bound, allocation-sensitive), and its warm
 * compile runs once more under the "auto" engine, whose per-block
 * cost should stay near "nuop"'s; warm legs also report each pass's
 * p50 wall-clock. QV-32's random SU(4)s need ~500 independent BFGS
 * profile optimizations (compute-bound, where the intra-circuit
 * fan-out pays off). The parallel path must be bit-identical to
 * serial — checked here and gated in CI alongside the latency/speedup
 * baselines (scripts/check_bench_regression.py). The QV leg's cold
 * reps also rerun each serial compile on the forced-scalar kernel
 * tier. Every gated ratio (serial over parallel, scalar over SIMD,
 * warm "auto" over "nuop") divides the fastest reps of two legs whose
 * reps alternate, so a slow host stretch slows both sides alike.
 *
 * Emits a single JSON object on stdout (scripts/bench_smoke.sh
 * captures it as BENCH_hotpath.json).
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "apps/qft.h"
#include "apps/qv.h"
#include "bench/bench_common.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "compiler/pipeline.h"
#include "device/device.h"
#include "isa/gate_set.h"
#include "qc/kernels.h"
#include "qc/linalg.h"
#include "qc/matrix.h"

// ------------------------------------------------- allocation counters
//
// Replaceable global allocation functions, counting every heap
// allocation the process makes. Serial compiles are deterministic, so
// the per-compile deltas are exact, reproducible figures of merit for
// the arena/SBO work (they shrink when scratch stops hitting malloc).

namespace {

std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

// Optional size-bucket histogram (QISET_ALLOC_HISTOGRAM=1): bucket k
// holds allocations with 2^(k-1) < size <= 2^k (bucket 0: size <= 1).
// Printed to stderr around the warm rep of each workload — the tool
// that localizes which size classes dominate warm_bytes.
constexpr int kHistBuckets = 28;
std::atomic<std::uint64_t> g_hist_count[kHistBuckets];
std::atomic<std::uint64_t> g_hist_bytes[kHistBuckets];
bool g_hist_enabled = false;

int
histBucket(std::size_t size)
{
    int b = 0;
    while (b + 1 < kHistBuckets &&
           size > (static_cast<std::size_t>(1) << b))
        ++b;
    return b;
}

void
recordAlloc(std::size_t size)
{
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
    if (g_hist_enabled) {
        int b = histBucket(size);
        g_hist_count[b].fetch_add(1, std::memory_order_relaxed);
        g_hist_bytes[b].fetch_add(size, std::memory_order_relaxed);
    }
}

void*
countedAlloc(std::size_t size)
{
    recordAlloc(size);
    void* p = std::malloc(size == 0 ? 1 : size);
    if (!p)
        throw std::bad_alloc();
    return p;
}

void*
countedAlignedAlloc(std::size_t size, std::size_t align)
{
    recordAlloc(size);
    // aligned_alloc requires size to be a multiple of the alignment.
    std::size_t padded = (size + align - 1) / align * align;
    void* p = std::aligned_alloc(align, padded == 0 ? align : padded);
    if (!p)
        throw std::bad_alloc();
    return p;
}

} // namespace

void*
operator new(std::size_t size)
{
    return countedAlloc(size);
}

void*
operator new[](std::size_t size)
{
    return countedAlloc(size);
}

void*
operator new(std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, static_cast<std::size_t>(align));
}

void*
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, static_cast<std::size_t>(align));
}

void
operator delete(void* p) noexcept
{
    std::free(p);
}

void
operator delete[](void* p) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

// ----------------------------------------------------------- the bench

namespace {

using namespace qiset;

double
percentile(std::vector<double> samples, double q)
{
    std::sort(samples.begin(), samples.end());
    // Nearest-rank on the sorted samples (small-n friendly).
    double n = static_cast<double>(samples.size());
    size_t rank = static_cast<size_t>(std::ceil(q * n));
    return samples[std::min(samples.size() - 1,
                            rank == 0 ? 0 : rank - 1)];
}

struct TimedCompile
{
    double ms = 0.0;
    CompileResult result;
};

TimedCompile
timedCompile(const Circuit& app, const Device& device,
             const GateSet& set, const CompileOptions& options,
             ProfileCache& cache, ThreadPool* pool)
{
    TimedCompile timed;
    auto start = std::chrono::steady_clock::now();
    timed.result = compileCircuit(app, device, set, cache, options, pool);
    auto end = std::chrono::steady_clock::now();
    timed.ms =
        std::chrono::duration<double, std::milli>(end - start).count();
    return timed;
}

struct AllocDelta
{
    std::uint64_t count = 0;
    std::uint64_t bytes = 0;
};

struct HistSnapshot
{
    std::uint64_t count[kHistBuckets] = {};
    std::uint64_t bytes[kHistBuckets] = {};
};

HistSnapshot
histSnapshot()
{
    HistSnapshot s;
    for (int b = 0; b < kHistBuckets; ++b) {
        s.count[b] = g_hist_count[b].load(std::memory_order_relaxed);
        s.bytes[b] = g_hist_bytes[b].load(std::memory_order_relaxed);
    }
    return s;
}

/** Histogram delta to stderr (stdout stays pure JSON). */
void
histReport(const std::string& label, const HistSnapshot& before)
{
    HistSnapshot now = histSnapshot();
    std::cerr << "[alloc-hist " << label << "]\n";
    for (int b = 0; b < kHistBuckets; ++b) {
        std::uint64_t c = now.count[b] - before.count[b];
        std::uint64_t by = now.bytes[b] - before.bytes[b];
        if (c == 0)
            continue;
        std::cerr << "  <=2^" << b << " B: " << c << " allocs, " << by
                  << " bytes\n";
    }
}

/** Warm-cache reps of one compile: wall-clock and per-pass p50s. */
struct WarmTimings
{
    std::vector<double> ms;
    /** Warm p50 wall-clock per pass ("-" in pass names becomes "_"). */
    std::vector<std::pair<std::string, double>> pass_p50;
};

/**
 * Serial warm reps on one shared cache, warmed by an untimed compile.
 * Each pass's wall-clock is kept per rep, in pipeline order. The first
 * rep's heap allocations land in `first_alloc` (and the histogram,
 * when enabled, is printed around it under `name`).
 */
WarmTimings
warmReps(const std::string& name, const Circuit& app, const Device& device,
         const GateSet& set, const CompileOptions& options, int reps,
         AllocDelta* first_alloc)
{
    WarmTimings warm;
    std::vector<std::pair<std::string, std::vector<double>>> passes;
    ProfileCache cache;
    timedCompile(app, device, set, options, cache, nullptr);
    for (int rep = 0; rep < reps; ++rep) {
        std::uint64_t c0 = g_alloc_count.load();
        std::uint64_t b0 = g_alloc_bytes.load();
        HistSnapshot h0;
        if (rep == 0 && g_hist_enabled)
            h0 = histSnapshot();
        TimedCompile timed =
            timedCompile(app, device, set, options, cache, nullptr);
        if (rep == 0 && first_alloc) {
            first_alloc->count = g_alloc_count.load() - c0;
            first_alloc->bytes = g_alloc_bytes.load() - b0;
            if (g_hist_enabled)
                histReport(name + " warm", h0);
        }
        warm.ms.push_back(timed.ms);
        for (const PassMetric& metric : timed.result.pass_metrics) {
            auto it = std::find_if(
                passes.begin(), passes.end(),
                [&](const auto& row) { return row.first == metric.pass; });
            if (it == passes.end())
                it = passes.insert(passes.end(), {metric.pass, {}});
            it->second.push_back(metric.wall_ms);
        }
    }
    for (const auto& [pass, ms] : passes) {
        std::string key = pass;
        std::replace(key.begin(), key.end(), '-', '_');
        warm.pass_p50.emplace_back(key, percentile(ms, 0.50));
    }
    return warm;
}

/** `{"<pass>_ms": p50, ...}` of warm per-pass timings. */
void
emitPasses(const std::vector<std::pair<std::string, double>>& pass_p50)
{
    std::cout << "{";
    for (size_t i = 0; i < pass_p50.size(); ++i)
        std::cout << (i == 0 ? "" : ", ") << '"' << pass_p50[i].first
                  << "_ms\": " << pass_p50[i].second;
    std::cout << "}";
}

struct WorkloadReport
{
    std::string name;
    double cold_p50 = 0.0, cold_p95 = 0.0;
    double warm_p50 = 0.0, warm_p95 = 0.0;
    double parallel_p50 = 0.0, parallel_p95 = 0.0;
    /** Fastest serial cold rep over fastest parallel cold rep. */
    double speedup = 0.0;
    /** Forced-scalar serial cold p50 (scalar leg only). */
    double scalar_p50 = 0.0;
    /** Fastest forced-scalar cold rep over fastest SIMD cold rep. */
    double speedup_vs_scalar = 1.0;
    AllocDelta cold_alloc, warm_alloc;
    /** Warm p50 wall-clock per pass ("-" in pass names becomes "_"). */
    std::vector<std::pair<std::string, double>> warm_pass_p50;
    bool bit_identical = false;
};

/**
 * Cold reps (fresh cache each), then warm reps. Every cold rep is one
 * serial compile on the active kernel tier, one on the scalar tier
 * when `scalar_leg` is set and the active tier is not scalar already
 * (the two in alternating order from rep to rep), and one parallel
 * compile over `pool`, back to back; the speedups are bestRatio()s of
 * these interleaved legs.
 */
WorkloadReport
runWorkload(const std::string& name, const Circuit& app,
            const Device& device, const GateSet& set,
            const CompileOptions& options, ThreadPool& pool,
            int cold_reps, int warm_reps, bool scalar_leg)
{
    WorkloadReport report;
    report.name = name;
    const std::string active_tier = kernels::tierName();
    scalar_leg = scalar_leg && active_tier != "scalar";

    // The first serial rep's result anchors the bit-identity check
    // against the first parallel rep, and its allocation delta is the
    // deterministic counter reported below. The parallel compiles fan
    // the circuit's independent profile optimizations over the pool
    // (cooperative parallelFor; no cap).
    std::vector<double> cold_ms, scalar_ms, parallel_ms;
    CompileResult serial_result, parallel_result;
    auto coldScalar = [&] {
        kernels::setTier("scalar");
        ProfileCache cache;
        scalar_ms.push_back(
            timedCompile(app, device, set, options, cache, nullptr).ms);
        kernels::setTier(active_tier.c_str());
    };
    for (int rep = 0; rep < cold_reps; ++rep) {
        if (scalar_leg && rep % 2 == 1)
            coldScalar();
        {
            ProfileCache cache;
            std::uint64_t c0 = g_alloc_count.load();
            std::uint64_t b0 = g_alloc_bytes.load();
            TimedCompile timed =
                timedCompile(app, device, set, options, cache, nullptr);
            if (rep == 0) {
                report.cold_alloc.count = g_alloc_count.load() - c0;
                report.cold_alloc.bytes = g_alloc_bytes.load() - b0;
                serial_result = std::move(timed.result);
            }
            cold_ms.push_back(timed.ms);
        }
        if (scalar_leg && rep % 2 == 0)
            coldScalar();
        ProfileCache cache;
        TimedCompile timed =
            timedCompile(app, device, set, options, cache, &pool);
        if (rep == 0)
            parallel_result = std::move(timed.result);
        parallel_ms.push_back(timed.ms);
    }

    WarmTimings warm =
        warmReps(name, app, device, set, options, warm_reps,
                 &report.warm_alloc);
    report.warm_pass_p50 = std::move(warm.pass_p50);

    report.cold_p50 = percentile(cold_ms, 0.50);
    report.cold_p95 = percentile(cold_ms, 0.95);
    report.warm_p50 = percentile(warm.ms, 0.50);
    report.warm_p95 = percentile(warm.ms, 0.95);
    report.parallel_p50 = percentile(parallel_ms, 0.50);
    report.parallel_p95 = percentile(parallel_ms, 0.95);
    report.speedup = bench::bestRatio(cold_ms, parallel_ms);
    report.scalar_p50 = report.cold_p50;
    if (scalar_leg) {
        report.scalar_p50 = percentile(scalar_ms, 0.50);
        report.speedup_vs_scalar = bench::bestRatio(scalar_ms, cold_ms);
    }
    report.bit_identical =
        bench::resultsBitIdentical(serial_result, parallel_result);
    return report;
}

void
emitWorkload(const WorkloadReport& r, bool last)
{
    std::cout << "    {\n      \"name\": \"" << r.name << "\",\n"
              << "      \"cold\": {\"p50_ms\": " << r.cold_p50
              << ", \"p95_ms\": " << r.cold_p95 << "},\n"
              << "      \"warm\": {\"p50_ms\": " << r.warm_p50
              << ", \"p95_ms\": " << r.warm_p95 << "},\n"
              << "      \"parallel_cold\": {\"p50_ms\": "
              << r.parallel_p50 << ", \"p95_ms\": " << r.parallel_p95
              << "},\n"
              << "      \"speedup\": " << r.speedup << ",\n"
              << "      \"alloc\": {\"cold_count\": "
              << r.cold_alloc.count
              << ", \"cold_bytes\": " << r.cold_alloc.bytes
              << ", \"warm_count\": " << r.warm_alloc.count
              << ", \"warm_bytes\": " << r.warm_alloc.bytes << "},\n"
              << "      \"passes\": ";
    emitPasses(r.warm_pass_p50);
    std::cout << ",\n"
              << "      \"bit_identical\": "
              << (r.bit_identical ? "true" : "false") << "\n    }"
              << (last ? "" : ",") << '\n';
}

// ------------------------------------------- kernel micro-throughput
//
// Per-kernel Gflop/s of the active dispatch tier on fixed Haar-random
// operands. Calls go through the dispatch table's function pointers
// (opaque across TUs), so the loop cannot be folded away. Flop
// counts use 6 flops per complex mul and 2 per complex add: mul4x4 =
// 64 cmul + 48 cadd = 512, mul2x2 = 8 + 4 = 64, kron2x2 = 16 cmul =
// 96, hsDot(16) = 16 cmul + 16 cadd = 128 (conjugation is free).

struct KernelThroughput
{
    double mul4x4 = 0.0, mul2x2 = 0.0, kron2x2 = 0.0, hs_dot = 0.0;
};

template <typename Fn>
double
gflopsOf(int iters, double flops_per_call, Fn&& fn)
{
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i)
        fn();
    auto t1 = std::chrono::steady_clock::now();
    double secs = std::chrono::duration<double>(t1 - t0).count();
    return secs > 0.0 ? flops_per_call * iters / secs / 1e9 : 0.0;
}

KernelThroughput
measureKernelThroughput(bool quick)
{
    const kernels::KernelOps& ops = kernels::active();
    Rng rng(20260808);
    Matrix a4 = haarRandomUnitary(4, rng);
    Matrix b4 = haarRandomUnitary(4, rng);
    Matrix a2 = haarRandomUnitary(2, rng);
    Matrix b2 = haarRandomUnitary(2, rng);
    cplx out[16];
    int iters = quick ? 200000 : 1000000;
    KernelThroughput t;
    t.mul4x4 = gflopsOf(iters, 512.0, [&] {
        ops.mul4x4(out, a4.data(), b4.data());
    });
    t.mul2x2 = gflopsOf(iters * 4, 64.0, [&] {
        ops.mul2x2(out, a2.data(), b2.data());
    });
    t.kron2x2 = gflopsOf(iters * 2, 96.0, [&] {
        ops.kron2x2(out, a2.data(), b2.data());
    });
    t.hs_dot = gflopsOf(iters * 2, 128.0, [&] {
        out[0] = ops.hsDot(a4.data(), b4.data(), 16);
    });
    return t;
}

} // namespace

int
main(int argc, char** argv)
{
    // --quick trims the compute-bound leg for the CI smoke run: the
    // QV workload drops to 24 qubits and every rep count shrinks. The
    // QFT workload stays at 32 qubits so its deterministic allocation
    // counters — the numbers bench_baseline.json gates — are the same
    // figures in both modes.
    bool quick = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--quick") {
            quick = true;
        } else {
            // Usage goes to stderr: stdout must stay pure JSON for
            // the smoke capture (same contract as bench_translation).
            std::cerr << "usage: " << argv[0] << " [--quick]\n"
                      << "  --quick  CI smoke scale: QV-24, fewer reps\n";
            return arg == "--help" || arg == "-h" ? 0 : 2;
        }
    }

    // Opt-in allocation histogram for hunting residual hot-path
    // allocations (reported to stderr around each warm rep).
    const char* hist_env = std::getenv("QISET_ALLOC_HISTOGRAM");
    g_hist_enabled =
        hist_env && *hist_env && std::strcmp(hist_env, "0") != 0;

    Rng rng(4242);
    Device device = makeSycamore(rng);
    GateSet set = isa::singleTypeSet(3); // CZ
    CompileOptions options = bench::benchCompileOptions();

    unsigned hw = std::thread::hardware_concurrency();
    ThreadPool pool(hw == 0 ? 1 : hw);

    Circuit qft = makeQftCircuit(32);
    Rng qv_rng(77);
    int qv_qubits = quick ? 24 : 32;
    Circuit qv = makeQuantumVolumeCircuit(qv_qubits, qv_rng);

    // QFT-32 is sub-second per compile: enough reps for a stable p95.
    // QV-32 pays ~500 BFGS optimizations per cold rep; keep it to a
    // handful (its p95 is effectively the max of the reps). The QV
    // leg also carries the SIMD-vs-scalar A/B: each cold rep reruns
    // the serial compile with the dispatch tier pinned to scalar. Same
    // circuit, same seeds, bit-identical results (the kernel contract)
    // — the only difference is kernel width, so the ratio isolates the
    // SIMD payoff from everything else in this binary.
    WorkloadReport qft_report =
        runWorkload("qft32", qft, device, set, options, pool,
                    quick ? 3 : 7, quick ? 5 : 15, false);
    WorkloadReport qv_report = runWorkload(
        quick ? "qv24" : "qv32", qv, device, set, options, pool,
        quick ? 9 : 5, quick ? 2 : 3, true);

    bool bit_identical =
        qft_report.bit_identical && qv_report.bit_identical;

    // Warm "auto" against warm "nuop" on the same circuit, device and
    // set: "auto" canonicalizes keys and re-dresses each distinct
    // block. Reps alternate the engines, each on its own warmed cache,
    // and the ratio is their bestRatio(), so host drift hits both
    // alike; it is serial and same-host, so it is gated on every
    // runner.
    CompileOptions auto_options = options;
    auto_options.decomposition = "auto";
    std::vector<double> paired_nuop_ms, auto_ms;
    {
        ProfileCache nuop_cache, auto_cache;
        timedCompile(qft, device, set, options, nuop_cache, nullptr);
        timedCompile(qft, device, set, auto_options, auto_cache, nullptr);
        for (int rep = 0; rep < 15; ++rep) {
            paired_nuop_ms.push_back(
                timedCompile(qft, device, set, options, nuop_cache,
                             nullptr)
                    .ms);
            auto_ms.push_back(timedCompile(qft, device, set, auto_options,
                                           auto_cache, nullptr)
                                  .ms);
        }
    }
    double auto_warm_p50 = percentile(auto_ms, 0.50);
    double auto_over_nuop = bench::bestRatio(auto_ms, paired_nuop_ms);

    // Warm QFT-32 with the four-type G3 set under "sabre", the shape
    // of the recalibration recompiles: Eq. 2 selection over several
    // types per block, and SABRE routing. Its timings are reported;
    // its rep-0 allocation counters are deterministic and gated.
    CompileOptions g3_sabre = options;
    g3_sabre.routing = "sabre";
    AllocDelta g3_alloc;
    WarmTimings g3_warm = warmReps("qft32_g3_sabre", qft, device,
                                   isa::googleSet(3), g3_sabre,
                                   quick ? 5 : 15, &g3_alloc);

    // Serial cold QV-24 on SYC, which only BFGS can decompose: the
    // compile's p50 and the translation pass's share of each rep's
    // wall-clock (PassMetric::wall_ms over the whole compile).
    GateSet syc = isa::singleTypeSet(1);
    Rng syc_rng(77);
    Circuit qv24 = quick ? qv : makeQuantumVolumeCircuit(24, syc_rng);
    std::vector<double> syc_ms, syc_translation_share;
    for (int rep = 0; rep < (quick ? 2 : 3); ++rep) {
        ProfileCache cache;
        TimedCompile timed =
            timedCompile(qv24, device, syc, options, cache, nullptr);
        syc_ms.push_back(timed.ms);
        for (const PassMetric& metric : timed.result.pass_metrics)
            if (metric.pass == "translation")
                syc_translation_share.push_back(metric.wall_ms / timed.ms);
    }

    KernelThroughput kt = measureKernelThroughput(quick);
    const std::string active_tier = kernels::tierName();
    const double cold_speedup_vs_scalar = qv_report.speedup_vs_scalar;

    std::cout << "{\n  \"bench\": \"hotpath\",\n"
              << "  \"mode\": \"" << (quick ? "quick" : "full")
              << "\",\n"
              << "  \"threads\": " << pool.size() << ",\n"
              << "  \"gate_set\": \"" << set.name << "\",\n"
              << "  \"kernel_dispatch_tier\": \"" << active_tier
              << "\",\n"
              << "  \"workloads\": [\n";
    emitWorkload(qft_report, false);
    emitWorkload(qv_report, true);
    // Headline figures the CI gate reads: QFT-32 serial latency and
    // allocation counters (the deterministic cache-bound path, also
    // under G3 and "sabre"), the warm "auto"/"nuop" ratio (per-block canonical dressing would
    // show here), the QV intra-circuit parallel speedup (the
    // compute-bound path that needs the cores), and the QV cold p50
    // plus its ratio against the forced-scalar leg (the SIMD kernel
    // payoff). The SYC leg's figures are reported, not gated.
    std::cout << "  ],\n"
              << "  \"qft32_cold_p95_ms\": " << qft_report.cold_p95
              << ",\n"
              << "  \"qft32_warm_auto_p50_ms\": " << auto_warm_p50
              << ",\n"
              << "  \"qft32_warm_auto_over_nuop\": " << auto_over_nuop
              << ",\n"
              << "  \"qft32_g3_sabre_warm_p50_ms\": "
              << percentile(g3_warm.ms, 0.50) << ",\n"
              << "  \"qft32_g3_sabre_warm_alloc_count\": " << g3_alloc.count
              << ",\n"
              << "  \"qft32_g3_sabre_warm_alloc_bytes\": " << g3_alloc.bytes
              << ",\n"
              << "  \"qft32_g3_sabre_warm_passes\": ";
    emitPasses(g3_warm.pass_p50);
    std::cout << ",\n"
              << "  \"qv24_cold_p50_ms\": " << qv_report.cold_p50
              << ",\n"
              << "  \"qv24_cold_scalar_p50_ms\": " << qv_report.scalar_p50
              << ",\n"
              << "  \"cold_speedup_vs_scalar\": "
              << cold_speedup_vs_scalar << ",\n"
              << "  \"qv24_syc_cold_p50_ms\": " << percentile(syc_ms, 0.50)
              << ",\n"
              << "  \"qv24_syc_translation_share\": "
              << percentile(syc_translation_share, 0.50) << ",\n"
              << "  \"kernel_gflops\": {\"mul4x4\": " << kt.mul4x4
              << ", \"mul2x2\": " << kt.mul2x2
              << ", \"kron2x2\": " << kt.kron2x2
              << ", \"hs_dot\": " << kt.hs_dot << "},\n"
              << "  \"cold_speedup\": " << qv_report.speedup << ",\n"
              << "  \"bit_identical\": "
              << (bit_identical ? "true" : "false") << "\n}\n";

    // Self-check: on an AVX2 host the SIMD cold path must beat the
    // scalar leg clearly (acceptance floor 1.5x measured with margin;
    // 1.2x here is the gross-failure line — below it the kernels are
    // not actually being dispatched). check_bench_regression.py holds
    // the tighter baseline-tracked floor.
    if (active_tier == "avx2" && cold_speedup_vs_scalar < 1.2) {
        std::cerr << "FAIL: avx2 tier active but cold_speedup_vs_scalar"
                  << " = " << cold_speedup_vs_scalar << " < 1.2\n";
        return 1;
    }
    return 0;
}

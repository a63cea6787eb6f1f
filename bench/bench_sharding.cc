/**
 * @file
 * Sharded batch-compilation bench: a mixed workload compiled serially
 * on one device vs. sharded over a 2-device fleet with a thread pool.
 * Reports wall-clock, throughput and the sharded/serial speedup, plus
 * per-shard assignment counts and the mean-fidelity delta vs. the
 * single-device baseline — and verifies that every sharded result is
 * bit-identical to compiling the same circuit alone on its assigned
 * device (exit code 1 on any mismatch, so CI catches determinism
 * breaks on the perf path).
 *
 * Emits a single JSON object on stdout (captured as
 * BENCH_sharding.json by scripts/bench_smoke.sh); the regression gate
 * tracks the speedup, which is machine-relative and therefore stable
 * across runner generations. The two legs alternate reps, every rep
 * on a fresh cache, for at least 3 reps each and 4 s in all
 * (bench::anotherRatioRep); the wall times are each leg's fastest rep
 * and the speedup is their ratio (bench::bestRatio), so neither one
 * host stall nor vCPUs that wake late can sink the gate. The pool is
 * capped at 4 threads so the figure is comparable between laptops and
 * CI runners.
 */

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <thread>
#include <vector>

#include "apps/qaoa.h"
#include "apps/qft.h"
#include "apps/qv.h"
#include "bench/bench_common.h"
#include "common/rng.h"
#include "compiler/shard.h"
#include "isa/gate_set.h"

namespace {

using namespace qiset;

Device
makeLineDevice(const std::string& name, int n, double fid)
{
    Device d(name, Topology::line(n));
    for (auto [a, b] : d.topology().edges()) {
        d.setEdgeFidelity(a, b, "S3", fid);
        d.setEdgeFidelity(a, b, "S4", fid - 0.005);
    }
    for (int q = 0; q < n; ++q)
        d.setOneQubitError(q, 0.0005);
    return d;
}

std::vector<Circuit>
makeWorkload()
{
    std::vector<Circuit> apps;
    Rng rng(2024);
    for (int i = 0; i < 4; ++i) {
        apps.push_back(makeQftCircuit(4 + i % 2));
        apps.push_back(makeRandomQaoaCircuit(5, rng));
        apps.push_back(makeQuantumVolumeCircuit(4, rng));
    }
    return apps;
}

double
wallMsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

double
meanFidelity(const std::vector<CompileResult>& results)
{
    double sum = 0.0;
    for (const CompileResult& r : results)
        sum += r.estimated_fidelity;
    return results.empty() ? 0.0 : sum / results.size();
}

} // namespace

int
main()
{
    CompileOptions opts;
    opts.nuop.max_layers = 4;
    opts.nuop.multistarts = 3;
    opts.nuop.exact_threshold = 1.0 - 1e-6;
    GateSet set = isa::rigettiSet(1);

    std::vector<Circuit> apps = makeWorkload();

    // Fleet: two calibrated 8-qubit devices, the second slightly
    // worse, so the planner has both load and fidelity to trade off.
    DeviceFleet fleet(opts);
    fleet.addDevice(makeLineDevice("alpha", 8, 0.995));
    fleet.addDevice(makeLineDevice("beta", 8, 0.990));

    size_t hardware = std::thread::hardware_concurrency();
    size_t threads = std::min<size_t>(4, hardware ? hardware : 4);
    if (const char* env = std::getenv("BENCH_SHARDING_THREADS"))
        threads = std::max(1, std::atoi(env));

    // Serial single-device baseline: the whole workload on the best
    // device, no pool. Sharded: the planner spreads the workload over
    // the fleet, and compiles fan out over the pool with one shared
    // cache. The first rep's results are checked below.
    ThreadPool pool(threads);
    std::vector<double> serial_reps_ms, sharded_reps_ms;
    std::vector<CompileResult> serial;
    ShardedBatchResult sharded;
    auto reps_start = std::chrono::steady_clock::now();
    for (int rep = 0; bench::anotherRatioRep(rep, reps_start); ++rep) {
        ProfileCache serial_cache;
        auto serial_start = std::chrono::steady_clock::now();
        std::vector<CompileResult> batch = compileBatch(
            apps, fleet.shard(0).device, set, serial_cache, opts);
        serial_reps_ms.push_back(wallMsSince(serial_start));

        ProfileCache sharded_cache;
        auto sharded_start = std::chrono::steady_clock::now();
        ShardedBatchResult spread = compileBatchSharded(
            apps, fleet, set, sharded_cache, {}, &pool);
        sharded_reps_ms.push_back(wallMsSince(sharded_start));
        if (rep == 0) {
            serial = std::move(batch);
            sharded = std::move(spread);
        }
    }
    double serial_ms =
        *std::min_element(serial_reps_ms.begin(), serial_reps_ms.end());
    double sharded_ms =
        *std::min_element(sharded_reps_ms.begin(), sharded_reps_ms.end());

    // Bit-identity: every sharded result must equal a solo compile on
    // its assigned device. Circuits placed on shard 0 compare against
    // the serial baseline for free; the rest are recompiled solo.
    bool bit_identical = true;
    ProfileCache check_cache;
    for (size_t i = 0; i < apps.size(); ++i) {
        int s = sharded.plan.assignments[i].shard;
        const Shard& shard = fleet.shard(static_cast<size_t>(s));
        if (s == 0) {
            bit_identical =
                bit_identical &&
                bench::resultsBitIdentical(serial[i], sharded.results[i]);
        } else {
            CompileResult solo =
                compileCircuit(apps[i], shard.device, set, check_cache,
                               shard.options);
            bit_identical =
                bit_identical &&
                bench::resultsBitIdentical(solo, sharded.results[i]);
        }
    }

    double speedup = bench::bestRatio(serial_reps_ms, sharded_reps_ms);
    double serial_cps = serial_ms > 0.0 ? 1000.0 * apps.size() / serial_ms
                                        : 0.0;
    double sharded_cps =
        sharded_ms > 0.0 ? 1000.0 * apps.size() / sharded_ms : 0.0;
    double fid_serial = meanFidelity(serial);
    double fid_sharded = meanFidelity(sharded.results);

    std::cout << "{\n  \"bench\": \"sharding\",\n"
              << "  \"num_circuits\": " << apps.size() << ",\n"
              << "  \"num_shards\": " << fleet.size() << ",\n"
              << "  \"threads\": " << threads << ",\n"
              << "  \"serial\": {\"wall_ms\": " << serial_ms
              << ", \"throughput_cps\": " << serial_cps << "},\n"
              << "  \"sharded\": {\"wall_ms\": " << sharded_ms
              << ", \"throughput_cps\": " << sharded_cps
              << ", \"speedup\": " << speedup << "},\n"
              << "  \"bit_identical\": "
              << (bit_identical ? "true" : "false") << ",\n"
              << "  \"mean_fidelity_serial\": " << fid_serial << ",\n"
              << "  \"mean_fidelity_sharded\": " << fid_sharded << ",\n"
              << "  \"fidelity_delta\": " << fid_sharded - fid_serial
              << ",\n  \"shards\": [\n";
    for (size_t s = 0; s < fleet.size(); ++s) {
        const PassMetric& metric = sharded.shard_metrics[s];
        std::cout << "    {\"name\": \"" << fleet.shard(s).name
                  << "\", \"assigned\": "
                  << metric.counters.at("assigned")
                  << ", \"queue_ns\": " << metric.counters.at("queue_ns")
                  << ", \"compile_wall_ms\": " << metric.wall_ms << "}"
                  << (s + 1 < fleet.size() ? "," : "") << '\n';
    }
    std::cout << "  ]\n}\n";

    if (!bit_identical) {
        std::cerr << "FAIL: sharded results diverge from single-device "
                     "compiles\n";
        return 1;
    }
    return 0;
}

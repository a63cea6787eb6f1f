/**
 * @file
 * CompileService throughput/latency bench: a stream of single-circuit
 * jobs submitted to one async service over a 2-device fleet, measured
 * end to end (submit -> complete). Reports jobs/sec, p50/p95/mean
 * latency, queue-wait percentiles and the warm-cache hit ratio, plus
 * the service/serial speedup against compiling the same stream with
 * serial compileCircuit calls — and verifies that every service
 * result is bit-identical to that solo compile (exit code 1 on any
 * mismatch, so CI catches determinism breaks).
 *
 * Emits a single JSON object on stdout (captured as BENCH_service.json
 * by scripts/bench_smoke.sh); the regression gate tracks the speedup,
 * which is machine-relative and therefore stable across runner
 * generations. The worker pool is capped at 4 threads so the figure is
 * comparable between laptops and CI runners.
 *
 * A second *soak* leg replays a few hundred tiny jobs with the full
 * observability stack on — event stream + background recorder,
 * completion callbacks, periodic telemetry snapshots — and exports
 * the drained log as a Chrome trace
 * (SERVICE_TRACE_OUT, default "trace.json"; load it in Perfetto or
 * chrome://tracing). scripts/trace_lint.py validates the file in CI.
 * The soak fails the bench on dropped packets, missed callbacks or an
 * unwritable trace, so observability regressions are as loud as
 * determinism breaks.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <thread>
#include <vector>

#include "metrics/event_stream.h"
#include "metrics/trace_export.h"

#include "apps/qaoa.h"
#include "apps/qft.h"
#include "apps/qv.h"
#include "bench/bench_common.h"
#include "common/rng.h"
#include "compiler/service.h"
#include "isa/gate_set.h"
#include "metrics/metrics.h"

namespace {

using namespace qiset;
using Clock = std::chrono::steady_clock;

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
makeJobStream()
{
    std::vector<Circuit> apps;
    Rng rng(2026);
    for (int i = 0; i < 6; ++i) {
        apps.push_back(makeQftCircuit(4 + i % 2));
        apps.push_back(makeRandomQaoaCircuit(5, rng));
        apps.push_back(makeQuantumVolumeCircuit(4, rng));
    }
    return apps;
}

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
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

    DeviceFleet fleet(opts);
    fleet.addDevice(makeLineDevice("alpha", 8, 0.995));
    fleet.addDevice(makeLineDevice("beta", 8, 0.990));

    size_t hardware = std::thread::hardware_concurrency();
    size_t threads = std::min<size_t>(4, hardware ? hardware : 4);
    if (const char* env = std::getenv("BENCH_SERVICE_THREADS"))
        threads = std::max(1, std::atoi(env));

    std::vector<Circuit> apps = makeJobStream();

    // ---- async service: one job per circuit, all submitted upfront --
    CompileServiceOptions service_options;
    service_options.workers = threads;
    CompileService service(fleet, set, service_options);

    auto service_start = Clock::now();
    std::vector<CompileJob> jobs;
    std::vector<Clock::time_point> submit_at;
    jobs.reserve(apps.size());
    for (const Circuit& app : apps) {
        CompileRequest request;
        request.circuits.push_back(app);
        submit_at.push_back(Clock::now());
        jobs.push_back(service.submit(std::move(request)));
    }
    std::vector<double> latency_ms(jobs.size(), 0.0);
    for (size_t i = 0; i < jobs.size(); ++i) {
        jobs[i].wait();
        latency_ms[i] = msSince(submit_at[i]);
    }
    double service_ms = msSince(service_start);

    std::vector<double> queue_wait_ms;
    double cache_hit_ratio_last = 0.0;
    for (size_t i = 0; i < jobs.size(); ++i) {
        CompileJobStats stats = jobs[i].stats();
        queue_wait_ms.push_back(stats.queue_wait_ns_mean / 1e6);
        if (i + 1 == jobs.size())
            cache_hit_ratio_last = stats.cache_hit_ratio;
    }

    // ---- serial baseline: direct compileCircuit calls, shared cache --
    ProfileCache serial_cache;
    auto serial_start = Clock::now();
    std::vector<CompileResult> serial;
    serial.reserve(apps.size());
    for (size_t i = 0; i < apps.size(); ++i) {
        const Shard& shard = fleet.shard(
            static_cast<size_t>(jobs[i].plan().assignments[0].shard));
        serial.push_back(compileCircuit(apps[i], shard.device, set,
                                        serial_cache, shard.options));
    }
    double serial_ms = msSince(serial_start);

    // ---- self-check: service results == solo compiles ---------------
    bool bit_identical = true;
    bool all_done = true;
    for (size_t i = 0; i < jobs.size(); ++i) {
        if (jobs[i].poll() != JobStatus::Done) {
            all_done = false;
            continue;
        }
        bit_identical =
            bit_identical &&
            bench::resultsBitIdentical(serial[i], jobs[i].results()[0]);
    }

    double speedup = service_ms > 0.0 ? serial_ms / service_ms : 0.0;
    double jobs_per_sec =
        service_ms > 0.0 ? 1000.0 * jobs.size() / service_ms : 0.0;

    // ---- soak leg: the full observability stack under a job storm ---
    const char* trace_env = std::getenv("SERVICE_TRACE_OUT");
    std::string trace_path = trace_env ? trace_env : "trace.json";
    const size_t soak_jobs = 300;

    EventStream stream(size_t{1} << 16);
    EventRecorder recorder(stream, 1.0);
    std::atomic<size_t> soak_callbacks{0};
    std::atomic<size_t> snapshots{0};
    double soak_ms = 0.0;
    {
        CompileServiceOptions soak_options;
        soak_options.workers = threads;
        soak_options.events = &stream;
        soak_options.telemetry_interval_ms = 5.0;
        soak_options.telemetry_sink =
            [&snapshots](std::vector<PassMetric>) {
                snapshots.fetch_add(1, std::memory_order_relaxed);
            };
        CompileService soak(fleet, set, soak_options);

        Rng rng(4072);
        auto soak_start = Clock::now();
        for (size_t i = 0; i < soak_jobs; ++i) {
            CompileRequest request;
            request.circuits.push_back(
                i % 3 == 2 ? makeRandomQaoaCircuit(4, rng)
                           : makeQftCircuit(3 + i % 2));
            request.on_complete = [&soak_callbacks](CompileJob job) {
                if (job.poll() == JobStatus::Done)
                    soak_callbacks.fetch_add(
                        1, std::memory_order_relaxed);
            };
            soak.submit(std::move(request));
        }
        soak.shutdown();
        soak_ms = msSince(soak_start);
    }
    recorder.stop();

    TraceExportOptions trace_options;
    for (const Shard& shard : fleet.shards())
        trace_options.shard_names.push_back(shard.name);
    trace_options.pass_names = stream.passNames();
    bool trace_written = writeChromeTraceFile(
        trace_path, recorder.events(), trace_options);
    bool soak_ok = trace_written && stream.dropped() == 0 &&
                   soak_callbacks.load() == soak_jobs &&
                   recorder.events().size() == stream.published();

    std::cout << "{\n  \"bench\": \"service\",\n"
              << "  \"jobs\": " << jobs.size() << ",\n"
              << "  \"threads\": " << threads << ",\n"
              << "  \"all_done\": " << (all_done ? "true" : "false")
              << ",\n"
              << "  \"service\": {\"wall_ms\": " << service_ms
              << ", \"jobs_per_sec\": " << jobs_per_sec
              << ", \"speedup\": " << speedup << "},\n"
              << "  \"serial\": {\"wall_ms\": " << serial_ms << "},\n"
              << "  \"latency_ms\": {\"p50\": "
              << quantile(latency_ms, 0.50)
              << ", \"p95\": " << quantile(latency_ms, 0.95)
              << ", \"max\": " << quantile(latency_ms, 1.0) << "},\n"
              << "  \"queue_wait_ms\": {\"p50\": "
              << quantile(queue_wait_ms, 0.50)
              << ", \"p95\": " << quantile(queue_wait_ms, 0.95) << "},\n"
              << "  \"cache_hit_ratio_last_job\": " << cache_hit_ratio_last
              << ",\n"
              << "  \"bit_identical\": "
              << (bit_identical ? "true" : "false") << ",\n"
              << "  \"soak\": {\"jobs\": " << soak_jobs
              << ", \"wall_ms\": " << soak_ms
              << ", \"events_published\": " << stream.published()
              << ", \"events_dropped\": " << stream.dropped()
              << ", \"events_recorded\": " << recorder.events().size()
              << ", \"callbacks\": " << soak_callbacks.load()
              << ", \"telemetry_snapshots\": " << snapshots.load()
              << ", \"trace_file\": \"" << trace_path << "\""
              << ", \"trace_written\": "
              << (trace_written ? "true" : "false")
              << ", \"ok\": " << (soak_ok ? "true" : "false") << "}\n}\n";

    if (!all_done) {
        std::cerr << "FAIL: not every service job completed\n";
        return 1;
    }
    if (!bit_identical) {
        std::cerr << "FAIL: service results diverge from "
                     "compileCircuit\n";
        return 1;
    }
    if (!soak_ok) {
        std::cerr << "FAIL: soak telemetry invariants violated "
                     "(dropped packets, missed callbacks, or "
                     "unwritable trace)\n";
        return 1;
    }
    return 0;
}

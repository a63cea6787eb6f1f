#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <climits>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "apps/fermi_hubbard.h"
#include "apps/qaoa.h"
#include "apps/qft.h"
#include "apps/qv.h"
#include "compiler/service.h"

namespace perfbench {

namespace {

/** Independent sub-seed of the workload seed (splitmix64). */
uint64_t
subSeed(uint64_t seed, uint64_t stream)
{
    uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/**
 * setup_s is the median of at least kSetupReps set-ups, repeated
 * further (up to kSetupMaxReps) while they total under kSetupMinMs,
 * so that cheap set-ups still give a steady median.
 */
constexpr int kSetupReps = 3;
constexpr int kSetupMaxReps = 51;
constexpr double kSetupMinMs = 300.0;

/**
 * The device models of isa-sweep and service are fixed hardware (the
 * figure benches' Rng(10)); their seed draws circuits and schedules.
 * Calibration draws moved those workloads' exact output means by up
 * to 2x from seed to seed, drowning everything else. Recalibrate
 * draws the drift of its calibration snapshots from the seed: the
 * snapshots are its input.
 */
constexpr uint64_t kHardwareSeed = 10;

/** Hard cap on a timed phase, whatever --seconds asks for. */
constexpr double kMaxTimedMs = 120e3;

/** isa-sweep makes seconds / kSweepPassSeconds passes, at least 2. */
constexpr double kSweepPassSeconds = 10.0;
constexpr int kSweepMinPasses = 2;
/**
 * Fewest rounds of recalibrate (a round takes 2.5 to 4 s). Six rounds
 * keep 3 x 80 = 240 compiles, so at least 10 lie beyond p95.
 */
constexpr int kRecalibrateMinRounds = 6;

/** Run `setup` repeatedly, keep the last result, return the median
 *  wall time in seconds. */
template <typename T, typename Fn>
double
timedSetup(std::unique_ptr<T>& keep, Fn&& setup)
{
    std::vector<double> times;
    double total_ms = 0.0;
    while (times.size() < static_cast<size_t>(kSetupReps) ||
           (total_ms < kSetupMinMs &&
            times.size() < static_cast<size_t>(kSetupMaxReps))) {
        keep.reset();
        double t0 = nowMs();
        keep = setup();
        double dt = nowMs() - t0;
        total_ms += dt;
        times.push_back(dt / 1000.0);
    }
    return median(times);
}

/**
 * Per-request samples of the service layer. The open loop of `service`
 * fills them from its generator's timestamps and CompileJob::stats();
 * the serial workloads from the inline one-shot service that
 * compileCircuit builds, driven explicitly in the traced run.
 */
struct ServiceSamples
{
    std::vector<double> submit_ms;
    std::vector<double> queue_wait_ms;
    std::vector<double> pool_wait_ms;
    std::vector<double> compile_ms;
    std::vector<double> late_ms;
    double busy_ms = 0.0;
    /** Worker-milliseconds available: workers x the loop's window. */
    double capacity_ms = 0.0;
    uint64_t rejected = 0;
    uint64_t failed = 0;

    /** One completed request: its dispatch wait and compile time, and
     *  the time from submit() to completion. */
    void addJob(const CompileJobStats& stats, double submitted_to_done_ms)
    {
        double queue = stats.queue_wait_ns_max / 1e6;
        queue_wait_ms.push_back(queue);
        compile_ms.push_back(stats.compile_wall_ms);
        pool_wait_ms.push_back(std::max(
            0.0, submitted_to_done_ms - queue - stats.compile_wall_ms));
        busy_ms += stats.compile_wall_ms;
    }

    void appendMetrics(std::vector<Metric>& out) const
    {
        out.push_back({"service.submit_ms_p95", quantile(submit_ms, 0.95),
                       "ms"});
        out.push_back({"service.queue_wait_ms_p95",
                       quantile(queue_wait_ms, 0.95), "ms"});
        out.push_back({"service.pool_wait_ms_p50",
                       quantile(pool_wait_ms, 0.50), "ms"});
        out.push_back({"service.pool_wait_ms_p95",
                       quantile(pool_wait_ms, 0.95), "ms"});
        out.push_back({"service.compile_ms_p95", quantile(compile_ms, 0.95),
                       "ms"});
        out.push_back({"service.worker_busy_share",
                       capacity_ms > 0.0 ? busy_ms / capacity_ms : 0.0,
                       "share"});
        out.push_back(
            {"service.rejected", static_cast<double>(rejected), "count"});
        out.push_back({"service.failed", static_cast<double>(failed), "count"});
        out.push_back({"loadgen.late_ms_p95", quantile(late_ms, 0.95), "ms"});
    }
};

/**
 * The timed phase of a serial workload: one caller compiles the job
 * list over and over (a repetition is a sweep pass or a recalibration
 * round) until the compile time reaches `seconds`, with between
 * `min_repetitions` and `max_repetitions` repetitions. Each repetition
 * compiles against
 * `cache_for(r)`. Every output is checked outside the timed region
 * and then dropped.
 *
 * Every repetition of a job does the same work, and repetitions of one
 * job lie seconds apart. On a shared host, interference slows whole
 * stretches of seconds by up to ~2x, so each job keeps the faster half
 * of its repetitions (rounded down, at least one) and sets the rest
 * aside. Latency quantiles are over the kept compiles, throughput is
 * kept compiles per second of their summed time, and the exact output
 * figures are averaged over jobs (each job's output is identical every
 * time).
 */
template <typename CacheFor>
int
serialTimedPhase(const std::vector<CompileJobSpec>& jobs, double seconds,
                 int min_repetitions, int max_repetitions,
                 CacheFor&& cache_for, EndToEnd& e2e, OutputChecker& checker,
                 RunReport& report)
{
    std::vector<std::vector<double>> times(jobs.size());
    std::vector<bool> counted(jobs.size(), false);
    double timed_ms = 0.0;
    int repetitions = 0;
    RssSampler rss;
    while (repetitions < min_repetitions ||
           (timed_ms < seconds * 1000.0 && timed_ms < kMaxTimedMs &&
            repetitions < max_repetitions)) {
        ProfileCache& cache = cache_for(repetitions);
        for (size_t j = 0; j < jobs.size(); ++j) {
            const CompileJobSpec& job = jobs[j];
            ++e2e.attempted;
            double t0 = nowMs();
            CompileResult result;
            try {
                result = compileCircuit(*job.app, *job.device, *job.gate_set,
                                        cache, job.options);
            } catch (const std::exception& e) {
                timed_ms += nowMs() - t0;
                ++e2e.failed;
                if (report.failures.size() < 8)
                    report.failures.push_back(job.name + ": " + e.what());
                continue;
            }
            double dt = nowMs() - t0;
            timed_ms += dt;
            times[j].push_back(dt);
            if (!checker.check(job, result).empty()) {
                ++e2e.failed;
            } else if (!counted[j]) {
                counted[j] = true;
                e2e.addOutput(outputFigures(result));
            }
        }
        ++repetitions;
    }
    e2e.peak_rss_mb = rss.peakMb();
    double kept_ms = 0.0;
    for (std::vector<double>& job_times : times) {
        std::sort(job_times.begin(), job_times.end());
        job_times.resize(std::max<size_t>(1, job_times.size() / 2));
        for (double t : job_times) {
            e2e.latencies_ms.push_back(t);
            kept_ms += t;
        }
    }
    e2e.completed = e2e.latencies_ms.size();
    e2e.timed_s = kept_ms / 1000.0;
    return repetitions;
}

/**
 * The service layer of one serial compile: the inline one-shot
 * CompileService that compileCircuit builds, driven explicitly so its
 * job stats are visible. In this closed loop a request is due once the
 * service is built; it is sent when its request has been built.
 * Returns the digest of the output (0 when the job did not finish).
 */
uint64_t
oneShotServiceCompile(const CompileJobSpec& job, ProfileCache& cache,
                      ServiceSamples& samples)
{
    DeviceFleet fleet(job.options);
    fleet.addDevice(*job.device, job.options);
    CompileService service(std::move(fleet), *job.gate_set,
                           oneShotServiceOptions(cache, 1, nullptr));
    double due = nowMs();
    CompileRequest request;
    request.circuits.push_back(*job.app);
    double sent = nowMs();
    CompileJob handle = service.submit(std::move(request));
    double done = nowMs();
    samples.late_ms.push_back(sent - due);
    samples.submit_ms.push_back(done - sent);
    samples.capacity_ms += done - sent;
    CompileServiceStats counts = service.stats();
    samples.rejected += counts.rejected;
    samples.failed += counts.failed;
    if (handle.poll() != JobStatus::Done)
        return 0;
    samples.addJob(handle.stats(), done - sent);
    return resultDigest(handle.results().front());
}

/**
 * The traced replay of a job list: each job compiles untraced
 * (compileCircuit on `untraced_cache`) and then through the pass-by-
 * pass replay (on `traced_cache`); the two results must be bit-
 * identical. On a warm input the wrapper cost compileCircuit -
 * runCompilePipeline is sampled too, and, when `service_leg` is given,
 * the one-shot service's layers, whose output must match as well.
 * When `expected_digests` is given, each replayed output must also
 * match that digest. Fills the compile-layer metrics, the replay's
 * cache traffic and `trace.overhead_pct`.
 */
void
tracedSerialRun(const std::vector<CompileJobSpec>& jobs,
                ProfileCache& untraced_cache, ProfileCache& traced_cache,
                const Args& args, RunReport& report,
                ServiceSamples* service_leg,
                const std::vector<uint64_t>* expected_digests = nullptr)
{
    OutputChecker checker;
    Tracer tracer;
    LayerReport layers;
    double untraced_ms = 0.0;
    size_t entries_before = traced_cache.size();
    uint64_t mismatches = 0;
    int id = 0;
    for (const CompileJobSpec& job : jobs) {
        double t0 = nowMs();
        CompileResult plain = compileCircuit(*job.app, *job.device,
                                             *job.gate_set, untraced_cache,
                                             job.options);
        untraced_ms += nowMs() - t0;

        ReplayCounters counters;
        setAllocCounting(true);
        CompileResult traced =
            tracedCompile(job, traced_cache, tracer, id, counters);
        setAllocCounting(false);
        uint64_t digest = resultDigest(traced);
        std::string why;
        if (!bitIdentical(plain, traced) ||
            (expected_digests && digest != (*expected_digests)[id]))
            why = "traced replay differs from the untraced output";
        layers.addCompile(tracer, id, counters, traced);

        // Warm wrapper cost: the one-shot service compileCircuit builds
        // around runCompilePipeline (best of two of each).
        double pipeline_ms = 1e300, wrapper_ms = 1e300;
        for (int rep = 0; rep < 2; ++rep) {
            double a = nowMs();
            runCompilePipeline(*job.app, *job.device, *job.gate_set,
                               traced_cache, job.options);
            double b = nowMs();
            compileCircuit(*job.app, *job.device, *job.gate_set,
                           traced_cache, job.options);
            double c = nowMs();
            pipeline_ms = std::min(pipeline_ms, b - a);
            wrapper_ms = std::min(wrapper_ms, c - b);
        }
        layers.addWrapperMs(wrapper_ms - pipeline_ms);
        if (service_leg && why.empty() &&
            oneShotServiceCompile(job, traced_cache, *service_leg) != digest)
            why = "one-shot service output differs from the untraced output";

        if (!why.empty()) {
            ++mismatches;
            if (report.failures.size() < 8)
                report.failures.push_back(job.name + ": " + why);
        } else if (!checker.check(job, traced).empty()) {
            ++mismatches;
        }
        ++id;
    }

    report.metrics = layers.metrics();
    double misses = static_cast<double>(layers.misses());
    double new_entries =
        static_cast<double>(traced_cache.size() - entries_before);
    report.metrics.push_back(
        {"profile_cache.hit_ratio", layers.hitRatio(), "share"});
    report.metrics.push_back(
        {"profile_cache.duplicate_solves",
         (misses - new_entries) / std::max(1, id), "count"});
    report.metrics.push_back(
        {"trace.overhead_pct",
         untraced_ms > 0.0
             ? 100.0 * (layers.tracedMs() - untraced_ms) / untraced_ms
             : 0.0,
         "%"});

    report.attempted += jobs.size();
    report.failed += mismatches;
    report.correct = report.correct && mismatches == 0;
    report.side.push_back({"trace.compiles", static_cast<double>(id), "count"});
    report.side.push_back(
        {"trace.replay_mismatches", static_cast<double>(mismatches), "count"});
    report.side.push_back({"trace.untraced_ms", untraced_ms, "ms"});
    report.side.push_back({"trace.traced_ms", layers.tracedMs(), "ms"});
    addCheckerSide(checker, report);
    if (!args.spans_path.empty() && !tracer.write(args.spans_path))
        report.failures.push_back("cannot write spans to " + args.spans_path);
}

// ---------------------------------------------------------- isa-sweep

struct SweepInputs
{
    Device sycamore;
    Device aspen;
    std::vector<GateSet> sycamore_sets;
    std::vector<GateSet> aspen_sets;
    std::vector<Circuit> circuits;
    std::vector<std::string> circuit_names;
    std::vector<CompileJobSpec> jobs;

    SweepInputs(Device syc, Device asp)
        : sycamore(std::move(syc)), aspen(std::move(asp))
    {
    }
};

std::unique_ptr<SweepInputs>
buildSweep(uint64_t seed)
{
    Rng syc_rng(kHardwareSeed);
    Rng asp_rng(kHardwareSeed);
    auto in = std::make_unique<SweepInputs>(makeSycamore(syc_rng),
                                            makeAspen8(asp_rng));
    for (int i = 1; i <= 7; ++i)
        in->sycamore_sets.push_back(isa::singleTypeSet(i));
    for (int i = 1; i <= 7; ++i)
        in->sycamore_sets.push_back(isa::googleSet(i));
    in->sycamore_sets.push_back(isa::fullFsim());
    for (int i = 1; i <= 5; ++i)
        in->aspen_sets.push_back(isa::rigettiSet(i));
    in->aspen_sets.push_back(isa::fullXy());

    // The figure benches' quick-mode sample: 4 QV-6 and 4 QAOA-6
    // instances, QFT-6 on one input, one FH-10 Trotter step.
    Rng circuit_rng(subSeed(seed, 3));
    for (int i = 0; i < 4; ++i) {
        in->circuits.push_back(makeQuantumVolumeCircuit(6, circuit_rng));
        in->circuit_names.push_back("qv6-" + std::to_string(i));
    }
    for (int i = 0; i < 4; ++i) {
        in->circuits.push_back(makeRandomQaoaCircuit(6, circuit_rng));
        in->circuit_names.push_back("qaoa6-" + std::to_string(i));
    }
    in->circuits.push_back(makeQftCircuitOnInput(
        6, static_cast<size_t>(circuit_rng.uniformInt(0, 63))));
    in->circuit_names.push_back("qft6");
    in->circuits.push_back(makeRandomFermiHubbardCircuit(10, circuit_rng));
    in->circuit_names.push_back("fh10");

    CompileOptions options = figureBenchOptions();
    auto add_jobs = [&](const Device& device,
                        const std::vector<GateSet>& sets) {
        for (const GateSet& set : sets)
            for (size_t c = 0; c < in->circuits.size(); ++c)
                in->jobs.push_back({set.name + "/" + in->circuit_names[c],
                                    &in->circuits[c], &device, &set,
                                    options});
    };
    add_jobs(in->sycamore, in->sycamore_sets);
    add_jobs(in->aspen, in->aspen_sets);
    return in;
}

// -------------------------------------------------------- recalibrate

/**
 * Calibration snapshots per device. latency_ms_p50 falls on the middle
 * of the chiplet QFT-14 compiles, whose time telesabre's routing makes
 * bimodal across snapshots (README). With 8 snapshots the number of
 * slow ones a seed drew moved latency_ms_p50 between 7.2 and 10.7 ms;
 * 16 spread it over the gap between the modes.
 */
constexpr int kSnapshots = 16;
/** Largest drift of one 2Q error rate between snapshots (a factor). */
constexpr double kDrift = 3.0;

struct RecalInputs
{
    std::vector<Device> sycamore; // one per calibration snapshot
    std::vector<Device> chiplet;
    GateSet g3 = isa::googleSet(3);
    std::vector<Circuit> circuits;
    std::vector<CompileJobSpec> jobs; // round-robin order
    ProfileCache cache;
};

/** `warm`: set-up compiles every (circuit, snapshot) pair once. */
std::unique_ptr<RecalInputs>
buildRecalibrate(uint64_t seed, bool warm)
{
    auto in = std::make_unique<RecalInputs>();
    // Each snapshot is the fixed hardware after one drift interval:
    // every 2Q error rate scaled by its own seeded factor in [1/3, 3].
    Rng syc_rng(kHardwareSeed);
    Rng chip_rng(kHardwareSeed);
    Device sycamore = makeSycamore(syc_rng);
    ChipletSpec spec;
    spec.core_rows = 3;
    spec.core_cols = 3;
    Device chiplet = makeChipletDevice(spec, chip_rng);
    for (int k = 0; k < kSnapshots; ++k) {
        Rng drift(subSeed(seed, 20 + k));
        in->sycamore.push_back(sycamore.withDriftedCalibration(drift, kDrift));
        in->chiplet.push_back(chiplet.withDriftedCalibration(drift, kDrift));
    }

    Rng circuit_rng(subSeed(seed, 13));
    in->circuits.push_back(makeQftCircuitOnInput(
        32, static_cast<size_t>(circuit_rng.uniformInt(0, 1 << 30))));
    in->circuits.push_back(makeRandomQaoaCircuit(24, circuit_rng));
    in->circuits.push_back(makeQftCircuitOnInput(
        14, static_cast<size_t>(circuit_rng.uniformInt(0, (1 << 14) - 1))));
    in->circuits.push_back(makeRandomQaoaCircuit(18, circuit_rng));
    const Circuit& qft32 = in->circuits[0];
    const Circuit& qaoa24 = in->circuits[1];
    const Circuit& qft14 = in->circuits[2];
    const Circuit& qaoa18 = in->circuits[3];

    CompileOptions greedy = figureBenchOptions();
    CompileOptions sabre = greedy;
    sabre.routing = "sabre";
    for (int k = 0; k < kSnapshots; ++k) {
        std::string snap = "@cal" + std::to_string(k);
        const Device* syc = &in->sycamore[k];
        const Device* chip = &in->chiplet[k];
        in->jobs.push_back({"qft32-greedy" + snap, &qft32, syc, &in->g3,
                            greedy});
        in->jobs.push_back({"qft32-sabre" + snap, &qft32, syc, &in->g3,
                            sabre});
        in->jobs.push_back({"qaoa24" + snap, &qaoa24, syc, &in->g3, greedy});
        in->jobs.push_back({"chiplet-qft14" + snap, &qft14, chip, &in->g3,
                            greedy});
        in->jobs.push_back({"chiplet-qaoa18" + snap, &qaoa18, chip, &in->g3,
                            greedy});
    }
    if (warm)
        for (const CompileJobSpec& job : in->jobs)
            compileCircuit(*job.app, *job.device, *job.gate_set, in->cache,
                           job.options);
    return in;
}

} // namespace

RunReport
runIsaSweep(const Args& args)
{
    RunReport report;
    if (args.trace) {
        std::unique_ptr<SweepInputs> in = buildSweep(args.seed);
        ProfileCache untraced, traced;
        ServiceSamples service;
        tracedSerialRun(in->jobs, untraced, traced, args, report, &service);
        service.appendMetrics(report.metrics);
        return report;
    }

    std::unique_ptr<SweepInputs> in;
    double setup_s = timedSetup(in, [&] { return buildSweep(args.seed); });

    EndToEnd e2e;
    OutputChecker checker;
    // Every pass starts cold, as the figure sweeps do.
    std::unique_ptr<ProfileCache> cache;
    uint64_t misses = 0;
    auto fresh_cache = [&](int) -> ProfileCache& {
        if (cache)
            misses += cache->stats().misses;
        cache = std::make_unique<ProfileCache>();
        return *cache;
    };
    // A fixed number of passes per run: with one more pass on a fast
    // host, each job would keep the best of three instead of two.
    int passes = std::max(kSweepMinPasses,
                          static_cast<int>(std::lround(args.seconds /
                                                       kSweepPassSeconds)));
    serialTimedPhase(in->jobs, args.seconds, passes, passes, fresh_cache,
                     e2e, checker, report);
    misses += cache->stats().misses;

    reportEndToEnd(e2e, setup_s, report);
    report.side.push_back({"passes", static_cast<double>(passes), "count"});
    report.side.push_back({"timed_cache_misses",
                           static_cast<double>(misses), "count"});
    addCheckerSide(checker, report);
    return report;
}

RunReport
runRecalibrate(const Args& args)
{
    RunReport report;
    if (args.trace) {
        // Set-up's cold compiles make the workload's only profile
        // solves: replay them traced, for nuop.solve_ms alone.
        std::unique_ptr<RecalInputs> in = buildRecalibrate(args.seed, false);
        Tracer warm_tracer;
        LayerReport warm_layers;
        for (size_t i = 0; i < in->jobs.size(); ++i) {
            ReplayCounters counters;
            int id = static_cast<int>(i);
            CompileResult result =
                tracedCompile(in->jobs[i], in->cache, warm_tracer, id, counters);
            warm_layers.addCompile(warm_tracer, id, counters, result);
        }
        // The timed phase's replay runs on the warmed cache: all hits.
        ServiceSamples service;
        tracedSerialRun(in->jobs, in->cache, in->cache, args, report,
                        &service);
        for (Metric& m : report.metrics)
            if (m.name == "nuop.solve_ms")
                m.value = warm_layers.solveMs();
        service.appendMetrics(report.metrics);
        return report;
    }

    std::unique_ptr<RecalInputs> in;
    double setup_s =
        timedSetup(in, [&] { return buildRecalibrate(args.seed, true); });

    EndToEnd e2e;
    OutputChecker checker;
    uint64_t misses_before = in->cache.stats().misses;
    auto warm_cache = [&](int) -> ProfileCache& { return in->cache; };
    int rounds = serialTimedPhase(in->jobs, args.seconds,
                                  kRecalibrateMinRounds, INT_MAX, warm_cache,
                                  e2e, checker, report);

    reportEndToEnd(e2e, setup_s, report);
    report.side.push_back({"rounds", static_cast<double>(rounds), "count"});
    report.side.push_back(
        {"timed_cache_misses",
         static_cast<double>(in->cache.stats().misses - misses_before),
         "count"});
    addCheckerSide(checker, report);
    return report;
}

// ------------------------------------------------------------ service

namespace {

/** Offered load (requests/s): about 40% of where queues build. */
constexpr double kServiceRate = 12.0;
constexpr size_t kServiceWorkers = 3;
/**
 * Repeat pool size. A lap of the open loop requests every pool circuit
 * once, in a fresh order, beside one novel QV-4 per four repeats, so
 * laps are kLapRequests consecutive requests (3.75 s) of equal work.
 */
constexpr size_t kPoolSize = 36;
constexpr size_t kLapRequests = kPoolSize / 4 * 5;
/**
 * Fewest laps kept for the latency quantiles (and so fewest laps in a
 * run): 5 x 45 = 225 latencies put at least 10 beyond p95.
 */
constexpr size_t kMinKeptLaps = 5;
/**
 * Requests the traced run replays serially (a prefix of the schedule,
 * same one-in-five novel mix), which keeps the traced run well inside
 * its time limit.
 */
constexpr size_t kReplayRequests = 120;

struct ServiceInputs
{
    Device aspen;
    GateSet r3 = isa::rigettiSet(3);
    CompileOptions options = figureBenchOptions();
    std::vector<Circuit> pool;    // warmed repeats
    std::vector<std::string> pool_names;
    std::vector<Circuit> novel;   // fresh QV-4, one per novel request
    /** Per request: index into pool, or -1 - index into novel. */
    std::vector<int> schedule;
    std::unique_ptr<CompileService> service;

    explicit ServiceInputs(Device device) : aspen(std::move(device)) {}
};

std::unique_ptr<ServiceInputs>
buildService(uint64_t seed, double seconds)
{
    Rng device_rng(kHardwareSeed);
    auto in = std::make_unique<ServiceInputs>(makeAspen8(device_rng));

    // The repeat pool: four QFT inputs, two QAOA draws and four QV
    // draws per size, and six FH-8 draws. Warm repeats cluster by
    // circuit (QAOA 1.3-1.9 ms, FH-8 2.9, 7-qubit QFT/QV 3.4, 8-qubit
    // 5.4-5.8, 9-qubit 6.9-7.2). A fifth of the requests are novel and
    // 13-27 % of the repeats wait behind helper tasks (more on a slow
    // host), so latency_ms_p50 lies near the 72nd to 86th percentile
    // of the other repeats: with this mix, in the 8-qubit cluster. With
    // two QFT and four QAOA per size it fell in the gap below, and
    // moved 18 % between seeds at one host speed.
    Rng rng(subSeed(seed, 32));
    for (int n = 7; n <= 9; ++n) {
        for (int i = 0; i < 4; ++i) {
            in->pool.push_back(makeQftCircuitOnInput(
                n, static_cast<size_t>(rng.uniformInt(0, (1 << n) - 1))));
            in->pool_names.push_back("qft" + std::to_string(n));
            in->pool.push_back(makeQuantumVolumeCircuit(n, rng));
            in->pool_names.push_back("qv" + std::to_string(n));
        }
        for (int i = 0; i < 2; ++i) {
            in->pool.push_back(makeRandomQaoaCircuit(n, rng));
            in->pool_names.push_back("qaoa" + std::to_string(n));
        }
    }
    for (int i = 0; i < 6; ++i) {
        in->pool.push_back(makeRandomFermiHubbardCircuit(8, rng));
        in->pool_names.push_back("fh8");
    }
    if (in->pool.size() != kPoolSize)
        throw std::logic_error("service pool size differs from kPoolSize");

    // Four repeats per novel request: one novel slot at a seeded
    // position in every group of five. Repeats cycle through the pool
    // in a freshly shuffled order each lap, so every pool circuit is
    // requested equally often, and whole laps fill the run.
    size_t laps = std::max<size_t>(
        kMinKeptLaps,
        static_cast<size_t>(std::llround(kServiceRate * seconds /
                                         static_cast<double>(kLapRequests))));
    size_t requests = laps * kLapRequests;
    std::vector<int> lap;
    size_t lap_pos = 0;
    int novel_slot = 0;
    for (size_t i = 0; i < requests; ++i) {
        if (i % 5 == 0)
            novel_slot = rng.uniformInt(0, 4);
        if (static_cast<int>(i % 5) == novel_slot) {
            in->novel.push_back(makeQuantumVolumeCircuit(4, rng));
            in->schedule.push_back(-static_cast<int>(in->novel.size()));
            continue;
        }
        if (lap_pos == lap.size()) {
            lap.resize(in->pool.size());
            for (size_t k = 0; k < lap.size(); ++k)
                lap[k] = static_cast<int>(k);
            for (size_t k = lap.size() - 1; k > 0; --k)
                std::swap(lap[k], lap[rng.uniformInt(0, static_cast<int>(k))]);
            lap_pos = 0;
        }
        in->schedule.push_back(lap[lap_pos++]);
    }

    DeviceFleet fleet(in->options);
    fleet.addDevice(in->aspen, in->options);
    CompileServiceOptions service_options;
    service_options.workers = kServiceWorkers;
    in->service = std::make_unique<CompileService>(std::move(fleet), in->r3,
                                                   service_options);
    // Warm the repeat pool through the service itself.
    for (const Circuit& circuit : in->pool) {
        CompileRequest request;
        request.circuits.push_back(circuit);
        CompileJob job = in->service->submit(std::move(request));
        if (job.wait() != JobStatus::Done)
            throw std::runtime_error("service set-up compile failed");
    }
    return in;
}

/** The compile a request asks for (inputs owned by `in`). */
CompileJobSpec
requestSpec(const ServiceInputs& in, size_t index)
{
    int slot = in.schedule[index];
    if (slot >= 0)
        return {in.pool_names[slot], &in.pool[slot], &in.aspen, &in.r3,
                in.options};
    return {"qv4-novel", &in.novel[-slot - 1], &in.aspen, &in.r3,
            in.options};
}

/** One completed request handed from a worker to the generator. */
struct Completion
{
    size_t index = 0;
    double done_ms = 0.0;
    CompileJob job;
};

} // namespace

RunReport
runService(const Args& args)
{
    RunReport report;
    std::unique_ptr<ServiceInputs> in;
    double setup_s = 0.0;
    if (args.trace) // set-up time is an end-to-end figure only
        in = buildService(args.seed, args.seconds);
    else
        setup_s = timedSetup(
            in, [&] { return buildService(args.seed, args.seconds); });
    CompileService& service = *in->service;

    size_t requests = in->schedule.size();
    std::mutex mutex;
    std::condition_variable ready;
    std::deque<Completion> completions;

    std::vector<double> due(requests);
    std::vector<double> latency_ms(requests, -1.0);
    ServiceSamples loop;
    EndToEnd e2e;
    OutputChecker checker;
    CompileServiceStats before = service.stats();
    ProfileCacheStats cache_before = service.profileCache().stats();
    size_t entries_before = service.profileCache().size();
    double last_done_ms = 0.0;

    // Checks run on the generator thread while it waits for the next
    // send, so a result is dropped as soon as it has been checked.
    std::vector<double> submitted_at(requests, 0.0);
    std::vector<uint64_t> digests(requests, 0);
    // Output figures are summed in request order after the loop:
    // completion order varies, and so would the sums' last bits.
    std::vector<OutputFigures> figures(requests);
    std::vector<bool> passed(requests, false);
    size_t finished = 0;
    auto drain = [&](double until_ms) {
        for (;;) {
            Completion item;
            {
                std::unique_lock<std::mutex> lock(mutex);
                if (completions.empty()) {
                    if (nowMs() >= until_ms)
                        return;
                    auto wait = std::chrono::duration<double, std::milli>(
                        until_ms - nowMs());
                    ready.wait_for(lock, wait,
                                   [&] { return !completions.empty(); });
                    if (completions.empty())
                        return;
                }
                item = std::move(completions.front());
                completions.pop_front();
            }
            ++finished;
            last_done_ms = std::max(last_done_ms, item.done_ms);
            CompileJobSpec spec = requestSpec(*in, item.index);
            JobStatus status = item.job.poll();
            if (status != JobStatus::Done) {
                ++e2e.failed;
                if (report.failures.size() < 8)
                    report.failures.push_back(spec.name + ": job " +
                                              toString(status));
                continue;
            }
            ++e2e.completed;
            latency_ms[item.index] = item.done_ms - due[item.index];
            loop.addJob(item.job.stats(),
                        item.done_ms - submitted_at[item.index]);
            const CompileResult& result = item.job.results().front();
            digests[item.index] = resultDigest(result);
            if (!checker.check(spec, result).empty()) {
                ++e2e.failed;
                continue;
            }
            figures[item.index] = outputFigures(result);
            passed[item.index] = true;
        }
    };

    auto rss = std::make_unique<RssSampler>();
    double start = nowMs() + 5.0;
    for (size_t i = 0; i < requests; ++i) {
        due[i] = start + 1000.0 * static_cast<double>(i) / kServiceRate;
        drain(due[i]);
        loop.late_ms.push_back(std::max(0.0, nowMs() - due[i]));
        CompileRequest request;
        request.circuits.push_back(*requestSpec(*in, i).app);
        request.on_complete = [&, i](CompileJob job) {
            double done = nowMs();
            {
                std::lock_guard<std::mutex> lock(mutex);
                completions.push_back({i, done, std::move(job)});
            }
            ready.notify_one();
        };
        ++e2e.attempted;
        submitted_at[i] = nowMs();
        service.submit(std::move(request));
        loop.submit_ms.push_back(nowMs() - submitted_at[i]);
    }
    double deadline = nowMs() + kMaxTimedMs;
    while (finished < requests && nowMs() < deadline)
        drain(std::min(deadline, nowMs() + 100.0));
    if (finished < requests) {
        e2e.failed += requests - finished;
        report.failures.push_back("service did not drain in time");
    }
    e2e.peak_rss_mb = rss->peakMb();
    rss.reset();
    // Drain before the completion queue (which the callbacks use) goes.
    service.shutdown();
    CompileServiceStats after = service.stats();
    e2e.timed_s = (last_done_ms - start) / 1000.0;
    for (size_t i = 0; i < requests; ++i)
        if (passed[i])
            e2e.addOutput(figures[i]);

    // Laps do equal work, and on a shared host interference slows
    // whole stretches of seconds, so the latency quantiles are over
    // the faster half of the laps (rounded up, at least kMinKeptLaps),
    // ranked by their median.
    std::vector<std::pair<double, size_t>> lap_medians;
    for (size_t first = 0; first < requests; first += kLapRequests) {
        std::vector<double> lap;
        for (size_t i = first; i < first + kLapRequests; ++i)
            if (latency_ms[i] >= 0.0)
                lap.push_back(latency_ms[i]);
        if (!lap.empty())
            lap_medians.push_back({median(lap), first});
    }
    std::sort(lap_medians.begin(), lap_medians.end());
    lap_medians.resize(std::min(
        lap_medians.size(),
        std::max(kMinKeptLaps, (lap_medians.size() + 1) / 2)));
    for (const auto& kept : lap_medians)
        for (size_t i = kept.second; i < kept.second + kLapRequests; ++i)
            if (latency_ms[i] >= 0.0)
                e2e.latencies_ms.push_back(latency_ms[i]);

    report.attempted = e2e.attempted;
    report.failed = e2e.failed;
    report.correct = e2e.failed == 0;
    if (!args.trace) {
        reportEndToEnd(e2e, setup_s, report);
    } else {
        // The service's own cache traffic over the open loop.
        ProfileCacheStats cache_after = service.profileCache().stats();
        double hits =
            static_cast<double>(cache_after.hits - cache_before.hits);
        double misses =
            static_cast<double>(cache_after.misses - cache_before.misses);
        double new_entries = static_cast<double>(
            service.profileCache().size() - entries_before);

        // Compile layers: replay the first requests serially, untraced
        // and traced, on two caches warmed like the service's. Every
        // replayed output must match the service's bit for bit.
        std::vector<CompileJobSpec> jobs;
        for (size_t i = 0; i < std::min(requests, kReplayRequests); ++i)
            jobs.push_back(requestSpec(*in, i));
        ProfileCache untraced, traced;
        for (const Circuit& circuit : in->pool) {
            compileCircuit(circuit, in->aspen, in->r3, untraced, in->options);
            compileCircuit(circuit, in->aspen, in->r3, traced, in->options);
        }
        RunReport replay;
        tracedSerialRun(jobs, untraced, traced, args, replay, nullptr,
                        &digests);
        report.metrics = std::move(replay.metrics);
        for (Metric& m : report.metrics) {
            if (m.name == "profile_cache.hit_ratio")
                m.value = hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
            else if (m.name == "profile_cache.duplicate_solves")
                m.value = (misses - new_entries) /
                          std::max<double>(1.0, static_cast<double>(requests));
        }
        for (const Metric& m : replay.side)
            report.side.push_back({"replay." + m.name, m.value, m.unit});
        report.failures.insert(report.failures.end(),
                               replay.failures.begin(), replay.failures.end());
        report.attempted += replay.attempted;
        report.failed += replay.failed;
        report.correct = report.correct && replay.correct;
        loop.capacity_ms = kServiceWorkers * (last_done_ms - start);
        loop.rejected = after.rejected - before.rejected;
        loop.failed = after.failed - before.failed;
        loop.appendMetrics(report.metrics);
    }
    report.side.push_back(
        {"requests", static_cast<double>(requests), "count"});
    report.side.push_back({"laps",
                           static_cast<double>(requests / kLapRequests),
                           "count"});
    report.side.push_back(
        {"laps_kept", static_cast<double>(lap_medians.size()), "count"});
    report.side.push_back(
        {"novel_requests", static_cast<double>(in->novel.size()), "count"});
    report.side.push_back({"offered_rate", kServiceRate, "1/s"});
    report.side.push_back(
        {"loadgen.late_ms_p95", quantile(loop.late_ms, 0.95), "ms"});
    report.side.push_back(
        {"timed_cache_misses",
         static_cast<double>(service.profileCache().stats().misses -
                             cache_before.misses),
         "count"});
    addCheckerSide(checker, report);
    return report;
}

} // namespace perfbench

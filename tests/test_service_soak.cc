// Deterministic service soak: thousands of tiny jobs through an async
// CompileService with the event stream on and a live background
// recorder. Asserts the telemetry invariants the trace exporter
// relies on: nothing dropped (ring sized for the burst),
// nothing duplicated, per-job lifecycle order monotone
// (submit <= admit <= dispatch <= pass spans <= complete), completion
// callbacks firing exactly once per job, and the exported Chrome trace
// staying span-balanced end to end.

#include <atomic>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/qft.h"
#include "compiler/service.h"
#include "metrics/trace_export.h"

namespace qiset {
namespace {

CompileOptions
fastCompile()
{
    CompileOptions opts;
    opts.nuop.max_layers = 4;
    opts.nuop.multistarts = 2;
    opts.nuop.exact_threshold = 1.0 - 1e-6;
    return opts;
}

Device
lineDevice(const std::string& name, int n, double fid)
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

/** Per-job record of the drained event log. */
struct JobLog
{
    uint64_t submit = 0, admit = 0, dispatch = 0, complete = 0;
    uint64_t first_pass = 0, last_pass = 0;
    size_t submits = 0, admits = 0, dispatches = 0, completes = 0;
    size_t pass_begins = 0, pass_completes = 0;
};

TEST(ServiceSoak, ThousandsOfJobsKeepTelemetryInvariants)
{
    const size_t kJobs = 1500;

    GateSet set = isa::rigettiSet(1);
    DeviceFleet fleet(fastCompile());
    fleet.addDevice(lineDevice("alpha", 3, 0.995));
    fleet.addDevice(lineDevice("beta", 3, 0.990));

    // ~9 packets per 1-circuit job (submit/admit/dispatch/7-pass
    // spans/cache/complete is ~17; passes dominate). The recorder
    // drains every 1 ms, so the ring only has to absorb the burst
    // between sweeps — but size it for the whole run anyway: the
    // assertion below is *zero* drops, not "few".
    EventStream stream(size_t{1} << 16);
    EventRecorder recorder(stream, 1.0);

    std::atomic<size_t> callbacks{0};
    {
        CompileServiceOptions options;
        options.workers = 2;
        options.events = &stream;
        CompileService service(fleet, set, options);

        Circuit app = makeQftCircuit(3);
        for (size_t i = 0; i < kJobs; ++i) {
            CompileRequest request;
            request.circuits.push_back(app);
            request.on_complete = [&callbacks](CompileJob job) {
                if (job.poll() == JobStatus::Done)
                    callbacks.fetch_add(1, std::memory_order_relaxed);
            };
            service.submit(std::move(request));
        }
        service.shutdown();
    }
    recorder.stop();
    EXPECT_EQ(callbacks.load(), kJobs);

    // Nothing dropped, and the log holds exactly what was published.
    EXPECT_EQ(stream.dropped(), 0u);
    const std::vector<ServiceEvent>& log = recorder.events();
    EXPECT_EQ(log.size(), stream.published());

    std::map<uint64_t, JobLog> jobs;
    for (const ServiceEvent& event : log) {
        JobLog& j = jobs[event.job];
        switch (event.type) {
        case ServiceEventType::Submit:
            ++j.submits;
            j.submit = event.ns;
            break;
        case ServiceEventType::Admit:
            ++j.admits;
            j.admit = event.ns;
            break;
        case ServiceEventType::Dispatch:
            ++j.dispatches;
            j.dispatch = event.ns;
            break;
        case ServiceEventType::PassBegin:
            if (++j.pass_begins == 1)
                j.first_pass = event.ns;
            break;
        case ServiceEventType::PassComplete:
            ++j.pass_completes;
            j.last_pass = event.ns;
            break;
        case ServiceEventType::Complete:
            ++j.completes;
            j.complete = event.ns;
            EXPECT_EQ(event.b, 1.0);
            break;
        default:
            break;
        }
    }

    // Every job exactly once, no phantom ids, no duplicates.
    ASSERT_EQ(jobs.size(), kJobs);
    for (const auto& [id, j] : jobs) {
        SCOPED_TRACE("job " + std::to_string(id));
        EXPECT_EQ(j.submits, 1u);
        EXPECT_EQ(j.admits, 1u);
        EXPECT_EQ(j.dispatches, 1u);
        EXPECT_EQ(j.completes, 1u);
        // Balanced pass spans, at least the default pipeline's count.
        EXPECT_EQ(j.pass_begins, j.pass_completes);
        EXPECT_GE(j.pass_begins, 5u);
        // Monotone lifecycle within the job.
        EXPECT_LE(j.submit, j.admit);
        EXPECT_LE(j.admit, j.dispatch);
        EXPECT_LE(j.dispatch, j.first_pass);
        EXPECT_LE(j.first_pass, j.last_pass);
        EXPECT_LE(j.last_pass, j.complete);
    }

    // The whole soak log renders as a balanced Chrome trace.
    TraceExportOptions options;
    options.shard_names = {"alpha", "beta"};
    options.pass_names = stream.passNames();
    std::string json = chromeTraceJson(log, options);
    size_t begins = 0, ends = 0;
    for (size_t pos = json.find("\"ph\":\"B\""); pos != std::string::npos;
         pos = json.find("\"ph\":\"B\"", pos + 1))
        ++begins;
    for (size_t pos = json.find("\"ph\":\"E\""); pos != std::string::npos;
         pos = json.find("\"ph\":\"E\"", pos + 1))
        ++ends;
    EXPECT_EQ(begins, ends);
    EXPECT_GT(begins, kJobs); // a job span + pass spans per job
}

TEST(ServiceSoak, TinyRingAccountsForOverflowExactly)
{
    // Same service shape, but a deliberately undersized ring and no
    // consumer: the surplus must be counted drop-for-drop while the
    // service stays fully functional.
    GateSet set = isa::rigettiSet(1);
    DeviceFleet fleet(fastCompile());
    fleet.addDevice(lineDevice("alpha", 3, 0.995));

    EventStream stream(16);
    size_t completed = 0;
    {
        CompileServiceOptions options;
        options.events = &stream;
        CompileService service(fleet, set, options);
        Circuit app = makeQftCircuit(3);
        for (int i = 0; i < 8; ++i) {
            CompileRequest request;
            request.circuits.push_back(app);
            if (service.submit(std::move(request)).wait() ==
                JobStatus::Done)
                ++completed;
        }
    }
    EXPECT_EQ(completed, 8u);
    // The ring filled, the excess was counted, nothing blocked.
    EXPECT_EQ(stream.published(), stream.capacity());
    EXPECT_GT(stream.dropped(), 0u);

    std::vector<ServiceEvent> out;
    EXPECT_EQ(stream.drain(out), stream.capacity());
}

} // namespace
} // namespace qiset

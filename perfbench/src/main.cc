/**
 * @file
 * The end-to-end benchmark program:
 *
 *   perfbench --workload <isa-sweep|recalibrate|service> --seed <n>
 *             --seconds <s> --trace <0|1> [--spans <path>]
 *
 * Prints a readable metric table, one line of side figures (output
 * checks, the host-noise sentinel), and as its last line one JSON
 * object {"correct", "attempted", "failed", "metrics"}: the end-to-end
 * metrics with --trace 0, the per-layer metrics with --trace 1. Exits
 * 1 when any output check fails, 2 on bad arguments or a crash.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

#include "harness.h"
#include "workloads.h"

using namespace perfbench;

namespace {

void
usage()
{
    std::cerr << "usage: perfbench --workload <isa-sweep|recalibrate|service>"
                 " --seed <n> --seconds <s> --trace <0|1> [--spans <path>]\n";
}

bool
parseArgs(int argc, char** argv, Args& args)
{
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            return false;
        std::string value = argv[++i];
        try {
            if (flag == "--workload")
                args.workload = value;
            else if (flag == "--seed")
                args.seed = std::stoull(value);
            else if (flag == "--seconds")
                args.seconds = std::stod(value);
            else if (flag == "--trace")
                args.trace = std::stoi(value) != 0;
            else if (flag == "--spans")
                args.spans_path = value;
            else
                return false;
        } catch (const std::exception&) {
            return false;
        }
    }
    return !args.workload.empty() && args.seconds > 0.0;
}

/** A JSON number with all its digits (non-finite values become 0). */
std::string
number(double value)
{
    if (!std::isfinite(value))
        value = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

std::string
quoted(const std::string& text)
{
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += (c == '\n' ? ' ' : c);
    }
    return out + "\"";
}

std::string
metricsJson(const std::vector<Metric>& metrics)
{
    std::ostringstream os;
    os << "{";
    for (size_t i = 0; i < metrics.size(); ++i)
        os << (i ? ", " : "") << quoted(metrics[i].name)
           << ": {\"value\": " << number(metrics[i].value)
           << ", \"unit\": " << quoted(metrics[i].unit) << "}";
    os << "}";
    return os.str();
}

} // namespace

int
main(int argc, char** argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        usage();
        return 2;
    }

    HostSentinel host;
    host.start();
    RunReport report;
    try {
        if (args.workload == "isa-sweep")
            report = runIsaSweep(args);
        else if (args.workload == "recalibrate")
            report = runRecalibrate(args);
        else if (args.workload == "service")
            report = runService(args);
        else {
            std::cerr << "unknown workload " << args.workload << "\n";
            usage();
            return 2;
        }
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << args.workload << " aborted: "
                  << e.what() << "\n";
        return 2;
    }
    host.stop();

    std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);
    for (const Metric& m : report.metrics)
        std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    for (const std::string& failure : report.failures)
        std::printf("  FAILED: %s\n", failure.c_str());

    // Side figures: output checks and the host-noise sentinel. Never
    // folded into a metric.
    report.side.push_back(
        {"failed_share",
         report.attempted > 0
             ? static_cast<double>(report.failed) /
                   static_cast<double>(report.attempted)
             : 0.0,
         "share"});
    report.side.push_back({"host.steal_s", host.steal_s, "s"});
    report.side.push_back({"host.ref_loop_ms_start", host.ref_start_ms, "ms"});
    report.side.push_back({"host.ref_loop_ms_end", host.ref_end_ms, "ms"});
    std::cout << "{\"side\": " << metricsJson(report.side) << "}\n";

    bool correct = report.correct && report.failed == 0 &&
                   report.failures.empty();
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << std::max<uint64_t>(1, report.attempted)
              << ", \"failed\": " << report.failed
              << ", \"metrics\": " << metricsJson(report.metrics) << "}"
              << std::endl;
    return correct ? 0 : 1;
}

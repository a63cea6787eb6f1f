/**
 * @file
 * Chiplet routing bench: full pipeline compiles on multi-core devices
 * (device_grid_of_grids topologies built by makeChipletDevice),
 * comparing teleport-aware routing against the SWAP-only link
 * baseline (options.teleport.use_teleport = false). Both variants
 * route identically — the same link crossings in the same order — so
 * estimated fidelity and routed duration isolate exactly what
 * exchange teleportation buys: one EPR pair per crossing instead of
 * the three a SWAP chain over the link consumes.
 *
 * Emits a single JSON object on stdout (captured by
 * scripts/bench_smoke.sh as BENCH_chiplet.json) and SELF-CHECKS: the
 * process exits nonzero unless every inter-core-heavy workload
 * actually crossed cores (teleports > 0) and the teleport-aware
 * compile beats the SWAP-only baseline on predicted fidelity or
 * routed depth. scripts/check_bench_regression.py additionally gates
 * the worst-case teleport-aware fidelity against a committed floor
 * (the compiles are seeded and serial, hence deterministic).
 */

#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "apps/qaoa.h"
#include "apps/qft.h"
#include "apps/qv.h"
#include "bench_common.h"
#include "circuit/schedule.h"
#include "common/rng.h"
#include "compiler/pipeline.h"
#include "device/device.h"
#include "isa/gate_set.h"

namespace {

using namespace qiset;

struct Workload
{
    std::string name;
    Circuit circuit;
    const Device* device;
};

/** One compile variant's numbers. */
struct Variant
{
    int teleports = 0;
    double epr_attempts = 0.0;
    int swaps = 0;
    int routed_depth = 0;
    double duration_ns = 0.0;
    double estimated_fidelity = 0.0;
    double wall_ms = 0.0;
};

/**
 * One compile on its own cold ProfileCache, so neither leg's wall_ms
 * is timed on profiles another leg solved.
 */
Variant
compileVariant(const Workload& workload, const GateSet& set,
               bool use_teleport)
{
    CompileOptions options = bench::benchCompileOptions();
    options.routing = "telesabre";
    options.teleport.use_teleport = use_teleport;
    ProfileCache cache;
    auto start = std::chrono::steady_clock::now();
    CompileResult result = compileCircuit(
        workload.circuit, *workload.device, set, cache, options);
    auto end = std::chrono::steady_clock::now();

    Variant out;
    out.teleports = result.teleports_inserted;
    out.epr_attempts = result.epr_attempts;
    out.swaps = result.swaps_inserted;
    out.routed_depth = result.circuit.depth();
    out.duration_ns = Schedule(result.circuit).summary().duration_ns;
    out.estimated_fidelity = result.estimated_fidelity;
    out.wall_ms =
        std::chrono::duration<double, std::milli>(end - start).count();
    return out;
}

void
printVariant(const char* key, const Variant& v, bool trailing_comma)
{
    std::cout << "      \"" << key << "\": {\"teleports\": "
              << v.teleports << ", \"epr_attempts\": " << v.epr_attempts
              << ", \"swaps\": " << v.swaps
              << ", \"routed_depth\": " << v.routed_depth
              << ", \"duration_ns\": " << v.duration_ns
              << ", \"estimated_fidelity\": " << v.estimated_fidelity
              << ", \"wall_ms\": " << v.wall_ms << "}"
              << (trailing_comma ? "," : "") << '\n';
}

} // namespace

int
main()
{
    // Seeded calibrations: the whole bench is deterministic.
    Rng rng(77);
    ChipletSpec small;
    small.core_rows = 2;
    small.core_cols = 2;
    small.rows = 2;
    small.cols = 3;
    Device chiplet2x2 = makeChipletDevice(small, rng);

    ChipletSpec large = small;
    large.core_rows = 3;
    large.core_cols = 3;
    Device chiplet3x3 = makeChipletDevice(large, rng);

    // Every workload is wider than one 6-qubit core, so the placement
    // must span cores and the router must cross links.
    Rng app_rng(4242);
    std::vector<Workload> workloads;
    workloads.push_back({"qft10_chiplet2x2", makeQftCircuit(10),
                         &chiplet2x2});
    workloads.push_back({"qv12_chiplet2x2",
                         makeQuantumVolumeCircuit(12, app_rng),
                         &chiplet2x2});
    workloads.push_back({"qft14_chiplet3x3", makeQftCircuit(14),
                         &chiplet3x3});
    workloads.push_back({"qaoa18_chiplet3x3",
                         makeRandomQaoaCircuit(18, app_rng),
                         &chiplet3x3});

    GateSet set = isa::singleTypeSet(3);

    bool teleport_wins = true;
    double min_teleport_fidelity = 1.0;

    std::cout << "{\n  \"bench\": \"chiplet\",\n  \"workloads\": [\n";
    for (size_t w = 0; w < workloads.size(); ++w) {
        const Workload& workload = workloads[w];
        Variant tele = compileVariant(workload, set, true);
        Variant swap = compileVariant(workload, set, false);

        // The self-check: inter-core traffic must exist, and paying
        // one EPR pair per crossing instead of three must show up in
        // the fidelity estimate (or, failing that, the routed depth).
        bool crossed = tele.teleports > 0;
        bool better =
            tele.estimated_fidelity > swap.estimated_fidelity ||
            tele.routed_depth < swap.routed_depth;
        if (!crossed || !better)
            teleport_wins = false;
        min_teleport_fidelity =
            std::min(min_teleport_fidelity, tele.estimated_fidelity);

        std::cout << "    {\n      \"name\": \"" << workload.name
                  << "\",\n      \"qubits\": "
                  << workload.circuit.numQubits()
                  << ",\n      \"cores\": "
                  << workload.device->topology().numCores()
                  << ",\n      \"two_qubit_gates\": "
                  << workload.circuit.twoQubitGateCount() << ",\n";
        printVariant("teleport", tele, true);
        printVariant("swap_only", swap, false);
        std::cout << "    }"
                  << (w + 1 < workloads.size() ? "," : "") << '\n';
    }
    std::cout << "  ],\n  \"teleport_wins\": "
              << (teleport_wins ? "true" : "false")
              << ",\n  \"min_teleport_fidelity\": "
              << min_teleport_fidelity << "\n}\n";

    if (!teleport_wins) {
        std::cerr << "bench_chiplet: SELF-CHECK FAILED: teleport-aware "
                     "routing did not beat the SWAP-only baseline on "
                     "every chiplet workload\n";
        return 1;
    }
    return 0;
}

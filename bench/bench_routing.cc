/**
 * @file
 * Routing-strategy comparison bench: SWAP counts, routed depth and
 * routing wall-clock for every router in routingStrategyNames() across
 * representative workloads (long-range QFT, random QV, QAOA), at the
 * Topology level so routing cost is isolated from NuOp translation.
 *
 * Emits a single JSON object on stdout so the perf trajectory is
 * machine-readable (scripts/bench_smoke.sh captures it as
 * BENCH_routing.json).
 */

#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "apps/qaoa.h"
#include "apps/qft.h"
#include "apps/qv.h"
#include "circuit/schedule.h"
#include "common/rng.h"
#include "compiler/routing_strategy.h"
#include "device/topology.h"

namespace {

using namespace qiset;

struct Workload
{
    std::string name;
    Circuit circuit;
    Topology coupling;
};

std::vector<Workload>
makeWorkloads()
{
    std::vector<Workload> workloads;
    workloads.push_back(
        {"qft8_line8", makeQftCircuit(8), Topology::line(8)});
    workloads.push_back(
        {"qft16_grid4x4", makeQftCircuit(16), Topology::grid(4, 4)});
    Rng qv_rng(1234);
    workloads.push_back({"qv16_grid4x4",
                         makeQuantumVolumeCircuit(16, qv_rng),
                         Topology::grid(4, 4)});
    Rng qaoa_rng(5678);
    workloads.push_back({"qaoa12_line12",
                         makeRandomQaoaCircuit(12, qaoa_rng),
                         Topology::line(12)});
    return workloads;
}

} // namespace

int
main()
{
    auto workloads = makeWorkloads();
    auto strategies = routingStrategyNames();

    std::cout << "{\n  \"bench\": \"routing\",\n  \"workloads\": [\n";
    for (size_t w = 0; w < workloads.size(); ++w) {
        const Workload& workload = workloads[w];
        Schedule schedule(workload.circuit);
        std::cout << "    {\n      \"name\": \"" << workload.name
                  << "\",\n      \"qubits\": "
                  << workload.circuit.numQubits()
                  << ",\n      \"two_qubit_gates\": "
                  << workload.circuit.twoQubitGateCount()
                  << ",\n      \"strategies\": {\n";
        for (size_t s = 0; s < strategies.size(); ++s) {
            auto router = makeRoutingStrategy(strategies[s]);
            auto start = std::chrono::steady_clock::now();
            RoutedCircuit routed = router->route(
                workload.circuit, workload.coupling, schedule);
            auto end = std::chrono::steady_clock::now();
            double wall_ms =
                std::chrono::duration<double, std::milli>(end - start)
                    .count();
            std::cout << "        \"" << strategies[s]
                      << "\": {\"swaps\": " << routed.swaps_inserted
                      << ", \"routed_two_qubit\": "
                      << routed.circuit.twoQubitGateCount()
                      << ", \"routed_depth\": "
                      << routed.circuit.depth()
                      << ", \"wall_ms\": " << wall_ms << "}"
                      << (s + 1 < strategies.size() ? "," : "")
                      << '\n';
        }
        std::cout << "      }\n    }"
                  << (w + 1 < workloads.size() ? "," : "") << '\n';
    }
    std::cout << "  ]\n}\n";
    return 0;
}

#ifndef QISET_COMPILER_MAPPING_H
#define QISET_COMPILER_MAPPING_H

/**
 * @file
 * Qubit mapping: choose the physical qubits a logical circuit runs on.
 * The pass greedily grows a connected subgraph from the device's
 * highest-fidelity coupler, scoring edges by the best gate fidelity
 * available under the target instruction set (noise-aware placement).
 */

#include <string>
#include <vector>

#include "device/device.h"
#include "isa/gate_set.h"

namespace qiset {

/**
 * Calibration keys an instruction set reads on each edge: one per
 * discrete type plus the family key (GateSet::familyKey()) for
 * continuous sets.
 */
std::vector<std::string> fidelityKeys(const GateSet& gate_set);

/**
 * The device's type id of each fidelityKeys(gate_set) entry (-1 when
 * not calibrated), resolved once per mapping or shard plan.
 */
std::vector<int> fidelityTypeIds(const Device& device,
                                 const GateSet& gate_set);

/**
 * Best fidelity on edge id `edge` over the set's precomputed
 * fidelityTypeIds; zero if no set member is calibrated there or the
 * edge is -1 (an uncoupled pair).
 */
double bestEdgeFidelity(const Device& device, int edge,
                        const std::vector<int>& type_ids);

/**
 * Choose num_logical physical qubits forming a connected subgraph,
 * greedily maximizing attachment fidelity. Returns physical qubit ids;
 * entry i hosts register position i.
 */
std::vector<int> chooseMapping(const Device& device, int num_logical,
                               const GateSet& gate_set);

} // namespace qiset

#endif // QISET_COMPILER_MAPPING_H

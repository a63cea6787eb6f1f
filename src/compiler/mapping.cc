#include "compiler/mapping.h"

#include <algorithm>

#include "common/error.h"

namespace qiset {

std::vector<std::string>
fidelityKeys(const GateSet& gate_set)
{
    std::vector<std::string> keys;
    for (const auto& type : gate_set.types)
        keys.push_back(type.name);
    if (gate_set.isContinuous())
        keys.push_back(gate_set.familyKey());
    return keys;
}

std::vector<int>
fidelityTypeIds(const Device& device, const GateSet& gate_set)
{
    std::vector<int> ids;
    for (const auto& type : gate_set.types)
        ids.push_back(device.gateTypeId(type.name));
    if (gate_set.isContinuous())
        ids.push_back(device.gateTypeId(gate_set.familyKey()));
    return ids;
}

double
bestEdgeFidelity(const Device& device, int edge,
                 const std::vector<int>& type_ids)
{
    double best = 0.0;
    for (int type : type_ids)
        best = std::max(best, device.edgeFidelity(edge, type));
    return best;
}

namespace {

/**
 * Greedy connected growth of `chosen` to `target` qubits, restricted
 * to the qubits flagged in `allowed`. Candidates score compactness
 * first (in-set degree), then a one-step lookahead (does picking this
 * qubit enable a future high-degree attachment? distinguishes
 * L-shaped growth, which can close squares, from straight lines,
 * which cannot), then summed calibrated fidelity to the set. With no
 * seeds, starts from the best calibrated edge inside the allowed set.
 */
std::vector<int>
growWithin(const Device& device, const std::vector<int>& types,
           const std::vector<char>& allowed, std::vector<int> chosen,
           int target)
{
    const Topology& topo = device.topology();
    chosen.reserve(static_cast<size_t>(std::max(target, 2)));
    std::vector<bool> in_set(device.numQubits(), false);
    // chosen_nbrs[q] counts the members adjacent to q, kept as members
    // join, so an in-set degree is one read plus one adjacency test.
    std::vector<int> chosen_nbrs(device.numQubits(), 0);
    auto join = [&](int q) {
        in_set[q] = true;
        for (int v : topo.neighbors(q))
            ++chosen_nbrs[v];
    };
    for (int q : chosen)
        join(q);

    if (chosen.empty() && target >= 2) {
        double best_fid = -1.0;
        std::pair<int, int> seed{-1, -1};
        for (auto [a, b] : topo.edges()) {
            if (!allowed[static_cast<size_t>(a)] ||
                !allowed[static_cast<size_t>(b)])
                continue;
            double f = bestEdgeFidelity(device, device.edgeId(a, b), types);
            if (f > best_fid) {
                best_fid = f;
                seed = {a, b};
            }
        }
        QISET_REQUIRE(seed.first >= 0, "no couplers to place on");
        chosen = {seed.first, seed.second};
        join(seed.first);
        join(seed.second);
    } else if (chosen.empty()) {
        for (int q = 0; q < device.numQubits(); ++q)
            if (allowed[static_cast<size_t>(q)]) {
                chosen = {q};
                join(q);
                break;
            }
    }

    auto in_set_degree = [&](int q, int extra) {
        return chosen_nbrs[q] +
               (extra >= 0 && topo.adjacent(q, extra) ? 1 : 0);
    };

    while (static_cast<int>(chosen.size()) < target) {
        int best_q = -1;
        int best_degree = -1;
        int best_lookahead = -1;
        double best_fid = -1.0;
        for (int member : chosen) {
            for (int nbr : topo.neighbors(member)) {
                if (in_set[nbr] || !allowed[static_cast<size_t>(nbr)])
                    continue;
                int degree = in_set_degree(nbr, -1);
                double fid = 0.0;
                for (int m2 : chosen)
                    fid += bestEdgeFidelity(device, device.edgeId(nbr, m2),
                                            types);
                int lookahead = 0;
                for (int m2 : chosen)
                    for (int v : topo.neighbors(m2)) {
                        if (in_set[v] || v == nbr ||
                            !allowed[static_cast<size_t>(v)])
                            continue;
                        lookahead = std::max(
                            lookahead, in_set_degree(v, nbr));
                    }
                for (int v : topo.neighbors(nbr)) {
                    if (in_set[v] || !allowed[static_cast<size_t>(v)])
                        continue;
                    lookahead =
                        std::max(lookahead, in_set_degree(v, nbr));
                }
                bool better =
                    degree > best_degree ||
                    (degree == best_degree &&
                     (lookahead > best_lookahead ||
                      (lookahead == best_lookahead &&
                       fid > best_fid)));
                if (better) {
                    best_degree = degree;
                    best_lookahead = lookahead;
                    best_fid = fid;
                    best_q = nbr;
                }
            }
        }
        QISET_REQUIRE(best_q >= 0,
                      "coupling subgraph exhausted before placing all "
                      "logical qubits");
        chosen.push_back(best_q);
        join(best_q);
    }
    return chosen;
}

/**
 * Capacity-aware placement on a chiplet device: fit inside the best
 * single core when one has room; otherwise greedily grow a teleport-
 * connected core set until the total capacity suffices, pin the comm
 * qubits of the spanning links into the selection, and fill per-core
 * quotas with the monolithic growth criterion.
 */
std::vector<int>
chooseChipletMapping(const Device& device, int num_logical,
                     const std::vector<int>& types)
{
    const Topology& topo = device.topology();
    int num_cores = topo.numCores();

    // Core quality: mean best calibrated fidelity of its couplers.
    std::vector<double> core_score(static_cast<size_t>(num_cores), 0.0);
    std::vector<int> core_edges(static_cast<size_t>(num_cores), 0);
    for (auto [a, b] : topo.edges()) {
        int c = topo.coreOf(a);
        if (c != topo.coreOf(b))
            continue;
        core_score[static_cast<size_t>(c)] +=
            bestEdgeFidelity(device, device.edgeId(a, b), types);
        ++core_edges[static_cast<size_t>(c)];
    }
    for (int c = 0; c < num_cores; ++c)
        if (core_edges[static_cast<size_t>(c)] > 0)
            core_score[static_cast<size_t>(c)] /=
                core_edges[static_cast<size_t>(c)];

    auto core_allowed = [&](int c) {
        std::vector<char> allowed(
            static_cast<size_t>(device.numQubits()), 0);
        for (int q : topo.core(c).qubits)
            allowed[static_cast<size_t>(q)] = 1;
        return allowed;
    };

    // Single-core fit: the whole circuit stays SWAP-routed (and
    // telesabre delegates to sabre on the induced coupling).
    int best_single = -1;
    for (int c = 0; c < num_cores; ++c) {
        if (topo.core(c).capacity() < num_logical)
            continue;
        if (best_single < 0 ||
            core_score[static_cast<size_t>(c)] >
                core_score[static_cast<size_t>(best_single)])
            best_single = c;
    }
    if (best_single >= 0) {
        std::vector<int> chosen =
            growWithin(device, types, core_allowed(best_single), {},
                       num_logical);
        std::sort(chosen.begin(), chosen.end());
        return chosen;
    }

    // Wider than any core: grow a teleport-connected core set, best
    // score first, until the capacity suffices.
    std::vector<char> selected(static_cast<size_t>(num_cores), 0);
    std::vector<int> sel_order;
    int start = 0;
    for (int c = 1; c < num_cores; ++c)
        if (core_score[static_cast<size_t>(c)] >
            core_score[static_cast<size_t>(start)])
            start = c;
    selected[static_cast<size_t>(start)] = 1;
    sel_order.push_back(start);
    int total_capacity = topo.core(start).capacity();
    std::vector<TeleportEdge> spanning;
    const auto& links = topo.teleportEdges();
    while (total_capacity < num_logical) {
        int best_core = -1;
        size_t best_link = 0;
        for (size_t e = 0; e < links.size(); ++e) {
            bool a_in = selected[static_cast<size_t>(links[e].core_a)];
            bool b_in = selected[static_cast<size_t>(links[e].core_b)];
            if (a_in == b_in)
                continue;
            int cand = a_in ? links[e].core_b : links[e].core_a;
            if (best_core < 0 ||
                core_score[static_cast<size_t>(cand)] >
                    core_score[static_cast<size_t>(best_core)] ||
                (core_score[static_cast<size_t>(cand)] ==
                     core_score[static_cast<size_t>(best_core)] &&
                 cand < best_core)) {
                best_core = cand;
                best_link = e;
            }
        }
        QISET_REQUIRE(best_core >= 0,
                      "circuit wider than the teleport-connected "
                      "capacity of the device (", num_logical,
                      " logical qubits)");
        selected[static_cast<size_t>(best_core)] = 1;
        sel_order.push_back(best_core);
        spanning.push_back(links[best_link]);
        total_capacity += topo.core(best_core).capacity();
    }

    // The spanning links' comm qubits must be part of the selection so
    // the routed circuit can actually cross between cores.
    std::vector<std::vector<int>> required(
        static_cast<size_t>(num_cores));
    for (const TeleportEdge& edge : spanning) {
        required[static_cast<size_t>(edge.core_a)].push_back(
            edge.comm_a);
        required[static_cast<size_t>(edge.core_b)].push_back(
            edge.comm_b);
    }
    int total_required = 0;
    for (int c : sel_order) {
        auto& req = required[static_cast<size_t>(c)];
        std::sort(req.begin(), req.end());
        req.erase(std::unique(req.begin(), req.end()), req.end());
        total_required += static_cast<int>(req.size());
    }
    QISET_REQUIRE(num_logical >= total_required,
                  "circuit too narrow for the comm qubits of its core "
                  "span (", num_logical, " < ", total_required, ")");

    // Per-core quotas: comm qubits first, remaining width filled in
    // selection order (best cores first) up to capacity.
    std::vector<int> quota(static_cast<size_t>(num_cores), 0);
    int leftover = num_logical - total_required;
    for (int c : sel_order) {
        int req =
            static_cast<int>(required[static_cast<size_t>(c)].size());
        int room = topo.core(c).capacity() - req;
        int add = std::min(room, leftover);
        quota[static_cast<size_t>(c)] = req + add;
        leftover -= add;
    }
    QISET_ASSERT(leftover == 0, "chiplet quota distribution failed");

    std::vector<int> physical;
    physical.reserve(static_cast<size_t>(num_logical));
    for (int c : sel_order) {
        std::vector<int> chosen = growWithin(
            device, types, core_allowed(c),
            required[static_cast<size_t>(c)],
            quota[static_cast<size_t>(c)]);
        std::sort(chosen.begin(), chosen.end());
        physical.insert(physical.end(), chosen.begin(), chosen.end());
    }
    return physical;
}

} // namespace

std::vector<int>
chooseMapping(const Device& device, int num_logical,
              const GateSet& gate_set)
{
    QISET_REQUIRE(num_logical >= 1, "need at least one logical qubit");
    QISET_REQUIRE(num_logical <= device.numQubits(),
                  "circuit wider than device (", num_logical, " > ",
                  device.numQubits(), ")");
    const Topology& topo = device.topology();

    if (num_logical == 1)
        return {0};

    // The set's type ids, resolved once; every edge query below reads
    // the device's table by id.
    const std::vector<int> types = fidelityTypeIds(device, gate_set);

    // Modular devices place capacity-aware: per-core selections joined
    // through teleport links. Monolithic devices grow one selection
    // over the whole coupling.
    if (topo.numCores() > 1)
        return chooseChipletMapping(device, num_logical, types);
    return growWithin(device, types,
                      std::vector<char>(
                          static_cast<size_t>(device.numQubits()), 1),
                      {}, num_logical);
}

} // namespace qiset

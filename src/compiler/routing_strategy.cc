#include "compiler/routing_strategy.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <numeric>
#include <optional>
#include <sstream>
#include <utility>

#include "common/error.h"

namespace qiset {

// ------------------------------------------------------------ factory

std::unique_ptr<RoutingStrategy>
makeRoutingStrategy(const std::string& name, const SabreOptions& sabre,
                    const TeleportOptions& teleport)
{
    if (name == "greedy")
        return std::make_unique<GreedyRouter>();
    if (name == "sabre")
        return std::make_unique<SabreRouter>(sabre);
    if (name == "telesabre")
        return std::make_unique<TeleportRouter>(sabre, teleport);
    std::ostringstream known;
    for (const auto& existing : routingStrategyNames())
        known << ' ' << existing;
    fatal("unknown routing strategy \"", name, "\"; known:", known.str());
}

std::vector<std::string>
routingStrategyNames()
{
    return {"greedy", "sabre", "telesabre"};
}

// ------------------------------------------------------------- greedy

RoutedCircuit
GreedyRouter::route(const Circuit& logical, const Topology& coupling,
                    const Schedule& schedule, MemArena& arena) const
{
    (void)schedule; // greedy looks one gate ahead only
    (void)arena;    // and keeps no per-route scratch
    return routeCircuit(logical, coupling);
}

// ------------------------------------------------- sabre and telesabre

namespace {

/**
 * The teleport links a pass may cross: the coupling's when telesabre
 * routes a multi-core coupling (`teleport` set), none for SABRE.
 */
const std::vector<TeleportEdge>&
crossableLinks(const Topology& coupling, const TeleportOptions* teleport)
{
    static const std::vector<TeleportEdge> none;
    return teleport ? coupling.teleportEdges() : none;
}

/**
 * All-pairs shortest distances over coupling edges (weight 1) plus
 * the crossable teleport links (weight teleport_weight),
 * bump-allocated as a flat n x n row-major table (dist[a * n + b]).
 * Without links every entry is the exact BFS hop count. Dense
 * Dijkstra per source — routing couplings are circuit-sized and the
 * table is built once per route.
 */
const double*
allPairsDistance(const Topology& coupling, const TeleportOptions* teleport,
                 MemArena& arena)
{
    int n = coupling.numQubits();
    double* dist =
        arena.allocateArray<double>(static_cast<size_t>(n) * n);
    const double kInf = 1e300;
    std::fill(dist, dist + static_cast<size_t>(n) * n, kInf);
    bool* done = arena.allocateArray<bool>(n);
    const auto& links = crossableLinks(coupling, teleport);
    for (int source = 0; source < n; ++source) {
        double* row = dist + static_cast<size_t>(source) * n;
        std::fill(done, done + n, false);
        row[source] = 0.0;
        for (int it = 0; it < n; ++it) {
            int u = -1;
            for (int v = 0; v < n; ++v)
                if (!done[v] && (u < 0 || row[v] < row[u]))
                    u = v;
            if (u < 0 || row[u] >= kInf)
                break;
            done[u] = true;
            for (int v : coupling.neighbors(u))
                row[v] = std::min(row[v], row[u] + 1.0);
            for (const TeleportEdge& link : links) {
                if (link.comm_a == u)
                    row[link.comm_b] =
                        std::min(row[link.comm_b],
                                 row[u] + teleport->teleport_weight);
                else if (link.comm_b == u)
                    row[link.comm_a] =
                        std::min(row[link.comm_a],
                                 row[u] + teleport->teleport_weight);
            }
        }
    }
    return dist;
}

/**
 * Gate-dependency DAG over a given execution order of op indices, in
 * CSR form over the arena: op id's successors are
 * succ[succ_begin[id] .. succ_begin[id + 1]).
 */
struct Dag
{
    int* succ = nullptr;
    int* succ_begin = nullptr;
    int* in_degree = nullptr;

    int successorsBegin(int id) const { return succ_begin[id]; }
    int successorsEnd(int id) const { return succ_begin[id + 1]; }
};

Dag
buildDag(const std::vector<Qubits>& op_qubits,
         const std::vector<int>& order, int num_qubits, MemArena& arena)
{
    size_t count = op_qubits.size();
    Dag dag;
    dag.succ_begin = arena.allocateArray<int>(count + 1);
    dag.in_degree = arena.allocateArray<int>(count);
    std::fill(dag.succ_begin, dag.succ_begin + count + 1, 0);
    std::fill(dag.in_degree, dag.in_degree + count, 0);

    int* last_on_qubit = arena.allocateArray<int>(num_qubits);
    std::fill(last_on_qubit, last_on_qubit + num_qubits, -1);

    // Pass 1: count each op's successor edges (succ_begin holds
    // per-op counts shifted by one, turned into offsets below).
    size_t edges = 0;
    for (int id : order) {
        for (int q : op_qubits[static_cast<size_t>(id)]) {
            if (last_on_qubit[q] >= 0) {
                ++dag.succ_begin[last_on_qubit[q] + 1];
                ++dag.in_degree[id];
                ++edges;
            }
            last_on_qubit[q] = id;
        }
    }
    for (size_t i = 0; i < count; ++i)
        dag.succ_begin[i + 1] += dag.succ_begin[i];

    // Pass 2: fill, replaying the identical traversal.
    dag.succ = arena.allocateArray<int>(edges);
    int* cursor = arena.allocateArray<int>(count);
    std::copy(dag.succ_begin, dag.succ_begin + count, cursor);
    std::fill(last_on_qubit, last_on_qubit + num_qubits, -1);
    for (int id : order) {
        for (int q : op_qubits[static_cast<size_t>(id)]) {
            if (last_on_qubit[q] >= 0)
                dag.succ[cursor[last_on_qubit[q]]++] = id;
            last_on_qubit[q] = id;
        }
    }
    return dag;
}

/**
 * One SABRE pass over `order`. Starts from `position` (position[l] =
 * register slot of logical qubit l), returns the final mapping. When
 * `out` is given, mapped ops and inserted moves are emitted into its
 * circuit and counted in its counters; refinement passes leave it
 * null and only advance the mapping.
 *
 * With `teleport` set (telesabre on a multi-core coupling) the pass
 * adds the link-only parts: exchange teleportations across the
 * coupling's links are candidate moves next to intra-core SWAPs, the
 * exact inverse of the previous move is skipped, and the progress
 * fallback walks the weighted distance table through links.
 *
 * Fully deterministic: ties break on op/edge order, never on
 * randomness, and intra-core SWAPs win score ties against link
 * crossings (links are the expensive move).
 *
 * A blocked iteration redoes only what changed: it checks only the
 * front ops that just entered the front or that a move relocated,
 * reuses the extended set until an op executes, and scores each
 * candidate move as it is enumerated, with no collection or sort.
 *
 * `hops`, when given, is `dist` as exact integers (see routeSabre).
 * Then each iteration sums the front and extended distances once, and
 * a candidate adds only the change on the gates touching its two
 * slots, in integer arithmetic: the totals equal the full sums' exact
 * doubles bit for bit. Without it each candidate re-sums every gate.
 */
std::vector<int>
runSabrePass(const Circuit& logical, const std::vector<int>& order,
             const std::vector<int>& lookahead_rank,
             const Topology& coupling, const double* dist,
             const int* hops, const SabreOptions& opt,
             const TeleportOptions* teleport, std::vector<int> position,
             RoutedCircuit* out, MemArena& arena)
{
    int n = coupling.numQubits();
    RoutingState state(std::move(position));

    // The pass routes on the qubit column alone; unitaries, labels and
    // annotations are only touched when an executed op is emitted
    // (and then column-copied without re-interning or re-allocating).
    const std::vector<Qubits>& op_qubits = logical.opQubits();
    const int count = static_cast<int>(op_qubits.size());
    const std::vector<TeleportEdge>& links =
        crossableLinks(coupling, teleport);

    Dag dag = buildDag(op_qubits, order, n, arena);
    // The front layer in ascending id order, and front_of[l], the front
    // op on logical qubit l or -1 (front ops share no qubit).
    auto front = makeArenaVector<int>(arena);
    int* front_of = arena.allocateArray<int>(n);
    std::fill(front_of, front_of + n, -1);
    for (int id = 0; id < count; ++id)
        if (dag.in_degree[id] == 0) {
            front.push_back(id);
            for (int q : op_qubits[static_cast<size_t>(id)])
                front_of[q] = id;
        }
    auto in_front = [&](int id) {
        return front_of[op_qubits[static_cast<size_t>(id)][0]] == id;
    };
    // The front ops whose executability may have changed, ascending:
    // those that just entered the front, or whose qubits the last move
    // relocated.
    auto check = makeArenaVector<int>(arena);
    check.assign(front.begin(), front.end());

    // Unexecuted 2Q ops in lookahead priority order (rank, id), as a
    // doubly linked list over op ids with sentinel `count`, so an
    // executed op unlinks in O(1). The extended set is drawn from its
    // head.
    auto by_rank = makeArenaVector<std::pair<int, int>>(arena);
    for (int id : order)
        if (op_qubits[static_cast<size_t>(id)].isTwoQubit())
            by_rank.emplace_back(lookahead_rank[id], id);
    std::sort(by_rank.begin(), by_rank.end());
    int* pending_next = arena.allocateArray<int>(count + 1);
    int* pending_prev = arena.allocateArray<int>(count + 1);
    int last = count;
    for (const auto& [rank, id] : by_rank) {
        pending_next[last] = id;
        pending_prev[id] = last;
        last = id;
    }
    pending_next[last] = count;
    pending_prev[count] = last;

    double* decay = arena.allocateArray<double>(n);
    std::fill(decay, decay + n, 1.0);

    // Link edges incident to each slot, ascending by edge index, for
    // candidates and the link-aware fallback: slot s's are
    // link_at[link_start[s] .. link_start[s + 1]).
    int* link_start = arena.allocateArray<int>(n + 2);
    std::fill(link_start, link_start + n + 2, 0);
    for (const TeleportEdge& link : links) {
        ++link_start[link.comm_a + 2];
        ++link_start[link.comm_b + 2];
    }
    std::partial_sum(link_start, link_start + n + 2, link_start);
    int* link_at = arena.allocateArray<int>(2 * links.size());
    for (size_t e = 0; e < links.size(); ++e) {
        link_at[link_start[links[e].comm_a + 1]++] = static_cast<int>(e);
        link_at[link_start[links[e].comm_b + 1]++] = static_cast<int>(e);
    }

    // Per-iteration worklists, hoisted so each keeps its high-water
    // capacity across the whole pass (one arena bump each).
    auto executable = makeArenaVector<int>(arena);
    auto merged = makeArenaVector<int>(arena);
    auto extended = makeArenaVector<int>(arena);
    // The extended set depends only on the pending list and the front,
    // so it is rebuilt only after an op executes.
    bool extended_stale = true;
    // Delta scoring state, rebuilt per blocked iteration. A slot holds
    // at most one front gate: front_other[s] is its other endpoint
    // (-1 for none), front_hops[s] its distance. The extended gates at
    // slot s are entries touch_start[s] .. touch_start[s + 1] of
    // touch_other (the other endpoint) and touch_hops (the gate's
    // distance).
    int* front_other = arena.allocateArray<int>(n);
    int* front_hops = arena.allocateArray<int>(n);
    int* touch_start = arena.allocateArray<int>(n + 1);
    int* touch_cursor = arena.allocateArray<int>(n);
    auto extended_slots = makeArenaVector<std::pair<int, int>>(arena);
    auto touch_other = makeArenaVector<int>(arena);
    auto touch_hops = makeArenaVector<int>(arena);
    int swaps_since_reset = 0;
    int swaps_since_progress = 0;
    // Past this many moves without executing anything, fall back to
    // deterministic shortest-path moves for the oldest blocked gate —
    // each strictly shrinks its distance, so the pass always finishes.
    const int stuck_threshold = 10 * std::max(1, n);
    // The previous move, as an ascending slot pair. With links, its
    // exact inverse is skipped while no gate has executed in between:
    // both SWAP and exchange teleportation are involutions, so this
    // cheaply breaks 2-cycles the pure distance score cannot see (a
    // comm-pair teleport leaves the score unchanged).
    std::pair<int, int> last_move{-1, -1};
    // The emitted circuit's one SWAP entry, shared by every move.
    std::optional<UnitaryId> swap_entry;

    // Every move exchanges two slots' occupants; their front ops are
    // the only ones it can make executable (checked in id order).
    auto exchange = [&](int slot_a, int slot_b) {
        state.swapSlots(slot_a, slot_b);
        last_move = {std::min(slot_a, slot_b), std::max(slot_a, slot_b)};
        int x = front_of[state.occupant[slot_a]];
        int y = front_of[state.occupant[slot_b]];
        if (x > y)
            std::swap(x, y);
        if (x >= 0)
            check.push_back(x);
        if (y >= 0 && y != x)
            check.push_back(y);
    };
    auto apply_swap = [&](int slot_a, int slot_b) {
        if (out) {
            addSwapOp(out->circuit, swap_entry, slot_a, slot_b);
            ++out->swaps_inserted;
        }
        exchange(slot_a, slot_b);
    };
    auto apply_link = [&](int edge_idx) {
        const TeleportEdge& link = links[static_cast<size_t>(edge_idx)];
        if (out) {
            if (teleport->use_teleport) {
                addTeleportOp(out->circuit, swap_entry, link.comm_a,
                              link.comm_b, 1.0 - link.epr_fidelity,
                              link.mean_attempts *
                                  link.attempt_duration_ns);
                ++out->teleports_inserted;
                out->epr_attempts += link.mean_attempts;
            } else {
                double pair3 = link.epr_fidelity * link.epr_fidelity *
                               link.epr_fidelity;
                addTeleportSwapOp(out->circuit, swap_entry, link.comm_a,
                                  link.comm_b, 1.0 - pair3,
                                  3.0 * link.mean_attempts *
                                      link.attempt_duration_ns);
                ++out->swaps_inserted;
                out->epr_attempts += 3.0 * link.mean_attempts;
            }
        }
        exchange(link.comm_a, link.comm_b);
    };

    // Deterministic progress fallback: one move along a shortest path
    // from the oldest blocked gate's pair. Without links that is the
    // first SWAP of a BFS shortest path. With links it is one move
    // along a weighted shortest path; when the remaining path is a
    // bare link whose far comm slot holds the partner logical (an
    // exchange teleport would only swap the pair), the far comm slot
    // is vacated with an intra-core SWAP first.
    auto fallback_move = [&] {
        if (out)
            ++out->fallback_moves;
        Qubits qs = op_qubits[static_cast<size_t>(front.front())];
        int pa = state.position[qs[0]];
        int pb = state.position[qs[1]];
        if (!teleport) {
            auto path = coupling.shortestPath(pa, pb);
            QISET_ASSERT(path.size() >= 3, "non-adjacent pair with a "
                                           "path shorter than 3 nodes");
            apply_swap(path[0], path[1]);
            return;
        }
        double here = dist[static_cast<size_t>(pa) * n + pb];
        int hop = -1;
        bool hop_is_link = false;
        int hop_edge = -1;
        const double eps = 1e-9;
        for (int v : coupling.neighbors(pa)) {
            if (v == pb)
                continue; // adjacent pairs never reach the fallback
            if (std::abs(1.0 + dist[static_cast<size_t>(v) * n + pb] -
                         here) <= eps &&
                (hop < 0 || v < hop)) {
                hop = v;
                hop_is_link = false;
            }
        }
        for (int k = link_start[pa]; k < link_start[pa + 1]; ++k) {
            int e = link_at[k];
            const TeleportEdge& link = links[static_cast<size_t>(e)];
            int far = link.comm_a == pa ? link.comm_b : link.comm_a;
            if (far == pb)
                continue;
            if (std::abs(teleport->teleport_weight +
                         dist[static_cast<size_t>(far) * n + pb] -
                         here) <= eps &&
                (hop < 0 || far < hop)) {
                hop = far;
                hop_is_link = true;
                hop_edge = e;
            }
        }
        if (hop < 0) {
            // Shortest route ends with the link whose far slot is pb:
            // move the partner one coupling hop off the comm slot so
            // the crossing becomes productive.
            const auto& away = coupling.neighbors(pb);
            QISET_ASSERT(!away.empty(),
                         "blocked gate on an isolated comm qubit");
            int lowest = *std::min_element(away.begin(), away.end());
            apply_swap(pb, lowest);
            return;
        }
        if (hop_is_link)
            apply_link(hop_edge);
        else
            apply_swap(pa, hop);
    };

    while (!front.empty()) {
        // Execute everything executable under the current mapping, in
        // id order. No front op outside `check` can have become so.
        executable.clear();
        for (int id : check) {
            Qubits qs = op_qubits[static_cast<size_t>(id)];
            if (!qs.isTwoQubit() ||
                coupling.adjacent(state.position[qs[0]],
                                  state.position[qs[1]]))
                executable.push_back(id);
        }
        check.clear();
        if (!executable.empty()) {
            // The ops this makes ready enter `check`, to execute in the
            // next iteration.
            for (int id : executable) {
                Qubits qs = op_qubits[static_cast<size_t>(id)];
                if (out) {
                    Qubits moved =
                        qs.isTwoQubit()
                            ? Qubits(state.position[qs[0]],
                                     state.position[qs[1]])
                            : Qubits(state.position[qs[0]]);
                    out->circuit.add(
                        logical.ops()[static_cast<size_t>(id)], moved);
                }
                if (qs.isTwoQubit()) {
                    pending_next[pending_prev[id]] = pending_next[id];
                    pending_prev[pending_next[id]] = pending_prev[id];
                }
                for (int q : qs)
                    front_of[q] = -1;
                for (int s = dag.successorsBegin(id);
                     s < dag.successorsEnd(id); ++s) {
                    int next = dag.succ[s];
                    if (--dag.in_degree[next] == 0) {
                        check.push_back(next);
                        for (int q : op_qubits[static_cast<size_t>(next)])
                            front_of[q] = next;
                    }
                }
            }
            // The new front: the ops still on their qubits, merged
            // with the ones that just entered.
            front.erase(std::remove_if(front.begin(), front.end(),
                                       [&](int id) { return !in_front(id); }),
                        front.end());
            std::sort(check.begin(), check.end());
            merged.clear();
            std::merge(front.begin(), front.end(), check.begin(),
                       check.end(), std::back_inserter(merged));
            std::swap(front, merged);
            extended_stale = true;
            std::fill(decay, decay + n, 1.0);
            swaps_since_reset = 0;
            swaps_since_progress = 0;
            last_move = {-1, -1};
            continue;
        }

        // Everything in the front layer is a blocked 2Q gate.
        if (++swaps_since_progress > stuck_threshold) {
            fallback_move();
            continue;
        }

        // Extended set: the next lookahead gates by schedule order,
        // at most extended_set_size of them.
        if (extended_stale) {
            extended.clear();
            for (int id = pending_next[count];
                 id != count && static_cast<int>(extended.size()) <
                                    opt.extended_set_size;
                 id = pending_next[id])
                if (!in_front(id))
                    extended.push_back(id);
            extended_stale = false;
        }

        auto scored_distance = [&](const ArenaVector<int>& gate_ids,
                                   int slot_a, int slot_b) {
            double total = 0.0;
            for (int id : gate_ids) {
                Qubits qs = op_qubits[static_cast<size_t>(id)];
                int pa = state.position[qs[0]];
                int pb = state.position[qs[1]];
                if (pa == slot_a)
                    pa = slot_b;
                else if (pa == slot_b)
                    pa = slot_a;
                if (pb == slot_a)
                    pb = slot_b;
                else if (pb == slot_b)
                    pb = slot_a;
                total += dist[static_cast<size_t>(pa) * n + pb];
            }
            return total;
        };
        int64_t front_base = 0;
        int64_t extended_base = 0;
        if (hops) {
            std::fill(front_other, front_other + n, -1);
            for (int id : front) {
                Qubits qs = op_qubits[static_cast<size_t>(id)];
                int pa = state.position[qs[0]];
                int pb = state.position[qs[1]];
                int d = hops[static_cast<size_t>(pa) * n + pb];
                front_base += d;
                front_other[pa] = pb;
                front_other[pb] = pa;
                front_hops[pa] = front_hops[pb] = d;
            }
            std::fill(touch_start, touch_start + n + 1, 0);
            extended_slots.clear();
            for (int id : extended) {
                Qubits qs = op_qubits[static_cast<size_t>(id)];
                int pa = state.position[qs[0]];
                int pb = state.position[qs[1]];
                extended_slots.emplace_back(pa, pb);
                ++touch_start[pa + 1];
                ++touch_start[pb + 1];
            }
            for (int slot = 0; slot < n; ++slot)
                touch_start[slot + 1] += touch_start[slot];
            std::copy(touch_start, touch_start + n, touch_cursor);
            touch_other.resize(2 * extended_slots.size());
            touch_hops.resize(2 * extended_slots.size());
            for (auto [pa, pb] : extended_slots) {
                int d = hops[static_cast<size_t>(pa) * n + pb];
                extended_base += d;
                touch_other[static_cast<size_t>(touch_cursor[pa])] = pb;
                touch_hops[static_cast<size_t>(touch_cursor[pa]++)] = d;
                touch_other[static_cast<size_t>(touch_cursor[pb])] = pa;
                touch_hops[static_cast<size_t>(touch_cursor[pb]++)] = d;
            }
        }
        // Front and extended totals once slot_a and slot_b trade
        // occupants. With the hop table only the gates at either slot
        // change: the end at slot_a moves to slot_b and vice versa, and
        // a gate on both slots keeps its distance (exact distances are
        // symmetric). Otherwise, full sums.
        auto moved_totals = [&](int slot_a, int slot_b, double& front_total,
                                double& extended_total) {
            if (!hops) {
                front_total = scored_distance(front, slot_a, slot_b);
                extended_total = scored_distance(extended, slot_a, slot_b);
                return;
            }
            const int* to_a = hops + static_cast<size_t>(slot_a) * n;
            const int* to_b = hops + static_cast<size_t>(slot_b) * n;
            int64_t f = front_base;
            int other = front_other[slot_a];
            if (other >= 0 && other != slot_b)
                f += to_b[other] - front_hops[slot_a];
            other = front_other[slot_b];
            if (other >= 0 && other != slot_a)
                f += to_a[other] - front_hops[slot_b];
            int64_t e = extended_base;
            for (int t = touch_start[slot_a]; t < touch_start[slot_a + 1];
                 ++t) {
                other = touch_other[static_cast<size_t>(t)];
                if (other != slot_b)
                    e += to_b[other] - touch_hops[static_cast<size_t>(t)];
            }
            for (int t = touch_start[slot_b]; t < touch_start[slot_b + 1];
                 ++t) {
                other = touch_other[static_cast<size_t>(t)];
                if (other != slot_a)
                    e += to_a[other] - touch_hops[static_cast<size_t>(t)];
            }
            front_total = static_cast<double>(f);
            extended_total = static_cast<double>(e);
        };
        auto move_score = [&](int slot_a, int slot_b) {
            double front_total, extended_total;
            moved_totals(slot_a, slot_b, front_total, extended_total);
            double score =
                front_total / static_cast<double>(front.size());
            if (!extended.empty())
                score += opt.extended_set_weight *
                         (extended_total /
                          static_cast<double>(extended.size()));
            return score * std::max(decay[slot_a], decay[slot_b]);
        };

        // Score each candidate as it is enumerated: the coupling edges
        // and links at each slot holding a front qubit, an edge with
        // front qubits at both ends once (from its lower slot). The
        // SWAP with the least (score, (lo, hi)) wins, unless the link
        // with the least (score, index) scores strictly lower, so the
        // choice does not depend on enumeration order. A score is
        // symmetric in its two slots.
        auto scored_elsewhere = [&](int slot, int far) {
            return far < slot && front_of[state.occupant[far]] >= 0;
        };
        double best_score = 0.0;
        std::pair<int, int> best_move{-1, -1};
        double best_link_score = 0.0;
        int best_link = -1; // index into links
        for (int id : front) {
            for (int l : op_qubits[static_cast<size_t>(id)]) {
                int p = state.position[l];
                for (int v : coupling.neighbors(p)) {
                    std::pair<int, int> move{std::min(p, v),
                                             std::max(p, v)};
                    if (scored_elsewhere(p, v) ||
                        (teleport && move == last_move))
                        continue;
                    double score = move_score(move.first, move.second);
                    if (best_move.first < 0 || score < best_score ||
                        (score == best_score && move < best_move)) {
                        best_score = score;
                        best_move = move;
                    }
                }
                for (int k = link_start[p]; k < link_start[p + 1]; ++k) {
                    int e = link_at[k];
                    const TeleportEdge& link = links[static_cast<size_t>(e)];
                    int far = link.comm_a == p ? link.comm_b : link.comm_a;
                    if (scored_elsewhere(p, far) ||
                        std::make_pair(std::min(p, far),
                                       std::max(p, far)) == last_move)
                        continue;
                    double score = move_score(p, far);
                    if (best_link < 0 || score < best_link_score ||
                        (score == best_link_score && e < best_link)) {
                        best_link_score = score;
                        best_link = e;
                    }
                }
            }
        }
        bool cross = best_link >= 0 && (best_move.first < 0 ||
                                        best_link_score < best_score);
        if (!cross && best_move.first < 0) {
            // Every candidate was the previous move's inverse; force
            // progress along the shortest path instead of oscillating.
            QISET_ASSERT(teleport != nullptr,
                         "blocked front layer with no candidate SWAPs");
            fallback_move();
            continue;
        }
        if (cross)
            apply_link(best_link);
        else
            apply_swap(best_move.first, best_move.second);
        decay[last_move.first] += opt.decay_increment;
        decay[last_move.second] += opt.decay_increment;
        if (++swaps_since_reset >= opt.decay_reset_interval) {
            std::fill(decay, decay + n, 1.0);
            swaps_since_reset = 0;
        }
    }
    return state.position;
}

/**
 * The refine-then-emit driver of both lookahead routers: refinement
 * passes shape the start layout, then one forward pass emits the
 * routed circuit. `teleport` enables the link moves (see
 * runSabrePass).
 */
RoutedCircuit
routeSabre(const Circuit& logical, const Topology& coupling,
           const Schedule& schedule, const SabreOptions& options,
           const TeleportOptions* teleport, MemArena& arena)
{
    int n = logical.numQubits();
    size_t count = logical.size();
    const double* dist = allPairsDistance(coupling, teleport, arena);
    // Delta scoring needs every distance to be a small integer: hop
    // counts always are, link-weighted ones at an integral weight. Any
    // sum of fewer than 2^31 entries under 2^20 is then an exact
    // double, and exact shortest-path lengths are symmetric.
    int* hops = arena.allocateArray<int>(static_cast<size_t>(n) * n);
    for (int a = 0; a < n && hops; ++a)
        for (int b = 0; b < n; ++b) {
            double d = dist[static_cast<size_t>(a) * n + b];
            if (!(d == std::floor(d) && d < 1048576.0 &&
                  d == dist[static_cast<size_t>(b) * n + a])) {
                hops = nullptr; // score by full sums
                break;
            }
            hops[static_cast<size_t>(a) * n + b] = static_cast<int>(d);
        }

    std::vector<int> forward_order(count);
    std::vector<int> reverse_order(count);
    for (size_t i = 0; i < count; ++i) {
        forward_order[i] = static_cast<int>(i);
        reverse_order[i] = static_cast<int>(count - 1 - i);
    }
    // Lookahead priority: the schedule's ASAP moment order forward;
    // its mirror (depth-1 - ALAP, the reversed circuit's ASAP) on
    // reverse refinement passes.
    std::vector<int> forward_rank(count, 0);
    std::vector<int> reverse_rank(count, 0);
    for (size_t i = 0; i < count; ++i) {
        forward_rank[i] = schedule.asapMoment(i);
        reverse_rank[i] = schedule.depth() - 1 - schedule.alapMoment(i);
    }

    std::vector<int> position(n);
    for (int l = 0; l < n; ++l)
        position[l] = l;

    // Bidirectional refinement: each pass routes the circuit in
    // alternating directions and hands its final mapping to the next,
    // so the emitting pass starts from a layout already shaped by the
    // whole circuit.
    for (int round = 0; round < options.refinement_rounds; ++round) {
        bool forward = (round % 2 == 0);
        position = runSabrePass(
            logical, forward ? forward_order : reverse_order,
            forward ? forward_rank : reverse_rank, coupling, dist,
            hops, options, teleport, std::move(position),
            nullptr, arena);
    }

    RoutedCircuit out;
    out.circuit = Circuit(n);
    // Emitted ops = every logical op plus the inserted moves; reserve
    // for the former so only an unusually move-heavy route regrows.
    // The table holds one entry per logical op and the shared SWAP.
    out.circuit.reserveOps(count, count + 1);
    out.initial_positions = position;
    out.final_positions =
        runSabrePass(logical, forward_order, forward_rank, coupling,
                     dist, hops, options, teleport,
                     std::move(position), &out, arena);
    return out;
}

} // namespace

SabreRouter::SabreRouter(SabreOptions options) : options_(options)
{
    QISET_REQUIRE(options_.extended_set_size >= 0,
                  "extended set size must be >= 0");
    QISET_REQUIRE(options_.decay_reset_interval >= 1,
                  "decay reset interval must be >= 1");
    QISET_REQUIRE(options_.refinement_rounds >= 0,
                  "refinement rounds must be >= 0");
}

RoutedCircuit
SabreRouter::route(const Circuit& logical, const Topology& coupling,
                   const Schedule& schedule, MemArena& arena) const
{
    QISET_REQUIRE(coupling.numQubits() == logical.numQubits(),
                  "coupling graph width must match the circuit");
    QISET_REQUIRE(coupling.connected() || logical.numQubits() == 1,
                  "coupling graph must be connected");
    QISET_REQUIRE(schedule.consistentWith(logical),
                  "sabre routing needs the schedule of the logical "
                  "circuit being routed");
    return routeSabre(logical, coupling, schedule, options_, nullptr,
                      arena);
}

TeleportRouter::TeleportRouter(SabreOptions sabre, TeleportOptions teleport)
    : SabreRouter(sabre), teleport_(teleport)
{
    QISET_REQUIRE(teleport_.teleport_weight > 0.0,
                  "teleport weight must be positive");
}

RoutedCircuit
TeleportRouter::route(const Circuit& logical, const Topology& coupling,
                      const Schedule& schedule, MemArena& arena) const
{
    // Single-core (or core-less) couplings cannot teleport: route as
    // SABRE outright so "telesabre" is bit-identical to "sabre" on
    // every monolithic device.
    if (coupling.numCores() <= 1)
        return SabreRouter::route(logical, coupling, schedule, arena);

    QISET_REQUIRE(coupling.numQubits() == logical.numQubits(),
                  "coupling graph width must match the circuit");
    QISET_REQUIRE(coupling.connectedWithTeleport(),
                  "chiplet coupling must be connected through its "
                  "teleport links");
    QISET_REQUIRE(schedule.consistentWith(logical),
                  "telesabre routing needs the schedule of the logical "
                  "circuit being routed");
    return routeSabre(logical, coupling, schedule, options(), &teleport_,
                      arena);
}

} // namespace qiset

#include "device/topology.h"

#include <algorithm>
#include <queue>

#include "common/error.h"

namespace qiset {

Topology::Topology(int num_qubits)
    : num_qubits_(num_qubits), adjacency_(num_qubits)
{
    QISET_REQUIRE(num_qubits >= 1, "topology needs at least one qubit");
}

void
Topology::addEdge(int a, int b)
{
    QISET_REQUIRE(a >= 0 && a < num_qubits_ && b >= 0 && b < num_qubits_,
                  "edge endpoint out of range");
    QISET_REQUIRE(a != b, "self-loop edge");
    if (adjacent(a, b))
        return;
    adjacency_[a].push_back(b);
    adjacency_[b].push_back(a);
}

bool
Topology::adjacent(int a, int b) const
{
    const auto& nbrs = adjacency_.at(a);
    return std::find(nbrs.begin(), nbrs.end(), b) != nbrs.end();
}

const std::vector<int>&
Topology::neighbors(int q) const
{
    return adjacency_.at(q);
}

std::vector<std::pair<int, int>>
Topology::edges() const
{
    std::vector<std::pair<int, int>> out;
    for (int a = 0; a < num_qubits_; ++a)
        for (int b : adjacency_[a])
            if (a < b)
                out.emplace_back(a, b);
    return out;
}

int
Topology::numEdges() const
{
    return static_cast<int>(edges().size());
}

std::vector<int>
Topology::shortestPath(int a, int b) const
{
    std::vector<int> path;
    std::vector<int> scratch;
    shortestPathInto(a, b, path, scratch);
    return path;
}

void
Topology::shortestPathInto(int a, int b, std::vector<int>& path,
                           std::vector<int>& scratch) const
{
    QISET_REQUIRE(a >= 0 && a < num_qubits_ && b >= 0 && b < num_qubits_,
                  "path endpoint out of range");
    path.clear();
    if (a == b) {
        path.push_back(a);
        return;
    }
    // Scratch layout: [0, n) parents, [n, 2n) the BFS FIFO (every
    // qubit enters the frontier at most once, so n slots suffice).
    size_t n = static_cast<size_t>(num_qubits_);
    scratch.assign(2 * n, -1);
    int* parent = scratch.data();
    int* frontier = scratch.data() + n;
    size_t head = 0, tail = 0;
    frontier[tail++] = a;
    parent[a] = a;
    while (head < tail) {
        int u = frontier[head++];
        for (int v : adjacency_[u]) {
            if (parent[v] != -1)
                continue;
            parent[v] = u;
            if (v == b) {
                path.push_back(b);
                while (path.back() != a)
                    path.push_back(parent[path.back()]);
                std::reverse(path.begin(), path.end());
                return;
            }
            frontier[tail++] = v;
        }
    }
}

bool
Topology::connected() const
{
    std::vector<bool> seen(num_qubits_, false);
    std::queue<int> frontier;
    frontier.push(0);
    seen[0] = true;
    int count = 1;
    while (!frontier.empty()) {
        int u = frontier.front();
        frontier.pop();
        for (int v : adjacency_[u]) {
            if (!seen[v]) {
                seen[v] = true;
                ++count;
                frontier.push(v);
            }
        }
    }
    return count == num_qubits_;
}

Topology
Topology::inducedSubgraph(const std::vector<int>& qubits) const
{
    Topology sub(static_cast<int>(qubits.size()));
    for (size_t i = 0; i < qubits.size(); ++i)
        for (size_t j = i + 1; j < qubits.size(); ++j)
            if (adjacent(qubits[i], qubits[j]))
                sub.addEdge(static_cast<int>(i), static_cast<int>(j));
    if (!hasCores())
        return sub;

    // Carry the core structure: selected qubits keep their core
    // membership, cores with at least one survivor are renumbered in
    // original order, and a teleport edge survives iff both comm
    // endpoints were selected.
    std::vector<int> new_id(num_qubits_, -1);
    for (size_t i = 0; i < qubits.size(); ++i) {
        QISET_REQUIRE(qubits[i] >= 0 && qubits[i] < num_qubits_,
                      "induced subgraph qubit out of range");
        new_id[qubits[i]] = static_cast<int>(i);
    }
    std::vector<int> new_core(cores_.size(), -1);
    std::vector<Core> sub_cores;
    for (size_t c = 0; c < cores_.size(); ++c) {
        Core mapped;
        for (int q : cores_[c].qubits)
            if (new_id[q] >= 0)
                mapped.qubits.push_back(new_id[q]);
        if (mapped.qubits.empty())
            continue;
        for (int q : cores_[c].comm_qubits)
            if (new_id[q] >= 0)
                mapped.comm_qubits.push_back(new_id[q]);
        std::sort(mapped.qubits.begin(), mapped.qubits.end());
        std::sort(mapped.comm_qubits.begin(), mapped.comm_qubits.end());
        new_core[c] = static_cast<int>(sub_cores.size());
        sub_cores.push_back(std::move(mapped));
    }
    sub.setCores(std::move(sub_cores));
    for (const TeleportEdge& edge : teleport_edges_) {
        if (new_id[edge.comm_a] < 0 || new_id[edge.comm_b] < 0)
            continue;
        TeleportEdge mapped = edge;
        mapped.core_a = new_core[edge.core_a];
        mapped.core_b = new_core[edge.core_b];
        mapped.comm_a = new_id[edge.comm_a];
        mapped.comm_b = new_id[edge.comm_b];
        sub.addTeleportEdge(mapped);
    }
    return sub;
}

std::vector<std::vector<int>>
Topology::balancedPartitions(int count) const
{
    QISET_REQUIRE(count >= 1 && count <= num_qubits_,
                  "partition count out of range (", count, " regions, ",
                  num_qubits_, " qubits)");
    QISET_REQUIRE(connected(),
                  "cannot partition a disconnected topology");

    // Farthest-point seeds: qubit 0, then repeatedly the qubit with
    // the largest BFS distance to every seed so far (ties -> lowest
    // index), so regions start spread across the graph.
    std::vector<int> dist(num_qubits_, num_qubits_);
    std::vector<int> seeds;
    auto absorbSeed = [&](int seed) {
        seeds.push_back(seed);
        std::queue<int> frontier;
        frontier.push(seed);
        dist[seed] = 0;
        while (!frontier.empty()) {
            int u = frontier.front();
            frontier.pop();
            for (int v : adjacency_[u]) {
                if (dist[u] + 1 < dist[v]) {
                    dist[v] = dist[u] + 1;
                    frontier.push(v);
                }
            }
        }
    };
    absorbSeed(0);
    while (static_cast<int>(seeds.size()) < count) {
        int farthest = 0;
        for (int q = 1; q < num_qubits_; ++q)
            if (dist[q] > dist[farthest])
                farthest = q;
        absorbSeed(farthest);
    }

    // Round-robin growth: each region claims one qubit per turn, the
    // lowest-index unclaimed neighbor of its earliest member that can
    // still grow. Claiming is monotone, so a member whose neighbors
    // are all claimed can be dropped from the growth queue for good.
    std::vector<std::vector<int>> regions(count);
    std::vector<int> owner(num_qubits_, -1);
    std::vector<std::queue<int>> grow(count);
    for (int r = 0; r < count; ++r) {
        owner[seeds[r]] = r;
        regions[r].push_back(seeds[r]);
        grow[r].push(seeds[r]);
    }
    int claimed = count;
    while (claimed < num_qubits_) {
        for (int r = 0; r < count && claimed < num_qubits_; ++r) {
            while (!grow[r].empty()) {
                int member = grow[r].front();
                int pick = -1;
                for (int v : adjacency_[member])
                    if (owner[v] < 0 && (pick < 0 || v < pick))
                        pick = v;
                if (pick < 0) {
                    grow[r].pop();
                    continue;
                }
                owner[pick] = r;
                regions[r].push_back(pick);
                grow[r].push(pick);
                ++claimed;
                break;
            }
        }
    }
    for (auto& region : regions)
        std::sort(region.begin(), region.end());
    return regions;
}

Topology
Topology::line(int n)
{
    Topology t(n);
    for (int i = 0; i + 1 < n; ++i)
        t.addEdge(i, i + 1);
    return t;
}

Topology
Topology::ring(int n)
{
    Topology t = line(n);
    if (n > 2)
        t.addEdge(n - 1, 0);
    return t;
}

Topology
Topology::grid(int rows, int cols)
{
    Topology t(rows * cols);
    for (int r = 0; r < rows; ++r) {
        for (int c = 0; c < cols; ++c) {
            int idx = r * cols + c;
            if (c + 1 < cols)
                t.addEdge(idx, idx + 1);
            if (r + 1 < rows)
                t.addEdge(idx, idx + cols);
        }
    }
    return t;
}

void
Topology::setCores(std::vector<Core> cores)
{
    QISET_REQUIRE(!cores.empty(), "core partition must be non-empty");
    std::vector<int> owner(num_qubits_, -1);
    for (size_t c = 0; c < cores.size(); ++c) {
        QISET_REQUIRE(!cores[c].qubits.empty(), "core ", c,
                      " has no qubits");
        for (int q : cores[c].qubits) {
            QISET_REQUIRE(q >= 0 && q < num_qubits_, "core qubit ", q,
                          " out of range");
            QISET_REQUIRE(owner[q] < 0, "qubit ", q,
                          " belongs to two cores");
            owner[q] = static_cast<int>(c);
        }
        for (int q : cores[c].comm_qubits)
            QISET_REQUIRE(std::find(cores[c].qubits.begin(),
                                    cores[c].qubits.end(),
                                    q) != cores[c].qubits.end(),
                          "comm qubit ", q, " not a member of core ", c);
    }
    for (int q = 0; q < num_qubits_; ++q)
        QISET_REQUIRE(owner[q] >= 0, "qubit ", q,
                      " belongs to no core");
    cores_ = std::move(cores);
    core_of_ = std::move(owner);
    teleport_edges_.clear();
}

void
Topology::addTeleportEdge(TeleportEdge edge)
{
    QISET_REQUIRE(hasCores(),
                  "teleport edge on a topology without cores");
    QISET_REQUIRE(edge.core_a >= 0 && edge.core_a < numCores() &&
                      edge.core_b >= 0 && edge.core_b < numCores(),
                  "teleport edge core out of range");
    QISET_REQUIRE(edge.core_a != edge.core_b,
                  "teleport edge must join two distinct cores");
    QISET_REQUIRE(coreOf(edge.comm_a) == edge.core_a,
                  "comm qubit ", edge.comm_a, " not in core ",
                  edge.core_a);
    QISET_REQUIRE(coreOf(edge.comm_b) == edge.core_b,
                  "comm qubit ", edge.comm_b, " not in core ",
                  edge.core_b);
    auto designate = [this](int core, int q) {
        auto& comm = cores_[static_cast<size_t>(core)].comm_qubits;
        if (std::find(comm.begin(), comm.end(), q) == comm.end()) {
            comm.push_back(q);
            std::sort(comm.begin(), comm.end());
        }
    };
    designate(edge.core_a, edge.comm_a);
    designate(edge.core_b, edge.comm_b);
    teleport_edges_.push_back(edge);
}

const Core&
Topology::core(int index) const
{
    QISET_REQUIRE(index >= 0 && index < numCores(),
                  "core index out of range");
    return cores_[static_cast<size_t>(index)];
}

int
Topology::coreOf(int q) const
{
    QISET_REQUIRE(q >= 0 && q < num_qubits_, "qubit out of range");
    if (core_of_.empty())
        return -1;
    return core_of_[static_cast<size_t>(q)];
}

int
Topology::coreDistance(int core_a, int core_b) const
{
    QISET_REQUIRE(core_a >= 0 && core_a < numCores() && core_b >= 0 &&
                      core_b < numCores(),
                  "core index out of range");
    if (core_a == core_b)
        return 0;
    std::vector<int> dist(cores_.size(), -1);
    std::queue<int> frontier;
    dist[static_cast<size_t>(core_a)] = 0;
    frontier.push(core_a);
    while (!frontier.empty()) {
        int u = frontier.front();
        frontier.pop();
        for (const TeleportEdge& edge : teleport_edges_) {
            int v = -1;
            if (edge.core_a == u)
                v = edge.core_b;
            else if (edge.core_b == u)
                v = edge.core_a;
            else
                continue;
            if (dist[static_cast<size_t>(v)] >= 0)
                continue;
            dist[static_cast<size_t>(v)] =
                dist[static_cast<size_t>(u)] + 1;
            if (v == core_b)
                return dist[static_cast<size_t>(v)];
            frontier.push(v);
        }
    }
    return -1;
}

int
Topology::intraCoreDistance(int a, int b) const
{
    QISET_REQUIRE(hasCores(), "intra-core distance without cores");
    int core = coreOf(a);
    if (core != coreOf(b))
        return -1;
    if (a == b)
        return 0;
    // BFS restricted to the owning core's qubits.
    std::vector<int> dist(num_qubits_, -1);
    std::queue<int> frontier;
    dist[static_cast<size_t>(a)] = 0;
    frontier.push(a);
    while (!frontier.empty()) {
        int u = frontier.front();
        frontier.pop();
        for (int v : adjacency_[u]) {
            if (coreOf(v) != core || dist[static_cast<size_t>(v)] >= 0)
                continue;
            dist[static_cast<size_t>(v)] =
                dist[static_cast<size_t>(u)] + 1;
            if (v == b)
                return dist[static_cast<size_t>(v)];
            frontier.push(v);
        }
    }
    return -1;
}

bool
Topology::connectedWithTeleport() const
{
    std::vector<bool> seen(num_qubits_, false);
    std::queue<int> frontier;
    frontier.push(0);
    seen[0] = true;
    int count = 1;
    auto visit = [&](int v) {
        if (!seen[static_cast<size_t>(v)]) {
            seen[static_cast<size_t>(v)] = true;
            ++count;
            frontier.push(v);
        }
    };
    while (!frontier.empty()) {
        int u = frontier.front();
        frontier.pop();
        for (int v : adjacency_[u])
            visit(v);
        for (const TeleportEdge& edge : teleport_edges_) {
            if (edge.comm_a == u)
                visit(edge.comm_b);
            else if (edge.comm_b == u)
                visit(edge.comm_a);
        }
    }
    return count == num_qubits_;
}

Topology
Topology::gridOfGrids(int core_rows, int core_cols, int rows, int cols,
                      double epr_fidelity, double attempt_duration_ns,
                      double mean_attempts)
{
    QISET_REQUIRE(core_rows >= 1 && core_cols >= 1 && rows >= 1 &&
                      cols >= 1,
                  "grid-of-grids dimensions must be positive");
    int per_core = rows * cols;
    int num_cores = core_rows * core_cols;
    Topology t(num_cores * per_core);

    std::vector<Core> cores(static_cast<size_t>(num_cores));
    for (int cr = 0; cr < core_rows; ++cr) {
        for (int cc = 0; cc < core_cols; ++cc) {
            int core = cr * core_cols + cc;
            int base = core * per_core;
            for (int r = 0; r < rows; ++r) {
                for (int c = 0; c < cols; ++c) {
                    int idx = base + r * cols + c;
                    cores[static_cast<size_t>(core)].qubits.push_back(
                        idx);
                    if (c + 1 < cols)
                        t.addEdge(idx, idx + 1);
                    if (r + 1 < rows)
                        t.addEdge(idx, idx + cols);
                }
            }
        }
    }
    t.setCores(std::move(cores));

    // One teleport link per adjacent core pair, comm qubits at the
    // midpoint of the facing boundary.
    auto local = [&](int r, int c) { return r * cols + c; };
    for (int cr = 0; cr < core_rows; ++cr) {
        for (int cc = 0; cc < core_cols; ++cc) {
            int core = cr * core_cols + cc;
            int base = core * per_core;
            TeleportEdge edge;
            edge.epr_fidelity = epr_fidelity;
            edge.attempt_duration_ns = attempt_duration_ns;
            edge.mean_attempts = mean_attempts;
            if (cc + 1 < core_cols) {
                edge.core_a = core;
                edge.core_b = core + 1;
                edge.comm_a = base + local(rows / 2, cols - 1);
                edge.comm_b = (core + 1) * per_core + local(rows / 2, 0);
                t.addTeleportEdge(edge);
            }
            if (cr + 1 < core_rows) {
                edge.core_a = core;
                edge.core_b = core + core_cols;
                edge.comm_a = base + local(rows - 1, cols / 2);
                edge.comm_b = (core + core_cols) * per_core +
                              local(0, cols / 2);
                t.addTeleportEdge(edge);
            }
        }
    }
    return t;
}

} // namespace qiset

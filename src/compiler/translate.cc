#include "compiler/translate.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

#include "common/error.h"
#include "nuop/template_circuit.h"
#include "qc/gates.h"

namespace qiset {

std::vector<GateSpec>
gateSpecs(const GateSet& gate_set)
{
    std::vector<GateSpec> specs;
    for (const auto& type : gate_set.types) {
        GateSpec spec;
        spec.type_name = type.name;
        spec.family = TemplateFamily::Fixed;
        spec.unitary = type.unitary();
        // The instruction set advertises what the analytic engine can
        // do with each type, so strategies need not re-classify.
        spec.analytic = type.analyticTier();
        specs.push_back(std::move(spec));
    }
    if (gate_set.isContinuous()) {
        GateSpec spec;
        spec.type_name = gate_set.familyKey();
        spec.family =
            gate_set.continuous == ContinuousFamily::FullXy
                ? TemplateFamily::FullXy
                : gate_set.continuous == ContinuousFamily::FullFsim
                      ? TemplateFamily::FullFsim
                      : TemplateFamily::FullCphase;
        spec.analytic = AnalyticTier::None;
        specs.push_back(std::move(spec));
    }
    return specs;
}

namespace {

/** op_slot entry of an op that carries no 2Q block. */
constexpr uint32_t kNoSlot = std::numeric_limits<uint32_t>::max();

/**
 * Inter-core link ops (TELEPORT/TELESWAP) are already native: their
 * endpoints are not coupling-adjacent, so there is no calibrated edge
 * to decompose them onto.
 */
bool
isLinkOp(LabelId label)
{
    static const LabelId teleport_label = internLabel("TELEPORT");
    static const LabelId teleswap_label = internLabel("TELESWAP");
    return label == teleport_label || label == teleswap_label;
}

/** Hash of a matrix's exact bytes. */
uint64_t
bytesHash(const Matrix& m)
{
    const auto* bytes = reinterpret_cast<const unsigned char*>(m.data());
    uint64_t hash = 0x9e3779b97f4a7c15ull ^ m.size();
    for (size_t at = 0; at < m.size() * sizeof(cplx);
         at += sizeof(uint64_t)) {
        uint64_t word = 0;
        std::memcpy(&word, bytes + at, sizeof(word));
        hash = (hash ^ word) * 0xff51afd7ed558ccdull;
        hash ^= hash >> 32;
    }
    return hash;
}

bool
sameBytes(const Matrix& a, const Matrix& b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(cplx)) == 0;
}

/**
 * Local factors re-dressing a canonical-representative circuit into
 * the concrete target: target == phase * left * representative *
 * right, split into per-qubit U3 corrections. `fallback` marks a
 * target whose factors could not be recovered; its blocks select
 * against raw-keyed NuOp profiles instead.
 */
struct TargetDressing
{
    bool active = false;
    bool fallback = false;
    /** The strategy's profileTarget, set with the slot's key. */
    Matrix representative;
    Matrix pre_a, pre_b;   // merged into the first U3 pair
    Matrix post_a, post_b; // merged into the last U3 pair
};

/** One distinct 2Q block unitary of a circuit. */
struct BlockSlot
{
    /** The first carrier's unitary; every op of the slot has its bytes. */
    const Matrix* unitary = nullptr;
    uint64_t hash = 0;
    /** 2Q ops carrying these bytes. */
    uint64_t blocks = 0;
    /** Some of them are translated (not inter-core link ops). */
    bool translated = false;
    /**
     * The target part of the slot's cache keys (the strategy's
     * targetKeyInto), rendered once and shared by every gate spec; set
     * while the slot resolves.
     */
    std::string_view key;
};

/**
 * A circuit's 2Q blocks grouped into slots by the exact bytes of their
 * unitary, each slot resolved once per compile: one profile lookup per
 * gate spec and, for canonicalizing strategies, one dressing. Ops with
 * equal bytes have equal cache keys, profiles and local factors, so
 * every block reads exactly what its own resolution would have given.
 * All storage bumps from one arena, on the calling thread only.
 */
struct BlockSweep
{
    using ProfileRef = std::shared_ptr<const GateProfile>;

    explicit BlockSweep(MemArena& arena)
        : slots(makeArenaVector<BlockSlot>(arena)),
          op_slot(makeArenaVector<uint32_t>(arena)),
          profiles(makeArenaVector<ProfileRef>(arena)),
          raw_profiles(makeArenaVector<ProfileRef>(arena)),
          dressings(makeArenaVector<TargetDressing>(arena))
    {
    }

    ArenaVector<BlockSlot> slots;
    /** Per op: its slot, or kNoSlot for 1Q ops. */
    ArenaVector<uint32_t> op_slot;
    /** [slot * specs + spec]: profiles under the compile's strategy. */
    ArenaVector<ProfileRef> profiles;
    /** [slot * specs + spec]: raw NuOp profiles of fallback slots. */
    ArenaVector<ProfileRef> raw_profiles;
    /** Per slot, canonicalizing strategies only. */
    ArenaVector<TargetDressing> dressings;
};

/**
 * Assign every 2Q op to its slot — link ops included, so a cold sweep
 * fills the same cache entries whether or not they are translated.
 * The open-addressing table holds at least twice as many cells as
 * there are 2Q ops, so probes stay short and always find a free cell.
 */
void
groupBlocks(const Circuit& circuit, MemArena& arena, BlockSweep& sweep)
{
    const auto& op_qubits = circuit.opQubits();
    const auto& op_labels = circuit.opLabels();
    size_t capacity = 16;
    while (capacity < 2 * static_cast<size_t>(circuit.twoQubitGateCount()))
        capacity *= 2;
    ArenaVector<uint32_t> table =
        makeArenaVector<uint32_t>(arena, capacity, kNoSlot);
    sweep.op_slot.assign(op_qubits.size(), kNoSlot);
    for (size_t i = 0; i < op_qubits.size(); ++i) {
        if (!op_qubits[i].isTwoQubit())
            continue;
        const Matrix& unitary = circuit.opUnitary(i);
        uint64_t hash = bytesHash(unitary);
        size_t cell = hash & (capacity - 1);
        for (; table[cell] != kNoSlot; cell = (cell + 1) & (capacity - 1)) {
            const BlockSlot& slot = sweep.slots[table[cell]];
            if (slot.hash == hash && sameBytes(*slot.unitary, unitary))
                break;
        }
        if (table[cell] == kNoSlot) {
            table[cell] = static_cast<uint32_t>(sweep.slots.size());
            sweep.slots.push_back({&unitary, hash, 0, false, {}});
        }
        BlockSlot& slot = sweep.slots[table[cell]];
        ++slot.blocks;
        slot.translated = slot.translated || !isLinkOp(op_labels[i]);
        sweep.op_slot[i] = table[cell];
    }
}

/**
 * One distinct (slot, fit) choice of a translation. The first block
 * that makes it builds its gates (the dressed U3 factors and the
 * layer gates) and stores them in the output's unitary table in
 * emission order, from `first` on; every block of the fit, the first
 * one included, adds its ops by those ids.
 */
struct FitEmission
{
    const GateProfile* profile = nullptr;
    const LayerFit* fit = nullptr;
    /** Index of the chosen spec (per-spec type_usage). */
    uint32_t spec = 0;
    /** Next emission of the same slot, or kNoSlot. */
    uint32_t next = kNoSlot;
    /** Table id of the first gate; empty until a block emits it. */
    std::optional<UnitaryId> first;
    LabelId label = kInvalidLabel;
    /** Served by the analytic tier (engine == "kak"). */
    bool analytic = false;
};

/**
 * One distinct (slot, edge) selection: blocks of one slot on one edge
 * make the same Eq. 2 choice, so the first runs it and the rest reuse
 * it. Chained per edge.
 */
struct PairChoice
{
    uint32_t slot = 0;
    /** The chosen (slot, fit)'s FitEmission. */
    uint32_t emission = 0;
    /** Next pair on the same edge, or kNoSlot. */
    uint32_t next = kNoSlot;
};

/** What emission reads per translated block. */
struct BlockChoice
{
    uint32_t slot = 0;
    /** The block's edge: its index among the compile's used edges. */
    uint32_t edge = 0;
    /** The chosen (slot, fit)'s FitEmission. */
    uint32_t emission = 0;
};

/**
 * Fill the powers of one edge's row of the power table. A row holds
 * per spec its calibrated fidelity f2q (already in row[0, num_specs)),
 * then per spec pow(f2q, L) for L < depths: the fidelity of L native
 * gates. Uncalibrated specs keep zeros.
 */
void
fillEdgeRow(size_t num_specs, size_t depths, double* row)
{
    for (size_t k = 0; k < num_specs; ++k)
        if (row[k] > 0.0)
            for (size_t layers = 0; layers < depths; ++layers)
                row[num_specs + k * depths + layers] =
                    std::pow(row[k], static_cast<int>(layers));
}

/** pow(f1q, 2(L+1)) for L < depths: the U3 pairs around L gates. */
void
fillOneQubitPowers(double f1q, size_t depths, double* out)
{
    for (int layers = 0; layers < static_cast<int>(depths); ++layers)
        out[layers] = std::pow(f1q, 2.0 * (layers + 1));
}

/** The layer count of a profile's deepest fit. */
int
deepestFit(const GateProfile& profile)
{
    int deepest = 0;
    for (const LayerFit& fit : profile.fits) {
        QISET_REQUIRE(fit.layers >= 0, "profile fit with negative depth");
        deepest = std::max(deepest, fit.layers);
    }
    return deepest;
}

/**
 * The Eq. 2 selection loop behind selectGate and translation. In exact
 * mode only threshold-meeting fits compete, and when none does the
 * best lossy fit wins. Either way a zero-layer fit counts only when it
 * is exact (a local target): dropping the gate is not a NuOp template.
 * `row` is the edge's row of the power table (fillEdgeRow), f1q_pow[L]
 * is pow(f1q, 2(L+1)), and every fit has fewer than `depths` layers.
 */
GateChoice
selectFit(const GateProfile* const* profiles, size_t num_specs,
          const double* row, const double* f1q_pow, size_t depths,
          bool approximate, double exact_threshold)
{
    GateChoice best;
    // Deterministic tie-break on exactly equal Fu: fewer layers, then
    // the lexicographically smaller type name — the choice must not
    // depend on the order the instruction set lists its types.
    auto better = [&best](double fu, const LayerFit& fit,
                          const GateProfile& profile) {
        if (fu != best.overall)
            return fu > best.overall;
        if (!best.profile)
            return false; // fu == 0: never select a zero-Fu fit.
        if (fit.layers != best.fit->layers)
            return fit.layers < best.fit->layers;
        return profile.type_name < best.profile->type_name;
    };
    auto scan = [&](bool exact_only) {
        for (size_t g = 0; g < num_specs; ++g) {
            double f2q = row[g];
            if (f2q <= 0.0)
                continue; // gate type not calibrated on this edge.
            const GateProfile& profile = *profiles[g];
            const double* f2q_pow = row + num_specs + g * depths;
            for (const LayerFit& fit : profile.fits) {
                if (fit.fd < exact_threshold &&
                    (exact_only || fit.layers == 0))
                    continue;
                double fh = f2q_pow[fit.layers] * f1q_pow[fit.layers];
                double fu = fit.fd * fh;
                if (better(fu, fit, profile)) {
                    best.profile = &profile;
                    best.fit = &fit;
                    best.edge_fidelity = f2q;
                    best.overall = fu;
                }
            }
        }
    };
    scan(!approximate);
    if (!best.profile && !approximate)
        scan(false); // mirrors NuOp returning its best attempt.
    QISET_REQUIRE(best.profile != nullptr,
                  "no hardware gate type with a usable decomposition "
                  "is available on this edge");
    return best;
}

/**
 * Recover the local factors that dress the canonical representative
 * (dressing.representative) back into `target`. When they cannot be
 * recovered (a degenerate solve: it happens on near-identity
 * controlled phases), mark the fallback and fetch the raw-keyed NuOp
 * profiles the slot's blocks select against instead. Those fetches are
 * bookkeeping, not reuse, so they count misses but no hits.
 */
void
dressTarget(const Matrix& target, const std::vector<GateSpec>& specs,
            const NuOpDecomposer& decomposer, ProfileCache& cache,
            LocalCacheCounters* local, TargetDressing& dressing,
            BlockSweep::ProfileRef* raw_profiles)
{
    const Matrix& representative = dressing.representative;
    if (!(representative.maxAbsDiff(target) > 0.0))
        return; // the target is its own representative.
    LocalEquivalence equivalence =
        localFactorsBetween(representative, target);
    bool usable = equivalence.ok &&
                  ((equivalence.left * representative * equivalence.right) *
                   equivalence.phase)
                          .maxAbsDiff(target) < 1e-6;
    if (usable) {
        dressing.active = true;
        auto post = decomposeLocalUnitary(equivalence.left);
        auto pre = decomposeLocalUnitary(equivalence.right);
        dressing.post_a = std::move(post.first);
        dressing.post_b = std::move(post.second);
        dressing.pre_a = std::move(pre.first);
        dressing.pre_b = std::move(pre.second);
        return;
    }
    dressing.fallback = true;
    const DecompositionStrategy& raw = nuopDecompositionStrategy();
    thread_local std::string raw_key;
    raw_key.clear();
    raw.targetKeyInto(raw_key, target);
    for (size_t k = 0; k < specs.size(); ++k)
        raw_profiles[k] = cache.get(target, raw_key, specs[k], decomposer,
                                    raw, local, /*blocks=*/0);
}

/**
 * Resolve every slot: one cache lookup per (slot, gate spec), counted
 * for all of the slot's blocks, plus the slot's dressing when `dress`.
 * The jobs fan out over the pool when provided (cooperatively — safe
 * even when the caller is itself a pool worker); each writes only its
 * own result cell.
 */
void
resolveBlocks(BlockSweep& sweep, MemArena& arena,
              const std::vector<GateSpec>& specs,
              const NuOpDecomposer& decomposer,
              const DecompositionStrategy& strategy, bool dress,
              ProfileCache& cache, ThreadPool* pool,
              LocalCacheCounters* local, size_t max_parallelism)
{
    size_t num_specs = specs.size();
    size_t num_slots = sweep.slots.size();
    // Each slot's key target part is rendered once, through one reused
    // per-thread buffer (a warm compile renders without touching the
    // heap), and every lookup of the slot composes its key from it. A
    // dressed slot's representative comes from the same
    // canonicalization.
    thread_local std::string rendered;
    auto render = [&](size_t s) {
        BlockSlot& slot = sweep.slots[s];
        rendered.clear();
        if (dress)
            strategy.targetKeyAndRepresentativeInto(
                rendered, sweep.dressings[s].representative,
                *slot.unitary);
        else
            strategy.targetKeyInto(rendered, *slot.unitary);
        slot.key = rendered;
    };
    sweep.profiles.resize(num_slots * num_specs);
    if (dress) {
        sweep.raw_profiles.resize(num_slots * num_specs);
        sweep.dressings.resize(num_slots);
    }
    // Per slot: one job per spec, then the dressing job.
    size_t per_slot = num_specs + (dress ? 1 : 0);
    auto job = [&](size_t index) {
        size_t s = index / per_slot;
        size_t k = index % per_slot;
        const BlockSlot& slot = sweep.slots[s];
        if (k < num_specs) {
            sweep.profiles[s * num_specs + k] =
                cache.get(*slot.unitary, slot.key, specs[k], decomposer,
                          strategy, local, slot.blocks);
        } else if (slot.translated) {
            dressTarget(*slot.unitary, specs, decomposer, cache, local,
                        sweep.dressings[s],
                        &sweep.raw_profiles[s * num_specs]);
        }
    };
    size_t total = num_slots * per_slot;
    // Fan out only when more than one worker can actually run the
    // jobs: with an effective worker count of 1 (a one-thread pool or
    // a parallelism cap of 1) the claim/atomic overhead of the
    // cooperative loop is pure loss, so take the plain serial path.
    size_t effective_workers =
        pool ? std::min(pool->size(),
                        max_parallelism == 0
                            ? std::numeric_limits<size_t>::max()
                            : max_parallelism)
             : 0;
    if (effective_workers > 1) {
        // Every slot's jobs may run at once: the keys live in the arena.
        for (size_t s = 0; s < num_slots; ++s) {
            render(s);
            char* key = arena.allocateArray<char>(rendered.size());
            std::memcpy(key, rendered.data(), rendered.size());
            sweep.slots[s].key = std::string_view(key, rendered.size());
        }
        parallelFor(*pool, total, job, max_parallelism);
    } else {
        // One slot's jobs at a time, each slot's key in the buffer.
        for (size_t s = 0; s < num_slots; ++s) {
            render(s);
            for (size_t k = 0; k < per_slot; ++k)
                job(s * per_slot + k);
        }
    }
}

} // namespace

void
precomputeProfiles(const Circuit& circuit,
                   const std::vector<GateSpec>& specs,
                   const NuOpDecomposer& decomposer,
                   const DecompositionStrategy& strategy,
                   ProfileCache& cache, ThreadPool* pool,
                   LocalCacheCounters* local, size_t max_parallelism)
{
    MemArena scratch;
    BlockSweep sweep(scratch);
    groupBlocks(circuit, scratch, sweep);
    resolveBlocks(sweep, scratch, specs, decomposer, strategy,
                  /*dress=*/false, cache, pool, local, max_parallelism);
}

GateChoice
selectGate(const std::vector<const GateProfile*>& profiles,
           const std::vector<double>& edge_fidelities,
           double one_qubit_fidelity, bool approximate,
           double exact_threshold)
{
    QISET_REQUIRE(profiles.size() == edge_fidelities.size(),
                  "profile/fidelity arity mismatch");
    size_t num_specs = profiles.size();
    size_t depths = 1;
    for (size_t g = 0; g < num_specs; ++g)
        if (edge_fidelities[g] > 0.0)
            depths = std::max(
                depths, static_cast<size_t>(deepestFit(*profiles[g])) + 1);
    std::vector<double> row(edge_fidelities);
    row.resize(num_specs * (1 + depths));
    fillEdgeRow(num_specs, depths, row.data());
    std::vector<double> f1q_pow(depths);
    fillOneQubitPowers(one_qubit_fidelity, depths, f1q_pow.data());
    return selectFit(profiles.data(), num_specs, row.data(), f1q_pow.data(),
                     depths, approximate, exact_threshold);
}

TranslateResult
translateCircuit(const Circuit& routed, const std::vector<int>& physical,
                 const Device& device, const GateSet& gate_set,
                 const NuOpDecomposer& decomposer,
                 const DecompositionStrategy& strategy,
                 ProfileCache& cache, bool approximate, ThreadPool* pool,
                 size_t max_parallelism, MemArena* arena)
{
    QISET_REQUIRE(physical.size() ==
                      static_cast<size_t>(routed.numQubits()),
                  "physical qubit list must match register width");

    std::vector<GateSpec> specs = gateSpecs(gate_set);
    QISET_REQUIRE(!specs.empty(), "instruction set is empty");
    size_t num_specs = specs.size();

    // Canonicalizing strategies store profiles against the Weyl-chamber
    // representative; each slot also recovers the local factors that
    // dress it back into the exact target.
    bool dress = strategy.canonicalizesTargets();
    MemArena own_scratch;
    MemArena& scratch = arena ? *arena : own_scratch;
    LocalCacheCounters local;
    BlockSweep sweep(scratch);
    groupBlocks(routed, scratch, sweep);
    resolveBlocks(sweep, scratch, specs, decomposer, strategy, dress, cache,
                  pool, &local, max_parallelism);

    int n = routed.numQubits();
    TranslateResult result;
    result.circuit = Circuit(n);

    double f1q_avg = 1.0 - device.averageOneQubitError();
    static const LabelId u3_label = internLabel("U3");

    // Eq. 2 runs once per distinct (slot, edge id): its inputs are the
    // slot's profiles, the edge's cells of the device's calibration
    // table (read through the specs' type ids, resolved once), f1q and
    // the mode, so every other block of the pair reuses the choice (one
    // PairChoice per distinct pair, chained per edge). The powers come
    // from per-compile tables: pow(f1q, 2(L+1)) once per depth and
    // pow(f2q, L) once per used (edge, spec, depth), with L
    // up to the deepest fit of the compile's profiles (a shared cache
    // can serve fits deeper than max_layers). The same std::pow calls
    // on the same arguments as a direct evaluation, so the same bits.
    // Blocks of one slot that choose the same fit emit the same gates,
    // so each distinct (slot, fit) gets one FitEmission, chained per
    // slot, whose gates the output's unitary table holds once. Each
    // block expands to exactly 2 + 3*layers native ops, so summing the
    // chosen fits sizes the output columns *exactly*, and the table
    // takes one entry per pass-through op plus 2 + 3*layers per
    // emission: one reservation each, no growth reallocations while
    // emitting. The slots keep every selected profile alive even if a
    // bounded cache evicts the entries in between.
    const auto& op_qubits = routed.opQubits();
    const auto& op_labels = routed.opLabels();
    double exact_threshold = decomposer.options().exact_threshold;
    size_t num_slots = sweep.slots.size();
    // Per slot, the profiles its blocks select against: the raw NuOp
    // ones where the dressing fell back.
    ArenaVector<const GateProfile*> slot_profiles =
        makeArenaVector<const GateProfile*>(scratch, num_slots * num_specs);
    size_t depths = 1;
    for (size_t s = 0; s < num_slots; ++s) {
        const auto& source = dress && sweep.dressings[s].fallback
                                 ? sweep.raw_profiles
                                 : sweep.profiles;
        for (size_t k = 0; k < num_specs; ++k) {
            const GateProfile* profile = source[s * num_specs + k].get();
            slot_profiles[s * num_specs + k] = profile;
            depths = std::max(
                depths, static_cast<size_t>(deepestFit(*profile)) + 1);
        }
    }
    ArenaVector<int> spec_types = makeArenaVector<int>(scratch, num_specs);
    for (size_t k = 0; k < num_specs; ++k)
        spec_types[k] = device.gateTypeId(specs[k].type_name);
    ArenaVector<double> f1q_pow = makeArenaVector<double>(scratch, depths);
    fillOneQubitPowers(f1q_avg, depths, f1q_pow.data());

    // Number the edges the translated blocks use, in first-use order.
    // Each gets one row of the power table: its f2q per spec, then its
    // powers per spec. The last edge id stands for uncoupled pairs
    // (id -1), which read zero fidelity for every type.
    auto num_edges = static_cast<size_t>(device.topology().numEdges());
    ArenaVector<uint32_t> used_edge =
        makeArenaVector<uint32_t>(scratch, num_edges + 1, kNoSlot);
    uint32_t used_edges = 0;
    ArenaVector<BlockChoice> blocks = makeArenaVector<BlockChoice>(scratch);
    blocks.reserve(static_cast<size_t>(routed.twoQubitGateCount()));
    size_t pass_through = 0;
    for (size_t i = 0; i < op_qubits.size(); ++i) {
        uint32_t s = sweep.op_slot[i];
        if (s == kNoSlot || isLinkOp(op_labels[i])) {
            ++pass_through; // a single op with its own entry.
            continue;
        }
        int edge = device.edgeId(physical[op_qubits[i][0]],
                                 physical[op_qubits[i][1]]);
        uint32_t& used = used_edge[edge < 0 ? num_edges : edge];
        if (used == kNoSlot)
            used = used_edges++;
        blocks.push_back({s, used, 0});
    }
    size_t row_size = num_specs * (1 + depths);
    ArenaVector<double> powers =
        makeArenaVector<double>(scratch, used_edges * row_size);
    for (size_t id = 0; id <= num_edges; ++id) {
        if (used_edge[id] == kNoSlot)
            continue;
        int edge = id < num_edges ? static_cast<int>(id) : -1;
        double* row = &powers[used_edge[id] * row_size];
        for (size_t k = 0; k < num_specs; ++k)
            row[k] = device.edgeFidelity(edge, spec_types[k]);
        fillEdgeRow(num_specs, depths, row);
    }

    // Most slots sit on one edge; repeated blocks (SWAPs, phase
    // ladders) spread over several.
    ArenaVector<PairChoice> pairs = makeArenaVector<PairChoice>(scratch);
    pairs.reserve(num_slots + used_edges);
    ArenaVector<uint32_t> edge_pairs =
        makeArenaVector<uint32_t>(scratch, used_edges, kNoSlot);
    ArenaVector<FitEmission> emissions =
        makeArenaVector<FitEmission>(scratch);
    emissions.reserve(num_slots);
    ArenaVector<uint32_t> slot_emissions =
        makeArenaVector<uint32_t>(scratch, num_slots, kNoSlot);
    size_t block_ops = 0;
    size_t emission_gates = 0;
    for (BlockChoice& block : blocks) {
        uint32_t s = block.slot;
        uint32_t p = edge_pairs[block.edge];
        while (p != kNoSlot && pairs[p].slot != s)
            p = pairs[p].next;
        if (p == kNoSlot) {
            const GateProfile* const* profiles =
                &slot_profiles[s * num_specs];
            GateChoice choice = selectFit(
                profiles, num_specs, &powers[block.edge * row_size],
                f1q_pow.data(), depths, approximate, exact_threshold);
            uint32_t e = slot_emissions[s];
            while (e != kNoSlot && emissions[e].fit != choice.fit)
                e = emissions[e].next;
            if (e == kNoSlot) {
                FitEmission emission;
                emission.profile = choice.profile;
                emission.fit = choice.fit;
                emission.spec = static_cast<uint32_t>(
                    std::find(profiles, profiles + num_specs,
                              choice.profile) -
                    profiles);
                emission.next = slot_emissions[s];
                emission.label = internLabel(choice.profile->type_name);
                emission.analytic = choice.profile->engine == "kak";
                e = slot_emissions[s] =
                    static_cast<uint32_t>(emissions.size());
                emissions.push_back(emission);
                emission_gates += 2 + 3 * choice.fit->layers;
            }
            pairs.push_back({s, e, edge_pairs[block.edge]});
            p = edge_pairs[block.edge] =
                static_cast<uint32_t>(pairs.size() - 1);
        }
        block.emission = pairs[p].emission;
        // Every block counts itself, memo hits included.
        const LayerFit& fit = *emissions[block.emission].fit;
        block_ops += 2 + 3 * fit.layers;
        // Exact mode admits only threshold-meeting fits unless
        // selection fell back.
        if (!approximate && fit.fd < exact_threshold)
            ++result.exact_fallbacks;
    }
    result.circuit.reserveOps(pass_through + block_ops,
                              pass_through + emission_gates);

    // `unitary` is a Matrix for pass-through ops, a table id for
    // template gates.
    auto emit_1q = [&](int reg, const auto& unitary, LabelId label) {
        double error_rate = device.oneQubitError(physical[reg]);
        result.estimated_fidelity *= 1.0 - error_rate;
        result.circuit.add1q(reg, unitary, label, error_rate,
                             device.oneQubitDurationNs());
    };

    // A first emission's 2(layers+1) U3s, dressed before they are
    // stored.
    std::vector<Matrix> built;
    built.reserve(2 * static_cast<size_t>(decomposer.options().max_layers) +
                  2);
    // Native 2Q usage per spec, folded into the named map once.
    ArenaVector<int> usage = makeArenaVector<int>(scratch, num_specs, 0);
    size_t op_index = 0;
    size_t block_index = 0;
    for (const auto& op : routed.ops()) {
        uint32_t s = sweep.op_slot[op_index++];
        Qubits qs = op.qubits();
        if (!op.isTwoQubit()) {
            emit_1q(qs[0], op.unitary(), op.labelId());
            continue;
        }

        if (isLinkOp(op.labelId())) {
            // Link ops carry the EPR link's error rate and duration
            // from routing. Pass through untouched.
            result.circuit.add(op);
            result.estimated_fidelity *= 1.0 - op.errorRate();
            ++result.type_usage[op.label()];
            continue;
        }

        int ra = qs[0];
        int rb = qs[1];
        const TargetDressing* dressing =
            dress ? &sweep.dressings[s] : nullptr;
        if (dressing && dressing->fallback)
            ++result.dressing_fallbacks;

        const BlockChoice& block = blocks[block_index++];
        FitEmission& emission = emissions[block.emission];
        // The chosen type's f2q, at the head of the edge's row.
        double edge_fidelity = powers[block.edge * row_size + emission.spec];
        const GateProfile& profile = *emission.profile;
        const LayerFit& fit = *emission.fit;
        if (emission.analytic)
            ++result.analytic_ops;

        if (!emission.first) {
            TwoQubitTemplate templ =
                profile.family == TemplateFamily::Fixed
                    ? TwoQubitTemplate(fit.layers, profile.unitary)
                    : TwoQubitTemplate(fit.layers, profile.family);
            templ.u3MatricesInto(fit.params, built);
            if (dressing && dressing->active) {
                // C' = post . C . pre implements the target exactly
                // when C implements the representative (Fd is
                // invariant under local dressing, so the profiled
                // fidelities carry over).
                built[0] = built[0] * dressing->pre_a;
                built[1] = built[1] * dressing->pre_b;
                built[2 * fit.layers] =
                    dressing->post_a * built[2 * fit.layers];
                built[2 * fit.layers + 1] =
                    dressing->post_b * built[2 * fit.layers + 1];
            }
            // Emission order: a U3 pair, then per layer the native
            // gate and a U3 pair.
            emission.first = result.circuit.storeUnitary(built[0]);
            result.circuit.storeUnitary(built[1]);
            for (int layer = 0; layer < fit.layers; ++layer) {
                result.circuit.storeUnitary(
                    templ.layerGate(fit.params, layer));
                result.circuit.storeUnitary(built[2 * (layer + 1)]);
                result.circuit.storeUnitary(built[2 * (layer + 1) + 1]);
            }
        }
        // The fit's gates are consecutive entries, one per op.
        auto next = static_cast<uint32_t>(*emission.first);
        auto gate = [&next] { return UnitaryId{next++}; };

        emit_1q(ra, gate(), u3_label);
        emit_1q(rb, gate(), u3_label);
        for (int layer = 0; layer < fit.layers; ++layer) {
            result.circuit.add2q(ra, rb, gate(), emission.label,
                                 1.0 - edge_fidelity,
                                 device.twoQubitDurationNs());
            result.estimated_fidelity *= edge_fidelity;
            emit_1q(ra, gate(), u3_label);
            emit_1q(rb, gate(), u3_label);
        }
        result.two_qubit_count += fit.layers;
        usage[emission.spec] += fit.layers;
        result.estimated_fidelity *= fit.fd;
    }
    for (size_t k = 0; k < num_specs; ++k)
        if (usage[k] > 0)
            result.type_usage[specs[k].type_name] += usage[k];
    result.cache_hits = local.hits.load();
    result.cache_misses = local.misses.load();
    return result;
}

TranslateResult
translateCircuit(const Circuit& routed, const std::vector<int>& physical,
                 const Device& device, const GateSet& gate_set,
                 const NuOpDecomposer& decomposer, ProfileCache& cache,
                 bool approximate, ThreadPool* pool,
                 size_t max_parallelism)
{
    return translateCircuit(routed, physical, device, gate_set,
                            decomposer, nuopDecompositionStrategy(),
                            cache, approximate, pool, max_parallelism);
}

} // namespace qiset

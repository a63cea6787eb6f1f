#include "compiler/translate.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>

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
            sweep.slots.push_back({&unitary, hash, 0, false});
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

/** What emission reads per translated block. */
struct BlockChoice
{
    /** Calibrated fidelity of the chosen type on the block's edge. */
    double edge_fidelity = 1.0;
    uint32_t emission = 0;
};

/**
 * Recover the local factors that dress the canonical representative
 * back into `target`. When they cannot be recovered (a degenerate
 * solve: it happens on near-identity controlled phases), mark the
 * fallback and fetch the raw-keyed NuOp profiles the slot's blocks
 * select against instead. Those fetches are bookkeeping, not reuse,
 * so they count misses but no hits.
 */
void
dressTarget(const Matrix& target, const std::vector<GateSpec>& specs,
            const NuOpDecomposer& decomposer,
            const DecompositionStrategy& strategy, ProfileCache& cache,
            LocalCacheCounters* local, TargetDressing& dressing,
            BlockSweep::ProfileRef* raw_profiles)
{
    Matrix representative = strategy.profileTarget(target);
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
    for (size_t k = 0; k < specs.size(); ++k)
        raw_profiles[k] = cache.get(target, specs[k], decomposer,
                                    nuopDecompositionStrategy(), local,
                                    /*blocks=*/0);
}

/**
 * Resolve every slot: one cache lookup per (slot, gate spec), counted
 * for all of the slot's blocks, plus the slot's dressing when `dress`.
 * The jobs fan out over the pool when provided (cooperatively — safe
 * even when the caller is itself a pool worker); each writes only its
 * own result cell.
 */
void
resolveBlocks(BlockSweep& sweep, const std::vector<GateSpec>& specs,
              const NuOpDecomposer& decomposer,
              const DecompositionStrategy& strategy, bool dress,
              ProfileCache& cache, ThreadPool* pool,
              LocalCacheCounters* local, size_t max_parallelism)
{
    size_t num_specs = specs.size();
    size_t num_slots = sweep.slots.size();
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
                cache.get(*slot.unitary, specs[k], decomposer, strategy,
                          local, slot.blocks);
        } else if (slot.translated) {
            dressTarget(*slot.unitary, specs, decomposer, strategy, cache,
                        local, sweep.dressings[s],
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
        parallelFor(*pool, total, job, max_parallelism);
    } else {
        for (size_t i = 0; i < total; ++i)
            job(i);
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
    resolveBlocks(sweep, specs, decomposer, strategy, /*dress=*/false,
                  cache, pool, local, max_parallelism);
}

GateChoice
selectGate(const std::vector<const GateProfile*>& profiles,
           const std::vector<double>& edge_fidelities,
           double one_qubit_fidelity, bool approximate,
           double exact_threshold)
{
    QISET_REQUIRE(profiles.size() == edge_fidelities.size(),
                  "profile/fidelity arity mismatch");
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
    for (size_t g = 0; g < profiles.size(); ++g) {
        double f2q = edge_fidelities[g];
        if (f2q <= 0.0)
            continue; // gate type not calibrated on this edge.
        const GateProfile* profile = profiles[g];
        for (const auto& fit : profile->fits) {
            // Zero-layer fits only count when they are exact (local
            // targets); lossy gate-dropping is not a NuOp template.
            if (fit.layers == 0 && fit.fd < exact_threshold)
                continue;
            double fh = std::pow(f2q, fit.layers) *
                        std::pow(one_qubit_fidelity,
                                 2.0 * (fit.layers + 1));
            double fu = fit.fd * fh;
            // Exact mode: only threshold-meeting fits compete.
            if (!approximate && fit.fd < exact_threshold)
                continue;
            if (better(fu, fit, *profile)) {
                best.profile = profile;
                best.fit = &fit;
                best.edge_fidelity = f2q;
                best.overall = fu;
            }
        }
    }
    if (!best.profile && !approximate) {
        // No gate type reached the exact threshold; fall back to the
        // highest-Fd fit available (mirrors NuOp returning its best
        // attempt).
        for (size_t g = 0; g < profiles.size(); ++g) {
            double f2q = edge_fidelities[g];
            if (f2q <= 0.0)
                continue;
            for (const auto& fit : profiles[g]->fits) {
                double fh = std::pow(f2q, fit.layers) *
                            std::pow(one_qubit_fidelity,
                                     2.0 * (fit.layers + 1));
                if (better(fit.fd * fh, fit, *profiles[g])) {
                    best.profile = profiles[g];
                    best.fit = &fit;
                    best.edge_fidelity = f2q;
                    best.overall = fit.fd * fh;
                }
            }
        }
    }
    QISET_REQUIRE(best.profile != nullptr,
                  "no hardware gate type with a usable decomposition "
                  "is available on this edge");
    return best;
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
    resolveBlocks(sweep, specs, decomposer, strategy, dress, cache, pool,
                  &local, max_parallelism);

    int n = routed.numQubits();
    TranslateResult result;
    result.circuit = Circuit(n);

    double f1q_avg = 1.0 - device.averageOneQubitError();
    static const LabelId u3_label = internLabel("U3");

    // Selection stays per block — edge fidelities differ per edge — but
    // reads the block's slot and its edge's cells of the device's
    // calibration table, through the specs' type ids resolved once.
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
    ArenaVector<int> spec_types = makeArenaVector<int>(scratch, num_specs);
    for (size_t k = 0; k < num_specs; ++k)
        spec_types[k] = device.gateTypeId(specs[k].type_name);
    ArenaVector<BlockChoice> blocks = makeArenaVector<BlockChoice>(scratch);
    blocks.reserve(static_cast<size_t>(routed.twoQubitGateCount()));
    ArenaVector<FitEmission> emissions =
        makeArenaVector<FitEmission>(scratch);
    emissions.reserve(sweep.slots.size());
    ArenaVector<uint32_t> slot_emissions =
        makeArenaVector<uint32_t>(scratch, sweep.slots.size(), kNoSlot);
    std::vector<const GateProfile*> profiles(num_specs);
    std::vector<double> fidelities(num_specs);
    size_t pass_through = 0;
    size_t block_ops = 0;
    size_t emission_gates = 0;
    for (size_t i = 0; i < op_qubits.size(); ++i) {
        uint32_t s = sweep.op_slot[i];
        if (s == kNoSlot || isLinkOp(op_labels[i])) {
            ++pass_through; // a single op with its own entry.
            continue;
        }
        const auto& source = dress && sweep.dressings[s].fallback
                                 ? sweep.raw_profiles
                                 : sweep.profiles;
        int edge = device.edgeId(physical[op_qubits[i][0]],
                                 physical[op_qubits[i][1]]);
        for (size_t k = 0; k < num_specs; ++k) {
            profiles[k] = source[s * num_specs + k].get();
            fidelities[k] = device.edgeFidelity(edge, spec_types[k]);
        }
        GateChoice choice =
            selectGate(profiles, fidelities, f1q_avg, approximate,
                       decomposer.options().exact_threshold);
        // Exact mode admits only threshold-meeting fits unless
        // selection fell back.
        if (!approximate &&
            choice.fit->fd < decomposer.options().exact_threshold)
            ++result.exact_fallbacks;
        uint32_t e = slot_emissions[s];
        while (e != kNoSlot && emissions[e].fit != choice.fit)
            e = emissions[e].next;
        if (e == kNoSlot) {
            FitEmission emission;
            emission.profile = choice.profile;
            emission.fit = choice.fit;
            emission.spec = static_cast<uint32_t>(
                std::find(profiles.begin(), profiles.end(),
                          choice.profile) -
                profiles.begin());
            emission.next = slot_emissions[s];
            emission.label = internLabel(choice.profile->type_name);
            emission.analytic = choice.profile->engine == "kak";
            e = slot_emissions[s] = static_cast<uint32_t>(emissions.size());
            emissions.push_back(emission);
            emission_gates += 2 + 3 * choice.fit->layers;
        }
        blocks.push_back({choice.edge_fidelity, e});
        block_ops += 2 + 3 * choice.fit->layers;
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
                                 1.0 - block.edge_fidelity,
                                 device.twoQubitDurationNs());
            result.estimated_fidelity *= block.edge_fidelity;
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

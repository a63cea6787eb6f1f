// IR bit-identity goldens across the struct-of-arrays refactor.
//
// The hashes below were captured from the array-of-structs IR
// (pre-SoA seed) on seeded QFT/QV/QAOA workloads: schedule structure
// fingerprints, full circuit content (qubits, labels, annotations,
// unitary entries), and complete CompileResult state after the serial
// pipeline. Any representation change that alters what a pass reads
// or emits — operand packing, label interning, column ordering —
// shows up here as a hash mismatch.
//
// Every hash of a compile that runs NuOp's BFGS was re-pinned once,
// when the template gradient became exact (the adjoint method moved
// the low bits of every solve). The DecisionPins at the end pin what
// those compiles decided, which a change of low bits must not move.
//
// Every golden and pin on a drifted calibration was re-pinned once,
// when drift began drawing in (edge id, type name) order, the order of
// Device's calibration table, in place of hash-map order.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <iomanip>
#include <map>
#include <sstream>

#include <gtest/gtest.h>

#include "apps/qaoa.h"
#include "apps/qft.h"
#include "apps/qv.h"
#include "circuit/circuit.h"
#include "circuit/draw.h"
#include "circuit/label_table.h"
#include "circuit/schedule.h"
#include "common/rng.h"
#include "compiler/consolidate.h"
#include "compiler/mapping.h"
#include "compiler/pipeline.h"
#include "compiler/routing_strategy.h"
#include "compiler/translate.h"
#include "device/device.h"
#include "isa/gate_set.h"
#include "nuop/decomposer.h"
#include "qc/gates.h"

namespace qiset {
namespace {

uint64_t
fnv1a(uint64_t hash, uint64_t value)
{
    for (int byte = 0; byte < 8; ++byte) {
        hash ^= (value >> (8 * byte)) & 0xffu;
        hash *= 1099511628211ull;
    }
    return hash;
}

uint64_t
fnvDouble(uint64_t hash, double value)
{
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    return fnv1a(hash, bits);
}

uint64_t
fnvString(uint64_t hash, const std::string& s)
{
    hash = fnv1a(hash, s.size());
    for (char c : s)
        hash = fnv1a(hash, static_cast<uint64_t>(
                               static_cast<unsigned char>(c)));
    return hash;
}

/** Every per-op field, label resolved to text (interning-agnostic). */
uint64_t
circuitContentHash(const Circuit& circuit)
{
    uint64_t hash = 14695981039346656037ull;
    hash = fnv1a(hash, static_cast<uint64_t>(circuit.numQubits()));
    hash = fnv1a(hash, circuit.size());
    for (const auto& op : circuit.ops()) {
        hash = fnv1a(hash, op.qubits().size());
        for (int q : op.qubits())
            hash = fnv1a(hash, static_cast<uint64_t>(q));
        hash = fnvString(hash, op.label());
        hash = fnvDouble(hash, op.errorRate());
        hash = fnvDouble(hash, op.durationNs());
        for (size_t r = 0; r < op.unitary().rows(); ++r)
            for (size_t c = 0; c < op.unitary().cols(); ++c) {
                hash = fnvDouble(hash, op.unitary()(r, c).real());
                hash = fnvDouble(hash, op.unitary()(r, c).imag());
            }
    }
    return hash;
}

uint64_t
resultHash(const CompileResult& result)
{
    uint64_t hash = circuitContentHash(result.circuit);
    for (int p : result.physical)
        hash = fnv1a(hash, static_cast<uint64_t>(p));
    for (int p : result.initial_positions)
        hash = fnv1a(hash, static_cast<uint64_t>(p));
    for (int p : result.final_positions)
        hash = fnv1a(hash, static_cast<uint64_t>(p));
    hash = fnv1a(hash, static_cast<uint64_t>(result.swaps_inserted));
    hash = fnv1a(hash, static_cast<uint64_t>(result.two_qubit_count));
    hash = fnvDouble(hash, result.estimated_fidelity);
    return hash;
}

CompileOptions
goldenOptions()
{
    CompileOptions options;
    options.approximate = true;
    options.nuop.max_layers = 5;
    options.nuop.multistarts = 3;
    options.nuop.exact_threshold = 1.0 - 1e-6;
    options.nuop.bfgs.max_iterations = 150;
    return options;
}

struct GoldenCase
{
    const char* name;
    uint64_t logical_schedule_fp;
    uint64_t logical_content;
    uint64_t compiled_schedule_fp;
    uint64_t result;
};

// Captured from the pre-SoA IR (the result column re-pinned with the
// exact template gradient); must never drift.
const GoldenCase kGolden[] = {
    {"qft8", 0xf0ff1cf8245b5dc9ull, 0x211ab8e9f52817fdull,
     0x19aed16609bca67ull, 0x744991525d224784ull},
    {"qv8", 0x94dd8c67404ed48dull, 0x603873239e790373ull,
     0x8aa4aa8692c02e03ull, 0x6492c82038bfef0full},
    {"qaoa8", 0x713bdf23698720f9ull, 0x9aa86b83dfde5659ull,
     0xbf9a29b8ac0594daull, 0x125491a8fdc665c1ull},
};

Circuit
goldenApp(const std::string& name)
{
    if (name == "qft8")
        return makeQftCircuit(8);
    if (name == "qv8") {
        Rng rng(77);
        return makeQuantumVolumeCircuit(8, rng);
    }
    Rng rng(123);
    return makeRandomQaoaCircuit(8, rng);
}

/**
 * Two-qubit blocks where cphase(pi/2^22) repeats, on both qubit
 * orders, among a dressed controlled-phase, a random SU(4) and 1Q ops.
 */
Circuit
dressingFallbackCircuit()
{
    Matrix tiny = gates::cphase(gates::kPi / (1 << 22));
    Rng rng(2022);
    Circuit logical(2);
    logical.add2q(0, 1, tiny, "CP22");
    logical.add2q(0, 1, gates::zz(0.3), "ZZ");
    logical.add1q(0, gates::hadamard(), "H");
    logical.add2q(0, 1, tiny, "CP22");
    logical.add2q(0, 1, randomSu4(rng), "SU4");
    logical.add2q(1, 0, tiny, "CP22");
    logical.add2q(0, 1,
                  gates::rz(0.4).kron(gates::hadamard()) *
                      gates::cphase(gates::kPi / 8),
                  "CP8");
    logical.add2q(0, 1, tiny, "CP22");
    return logical;
}

TEST(IrIdentity, GeneratorsAndPipelineMatchPreSoaGoldens)
{
    Rng dev_rng(4242);
    Device device = makeSycamore(dev_rng);
    GateSet set = isa::singleTypeSet(3); // CZ
    CompileOptions options = goldenOptions();

    for (const GoldenCase& golden : kGolden) {
        Circuit app = goldenApp(golden.name);
        EXPECT_EQ(structureFingerprint(app), golden.logical_schedule_fp)
            << golden.name << " logical schedule";
        EXPECT_EQ(circuitContentHash(app), golden.logical_content)
            << golden.name << " logical content";

        ProfileCache cache;
        CompileResult result =
            compileCircuit(app, device, set, cache, options);
        EXPECT_EQ(structureFingerprint(result.circuit),
                  golden.compiled_schedule_fp)
            << golden.name << " compiled schedule";
        EXPECT_EQ(resultHash(result), golden.result)
            << golden.name << " compile result";
    }
}

/** Every RoutedCircuit field: routed ops, both layouts, counters. */
uint64_t
routedHash(const RoutedCircuit& routed)
{
    uint64_t hash = circuitContentHash(routed.circuit);
    for (int p : routed.initial_positions)
        hash = fnv1a(hash, static_cast<uint64_t>(p));
    for (int p : routed.final_positions)
        hash = fnv1a(hash, static_cast<uint64_t>(p));
    hash = fnv1a(hash, static_cast<uint64_t>(routed.swaps_inserted));
    hash = fnv1a(hash, static_cast<uint64_t>(routed.teleports_inserted));
    hash = fnvDouble(hash, routed.epr_attempts);
    return hash;
}

// Routes of the lookahead routers, captured before SABRE and telesabre
// shared one pass loop; must never drift.
TEST(IrIdentity, SabreRoutesMatchGoldens)
{
    Circuit qft16 = makeQftCircuit(16);
    RoutedCircuit routed =
        SabreRouter().route(qft16, Topology::grid(4, 4));
    EXPECT_EQ(routedHash(routed), 0x1e4808639c538662ull)
        << "qft16 grid4x4";

    Rng rng(77);
    Circuit qv12 = makeQuantumVolumeCircuit(12, rng);
    routed = SabreRouter().route(qv12, Topology::grid(3, 4));
    EXPECT_EQ(routedHash(routed), 0xe3862365b381de6ull)
        << "qv12 grid3x4";
}

TEST(IrIdentity, TeleportRoutesMatchGoldens)
{
    // Both chiplets of bench_chiplet; each circuit is placed the way
    // the mapping pass places it, then routed over the induced
    // coupling in TELEPORT and in TELESWAP mode.
    Rng dev_rng(77);
    ChipletSpec spec;
    spec.core_rows = 2;
    spec.core_cols = 2;
    Device chiplet2x2 = makeChipletDevice(spec, dev_rng);
    spec.core_rows = 3;
    spec.core_cols = 3;
    Device chiplet3x3 = makeChipletDevice(spec, dev_rng);

    Rng app_rng(4242);
    Circuit qft14 = makeQftCircuit(14);
    Circuit qaoa18 = makeRandomQaoaCircuit(18, app_rng);

    struct Case
    {
        const char* name;
        const Circuit* circuit;
        const Device* device;
        uint64_t teleport;
        uint64_t teleswap;
    };
    const Case cases[] = {
        {"qft14 chiplet2x2", &qft14, &chiplet2x2, 0x8a474441ae57efeeull,
         0xaf241b487a0f245full},
        {"qaoa18 chiplet2x2", &qaoa18, &chiplet2x2, 0x76a86f9803e85895ull,
         0x8d6e1c19aa642a90ull},
        {"qft14 chiplet3x3", &qft14, &chiplet3x3, 0x9d876a182448f65cull,
         0x5617553209f1d7feull},
        {"qaoa18 chiplet3x3", &qaoa18, &chiplet3x3, 0xfa034fb3b2a728f8ull,
         0x16c3c6fc157409a8ull},
    };
    GateSet set = isa::singleTypeSet(3); // CZ
    for (const Case& c : cases) {
        std::vector<int> physical =
            chooseMapping(*c.device, c.circuit->numQubits(), set);
        Topology coupling = c.device->topology().inducedSubgraph(physical);
        ASSERT_GT(coupling.numCores(), 1) << c.name;
        TeleportOptions teleport;
        RoutedCircuit routed =
            TeleportRouter(SabreOptions(), teleport).route(*c.circuit,
                                                           coupling);
        EXPECT_GT(routed.teleports_inserted, 0) << c.name;
        EXPECT_EQ(routedHash(routed), c.teleport) << c.name << " teleport";
        teleport.use_teleport = false;
        routed = TeleportRouter(SabreOptions(), teleport).route(*c.circuit,
                                                                coupling);
        EXPECT_EQ(routedHash(routed), c.teleswap) << c.name << " teleswap";
    }
}

TEST(IrIdentity, SabreCompileMatchesGolden)
{
    Rng dev_rng(4242);
    Device device = makeSycamore(dev_rng);
    CompileOptions options = goldenOptions();
    options.routing = "sabre";
    ProfileCache cache;
    CompileResult result = compileCircuit(makeQftCircuit(8), device,
                                          isa::singleTypeSet(3), cache,
                                          options);
    EXPECT_EQ(resultHash(result), 0x9aa1ca86f72ea605ull);
}

// Compiles through the canonicalizing engine "auto", whose cached
// profiles implement a Weyl-chamber representative that translation
// re-dresses per concrete block. Captured before each distinct block
// was resolved once per compile; must never drift.
TEST(IrIdentity, CanonicalEngineCompilesMatchGoldens)
{
    Rng dev_rng(4242);
    Device device = makeSycamore(dev_rng);
    GateSet set = isa::googleSet(3);
    Circuit qft16 = makeQftCircuit(16);
    struct Case
    {
        const char* engine;
        uint64_t cold;
        uint64_t warm;
    };
    const Case cases[] = {
        {"auto", 0x89e467a07bce1252ull, 0x89e467a07bce1252ull},
    };
    for (const Case& c : cases) {
        CompileOptions options = goldenOptions();
        options.decomposition = c.engine;
        ProfileCache cache;
        EXPECT_EQ(resultHash(compileCircuit(qft16, device, set, cache,
                                            options)),
                  c.cold)
            << c.engine << " cold";
        EXPECT_EQ(resultHash(compileCircuit(qft16, device, set, cache,
                                            options)),
                  c.warm)
            << c.engine << " warm";
    }
}

TEST(IrIdentity, DressingFallbackTranslationMatchesGolden)
{
    // cphase(pi/2^22) is so close to the identity that its canonical
    // dressing fails and "auto" re-selects against raw NuOp profiles
    // for every such block. The repeats share one cache entry; the
    // other blocks dress normally.
    Device pair("pair", Topology::line(2));
    for (const char* type : {"S1", "S2", "S3", "S4"})
        pair.setEdgeFidelity(0, 1, type, 0.99);
    pair.setOneQubitError(0, 0.001);
    pair.setOneQubitError(1, 0.002);
    Circuit logical = dressingFallbackCircuit();
    CompileOptions options = goldenOptions();
    NuOpDecomposer decomposer(options.nuop);
    auto automatic = makeDecompositionStrategy("auto");
    ProfileCache cache;
    for (const char* pass : {"cold", "warm"}) {
        TranslateResult result = translateCircuit(
            logical, {0, 1}, pair, isa::googleSet(3), decomposer,
            *automatic, cache, options.approximate);
        EXPECT_EQ(circuitContentHash(result.circuit),
                  0xfb6b1da7c421abfdull)
            << pass;
        EXPECT_EQ(fnvDouble(0, result.estimated_fidelity),
                  0x2e6c10a2815cd776ull)
            << pass;
    }
}

// Cold "nuop" compiles: every 2Q block is a fresh BFGS multistart
// sweep, so these pin the optimizer's arithmetic (objective, gradient,
// line search) through whole compiles. Re-pinned when the template
// gradient became exact; must never drift.
TEST(IrIdentity, ColdNuopQv4OnAspen8MatchesGolden)
{
    // The set the perfbench service's novel QV-4 requests solve.
    Rng dev_rng(4242);
    Device aspen = makeAspen8(dev_rng);
    Rng app_rng(4);
    const uint64_t golden[] = {0xc9a985b790fa2263ull,
                               0xe15a1457533bcc5ull};
    for (uint64_t expected : golden) {
        Circuit qv4 = makeQuantumVolumeCircuit(4, app_rng);
        ProfileCache cache;
        EXPECT_EQ(resultHash(compileCircuit(qv4, aspen, isa::rigettiSet(3),
                                            cache, goldenOptions())),
                  expected);
    }
}

/** Three 2Q blocks of different classes on three qubits. */
Circuit
continuousFamilyCircuit()
{
    Rng rng(606);
    Circuit logical(3);
    logical.add2q(0, 1, gates::zz(0.7), "ZZ");
    logical.add1q(1, gates::hadamard(), "H");
    logical.add2q(1, 2, randomSu4(rng), "SU4");
    logical.add2q(0, 1, gates::cphase(gates::kPi / 4), "CP4");
    return logical;
}

TEST(IrIdentity, ContinuousFamilyCompilesMatchGoldens)
{
    // The continuous families optimize the layer-gate angles too.
    Rng aspen_rng(4242);
    Device aspen = makeAspen8(aspen_rng);
    Rng syc_rng(4242);
    Device sycamore = makeSycamore(syc_rng);
    Circuit logical = continuousFamilyCircuit();
    struct Case
    {
        const char* name;
        const Device* device;
        GateSet set;
        uint64_t approximate;
        uint64_t exact;
    };
    const Case cases[] = {
        {"FullXY", &aspen, isa::fullXy(), 0x2418fcdee3f1cab9ull,
         0x707c4c793329d62full},
        {"FullfSim", &sycamore, isa::fullFsim(), 0xc1389cba0674b7d5ull,
         0xc1389cba0674b7d5ull},
        {"FullCZt", &sycamore, isa::fullCphase(), 0xe9fa151422deae09ull,
         0x6fc6769843f17b53ull},
    };
    for (const Case& c : cases) {
        for (bool approximate : {true, false}) {
            CompileOptions options = goldenOptions();
            options.approximate = approximate;
            ProfileCache cache;
            EXPECT_EQ(resultHash(compileCircuit(logical, *c.device, c.set,
                                                cache, options)),
                      approximate ? c.approximate : c.exact)
                << c.name << (approximate ? " approximate" : " exact");
        }
    }
}

TEST(IrIdentity, ExactFixedGateCompileMatchesGolden)
{
    Rng dev_rng(4242);
    Device device = makeSycamore(dev_rng);
    CompileOptions options = goldenOptions();
    options.approximate = false;
    ProfileCache cache;
    EXPECT_EQ(resultHash(compileCircuit(makeQftCircuit(4), device,
                                        isa::singleTypeSet(1), cache,
                                        options)),
              0xf2503d8814d7e855ull);
}

uint64_t
decompositionHash(const Decomposition& d)
{
    uint64_t hash = fnvString(14695981039346656037ull, d.gate_name);
    hash = fnv1a(hash, static_cast<uint64_t>(d.family));
    hash = fnv1a(hash, static_cast<uint64_t>(d.layers));
    hash = fnvDouble(hash, d.decomposition_fidelity);
    hash = fnvDouble(hash, d.hardware_fidelity);
    for (double p : d.params)
        hash = fnvDouble(hash, p);
    return fnv1a(hash, d.meets_threshold ? 1u : 0u);
}

// Compiles reach NuOp through the per-layer profile ladder; the
// decomposer's own layer sweeps share one scratch across layers.
TEST(IrIdentity, NuOpLayerSweepsMatchGoldens)
{
    NuOpDecomposer decomposer(goldenOptions().nuop);
    Rng rng(909);
    Matrix su4 = randomSu4(rng);
    std::vector<HardwareGate> gates = {
        makeFixedGate("SYC", gates::sycamore(), 0.993),
        makeFixedGate("CZ", gates::cz(), 0.995),
    };
    HardwareGate xy;
    xy.name = "XY";
    xy.family = TemplateFamily::FullXy;
    xy.fidelity = 0.99;
    EXPECT_EQ(decompositionHash(decomposer.decomposeExact(su4, gates[0])),
              0xcfda5ac52cf7d115ull)
        << "exact SYC";
    EXPECT_EQ(decompositionHash(
                  decomposer.decomposeApproximate(su4, gates[1])),
              0x333246b277ed486aull)
        << "approximate CZ";
    EXPECT_EQ(decompositionHash(decomposer.decomposeExact(
                  gates::cphase(gates::kPi / 3), xy)),
              0x6359e5693bea4786ull)
        << "exact XY";
    EXPECT_EQ(decompositionHash(decomposer.decomposeBest(su4, gates)),
              0x333246b277ed486aull)
        << "best";
}

/** resultHash plus per-type native usage and link traffic. */
uint64_t
recompileHash(const CompileResult& result)
{
    uint64_t hash = resultHash(result);
    for (const auto& [type, count] : result.type_usage)
        hash = fnv1a(fnvString(hash, type), static_cast<uint64_t>(count));
    hash = fnv1a(hash, static_cast<uint64_t>(result.teleports_inserted));
    return fnvDouble(hash, result.epr_attempts);
}

// Recompiles against drifted calibrations, in the shape of perfbench's
// recalibrate workload: the four-type G3 set under "nuop", greedy and
// "sabre" routing, two calibration snapshots, each compiled cold and
// then warm on one cache. Captured before warm recompiles stamped
// their schedules and reused per-fit emission; must never drift.
TEST(IrIdentity, RecalibrationRecompilesMatchGoldens)
{
    Rng dev_rng(10);
    Device sycamore = makeSycamore(dev_rng);
    Rng drift_rng(2021);
    const Device snapshots[] = {
        sycamore.withDriftedCalibration(drift_rng, 3.0),
        sycamore.withDriftedCalibration(drift_rng, 3.0),
    };
    GateSet g3 = isa::googleSet(3);
    Circuit qft12 = makeQftCircuit(12);
    struct Case
    {
        const char* routing;
        uint64_t snapshot[2];
    };
    const Case cases[] = {
        {"greedy", {0xc66a5b96d137e0ffull, 0xbcf1881ab2b8d584ull}},
        {"sabre", {0x471014f4a1a9943aull, 0x9d1747c59b161b17ull}},
    };
    ProfileCache cache;
    for (const char* pass : {"cold", "warm"})
        for (const Case& c : cases)
            for (size_t k = 0; k < 2; ++k) {
                CompileOptions options = goldenOptions();
                options.routing = c.routing;
                EXPECT_EQ(recompileHash(compileCircuit(
                              qft12, snapshots[k], g3, cache, options)),
                          c.snapshot[k])
                    << c.routing << " snapshot " << k << " " << pass;
            }
}

TEST(IrIdentity, ChipletG3CompileMatchesGolden)
{
    // Wider than one 2x3 core, so the routing pass forces telesabre.
    Rng dev_rng(10);
    ChipletSpec spec;
    spec.core_rows = 3;
    spec.core_cols = 3;
    Device chiplet = makeChipletDevice(spec, dev_rng);
    ProfileCache cache;
    CompileResult result = compileCircuit(
        makeQftCircuit(8), chiplet, isa::googleSet(3), cache,
        goldenOptions());
    EXPECT_GT(result.teleports_inserted, 0);
    EXPECT_EQ(recompileHash(result), 0x6429030c3142d59eull);
}

TEST(IrIdentity, FractionalTeleportWeightRouteMatchesGolden)
{
    // A non-integral link weight leaves fractional distances in the
    // table, so SABRE scores every candidate by its full sum.
    Rng dev_rng(77);
    ChipletSpec spec;
    Device chiplet2x2 = makeChipletDevice(spec, dev_rng);
    Circuit qft14 = makeQftCircuit(14);
    std::vector<int> physical =
        chooseMapping(chiplet2x2, qft14.numQubits(), isa::singleTypeSet(3));
    Topology coupling = chiplet2x2.topology().inducedSubgraph(physical);
    TeleportOptions teleport;
    teleport.teleport_weight = 1.3;
    RoutedCircuit routed =
        TeleportRouter(SabreOptions(), teleport).route(qft14, coupling);
    EXPECT_GT(routed.teleports_inserted, 0);
    EXPECT_EQ(routedHash(routed), 0xbf93780fa2c25fb1ull);
}

/** The G3 placement of `circuit` on `device`, as the mapping pass picks it. */
Topology
placedCoupling(const Circuit& circuit, const Device& device)
{
    std::vector<int> physical =
        chooseMapping(device, circuit.numQubits(), isa::googleSet(3));
    return device.topology().inducedSubgraph(physical);
}

/** perfbench recalibrate's 3x3 chiplet, before any drift. */
Device
recalibrateChiplet()
{
    Rng rng(10);
    ChipletSpec spec;
    spec.core_rows = 3;
    spec.core_cols = 3;
    return makeChipletDevice(spec, rng);
}

// SABRE routes on G3 placements on Sycamore, as recalibrate's "sabre"
// recompiles route them: QFT-32 is that workload's slowest route, and
// QV-24's wide fronts put front qubits at both ends of many candidate
// SWAPs. Captured before the blocked iteration dropped its ordered
// sets and candidate sort; must never drift.
TEST(IrIdentity, SycamoreSabreRoutesMatchGoldens)
{
    Rng dev_rng(10);
    Device sycamore = makeSycamore(dev_rng);
    Circuit qft32 = makeQftCircuit(32);
    EXPECT_EQ(routedHash(SabreRouter().route(
                  qft32, placedCoupling(qft32, sycamore))),
              0x5ecb7f648da2eecbull)
        << "qft32";
    Rng app_rng(24);
    Circuit qv24 = makeQuantumVolumeCircuit(24, app_rng);
    EXPECT_EQ(routedHash(SabreRouter().route(
                  qv24, placedCoupling(qv24, sycamore))),
              0xcfc58ca913c62c2bull)
        << "qv24";
}

// QFT-14 on a drifted 3x3 chiplet cycles through link moves until the
// stuck fallback forces progress (twice), in both link-op modes. The
// snapshot is the first, searching drift seeds from 3 upward and
// snapshots 0-3 of each, whose route reaches the fallback with more
// than 100 teleports: seed 3, snapshot 0.
TEST(IrIdentity, StuckFallbackTeleportRouteMatchesGoldens)
{
    Device chiplet = recalibrateChiplet();
    Rng drift_rng(3);
    Device snapshot = chiplet.withDriftedCalibration(drift_rng, 3.0);
    Circuit qft14 = makeQftCircuit(14);
    Topology coupling = placedCoupling(qft14, snapshot);
    TeleportOptions teleport;
    RoutedCircuit routed =
        TeleportRouter(SabreOptions(), teleport).route(qft14, coupling);
    EXPECT_GT(routed.teleports_inserted, 100);
    EXPECT_EQ(routedHash(routed), 0x730be6266b88fa79ull) << "teleport";
    teleport.use_teleport = false;
    routed = TeleportRouter(SabreOptions(), teleport).route(qft14, coupling);
    EXPECT_EQ(routedHash(routed), 0xc851292c446b058full) << "teleswap";
}

// One digest over direct router calls on drifted calibrations: seeds
// 2 and 3 x drift {1.2, 3} x two snapshots each. Per snapshot, QFT-32
// under "sabre" on Sycamore and, on the 3x3 chiplet, QFT-14 and a
// seeded QAOA-18 under telesabre with TELEPORT, with TELESWAP and at
// teleport_weight 1.3 (full-sum scoring). Several chiplet routes
// reach the stuck fallback.
TEST(IrIdentity, DriftedRouteSweepMatchesGolden)
{
    Rng syc_rng(10);
    Device sycamore = makeSycamore(syc_rng);
    Device chiplet = recalibrateChiplet();
    Circuit qft32 = makeQftCircuit(32);
    Circuit qft14 = makeQftCircuit(14);
    TeleportOptions teleswap;
    teleswap.use_teleport = false;
    TeleportOptions fractional;
    fractional.teleport_weight = 1.3;
    const TeleportRouter chiplet_routers[] = {
        TeleportRouter(),
        TeleportRouter(SabreOptions(), teleswap),
        TeleportRouter(SabreOptions(), fractional),
    };
    uint64_t digest = 14695981039346656037ull;
    for (uint64_t seed : {2u, 3u}) {
        Rng app_rng(seed);
        Circuit qaoa18 = makeRandomQaoaCircuit(18, app_rng);
        for (double drift : {1.2, 3.0}) {
            Rng chip_drift(seed);
            Rng syc_drift(seed + 100);
            for (int snapshot = 0; snapshot < 2; ++snapshot) {
                Device syc = sycamore.withDriftedCalibration(syc_drift, drift);
                digest = fnv1a(digest, routedHash(SabreRouter().route(
                                           qft32, placedCoupling(qft32, syc))));
                Device chip = chiplet.withDriftedCalibration(chip_drift, drift);
                for (const Circuit* circuit : {&qft14, &qaoa18}) {
                    Topology coupling = placedCoupling(*circuit, chip);
                    for (const TeleportRouter& router : chiplet_routers)
                        digest = fnv1a(digest, routedHash(router.route(
                                                   *circuit, coupling)));
                }
            }
        }
    }
    EXPECT_EQ(digest, 0xf0e8bee77a2407cbull);
}

/**
 * Eight qubits whose last three blocks stay open, opened on (5,6),
 * then (1,2), then (3,4): an order unlike their first qubits' order.
 * On the way it fuses 1Q gates on either side of a block, a reversed
 * 2Q op, and closes blocks that a new partner interrupts.
 */
Circuit
openBlocksCircuit()
{
    using namespace gates;
    Circuit c(8);
    c.add1q(0, hadamard(), "H");             // no block yet: passes
    c.add2q(0, 1, cz(), "CZ");               // opens (0,1)
    c.add1q(1, tGate(), "T");                // fuses on the second qubit
    c.add2q(1, 0, iswap(), "iSWAP");         // reversed: reoriented
    c.add2q(2, 3, fsim(0.4, 1.1), "fSim");   // opens (2,3)
    c.add2q(3, 4, cnot(), "CNOT");           // closes (2,3), opens (3,4)
    c.add1q(2, sGate(), "S");                // 2 is free: passes
    c.add2q(5, 6, sqrtIswap(), "sqrtiSWAP"); // opens (5,6)
    c.add2q(1, 2, cphase(0.7), "CP");        // closes (0,1), opens (1,2)
    c.add2q(4, 7, xy(0.3), "XY");            // closes (3,4), opens (4,7)
    c.add2q(3, 4, sycamore(), "SYC");        // closes (4,7), opens (3,4)
    c.add1q(6, u3(0.3, 0.2, 0.1), "U3");     // fuses into (5,6)
    c.add2q(2, 1, zz(0.9), "ZZ");            // reversed into (1,2)
    c.add1q(4, rx(0.5), "RX");               // fuses into (3,4)
    c.add1q(7, ry(0.6), "RY");               // 7 is free: passes
    c.add1q(0, rz(0.8), "RZ");               // 0 is free: passes
    return c;
}

// Consolidation output, hashed directly, captured before live blocks
// moved into a register-sized table; must never drift.
TEST(IrIdentity, ConsolidationMatchesGoldens)
{
    RoutedCircuit sabre =
        SabreRouter().route(makeQftCircuit(16), Topology::grid(4, 4));
    EXPECT_EQ(circuitContentHash(consolidateTwoQubitBlocks(sabre.circuit)),
              0xeb6e1bedd8347281ull)
        << "qft16 sabre grid4x4";

    // Telesabre on the 3x3 chiplet: the TELEPORT ops are barriers.
    Rng dev_rng(77);
    ChipletSpec spec;
    spec.core_rows = 3;
    spec.core_cols = 3;
    Device chiplet = makeChipletDevice(spec, dev_rng);
    Circuit qft14 = makeQftCircuit(14);
    std::vector<int> physical =
        chooseMapping(chiplet, qft14.numQubits(), isa::singleTypeSet(3));
    Topology coupling = chiplet.topology().inducedSubgraph(physical);
    RoutedCircuit tele =
        TeleportRouter(SabreOptions(), TeleportOptions())
            .route(qft14, coupling);
    Circuit fused = consolidateTwoQubitBlocks(tele.circuit);
    EXPECT_GT(fused.countLabel("TELEPORT"), 0);
    EXPECT_EQ(circuitContentHash(fused), 0xb01e716a4b6daae1ull)
        << "qft14 telesabre chiplet3x3";

    // The blocks still open at the end flush in creation order.
    Circuit open = consolidateTwoQubitBlocks(openBlocksCircuit());
    ASSERT_GE(open.size(), 3u);
    const Qubits expected_tail[] = {{5, 6}, {1, 2}, {3, 4}};
    for (size_t k = 0; k < 3; ++k) {
        auto op = open.ops()[open.size() - 3 + k];
        EXPECT_EQ(op.label(), "block") << k;
        EXPECT_EQ(op.qubits(), expected_tail[k]) << k;
    }
    EXPECT_EQ(circuitContentHash(open), 0x52817e0c73667d7cull) << "open blocks";

    // Greedy routing, SWAP ops included, and its consolidation.
    RoutedCircuit greedy =
        GreedyRouter().route(makeQftCircuit(16), Topology::grid(4, 4));
    EXPECT_GT(greedy.swaps_inserted, 0);
    EXPECT_EQ(routedHash(greedy), 0xf822f1c367ecb795ull) << "qft16 greedy grid4x4";
    EXPECT_EQ(circuitContentHash(consolidateTwoQubitBlocks(greedy.circuit)),
              0x671f1de9d19a95e9ull)
        << "qft16 greedy grid4x4 consolidated";
}

TEST(IrIdentity, RenderedTextMatchesPreSoaGoldens)
{
    // Label interning must round-trip through the renderers without
    // changing a byte of output.
    Circuit qft4 = makeQftCircuit(4);
    EXPECT_EQ(fnvString(14695981039346656037ull, drawCircuit(qft4)),
              0x1b4e7722cbdd78cdull);
    EXPECT_EQ(fnvString(14695981039346656037ull, qft4.toString()),
              0x6ed0bf2c3f23620dull);
}

// ---------------------------------------------------------------------
// Decision pins. The goldens above pin bytes; these pin what the NuOp
// compiles behind them decided: the native 2Q count and the per-type
// usage exactly, and the estimated fidelity to a relative 1e-6. A
// change that moves only the low bits of NuOp's solves (its gradient,
// say) re-pins the goldens above and must leave these as they are.

/** What a compile decided. */
struct Decisions
{
    int two_qubit_count;
    std::map<std::string, int> type_usage;
    double estimated_fidelity;
};

/** Relative tolerance on a pinned estimated fidelity. */
constexpr double kPinnedFidelityTol = 1e-6;

/** Decisions in the initializer syntax of the pins below. */
std::string
renderDecisions(const Decisions& d)
{
    std::ostringstream out;
    out << std::setprecision(17) << "{" << d.two_qubit_count << ", {";
    const char* sep = "";
    for (const auto& [type, count] : d.type_usage) {
        out << sep << "{\"" << type << "\", " << count << "}";
        sep = ", ";
    }
    out << "}, " << d.estimated_fidelity << "}";
    return out.str();
}

/** Decisions of a CompileResult or a TranslateResult. */
template <typename Result>
Decisions
decisionsOf(const Result& result)
{
    return {result.two_qubit_count, result.type_usage,
            result.estimated_fidelity};
}

/** A single decomposition decides its gate type and layer count. */
Decisions
decisionsOf(const Decomposition& d)
{
    return {d.layers, {{d.gate_name, d.layers}}, d.decomposition_fidelity};
}

::testing::AssertionResult
sameDecisions(const Decisions& actual, const Decisions& pinned)
{
    if (actual.two_qubit_count == pinned.two_qubit_count &&
        actual.type_usage == pinned.type_usage &&
        std::abs(actual.estimated_fidelity - pinned.estimated_fidelity) <=
            kPinnedFidelityTol * std::abs(pinned.estimated_fidelity))
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "decided " << renderDecisions(actual) << ", pinned "
           << renderDecisions(pinned);
}

TEST(DecisionPins, PreSoaGoldenCompiles)
{
    Rng dev_rng(4242);
    Device device = makeSycamore(dev_rng);
    const Decisions pinned[] = {
        {140, {{"S3", 140}}, 0.34985903459267753},
        {164, {{"S3", 164}}, 0.25754467420690091},
        {36, {{"S3", 36}}, 0.75174837210166701},
    };
    for (size_t k = 0; k < 3; ++k) {
        ProfileCache cache;
        CompileResult result =
            compileCircuit(goldenApp(kGolden[k].name), device,
                           isa::singleTypeSet(3), cache, goldenOptions());
        EXPECT_TRUE(sameDecisions(decisionsOf(result), pinned[k]))
            << kGolden[k].name;
    }
}

TEST(DecisionPins, SabreCompile)
{
    Rng dev_rng(4242);
    Device device = makeSycamore(dev_rng);
    CompileOptions options = goldenOptions();
    options.routing = "sabre";
    ProfileCache cache;
    EXPECT_TRUE(sameDecisions(
        decisionsOf(compileCircuit(makeQftCircuit(8), device,
                                   isa::singleTypeSet(3), cache, options)),
        {103, {{"S3", 103}}, 0.43700954557876293}));
}

TEST(DecisionPins, CanonicalEngineCompiles)
{
    Rng dev_rng(4242);
    Device device = makeSycamore(dev_rng);
    CompileOptions options = goldenOptions();
    options.decomposition = "auto";
    ProfileCache cache;
    // A product over 957 gates: every exact fit may move inside the
    // exact stop rule (by up to 1e-7), so a change of low bits can move
    // this estimate past the relative 1e-6 without moving a decision.
    const Decisions pinned = {
        957,
        {{"S1", 377}, {"S2", 246}, {"S3", 204}, {"S4", 130}},
        0.0015662230327047034};
    for (const char* pass : {"cold", "warm"})
        EXPECT_TRUE(sameDecisions(
            decisionsOf(compileCircuit(makeQftCircuit(16), device,
                                       isa::googleSet(3), cache, options)),
            pinned))
            << pass;
}

TEST(DecisionPins, DressingFallbackTranslation)
{
    Device pair("pair", Topology::line(2));
    for (const char* type : {"S1", "S2", "S3", "S4"})
        pair.setEdgeFidelity(0, 1, type, 0.99);
    pair.setOneQubitError(0, 0.001);
    pair.setOneQubitError(1, 0.002);
    NuOpDecomposer decomposer(goldenOptions().nuop);
    auto automatic = makeDecompositionStrategy("auto");
    ProfileCache cache;
    const Decisions pinned = {
        6, {{"S1", 2}, {"S3", 4}}, 0.90384662920629544};
    for (const char* pass : {"cold", "warm"})
        EXPECT_TRUE(sameDecisions(
            decisionsOf(translateCircuit(dressingFallbackCircuit(), {0, 1},
                                         pair, isa::googleSet(3),
                                         decomposer, *automatic, cache,
                                         goldenOptions().approximate)),
            pinned))
            << pass;
}

TEST(DecisionPins, ContinuousFamilyCompiles)
{
    Rng aspen_rng(4242);
    Device aspen = makeAspen8(aspen_rng);
    Rng syc_rng(4242);
    Device sycamore = makeSycamore(syc_rng);
    struct Case
    {
        const char* name;
        const Device* device;
        GateSet set;
        Decisions approximate;
        Decisions exact;
    };
    const Case cases[] = {
        {"FullXY", &aspen, isa::fullXy(),
         {3, {{"XY", 3}}, 0.92585123351263654},
         {7, {{"XY", 7}}, 0.89345179065487412}},
        {"FullfSim", &sycamore, isa::fullFsim(),
         {4, {{"fSim", 4}}, 0.97373345885108087},
         {4, {{"fSim", 4}}, 0.97373345885108087}},
        {"FullCZt", &sycamore, isa::fullCphase(),
         {4, {{"CZt", 3}, {"S4", 1}}, 0.97425391996457644},
         {7, {{"CZt", 4}, {"S4", 3}}, 0.96892037189066027}},
    };
    for (const Case& c : cases) {
        for (bool approximate : {true, false}) {
            CompileOptions options = goldenOptions();
            options.approximate = approximate;
            ProfileCache cache;
            EXPECT_TRUE(sameDecisions(
                decisionsOf(compileCircuit(continuousFamilyCircuit(),
                                           *c.device, c.set, cache,
                                           options)),
                approximate ? c.approximate : c.exact))
                << c.name << (approximate ? " approximate" : " exact");
        }
    }
}

TEST(DecisionPins, ExactFixedGateCompile)
{
    Rng dev_rng(4242);
    Device device = makeSycamore(dev_rng);
    CompileOptions options = goldenOptions();
    options.approximate = false;
    ProfileCache cache;
    EXPECT_TRUE(sameDecisions(
        decisionsOf(compileCircuit(makeQftCircuit(4), device,
                                   isa::singleTypeSet(1), cache, options)),
        {18, {{"S1", 18}}, 0.88629778881669408}));
}

TEST(DecisionPins, NuOpLayerSweeps)
{
    NuOpDecomposer decomposer(goldenOptions().nuop);
    Rng rng(909);
    Matrix su4 = randomSu4(rng);
    std::vector<HardwareGate> gates = {
        makeFixedGate("SYC", gates::sycamore(), 0.993),
        makeFixedGate("CZ", gates::cz(), 0.995),
    };
    HardwareGate xy;
    xy.name = "XY";
    xy.family = TemplateFamily::FullXy;
    xy.fidelity = 0.99;
    EXPECT_TRUE(sameDecisions(
        decisionsOf(decomposer.decomposeExact(su4, gates[0])),
        {3, {{"SYC", 3}}, 0.9999999379918979}))
        << "exact SYC";
    EXPECT_TRUE(sameDecisions(
        decisionsOf(decomposer.decomposeApproximate(su4, gates[1])),
        {3, {{"CZ", 3}}, 0.99999992214004552}))
        << "approximate CZ";
    EXPECT_TRUE(sameDecisions(
        decisionsOf(decomposer.decomposeExact(
            gates::cphase(gates::kPi / 3), xy)),
        {2, {{"XY", 2}}, 0.99999997798212903}))
        << "exact XY";
    EXPECT_TRUE(sameDecisions(
        decisionsOf(decomposer.decomposeBest(su4, gates)),
        {3, {{"CZ", 3}}, 0.99999992214004552}))
        << "best";
}

TEST(DecisionPins, RecalibrationRecompiles)
{
    Rng dev_rng(10);
    Device sycamore = makeSycamore(dev_rng);
    Rng drift_rng(2021);
    const Device snapshots[] = {
        sycamore.withDriftedCalibration(drift_rng, 3.0),
        sycamore.withDriftedCalibration(drift_rng, 3.0),
    };
    struct Case
    {
        const char* routing;
        Decisions snapshot[2];
    };
    const Case cases[] = {
        {"greedy",
         {{456,
           {{"S1", 125}, {"S2", 24}, {"S3", 204}, {"S4", 103}},
           0.11184956211710223},
          {444,
           {{"S1", 197}, {"S2", 35}, {"S3", 103}, {"S4", 109}},
           0.10279237984711762}}},
        {"sabre",
         {{244,
           {{"S1", 84}, {"S2", 21}, {"S3", 95}, {"S4", 44}},
           0.29087347840711636},
          {246,
           {{"S1", 97}, {"S2", 20}, {"S3", 38}, {"S4", 91}},
           0.23031904770672648}}},
    };
    ProfileCache cache;
    for (const char* pass : {"cold", "warm"})
        for (const Case& c : cases)
            for (size_t k = 0; k < 2; ++k) {
                CompileOptions options = goldenOptions();
                options.routing = c.routing;
                EXPECT_TRUE(sameDecisions(
                    decisionsOf(compileCircuit(makeQftCircuit(12),
                                               snapshots[k],
                                               isa::googleSet(3), cache,
                                               options)),
                    c.snapshot[k]))
                    << c.routing << " snapshot " << k << " " << pass;
            }
}

TEST(DecisionPins, ChipletG3Compile)
{
    Rng dev_rng(10);
    ChipletSpec spec;
    spec.core_rows = 3;
    spec.core_cols = 3;
    Device chiplet = makeChipletDevice(spec, dev_rng);
    ProfileCache cache;
    EXPECT_TRUE(sameDecisions(
        decisionsOf(compileCircuit(makeQftCircuit(8), chiplet,
                                   isa::googleSet(3), cache,
                                   goldenOptions())),
        {87,
         {{"S1", 5}, {"S2", 10}, {"S3", 24}, {"S4", 48}, {"TELEPORT", 6}},
         0.5867009620361785}));
}

// Cold QV compiles with the figure benches' options (goldenOptions):
// the two golden QV-4 compiles first, then eight more of the service's
// novel-request shape, and QV-6 on Sycamore with the four-type G3 set.
TEST(DecisionPins, ColdQv4OnAspen8R3)
{
    Rng dev_rng(4242);
    Device aspen = makeAspen8(dev_rng);
    Rng golden_rng(4);
    const Decisions golden_pins[] = {
        {11, {{"S2", 6}, {"S5", 5}}, 0.72820215484029338},
        {12, {{"S2", 6}, {"S5", 6}}, 0.71943653845778111},
    };
    for (const Decisions& pinned : golden_pins) {
        ProfileCache cache;
        EXPECT_TRUE(sameDecisions(
            decisionsOf(compileCircuit(
                makeQuantumVolumeCircuit(4, golden_rng), aspen,
                isa::rigettiSet(3), cache, goldenOptions())),
            pinned));
    }
    Rng app_rng(2204);
    const Decisions pinned[] = {
        {9, {{"S2", 5}, {"S5", 4}}, 0.7555062116111374},
        {12, {{"S2", 6}, {"S5", 6}}, 0.75681863887753886},
        {10, {{"S2", 6}, {"S5", 4}}, 0.7313557080334272},
        {24, {{"S2", 6}, {"S5", 18}}, 0.54704220934379388},
        {7, {{"S2", 2}, {"S5", 5}}, 0.83612570461465607},
        {13, {{"S2", 6}, {"S5", 7}}, 0.66533495845883439},
        {4, {{"S2", 2}, {"S5", 2}}, 0.92540059182788337},
        {15, {{"S2", 6}, {"S5", 9}}, 0.68836999066808935},
    };
    for (size_t k = 0; k < 8; ++k) {
        ProfileCache cache;
        EXPECT_TRUE(sameDecisions(
            decisionsOf(compileCircuit(
                makeQuantumVolumeCircuit(4, app_rng), aspen,
                isa::rigettiSet(3), cache, goldenOptions())),
            pinned[k]))
            << "circuit " << k;
    }
}

TEST(DecisionPins, ColdQv6OnSycamoreG3)
{
    Rng dev_rng(4242);
    Device sycamore = makeSycamore(dev_rng);
    Rng app_rng(2206);
    const Decisions pinned[] = {
        {68, {{"S1", 19}, {"S2", 45}, {"S3", 4}}, 0.6547697128352008},
        {66, {{"S1", 23}, {"S2", 40}, {"S3", 3}}, 0.64148416682305909},
        {86, {{"S1", 27}, {"S2", 55}, {"S3", 4}}, 0.57339449507717921},
        {87, {{"S1", 31}, {"S2", 53}, {"S3", 3}}, 0.59040323924891958},
    };
    for (size_t k = 0; k < 4; ++k) {
        ProfileCache cache;
        EXPECT_TRUE(sameDecisions(
            decisionsOf(compileCircuit(
                makeQuantumVolumeCircuit(6, app_rng), sycamore,
                isa::googleSet(3), cache, goldenOptions())),
            pinned[k]))
            << "circuit " << k;
    }
}

TEST(LabelTable, InternRoundTripsAndDedupes)
{
    LabelTable& table = LabelTable::global();
    LabelId a = table.intern("fSim(1.571,0.524)");
    LabelId b = table.intern("fSim(1.571,0.524)");
    EXPECT_EQ(a, b);
    EXPECT_EQ(table.name(a), "fSim(1.571,0.524)");
    EXPECT_EQ(table.find("fSim(1.571,0.524)"), a);

    LabelId c = table.intern("fSim(1.571,0.525)");
    EXPECT_NE(a, c);
    EXPECT_EQ(table.find("never-interned-label-xyzzy"), kInvalidLabel);
}

TEST(LabelTable, CircuitLabelsResolveToIdenticalText)
{
    // add1q/add2q intern; ops render the exact original text, and ops
    // sharing text share the id (cross-circuit, one global table).
    Circuit a(2), b(2);
    a.add2q(0, 1, gates::cz(), "CZ-label-roundtrip");
    b.add2q(1, 0, gates::cz(), "CZ-label-roundtrip");
    EXPECT_EQ(a.ops()[0].label(), "CZ-label-roundtrip");
    EXPECT_EQ(a.ops()[0].labelId(), b.ops()[0].labelId());
    EXPECT_EQ(a.countLabel("CZ-label-roundtrip"), 1);
    EXPECT_EQ(a.countLabel("no-such-label-anywhere"), 0);

    // The drawn diagram carries the interned text verbatim.
    EXPECT_NE(drawCircuit(a).find("CZ-label-roundtrip"),
              std::string::npos);
}

} // namespace
} // namespace qiset

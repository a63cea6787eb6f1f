#!/usr/bin/env python3
"""Bench-regression gate for CI.

Compares the freshly-emitted BENCH_routing.json, BENCH_sharding.json
and BENCH_service.json against the committed baseline
(scripts/bench_baseline.json) and exits nonzero when a tracked metric
regresses beyond the baseline tolerance:

  - QFT-16 SABRE SWAP count (deterministic): fails when the router
    inserts more than (1 + tolerance) * baseline SWAPs. The same rule
    gates every BENCH_routing.json workload under "sabre" and
    "telesabre" against its <workload>_<strategy>_swaps baseline key.
  - Sharded batch throughput: fails when the sharded/serial speedup
    drops below (1 - tolerance) * baseline or below the hard floor
    (min_sharding_speedup).
  - CompileService throughput: fails when the service/serial speedup
    drops below (1 - tolerance) * baseline or below the hard floor
    (min_service_speedup), or when any submitted job failed to reach
    a terminal Done state.
  - Decomposition engines: fails when the cold-cache "auto"/"nuop"
    compile speedup drops below (1 - tolerance) * baseline or the
    hard floor (min_translation_speedup), when the canonicalized
    cache hit ratio on QFT-16 stops exceeding the raw-key baseline,
    when "auto" loses exact-mode Fu parity on any workload, or when
    the "nuop" engine stops being bit-identical to the legacy path.
  - Compile hot path: fails when the QFT-32 serial cold-cache compile
    p95 exceeds (1 + hotpath_latency_tolerance) * hotpath_p95_ms, or
    when the QV-leg intra-circuit parallel speedup drops below
    (1 - tolerance) * baseline or the hard floor
    (min_hotpath_speedup), or when the parallel compile stops being
    bit-identical to serial (always enforced), or when the QFT-32
    warm-cache heap allocation count/bytes, with the CZ set or with G3
    under "sabre", exceed (1 + hotpath_alloc_tolerance) * baseline.
    The allocation counters
    are serial, seeded and mode-invariant (--quick shrinks only the
    QV leg), so — like the SWAP-count gate — they are enforced on
    every runner regardless of thread count. So is the QFT-32 warm
    "auto"/"nuop" ratio (qft32_warm_auto_over_nuop, a serial
    same-host ratio of the fastest reps), which must stay at or below
    hotpath_auto_warm_ratio: per-block canonical dressing would push
    it back to about 2. On AVX2 hosts the QV
    cold speedup of the SIMD kernels over the forced-scalar leg
    (cold_speedup_vs_scalar) must also hold its floor
    (min_hotpath_simd_speedup); other dispatch tiers skip that gate
    with a warning.
  - Chiplet routing: fails when teleport-aware routing stops beating
    the SWAP-only link baseline on any chiplet workload
    (teleport_wins, always enforced), or when the worst-case
    teleport-aware fidelity (deterministic: seeded calibration,
    serial compiles) drops below the committed floor
    (chiplet_min_teleport_fidelity).
  - Bit-identity of sharded and service results (always enforced).

The sharding/service/hotpath speedup baselines — and the hotpath p95
latency — are calibrated on the 4-thread CI runner (see
bench_baseline.json), so those gates are skipped with a warning when
a bench got fewer than 4 threads — on such runners the floor would
fire without a real regression. The translation speedup is
serial-vs-serial on one thread and always gated.

Usage:
  check_bench_regression.py <baseline.json> <BENCH_routing.json> \
      <BENCH_sharding.json> <BENCH_service.json> \
      <BENCH_translation.json> <BENCH_hotpath.json> \
      <BENCH_chiplet.json>
"""

import json
import sys


def fail(message: str) -> None:
    print(f"REGRESSION: {message}", file=sys.stderr)
    sys.exit(1)


def gate_speedup(
    name: str,
    speedup: float,
    threads: int,
    baseline_speedup: float,
    floor: float,
    tolerance: float,
    min_threads: int = 4,
) -> None:
    """Shared speedup gate; baselines needing a multi-core runner set
    min_threads and are skipped (with a warning) below it, while
    serial-vs-serial ratios pass min_threads=1 and always gate."""
    limit = max(floor, baseline_speedup * (1.0 - tolerance))
    print(
        f"{name} speedup: {speedup:.2f}x on {threads} threads "
        f"(baseline {baseline_speedup}, floor {limit:.2f})"
    )
    if threads < min_threads:
        print(
            f"WARNING: {name} bench ran on {threads} thread(s) but the "
            f"baseline is calibrated for {min_threads}; skipping its "
            "throughput gate"
        )
    elif speedup < limit:
        fail(
            f"{name} throughput regressed: {speedup:.2f}x < {limit:.2f}x"
        )


def main() -> None:
    if len(sys.argv) != 8:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    (
        baseline_path,
        routing_path,
        sharding_path,
        service_path,
        translation_path,
        hotpath_path,
        chiplet_path,
    ) = sys.argv[1:8]
    with open(baseline_path) as f:
        baseline = json.load(f)
    with open(routing_path) as f:
        routing = json.load(f)
    with open(sharding_path) as f:
        sharding = json.load(f)
    with open(service_path) as f:
        service = json.load(f)
    with open(translation_path) as f:
        translation = json.load(f)
    with open(hotpath_path) as f:
        hotpath = json.load(f)
    with open(chiplet_path) as f:
        chiplet = json.load(f)

    tolerance = baseline.get("tolerance", 0.10)

    # --- routing: QFT-16 SABRE SWAP count (deterministic) ------------
    workload = next(
        (w for w in routing["workloads"] if w["name"] == "qft16_grid4x4"),
        None,
    )
    if workload is None:
        fail("BENCH_routing.json has no qft16_grid4x4 workload")
    swaps = workload["strategies"]["sabre"]["swaps"]
    swaps_baseline = baseline["qft16_grid4x4_sabre_swaps"]
    swaps_limit = swaps_baseline * (1.0 + tolerance)
    print(
        f"qft16_grid4x4 sabre swaps: {swaps} "
        f"(baseline {swaps_baseline}, limit {swaps_limit:.1f})"
    )
    if swaps > swaps_limit:
        fail(
            f"QFT-16 SABRE SWAP count regressed: {swaps} > {swaps_limit:.1f}"
        )
    # Every other workload under both lookahead routers, same rule.
    for workload in routing["workloads"]:
        for strategy in ("sabre", "telesabre"):
            key = f"{workload['name']}_{strategy}_swaps"
            if key == "qft16_grid4x4_sabre_swaps":
                continue  # gated above
            if key not in baseline:
                fail(f"bench_baseline.json has no {key} baseline")
            swaps = workload["strategies"][strategy]["swaps"]
            swaps_limit = baseline[key] * (1.0 + tolerance)
            print(
                f"{workload['name']} {strategy} swaps: {swaps} "
                f"(baseline {baseline[key]}, limit {swaps_limit:.1f})"
            )
            if swaps > swaps_limit:
                fail(
                    f"{workload['name']} {strategy} SWAP count regressed: "
                    f"{swaps} > {swaps_limit:.1f}"
                )

    # --- sharding: bit-identity (always) and throughput --------------
    if not sharding.get("bit_identical", False):
        fail("sharded results are not bit-identical to solo compiles")
    gate_speedup(
        "sharding",
        sharding["sharded"]["speedup"],
        sharding.get("threads", 1),
        baseline["sharding_speedup"],
        baseline.get("min_sharding_speedup", 0.0),
        tolerance,
    )

    # --- service: completion + bit-identity (always) and throughput --
    if not service.get("all_done", False):
        fail("not every CompileService job completed")
    if not service.get("bit_identical", False):
        fail(
            "CompileService results are not bit-identical to legacy "
            "compileCircuit"
        )
    gate_speedup(
        "service",
        service["service"]["speedup"],
        service.get("threads", 1),
        baseline["service_speedup"],
        baseline.get("min_service_speedup", 0.0),
        tolerance,
    )

    # --- decomposition engines: correctness (always) and speedup -----
    if not translation.get("bit_identical", False):
        fail(
            'the "nuop" decomposition strategy is not bit-identical to '
            "the legacy compile path"
        )
    if not translation.get("fu_parity", False):
        fail(
            '"auto" lost exact-mode Fu parity against "nuop" on a '
            "bench workload"
        )
    # Deterministic (seeded, serial) but the margin is a handful of
    # extra hits: a routing/consolidation change that alters which
    # dressed controlled-phase variants appear can legitimately move
    # it — re-measure and re-baseline rather than relaxing the gate.
    hit_ratio = translation["qft16_hit_ratio"]
    print(
        f"qft16 cache hit ratio: canonical {hit_ratio['auto']:.4f} vs "
        f"raw {hit_ratio['nuop']:.4f}"
    )
    if hit_ratio["auto"] <= hit_ratio["nuop"]:
        fail(
            "canonicalized cache keys no longer beat raw keys on the "
            f"QFT-16 bench: {hit_ratio['auto']:.4f} <= "
            f"{hit_ratio['nuop']:.4f}"
        )
    # Serial-vs-serial on the same host: always gated (min_threads=1).
    gate_speedup(
        "translation cold-cache",
        translation["cold"]["speedup"],
        1,
        baseline["translation_speedup"],
        baseline.get("min_translation_speedup", 0.0),
        tolerance,
        min_threads=1,
    )

    # --- compile hot path: bit-identity (always), latency, speedup ---
    if not hotpath.get("bit_identical", False):
        fail(
            "intra-circuit parallel compiles are not bit-identical to "
            "the serial hot path"
        )
    # Warm-cache allocation counters: deterministic (serial rep, seeded
    # workload, QFT leg unchanged by --quick), so always enforced. A
    # count regression means a pass sweep started allocating again —
    # the exact thing the SoA IR / scratch-reuse work pays for.
    qft32 = next(
        (w for w in hotpath["workloads"] if w["name"] == "qft32"), None
    )
    if qft32 is None:
        fail("BENCH_hotpath.json has no qft32 workload")
    alloc_tolerance = baseline.get("hotpath_alloc_tolerance", 0.50)
    for metric, measured, key in (
        ("warm_count", qft32["alloc"]["warm_count"],
         "hotpath_warm_alloc_count"),
        ("warm_bytes", qft32["alloc"]["warm_bytes"],
         "hotpath_warm_alloc_bytes"),
        ("G3 sabre warm_count", hotpath["qft32_g3_sabre_warm_alloc_count"],
         "hotpath_g3_sabre_warm_alloc_count"),
        ("G3 sabre warm_bytes", hotpath["qft32_g3_sabre_warm_alloc_bytes"],
         "hotpath_g3_sabre_warm_alloc_bytes"),
    ):
        alloc_baseline = baseline[key]
        alloc_limit = alloc_baseline * (1.0 + alloc_tolerance)
        print(
            f"qft32 warm-cache alloc {metric}: {measured} "
            f"(baseline {alloc_baseline}, limit {alloc_limit:.0f})"
        )
        if measured > alloc_limit:
            fail(
                f"hot-path warm-compile {metric} regressed: "
                f"{measured} > {alloc_limit:.0f}"
            )

    # Warm "auto" over warm "nuop": alternating reps on one host, so
    # the ratio holds across runners and is always enforced.
    auto_ratio = hotpath["qft32_warm_auto_over_nuop"]
    auto_limit = baseline["hotpath_auto_warm_ratio"]
    print(
        f"qft32 warm auto/nuop ratio: {auto_ratio:.2f} "
        f"(limit {auto_limit})"
    )
    if auto_ratio > auto_limit:
        fail(
            f'warm "auto" compiles regressed against "nuop": '
            f"{auto_ratio:.2f}x > {auto_limit}x"
        )

    hotpath_threads = hotpath.get("threads", 1)
    p95 = hotpath["qft32_cold_p95_ms"]
    p95_baseline = baseline["hotpath_p95_ms"]
    # Wall-clock latency varies more across hosts than a same-host
    # speedup ratio does, so this gate takes its own (wider) tolerance
    # and, like the pool gates, only fires on the runner class it was
    # calibrated for.
    p95_limit = p95_baseline * (
        1.0 + baseline.get("hotpath_latency_tolerance", 0.50)
    )
    print(
        f"qft32 cold-cache compile p95: {p95:.1f} ms "
        f"(baseline {p95_baseline}, limit {p95_limit:.1f})"
    )
    if hotpath_threads < 4:
        print(
            f"WARNING: hotpath bench ran on {hotpath_threads} thread(s) "
            "but the latency baseline is calibrated for the 4-thread CI "
            "runner; skipping its p95 gate"
        )
    elif p95 > p95_limit:
        fail(
            f"single-circuit cold compile p95 regressed: {p95:.1f} ms > "
            f"{p95_limit:.1f} ms"
        )
    gate_speedup(
        "hotpath intra-circuit",
        hotpath["cold_speedup"],
        hotpath_threads,
        baseline["hotpath_speedup"],
        baseline.get("min_hotpath_speedup", 0.0),
        tolerance,
    )

    # SIMD kernel payoff: QV cold p50 of the forced-scalar leg over the
    # active dispatch tier. Serial-vs-serial on one host, so the ratio
    # is stable — but the floor is calibrated for the AVX2 kernels;
    # other ISAs (NEON, plain scalar hosts) skip with a warning rather
    # than gate against a foreign baseline.
    tier = hotpath.get("kernel_dispatch_tier", "unknown")
    simd_speedup = hotpath.get("cold_speedup_vs_scalar", 0.0)
    if tier == "avx2":
        gate_speedup(
            "hotpath simd-vs-scalar",
            simd_speedup,
            1,
            baseline["hotpath_simd_speedup"],
            baseline.get("min_hotpath_simd_speedup", 0.0),
            tolerance,
            min_threads=1,
        )
    else:
        print(
            f"WARNING: kernel dispatch tier is '{tier}' (not avx2); "
            "skipping the SIMD-vs-scalar speedup gate "
            f"(measured {simd_speedup:.2f}x)"
        )

    # --- chiplet routing: teleport advantage (always) + fidelity floor
    if not chiplet.get("teleport_wins", False):
        fail(
            "teleport-aware routing no longer beats the SWAP-only link "
            "baseline on every chiplet workload"
        )
    min_fid = chiplet["min_teleport_fidelity"]
    fid_floor = baseline["chiplet_min_teleport_fidelity"]
    print(
        f"chiplet worst-case teleport-aware fidelity: {min_fid:.4f} "
        f"(floor {fid_floor})"
    )
    # Deterministic (seeded device calibration, serial compiles), so
    # the floor is hard: a drop means routing or link-cost accounting
    # changed — re-measure and re-baseline deliberately, not silently.
    if min_fid < fid_floor:
        fail(
            "chiplet teleport-aware fidelity regressed: "
            f"{min_fid:.4f} < {fid_floor}"
        )

    print("bench regression gate: OK")


if __name__ == "__main__":
    main()

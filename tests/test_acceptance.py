"""End-to-end acceptance suite.

One test per shipped guarantee, each printing a single [PASS]/[FAIL] line
with the measured quantity before asserting, so a teed ``pytest -v -s`` run
reads as a checklist. The heavy 4x4 grid sweeps behind criteria 7, 8, 10 and
13 share one memoized runner; every simulation the suite executes in-process
feeds a global observability audit that criterion 10 drains.
"""

import math
import random
import time
from statistics import fmean

import pytest

from decoymix.adversary import (
    LinkCandidateSet,
    brute_force_oracle,
    link,
)
from decoymix.chaff_filter import (
    digest_list_size,
    new_filter,
    paper_reported_size_bytes,
)
from decoymix.cli import attack_result, main
from decoymix.core import CAM_WIRE_BYTES, PSEUDONYM_WIRE_BYTES
from decoymix.engine import (
    audit_ground_truth,
    audit_observability,
    audit_single_pseudonym,
    chunk_delivery_latency,
    run,
)
from decoymix.metrics import overhead, scored_sets, success_rate
from decoymix.mobility import Trip, synthesize_trips
from decoymix.roads import make_grid
from decoymix.scenario import EavesdropperSpec, ScenarioConfig, ZoneSpec

from test_adversary import V_MIN, random_instance, tracks_of


def _verdict(tag: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {tag}: {detail}")
    assert ok, f"{tag}: {detail}"


# ---------------------------------------------------------------------------
# shared scenarios

# Small fixture: one mix-zone on the center junction of a 3x3 grid. The ear
# range of 600 m keeps a departing relay audible for the whole span of its
# decoy dwell draw, so decoy coverage is a property of the mechanism rather
# than of observation luck.
G3 = make_grid(3, 3, 500.0)
CENTER_ZONE = ZoneSpec("z-c", 500.0, 500.0, 100.0)
CENTER_EAR = EavesdropperSpec("eav-c", 500.0, 500.0, 600.0)
CRUISE = 13.89  # m/s, the 50 km/h grid limit

# straight crossings through the center, one per compass arm
ARMS = (
    ("j0_1__j1_1", "j1_1__j2_1"),
    ("j2_1__j1_1", "j1_1__j0_1"),
    ("j1_0__j1_1", "j1_1__j1_2"),
    ("j1_2__j1_1", "j1_1__j1_0"),
)

# Sweep fixture for criteria 7, 8, 10 and 13: 200 synthesized trips (seed 7)
# over a 4x4 grid with zones on two central junctions. Ears are widened to
# 450 m, where decoy audibility saturates (550 m and 700 m reproduce the
# same rates); the Table-II default 250 m cuts relay streams off mid-dwell.
# Chaff provisioning 2000 >> demand, so the pool never empties and raising
# relay_fraction only ever adds decoy streams.
G4 = make_grid(4, 4, 500.0)
GRID_TRIPS = tuple(synthesize_trips(G4, 200, 0.1, 7))
GRID_ZONES = (
    ZoneSpec("z-j1_1", 500.0, 500.0, 100.0),
    ZoneSpec("z-j1_2", 1000.0, 500.0, 100.0),
)
GRID_EARS = (
    EavesdropperSpec("eav-j1_1", 500.0, 500.0, 450.0),
    EavesdropperSpec("eav-j1_2", 1000.0, 500.0, 450.0),
)
GRID_SEEDS = tuple(range(10))
RELAY_SWEEP = (0.0, 0.25, 0.5, 0.75, 1.0)

_OBSERVABILITY_VIOLATIONS: list[str] = []
_RUNS_AUDITED = 0


def _audited_run(cfg: ScenarioConfig, thorough: bool = False):
    """Run a scenario and feed the global observability audit."""
    global _RUNS_AUDITED
    result = run(cfg)
    _RUNS_AUDITED += 1
    _OBSERVABILITY_VIOLATIONS.extend(audit_observability(result))
    _OBSERVABILITY_VIOLATIONS.extend(result.audit_violations)
    if thorough:
        _OBSERVABILITY_VIOLATIONS.extend(audit_single_pseudonym(result))
        _OBSERVABILITY_VIOLATIONS.extend(audit_ground_truth(result))
    return result


def _attack_rate(cfg: ScenarioConfig) -> float:
    result = _audited_run(cfg)
    sets, _, _ = attack_result(result)
    return success_rate(scored_sets(result.transitions, sets))


_GRID_RATES: dict[tuple[float, float, float, int], float] = {}


def _grid_rate(relay: float, non_coop: float, hbc: float, seed: int) -> float:
    key = (relay, non_coop, hbc, seed)
    if key not in _GRID_RATES:
        _GRID_RATES[key] = _attack_rate(ScenarioConfig(
            graph=G4, zones=GRID_ZONES, eavesdroppers=GRID_EARS,
            trips=GRID_TRIPS, relay_fraction=relay, non_coop_fraction=non_coop,
            hbc_rsu_fraction=hbc, rng_seed=seed, duration_s=2100.0,
            chaff_per_zone=2000, filter_capacity=2000,
        ))
    return _GRID_RATES[key]


def _grid_mean(relay: float, non_coop: float = 0.0, hbc: float = 0.0) -> float:
    return fmean(_grid_rate(relay, non_coop, hbc, s) for s in GRID_SEEDS)


# ---------------------------------------------------------------------------
# 1. worked linkability instance

# per-transition credits 1, 1/2, 0 (truth absent), 1/3, 0 (empty set)
def _worked_instance() -> list[LinkCandidateSet]:
    shapes = (
        frozenset({"x1"}),
        frozenset({"x1", "x2"}),
        frozenset({"x2"}),
        frozenset({"x1", "x2", "x3"}),
        frozenset(),
    )
    return [
        LinkCandidateSet("z", f"in{i}", cands, "x1")
        for i, cands in enumerate(shapes)
    ]


@pytest.mark.xfail(
    strict=True,
    reason="0.36 is a printed rounding of the worked mean; the exact value is 11/30",
)
def test_c01_worked_instance_golden_value():
    t0 = time.perf_counter()
    rate = success_rate(_worked_instance())
    elapsed = time.perf_counter() - t0
    ok = abs(rate - 0.36) <= 1e-12 and elapsed < 1e-3
    _verdict("c01 worked-instance golden value", ok,
             f"success_rate={rate!r} vs 0.36 (tol 1e-12), {elapsed * 1e3:.3f} ms")


def test_c01_worked_instance_exact_mean():
    t0 = time.perf_counter()
    rate = success_rate(_worked_instance())
    elapsed = time.perf_counter() - t0
    ok = abs(rate - 11 / 30) <= 1e-12 and elapsed < 1e-3
    _verdict("c01 worked-instance exact mean", ok,
             f"success_rate={rate!r} vs 11/30 (tol 1e-12), {elapsed * 1e3:.3f} ms")


# ---------------------------------------------------------------------------
# 2. reported filter sizing, ten frozen rows

REPORTED_SIZES_KB = (
    (500, 1e-25, 7.31), (1000, 1e-25, 14.63), (5000, 1e-25, 73.13),
    (10000, 1e-25, 146.26), (20000, 1e-25, 292.51),
    (500, 1e-30, 8.78), (1000, 1e-30, 17.55), (5000, 1e-30, 87.75),
    (10000, 1e-30, 175.51), (20000, 1e-30, 351.02),
)


def test_c02_reported_size_model_ten_rows():
    worst = 0.0
    for n, p, kb in REPORTED_SIZES_KB:
        got = paper_reported_size_bytes(n, p) / 1024.0
        worst = max(worst, abs(got - kb) / kb)
    _verdict("c02 reported size model, ten rows", worst <= 0.005,
             f"max relative error {worst:.2e} (tol 5.0e-03)")


# ---------------------------------------------------------------------------
# 3. digest list comparison


def test_c03_digest_list_exceeds_filter():
    digest = digest_list_size(5000, "SHA256")
    filt = paper_reported_size_bytes(5000, 1e-25)
    ok = digest == 160_000 and digest / 1024.0 == 156.25 and digest > filt
    _verdict("c03 digest list vs filter size", ok,
             f"digest {digest} B (156.25 KB) > filter {filt} B "
             f"({filt / 1024.0:.2f} KB)")


# ---------------------------------------------------------------------------
# 4. filter behavior at scale


def test_c04_filter_behavior_suite():
    t0 = time.perf_counter()
    rng = random.Random(20240801)
    ids = [rng.getrandbits(128).to_bytes(16, "big") for _ in range(100_000)]
    member = set(ids)
    probes = [
        p for p in (rng.getrandbits(128).to_bytes(16, "big")
                    for _ in range(100_000))
        if p not in member
    ]
    f = new_filter(100_000, 1e-3, kick_seed=7)
    for cid in ids:
        f.insert(cid)
    false_negatives = sum(1 for cid in ids if not f.contains(cid))
    fpr = sum(1 for p in probes if f.contains(p)) / len(probes)

    # a burst of inserts fully deleted must restore the exact prior view
    pre = [f.contains(p) for p in probes[:2000]]
    churn = [rng.getrandbits(128).to_bytes(16, "big") for _ in range(5000)]
    for cid in churn:
        f.insert(cid)
    for cid in churn:
        f.remove(cid)
    restored = (pre == [f.contains(p) for p in probes[:2000]]
                and all(f.contains(cid) for cid in ids))

    elapsed = time.perf_counter() - t0
    ok = false_negatives == 0 and fpr <= 2e-3 and restored and elapsed < 10.0
    _verdict("c04 filter behavior suite", ok,
             f"false negatives {false_negatives}, fpr {fpr:.2e} (tol 2e-3), "
             f"deletion restores membership: {restored}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. linker equals the brute-force reference


def test_c05_linker_matches_oracle_on_500_instances(grid4, zone_j1_1):
    t0 = time.perf_counter()
    divergent = []
    for seed in range(500):
        rows, eaves = random_instance(seed)
        fast = link(tracks_of(rows), zone_j1_1, grid4, V_MIN, "z", eaves)
        slow = brute_force_oracle(rows, zone_j1_1, grid4, V_MIN, "z", eaves)
        if ({s.entering: s.candidates for s in fast}
                != {s.entering: s.candidates for s in slow}):
            divergent.append(seed)
    elapsed = time.perf_counter() - t0
    ok = not divergent and elapsed < 30.0
    _verdict("c05 linker vs oracle, 500 instances", ok,
             f"{len(divergent)} divergences {divergent[:5]}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. isolated-vehicle baselines


def test_c06a_single_vehicle_no_decoy_fully_linked():
    rate = _attack_rate(ScenarioConfig(
        graph=G3, zones=(CENTER_ZONE,), eavesdroppers=(CENTER_EAR,),
        trips=(Trip("veh-a", 0.0, ARMS[0], (CRUISE, CRUISE), 4.5),),
        relay_fraction=0.0, rng_seed=0, duration_s=180.0,
    ))
    _verdict("c06a lone vehicle, no decoy", rate == 1.0,
             f"success rate {rate!r} (want exactly 1.0)")


def test_c06b_single_vehicle_one_decoy_halves_rate():
    # every member relays; sparse_threshold 0 keeps the RSU stream out so the
    # candidate set is exactly {true exit, one decoy}
    rate = _attack_rate(ScenarioConfig(
        graph=G3, zones=(CENTER_ZONE,), eavesdroppers=(CENTER_EAR,),
        trips=(Trip("veh-a", 0.0, ARMS[0], (CRUISE, CRUISE), 4.5),),
        relay_fraction=1.0, rng_seed=0, duration_s=180.0, sparse_threshold=0,
    ))
    _verdict("c06b lone vehicle, one decoy", rate == 0.5,
             f"success rate {rate!r} (want exactly 0.5)")


def test_c06c_symmetric_crossings_bounded_by_exit_count():
    # Four simultaneous straight crossings, one per arm, all relaying; each
    # entering vehicle has k = 3 plausible exits (U-turns excluded). The RSU
    # sparse rule stays dormant (co-occupancy 4 > threshold 2), so candidate
    # sets hold the 4 real exits plus 4 same-length decoys.
    quad = tuple(
        Trip(f"veh-{i}", 0.0, edges, (CRUISE, CRUISE), 4.5)
        for i, edges in enumerate(ARMS)
    )
    rates = [
        _attack_rate(ScenarioConfig(
            graph=G3, zones=(CENTER_ZONE,), eavesdroppers=(CENTER_EAR,),
            trips=quad, relay_fraction=1.0, rng_seed=seed, duration_s=180.0,
        ))
        for seed in range(100)
    ]
    mean = fmean(rates)
    bound = 1 / 3 + 0.05
    _verdict("c06c four symmetric crossings, all relaying", mean <= bound,
             f"mean over 100 seeds {mean:.4f} <= 1/3 + 0.05 = {bound:.4f}")


# ---------------------------------------------------------------------------
# 7. decoy benefit across the relay sweep


def test_c07_decoy_benefit_monotone_and_halved():
    t0 = time.monotonic()
    means = [_grid_mean(r) for r in RELAY_SWEEP]
    elapsed = time.monotonic() - t0
    monotone = all(a >= b for a, b in zip(means, means[1:]))
    ratio = means[RELAY_SWEEP.index(0.5)] / means[0]
    ok = monotone and ratio <= 0.60 and elapsed < 300.0
    _verdict("c07 decoy benefit over relay sweep", ok,
             "means " + "/".join(f"{m:.4f}" for m in means)
             + f" non-increasing: {monotone}; 0.5-vs-0.0 ratio {ratio:.4f} "
             f"(need <= 0.60); {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 8. non-cooperative vehicles do not break the protection


def test_c08_non_cooperative_robustness():
    means = {nc: _grid_mean(0.5, non_coop=nc) for nc in (0.0, 0.25, 0.5)}
    spread = max(means.values()) - min(means.values())
    _verdict("c08 non-cooperative robustness", spread < 0.10,
             "means " + "/".join(f"{v:.4f}" for v in means.values())
             + f", spread {spread:.4f} (need < 0.10)")


# ---------------------------------------------------------------------------
# 9. sparse-traffic threshold rule


def test_c09_sparse_threshold_stream_counts():
    counts = []
    for k in (1, 2, 3):
        trips = tuple(
            Trip(f"veh-{i}", 0.0, ARMS[i], (CRUISE, CRUISE), 4.5)
            for i in range(k)
        )
        # vanishing relay fraction: decoy machinery on, no relay ever selected
        result = _audited_run(ScenarioConfig(
            graph=G3, zones=(CENTER_ZONE,), eavesdroppers=(CENTER_EAR,),
            trips=trips, relay_fraction=1e-12, rng_seed=0, duration_s=180.0,
            sparse_threshold=2,
        ), thorough=True)
        starts = [e for e in result.events if e["type"] == "decoy_start"]
        counts.append((
            sum(1 for e in starts if e["source"] == "rsu"),
            sum(1 for e in starts if e["source"] == "relay"),
        ))
    want = [(1, 0), (2, 0), (0, 0)]
    _verdict("c09 sparse threshold rule", counts == want,
             f"(rsu, relay) stream counts for 1/2/3 vehicles: {counts}, "
             f"want {want}")


# ---------------------------------------------------------------------------
# 10. observability audit over everything this suite ran


def test_c10_no_in_zone_beacons_observed():
    # force the full grid population so the audit covers every sweep cell
    # used by criteria 7, 8 and 13, then drain the global registry
    for relay in RELAY_SWEEP:
        for s in GRID_SEEDS:
            _grid_rate(relay, 0.0, 0.0, s)
    for nc in (0.25, 0.5):
        for s in GRID_SEEDS:
            _grid_rate(0.5, nc, 0.0, s)
    for hbc in (0.5, 1.0):
        for s in GRID_SEEDS:
            _grid_rate(1.0, 0.0, hbc, s)
    ok = _RUNS_AUDITED >= 90 and not _OBSERVABILITY_VIOLATIONS
    _verdict("c10 observability audit", ok,
             f"{_RUNS_AUDITED} runs audited, "
             f"{len(_OBSERVABILITY_VIOLATIONS)} violations"
             + (f"; first: {_OBSERVABILITY_VIOLATIONS[0]}"
                if _OBSERVABILITY_VIOLATIONS else ""))


# ---------------------------------------------------------------------------
# 11. filter chunk schedule arithmetic


def test_c11_chunk_schedule_exact():
    details = []
    ok = True
    for n, aligned, worst in ((1000, 1.0, 1.9), (5000, 2.0, 3.9),
                              (10000, 3.0, 5.9)):
        size = paper_reported_size_bytes(n, 1e-25)
        chunks = math.ceil(size / 50_000.0)
        got_aligned = chunk_delivery_latency(size, 50_000.0, 1.0, 0.0)
        # worst lattice arrival: one 0.1 s tick past a cycle start
        got_worst = chunk_delivery_latency(size, 50_000.0, 1.0, 0.1)
        ok = ok and got_aligned == float(chunks) == aligned
        ok = ok and got_worst == (chunks - 0.1) + chunks == worst
        details.append(f"{size}B: {got_aligned:g}/{got_worst:g}s")
    _verdict("c11 chunk schedule exact", ok,
             "aligned/worst latencies " + ", ".join(details))


# ---------------------------------------------------------------------------
# 12. overhead accounting determinism and hand-checked constants


def test_c12_overhead_deterministic_and_exact():
    quad = tuple(
        Trip(f"veh-{i}", 0.0, edges, (CRUISE, CRUISE), 4.5)
        for i, edges in enumerate(ARMS)
    )
    result = _audited_run(ScenarioConfig(
        graph=G3, zones=(CENTER_ZONE,), eavesdroppers=(CENTER_EAR,),
        trips=quad, relay_fraction=1.0, rng_seed=0, duration_s=180.0,
    ), thorough=True)
    rep1 = overhead(result.events, 180.0)
    rep2 = overhead(result.events, 180.0)
    identical = rep1.to_json() == rep2.to_json()

    adverts = [
        {"type": "advert", "t": float(s), "tx": "rsu:z-a", "zone": "z-a",
         "bytes": 164, "first_verifiers": []}
        for s in range(600)
    ]
    rsu = overhead(adverts, 600.0)
    beacons = [
        {"type": "beacon", "t": i * 0.2, "tx": "veh-a",
         "bytes": CAM_WIRE_BYTES + PSEUDONYM_WIRE_BYTES}
        for i in range(600 * 5)
    ]
    veh = overhead(beacons, 600.0)
    exact = (rsu.avg_rate_kb_per_s("rsu:z-a") == 0.164
             and veh.avg_rate_kb_per_s("veh-a") == 2.45)
    ok = identical and exact
    _verdict("c12 overhead determinism and constants", ok,
             f"recompute bit-identical: {identical}; advert 0.164 KB/s "
             f"and 5 Hz beacons 2.45 KB/s exact: {exact}")


# ---------------------------------------------------------------------------
# 13. curious-RSU orderings


def test_c13_curious_rsu_ordering():
    external = _grid_mean(1.0)
    half = _grid_mean(1.0, hbc=0.5)
    full = _grid_mean(1.0, hbc=1.0)
    ok = external < half < full
    _verdict("c13 curious-RSU ordering", ok,
             f"external {external:.4f} < hbc 0.5 {half:.4f} "
             f"< hbc 1.0 {full:.4f}: {ok}")


# ---------------------------------------------------------------------------
# 14. end-to-end determinism of the CLI


def test_c14_run_command_byte_identical(tmp_path):
    scen = tmp_path / "scen"
    assert main([
        "gen-grid", "--rows", "3", "--cols", "3", "--spacing", "500",
        "--zones", "1", "--vehicles", "12", "--arrival-rate", "0.1",
        "--duration", "240", "--out", str(scen),
    ]) == 0
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main([
            "run", "--scenario", str(scen / "scenario.json"),
            "--seeds", "1..2", "--sweep", "relay_fraction=0,1.0",
            "--out", str(out),
        ]) == 0
        outs.append(out)
    # manifest.json embeds the output path and is metadata, not a report
    trees = [
        sorted(
            p.relative_to(base)
            for p in base.rglob("*")
            if p.is_file() and p.name != "manifest.json"
        )
        for base in outs
    ]
    differing = [
        str(rel) for rel in trees[0]
        if (outs[0] / rel).read_bytes() != (outs[1] / rel).read_bytes()
    ] if trees[0] == trees[1] else ["<tree mismatch>"]
    ok = trees[0] == trees[1] and not differing
    _verdict("c14 end-to-end determinism", ok,
             f"{len(trees[0])} report files compared, "
             f"differing: {differing if differing else 'none'}")

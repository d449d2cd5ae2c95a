"""Frozen sha256 digests of every report file for five fixed scenarios.

Refactors must reproduce these bytes exactly. A change that moves a digest on
purpose updates the table here and says in CHANGES.md which files moved and
why.
"""
from __future__ import annotations

import hashlib
from pathlib import Path
from statistics import fmean, stdev

from decoymix.adversary import export_candidate_sets
from decoymix.cli import attack_result, cell_reports, main
from decoymix.engine import RunResult, run
from decoymix.metrics import (
    overhead,
    scored_sets,
    success_rate,
    write_linkability_csv,
    write_overhead_csv,
)
from decoymix.mobility import Trip, synthesize_trips
from decoymix.roads import make_grid
from decoymix.scenario import EavesdropperSpec, ScenarioConfig, ZoneSpec

# the test_c14 sweep: 3x3 grid, one zone, 12 vehicles, seeds 1..2 at relay
# fractions 0 and 1
RUN_DIGESTS = {
    "relay_fraction=0/seed1/candidate_sets.jsonl":
        "bdedffbb61bc216d7a1204dd2f3977329d18e8086c78f48859b9ce65f97fdbe0",
    "relay_fraction=0/seed1/events.jsonl":
        "d89c7cee9f7ee1fe4e0e32c48d7c4535e95e843ff48ca07fac5235984e56b0a4",
    "relay_fraction=0/seed1/linkability.csv":
        "48dac4e4ef06eefca91437c3688b0bb25d684578d02d6e48846f2c416118afac",
    "relay_fraction=0/seed1/observations.csv":
        "1d3a5f6b376e5e1d31350afd5236abc97338f470460e3903ad06e52e80dbbbbb",
    "relay_fraction=0/seed1/overhead.csv":
        "d96001e6ba732d2e851d133a28ba7fe54e01d0ef4c0f780747bf793619100ab3",
    "relay_fraction=0/seed2/candidate_sets.jsonl":
        "32976a0abf91af37c9d0b055037707ae88818592849b0f81775606c9a89a716a",
    "relay_fraction=0/seed2/events.jsonl":
        "b2791e937b4fdab3b6e009625b779098a5c6c1ed136d670944caeb27d33ffa54",
    "relay_fraction=0/seed2/linkability.csv":
        "1de86cf31804311b2b677853f6123df853b32f87c44ad14a0e796378b6ecac8c",
    "relay_fraction=0/seed2/observations.csv":
        "1f1aebb7d73cbb1fff6750ba377b2518f51ed209d4bed157b4d56e4db6b64812",
    "relay_fraction=0/seed2/overhead.csv":
        "fb4c65443556da26db5965f1db46bbad2f788bf42baafc72481f2276f8578ea0",
    "relay_fraction=1/seed1/candidate_sets.jsonl":
        "60c594febc41f5fd698922847bfa11bd4eb45f0d98321cbcc69fa87002a7b308",
    "relay_fraction=1/seed1/events.jsonl":
        "c6ebe22f42c39fa9345962f76c87bd16b4a2d0e027d44ce43660cd6643dea478",
    "relay_fraction=1/seed1/linkability.csv":
        "204fff32692d50f01f9ca53f9dc0c2a156edae2d879d910f018ddf08acea1afd",
    "relay_fraction=1/seed1/observations.csv":
        "e1bda74f65eb06b59548ed8a2ae82246281c88861ca22a5c739cc08454206ea6",
    "relay_fraction=1/seed1/overhead.csv":
        "ea6d67be11543fa09707ec7e827fce90659dc5954d9c560dbefdfda6b2e400ff",
    "relay_fraction=1/seed2/candidate_sets.jsonl":
        "8e735a254a90668bb46a9c76f66c805efe597f4fff97090dd57ba943b3151c4d",
    "relay_fraction=1/seed2/events.jsonl":
        "fdb597e1f6ef05eaa249b6ed23532575b5181631aa359a4a82b83a96c04bc09b",
    "relay_fraction=1/seed2/linkability.csv":
        "959afe49cffad342b7583a4f013beea80fc7758de4f36efdeb9eb27567be335e",
    "relay_fraction=1/seed2/observations.csv":
        "3845af809a960fd947d94f4a6e8dbee3fbeeaf1b8769d50cf1545f942aa61d20",
    "relay_fraction=1/seed2/overhead.csv":
        "8a75f2ae4bb672cfb76bf7fe264da8c76c4fa04995df2c65dd634c3f8e34aa4e",
    "summary.csv":
        "6a95356983489cc314582a111054dcecfce4a9a010b611805d025bb91901e79b",
}

# the C12 four-arm crossing, written in both report formats
CROSSING_DIGESTS = {
    "candidate_sets.jsonl":
        "805f09b1c55dcbc8a16e507315839fb463b3bd424bd573fe9d490add633db00e",
    "events.jsonl":
        "14edcaf97bc92953ee0ceabb89b991478c598c69c8f97283e433d9ad2df6fd12",
    "linkability.csv":
        "e56694fc1a78e8d66ebb72303d9a0e9bf753e58efda04f8a1f3d9a3c2d855bcc",
    "linkability.json":
        "ae9141e7320e2df9e4fb26fb81bce98c90389e6bbd24d7d19a4050ab6f54d7ae",
    "observations.csv":
        "1c9683c3789a6eda51245ece559eb2db056db2defdfbf99e382400fdfd8111bf",
    "overhead.csv":
        "62bb19f32ee19d900ed8a4ba6e34f97110ee0cbf73f2d4caa76fd160b19377e7",
    "overhead.json":
        "309890e844c04969c57b2fed473229a7daaf64496cac4e654ac7674bcd0a4ca3",
}

# the baseline acceptance grid cell: 4x4 grid, 500 m spacing, 200 trips
# (synthesize_trips seed 7), 2100 s, two zones, 450 m ears, chaff and filter
# capacity 2000, relay 1.0. Its attack makes 873 road-path checks on the
# 48-edge graph.
GRID_CELL_DIGESTS = {
    "candidate_sets.jsonl":
        "1dd5043f46d3e747343cf1053f411699bcc37d323f4afed83b9052f457149376",
    "events.jsonl":
        "e9dbe75b7d5a4b3e535866e6cbecae28d60477648ce242ee912e64f038b05623",
    "linkability.csv":
        "47e17fb865eab4ee6a358739cf59c6201c5d6abf82fa99e4e8d86134143b97ba",
    "linkability.json":
        "12139686fc51f654b96f565190a93209788ff8ebafa0548186b15a4f68a9758e",
    "observations.csv":
        "94c7ab1793eac4c35a92e2b13b9d0aef6fd7d285600ec70cfc18ab23598cfd40",
    "overhead.csv":
        "9026d1d1488f9bbdbba68d20f44b6b6022bc80e1c09e9b34a9655efed73c9199",
    "overhead.json":
        "2dffcc2626a2ef164b16e3cadd7eb716cd973f487f179f768ec798f97e8aac2b",
}

# a multi-zone cell where vehicles pass filters to each other: 5x5 grid,
# three zones with 250 m RSU ranges, 60 trips (synthesize_trips seed 11),
# 300 s, relay 0.5, non-coop 0.2, 0.5 s adverts on 1 s beacons, so only
# every other tick is a beacon tick
MULTI_ZONE_DIGESTS = {
    "candidate_sets.jsonl":
        "0aa72c0cbd0226438288adacb20b13c7935e88874b801be954e2545414bfa581",
    "events.jsonl":
        "53e82b5120d1c19de6b6c60c7f9408ab9804a2dfa824b9b8c51e9886565050fb",
    "linkability.csv":
        "f2fae5130b6434e8ad637c809cafcfd710c426af984809eb5a44a72f6ec816cd",
    "linkability.json":
        "a8373c15bf07e17c72658d236cb9901ecf263ca7f562c127e0d832f2ce609ae0",
    "observations.csv":
        "f147de0740886666a62c50b31aaa34a8be30608cd6044c0bcc381c9417e40683",
    "overhead.csv":
        "9cb78662712ffdc27f1cd35ab26ab9b74fa9dbcde1d743fe687c543d80a9cf97",
    "overhead.json":
        "06e28453aa5f1a8c9b8b945706158b0d1402380e7e23bc3ff91119f06ec1604f",
}

# the undefended baseline: 4x4 grid, two 100 m zones, 80 trips
# (synthesize_trips seed 13), 600 s, relay 0.0, so no decoy stream ever
# runs and most ticks hold only periodic records
RELAY0_DIGESTS = {
    "candidate_sets.jsonl":
        "b457403a1b640ebba9d72787e788e64e24708ebc8df07e722babf7b6d816a5ef",
    "events.jsonl":
        "dd7218c0890a5a9875c9255bdd43af55ce187535efd4cf3f53b68b067513d14d",
    "linkability.csv":
        "ca31b8f6fa5070b3eb2acb6fa519e60371c4f8a51772b3f959dd393a28d56e14",
    "linkability.json":
        "33c5439bdb1759613d9e50b965fce5edd91f697bf4fa8865769418edc0a2f6e4",
    "observations.csv":
        "c6e7add9bb686822f1b4871f932ed63a85942e9d82f35a84d42e549f5186fe93",
    "overhead.csv":
        "86416d1a4e84e9e8f1ae5af1858fd3b5adc52b1dbdd92276ac35f63d17d12fa0",
    "overhead.json":
        "2f582b0010f9999b84a686bd8dc8246bf68d3ede116a0c2f9ffee18af57a8053",
}

CRUISE = 13.89
ARMS = (
    ("j0_1__j1_1", "j1_1__j2_1"),
    ("j2_1__j1_1", "j1_1__j0_1"),
    ("j1_0__j1_1", "j1_1__j1_2"),
    ("j1_2__j1_1", "j1_1__j1_0"),
)


def _digests(base: Path) -> dict[str, str]:
    # manifest.json embeds the output path and is metadata, not a report
    return {
        p.relative_to(base).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(base.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }


def _write_reports(cfg: ScenarioConfig, label: str, out: Path) -> RunResult:
    """Run one scenario, write every report file in both formats as
    `decoymix run` builds them and return the run."""
    result = run(cfg)
    sets, link_rep, over_rep = cell_reports(result)
    # the column fold agrees with the reference fold over the dict view
    assert over_rep == overhead(result.events, cfg.duration_s)
    with open(out / "events.jsonl", "w", encoding="utf-8") as fh:
        result.export_events(fh)
    with open(out / "observations.csv", "w", encoding="utf-8") as fh:
        result.export_observations(fh)
    with open(out / "candidate_sets.jsonl", "w", encoding="utf-8") as fh:
        export_candidate_sets(sets, fh)
    with open(out / "linkability.csv", "w", encoding="utf-8") as fh:
        write_linkability_csv({label: link_rep}, fh)
    with open(out / "overhead.csv", "w", encoding="utf-8") as fh:
        write_overhead_csv(over_rep, fh)
    (out / "linkability.json").write_text(link_rep.to_json(), encoding="utf-8")
    (out / "overhead.json").write_text(over_rep.to_json(), encoding="utf-8")
    return result


def sweep_scenario(out: Path) -> Path:
    """Write the test_c14 sweep's scenario into out; returns its path."""
    assert main([
        "gen-grid", "--rows", "3", "--cols", "3", "--spacing", "500",
        "--zones", "1", "--vehicles", "12", "--arrival-rate", "0.1",
        "--duration", "240", "--out", str(out),
    ]) == 0
    return out / "scenario.json"


def crossing_config() -> ScenarioConfig:
    return ScenarioConfig(
        graph=make_grid(3, 3, 500.0),
        zones=(ZoneSpec("z-c", 500.0, 500.0, 100.0),),
        eavesdroppers=(EavesdropperSpec("eav-c", 500.0, 500.0, 600.0),),
        trips=tuple(
            Trip(f"veh-{i}", 0.0, edges, (CRUISE, CRUISE), 4.5)
            for i, edges in enumerate(ARMS)
        ),
        relay_fraction=1.0, rng_seed=0, duration_s=180.0,
    )


def grid_cell_config() -> ScenarioConfig:
    g = make_grid(4, 4, 500.0)
    return ScenarioConfig(
        graph=g,
        zones=(
            ZoneSpec("z-j1_1", 500.0, 500.0, 100.0),
            ZoneSpec("z-j1_2", 1000.0, 500.0, 100.0),
        ),
        eavesdroppers=(
            EavesdropperSpec("eav-j1_1", 500.0, 500.0, 450.0),
            EavesdropperSpec("eav-j1_2", 1000.0, 500.0, 450.0),
        ),
        trips=tuple(synthesize_trips(g, 200, 0.1, 7)),
        relay_fraction=1.0, rng_seed=0, duration_s=2100.0,
        chaff_per_zone=2000, filter_capacity=2000,
    )


def multi_zone_config() -> ScenarioConfig:
    g = make_grid(5, 5, 500.0)
    return ScenarioConfig(
        graph=g,
        zones=(
            ZoneSpec("z-a", 500.0, 500.0, 100.0),
            ZoneSpec("z-b", 1500.0, 1000.0, 100.0),
            ZoneSpec("z-c", 1000.0, 1500.0, 100.0),
        ),
        eavesdroppers=(
            EavesdropperSpec("eav-a", 500.0, 500.0, 400.0),
            EavesdropperSpec("eav-b", 1500.0, 1000.0, 400.0),
        ),
        trips=tuple(synthesize_trips(g, 60, 0.5, 11)),
        relay_fraction=0.5, non_coop_fraction=0.2, rng_seed=5,
        duration_s=300.0, rsu_range_m=250.0, gamma_v_s=1.0, gamma_mz_s=0.5,
        chaff_per_zone=300, filter_capacity=400,
    )


def relay0_config() -> ScenarioConfig:
    """The undefended relay-0 cell whose digests RELAY0_DIGESTS holds."""
    g = make_grid(4, 4, 500.0)
    return ScenarioConfig(
        graph=g,
        zones=(
            ZoneSpec("z-j1_1", 500.0, 500.0, 100.0),
            ZoneSpec("z-j1_2", 1000.0, 500.0, 100.0),
        ),
        eavesdroppers=(
            EavesdropperSpec("eav-j1_1", 500.0, 500.0, 450.0),
            EavesdropperSpec("eav-j1_2", 1000.0, 500.0, 450.0),
        ),
        trips=tuple(synthesize_trips(g, 80, 0.2, 13)),
        relay_fraction=0.0, rng_seed=2, duration_s=600.0,
    )


def test_run_command_report_digests(tmp_path):
    scen = sweep_scenario(tmp_path / "scen")
    out = tmp_path / "out"
    assert main([
        "run", "--scenario", str(scen),
        "--seeds", "1..2", "--sweep", "relay_fraction=0,1.0",
        "--out", str(out),
    ]) == 0
    assert _digests(out) == RUN_DIGESTS
    # each summary row holds the mean and std over seeds of the library's
    # rate over each run's scored changes
    base = ScenarioConfig.from_file(scen)
    for line in (out / "summary.csv").read_text().splitlines()[1:]:
        relay, _, mean, std = line.split(",")
        rates = []
        for seed in (1, 2):
            result = run(base.replaced(rng_seed=seed, relay_fraction=float(relay)))
            sets, _, _ = attack_result(result)
            rates.append(success_rate(scored_sets(result.transitions, sets)))
        assert (mean, std) == (f"{fmean(rates):.6f}", f"{stdev(rates):.6f}")


def test_four_arm_crossing_report_digests(tmp_path):
    _write_reports(crossing_config(), "crossing", tmp_path)
    assert _digests(tmp_path) == CROSSING_DIGESTS


def test_baseline_grid_cell_report_digests(tmp_path):
    _write_reports(grid_cell_config(), "grid", tmp_path)
    assert _digests(tmp_path) == GRID_CELL_DIGESTS


def test_multi_zone_peer_cell_report_digests(tmp_path):
    result = _write_reports(multi_zone_config(), "multizone", tmp_path)
    # the paths this cell is here for: peer deliveries, RSU-sent decoys
    # and vehicles holding two or more zone filters
    events = result.events
    assert any(e["type"] == "peer_filter" for e in events)
    assert any(
        e["type"] == "decoy_start" and e["source"] == "rsu" for e in events
    )
    held: dict[str, set[str]] = {}
    for e in events:
        if e["type"] == "filter_delivered":
            held.setdefault(e["vehicle"], set()).add(e["zone"])
    assert max(len(zones) for zones in held.values()) >= 2
    assert _digests(tmp_path) == MULTI_ZONE_DIGESTS


def test_relay0_cell_report_digests(tmp_path):
    result = _write_reports(relay0_config(), "relay0", tmp_path)
    events = result.events
    # no decoys, and filters reach vehicles by all three routes
    assert not any(e["type"] == "decoy_start" for e in events)
    assert {
        e["via"] for e in events if e["type"] == "filter_delivered"
    } == {"join", "rsu", "peer"}
    assert any(e["type"] == "peer_filter" for e in events)
    assert _digests(tmp_path) == RELAY0_DIGESTS

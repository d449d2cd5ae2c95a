"""Frozen sha256 digests of every report file for two fixed scenarios.

Refactors must reproduce these bytes exactly. A change that moves a digest on
purpose updates the table here and says in CHANGES.md which files moved and
why.
"""
from __future__ import annotations

import hashlib
from pathlib import Path

from decoymix.adversary import export_candidate_sets
from decoymix.cli import attack_result, main
from decoymix.engine import EavesdropperSpec, ScenarioConfig, ZoneSpec, run
from decoymix.metrics import (
    build_linkability_report,
    overhead,
    write_linkability_csv,
    write_overhead_csv,
)
from decoymix.mobility import Trip
from decoymix.roads import make_grid

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


def test_run_command_report_digests(tmp_path):
    scen = tmp_path / "scen"
    assert main([
        "gen-grid", "--rows", "3", "--cols", "3", "--spacing", "500",
        "--zones", "1", "--vehicles", "12", "--arrival-rate", "0.1",
        "--duration", "240", "--out", str(scen),
    ]) == 0
    out = tmp_path / "out"
    assert main([
        "run", "--scenario", str(scen / "scenario.json"),
        "--seeds", "1..2", "--sweep", "relay_fraction=0,1.0",
        "--out", str(out),
    ]) == 0
    assert _digests(out) == RUN_DIGESTS


def test_four_arm_crossing_report_digests(tmp_path):
    cfg = ScenarioConfig(
        graph=make_grid(3, 3, 500.0),
        zones=(ZoneSpec("z-c", 500.0, 500.0, 100.0),),
        eavesdroppers=(EavesdropperSpec("eav-c", 500.0, 500.0, 600.0),),
        trips=tuple(
            Trip(f"veh-{i}", 0.0, edges, (CRUISE, CRUISE), 4.5)
            for i, edges in enumerate(ARMS)
        ),
        relay_fraction=1.0, rng_seed=0, duration_s=180.0,
    )
    result = run(cfg)
    sets, chains, tracks = attack_result(result)
    link_rep = build_linkability_report(
        result.transitions, sets, chains, tracks, result.events
    )
    over_rep = overhead(result.events, cfg.duration_s)
    with open(tmp_path / "events.jsonl", "w", encoding="utf-8") as fh:
        result.export_events(fh)
    with open(tmp_path / "observations.csv", "w", encoding="utf-8") as fh:
        result.export_observations(fh)
    with open(tmp_path / "candidate_sets.jsonl", "w", encoding="utf-8") as fh:
        export_candidate_sets(sets, fh)
    with open(tmp_path / "linkability.csv", "w", encoding="utf-8") as fh:
        write_linkability_csv({"crossing": link_rep}, fh)
    with open(tmp_path / "overhead.csv", "w", encoding="utf-8") as fh:
        write_overhead_csv(over_rep, fh)
    (tmp_path / "linkability.json").write_text(link_rep.to_json(), encoding="utf-8")
    (tmp_path / "overhead.json").write_text(over_rep.to_json(), encoding="utf-8")
    assert _digests(tmp_path) == CROSSING_DIGESTS

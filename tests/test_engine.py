from __future__ import annotations

import io
import json
import random

import pytest

from decoymix.core import Credential, CredentialKind, sign
from decoymix.engine import (
    BEACON_WIRE_BYTES,
    ENCRYPTED_BEACON_WIRE_BYTES,
    OBSERVATION_HEADER,
    EavesdropperSpec,
    ScenarioConfig,
    ZoneSpec,
    _build_stream_poses,
    accept_peer_filter,
    audit_ground_truth,
    audit_observability,
    audit_single_pseudonym,
    choose_filter_responder,
    chunk_delivery_latency,
    run,
)
from decoymix.errors import ConfigError, NoResponder
from decoymix.mixzone import DecoyPlan
from decoymix.mobility import Trip
from decoymix.roads import make_grid


def straight_trip(vid="veh-000", depart=0.0, speed=10.0, length=4.5):
    """South-to-north through the zone at j1_1."""
    return Trip(
        vid, depart,
        ("j0_1__j1_1", "j1_1__j2_1", "j2_1__j3_1"),
        (speed, speed, speed),
        length,
    )


def one_zone_config(grid4, **kw):
    defaults = dict(
        graph=grid4,
        zones=(ZoneSpec("z-a", 500.0, 500.0, 100.0),),
        eavesdroppers=(EavesdropperSpec("eav-0", 500.0, 500.0, 250.0),),
        trips=(straight_trip(),),
        duration_s=200.0,
        rng_seed=3,
    )
    defaults.update(kw)
    return ScenarioConfig(**defaults)


# --- configuration ----------------------------------------------------------

def test_config_rejects_nonstandard_beacon_interval(grid4):
    with pytest.raises(ConfigError):
        one_zone_config(grid4, gamma_v_s=0.3).validate()


def test_config_rejects_out_of_range_fractions(grid4):
    with pytest.raises(ConfigError):
        one_zone_config(grid4, relay_fraction=1.5).validate()
    with pytest.raises(ConfigError):
        one_zone_config(grid4, non_coop_fraction=-0.1).validate()


def test_config_rejects_zone_wider_than_rsu_range(grid4):
    cfg = one_zone_config(grid4, zones=(ZoneSpec("z-a", 500.0, 500.0, 700.0),))
    with pytest.raises(ConfigError):
        cfg.validate()


def test_config_rejects_duplicate_ids(grid4):
    cfg = one_zone_config(
        grid4,
        zones=(ZoneSpec("z-a", 500.0, 500.0, 100.0), ZoneSpec("z-a", 1000.0, 1000.0, 100.0)),
    )
    with pytest.raises(ConfigError):
        cfg.validate()


def test_config_from_file_round_trip(grid4, tmp_path):
    grid4.save(tmp_path / "net.json")
    doc = {
        "graph_file": "net.json",
        "traffic": {"n_vehicles": 5, "arrival_rate_per_s": 0.5},
        "zones": [
            {"zone_id": "z-a", "center_x_m": 500.0, "center_y_m": 500.0, "radius_m": 100.0}
        ],
        "eavesdroppers": [
            {"eaves_id": "eav-0", "x_m": 500.0, "y_m": 500.0, "range_m": 250.0}
        ],
        "gamma_v_s": 0.5,
        "relay_fraction": 0.25,
        "duration_s": 120.0,
        "rng_seed": 11,
    }
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(doc))
    cfg = ScenarioConfig.from_file(p)
    assert cfg.relay_fraction == 0.25
    assert cfg.zones[0].radius_m == 100.0
    assert cfg.eavesdroppers[0].range_m == 250.0
    assert len(cfg.resolve_trips()) == 5


def test_config_from_file_rejects_unknown_keys(grid4, tmp_path):
    grid4.save(tmp_path / "net.json")
    doc = {
        "graph_file": "net.json",
        "traffic": {"n_vehicles": 1},
        "zones": [
            {"zone_id": "z-a", "center_x_m": 500.0, "center_y_m": 500.0, "radius_m": 100.0}
        ],
        "beacon_rate_hz": 2,
    }
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ConfigError):
        ScenarioConfig.from_file(p)


def test_resolve_trips_is_deterministic(grid4):
    cfg = one_zone_config(grid4, trips=None, n_vehicles=8, arrival_rate_per_s=1.0)
    assert cfg.resolve_trips() == cfg.resolve_trips()


# --- chunk latency closed form ---------------------------------------------

def test_chunk_latency_single_chunk_aligned():
    assert chunk_delivery_latency(14_981, 50_000.0, 1.0, 0.0) == 1.0


def test_chunk_latency_three_chunks_aligned():
    assert chunk_delivery_latency(149_770, 50_000.0, 1.0, 0.0) == 3.0


def test_chunk_latency_mid_cycle_waits_for_wraparound():
    assert chunk_delivery_latency(149_770, 50_000.0, 1.0, 1.0) == 5.0


def test_chunk_latency_sub_interval_offset():
    # 2-chunk cycle, arriving 0.5 s in: 1.5 s to wrap + full 2 s cycle
    assert chunk_delivery_latency(74_885, 50_000.0, 1.0, 0.5) == 3.5


# --- peer exchange helpers --------------------------------------------------

def test_choose_filter_responder_lowest_id_wins():
    holders = [("v9", 4), ("v2", 3), ("v5", 4)]
    assert choose_filter_responder(holders, 2) == "v2"
    assert choose_filter_responder(holders, 3) == "v5"


def test_choose_filter_responder_requires_strictly_newer():
    with pytest.raises(NoResponder):
        choose_filter_responder([("v1", 2), ("v2", 2)], 2)
    with pytest.raises(NoResponder):
        choose_filter_responder([], 0)


def test_accept_peer_filter_rejects_tampering():
    pca = Credential(b"\x05" * 16, CredentialKind.LONG_TERM, "root", "pca", 0.0, 1e6)
    env = sign(b"filter-image", pca, now=1.0)
    assert accept_peer_filter(env, pca, now=2.0)
    forged = type(env)(b"filter-imagX", env.signer, env.signature_tag)
    assert not accept_peer_filter(forged, pca, now=2.0)


# --- single-vehicle run, baseline mode --------------------------------------

def test_single_trip_changes_pseudonym_across_zone(grid4):
    res = run(one_zone_config(grid4))
    assert len(res.transitions) == 1
    tr = res.transitions[0]
    assert tr.vehicle_id == "veh-000"
    assert tr.zone_id == "z-a"
    assert tr.old_id != tr.new_id
    assert tr.t_entry == pytest.approx(40.0)
    assert tr.entry_observed and tr.exit_observed

    pids = {row[1] for row in res.observations["eav-0"]}
    assert pids == {tr.old_id, tr.new_id}
    # old id only before entry, new id only after exit
    for row in res.observations["eav-0"]:
        if row[1] == tr.old_id:
            assert row[0] < tr.t_entry
        else:
            assert row[0] >= tr.t_exit


def test_no_observations_inside_zone(grid4):
    res = run(one_zone_config(grid4))
    assert audit_observability(res) == []
    # in-zone ticks still produce encrypted traffic
    enc = [e for e in res.events if e["type"] == "beacon_encrypted"]
    assert enc and all(e["bytes"] == ENCRYPTED_BEACON_WIRE_BYTES for e in enc)


def test_position_rounding_onto_zone_boundary_counts_as_inside(grid4):
    # 30 us late: at t=40.0 the vehicle is at y=399.9997, 0.3 mm outside the
    # disk, but its beacon would carry y=400.0, on the boundary
    res = run(one_zone_config(
        grid4, trips=(straight_trip(depart=3e-5),), relay_fraction=1.0,
    ))
    assert res.transitions[0].t_entry == 40.0
    at_40 = [e["type"] for e in res.events
             if e["t"] == 40.0 and e.get("tx") == "veh-000"]
    assert "beacon_encrypted" in at_40 and "beacon" not in at_40
    assert audit_observability(res) == []


def test_decoy_stops_where_its_published_pose_enters_a_zone(grid4):
    chaff = Credential(bytes(16), CredentialKind.CHAFF_PSEUDONYM, "pca", None,
                       0.0, 100.0)
    plan = DecoyPlan("z-a", chaff, 4.5, "j1_1__j2_1", 99.9996, 0.0, 10.0, "rsu")
    # poses run north from y=600.0006; the second disk's edge is y=620.0008,
    # so the pose at y=620.0006 lies 0.2 mm outside but is published as
    # y=620.001, inside
    disks = [(500.0, 500.0, 100.0 ** 2), (500.0, 800.0, 179.9992 ** 2)]
    poses, reason = _build_stream_poses(
        grid4, plan, disks, random.Random(0), 5, 100
    )
    assert sorted(poses) == [0, 5, 10, 15]
    assert reason == "zone_entry"


def test_baseline_run_emits_no_decoys(grid4):
    res = run(one_zone_config(grid4, relay_fraction=0.0))
    assert not [e for e in res.events if e["type"] == "decoy_start"]


def test_non_coop_vehicle_keeps_pseudonym(grid4):
    res = run(one_zone_config(grid4, non_coop_fraction=1.0))
    assert res.transitions == []
    assert not [e for e in res.events if e["type"] == "pseudonym_change"]
    # it still joins the zone (encryption compliance)
    assert [e for e in res.events if e["type"] == "join_request"]
    pids = {row[1] for row in res.observations["eav-0"]}
    assert len(pids) == 1


def test_relay_run_starts_and_retires_decoy(grid4):
    res = run(one_zone_config(grid4, relay_fraction=1.0))
    starts = [e for e in res.events if e["type"] == "decoy_start"]
    retires = [e for e in res.events if e["type"] == "retire"]
    ends = [e for e in res.events if e["type"] == "decoy_end"]
    assert len(starts) == 1 and starts[0]["source"] == "relay"
    assert starts[0]["tx"] == "veh-000"
    assert len(retires) == 1 and len(ends) == 1
    # phantom id appears in the observation log alongside the real ids
    chaff_id = starts[0]["chaff"]
    assert any(row[1] == chaff_id for row in res.observations["eav-0"])
    assert res.audit_violations == []


def test_decoy_length_mirrors_member_length(grid4):
    res = run(one_zone_config(grid4, relay_fraction=1.0,
                              trips=(straight_trip(length=7.5),)))
    start = next(e for e in res.events if e["type"] == "decoy_start")
    assert start["length"] == 7.5


def test_chaff_link_id_differs_from_vehicle_link(grid4):
    res = run(one_zone_config(grid4, relay_fraction=1.0))
    links = {}
    for e in res.events:
        if e["type"] == "beacon":
            links.setdefault(e["pseudonym"], set()).add(e["link"])
    # one link id per pseudonym stream, all distinct
    assert all(len(v) == 1 for v in links.values())
    flat = [next(iter(v)) for v in links.values()]
    assert len(set(flat)) == len(flat)


# --- filter dissemination ---------------------------------------------------

def test_rsu_delivers_filter_within_one_cycle(grid4):
    res = run(one_zone_config(grid4))
    dels = [e for e in res.events if e["type"] == "filter_delivered"]
    assert dels[0]["via"] == "rsu"
    assert dels[0]["t"] == pytest.approx(1.0)
    assert dels[0]["latency_s"] == pytest.approx(1.0)


def test_join_response_carries_current_filters(grid4):
    # vehicle spawns outside RSU range and reaches the zone before any chunk
    # cycle completes there: the join itself must deliver the filter
    trip = Trip(
        "veh-000", 0.0,
        ("j3_0__j2_0", "j2_0__j2_1", "j2_1__j1_1", "j1_1__j0_1"),
        (10.0, 10.0, 10.0, 10.0), 4.5,
    )
    cfg = one_zone_config(
        grid4, trips=(trip,), rsu_range_m=600.0,
        zones=(ZoneSpec("z-a", 500.0, 500.0, 100.0),),
    )
    res = run(cfg)
    dels = [e for e in res.events if e["type"] == "filter_delivered"]
    assert dels, "filter must arrive by join even without chunk reception"


def test_chunk_events_cycle_through_indices(grid4):
    res = run(one_zone_config(grid4, filter_bandwidth_bytes_per_s=9000.0))
    chunks = [e for e in res.events if e["type"] == "chunk"][:4]
    total = chunks[0]["total"]
    assert total == 2
    assert [c["index"] for c in chunks] == [0, 1, 0, 1]


def test_peer_exchange_fills_gap_outside_rsu_range(grid4):
    # veh-far never comes near the RSU (range shrunk to 150 m); veh-near joins
    # the zone at spawn, keeps the filter, and passes veh-far around x=1000
    near = Trip("veh-near", 0.0, ("j1_1__j1_2", "j1_2__j1_3"), (10.0, 10.0), 4.5)
    far = Trip("veh-far", 0.0, ("j0_2__j1_2", "j1_2__j2_2"), (10.0, 10.0), 4.5)
    cfg = ScenarioConfig(
        graph=grid4,
        zones=(ZoneSpec("z-a", 500.0, 500.0, 100.0),),
        trips=(near, far),
        rsu_range_m=150.0,
        vehicle_radio_range_m=300.0,
        duration_s=150.0,
        rng_seed=1,
    )
    res = run(cfg)
    peer = [e for e in res.events if e["type"] == "peer_filter"]
    assert peer
    assert peer[0]["tx"] == "veh-near" and peer[0]["rx"] == "veh-far"
    dels = [
        e for e in res.events
        if e["type"] == "filter_delivered" and e["vehicle"] == "veh-far"
    ]
    assert dels[0]["via"] == "peer"


# --- sparse-traffic RSU chaff ----------------------------------------------

def test_sparse_zone_gets_rsu_stream_per_lone_member(grid4):
    # relay machinery on (vanishing fraction) but no relays selected
    res = run(one_zone_config(grid4, relay_fraction=1e-9))
    starts = [e for e in res.events if e["type"] == "decoy_start"]
    assert len(starts) == 1
    assert starts[0]["source"] == "rsu"
    assert starts[0]["tx"] == "rsu:z-a"


def test_sparse_stream_suppressed_when_machinery_off(grid4):
    res = run(one_zone_config(grid4, relay_fraction=0.0))
    assert not [e for e in res.events if e["type"] == "decoy_start"]


# --- determinism and audits --------------------------------------------------

def mixed_config(grid4, **kw):
    defaults = dict(
        graph=grid4,
        zones=(
            ZoneSpec("z-a", 500.0, 500.0, 100.0),
            ZoneSpec("z-b", 1000.0, 1000.0, 100.0),
        ),
        eavesdroppers=(
            EavesdropperSpec("eav-0", 500.0, 500.0, 250.0),
            EavesdropperSpec("eav-1", 1000.0, 1000.0, 250.0),
        ),
        n_vehicles=40,
        arrival_rate_per_s=1.0,
        relay_fraction=0.5,
        non_coop_fraction=0.2,
        duration_s=240.0,
        rng_seed=21,
    )
    defaults.update(kw)
    return ScenarioConfig(**defaults)


def test_identical_seed_gives_identical_run(grid4):
    cfg = mixed_config(grid4)
    a = run(cfg)
    b = run(cfg)
    assert a.events == b.events
    assert a.observations == b.observations
    assert [vars(t) for t in a.transitions] == [vars(t) for t in b.transitions]


def test_audits_pass_on_mixed_scenario(grid4):
    res = run(mixed_config(grid4))
    assert res.audit_violations == []
    assert audit_observability(res) == []
    assert audit_single_pseudonym(res) == []
    assert audit_ground_truth(res) == []


def test_relay_stream_ends_at_next_zone_entry(grid4):
    # relay crosses z-a then z-b; its z-a phantom must stop at the z-b door
    trip = Trip(
        "veh-000", 0.0,
        ("j0_1__j1_1", "j1_1__j1_2", "j1_2__j2_2", "j2_2__j2_3"),
        (10.0, 10.0, 10.0, 10.0), 4.5,
    )
    cfg = mixed_config(
        grid4, trips=(trip,), n_vehicles=0, relay_fraction=1.0,
        non_coop_fraction=0.0,
    )
    res = run(cfg)
    ends = [e for e in res.events if e["type"] == "decoy_end" and e["zone"] == "z-a"]
    assert ends and ends[0]["reason"] == "transmitter_zone_entry"
    entry = next(
        e["t"] for e in res.events
        if e["type"] == "join_request" and e["zone"] == "z-b"
    )
    assert ends[0]["t"] == pytest.approx(entry)


def test_event_log_sorted_and_reception_counters_integral(grid4):
    res = run(mixed_config(grid4))
    times = [e["t"] for e in res.events]
    assert times == sorted(times)
    recs = [e for e in res.events if e["type"] == "reception_summary"]
    assert recs
    for r in recs[:50]:
        assert isinstance(r["rx_beacons"], int)
        assert r["rx_bytes"] >= r["rx_beacons"] * BEACON_WIRE_BYTES


def test_hbc_flag_counts_follow_fraction(grid4):
    for frac, expect in ((0.0, 0), (0.5, 1), (1.0, 2)):
        res = run(mixed_config(grid4, n_vehicles=1, hbc_rsu_fraction=frac,
                               duration_s=30.0))
        assert sum(z.hbc for z in res.zones) == expect
    # deterministic: the first zone in id order is flagged at 0.5
    res = run(mixed_config(grid4, n_vehicles=1, hbc_rsu_fraction=0.5,
                           duration_s=30.0))
    assert [z.hbc for z in res.zones] == [True, False]


# --- exports -----------------------------------------------------------------

def test_observation_export_format(grid4):
    res = run(one_zone_config(grid4))
    buf = io.StringIO()
    res.export_observations(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == OBSERVATION_HEADER
    first = lines[1].split(",")
    assert len(first) == 8
    float(first[0]); float(first[2]); float(first[3])
    assert first[7] == "eav-0"
    # byte-stable across identical runs
    buf2 = io.StringIO()
    run(one_zone_config(grid4)).export_observations(buf2)
    assert buf.getvalue() == buf2.getvalue()


def test_observation_export_carries_no_ground_truth(grid4):
    # the adversary's only input: eight columns, none of them the emitter,
    # the link-layer id or the chaff flag
    res = run(one_zone_config(grid4, relay_fraction=1.0))
    buf = io.StringIO()
    res.export_observations(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == OBSERVATION_HEADER
    assert lines[0].split(",") == [
        "time", "pseudonym_id", "x", "y", "speed", "heading", "length",
        "eavesdropper_id",
    ]
    beacons = [e for e in res.events if e["type"] == "beacon"]
    assert any(e["chaff"] for e in beacons) and any(not e["chaff"] for e in beacons)
    hidden = {e["tx"] for e in beacons} | {e["link"] for e in beacons}
    hidden |= {"True", "False", "true", "false"}
    cells = [line.split(",") for line in lines[1:]]
    assert cells and all(len(row) == 8 for row in cells)
    assert not {c for row in cells for c in row} & hidden
    # decoy rows are there, indistinguishable by column
    chaff_ids = {e["pseudonym"] for e in beacons if e["chaff"]}
    assert chaff_ids & {row[1] for row in cells}


def test_event_export_is_json_lines(grid4):
    res = run(one_zone_config(grid4, duration_s=50.0))
    buf = io.StringIO()
    res.export_events(buf)
    rows = [json.loads(line) for line in buf.getvalue().splitlines()]
    assert len(rows) == len(res.events)
    assert all("type" in r and "t" in r for r in rows)

from __future__ import annotations

import copy
import io
import json
import math
import random
from dataclasses import replace
from types import SimpleNamespace
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decoymix import engine, mixzone
from decoymix.chaff_filter import ChaffFilter, new_filter
from decoymix.core import (
    ENCRYPTION_OVERHEAD_BYTES,
    PSEUDONYM_WIRE_BYTES,
    SESSION_KEY_BYTES,
    Credential,
    CredentialKind,
)
from decoymix.engine import (
    BEACON_WIRE_BYTES,
    ENCRYPTED_BEACON_WIRE_BYTES,
    RECEPTION_COUNTERS,
    _build_stream_poses,
    _Run,
    audit_ground_truth,
    audit_observability,
    audit_single_pseudonym,
    choose_filter_responder,
    chunk_delivery_latency,
    run,
)
from decoymix.errors import ConfigError, NoResponder
from decoymix.eventlog import OBSERVATION_HEADER, count_type
from decoymix.metrics import PEER_QUERY_BYTES
from decoymix.mixzone import ADVERT_PAYLOAD_BYTES, DecoyPlan, MixZoneController
from decoymix.mobility import Trip, synthesize_trips, trip_samples_with_edges
from decoymix.roads import Edge, RoadGraph, make_grid, polyline_length
from decoymix.scenario import EavesdropperSpec, ScenarioConfig, ZoneSpec

import test_golden
from test_roads import dead_end_crossing


def heard_by(result, eid):
    """The observation rows of one eavesdropper, in table order."""
    obs = result.observations
    return [obs.row(i) for i in np.flatnonzero(np.array(obs.names)[obs.eaves] == eid)]


def assert_same_observations(a, b):
    assert a.names == b.names
    for col in ("t", "pseudonym", "x", "y", "speed", "heading", "length", "eaves"):
        np.testing.assert_array_equal(getattr(a, col), getattr(b, col))


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


def test_config_rejects_empty_zones(grid4):
    # from_dict refuses an empty zones list; the Python API must too
    with pytest.raises(ConfigError):
        one_zone_config(grid4, zones=()).validate()


def test_config_from_file_round_trip(grid4, tmp_path):
    (tmp_path / "net.json").write_text(grid4.to_json(), encoding="utf-8")
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
    assert len(engine.resolve_trips(cfg)) == 5


def test_config_from_file_rejects_unknown_keys(grid4, tmp_path):
    (tmp_path / "net.json").write_text(grid4.to_json(), encoding="utf-8")
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


VALID_SCENARIO = {
    "graph_file": "net.json",
    "traffic": {"n_vehicles": 5, "arrival_rate_per_s": 0.5},
    "zones": [
        {"zone_id": "z-a", "center_x_m": 500.0, "center_y_m": 500.0, "radius_m": 100.0},
        {"zone_id": "z-b", "center_x_m": 1000.0, "center_y_m": 500.0, "radius_m": 80},
    ],
    "eavesdroppers": [
        {"eaves_id": "eav-0", "x_m": 500.0, "y_m": 500.0, "range_m": 250.0}
    ],
    "gamma_v_s": 0.5,
    "gamma_mz_s": 1.0,
    "relay_fraction": 0.25,
    "filter_tx_interval_s": 1.0,
    "duration_s": 120.0,
    "rng_seed": 11,
    "chaff_per_zone": 20,
}

# any JSON value, a little nested, and numbers at the edges of what each
# field takes: non-finite, negative, zero, huge, bool, numeric strings
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
_EDGE_VALUES = st.sampled_from([
    math.nan, math.inf, -math.inf, -1, -0.5, 0, 0.0, 1e-300, 1e308, 2 ** 64,
    -(2 ** 70), 10 ** 400, -(10 ** 400), True, False, "1.0", "", ".",
    "net.json", "missing.json",
    "net.json\x00", [], {}, None,
])
# three edits in four use an edge value
_VALUES = st.integers(0, 3).flatmap(lambda i: _JSON if i == 0 else _EDGE_VALUES)


def _mutate(doc: dict, data) -> None:
    """One random edit: a field of doc, of its traffic block or of a zone or
    eavesdropper object set to another value or dropped, an unknown key
    added to one of them, or a list element replaced, dropped or appended."""

    def value():  # a copy, so no edit reaches the strategy's own [] or {}
        return copy.deepcopy(data.draw(_VALUES))

    objects = [doc] + [
        node for v in doc.values()
        for node in ([v] + (v if isinstance(v, list) else []))
        if isinstance(node, dict)
    ]
    fields = [(obj, key) for obj in objects for key in sorted(obj)]
    lists = [v for v in doc.values() if isinstance(v, list)]
    edit = data.draw(st.sampled_from(("set", "set", "drop", "extra", "element")))
    if edit in ("set", "drop") and fields:
        obj, key = data.draw(st.sampled_from(fields))
        if edit == "set":
            obj[key] = value()
        else:
            del obj[key]
    elif edit == "element" and lists:
        target = data.draw(st.sampled_from(lists))
        i = data.draw(st.integers(0, len(target)))
        if i == len(target):
            target.append(value())
        elif data.draw(st.booleans()):
            del target[i]
        else:
            target[i] = value()
    else:
        data.draw(st.sampled_from(objects))[data.draw(st.text(max_size=8))] = value()


@pytest.fixture(scope="module")
def scenario_dir(grid4, tmp_path_factory):
    d = tmp_path_factory.mktemp("scenario")
    (d / "net.json").write_text(grid4.to_json(), encoding="utf-8")
    return d


def test_valid_scenario_dict_loads(scenario_dir):
    cfg = ScenarioConfig.from_dict(copy.deepcopy(VALID_SCENARIO), scenario_dir)
    assert [z.zone_id for z in cfg.zones] == ["z-a", "z-b"]


@pytest.mark.parametrize("edit", [
    {"graph_file": ""}, {"graph_file": "."},  # the scenario's own directory
    {"duration_s": 1e308}, {"gamma_mz_s": 1e308}, {"filter_tx_interval_s": 1e308},
])
def test_scenario_dict_naming_a_directory_or_overflowing_the_lattice_is_refused(
    scenario_dir, edit
):
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({**copy.deepcopy(VALID_SCENARIO), **edit}, scenario_dir)


@pytest.mark.parametrize("field", ["rsu_range_m", "duration_s"])
def test_float_field_beyond_the_float_range_is_refused(scenario_dir, field):
    # an int past 1.8e308 once loaded as an int, and the run then raised
    # OverflowError converting it
    doc = {**copy.deepcopy(VALID_SCENARIO), field: 10 ** 400}
    with pytest.raises(ConfigError, match=field):
        ScenarioConfig.from_dict(doc, scenario_dir)
    doc[field] = 600
    assert type(getattr(ScenarioConfig.from_dict(doc, scenario_dir), field)) is float


@settings(max_examples=600, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_mutated_scenario_dict_loads_or_raises_config_error(scenario_dir, data):
    doc = copy.deepcopy(VALID_SCENARIO)
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(doc, data)
    try:
        cfg = ScenarioConfig.from_dict(doc, scenario_dir)
    except ConfigError:
        return
    # accepted only with every field of its declared type, float fields as
    # floats, so the run's float arithmetic cannot overflow on an int
    for obj in (cfg, *cfg.zones, *cfg.eavesdroppers):
        for name, kind in get_type_hints(type(obj)).items():
            if kind in (int, float, str):
                assert type(getattr(obj, name)) is kind, name


def test_resolve_trips_is_deterministic(grid4):
    cfg = one_zone_config(grid4, trips=None, n_vehicles=8, arrival_rate_per_s=1.0)
    assert engine.resolve_trips(cfg) == engine.resolve_trips(cfg)


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

    pids = {row[1] for row in heard_by(res, "eav-0")}
    assert pids == {tr.old_id, tr.new_id}
    # old id only before entry, new id only after exit
    for row in heard_by(res, "eav-0"):
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
    assert poses.ds.tolist() == [0, 5, 10, 15]
    assert reason == "zone_entry"


def _phantom_trip(g, plan, route_rng, gv_ds, horizon_ds):
    """The reference phantom Trip: at constant speed from its exit edge's
    tail, 1 mm past the crossing at the plan's start, along successor
    edges drawn one at a time from route_rng until the sampler gives a
    pose at the last beacon tick, or until a dead end or a horizon before
    the first pose."""
    last = horizon_ds // gv_ds * gv_ds
    departure = plan.start_time_s - (plan.boundary_offset_m + 1e-3) / plan.speed_mps
    route = [plan.exit_edge_id]
    while True:
        trip = Trip("phantom", departure, tuple(route),
                    (plan.speed_mps,) * len(route), plan.length_m)
        t = trip_samples_with_edges(g, trip, gv_ds / 10, horizon_ds / 10).t
        if (last < engine._first_pose_ds(plan, gv_ds) or not g.next_edges(route[-1])
                or t.size and round(t[-1] * 10) == last):
            return trip
        route.append(route_rng.choice(g.next_edges(route[-1])))


def _sampled_stream_poses(g, plan, zone_disks, trip, gv_ds, horizon_ds):
    """The reference stream: trip's samples, taken tick by tick from the
    first pose, stopping at a tick the trip has ended by, at the horizon,
    or at the first pose whose published position lies in a disk.
    Returns ({ds: (x, y, speed, heading)}, reason)."""
    samples = trip_samples_with_edges(g, trip, gv_ds / 10, horizon_ds / 10)
    at = {round(t * 10): i for i, t in enumerate(samples.t.tolist())}
    poses = {}
    for ds in range(engine._first_pose_ds(plan, gv_ds), horizon_ds + 1, gv_ds):
        if ds not in at:
            return poses, "route_end"
        i = at[ds]
        x, y = float(samples.x[i]), float(samples.y[i])
        px, py = round(x, 3), round(y, 3)
        for cx, cy, r2 in zone_disks:
            dx, dy = px - cx, py - cy
            if dx * dx + dy * dy <= r2:
                return poses, "zone_entry"
        poses[ds] = (x, y, float(samples.speed[i]), float(samples.heading[i]))
    return poses, "horizon"


@pytest.mark.parametrize("g, exit_edge, horizon_ds, reason", [
    # up c__n onto the dead end n__n2, whose last point, (500, 2500), the
    # phantom reaches at t=190: its trip has arrived, so that pose is not
    # sent, whether the horizon lies past it or on it
    (dead_end_crossing(), "c__n", 2500, "route_end"),
    (dead_end_crossing(), "c__n", 1900, "route_end"),
    # its exit edge ends at t=40, on the horizon: the route goes on, so
    # the pose there is sent
    (make_grid(4, 4, 500.0), "j0_0__j0_1", 400, "horizon"),
])
def test_phantom_sends_no_pose_once_its_trip_has_arrived(g, exit_edge, horizon_ds, reason):
    # 1 mm past the crossing at t=0, 100 m along its 500 m exit edge, at 10 m/s
    plan = replace(_PLAN, exit_edge_id=exit_edge, boundary_offset_m=99.999,
                   speed_mps=10.0)
    poses, got = _build_stream_poses(g, plan, [], random.Random(0), 10, horizon_ds)
    assert got == reason
    assert poses.ds.tolist() == list(range(0, min(horizon_ds, 1890) + 1, 10))


def _bent_ring():
    """Two-way roads round a 300 m square, each a three-point polyline
    bent outward, and a spur ending at a dead end: routes revisit edges
    and cross segment ends."""
    corners = {"a": (0.0, 0.0), "b": (300.0, 0.0), "c": (300.0, 300.0),
               "d": (0.0, 300.0), "s": (-200.0, -200.0)}
    edges = []
    for u, v, bend in (("a", "b", (150.0, -40.0)), ("b", "c", (340.0, 150.0)),
                       ("c", "d", (150.0, 340.0)), ("d", "a", (-40.0, 150.0)),
                       ("a", "s", (-90.0, -110.0))):
        for tail, head, shape in ((u, v, (corners[u], bend, corners[v])),
                                  (v, u, (corners[v], bend, corners[u]))):
            # one way round, the declared length falls 0.5 um short of the
            # arc, so a pose at its end is clamped short of the last point
            short = 5e-7 if tail < head else 0.0
            edges.append(Edge(f"{tail}__{head}", tail, head, shape, 13.89,
                              polyline_length(shape) - short))
    return RoadGraph(corners, edges)


_STREAM_GRAPHS = {
    "grid": make_grid(4, 4, 500.0), "dead-end": dead_end_crossing(), "bent": _bent_ring(),
}


_PLAN = DecoyPlan(
    "z", Credential(bytes(16), CredentialKind.CHAFF_PSEUDONYM, "pca", None, 0.0, 1e6),
    4.5, "a__b", 0.0, 0.0, 1.0, "rsu",
)


@st.composite
def _stream_cases(draw):
    """A graph, a phantom launched anywhere on any edge, a beacon interval,
    a horizon (a few before the first pose) and zone disks: drawn at random,
    and one drawn through the published position of a pose the reference
    keeps, on its boundary or one ulp short of it. Some phantoms launch
    where a pose falls within a few nanometres of the end of their exit
    edge or, on the grid, of the next edge, before or past it."""
    name = draw(st.sampled_from(sorted(_STREAM_GRAPHS)))
    g = _STREAM_GRAPHS[name]
    edge = g.edges[draw(st.sampled_from(sorted(g.edges)))]
    start, speed = draw(st.floats(0.0, 60.0)), draw(st.floats(0.3, 25.0))
    gv_ds = draw(st.sampled_from([2, 5, 10]))
    offset = draw(st.floats(0.0, 1.0)) * edge.length
    if draw(st.booleans()):
        # pose j runs dist past the launch point; the grid's edges all run 500 m
        first = engine._first_pose_ds(replace(_PLAN, start_time_s=start), gv_ds)
        dist = speed * ((first + gv_ds * draw(st.integers(0, 400))) / 10.0 - start)
        dist -= 500.0 * draw(st.integers(0, 1 if name == "grid" else 0))
        nudge = draw(st.sampled_from([-2e-9, -5e-10, 0.0, 5e-10, 2e-9]))
        offset = min(max(edge.length - 1e-3 - dist + nudge, 0.0), edge.length)
    plan = replace(_PLAN, exit_edge_id=edge.id, start_time_s=start,
                   boundary_offset_m=offset, speed_mps=speed)
    horizon = engine._first_pose_ds(plan, gv_ds) + draw(st.integers(-10, 3000))
    disks = [
        (draw(st.floats(-600.0, 2200.0)), draw(st.floats(-600.0, 2200.0)),
         draw(st.floats(5.0, 300.0)) ** 2)
        for _ in range(draw(st.integers(0, 3)))
    ]
    seed = draw(st.integers(0, 2**32))
    trip = _phantom_trip(g, plan, random.Random(seed), gv_ds, horizon)
    poses, _ = _sampled_stream_poses(g, plan, disks, trip, gv_ds, horizon)
    if poses and draw(st.booleans()):
        x, y, _, _ = poses[draw(st.sampled_from(sorted(poses)))]
        px, py = round(x, 3), round(y, 3)
        cx, cy = px + draw(st.floats(-50.0, 50.0)), py + draw(st.floats(-50.0, 50.0))
        r2 = (px - cx) * (px - cx) + (py - cy) * (py - cy)
        if draw(st.booleans()):
            r2 = float(np.nextafter(r2, 0.0))
        disks.insert(draw(st.integers(0, len(disks))), (cx, cy, r2))
    return g, plan, disks, seed, gv_ds, horizon


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(case=_stream_cases())
def test_stream_poses_are_the_phantom_trips_samples_bit_for_bit(case):
    g, plan, disks, seed, gv_ds, horizon = case
    poses, reason = _build_stream_poses(g, plan, disks, random.Random(seed), gv_ds, horizon)
    trip = _phantom_trip(g, plan, random.Random(seed), gv_ds, horizon)
    want, want_reason = _sampled_stream_poses(g, plan, disks, trip, gv_ds, horizon)
    assert reason == want_reason
    assert poses.ds.dtype == np.int64 and poses.ds.tolist() == list(want)
    got = np.column_stack(poses[1:]).reshape(-1, 4)
    assert got.view(np.int64).tolist() == (
        np.array(list(want.values()), dtype=np.float64).reshape(-1, 4).view(np.int64).tolist()
    )


def test_count_type_takes_int64_at_or_above_2_31():
    assert count_type(0) is count_type(2**31 - 1) is np.int32
    assert count_type(2**31) is count_type(2**62) is np.int64


def test_reception_counters_widen_to_int64_only_past_their_bound(monkeypatch):
    # the multi-zone run's counters take int32 under a bound that holds
    # every counter and a slot's peer queries priced in bytes; a bound of
    # 2**31 takes int64, with the same counts and the same events.jsonl
    bounds = []
    real = _Run._counter_bound

    def cell(bound=None):
        def counter_bound(run_state):
            bounds.append(real(run_state))
            return bounds[-1] if bound is None else bound

        with monkeypatch.context() as m:
            m.setattr(_Run, "_counter_bound", counter_bound)
            result = run(test_golden.multi_zone_config())
        buf = io.StringIO()
        result.export_events(buf)
        return result.log.receptions, buf.getvalue()

    narrow, narrow_text = cell()
    wide, wide_text = cell(2**31)
    assert narrow.counts.dtype == np.int32 and wide.counts.dtype == np.int64
    assert narrow.counts.size and bounds[0] == bounds[1] < 2**31
    assert narrow.counts.max() <= bounds[0]
    assert narrow.count("peer_queries").max() * PEER_QUERY_BYTES <= bounds[0]
    np.testing.assert_array_equal(narrow.counts, wide.counts)
    assert narrow_text == wide_text


def test_baseline_run_emits_no_decoys(grid4):
    res = run(one_zone_config(grid4, relay_fraction=0.0))
    assert not [e for e in res.events if e["type"] == "decoy_start"]


def test_non_coop_vehicle_keeps_pseudonym(grid4):
    res = run(one_zone_config(grid4, non_coop_fraction=1.0))
    assert res.transitions == []
    assert not [e for e in res.events if e["type"] == "pseudonym_change"]
    # it still joins the zone (encryption compliance)
    assert [e for e in res.events if e["type"] == "join_request"]
    pids = {row[1] for row in heard_by(res, "eav-0")}
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
    assert any(row[1] == chaff_id for row in heard_by(res, "eav-0"))
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


def test_wire_sizes_follow_their_formulas_in_a_mixed_run():
    # three zones, relays and plain members, peer deliveries. A filter
    # travels as its serialized size, the same at every epoch: a join
    # response carries every zone's (and a relay's chaff credential), a
    # peer delivery one zone's
    cfg = test_golden.multi_zone_config()
    filt = len(new_filter(cfg.filter_capacity, cfg.filter_target_fp).serialize())
    res = run(cfg)
    joins = [e for e in res.events if e["type"] == "join_response"]
    peers = [e for e in res.events if e["type"] == "peer_filter"]
    assert {e["relay"] for e in joins} == {True, False}
    assert len({e["epoch"] for e in peers}) >= 2
    for e in joins:
        assert e["bytes"] == (
            SESSION_KEY_BYTES + len(cfg.zones) * filt
            + (PSEUDONYM_WIRE_BYTES if e["relay"] else 0) + ENCRYPTION_OVERHEAD_BYTES
        )
    for e in peers:
        assert e["bytes"] == filt + PSEUDONYM_WIRE_BYTES + ENCRYPTION_OVERHEAD_BYTES
    # an advert: centre x, y as doubles, radius and timestamp as f32, and
    # the RSU's credential. Every zone sends one at every 0.5 s tick
    assert ADVERT_PAYLOAD_BYTES == 24
    adverts = [e for e in res.events if e["type"] == "advert"]
    assert {e["bytes"] for e in adverts} == {24 + PSEUDONYM_WIRE_BYTES}
    assert len(adverts) == len(cfg.zones) * (round(cfg.duration_s / 0.5) + 1)


def test_a_run_serializes_no_filter_and_signs_no_advert(monkeypatch):
    # filters travel as (epoch, size) and adverts are logged from the
    # schedule, so neither is built during a run
    def refuse(*args, **kwargs):
        raise AssertionError("called during a run")

    monkeypatch.setattr(ChaffFilter, "serialize", refuse)
    monkeypatch.setattr(mixzone, "sign", refuse)
    res = run(test_golden.multi_zone_config().replaced(relay_fraction=1.0))
    kinds = {e["type"] for e in res.events}
    assert {"advert", "retire", "peer_filter", "join_response"} <= kinds
    assert res.audit_violations == []


def test_chunk_events_cycle_through_indices(grid4):
    res = run(one_zone_config(grid4, filter_bandwidth_bytes_per_s=9000.0))
    chunks = [e for e in res.events if e["type"] == "chunk"][:4]
    total = chunks[0]["total"]
    assert total == 2
    assert [c["index"] for c in chunks] == [0, 1, 0, 1]


def test_rsu_deliveries_follow_the_chunk_latency_closed_form(grid4):
    # relays retire chaff, so the filters pass through several epochs and
    # vehicles fall stale at every offset into a multi-chunk cycle
    bandwidth, interval = 4000.0, 1.0
    res = run(mixed_config(
        grid4, relay_fraction=1.0, filter_bandwidth_bytes_per_s=bandwidth,
    ))
    totals = {e["zone"]: e["total"] for e in res.events if e["type"] == "chunk"}
    assert min(totals.values()) >= 3
    dels = [
        e for e in res.events
        if e["type"] == "filter_delivered" and e["via"] == "rsu"
    ]
    assert len({(e["zone"], e["epoch"]) for e in dels}) >= 4
    cycles = {e["zone"]: totals[e["zone"]] * interval for e in dels}
    # some arrivals land mid-cycle and wait for the wraparound
    assert any(e["latency_s"] > cycles[e["zone"]] for e in dels)
    for e in dels:
        size = totals[e["zone"]] * bandwidth * interval
        # arrivals sit on the decisecond lattice
        arrival = round(e["t"] - e["latency_s"], 1)
        assert e["latency_s"] == pytest.approx(
            chunk_delivery_latency(size, bandwidth, interval, arrival)
        )


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


def test_peer_responder_is_the_lowest_id_holder_in_range(grid4):
    # veh-b and veh-c join the zone side by side at spawn and drive east
    # together; veh-a, which never comes near the RSU, meets both at once
    east = ("j1_1__j1_2", "j1_2__j1_3")
    holders = [Trip(vid, 0.0, east, (10.0, 10.0), 4.5) for vid in ("veh-c", "veh-b")]
    asker = Trip("veh-a", 0.0, ("j0_2__j1_2", "j1_2__j2_2"), (10.0, 10.0), 4.5)
    cfg = ScenarioConfig(
        graph=grid4,
        zones=(ZoneSpec("z-a", 500.0, 500.0, 100.0),),
        trips=(*holders, asker),
        rsu_range_m=150.0,
        vehicle_radio_range_m=300.0,
        duration_s=150.0,
        rng_seed=1,
    )
    res = run(cfg)
    peer = next(e for e in res.events if e["type"] == "peer_filter")
    t = peer["t"]
    pos = {
        e["tx"]: (e["x"], e["y"]) for e in res.events
        if e["type"] == "beacon" and e["t"] == t and not e["chaff"]
    }
    held = {}
    for e in res.events:
        if e["type"] == "filter_delivered" and e["t"] < t:
            held[e["vehicle"]] = max(held.get(e["vehicle"], -1), e["epoch"])
    rx = peer["rx"]
    in_range = [
        (vid, held.get(vid, -1)) for vid, (x, y) in pos.items()
        if vid != rx and (x - pos[rx][0]) ** 2 + (y - pos[rx][1]) ** 2
        <= cfg.vehicle_radio_range_m ** 2
    ]
    assert rx == "veh-a"
    assert sum(ep > held.get(rx, -1) for _, ep in in_range) == 2
    assert peer["tx"] == choose_filter_responder(in_range, held.get(rx, -1))
    assert peer["tx"] == "veh-b"


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
    assert_same_observations(a.observations, b.observations)
    assert [vars(t) for t in a.transitions] == [vars(t) for t in b.transitions]


def test_audits_pass_on_mixed_scenario(grid4):
    res = run(mixed_config(grid4))
    assert res.audit_violations == []
    assert audit_observability(res) == []
    assert audit_single_pseudonym(res) == []
    assert audit_ground_truth(res) == []


def test_vehicle_beacons_follow_the_pseudonym_changes_and_beacon_ticks(grid4):
    # plaintext vehicle beacons are logged in one pass at wrap-up; the
    # reference is the run's own records: each vehicle beacons on every
    # beacon tick it is on the road outside a zone, under the pseudonym of
    # its last pseudonym_change, with one link id per pseudonym
    cfg = mixed_config(grid4, gamma_v_s=1.0, gamma_mz_s=0.5)
    res = run(cfg)
    state = _Run(cfg)
    assert state.tick_ds == 5 and state.gv_ds == 10
    names = [v.vid for v in state.vehicles]
    expected = {
        (k * 0.5, names[vi])
        for k in range(state.nticks) if k % 2 == 0
        for vi, z in zip(
            state.VEH[state.tick_ptr[k]:state.tick_ptr[k + 1]].tolist(),
            state.ZIDX[state.tick_ptr[k]:state.tick_ptr[k + 1]].tolist(),
        )
        if z < 0
    }
    beacons = [e for e in res.events if e["type"] == "beacon" and not e["chaff"]]
    assert {(e["t"], e["tx"]) for e in beacons} == expected
    assert len(beacons) == len(expected)

    changes: dict[str, list[tuple[float, str, str]]] = {}
    for e in res.events:
        if e["type"] == "pseudonym_change":
            changes.setdefault(e["vehicle"], []).append((e["t"], e["old"], e["new"]))
    assert any(len(c) >= 2 for c in changes.values())
    non_coop = {v.vid for v in state.vehicles if v.non_coop}
    assert non_coop and not non_coop & set(changes)
    links: dict[str, set[str]] = {}
    senders: dict[str, set[str]] = {}
    for e in beacons:
        held = [(t, new) for t, _, new in changes.get(e["tx"], ()) if t <= e["t"]]
        if held:
            assert e["pseudonym"] == held[-1][1]
        elif e["tx"] in changes:
            assert e["pseudonym"] == changes[e["tx"]][0][1]
        links.setdefault(e["pseudonym"], set()).add(e["link"])
        senders.setdefault(e["pseudonym"], set()).add(e["tx"])
    assert all(len(ids) == 1 for ids in links.values())
    assert len({next(iter(ids)) for ids in links.values()}) == len(links)
    # a pseudonym belongs to one vehicle; a non-cooperative one keeps its own
    assert all(len(tx) == 1 for tx in senders.values())
    for vid in non_coop:
        assert len({e["pseudonym"] for e in beacons if e["tx"] == vid}) <= 1


def _audit_single_pseudonym_reference(result) -> list[str]:
    """audit_single_pseudonym as a dict of pseudonym sets per (transmitter,
    instant): the reference for the vectorized version."""
    bad: list[str] = []
    real: dict[tuple[str, float], set[str]] = {}
    chaff: dict[tuple[str, float], set[str]] = {}
    b = result.log.beacons
    for tx, t, is_chaff, pid in zip(
        b.tx.tolist(), b.t.tolist(), b.chaff.tolist(), b.pseudonym.tolist()
    ):
        bucket = chaff if is_chaff else real
        bucket.setdefault((b.names[tx], t), set()).add(b.names[pid])
    for (tx, t), pids in sorted(real.items()):
        if len(pids) > 1:
            bad.append(f"{tx} emitted {len(pids)} real pseudonyms at t={t}")
    for (tx, t), pids in sorted(chaff.items()):
        if not tx.startswith("rsu:") and len(pids) > 1:
            bad.append(f"relay {tx} emitted {len(pids)} chaff ids at t={t}")
    return bad


def test_single_pseudonym_audit_matches_reference_on_injected_duplicates(grid4):
    res = run(mixed_config(grid4))
    b = res.log.beacons
    is_rsu = np.array([b.names[i].startswith("rsu:") for i in b.tx.tolist()])
    real = np.flatnonzero(~b.chaff)
    relay = np.flatnonzero(b.chaff & ~is_rsu)
    rsu = np.flatnonzero(b.chaff & is_rsu)
    # a second real pseudonym for one vehicle late in the run, then a second
    # chaff id for one relay and one RSU earlier on, appended out of order
    rows = np.array([real[-1], relay[0], rsu[0]])
    extra_ids = [b.pseudonym[real[0]], b.pseudonym[rsu[0]], b.pseudonym[relay[0]]]
    assert b.tx[real[-1]] != b.tx[real[0]] and b.t[relay[0]] < b.t[real[-1]]
    columns = {
        name: np.concatenate([getattr(b, name), getattr(b, name)[rows]])
        for name in ("t", "tx", "pseudonym", "link", "x", "y", "speed",
                     "heading", "length", "chaff", "zone", "observers")
    }
    columns["pseudonym"][-3:] = extra_ids
    injected = replace(res, log=replace(res.log, beacons=replace(b, **columns)))

    expected = _audit_single_pseudonym_reference(injected)
    assert len(expected) == 2  # the RSU's two chaff ids are no finding
    assert "real pseudonyms" in expected[0] and "chaff ids" in expected[1]
    assert audit_single_pseudonym(injected) == expected
    assert audit_single_pseudonym(res) == _audit_single_pseudonym_reference(res) == []


def test_single_pseudonym_audit_matches_reference_on_random_columns():
    rng = np.random.default_rng(7)
    names = [f"rsu:z-{i}" for i in range(2)] + [f"veh-{i}" for i in range(6)]
    names += [f"id-{i}" for i in range(5)]
    rng.shuffle(names)  # string-table order is not name order
    n = 600
    beacons = SimpleNamespace(
        names=names,
        t=rng.integers(0, 8, n) / 2.0,
        tx=rng.choice([i for i, s in enumerate(names) if not s.startswith("id-")], n),
        pseudonym=rng.choice([i for i, s in enumerate(names) if s.startswith("id-")], n),
        chaff=rng.random(n) < 0.5,
    )
    result = SimpleNamespace(log=SimpleNamespace(beacons=beacons))
    expected = _audit_single_pseudonym_reference(result)
    assert len(expected) > 10
    assert audit_single_pseudonym(result) == expected


def test_relay_chaff_that_resolves_to_no_vehicle_is_a_violation(grid4, monkeypatch):
    monkeypatch.setattr(
        MixZoneController, "assigned_pseudonym", lambda self, chaff_id: None
    )
    res = run(one_zone_config(grid4, relay_fraction=1.0))
    start = next(e for e in res.events if e["type"] == "decoy_start")
    assert start["source"] == "relay"
    assert res.audit_violations == [
        f"relay veh-000 sent chaff {start['chaff']} that resolves to None "
        f"at t={start['t']}"
    ]


def _change_filter(state, zone_id, change, chaff_id):
    """Change a zone filter between ticks as the authority does: the
    change, a new epoch, then the run notes the epochs."""
    filt = state.ca.filter_for(zone_id)
    change(filt, chaff_id)
    filt.epoch += 1
    state._note_epochs()


def test_decoy_sent_after_its_chaff_left_the_filter_is_a_violation(grid4):
    # the chaff id of the live relay stream is pulled from the zone filter:
    # every decoy beacon sent after that is a finding, and none before. It
    # is put back before the stream's last pose, whose tick retires it
    state = _Run(one_zone_config(grid4, relay_fraction=1.0))
    k = 0
    while not state.streams:
        state.step(k)
        k += 1
    (stream,) = state.streams.values()
    # ten beacons into the stream
    first_ds = int(stream.poses.ds[0])
    while k * state.tick_ds <= first_ds + 10 * state.gv_ds:
        state.step(k)
        k += 1
    assert state.findings == []
    chaff_id = stream.plan.chaff.id
    _change_filter(state, "z-a", ChaffFilter.remove, chaff_id)
    pulled_ds = k * state.tick_ds
    sent_after = [t for t in stream.poses.ds.tolist() if pulled_ds <= t < stream.last_ds]
    for k in range(k, stream.last_ds // state.tick_ds):
        state.step(k)
    assert len(sent_after) > 10 and stream.chaff_hex in state.streams
    _change_filter(state, "z-a", ChaffFilter.insert, chaff_id)
    for k in range(k + 1, state.nticks):
        state.step(k)
    assert stream.chaff_hex not in state.streams
    assert state.finish().audit_violations == [
        f"decoy {stream.chaff_hex} emitted while absent from z-a's filter "
        f"at t={t / 10.0}"
        for t in sorted(sent_after)
    ]


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


def _kept_samples(graph, trips, tick_s, duration_s):
    """Each trip's samples up to the clock's end, by tick index."""
    return [
        {
            round(sample.time_s / tick_s): (sample, eid)
            for sample, eid in trip_samples_with_edges(graph, trip, tick_s, 1e6)
            if sample.time_s <= duration_s
        }
        for trip in trips
    ]


def test_span_storage_holds_the_kept_samples_and_seconds(grid4):
    # a 60 s clock on the 0.5 s lattice: veh-a (1,500 m at 4 m/s) outlasts
    # it, veh-b departs on the last tick 240 m behind veh-a, and veh-c
    # departs off the lattice and arrives in-run
    trips = (
        straight_trip("veh-a", depart=0.0, speed=4.0),
        Trip("veh-b", 60.0, ("j0_1__j1_1",), (10.0,), 4.5),
        Trip("veh-c", 10.2, ("j0_0__j0_1",), (12.0,), 7.5),
    )
    state = _Run(one_zone_config(grid4, trips=trips, duration_s=60.0))
    assert state.tick_ds == 5 and state.nticks == 121
    kept = _kept_samples(grid4, trips, 0.5, 60.0)
    assert [len(k) for k in kept] == [121, 1, 83]

    # seconds 0-60, 60 and 10-51
    spans = list(zip(state.t0s.tolist(), state.tends.tolist()))
    assert spans == [(0, 600), (600, 600), (105, 515)]
    assert state.counters.shape == (
        len(RECEPTION_COUNTERS), sum(end // 10 - t0 // 10 + 1 for t0, end in spans)
    ) == (len(RECEPTION_COUNTERS), 61 + 1 + 42)

    # every kept sample sits at its (tick, vehicle) row, a tick's rows in
    # vehicle order, and each row's counter slot is its vehicle second
    ptr = state.tick_ptr
    assert len(ptr) == state.nticks + 1 and ptr[0] == 0
    assert ptr[-1] == state.X.size == sum(len(k) for k in kept)
    slot_base = [0, 61, 62]
    for k in range(state.nticks):
        rows = range(ptr[k], ptr[k + 1])
        vis = [i for i, samples in enumerate(kept) if k in samples]
        assert state.VEH[ptr[k]:ptr[k + 1]].tolist() == vis
        for r, i in zip(rows, vis):
            sample, eid = kept[i][k]
            assert (state.X[r], state.Y[r], state.SPD[r], state.HDG[r]) == (
                sample.x, sample.y, sample.speed_mps, sample.heading_rad
            )
            assert trips[i].edge_ids[state.EDGE[r]] == eid
            assert state.SLOT[r] == slot_base[i] + min(k * 5 // 10, 60) - spans[i][0] // 10

    for k in range(state.nticks):
        state.step(k)
    last = {
        e["entity"]: e for e in state.finish().events
        if e["type"] == "reception_summary" and e["t"] == 60.0
    }
    # the two vehicles on the road at the final tick hear each other then
    assert sorted(last) == ["veh-a", "veh-b"]
    assert last["veh-a"]["rx_beacons"] >= 1 and last["veh-b"]["rx_beacons"] >= 1


def test_precomputed_events_match_the_per_tick_scans(grid4):
    # two zones 500 m apart with 250 m RSU ranges and a 1.5 s advert
    # interval on the 0.5 s lattice, over a 60 s clock:
    # veh-a crosses z-a northbound (range entry, zone entry and exit, range
    # exit) and outlasts the clock; veh-b departs on the last tick; veh-c
    # departs off the lattice and arrives in-run far from both RSUs; veh-d
    # starts inside z-a and its range, then leaves z-a's range and enters
    # z-b's; veh-e ends its trip inside z-b
    trips = (
        straight_trip("veh-a", depart=0.0, speed=13.0),
        Trip("veh-b", 60.0, ("j0_1__j1_1",), (10.0,), 4.5),
        Trip("veh-c", 10.2, ("j0_0__j0_1",), (12.0,), 7.5),
        Trip("veh-d", 3.0, ("j1_1__j1_2", "j1_2__j1_3"), (12.0, 12.0), 4.5),
        Trip("veh-e", 5.0, ("j1_3__j1_2",), (12.0,), 4.5),
    )
    cfg = ScenarioConfig(
        graph=grid4,
        zones=(ZoneSpec("z-a", 500.0, 500.0, 100.0), ZoneSpec("z-b", 1000.0, 500.0, 100.0)),
        trips=trips, rsu_range_m=250.0, gamma_mz_s=1.5, duration_s=60.0, rng_seed=3,
    )
    state = _Run(cfg)
    assert state.tick_ds == 5 and state.gmz_ds == 15
    kept = _kept_samples(grid4, trips, 0.5, 60.0)
    disks = [(500.0, 500.0, 100.0 ** 2), (1000.0, 500.0, 100.0 ** 2)]
    nv, nz = len(trips), len(disks)

    # the per-tick scans the event lists replace, one tick at a time
    inside = [-1] * nv
    in_range_prev = np.zeros((nv, nz), dtype=bool)
    adv_seen = np.zeros((nv, nz), dtype=bool)
    seen = {name: [] for name in (
        "zone_moves", "range_entries", "range_exits", "first_adverts", "despawns",
    )}
    for k in range(state.nticks):
        t = k * 5
        av = np.flatnonzero((state.t0s <= t) & (state.tends >= t)).tolist()
        lo, hi = state.tick_ptr[k], state.tick_ptr[k + 1]
        assert state.VEH[lo:hi].tolist() == av
        poses = [kept[i][k][0] for i in av]
        assert state.X[lo:hi].tolist() == [p.x for p in poses]
        assert state.Y[lo:hi].tolist() == [p.y for p in poses]

        zone = [
            next((j for j, (cx, cy, r2) in enumerate(disks)
                  if (round(p.x, 3) - cx) ** 2 + (round(p.y, 3) - cy) ** 2 <= r2), -1)
            for p in poses
        ]
        near = np.array(
            [[(p.x - cx) ** 2 + (p.y - cy) ** 2 <= 250.0 ** 2 for cx, cy, _ in disks]
             for p in poses], dtype=bool,
        ).reshape(len(av), nz)
        assert state.ZIDX[lo:hi].tolist() == zone
        assert state.RNG[lo:hi].tolist() == near.tolist()

        moves = []
        for ii, (vi, j) in enumerate(zip(av, zone)):
            if j != inside[vi]:
                moves.append((vi, inside[vi], j, lo + ii))
                inside[vi] = j
        in_range = np.zeros((nv, nz), dtype=bool)
        in_range[av] = near
        entries = list(zip(*(in_range & ~in_range_prev).nonzero()))
        exits = list(zip(*(in_range_prev & ~in_range).nonzero()))
        in_range_prev = in_range
        fresh = []
        if t % 15 == 0:
            fresh = list(zip(*(in_range & ~adv_seen).nonzero()))
            adv_seen |= in_range
        despawns = [(vi,) for vi in np.flatnonzero(state.tends == t).tolist()]
        for (vi,) in despawns:
            inside[vi] = -1
            in_range_prev[vi] = False

        for name, expected in zip(seen, (moves, entries, exits, fresh, despawns)):
            got = getattr(state, name).get(k, [])
            assert got == [tuple(int(v) for v in e) for e in expected], (name, k)
            seen[name].extend(got)

    for name in seen:
        assert set(getattr(state, name)) <= set(range(state.nticks)), name
    # every path is exercised: zone and range entries on a trip's first
    # row, zone exits, a range exit and entry in one tick, adverts first
    # heard after a range entry, and a despawn inside a zone
    first_d = int(state.t0s[3]) // 5
    # veh-a and veh-d are on the road then
    assert state.zone_moves[first_d] == [(3, -1, 0, state.tick_ptr[first_d] + 1)]
    assert (3, 0) in state.range_entries[first_d]
    assert any(prev >= 0 and new < 0 for _, prev, new, _ in seen["zone_moves"])
    assert any(
        (3, 0) in state.range_exits[k] and (3, 1) in state.range_entries.get(k, ())
        for k in state.range_exits
    )
    assert (0, 0) in seen["range_exits"]
    assert len(seen["first_adverts"]) == len(set(seen["first_adverts"])) >= 4
    last_e = int(state.tends[4]) // 5
    assert state.ZIDX[state.tick_ptr[last_e + 1] - 1] == 1
    assert (4,) in state.despawns[last_e]
    assert len(seen["despawns"]) == nv


@pytest.mark.parametrize(
    "block", [engine.BLOCK_ELEMENTS, 16], ids=["default-blocks", "tiny-blocks"]
)
def test_neighbour_pairs_match_a_per_tick_scan(monkeypatch, block):
    # ticks 0 and 2 are beacon ticks (0.5 s lattice, 1 s beacons). At tick
    # 0: rows 0 and 1 lie exactly 300 m apart on the x axis; row 2 lies at
    # (180, 240), so its dx * dx + dy * dy to row 0 is exactly 300 m
    # squared; row 3 lies 1 mm past 300 m of row 0; row 4 is in an RSU
    # range and row 5 inside a zone. Tick 1 repeats tick 0's first rows off
    # the beacon lattice; at tick 2 a row sits where row 0 was, alone
    xy = [
        (0.0, 0.0), (300.0, 0.0), (180.0, 240.0), (-0.001, 300.0), (150.0, 100.0),
        (100.0, -50.0),
        (0.0, 0.0), (300.0, 0.0),
        (0.0, 0.0),
    ]
    tick_lo = np.array([0, 6, 8, 9, 9])
    in_rsu = np.zeros(len(xy), dtype=bool)
    in_rsu[4] = True
    zidx = np.full(len(xy), -1, dtype=np.int32)
    zidx[5] = 0
    tick = np.repeat(np.arange(4), np.diff(tick_lo))
    out_rows = np.flatnonzero(~in_rsu & (tick % 2 == 0))
    x, y = (np.array(c) for c in zip(*xy))
    state = SimpleNamespace(
        X=x, Y=y, ZIDX=zidx, tick_lo=tick_lo, nticks=4, tick_ds=5, gv_ds=10,
        radio2=300.0 ** 2, out_rows=out_rows,
    )
    monkeypatch.setattr(engine, "BLOCK_ELEMENTS", block)
    n_heard, n_clear, nb_ptr, nb_rows = _Run._neighbour_counts(state)
    assert nb_rows.dtype == np.int32 and nb_ptr.size == out_rows.size + 1

    def near(r):
        return [
            q for q in range(tick_lo[tick[r]], tick_lo[tick[r] + 1])
            if q != r and (x[r] - x[q]) ** 2 + (y[r] - y[q]) ** 2 <= 300.0 ** 2
        ]

    beacon = tick % 2 == 0
    assert n_heard.tolist() == [len(near(r)) if beacon[r] else 0 for r in range(len(xy))]
    assert n_clear.tolist() == [
        sum(zidx[q] < 0 for q in near(r)) if beacon[r] else 0 for r in range(len(xy))
    ]
    lists = {
        r: nb_rows[nb_ptr[i]:nb_ptr[i + 1]].tolist()
        for i, r in enumerate(out_rows.tolist())
    }
    assert lists == {r: near(r) for r in out_rows.tolist()}
    assert lists[0] == [1, 2, 4, 5] and lists[3] == [2, 4] and lists[8] == []
    assert 4 not in lists and 6 not in lists


def _pose_at(s, t_ds):
    """Stream s's pose (x, y, heading) at tick time t_ds, None if it has
    none there."""
    i = int(np.searchsorted(s.poses.ds, t_ds))
    if i < s.poses.ds.size and s.poses.ds[i] == t_ds:
        return float(s.poses.x[i]), float(s.poses.y[i]), float(s.poses.heading[i])
    return None


class _PerTickCounters(_Run):
    """A run that also counts receptions tick by tick, from the state of
    each tick's beacon phase, into ref: the reference for the wrap-up pass
    that fills counters."""

    def __init__(self, config):
        super().__init__(config)
        self.ref = np.zeros_like(self.counters)
        # filters held by receivers that heard something, and the plaintext
        # beacons heard by each vehicle on the tick its peer delivery came
        self.held_counts: set[int] = set()
        self.peer_rx_heard: list[int] = []

    def _count_receptions(self, tick, sends):
        # the log reorders the counters at wrap-up: keep them as counted
        super()._count_receptions(tick, sends)
        self.counted = self.counters.copy()

    def _end_streams(self, tk):
        # the vehicle beacons, counted as the tick's beacon phase heard them
        self.held_ep_now = self.held_ep[tk.av]
        held = self.held_ep_now >= 0
        self.received = np.zeros((len(RECEPTION_COUNTERS), tk.av.size), dtype=np.int64)
        counts = dict(zip(RECEPTION_COUNTERS, self.received))
        dx = tk.xs[:, None] - tk.xs[None, :]
        dy = tk.ys[:, None] - tk.ys[None, :]
        self.neighbor = dx * dx + dy * dy <= self.radio2
        np.fill_diagonal(self.neighbor, False)
        inside_mask = self.ZIDX[tk.lo:tk.hi] >= 0
        cnt_real = (self.neighbor & ~inside_mask).sum(axis=1)
        cnt_enc = self.neighbor.sum(axis=1) - cnt_real
        counts["rx_beacons"] += cnt_real
        counts["rx_bytes"] += (
            cnt_real * BEACON_WIRE_BYTES + cnt_enc * ENCRYPTED_BEACON_WIRE_BYTES
        )
        counts["checks"] += cnt_real * held.sum(axis=1)
        counts["verifies"] += cnt_real
        self.cnt_real = cnt_real

        # the decoy beacons
        due = [
            (s, pose) for s in self.streams.values()
            if (pose := _pose_at(s, tk.t_ds)) is not None
        ]
        if due:
            active = tk.av.tolist()
            tx_x, tx_y, tx_r2, relay, relay_row = [], [], [], [], []
            for i, (s, _) in enumerate(due):
                if s.tx_vi < 0:
                    x, y = self.zone_disks[s.zone_j][:2]
                    tx_r2.append(self.rsu_r2)
                else:
                    row = active.index(s.tx_vi)
                    x, y = float(tk.xs[row]), float(tk.ys[row])
                    tx_r2.append(self.radio2)
                    relay.append(i)
                    relay_row.append(row)
                tx_x.append(x)
                tx_y.append(y)
            hx, hy = np.array(tx_x)[:, None], np.array(tx_y)[:, None]
            rx = (tk.xs - hx) ** 2 + (tk.ys - hy) ** 2 <= np.array(tx_r2)[:, None]
            rx[relay, relay_row] = False
            zone = [s.zone_j for s, _ in due]
            hold = rx & held[:, zone].T
            n_rx = rx.sum(axis=0)
            n_hold = hold.sum(axis=0)
            n_miss = n_rx - n_hold
            counts["rx_beacons"] += n_rx
            counts["rx_bytes"] += n_rx * BEACON_WIRE_BYTES
            counts["discard_chaff"] += n_hold
            counts["checks"] += (
                (held.cumsum(axis=1)[:, zone].T * hold).sum(axis=0)
                + n_miss * held.sum(axis=1)
            )
            counts["unknown_pending"] += n_miss
            counts["verifies"] += n_miss
        super()._end_streams(tk)

    def _peer_exchange(self, tk, cur_ep):
        held_ep = self.held_ep_now
        counts = dict(zip(RECEPTION_COUNTERS, self.received))
        outside_all = ~self.RNG[tk.lo:tk.hi].any(axis=1)
        req_stale = held_ep < cur_ep
        requesters = outside_all & req_stale.any(axis=1)
        got_any = np.zeros(tk.av.size, dtype=bool)
        if requesters.any():
            counts["peer_queries"][requesters] += 1
            req_rows = requesters.nonzero()[0]
            for j in range(len(self.zones)):
                need = req_rows[req_stale[req_rows, j]]
                hv = held_ep[:, j]
                cond = self.neighbor[need] & (hv[None, :] > hv[need, None])
                got_any[need[cond.any(axis=1)]] = True
            counts["peer_unanswered"][requesters & ~got_any] += 1
        self.peer_rx_heard.extend(self.cnt_real[got_any].tolist())
        heard = self.received[RECEPTION_COUNTERS.index("rx_beacons")] > 0
        self.held_counts.update((held_ep[heard] >= 0).sum(axis=1).tolist())
        super()._peer_exchange(tk, cur_ep)
        self.ref[:, self.SLOT[tk.lo:tk.hi]] += self.received


@pytest.mark.parametrize(
    "block", [engine.BLOCK_ELEMENTS, 64], ids=["default-blocks", "tiny-blocks"]
)
def test_wrap_up_reception_counters_match_the_per_tick_math(monkeypatch, block):
    # 60 trips on a 5x5 grid plus two that depart side by side on the last
    # tick, outside every RSU range. Three zones with 250 m RSU ranges:
    # z-c sits on the y = 1000 road 200 m east of the x = 500 road, so a
    # vehicle southbound on x = 500 collects z-c's filter and then z-a's
    # before it joins z-a and gets all three; vehicles outside every range
    # pass filters on to each other. 0.5 s adverts on 1 s beacons, so only
    # every other tick is a beacon tick.
    g = make_grid(5, 5, 500.0)
    last = tuple(
        Trip(vid, 300.0, ("j0_1__j1_1",), (10.0,), 4.5) for vid in ("veh-z1", "veh-z2")
    )
    cfg = ScenarioConfig(
        graph=g,
        zones=(
            ZoneSpec("z-a", 500.0, 500.0, 100.0),
            ZoneSpec("z-b", 1500.0, 1000.0, 100.0),
            ZoneSpec("z-c", 700.0, 1000.0, 50.0),
        ),
        eavesdroppers=(EavesdropperSpec("eav-a", 500.0, 500.0, 400.0),),
        trips=(*synthesize_trips(g, 60, 0.5, 11), *last),
        relay_fraction=0.5, non_coop_fraction=0.2, rng_seed=5,
        duration_s=300.0, rsu_range_m=250.0, gamma_v_s=1.0, gamma_mz_s=0.5,
        chaff_per_zone=300, filter_capacity=400,
    )
    # tiny blocks put most ticks, and most ticks' decoy sends, in blocks of
    # their own, and give many ticks more rows than a block holds
    monkeypatch.setattr(engine, "BLOCK_ELEMENTS", block)
    state = _PerTickCounters(cfg)
    assert state.tick_ds == 5 and state.gv_ds == 10
    for k in range(state.nticks):
        state.step(k)
    final = state.tick_ptr[-2:]
    last_rows = state.VEH[final[0]:final[1]].tolist()
    result = state.finish()
    for i, name in enumerate(RECEPTION_COUNTERS):
        np.testing.assert_array_equal(state.counted[i], state.ref[i], err_msg=name)

    # every path the pass must get right was taken: RSU and relay decoys
    # (a relay never hears itself), receivers holding one, two and three
    # filters, peer deliveries to vehicles that heard plaintext beacons on
    # the delivery tick (they count the new filter from the next tick
    # on), and the two last-tick trips hearing each other
    b = result.log.beacons
    assert {b.names[tx].startswith("rsu:") for tx in b.tx[b.chaff]} == {True, False}
    assert {1, 2, 3} <= state.held_counts
    assert any(n > 0 for n in state.peer_rx_heard)
    names = [state.vehicles[vi].vid for vi in last_rows]
    assert {"veh-z1", "veh-z2"} <= set(names)
    summaries = {
        e["entity"]: e for e in result.events
        if e["type"] == "reception_summary" and e["t"] == 300.0
    }
    for vid in ("veh-z1", "veh-z2"):
        assert summaries[vid]["rx_beacons"] >= 1
        assert summaries[vid]["peer_queries"] == 1


class _DensePeerExchange(_Run):
    """A run whose peer exchange measures the distance from each asking
    row to every row of its tick and looks for each zone's responders in
    that matrix: the reference for the exchange and the peer search over
    the neighbour pass's pairs."""

    def _peer_exchange(self, tk, cur_ep):
        a, b = self.out_ptr[tk.k], self.out_ptr[tk.k + 1]
        if a == b:
            return
        held_ep = self.held_ep[tk.av]
        li = self.out_rows[a:b] - tk.lo
        req_ep = held_ep[li]
        asking = (req_ep < cur_ep).any(axis=1)
        if not asking.any():
            return
        self.peer_asked.append(li[asking] + tk.lo)
        li, req_ep = li[asking], req_ep[asking]
        dx = tk.xs[li, None] - tk.xs
        dy = tk.ys[li, None] - tk.ys
        near = dx * dx + dy * dy <= self.radio2
        # per zone, each answered requester's responder: the lowest vehicle
        # id (rows are vid-sorted) among the neighbours holding a strictly
        # newer epoch; a requester is never its own
        answers = []
        for j in range(len(self.zones)):
            cond = near & (held_ep[:, j] > req_ep[:, j, None])
            r = np.flatnonzero(cond.any(axis=1))
            if r.size:
                answers.append((r, cond[r].argmax(axis=1), np.full(r.size, j)))
        if not answers:
            return
        r, resp, j = (np.concatenate(c) for c in zip(*answers))
        vi, ep = tk.av[li[r]], held_ep[resp, j]
        self._take_filters(vi, j, ep, tk.k + 1)
        self.peer_answered.append(np.unique(li[r]) + tk.lo)
        key, n = np.full(r.size, self.log.key), 2 * np.arange(r.size)
        rx, zone = self.veh_name[vi], self.zone_name[j]
        self.log.message(
            engine.PEER_FILTER, key, n, tk.now, self.veh_name[tk.av[resp]], zone,
            self.answer_bytes[j], rx=rx, epoch=ep,
        )
        self.log.message(engine.VIA_PEER, key, n + 1, tk.now, rx, zone, epoch=ep)


class _PerTickPeriodic(_DensePeerExchange):
    """A run that logs adverts, chunks and encrypted beacons tick by tick,
    as dicts in their tick's phases, with the epochs and rows the phase
    sees: the reference for the columns the wrap-up builds. Its peers
    answer through the dense exchange."""

    def _rsu_range(self, tk):
        log, key, now = self.log, tk.k * engine.N_PHASES, tk.now
        if tk.t_ds % self.gmz_ds == 0:
            log.key = key + engine.PH_ADVERTS
            fresh = self.first_adverts.get(tk.k, ())
            for j, z in enumerate(self.zones):
                self.emit({
                    "type": "advert", "t": now, "tx": z.info.rsu_entity,
                    "zone": z.info.zone_id, "bytes": engine.ADVERT_WIRE_BYTES,
                    "first_verifiers": [
                        self.vehicles[vi].vid for vi, jj in fresh if jj == j
                    ],
                })
        if tk.t_ds % self.fi_ds == 0:
            log.key = key + engine.PH_CHUNKS
            for j, z in enumerate(self.zones):
                slot = (tk.t_ds // self.fi_ds) % z.chunk_count
                self.emit({
                    "type": "chunk", "t": now, "tx": z.info.rsu_entity,
                    "zone": z.info.zone_id, "epoch": int(self.cur_ep[j]),
                    "index": slot, "total": z.chunk_count,
                    "bytes": z.chunk_payloads[slot] + engine.CHUNK_CERT_BYTES,
                })
        log.key = key + engine.PH_RSU
        super()._rsu_range(tk)

    def _end_streams(self, tk):
        self.log.key = tk.k * engine.N_PHASES + engine.PH_BEACONS
        for vi, j in zip(tk.av.tolist(), self.ZIDX[tk.lo:tk.hi].tolist()):
            if j >= 0:
                self.emit({
                    "type": "beacon_encrypted", "t": tk.now,
                    "tx": self.vehicles[vi].vid, "zone": self.zone_ids[j],
                    "bytes": ENCRYPTED_BEACON_WIRE_BYTES,
                })
        self.log.key = tk.k * engine.N_PHASES + engine.PH_DECOYS
        super()._end_streams(tk)

    def _log_periodic(self, tick):
        pass  # logged tick by tick


class _PerTickDecoys(_PerTickPeriodic):
    """A run that also logs decoy beacons tick by tick, in their tick's
    decoy phase from the streams live there, notes each send, and checks
    each sent chaff id against its zone filter as it goes: the reference
    for the decoy columns, the sends the wrap-up counts receptions from,
    and the membership findings."""

    def __init__(self, config):
        super().__init__(config)
        self.sent = []

    def _end_streams(self, tk):
        log = self.log
        log.key = tk.k * engine.N_PHASES + engine.PH_DECOYS
        for s in self.streams.values():
            pose = _pose_at(s, tk.t_ds)
            if pose is None:
                continue
            # the transmitter: the zone's RSU, or a relay, which drives for
            # as long as its stream runs and so is an active row
            if s.tx_vi < 0:
                x, y = self.zone_disks[s.zone_j][:2]
            else:
                row = tk.lo + int(np.searchsorted(tk.av, s.tx_vi))
                x, y = float(self.X[row]), float(self.Y[row])
            self.sent.append((tk.k, s, x, y))
            if not self.ca.filter_for(s.plan.zone_id).contains(s.plan.chaff.id):
                self.findings.append((log.key, (
                    f"decoy {s.chaff_hex} emitted while absent from "
                    f"{s.plan.zone_id}'s filter at t={tk.now}"
                )))
            # the phase sends before its streams end: n below every event's
            log.beacons(
                np.array([log.key]), len(self.sent) - 2**62, tk.now,
                log.name(s.transmitter), log.name(s.chaff_hex),
                log.name(s.link_hex), pose[0], pose[1], s.plan.speed_mps,
                pose[2], s.plan.length_m, True, log.name(s.plan.zone_id), x, y,
            )
        super()._end_streams(tk)

    def _log_decoys(self, tick):
        # logged and checked tick by tick; the sends, as the wrap-up's are
        k, streams, hx, hy = list(zip(*self.sent)) or [()] * 4
        return (
            np.array(k, dtype=np.int64), np.array(hx), np.array(hy),
            np.array([s.zone_j for s in streams], dtype=np.int64),
            np.array([s.tx_vi for s in streams], dtype=np.int64),
        )


def _off_lattice_adverts_config():
    """Relays crossing two zones 500 m apart, beacons every 1 s and adverts
    every 1.5 s on the 0.5 s lattice: adverts fall on and off the beacon
    ticks, and relay streams that end at the next zone's door retire chaff
    in the zone phase of ticks that also carry chunks."""
    g = make_grid(4, 4, 500.0)
    return ScenarioConfig(
        graph=g,
        zones=(
            ZoneSpec("z-a", 500.0, 500.0, 100.0),
            ZoneSpec("z-b", 1000.0, 500.0, 100.0),
        ),
        eavesdroppers=(EavesdropperSpec("eav-a", 750.0, 500.0, 500.0),),
        trips=tuple(synthesize_trips(g, 60, 0.2, 3)),
        relay_fraction=1.0, rng_seed=3, duration_s=400.0, gamma_v_s=1.0,
        gamma_mz_s=1.5, chaff_per_zone=300, filter_capacity=400,
    )


def _off_lattice_entries_config():
    """Relays crossing two zones 500 m apart, beacons every 1 s and chunks
    every 0.5 s on the 0.5 s lattice: relays enter their next zone on and
    off the beacon ticks, and one relay enters it before the phantom it
    launched at the last zone has left that zone."""
    g = make_grid(4, 4, 500.0)
    return ScenarioConfig(
        graph=g,
        zones=(
            ZoneSpec("z-a", 500.0, 500.0, 100.0),
            ZoneSpec("z-b", 1000.0, 500.0, 100.0),
        ),
        eavesdroppers=(EavesdropperSpec("eav-a", 750.0, 500.0, 500.0),),
        trips=tuple(synthesize_trips(g, 60, 0.2, 2)),
        relay_fraction=1.0, rng_seed=2, duration_s=400.0, gamma_v_s=1.0,
        filter_tx_interval_s=0.5, chaff_per_zone=300, filter_capacity=400,
    )


def _near_zones_config():
    """Relays crossing two zones 50 m apart on one road: a relay enters
    the second zone before the phantom it launched at the first has left
    it, so its stream ends before its first pose."""
    g = make_grid(4, 4, 500.0)
    return ScenarioConfig(
        graph=g,
        zones=(
            ZoneSpec("z-a", 500.0, 500.0, 100.0),
            ZoneSpec("z-b", 750.0, 500.0, 100.0),
        ),
        eavesdroppers=(EavesdropperSpec("eav-a", 750.0, 500.0, 500.0),),
        trips=tuple(synthesize_trips(g, 60, 0.2, 1)),
        relay_fraction=1.0, rng_seed=1, duration_s=400.0, chaff_per_zone=300,
        filter_capacity=400,
    )


def _dead_end_config():
    """Relays crossing one zone onto long roads; the zone's other exits are
    dead ends 400 m past its edge, so a phantom sent down one of them
    outruns its road before its relay's trip ends (route_end)."""
    routes = (("s", "n"), ("w", "e"), ("s", "e"), ("w", "n")) * 2
    return ScenarioConfig(
        graph=dead_end_crossing(),
        zones=(ZoneSpec("z-c", 500.0, 500.0, 100.0),),
        eavesdroppers=(EavesdropperSpec("eav-c", 500.0, 500.0, 600.0),),
        trips=tuple(
            Trip(f"veh-{i}", 20.0 * i, (f"{a}__c", f"c__{b}", f"{b}__{b}2"),
                 (10.0, 10.0, 10.0), 4.5)
            for i, (a, b) in enumerate(routes)
        ),
        relay_fraction=1.0, rng_seed=1, duration_s=400.0,
    )


def _despawn_on_due_tick_config():
    """Two vehicles outside every zone end their trips near the tick their
    RSU collections come due. At 10 m/s along y = 0, veh-a enters the
    300 m range of the RSU at (500, 250) at t = 44 s; the 10 s chunk
    cycle wraps at 50 s, so its collection is due at 60 s, its trip's
    last row, 250 m from the zone's centre. veh-b enters at 40.5 s, is due
    at 60 s too and ends at 56.5 s."""
    g = make_grid(4, 4, 500.0)
    return ScenarioConfig(
        graph=g, zones=(ZoneSpec("z-a", 500.0, 250.0, 100.0),),
        trips=(
            Trip("veh-a", 10.5, ("j0_0__j0_1",), (10.0,), 4.5),
            Trip("veh-b", 7.0, ("j0_0__j0_1",), (10.0,), 4.5),
        ),
        rsu_range_m=300.0, filter_bandwidth_bytes_per_s=1800.0,
        duration_s=200.0, rng_seed=3,
    )


def _range_reentry_config():
    """One vehicle leaves an RSU's range and comes back before its
    collection is due. With the 300 m range of the RSU at (500, 0) and a
    40 s chunk cycle, it enters at t = 23.5 s (due at 80 s) on a road
    that bends out of range at 45.5 s, re-enters at 77 s (due at 120 s)
    and crawls on in range until 145 s. A zone road runs along y = 0."""
    shapes = {
        ("c0", "c1"): ((0.0, 0.0), (1000.0, 0.0)),
        ("w0", "w1"): ((100.0, 250.0), (500.0, 250.0), (500.0, 400.0), (600.0, 400.0)),
        ("w1", "w2"): ((600.0, 400.0), (600.0, 100.0)),
        ("w2", "w3"): ((600.0, 100.0), (700.0, 100.0)),
    }
    junctions, edges = {}, []
    for (a, b), shape in shapes.items():
        junctions[a], junctions[b] = shape[0], shape[-1]
        edges.append(Edge(f"{a}__{b}", a, b, shape, 13.89, polyline_length(shape)))
    return ScenarioConfig(
        graph=RoadGraph(junctions, edges), zones=(ZoneSpec("z-a", 500.0, 0.0, 100.0),),
        trips=(Trip("veh-a", 0.0, ("w0__w1", "w1__w2", "w2__w3"), (10.0, 10.0, 2.0), 4.5),),
        rsu_range_m=300.0, filter_bandwidth_bytes_per_s=450.0,
        duration_s=200.0, rng_seed=3,
    )


def _rsu_deliveries(result):
    return [
        (e["t"], e["vehicle"], e["latency_s"]) for e in result.events
        if e["type"] == "filter_delivered" and e["via"] == "rsu"
    ]


def test_a_collection_due_on_its_vehicles_last_tick_still_delivers():
    # a despawn drops the vehicle's collections from the next tick on: its
    # own tick's RSU phase comes first, and a later due tick finds none
    cfg = _despawn_on_due_tick_config()
    state = _Run(cfg)
    assert state.tends.tolist() == [600, 565]
    assert (state.ZIDX[state.tick_ptr[120]:state.tick_ptr[121]] == -1).all()
    assert not {113, 120} & set(state.wake)
    assert _rsu_deliveries(run(cfg)) == [(60.0, "veh-a", 16.0)]


def test_a_collection_dropped_by_a_range_exit_delivers_nothing():
    # the exit at 45.5 s drops the collection due at 80 s before the
    # re-entry at 77 s starts the one due at 120 s
    cfg = _range_reentry_config()
    state = _Run(cfg)
    assert state.range_exits == {91: [(0, 0)]}
    assert sorted(state.range_entries) == [47, 154]
    assert _rsu_deliveries(run(cfg)) == [(120.0, "veh-a", 43.0)]


def test_no_tick_is_stepped_for_range_exits_or_outside_despawns_alone(monkeypatch):
    # a range exit, or a despawn outside every zone, only drops
    # collections, which the next stepped tick does first
    stepped, early, pushed = [], set(), set()

    class Recorded(_Run):
        def __init__(self, config):
            super().__init__(config)
            # the ticks of despawns inside a zone, at each vehicle's last row
            self.inside_ends = set()
            for vi, k in enumerate((self.tends // self.tick_ds).tolist()):
                lo, hi = self.tick_ptr[k], self.tick_ptr[k + 1]
                if self.ZIDX[lo + np.searchsorted(self.VEH[lo:hi], vi)] >= 0:
                    self.inside_ends.add(k)
            states.append(self)

        def step(self, k):
            stepped.append(k)
            super().step(k)

        def next_visit(self, k):
            # an epoch move or a peer answer wakes a tick out of schedule
            moved = self.epoch_moved
            nxt = super().next_visit(k)
            if moved or nxt < self.wake[0]:
                early.add(nxt)
            return nxt

    states = []
    heappush = engine.heapq.heappush
    monkeypatch.setattr(engine.heapq, "heappush", lambda h, k: (pushed.add(k), heappush(h, k))[1])
    monkeypatch.setattr(engine, "_Run", Recorded)
    run(test_golden.grid_cell_config())
    state = states.pop()
    woken = {
        0, *state.zone_moves, *state.range_entries, *state.inside_ends, *pushed, *early,
    }
    only_drops = {*state.range_exits, *state.despawns} - woken
    assert len(only_drops) > 50
    assert not only_drops & set(stepped)


def _live_beacon_ticks(state, events):
    """How many beacon ticks lie between some decoy stream's start tick and
    its end tick."""
    started = {e["chaff"]: e["t"] for e in events if e["type"] == "decoy_start"}
    gv_ticks = state.gv_ds // state.tick_ds
    live = set()
    for e in events:
        if e["type"] == "decoy_end":
            a, b = (round(t * 10) // state.tick_ds for t in (started[e["chaff"]], e["t"]))
            live.update(range(-(-a // gv_ticks) * gv_ticks, b + 1, gv_ticks))
    return len(live)


def _sweep_configs(tmp_path):
    """The test_c14 sweep's four cells."""
    base = ScenarioConfig.from_file(test_golden.sweep_scenario(tmp_path))
    return [
        base.replaced(rng_seed=seed, relay_fraction=rf)
        for seed in (1, 2) for rf in (0.0, 1.0)
    ]


# each case's configs, built in a temporary directory
_NEXT_EVENT_CASES = {
    "c14-sweep": _sweep_configs,
    "crossing": lambda _: [test_golden.crossing_config()],
    "grid-cell": lambda _: [test_golden.grid_cell_config()],
    "multi-zone": lambda _: [test_golden.multi_zone_config()],
    "relay0": lambda _: [test_golden.relay0_config()],
    "off-lattice-adverts": lambda _: [_off_lattice_adverts_config()],
    "dead-end": lambda _: [_dead_end_config()],
    "near-zones": lambda _: [_near_zones_config()],
    "off-lattice-entries": lambda _: [_off_lattice_entries_config()],
    # the peer search walks many windows across several chunks of pairs
    "multi-zone-tiny-blocks": lambda _: [test_golden.multi_zone_config()],
    "despawn-on-due-tick": lambda _: [_despawn_on_due_tick_config()],
    "range-reentry": lambda _: [_range_reentry_config()],
}


@pytest.mark.parametrize("case", list(_NEXT_EVENT_CASES))
def test_next_event_loop_matches_stepping_every_tick(monkeypatch, tmp_path, case):
    # run() steps only the ticks where something happens, finds the next
    # tick a peer answers from the neighbour pairs, and logs the periodic
    # records and decoy beacons at wrap-up; the reference steps every tick,
    # answers peers from distance matrices and logs tick by tick
    if case.endswith("tiny-blocks"):
        monkeypatch.setattr(engine, "BLOCK_ELEMENTS", 64)
    states = []

    class Recorded(_Run):
        def __init__(self, config):
            super().__init__(config)
            self.stepped = 0
            states.append(self)

        def step(self, k):
            self.stepped += 1
            super().step(k)

    for cfg in _NEXT_EVENT_CASES[case](tmp_path):
        with monkeypatch.context() as m:
            m.setattr(engine, "_Run", Recorded)
            result = run(cfg)
        state = states.pop()

        ref_state = _PerTickDecoys(cfg)
        for k in range(ref_state.nticks):
            ref_state.step(k)
        ref = ref_state.finish()
        for audit in (audit_observability, audit_single_pseudonym, audit_ground_truth):
            ref.audit_violations.extend(audit(ref))

        got, want = io.StringIO(), io.StringIO()
        result.export_events(got)
        ref.export_events(want)
        assert got.getvalue() == want.getvalue()
        # the reception counters, as the summaries hold them
        got_rx, want_rx = result.log.receptions, ref.log.receptions
        np.testing.assert_array_equal(got_rx.vehicle, want_rx.vehicle)
        np.testing.assert_array_equal(got_rx.t, want_rx.t)
        np.testing.assert_array_equal(got_rx.counts, want_rx.counts)
        assert_same_observations(result.observations, ref.observations)
        assert result.transitions == ref.transitions
        assert result.audit_violations == ref.audit_violations
        assert state.stepped <= state.nticks
        # every stream ends in the tick loop, and a decoy stream is visited
        # only where it starts and ends
        assert not state.streams
        events = ref.events
        assert {e["reason"] for e in events if e["type"] == "decoy_end"} <= {
            "horizon", "zone_entry", "route_end", "transmitter_zone_entry",
        }
        if cfg.relay_fraction == 1.0:
            assert state.stepped < _live_beacon_ticks(state, events)
        if case == "relay0":
            # most ticks hold only periodic records and unanswered queries
            assert state.stepped < state.nticks // 2
            assert any(e["type"] == "peer_filter" for e in events)
        if case == "off-lattice-adverts":
            # a retire in the zone phase of a chunk tick moves the epoch
            # that tick's chunks carry
            moved = {
                (e["t"], e["zone"]) for e in events
                if e["type"] == "decoy_end" and e["reason"] == "transmitter_zone_entry"
            }
            chunk_ticks = {(e["t"], e["zone"]) for e in events if e["type"] == "chunk"}
            assert moved & chunk_ticks
            assert any(
                e["type"] == "advert" and e["t"] % 1.0 == 0.5 for e in events
            )
        if case == "off-lattice-entries":
            # a relay's stream is built up to the first beacon tick at or
            # after its relay's next zone entry, or up to its first pose
            gv = state.gv_ds
            ended = {
                e["chaff"]: round(e["t"] * 10) for e in events
                if e["type"] == "decoy_end" and e["reason"] == "transmitter_zone_entry"
            }
            assert any(ds % gv for ds in ended.values())
            stopped = [s for s in state.started if s.chaff_hex in ended]
            assert any(s.poses.ds[0] > ended[s.chaff_hex] for s in stopped)
            for s in stopped:
                stop_ds = -(-ended[s.chaff_hex] // gv) * gv
                assert s.poses.ds[-1] == max(stop_ds, s.poses.ds[0])
        if case == "dead-end":
            assert any(
                e["type"] == "decoy_end" and e["reason"] == "route_end"
                for e in events
            )

from __future__ import annotations

import io
import json
import math
import random
from collections import Counter

import numpy as np
import pytest

import test_golden
from decoymix import adversary
from decoymix.adversary import (
    Chain,
    ChainLink,
    LinkCandidateSet,
    Observations,
    ObsRow,
    attach_truth,
    brute_force_oracle,
    build_tracks,
    chain,
    chain_distance_m,
    classify_tracks,
    export_candidate_sets,
    flat_tracks,
    hbc_rsu_link,
    link,
    pair_table,
    parse_observation_csv,
)

from decoymix.engine import run
from decoymix.errors import OffNetwork
from decoymix.roads import RoadGraph, exit_direction_consistent, path_exists

EAVES = {"eav-0": 250.0}
V_MIN = 1.39


def row(t, pid, x, y, heading, length=4.5, speed=10.0, eid="eav-0"):
    return ObsRow(t, pid, x, y, speed, heading, length, eid)


def tracks_of(rows):
    """The tracks by length class of a list of observation rows."""
    return build_tracks(Observations.from_rows(rows))


def approach_rows(pid, arm, t_end, length=4.5, speed=10.0, eid="eav-0",
                  d_far=250.0, d_near=105.0):
    """Inbound rows along a straight arm toward (500, 500), last row at
    t_end just outside the zone."""
    dx, dy = arm
    heading = math.atan2(-dy, -dx)  # toward the center
    rows = []
    steps = int((d_far - d_near) / (speed * 0.5))
    for i in range(steps + 1):
        d = d_far - i * speed * 0.5
        t = t_end - (d - d_near) / speed
        rows.append(row(round(t, 1), pid, 500 + dx * d, 500 + dy * d,
                        heading, length, speed, eid))
    return rows


def depart_rows(pid, arm, t_start, length=4.5, speed=10.0, eid="eav-0",
                d_near=105.0, d_far=250.0):
    """Outbound rows along an arm away from (500, 500), first row at
    t_start just outside the zone."""
    dx, dy = arm
    heading = math.atan2(dy, dx)
    rows = []
    steps = int((d_far - d_near) / (speed * 0.5))
    for i in range(steps + 1):
        d = d_near + i * speed * 0.5
        t = t_start + (d - d_near) / speed
        rows.append(row(round(t, 1), pid, 500 + dx * d, 500 + dy * d,
                        heading, length, speed, eid))
    return rows


N, S, E, W = (0, 1), (0, -1), (1, 0), (-1, 0)


def ids(tracks):
    return [t.pseudonym_id for t in tracks]


def spans_by_ear(track):
    """Reference for heard_from and heard_to: the (first, last) time each
    ear heard a track, by one pass over its time-ordered rows."""
    spans: dict[str, tuple[float, float]] = {}
    for r in map(track.obs.row, track.rows):
        first, _ = spans.get(r.eaves_id, (r.time_s, r.time_s))
        spans[r.eaves_id] = (first, r.time_s)
    return spans


def seen_together(a, b):
    """Reference for the apart column: some ear's spans of the two tracks
    overlap, checked ear by ear."""
    spans_b = spans_by_ear(b)
    for eid, (lo_a, hi_a) in spans_by_ear(a).items():
        span = spans_b.get(eid)
        if span is not None and max(lo_a, span[0]) <= min(hi_a, span[1]):
            return True
    return False


def road(g, a, b, zone):
    """Reference for the road column: a path from row a to row b."""
    try:
        return path_exists(g, (a.x, a.y), (b.x, b.y), zone,
                           from_heading=a.heading_rad, to_heading=b.heading_rad)
    except OffNetwork:
        return False


@pytest.fixture
def any_gap(monkeypatch):
    """Admit every gap to the pair table, so that its rows include pairs
    the traverse-time window would drop (ids heard at once among them)."""
    monkeypatch.setattr(adversary, "traverse_time_bounds",
                        lambda *args: (-math.inf, math.inf))


# --- track building ----------------------------------------------------------

def test_build_tracks_partitions_by_length_class():
    rows = [
        row(1.0, "a", 100, 100, 0.0, length=4.5),
        row(2.0, "a", 105, 100, 0.0, length=4.5),
        row(1.0, "b", 300, 100, 0.0, length=4.5),
        row(1.0, "c", 500, 100, 0.0, length=12.0),
    ]
    classes = tracks_of(rows)
    assert {k: len(v) for k, v in classes.items()} == {4.5: 2, 12.0: 1}


def test_build_tracks_empty_log():
    assert tracks_of([]) == {}


def test_single_observation_track_has_equal_endpoints():
    classes = tracks_of([row(3.0, "solo", 100, 100, 0.0)])
    track = classes[4.5][0]
    assert track.first == track.last
    assert track.obs.t[track.rows].tolist() == [3.0]


def test_parse_observation_csv_round_trip():
    text = (
        "time,pseudonym_id,x,y,speed,heading,length,eavesdropper_id\n"
        "1.0,ab,100.000,200.000,10.000,1.570796,4.5,eav-0\n"
        "0.5,cd,110.000,200.000,10.000,0.000000,7.5,eav-1\n"
    )
    obs = parse_observation_csv(io.StringIO(text))
    rows = [obs.row(i) for i in range(obs.t.size)]
    assert [r.pseudonym_id for r in rows] == ["cd", "ab"]
    assert rows[1].heading_rad == pytest.approx(1.570796)


# --- classification and trivial filtering ------------------------------------

def test_pass_through_id_is_trivially_linked(grid4, zone_j1_1):
    rows = approach_rows("nc", S, 39.5) + depart_rows("nc", N, 60.5)
    classes = tracks_of(rows)
    assert classify_tracks(classes, zone_j1_1, EAVES) == ([], [])


def test_changed_ids_classify_entering_and_exiting(grid4, zone_j1_1):
    rows = (approach_rows("old", S, 39.5) + depart_rows("new", N, 60.5)
            + approach_rows("bus", W, 39.5, length=12.0))
    entering, exiting = classify_tracks(tracks_of(rows), zone_j1_1, EAVES)
    assert (ids(entering), ids(exiting)) == (["bus", "old"], ["new"])


def test_far_track_ignored_entirely(grid4, zone_j1_1):
    rows = approach_rows("old", S, 39.5) + [
        row(5.0, "far", 1400, 1500, 0.0),
        row(6.0, "far", 1410, 1500, 0.0),
    ]
    entering, exiting = classify_tracks(tracks_of(rows), zone_j1_1, EAVES)
    assert (ids(entering), ids(exiting)) == (["old"], [])


def test_catchment_ends_at_the_ears_range(zone_j1_1):
    # tracks entering, leaving, and turning back (heard going in, out and
    # in again, which would make them entering if the turn went unseen), on
    # a straight arm and a diagonal one, nearest the centre at the ear's
    # range, 0.5 m past it and 1.5 m past it; only those at the range are
    # in the catchment
    ranges = {"eav-0": 250.0, "eav-1": 300.0}
    rows = []
    for tag, d in (("at", 300.0), ("half", 300.5), ("past", 301.5)):
        for i, arm in enumerate((S, (0.6, -0.8))):
            near = {"eid": "eav-1", "d_near": d, "d_far": d + 100.0}
            rows += approach_rows(f"{tag}{i}-in", arm, 40.0, **near)
            rows += depart_rows(f"{tag}{i}-out", arm, 60.0, **near)
            rows += approach_rows(f"{tag}{i}-back", arm, 40.0, **near)
            rows += depart_rows(f"{tag}{i}-back", arm, 60.0, **near)
            rows += approach_rows(f"{tag}{i}-back", arm, 90.0, **near)
    entering, exiting = classify_tracks(tracks_of(rows), zone_j1_1, ranges)
    assert (ids(entering), ids(exiting)) == (
        ["at0-in", "at1-in"], ["at0-out", "at1-out"]
    )


def test_catchment_and_direction_on_their_thresholds_match_math(zone_j1_1):
    # rows exactly at their own ear's range by math.hypot, and rows heading
    # square to the centre, where numpy's hypot, cos and sin may round the
    # other way: each row is decided as the scalar math decides it
    rng = random.Random(7)
    cx, cy = zone_j1_1.center
    rows, ranges = [], {}
    for i in range(3000):
        rx, ry = rng.uniform(-300, 300), rng.uniform(-300, 300)
        ranges[f"eav-{i}"] = math.hypot(rx, ry)
        h = math.atan2(ry, rx) + rng.choice((-1, 1)) * math.pi / 2
        rows.append(row(float(i), f"p{i}", cx + rx, cy + ry, h, eid=f"eav-{i}"))
    obs = Observations.from_rows(rows)
    near, dot = adversary._near_and_radial(obs, np.arange(len(rows)), zone_j1_1, ranges)
    for i in range(len(rows)):
        r = obs.row(i)
        rx, ry = r.x - cx, r.y - cy
        assert near[i] == (math.hypot(rx, ry) <= ranges[r.eaves_id])
        want = math.cos(r.heading_rad) * rx + math.sin(r.heading_rad) * ry
        assert (dot[i] < 0, dot[i] > 0) == (want < 0, want > 0)


def test_all_non_cooperative_gives_empty_instance(grid4, zone_j1_1):
    rows = (approach_rows("u", S, 30.0) + depart_rows("u", N, 50.0)
            + approach_rows("v", W, 42.0) + depart_rows("v", E, 64.0))
    assert classify_tracks(tracks_of(rows), zone_j1_1, EAVES) == ([], [])


# --- the four conditions ------------------------------------------------------

def test_single_vehicle_links_to_singleton(grid4, zone_j1_1):
    rows = approach_rows("old", S, 39.5) + depart_rows("new", N, 60.5)
    sets = link(tracks_of(rows), zone_j1_1, grid4, V_MIN, "z", EAVES)
    assert len(sets) == 1
    assert sets[0].entering == "old"
    assert sets[0].candidates == frozenset({"new"})


def test_two_simultaneous_vehicles_confuse_each_other(grid4, zone_j1_1):
    rows = (approach_rows("a_old", S, 39.5) + depart_rows("a_new", N, 60.5)
            + approach_rows("b_old", W, 39.5) + depart_rows("b_new", E, 60.5))
    sets = {s.entering: s.candidates for s in
            link(tracks_of(rows), zone_j1_1, grid4, V_MIN, "z", EAVES)}
    assert sets["a_old"] == frozenset({"a_new", "b_new"})
    assert sets["b_old"] == frozenset({"a_new", "b_new"})


def test_time_window_excludes_early_and_late_exits(grid4, zone_j1_1):
    lo = 200.0 / 13.89  # shortest crossing at the speed limit
    hi = 200.0 / V_MIN
    rows = (approach_rows("old", S, 100.0)
            + depart_rows("fast", N, 100.0 + lo - 1.0)
            + depart_rows("slow", E, 100.0 + hi + 1.0)
            + depart_rows("ok", W, 100.0 + lo + 5.0))
    sets = link(tracks_of(rows), zone_j1_1, grid4, V_MIN, "z", EAVES)
    assert {s.entering: s.candidates for s in sets}["old"] == frozenset({"ok"})


def test_eaves_spans_are_each_ears_first_and_last_time():
    # rows arrive shuffled, with repeated times and several ears per id,
    # and "e" is heard by one ear only; a track's spans, one per ear of the
    # table in id order, are the ones its time-ordered rows give, with
    # +inf and -inf for an ear that never heard it
    rng = random.Random(4)
    rows = [
        row(rng.randrange(60) / 2, rng.choice("abcd"), 0.0, 0.0, 0.0,
            eid=rng.choice(["eav-0", "eav-1", "eav-2"]))
        for _ in range(400)
    ] + [row(7.0, "e", 0.0, 0.0, 0.0, eid="eav-1"), row(9.5, "e", 0.0, 0.0, 0.0, eid="eav-1")]
    tracks = flat_tracks(tracks_of(rows))
    assert len(tracks) == 5
    ears = ["eav-0", "eav-1", "eav-2"]
    for track in tracks.values():
        spans = spans_by_ear(track)
        assert track.heard_from.tolist() == [spans.get(e, (math.inf,))[0] for e in ears]
        assert track.heard_to.tolist() == [spans.get(e, (0, -math.inf))[1] for e in ears]
    assert tracks["e"].heard_from.tolist() == [math.inf, 7.0, math.inf]
    assert tracks["e"].heard_to.tolist() == [-math.inf, 9.5, -math.inf]


def test_seen_together_excludes_coexisting_ids(grid4, zone_j1_1, request):
    # "ghost" appears while "old" is still being heard by the same ear
    rows = (approach_rows("old", S, 39.5)
            + depart_rows("ghost", N, 30.0)
            + depart_rows("new", N, 60.5))
    sets = link(tracks_of(rows), zone_j1_1, grid4, V_MIN, "z", EAVES)
    by = {s.entering: s.candidates for s in sets}
    assert by["old"] == frozenset({"new"})
    request.getfixturevalue("any_gap")  # the table also shows (old, ghost)
    pairs = pair_table(tracks_of(rows), zone_j1_1, grid4, V_MIN, EAVES)
    apart = {pairs.exiting[x].pseudonym_id: ok
             for x, ok in zip(pairs.ext.tolist(), pairs.apart.tolist())}
    assert apart == {"ghost": False, "new": True}


def test_apart_fails_at_the_instant_one_ear_hears_both(grid4, zone_j1_1, any_gap):
    # "old" is last heard at 40.0 by the ear that first hears "new" at 40.0
    rows = approach_rows("old", S, 40.0) + depart_rows("new", N, 40.0)
    pairs = pair_table(tracks_of(rows), zone_j1_1, grid4, V_MIN, EAVES)
    assert pairs.dt.tolist() == [0.0]
    assert pairs.apart.tolist() == [False]
    assert pairs.road.tolist() == [False]


def test_ids_heard_only_by_different_ears_stay_apart(grid4, zone_j1_1, any_gap):
    # heard at the same times, but each by its own ear
    ranges = {"eav-0": 250.0, "eav-1": 250.0}
    rows = (approach_rows("old", S, 40.0, eid="eav-0")
            + depart_rows("new", N, 30.0, eid="eav-1"))
    pairs = pair_table(tracks_of(rows), zone_j1_1, grid4, V_MIN, ranges)
    assert pairs.apart.tolist() == [True]


def test_inward_heading_exit_never_a_candidate(grid4, zone_j1_1):
    # an id first heard pointing back at the zone is not an exiting track
    rows = approach_rows("old", S, 39.5) + approach_rows("fake", N, 80.0)
    sets = link(tracks_of(rows), zone_j1_1, grid4, V_MIN, "z", EAVES)
    by = {s.entering: s.candidates for s in sets}
    assert by["old"] == frozenset()


def test_exit_gate_rejects_appearance_far_from_exit_points(grid4, zone_j1_1):
    # first heard 160 m out, beyond the 50 m proximity gate
    rows = (approach_rows("old", S, 39.5)
            + depart_rows("mid", N, 61.0, d_near=160.0))
    sets = link(tracks_of(rows), zone_j1_1, grid4, V_MIN, "z", EAVES)
    assert {s.entering: s.candidates for s in sets}["old"] == frozenset()


def test_length_classes_never_mix(grid4, zone_j1_1):
    rows = (approach_rows("old", S, 39.5, length=4.5)
            + depart_rows("bus", N, 60.5, length=12.0))
    sets = link(tracks_of(rows), zone_j1_1, grid4, V_MIN, "z", EAVES)
    assert {s.entering: s.candidates for s in sets}["old"] == frozenset()


def test_adding_conforming_decoy_never_shrinks_sets(grid4, zone_j1_1):
    base = (approach_rows("a_old", S, 39.5) + depart_rows("a_new", N, 60.5)
            + approach_rows("b_old", W, 40.0) + depart_rows("b_new", E, 61.0))
    before = {s.entering: s.candidates for s in
              link(tracks_of(base), zone_j1_1, grid4, V_MIN, "z", EAVES)}
    with_decoy = base + depart_rows("phantom", N, 62.0)
    after = {s.entering: s.candidates for s in
             link(tracks_of(with_decoy), zone_j1_1, grid4, V_MIN, "z", EAVES)}
    for ent, cands in before.items():
        assert cands <= after[ent]


# --- oracle equivalence -------------------------------------------------------

ARMS = (N, S, E, W)


def random_instance(seed: int) -> tuple[list[ObsRow], dict[str, float]]:
    rng = random.Random(seed)
    rows: list[ObsRow] = []
    n_tracks = rng.randint(2, 8)
    eaves = {"eav-0": 250.0}
    if rng.random() < 0.3:
        eaves["eav-1"] = 300.0  # second ear south of the zone at (500, 0)
    for i in range(n_tracks):
        pid = f"p{i}"
        kind = rng.choice(("enter", "exit", "through", "far", "loiter",
                           "in-out-in", "out-in-out"))
        length = rng.choice((4.5, 4.5, 7.5))
        speed = rng.choice((8.0, 10.0, 12.0))
        arm = rng.choice(ARMS)
        t0 = round(rng.uniform(10.0, 120.0), 1)
        if kind == "enter":
            rs = approach_rows(pid, arm, t0, length, speed)
        elif kind == "exit":
            d_near = rng.choice((105.0, 130.0, 170.0))
            rs = depart_rows(pid, arm, t0, length, speed, d_near=d_near)
        elif kind == "through":
            rs = (approach_rows(pid, arm, t0, length, speed)
                  + depart_rows(pid, rng.choice(ARMS), t0 + 20.0, length, speed))
        elif kind == "loiter":
            # wanders within the catchment on one arm, both directions
            rs = (depart_rows(pid, arm, t0, length, speed, d_near=110.0,
                              d_far=180.0)
                  + approach_rows(pid, arm, t0 + 30.0, length, speed,
                                  d_far=180.0, d_near=110.0))
        elif kind in ("in-out-in", "out-in-out"):
            # three legs 5 s apart, each on an arm of its own draw: a
            # trivially linked id whose last row is inbound, or whose first
            # row is outbound, as an entering or an exiting id's would be
            rs, t, leg = [], t0, 145.0 / speed
            for way in kind.split("-"):
                if way == "in":
                    rs += approach_rows(pid, rng.choice(ARMS), t + leg, length, speed)
                else:
                    rs += depart_rows(pid, rng.choice(ARMS), t, length, speed)
                t += leg + 5.0
        else:
            base = rng.choice(((1400.0, 1500.0), (0.0, 1450.0)))
            rs = [row(t0 + j, pid, base[0] + 10 * j, base[1], 0.0, length,
                      speed) for j in range(4)]
        # mirror rows into every ear that can hear the claimed position
        mirrored = []
        for r in rs:
            if math.hypot(r.x - 500.0, r.y - 500.0) <= 250.0:
                mirrored.append(r)
            if "eav-1" in eaves and math.hypot(r.x - 500.0, r.y - 0.0) <= 300.0:
                mirrored.append(
                    ObsRow(r.time_s, r.pseudonym_id, r.x, r.y, r.speed_mps,
                           r.heading_rad, r.length_m, "eav-1")
                )
        rows.extend(mirrored)
    rows.sort(key=lambda r: (r.time_s, r.pseudonym_id, r.eaves_id))
    return rows, eaves


def test_link_matches_brute_force_oracle_on_500_instances(grid4, zone_j1_1):
    for seed in range(500):
        rows, eaves = random_instance(seed)
        fast = link(tracks_of(rows), zone_j1_1, grid4, V_MIN, "z", eaves)
        slow = brute_force_oracle(rows, zone_j1_1, grid4, V_MIN, "z", eaves)
        as_dict = lambda sets: {s.entering: s.candidates for s in sets}
        assert as_dict(fast) == as_dict(slow), f"divergence at seed {seed}"


def test_oracle_on_empty_instance(grid4, zone_j1_1):
    assert brute_force_oracle([], zone_j1_1, grid4, V_MIN, "z", EAVES) == []


@pytest.mark.parametrize("window", ["zone", "any gap"])
def test_pair_table_matches_a_scalar_reference(grid4, zone_j1_1, request, window):
    # every pair of an entering id and a gate-passing exiting id of its
    # class whose gap, by the scalar formula, is in the window, with each
    # column recomputed pair by pair; admitting any gap adds the rows the
    # window drops, ids heard at once among them
    if window == "any gap":
        request.getfixturevalue("any_gap")
    lo, hi = adversary.traverse_time_bounds(zone_j1_1, grid4, V_MIN)
    outcomes = Counter()
    for seed in range(200):
        rows, eaves = random_instance(seed)
        classes = tracks_of(rows)
        entering, exiting = classify_tracks(classes, zone_j1_1, eaves)
        want = [
            (a, b, b.first.time_s - a.last.time_s)
            for a in entering for b in exiting
            if a.length_m == b.length_m
            and exit_direction_consistent((b.first.x, b.first.y),
                                          b.first.heading_rad, zone_j1_1)
            and lo <= b.first.time_s - a.last.time_s <= hi
        ]
        pairs = pair_table(classes, zone_j1_1, grid4, V_MIN, eaves)
        got = [(pairs.entering[e], pairs.exiting[x])
               for e, x in zip(pairs.ent.tolist(), pairs.ext.tolist())]
        assert [(a.pseudonym_id, b.pseudonym_id) for a, b in got] == [
            (a.pseudonym_id, b.pseudonym_id) for a, b, _ in want
        ], f"seed {seed}"
        assert pairs.dt.tolist() == [dt for _, _, dt in want]
        assert pairs.ent_row.tolist() == [a.rows[-1] for a, _, _ in want]
        assert pairs.ext_row.tolist() == [b.rows[0] for _, b, _ in want]
        for (a, b, _), apart, on_road in zip(want, pairs.apart.tolist(),
                                             pairs.road.tolist()):
            assert apart == (a.pseudonym_id != b.pseudonym_id
                             and not seen_together(a, b))
            assert on_road == (apart and road(grid4, a.last, b.first, zone_j1_1))
            outcomes[apart, on_road] += 1
    assert outcomes[True, True]
    assert bool(outcomes[False, False]) == (window == "any gap")


def test_exit_off_the_network_has_no_road(grid4, zone_j1_1):
    # first heard inside the exit gate, heading away, but 20 m off the road
    rows = approach_rows("old", S, 39.5) + [
        row(60.5 + i / 2, "stray", 520.0, 605.0 + 5 * i, math.pi / 2)
        for i in range(10)
    ]
    pairs = pair_table(tracks_of(rows), zone_j1_1, grid4, V_MIN, EAVES)
    assert (pairs.apart.tolist(), pairs.road.tolist()) == ([True], [False])
    sets = link(tracks_of(rows), zone_j1_1, grid4, V_MIN, "z", EAVES)
    assert sets[0].candidates == frozenset()


def test_emitted_pairs_satisfy_all_conditions(grid4, zone_j1_1):
    # re-check each emitted pair independently of the linker internals
    from decoymix.roads import traverse_time_bounds
    rows, eaves = random_instance(123)
    classes = tracks_of(rows)
    tracks = flat_tracks(classes)
    lo, hi = traverse_time_bounds(zone_j1_1, grid4, V_MIN)
    for s in link(classes, zone_j1_1, grid4, V_MIN, "z", eaves):
        ent = tracks[s.entering]
        for cid in s.candidates:
            cand = tracks[cid]
            assert cand.length_m == ent.length_m
            diff = cand.first.time_s - ent.last.time_s
            assert lo <= diff <= hi
            assert not seen_together(ent, cand)
            assert exit_direction_consistent(
                (cand.first.x, cand.first.y), cand.first.heading_rad, zone_j1_1
            )
            assert path_exists(
                grid4, (ent.last.x, ent.last.y), (cand.first.x, cand.first.y),
                zone_j1_1, from_heading=ent.last.heading_rad,
                to_heading=cand.first.heading_rad,
            )


# --- the snap memo ------------------------------------------------------------

def _snap_outcome(g, row):
    try:
        return g.snap((row.x, row.y), heading=row.heading_rad)
    except OffNetwork:
        return "off-network"


def test_snap_memo_matches_a_fresh_graph_at_every_track_end():
    # every end row link checks on the multi-zone golden scenario: the
    # entering and exiting rows of each zone's pair table
    cfg = test_golden.multi_zone_config()
    result = run(cfg)
    g = cfg.graph
    eaves = {e.eaves_id: e.range_m for e in cfg.eavesdroppers}
    obs = result.observations
    classes = build_tracks(obs)
    ends = set()
    for zi in result.zones:
        pairs = pair_table(classes, zi.geometry, g, cfg.v_min_mps, eaves)
        ends |= set(map(obs.row, pairs.ent_row.tolist() + pairs.ext_row.tolist()))
    assert len(ends) > 20
    for row in sorted(ends):
        want = _snap_outcome(RoadGraph(g.junctions, list(g.edges.values())), row)
        assert _snap_outcome(g, row) == want
        assert _snap_outcome(g, row) == want  # answered from the memo


def test_off_network_snap_raises_on_every_call(grid4):
    for _ in range(3):
        with pytest.raises(OffNetwork, match="from the network"):
            grid4.snap((250.0, 80.0), heading=0.0)


# --- chaining -----------------------------------------------------------------

def test_chain_follows_singletons_across_zones():
    sets = [
        LinkCandidateSet("z-a", "p0", frozenset({"p1"})),
        LinkCandidateSet("z-b", "p1", frozenset({"p2"})),
    ]
    chains = chain(sets, rng_seed=5)
    assert len(chains) == 1
    assert chains[0].ids == ("p0", "p1", "p2")
    assert [l.set_size for l in chains[0].links] == [1, 1]


def test_chain_stops_at_empty_set():
    sets = [
        LinkCandidateSet("z-a", "p0", frozenset({"p1"})),
        LinkCandidateSet("z-b", "p1", frozenset()),
    ]
    chains = chain(sets, rng_seed=5)
    assert chains[0].ids == ("p0", "p1")
    assert len(chains[0].links) == 1


def test_chain_choice_is_seed_deterministic():
    sets = [LinkCandidateSet("z-a", "p0", frozenset({"x", "y", "z"}))]
    picks = {chain(sets, rng_seed=s)[0].ids[1] for s in range(40)}
    assert picks == {"x", "y", "z"}  # all reachable across seeds
    assert chain(sets, rng_seed=7) == chain(sets, rng_seed=7)


def test_chain_distance_includes_gap_jumps():
    rows = ([row(float(t), "p0", 100.0 + 10 * t, 0.0, 0.0) for t in range(5)]
            + [row(10.0 + t, "p1", 300.0 + 10 * t, 0.0, 0.0) for t in range(3)])
    tracks = flat_tracks(tracks_of(rows))
    ch = Chain(("p0", "p1"), (ChainLink("z", "p0", "p1", 1),))
    # p0 covers 40 m, gap 140 → 300 jumps 160 m, p1 covers 20 m
    assert chain_distance_m(ch, tracks) == pytest.approx(40 + 160 + 20)
    assert chain_distance_m(ch, tracks, n_links=0) == pytest.approx(40)


# --- honest-but-curious RSU ---------------------------------------------------

def test_hbc_resolves_known_members_exactly():
    ext = [LinkCandidateSet("z-a", "old", frozenset({"new", "chaff1", "foreign"}))]
    out = hbc_rsu_link(ext, {"old": "new"}, frozenset({"chaff1"}))
    assert out[0].candidates == frozenset({"new"})


def test_hbc_strips_own_chaff_only():
    ext = [LinkCandidateSet("z-a", "stranger", frozenset({"x", "own1", "alien"}))]
    out = hbc_rsu_link(ext, {}, frozenset({"own1"}))
    assert out[0].candidates == frozenset({"x", "alien"})


def test_hbc_leaves_other_zone_output_untouched():
    ext = [LinkCandidateSet("z-b", "old", frozenset({"a", "b"}))]
    # caller only routes flagged-zone sets here; unflagged zones keep link()
    out = hbc_rsu_link(ext, {}, frozenset())
    assert out[0].candidates == frozenset({"a", "b"})


# --- evaluation plumbing ------------------------------------------------------

def test_attach_truth_and_export(tmp_path):
    sets = [
        LinkCandidateSet("z-a", "old", frozenset({"new", "ph"})),
        LinkCandidateSet("z-a", "other", frozenset()),
    ]
    filled = attach_truth(sets, {("z-a", "old"): "new"})
    assert filled[0].truth == "new"
    assert filled[1].truth is None
    buf = io.StringIO()
    export_candidate_sets(filled, buf)
    lines = [json.loads(l) for l in buf.getvalue().splitlines()]
    assert lines[0] == {"zone": "z-a", "entering": "old",
                        "candidates": ["new", "ph"], "truth": "new"}
    assert lines[1]["truth"] is None

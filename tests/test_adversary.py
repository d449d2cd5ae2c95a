from __future__ import annotations

import io
import json
import math
import random

import pytest

from decoymix.adversary import (
    Chain,
    ChainLink,
    LinkCandidateSet,
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
    parse_observation_csv,
    seen_together,
)

EAVES = {"eav-0": 250.0}
V_MIN = 1.39


def row(t, pid, x, y, heading, length=4.5, speed=10.0, eid="eav-0"):
    return ObsRow(t, pid, x, y, speed, heading, length, eid)


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


# --- track building ----------------------------------------------------------

def test_build_tracks_partitions_by_length_class():
    rows = [
        row(1.0, "a", 100, 100, 0.0, length=4.5),
        row(2.0, "a", 105, 100, 0.0, length=4.5),
        row(1.0, "b", 300, 100, 0.0, length=4.5),
        row(1.0, "c", 500, 100, 0.0, length=12.0),
    ]
    classes = build_tracks(rows)
    assert {k: len(v) for k, v in classes.items()} == {4.5: 2, 12.0: 1}


def test_build_tracks_empty_log():
    assert build_tracks([]) == {}


def test_single_observation_track_has_equal_endpoints():
    classes = build_tracks([row(3.0, "solo", 100, 100, 0.0)])
    track = classes[4.5][0]
    assert track.first is track.last
    assert [r.time_s for r in track.rows] == [3.0]


def test_parse_observation_csv_round_trip():
    text = (
        "time,pseudonym_id,x,y,speed,heading,length,eavesdropper_id\n"
        "1.0,ab,100.000,200.000,10.000,1.570796,4.5,eav-0\n"
        "0.5,cd,110.000,200.000,10.000,0.000000,7.5,eav-1\n"
    )
    rows = parse_observation_csv(io.StringIO(text))
    assert [r.pseudonym_id for r in rows] == ["cd", "ab"]
    assert rows[1].heading_rad == pytest.approx(1.570796)


# --- classification and trivial filtering ------------------------------------

def test_pass_through_id_is_trivially_linked(grid4, zone_j1_1):
    rows = approach_rows("nc", S, 39.5) + depart_rows("nc", N, 60.5)
    classes = build_tracks(rows)
    instances, trivial = classify_tracks(classes, zone_j1_1, EAVES)
    assert trivial == ["nc"]
    assert instances == {}


def test_changed_ids_classify_entering_and_exiting(grid4, zone_j1_1):
    rows = approach_rows("old", S, 39.5) + depart_rows("new", N, 60.5)
    instances, trivial = classify_tracks(build_tracks(rows), zone_j1_1, EAVES)
    assert trivial == []
    inst = instances[4.5]
    assert [t.pseudonym_id for t in inst.entering] == ["old"]
    assert [t.pseudonym_id for t in inst.exiting] == ["new"]


def test_far_track_ignored_entirely(grid4, zone_j1_1):
    rows = approach_rows("old", S, 39.5) + [
        row(5.0, "far", 1400, 1500, 0.0),
        row(6.0, "far", 1410, 1500, 0.0),
    ]
    instances, trivial = classify_tracks(build_tracks(rows), zone_j1_1, EAVES)
    ids = {t.pseudonym_id for i in instances.values() for t in i.entering + i.exiting}
    assert "far" not in ids and trivial == []


def test_all_non_cooperative_gives_empty_instance(grid4, zone_j1_1):
    rows = (approach_rows("u", S, 30.0) + depart_rows("u", N, 50.0)
            + approach_rows("v", W, 42.0) + depart_rows("v", E, 64.0))
    instances, trivial = classify_tracks(build_tracks(rows), zone_j1_1, EAVES)
    assert instances == {} and trivial == ["u", "v"]


# --- the four conditions ------------------------------------------------------

def test_single_vehicle_links_to_singleton(grid4, zone_j1_1):
    rows = approach_rows("old", S, 39.5) + depart_rows("new", N, 60.5)
    sets = link(build_tracks(rows), zone_j1_1, grid4, V_MIN, "z", EAVES)
    assert len(sets) == 1
    assert sets[0].entering == "old"
    assert sets[0].candidates == frozenset({"new"})


def test_two_simultaneous_vehicles_confuse_each_other(grid4, zone_j1_1):
    rows = (approach_rows("a_old", S, 39.5) + depart_rows("a_new", N, 60.5)
            + approach_rows("b_old", W, 39.5) + depart_rows("b_new", E, 60.5))
    sets = {s.entering: s.candidates for s in
            link(build_tracks(rows), zone_j1_1, grid4, V_MIN, "z", EAVES)}
    assert sets["a_old"] == frozenset({"a_new", "b_new"})
    assert sets["b_old"] == frozenset({"a_new", "b_new"})


def test_time_window_excludes_early_and_late_exits(grid4, zone_j1_1):
    lo = 200.0 / 13.89  # shortest crossing at the speed limit
    hi = 200.0 / V_MIN
    rows = (approach_rows("old", S, 100.0)
            + depart_rows("fast", N, 100.0 + lo - 1.0)
            + depart_rows("slow", E, 100.0 + hi + 1.0)
            + depart_rows("ok", W, 100.0 + lo + 5.0))
    sets = link(build_tracks(rows), zone_j1_1, grid4, V_MIN, "z", EAVES)
    assert {s.entering: s.candidates for s in sets}["old"] == frozenset({"ok"})


def test_seen_together_excludes_coexisting_ids(grid4, zone_j1_1):
    # "ghost" appears while "old" is still being heard by the same ear
    rows = (approach_rows("old", S, 39.5)
            + depart_rows("ghost", N, 30.0)
            + depart_rows("new", N, 60.5))
    sets = link(build_tracks(rows), zone_j1_1, grid4, V_MIN, "z", EAVES)
    by = {s.entering: s.candidates for s in sets}
    assert by["old"] == frozenset({"new"})
    a = build_tracks(rows)[4.5]
    tracks = {t.pseudonym_id: t for t in a}
    assert seen_together(tracks["old"], tracks["ghost"])
    assert not seen_together(tracks["old"], tracks["new"])


def test_inward_heading_exit_never_a_candidate(grid4, zone_j1_1):
    # an id first heard pointing back at the zone is not an exiting track
    rows = approach_rows("old", S, 39.5) + approach_rows("fake", N, 80.0)
    sets = link(build_tracks(rows), zone_j1_1, grid4, V_MIN, "z", EAVES)
    by = {s.entering: s.candidates for s in sets}
    assert by["old"] == frozenset()


def test_exit_gate_rejects_appearance_far_from_exit_points(grid4, zone_j1_1):
    # first heard 160 m out, beyond the 50 m proximity gate
    rows = (approach_rows("old", S, 39.5)
            + depart_rows("mid", N, 61.0, d_near=160.0))
    sets = link(build_tracks(rows), zone_j1_1, grid4, V_MIN, "z", EAVES)
    assert {s.entering: s.candidates for s in sets}["old"] == frozenset()


def test_length_classes_never_mix(grid4, zone_j1_1):
    rows = (approach_rows("old", S, 39.5, length=4.5)
            + depart_rows("bus", N, 60.5, length=12.0))
    sets = link(build_tracks(rows), zone_j1_1, grid4, V_MIN, "z", EAVES)
    assert {s.entering: s.candidates for s in sets}["old"] == frozenset()


def test_adding_conforming_decoy_never_shrinks_sets(grid4, zone_j1_1):
    base = (approach_rows("a_old", S, 39.5) + depart_rows("a_new", N, 60.5)
            + approach_rows("b_old", W, 40.0) + depart_rows("b_new", E, 61.0))
    before = {s.entering: s.candidates for s in
              link(build_tracks(base), zone_j1_1, grid4, V_MIN, "z", EAVES)}
    with_decoy = base + depart_rows("phantom", N, 62.0)
    after = {s.entering: s.candidates for s in
             link(build_tracks(with_decoy), zone_j1_1, grid4, V_MIN, "z", EAVES)}
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
        kind = rng.choice(("enter", "exit", "through", "far", "loiter"))
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
        fast = link(build_tracks(rows), zone_j1_1, grid4, V_MIN, "z", eaves)
        slow = brute_force_oracle(rows, zone_j1_1, grid4, V_MIN, "z", eaves)
        as_dict = lambda sets: {s.entering: s.candidates for s in sets}
        assert as_dict(fast) == as_dict(slow), f"divergence at seed {seed}"


def test_oracle_on_empty_instance(grid4, zone_j1_1):
    assert brute_force_oracle([], zone_j1_1, grid4, V_MIN, "z", EAVES) == []


def test_emitted_pairs_satisfy_all_conditions(grid4, zone_j1_1):
    # re-check each emitted pair independently of the linker internals
    from decoymix.roads import exit_direction_consistent, path_exists, traverse_time_bounds
    rows, eaves = random_instance(123)
    classes = build_tracks(rows)
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
    tracks = flat_tracks(build_tracks(rows))
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

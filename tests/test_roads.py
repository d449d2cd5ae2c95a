from __future__ import annotations

import math
import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decoymix import roads
from decoymix.errors import OffNetwork
from decoymix.roads import (
    SNAP_CELL_M,
    SNAP_TOLERANCE_M,
    Edge,
    RoadGraph,
    central_junctions,
    exit_direction_consistent,
    make_grid,
    MixZoneGeometry,
    path_exists,
    point_along,
    polyline_length,
    project_to_polyline,
    traverse_time_bounds,
    zone_from_center,
)


def _t_junction() -> RoadGraph:
    """Three-armed junction at the origin: stem to the south, arms west/east."""
    junctions = {
        "t": (0.0, 0.0),
        "s": (0.0, -400.0),
        "w": (-400.0, 0.0),
        "e": (400.0, 0.0),
    }
    edges = []
    for a, b in (("s", "t"), ("w", "t"), ("e", "t")):
        for tail, head in ((a, b), (b, a)):
            shape = (junctions[tail], junctions[head])
            edges.append(
                Edge(
                    id=f"{tail}__{head}",
                    tail=tail,
                    head=head,
                    shape=shape,
                    speed_limit=13.89,
                    length=polyline_length(shape),
                )
            )
    return RoadGraph(junctions, edges)


# graph basics


def test_edge_validates_length_and_limit():
    shape = ((0.0, 0.0), (100.0, 0.0))
    with pytest.raises(ValueError):
        Edge("e", "a", "b", shape, 13.89, 99.0)
    with pytest.raises(ValueError):
        Edge("e", "a", "b", shape, 0.0, 100.0)


def test_grid_shape(grid4):
    assert len(grid4.junctions) == 16
    # 24 undirected segments, two directed edges each
    assert len(grid4.edges) == 48


def test_json_round_trip(grid4, tmp_path):
    path = tmp_path / "g.json"
    path.write_text(grid4.to_json(), encoding="utf-8")
    again = RoadGraph.load(path)
    assert again.to_json() == grid4.to_json()
    assert set(again.edges) == set(grid4.edges)


def test_snap_tolerance(grid4):
    eid, off = grid4.snap((250.0, 4.9))
    assert eid in ("j0_0__j0_1", "j0_1__j0_0")
    assert off == pytest.approx(250.0, abs=0.01)
    with pytest.raises(OffNetwork):
        grid4.snap((250.0, 5.1))


def test_snap_grid_past_its_cell_cap_is_refused(monkeypatch):
    # a 4x4 grid at 500 m covers 1,152 cells summed over its segments: a
    # cap one below refuses the graph, naming the edge whose segment
    # passes it
    monkeypatch.setattr(roads, "SNAP_CELL_CAP", 1152)
    assert len(make_grid(4, 4, 500.0)._snap_cells) == 448
    monkeypatch.setattr(roads, "SNAP_CELL_CAP", 1151)
    with pytest.raises(ValueError, match="^edge j3_3__j3_2: the snap grid would pass"):
        make_grid(4, 4, 500.0)


def _polyline_graph() -> RoadGraph:
    """Two-way roads with bent, diagonal polylines; each lane's twin runs the
    same points backwards. The spur d-e lies inside one column of snap cells
    at negative x, and a straight run of a-b lies 0.5 mm inside the 5 m band
    of the cell border y = 50."""
    roads = {
        ("a", "b"): ((-130.0, -40.0), (-60.0, -55.0), (20.0, 10.0),
                     (140.0, 54.9995), (200.0, 54.9995), (210.0, 95.0)),
        ("b", "c"): ((210.0, 95.0), (180.0, 170.0), (100.0, 240.0),
                     (35.0, 310.0)),
        ("c", "a"): ((35.0, 310.0), (-20.0, 150.0), (-100.0, 50.0),
                     (-130.0, -40.0)),
        ("d", "e"): ((-40.0, -300.0), (-12.0, -260.0), (-40.0, -220.0)),
    }
    junctions = {}
    edges = []
    for (a, b), shape in roads.items():
        junctions[a], junctions[b] = shape[0], shape[-1]
        for tail, head, pts in ((a, b, shape), (b, a, shape[::-1])):
            edges.append(Edge(f"{tail}__{head}", tail, head, pts, 13.89,
                              polyline_length(pts)))
    return RoadGraph(junctions, edges)


def _snap_by_scan(g: RoadGraph, pos, heading=None):
    """Reference snap: project onto every edge of the graph."""
    best = None
    for eid in sorted(g.edges):
        off, d = project_to_polyline(g.edges[eid].shape, pos)
        if heading is None:
            key = (d, 0.0, eid)
        else:
            _, _, eh = point_along(g.edges[eid].shape, off)
            key = (round(d, 9), -math.cos(eh - heading), eid)
        if best is None or key < best[0]:
            best = (key, eid, off)
    if best is None or best[0][0] > SNAP_TOLERANCE_M:
        raise OffNetwork(f"position {pos} is off the network")
    return best[1], best[2]


def _snap_outcome(snap, g, pos, heading):
    try:
        return snap(g, pos, heading)
    except OffNetwork:
        return "off-network"


SNAP_GRAPHS = {
    "grid4": make_grid(4, 4, 500.0),
    "t-junction": _t_junction(),
    "polylines": _polyline_graph(),
}
MM = 1e-3


@st.composite
def _snap_probe(draw, g: RoadGraph):
    """A point beside a random lane, at any side offset up to 8 m or within
    1 mm of the 5 m tolerance, sometimes moved to within 1 mm of a cell
    border; the heading is absent, random, or along either lane."""
    e = g.edges[draw(st.sampled_from(sorted(g.edges)))]
    x, y, h = point_along(e.shape, draw(st.floats(0.0, 1.0)) * e.length)
    side = draw(st.one_of(
        st.floats(-8.0, 8.0),
        st.tuples(st.sampled_from([-SNAP_TOLERANCE_M, SNAP_TOLERANCE_M]),
                  st.floats(-MM, MM)).map(sum),
    ))
    pos = [x - side * math.sin(h), y + side * math.cos(h)]
    for axis in draw(st.sampled_from([(), (0,), (1,), (0, 1)])):
        border = round(pos[axis] / SNAP_CELL_M) * SNAP_CELL_M
        pos[axis] = border + draw(st.floats(-MM, MM))
    heading = draw(st.one_of(
        st.none(),
        st.floats(-math.pi, math.pi),
        st.sampled_from([h, h + math.pi]),
    ))
    return (pos[0], pos[1]), heading


@pytest.mark.parametrize("name", sorted(SNAP_GRAPHS))
@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_indexed_snap_matches_full_scan(name, data):
    g = SNAP_GRAPHS[name]
    pos, heading = data.draw(_snap_probe(g))
    assert (_snap_outcome(RoadGraph.snap, g, pos, heading)
            == _snap_outcome(_snap_by_scan, g, pos, heading))


@pytest.mark.parametrize("pos", [
    (170.0, 50.0 - 0.4 * MM),  # 4.9999 m from a-b, in the cell below it
    (170.0, 50.0 - 0.6 * MM),  # 5.0001 m from a-b: off the network
    (-26.0, -280.0),  # on the spur, at negative coordinates
    (math.nan, 50.0),
    (0.0, -math.inf),
])
@pytest.mark.parametrize("heading", [None, 0.0, math.pi])
def test_indexed_snap_matches_full_scan_at_edge_cases(pos, heading):
    g = SNAP_GRAPHS["polylines"]
    assert (_snap_outcome(RoadGraph.snap, g, pos, heading)
            == _snap_outcome(_snap_by_scan, g, pos, heading))


def _diagonal_graph() -> RoadGraph:
    """One two-way road, a straight 100 km diagonal from the origin."""
    end = (100_000.0 / math.sqrt(2.0),) * 2
    shape = ((0.0, 0.0), end)
    return RoadGraph({"a": shape[0], "b": end}, [
        Edge("a__b", "a", "b", shape, 13.89, polyline_length(shape)),
        Edge("b__a", "b", "a", shape[::-1], 13.89, polyline_length(shape)),
    ])


def test_long_diagonal_lists_only_the_cells_within_reach(monkeypatch):
    # the diagonal's bounding box, grown by the tolerance, holds about 2e6
    # cells of 50 m, past the cap; the cells within reach of it number a
    # few per column of the 1,415 it crosses, and only those count
    g = _diagonal_graph()
    listed = sum(len(ids) for ids in g._snap_cells.values())
    assert listed == 2 * len(g._snap_cells) < 2 * 4 * 1415
    monkeypatch.setattr(roads, "SNAP_CELL_CAP", listed)
    _diagonal_graph()
    monkeypatch.setattr(roads, "SNAP_CELL_CAP", listed - 1)
    with pytest.raises(ValueError, match="^edge b__a: the snap grid would pass"):
        _diagonal_graph()

    # a lattice of points beside the road, near and past its ends and
    # around the tolerance, some on cell borders: snap finds what a scan
    # of every edge finds
    step = 1.0 / math.sqrt(2.0)
    along = [-6.0, -3.0, 0.0, 0.3, 1234.5, 35_355.0, 50_000.0, 99_999.9,
             100_000.0, 100_003.0, 100_006.0]
    side = [0.0, 2.5, 4.999, 5.0, 5.0009, 5.002, 7.0, 30.0]
    probes = [
        ((a - s) * step, (a + s) * step)
        for a in along for s in side + [-v for v in side]
    ]
    probes += [(x, x + d) for x in (50.0, 35_350.0) for d in (-7.0, -5.0, 4.9, 7.0)]
    found = []
    for pos in probes:
        for heading in (None, math.pi / 4):
            got = _snap_outcome(RoadGraph.snap, g, pos, heading)
            assert got == _snap_outcome(_snap_by_scan, g, pos, heading), (pos, heading)
            found.append(got == "off-network")
    assert 0 < sum(found) < len(found)


def test_shortest_path_deterministic(grid4):
    p1 = grid4.shortest_path("j0_0", "j0_2")
    assert p1 == ["j0_0__j0_1", "j0_1__j0_2"]
    assert grid4.shortest_path("j0_0", "j0_0") == []
    assert grid4.shortest_path("j0_0", "j3_3") == grid4.shortest_path("j0_0", "j3_3")


def test_point_along_walks_polyline():
    shape = ((0.0, 0.0), (100.0, 0.0), (100.0, 50.0))
    x, y, h = point_along(shape, 120.0)
    assert (x, y) == pytest.approx((100.0, 20.0))
    assert h == pytest.approx(math.pi / 2)


# zone geometry


def test_zone_boundary_points_on_circle(grid4, zone_j1_1):
    z = zone_j1_1
    assert len(z.entry_points) == 4
    assert len(z.exit_points) == 4
    for bp in z.entry_points + z.exit_points:
        r = math.dist(bp.position, z.center)
        assert abs(r - z.radius) <= 0.5


def test_zone_internal_paths_grid(zone_j1_1):
    # every entry->exit movement through the junction is 100 m + 100 m
    assert zone_j1_1.internal_paths
    for (e_in, e_out), length in zone_j1_1.internal_paths.items():
        assert length == pytest.approx(200.0, abs=1e-6)
    # 4 entries x 3 non-U-turn exits
    assert len(zone_j1_1.internal_paths) == 12


def test_zone_internal_paths_exclude_u_turns(grid4, zone_j1_1):
    for e_in, e_out in zone_j1_1.internal_paths:
        assert e_out not in grid4.reverse_of[e_in]


def test_internal_path_at_least_straight_line(zone_j1_1):
    entries = {bp.edge_id: bp for bp in zone_j1_1.entry_points}
    exits = {bp.edge_id: bp for bp in zone_j1_1.exit_points}
    for (e_in, e_out), length in zone_j1_1.internal_paths.items():
        d = math.dist(entries[e_in].position, exits[e_out].position)
        assert length >= d - 1e-9


def test_single_edge_chord_zone():
    junctions = {"a": (-300.0, 0.0), "b": (300.0, 0.0)}
    shape = ((-300.0, 0.0), (300.0, 0.0))
    g = RoadGraph(
        junctions,
        [Edge("a__b", "a", "b", shape, 10.0, polyline_length(shape))],
    )
    z = zone_from_center(g, (0.0, 0.0), 100.0)
    assert len(z.entry_points) == 1 and len(z.exit_points) == 1
    assert z.internal_paths == {("a__b", "a__b"): pytest.approx(200.0)}
    lo, hi = traverse_time_bounds(z, g, v_min=10.0)
    assert lo == pytest.approx(hi)  # min = max iff speed_limit = v_min


# traverse-time bounds


def test_traverse_time_bounds_grid(grid4, zone_j1_1):
    lo, hi = traverse_time_bounds(zone_j1_1, grid4, v_min=1.39)
    assert lo == pytest.approx(200.0 / 13.89, abs=0.005)  # ~14.40 s
    assert hi == pytest.approx(200.0 / 1.39, abs=0.05)  # ~143.9 s
    assert lo <= hi


def test_traverse_time_bounds_direct_division():
    z = MixZoneGeometry(
        center=(0.0, 0.0),
        radius=100.0,
        entry_points=(),
        exit_points=(),
        internal_paths={("a", "b"): 150.0, ("a", "c"): 250.0},
        edge_ids=frozenset({"a", "b", "c"}),
        max_speed_limit=10.0,
    )
    assert traverse_time_bounds(z, None, v_min=2.0) == (15.0, 125.0)


def test_speed_scaling_divides_min_exactly():
    for scale in (2.0, 3.5):
        g = make_grid(3, 3, 400.0, speed_limit=13.89)
        gs = make_grid(3, 3, 400.0, speed_limit=13.89 * scale)
        z = zone_from_center(g, (400.0, 400.0), 100.0)
        zs = zone_from_center(gs, (400.0, 400.0), 100.0)
        lo, _ = traverse_time_bounds(z, g, v_min=1.39)
        lo_s, _ = traverse_time_bounds(zs, gs, v_min=1.39)
        assert lo_s == pytest.approx(lo / scale, rel=1e-12)


# exit-direction consistency


def test_exit_direction_outward_true(zone_j1_1):
    # 10 m past the east exit (at x=600), heading east
    assert exit_direction_consistent((610.0, 500.0), 0.0, zone_j1_1)


def test_exit_direction_toward_center_false(zone_j1_1):
    assert not exit_direction_consistent((610.0, 500.0), math.pi, zone_j1_1)


def test_exit_direction_far_from_exits_false(zone_j1_1):
    # on the rim but 200+ m from every boundary exit point
    assert not exit_direction_consistent((790.0, 500.0), 0.0, zone_j1_1)


def test_exit_direction_inside_zone_false(zone_j1_1):
    assert not exit_direction_consistent((550.0, 500.0), 0.0, zone_j1_1)


# path_exists


def test_path_exists_all_three_exits(grid4, zone_j1_1):
    # approach heading east toward j1_1; each non-U-turn exit reachable
    entry = (350.0, 500.0)
    for exit_pos in ((650.0, 500.0), (500.0, 650.0), (500.0, 350.0)):
        assert path_exists(grid4, entry, exit_pos, zone_j1_1)


def test_path_exists_snap_failure(grid4, zone_j1_1):
    with pytest.raises(OffNetwork):
        path_exists(grid4, (350.0, 480.0), (650.0, 500.0), zone_j1_1)


def test_one_way_edge_toward_zone_unreachable():
    junctions = {"w": (-400.0, 0.0), "c": (0.0, 0.0), "e": (400.0, 0.0)}
    shapes = {
        "w__c": ((-400.0, 0.0), (0.0, 0.0)),
        "c__w": ((0.0, 0.0), (-400.0, 0.0)),
        "e__c": ((400.0, 0.0), (0.0, 0.0)),  # one way, pointing at the zone
    }
    edges = [
        Edge(eid, eid.split("__")[0], eid.split("__")[1], s, 13.89, polyline_length(s))
        for eid, s in shapes.items()
    ]
    g = RoadGraph(junctions, edges)
    z = zone_from_center(g, (0.0, 0.0), 100.0)
    # the only eastbound lane runs toward the zone; no exit to the east
    assert not path_exists(g, (-300.0, 0.0), (300.0, 0.0), z)


def test_t_junction_u_turn_blocked():
    g = _t_junction()
    z = zone_from_center(g, (0.0, 0.0), 100.0)
    north, south = math.pi / 2, -math.pi / 2
    # both lanes of the stem share geometry; the heading picks the lane
    assert g.snap((0.0, -150.0), heading=north)[0] == "s__t"
    assert g.snap((0.0, -150.0), heading=south)[0] == "t__s"
    # enter on the stem, try to exit on the stem's opposite lane
    assert not path_exists(
        g, (0.0, -150.0), (0.0, -150.0), z, from_heading=north, to_heading=south
    )
    # the two legitimate turns stay reachable
    assert path_exists(
        g, (0.0, -150.0), (-150.0, 0.0), z, from_heading=north, to_heading=math.pi
    )
    assert path_exists(
        g, (0.0, -150.0), (150.0, 0.0), z, from_heading=north, to_heading=0.0
    )


def test_path_exists_monotone_under_edge_removal(grid4, zone_j1_1):
    # removing an edge never turns a false result true
    smaller_edges = [e for eid, e in grid4.edges.items() if eid != "j1_1__j1_2"]
    smaller = RoadGraph(grid4.junctions, smaller_edges)
    z_small = zone_from_center(smaller, (500.0, 500.0), 100.0)
    rng = random.Random(99)
    spots = [(350.0, 500.0), (650.0, 500.0), (500.0, 350.0), (500.0, 650.0), (150.0, 500.0)]
    for _ in range(40):
        a, b = rng.choice(spots), rng.choice(spots)
        if path_exists(smaller, a, b, z_small):
            assert path_exists(grid4, a, b, zone_j1_1)


def _path_exists_per_pair(g, from_pos, to_pos, via_zone, from_heading=None,
                          to_heading=None):
    """Reference path check, searched afresh for each pair: snap both ends,
    apply the same-edge rule, then BFS over (edge, touched-the-zone-yet)
    states from the start lane's successors, derived here from out_edges
    and reverse_of, until the goal lane is reached touched."""
    start_edge, start_off = g.snap(from_pos, heading=from_heading)
    goal_edge, goal_off = g.snap(to_pos, heading=to_heading)
    touches = via_zone.edge_ids
    if start_edge == goal_edge and start_edge in touches and goal_off >= start_off - 1e-9:
        return True

    def successors(eid):
        return [f for f in g.out_edges[g.edges[eid].head] if f not in g.reverse_of[eid]]

    start_touched = start_edge in touches
    seen = set()
    queue = deque((nxt, start_touched or nxt in touches) for nxt in successors(start_edge))
    while queue:
        eid, touched = queue.popleft()
        if (eid, touched) in seen:
            continue
        seen.add((eid, touched))
        if eid == goal_edge and (touched or eid in touches):
            return True
        queue.extend((nxt, touched or nxt in touches) for nxt in successors(eid))
    return False


def dead_end_crossing() -> RoadGraph:
    """A two-way crossing at c = (500, 500) whose north and east roads run
    on to n2 and e2 and end there, and whose south and west roads end at s
    and w: no lane leads back to one already driven."""
    junctions = {
        "c": (500.0, 500.0), "n": (500.0, 1000.0), "n2": (500.0, 2500.0),
        "e": (1000.0, 500.0), "e2": (2500.0, 500.0), "s": (500.0, 0.0),
        "w": (0.0, 500.0),
    }
    return RoadGraph(junctions, [
        Edge(f"{a}__{b}", a, b, (junctions[a], junctions[b]), 13.89,
             polyline_length((junctions[a], junctions[b])))
        for road in ("c n", "n n2", "c e", "e e2", "c s", "c w")
        for a, b in (road.split(), road.split()[::-1])
    ])


def _lane_sets_match_per_pair(g: RoadGraph, centers, radius: float) -> set[bool]:
    """Compare path_exists with the per-pair reference for every (start
    lane, goal lane) pair and every zone, one graph serving all zones;
    a pair on one lane is tried with the goal ahead of the start and
    behind it. Returns the answers seen."""
    probes = {}
    for eid, e in g.edges.items():
        for frac in (0.3, 0.7):
            x, y, h = point_along(e.shape, frac * e.length)
            assert g.snap((x, y), heading=h)[0] == eid
            probes[eid, frac] = ((x, y), h)
    answers = set()
    for center in centers:
        z = zone_from_center(g, center, radius)
        for a in sorted(g.edges):
            for b in sorted(g.edges):
                for fa, fb in ((0.3, 0.7), (0.7, 0.3)) if a == b else ((0.3, 0.7),):
                    (pa, ha), (pb, hb) = probes[a, fa], probes[b, fb]
                    got = path_exists(g, pa, pb, z, ha, hb)
                    assert got == _path_exists_per_pair(g, pa, pb, z, ha, hb), (
                        center, a, fa, b, fb)
                    answers.add(got)
    return answers


@pytest.mark.parametrize("g, centers, answers", [
    # zones on a junction, a corner and the middle of a road; every lane
    # of the grid reaches every lane through any zone
    (make_grid(4, 4, 500.0), [(500.0, 500.0), (1500.0, 0.0), (1000.0, 750.0)],
     {True}),
    # the T-junction's centre, its two-lane s-t stem and its east arm
    (_t_junction(), [(0.0, 0.0), (0.0, -300.0), (300.0, 0.0)], {True, False}),
    (dead_end_crossing(), [(500.0, 500.0), (500.0, 1500.0), (2500.0, 500.0)],
     {True, False}),
], ids=["grid4", "t-junction", "dead-end"])
def test_lane_sets_match_the_per_pair_search(g, centers, answers):
    assert _lane_sets_match_per_pair(g, centers, 100.0) == answers


@settings(max_examples=15, derandomize=True, database=None, deadline=None)
@given(
    removed=st.sets(st.sampled_from(sorted(make_grid(4, 4, 500.0).edges)), max_size=16),
    center=st.sampled_from([(500.0, 500.0), (1000.0, 1000.0), (0.0, 500.0), (750.0, 0.0)]),
)
def test_lane_sets_match_the_per_pair_search_on_grid4_subgraphs(grid4, removed, center):
    sub = RoadGraph(grid4.junctions, [e for eid, e in grid4.edges.items() if eid not in removed])
    _lane_sets_match_per_pair(sub, [center], 100.0)


def test_grid_fixture_every_entry_reaches_all_non_u_turn_exits(grid4, zone_j1_1):
    entries = [bp.edge_id for bp in zone_j1_1.entry_points]
    exits = [bp.edge_id for bp in zone_j1_1.exit_points]
    for e_in in entries:
        reachable = {
            e_out
            for e_out in exits
            if (e_in, e_out) in zone_j1_1.internal_paths
        }
        expected = {e for e in exits if e not in grid4.reverse_of[e_in]}
        assert reachable == expected
        assert len(reachable) == 3


def test_central_junctions_selection(grid4):
    picks = central_junctions(grid4, 2, 200.0)
    assert picks == ["j1_1", "j1_2"]
    with pytest.raises(ValueError):
        central_junctions(grid4, 40, 200.0)

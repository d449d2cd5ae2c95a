from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decoymix import eventlog
from decoymix.errors import SynthesisFailed
from decoymix.mobility import (
    TraceSample,
    Trip,
    sample_trips,
    synthesize_trips,
    trip_samples_with_edges,
    validate_trip,
)
from decoymix.roads import Edge, RoadGraph, make_grid, point_along, polyline_length

# a run's end past every trip these tests sample
FAR_END_S = 1e6


def test_synthesize_deterministic_for_fixed_seed(grid4):
    a = synthesize_trips(grid4, 30, 0.2, rng_seed=42)
    b = synthesize_trips(grid4, 30, 0.2, rng_seed=42)
    assert a == b
    c = synthesize_trips(grid4, 30, 0.2, rng_seed=43)
    assert a != c


def test_departure_count_within_poisson_bound(grid4):
    # rate 0.1/s: departures in [0, 1000] ~ Poisson(100); 3 sigma = 30
    trips = synthesize_trips(grid4, 200, 0.1, rng_seed=7)
    n = sum(1 for t in trips if t.departure_s <= 1000.0)
    assert 70 <= n <= 130


def test_trips_are_connected_paths_within_limits(grid4):
    for trip in synthesize_trips(grid4, 50, 0.5, rng_seed=3):
        validate_trip(grid4, trip)
        for eid, speed in zip(trip.edge_ids, trip.speeds_mps):
            assert speed <= grid4.edges[eid].speed_limit


def test_length_distribution_has_common_and_rare_classes(grid4):
    trips = synthesize_trips(grid4, 2000, 2.0, rng_seed=11)
    counts = {4.5: 0, 7.5: 0, 12.0: 0}
    for t in trips:
        counts[t.length_m] += 1
    assert abs(counts[4.5] / 2000 - 0.80) < 0.05
    assert abs(counts[7.5] / 2000 - 0.12) < 0.04
    assert abs(counts[12.0] / 2000 - 0.08) < 0.04


def test_single_junction_graph_raises():
    g = RoadGraph({"only": (0.0, 0.0)}, [])
    with pytest.raises(SynthesisFailed):
        synthesize_trips(g, 1, 1.0, rng_seed=1)


def test_disconnected_pairs_are_resampled():
    # two islands: cross-island pairs are unroutable and must be redrawn
    left = make_grid(2, 2, 100.0)
    right = make_grid(2, 2, 100.0)
    junctions = dict(left.junctions)
    edges = list(left.edges.values())
    for jid, (x, y) in right.junctions.items():
        junctions["far_" + jid] = (x + 10_000.0, y)
    for e in right.edges.values():
        shifted = tuple((x + 10_000.0, y) for x, y in e.shape)
        edges.append(
            type(e)(
                "far_" + e.id,
                "far_" + e.tail,
                "far_" + e.head,
                shifted,
                e.speed_limit,
                e.length,
            )
        )
    g = RoadGraph(junctions, edges)
    trips = synthesize_trips(g, 20, 1.0, rng_seed=5)
    assert len(trips) == 20
    for t in trips:
        validate_trip(g, t)


def test_trip_invariants_rejected():
    with pytest.raises(ValueError):
        Trip("v", 0.0, (), (), 4.5)
    with pytest.raises(ValueError):
        Trip("v", 0.0, ("e",), (10.0,), 2.0)
    with pytest.raises(ValueError):
        Trip("v", 0.0, ("e",), (10.0,), 4.55)
    with pytest.raises(ValueError):
        Trip("v", 0.0, ("e",), (10.0, 5.0), 4.5)


def test_samples_advance_at_stated_speed(grid4):
    trip = synthesize_trips(grid4, 1, 1.0, rng_seed=9)[0]
    samples = [s for s, _ in trip_samples_with_edges(grid4, trip, 0.5, FAR_END_S)]
    assert len(samples) > 3
    for a, b in zip(samples, samples[1:]):
        # grid edges are straight: same-edge displacement == speed * dt
        disp = math.hypot(b.x - a.x, b.y - a.y)
        dt = b.time_s - a.time_s
        if a.speed_mps == b.speed_mps:
            assert disp <= a.speed_mps * dt + 1e-6


def test_samples_lie_on_step_lattice(grid4):
    trip = Trip("v0", 3.14, ("j0_0__j0_1",), (10.0,), 4.5)
    samples = [s for s, _ in trip_samples_with_edges(grid4, trip, 0.5, FAR_END_S)]
    assert samples[0].time_s == 3.5
    for s in samples:
        assert abs(s.time_s * 10 % 5) < 1e-9
    # 500 m at 10 m/s: arrival at 53.14, last lattice sample strictly before
    assert samples[-1].time_s == 53.0


def _scalar_samples(g, trip, step_s):
    """The reference sampler: one point_along call per lattice tick."""
    step_ds = round(step_s * 10)
    schedule = []
    elapsed = 0.0
    for eid, speed in zip(trip.edge_ids, trip.speeds_mps):
        schedule.append((elapsed, eid, speed))
        elapsed += g.edges[eid].length / speed
    samples = []
    tick = math.ceil(trip.departure_s * 10 / step_ds) * step_ds
    seg = 0
    while True:
        t = tick / 10.0
        dt = t - trip.departure_s
        if dt >= elapsed:
            break
        while seg + 1 < len(schedule) and schedule[seg + 1][0] <= dt:
            seg += 1
        start, eid, speed = schedule[seg]
        x, y, heading = point_along(g.edges[eid].shape, (dt - start) * speed)
        samples.append((TraceSample(t, trip.vehicle_id, x, y, speed, heading), eid))
        tick += step_ds
    return samples


def _sample_bits(rows):
    """Every float of every row as its bit pattern (which tells -0.0 from
    0.0), with the edge id."""
    floats = [[s.time_s, s.x, s.y, s.speed_mps, s.heading_rad] for s, _ in rows]
    bits = np.array(floats, dtype=np.float64).reshape(-1, 5).view(np.int64)
    return bits.tolist(), [eid for _, eid in rows]


@st.composite
def _chain_trips(draw):
    """A chain of polyline edges on small integer coordinates, where repeated
    points make zero-length segments and axis-aligned steps make integer
    segment ends, and a trip along it."""
    coord = st.integers(-6, 6).map(float)
    point = st.tuples(coord, coord)
    here = draw(point)
    junctions, edges = {"j0": here}, []
    for i in range(draw(st.integers(1, 4))):
        shape = [here]
        for _ in range(draw(st.integers(1, 4))):
            step = draw(st.sampled_from(["same", "x", "y", "any"]))
            if step == "same":
                nxt = here
            elif step == "x":
                nxt = (here[0] + draw(st.integers(-5, 5)), here[1])
            elif step == "y":
                nxt = (here[0], here[1] + draw(st.integers(-5, 5)))
            else:
                nxt = draw(point)
            shape.append(nxt)
            here = nxt
        junctions[f"j{i + 1}"] = here
        # an edge may declare a length up to 1e-6 m past its arc, so a
        # vehicle can run past the polyline's last point
        length = polyline_length(tuple(shape)) + draw(st.sampled_from([0.0, 5e-7]))
        edges.append(Edge(f"e{i}", f"j{i}", f"j{i + 1}", tuple(shape), 30.0, length))
    # speeds and departures on binary fractions land offsets exactly on
    # segment ends, a departure a hair before the lattice just past them;
    # the others fall anywhere
    speeds = tuple(
        draw(st.sampled_from([0.5, 1.0, 2.0, 4.0]) | st.floats(0.3, 25.0))
        for _ in edges
    )
    lattice = st.integers(1, 40).map(lambda k: k / 2)
    departure = draw(
        lattice | lattice.map(lambda d: d - 1e-7) | st.floats(0.0, 20.0)
    )
    trip = Trip("v", departure, tuple(e.id for e in edges), speeds, 4.5)
    step_s = draw(st.sampled_from([0.1, 0.5, 1.0, 2.0]))
    return RoadGraph(junctions, edges), trip, step_s


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(case=_chain_trips())
def test_columnar_samples_match_the_scalar_loop_bit_for_bit(case):
    g, trip, step_s = case
    samples = trip_samples_with_edges(g, trip, step_s, FAR_END_S)
    expected = _scalar_samples(g, trip, step_s)
    assert len(samples) == len(expected)
    assert _sample_bits(list(samples)) == _sample_bits(expected)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(case=_chain_trips(), end_ds=st.integers(0, 600))
def test_samples_cut_at_the_end_are_the_leading_samples_bit_for_bit(case, end_ds):
    # a run's end cuts a trip's samples to those at or before it, each the
    # same bits as the trip sampled with a far end gives
    g, trip, step_s = case
    far = trip_samples_with_edges(g, trip, step_s, FAR_END_S)
    cut = trip_samples_with_edges(g, trip, step_s, end_ds / 10)
    kept = int(np.count_nonzero(far.t * 10 <= end_ds + 1e-6))
    assert len(cut) == kept
    assert _sample_bits(list(cut)) == _sample_bits(list(far)[:kept])


def test_a_trip_departing_past_the_end_has_no_samples(grid4):
    # no tick past the end is built, however late the departure
    for departure in (60.5, 1e300):
        trip = Trip("v0", departure, ("j0_0__j0_1",), (10.0,), 4.5)
        assert len(trip_samples_with_edges(grid4, trip, 0.5, 60.0)) == 0


def test_a_crawling_trip_is_sampled_up_to_the_end_only(grid4):
    # 500 m at 1e-300 m/s arrives past any clock; the samples stop at the end
    trip = Trip("v0", 3.14, ("j0_0__j0_1",), (1e-300,), 4.5)
    samples = trip_samples_with_edges(grid4, trip, 0.5, 60.0)
    assert samples.t.tolist() == [k / 2 for k in range(7, 121)]
    assert 0.0 < samples.x.max() < 1e-290


def _fleet_bits(s):
    """The fleet columns' bits: trip, edge and each float column as its
    bit pattern."""
    floats = np.stack([s.t, s.x, s.y, s.speed, s.heading]).view(np.int64)
    return s.trip.tolist(), s.edge.tolist(), floats.tolist()


def _assert_fleet_is_the_trips_concatenated(g, fleet, step_s, end_s):
    got = sample_trips(g, fleet, step_s, end_s)
    per_trip = [trip_samples_with_edges(g, trip, step_s, end_s) for trip in fleet]
    trip = np.repeat(np.arange(len(fleet)), [len(s) for s in per_trip])
    want = type(got)(trip, *(
        np.concatenate([getattr(s, f) for s in per_trip]) if fleet else np.empty(0)
        for f in ("t", "x", "y", "speed", "heading", "edge")
    ))
    assert _fleet_bits(got) == _fleet_bits(want)


@st.composite
def _chain_fleets(draw):
    """A chain of edges from _chain_trips and a fleet along it: runs of its
    edges of mixed lengths, each with its own speeds and departure, some
    crawling and some departing past any end."""
    g, trip, step_s = draw(_chain_trips())
    edges, fleet = trip.edge_ids, []
    for k in range(draw(st.integers(0, 6))):
        lo = draw(st.integers(0, len(edges) - 1))
        hi = draw(st.integers(lo + 1, len(edges)))
        speeds = tuple(
            draw(st.sampled_from([0.5, 2.0, 1e-300]) | st.floats(0.3, 25.0))
            for _ in range(hi - lo)
        )
        departure = draw(
            st.sampled_from([trip.departure_s, 1e300]) | st.floats(0.0, 40.0)
        )
        fleet.append(Trip(f"v{k}", departure, edges[lo:hi], speeds, 4.5))
    return g, fleet, step_s


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    case=_chain_fleets(),
    # ends that crawling trips reach in a few thousand ticks
    end_s=st.sampled_from([5.0, 30.0, 120.0]),
    block=st.sampled_from([1, 7, eventlog.ROW_BLOCK]),
)
def test_one_pass_over_a_fleet_is_each_trip_sampled_alone_bit_for_bit(
    case, end_s, block
):
    # the fleet's rows are its trips' samples in the order given, each trip
    # the same bits as sampled alone, wherever the row blocks cut
    g, fleet, step_s = case
    with pytest.MonkeyPatch.context() as m:
        m.setattr(eventlog, "ROW_BLOCK", block)
        _assert_fleet_is_the_trips_concatenated(g, fleet, step_s, end_s)


@pytest.mark.parametrize("fleet", ["none", "mixed"])
def test_one_pass_takes_an_empty_fleet_and_late_and_crawling_trips(grid4, fleet):
    trips = [] if fleet == "none" else [
        Trip("v0", 3.14, ("j0_0__j0_1", "j0_1__j0_2"), (10.0, 7.5), 4.5),
        Trip("v1", 1e300, ("j0_0__j0_1",), (10.0,), 4.5),
        Trip("v2", 3.14, ("j0_0__j0_1",), (1e-300,), 4.5),
        Trip("v3", 0.0, ("j0_1__j0_2",), (12.0,), 4.5),
    ]
    _assert_fleet_is_the_trips_concatenated(grid4, trips, 0.5, 60.0)

from __future__ import annotations

import math
import random

import pytest

from decoymix.errors import SynthesisFailed
from decoymix.mobility import (
    Trip,
    synthesize_trips,
    trip_samples_with_edges,
    validate_trip,
)
from decoymix.roads import RoadGraph, make_grid


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
    samples = [s for s, _ in trip_samples_with_edges(grid4, trip, 0.5)]
    assert len(samples) > 3
    for a, b in zip(samples, samples[1:]):
        # grid edges are straight: same-edge displacement == speed * dt
        disp = math.hypot(b.x - a.x, b.y - a.y)
        dt = b.time_s - a.time_s
        if a.speed_mps == b.speed_mps:
            assert disp <= a.speed_mps * dt + 1e-6


def test_samples_lie_on_step_lattice(grid4):
    trip = Trip("v0", 3.14, ("j0_0__j0_1",), (10.0,), 4.5)
    samples = [s for s, _ in trip_samples_with_edges(grid4, trip, 0.5)]
    assert samples[0].time_s == 3.5
    for s in samples:
        assert abs(s.time_s * 10 % 5) < 1e-9
    # 500 m at 10 m/s: arrival at 53.14, last lattice sample strictly before
    assert samples[-1].time_s == 53.0

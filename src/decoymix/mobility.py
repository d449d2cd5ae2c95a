"""Vehicle trips: synthetic trip generation and sampling on the tick lattice.

Trips are edge sequences with per-edge speeds; sampling turns a trip into
timestamped positions on the simulation's decisecond lattice.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import SynthesisFailed
from .roads import RoadGraph, point_along

# invented fleet mix: one common and two rare lengths so length classification
# has discriminating power
DEFAULT_LENGTH_TABLE_M = ((4.5, 0.80), (7.5, 0.12), (12.0, 0.08))
SPEED_FACTOR_RANGE = (0.6, 1.0)
VEHICLE_LENGTH_MIN_M = 3.0
VEHICLE_LENGTH_MAX_M = 18.0


@dataclass(frozen=True)
class Trip:
    """One vehicle's route: departure time, edge sequence, per-edge speeds."""

    vehicle_id: str
    departure_s: float
    edge_ids: tuple[str, ...]
    speeds_mps: tuple[float, ...]
    length_m: float

    def __post_init__(self) -> None:
        if not self.edge_ids:
            raise ValueError("trip needs at least one edge")
        if len(self.speeds_mps) != len(self.edge_ids):
            raise ValueError("one speed per edge required")
        if any(s <= 0 for s in self.speeds_mps):
            raise ValueError("speeds must be positive")
        if not (VEHICLE_LENGTH_MIN_M <= self.length_m <= VEHICLE_LENGTH_MAX_M):
            raise ValueError(f"vehicle length {self.length_m} outside [3.0, 18.0] m")
        if abs(self.length_m * 10 - round(self.length_m * 10)) > 1e-9:
            raise ValueError("vehicle length must be a 0.1 m multiple")


@dataclass(frozen=True)
class TraceSample:
    """One timestamped position of a vehicle."""

    time_s: float
    vehicle_id: str
    x: float
    y: float
    speed_mps: float
    heading_rad: float


def validate_trip(g: RoadGraph, trip: Trip) -> None:
    """Check the route is a connected directed path within speed limits."""
    prev_head: str | None = None
    for eid, speed in zip(trip.edge_ids, trip.speeds_mps):
        e = g.edges[eid]
        if prev_head is not None and e.tail != prev_head:
            raise ValueError(f"edges do not chain at {eid}")
        if speed > e.speed_limit + 1e-9:
            raise ValueError(f"speed {speed} exceeds limit on {eid}")
        prev_head = e.head


def _draw_length(rng: random.Random, table: tuple[tuple[float, float], ...]) -> float:
    r = rng.random()
    acc = 0.0
    for length, weight in table:
        acc += weight
        if r < acc:
            return length
    return table[-1][0]


def synthesize_trips(
    g: RoadGraph,
    n_vehicles: int,
    arrival_rate_per_s: float,
    rng_seed: int,
    length_table: tuple[tuple[float, float], ...] = DEFAULT_LENGTH_TABLE_M,
) -> list[Trip]:
    """Generate shortest-path trips between uniform random junction pairs.

    Departures are Poisson-spaced at arrival_rate_per_s. A disconnected or
    degenerate pair is resampled up to 100 times before SynthesisFailed.
    Deterministic for a fixed seed.
    """
    if n_vehicles < 1:
        raise ValueError("n_vehicles must be >= 1")
    if arrival_rate_per_s <= 0:
        raise ValueError("arrival_rate_per_s must be positive")
    rng = random.Random(rng_seed)
    junction_ids = sorted(g.junctions)
    trips: list[Trip] = []
    clock = 0.0
    lo_f, hi_f = SPEED_FACTOR_RANGE
    for i in range(n_vehicles):
        clock += rng.expovariate(arrival_rate_per_s)
        path: list[str] | None = None
        for _ in range(100):
            a = rng.choice(junction_ids)
            b = rng.choice(junction_ids)
            if a == b:
                continue
            path = g.shortest_path(a, b)
            if path:
                break
            path = None
        if path is None:
            raise SynthesisFailed(
                f"no routable junction pair found in 100 draws (vehicle {i})"
            )
        speeds = tuple(
            g.edges[eid].speed_limit * rng.uniform(lo_f, hi_f) for eid in path
        )
        length = _draw_length(rng, length_table)
        trip = Trip(f"v{i:04d}", clock, tuple(path), speeds, length)
        validate_trip(g, trip)
        trips.append(trip)
    return trips


def trip_samples_with_edges(
    g: RoadGraph, trip: Trip, step_s: float
) -> list[tuple[TraceSample, str]]:
    """Evaluate a trip on the global step lattice (integer deciseconds),
    keeping the edge each sample falls on.

    The vehicle advances along each edge polyline at that edge's speed; the
    last sample falls strictly before arrival.
    """
    step_ds = round(step_s * 10)
    if step_ds < 1 or abs(step_ds - step_s * 10) > 1e-9:
        raise ValueError("step must be a positive decisecond multiple")
    # cumulative (start_elapsed, edge, speed) schedule
    schedule: list[tuple[float, str, float]] = []
    elapsed = 0.0
    for eid, speed in zip(trip.edge_ids, trip.speeds_mps):
        schedule.append((elapsed, eid, speed))
        elapsed += g.edges[eid].length / speed
    total = elapsed
    samples: list[tuple[TraceSample, str]] = []
    tick = math.ceil(trip.departure_s * 10 / step_ds) * step_ds
    seg = 0
    while True:
        t = tick / 10.0
        dt = t - trip.departure_s
        if dt >= total:
            break
        while seg + 1 < len(schedule) and schedule[seg + 1][0] <= dt:
            seg += 1
        start, eid, speed = schedule[seg]
        off = (dt - start) * speed
        x, y, heading = point_along(g.edges[eid].shape, off)
        samples.append((TraceSample(t, trip.vehicle_id, x, y, speed, heading), eid))
        tick += step_ds
    return samples

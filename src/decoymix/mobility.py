"""Vehicle trips: synthetic trip generation and sampling on the tick lattice.

Trips are edge sequences with per-edge speeds; sampling turns a trip into
timestamped positions on the simulation's decisecond lattice, held as
columns.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import SynthesisFailed
from .roads import RoadGraph

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


@dataclass(frozen=True, eq=False)
class TripSamples:
    """A trip sampled on the tick lattice, one row per sample: time,
    position, speed and heading columns, and edge, each row's index into
    edge_ids. Indexing gives a row as (TraceSample, edge id)."""

    vehicle_id: str
    edge_ids: tuple[str, ...]
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    speed: np.ndarray
    heading: np.ndarray
    edge: np.ndarray

    def __len__(self) -> int:
        return self.t.size

    def __getitem__(self, i: int) -> tuple[TraceSample, str]:
        sample = TraceSample(
            float(self.t[i]), self.vehicle_id, float(self.x[i]), float(self.y[i]),
            float(self.speed[i]), float(self.heading[i]),
        )
        return sample, self.edge_ids[self.edge[i]]


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
    g: RoadGraph, trip: Trip, step_s: float, end_s: float
) -> TripSamples:
    """Evaluate a trip on the global step lattice (integer deciseconds) up
    to end_s, the run's end, keeping the edge each sample falls on.

    The vehicle advances along each edge polyline at that edge's speed; the
    last sample falls strictly before arrival, and at or before end_s, so
    no tick past the run is built. Positions and headings are those of
    roads.point_along at each sample's arc offset, bit for bit: the same
    float operations, evaluated for all samples in one numpy pass.
    """
    step_ds = round(step_s * 10)
    if step_ds < 1 or abs(step_ds - step_s * 10) > 1e-9:
        raise ValueError("step must be a positive decisecond multiple")
    # cumulative (start_elapsed, speed) schedule, one entry per edge
    starts: list[float] = []
    elapsed = 0.0
    for eid, speed in zip(trip.edge_ids, trip.speeds_mps):
        starts.append(elapsed)
        elapsed += g.edges[eid].length / speed
    total = elapsed
    # the lattice ticks from the first at or after departure to the last at
    # or before end_s, counted in Python ints. t - departure grows with the
    # tick, so the samples before arrival are a prefix; two ticks past
    # total * 10 / step_ds always reach it
    lead, last = trip.departure_s * 10 / step_ds, round(end_s * 10) // step_ds
    first = math.ceil(lead) if lead <= last else last + 1
    count = last - first + 1
    if total * 10 / step_ds < count:
        count = min(count, math.floor(total * 10 / step_ds) + 3)
    ticks = first * step_ds + step_ds * np.arange(count)
    t = ticks / 10.0
    dt = t - trip.departure_s
    n = int(np.searchsorted(dt, total, side="left"))
    t, dt = t[:n], dt[:n]
    # the last edge whose start is at or before dt
    edge = np.searchsorted(np.array(starts[1:]), dt, side="right")
    speed = np.array(trip.speeds_mps)[edge]
    off = (dt - np.array(starts)[edge]) * speed
    x, y, heading = points_along(g, trip.edge_ids, edge, off)
    return TripSamples(trip.vehicle_id, trip.edge_ids, t, x, y, speed, heading, edge)


def points_along(
    g: RoadGraph, edge_ids: tuple[str, ...], edge: np.ndarray, off: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """roads.point_along(g.edges[edge_ids[edge[i]]].shape, off[i]) for every
    sample i, as x, y and heading columns.

    point_along walks to the first segment whose end run + seg reaches the
    offset. The ends are non-decreasing along a polyline, and for a positive
    offset the first end that reaches it closes a segment of nonzero length,
    so that segment is the count of ends below the offset. An offset at or
    below zero takes the polyline's first point, one past its last end its
    last point.
    """
    # one row per polyline segment of the trip's edges, padded to the
    # longest polyline with ends of inf
    shapes = [g.edges[eid].shape for eid in edge_ids]
    table = np.zeros((len(shapes), max(len(s) for s in shapes) - 1, 8))
    table[:, :, 6] = math.inf
    for e, shape in enumerate(shapes):
        run = 0.0
        for i, ((ax, ay), (bx, by)) in enumerate(zip(shape, shape[1:])):
            seg = math.hypot(bx - ax, by - ay)
            table[e, i] = (
                ax, ay, bx, by, run, seg, run + seg, math.atan2(by - ay, bx - ax)
            )
            run += seg
    ax, ay, bx, by, run, seg_len, ends, head = np.moveaxis(table, 2, 0)
    last = np.array([len(s) - 2 for s in shapes])[edge]
    k = np.count_nonzero(ends[edge] < off[:, None], axis=1)
    past_end = k > last
    at = (edge, np.minimum(k, last))
    ax, ay, bx, by = ax[at], ay[at], bx[at], by[at]
    # a zero-length segment is only ever picked for the clamped ends
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = (off - run[at]) / seg_len[at]
        x = np.where(past_end, bx, ax + frac * (bx - ax))
        y = np.where(past_end, by, ay + frac * (by - ay))
    before = off <= 0
    x[before], y[before] = ax[before], ay[before]
    return x, y, head[at]

"""Vehicle trips: synthetic trip generation and sampling on the tick lattice.

Trips are edge sequences with per-edge speeds; sampling turns a trip into
timestamped positions on the simulation's decisecond lattice, held as
columns.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import SynthesisFailed
from .eventlog import row_blocks
from .roads import RoadGraph, SegmentTable, group_keys

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


class FleetSamples(NamedTuple):
    """Trips sampled on the tick lattice, one row per sample: the trip's
    index among those sampled (trip), time, position, speed and heading
    columns, and edge, the row's index into its trip's edge_ids. The trips
    come in the order given, each one's rows in time order."""

    trip: np.ndarray
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    speed: np.ndarray
    heading: np.ndarray
    edge: np.ndarray


def sample_trips(
    g: RoadGraph, trips: Sequence[Trip], step_s: float, end_s: float
) -> FleetSamples:
    """Evaluate every trip on the global step lattice (integer deciseconds)
    up to end_s, the run's end, keeping the edge each sample falls on.

    A vehicle advances along each edge polyline at that edge's speed; a
    trip's last sample falls strictly before its arrival, and at or before
    end_s, so no tick past the run is built. Positions and headings are
    those of roads.point_along at each sample's arc offset, bit for bit:
    the same float operations, evaluated for every sample of every trip in
    one numpy pass, a row block at a time. A trip costs Python scalars
    only: its edges' start times and the count of its ticks.
    """
    step_ds = round(step_s * 10)
    if step_ds < 1 or abs(step_ds - step_s * 10) > 1e-9:
        raise ValueError("step must be a positive decisecond multiple")
    table = g.segments()
    last = round(end_s * 10) // step_ds
    # per trip: its first tick (ds), departure, sample count and first
    # edge's place among the edges of every trip; per such edge: its start
    # time since departure, speed and graph edge. bounds are the starts
    # after each trip's first, keyed by (trip, start) to find each
    # sample's edge
    first_ds, departure, count, edge_lo = [], [], [], []
    start, speed, graph_edge, bound_trip, bound = [], [], [], [], []
    for i, trip in enumerate(trips):
        edge_lo.append(len(start))
        elapsed = 0.0
        for j, (eid, v) in enumerate(zip(trip.edge_ids, trip.speeds_mps)):
            if j:
                bound.append(elapsed)
                bound_trip.append(i)
            start.append(elapsed)
            speed.append(v)
            graph_edge.append(table.index[eid])
            elapsed += g.edges[eid].length / v
        # the lattice ticks from the first at or after departure to the
        # last at or before end_s, counted in Python ints. t - departure
        # grows with the tick, so the samples before arrival are a prefix,
        # which two ticks past elapsed * 10 / step_ds always reach
        lead = trip.departure_s * 10 / step_ds
        first = math.ceil(lead) if lead <= last else last + 1
        n = last - first + 1
        if elapsed * 10 / step_ds < n:
            n = min(n, math.floor(elapsed * 10 / step_ds) + 3)
        while n and (first + n - 1) * step_ds / 10.0 - trip.departure_s >= elapsed:
            n -= 1
        first_ds.append(first * step_ds)
        departure.append(trip.departure_s)
        count.append(n)

    counts = np.array(count, dtype=np.int64)
    trip_of = np.repeat(np.arange(counts.size, dtype=np.int32), counts)
    row_lo = np.cumsum(counts) - counts
    first_ds = np.array(first_ds, dtype=np.int64)
    departure = np.array(departure, dtype=np.float64)
    edge_lo = np.array(edge_lo, dtype=np.int64)
    # trip i's bounds follow those of the trips before it, edge_lo[i] - i
    bound_lo = edge_lo - np.arange(edge_lo.size)
    bound_key = group_keys(np.array(bound_trip, dtype=np.float64), np.array(bound))
    start = np.array(start, dtype=np.float64)
    speed = np.array(speed, dtype=np.float64)
    graph_edge = np.array(graph_edge, dtype=np.int64)
    rows = trip_of.size
    t, x, y, v, heading = (np.empty(rows) for _ in range(5))
    edge = np.empty(rows, dtype=np.int32)
    for a, b in row_blocks(rows):
        i = trip_of[a:b]
        ts = (first_ds[i] + step_ds * (np.arange(a, b) - row_lo[i])) / 10.0
        dt = ts - departure[i]
        # the last edge whose start is at or before dt
        k = np.searchsorted(bound_key, group_keys(i, dt), side="right") - bound_lo[i]
        at = edge_lo[i] + k
        off = (dt - start[at]) * speed[at]
        x[a:b], y[a:b], heading[a:b] = points_along(table, graph_edge[at], off)
        t[a:b], v[a:b], edge[a:b] = ts, speed[at], k
    return FleetSamples(trip_of, t, x, y, v, heading, edge)


def trip_samples_with_edges(
    g: RoadGraph, trip: Trip, step_s: float, end_s: float
) -> TripSamples:
    """One trip's samples: sample_trips for that trip alone."""
    s = sample_trips(g, (trip,), step_s, end_s)
    return TripSamples(
        trip.vehicle_id, trip.edge_ids, s.t, s.x, s.y, s.speed, s.heading, s.edge
    )


def points_along(
    table: SegmentTable, edge: np.ndarray, off: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """roads.point_along on graph edge edge[i] (its place in table) at
    offset off[i], for every i, as x, y and heading columns.

    point_along walks to the first segment whose end run + seg reaches the
    offset. The ends are non-decreasing along a polyline, and for a positive
    offset the first end that reaches it closes a segment of nonzero length,
    so that segment is the count of the edge's ends below the offset. An
    offset at or below zero takes the polyline's first point, one past its
    last end its last point.
    """
    lo, last = table.lo[edge], table.last[edge]
    k = np.searchsorted(table.key, group_keys(edge, off), side="left") - lo
    past_end = k > last
    at = lo + np.minimum(k, last)
    ax, ay, bx, by = table.ax[at], table.ay[at], table.bx[at], table.by[at]
    # a zero-length segment is only ever picked for the clamped ends
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = (off - table.run[at]) / table.seg[at]
        x = np.where(past_end, bx, ax + frac * (bx - ax))
        y = np.where(past_end, by, ay + frac * (by - ay))
    before = off <= 0
    x[before], y[before] = ax[before], ay[before]
    return x, y, table.head[at]

"""Deterministic tick-loop simulation: vehicles, mix-zones, radios, filters.

Everything advances on a decisecond lattice. Every random draw comes from a
stream keyed by (seed, purpose, entity id), so two runs that differ only in
one fraction share all remaining randomness; raising relay_fraction adds
decoy streams without reshuffling the ones already present.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import math
import random
import struct
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .core import (
    ENCRYPTION_OVERHEAD_BYTES,
    PSEUDONYM_WIRE_BYTES,
    Credential,
    sign,
    stable_bytes,
    stable_u64,
)
from . import eventlog
from .errors import ConfigError, NeverAssigned, NoResponder
from .eventlog import (
    ADVERT,
    BEACON_WIRE_BYTES,
    CHUNK,
    ENCRYPTED,
    PEER_FILTER,
    RECEPTION_COUNTERS,
    VIA_PEER,
    VIA_RSU,
    EventLog,
    EventLogBuilder,
    Observations,
    RowPoses,
    count_type,
    name_ranks,
    round_array,
    row_blocks,
)
from .mixzone import (
    ADVERT_PAYLOAD_BYTES,
    JOIN_REQUEST_PAYLOAD_BYTES,
    DecoyPlan,
    MixZoneController,
    make_join_payload,
)
from .mobility import Trip, sample_trips, synthesize_trips, trip_samples_with_edges
from .roads import MixZoneGeometry, RoadGraph, traverse_time_bounds, zone_from_center
from .scenario import ScenarioConfig
from .vpki import ChaffBatch, CredentialAuthority

# Every signed broadcast carries the signer's credential on the wire.
ENCRYPTED_BEACON_WIRE_BYTES = BEACON_WIRE_BYTES + ENCRYPTION_OVERHEAD_BYTES
ADVERT_WIRE_BYTES = ADVERT_PAYLOAD_BYTES + PSEUDONYM_WIRE_BYTES
JOIN_REQUEST_WIRE_BYTES = JOIN_REQUEST_PAYLOAD_BYTES + PSEUDONYM_WIRE_BYTES
RETIRE_PAYLOAD_BYTES = 16
RETIRE_WIRE_BYTES = RETIRE_PAYLOAD_BYTES + PSEUDONYM_WIRE_BYTES
CHUNK_CERT_BYTES = PSEUDONYM_WIRE_BYTES

# the pairs the reception counting compares at once: a block of float64
# distances takes 512 KB, small enough that its transients do not raise a
# run's peak memory
BLOCK_ELEMENTS = 1 << 16

# the phases of a tick, in step order. A record's order key is tick *
# N_PHASES + phase; the wrap-up logs under key nticks * N_PHASES, after
# every tick. Adverts, chunks and every beacon are logged at wrap-up under
# their tick's key.
(PH_ZONES, PH_ADVERTS, PH_CHUNKS, PH_RSU, PH_BEACONS, PH_DECOYS, PH_PEERS,
 PH_DESPAWNS) = range(8)
N_PHASES = 8


# ---------------------------------------------------------------------------
# the world a scenario declares


def resolve_trips(config: ScenarioConfig) -> tuple[Trip, ...]:
    """The scenario's own trips when it lists them, else n_vehicles trips
    synthesized from its seed."""
    if config.trips is not None:
        return tuple(config.trips)
    if config.n_vehicles == 0:
        return ()
    return tuple(synthesize_trips(
        config.graph, config.n_vehicles, config.arrival_rate_per_s,
        stable_u64(config.rng_seed, "trips"),
    ))


def zone_geometries(config: ScenarioConfig) -> dict[str, MixZoneGeometry]:
    """Each zone's geometry on the graph, by zone id, in zone-id order
    (the order a run and an attack take the zones in): built on the first
    call and kept on the config, so a scenario load builds each zone once
    and its runs and attacks reuse it. ConfigError names the first zone,
    in that order, that no road runs through."""
    if config.zone_geometries is None:
        geoms = {}
        for z in sorted(config.zones, key=lambda z: z.zone_id):
            geom = zone_from_center(config.graph, (z.center_x_m, z.center_y_m), z.radius_m)
            if not geom.internal_paths:
                raise ConfigError(f"zone {z.zone_id}: no road runs through its disk")
            geoms[z.zone_id] = geom
        config.zone_geometries = geoms
    return config.zone_geometries


# ---------------------------------------------------------------------------
# run outputs


@dataclass
class Transition:
    """Ground truth for one pseudonym change. t_exit is None when the trip
    ended inside the zone."""

    vehicle_id: str
    zone_id: str
    old_id: str
    new_id: str
    t_entry: float
    t_exit: float | None
    entry_observed: bool = False
    exit_observed: bool = False


@dataclass
class ZoneInfo:
    zone_id: str
    geometry: MixZoneGeometry
    traverse_bounds: tuple[float, float]
    hbc: bool
    chaff_ids: frozenset[str]
    rsu_entity: str


@dataclass
class RunResult:
    config: ScenarioConfig
    log: EventLog
    transitions: list[Transition]
    zones: list[ZoneInfo]
    # every audit finding: first the run's own, in tick and phase order (relay
    # chaff that does not resolve to its relay, a decoy sent while absent
    # from its filter), then those of the three post-run audits
    audit_violations: list[str]

    @functools.cached_property
    def events(self) -> list[dict]:
        """Every event record as a dict, in output order: the reference view
        of the log, built on first access."""
        return self.log.records()

    @functools.cached_property
    def observations(self) -> Observations:
        """What the eavesdroppers logged: the table of the published
        beacons they heard, built on first access."""
        return Observations.heard(self.log.beacons)

    @functools.cached_property
    def observed_spans(self) -> dict[str, tuple[float, float]]:
        """First and last time each pseudonym was observed by any
        eavesdropper: the times of its first and last row, the rows being
        time-ordered."""
        obs = self.observations
        pid = obs.pseudonym
        ids, first = np.unique(pid, return_index=True)
        last = pid.size - 1 - np.unique(pid[::-1], return_index=True)[1]
        return {
            obs.names[p]: (lo, hi)
            for p, lo, hi in zip(ids.tolist(), obs.t[first].tolist(), obs.t[last].tolist())
        }

    def export_observations(self, fh) -> None:
        self.observations.write_csv(fh)

    def export_events(self, fh) -> None:
        self.log.write_jsonl(fh)


# ---------------------------------------------------------------------------
# filter chunk schedule

def chunk_delivery_latency(
    size_bytes: float,
    bandwidth_bytes_per_s: float,
    interval_s: float,
    arrival_offset_s: float = 0.0,
) -> float:
    """Latency from entering RSU range to holding the whole filter.

    The filter splits into ceil(size / (bandwidth * interval)) chunks, one per
    interval, cyclically. A mid-cycle arrival waits for the wraparound and
    then collects one full cycle.
    """
    chunks = math.ceil(size_bytes / (bandwidth_bytes_per_s * interval_s))
    cycle = chunks * interval_s
    off = arrival_offset_s % cycle
    if off == 0:
        return cycle
    return (cycle - off) + cycle


def choose_filter_responder(
    holders: Sequence[tuple[str, int]], requester_epoch: int
) -> str:
    """Lowest entity id among neighbours holding a strictly newer epoch."""
    eligible = sorted(vid for vid, epoch in holders if epoch > requester_epoch)
    if not eligible:
        raise NoResponder("no neighbour holds a newer filter")
    return eligible[0]


# ---------------------------------------------------------------------------
# internal runtime state


@dataclass(slots=True)
class _ZoneRt:
    info: ZoneInfo
    controller: MixZoneController
    # the filter's serialized size, the same at every epoch: the table
    # writes every slot whatever it holds
    filter_bytes: int
    chunk_count: int
    chunk_payloads: list[int]


class _Poses(NamedTuple):
    """A decoy stream's poses as columns: beacon tick (ds), position, speed, heading."""

    ds: np.ndarray
    x: np.ndarray
    y: np.ndarray
    speed: np.ndarray
    heading: np.ndarray


_NO_POSES = _Poses(np.empty(0, dtype=np.int64), *(np.empty(0) for _ in range(4)))


@dataclass(slots=True)
class _Stream:
    plan: DecoyPlan
    chaff_hex: str
    link_hex: str
    transmitter: str
    tx_vi: int  # the relay's vehicle row; -1 when the zone's RSU transmits
    zone_j: int
    poses: _Poses
    last_ds: int
    natural_reason: str
    # the order key under which the stream ended, and (order key, whether
    # the zone filter holds the chaff id from then on) noted at the start
    # and at each move of the zone filter's epoch
    end_key: int = -1
    held: list[tuple[int, bool]] = field(default_factory=list)


@dataclass(slots=True)
class _VehicleRt:
    vid: str
    trip: Trip
    non_coop: bool
    pool: list[Credential]
    active: Credential
    pool_next: int = 1
    visit: dict | None = None
    stream: _Stream | None = None


class _Tick(NamedTuple):
    """What every phase of one tick reads: the clock, the tick's rows lo to
    hi - 1, and their vehicles (av, in vehicle-id order) and positions."""

    k: int
    t_ds: int
    now: float
    lo: int
    hi: int
    av: np.ndarray
    xs: np.ndarray
    ys: np.ndarray


def _by_tick(
    ticks: np.ndarray, vehicles: np.ndarray, *cols: np.ndarray
) -> dict[int, list[tuple]]:
    """Event rows (vehicle, *cols) grouped by tick, each tick's rows in
    vehicle order; rows of one vehicle keep their order."""
    order = np.lexsort((vehicles, ticks))
    out: dict[int, list[tuple]] = {}
    for k, *row in zip(*(a[order].tolist() for a in (ticks, vehicles, *cols))):
        out.setdefault(k, []).append(tuple(row))
    return out


def _pair_blocks(pairs: np.ndarray, size: int) -> list[tuple[int, int]]:
    """Runs a to b - 1 of consecutive items, item i owning pairs[i] pairs,
    cut where the pairs before an item cross a multiple of size: blocks of
    about size pairs."""
    first = np.cumsum(pairs) - pairs
    cuts = (np.flatnonzero(np.diff(first // max(1, size))) + 1).tolist()
    return list(zip([0, *cuts], [*cuts, pairs.size]))


def _padded_blocks(sizes: list[int]) -> list[tuple[int, int, int]]:
    """Runs a to b - 1 of consecutive sizes, each with its largest size w,
    such that (b - a) * w * w is at most BLOCK_ELEMENTS unless the run is a
    single size."""
    blocks, first, widest = [], 0, 0
    for i, n in enumerate(sizes):
        wider = max(widest, n)
        if i > first and (i - first + 1) * wider * wider > BLOCK_ELEMENTS:
            blocks.append((first, i, widest))
            first, wider = i, n
        widest = wider
    if sizes:
        blocks.append((first, len(sizes), widest))
    return blocks


def _first_pose_ds(plan: DecoyPlan, gv_ds: int) -> int:
    """The first beacon tick (ds) at or after the phantom's exit."""
    return gv_ds * math.ceil(plan.start_time_s * 10.0 / gv_ds - 1e-9)


def _build_stream_poses(
    g: RoadGraph,
    plan: DecoyPlan,
    zone_disks: list[tuple[float, float, float]],
    route_rng: random.Random,
    gv_ds: int,
    horizon_ds: int,
) -> tuple[_Poses, str]:
    """The phantom's poses at the beacon ticks up to the horizon: a
    constant-speed Trip along its exit edge, then successor edges drawn
    from route_rng, sampled by mobility.trip_samples_with_edges and cut
    where the trip ends at a dead end (route_end) or at the first pose
    whose claimed position lies in a zone disk (zone_entry)."""
    speed = plan.speed_mps
    # depart from the exit edge's tail to pass 1 mm past the crossing at
    # start_time_s, so a tick landing exactly at the exit point is not
    # mistaken for a zone re-entry; draw edges until the trip, timed as the
    # sampler times it, arrives after the last tick or meets a dead end
    departure = plan.start_time_s - (plan.boundary_offset_m + 1e-3) / speed
    last_dt = horizon_ds // gv_ds * gv_ds / 10.0 - departure
    route = [plan.exit_edge_id]
    arrival = g.edges[route[0]].length / speed
    while arrival <= last_dt and (nxt := g.next_edges(route[-1])):
        route.append(route_rng.choice(nxt))
        arrival += g.edges[route[-1]].length / speed
    trip = Trip("phantom", departure, tuple(route), (speed,) * len(route), plan.length_m)
    s = trip_samples_with_edges(g, trip, gv_ds / 10, horizon_ds / 10)
    ds = np.rint(s.t * 10).astype(np.int64)
    lo = int(np.searchsorted(ds, _first_pose_ds(plan, gv_ds)))
    poses = _Poses(ds[lo:], s.x[lo:], s.y[lo:], s.speed[lo:], s.heading[lo:])
    px, py = round_array(poses.x, 3), round_array(poses.y, 3)
    inside = np.zeros(px.size, dtype=bool)
    for cx, cy, r2 in zone_disks:
        dx, dy = px - cx, py - cy
        inside |= dx * dx + dy * dy <= r2
    n, reason = px.size, "route_end" if arrival <= last_dt else "horizon"
    if inside.any():
        n, reason = int(inside.argmax()), "zone_entry"
    return _Poses(*(c[:n] for c in poses)), reason


# ---------------------------------------------------------------------------
# the run loop


def run(config: ScenarioConfig) -> RunResult:
    """Simulate one run, stepping only the ticks where something happens
    (next-event time advance), and audit it. Stepping every tick gives the
    same run."""
    config.validate()
    state = _Run(config)
    k = 0
    while k < state.nticks:
        state.step(k)
        k = state.next_visit(k)
    result = state.finish()
    for audit in (audit_observability, audit_single_pseudonym, audit_ground_truth):
        result.audit_violations.extend(audit(result))
    return result


class _Run:
    """One run's state. Construction builds the world and precomputes every
    pose; step() runs the phases of one tick in output order; next_visit()
    names the next tick whose step does anything; finish() wraps up, logs
    what follows from the schedule, the rows and the decoy streams' poses
    alone, and hands back the RunResult."""

    def __init__(self, config: ScenarioConfig) -> None:
        self.config = config
        self.seed = config.rng_seed
        self.gv_ds = round(config.gamma_v_s * 10)
        self.gmz_ds = round(config.gamma_mz_s * 10)
        self.fi_ds = round(config.filter_tx_interval_s * 10)
        self.dur_ds = round(config.duration_s * 10)
        # gcd keeps every broadcast lattice representable even when the smallest
        # interval does not divide the others
        self.tick_ds = math.gcd(math.gcd(self.gv_ds, self.gmz_ds), self.fi_ds)
        self.nticks = self.dur_ds // self.tick_ds + 1
        # the clock's last second; it takes the counts of any later instant
        self.last_sec = int(config.duration_s)
        self.radio2 = config.vehicle_radio_range_m ** 2
        self.rsu_r2 = config.rsu_range_m ** 2
        # decoys on at all iff some relay probability exists; the sparse RSU rule
        # rides the same switch
        self.sparse_on = config.relay_fraction > 0.0
        # set whenever a zone filter moves to a new epoch, cleared when the
        # RSU phase has looked for vehicles that now hold a stale filter
        self.epoch_moved = False
        # live decoy streams by chaff id, in start order; a stream leaves
        # when it ends. started holds every stream, in start order
        self.streams: dict[str, _Stream] = {}
        self.started: list[_Stream] = []
        # the run's audit findings, each with its order key
        self.findings: list[tuple[int, str]] = []
        self._build_world()
        self._precompute_poses(resolve_trips(config))

        nv, nz = len(self.vehicles), len(self.zones)
        self.transitions: list[Transition] = []
        # one row per name in RECEPTION_COUNTERS, one column per slot, in
        # the narrowest dtype _counter_bound allows; filled at wrap-up by
        # _count_receptions
        self.counters = np.zeros(
            (len(RECEPTION_COUNTERS), int(self.seconds.sum())),
            dtype=count_type(self._counter_bound()),
        )
        self.held_ep = np.full((nv, nz), -1, dtype=np.int64)
        # the first tick at whose beacon phase the vehicle holds the zone's
        # filter at any epoch; nticks while it holds none
        self.held_from = np.full((nv, nz), self.nticks, dtype=np.int64)
        # the rows that asked their neighbours for a filter and those that
        # got one, for the wrap-up to count
        self.peer_asked: list[np.ndarray] = []
        self.peer_answered: list[np.ndarray] = []
        # the tick whose neighbour pairs the last peer search found no
        # answer in; -1 once a filter moves, as the answers follow held_ep
        self.quiet_at = -1
        # a chunk collection in progress: (vehicle, zone) collects from
        # tick time arr_m to due_m, and due_at[due_m] lists it. A due tick
        # is at least one chunk cycle away, so due_m 0 means none
        self.due_m = np.zeros((nv, nz), dtype=np.int64)
        self.arr_m = np.zeros((nv, nz), dtype=np.int64)
        self.due_at: dict[int, list[tuple[int, int]]] = {}

    # ------------------------------------------------------------ set-up

    def _build_world(self) -> None:
        """Authority, zones with their RSUs and chunk schedules, the first
        filter epochs, eavesdroppers and the event log."""
        config, seed = self.config, self.seed
        g = config.graph
        self.ca = ca = CredentialAuthority(
            stable_u64(seed, "ca"), config.filter_capacity, config.filter_target_fp
        )
        zspecs = sorted(config.zones, key=lambda z: z.zone_id)
        hbc_count = int(round(config.hbc_rsu_fraction * len(zspecs)))
        per_chunk = config.filter_bandwidth_bytes_per_s * config.filter_tx_interval_s
        geoms = zone_geometries(config)
        self.zones: list[_ZoneRt] = []
        for j, zs in enumerate(zspecs):
            geom = geoms[zs.zone_id]
            bounds = traverse_time_bounds(geom, g, config.v_min_mps)
            ca.register_rsu(zs.zone_id)
            chaff = (
                ca.provision_chaff(zs.zone_id, config.chaff_per_zone, 0.0, config.duration_s)
                if config.chaff_per_zone
                else ChaffBatch([], 0.0, config.duration_s)
            )
            chaff_ids = frozenset(cid.hex() for cid in chaff.ids)
            controller = MixZoneController(
                zs.zone_id,
                geom,
                g,
                stable_bytes(seed, "session", zs.zone_id, n=32),
                chaff,
                config.relay_fraction,
                bounds,
                config.gamma_v_s,
                seed,
                sparse_threshold=config.sparse_threshold,
                rsu_range_m=config.rsu_range_m,
            )
            size = ca.filter_for(zs.zone_id).serialized_size()
            chunk_count = max(1, math.ceil(size / per_chunk))
            payloads = [
                int(min(per_chunk, size - k * per_chunk)) for k in range(chunk_count)
            ]
            info = ZoneInfo(
                zs.zone_id, geom, bounds, j < hbc_count,
                chaff_ids, f"rsu:{zs.zone_id}",
            )
            self.zones.append(_ZoneRt(info, controller, size, chunk_count, payloads))
        self.zone_ids = [zs.zone_id for zs in zspecs]
        self.controllers = {z.info.zone_id: z.controller for z in self.zones}
        self.zone_disks = [
            (zs.center_x_m, zs.center_y_m, zs.radius_m ** 2) for zs in zspecs
        ]
        self.zcx, self.zcy, self.zr2 = (np.array(c) for c in zip(*self.zone_disks))
        self.cycle_ds = [z.chunk_count * self.fi_ds for z in self.zones]
        # a peer's filter answer on the wire, per zone
        self.answer_bytes = np.array(
            [z.filter_bytes for z in self.zones], dtype=np.int64
        ) + (PSEUDONYM_WIRE_BYTES + ENCRYPTION_OVERHEAD_BYTES)

        espcs = sorted(config.eavesdroppers, key=lambda e: e.eaves_id)
        self.log = EventLogBuilder(
            [e.eaves_id for e in espcs],
            np.array([e.x_m for e in espcs]),
            np.array([e.y_m for e in espcs]),
            np.array([e.range_m ** 2 for e in espcs]),
        )
        self.emit = self.log.event
        self.zone_name = np.array(
            [self.log.name(zid) for zid in self.zone_ids], dtype=np.int32
        )
        self.rsu_name = np.array(
            [self.log.name(z.info.rsu_entity) for z in self.zones], dtype=np.int32
        )

        # a zone filter travels as (epoch, filter_bytes). Every move of the
        # current epochs is noted in epoch_log as (order key of the phase
        # that moved them, epochs), the first before any tick
        self.cur_ep = np.full(len(self.zones), -1, dtype=np.int64)
        self.epoch_log: list[tuple[int, np.ndarray]] = []
        self.log.key = -1
        self._note_epochs()

    def _precompute_poses(self, trips: Sequence[Trip]) -> None:
        """Every vehicle's rows on the tick lattice, the per-tick events
        that follow from the trajectories alone, and each pseudonym pool.

        The rows are tick-major: tick k's rows are tick_ptr[k] to
        tick_ptr[k + 1] - 1, one per vehicle on the road, in vehicle-id
        order. Row r holds vehicle VEH[r]'s pose (X, Y, SPD, HDG), its zone
        (ZIDX, -1 outside every disk), its edge index (EDGE), which RSUs it
        is in range of (RNG, one column per zone), its reception-counter
        slot (SLOT) and, at beacon ticks, how many vehicle beacons it hears,
        in all and in the clear (n_heard, n_clear). Vehicle i's counters
        take one slot per second it is on the road, seconds first_sec[i] to
        first_sec[i] + seconds[i] - 1, vehicles in order.

        The events map a tick to its list, in vehicle order: zone_moves
        (vehicle, previous zone, new zone, row), range_entries and
        range_exits (vehicle, zone), despawns (vehicle,) and first_adverts
        (vehicle, zone), the first advert tick at which the vehicle is in
        the zone's RSU range."""
        config, seed, ca = self.config, self.seed, self.ca
        tick_ds, dur_ds = self.tick_ds, self.dur_ds
        # every trip sampled up to the clock's last tick, in one pass; the
        # trips with a sample are the vehicles, in vehicle-id order
        trips = sorted(trips, key=lambda t: t.vehicle_id)
        trip, t, x, y, speed, heading, edge = sample_trips(
            config.graph, trips, tick_ds / 10.0, dur_ds / 10.0
        )
        per_trip = np.bincount(trip, minlength=len(trips))
        on_road = np.flatnonzero(per_trip)
        kept = [trips[i] for i in on_road.tolist()]
        # each row's vehicle: its trip's place among the kept ones
        vehicle_of = np.zeros(len(trips), dtype=np.int32)
        vehicle_of[on_road] = np.arange(on_road.size)
        veh = np.take(vehicle_of, trip, out=trip)
        del trip, vehicle_of

        nv, nz = len(kept), len(self.zones)
        counts = per_trip[on_road]
        starts = np.cumsum(counts) - counts
        self.t0s = np.rint(t[starts] * 10).astype(np.int64)
        del t
        self.tends = self.t0s + (counts - 1) * tick_ds
        self.first_sec = np.minimum(self.t0s // 10, self.last_sec)
        self.seconds = np.minimum(self.tends // 10, self.last_sec) - self.first_sec + 1

        # built vehicle-major (vehicle i's rows from starts[i], one per
        # tick), where a row's predecessor is the row before it, then
        # permuted to tick-major one column at a time
        tick = np.arange(counts.sum()) - np.repeat(starts - self.t0s // tick_ds, counts)
        order = np.argsort(tick, kind="stable")
        # each vehicle-major row's tick-major row
        tm_row = np.empty_like(order)
        tm_row[order] = np.arange(order.size)
        # tick_ptr as an array, for the vector lookups
        self.tick_lo = np.concatenate(
            ([0], np.cumsum(np.bincount(tick, minlength=self.nticks)))
        )
        self.tick_ptr = self.tick_lo.tolist()

        # zones on the positions as published, RSU range on the simulated
        # ones; the lowest zone index wins where disks overlap
        xp, yp = round_array(x, 3), round_array(y, 3)
        zidx = np.full(x.size, -1, dtype=np.int32)
        rng = np.empty((x.size, nz), dtype=bool)
        for j in range(nz):
            cx, cy = self.zcx[j], self.zcy[j]
            rng[:, j] = (x - cx) ** 2 + (y - cy) ** 2 <= self.rsu_r2
            zidx[((xp - cx) ** 2 + (yp - cy) ** 2 <= self.zr2[j]) & (zidx < 0)] = j
        del xp, yp
        self.X, self.Y = x[order], y[order]
        del x, y
        self.SPD = speed[order]
        del speed
        self.HDG = heading[order]
        del heading
        self.EDGE = edge[order]
        del edge
        self.ZIDX, self.RNG, self.VEH = zidx[order], rng[order], veh[order]
        # the beacon-tick rows outside every RSU range, where a stale filter
        # is asked of the neighbours; tick k's are
        # out_rows[out_ptr[k]:out_ptr[k + 1]], and out_lo is out_ptr as an
        # array
        gv_ticks = self.gv_ds // tick_ds
        self.out_rows = np.flatnonzero(
            ~self.RNG.any(axis=1) & (tick[order] % gv_ticks == 0)
        )
        self.out_lo = np.searchsorted(self.out_rows, self.tick_lo)
        self.out_ptr = self.out_lo.tolist()
        self.n_heard, self.n_clear, self.nb_ptr, nb = self._neighbour_counts()
        # the peer passes compare vehicles: the neighbours as vehicle ids,
        # turned from rows in place, a block at a time
        for a, b in row_blocks(nb.size):
            nb[a:b] = self.VEH[nb[a:b]]
        self.nb_veh = nb
        slot_row = np.cumsum(self.seconds) - self.seconds - self.first_sec
        self.SLOT = (
            np.repeat(slot_row, counts)
            + np.minimum(tick * tick_ds // 10, self.last_sec)
        ).astype(np.int32)[order]

        # zone transitions; zone visits are trajectory-only, so pool sizes
        # stay identical across relay/non-coop sweeps on the same seed
        prev = np.roll(zidx, 1)
        prev[starts] = -1
        moved = np.flatnonzero(zidx != prev)
        entered = moved[zidx[moved] >= 0]
        visits = np.bincount(veh[entered], minlength=nv).tolist()
        # (vehicle, tick) of every zone entry, as vehicle * nticks + tick,
        # sorted; a cooperative vehicle changes pseudonym at each
        self.entry_keys = veh[entered].astype(np.int64) * self.nticks + tick[entered]
        self.zone_moves = _by_tick(
            tick[moved], veh[moved], prev[moved], zidx[moved], tm_row[moved]
        )
        # RSU range entries and exits
        prev = np.roll(rng, 1, axis=0)
        prev[starts] = False
        r, j = (rng & ~prev).nonzero()
        self.range_entries = _by_tick(tick[r], veh[r], j)
        r, j = (prev & ~rng).nonzero()
        self.range_exits = _by_tick(tick[r], veh[r], j)
        # the first advert tick of each (vehicle, zone) in range
        r, j = (rng & (tick * tick_ds % self.gmz_ds == 0)[:, None]).nonzero()
        by_zone = np.lexsort((r, j))
        r, j = r[by_zone], j[by_zone]
        head = np.ones(r.size, dtype=bool)
        head[1:] = (veh[r[1:]] != veh[r[:-1]]) | (j[1:] != j[:-1])
        self.first_adverts = _by_tick(tick[r[head]], veh[r[head]], j[head])
        ends = self.tends // tick_ds
        self.despawns = _by_tick(ends, np.arange(nv))
        # a heap of the ticks the loop must visit: those with zone moves,
        # range entries or despawns inside a zone, nticks, and chunk
        # deliveries and stream ends as scheduled. A range exit or a
        # despawn outside every zone only drops collections, which the next
        # visit does first (drop_ticks)
        in_zone = zidx[starts + counts - 1] >= 0
        self.wake = sorted(
            {*self.zone_moves, *self.range_entries, *ends[in_zone].tolist()}
        ) + [self.nticks]
        # the ticks from which collections are dropped, sorted: a range
        # exit's own, and the one after a despawn, whose own RSU phase still
        # delivers; drop_ticks[:dropped] are done
        self.drop_ticks = sorted({*self.range_exits, *(k + 1 for k in self.despawns)})
        self.dropped = 0

        self.vehicles: list[_VehicleRt] = []
        for trip, n_visits in zip(kept, visits):
            vid = trip.vehicle_id
            ca.register_vehicle(vid)
            pool = ca.issue_pseudonyms(vid, n_visits + 1, 0.0, config.duration_s + 1.0)
            non_coop = (
                random.Random(stable_u64(seed, "noncoop", vid)).random()
                < config.non_coop_fraction
            )
            self.vehicles.append(
                _VehicleRt(vid, trip, non_coop, pool, pool[0])
            )
        vehicles = self.vehicles
        self.lengths = np.array([v.trip.length_m for v in vehicles])
        self.non_coop = np.array([v.non_coop for v in vehicles], dtype=bool)

        # string-table indices of each vehicle's id, and of the pseudonym and
        # link id it holds after c changes, at pool_base[i] + c
        name = self.log.name
        self.veh_name = np.array([name(v.vid) for v in vehicles], dtype=np.int32)
        pid, link, sizes = [], [], []
        for v in vehicles:
            held = v.pool[:1] if v.non_coop else v.pool
            pid.extend(name(cred.id.hex()) for cred in held)
            link.extend(
                name(f"{stable_u64(seed, 'link', v.vid, c):016x}")
                for c in range(len(held))
            )
            sizes.append(len(held))
        self.pool_pid = np.array(pid, dtype=np.int32)
        self.pool_link = np.array(link, dtype=np.int32)
        sizes = np.array(sizes, dtype=np.int64)
        self.pool_base = np.cumsum(sizes) - sizes

    def _neighbour_counts(self) -> tuple[np.ndarray, ...]:
        """How many radio neighbours each row has at its tick, in total and
        outside every zone, zero off the beacon ticks; and the neighbours of
        each row in out_rows. Radio range is symmetric, so the counts are
        also the beacons each row hears. The peer exchange and the peer
        search read the neighbours they ask from here.

        Out row i's neighbours, itself left out, are nb_rows[nb_ptr[i]:
        nb_ptr[i + 1]] in row order, which within a tick is vehicle-id
        order. So tick k's requesters own one slice of nb_rows, from
        nb_ptr[out_ptr[k]] to nb_ptr[out_ptr[k + 1]].

        Consecutive beacon ticks go in blocks, each padded with NaN to its
        largest active count and compared all at once."""
        ptr = self.tick_lo
        n_all = np.zeros(ptr[-1], dtype=np.int32)
        n_out = np.zeros(ptr[-1], dtype=np.int32)
        is_out = np.zeros(ptr[-1], dtype=bool)
        is_out[self.out_rows] = True
        pieces = [np.empty(0, dtype=np.int32)]
        ks = np.flatnonzero(
            (np.arange(self.nticks) * self.tick_ds % self.gv_ds == 0) & (np.diff(ptr) > 0)
        )
        outside = self.ZIDX < 0
        for a, b, width in _padded_blocks((ptr[ks + 1] - ptr[ks]).tolist()):
            block = ks[a:b]
            col = np.arange(width)
            real = col < (ptr[block + 1] - ptr[block])[:, None]
            rows = (ptr[block][:, None] + col)[real]
            x = np.full(real.shape, np.nan)
            y = np.full(real.shape, np.nan)
            out = np.zeros(real.shape, dtype=bool)
            x[real], y[real], out[real] = self.X[rows], self.Y[rows], outside[rows]
            # dx * dx + dy * dy, rounded as written: a pair at the range's
            # edge is in or out by the last bit of this sum
            dx = x[:, :, None] - x[:, None, :]
            dx *= dx
            dy = y[:, :, None] - y[:, None, :]
            dy *= dy
            dx += dy
            near = dx <= self.radio2
            del dx, dy
            # every row is its own neighbour; NaN pads are nobody's
            n_all[rows] = near.sum(axis=2)[real] - 1
            # the out rows' neighbours but themselves, in row order: at
            # holds the out rows' flat places in the block, and a
            # neighbour's row is its tick's first row plus its column
            at = np.flatnonzero(real)[is_out[rows]]
            heard = near.reshape(-1, width)[at]
            heard[np.arange(at.size), at % width] = False
            f = np.flatnonzero(heard)
            i = f // width
            pieces.append((ptr[block][at // width][i] + f - i * width).astype(np.int32))
            near &= out[:, None, :]
            n_out[rows] = near.sum(axis=2)[real] - out[real]
        nb_ptr = np.concatenate(([0], np.cumsum(n_all[self.out_rows], dtype=np.int64)))
        return n_all, n_out, nb_ptr, np.concatenate(pieces)

    # ------------------------------------------------------------ helpers

    def _note_epochs(self) -> None:
        """If any zone filter's epoch moved, note the epochs in cur_ep and
        epoch_log, and in each live stream of a moved zone whether the
        filter still holds its chaff id. Only provisioning and retiring
        chaff move an epoch, and every retire is followed by this call."""
        epochs = np.array(
            [self.ca.filter_for(zid).epoch for zid in self.zone_ids], dtype=np.int64
        )
        moved = epochs != self.cur_ep
        if moved.any():
            for s in self.streams.values():
                if moved[s.zone_j]:
                    self._note_held(s)
            self.epoch_moved = True
            self.cur_ep = epochs
            self.epoch_log.append((self.log.key, epochs))

    def _start_stream(
        self, plan: DecoyPlan, tx_vi: int, reference_hex: str, horizon_ds: int,
        now: float, stop_k: int | None = None,
    ) -> _Stream | None:
        """Launch plan's phantom, sent by vehicle row tx_vi or, for -1, by the
        zone's RSU; None when it has no pose to send. stop_k is the tick
        whose zone phase ends the stream, if one does; the loop need not
        visit its natural end past that."""
        route_rng = random.Random(
            stable_u64(self.seed, "decoyroute", plan.zone_id, reference_hex)
        )
        poses, reason = _build_stream_poses(
            self.config.graph, plan, self.zone_disks, route_rng, self.gv_ds,
            horizon_ds,
        )
        zone_j = self.zone_ids.index(plan.zone_id)
        chaff_hex = plan.chaff.id.hex()
        s = _Stream(
            plan, chaff_hex,
            f"{stable_u64(self.seed, 'chafflink', plan.zone_id, chaff_hex):016x}",
            self.zones[zone_j].info.rsu_entity if tx_vi < 0 else self.vehicles[tx_vi].vid,
            tx_vi, zone_j, poses, int(poses.ds[-1]) if poses.ds.size else -1, reason,
        )
        self.started.append(s)
        if tx_vi >= 0:
            # the accountability chain: the authority traces a relay's chaff
            # id through the zone's assignment back to the relay
            try:
                owner = self.ca.resolve_chaff(plan.chaff.id, self.controllers)
            except NeverAssigned:
                owner = None
            if owner != s.transmitter:
                self.findings.append((self.log.key, (
                    f"relay {s.transmitter} sent chaff {chaff_hex} that "
                    f"resolves to {owner} at t={now}"
                )))
        self.emit({
            "type": "decoy_start", "t": now, "zone": plan.zone_id,
            "chaff": chaff_hex, "source": plan.source,
            "length": round(plan.length_m, 1), "exit_edge": plan.exit_edge_id,
            "start_time": round(plan.start_time_s, 4),
            "speed": round(plan.speed_mps, 3), "tx": s.transmitter,
        })
        self.streams[chaff_hex] = s
        if not poses.ds.size:
            self._end_stream(s, now, reason)
            return None
        self._note_held(s)
        end_k = s.last_ds // self.tick_ds
        heapq.heappush(self.wake, end_k if stop_k is None else min(end_k, stop_k))
        return s

    def _note_held(self, s: _Stream) -> None:
        filt = self.ca.filter_for(s.plan.zone_id)
        s.held.append((self.log.key, filt.contains(s.plan.chaff.id)))

    def _end_stream(self, s: _Stream, now: float, reason: str) -> None:
        """Stop s, unlink it from its relay and retire its chaff credential."""
        del self.streams[s.chaff_hex]
        s.end_key = self.log.key
        if s.tx_vi >= 0:
            self.vehicles[s.tx_vi].stream = None
        self.emit({
            "type": "decoy_end", "t": now, "zone": s.plan.zone_id,
            "chaff": s.chaff_hex, "reason": reason,
        })
        payload = struct.pack("<d", now).ljust(RETIRE_PAYLOAD_BYTES, b"\0")
        self.ca.retire_chaff(sign(payload, s.plan.chaff, now=now), now)
        self.emit({
            "type": "retire", "t": now, "tx": s.transmitter,
            "chaff": s.chaff_hex, "zone": s.plan.zone_id,
            "bytes": RETIRE_WIRE_BYTES,
        })
        self._note_epochs()

    def _take_filters(self, vi, j, ep, k: int) -> None:
        """Each vehicle vi[i] now holds zone j[i]'s filter at epoch ep[i],
        and counts it in the beacon phases from tick k on. vi, j and ep are
        arrays, or scalars for one filter; no (vehicle, zone) comes twice."""
        fresh = self.held_ep[vi, j] < 0
        self.held_from[vi, j] = np.where(fresh, k, self.held_from[vi, j])
        self.held_ep[vi, j] = ep
        self.due_m[vi, j] = 0
        self.quiet_at = -1

    def _enter_zone(
        self, vi: int, zone_j: int, k: int, now: float, pos: tuple[float, float]
    ) -> None:
        v = self.vehicles[vi]
        z = self.zones[zone_j]
        zone_id, entity = z.info.zone_id, z.info.rsu_entity
        # a relay stream from the previous zone stops at the next zone's door
        if v.stream is not None:
            self._end_stream(v.stream, now, "transmitter_zone_entry")
        request = sign(make_join_payload(v.trip.length_m, now), v.active, now=now)
        cur_ep = self.cur_ep.tolist()
        filters = tuple(
            (zid, ep, zz.filter_bytes)
            for zid, ep, zz in zip(self.zone_ids, cur_ep, self.zones)
        )
        sealed = z.controller.handle_join(request, v.active, pos, now, filters)
        self.emit({
            "type": "join_request", "t": now, "tx": v.vid, "rx": entity,
            "zone": zone_id, "bytes": JOIN_REQUEST_WIRE_BYTES,
        })
        body = sealed.open(v.active.id)
        self.emit({
            "type": "join_response", "t": now, "tx": entity, "rx": v.vid,
            "zone": zone_id, "bytes": sealed.wire_size,
            "relay": body.chaff is not None,
        })
        for jj, ep in enumerate(cur_ep):
            if ep > self.held_ep[vi, jj]:
                self._take_filters(vi, jj, ep, k)
                self.emit({
                    "type": "filter_delivered", "t": now, "vehicle": v.vid,
                    "zone": self.zone_ids[jj], "epoch": ep, "via": "join",
                    "latency_s": None,
                })
        old = v.active
        changed = not v.non_coop
        if changed:
            new = v.pool[v.pool_next]
            v.pool_next += 1
            v.active = new
            self.emit({
                "type": "pseudonym_change", "t": now, "vehicle": v.vid,
                "zone": zone_id, "old": old.id.hex(), "new": new.id.hex(),
            })
        v.visit = {
            "zone_j": zone_j,
            "member_id": old.id,
            "new_hex": v.active.id.hex(),
            "t_entry": now,
            "chaff": body.chaff,
            "changed": changed,
        }

    def _leave_zone(self, vi: int, now: float, reason: str) -> dict:
        """Log vehicle vi leaving its zone (reason "exit" or "despawn"),
        record the visit's ground truth and close the visit, returned."""
        v = self.vehicles[vi]
        visit, v.visit = v.visit, None
        zone_id = self.zone_ids[visit["zone_j"]]
        self.emit({
            "type": "zone_exit", "t": now, "vehicle": v.vid,
            "zone": zone_id, "reason": reason,
        })
        if visit["changed"]:
            self.transitions.append(Transition(
                v.vid, zone_id, visit["member_id"].hex(), visit["new_hex"],
                visit["t_entry"], None if reason == "despawn" else now,
            ))
        return visit

    def _next_entry(self, vi: int, k: int) -> int:
        """The tick of vehicle vi's first zone entry at or after tick k,
        nticks if none."""
        first = vi * self.nticks
        i = int(np.searchsorted(self.entry_keys, first + k))
        if i < self.entry_keys.size and self.entry_keys[i] < first + self.nticks:
            return int(self.entry_keys[i]) - first
        return self.nticks

    def _exit_zone(
        self, vi: int, k: int, now: float, edge_id: str, speed: float
    ) -> None:
        visit = self._leave_zone(vi, now, "exit")
        v = self.vehicles[vi]
        controller = self.zones[visit["zone_j"]].controller
        member_hex = visit["member_id"].hex()
        plan = controller.note_exit(
            visit["member_id"], edge_id, speed, now, self.sparse_on
        )
        if plan is not None:
            horizon = round((plan.start_time_s + self.config.rsu_chaff_duration_s) * 10)
            self._start_stream(plan, -1, member_hex, min(self.dur_ds, horizon), now)
        chaff = visit["chaff"]
        if chaff is not None and not v.non_coop:
            relay_plan = controller.launch_relay_decoy(chaff.id, edge_id, now)
            # the relay's next zone entry ends the stream before its decoy
            # phase (transmitter_zone_entry); no pose from then on is sent.
            # Its poses run to the first beacon tick at or after the entry,
            # and past its first pose, so that the stream is still live there
            stop_k = self._next_entry(vi, k)
            stop_ds = max(
                -(-stop_k * self.tick_ds // self.gv_ds) * self.gv_ds,
                _first_pose_ds(relay_plan, self.gv_ds),
            )
            v.stream = self._start_stream(
                relay_plan, vi, member_hex, min(int(self.tends[vi]), stop_ds), now,
                stop_k,
            )

    # ------------------------------------------------------------ one tick

    def step(self, k: int) -> None:
        """Tick k's phases that act on the run's state, each logging under
        its order key. Adverts, chunks and beacons are logged at wrap-up."""
        t_ds = k * self.tick_ds
        lo, hi = self.tick_ptr[k], self.tick_ptr[k + 1]
        tk = _Tick(
            k, t_ds, t_ds / 10.0, lo, hi, self.VEH[lo:hi], self.X[lo:hi],
            self.Y[lo:hi],
        )
        log, key = self.log, k * N_PHASES
        log.key = key + PH_ZONES
        self._zone_transitions(tk)
        # the epochs as this tick's RSU phase saw them; decoy streams that
        # end this tick retire chaff and move them on
        cur_ep = self.cur_ep
        log.key = key + PH_RSU
        self._rsu_range(tk)
        if t_ds % self.gv_ds == 0:
            log.key = key + PH_DECOYS
            self._end_streams(tk)
            log.key = key + PH_PEERS
            self._peer_exchange(tk, cur_ep)
        log.key = key + PH_DESPAWNS
        self._despawns(tk)

    def next_visit(self, k: int) -> int:
        """The first tick after k whose step can act, nticks if none: the
        next tick in wake; the next tick while an epoch move awaits the RSU
        phase; or a beacon tick where a peer answers a stale filter. The
        ticks skipped have only records the wrap-up logs, and their peer
        queries are noted."""
        if self.epoch_moved:
            return k + 1
        while self.wake[0] <= k:
            heapq.heappop(self.wake)
        return self._peer_search(k + 1, self.wake[0])

    def _peer_search(self, a: int, b: int) -> int:
        """The first beacon tick from a to b - 1 at which a stale row
        outside every RSU range has a radio neighbour holding a strictly
        newer epoch of some zone, b if none. No filter or epoch moves
        before b, so held_ep and cur_ep hold for every tick searched. The
        stale rows of the ticks before the one returned ask in vain and go
        to peer_asked.

        A pair answers when its neighbour holds a newer epoch of some zone
        than its requester, which only a stale requester can lack, as no
        filter is newer than the current. So the window's pairs of stale
        requesters, tick b's too, are tested in one gather and compare, in
        chunks of about BLOCK_ELEMENTS pairs, up to the first hit. With none,
        quiet_at notes b: until a filter moves, b's exchange has no answer
        either."""
        lo, hi = self.out_ptr[a], self.out_ptr[b]
        if lo == hi:
            return b
        hi = self.out_ptr[min(b + 1, self.nticks)]
        held_ep, ptr = self.held_ep, self.nb_ptr[lo:hi + 1]
        rows = self.out_rows[lo:hi]
        veh = self.VEH[rows]
        stale = (held_ep[veh] < self.cur_ep).any(axis=1)
        found, self.quiet_at = b, b
        if stale.any():
            blocks = [(0, rows.size)]
            if ptr[-1] - ptr[0] > BLOCK_ELEMENTS:
                blocks = _pair_blocks(np.diff(ptr), BLOCK_ELEMENTS)
            for i, j in blocks:
                # each pair's requester; only the stale ones ask
                n = np.diff(ptr[i:j + 1])
                asks = np.flatnonzero(np.repeat(stale[i:j], n))
                own = np.repeat(veh[i:j], n)[asks]
                nb = self.nb_veh[ptr[i]:ptr[j]][asks]
                hit = (held_ep[nb] > held_ep[own]).any(axis=1)
                if hit.any():
                    at = np.searchsorted(ptr, ptr[i] + asks[hit.argmax()], side="right") - 1
                    found = int(np.searchsorted(self.out_lo, lo + at, side="right")) - 1
                    self.quiet_at = -1
                    break
        cut = self.out_ptr[found] - lo
        if stale[:cut].any():
            self.peer_asked.append(rows[:cut][stale[:cut]])
        return found

    def _zone_transitions(self, tk: _Tick) -> None:
        """Zone exits and entries, in vehicle-id order."""
        for vi, prev_j, new_j, row in self.zone_moves.get(tk.k, ()):
            if prev_j >= 0:
                edge_id = self.vehicles[vi].trip.edge_ids[self.EDGE[row]]
                self._exit_zone(vi, tk.k, tk.now, edge_id, float(self.SPD[row]))
            if new_j >= 0:
                self._enter_zone(
                    vi, new_j, tk.k, tk.now, (float(self.X[row]), float(self.Y[row]))
                )

    def _rsu_range(self, tk: _Tick) -> None:
        """The collections dropped since the last visit, chunk collections
        and chunk deliveries."""
        k, t_ds, now, cur_ep = tk.k, tk.t_ds, tk.now, self.cur_ep
        # leaving range, or the road, drops a collection in progress.
        # Nothing reads due_m between visits, so the drops since the last
        # visit are done here
        upto = bisect.bisect_right(self.drop_ticks, k, lo=self.dropped)
        for t in self.drop_ticks[self.dropped:upto]:
            for vi, j in self.range_exits.get(t, ()):
                self.due_m[vi, j] = 0
            for (vi,) in self.despawns.get(t - 1, ()):
                self.due_m[vi] = 0
        self.dropped = upto

        # a vehicle in range of a newer filter than it holds, and not yet
        # collecting it, collects one full chunk cycle from the next
        # wraparound (chunk_delivery_latency). Only a range entry or a new
        # epoch can make such a vehicle.
        if self.epoch_moved:
            self.epoch_moved = False
            av = tk.av
            need = (
                self.RNG[tk.lo:tk.hi] & (self.held_ep[av] < cur_ep) & (self.due_m[av] == 0)
            )
            rows, js = need.nonzero()
            starting = zip(av[rows].tolist(), js.tolist())
        else:
            starting = self.range_entries.get(k, ())
        for vi, j in starting:
            if self.due_m[vi, j] or self.held_ep[vi, j] >= cur_ep[j]:
                continue
            cycle = self.cycle_ds[j]
            due = t_ds + (cycle - t_ds % cycle) % cycle + cycle
            self.due_m[vi, j] = due
            self.arr_m[vi, j] = t_ds
            self.due_at.setdefault(due, []).append((vi, j))
            heapq.heappush(self.wake, due // self.tick_ds)
        # a collection that was dropped, or dropped and started again with
        # another due tick, delivers nothing here; one started again with
        # the same due tick delivers once
        done = sorted({
            (vi, j) for vi, j in self.due_at.pop(t_ds, ())
            if self.due_m[vi, j] == t_ds
        })
        if not done:
            return
        vi, j = np.array(done).T
        ep = cur_ep[j]
        self._take_filters(vi, j, ep, k)
        self.log.message(
            VIA_RSU, np.full(vi.size, self.log.key), np.arange(vi.size), now,
            self.veh_name[vi], self.zone_name[j], epoch=ep,
            latency_s=(t_ds - self.arr_m[vi, j]) / 10.0,
        )

    def _end_streams(self, tk: _Tick) -> None:
        """The decoy streams that sent their last pose at this tick end."""
        for s in [s for s in self.streams.values() if tk.t_ds >= s.last_ds]:
            self._end_stream(s, tk.now, s.natural_reason)

    def _peer_exchange(self, tk: _Tick, cur_ep: np.ndarray) -> None:
        """Vehicles outside every RSU range with a stale filter ask their
        neighbours for a newer one; what they get counts from the next
        tick on.

        Per zone, each requester's responder is the first of its neighbour
        pairs (nb_veh, in vehicle-id order) that holds a strictly newer
        epoch: the lowest vehicle id among them, per
        choose_filter_responder. A requester is never its own, and only a
        stale one has any. The pairs go untested where the peer search
        found no answer and no filter has moved since (quiet_at)."""
        a, b = self.out_ptr[tk.k], self.out_ptr[tk.k + 1]
        if a == b:
            return
        held_ep = self.held_ep
        rows = self.out_rows[a:b]
        veh = self.VEH[rows]
        asking = (held_ep[veh] < cur_ep).any(axis=1)
        if not asking.any():
            return
        self.peer_asked.append(rows[asking])
        if self.quiet_at == tk.k:
            return
        # the pairs of the rows that ask, each with its requester; every
        # hit, zone by zone, requesters in row order
        n = np.diff(self.nb_ptr[a:b + 1])
        asks = np.repeat(asking, n)
        own = np.repeat(veh, n)[asks]
        nb = self.nb_veh[self.nb_ptr[a]:self.nb_ptr[b]][asks]
        j, p = (held_ep[nb] > held_ep[own]).T.nonzero()
        if not j.size:
            return
        first = np.ones(j.size, dtype=bool)
        first[1:] = (j[1:] != j[:-1]) | (own[p[1:]] != own[p[:-1]])
        j, p = j[first], p[first]
        vi, resp = own[p], nb[p]
        ep = held_ep[resp, j]
        # each (vehicle, zone) is answered at most once, with a newer epoch
        # than the vehicle holds
        self._take_filters(vi, j, ep, tk.k + 1)
        # a tick's rows are in vehicle order
        answered = np.zeros(rows.size, dtype=bool)
        answered[np.searchsorted(veh, vi)] = True
        self.peer_answered.append(rows[answered])
        # zone by zone, requesters in row order, each answer before its
        # delivery
        key, n = np.full(vi.size, self.log.key), 2 * np.arange(vi.size)
        rx, zone = self.veh_name[vi], self.zone_name[j]
        self.log.message(
            PEER_FILTER, key, n, tk.now, self.veh_name[resp], zone,
            self.answer_bytes[j], rx=rx, epoch=ep,
        )
        self.log.message(VIA_PEER, key, n + 1, tk.now, rx, zone, epoch=ep)

    def _despawns(self, tk: _Tick) -> None:
        """Trips that end at this tick inside a zone leave it; the RSU
        phase drops their collections from the next tick on."""
        for (vi,) in self.despawns.get(tk.k, ()):
            v = self.vehicles[vi]
            if v.visit is not None:
                visit = self._leave_zone(vi, tk.now, "despawn")
                self.zones[visit["zone_j"]].controller.drop_member(visit["member_id"])

    # ------------------------------------------------------------ wrap up

    def _count_receptions(self, tick: np.ndarray, sends: tuple) -> None:
        """Fill the reception counters of every vehicle second in one pass
        over the rows, a block at a time (tick holds each row's tick): the
        vehicle beacons each row hears, the decoy beacons in sends (as
        _log_decoys returns them), and the peer queries. The counters take
        the narrowest dtype _counter_bound allows.

        A receiver checks each chaff id against the filters it holds then
        (held_from). Real pseudonyms are never in any filter, a 1e-20
        false positive neglected, so a vehicle beacon costs a check per
        held filter and a verification. A receiver holding a decoy's zone
        filter discards it after checking the filters up to that zone's;
        the others check every filter they hold and verify the unknown
        pseudonym."""
        counts = dict(zip(RECEPTION_COUNTERS, self.counters))
        nslots, dtype = self.counters.shape[1], self.counters.dtype

        def add(name: str, slots: np.ndarray, n) -> None:
            # n in the counters' dtype, which keeps np.add.at off its
            # casting path
            np.add.at(counts[name], slots, np.asarray(n, dtype=dtype))

        def per_slot(slots: np.ndarray) -> np.ndarray:
            return np.bincount(slots, minlength=nslots).astype(dtype)

        vi = self.VEH
        # the vehicle beacons, a block of rows at a time
        for a, b in row_blocks(vi.size):
            rows = slice(a, b)
            n_held = (self.held_from[vi[rows]] <= tick[rows, None]).sum(axis=1)
            n_clear = self.n_clear[rows].astype(np.int64)
            slots = self.SLOT[rows]
            add("rx_beacons", slots, n_clear)
            add(
                "rx_bytes", slots,
                n_clear * BEACON_WIRE_BYTES
                + (self.n_heard[rows] - n_clear) * ENCRYPTED_BEACON_WIRE_BYTES,
            )
            add("checks", slots, n_clear * n_held)
            add("verifies", slots, n_clear)

        ks, hx, hy, zone, relay = sends
        r2 = np.where(relay < 0, self.rsu_r2, self.radio2)
        ptr = self.tick_lo
        lo, n = ptr[ks], ptr[ks + 1] - ptr[ks]
        # one (send, row) pair per send and row of its tick, a quarter
        # block at a time: the pass keeps a dozen columns of its pairs
        for a, b in _pair_blocks(n, BLOCK_ELEMENTS // 4):
            cnt = n[a:b]
            s = np.repeat(np.arange(a, b), cnt)
            rows = np.repeat(lo[a:b] - (np.cumsum(cnt) - cnt), cnt) + np.arange(s.size)
            rx = (self.X[rows] - hx[s]) ** 2 + (self.Y[rows] - hy[s]) ** 2 <= r2[s]
            rx &= vi[rows] != relay[s]
            rows, s = rows[rx], s[rx]
            held = self.held_from[vi[rows]] <= ks[s][:, None]
            pick = np.arange(rows.size), zone[s]
            hold = held[pick]
            slots = self.SLOT[rows]
            add("rx_beacons", slots, 1)
            add("rx_bytes", slots, BEACON_WIRE_BYTES)
            add("discard_chaff", slots, hold)
            add("checks", slots, np.where(
                hold, held.cumsum(axis=1)[pick], held.sum(axis=1)
            ))
            add("unknown_pending", slots, ~hold)
            add("verifies", slots, ~hold)

        none = np.empty(0, dtype=np.int64)
        asked = per_slot(self.SLOT[np.concatenate([none, *self.peer_asked])])
        counts["peer_queries"] += asked
        counts["peer_unanswered"] += asked - per_slot(
            self.SLOT[np.concatenate([none, *self.peer_answered])]
        )

    def _counter_bound(self) -> int:
        """A bound on every reception counter of every slot, from the rows
        alone. A slot's rows each hear at most n_heard.max() vehicle
        beacons and one decoy beacon per chaff id, as each decoy stream
        sends under its own chaff id, and ask at most one peer query. Each
        adds at most cost to any counter: an encrypted beacon's wire size,
        the largest, or one check per zone. The bound also covers a slot's
        peer queries priced in bytes, as metrics.overhead prices them, a
        query's PEER_QUERY_BYTES being below the beacon wire size."""
        rows = int(np.bincount(self.SLOT).max(initial=0))
        chaff = sum(len(z.info.chaff_ids) for z in self.zones)
        heard = int(self.n_heard.max(initial=0)) + chaff
        cost = max(ENCRYPTED_BEACON_WIRE_BYTES, len(self.zones))
        return rows * (heard + 1) * cost

    def _log_vehicle_beacons(self, tick: np.ndarray) -> None:
        """Every plaintext vehicle beacon, logged at once as its pose row:
        each row outside every zone at a beacon tick (tick holds each
        row's), under its tick's beacon-phase key and the pseudonym and
        link id its vehicle held then. The log takes the pose columns over.

        A cooperative vehicle holds pool[c] and link id c after c zone
        entries; entries happen in the tick's zone transitions, before its
        beacons."""
        rows = np.flatnonzero((self.ZIDX < 0) & (tick * self.tick_ds % self.gv_ds == 0))
        pid = np.empty(rows.size, dtype=np.int32)
        link = np.empty(rows.size, dtype=np.int32)
        for a, b in row_blocks(rows.size):
            r = rows[a:b]
            k, vi = tick[r], self.VEH[r]
            key = vi.astype(np.int64) * self.nticks
            changes = (
                np.searchsorted(self.entry_keys, key + k, side="right")
                - np.searchsorted(self.entry_keys, key)
            )
            pool_i = self.pool_base[vi] + np.where(self.non_coop[vi], 0, changes)
            pid[a:b] = self.pool_pid[pool_i]
            link[a:b] = self.pool_link[pool_i]
        ticks = np.arange(self.nticks)
        self.log.vehicle_beacons(rows, pid, link, RowPoses(
            self.tick_lo, ticks * self.tick_ds / 10.0, ticks * N_PHASES + PH_BEACONS,
            self.X, self.Y, self.SPD, self.HDG, self.VEH, self.veh_name, self.lengths,
        ))

    def _log_decoys(self, tick: np.ndarray) -> tuple:
        """Log every decoy beacon at once and note its findings; return the
        sends as (tick, transmitter x, y, zone, relay vehicle or -1) columns.

        A stream sent each pose whose tick's decoy-phase key is at or before
        the key under which it ended: a zone-phase end drops that tick's
        pose, a natural end keeps it. A relay transmits from its row at the
        send's tick (tick holds each row's), an RSU from its zone's centre.
        n runs below every protocol record's, in stream start order, so in
        its tick a beacon precedes the retires. A send whose chaff id held
        last noted absent from its zone filter is a finding."""
        log, started = self.log, self.started
        sizes = np.array([s.poses.ds.size for s in started], dtype=np.int64)
        i = np.repeat(np.arange(sizes.size), sizes)
        end_key = np.array([s.end_key for s in started], dtype=np.int64)[i]
        ds, x, y, speed, heading = (
            np.concatenate(col) for col in zip(_NO_POSES, *(s.poses for s in started))
        )
        k = ds // self.tick_ds
        sent = k * N_PHASES + PH_DECOYS <= end_key
        k, i, x, y, speed, heading = (c[sent] for c in (k, i, x, y, speed, heading))
        zone, relay, tx, chaff, link = np.array([
            (s.zone_j, s.tx_vi, log.name(s.transmitter), log.name(s.chaff_hex),
             log.name(s.link_hex)) for s in started
        ], dtype=np.int64).reshape(-1, 5)[i].T
        length = np.array([s.plan.length_m for s in started], dtype=float)[i]
        hx, hy, by = self.zcx[zone], self.zcy[zone], relay >= 0
        nv = len(self.vehicles)
        row = np.searchsorted(tick * nv + self.VEH, k[by] * nv + relay[by])
        hx[by], hy[by] = self.X[row], self.Y[row]
        key = k * N_PHASES + PH_DECOYS
        log.beacons(
            key, np.arange(key.size) - key.size, k * self.tick_ds / 10.0, tx,
            chaff, link, x, y, speed, heading, length, True, self.zone_name[zone],
            hx, hy,
        )
        for j, s in enumerate(started):
            if all(held for _, held in s.held):
                continue
            noted = [at for at, _ in s.held]
            for at in key[i == j].tolist():
                if not s.held[bisect.bisect_left(noted, at) - 1][1]:
                    self.findings.append((at, (
                        f"decoy {s.chaff_hex} emitted while absent from "
                        f"{s.plan.zone_id}'s filter at "
                        f"t={at // N_PHASES * self.tick_ds / 10.0}"
                    )))
        return k, hx, hy, zone, relay

    def _log_periodic(self, tick: np.ndarray) -> None:
        """Every advert, chunk and encrypted beacon, logged at once under
        its tick's key.

        Each row inside a zone at a beacon tick (tick holds each row's)
        sends an encrypted beacon. Every zone's RSU sends an advert at
        every advert tick; an advert lists the vehicles that first hear one
        of the zone's there (first_adverts). A chunk carries the zone
        filter's epoch as that tick's RSU phase saw it: the last entry of
        epoch_log before that phase's key."""
        log, tick_ds = self.log, self.tick_ds
        rows = np.flatnonzero((self.ZIDX >= 0) & (tick * tick_ds % self.gv_ds == 0))
        k = tick[rows]
        log.message(
            ENCRYPTED, k * N_PHASES + PH_BEACONS, rows, k * tick_ds / 10.0,
            self.veh_name[self.VEH[rows]], self.zone_name[self.ZIDX[rows]],
            ENCRYPTED_BEACON_WIRE_BYTES,
        )
        del rows, k

        nz, step = len(self.zones), self.gmz_ds // tick_ds
        ks = np.arange(0, self.nticks, step)
        key = np.repeat(ks * N_PHASES + PH_ADVERTS, nz)
        zone = np.tile(np.arange(nz), ks.size)
        # verifier list 0 is the empty one; only the first adverts name any
        verifiers = np.zeros(key.size, dtype=np.int32)
        veh_name = self.veh_name.tolist()
        for k, fresh in self.first_adverts.items():
            by_zone: dict[int, list[int]] = {}
            for vi, j in fresh:
                by_zone.setdefault(j, []).append(veh_name[vi])
            for j, names in by_zone.items():
                verifiers[k // step * nz + j] = log.verifiers(tuple(names))
        log.message(
            ADVERT, key, zone, key // N_PHASES * tick_ds / 10.0,
            self.rsu_name[zone], self.zone_name[zone], ADVERT_WIRE_BYTES,
            verifiers=verifiers,
        )

        t_ds = np.arange(0, self.nticks, self.fi_ds // tick_ds) * tick_ds
        key = t_ds // tick_ds * N_PHASES + PH_CHUNKS
        moves, epochs = zip(*self.epoch_log)
        epoch = np.array(epochs)[np.searchsorted(moves, key) - 1]
        for j, z in enumerate(self.zones):
            slot = t_ds // self.fi_ds % z.chunk_count
            log.message(
                CHUNK, key, j, t_ds / 10.0, self.rsu_name[j], self.zone_name[j],
                np.array(z.chunk_payloads)[slot] + CHUNK_CERT_BYTES,
                epoch=epoch[:, j], index=slot, total=z.chunk_count,
            )

    def finish(self) -> RunResult:
        # after every tick; the wrap-up asks no neighbour
        self.log.key = self.nticks * N_PHASES
        del self.out_rows, self.out_lo, self.out_ptr, self.nb_ptr, self.nb_veh
        for z in self.zones:
            for t, kind, detail in z.controller.events:
                self.emit({
                    "type": "zone_note", "t": t, "zone": z.info.zone_id,
                    "kind": kind, "detail": detail,
                })

        tick = np.repeat(np.arange(self.nticks), np.diff(self.tick_lo))
        self._count_receptions(tick, self._log_decoys(tick))
        # what receptions were counted from; nothing later reads it
        del self.RNG, self.EDGE, self.SLOT, self.n_heard, self.n_clear
        del self.peer_asked, self.peer_answered
        self._log_periodic(tick)
        self._log_vehicle_beacons(tick)
        del tick
        # the log holds the pose columns it still reads, and reorders the
        # counters in place into its reception summaries
        del self.X, self.Y, self.SPD, self.HDG, self.ZIDX, self.VEH
        event_log = self.log.finish(
            self.counters, self.veh_name, self.first_sec, self.seconds
        )
        del self.counters
        # sorted stably: a tick's findings keep their stream start order
        findings = sorted(self.findings, key=lambda f: f[0])
        result = RunResult(
            self.config, event_log, self.transitions,
            [z.info for z in self.zones], [text for _, text in findings],
        )
        seen = result.observed_spans
        for tr in self.transitions:
            old_seen = seen.get(tr.old_id)
            new_seen = seen.get(tr.new_id)
            tr.entry_observed = old_seen is not None and old_seen[0] < tr.t_entry - 1e-9
            tr.exit_observed = (
                tr.t_exit is not None
                and new_seen is not None
                and new_seen[1] >= tr.t_exit - 1e-9
            )
        return result


# ---------------------------------------------------------------------------
# post-run audits


def audit_observability(result: RunResult) -> list[str]:
    """No observed beacon may claim a position inside any zone disk.
    Findings come in (eavesdropper id, time, pseudonym, zone) order."""
    obs = result.observations
    cx, cy, r = np.array([(*z.geometry.center, z.geometry.radius) for z in result.zones]).T
    rows, zones = np.nonzero(
        (obs.x[:, None] - cx) ** 2 + (obs.y[:, None] - cy) ** 2 <= r ** 2
    )
    order = np.argsort(obs.eaves[rows], kind="stable")
    return [
        f"{obs.names[obs.eaves[i]]} logged {obs.names[obs.pseudonym[i]]} at "
        f"({obs.x[i].item()}, {obs.y[i].item()}) inside "
        f"{result.zones[j].zone_id} at t={obs.t[i].item()}"
        for i, j in zip(rows[order].tolist(), zones[order].tolist())
    ]


def audit_single_pseudonym(result: RunResult) -> list[str]:
    """Per instant: one real pseudonym per vehicle, at most one chaff id per
    relay. Real findings come first, then chaff ones, each in (transmitter
    id, time) order.

    The rows are checked in time order, about a row block at a time,
    blocks cut between instants, so no pass sorts every key of every row."""
    b = result.log.beacons
    rank = name_ranks(b.names)
    found: list[tuple[bool, int, float, str]] = []
    by_time = np.argsort(b.t, kind="stable")
    lo, n = 0, by_time.size
    while lo < n:
        hi = min(lo + eventlog.ROW_BLOCK, n)
        while hi < n and b.t[by_time[hi]] == b.t[by_time[hi - 1]]:
            hi += 1
        rows = by_time[lo:hi]
        lo = hi
        tx_rank = rank[b.tx[rows]]
        order = np.lexsort((b.pseudonym[rows], b.t[rows], tx_rank, b.chaff[rows]))
        rows, tx = rows[order], tx_rank[order]
        chaff, t, pid = b.chaff[rows], b.t[rows], b.pseudonym[rows]
        # a group is one (chaff, transmitter, instant); runs of equal
        # pseudonyms within it count once
        new_group = np.ones(rows.size, dtype=bool)
        new_group[1:] = (chaff[1:] != chaff[:-1]) | (tx[1:] != tx[:-1]) | (t[1:] != t[:-1])
        new_pid = new_group.copy()
        new_pid[1:] |= pid[1:] != pid[:-1]
        distinct = np.bincount(np.cumsum(new_group) - 1, weights=new_pid).astype(np.int64)
        dup = distinct > 1
        for i, ids in zip(rows[new_group][dup].tolist(), distinct[dup].tolist()):
            name, when, is_chaff = b.names[b.tx[i]], b.t[i].item(), bool(b.chaff[i])
            if not is_chaff:
                text = f"{name} emitted {ids} real pseudonyms at t={when}"
            elif not name.startswith("rsu:"):
                text = f"relay {name} emitted {ids} chaff ids at t={when}"
            else:
                continue
            found.append((is_chaff, int(rank[b.tx[i]]), when, text))
    return [text for *_, text in sorted(found, key=lambda f: f[:3])]


def audit_ground_truth(result: RunResult) -> list[str]:
    """Old ids never reappear after entering; new ids never appear before."""
    bad: list[str] = []
    seen = result.observed_spans
    for tr in result.transitions:
        old_seen = seen.get(tr.old_id)
        new_seen = seen.get(tr.new_id)
        if old_seen is not None and old_seen[1] >= tr.t_entry - 1e-9:
            bad.append(f"{tr.old_id} observed after entering {tr.zone_id}")
        if new_seen is not None and new_seen[0] < tr.t_entry - 1e-9:
            bad.append(f"{tr.new_id} observed before the change in {tr.zone_id}")
    return bad

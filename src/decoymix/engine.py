"""Deterministic tick-loop simulation: vehicles, mix-zones, radios, filters.

Everything advances on a decisecond lattice. Every random draw comes from a
stream keyed by (seed, purpose, entity id), so two runs that differ only in
one fraction share all remaining randomness; raising relay_fraction adds
decoy streams without reshuffling the ones already present.
"""

from __future__ import annotations

import functools
import json
import math
import random
import struct
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence, get_type_hints

import numpy as np

from .core import (
    ENCRYPTION_OVERHEAD_BYTES,
    PSEUDONYM_WIRE_BYTES,
    Credential,
    CredentialKind,
    SignedEnvelope,
    sign,
    stable_bytes,
    stable_u64,
    verify,
)
from .errors import ConfigError, NoResponder
from .eventlog import (
    BEACON_WIRE_BYTES,
    RECEPTION_COUNTERS,
    EventLog,
    EventLogBuilder,
    round_array,
)
from .mixzone import (
    ADVERT_PAYLOAD_BYTES,
    JOIN_REQUEST_PAYLOAD_BYTES,
    DecoyPlan,
    MixZoneController,
    make_join_payload,
)
from .mobility import Trip, synthesize_trips, trip_samples_with_edges, validate_trip
from .roads import (
    DEFAULT_V_MIN_MPS,
    MixZoneGeometry,
    RoadGraph,
    point_along,
    traverse_time_bounds,
    zone_from_center,
)
from .vpki import CredentialAuthority

# Every signed broadcast carries the signer's credential on the wire.
ENCRYPTED_BEACON_WIRE_BYTES = BEACON_WIRE_BYTES + ENCRYPTION_OVERHEAD_BYTES
ADVERT_WIRE_BYTES = ADVERT_PAYLOAD_BYTES + PSEUDONYM_WIRE_BYTES
JOIN_REQUEST_WIRE_BYTES = JOIN_REQUEST_PAYLOAD_BYTES + PSEUDONYM_WIRE_BYTES
RETIRE_PAYLOAD_BYTES = 16
RETIRE_WIRE_BYTES = RETIRE_PAYLOAD_BYTES + PSEUDONYM_WIRE_BYTES
PEER_QUERY_WIRE_BYTES = 16 + PSEUDONYM_WIRE_BYTES
CHUNK_CERT_BYTES = PSEUDONYM_WIRE_BYTES

STANDARD_BEACON_INTERVALS_S = (0.2, 0.5, 1.0)

OBSERVATION_HEADER = "time,pseudonym_id,x,y,speed,heading,length,eavesdropper_id"


# ---------------------------------------------------------------------------
# scenario configuration


@dataclass(frozen=True)
class ZoneSpec:
    zone_id: str
    center_x_m: float
    center_y_m: float
    radius_m: float


@dataclass(frozen=True)
class EavesdropperSpec:
    eaves_id: str
    x_m: float
    y_m: float
    range_m: float


@dataclass
class ScenarioConfig:
    graph: RoadGraph
    zones: tuple[ZoneSpec, ...]
    eavesdroppers: tuple[EavesdropperSpec, ...] = ()
    n_vehicles: int = 0
    arrival_rate_per_s: float = 0.1
    trips: tuple[Trip, ...] | None = None  # overrides synthesis when set
    gamma_v_s: float = 0.5
    gamma_mz_s: float = 1.0
    relay_fraction: float = 0.0
    non_coop_fraction: float = 0.0
    hbc_rsu_fraction: float = 0.0
    filter_bandwidth_bytes_per_s: float = 50_000.0
    filter_tx_interval_s: float = 1.0
    sparse_threshold: int = 2
    rng_seed: int = 0
    duration_s: float = 600.0
    v_min_mps: float = DEFAULT_V_MIN_MPS
    rsu_range_m: float = 600.0
    vehicle_radio_range_m: float = 300.0
    rsu_chaff_duration_s: float = 60.0
    chaff_per_zone: int = 200
    filter_capacity: int = 1000
    filter_target_fp: float = 1e-20

    def validate(self) -> None:
        if self.gamma_v_s not in STANDARD_BEACON_INTERVALS_S:
            raise ConfigError(
                f"gamma_v_s must be one of {STANDARD_BEACON_INTERVALS_S}"
            )
        for name in ("gamma_mz_s", "filter_tx_interval_s", "duration_s"):
            val = getattr(self, name)
            if val <= 0 or abs(round(val * 10) - val * 10) > 1e-9:
                raise ConfigError(f"{name} must be a positive 0.1 s multiple")
        for name in ("relay_fraction", "non_coop_fraction", "hbc_rsu_fraction"):
            val = getattr(self, name)
            if not 0.0 <= val <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1]")
        if self.filter_bandwidth_bytes_per_s * self.filter_tx_interval_s < 1:
            raise ConfigError(
                "filter_bandwidth_bytes_per_s times filter_tx_interval_s must "
                "be at least 1, so each chunk carries a byte"
            )
        for name in ("vehicle_radio_range_m", "rsu_range_m", "rsu_chaff_duration_s"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.trips is None:
            if self.n_vehicles < 0:
                raise ConfigError("n_vehicles must be non-negative")
            if self.n_vehicles > 0 and self.arrival_rate_per_s <= 0:
                raise ConfigError("arrival_rate_per_s must be positive")
        if self.sparse_threshold < 0:
            raise ConfigError("sparse_threshold must be non-negative")
        if self.chaff_per_zone < 0:
            raise ConfigError("chaff_per_zone must be non-negative")
        if self.filter_capacity <= 0:
            raise ConfigError("filter_capacity must be positive")
        if not 0.0 < self.filter_target_fp < 1.0:
            raise ConfigError("filter_target_fp must lie in (0, 1)")
        if self.v_min_mps <= 0:
            raise ConfigError("v_min_mps must be positive")
        seen_zones: set[str] = set()
        for z in self.zones:
            if z.zone_id in seen_zones:
                raise ConfigError(f"duplicate zone id {z.zone_id}")
            seen_zones.add(z.zone_id)
            if z.radius_m <= 0:
                raise ConfigError(f"zone {z.zone_id} radius must be positive")
            if z.radius_m > self.rsu_range_m:
                raise ConfigError(
                    f"zone {z.zone_id} radius exceeds the RSU range; joins at "
                    "the boundary would be unreachable"
                )
        seen_eaves: set[str] = set()
        for e in self.eavesdroppers:
            if e.eaves_id in seen_eaves:
                raise ConfigError(f"duplicate eavesdropper id {e.eaves_id}")
            seen_eaves.add(e.eaves_id)
            if e.range_m <= 0:
                raise ConfigError(f"eavesdropper {e.eaves_id} range must be positive")
        if self.trips is not None:
            for trip in self.trips:
                validate_trip(self.graph, trip)

    def resolve_trips(self) -> tuple[Trip, ...]:
        if self.trips is not None:
            return tuple(self.trips)
        if self.n_vehicles == 0:
            return ()
        return tuple(
            synthesize_trips(
                self.graph,
                self.n_vehicles,
                self.arrival_rate_per_s,
                stable_u64(self.rng_seed, "trips"),
            )
        )

    def replaced(self, **kw) -> "ScenarioConfig":
        return replace(self, **kw)

    @classmethod
    def from_dict(cls, doc: dict, base_dir: Path | None = None) -> "ScenarioConfig":
        base = Path(base_dir) if base_dir is not None else Path(".")
        doc = dict(doc)
        try:
            graph_file = doc.pop("graph_file")
        except KeyError:
            raise ConfigError("scenario is missing graph_file") from None
        graph_path = base / _typed("graph_file", graph_file, str)
        if not graph_path.exists():
            raise ConfigError(f"graph file not found: {graph_path}")
        graph = RoadGraph.load(graph_path)

        zone_docs = doc.pop("zones", None)
        if not zone_docs:
            raise ConfigError("scenario must declare at least a zones list")
        zones = tuple(
            _parse_spec(ZoneSpec, z) for z in _typed("zones", zone_docs, list)
        )
        eaves = tuple(
            _parse_spec(EavesdropperSpec, e)
            for e in _typed("eavesdroppers", doc.pop("eavesdroppers", []), list)
        )
        traffic = doc.pop("traffic", None)
        if traffic is None:
            raise ConfigError("scenario is missing the traffic block")
        extra_traffic = set(_typed("traffic", traffic, dict)) - {
            "n_vehicles", "arrival_rate_per_s",
        }
        if extra_traffic:
            raise ConfigError(f"unknown traffic keys: {sorted(extra_traffic)}")

        scalar_fields = {
            "gamma_v_s", "gamma_mz_s", "relay_fraction", "non_coop_fraction",
            "hbc_rsu_fraction", "filter_bandwidth_bytes_per_s",
            "filter_tx_interval_s", "sparse_threshold", "rng_seed",
            "duration_s", "v_min_mps", "rsu_range_m", "vehicle_radio_range_m",
            "rsu_chaff_duration_s", "chaff_per_zone", "filter_capacity",
            "filter_target_fp",
        }
        unknown = set(doc) - scalar_fields
        if unknown:
            raise ConfigError(f"unknown scenario keys: {sorted(unknown)}")
        types = get_type_hints(cls)
        cfg = cls(
            graph=graph,
            zones=zones,
            eavesdroppers=eaves,
            n_vehicles=_typed(
                "traffic.n_vehicles", traffic.get("n_vehicles", 0), int
            ),
            arrival_rate_per_s=_typed(
                "traffic.arrival_rate_per_s",
                traffic.get("arrival_rate_per_s", 0.1), float,
            ),
            **{name: _typed(name, val, types[name]) for name, val in doc.items()},
        )
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path) -> "ScenarioConfig":
        path = Path(path)
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ConfigError(f"scenario file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"scenario file is not valid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise ConfigError("scenario file must hold a JSON object")
        return cls.from_dict(doc, base_dir=path.parent)


def _typed(name: str, value, kind: type):
    """value checked against a field's declared type, else ConfigError.

    A float field takes any finite int or float as given; an int field takes
    an int or an integral float, as an int. bool counts as neither."""
    if kind in (int, float):
        what = "an integer" if kind is int else "a number"
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{name} must be {what}, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value!r}")
        if kind is int:
            if value != int(value):
                raise ConfigError(f"{name} must be {what}, got {value!r}")
            return int(value)
        return value
    if not isinstance(value, kind):
        raise ConfigError(
            f"{name} must be of type {kind.__name__}, got {value!r}"
        )
    return value


def _parse_spec(cls, doc):
    """ZoneSpec or EavesdropperSpec from its JSON object, every field typed."""
    types = get_type_hints(cls)
    doc = _typed(cls.__name__, doc, dict)
    unknown = set(doc) - set(types)
    if unknown:
        raise ConfigError(f"unknown keys in {cls.__name__}: {sorted(unknown)}")
    missing = set(types) - set(doc)
    if missing:
        raise ConfigError(f"missing keys in {cls.__name__}: {sorted(missing)}")
    return cls(**{
        name: _typed(f"{cls.__name__}.{name}", val, types[name])
        for name, val in doc.items()
    })


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
    observations: dict[str, list[tuple]]
    transitions: list[Transition]
    zones: list[ZoneInfo]
    audit_violations: list[str]

    @functools.cached_property
    def events(self) -> list[dict]:
        """Every event record as a dict, in output order: the reference view
        of the log, built on first access."""
        return self.log.records()

    def all_observations(self) -> list[tuple]:
        merged: list[tuple] = []
        for eid in sorted(self.observations):
            merged.extend(self.observations[eid])
        merged.sort(key=lambda r: (r[0], r[7], r[1]))
        return merged

    def export_observations(self, fh) -> None:
        fh.write(OBSERVATION_HEADER + "\n")
        for t, pid, x, y, speed, heading, length, eid in self.all_observations():
            fh.write(
                f"{t:.1f},{pid},{x:.3f},{y:.3f},{speed:.3f},"
                f"{heading:.6f},{length:.1f},{eid}\n"
            )

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


def accept_peer_filter(env: SignedEnvelope, pca: Credential, now: float) -> bool:
    """A peer-delivered filter is stored only if the PCA signature verifies."""
    return verify(env, pca, now=now)


# ---------------------------------------------------------------------------
# internal runtime state


class _VehicleRt:
    __slots__ = (
        "vid", "trip", "t0_ds", "end_ds", "n", "edges", "non_coop",
        "pool", "pool_next", "active", "changes", "visit", "stream",
    )

    def __init__(self, vid, trip, t0_ds, end_ds, n, edges, non_coop, pool):
        self.vid = vid
        self.trip = trip
        self.t0_ds = t0_ds
        self.end_ds = end_ds
        self.n = n
        self.edges = edges
        self.non_coop = non_coop
        self.pool = pool
        self.pool_next = 1
        self.active = pool[0]
        self.changes = 0
        self.visit: dict | None = None
        self.stream: "_Stream | None" = None


class _ZoneRt:
    __slots__ = (
        "spec", "geom", "bounds", "controller", "hbc", "entity",
        "chunk_count", "cycle_ds", "chunk_payloads", "filter_size",
    )

    def __init__(self, spec, geom, bounds, controller, hbc, entity,
                 chunk_count, cycle_ds, chunk_payloads, filter_size):
        self.spec = spec
        self.geom = geom
        self.bounds = bounds
        self.controller = controller
        self.hbc = hbc
        self.entity = entity
        self.chunk_count = chunk_count
        self.cycle_ds = cycle_ds
        self.chunk_payloads = chunk_payloads
        self.filter_size = filter_size


class _Stream:
    __slots__ = (
        "plan", "chaff_hex", "link_hex", "transmitter", "tx_range2",
        "zone_j", "poses", "first_ds", "last_ds", "natural_reason",
        "ended", "retired",
    )

    def __init__(self, plan, chaff_hex, link_hex, transmitter, tx_range2,
                 zone_j, poses, natural_reason):
        self.plan = plan
        self.chaff_hex = chaff_hex
        self.link_hex = link_hex
        self.transmitter = transmitter
        self.tx_range2 = tx_range2
        self.zone_j = zone_j
        self.poses = poses
        self.first_ds = min(poses) if poses else -1
        self.last_ds = max(poses) if poses else -1
        self.natural_reason = natural_reason
        self.ended = False
        self.retired = False


def _published(coord: float) -> float:
    """A coordinate as beacons carry it, to the millimetre. Zone membership
    is decided on this value too, so no beacon sent in the clear claims a
    position on or inside a zone disk."""
    return round(coord, 3)


def _build_stream_poses(
    g: RoadGraph,
    plan: DecoyPlan,
    zone_disks: list[tuple[float, float, float]],
    route_rng: random.Random,
    gv_ds: int,
    horizon_ds: int,
) -> tuple[dict[int, tuple[float, float, float]], str]:
    """Walk the phantom along its exit edge and onward through successor
    edges; stop at dead ends, at the horizon, or the moment the claimed
    position would re-enter any zone disk."""
    poses: dict[int, tuple[float, float, float]] = {}
    start_ds_exact = plan.start_time_s * 10.0
    t = gv_ds * math.ceil(start_ds_exact / gv_ds - 1e-9)
    cur = g.edges[plan.exit_edge_id]
    # launch 1 mm past the crossing so a tick landing exactly at the exit
    # point is not mistaken for a zone re-entry and killed at birth
    cur_entry = plan.boundary_offset_m + 1e-3
    consumed = 0.0
    reason = "horizon"
    while t <= horizon_ds:
        dist = plan.speed_mps * (t / 10.0 - plan.start_time_s)
        advanced = True
        while dist - consumed > (cur.length - cur_entry) + 1e-9:
            consumed += cur.length - cur_entry
            nxt = g.next_edges(cur.id)
            if not nxt:
                reason = "route_end"
                advanced = False
                break
            cur = g.edges[route_rng.choice(nxt)]
            cur_entry = 0.0
        if not advanced:
            break
        off = min(cur_entry + (dist - consumed), cur.length)
        x, y, heading = point_along(cur.shape, off)
        hit_zone = False
        for cx, cy, r2 in zone_disks:
            dx, dy = _published(x) - cx, _published(y) - cy
            if dx * dx + dy * dy <= r2:
                hit_zone = True
                break
        if hit_zone:
            reason = "zone_entry"
            break
        poses[t] = (x, y, heading)
        t += gv_ds
    return poses, reason


# ---------------------------------------------------------------------------
# the run loop


def run(config: ScenarioConfig) -> RunResult:
    config.validate()
    g = config.graph
    seed = config.rng_seed
    trips = config.resolve_trips()

    gv_ds = round(config.gamma_v_s * 10)
    gmz_ds = round(config.gamma_mz_s * 10)
    fi_ds = round(config.filter_tx_interval_s * 10)
    dur_ds = round(config.duration_s * 10)
    # gcd keeps every broadcast lattice representable even when the smallest
    # interval does not divide the others
    tick_ds = math.gcd(math.gcd(gv_ds, gmz_ds), fi_ds)
    tick_s = tick_ds / 10.0
    nticks = dur_ds // tick_ds + 1
    nsec = int(config.duration_s) + 1

    radio2 = config.vehicle_radio_range_m ** 2
    rsu_r2 = config.rsu_range_m ** 2
    # decoys on at all iff some relay probability exists; the sparse RSU rule
    # rides the same switch
    sparse_on = config.relay_fraction > 0.0

    ca = CredentialAuthority(
        stable_u64(seed, "ca"), config.filter_capacity, config.filter_target_fp
    )
    pca_cred = Credential(
        stable_bytes(seed, "pca"),
        CredentialKind.LONG_TERM,
        "root",
        "pca",
        0.0,
        config.duration_s + 1.0,
    )

    # --- zones
    zspecs = sorted(config.zones, key=lambda z: z.zone_id)
    nz = len(zspecs)
    hbc_count = int(round(config.hbc_rsu_fraction * nz))
    zones: list[_ZoneRt] = []
    zone_chaff_hex: list[frozenset[str]] = []
    per_chunk = config.filter_bandwidth_bytes_per_s * config.filter_tx_interval_s
    for j, zs in enumerate(zspecs):
        geom = zone_from_center(g, (zs.center_x_m, zs.center_y_m), zs.radius_m)
        bounds = traverse_time_bounds(geom, g, config.v_min_mps)
        ca.register_rsu(zs.zone_id)
        chaff = (
            ca.provision_chaff(zs.zone_id, config.chaff_per_zone, 0.0, config.duration_s)
            if config.chaff_per_zone
            else []
        )
        zone_chaff_hex.append(frozenset(c.id.hex() for c in chaff))
        rsu_cred = Credential(
            stable_bytes(seed, "rsu", zs.zone_id),
            CredentialKind.LONG_TERM,
            "ltca",
            zs.zone_id,
            0.0,
            config.duration_s + 1.0,
        )
        controller = MixZoneController(
            zs.zone_id,
            geom,
            g,
            rsu_cred,
            stable_bytes(seed, "session", zs.zone_id, n=32),
            chaff,
            config.relay_fraction,
            bounds,
            config.gamma_v_s,
            seed,
            sparse_threshold=config.sparse_threshold,
            advert_interval_s=config.gamma_mz_s,
            rsu_range_m=config.rsu_range_m,
        )
        size = ca.filter_for(zs.zone_id).serialized_size()
        chunk_count = max(1, math.ceil(size / per_chunk))
        payloads = [
            int(min(per_chunk, size - k * per_chunk)) for k in range(chunk_count)
        ]
        zones.append(
            _ZoneRt(
                zs, geom, bounds, controller, j < hbc_count, f"rsu:{zs.zone_id}",
                chunk_count, chunk_count * fi_ds, payloads, size,
            )
        )
    zone_ids = [z.spec.zone_id for z in zones]
    zone_disks = [
        (z.spec.center_x_m, z.spec.center_y_m, z.spec.radius_m ** 2) for z in zones
    ]
    zcx = np.array([z.spec.center_x_m for z in zones])
    zcy = np.array([z.spec.center_y_m for z in zones])
    zr2 = np.array([z.spec.radius_m ** 2 for z in zones])
    cycle_arr = np.array([z.cycle_ds for z in zones], dtype=np.int64)

    # PCA-signed filter snapshots, one per (zone, epoch); peers relay these
    filter_snaps: list[dict[int, tuple[bytes, SignedEnvelope]]] = [{} for _ in zones]

    def snapshot_filters(now: float) -> None:
        for j, z in enumerate(zones):
            filt = ca.filter_for(zone_ids[j])
            if filt.epoch not in filter_snaps[j]:
                blob = filt.serialize()
                filter_snaps[j][filt.epoch] = (blob, sign(blob, pca_cred, now=now))

    snapshot_filters(0.0)

    # --- eavesdroppers
    espcs = sorted(config.eavesdroppers, key=lambda e: e.eaves_id)
    ne = len(espcs)
    ex = np.array([e.x_m for e in espcs]) if ne else np.zeros(0)
    ey = np.array([e.y_m for e in espcs]) if ne else np.zeros(0)
    er2 = np.array([e.range_m ** 2 for e in espcs]) if ne else np.zeros(0)
    eaves_ids = [e.eaves_id for e in espcs]

    # --- vehicles: precompute every pose on the tick lattice
    vehicles: list[_VehicleRt] = []
    sample_rows: list[tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
    for trip in sorted(trips, key=lambda t: t.vehicle_id):
        samples = trip_samples_with_edges(g, trip, tick_s)
        samples = [sw for sw in samples if round(sw[0].time_s * 10) <= dur_ds]
        if not samples:
            continue
        vid = trip.vehicle_id
        t0_ds = round(samples[0][0].time_s * 10)
        n = len(samples)
        last_sample_ds = t0_ds + (n - 1) * tick_ds
        # a trip still running when the clock stops never despawns in-run
        end_ds = last_sample_ds if last_sample_ds < dur_ds else dur_ds
        xs = np.array([s.x for s, _ in samples])
        ys = np.array([s.y for s, _ in samples])
        spd = np.array([s.speed_mps for s, _ in samples])
        hdg = np.array([s.heading_rad for s, _ in samples])
        edges = [eid for _, eid in samples]

        # zone visits are trajectory-only, so pool sizes stay identical
        # across relay/non-coop sweeps on the same seed
        if nz:
            xp = round_array(xs, 3)
            yp = round_array(ys, 3)
            d2 = (xp[:, None] - zcx[None, :]) ** 2 + (yp[:, None] - zcy[None, :]) ** 2
            inside = d2 <= zr2[None, :]
            zseq = np.where(inside.any(axis=1), inside.argmax(axis=1), -1)
        else:
            zseq = np.full(n, -1, dtype=np.int64)
        prev = np.concatenate(([-1], zseq[:-1]))
        visits = int(((zseq != -1) & (zseq != prev)).sum())

        ca.register_vehicle(vid)
        pool = ca.issue_pseudonyms(vid, visits + 1, 0.0, config.duration_s + 1.0)
        non_coop = (
            random.Random(stable_u64(seed, "noncoop", vid)).random()
            < config.non_coop_fraction
        )
        vehicles.append(
            _VehicleRt(vid, trip, t0_ds, end_ds, n, edges, non_coop, pool)
        )
        sample_rows.append((t0_ds, xs, ys, spd, hdg, zseq))

    nv = len(vehicles)
    t0s = np.array([v.t0_ds for v in vehicles], dtype=np.int64)
    tends = np.array([v.end_ds for v in vehicles], dtype=np.int64)

    # dense per-tick matrices; NaN marks "not on the road"
    X = np.full((nv, nticks), np.nan)
    Y = np.full((nv, nticks), np.nan)
    SPD = np.zeros((nv, nticks))
    HDG = np.zeros((nv, nticks))
    ZIDX = np.full((nv, nticks), -1, dtype=np.int64)
    for i, (t0_ds, xs, ys, spd, hdg, zseq) in enumerate(sample_rows):
        k0 = t0_ds // tick_ds
        k1 = min(k0 + len(xs), nticks)
        m = k1 - k0
        X[i, k0:k1] = xs[:m]
        Y[i, k0:k1] = ys[:m]
        SPD[i, k0:k1] = spd[:m]
        HDG[i, k0:k1] = hdg[:m]
        ZIDX[i, k0:k1] = zseq[:m]
    del sample_rows
    lengths = np.array([v.trip.length_m for v in vehicles])

    # --- mutable run state
    log = EventLogBuilder(eaves_ids, ex, ey, er2)
    emit = log.event
    # string-table indices of each vehicle's id, active pseudonym and link
    veh_name = np.array([log.name(v.vid) for v in vehicles], dtype=np.int32)
    pid_name = np.array(
        [log.name(v.active.id.hex()) for v in vehicles], dtype=np.int32
    )
    link_name = np.array(
        [log.name(f"{stable_u64(seed, 'link', v.vid, 0):016x}") for v in vehicles],
        dtype=np.int32,
    )
    transitions: list[Transition] = []
    streams: list[_Stream] = []
    audit_violations: list[str] = []
    counters = {
        name: np.zeros((nv, nsec), dtype=np.int64) for name in RECEPTION_COUNTERS
    }
    held_ep = np.full((nv, nz), -1, dtype=np.int64)
    pending = np.zeros((nv, nz), dtype=bool)
    due_m = np.zeros((nv, nz), dtype=np.int64)
    arr_m = np.zeros((nv, nz), dtype=np.int64)
    in_range_prev = np.zeros((nv, nz), dtype=bool)
    adv_seen = np.zeros((nv, nz), dtype=bool)
    inside_vec = np.full(nv, -1, dtype=np.int64)

    def current_epochs() -> np.ndarray:
        return np.array(
            [ca.filter_for(zid).epoch for zid in zone_ids], dtype=np.int64
        )

    def retire_stream(s: _Stream, now: float, tx_entity: str) -> None:
        if s.retired:
            return
        payload = struct.pack("<d", now).ljust(RETIRE_PAYLOAD_BYTES, b"\0")
        ca.retire_chaff(sign(payload, s.plan.chaff, now=now), now)
        s.retired = True
        emit({
            "type": "retire", "t": now, "tx": tx_entity,
            "chaff": s.chaff_hex, "zone": s.plan.zone_id,
            "bytes": RETIRE_WIRE_BYTES,
        })
        snapshot_filters(now)

    def end_stream(s: _Stream, now: float, reason: str, tx_entity: str) -> None:
        if s.ended:
            return
        s.ended = True
        emit({
            "type": "decoy_end", "t": now, "zone": s.plan.zone_id,
            "chaff": s.chaff_hex, "reason": reason,
        })
        retire_stream(s, now, tx_entity)

    def start_stream(
        plan: DecoyPlan, transmitter: str, tx_range2: float,
        reference_hex: str, horizon_ds: int, now: float,
    ) -> _Stream | None:
        route_rng = random.Random(
            stable_u64(seed, "decoyroute", plan.zone_id, reference_hex)
        )
        poses, reason = _build_stream_poses(
            g, plan, zone_disks, route_rng, gv_ds, horizon_ds
        )
        zone_j = zone_ids.index(plan.zone_id)
        link_hex = f"{stable_u64(seed, 'chafflink', plan.zone_id, plan.chaff.id.hex()):016x}"
        s = _Stream(
            plan, plan.chaff.id.hex(), link_hex, transmitter, tx_range2,
            zone_j, poses, reason,
        )
        emit({
            "type": "decoy_start", "t": now, "zone": plan.zone_id,
            "chaff": s.chaff_hex, "source": plan.source,
            "length": round(plan.length_m, 1), "exit_edge": plan.exit_edge_id,
            "start_time": round(plan.start_time_s, 4),
            "speed": round(plan.speed_mps, 3), "tx": transmitter,
        })
        if not poses:
            end_stream(s, now, reason, transmitter)
            return None
        streams.append(s)
        return s

    def handle_exit(v: _VehicleRt, zone_j: int, now: float, edge_id: str,
                    speed: float) -> None:
        z = zones[zone_j]
        visit = v.visit
        if visit is None or visit["zone_j"] != zone_j:
            return
        member_id: bytes = visit["member_id"]
        emit({
            "type": "zone_exit", "t": now, "vehicle": v.vid,
            "zone": z.spec.zone_id, "reason": "exit",
        })
        plan = z.controller.note_exit(member_id, edge_id, speed, now, sparse_on)
        if plan is not None:
            start_stream(
                plan, z.entity, rsu_r2, member_id.hex(),
                min(dur_ds, round((plan.start_time_s + config.rsu_chaff_duration_s) * 10)),
                now,
            )
        chaff = visit["chaff"]
        if chaff is not None and not v.non_coop:
            relay_plan = z.controller.launch_relay_decoy(chaff.id, edge_id, now)
            vi = vindex[v.vid]
            v.stream = start_stream(
                relay_plan, v.vid, radio2, member_id.hex(), int(tends[vi]), now
            )
        if visit["changed"]:
            transitions.append(Transition(
                v.vid, z.spec.zone_id, member_id.hex(), visit["new_hex"],
                visit["t_entry"], now,
            ))
        v.visit = None

    def handle_entry(v: _VehicleRt, zone_j: int, now: float,
                     pos: tuple[float, float]) -> None:
        z = zones[zone_j]
        # a relay stream from the previous zone stops at the next zone's door
        if v.stream is not None and not v.stream.ended:
            end_stream(v.stream, now, "transmitter_zone_entry", v.vid)
        v.stream = None
        vi = vindex[v.vid]
        request = sign(make_join_payload(v.trip.length_m, now), v.active, now=now)
        cur_ep = current_epochs()
        filters = tuple(
            (zone_ids[jj], int(cur_ep[jj]), filter_snaps[jj][int(cur_ep[jj])][0])
            for jj in range(nz)
        )
        sealed = z.controller.handle_join(request, v.active, pos, now, filters)
        emit({
            "type": "join_request", "t": now, "tx": v.vid, "rx": z.entity,
            "zone": z.spec.zone_id, "bytes": JOIN_REQUEST_WIRE_BYTES,
        })
        body = sealed.open(v.active.id)
        emit({
            "type": "join_response", "t": now, "tx": z.entity, "rx": v.vid,
            "zone": z.spec.zone_id, "bytes": sealed.wire_size,
            "relay": body.chaff is not None,
        })
        for jj in range(nz):
            ep = int(cur_ep[jj])
            if ep > held_ep[vi, jj]:
                held_ep[vi, jj] = ep
                pending[vi, jj] = False
                emit({
                    "type": "filter_delivered", "t": now, "vehicle": v.vid,
                    "zone": zone_ids[jj], "epoch": ep, "via": "join",
                    "latency_s": None,
                })
        old = v.active
        changed = not v.non_coop
        if changed:
            new = v.pool[v.pool_next]
            v.pool_next += 1
            v.changes += 1
            v.active = new
            pid_name[vi] = log.name(new.id.hex())
            link_name[vi] = log.name(
                f"{stable_u64(seed, 'link', v.vid, v.changes):016x}"
            )
            emit({
                "type": "pseudonym_change", "t": now, "vehicle": v.vid,
                "zone": z.spec.zone_id, "old": old.id.hex(), "new": new.id.hex(),
            })
        v.visit = {
            "zone_j": zone_j,
            "member_id": old.id,
            "new_hex": v.active.id.hex(),
            "t_entry": now,
            "chaff": body.chaff,
            "changed": changed,
        }

    vindex = {v.vid: i for i, v in enumerate(vehicles)}

    # ------------------------------------------------------------------ loop
    for k in range(nticks):
        t_ds = k * tick_ds
        now = t_ds / 10.0
        sec = min(int(now), nsec - 1)
        alive = (t0s <= t_ds) & (tends >= t_ds)
        av = np.flatnonzero(alive)
        na = av.size
        xs = X[av, k]
        ys = Y[av, k]
        cur_zone = ZIDX[av, k]

        # --- zone membership transitions, in vehicle-id order
        if nz:
            delta = np.flatnonzero(cur_zone != inside_vec[av])
            for ii in delta:
                vi = int(av[ii])
                v = vehicles[vi]
                old_j = int(inside_vec[vi])
                new_j = int(cur_zone[ii])
                if old_j >= 0:
                    kk = (t_ds - v.t0_ds) // tick_ds
                    handle_exit(v, old_j, now, v.edges[kk], float(SPD[vi, k]))
                if new_j >= 0:
                    handle_entry(v, new_j, now, (float(xs[ii]), float(ys[ii])))
                inside_vec[vi] = new_j

        # --- RSU range bookkeeping (every tick)
        if nz:
            d2z = (xs[:, None] - zcx[None, :]) ** 2 + (ys[:, None] - zcy[None, :]) ** 2
            ir_rows = d2z <= rsu_r2
            ir_full = np.zeros((nv, nz), dtype=bool)
            ir_full[av] = ir_rows
            left_range = in_range_prev & ~ir_full
            pending[left_range] = False
            cur_ep = current_epochs()

            # --- advertisements
            if t_ds % gmz_ds == 0:
                fresh = ir_full & ~adv_seen
                for j, z in enumerate(zones):
                    env = z.controller.advertise(now)
                    if env is None:
                        continue
                    verifiers = [vehicles[vi].vid for vi in np.flatnonzero(fresh[:, j])]
                    emit({
                        "type": "advert", "t": now, "tx": z.entity,
                        "zone": z.spec.zone_id, "bytes": ADVERT_WIRE_BYTES,
                        "first_verifiers": verifiers,
                    })
                adv_seen |= fresh

            # --- filter chunk broadcasts
            if t_ds % fi_ds == 0:
                for j, z in enumerate(zones):
                    slot = (t_ds // fi_ds) % z.chunk_count
                    emit({
                        "type": "chunk", "t": now, "tx": z.entity,
                        "zone": z.spec.zone_id, "epoch": int(cur_ep[j]),
                        "index": slot, "total": z.chunk_count,
                        "bytes": z.chunk_payloads[slot] + CHUNK_CERT_BYTES,
                    })

            # --- chunk delivery state machine
            stale = held_ep < cur_ep[None, :]
            need = ir_full & stale & ~pending
            if need.any():
                wait = (cycle_arr - (t_ds % cycle_arr)) % cycle_arr
                due_val = t_ds + wait + cycle_arr
                due_b = np.broadcast_to(due_val, (nv, nz))
                due_m[need] = due_b[need]
                arr_m[need] = t_ds
                pending[need] = True
            deliver = pending & (due_m == t_ds) & ir_full
            for vi, j in np.argwhere(deliver):
                vi, j = int(vi), int(j)
                ep = int(cur_ep[j])
                held_ep[vi, j] = ep
                pending[vi, j] = False
                emit({
                    "type": "filter_delivered", "t": now,
                    "vehicle": vehicles[vi].vid, "zone": zone_ids[j],
                    "epoch": ep, "via": "rsu",
                    "latency_s": (t_ds - int(arr_m[vi, j])) / 10.0,
                })
            in_range_prev = ir_full
        else:
            ir_full = np.zeros((nv, 0), dtype=bool)
            cur_ep = np.zeros(0, dtype=np.int64)

        # --- beacons, decoys, receptions, peer exchange
        if t_ds % gv_ds == 0 and (na or streams):
            pos = np.stack([xs, ys], axis=1) if na else np.zeros((0, 2))
            if na:
                diff = pos[:, None, :] - pos[None, :, :]
                d2p = (diff ** 2).sum(-1)
                np.fill_diagonal(d2p, np.inf)
                neighbor = d2p <= radio2
            else:
                neighbor = np.zeros((0, 0), dtype=bool)
            held_b = held_ep[av] >= 0 if nz else np.zeros((na, 0), dtype=bool)
            h_count = held_b.sum(axis=1)
            rank = held_b.cumsum(axis=1) if nz else np.zeros((na, 0), dtype=np.int64)

            inside_mask = cur_zone >= 0 if nz else np.zeros(na, dtype=bool)
            outside_idx = np.flatnonzero(~inside_mask)
            inside_idx = np.flatnonzero(inside_mask)

            # plaintext beacons from vehicles outside every zone
            if outside_idx.size:
                out_vi = av[outside_idx]
                xo, yo = xs[outside_idx], ys[outside_idx]
                log.beacons(
                    now, veh_name[out_vi], pid_name[out_vi], link_name[out_vi],
                    xo, yo, SPD[out_vi, k], HDG[out_vi, k], lengths[out_vi],
                    False, -1, xo, yo,
                )
            # encrypted beacons inside zones: logged, never observed
            for ii in inside_idx:
                vi = int(av[ii])
                emit({
                    "type": "beacon_encrypted", "t": now, "tx": vehicles[vi].vid,
                    "zone": zone_ids[int(cur_zone[ii])],
                    "bytes": ENCRYPTED_BEACON_WIRE_BYTES,
                })

            # vehicle-side reception accounting (vectorized; real pseudonyms
            # are never in any filter, a 1e-20 false-positive we neglect)
            if na:
                cnt_real = neighbor[:, outside_idx].sum(axis=1)
                cnt_enc = neighbor[:, inside_idx].sum(axis=1)
                counters["rx_beacons"][av, sec] += cnt_real
                counters["rx_bytes"][av, sec] += (
                    cnt_real * BEACON_WIRE_BYTES + cnt_enc * ENCRYPTED_BEACON_WIRE_BYTES
                )
                counters["checks"][av, sec] += cnt_real * h_count
                counters["verifies"][av, sec] += cnt_real

            # decoy streams
            for s in streams:
                if s.ended:
                    continue
                pose = s.poses.get(t_ds)
                if pose is None:
                    continue
                if ca.retired_at(s.plan.chaff.id) is not None:
                    emit({
                        "type": "misbehavior", "t": now, "chaff": s.chaff_hex,
                        "zone": s.plan.zone_id,
                    })
                    s.ended = True
                    continue
                if not ca.filter_for(s.plan.zone_id).contains(s.plan.chaff.id):
                    audit_violations.append(
                        f"decoy {s.chaff_hex} emitted while absent from "
                        f"{s.plan.zone_id}'s filter at t={now}"
                    )
                if s.transmitter.startswith("rsu:"):
                    tx_x, tx_y = zcx[s.zone_j], zcy[s.zone_j]
                    tx_row = -1
                else:
                    tvi = vindex[s.transmitter]
                    tx_x, tx_y = X[tvi, k], Y[tvi, k]
                    tx_row_arr = np.flatnonzero(av == tvi)
                    tx_row = int(tx_row_arr[0]) if tx_row_arr.size else -1
                log.beacon(
                    now, log.name(s.transmitter), log.name(s.chaff_hex),
                    log.name(s.link_hex), pose[0], pose[1], s.plan.speed_mps,
                    pose[2], s.plan.length_m, True, log.name(s.plan.zone_id),
                    tx_x, tx_y,
                )
                if na:
                    d2s = (xs - tx_x) ** 2 + (ys - tx_y) ** 2
                    rx = d2s <= s.tx_range2
                    if tx_row >= 0:
                        rx[tx_row] = False
                    if rx.any():
                        hold = rx & held_b[:, s.zone_j]
                        miss = rx & ~held_b[:, s.zone_j]
                        counters["rx_beacons"][av[rx], sec] += 1
                        counters["rx_bytes"][av[rx], sec] += BEACON_WIRE_BYTES
                        if hold.any():
                            counters["discard_chaff"][av[hold], sec] += 1
                            counters["checks"][av[hold], sec] += rank[hold, s.zone_j]
                        if miss.any():
                            counters["unknown_pending"][av[miss], sec] += 1
                            counters["checks"][av[miss], sec] += h_count[miss]
                            counters["verifies"][av[miss], sec] += 1

            # streams that just emitted their last pose end here
            for s in streams:
                if not s.ended and t_ds >= s.last_ds:
                    tx_ent = s.transmitter
                    end_stream(s, now, s.natural_reason, tx_ent)
                    if not tx_ent.startswith("rsu:"):
                        vv = vehicles[vindex[tx_ent]]
                        if vv.stream is s:
                            vv.stream = None

            # --- peer filter exchange outside all RSU ranges
            if nz and na:
                outside_all = ~ir_full[av].any(axis=1)
                req_stale = held_ep[av] < cur_ep[None, :]
                requesters = outside_all & req_stale.any(axis=1)
                if requesters.any():
                    counters["peer_queries"][av[requesters], sec] += 1
                    got_any = np.zeros(na, dtype=bool)
                    staged: list[tuple[int, int, int]] = []
                    for j in range(nz):
                        need_j = requesters & req_stale[:, j]
                        if not need_j.any():
                            continue
                        hv = held_ep[av, j]
                        # responder: lowest vehicle id (rows are vid-sorted)
                        # holding a strictly newer epoch, per
                        # choose_filter_responder
                        cond = neighbor & (hv[None, :] > hv[:, None])
                        has = cond.any(axis=1) & need_j
                        resp = cond.argmax(axis=1)
                        for r in np.flatnonzero(has):
                            r = int(r)
                            c = int(resp[r])
                            ep_resp = int(hv[c])
                            blob, env = filter_snaps[j].get(ep_resp, (None, None))
                            if blob is None:
                                continue
                            if not accept_peer_filter(env, pca_cred, now):
                                emit({
                                    "type": "peer_filter_rejected", "t": now,
                                    "vehicle": vehicles[int(av[r])].vid,
                                    "zone": zone_ids[j],
                                })
                                continue
                            got_any[r] = True
                            staged.append((int(av[r]), j, ep_resp))
                            wire = len(blob) + PSEUDONYM_WIRE_BYTES + ENCRYPTION_OVERHEAD_BYTES
                            emit({
                                "type": "peer_filter", "t": now,
                                "tx": vehicles[int(av[c])].vid,
                                "rx": vehicles[int(av[r])].vid,
                                "zone": zone_ids[j], "epoch": ep_resp,
                                "bytes": wire,
                            })
                            emit({
                                "type": "filter_delivered", "t": now,
                                "vehicle": vehicles[int(av[r])].vid,
                                "zone": zone_ids[j], "epoch": ep_resp,
                                "via": "peer", "latency_s": None,
                            })
                    for vi, j, ep in staged:
                        if ep > held_ep[vi, j]:
                            held_ep[vi, j] = ep
                            pending[vi, j] = False
                    unanswered = requesters & ~got_any
                    if unanswered.any():
                        counters["peer_unanswered"][av[unanswered], sec] += 1

        # --- despawns: trips that end at this tick
        done = np.flatnonzero(tends == t_ds)
        for vi in done:
            vi = int(vi)
            v = vehicles[vi]
            if v.stream is not None and not v.stream.ended:
                end_stream(v.stream, now, "transmitter_done", v.vid)
                v.stream = None
            j = int(inside_vec[vi])
            if j >= 0:
                emit({
                    "type": "zone_exit", "t": now, "vehicle": v.vid,
                    "zone": zone_ids[j], "reason": "despawn",
                })
                visit = v.visit
                if visit is not None:
                    zones[j].controller.drop_member(visit["member_id"])
                    if visit["changed"]:
                        transitions.append(Transition(
                            v.vid, zone_ids[j], visit["member_id"].hex(),
                            visit["new_hex"], visit["t_entry"], None,
                        ))
                    v.visit = None
                inside_vec[vi] = -1
            pending[vi, :] = False
            in_range_prev[vi, :] = False

    # ------------------------------------------------------------ wrap up
    final_now = ((nticks - 1) * tick_ds) / 10.0
    for s in streams:
        # the clock stopped mid-stream; no retire message was ever sent
        if not s.ended:
            s.ended = True
            emit({
                "type": "decoy_end", "t": final_now, "zone": s.plan.zone_id,
                "chaff": s.chaff_hex, "reason": "run_end",
            })

    for z in zones:
        for t, kind, detail in z.controller.events:
            emit({
                "type": "zone_note", "t": t, "zone": z.spec.zone_id,
                "kind": kind, "detail": detail,
            })

    del X, Y, SPD, HDG, ZIDX  # the log needs none of the pose matrices
    event_log, observations = log.finish(counters, veh_name)
    del counters

    seen = _observed_spans(observations)
    for tr in transitions:
        old_seen = seen.get(tr.old_id)
        new_seen = seen.get(tr.new_id)
        tr.entry_observed = old_seen is not None and old_seen[0] < tr.t_entry - 1e-9
        tr.exit_observed = (
            tr.t_exit is not None
            and new_seen is not None
            and new_seen[1] >= tr.t_exit - 1e-9
        )

    zone_infos = [
        ZoneInfo(
            z.spec.zone_id, z.geom, z.bounds, z.hbc, zone_chaff_hex[j], z.entity
        )
        for j, z in enumerate(zones)
    ]
    return RunResult(
        config, event_log, observations, transitions, zone_infos, audit_violations
    )


def _observed_spans(
    observations: dict[str, list[tuple]]
) -> dict[str, tuple[float, float]]:
    """First and last time each pseudonym was observed by any eavesdropper."""
    seen: dict[str, tuple[float, float]] = {}
    for rows in observations.values():
        for row in rows:
            t, pid = row[0], row[1]
            lohi = seen.get(pid)
            seen[pid] = (
                (t, t) if lohi is None else (min(lohi[0], t), max(lohi[1], t))
            )
    return seen


# ---------------------------------------------------------------------------
# post-run audits


def audit_observability(result: RunResult) -> list[str]:
    """No observed beacon may claim a position inside any zone disk."""
    bad: list[str] = []
    disks = [
        (z.geometry.center[0], z.geometry.center[1], z.geometry.radius ** 2, z.zone_id)
        for z in result.zones
    ]
    for eid in sorted(result.observations):
        for row in result.observations[eid]:
            x, y = row[2], row[3]
            for cx, cy, r2, zid in disks:
                if (x - cx) ** 2 + (y - cy) ** 2 <= r2:
                    bad.append(
                        f"{eid} logged {row[1]} at ({x}, {y}) inside {zid} at t={row[0]}"
                    )
    return bad


def audit_single_pseudonym(result: RunResult) -> list[str]:
    """Per instant: one real pseudonym per vehicle, at most one chaff id per
    relay."""
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


def audit_ground_truth(result: RunResult) -> list[str]:
    """Old ids never reappear after entering; new ids never appear before."""
    bad: list[str] = []
    seen = _observed_spans(result.observations)
    for tr in result.transitions:
        old_seen = seen.get(tr.old_id)
        new_seen = seen.get(tr.new_id)
        if old_seen is not None and old_seen[1] >= tr.t_entry - 1e-9:
            bad.append(f"{tr.old_id} observed after entering {tr.zone_id}")
        if new_seen is not None and new_seen[0] < tr.t_entry - 1e-9:
            bad.append(f"{tr.new_id} observed before the change in {tr.zone_id}")
    return bad

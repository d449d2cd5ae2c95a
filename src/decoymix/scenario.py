"""What a scenario declares: the road graph, zones, eavesdroppers, traffic and
protocol settings, parsed from JSON and validated.

Nothing here simulates. The engine builds the world from a scenario: its
trips (engine.resolve_trips) and its zones' geometry (engine.zone_geometries).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import get_type_hints

from .errors import ConfigError
from .mobility import Trip, validate_trip
from .roads import DEFAULT_V_MIN_MPS, MixZoneGeometry, RoadGraph

STANDARD_BEACON_INTERVALS_S = (0.2, 0.5, 1.0)

# the fields `decoymix run --sweep` may vary
SWEEP_AXES = (
    "relay_fraction", "non_coop_fraction", "hbc_rsu_fraction", "gamma_v_s",
)


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
    # each zone's geometry by zone id, built once by engine.zone_geometries
    zone_geometries: dict[str, MixZoneGeometry] | None = field(
        default=None, compare=False, repr=False
    )

    def validate(self) -> None:
        if self.gamma_v_s not in STANDARD_BEACON_INTERVALS_S:
            raise ConfigError(
                f"gamma_v_s must be one of {STANDARD_BEACON_INTERVALS_S}"
            )
        for name in ("gamma_mz_s", "filter_tx_interval_s", "duration_s"):
            val = getattr(self, name)
            # past 2**53 deciseconds every float is integral, so the multiple
            # check would pass anything, and the clock is no longer exact
            ds = val * 10
            if not 0 < val or ds > 2 ** 53 or abs(round(ds) - ds) > 1e-9:
                raise ConfigError(
                    f"{name} must be a positive 0.1 s multiple of at most "
                    f"{2 ** 53 // 10} s"
                )
        for name in ("relay_fraction", "non_coop_fraction", "hbc_rsu_fraction"):
            val = getattr(self, name)
            if not 0.0 <= val <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1]")
        if self.filter_bandwidth_bytes_per_s * self.filter_tx_interval_s < 1:
            raise ConfigError(
                "filter_bandwidth_bytes_per_s times filter_tx_interval_s must "
                "be at least 1, so each chunk carries a byte"
            )
        for name in ("vehicle_radio_range_m", "rsu_range_m", "rsu_chaff_duration_s",
                     "filter_capacity", "v_min_mps"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        for name in ("vehicle_radio_range_m", "rsu_range_m"):
            _check_square(name, getattr(self, name))
        for name in ("sparse_threshold", "chaff_per_zone"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")
        if self.chaff_per_zone > self.filter_capacity:
            raise ConfigError(
                f"chaff_per_zone ({self.chaff_per_zone}) exceeds filter_capacity "
                f"({self.filter_capacity}); a zone filter must hold all its chaff ids"
            )
        if self.trips is None:
            if self.n_vehicles < 0:
                raise ConfigError("n_vehicles must be non-negative")
            if self.n_vehicles > 0 and self.arrival_rate_per_s <= 0:
                raise ConfigError("arrival_rate_per_s must be positive")
        if not 0.0 < self.filter_target_fp < 1.0:
            raise ConfigError("filter_target_fp must lie in (0, 1)")
        if not self.zones:
            raise ConfigError("scenario must declare at least one zone")
        seen_zones: set[str] = set()
        for z in self.zones:
            if z.zone_id in seen_zones:
                raise ConfigError(f"duplicate zone id {z.zone_id}")
            seen_zones.add(z.zone_id)
            if z.radius_m <= 0:
                raise ConfigError(f"zone {z.zone_id} radius must be positive")
            _check_square(f"zone {z.zone_id} radius_m", z.radius_m)
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
            _check_square(f"eavesdropper {e.eaves_id} range_m", e.range_m)
        if self.trips is not None:
            for trip in self.trips:
                validate_trip(self.graph, trip)

    def replaced(self, **kw) -> "ScenarioConfig":
        if "graph" in kw or "zones" in kw:
            kw.setdefault("zone_geometries", None)
        return replace(self, **kw)

    @classmethod
    def from_dict(cls, doc: dict, base_dir: Path) -> "ScenarioConfig":
        doc = dict(doc)
        try:
            graph_file = doc.pop("graph_file")
        except KeyError:
            raise ConfigError("scenario is missing graph_file") from None
        graph_path = Path(base_dir) / _typed("graph_file", graph_file, str)
        if not graph_path.is_file():
            raise ConfigError(f"graph file not found: {graph_path}")
        try:
            graph = RoadGraph.load(graph_path)
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError too
            raise ConfigError(f"graph file {graph_path}: {exc}") from None
        return cls.over_graph(graph, doc)

    @classmethod
    def over_graph(cls, graph: RoadGraph, doc: dict) -> "ScenarioConfig":
        """The validated scenario of a JSON object without its graph_file
        key, on graph."""
        doc = dict(doc)
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

        types = get_type_hints(cls)
        # every field but these takes a plain value at the top level
        unknown = set(doc) - (set(types) - {
            "graph", "zones", "eavesdroppers", "trips", "n_vehicles", "arrival_rate_per_s",
            "zone_geometries",
        })
        if unknown:
            raise ConfigError(f"unknown scenario keys: {sorted(unknown)}")
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
        except ValueError as exc:  # JSONDecodeError, or an int too long to parse
            raise ConfigError(f"scenario file is not valid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise ConfigError("scenario file must hold a JSON object")
        return cls.from_dict(doc, base_dir=path.parent)


def _check_square(name: str, range_m: float) -> None:
    """ConfigError unless range_m squared is a finite float: the engine
    compares squared distances with it."""
    if not math.isfinite(range_m * range_m):
        raise ConfigError(f"{name} is too large: its square is not a finite float")


def _typed(name: str, value, kind: type):
    """value checked against a field's declared type, else ConfigError.

    A float field takes any finite int or float, as a float; an int field
    takes an int or an integral float, as an int. bool counts as neither."""
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
        try:
            return float(value)
        except OverflowError:
            raise ConfigError(f"{name} is too large for a float") from None
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

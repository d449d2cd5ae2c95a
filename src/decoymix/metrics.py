"""Evaluation metrics and overhead accounting over run outputs.

Linkability scores candidate sets against ground-truth change records;
overhead turns the event log into per-entity byte and millisecond rates
using fixed ECDSA/CAM cost constants. Everything here is a pure function
of its inputs, and every float is accumulated from integer counts in a
deterministic order, so identical inputs give bit-identical reports.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence, TextIO

from .adversary import Chain, LinkCandidateSet, PseudonymTrack, chain_distance_m
from .errors import NoTransitions

RSU_SIGN_MS = 0.3
RSU_VERIFY_MS = 0.4
VEHICLE_SIGN_MS = 3.0
VEHICLE_VERIFY_MS = 3.5
MEMBERSHIP_CHECK_MS = 3.68e-4
CAM_BYTES = 350
CREDENTIAL_BYTES = 140
PEER_QUERY_BYTES = 16 + CREDENTIAL_BYTES
KB = 1000.0  # rates are decimal kilobytes per second

TRACKED_DISTANCE_BUCKET_M = 1000.0


# ---------------------------------------------------------------------------
# linkability


def success_rate(sets: Sequence[LinkCandidateSet]) -> float:
    """Mean per-transition linking probability.

    A set containing the truth among k candidates contributes 1/k; an empty
    set or a miss contributes 0.
    """
    if not sets:
        raise NoTransitions("no change records to evaluate")
    total = 0.0
    for s in sets:
        if s.truth is None:
            raise ValueError(f"set for {s.entering} carries no ground truth")
        if s.candidates and s.truth in s.candidates:
            total += 1.0 / len(s.candidates)
    return total / len(sets)


def correct_prefix_links(
    ch: Chain, truth: Mapping[tuple[str, str], str]
) -> int:
    """Number of leading chain follows that match ground truth."""
    n = 0
    for link in ch.links:
        if truth.get((link.zone_id, link.from_id)) != link.to_id:
            break
        n += 1
    return n


def linked_set_size_counts(
    chains: Sequence[Chain], truth: Mapping[tuple[str, str], str]
) -> dict[str, int]:
    """How many chains correctly tie together 2, 3, or 4+ pseudonyms."""
    counts = {"2": 0, "3": 0, "4+": 0}
    for ch in chains:
        good = correct_prefix_links(ch, truth)
        if good == 0:
            continue
        linked = good + 1
        counts["2" if linked == 2 else "3" if linked == 3 else "4+"] += 1
    return counts


@dataclass
class TrackedDistance:
    histogram_km: dict[int, int]
    average_m: float | None
    per_chain_m: list[float]


def tracked_distance(
    chains: Sequence[Chain],
    tracks: Mapping[str, PseudonymTrack],
    truth: Mapping[tuple[str, str], str],
) -> TrackedDistance:
    """Observed metres per chain, credited only along the correctly
    followed prefix; histogram in 1 km buckets (bucket k covers
    ((k-1)·1000, k·1000])."""
    per_chain: list[float] = []
    hist: dict[int, int] = {}
    for ch in chains:
        d = chain_distance_m(ch, tracks, n_links=correct_prefix_links(ch, truth))
        per_chain.append(d)
        bucket = max(0, math.ceil(d / TRACKED_DISTANCE_BUCKET_M - 1e-12))
        hist[bucket] = hist.get(bucket, 0) + 1
    avg = sum(per_chain) / len(per_chain) if per_chain else None
    return TrackedDistance(dict(sorted(hist.items())), avg, per_chain)


def anonymity_set_sizes(events: Sequence[dict]) -> list[int]:
    """Mix size per occupancy episode of each zone.

    An episode runs from the zone turning occupied until it empties; its
    size is the number of joins during the episode plus every decoy stream
    of that zone active at some instant of it.
    """
    zones = sorted({
        e["zone"] for e in events
        if e["type"] in ("join_request", "zone_exit", "decoy_start") and e.get("zone")
    })
    sizes: list[int] = []
    for zid in zones:
        deltas: list[tuple[float, int]] = []
        for e in events:
            if e.get("zone") != zid:
                continue
            if e["type"] == "join_request":
                deltas.append((e["t"], 1))
            elif e["type"] == "zone_exit":
                deltas.append((e["t"], -1))
        streams: dict[str, list[float]] = {}
        for e in events:
            if e.get("zone") != zid:
                continue
            if e["type"] == "decoy_start":
                streams.setdefault(e["chaff"], [e["t"], math.inf])
            elif e["type"] == "decoy_end" and e["chaff"] in streams:
                streams[e["chaff"]][1] = e["t"]
        deltas.sort()
        count = 0
        ep_start: float | None = None
        joins = 0
        last_t = deltas[-1][0] if deltas else 0.0
        for t, d in deltas:
            if count == 0 and d > 0:
                ep_start = t
                joins = 0
            count += d
            if d > 0:
                joins += 1
            if count == 0 and ep_start is not None:
                decoys = sum(
                    1 for lohi in streams.values()
                    if lohi[0] <= t and lohi[1] >= ep_start
                )
                sizes.append(joins + decoys)
                ep_start = None
        if ep_start is not None:  # zone still occupied at run end
            decoys = sum(
                1 for lohi in streams.values()
                if lohi[0] <= last_t and lohi[1] >= ep_start
            )
            sizes.append(joins + decoys)
    return sizes


def empirical_cdf(values: Sequence[int]) -> list[tuple[int, float]]:
    if not values:
        return []
    out: list[tuple[int, float]] = []
    n = len(values)
    seen = 0
    for v in sorted(set(values)):
        seen += sum(1 for x in values if x == v)
        out.append((v, seen / n))
    return out


@dataclass
class LinkabilityReport:
    n_transitions: int
    success_rate: float | None  # None when there were no transitions
    per_zone: dict[str, float | None]
    per_hour: dict[int, float | None]
    linked_set_counts: dict[str, int]
    tracked: TrackedDistance
    anonymity_sizes: list[int]

    def to_json(self) -> str:
        doc = {
            "n_transitions": self.n_transitions,
            "success_rate": self.success_rate,
            "per_zone": self.per_zone,
            "per_hour": {str(k): v for k, v in sorted(self.per_hour.items())},
            "linked_set_counts": self.linked_set_counts,
            "tracked_distance": {
                "histogram_km": {
                    str(k): v for k, v in self.tracked.histogram_km.items()
                },
                "average_m": self.tracked.average_m,
            },
            "anonymity_set_cdf": [
                list(p) for p in empirical_cdf(self.anonymity_sizes)
            ],
        }
        return json.dumps(doc, sort_keys=True, indent=2)


def _rate_or_none(sets: list[LinkCandidateSet]) -> float | None:
    try:
        return success_rate(sets)
    except NoTransitions:
        return None


def build_linkability_report(
    transitions: Sequence,
    candidate_sets: Sequence[LinkCandidateSet],
    chains: Sequence[Chain],
    tracks: Mapping[str, PseudonymTrack],
    events: Sequence[dict],
) -> LinkabilityReport:
    """Score an attack against ground truth.

    Only change records observable on both sides are evaluated; a record
    whose entering id produced no candidate set scores as an empty set.
    """
    truth = {
        (tr.zone_id, tr.old_id): tr.new_id
        for tr in transitions
        if tr.entry_observed and tr.exit_observed
    }
    by_key = {(s.zone_id, s.entering): s for s in candidate_sets}
    evaluated: list[LinkCandidateSet] = []
    for (zid, old), new in sorted(truth.items()):
        s = by_key.get((zid, old))
        cands = s.candidates if s is not None else frozenset()
        evaluated.append(LinkCandidateSet(zid, old, cands, new))

    per_zone: dict[str, list[LinkCandidateSet]] = {}
    for s in evaluated:
        per_zone.setdefault(s.zone_id, []).append(s)
    t_entry_by_key = {
        (tr.zone_id, tr.old_id): tr.t_entry
        for tr in transitions
        if tr.entry_observed and tr.exit_observed
    }
    per_hour: dict[int, list[LinkCandidateSet]] = {}
    for s in evaluated:
        hour = int(t_entry_by_key[(s.zone_id, s.entering)] // 3600)
        per_hour.setdefault(hour, []).append(s)

    return LinkabilityReport(
        n_transitions=len(evaluated),
        success_rate=_rate_or_none(evaluated),
        per_zone={z: _rate_or_none(ss) for z, ss in sorted(per_zone.items())},
        per_hour={h: _rate_or_none(ss) for h, ss in sorted(per_hour.items())},
        linked_set_counts=linked_set_size_counts(chains, truth),
        tracked=tracked_distance(chains, tracks, truth),
        anonymity_sizes=anonymity_set_sizes(events),
    )


# ---------------------------------------------------------------------------
# overhead


def _is_infrastructure(entity: str) -> bool:
    return entity.startswith("rsu:") or entity == "pca"


@dataclass
class OverheadReport:
    """Per-entity per-second byte and millisecond ledgers.

    Milliseconds derive from integer sign/verify/check counts multiplied by
    the cost constants once per bucket, so recomputation is bit-exact.
    """

    duration_s: float
    bytes_by_entity_second: dict[str, dict[int, int]]
    signs: dict[str, dict[int, int]] = field(default_factory=dict)
    verifies: dict[str, dict[int, int]] = field(default_factory=dict)
    checks: dict[str, dict[int, int]] = field(default_factory=dict)

    def ms_by_entity_second(self) -> dict[str, dict[int, float]]:
        entities = sorted(
            set(self.signs) | set(self.verifies) | set(self.checks)
        )
        return {ent: self.ms_by_second(ent) for ent in entities}

    def ms_by_second(self, ent: str) -> dict[int, float]:
        """One entity's milliseconds per second, in second order."""
        sign_ms = RSU_SIGN_MS if _is_infrastructure(ent) else VEHICLE_SIGN_MS
        verify_ms = RSU_VERIFY_MS if _is_infrastructure(ent) else VEHICLE_VERIFY_MS
        signs = self.signs.get(ent, {})
        verifies = self.verifies.get(ent, {})
        checks = self.checks.get(ent, {})
        return {
            sec: (
                signs.get(sec, 0) * sign_ms
                + verifies.get(sec, 0) * verify_ms
                + checks.get(sec, 0) * MEMBERSHIP_CHECK_MS
            )
            for sec in sorted(set(signs) | set(verifies) | set(checks))
        }

    def total_bytes(self, entity: str) -> int:
        return sum(self.bytes_by_entity_second.get(entity, {}).values())

    def avg_rate_kb_per_s(self, entity: str) -> float:
        return self.total_bytes(entity) / self.duration_s / KB

    def avg_ms_per_s(self, entity: str) -> float:
        return sum(self.ms_by_second(entity).values()) / self.duration_s

    def to_json(self) -> str:
        doc = {
            "duration_s": self.duration_s,
            "constants": {
                "rsu_sign_ms": RSU_SIGN_MS,
                "rsu_verify_ms": RSU_VERIFY_MS,
                "vehicle_sign_ms": VEHICLE_SIGN_MS,
                "vehicle_verify_ms": VEHICLE_VERIFY_MS,
                "membership_check_ms": MEMBERSHIP_CHECK_MS,
                "cam_bytes": CAM_BYTES,
                "credential_bytes": CREDENTIAL_BYTES,
            },
            "entities": {
                ent: {
                    "total_bytes": self.total_bytes(ent),
                    "avg_kb_per_s": self.avg_rate_kb_per_s(ent),
                    "avg_ms_per_s": self.avg_ms_per_s(ent),
                }
                for ent in sorted(self.bytes_by_entity_second)
            },
        }
        return json.dumps(doc, sort_keys=True, indent=2)


def _bump(table: dict[str, dict[int, int]], ent: str, sec: int, n: int) -> None:
    if n:
        row = table.setdefault(ent, {})
        row[sec] = row.get(sec, 0) + n


def overhead(events: Sequence[dict], duration_s: float) -> OverheadReport:
    """Fold the event log into the per-entity ledgers.

    Communication counts transmitted wire bytes only; receptions are free on
    the air but pay verification. Every signed emission costs its signer one
    signature; verification is charged where the log says a receiver checked
    one (advert first hearers, join legs, retire processing at the issuer,
    each filter delivery, and the per-second reception counters).
    """
    rep = OverheadReport(duration_s, {})
    for e in events:
        sec = int(e["t"])
        kind = e["type"]
        tx = e.get("tx")
        if tx is not None and "bytes" in e:
            _bump(rep.bytes_by_entity_second, tx, sec, e["bytes"])
        if kind in ("beacon", "beacon_encrypted", "advert", "chunk",
                    "join_request", "join_response", "retire", "peer_filter"):
            _bump(rep.signs, tx, sec, 1)
        if kind == "advert":
            for v in e["first_verifiers"]:
                _bump(rep.verifies, v, sec, 1)
        elif kind == "join_request":
            _bump(rep.verifies, e["rx"], sec, 1)
        elif kind == "join_response":
            _bump(rep.verifies, e["rx"], sec, 1)
        elif kind == "retire":
            _bump(rep.verifies, "pca", sec, 1)
        elif kind == "filter_delivered":
            _bump(rep.verifies, e["vehicle"], sec, 1)
        elif kind == "reception_summary":
            ent = e["entity"]
            _bump(rep.verifies, ent, sec, e["verifies"])
            _bump(rep.checks, ent, sec, e["checks"])
            q = e["peer_queries"]
            if q:
                _bump(rep.bytes_by_entity_second, ent, sec, q * PEER_QUERY_BYTES)
                _bump(rep.signs, ent, sec, q)
    return rep


# ---------------------------------------------------------------------------
# CSV emission


def write_linkability_csv(reports: Mapping[str, LinkabilityReport], fh: TextIO) -> None:
    """One row per labelled run; absent rates stay empty cells."""
    fh.write("label,n_transitions,success_rate,avg_tracked_m,"
             "linked_2,linked_3,linked_4plus\n")
    for label in sorted(reports):
        r = reports[label]
        rate = "" if r.success_rate is None else f"{r.success_rate:.6f}"
        avg = "" if r.tracked.average_m is None else f"{r.tracked.average_m:.1f}"
        c = r.linked_set_counts
        fh.write(f"{label},{r.n_transitions},{rate},{avg},"
                 f"{c['2']},{c['3']},{c['4+']}\n")


def write_overhead_csv(rep: OverheadReport, fh: TextIO) -> None:
    fh.write("entity,total_bytes,avg_kb_per_s,avg_ms_per_s\n")
    entities = sorted(
        set(rep.bytes_by_entity_second) | set(rep.signs)
        | set(rep.verifies) | set(rep.checks)
    )
    for ent in entities:
        fh.write(f"{ent},{rep.total_bytes(ent)},"
                 f"{rep.avg_rate_kb_per_s(ent):.6f},"
                 f"{rep.avg_ms_per_s(ent):.6f}\n")

"""Evaluation metrics and overhead accounting over run outputs.

Linkability scores candidate sets against ground-truth change records;
overhead turns the event log into per-entity byte and millisecond rates
using fixed ECDSA/CAM cost constants. Everything here is a pure function
of its inputs, and every float is accumulated from integer counts in a
deterministic order, so identical inputs give bit-identical reports.
"""

from __future__ import annotations

import bisect
import json
import math
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Sequence, TextIO

import numpy as np

from .adversary import Chain, LinkCandidateSet, PseudonymTrack, chain_distance_m
from .core import CAM_WIRE_BYTES, PSEUDONYM_WIRE_BYTES
from .eventlog import (
    BEACON_WIRE_BYTES,
    VIA_PEER,
    BeaconColumns,
    MessageColumns,
    ReceptionColumns,
    row_blocks,
    sorted_distinct,
)

RSU_SIGN_MS = 0.3
RSU_VERIFY_MS = 0.4
VEHICLE_SIGN_MS = 3.0
VEHICLE_VERIFY_MS = 3.5
MEMBERSHIP_CHECK_MS = 3.68e-4
PEER_QUERY_BYTES = 16 + PSEUDONYM_WIRE_BYTES
KB = 1000.0  # rates are decimal kilobytes per second

TRACKED_DISTANCE_BUCKET_M = 1000.0


# ---------------------------------------------------------------------------
# linkability


def scored_sets(
    transitions: Sequence, candidate_sets: Sequence[LinkCandidateSet]
) -> list[LinkCandidateSet]:
    """The pseudonym changes a success rate scores, sorted by (zone, old id),
    each as its candidate set with the new id as truth.

    A change is scored when its old id was heard entering the zone and its
    new id was heard leaving it. A change whose new id is never heard
    leaving could not be linked by any attack, so it is left out rather
    than counted as a miss. A scored change whose entering id got no
    candidate set scores as an empty set.
    """
    by_key = {(s.zone_id, s.entering): s.candidates for s in candidate_sets}
    scored = sorted(
        (tr for tr in transitions if tr.entry_observed and tr.exit_observed),
        key=lambda tr: (tr.zone_id, tr.old_id),
    )
    return [
        LinkCandidateSet(
            tr.zone_id, tr.old_id,
            by_key.get((tr.zone_id, tr.old_id), frozenset()), tr.new_id,
        )
        for tr in scored
    ]


def success_rate(sets: Sequence[LinkCandidateSet]) -> float | None:
    """Mean per-change linking probability, or None with nothing to score.

    A set containing the truth among k candidates contributes 1/k; an empty
    set or a miss contributes 0.
    """
    if not sets:
        return None
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


_EPISODE_KINDS = frozenset(("join_request", "zone_exit", "decoy_start", "decoy_end"))


def anonymity_set_sizes(events: Sequence[dict]) -> list[int]:
    """Mix size per occupancy episode of each zone.

    An episode runs from the zone turning occupied until it empties; its
    size is the number of joins during the episode plus every decoy stream
    of that zone active at some instant of it.
    """
    # one pass buckets each zone's occupancy deltas and decoy lifetimes
    by_zone: dict[str, tuple[list[tuple[float, int]], dict[str, list[float]]]] = {}
    for e in events:
        kind = e["type"]
        if kind not in _EPISODE_KINDS or not e.get("zone"):
            continue
        if kind == "decoy_end":
            bucket = by_zone.get(e["zone"])
            if bucket is not None and e["chaff"] in bucket[1]:
                bucket[1][e["chaff"]][1] = e["t"]
            continue
        deltas, streams = by_zone.setdefault(e["zone"], ([], {}))
        if kind == "join_request":
            deltas.append((e["t"], 1))
        elif kind == "zone_exit":
            deltas.append((e["t"], -1))
        else:
            streams.setdefault(e["chaff"], [e["t"], math.inf])
    sizes: list[int] = []
    for zid in sorted(by_zone):
        deltas, streams = by_zone[zid]
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
    """(value, share of values at most it) for each distinct value, in
    value order."""
    out: list[tuple[int, float]] = []
    n, seen = len(values), 0
    for v, k in sorted(Counter(values).items()):
        seen += k
        out.append((v, seen / n))
    return out


@dataclass
class LinkabilityReport:
    n_transitions: int
    success_rate: float | None  # None when no change was scored
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


def build_linkability_report(
    transitions: Sequence,
    candidate_sets: Sequence[LinkCandidateSet],
    chains: Sequence[Chain],
    tracks: Mapping[str, PseudonymTrack],
    events: Sequence[dict],
) -> LinkabilityReport:
    """Score an attack against ground truth, over the changes that
    scored_sets lists."""
    evaluated = scored_sets(transitions, candidate_sets)
    truth = {(s.zone_id, s.entering): s.truth for s in evaluated}
    t_entry = {(tr.zone_id, tr.old_id): tr.t_entry for tr in transitions}
    per_zone: dict[str, list[LinkCandidateSet]] = {}
    per_hour: dict[int, list[LinkCandidateSet]] = {}
    for s in evaluated:
        per_zone.setdefault(s.zone_id, []).append(s)
        hour = int(t_entry[(s.zone_id, s.entering)] // 3600)
        per_hour.setdefault(hour, []).append(s)

    return LinkabilityReport(
        n_transitions=len(evaluated),
        success_rate=success_rate(evaluated),
        per_zone={z: success_rate(ss) for z, ss in sorted(per_zone.items())},
        per_hour={h: success_rate(ss) for h, ss in sorted(per_hour.items())},
        linked_set_counts=linked_set_size_counts(chains, truth),
        tracked=tracked_distance(chains, tracks, truth),
        anonymity_sizes=anonymity_set_sizes(events),
    )


# ---------------------------------------------------------------------------
# overhead

# the ledgers, one count column each: wire bytes sent, signatures made,
# verifications and filter membership checks done
LEDGERS = ("bytes", "signs", "verifies", "checks")
BYTES, SIGNS, VERIFIES, CHECKS = range(len(LEDGERS))

_SIGNED = frozenset((
    "beacon", "beacon_encrypted", "advert", "chunk", "join_request",
    "join_response", "retire", "peer_filter",
))


def _is_infrastructure(entity: str) -> bool:
    return entity.startswith("rsu:") or entity == "pca"


class _Ledger(Mapping):
    """One ledger of a report read as entity -> {second: count}, over its
    nonzero cells; entities in sorted order."""

    def __init__(self, rep: "OverheadReport", ledger: int) -> None:
        self._rep, self._col = rep, rep.counts[:, ledger]

    def __getitem__(self, entity: str) -> dict[int, int]:
        rows = self._rep.rows(entity)
        n = self._col[rows]
        keep = np.flatnonzero(n)
        if not keep.size:
            raise KeyError(entity)
        return dict(zip(self._rep.second[rows][keep].tolist(), n[keep].tolist()))

    def _held(self) -> list[int]:
        return np.unique(self._rep.entity[self._col != 0]).tolist()

    def __iter__(self):
        return iter([self._rep.entities[i] for i in self._held()])

    def __len__(self) -> int:
        return len(self._held())


@dataclass(eq=False)
class OverheadReport:
    """The nonzero (entity, second) cells of the four ledgers, one row
    each, sorted by (entity, second): entity indexes `entities`, which is
    sorted, and counts holds one column per name in LEDGERS.

    Milliseconds derive from integer sign/verify/check counts multiplied by
    the cost constants once per cell, so recomputation is bit-exact.
    """

    duration_s: float
    entities: list[str]
    entity: np.ndarray
    second: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        # entity i's rows are bounds[i] to bounds[i + 1] - 1
        self._bounds = np.searchsorted(
            self.entity, np.arange(len(self.entities) + 1)
        ).tolist()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OverheadReport):
            return NotImplemented
        return (
            self.duration_s == other.duration_s and self.entities == other.entities
            and np.array_equal(self.second, other.second)
            and np.array_equal(self.entity, other.entity)
            and np.array_equal(self.counts, other.counts)
        )

    def rows(self, entity: str) -> slice:
        """One entity's rows, in second order; empty if it has none."""
        i = bisect.bisect_left(self.entities, entity)
        if i == len(self.entities) or self.entities[i] != entity:
            return slice(0, 0)
        return slice(self._bounds[i], self._bounds[i + 1])

    # each ledger read as entity -> {second: count}
    bytes_by_entity_second = property(lambda self: _Ledger(self, BYTES))
    signs = property(lambda self: _Ledger(self, SIGNS))
    verifies = property(lambda self: _Ledger(self, VERIFIES))
    checks = property(lambda self: _Ledger(self, CHECKS))

    def ms_by_second(self, ent: str) -> dict[int, float]:
        """One entity's milliseconds per second, in second order, over the
        seconds in which it signs, verifies or checks anything."""
        sign_ms = RSU_SIGN_MS if _is_infrastructure(ent) else VEHICLE_SIGN_MS
        verify_ms = RSU_VERIFY_MS if _is_infrastructure(ent) else VEHICLE_VERIFY_MS
        rows = self.rows(ent)
        counts = self.counts[rows]
        keep = np.flatnonzero(counts[:, SIGNS:].any(axis=1))
        signs, verifies, checks = counts[keep, SIGNS:].T
        # the float operations of the per-cell expression on Python ints, in
        # its order, so every value is the same bit for bit
        ms = signs * sign_ms + verifies * verify_ms + checks * MEMBERSHIP_CHECK_MS
        return dict(zip(self.second[rows][keep].tolist(), ms.tolist()))

    def total_bytes(self, entity: str) -> int:
        return int(self.counts[self.rows(entity), BYTES].sum())

    def avg_rate_kb_per_s(self, entity: str) -> float:
        return self.total_bytes(entity) / self.duration_s / KB

    def avg_ms_per_s(self, entity: str) -> float:
        # summed one second after the other, as the seconds come
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
                "cam_bytes": CAM_WIRE_BYTES,
                "credential_bytes": PSEUDONYM_WIRE_BYTES,
            },
            "entities": {
                ent: {
                    "total_bytes": self.total_bytes(ent),
                    "avg_kb_per_s": self.avg_rate_kb_per_s(ent),
                    "avg_ms_per_s": self.avg_ms_per_s(ent),
                }
                for ent in self.bytes_by_entity_second
            },
        }
        return json.dumps(doc, sort_keys=True, indent=2)


def overhead(
    events: Sequence[dict],
    duration_s: float,
    beacons: BeaconColumns | None = None,
    receptions: ReceptionColumns | None = None,
    messages: MessageColumns | None = None,
) -> OverheadReport:
    """Fold the event log into the per-entity ledgers.

    Communication counts transmitted wire bytes only; receptions are free on
    the air but pay verification. Every signed emission costs its signer one
    signature; verification is charged where the log says a receiver checked
    one (advert first hearers, join legs, retire processing at the issuer,
    each filter delivery, and the per-second reception counters).

    A run's beacons, messages and reception summaries may come as columns
    of its log, which share the log's string table, instead of dicts in
    `events`; they are folded by the same rules, all in one table.
    """
    # (entity, time, {ledger: (column or None, factor)}) parts; entity
    # indexes names
    parts: list[tuple[np.ndarray, np.ndarray, dict[int, tuple]]] = []
    names: list[str] = []
    if beacons is not None:
        names = beacons.names
        parts.append((beacons.tx, beacons.t, {
            BYTES: (None, BEACON_WIRE_BYTES), SIGNS: (None, 1),
        }))
    if messages is not None:
        # adverts, chunks, encrypted beacons and answers are signed by their
        # sender; a delivery's vehicle verifies the filter, and carries 0
        # bytes; each advert's first verifiers verify it
        m = messages
        names = m.names
        delivery = m.kind >= VIA_PEER
        parts.append((m.tx, m.t, {
            BYTES: (m.bytes, 1), SIGNS: (~delivery, 1), VERIFIES: (delivery, 1),
        }))
        heard = np.flatnonzero(m.verifiers)
        lists = [m.verifier_lists[c] for c in m.verifiers[heard].tolist()]
        parts.append((
            np.array([v for ids in lists for v in ids], dtype=np.int64),
            np.repeat(m.t[heard], [len(ids) for ids in lists]), {VERIFIES: (None, 1)},
        ))
    if receptions is not None:
        names, q = receptions.names, receptions.count("peer_queries")
        parts.append((receptions.vehicle, receptions.t, {
            BYTES: (q, PEER_QUERY_BYTES), SIGNS: (q, 1),
            VERIFIES: (receptions.count("verifies"), 1),
            CHECKS: (receptions.count("checks"), 1),
        }))
    cells: list[tuple[int, str, int, int]] = []
    for e in events:
        sec = int(e["t"])
        kind = e["type"]
        tx = e.get("tx")
        if tx is not None and "bytes" in e:
            cells.append((BYTES, tx, sec, e["bytes"]))
        if kind in _SIGNED:
            cells.append((SIGNS, tx, sec, 1))
        if kind == "advert":
            cells.extend((VERIFIES, v, sec, 1) for v in e["first_verifiers"])
        elif kind in ("join_request", "join_response"):
            cells.append((VERIFIES, e["rx"], sec, 1))
        elif kind == "retire":
            cells.append((VERIFIES, "pca", sec, 1))
        elif kind == "filter_delivered":
            cells.append((VERIFIES, e["vehicle"], sec, 1))
        elif kind == "reception_summary":
            ent, q = e["entity"], e["peer_queries"]
            cells += [
                (VERIFIES, ent, sec, e["verifies"]), (CHECKS, ent, sec, e["checks"]),
                (BYTES, ent, sec, q * PEER_QUERY_BYTES), (SIGNS, ent, sec, q),
            ]
    if cells:
        # the events' entities take indices past the string table's; a
        # name in both folds into one entity below
        ledger, ent, sec, n = zip(*cells)
        extra = sorted(set(ent))
        index = {s: len(names) + i for i, s in enumerate(extra)}
        names = [*names, *extra]
        ledger, n = np.array(ledger), np.array(n, dtype=np.int64)
        parts.append((
            np.array([index[s] for s in ent], dtype=np.int64),
            np.array(sec, dtype=np.int64),
            {i: (np.where(ledger == i, n, 0), 1) for i in range(len(LEDGERS))},
        ))
    return _fold(duration_s, names, parts)


def _fold(
    duration_s: float, names: Sequence[str],
    parts: list[tuple[np.ndarray, np.ndarray, dict[int, tuple]]],
) -> OverheadReport:
    """The report of (entity, time, {ledger: (column or None, factor)})
    parts: entity an index into names, time in seconds, and each count a
    column, or one for all rows where None, times the factor. Every
    ledger's counts are summed per (entity name, whole second) cell; rows
    that count nothing are left out.

    Each part is read a block of rows at a time, three times: for the
    names and seconds it counts in, for its distinct cells (coded entity
    rank × width + second, in the narrowest integer that holds every
    code), and for its counts, which are added into their cells. No pass
    holds more than a block of the rows' codes, and the counts are int32
    wherever their total fits."""

    def blocks():
        """(entity, second, {ledger: counts}) of each block of rows that
        count something."""
        for ent, t, counts in parts:
            for lo, hi in row_blocks(ent.size):
                got = {
                    i: n if col is None else col[lo:hi] * n
                    for i, (col, n) in counts.items() if n
                }
                if any(np.ndim(n) == 0 for n in got.values()):
                    # a nonzero count for every row
                    yield ent[lo:hi], t[lo:hi].astype(np.int64), got
                    continue
                live = np.zeros(hi - lo, dtype=bool)
                for n in got.values():
                    live |= n != 0
                keep = np.flatnonzero(live)
                yield ent[lo:hi][keep], t[lo:hi][keep].astype(np.int64), {
                    i: n[keep] for i, n in got.items()
                }

    # each entity index's place among the names that count anything; equal
    # names take one place. No cell sums to more than every count does
    used = np.zeros(len(names), dtype=bool)
    width, total = 1, 0
    for ent, sec, got in blocks():
        used[ent] = True
        width = max(width, int(sec.max(initial=0)) + 1)
        total += sum(int(np.sum(n)) * (ent.size if np.ndim(n) == 0 else 1)
                     for n in got.values())
    used_ids = np.flatnonzero(used).tolist()
    entities = sorted({names[i] for i in used_ids})
    place = {s: r for r, s in enumerate(entities)}
    rank = np.zeros(len(names), dtype=np.int64)
    rank[used_ids] = [place[names[i]] for i in used_ids]
    code_type = np.int32 if len(entities) * width < 1 << 31 else np.int64

    cells = sorted_distinct(np.concatenate([np.zeros(0, dtype=code_type)] + [
        sorted_distinct(rank[ent] * width + sec).astype(code_type)
        for ent, sec, _ in blocks()
    ]))
    count_type = np.int32 if total < 1 << 31 else np.int64
    # one ledger a row, so each ledger's adds go to contiguous memory
    counts = np.zeros((len(LEDGERS), cells.size), dtype=count_type)
    for ent, sec, got in blocks():
        at = np.searchsorted(cells, (rank[ent] * width + sec).astype(code_type))
        for i, n in got.items():
            np.add.at(counts[i], at, np.asarray(n, dtype=count_type))
    entity, second = np.divmod(cells, code_type(width))
    return OverheadReport(duration_s, entities, entity, second, counts.T)


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
    for ent in rep.entities:
        fh.write(f"{ent},{rep.total_bytes(ent)},"
                 f"{rep.avg_rate_kb_per_s(ent):.6f},"
                 f"{rep.avg_ms_per_s(ent):.6f}\n")

"""Pseudonym linking over eavesdropped beacon logs.

The attacker sees only the observation rows. Per zone it splits pseudonyms
into entering (last ever seen heading into the disk) and exiting (first ever
seen heading away), then keeps every exiting id that survives four checks
against the entering id: traverse-time window, never seen simultaneously,
road path through the zone, and exit-consistent direction. Output is the
full candidate set per entering id; scoring happens downstream.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence, TextIO

import numpy as np

from .core import stable_u64
from .errors import OffNetwork
from .eventlog import OBSERVATION_HEADER, Observations, ObsRow
from .roads import (
    MixZoneGeometry,
    RoadGraph,
    exit_direction_consistent,
    path_exists,
    traverse_time_bounds,
)

LENGTH_CLASS_PRECISION_M = 0.1
# a distance or a radial dot this close to its threshold, relative to the
# magnitudes involved, is recomputed with math, as the scalar reference does
_UNSURE = 1e-9


def parse_observation_csv(fh: Iterable[str]) -> Observations:
    """The observation table of a CSV file as RunResult.export_observations
    writes it. ValueError names an empty file or a first line that is not
    OBSERVATION_HEADER (an export always has it), a row without eight
    fields, or a value that is not a finite number."""
    it = iter(fh)
    header = next(it, None)
    if header is None:
        raise ValueError(f"empty file, not even the header {OBSERVATION_HEADER!r}")
    if header.rstrip("\r\n") != OBSERVATION_HEADER:
        raise ValueError(
            f"first line {header.strip()!r} is not the header {OBSERVATION_HEADER!r}"
        )
    rows = []
    for line in it:
        line = line.strip()
        if not line:
            continue
        t, pid, x, y, spd, hdg, length, eid = line.split(",")
        values = [float(v) for v in (t, x, y, spd, hdg, length)]
        if not all(map(math.isfinite, values)):
            raise ValueError(f"non-finite value in row {line!r}")
        t, x, y, spd, hdg, length = values
        rows.append((t, pid, x, y, spd, hdg, length, eid))
    return Observations.from_rows(rows)


@dataclass(eq=False)
class PseudonymTrack:
    """Everything ever heard under one pseudonym id: rows of an
    observation table, time-ordered across all eavesdroppers."""

    pseudonym_id: str
    length_m: float
    obs: Observations
    rows: np.ndarray
    # (first, last) time each eavesdropper heard this id, which link
    # compares against every candidate
    eaves_spans: dict[str, tuple[float, float]]

    @cached_property
    def first(self) -> ObsRow:
        return self.obs.row(self.rows[0])

    @cached_property
    def last(self) -> ObsRow:
        return self.obs.row(self.rows[-1])

    def path_length_m(self) -> float:
        """Arc length of the observed trajectory (duplicate-time rows from
        multiple eavesdroppers contribute nothing)."""
        t = self.obs.t[self.rows]
        kept = self.rows[np.flatnonzero(np.r_[True, t[1:] > t[:-1]])]
        total = 0.0
        for step in map(math.hypot, np.diff(self.obs.x[kept]).tolist(),
                        np.diff(self.obs.y[kept]).tolist()):
            total += step
        return total


def build_tracks(obs: Observations) -> dict[float, list[PseudonymTrack]]:
    """Group rows per pseudonym, then partition by exact length class."""
    classes: dict[float, list[PseudonymTrack]] = {}
    if not obs.t.size:
        return classes
    # pseudonym indices sort as the ids do; a stable sort keeps each id's
    # rows in time, then eavesdropper, order
    order = np.argsort(obs.pseudonym, kind="stable")
    pid = obs.pseudonym[order]
    for rows, spans in zip(
        np.split(order, np.flatnonzero(pid[1:] != pid[:-1]) + 1), _eaves_spans(obs)
    ):
        cls = round(
            round(obs.length[rows[0]].item() / LENGTH_CLASS_PRECISION_M)
            * LENGTH_CLASS_PRECISION_M,
            1,
        )
        classes.setdefault(cls, []).append(
            PseudonymTrack(obs.names[obs.pseudonym[rows[0]]], cls, obs, rows, spans)
        )
    return classes


def _eaves_spans(obs: Observations) -> list[dict[str, tuple[float, float]]]:
    """For each pseudonym heard, in index order: the (first, last) time each
    eavesdropper heard it, as the times of the first and last row of each
    (pseudonym, eavesdropper) run, the rows of a run being time-ordered."""
    by_ear = np.lexsort((obs.eaves, obs.pseudonym))
    pid, ear = obs.pseudonym[by_ear], obs.eaves[by_ear]
    run = np.flatnonzero(np.r_[True, (pid[1:] != pid[:-1]) | (ear[1:] != ear[:-1])])
    end = np.r_[run[1:], pid.size] - 1
    spans: list[dict[str, tuple[float, float]]] = []
    prev = -1
    for p, e, lo, hi in zip(pid[run].tolist(), ear[run].tolist(),
                            obs.t[by_ear[run]].tolist(), obs.t[by_ear[end]].tolist()):
        if p != prev:
            spans.append({})
            prev = p
        spans[-1][obs.names[e]] = (lo, hi)
    return spans


def _near_and_radial(
    obs: Observations, rows: np.ndarray, zone: MixZoneGeometry,
    eaves_ranges: Mapping[str, float],
) -> tuple[np.ndarray, np.ndarray]:
    """For each of these rows: whether its eavesdropper's range reaches the
    zone centre from its claimed position (the catchment), and the dot of
    its heading with the centre-to-position vector (< 0: inbound)."""
    reach_of = np.array([eaves_ranges.get(name, 0.0) for name in obs.names])
    rx = obs.x[rows] - zone.center[0]
    ry = obs.y[rows] - zone.center[1]
    h = obs.heading[rows]
    reach = reach_of[obs.eaves[rows]]
    dist = np.hypot(rx, ry)
    near = dist <= reach
    dot = np.cos(h) * rx + np.sin(h) * ry
    # numpy's hypot, cos and sin may differ from math's in the last bit
    for i in np.flatnonzero(np.abs(dist - reach) <= _UNSURE * reach).tolist():
        near[i] = math.hypot(rx[i], ry[i]) <= reach[i]
    for i in np.flatnonzero(np.abs(dot) <= _UNSURE * (np.abs(rx) + np.abs(ry))).tolist():
        dot[i] = math.cos(h[i]) * rx[i] + math.sin(h[i]) * ry[i]
    return near, dot


@dataclass
class LinkingInstance:
    """One zone's attack input after trivial filtering, per length class."""

    entering: list[PseudonymTrack] = field(default_factory=list)
    exiting: list[PseudonymTrack] = field(default_factory=list)


def classify_tracks(
    tracks_by_class: Mapping[float, Sequence[PseudonymTrack]],
    zone: MixZoneGeometry,
    eaves_ranges: Mapping[str, float],
) -> tuple[dict[float, LinkingInstance], list[str]]:
    """Split tracks into entering/exiting at this zone and peel off the
    trivially linked ids (same pseudonym heard going in and coming out).

    Every row of every track is tested at once: a track is trivial when a
    row of its catchment points outward after one that points inward;
    else it enters when its last row anywhere is in the catchment,
    inbound, and exits when its first row anywhere is, outbound."""
    tracks = [t for cls in sorted(tracks_by_class) for t in tracks_by_class[cls]]
    if not tracks:
        return {}, []
    rows = np.concatenate([t.rows for t in tracks])
    starts = np.cumsum([0] + [t.rows.size for t in tracks[:-1]])
    ends = np.r_[starts[1:], rows.size] - 1
    near, dot = _near_and_radial(tracks[0].obs, rows, zone, eaves_ranges)
    at = np.arange(rows.size)
    first_in = np.minimum.reduceat(np.where(near & (dot < 0), at, rows.size), starts)
    last_out = np.maximum.reduceat(np.where(near & (dot > 0), at, -1), starts)
    turned = last_out > first_in
    enters = ~turned & near[ends] & (dot[ends] < 0)
    exits = ~turned & near[starts] & (dot[starts] > 0)

    instances: dict[float, LinkingInstance] = {}
    for track, trivial, ent, ext in zip(
        tracks, turned.tolist(), enters.tolist(), exits.tolist()
    ):
        if trivial or not (ent or ext):
            continue
        inst = instances.setdefault(track.length_m, LinkingInstance())
        if ent:
            inst.entering.append(track)
        if ext:
            inst.exiting.append(track)
    trivial = sorted({t.pseudonym_id for t, hit in zip(tracks, turned.tolist()) if hit})
    return instances, trivial


def seen_together(a: PseudonymTrack, b: PseudonymTrack) -> bool:
    """True iff some single eavesdropper heard both ids simultaneously
    (their per-eavesdropper observation spans overlap)."""
    spans_b = b.eaves_spans
    for eid, (lo_a, hi_a) in a.eaves_spans.items():
        span = spans_b.get(eid)
        if span is None:
            continue
        lo_b, hi_b = span
        if max(lo_a, lo_b) <= min(hi_a, hi_b):
            return True
    return False


def _path_via_zone(g: RoadGraph, b_l: ObsRow, b_f: ObsRow,
                   zone: MixZoneGeometry) -> bool:
    try:
        return path_exists(
            g, (b_l.x, b_l.y), (b_f.x, b_f.y), zone,
            from_heading=b_l.heading_rad, to_heading=b_f.heading_rad,
        )
    except OffNetwork:
        return False


@dataclass
class LinkCandidateSet:
    """All exiting ids an entering id could have become at one zone."""

    zone_id: str
    entering: str
    candidates: frozenset[str]
    truth: str | None = None  # evaluation-only; never used by the attack


def link(
    tracks_by_class: Mapping[float, Sequence[PseudonymTrack]],
    zone: MixZoneGeometry,
    g: RoadGraph,
    v_min: float,
    zone_id: str,
    eaves_ranges: Mapping[str, float],
) -> list[LinkCandidateSet]:
    """Candidate sets for every entering pseudonym at one zone.

    A candidate must share the length class and pass, against the entering
    id's last beacon: the zone traverse-time window, the never-seen-together
    check, a directed road path through the zone, and the exit-direction
    gate on its own first beacon.
    """
    lo, hi = traverse_time_bounds(zone, g, v_min)
    instances, _ = classify_tracks(tracks_by_class, zone, eaves_ranges)
    out: list[LinkCandidateSet] = []
    for cls in sorted(instances):
        inst = instances[cls]
        exits = [
            x for x in inst.exiting
            if exit_direction_consistent((x.first.x, x.first.y),
                                         x.first.heading_rad, zone)
        ]
        appeared = np.array([x.first.time_s for x in exits])
        for ent in inst.entering:
            keep = set()
            diff = appeared - ent.last.time_s
            for i in np.flatnonzero((diff >= lo) & (diff <= hi)).tolist():
                cand = exits[i]
                if cand.pseudonym_id == ent.pseudonym_id or seen_together(ent, cand):
                    continue
                if _path_via_zone(g, ent.last, cand.first, zone):
                    keep.add(cand.pseudonym_id)
            out.append(
                LinkCandidateSet(zone_id, ent.pseudonym_id, frozenset(keep))
            )
    out.sort(key=lambda s: s.entering)
    return out


def brute_force_oracle(
    rows: Sequence[ObsRow],
    zone: MixZoneGeometry,
    g: RoadGraph,
    v_min: float,
    zone_id: str,
    eaves_ranges: Mapping[str, float],
) -> list[LinkCandidateSet]:
    """Same contract as link(), written as plain nested loops over raw rows
    with every quantity recomputed in place. Reference implementation for
    the equivalence property; only usable on small instances."""
    by_pid: dict[str, list[ObsRow]] = {}
    for r in rows:
        by_pid.setdefault(r.pseudonym_id, []).append(r)
    for pid in by_pid:
        by_pid[pid].sort(key=lambda r: (r.time_s, r.eaves_id))

    def near(r: ObsRow) -> bool:
        d = math.hypot(r.x - zone.center[0], r.y - zone.center[1])
        return d <= eaves_ranges.get(r.eaves_id, 0.0)

    def radial(r: ObsRow) -> float:
        return (math.cos(r.heading_rad) * (r.x - zone.center[0])
                + math.sin(r.heading_rad) * (r.y - zone.center[1]))

    def is_trivial(pid: str) -> bool:
        saw_in = False
        for r in by_pid[pid]:
            if not near(r):
                continue
            if radial(r) < 0:
                saw_in = True
            elif radial(r) > 0 and saw_in:
                return True
        return False

    def enters(pid: str) -> bool:
        rs = by_pid[pid]
        catch = [r for r in rs if near(r)]
        return bool(catch) and catch[-1] is rs[-1] and radial(catch[-1]) < 0

    def exits(pid: str) -> bool:
        rs = by_pid[pid]
        catch = [r for r in rs if near(r)]
        return bool(catch) and catch[0] is rs[0] and radial(catch[0]) > 0

    lo, hi = traverse_time_bounds(zone, g, v_min)
    out: list[LinkCandidateSet] = []
    for pid_in in sorted(by_pid):
        if is_trivial(pid_in) or not enters(pid_in):
            continue
        b_l = by_pid[pid_in][-1]
        keep = set()
        for pid_out in sorted(by_pid):
            if pid_out == pid_in or is_trivial(pid_out) or not exits(pid_out):
                continue
            if by_pid[pid_out][0].length_m != b_l.length_m:
                # exact class match at 0.1 m resolution
                la = round(round(by_pid[pid_out][0].length_m / 0.1) * 0.1, 1)
                lb = round(round(b_l.length_m / 0.1) * 0.1, 1)
                if la != lb:
                    continue
            b_f = by_pid[pid_out][0]
            if not (lo <= b_f.time_s - b_l.time_s <= hi):
                continue
            together = False
            for eid in {r.eaves_id for r in rows}:
                at_a = [r.time_s for r in by_pid[pid_in] if r.eaves_id == eid]
                at_b = [r.time_s for r in by_pid[pid_out] if r.eaves_id == eid]
                if at_a and at_b:
                    if max(min(at_a), min(at_b)) <= min(max(at_a), max(at_b)):
                        together = True
                        break
            if together:
                continue
            if not exit_direction_consistent((b_f.x, b_f.y), b_f.heading_rad, zone):
                continue
            try:
                ok = path_exists(
                    g, (b_l.x, b_l.y), (b_f.x, b_f.y), zone,
                    from_heading=b_l.heading_rad, to_heading=b_f.heading_rad,
                )
            except OffNetwork:
                ok = False
            if not ok:
                continue
            keep.add(pid_out)
        out.append(LinkCandidateSet(zone_id, pid_in, frozenset(keep)))
    out.sort(key=lambda s: s.entering)
    return out


# ---------------------------------------------------------------------------
# honest-but-curious RSU variant


def hbc_rsu_link(
    external: Sequence[LinkCandidateSet],
    internal_truth: Mapping[str, str],
    own_chaff: frozenset[str] | set[str],
) -> list[LinkCandidateSet]:
    """Replace one flagged zone's sets with the RSU's decrypted view.

    Links the RSU witnessed inside become exact singletons; its own chaff
    ids vanish from every remaining set; chaff minted by other zones is
    indistinguishable and stays put.
    """
    out: list[LinkCandidateSet] = []
    for s in external:
        if s.entering in internal_truth:
            out.append(
                LinkCandidateSet(
                    s.zone_id, s.entering,
                    frozenset({internal_truth[s.entering]}), s.truth,
                )
            )
        else:
            out.append(
                LinkCandidateSet(
                    s.zone_id, s.entering,
                    frozenset(s.candidates - set(own_chaff)), s.truth,
                )
            )
    return out


# ---------------------------------------------------------------------------
# cross-zone chaining


@dataclass(frozen=True)
class ChainLink:
    zone_id: str
    from_id: str
    to_id: str
    set_size: int


@dataclass
class Chain:
    ids: tuple[str, ...]
    links: tuple[ChainLink, ...]


def chain(
    candidate_sets: Sequence[LinkCandidateSet],
    rng_seed: int = 0,
) -> list[Chain]:
    """Follow candidate sets across zones: singletons deterministically,
    larger sets by a seeded uniform choice. A chain starts at any entering
    id that no other chain flows into and stops at an empty set, an unseen
    id, or a repeat."""
    follow: dict[str, tuple[str, str, int]] = {}
    for s in sorted(candidate_sets, key=lambda s: (s.entering, s.zone_id)):
        if s.entering in follow or not s.candidates:
            continue
        ordered = sorted(s.candidates)
        pick = random.Random(
            stable_u64(rng_seed, "chain", s.zone_id, s.entering)
        ).choice(ordered)
        follow[s.entering] = (s.zone_id, pick, len(ordered))

    chosen = {pick for _, pick, _ in follow.values()}
    chains: list[Chain] = []
    for start in sorted(follow):
        if start in chosen:
            continue
        ids = [start]
        links: list[ChainLink] = []
        cur = start
        while cur in follow and follow[cur][1] not in ids:
            zid, nxt, k = follow[cur]
            links.append(ChainLink(zid, cur, nxt, k))
            ids.append(nxt)
            cur = nxt
        chains.append(Chain(tuple(ids), tuple(links)))
    return chains


def chain_distance_m(
    ch: Chain,
    tracks: Mapping[str, PseudonymTrack],
    n_links: int | None = None,
) -> float:
    """Observed arc length along the first n_links follows of a chain,
    including the unobserved jumps between consecutive pseudonyms."""
    if n_links is None:
        n_links = len(ch.links)
    ids = ch.ids[: n_links + 1]
    total = 0.0
    for i, pid in enumerate(ids):
        track = tracks.get(pid)
        if track is None:
            break
        total += track.path_length_m()
        if i + 1 < len(ids):
            nxt = tracks.get(ids[i + 1])
            if nxt is not None:
                total += math.hypot(
                    nxt.first.x - track.last.x, nxt.first.y - track.last.y
                )
    return total


def flat_tracks(
    tracks_by_class: Mapping[float, Sequence[PseudonymTrack]]
) -> dict[str, PseudonymTrack]:
    return {
        t.pseudonym_id: t
        for ts in tracks_by_class.values()
        for t in ts
    }


# ---------------------------------------------------------------------------
# evaluation plumbing and export


def attach_truth(
    candidate_sets: Sequence[LinkCandidateSet],
    truth_by_zone_entering: Mapping[tuple[str, str], str],
) -> list[LinkCandidateSet]:
    """Fill the evaluation-only truth field from ground-truth change records
    keyed by (zone id, entering id)."""
    return [
        LinkCandidateSet(
            s.zone_id, s.entering, s.candidates,
            truth_by_zone_entering.get((s.zone_id, s.entering)),
        )
        for s in candidate_sets
    ]


def export_candidate_sets(sets: Sequence[LinkCandidateSet], fh: TextIO) -> None:
    for s in sets:
        fh.write(json.dumps(
            {
                "zone": s.zone_id,
                "entering": s.entering,
                "candidates": sorted(s.candidates),
                "truth": s.truth,
            },
            separators=(",", ":"),
        ) + "\n")

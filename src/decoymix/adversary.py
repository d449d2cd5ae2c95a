"""Pseudonym linking over eavesdropped beacon logs.

The attacker sees only the observation rows. Per zone it splits pseudonyms
into entering (last ever seen heading into the disk) and exiting (first ever
seen heading away, at an exit point), then lays out one pair table: every
(entering, exiting) pair of one length class whose gap fits the
traverse-time window, as columns, with each further check as a boolean
column (never seen simultaneously, a road path through the zone). An
entering id's candidate set is the exiting ids of its kept rows; scoring
happens downstream.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
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
    fields, a value that is not a finite number, or a length too large to
    put in a length class."""
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
        if not math.isfinite(length / LENGTH_CLASS_PRECISION_M):
            raise ValueError(f"length out of range in row {line!r}")
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
    # first and last time each eavesdropper of the table heard this id, in
    # eavesdropper id order; +inf and -inf where it never did
    heard_from: np.ndarray
    heard_to: np.ndarray

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
    _, p = np.unique(obs.pseudonym, return_inverse=True)
    _, e = np.unique(obs.eaves, return_inverse=True)
    heard_from = np.full((p.max() + 1, e.max() + 1), np.inf)
    heard_to = np.full_like(heard_from, -np.inf)
    np.minimum.at(heard_from, (p, e), obs.t)
    np.maximum.at(heard_to, (p, e), obs.t)
    for i, rows in enumerate(np.split(order, np.flatnonzero(pid[1:] != pid[:-1]) + 1)):
        cls = round(
            round(obs.length[rows[0]].item() / LENGTH_CLASS_PRECISION_M)
            * LENGTH_CLASS_PRECISION_M,
            1,
        )
        classes.setdefault(cls, []).append(PseudonymTrack(
            obs.names[obs.pseudonym[rows[0]]], cls, obs, rows,
            heard_from[i], heard_to[i],
        ))
    return classes


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


def classify_tracks(
    tracks_by_class: Mapping[float, Sequence[PseudonymTrack]],
    zone: MixZoneGeometry,
    eaves_ranges: Mapping[str, float],
) -> tuple[list[PseudonymTrack], list[PseudonymTrack]]:
    """The tracks entering and the tracks exiting this zone, each in id
    order. A trivially linked id (the same pseudonym heard going in and
    coming out) is in neither.

    Every row of every track is tested at once: a track is trivial when a
    row of its catchment points outward after one that points inward;
    else it enters when its last row anywhere is in the catchment,
    inbound, and exits when its first row anywhere is, outbound."""
    tracks = sorted((t for ts in tracks_by_class.values() for t in ts),
                    key=lambda t: t.pseudonym_id)
    if not tracks:
        return [], []
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
    return ([t for t, hit in zip(tracks, enters.tolist()) if hit],
            [t for t, hit in zip(tracks, exits.tolist()) if hit])


@dataclass
class PairTable:
    """One zone's candidate pairs as columns: a row per (entering,
    exiting) pair of one length class whose gap fits the traverse-time
    window, in entering, then exiting, order."""

    entering: list[PseudonymTrack]  # in id order
    exiting: list[PseudonymTrack]  # in id order, past the exit gate
    ent: np.ndarray  # index into entering
    ext: np.ndarray  # index into exiting
    ent_row: np.ndarray  # observation row of the entering id's last beacon
    ext_row: np.ndarray  # observation row of the exiting id's first beacon
    dt: np.ndarray  # time from the one beacon to the other
    apart: np.ndarray  # different ids, never heard at once by one ear
    road: np.ndarray  # a road path runs between them through the zone


def pair_table(
    tracks_by_class: Mapping[float, Sequence[PseudonymTrack]],
    zone: MixZoneGeometry,
    g: RoadGraph,
    v_min: float,
    eaves_ranges: Mapping[str, float],
) -> PairTable:
    """The pair table of one zone. The road check runs only on apart rows
    and is False elsewhere; a beacon off the network has no path."""
    lo, hi = traverse_time_bounds(zone, g, v_min)
    entering, exiting = classify_tracks(tracks_by_class, zone, eaves_ranges)
    exiting = [
        x for x in exiting
        if exit_direction_consistent((x.first.x, x.first.y), x.first.heading_rad, zone)
    ]
    dt = (np.array([x.first.time_s for x in exiting])
          - np.array([t.last.time_s for t in entering])[:, None])
    same = (np.array([t.length_m for t in entering])[:, None]
            == np.array([x.length_m for x in exiting]))
    ent, ext = np.nonzero(same & (lo <= dt) & (dt <= hi))
    ent_row = np.array([t.rows[-1] for t in entering], dtype=np.intp)[ent]
    ext_row = np.array([x.rows[0] for x in exiting], dtype=np.intp)[ext]
    apart = np.zeros(ent.size, dtype=bool)
    if ent.size:
        def heard(attr):  # (pairs x ears) spans of both sides
            return (np.array([getattr(t, attr) for t in entering])[ent],
                    np.array([getattr(x, attr) for x in exiting])[ext])

        together = (np.maximum(*heard("heard_from"))
                    <= np.minimum(*heard("heard_to"))).any(axis=1)
        pid = entering[0].obs.pseudonym
        apart = (pid[ent_row] != pid[ext_row]) & ~together
    road = np.zeros(ent.size, dtype=bool)
    for i in np.flatnonzero(apart).tolist():
        a, b = entering[ent[i]].last, exiting[ext[i]].first
        try:
            road[i] = path_exists(
                g, (a.x, a.y), (b.x, b.y), zone,
                from_heading=a.heading_rad, to_heading=b.heading_rad,
            )
        except OffNetwork:
            pass
    return PairTable(entering, exiting, ent, ext, ent_row, ext_row, dt[ent, ext],
                     apart, road)


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
    """Candidate sets for every entering pseudonym at one zone, in id
    order: the exiting ids of its pair-table rows that are apart and have
    a road path."""
    pairs = pair_table(tracks_by_class, zone, g, v_min, eaves_ranges)
    kept = pairs.apart & pairs.road
    cands: list[list[str]] = [[] for _ in pairs.entering]
    for e, x in zip(pairs.ent[kept].tolist(), pairs.ext[kept].tolist()):
        cands[e].append(pairs.exiting[x].pseudonym_id)
    return [
        LinkCandidateSet(zone_id, t.pseudonym_id, frozenset(c))
        for t, c in zip(pairs.entering, cands)
    ]


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
    return [
        LinkCandidateSet(
            s.zone_id, s.entering,
            frozenset({internal_truth[s.entering]}) if s.entering in internal_truth
            else s.candidates - own_chaff,
            s.truth,
        )
        for s in external
    ]


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

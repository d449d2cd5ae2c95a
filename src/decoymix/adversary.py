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
from typing import Iterable, Mapping, Sequence, TextIO

from .core import stable_u64
from .errors import OffNetwork
from .roads import (
    MixZoneGeometry,
    RoadGraph,
    exit_direction_consistent,
    path_exists,
    traverse_time_bounds,
)

LENGTH_CLASS_PRECISION_M = 0.1


@dataclass(frozen=True)
class ObsRow:
    """One eavesdropped beacon: the attack's only input."""

    time_s: float
    pseudonym_id: str
    x: float
    y: float
    speed_mps: float
    heading_rad: float
    length_m: float
    eaves_id: str


def parse_observation_csv(fh: Iterable[str]) -> list[ObsRow]:
    rows: list[ObsRow] = []
    it = iter(fh)
    header = next(it, None)
    if header is None:
        return rows
    for line in it:
        line = line.strip()
        if not line:
            continue
        t, pid, x, y, spd, hdg, length, eid = line.split(",")
        rows.append(
            ObsRow(float(t), pid, float(x), float(y), float(spd),
                   float(hdg), float(length), eid)
        )
    rows.sort(key=lambda r: (r.time_s, r.pseudonym_id, r.eaves_id))
    return rows


def rows_from_result(result) -> list[ObsRow]:
    """Adapter from a RunResult's merged observation tuples."""
    return [ObsRow(*row) for row in result.all_observations()]


@dataclass
class PseudonymTrack:
    """Everything ever heard under one pseudonym id."""

    pseudonym_id: str
    length_m: float
    rows: tuple[ObsRow, ...]  # time-ordered across all eavesdroppers

    @property
    def first(self) -> ObsRow:
        return self.rows[0]

    @property
    def last(self) -> ObsRow:
        return self.rows[-1]

    def intervals_by_eaves(self) -> dict[str, tuple[float, float]]:
        out: dict[str, tuple[float, float]] = {}
        for r in self.rows:
            lohi = out.get(r.eaves_id)
            if lohi is None:
                out[r.eaves_id] = (r.time_s, r.time_s)
            else:
                out[r.eaves_id] = (min(lohi[0], r.time_s), max(lohi[1], r.time_s))
        return out

    def path_length_m(self) -> float:
        """Arc length of the observed trajectory (duplicate-time rows from
        multiple eavesdroppers contribute nothing)."""
        total = 0.0
        px = py = None
        pt = None
        for r in self.rows:
            if pt is not None and r.time_s > pt:
                total += math.hypot(r.x - px, r.y - py)
            if pt is None or r.time_s > pt:
                px, py, pt = r.x, r.y, r.time_s
        return total


def build_tracks(rows: Sequence[ObsRow]) -> dict[float, list[PseudonymTrack]]:
    """Group rows per pseudonym, then partition by exact length class."""
    by_pid: dict[str, list[ObsRow]] = {}
    for r in sorted(rows, key=lambda r: (r.time_s, r.eaves_id)):
        by_pid.setdefault(r.pseudonym_id, []).append(r)
    classes: dict[float, list[PseudonymTrack]] = {}
    for pid in sorted(by_pid):
        track_rows = by_pid[pid]
        cls = round(
            round(track_rows[0].length_m / LENGTH_CLASS_PRECISION_M)
            * LENGTH_CLASS_PRECISION_M,
            1,
        )
        classes.setdefault(cls, []).append(
            PseudonymTrack(pid, cls, tuple(track_rows))
        )
    return classes


def _radial_dot(row: ObsRow, zone: MixZoneGeometry) -> float:
    rx = row.x - zone.center[0]
    ry = row.y - zone.center[1]
    return math.cos(row.heading_rad) * rx + math.sin(row.heading_rad) * ry


def _catchment(track: PseudonymTrack, zone: MixZoneGeometry,
               eaves_ranges: Mapping[str, float]) -> list[ObsRow]:
    out = []
    for r in track.rows:
        reach = eaves_ranges.get(r.eaves_id, 0.0)
        if math.hypot(r.x - zone.center[0], r.y - zone.center[1]) <= reach:
            out.append(r)
    return out


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
    trivially linked ids (same pseudonym heard going in and coming out)."""
    instances: dict[float, LinkingInstance] = {}
    trivial: list[str] = []
    for cls in sorted(tracks_by_class):
        inst = LinkingInstance()
        for track in tracks_by_class[cls]:
            catch = _catchment(track, zone, eaves_ranges)
            if not catch:
                continue
            dots = [_radial_dot(r, zone) for r in catch]
            inward_then_outward = False
            first_in = None
            for i, d in enumerate(dots):
                if d < 0 and first_in is None:
                    first_in = i
                if d > 0 and first_in is not None and i > first_in:
                    inward_then_outward = True
                    break
            if inward_then_outward:
                trivial.append(track.pseudonym_id)
                continue
            # entering: the id's final observation anywhere is here, inbound
            if track.last is catch[-1] and dots[-1] < 0:
                inst.entering.append(track)
            # exiting: the id's first observation anywhere is here, outbound
            if track.first is catch[0] and dots[0] > 0:
                inst.exiting.append(track)
        if inst.entering or inst.exiting:
            instances[cls] = inst
    return instances, sorted(set(trivial))


def seen_together(a: PseudonymTrack, b: PseudonymTrack) -> bool:
    """True iff some single eavesdropper heard both ids simultaneously
    (their per-eavesdropper observation spans overlap)."""
    ia = a.intervals_by_eaves()
    ib = b.intervals_by_eaves()
    for eid, (lo_a, hi_a) in ia.items():
        span = ib.get(eid)
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
        for ent in inst.entering:
            keep = set()
            for cand in exits:
                if cand.pseudonym_id == ent.pseudonym_id:
                    continue
                diff = cand.first.time_s - ent.last.time_s
                if diff < lo or diff > hi:
                    continue
                if seen_together(ent, cand):
                    continue
                if not _path_via_zone(g, ent.last, cand.first, zone):
                    continue
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

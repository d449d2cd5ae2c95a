"""Road graph with geometry and mix-zone traverse queries.

Junctions are planar points, edges are directed polylines with speed limits.
A mix zone is a disk; its geometry object carries the boundary points where
edges cross the circle (entry when the polyline runs outside-to-inside, exit
the other way) and the matrix of internal path lengths between them, which
feed the traverse-time window of the linking attack.

Snapping a position to a lane goes through a bucket grid built once per
graph: square cells of SNAP_CELL_M, each listing the edges with a segment
that comes within the snap tolerance of it. Any edge within the tolerance of
a point is listed in that point's cell, so projecting onto the cell's edges
alone finds the same lane as a scan of every edge. The grid is
built for the one tolerance, SNAP_TOLERANCE_M; snap takes no other.

Search is implemented locally (edge-state Dijkstra/BFS with sorted tie
breaking) so results are deterministic and the no-U-turn rule, which needs
edge state, is expressible. A path check through a zone depends only on the
start lane, the goal lane and the zone, so each (start lane, zone) pair is
searched once, for every goal lane at once, and the answer is kept; the
graph is never changed after construction, so a kept answer stays right.
"""

from __future__ import annotations

import heapq
import json
import math
from collections import deque
from dataclasses import dataclass

from .errors import OffNetwork

DEFAULT_SPEED_LIMIT_MPS = 13.89  # 50 km/h
DEFAULT_V_MIN_MPS = 1.39  # 5 km/h creep floor for max traverse time
SNAP_TOLERANCE_M = 5.0
SNAP_CELL_M = 50.0
# A segment reaches the tolerance plus 1 mm: snap compares distances
# rounded to 1e-9 m, so a point a hair past 5 m can still snap.
_SNAP_REACH_M = SNAP_TOLERANCE_M + 1e-3
# the most snap-grid cells a graph's segments may cover, summed over its
# segments; a 4x4 grid at 500 m covers 1,152 (448 distinct)
SNAP_CELL_CAP = 1 << 20
EXIT_PROXIMITY_GATE_M = 50.0

Point = tuple[float, float]


def _dist(a: Point, b: Point) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def polyline_length(shape: tuple[Point, ...]) -> float:
    return sum(_dist(shape[i], shape[i + 1]) for i in range(len(shape) - 1))


def point_along(shape: tuple[Point, ...], offset: float) -> tuple[float, float, float]:
    """Position and heading at arc offset; clamps to the polyline ends."""
    if offset <= 0:
        sx, sy = shape[0]
        hx, hy = shape[1]
        return sx, sy, math.atan2(hy - sy, hx - sx)
    run = 0.0
    for i in range(len(shape) - 1):
        (ax, ay), (bx, by) = shape[i], shape[i + 1]
        seg = math.hypot(bx - ax, by - ay)
        if run + seg >= offset and seg > 0:
            t = (offset - run) / seg
            return ax + t * (bx - ax), ay + t * (by - ay), math.atan2(by - ay, bx - ax)
        run += seg
    ax, ay = shape[-2]
    bx, by = shape[-1]
    return bx, by, math.atan2(by - ay, bx - ax)


def project_to_polyline(shape: tuple[Point, ...], p: Point) -> tuple[float, float]:
    """(arc offset of nearest point, distance to it)."""
    best_off = 0.0
    best_d = math.inf
    run = 0.0
    for i in range(len(shape) - 1):
        (ax, ay), (bx, by) = shape[i], shape[i + 1]
        dx, dy = bx - ax, by - ay
        seg2 = dx * dx + dy * dy
        if seg2 == 0:
            continue
        t = max(0.0, min(1.0, ((p[0] - ax) * dx + (p[1] - ay) * dy) / seg2))
        qx, qy = ax + t * dx, ay + t * dy
        d = math.hypot(p[0] - qx, p[1] - qy)
        if d < best_d:
            best_d = d
            best_off = run + t * math.sqrt(seg2)
        run += math.sqrt(seg2)
    return best_off, best_d


@dataclass(frozen=True)
class Edge:
    id: str
    tail: str
    head: str
    shape: tuple[Point, ...]
    speed_limit: float
    length: float

    def __post_init__(self) -> None:
        if self.speed_limit <= 0:
            raise ValueError(f"edge {self.id}: speed_limit must be positive")
        arc = polyline_length(self.shape)
        if abs(arc - self.length) > 1e-6:
            raise ValueError(f"edge {self.id}: length {self.length} != arc {arc}")


def _reach_rows(a: Point, b: Point, first: int, last: int) -> list[tuple[int, int, int]]:
    """(column, first row, last row) of the snap cells within _SNAP_REACH_M
    of segment a-b, for each column first to last that has any.

    The reach is the union of the two end disks and the rectangle the
    segment sweeps along its normal. It is convex, so its slice over a
    column spans the pieces' slices; a rectangle's slice runs between its
    corners inside the column and its sides' crossings of the column's
    edges."""
    r = _SNAP_REACH_M
    (ax, ay), (bx, by) = a, b
    corners, sides = [], []
    length = math.hypot(bx - ax, by - ay)
    if length > 0:
        nx, ny = (ay - by) / length * r, (bx - ax) / length * r
        corners = [(ax + nx, ay + ny), (bx + nx, by + ny), (bx - nx, by - ny),
                   (ax - nx, ay - ny)]
        # each slanted side as (its x range, a point on it, its slope)
        for (px, py), (qx, qy) in zip(corners, corners[1:] + corners[:1]):
            if px != qx:
                sides.append((min(px, qx), max(px, qx), px, py, (qy - py) / (qx - px)))
    runs = []
    for ix in range(first, last + 1):
        x0, x1 = ix * SNAP_CELL_M, (ix + 1) * SNAP_CELL_M
        ys = [py for px, py in corners if x0 <= px <= x1]
        for cx, cy in (a, b):
            g = max(x0 - cx, cx - x1, 0.0)
            if g <= r:
                h = math.sqrt(r * r - g * g)
                ys += (cy - h, cy + h)
        for lo, hi, px, py, slope in sides:
            if lo <= x0 <= hi:
                ys.append(py + (x0 - px) * slope)
            if lo <= x1 <= hi:
                ys.append(py + (x1 - px) * slope)
        if ys:
            runs.append((
                ix, math.floor(min(ys) / SNAP_CELL_M), math.floor(max(ys) / SNAP_CELL_M)
            ))
    return runs


def _snap_cells(edges) -> dict[tuple[int, int], tuple[str, ...]]:
    """Bucket grid for snap: cell -> sorted ids of the edges with a segment
    that comes within _SNAP_REACH_M of the cell, found a column of cells
    at a time from the span of the segment's reach over the column.

    Each segment's cells are counted, in Python ints, before they are
    built: ValueError names the edge whose segment takes the count past
    SNAP_CELL_CAP, so no graph builds more cells than that. A segment has
    a cell in every column it crosses, so one crossing too many columns is
    refused before they are walked."""
    cells: dict[tuple[int, int], set[str]] = {}
    count = 0
    for e in edges:
        for a, b in zip(e.shape, e.shape[1:]):
            left, right = sorted((a[0], b[0]))
            crossed = math.floor(right / SNAP_CELL_M) - math.floor(left / SNAP_CELL_M) + 1
            if count + crossed > SNAP_CELL_CAP:
                runs, count = [], count + crossed
            else:
                runs = _reach_rows(
                    a, b, math.floor((left - _SNAP_REACH_M) / SNAP_CELL_M),
                    math.floor((right + _SNAP_REACH_M) / SNAP_CELL_M),
                )
                count += sum(y1 - y0 + 1 for _, y0, y1 in runs)
            if count > SNAP_CELL_CAP:
                raise ValueError(
                    f"edge {e.id}: the snap grid would pass {SNAP_CELL_CAP} "
                    f"cells of {SNAP_CELL_M:g} m"
                )
            for ix, y0, y1 in runs:
                for iy in range(y0, y1 + 1):
                    cells.setdefault((ix, iy), set()).add(e.id)
    return {cell: tuple(sorted(ids)) for cell, ids in cells.items()}


def _finite(value) -> float:
    """value as a float; ValueError unless it is a finite number."""
    out = float(value)
    if not math.isfinite(out):
        raise ValueError(f"non-finite number {value!r}")
    return out


class RoadGraph:
    def __init__(self, junctions: dict[str, Point], edges: list[Edge]) -> None:
        self.junctions = dict(junctions)
        self.edges: dict[str, Edge] = {}
        self.out_edges: dict[str, list[str]] = {j: [] for j in junctions}
        for e in edges:
            if e.id in self.edges:
                raise ValueError(f"duplicate edge id {e.id}")
            if e.tail not in junctions or e.head not in junctions:
                raise ValueError(f"edge {e.id} references unknown junction")
            self.edges[e.id] = e
            self.out_edges[e.tail].append(e.id)
        for j in self.out_edges:
            self.out_edges[j].sort()
        # reverse twin: same endpoints swapped; used by the U-turn rule
        by_ends: dict[tuple[str, str], list[str]] = {}
        for e in self.edges.values():
            by_ends.setdefault((e.tail, e.head), []).append(e.id)
        self.reverse_of: dict[str, frozenset[str]] = {
            eid: frozenset(by_ends.get((e.head, e.tail), ()))
            for eid, e in self.edges.items()
        }
        # successor lanes, U-turn twins excluded, in out_edges order
        self._next: dict[str, tuple[str, ...]] = {
            eid: tuple(f for f in self.out_edges[e.head] if f not in self.reverse_of[eid])
            for eid, e in self.edges.items()
        }
        # (start lane, zone edge ids) -> lanes_via's answer
        self._lanes_via: dict[tuple[str, frozenset[str]], frozenset[str]] = {}
        self._snap_cells = _snap_cells(self.edges.values())
        # (x, y, heading) -> snap's answer, or OffNetwork's message
        self._snaps: dict[tuple, tuple[str, float] | str] = {}

    # file format: junctions [{id,x,y}], edges [{id,from,to,shape,speed_limit}]

    @classmethod
    def from_json(cls, text: str) -> "RoadGraph":
        """The graph a JSON document describes. ValueError names what is
        wrong when the text is not JSON, a key is missing or mistyped, a
        number is not finite, or a shape has fewer than two points."""
        try:
            doc = json.loads(text)
            junctions = {
                j["id"]: (_finite(j["x"]), _finite(j["y"])) for j in doc["junctions"]
            }
            edges = []
            for rec in doc["edges"]:
                shape = tuple((_finite(x), _finite(y)) for x, y in rec["shape"])
                if len(shape) < 2:
                    raise ValueError(f"edge {rec['id']}: shape needs at least two points")
                edges.append(
                    Edge(
                        id=rec["id"],
                        tail=rec["from"],
                        head=rec["to"],
                        shape=shape,
                        speed_limit=_finite(rec["speed_limit"]),
                        length=polyline_length(shape),
                    )
                )
        except KeyError as exc:
            raise ValueError(f"missing key {exc}") from None
        except TypeError as exc:
            raise ValueError(f"malformed graph: {exc}") from None
        return cls(junctions, edges)

    def to_json(self) -> str:
        doc = {
            "junctions": [
                {"id": j, "x": x, "y": y} for j, (x, y) in sorted(self.junctions.items())
            ],
            "edges": [
                {
                    "id": e.id,
                    "from": e.tail,
                    "to": e.head,
                    "shape": [[x, y] for x, y in e.shape],
                    "speed_limit": e.speed_limit,
                }
                for e in sorted(self.edges.values(), key=lambda e: e.id)
            ],
        }
        return json.dumps(doc, indent=1)

    @classmethod
    def load(cls, path) -> "RoadGraph":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    def snap(self, pos: Point, heading: float | None = None) -> tuple[str, float]:
        """Nearest (edge id, arc offset) within SNAP_TOLERANCE_M, else
        OffNetwork.

        Distance ties break by heading alignment when a heading is given
        (opposite lanes of a two-way road share geometry), then by edge id.
        The graph never changes, so each answer is kept per (x, y, heading),
        OffNetwork included.
        """
        key = (pos[0], pos[1], heading)
        found = self._snaps.get(key)
        if found is None:
            try:
                found = self._nearest_lane(pos, heading)
            except OffNetwork as exc:
                found = str(exc)
            self._snaps[key] = found
        if isinstance(found, str):
            raise OffNetwork(found)
        return found

    def _nearest_lane(self, pos: Point, heading: float | None) -> tuple[str, float]:
        try:
            cell = (math.floor(pos[0] / SNAP_CELL_M), math.floor(pos[1] / SNAP_CELL_M))
        except (ValueError, OverflowError):  # a nan or infinite coordinate
            raise OffNetwork(f"position {pos} is not a finite point") from None
        best: tuple[tuple[float, float, str], str, float] | None = None
        for eid in self._snap_cells.get(cell, ()):
            off, d = project_to_polyline(self.edges[eid].shape, pos)
            if heading is None:
                key = (d, 0.0, eid)
            else:
                _, _, eh = point_along(self.edges[eid].shape, off)
                key = (round(d, 9), -math.cos(eh - heading), eid)
            if best is None or key < best[0]:
                best = (key, eid, off)
        if best is None or best[0][0] > SNAP_TOLERANCE_M:
            raise OffNetwork(
                f"position {pos} is more than {SNAP_TOLERANCE_M} m from the network"
            )
        return best[1], best[2]

    def next_edges(self, eid: str) -> tuple[str, ...]:
        return self._next[eid]

    def lanes_via(self, start_edge: str, zone_edges: frozenset[str]) -> frozenset[str]:
        """Every lane a directed path from start_edge's head reaches after
        touching zone_edges (start_edge counts as touched if it is a zone
        edge). start_edge itself is in the set only if a loop returns to it.

        One exhaustive BFS over (edge, touched-the-zone-yet) states, kept
        per (start lane, zone): at most lanes x zones answers per graph."""
        key = (start_edge, zone_edges)
        lanes = self._lanes_via.get(key)
        if lanes is None:
            start_touched = start_edge in zone_edges
            seen = {
                (nxt, start_touched or nxt in zone_edges)
                for nxt in self._next[start_edge]
            }
            queue = deque(seen)
            while queue:
                eid, touched = queue.popleft()
                for nxt in self._next[eid]:
                    state = (nxt, touched or nxt in zone_edges)
                    if state not in seen:
                        seen.add(state)
                        queue.append(state)
            lanes = self._lanes_via[key] = frozenset(eid for eid, touched in seen if touched)
        return lanes

    def shortest_path(self, a: str, b: str) -> list[str] | None:
        """Deterministic Dijkstra over edge lengths; returns edge ids or None."""
        if a == b:
            return []
        dist: dict[str, float] = {a: 0.0}
        prev: dict[str, tuple[str, str]] = {}
        heap: list[tuple[float, str]] = [(0.0, a)]
        seen: set[str] = set()
        while heap:
            d, j = heapq.heappop(heap)
            if j in seen:
                continue
            seen.add(j)
            if j == b:
                break
            for eid in self.out_edges.get(j, []):
                e = self.edges[eid]
                nd = d + e.length
                if nd < dist.get(e.head, math.inf) - 1e-12:
                    dist[e.head] = nd
                    prev[e.head] = (j, eid)
                    heapq.heappush(heap, (nd, e.head))
        if b not in prev and b != a:
            return None
        path: list[str] = []
        node = b
        while node != a:
            pj, eid = prev[node]
            path.append(eid)
            node = pj
        path.reverse()
        return path


@dataclass(frozen=True)
class BoundaryPoint:
    edge_id: str
    position: Point
    arc_offset: float


@dataclass
class MixZoneGeometry:
    center: Point
    radius: float
    entry_points: tuple[BoundaryPoint, ...]
    exit_points: tuple[BoundaryPoint, ...]
    internal_paths: dict[tuple[str, str], float]
    edge_ids: frozenset[str] = frozenset()
    max_speed_limit: float = DEFAULT_SPEED_LIMIT_MPS

    def contains(self, pos: Point) -> bool:
        return _dist(pos, self.center) <= self.radius


def _circle_crossings(shape: tuple[Point, ...], center: Point, radius: float):
    """All (arc_offset, point, inward) crossings of a polyline with a circle,
    ordered along the polyline."""
    out = []
    run = 0.0
    cx, cy = center
    for i in range(len(shape) - 1):
        (ax, ay), (bx, by) = shape[i], shape[i + 1]
        dx, dy = bx - ax, by - ay
        seg = math.hypot(dx, dy)
        if seg == 0:
            continue
        fx, fy = ax - cx, ay - cy
        a = dx * dx + dy * dy
        b = 2 * (fx * dx + fy * dy)
        c = fx * fx + fy * fy - radius * radius
        disc = b * b - 4 * a * c
        if disc > 0:
            sq = math.sqrt(disc)
            for t in ((-b - sq) / (2 * a), (-b + sq) / (2 * a)):
                if 0.0 <= t <= 1.0:
                    px, py = ax + t * dx, ay + t * dy
                    # inward iff the polyline is moving closer to the center
                    radial = (px - cx) * dx + (py - cy) * dy
                    inward = radial < 0
                    out.append((run + t * seg, (px, py), inward))
        run += seg
    out.sort(key=lambda rec: rec[0])
    return out


def zone_from_center(
    g: RoadGraph,
    center: Point,
    radius: float,
) -> MixZoneGeometry:
    """Derive a zone's boundary points and internal path lengths from the
    graph. Internal paths run strictly through the disk from an entry
    crossing to an exit crossing, respecting edge direction and the U-turn
    rule."""
    entries: list[BoundaryPoint] = []
    exits: list[BoundaryPoint] = []
    crossings: dict[str, list[tuple[float, Point, bool]]] = {}
    zone_edges: set[str] = set()

    def inside(p: Point) -> bool:
        return _dist(p, center) <= radius

    for eid in sorted(g.edges):
        e = g.edges[eid]
        recs = _circle_crossings(e.shape, center, radius)
        if recs:
            crossings[eid] = recs
            zone_edges.add(eid)
            for off, pt, inward in recs:
                bp = BoundaryPoint(eid, pt, off)
                (entries if inward else exits).append(bp)
        elif inside(e.shape[0]) and inside(e.shape[-1]):
            zone_edges.add(eid)  # fully interior edge

    max_limit = max(
        (g.edges[eid].speed_limit for eid in zone_edges),
        default=DEFAULT_SPEED_LIMIT_MPS,
    )

    def head_inside(eid: str) -> bool:
        return inside(g.edges[eid].shape[-1])

    def first_exit_after(eid: str, off: float) -> tuple[float, Point] | None:
        for o, pt, inward in crossings.get(eid, []):
            if not inward and o > off + 1e-9:
                return o, pt
        return None

    internal: dict[tuple[str, str], float] = {}
    for bp in entries:
        # Dijkstra over edges reachable inside the disk; cost measured from
        # the entry crossing. dist[eid] = cost to the head junction of eid.
        start = bp.edge_id
        direct = first_exit_after(start, bp.arc_offset)
        if direct is not None:
            key = (start, start)
            cost = direct[0] - bp.arc_offset
            if cost < internal.get(key, math.inf):
                internal[key] = cost
        dist: dict[str, float] = {}
        heap: list[tuple[float, str]] = []
        if head_inside(start) and direct is None:
            dist[start] = g.edges[start].length - bp.arc_offset
            heapq.heappush(heap, (dist[start], start))
        done: set[str] = set()
        while heap:
            d, eid = heapq.heappop(heap)
            if eid in done:
                continue
            done.add(eid)
            for nxt in g.next_edges(eid):
                if nxt not in zone_edges:
                    continue
                exit_here = first_exit_after(nxt, -1.0)
                if exit_here is not None:
                    key = (start, nxt)
                    cost = d + exit_here[0]
                    if cost < internal.get(key, math.inf):
                        internal[key] = cost
                    continue  # leaves the disk; do not continue past it
                if head_inside(nxt):
                    nd = d + g.edges[nxt].length
                    if nd < dist.get(nxt, math.inf) - 1e-12:
                        dist[nxt] = nd
                        heapq.heappush(heap, (nd, nxt))

    return MixZoneGeometry(
        center=center,
        radius=radius,
        entry_points=tuple(sorted(entries, key=lambda b: (b.edge_id, b.arc_offset))),
        exit_points=tuple(sorted(exits, key=lambda b: (b.edge_id, b.arc_offset))),
        internal_paths=internal,
        edge_ids=frozenset(zone_edges),
        max_speed_limit=max_limit,
    )


def traverse_time_bounds(
    zone: MixZoneGeometry, g: RoadGraph, v_min: float = DEFAULT_V_MIN_MPS
) -> tuple[float, float]:
    """(min seconds, max seconds) to cross the zone: shortest internal path at
    the highest zone speed limit, longest internal path at the creep floor."""
    if not zone.internal_paths:
        raise ValueError("zone has no internal paths")
    if v_min <= 0:
        raise ValueError("v_min must be positive")
    lengths = zone.internal_paths.values()
    return min(lengths) / zone.max_speed_limit, max(lengths) / v_min


def exit_direction_consistent(
    beacon_pos: Point, beacon_heading: float, zone: MixZoneGeometry
) -> bool:
    """True iff the position sits near some exit point (50 m gate) and the
    heading points away from the zone center."""
    if zone.contains(beacon_pos):
        return False
    if not any(_dist(beacon_pos, xp.position) <= EXIT_PROXIMITY_GATE_M for xp in zone.exit_points):
        return False
    hx, hy = math.cos(beacon_heading), math.sin(beacon_heading)
    rx, ry = beacon_pos[0] - zone.center[0], beacon_pos[1] - zone.center[1]
    return hx * rx + hy * ry > 0


def path_exists(
    g: RoadGraph,
    from_pos: Point,
    to_pos: Point,
    via_zone: MixZoneGeometry,
    from_heading: float | None = None,
    to_heading: float | None = None,
) -> bool:
    """True iff a directed road path runs from the edge under from_pos,
    through the zone disk, to the edge under to_pos. Positions must snap to
    the network within 5 m; headings, when known, pick the matching lane."""
    start_edge, start_off = g.snap(from_pos, heading=from_heading)
    goal_edge, goal_off = g.snap(to_pos, heading=to_heading)
    touches = via_zone.edge_ids

    # a later offset of a zone lane is reached by driving on; an earlier
    # one, or any offset off the zone, needs a loop, which lanes_via finds
    if (
        start_edge == goal_edge
        and start_edge in touches
        and goal_off >= start_off - 1e-9
    ):
        return True
    return goal_edge in g.lanes_via(start_edge, touches)


def make_grid(
    rows: int,
    cols: int,
    spacing: float,
    speed_limit: float = DEFAULT_SPEED_LIMIT_MPS,
) -> RoadGraph:
    """Bidirectional rows x cols grid; the canonical test fixture."""
    if rows < 2 or cols < 2:
        raise ValueError("grid needs at least 2 rows and 2 cols")
    junctions: dict[str, Point] = {}
    for r in range(rows):
        for c in range(cols):
            junctions[f"j{r}_{c}"] = (c * spacing, r * spacing)
    edges: list[Edge] = []

    def link(a: str, b: str) -> None:
        pa, pb = junctions[a], junctions[b]
        for tail, head, pt, ph in ((a, b, pa, pb), (b, a, pb, pa)):
            shape = (pt, ph)
            edges.append(
                Edge(
                    id=f"{tail}__{head}",
                    tail=tail,
                    head=head,
                    shape=shape,
                    speed_limit=speed_limit,
                    length=polyline_length(shape),
                )
            )

    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                link(f"j{r}_{c}", f"j{r}_{c + 1}")
            if r + 1 < rows:
                link(f"j{r}_{c}", f"j{r + 1}_{c}")
    return RoadGraph(junctions, edges)


def central_junctions(g: RoadGraph, k: int, min_separation: float) -> list[str]:
    """The k junctions nearest the network centroid, greedily skipping any
    closer than min_separation to an already chosen one."""
    xs = [p[0] for p in g.junctions.values()]
    ys = [p[1] for p in g.junctions.values()]
    cx, cy = sum(xs) / len(xs), sum(ys) / len(ys)
    ranked = sorted(g.junctions, key=lambda j: (_dist(g.junctions[j], (cx, cy)), j))
    chosen: list[str] = []
    for j in ranked:
        if len(chosen) == k:
            break
        if all(_dist(g.junctions[j], g.junctions[c]) >= min_separation for c in chosen):
            chosen.append(j)
    if len(chosen) < k:
        raise ValueError(f"could not place {k} separated zones")
    return chosen

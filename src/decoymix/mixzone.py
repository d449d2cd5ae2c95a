"""RSU-side mix-zone controller: join handling with session key and filter
delivery, relay selection, peer-length pairing, decoy trajectory planning,
and sparse-traffic chaff. The advert's wire format is defined here; the
engine logs one per zone at every advert tick.

Peer-length pairing swaps declared lengths between the two most recent
joiners, so assigned decoy lengths are always a permutation of a subset of
real member lengths. An unpaired joiner provisionally carries its own length
until the next joiner pairs with it.
"""
from __future__ import annotations

import random
import statistics
import struct
from collections import deque
from dataclasses import dataclass, field

from .core import (
    Credential,
    ENCRYPTION_OVERHEAD_BYTES,
    SESSION_KEY_BYTES,
    SignedEnvelope,
    sign,  # noqa: F401  the traced benchmark patches mixzone.sign by name
    stable_u64,
    verify,
)
from .errors import AuthFailure, DecryptionDenied, StaleRequest
from .roads import MixZoneGeometry, RoadGraph

# advert payload: center x, center y as doubles; radius, timestamp as f32
_ADVERT = struct.Struct("<ddff")
ADVERT_PAYLOAD_BYTES = _ADVERT.size
# join request payload: declared vehicle length, request timestamp
_JOIN_REQUEST = struct.Struct("<dd")
JOIN_REQUEST_PAYLOAD_BYTES = _JOIN_REQUEST.size
JOIN_TIMESTAMP_TOLERANCE_S = 5.0
EXIT_SPEED_HISTORY = 10


def make_join_payload(declared_length_m: float, timestamp_s: float) -> bytes:
    return _JOIN_REQUEST.pack(declared_length_m, timestamp_s)


@dataclass(frozen=True)
class JoinResponse:
    """Session key, filters, and (for relays) a chaff credential plus the
    decoy length to impersonate. Each filter travels as (zone id, epoch,
    serialized size in bytes)."""

    session_key: bytes
    chaff: Credential | None
    peer_length_m: float | None
    filters: tuple[tuple[str, int, int], ...]
    timestamp_s: float

    @property
    def wire_size(self) -> int:
        size = SESSION_KEY_BYTES + sum(nbytes for _, _, nbytes in self.filters)
        if self.chaff is not None:
            size += self.chaff.wire_size
        return size + ENCRYPTION_OVERHEAD_BYTES


@dataclass(frozen=True)
class SealedJoinResponse:
    """JoinResponse keyed to the requesting pseudonym; wrong key cannot open."""

    recipient_key: bytes
    _body: JoinResponse = field(repr=False)

    def open(self, key: bytes) -> JoinResponse:
        if key != self.recipient_key:
            raise DecryptionDenied("key does not match join response recipient")
        return self._body

    @property
    def wire_size(self) -> int:
        return self._body.wire_size


@dataclass
class Assignment:
    chaff: Credential
    requester_id: bytes
    peer_length_m: float
    join_time_s: float
    launched: bool = False


@dataclass
class MemberRecord:
    pseudonym_id: bytes
    join_time_s: float
    declared_length_m: float
    max_cooccupancy: int
    # set once this member's declared length backs some decoy stream
    length_consumed: bool = False


@dataclass(frozen=True)
class DecoyPlan:
    """A phantom vehicle: where it leaves the zone, when, how fast, how long."""

    zone_id: str
    chaff: Credential
    length_m: float
    exit_edge_id: str
    boundary_offset_m: float
    start_time_s: float
    speed_mps: float
    source: str  # "relay" or "rsu"


class MixZoneController:
    def __init__(
        self,
        zone_id: str,
        geometry: MixZoneGeometry,
        graph: RoadGraph,
        session_key: bytes,
        chaff_pool: list[Credential],
        relay_fraction: float,
        traverse_bounds: tuple[float, float],
        beacon_interval_s: float,
        run_seed: int,
        sparse_threshold: int,
        rsu_range_m: float,
    ) -> None:
        self.zone_id = zone_id
        self.geometry = geometry
        self._graph = graph
        self.session_key = session_key
        self.chaff_pool = list(chaff_pool)
        self.relay_fraction = relay_fraction
        self.sparse_threshold = sparse_threshold
        self.rsu_range_m = rsu_range_m
        self._bounds = traverse_bounds
        self._beacon_interval = beacon_interval_s
        self._run_seed = run_seed
        self.members: dict[bytes, MemberRecord] = {}
        self.assignments: dict[bytes, Assignment] = {}
        self._unpaired: bytes | None = None
        self._dwells: list[float] = []
        self._exit_speeds: dict[str, deque[float]] = {}
        self.events: list[tuple[float, str, str]] = []

    # -- join -------------------------------------------------------------

    def handle_join(
        self,
        request: SignedEnvelope,
        requester: Credential,
        requester_pos: tuple[float, float],
        now: float,
        filters: tuple[tuple[str, int, int], ...],
    ) -> SealedJoinResponse:
        """Serve session key and filters; select relays and assign chaff."""
        cx, cy = self.geometry.center
        dx, dy = requester_pos[0] - cx, requester_pos[1] - cy
        if dx * dx + dy * dy > self.rsu_range_m * self.rsu_range_m:
            raise ValueError("requester outside RSU range")
        if not verify(request, requester, now=now):
            raise AuthFailure("join request signature does not verify")
        declared_length, ts = _JOIN_REQUEST.unpack(request.payload)
        if abs(now - ts) > JOIN_TIMESTAMP_TOLERANCE_S:
            raise StaleRequest(f"request timestamp {ts} vs now {now}")

        record = MemberRecord(requester.id, now, declared_length, 0)
        self.members[requester.id] = record
        occupancy = len(self.members)
        for member in self.members.values():
            member.max_cooccupancy = max(member.max_cooccupancy, occupancy)

        peer_length, partner = self._pair_lengths(record)

        chaff: Credential | None = None
        u = random.Random(
            stable_u64(self._run_seed, "relay", self.zone_id, requester.id.hex())
        ).random()
        if u < self.relay_fraction:
            if not self.chaff_pool:
                self.events.append((now, "chaff_pool_empty", requester.id.hex()))
            else:
                chaff = self.chaff_pool.pop(0)
                self.assignments[chaff.id] = Assignment(
                    chaff, requester.id, peer_length, now
                )
                (partner if partner is not None else record).length_consumed = True
        body = JoinResponse(
            self.session_key,
            chaff,
            peer_length if chaff is not None else None,
            filters,
            now,
        )
        return SealedJoinResponse(requester.id, body)

    def _pair_lengths(
        self, newcomer: MemberRecord
    ) -> tuple[float, MemberRecord | None]:
        """Swap declared lengths with the latest unpaired joiner still inside."""
        partner = (
            self.members.get(self._unpaired)
            if self._unpaired is not None and self._unpaired != newcomer.pseudonym_id
            else None
        )
        if partner is None:
            self._unpaired = newcomer.pseudonym_id
            return newcomer.declared_length_m, None
        self._unpaired = None
        for assignment in reversed(list(self.assignments.values())):
            if (
                assignment.requester_id == partner.pseudonym_id
                and not assignment.launched
            ):
                # the partner's provisional self-length becomes a real swap
                assignment.peer_length_m = newcomer.declared_length_m
                newcomer.length_consumed = True
                break
        return partner.declared_length_m, partner

    def assigned_pseudonym(self, chaff_id: bytes) -> bytes | None:
        a = self.assignments.get(chaff_id)
        return a.requester_id if a is not None else None

    # -- decoy planning ---------------------------------------------------

    def _plan(
        self,
        chaff: Credential,
        length_m: float,
        avoid_exit_edge: str | None,
        join_time_s: float,
        exit_time_s: float,
        reference_id: bytes,
        source: str,
    ) -> DecoyPlan:
        rng = random.Random(
            stable_u64(self._run_seed, "decoy", self.zone_id, reference_id.hex())
        )
        exits = [
            bp for bp in self.geometry.exit_points if bp.edge_id != avoid_exit_edge
        ]
        if not exits:
            exits = list(self.geometry.exit_points)
            self.events.append((exit_time_s, "degenerate_single_exit", self.zone_id))
        exits = sorted(exits, key=lambda bp: (bp.edge_id, bp.arc_offset))
        bp = exits[rng.randrange(len(exits))]

        history = self._exit_speeds.get(bp.edge_id)
        if history:
            speed = rng.choice(list(history))
        else:
            speed = self._graph.edges[bp.edge_id].speed_limit / 2.0

        min_s, max_s = self._bounds
        # the transmitter exits at exit_time_s; the phantom cannot exit earlier
        lo = max(min_s, exit_time_s - join_time_s)
        cap = max_s - 2.0 * self._beacon_interval
        hi = min(cap, 2.0 * statistics.median(self._dwells)) if self._dwells else cap
        hi = max(lo, hi)
        dwell = rng.uniform(lo, hi)
        return DecoyPlan(
            self.zone_id,
            chaff,
            length_m,
            bp.edge_id,
            bp.arc_offset,
            join_time_s + dwell,
            speed,
            source,
        )

    def launch_relay_decoy(
        self, chaff_id: bytes, relay_exit_edge: str, now: float
    ) -> DecoyPlan:
        """Plan the phantom a relay starts emitting once it leaves the zone."""
        assignment = self.assignments[chaff_id]
        assignment.launched = True
        return self._plan(
            assignment.chaff,
            assignment.peer_length_m,
            relay_exit_edge,
            assignment.join_time_s,
            now,
            assignment.requester_id,
            "relay",
        )

    def drop_member(self, pseudonym_id: bytes) -> None:
        """Forget a member that vanished inside the zone (trip ended there),
        so it stops counting toward co-occupancy."""
        self.members.pop(pseudonym_id, None)
        if self._unpaired == pseudonym_id:
            self._unpaired = None

    def note_exit(
        self,
        pseudonym_id: bytes,
        exit_edge_id: str,
        exit_speed_mps: float,
        now: float,
        sparse_enabled: bool,
    ) -> DecoyPlan | None:
        """Record a member exit; emit an RSU chaff stream under the sparse
        rule (peak co-occupancy during the stay within threshold)."""
        record = self.members.pop(pseudonym_id)
        self._dwells.append(now - record.join_time_s)
        history = self._exit_speeds.setdefault(
            exit_edge_id, deque(maxlen=EXIT_SPEED_HISTORY)
        )
        history.append(exit_speed_mps)
        if not sparse_enabled or not (
            1 <= record.max_cooccupancy <= self.sparse_threshold
        ):
            return None
        if record.length_consumed:
            # some decoy already impersonates this length; the member is covered
            return None
        if not self.chaff_pool:
            self.events.append((now, "sparse_pool_empty", pseudonym_id.hex()))
            return None
        # RSU-held chaff: never requested by a vehicle, so never resolvable
        chaff = self.chaff_pool.pop(0)
        return self._plan(
            chaff,
            record.declared_length_m,
            exit_edge_id,
            record.join_time_s,
            now,
            pseudonym_id,
            "rsu",
        )

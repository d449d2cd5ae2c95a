"""A run's event log: protocol events as dicts, beacons and per-second
reception summaries as numpy columns.

Beacons and reception summaries are most of a run's records, so they never
become one dict each. The engine logs beacons as blocks of raw columns and
hands over its reception counters, a slot per vehicle second on the road;
finish() rounds every beacon field as it goes on the air, works out which
eavesdroppers heard each beacon, and merges the three streams. Every record
takes a sequence number when it is sent (a block of beacons logged later
reserves its numbers then), and one lexsort over (time, entity, sequence)
gives the order a stable sort of all records by (time, entity) gives.
`EventLog.write_jsonl` writes that order without building the dicts;
`EventLog.records` builds them, as the reference view.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import CAM_WIRE_BYTES, PSEUDONYM_WIRE_BYTES

# Every signed broadcast carries the signer's credential on the wire.
BEACON_WIRE_BYTES = CAM_WIRE_BYTES + PSEUDONYM_WIRE_BYTES

RECEPTION_COUNTERS = (
    "rx_beacons",
    "rx_bytes",
    "checks",
    "verifies",
    "discard_chaff",
    "unknown_pending",
    "peer_queries",
    "peer_unanswered",
)

# one shared compact encoder; json.dumps with separators builds a new one per call
encode_event = json.JSONEncoder(separators=(",", ":")).encode

# a reception_summary record as encode_event writes it, from (t, encoded
# entity, *counts)
_RECEPTION_LINE = (
    '{{"type":"reception_summary","t":{!r},"entity":{}'
    + "".join(f',"{name}":{{}}' for name in RECEPTION_COUNTERS)
    + "}}\n"
)

_PROTOCOL, _BEACON, _RECEPTION = range(3)
_MERGE_BLOCK = 4096

# a logged beacon: sequence number, time, string-table indices, the claimed
# pose as simulated, and the transmitter's position
_RAW_BEACON_COLUMNS = (
    ("seq", np.int64), ("t", np.float64), ("tx", np.int32),
    ("pseudonym", np.int32), ("link", np.int32), ("x", np.float64),
    ("y", np.float64), ("speed", np.float64), ("heading", np.float64),
    ("length", np.float64), ("chaff", np.bool_), ("zone", np.int32),
    ("hx", np.float64), ("hy", np.float64),
)
# decimals each published beacon field carries
_PUBLISHED_DIGITS = (("x", 3), ("y", 3), ("speed", 3), ("heading", 6), ("length", 1))


@dataclass
class BeaconColumns:
    """Every plaintext beacon of a run, vehicle and decoy, one row each in
    output order. tx, pseudonym, link and zone index `names` (zone -1: none);
    observers[i, w] is set when eavesdropper eaves[w] logged row i. Each
    beacon carries BEACON_WIRE_BYTES on the wire."""

    names: list[str]
    eaves: tuple[str, ...]
    t: np.ndarray
    tx: np.ndarray
    pseudonym: np.ndarray
    link: np.ndarray
    x: np.ndarray
    y: np.ndarray
    speed: np.ndarray
    heading: np.ndarray
    length: np.ndarray
    chaff: np.ndarray
    zone: np.ndarray
    observers: np.ndarray


@dataclass
class ReceptionColumns:
    """Each vehicle's reception counters for every second in which any of
    them is nonzero, one row each in output order. vehicle indexes `names`;
    counts has one column per name in RECEPTION_COUNTERS."""

    names: list[str]
    vehicle: np.ndarray
    t: np.ndarray
    counts: np.ndarray

    def count(self, name: str) -> np.ndarray:
        """One counter's column."""
        return self.counts[:, RECEPTION_COUNTERS.index(name)]


@dataclass
class EventLog:
    """Three streams, each in output order; kinds[i] names the stream that
    holds the i-th output record."""

    protocol: list[dict]
    beacons: BeaconColumns
    receptions: ReceptionColumns
    kinds: np.ndarray

    def records(self) -> list[dict]:
        """Every record as a dict, in output order."""
        b, r = self.beacons, self.receptions
        names = b.names + [None]  # zone -1 reads as None
        observers, code = _observer_sets(b)

        def beacon_dicts(lo, hi):
            return [
                {
                    "type": "beacon", "t": t, "tx": names[tx],
                    "pseudonym": names[pid], "link": names[link], "x": x,
                    "y": y, "speed": speed, "heading": heading,
                    "length": length, "chaff": chaff, "zone": names[zone],
                    "bytes": BEACON_WIRE_BYTES, "observers": list(observers[c]),
                }
                for t, tx, pid, link, x, y, speed, heading, length, chaff, zone, c
                in _beacon_rows(b, lo, hi, code)
            ]

        def reception_dicts(lo, hi):
            return [
                {"type": "reception_summary", "t": t, "entity": names[v],
                 **dict(zip(RECEPTION_COUNTERS, counts))}
                for v, t, counts in _reception_rows(r, lo, hi)
            ]

        return [
            e
            for block in self._merged(
                lambda lo, hi: self.protocol[lo:hi], beacon_dicts, reception_dicts
            )
            for e in block
        ]

    def write_jsonl(self, fh) -> None:
        """One compact JSON object per line, byte for byte what encoding
        each of `records()` gives: column rows are formatted directly,
        floats by repr as the JSON encoder does, every string is encoded
        once per distinct value, and so is every value of the beacon
        columns that repeat most (time, speed, heading and length)."""
        b, r = self.beacons, self.receptions
        enc = [encode_event(s) for s in b.names] + ["null"]  # zone -1: null
        observer_sets, code = _observer_sets(b)
        observers = [encode_event(ids) for ids in observer_sets]
        chaff_flag = ("false", "true")
        columns = (
            _Reprs(b.t), b.tx, b.pseudonym, b.link, b.x, b.y, _Reprs(b.speed),
            _Reprs(b.heading), _Reprs(b.length), b.chaff, b.zone, code,
        )

        def protocol_lines(lo, hi):
            return [encode_event(e) + "\n" for e in self.protocol[lo:hi]]

        def beacon_lines(lo, hi):
            return [
                f'{{"type":"beacon","t":{t},"tx":{enc[tx]},'
                f'"pseudonym":{enc[pid]},"link":{enc[link]},"x":{x!r},'
                f'"y":{y!r},"speed":{speed},"heading":{heading},'
                f'"length":{length},"chaff":{chaff_flag[chaff]},'
                f'"zone":{enc[zone]},"bytes":{BEACON_WIRE_BYTES},'
                f'"observers":{observers[c]}}}\n'
                for t, tx, pid, link, x, y, speed, heading, length, chaff, zone, c
                in zip(*(col[lo:hi].tolist() for col in columns))
            ]

        def reception_lines(lo, hi):
            return [
                _RECEPTION_LINE.format(t, enc[v], *counts)
                for v, t, counts in _reception_rows(r, lo, hi)
            ]

        for block in self._merged(protocol_lines, beacon_lines, reception_lines):
            fh.write("".join(block))

    def _merged(self, *render):
        """Blocks of rendered records in output order; render[kind](lo, hi)
        renders rows lo..hi of that stream."""
        start = [0, 0, 0]
        for lo in range(0, self.kinds.size, _MERGE_BLOCK):
            block = self.kinds[lo:lo + _MERGE_BLOCK]
            nexts = []
            for kind, n in enumerate(np.bincount(block, minlength=3).tolist()):
                nexts.append(iter(render[kind](start[kind], start[kind] + n)).__next__)
                start[kind] += n
            yield [nexts[k]() for k in block.tolist()]


def _observer_sets(b: BeaconColumns) -> tuple[list[list[str]], np.ndarray]:
    """The distinct observer lists of the beacons, and each row's index
    into them."""
    if not b.eaves:
        return [[]], np.zeros(b.t.size, dtype=np.int64)
    # one fixed-width byte string per row sorts far faster than unique rows
    packed = np.packbits(b.observers, axis=1)
    distinct, code = np.unique(
        packed.view(f"V{packed.shape[1]}").ravel(), return_inverse=True
    )
    bits = np.unpackbits(
        distinct.view(np.uint8).reshape(distinct.size, packed.shape[1]), axis=1,
        count=len(b.eaves),
    )
    return [[b.eaves[w] for w in np.flatnonzero(row)] for row in bits], code


class _Reprs:
    """A float column's values as reprs: one repr per distinct value, told
    apart by bit pattern so that -0.0 keeps its sign. Slicing gives the
    reprs of those rows as an object array."""

    def __init__(self, col: np.ndarray) -> None:
        distinct, self.code = np.unique(col.view(np.int64), return_inverse=True)
        self.reprs = np.array(
            [repr(v) for v in distinct.view(np.float64).tolist()], dtype=object
        )

    def __getitem__(self, rows: slice) -> np.ndarray:
        return self.reprs[self.code[rows]]


def _beacon_rows(b: BeaconColumns, lo: int, hi: int, code: np.ndarray):
    """Beacon rows lo..hi as Python values, the observer column as the
    index of its distinct observer list."""
    return zip(*(
        col[lo:hi].tolist()
        for col in (b.t, b.tx, b.pseudonym, b.link, b.x, b.y, b.speed,
                    b.heading, b.length, b.chaff, b.zone, code)
    ))


def _reception_rows(r: ReceptionColumns, lo: int, hi: int):
    return zip(
        r.vehicle[lo:hi].tolist(), r.t[lo:hi].tolist(), r.counts[lo:hi].tolist()
    )


def round_array(values, digits: int) -> np.ndarray:
    """round(v, digits) for every element, bit for bit.

    rint(v·10ⁿ)/10ⁿ is round(v, n) wherever v·10ⁿ lies at least 1e-6 from a
    half and below 2³³ in magnitude: there the product's own rounding error
    stays under 1e-6, so it cannot carry the value across the half. Every
    other element, nan and inf included, goes through round."""
    values = np.asarray(values, dtype=np.float64)
    scale = 10.0 ** digits
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan go to round
        scaled = values * scale
        out = np.rint(scaled) / scale
        unsure = ~(np.abs(scaled - np.floor(scaled) - 0.5) >= 1e-6)
    unsure |= ~(np.abs(scaled) < 2.0 ** 33)
    for i in np.flatnonzero(unsure):
        out.flat[i] = round(float(values.flat[i]), digits)
    return out


def name_ranks(names: Sequence[str]) -> np.ndarray:
    """Each string-table index's position in the sorted strings, so that
    comparing ranks compares the strings."""
    rank = np.empty(len(names), dtype=np.int64)
    rank[sorted(range(len(names)), key=names.__getitem__)] = np.arange(len(names))
    return rank


def _event_entity(e: dict) -> str:
    """The entity a record is ordered by after its time."""
    return e.get("tx") or e.get("entity") or e.get("vehicle") or e.get("zone") or ""


class EventLogBuilder:
    """The log as the engine emits it: protocol events as dicts, beacons as
    blocks of raw columns, strings interned in one table. Every record takes
    the next sequence number. finish() publishes the beacons (rounds them as
    they go on the air), works out which eavesdroppers heard each one, and
    sorts every record into output order."""

    def __init__(self, eaves: Sequence[str], ex, ey, er2):
        """eaves are the eavesdropper ids, in order; ex, ey and er2 their
        positions and squared ranges."""
        self.eaves = tuple(eaves)
        self._eaves_disks = (ex, ey, er2)
        self.seq = 0
        self.protocol: list[dict] = []
        self.protocol_seq: list[int] = []
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self._blocks: list[tuple] = []
        self._rows: list[tuple] = []

    def name(self, s: str) -> int:
        """s's index in the string table."""
        i = self._name_index.get(s)
        if i is None:
            i = self._name_index[s] = len(self.names)
            self.names.append(s)
        return i

    def event(self, e: dict) -> None:
        self.protocol.append(e)
        self.protocol_seq.append(self.seq)
        self.seq += 1

    def reserve(self, k: int) -> int:
        """Take the next k sequence numbers for records logged later;
        returns the first."""
        self.seq += k
        return self.seq - k

    def beacons(self, seq, t, tx, pseudonym, link, x, y, speed, heading,
                length, chaff, zone, hx, hy) -> None:
        """Log len(seq) beacons under sequence numbers seq, which reserve()
        handed out. Every other argument holds one value per beacon or one
        for all: the send time, string-table indices for tx, pseudonym, link
        and zone (-1: none), the unrounded claimed pose, and (hx, hy), the
        transmitter's position, which decides who hears it."""
        self._blocks.append((
            seq, t, tx, pseudonym, link, x, y, speed, heading, length, chaff,
            zone, hx, hy,
        ))

    def beacon(self, *row) -> None:
        """Log one beacon under the next sequence number; arguments as for
        beacons() after seq, one value each."""
        self._rows.append((self.seq, *row))
        self.seq += 1
        if len(self._rows) >= _MERGE_BLOCK:
            self._flush_rows()

    def _flush_rows(self) -> None:
        if self._rows:
            self._blocks.append(tuple(np.array(c) for c in zip(*self._rows)))
            self._rows = []

    def _beacon_columns(self) -> dict[str, np.ndarray]:
        """Every logged beacon, raw, in the order the blocks were logged;
        the blocks are released."""
        self._flush_rows()
        ends = np.cumsum([len(b[0]) for b in self._blocks], dtype=np.int64).tolist()
        cols = {}
        for i, (name, dtype) in enumerate(_RAW_BEACON_COLUMNS):
            col = cols[name] = np.empty(ends[-1] if ends else 0, dtype)
            for b, lo, hi in zip(self._blocks, [0, *ends], ends):
                col[lo:hi] = b[i]
        self._blocks = []
        return cols

    def finish(
        self, counters: np.ndarray, vehicle_names: np.ndarray,
        first_sec: np.ndarray, seconds: np.ndarray,
    ) -> tuple[EventLog, dict[str, list[tuple]]]:
        """The merged log and each eavesdropper's observations.

        counters holds one row per name in RECEPTION_COUNTERS and one column,
        or slot, per vehicle second: vehicle i's seconds first_sec[i] to
        first_sec[i] + seconds[i] - 1, in order, vehicles in order;
        vehicle_names[i] is its string-table index. Each slot with any
        nonzero counter is one reception summary, appended last in
        (vehicle, second) order. An observation is (t, pseudonym, x, y,
        speed, heading, length, eavesdropper id), for every beacon the
        eavesdropper heard, in the order the beacons were sent."""
        cols = self._beacon_columns()
        for name, digits in _PUBLISHED_DIGITS:
            cols[name] = round_array(cols[name], digits)
        ex, ey, er2 = self._eaves_disks
        hx, hy = cols.pop("hx"), cols.pop("hy")
        cols["observers"] = (hx[:, None] - ex) ** 2 + (hy[:, None] - ey) ** 2 <= er2
        observations = self._observations(cols)

        slot = np.flatnonzero(counters.any(axis=0))
        rec_counts = np.ascontiguousarray(counters[:, slot].T)
        base = np.cumsum(seconds) - seconds
        vi = np.searchsorted(base, slot, side="right") - 1
        rec_vehicle = vehicle_names[vi]
        rec_t = (slot - base[vi] + first_sec[vi]).astype(np.float64)
        n_pro, n_bea, n_rec = len(self.protocol), cols["t"].size, slot.size

        entity = [self.name(_event_entity(e)) for e in self.protocol]
        rank = name_ranks(self.names)
        t = np.concatenate([
            np.array([e["t"] for e in self.protocol], dtype=np.float64),
            cols["t"], rec_t,
        ])
        entity_rank = rank[np.concatenate([
            np.array(entity, dtype=np.int64), cols["tx"], rec_vehicle,
        ])]
        seq = np.concatenate([
            np.array(self.protocol_seq, dtype=np.int64), cols.pop("seq"),
            np.arange(self.seq, self.seq + n_rec),
        ])
        order = np.lexsort((seq, entity_rank, t))
        kinds = np.repeat(
            np.array([_PROTOCOL, _BEACON, _RECEPTION], dtype=np.uint8),
            [n_pro, n_bea, n_rec],
        )[order]
        b = order[kinds == _BEACON] - n_pro
        r = order[kinds == _RECEPTION] - n_pro - n_bea
        log = EventLog(
            [self.protocol[i] for i in order[kinds == _PROTOCOL].tolist()],
            BeaconColumns(
                self.names, self.eaves, **{name: col[b] for name, col in cols.items()}
            ),
            ReceptionColumns(self.names, rec_vehicle[r], rec_t[r], rec_counts[r]),
            kinds,
        )
        return log, observations

    def _observations(self, cols: dict[str, np.ndarray]) -> dict[str, list[tuple]]:
        """Each eavesdropper's observation tuples, in sending order."""
        sent = np.argsort(cols["seq"], kind="stable")
        t = round_array(cols["t"], 1)
        observations = {}
        for w, eid in enumerate(self.eaves):
            rows = sent[cols["observers"][sent, w]]
            observations[eid] = list(zip(
                t[rows].tolist(),
                [self.names[p] for p in cols["pseudonym"][rows].tolist()],
                *(cols[name][rows].tolist()
                  for name in ("x", "y", "speed", "heading", "length")),
                itertools.repeat(eid),
            ))
        return observations

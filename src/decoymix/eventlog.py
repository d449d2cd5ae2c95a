"""A run's event log: protocol events as dicts; beacons, messages (adverts,
chunks, encrypted beacons, filter answers and deliveries) and per-second
reception summaries as numpy columns.

Beacons, the records that follow from the schedule alone (adverts, chunks
and encrypted beacons), the filters peers and RSUs hand over, and reception
summaries are most of a run's records, so they never become one dict each.
The engine logs them as blocks of raw columns, its vehicle beacons as rows
of its pose columns, and hands over its reception counters, a slot per
vehicle second on the road; finish() gathers every beacon column once,
straight into output order, rounding each field as it goes on the air,
works out which eavesdroppers heard each beacon, and merges the four
streams. The eavesdroppers' share of the published beacons is one more
table, Observations.heard, which is all the attack reads.

Every record carries an order key (key, n). The engine sets `key` to its
tick and phase before it logs a phase's protocol events, and n counts the
events logged, so events of one key keep the order they were logged in; a
block logged at wrap-up or by a phase of its own gives its own keys and n.
The output order is (time, entity, key, n): the vehicle beacons come in it
already, the other records are few and sorted together, and the streams
merge by their (time, entity) codes. `EventLog.write_jsonl` writes that
order without building the dicts, interning the pieces of its lines in
narrow codes; `EventLog.records` builds them, as the reference view.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

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

_PROTOCOL, _BEACON, _MESSAGE, _RECEPTION = range(4)
_MERGE_BLOCK = 1024
# the rows a blocked pass over columns handles at once: 64 KB of int64
ROW_BLOCK = 1 << 13

# the messages, by kind: the records that follow from the schedule alone
# (adverts, chunks and encrypted beacons), a peer's answer to a stale filter
# (peer_filter), and the filter delivered by that peer or by an RSU
# (filter_delivered); a join's deliveries stay protocol events
MESSAGE_TYPES = (
    "advert", "chunk", "beacon_encrypted", "peer_filter", "filter_delivered",
    "filter_delivered",
)
ADVERT, CHUNK, ENCRYPTED, PEER_FILTER, VIA_PEER, VIA_RSU = range(6)

# a logged beacon: order key, time, string-table indices, the claimed pose
# as simulated, and the transmitter's position
_RAW_BEACON_COLUMNS = (
    ("key", np.int64), ("n", np.int64), ("t", np.float64), ("tx", np.int32),
    ("pseudonym", np.int32), ("link", np.int32), ("x", np.float64),
    ("y", np.float64), ("speed", np.float64), ("heading", np.float64),
    ("length", np.float64), ("chaff", np.bool_), ("zone", np.int32),
    ("hx", np.float64), ("hy", np.float64),
)
# a logged message: order key, kind, time, string-table indices of the
# transmitter (a delivery's vehicle), an answer's receiver and the zone,
# wire bytes, the filter epoch of a chunk, answer or delivery, a chunk's
# index and total, an advert's first verifiers, as an index into the
# verifier lists, and an RSU delivery's latency
_MESSAGE_COLUMNS = (
    ("key", np.int64), ("n", np.int64), ("kind", np.uint8), ("t", np.float64),
    ("tx", np.int32), ("rx", np.int32), ("zone", np.int32), ("bytes", np.int64),
    ("epoch", np.int64), ("index", np.int64), ("total", np.int64),
    ("verifiers", np.int32), ("latency_s", np.float64),
)
# decimals each published beacon field carries
_PUBLISHED_DIGITS = {"x": 3, "y": 3, "speed": 3, "heading": 6, "length": 1}

OBSERVATION_HEADER = "time,pseudonym_id,x,y,speed,heading,length,eavesdropper_id"


class ObsRow(NamedTuple):
    """One eavesdropped beacon, as the attack reads it."""

    time_s: float
    pseudonym_id: str
    x: float
    y: float
    speed_mps: float
    heading_rad: float
    length_m: float
    eaves_id: str


@dataclass(eq=False)
class Observations:
    """Every eavesdropped beacon, one row per (beacon, eavesdropper that
    heard it): the attack's only input. Rows are sorted by time, then
    eavesdropper id, then pseudonym; rows equal in all three keep the order
    they were published or read in. pseudonym and eaves index `names`, which
    is sorted, so comparing indices compares the strings."""

    names: list[str]
    t: np.ndarray
    pseudonym: np.ndarray
    x: np.ndarray
    y: np.ndarray
    speed: np.ndarray
    heading: np.ndarray
    length: np.ndarray
    eaves: np.ndarray

    @classmethod
    def build(cls, t, pid_names: Sequence[str], pid_code,
              eaves_names: Sequence[str], eaves_code, take) -> "Observations":
        """The table of rows at times t; row i's pseudonym is
        pid_names[pid_code[i]] and its eavesdropper eaves_names[eaves_code[i]],
        and take(order) gives the x, y, speed, heading and length columns of
        the rows in that order. The given row order breaks ties."""
        names = sorted(set(pid_names) | set(eaves_names))
        pos = {s: i for i, s in enumerate(names)}

        def codes(strings, code):
            return np.array([pos[s] for s in strings], dtype=np.int32)[code]

        pseudonym = codes(pid_names, pid_code)
        eaves = codes(eaves_names, eaves_code)
        order = np.lexsort((pseudonym, eaves, t))
        return cls(names, t[order], pseudonym[order], *take(order), eaves[order])

    @classmethod
    def from_rows(cls, rows: Iterable[tuple]) -> "Observations":
        """The table of (time, pseudonym id, x, y, speed, heading, length,
        eavesdropper id) rows."""
        cols = list(zip(*rows)) or [()] * 8
        t, x, y, speed, heading, length = (
            np.array(cols[i], dtype=np.float64) for i in (0, 2, 3, 4, 5, 6)
        )
        (pids, pid_code), (eids, eaves_code) = (
            np.unique(np.array(cols[i], dtype=object), return_inverse=True)
            for i in (1, 7)
        )
        return cls.build(
            t, pids.tolist(), pid_code, eids.tolist(), eaves_code,
            lambda order: [col[order] for col in (x, y, speed, heading, length)],
        )

    @classmethod
    def heard(cls, b: BeaconColumns) -> "Observations":
        """The table of the published beacons b, one row per beacon and
        eavesdropper that heard it, with time to 0.1 s; rows equal in time,
        eavesdropper and pseudonym keep output order."""
        rows, w = np.nonzero(b.observers)
        pids, pid_code = np.unique(b.pseudonym[rows], return_inverse=True)
        return cls.build(
            round_array(b.t[rows], 1), [b.names[i] for i in pids.tolist()],
            pid_code, b.eaves, w,
            lambda order: [
                col[rows[order]] for col in (b.x, b.y, b.speed, b.heading, b.length)
            ],
        )

    def row(self, i: int) -> ObsRow:
        """Row i as the attack reads it."""
        return ObsRow(
            self.t[i].item(), self.names[self.pseudonym[i]], self.x[i].item(),
            self.y[i].item(), self.speed[i].item(), self.heading[i].item(),
            self.length[i].item(), self.names[self.eaves[i]],
        )

    def write_csv(self, fh) -> None:
        """OBSERVATION_HEADER, then one line per row: time to 0.1 s,
        position and speed to 1 mm, heading to 1 µrad, length to 0.1 m,
        written a merge block of lines at a time. Each distinct time,
        pseudonym and (speed, heading, length, eavesdropper) tail is
        formatted once."""
        names = np.array(self.names, dtype=object)
        mm = "{:.3f}".format
        # bit patterns tell -0.0 from 0.0
        first, tail_code = _distinct(
            self.speed.view(np.int64), self.heading.view(np.int64),
            self.length.view(np.int64), self.eaves,
        )
        tails = np.array([
            f",{speed:.3f},{heading:.6f},{length:.1f},{eid}\n"
            for speed, heading, length, eid in zip(
                self.speed[first].tolist(), self.heading[first].tolist(),
                self.length[first].tolist(), names[self.eaves[first]].tolist(),
            )
        ], dtype=object)
        times = _Reprs(self.t, "{:.1f}".format)
        fh.write(OBSERVATION_HEADER + "\n")
        for lo in range(0, self.t.size, _MERGE_BLOCK):
            hi = lo + _MERGE_BLOCK
            fh.write("".join([
                f"{t},{pid},{mm(x)},{mm(y)}{tail}"
                for t, pid, x, y, tail in zip(
                    times[lo:hi].tolist(), names[self.pseudonym[lo:hi]].tolist(),
                    self.x[lo:hi].tolist(), self.y[lo:hi].tolist(),
                    tails[tail_code[lo:hi]].tolist(),
                )
            ]))


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
class MessageColumns:
    """Every advert, chunk, encrypted beacon, peer's filter answer and
    filter delivered by a peer or an RSU, one row each in output order.
    kind is one of ADVERT to VIA_RSU; tx, rx and zone index `names`. tx
    sends `bytes`, to rx for an answer; a delivery's tx is the vehicle that
    gets the filter. A chunk, answer or delivery carries its filter epoch,
    a chunk its index and total, and an RSU delivery the latency_s it took
    since it began; an advert's first verifiers are
    verifier_lists[verifiers], as string-table indices."""

    names: list[str]
    verifier_lists: list[tuple[int, ...]]
    kind: np.ndarray
    t: np.ndarray
    tx: np.ndarray
    rx: np.ndarray
    zone: np.ndarray
    bytes: np.ndarray
    epoch: np.ndarray
    index: np.ndarray
    total: np.ndarray
    verifiers: np.ndarray
    latency_s: np.ndarray

    def rows(self, lo: int, hi: int):
        """Rows lo..hi as Python values, in column order."""
        return _rows(lo, hi, self.kind, self.t, self.tx, self.rx, self.zone,
                     self.bytes, self.epoch, self.index, self.total,
                     self.verifiers, self.latency_s)


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
    """Four streams, each in output order; kinds[i] names the stream that
    holds the i-th output record."""

    protocol: list[dict]
    beacons: BeaconColumns
    messages: MessageColumns
    receptions: ReceptionColumns
    kinds: np.ndarray

    def records(self) -> list[dict]:
        """Every record as a dict, in output order."""
        b, m, r = self.beacons, self.messages, self.receptions
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
                in _rows(lo, hi, b.t, b.tx, b.pseudonym, b.link, b.x, b.y,
                         b.speed, b.heading, b.length, b.chaff, b.zone, code)
            ]

        def message_dict(kind, t, tx, rx, zone, nbytes, epoch, index, total, v,
                         latency):
            if kind == PEER_FILTER:
                return {"type": "peer_filter", "t": t, "tx": names[tx],
                        "rx": names[rx], "zone": names[zone], "epoch": epoch,
                        "bytes": nbytes}
            if kind in (VIA_PEER, VIA_RSU):
                return {"type": "filter_delivered", "t": t, "vehicle": names[tx],
                        "zone": names[zone], "epoch": epoch,
                        "via": "rsu" if kind == VIA_RSU else "peer",
                        "latency_s": latency if kind == VIA_RSU else None}
            e = {"type": MESSAGE_TYPES[kind], "t": t, "tx": names[tx],
                 "zone": names[zone]}
            if kind == CHUNK:
                e.update(epoch=epoch, index=index, total=total)
            e["bytes"] = nbytes
            if kind == ADVERT:
                e["first_verifiers"] = [names[i] for i in m.verifier_lists[v]]
            return e

        def reception_dicts(lo, hi):
            return [
                {"type": "reception_summary", "t": t, "entity": names[v],
                 **dict(zip(RECEPTION_COUNTERS, counts))}
                for v, t, counts in _rows(lo, hi, r.vehicle, r.t, r.counts)
            ]

        return [
            e
            for block in self._merged(
                lambda lo, hi: self.protocol[lo:hi], beacon_dicts,
                lambda lo, hi: [message_dict(*row) for row in m.rows(lo, hi)],
                reception_dicts,
            )
            for e in block
        ]

    def write_jsonl(self, fh) -> None:
        """One compact JSON object per line, byte for byte what encoding
        each of `records()` gives: column rows are formatted directly,
        floats by repr as the JSON encoder does (a beacon's x and y from
        their whole millimetres, which give the same text), and every
        string is encoded once per distinct value. The pieces of a line
        that repeat most are built once per distinct value too: a beacon's
        time, its fields from tx to "x", and its fields from speed to the
        end; a reception summary's time, and its counters."""
        b, m, r = self.beacons, self.messages, self.receptions
        enc = [encode_event(s) for s in b.names] + ["null"]  # zone -1: null
        observer_sets, code = _observer_sets(b)
        observers = [encode_event(ids) for ids in observer_sets]
        chaff_flag = ("false", "true")
        times = _Reprs(b.t)
        first, head_code = _distinct(b.tx, b.pseudonym, b.link)
        heads = np.array([
            f',"tx":{enc[tx]},"pseudonym":{enc[pid]},"link":{enc[link]},"x":'
            for tx, pid, link in zip(
                b.tx[first].tolist(), b.pseudonym[first].tolist(),
                b.link[first].tolist(),
            )
        ], dtype=object)
        # bit patterns tell -0.0 from 0.0
        first, tail_code = _distinct(
            b.speed.view(np.int64), b.heading.view(np.int64),
            b.length.view(np.int64), b.chaff, b.zone, code,
        )
        tails = np.array([
            f',"speed":{speed!r},"heading":{heading!r},"length":{length!r},'
            f'"chaff":{chaff_flag[chaff]},"zone":{enc[zone]},'
            f'"bytes":{BEACON_WIRE_BYTES},"observers":{observers[c]}}}\n'
            for speed, heading, length, chaff, zone, c in zip(*(
                col[first].tolist()
                for col in (b.speed, b.heading, b.length, b.chaff, b.zone, code)
            ))
        ], dtype=object)
        del first, code

        def protocol_lines(lo, hi):
            return [encode_event(e) + "\n" for e in self.protocol[lo:hi]]

        def beacon_lines(lo, hi):
            return [
                f'{{"type":"beacon","t":{t}{head}{xm}{xf},"y":{ym}{yf}{tail}'
                for t, head, xm, xf, ym, yf, tail in zip(
                    times[lo:hi].tolist(), heads[head_code[lo:hi]].tolist(),
                    *_mm_reprs(b.x[lo:hi]), *_mm_reprs(b.y[lo:hi]),
                    tails[tail_code[lo:hi]].tolist(),
                )
            ]

        verifiers = [
            encode_event([b.names[i] for i in ids]) for ids in m.verifier_lists
        ]

        def message_line(kind, t, tx, rx, zone, nbytes, epoch, index, total, v,
                         latency):
            if kind == PEER_FILTER:
                return (
                    f'{{"type":"peer_filter","t":{t!r},"tx":{enc[tx]},'
                    f'"rx":{enc[rx]},"zone":{enc[zone]},"epoch":{epoch},'
                    f'"bytes":{nbytes}}}\n'
                )
            if kind == VIA_PEER:
                return (
                    f'{{"type":"filter_delivered","t":{t!r},"vehicle":{enc[tx]},'
                    f'"zone":{enc[zone]},"epoch":{epoch},"via":"peer",'
                    f'"latency_s":null}}\n'
                )
            if kind == VIA_RSU:
                return (
                    f'{{"type":"filter_delivered","t":{t!r},"vehicle":{enc[tx]},'
                    f'"zone":{enc[zone]},"epoch":{epoch},"via":"rsu",'
                    f'"latency_s":{latency!r}}}\n'
                )
            head = (
                f'{{"type":"{MESSAGE_TYPES[kind]}","t":{t!r},"tx":{enc[tx]},'
                f'"zone":{enc[zone]}'
            )
            if kind == ENCRYPTED:
                return f'{head},"bytes":{nbytes}}}\n'
            if kind == CHUNK:
                return (
                    f'{head},"epoch":{epoch},"index":{index},"total":{total},'
                    f'"bytes":{nbytes}}}\n'
                )
            return f'{head},"bytes":{nbytes},"first_verifiers":{verifiers[v]}}}\n'

        seconds = _Reprs(r.t)
        first, counts_code = _distinct(*r.counts.T)
        counts = np.array([
            "".join(f',"{name}":{n}' for name, n in zip(RECEPTION_COUNTERS, row))
            + "}\n"
            for row in r.counts[first].tolist()
        ], dtype=object)

        def reception_lines(lo, hi):
            return [
                f'{{"type":"reception_summary","t":{t},"entity":{enc[v]}{c}'
                for v, t, c in zip(
                    r.vehicle[lo:hi].tolist(), seconds[lo:hi].tolist(),
                    counts[counts_code[lo:hi]].tolist(),
                )
            ]

        for block in self._merged(
            protocol_lines, beacon_lines,
            lambda lo, hi: [message_line(*row) for row in m.rows(lo, hi)],
            reception_lines,
        ):
            fh.write("".join(block))

    def _merged(self, *render):
        """Blocks of rendered records in output order; render[kind](lo, hi)
        renders rows lo..hi of that stream."""
        start = [0] * len(render)
        for lo in range(0, self.kinds.size, _MERGE_BLOCK):
            block = self.kinds[lo:lo + _MERGE_BLOCK]
            nexts = []
            counts = np.bincount(block, minlength=len(render)).tolist()
            for kind, n in enumerate(counts):
                nexts.append(iter(render[kind](start[kind], start[kind] + n)).__next__)
                start[kind] += n
            yield [nexts[k]() for k in block.tolist()]


def _observer_sets(b: BeaconColumns) -> tuple[list[list[str]], np.ndarray]:
    """The distinct observer lists of the beacons, and each row's index
    into them."""
    if not b.eaves:
        return [[]], np.zeros(b.t.size, dtype=np.uint8)
    # each row's flags packed eight to a byte
    packed = np.packbits(b.observers, axis=1)
    first, code = _distinct(*packed.T)
    bits = np.unpackbits(packed[first], axis=1, count=len(b.eaves))
    return [[b.eaves[w] for w in np.flatnonzero(row)] for row in bits], code


def row_blocks(n: int) -> list[tuple[int, int]]:
    """Rows lo..hi - 1 of n rows, ROW_BLOCK at a time."""
    return [(lo, min(lo + ROW_BLOCK, n)) for lo in range(0, n, ROW_BLOCK)]


def sorted_distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values, sorted: np.unique by one sort, which beats its
    hashing on the small blocks the passes here work in."""
    values = np.sort(values)
    head = np.ones(values.size, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=head[1:])
    return values[head]


def _table(n: int, values) -> np.ndarray:
    """The sorted distinct values of values(lo, hi) over n rows, gathered
    one row block at a time."""
    return sorted_distinct(np.concatenate(
        [sorted_distinct(values(lo, hi)) for lo, hi in row_blocks(n)]
    ))


def _distinct(*cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of equal-length integer or bool columns: one row
    index holding each, and each row's index among them, in the narrowest
    unsigned dtype that holds it.

    The columns fold in one at a time, a row block at a time: a row's code
    so far times the column's width, plus the column's value as its offset
    from its least value where its values span fewer than the rows, else
    as the index of its distinct value. The codes are renumbered where
    their bound would pass 2**32, and at the end, so no pass holds more
    than one block of int64 codes."""
    n = cols[0].size
    code = np.zeros(n, dtype=np.uint8)
    if not n:
        return np.zeros(0, dtype=np.int64), code
    span = 1

    def renumbered(key) -> tuple[np.ndarray, int]:
        keys = _table(n, key)
        out = np.empty(n, dtype=np.min_scalar_type(keys.size - 1))
        for lo, hi in row_blocks(n):
            out[lo:hi] = np.searchsorted(keys, key(lo, hi))
        return out, keys.size

    for col in cols:
        least, most = col.min().item(), col.max().item()
        if most - least < n:
            values, width = None, most - least + 1
        else:
            values = _table(n, lambda lo, hi, col=col: col[lo:hi])
            width = values.size

        def key(lo, hi, code=code, col=col, least=least, values=values, width=width):
            c = col[lo:hi]
            c = c.astype(np.int64) - least if values is None else np.searchsorted(values, c)
            return code[lo:hi].astype(np.int64) * width + c

        if span * width < 1 << 32:
            # a first column's distinct-value indices number its rows already
            dense = span == 1 and values is not None
            code = np.empty(n, dtype=np.min_scalar_type(span * width - 1))
            for lo, hi in row_blocks(n):
                code[lo:hi] = key(lo, hi)
            span *= width
        else:
            code, span = renumbered(key)
            dense = True
    if not dense:
        code, span = renumbered(lambda lo, hi: code[lo:hi])
    first = np.empty(span, dtype=np.int64)
    for lo, hi in row_blocks(n):
        first[code[lo:hi]] = np.arange(lo, hi)
    return first, code


class _Reprs:
    """A float column's values as text, repr unless told otherwise: one
    string per distinct value, told apart by bit pattern so that -0.0 keeps
    its sign. Slicing gives the strings of those rows as an object array."""

    def __init__(self, col: np.ndarray, fmt=repr) -> None:
        first, self.code = _distinct(col.view(np.int64))
        self.reprs = np.array([fmt(v) for v in col[first].tolist()], dtype=object)

    def __getitem__(self, rows: slice) -> np.ndarray:
        return self.reprs[self.code[rows]]


# a whole number of millimetres' fraction of a metre as repr writes it
_MM_FRACTIONS = np.array(
    [f".{f:03d}".rstrip("0") if f else ".0" for f in range(1000)], dtype=object
)


def _mm_reprs(col: np.ndarray) -> tuple[list[str], list[str]]:
    """Each value's repr, as a head and a tail that concatenate to it.

    A value from 0 to below 1e12 that is the double nearest a whole number
    of millimetres is that decimal of at most 15 significant digits, which
    repr writes as it is: its whole metres, then its fraction from a table.
    Any other value, -0.0, nan and inf included, is its repr with an empty
    tail."""
    with np.errstate(invalid="ignore"):
        mm = np.rint(col * 1000.0)
        on_grid = (mm / 1000.0 == col) & (col < 1e12) & ~np.signbit(col)
    metres, frac = np.divmod(np.where(on_grid, mm, 0.0).astype(np.int64), 1000)
    heads = [str(m) for m in metres.tolist()]
    tails = _MM_FRACTIONS[frac].tolist()
    for i in np.flatnonzero(~on_grid).tolist():
        heads[i], tails[i] = repr(col[i].item()), ""
    return heads, tails


def _rows(lo: int, hi: int, *cols: np.ndarray):
    """Rows lo..hi of equal-length columns as Python values, in column
    order; a row of a 2-d column is one list."""
    return zip(*(col[lo:hi].tolist() for col in cols))


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
    """The log as the engine emits it: protocol events as dicts; beacons
    and messages as blocks of raw columns, vehicle beacons as pose rows;
    strings interned in one table. A protocol event takes the current
    `key`, and its place among the events as n. finish() publishes the
    beacons (rounds them as they go on the air), works out which
    eavesdroppers heard each one, and merges every record into output
    order."""

    def __init__(self, eaves: Sequence[str], ex, ey, er2):
        """eaves are the eavesdropper ids, in order; ex, ey and er2 their
        positions and squared ranges."""
        self.eaves = tuple(eaves)
        self._eaves_disks = (ex, ey, er2)
        # the order key of the protocol events logged next
        self.key = 0
        self.protocol: list[dict] = []
        self._protocol_keys: list[int] = []
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.verifier_lists: list[tuple[int, ...]] = [()]
        self._verifier_index: dict[tuple[int, ...], int] = {(): 0}
        self._blocks: list[list] = []
        self._messages: list[list] = []
        # the vehicle beacons: pose rows, pseudonyms and link ids, and the
        # pose columns they are read from
        self._rows = np.zeros(0, dtype=np.int64)
        self._row_pid = self._row_link = np.zeros(0, dtype=np.int32)
        self._poses: dict[str, np.ndarray] = {}

    def name(self, s: str) -> int:
        """s's index in the string table."""
        i = self._name_index.get(s)
        if i is None:
            i = self._name_index[s] = len(self.names)
            self.names.append(s)
        return i

    def verifiers(self, ids: tuple[int, ...]) -> int:
        """The index of a list of string-table indices among the verifier
        lists."""
        i = self._verifier_index.get(ids)
        if i is None:
            i = self._verifier_index[ids] = len(self.verifier_lists)
            self.verifier_lists.append(ids)
        return i

    def event(self, e: dict) -> None:
        self.protocol.append(e)
        self._protocol_keys.append(self.key)

    def beacons(self, key, n, t, tx, pseudonym, link, x, y, speed, heading,
                length, chaff, zone, hx, hy) -> None:
        """Log len(key) beacons under order keys (key, n). Every other
        argument holds one value per beacon or one for all: the send time,
        string-table indices for tx, pseudonym, link and zone (-1: none),
        the unrounded claimed pose, and (hx, hy), the transmitter's
        position, which decides who hears it."""
        self._blocks.append([
            key, n, t, tx, pseudonym, link, x, y, speed, heading, length, chaff,
            zone, hx, hy,
        ])

    def message(self, kind, key, n, t, tx, zone, nbytes=0, *, rx=-1, epoch=0,
                index=0, total=0, verifiers=0, latency_s=0.0) -> None:
        """Log len(key) messages of one kind (ADVERT to VIA_RSU) under order
        keys (key, n); the other arguments hold one value per message or one
        for all, as in MessageColumns, verifiers as returned by verifiers().
        A phase that logs answers or deliveries logs no protocol event under
        the same key, so n need only order them among themselves."""
        self._messages.append([
            key, n, kind, t, tx, rx, zone, nbytes, epoch, index, total,
            verifiers, latency_s,
        ])

    def vehicle_beacons(self, rows, pseudonym, link, poses: RowPoses) -> None:
        """Log a plaintext beacon, in no zone, from each of pose rows `rows`
        (ascending), sent under pseudonym[i] and link[i] (string-table
        indices) and the order key (its tick's key, its row). Called once:
        the log holds the pose columns from then on, and finish() drops
        each as soon as it has read it for the last time."""
        self._rows, self._row_pid, self._row_link = rows, pseudonym, link
        self._poses = poses._asdict()

    def finish(
        self, counters: np.ndarray, vehicle_names: np.ndarray,
        first_sec: np.ndarray, seconds: np.ndarray,
    ) -> EventLog:
        """The merged log.

        counters holds one row per name in RECEPTION_COUNTERS and one column,
        or slot, per vehicle second: vehicle i's seconds first_sec[i] to
        first_sec[i] + seconds[i] - 1, in order, vehicles in order;
        vehicle_names[i] is its string-table index. Each slot with any
        nonzero counter is one reception summary, ordered after every other
        record of its (time, vehicle), in (vehicle, second) order. The
        counters are reordered in place into the summaries' counts.

        The vehicle beacons come in output order already; the protocol
        events, the other beacons and the messages are few, and sorted
        together. Both sequences and the summaries merge by each record's
        (time, entity) code, so no pass sorts the whole log."""
        entity = [self.name(_event_entity(e)) for e in self.protocol]
        rank = name_ranks(self.names)
        raw = _columns(self._blocks, _RAW_BEACON_COLUMNS)
        msgs = _columns(self._messages, _MESSAGE_COLUMNS)
        self._blocks = self._messages = []
        poses = self._poses
        n_veh, n_p, n_raw = self._rows.size, len(self.protocol), raw["t"].size

        # a record's (time, entity) code: its time's index among every
        # time the log can hold, times the names, plus its entity's rank
        p_t = np.array([e["t"] for e in self.protocol], dtype=np.float64)
        tick_t = poses.get("tick_t", np.zeros(0))
        last = first_sec + seconds
        times = np.unique(np.concatenate([
            p_t, raw["t"], msgs["t"], tick_t,
            np.arange(first_sec.min(initial=0), last.max(initial=0), dtype=np.float64),
        ]))
        width = len(self.names)
        code_type = np.int32 if times.size * width < 1 << 31 else np.int64

        def codes(t, ent):
            return (np.searchsorted(times, t) * width + rank[ent]).astype(code_type)

        # the vehicle beacons' codes, which must ascend
        veh_code = np.empty(n_veh, dtype=code_type)
        if n_veh:
            tick_lo, tick_key = poses["tick_lo"], poses["tick_key"]
            tick_code = np.searchsorted(times, tick_t) * width
            vehicle, names = poses["vehicle"], poses["names"]
            for lo, hi in row_blocks(n_veh):
                r = self._rows[lo:hi]
                veh_code[lo:hi] = (
                    tick_code[_tick_of(tick_lo, r)] + rank[names[vehicle[r]]]
                )
            del vehicle, names
            if np.any(veh_code[1:] <= veh_code[:-1]):
                raise ValueError(
                    "vehicle beacons must come in (tick, vehicle name) order"
                )

        # the protocol events, raw beacons and messages, sorted together by
        # their full order keys; the stream breaks ties, in that order
        small_key = np.concatenate([self._protocol_keys, raw["key"], msgs["key"]])
        small_n = np.concatenate([np.arange(n_p), raw["n"], msgs["n"]])
        small_t = np.concatenate([p_t, raw["t"], msgs["t"]])
        small_ent = np.concatenate(
            [np.array(entity, dtype=np.int64), raw["tx"], msgs["tx"]]
        )
        del p_t, entity, raw["key"], raw["n"], msgs["key"], msgs["n"]
        order = np.lexsort((small_n, small_key, rank[small_ent], small_t))
        small_code = codes(small_t[order], small_ent[order])
        small_key, small_n = small_key[order], small_n[order]
        del small_t, small_ent
        kind = np.repeat(
            np.array([_PROTOCOL, _BEACON, _MESSAGE], dtype=np.uint8),
            [n_p, n_raw, msgs["t"].size],
        )[order]
        # the vehicle beacons before each: those of a lesser code, and the
        # one of its code, if any, where that one's (key, n) is less; a
        # message follows a vehicle beacon equal in all four, the others
        # precede it
        veh_before = np.searchsorted(veh_code, small_code)
        if n_veh:
            at = np.minimum(veh_before, n_veh - 1)
            r = self._rows[at]
            r_key = tick_key[_tick_of(tick_lo, r)]
            veh_before += (veh_code[at] == small_code) & (
                (r_key < small_key) | (r_key == small_key) & (
                    (r < small_n) | (r == small_n) & (kind == _MESSAGE)
                )
            )
            del at, r, r_key
        del small_key, small_n
        protocol = [self.protocol[i] for i in order[kind == _PROTOCOL].tolist()]
        m_order = order[kind == _MESSAGE] - n_p - n_raw
        is_raw = kind == _BEACON
        raw_order = order[is_raw] - n_p
        # each raw beacon's place among the beacons
        raw_before = veh_before[is_raw]
        raw_pos = np.arange(raw_order.size) + raw_before
        del order, is_raw

        # the reception summaries, in (code, slot) order, each after every
        # record of a code not above its own
        slot = np.flatnonzero(counters.any(axis=0))
        base = np.cumsum(seconds) - seconds
        vi = np.searchsorted(base, slot, side="right") - 1
        rec_vehicle = vehicle_names[vi]
        rec_t = slot - base[vi] + first_sec[vi]
        del base, vi
        rec_code = codes(rec_t, rec_vehicle)
        rec_order = np.argsort(rec_code, kind="stable")
        rec_code = rec_code[rec_order]
        rec_pos = (
            np.arange(rec_code.size) + np.searchsorted(veh_code, rec_code, side="right")
            + np.searchsorted(small_code, rec_code, side="right")
        )
        del rec_code, veh_code, small_code
        kinds = np.full(n_veh + kind.size + rec_pos.size, _RECEPTION, dtype=np.uint8)
        others = np.ones(kinds.size, dtype=bool)
        others[rec_pos] = False
        del rec_pos
        rest = np.full(n_veh + kind.size, _BEACON, dtype=np.uint8)
        rest[np.arange(kind.size) + veh_before] = kind
        kinds[others] = rest
        del others, rest, kind, veh_before
        # the counters reordered in place, each row through one copy
        slot = slot[rec_order]
        for c in counters:
            c[:slot.size] = c[slot]
        receptions = ReceptionColumns(
            self.names, rec_vehicle[rec_order], rec_t[rec_order].astype(np.float64),
            counters[:, :slot.size].T,
        )
        del slot, rec_order, rec_vehicle, rec_t

        messages = MessageColumns(
            self.names, self.verifier_lists, **_permuted(msgs, m_order)
        )
        beacons = self._beacon_columns(raw, raw_order, raw_pos, raw_before)
        return EventLog(protocol, beacons, messages, receptions, kinds)

    def _beacon_columns(self, raw, raw_order, raw_pos, raw_before) -> BeaconColumns:
        """Every beacon's published columns, gathered once each straight
        into output order, raw beacon raw_order[j] at raw_pos[j] and vehicle
        beacon i after the raw_before[j] <= i. Each pose column is dropped
        as soon as its last gather is done."""
        rows, poses = self._rows, self._poses
        self._rows, self._poses = np.zeros(0, dtype=np.int64), {}
        n = rows.size + raw_order.size
        # each vehicle beacon's place among the beacons
        place = np.empty(rows.size, dtype=np.min_scalar_type(max(n - 1, 0)))
        for lo, hi in row_blocks(rows.size):
            i = np.arange(lo, hi)
            place[lo:hi] = i + np.searchsorted(raw_before, i, side="right")

        def vehicle_blocks():
            """Blocks of vehicle beacons: their pose rows and places."""
            for lo, hi in row_blocks(rows.size):
                yield rows[lo:hi], lo, hi, place[lo:hi]

        def column(name, dtype, vehicle_values, digits=None):
            col = np.empty(n, dtype)
            from_raw = raw.pop(name)
            for lo, hi in row_blocks(raw_order.size):
                col[raw_pos[lo:hi]] = from_raw[raw_order[lo:hi]]
            del from_raw
            for r, lo, hi, pos in vehicle_blocks():
                col[pos] = vehicle_values(r, lo, hi)
            if digits is not None:
                for lo, hi in row_blocks(n):
                    col[lo:hi] = round_array(col[lo:hi], digits)
            return col

        ex, ey, er2 = self._eaves_disks

        def heard(hx, hy):
            return (hx[:, None] - ex) ** 2 + (hy[:, None] - ey) ** 2 <= er2

        observers = np.empty((n, len(self.eaves)), dtype=bool)
        hx, hy = raw.pop("hx"), raw.pop("hy")
        for lo, hi in row_blocks(raw_order.size):
            j = raw_order[lo:hi]
            observers[raw_pos[lo:hi]] = heard(hx[j], hy[j])
        del hx, hy
        for r, _, _, pos in vehicle_blocks():
            observers[pos] = heard(poses["x"][r], poses["y"][r])
        cols = {}
        for name in ("x", "y", "speed", "heading"):
            values = poses.pop(name, None)
            cols[name] = column(
                name, np.float64, lambda r, lo, hi: values[r], _PUBLISHED_DIGITS[name]
            )
            del values
        vehicle, names = poses.pop("vehicle", None), poses.pop("names", None)
        length = poses.pop("length", None)
        cols["length"] = column(
            "length", np.float64, lambda r, lo, hi: length[vehicle[r]],
            _PUBLISHED_DIGITS["length"],
        )
        cols["tx"] = column("tx", np.int32, lambda r, lo, hi: names[vehicle[r]])
        del vehicle, names, length
        tick_lo, tick_t = poses.get("tick_lo"), poses.get("tick_t")
        cols["t"] = column(
            "t", np.float64, lambda r, lo, hi: tick_t[_tick_of(tick_lo, r)]
        )
        pid, link = self._row_pid, self._row_link
        self._row_pid = self._row_link = None
        cols["pseudonym"] = column("pseudonym", np.int32, lambda r, lo, hi: pid[lo:hi])
        cols["link"] = column("link", np.int32, lambda r, lo, hi: link[lo:hi])
        del pid, link
        cols["chaff"] = column("chaff", np.bool_, lambda r, lo, hi: False)
        cols["zone"] = column("zone", np.int32, lambda r, lo, hi: -1)
        return BeaconColumns(self.names, self.eaves, observers=observers, **cols)


class RowPoses(NamedTuple):
    """The vehicles' pose rows, which their plaintext beacons go out from.
    Rows are tick-major: tick k's are tick_lo[k] to tick_lo[k + 1] - 1, one
    per vehicle on the road, vehicles in the order of their names. Row r
    holds vehicle vehicle[r]'s simulated pose; vehicle i is names[i] in the
    string table and length[i] m long. Tick k's beacons go out at time
    tick_t[k] under order key tick_key[k]."""

    tick_lo: np.ndarray
    tick_t: np.ndarray
    tick_key: np.ndarray
    x: np.ndarray
    y: np.ndarray
    speed: np.ndarray
    heading: np.ndarray
    vehicle: np.ndarray
    names: np.ndarray
    length: np.ndarray


def _tick_of(tick_lo: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Each pose row's tick."""
    return np.searchsorted(tick_lo, rows, side="right") - 1


def _columns(blocks: list[list], spec) -> dict[str, np.ndarray]:
    """Blocks of raw columns, each block's first column an array and the
    others arrays or scalars, as one array per (name, dtype) of spec, in the
    order the blocks were logged. Each field is dropped from every block as
    soon as it is copied, so no field is held twice."""
    ends = np.cumsum([len(b[0]) for b in blocks], dtype=np.int64).tolist()
    cols = {}
    for i, (name, dtype) in enumerate(spec):
        col = cols[name] = np.empty(ends[-1] if ends else 0, dtype)
        for b, lo, hi in zip(blocks, [0, *ends], ends):
            col[lo:hi] = b[i]
            b[i] = None
    return cols


def _permuted(cols: dict[str, np.ndarray], order: np.ndarray) -> dict[str, np.ndarray]:
    """Every column's rows in order, each popped from cols as it goes."""
    return {name: cols.pop(name)[order] for name in list(cols)}

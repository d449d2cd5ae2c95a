"""The columnar event log against its dict reference view.

Beacons, periodic records, filter answers and deliveries, and reception
summaries are kept as numpy columns and written without building a dict per
record; `RunResult.events` rebuilds every record as a dict. These tests hold
the fast path to that reference: the rounding helper to `round`, the JSONL
export to encoding each dict, and the CLI's reports to the ones built from
the dicts.
"""
from __future__ import annotations

import io
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decoymix.adversary import export_candidate_sets, parse_observation_csv
from decoymix import cli, engine, eventlog, metrics
from decoymix.cli import attack_result, cell_reports
from decoymix.engine import run
from decoymix.eventlog import (
    ADVERT,
    CHUNK,
    ENCRYPTED,
    PEER_FILTER,
    RECEPTION_COUNTERS,
    VIA_PEER,
    VIA_RSU,
    OBSERVATION_HEADER,
    EventLog,
    EventLogBuilder,
    Observations,
    RowPoses,
    _distinct,
    _mm_reprs,
    encode_event,
    round_array,
)
from decoymix.metrics import (
    build_linkability_report,
    overhead,
    write_linkability_csv,
    write_overhead_csv,
)
from decoymix.mobility import Trip
from decoymix.roads import make_grid
from decoymix.scenario import EavesdropperSpec, ScenarioConfig, ZoneSpec

import test_golden

# ---------------------------------------------------------------------------
# round_array


def _decimal_halves(digits: int):
    """Doubles nearest to k + 0.5 units of the last kept digit, |v| <= 1e4."""
    unit = 10 ** digits
    return st.integers(-(10 ** 4) * unit, 10 ** 4 * unit - 1).map(
        lambda k: (2 * k + 1) / (2 * unit)
    )


def _near(values):
    """A value or one of its nextafter neighbours, up to three steps away."""
    return st.tuples(values, st.integers(-3, 3)).map(_step)


def _step(pair):
    v, steps = pair
    toward = math.inf if steps > 0 else -math.inf
    for _ in range(abs(steps)):
        v = math.nextafter(v, toward)
    return v


def _values(digits: int):
    return st.one_of(
        st.floats(-1e4, 1e4, allow_nan=False),
        st.floats(-10.0, 10.0, allow_nan=False),
        _near(_decimal_halves(digits)),
        st.just(-0.0),
        st.just(0.0),
    )


def _bits(a) -> list[int]:
    return np.asarray(a, dtype=np.float64).view(np.int64).tolist()


@pytest.mark.parametrize("digits", [1, 3, 6])
@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_round_array_matches_round_bit_for_bit(digits, data):
    values = data.draw(st.lists(_values(digits), min_size=1, max_size=40))
    expected = [round(v, digits) for v in values]
    # the bit patterns tell -0.0 from 0.0
    assert _bits(round_array(values, digits)) == _bits(expected)


@pytest.mark.parametrize("digits", [1, 3, 6])
def test_round_array_at_exact_halves_and_their_neighbours(digits):
    unit = 10 ** digits
    halves = [(2 * k + 1) / (2 * unit) for k in range(-2000, 2000)]
    halves += [(2 * k + 1) / (2 * unit) for k in (10 ** 4 * unit - 1, -(10 ** 4) * unit)]
    values = []
    for h in halves:
        values += [math.nextafter(h, -math.inf), h, math.nextafter(h, math.inf)]
    values += [-0.0, 0.0, -1e-9, 1e-9, 1e4, -1e4]
    expected = [round(v, digits) for v in values]
    assert _bits(round_array(values, digits)) == _bits(expected)


@pytest.mark.parametrize("digits", [1, 3, 6])
def test_round_array_defers_to_round_at_large_magnitudes(digits):
    # past 2**52 every scaled value is an integer and rint(v*10**n)/10**n no
    # longer rounds v itself
    rng = random.Random(digits)
    values = [
        rng.choice((-1.0, 1.0)) * 2.0 ** rng.uniform(30, 60) * rng.random()
        for _ in range(3000)
    ]
    values += [math.inf, -math.inf, 1e300]
    expected = [round(v, digits) for v in values]
    assert _bits(round_array(values, digits)) == _bits(expected)


# ---------------------------------------------------------------------------
# export and reports against the dict view

CRUISE = 13.89
ARMS = (
    ("j0_1__j1_1", "j1_1__j2_1"),
    ("j2_1__j1_1", "j1_1__j0_1"),
    ("j1_0__j1_1", "j1_1__j1_2"),
    ("j1_2__j1_1", "j1_1__j1_0"),
)
# ids that JSON must escape: a quote, a backslash and non-ASCII letters
ODD_ZONE = 'z-"q\\é'
ODD_EAVES = 'eav-"\\ü'


def _crossing() -> ScenarioConfig:
    """The C12 four-arm crossing."""
    return ScenarioConfig(
        graph=make_grid(3, 3, 500.0),
        zones=(ZoneSpec("z-c", 500.0, 500.0, 100.0),),
        eavesdroppers=(EavesdropperSpec("eav-c", 500.0, 500.0, 600.0),),
        trips=tuple(
            Trip(f"veh-{i}", 0.0, edges, (CRUISE, CRUISE), 4.5)
            for i, edges in enumerate(ARMS)
        ),
        relay_fraction=1.0, rng_seed=0, duration_s=180.0,
    )


def _odd_ids() -> ScenarioConfig:
    """Synthesized traffic through one zone, ids that need escaping."""
    return ScenarioConfig(
        graph=make_grid(3, 3, 500.0),
        zones=(ZoneSpec(ODD_ZONE, 500.0, 500.0, 100.0),),
        eavesdroppers=(
            EavesdropperSpec(ODD_EAVES, 500.0, 500.0, 450.0),
            EavesdropperSpec("eav-plain", 0.0, 500.0, 400.0),
        ),
        n_vehicles=10, arrival_rate_per_s=0.15,
        relay_fraction=1.0, rng_seed=3, duration_s=150.0,
    )


def _report_text(sets, link_rep, over_rep) -> str:
    buf = io.StringIO()
    export_candidate_sets(sets, buf)
    write_linkability_csv({"cell": link_rep}, buf)
    write_overhead_csv(over_rep, buf)
    return buf.getvalue() + link_rep.to_json() + over_rep.to_json()


@pytest.mark.parametrize("make_config, routes", [
    (_crossing, {"rsu"}),
    (_odd_ids, {"rsu", "peer"}),
    (test_golden.grid_cell_config, {"rsu", "peer", "join"}),
], ids=["c12", "odd-ids", "grid-cell"])
def test_columns_reproduce_the_dict_view(make_config, routes):
    result = run(make_config())

    buf = io.StringIO()
    result.export_events(buf)
    events = result.events
    assert buf.getvalue() == "".join(encode_event(e) + "\n" for e in events)

    sets, link_rep, over_rep = cell_reports(result)
    ref_sets, chains, tracks = attack_result(result)
    ref_link = build_linkability_report(
        result.transitions, ref_sets, chains, tracks, events
    )
    ref_over = overhead(events, result.config.duration_s)
    assert link_rep == ref_link
    assert over_rep == ref_over
    assert _report_text(sets, link_rep, over_rep) == _report_text(
        ref_sets, ref_link, ref_over
    )

    # every column path is exercised: vehicle and decoy beacons, observed
    # ones, reception summaries with peer queries or checks, encrypted
    # beacons, adverts heard first by none and by several vehicles, and
    # chunks (of two filter epochs in the crossing, where relays retire)
    beacons = [e for e in events if e["type"] == "beacon"]
    assert any(e["type"] == "beacon_encrypted" for e in events)
    heard_first = {len(e["first_verifiers"]) for e in events if e["type"] == "advert"}
    assert 0 in heard_first and max(heard_first) > 1
    epochs = {e["epoch"] for e in events if e["type"] == "chunk"}
    assert len(epochs) > 1 or make_config is _odd_ids
    assert any(e["chaff"] and e["zone"] for e in beacons)
    assert any(not e["chaff"] and e["zone"] is None for e in beacons)
    assert any(e["observers"] for e in beacons)
    if len(result.config.eavesdroppers) > 1:  # observer order is exercised
        assert any(len(e["observers"]) > 1 for e in beacons)
    assert any(e["type"] == "reception_summary" for e in events)
    # filters delivered by each route the config takes: RSU deliveries (at
    # a non-integer latency but in the crossing), peer answers with their
    # deliveries, and join deliveries, the only ones kept as protocol events
    delivered = [e for e in events if e["type"] == "filter_delivered"]
    assert {e["via"] for e in delivered} == routes
    assert any(e["type"] == "peer_filter" for e in events) == ("peer" in routes)
    assert any(
        e["latency_s"] % 1.0 for e in delivered if e["via"] == "rsu"
    ) or make_config is _crossing
    assert all(e["latency_s"] is None for e in delivered if e["via"] != "rsu")
    assert not any(
        e["type"] == "peer_filter" or e.get("via") in ("rsu", "peer")
        for e in result.log.protocol
    )


def test_run_without_beacons_reproduces_the_dict_view():
    # eavesdroppers listen, but no vehicle ever drives: RSU records only
    cfg = _odd_ids().replaced(n_vehicles=0)
    result = run(cfg)
    buf = io.StringIO()
    result.export_events(buf)
    assert result.log.beacons.t.size == 0
    assert result.events and {e["type"] for e in result.events} <= {
        "advert", "chunk",
    }
    assert buf.getvalue() == "".join(encode_event(e) + "\n" for e in result.events)
    assert cell_reports(result)[2] == overhead(result.events, cfg.duration_s)


def test_odd_ids_are_escaped_in_the_export():
    result = run(_odd_ids())
    buf = io.StringIO()
    result.export_events(buf)
    text = buf.getvalue()
    assert text.isascii()
    assert '"zone":"z-\\"q\\\\\\u00e9"' in text
    assert '"observers":["eav-\\"\\\\\\u00fc"' in text


def test_millimetre_texts_are_the_reprs():
    # write_jsonl writes a beacon's x and y from their whole millimetres
    # wherever that is repr's text, and by repr everywhere else
    rng = np.random.default_rng(23)
    special = [
        0.0, -0.0, 0.001, 0.1, 999999999999.999, 1e12, 1e12 + 0.125, -0.001,
        -1234.5, -1e15, math.nan, math.inf, -math.inf, 0.0005, 1 / 3, 5e-324,
        1e-7, 12.3456, 2.0 ** 52,
    ]
    col = np.concatenate([
        special,
        rng.integers(0, 10 ** 7, 10_000) / 1000.0,
        rng.integers(0, 10 ** 15, 1_000) / 1000.0,
        -rng.integers(0, 10 ** 7, 1_000) / 1000.0,
    ])
    heads, tails = _mm_reprs(col)
    assert [h + t for h, t in zip(heads, tails)] == [repr(v) for v in col.tolist()]


def test_repeated_and_signed_zero_beacon_values_are_written_as_encoded():
    # a log built the way the engine builds one, with beacon times, speeds,
    # headings and lengths drawn from a few values each, 0.0 and -0.0 among
    # the headings and speeds: write_jsonl formats these columns from one
    # repr per distinct value, which must keep the sign of zero
    rng = random.Random(7)
    log = EventLogBuilder(
        ["eav-a", "eav-b"], np.array([0.0, 600.0]), np.array([0.0, 0.0]),
        np.array([400.0 ** 2, 400.0 ** 2]),
    )
    vehicles = np.array([log.name(f"veh-{i}") for i in range(5)], dtype=np.int32)
    pids = np.array([log.name(f"p-{i}") for i in range(5)], dtype=np.int32)
    headings = (0.0, -0.0, math.pi, -math.pi / 2, 1.2345678)
    speeds = (0.0, -0.0, 13.89, 7.25)
    for step in range(60):
        t = step * 0.5
        log.key = step
        x = np.array([rng.uniform(-500.0, 1100.0) for _ in vehicles])
        y = np.array([rng.uniform(-300.0, 300.0) for _ in vehicles])
        log.beacons(
            np.full(5, step), np.arange(5), t, vehicles, pids, pids, x, y,
            np.array([rng.choice(speeds) for _ in vehicles]),
            np.array([rng.choice(headings) for _ in vehicles]),
            np.array([rng.choice((4.5, 7.5)) for _ in vehicles]),
            False, -1, x, y,
        )
        if step % 4 == 0:
            log.beacons(
                np.array([step]), -1, t, log.name("rsu:z"),
                log.name(f"chaff-{step % 3}"), log.name("link-c"), 300.0, 10.0,
                13.89, -0.0, 4.5, True, log.name("z"), 300.0, 0.0,
            )
        if step % 10 == 0:
            log.event({"type": "advert", "t": t, "tx": "rsu:z", "zone": "z"})
    counters = np.array(
        [[rng.choice((0, 0, 1, 3)) for _ in range(5 * 30)]
         for _ in RECEPTION_COUNTERS], dtype=np.int64,
    )
    event_log = log.finish(
        counters, vehicles, np.zeros(5, dtype=np.int64), np.full(5, 30)
    )

    buf = io.StringIO()
    event_log.write_jsonl(buf)
    records = event_log.records()
    assert buf.getvalue() == "".join(encode_event(e) + "\n" for e in records)
    beacons = [e for e in records if e["type"] == "beacon"]
    for field in ("heading", "speed"):
        signs = {math.copysign(1.0, e[field]) for e in beacons if e[field] == 0.0}
        assert signs == {-1.0, 1.0}, field
        assert f'"{field}":-0.0,' in buf.getvalue()
        assert f'"{field}":0.0,' in buf.getvalue()
    for field in ("t", "speed", "heading", "length"):
        assert len({e[field] for e in beacons}) < len(beacons) / 4, field


def _tick_records_log():
    """A log built the way the engine builds one, over four ticks of 1 s:
    records logged in their tick's phases, then beacons and periodic records
    logged at wrap-up under their ticks' keys. veh-2 gets a filter as it
    joins at t = 1; veh-1 gets one from the RSU at t = 2, after 1.5 s, sends
    an encrypted beacon and despawns inside the zone, all on that tick;
    veh-0 answers veh-2's stale filter at t = 3. The adverts are heard
    first by none, one and three vehicles; the chunks carry epochs 1 and
    2."""
    log = EventLogBuilder(
        ["eav-a"], np.array([0.0]), np.array([0.0]), np.array([500.0 ** 2])
    )
    n_ph = engine.N_PHASES
    veh = [log.name(f"veh-{i}") for i in range(4)]
    rsu, zone = log.name("rsu:z"), log.name("z")
    for k in range(4):
        now = float(k)
        log.key = k * n_ph + engine.PH_ZONES
        if k == 1:
            log.event({
                "type": "filter_delivered", "t": now, "vehicle": "veh-2",
                "zone": "z", "epoch": 1, "via": "join", "latency_s": None,
            })
        log.key = k * n_ph + engine.PH_RSU
        if k == 2:
            log.message(
                VIA_RSU, np.array([log.key]), 0, now, veh[1], zone, epoch=2,
                latency_s=1.5,
            )
        log.key = k * n_ph + engine.PH_PEERS
        if k == 3:
            key = np.array([log.key])
            log.message(PEER_FILTER, key, 0, now, veh[0], zone, 1234, rx=veh[2],
                        epoch=2)
            log.message(VIA_PEER, key, 1, now, veh[2], zone, epoch=2)
        log.key = k * n_ph + engine.PH_DESPAWNS
        if k == 2:
            log.event({
                "type": "zone_exit", "t": now, "vehicle": "veh-1", "zone": "z",
                "reason": "despawn",
            })
        if k == 1:
            log.event({
                "type": "retire", "t": now, "tx": "rsu:z", "chaff": "c-0",
                "zone": "z", "bytes": 156,
            })
    ks = np.arange(4)
    log.message(
        ADVERT, ks * n_ph + engine.PH_ADVERTS, 0, ks * 1.0, rsu, zone, 92,
        verifiers=np.array([
            log.verifiers(()), log.verifiers((veh[0],)),
            log.verifiers((veh[3], veh[1], veh[2])), log.verifiers(()),
        ]),
    )
    log.message(
        CHUNK, ks * n_ph + engine.PH_CHUNKS, 0, ks * 1.0, rsu, zone,
        np.array([1140, 1140, 800, 1140]), epoch=np.array([1, 1, 2, 2]),
        index=ks % 3, total=3,
    )
    log.message(
        ENCRYPTED, np.array([2 * n_ph + engine.PH_BEACONS] * 2), np.array([5, 6]),
        2.0, np.array([veh[1], veh[2]]), zone, 490,
    )
    x = np.array([300.0, 320.0])
    log.beacons(
        ks[:2] * n_ph + engine.PH_BEACONS, np.arange(2), ks[:2] * 1.0, veh[0],
        log.name("p-0"), log.name("l-0"), x, x, 10.0, 0.5, 4.5, False, -1, x, x,
    )
    counters = np.zeros((len(RECEPTION_COUNTERS), 4), dtype=np.int64)
    counters[RECEPTION_COUNTERS.index("checks"), 2] = 3
    counters[RECEPTION_COUNTERS.index("verifies"), 2] = 1
    event_log = log.finish(
        counters, np.array([veh[1]], dtype=np.int32), np.zeros(1, dtype=np.int64),
        np.array([4]),
    )
    return event_log


def test_vehicle_beacons_out_of_tick_and_name_order_are_refused():
    # the merge takes the vehicle beacons to be in output order already:
    # rows of one tick in the order of their vehicles' names
    log = EventLogBuilder([], np.empty(0), np.empty(0), np.empty(0))
    names = np.array([log.name("veh-b"), log.name("veh-a")], dtype=np.int32)
    poses = RowPoses(
        np.array([0, 2]), np.array([0.0]), np.array([4]), np.zeros(2), np.zeros(2),
        np.zeros(2), np.zeros(2), np.array([0, 1]), names, np.array([4.5, 4.5]),
    )
    pid = np.array([log.name("p-0"), log.name("p-1")], dtype=np.int32)
    log.vehicle_beacons(np.array([0, 1]), pid, pid, poses)
    with pytest.raises(ValueError, match="vehicle name"):
        log.finish(np.zeros((len(RECEPTION_COUNTERS), 0), dtype=np.int64),
                   names, np.zeros(2, dtype=np.int64), np.zeros(2, dtype=np.int64))


def test_periodic_columns_take_their_tick_phase():
    event_log = _tick_records_log()
    records = event_log.records()
    buf = io.StringIO()
    event_log.write_jsonl(buf)
    assert buf.getvalue() == "".join(encode_event(e) + "\n" for e in records)

    # veh-1's records at t = 2: the RSU delivery, the encrypted beacon, the
    # despawn, then the second's reception summary
    assert [e["type"] for e in records if e["t"] == 2.0 and "veh-1" in (
        e.get("tx"), e.get("vehicle"), e.get("entity"))
    ] == ["filter_delivered", "beacon_encrypted", "zone_exit", "reception_summary"]
    # the RSU's records of a tick: advert, chunk, then the rest of the tick
    assert [e["type"] for e in records if e["t"] == 1.0 and e.get("tx") == "rsu:z"] == [
        "advert", "chunk", "retire",
    ]
    adverts = [e for e in records if e["type"] == "advert"]
    assert [e["first_verifiers"] for e in adverts] == [
        [], ["veh-0"], ["veh-3", "veh-1", "veh-2"], [],
    ]
    assert list(adverts[0]) == [
        "type", "t", "tx", "zone", "bytes", "first_verifiers",
    ]
    chunks = [e for e in records if e["type"] == "chunk"]
    assert [e["epoch"] for e in chunks] == [1, 1, 2, 2]
    assert list(chunks[0]) == [
        "type", "t", "tx", "zone", "epoch", "index", "total", "bytes",
    ]
    # the answer under its sender, the deliveries under their vehicles
    assert [
        (e["type"], e.get("tx") or e["vehicle"], e.get("via"), e.get("latency_s"))
        for e in records if e["type"] in ("peer_filter", "filter_delivered")
    ] == [
        ("filter_delivered", "veh-2", "join", None),
        ("filter_delivered", "veh-1", "rsu", 1.5),
        ("peer_filter", "veh-0", None, None),
        ("filter_delivered", "veh-2", "peer", None),
    ]
    assert [list(e) for e in records if e["type"] == "peer_filter"] == [
        ["type", "t", "tx", "rx", "zone", "epoch", "bytes"],
    ]
    assert {tuple(e) for e in records if e["type"] == "filter_delivered"} == {
        ("type", "t", "vehicle", "zone", "epoch", "via", "latency_s"),
    }
    assert len(event_log.protocol) == 3


def test_overhead_over_periodic_columns_matches_the_dicts():
    event_log = _tick_records_log()
    from_columns = overhead(
        event_log.protocol, 4.0, event_log.beacons, event_log.receptions,
        event_log.messages,
    )
    assert from_columns == overhead(event_log.records(), 4.0)
    # the first verifiers verify, the RSU signs and sends every record
    assert from_columns.verifies["veh-0"] == {1: 1}
    assert from_columns.verifies["veh-3"] == {2: 1}
    assert from_columns.signs["rsu:z"] == {0: 2, 1: 3, 2: 2, 3: 2}
    # each delivery is verified by its vehicle (veh-1 also verifies an
    # advert and, by its counters, a beacon); the peer that answers signs
    # and sends the answer
    assert from_columns.verifies["veh-1"] == {2: 3}
    assert from_columns.verifies["veh-2"] == {1: 1, 2: 1, 3: 1}
    assert from_columns.signs["veh-0"] == {0: 1, 1: 1, 3: 1}
    assert from_columns.bytes_by_entity_second["veh-0"][3] == 1234
    assert from_columns.bytes_by_entity_second["veh-2"] == {2: 490}


@pytest.mark.parametrize("n_cols, values", [
    (1, 5), (3, 400), (10, 10 ** 6), (12, 3),
], ids=["one-column", "dense", "renumbered", "few-values"])
def test_distinct_rows_are_the_distinct_tuples(n_cols, values):
    # ten columns of up to 300 distinct values each fold into codes past
    # 2**62 unless renumbered on the way; bool columns and negative,
    # extreme and repeated values among them
    rng = np.random.default_rng(n_cols)
    n = 300
    cols = [rng.integers(-values, values, n) for _ in range(n_cols)]
    cols[0][:3] = np.iinfo(np.int64).min, np.iinfo(np.int64).max, -1
    cols.append(rng.random(n) < 0.5)
    rows = list(zip(*(c.tolist() for c in cols)))
    first, code = _distinct(*cols)
    distinct = [rows[i] for i in first.tolist()]
    assert len(set(distinct)) == len(distinct) == len(set(rows))
    assert [distinct[c] for c in code.tolist()] == rows


def test_distinct_rows_of_many_narrow_columns_stay_apart():
    # seventy bool columns fold into 2**70 codes, which must be renumbered
    # before the first column's bit would overflow out of them
    first_col = np.array([False, True, False, True, True])
    rest = [np.array([True, True, False, False, True])] * 69
    first, code = _distinct(first_col, *rest)
    assert len(first) == len(set(code[:4].tolist())) == 4
    assert code[1] == code[4]


def test_reception_lines_from_interned_pieces_are_written_as_encoded():
    # a summary line is written from its time and its counters, each
    # formatted once per distinct value: slots whose last four counters are
    # all zero, mixed, or 2**40, next to all-zero slots, which write no
    # summary
    rng = random.Random(11)
    log = EventLogBuilder([], np.empty(0), np.empty(0), np.empty(0))
    vehicles = np.array([log.name(f"veh-{i}") for i in range(6)], dtype=np.int32)
    seconds = np.array([40, 25, 40, 1, 33, 40])
    first_sec = np.array([0, 10, 0, 39, 5, 0])
    big = 2 ** 40
    counters = np.array(
        [[rng.choice((0, 0, 0, 1, 2, 7, 1200, big)) for _ in range(seconds.sum())]
         for _ in RECEPTION_COUNTERS], dtype=np.int64,
    )
    counters[4:, ::3] = 0
    counters[:, 1::7] = 0
    counters[:, 5::11] = big
    # finish reorders the counters in place
    n_summaries = np.count_nonzero(counters.any(axis=0))
    event_log = log.finish(counters, vehicles, first_sec, seconds)

    buf = io.StringIO()
    event_log.write_jsonl(buf)
    records = event_log.records()
    assert buf.getvalue() == "".join(encode_event(e) + "\n" for e in records)
    last = RECEPTION_COUNTERS[4:]
    assert len(records) == n_summaries
    assert any(all(e[c] == 0 for c in last) for e in records)
    assert any(0 in {e[c] for c in last} and len({e[c] for c in last}) > 1
               for e in records)
    assert any(all(e[c] == big for c in RECEPTION_COUNTERS) for e in records)
    assert f'"peer_unanswered":{big}}}' in buf.getvalue()


def _csv_reference(rows) -> str:
    """The observation CSV as the per-row formatter wrote it, rows merged
    in (time, eavesdropper id, pseudonym) order: the reference for
    Observations.write_csv."""
    lines = [OBSERVATION_HEADER + "\n"]
    for t, pid, x, y, speed, heading, length, eid in sorted(
        rows, key=lambda r: (r[0], r[7], r[1])
    ):
        lines.append(
            f"{t:.1f},{pid},{x:.3f},{y:.3f},{speed:.3f},"
            f"{heading:.6f},{length:.1f},{eid}\n"
        )
    return "".join(lines)


def test_observation_csv_matches_the_per_row_formatter():
    # negative and signed-zero values, values on a .0005 boundary,
    # coordinates above 1e6, and one (speed, heading, length) tail heard by
    # two eavesdroppers, in an order the table must sort
    rows = [
        (2.0, "p-b", -0.0, -12.3455, 0.0, -0.0, 4.5, "eav-1"),
        (2.0, "p-a", 0.0, 12.3455, -0.0, 0.0, 4.5, "eav-1"),
        (1.0, "p-b", 0.0005, 1.0005, 2.0015, 3.1415925, 4.55, "eav-0"),
        (1.0, "p-b", 0.0005, 1.0005, 2.0015, 3.1415925, 4.55, "eav-1"),
        (-0.0, "p-c", 1234567.8915, -2345678.0005, 13.8905, -1.5707965, 12.05, "eav-0"),
        (0.0, "p-c", 1234567.891, 1e7 + 0.0005, 13.89, 1.0, 12.0, "eav-0"),
        (3.05, "p-a", -999.9995, -0.0004, 7.25, 6.283185, 4.45, "eav-0"),
        (1.0, "p-a", 5.0, 5.0, 7.25, 6.283185, 4.45, "eav-0"),
    ]
    buf = io.StringIO()
    Observations.from_rows(rows).write_csv(buf)
    assert buf.getvalue() == _csv_reference(rows)
    # the shared tail stays two tails, one per eavesdropper
    lines = buf.getvalue().splitlines()
    assert "1.0,p-b,0.001,1.000,2.002,3.141592,4.5,eav-0" in lines
    assert "1.0,p-b,0.001,1.000,2.002,3.141592,4.5,eav-1" in lines
    assert "2.0,p-b,-0.000,-12.345,0.000,-0.000000,4.5,eav-1" in lines
    assert lines[1].startswith("-0.0,p-c,1234567.891,")


def test_empty_observation_csv_is_the_header_alone():
    buf = io.StringIO()
    Observations.from_rows([]).write_csv(buf)
    assert buf.getvalue() == _csv_reference([]) == OBSERVATION_HEADER + "\n"


# the observation table's contract, which the offline attack relies on:
# observations.csv reads back as the table the run hands the in-process
# attack, and that table is the published beacons' observer lists


def _assert_same_table_bits(got: Observations, want: Observations) -> None:
    """Equal names, and equal columns of equal dtypes, floats compared by
    bit pattern."""
    def bits(col):
        return col.view(np.int64) if col.dtype == np.float64 else col

    assert got.names == want.names
    for field in ("t", "pseudonym", "x", "y", "speed", "heading", "length", "eaves"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype, field
        np.testing.assert_array_equal(bits(a), bits(b), err_msg=field)


@pytest.mark.parametrize(
    "config", [test_golden.multi_zone_config, test_golden.grid_cell_config]
)
def test_run_table_is_the_csv_read_back_and_the_beacons_observers(config):
    result = run(config())
    buf = io.StringIO()
    result.export_observations(buf)
    buf.seek(0)
    _assert_same_table_bits(parse_observation_csv(buf), result.observations)
    # one row per id in each beacon's observers, time to 0.1 s, ties in
    # the order the beacons are published
    rows = [
        (round(e["t"], 1), e["pseudonym"], e["x"], e["y"], e["speed"],
         e["heading"], e["length"], eid)
        for e in result.events if e["type"] == "beacon"
        for eid in e["observers"]
    ]
    assert rows
    _assert_same_table_bits(result.observations, Observations.from_rows(rows))


def test_observation_ties_keep_output_order():
    # two beacons at one time under one pseudonym, heard by one
    # eavesdropper: tx-b sends first, but tx-a's beacon comes first in the
    # log, and so in the table
    log = EventLogBuilder(
        ["eav-a"], np.array([0.0]), np.array([0.0]), np.array([500.0 ** 2])
    )
    pid = log.name("p-0")
    for key, tx, x in ((1, "tx-b", 10.0), (2, "tx-a", 20.0)):
        log.beacons(np.array([key]), 0, 5.0, log.name(tx), pid, pid, x, 0.0, 1.0,
                    0.0, 4.5, False, -1, x, 0.0)
    event_log = log.finish(
        np.zeros((len(RECEPTION_COUNTERS), 0), dtype=np.int64),
        np.zeros(0, dtype=np.int32), np.zeros(0, dtype=np.int64),
        np.zeros(0, dtype=np.int64),
    )
    assert [e["tx"] for e in event_log.records()] == ["tx-a", "tx-b"]
    obs = Observations.heard(event_log.beacons)
    assert obs.t.tolist() == [5.0, 5.0]
    assert obs.x.tolist() == [20.0, 10.0]


class _Discard:
    """A text sink that keeps nothing, so a writer's peak is its own."""

    def write(self, text: str) -> None:
        pass


def _multi_zone_cell():
    """The multi-zone golden run, its overhead report, and its events.jsonl
    written to a sink that keeps nothing."""
    result = run(test_golden.multi_zone_config())
    over = cell_reports(result)[2]
    result.export_events(_Discard())
    return result, over


def _column_bytes(log) -> int:
    """The bytes of the log's columns."""
    return log.kinds.nbytes + sum(
        col.nbytes for part in (log.beacons, log.messages, log.receptions)
        for col in vars(part).values() if isinstance(col, np.ndarray)
    )


# each stage's tracemalloc rise above its start, bounded by a fraction of
# the log's column bytes. On the multi-zone golden run the stages rise 0.82,
# 0.45, 0.66 and 0.65 of them. When the reception counters took int32 and
# four message columns their narrowest dtype, the column bytes fell from
# 1.66 to 1.26 MB and the rises held or fell; the ratios were 0.62, 0.41,
# 0.66 and 0.49. Before the wrap-up read vehicle beacons from the pose rows
# and the fold and the writer worked in row blocks of narrow codes, they
# were 1.33, 0.77, 1.01 and 1.68
_STAGE_RISE_BOUNDS = (
    (engine._Run, "finish", 0.9),
    (EventLogBuilder, "finish", 0.6),
    (metrics, "overhead", 0.75),
    (EventLog, "write_jsonl", 0.75),
)


def test_finish_never_holds_a_column_twice(monkeypatch):
    # finish() gathers each published column once, straight into output
    # order, and drops each pose column after its last gather; the wrap-up
    # around it, the overhead fold and the events.jsonl writer hold a block
    # of rows' codes at a time. Each stage peaks well under one copy of the
    # finished columns above the memory it started with
    _multi_zone_cell()  # numpy imports what it needs on first use
    for owner, name, bound in _STAGE_RISE_BOUNDS:
        seen = {}
        inner = getattr(owner, name)

        def traced(*args, inner=inner, **kwargs):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            out = inner(*args, **kwargs)
            seen["rise"] = tracemalloc.get_traced_memory()[1] - start
            return out

        with monkeypatch.context() as m:
            m.setattr(owner, name, traced)
            if owner is metrics:
                m.setattr(cli, "overhead", traced)
            tracing = tracemalloc.is_tracing()
            if not tracing:
                tracemalloc.start()
            try:
                result, _ = _multi_zone_cell()
            finally:
                if not tracing:
                    tracemalloc.stop()
        assert seen["rise"] < bound * _column_bytes(result.log), (owner, name)


@pytest.mark.parametrize("rows", [1, 7])
def test_tiny_row_and_merge_blocks_give_the_same_cell(monkeypatch, rows):
    # every pass that works in row blocks (finish's gathers, the distinct-row
    # folds, the overhead fold, the single-pseudonym audit) or in merge
    # blocks (the events.jsonl and observation writers), cut at 1 and at 7
    # rows, gives the bytes and the columns the default blocks give
    def cell():
        result, over = _multi_zone_cell()
        events, csv, over_csv = io.StringIO(), io.StringIO(), io.StringIO()
        result.export_events(events)
        result.export_observations(csv)
        write_overhead_csv(over, over_csv)
        return result, over, (events.getvalue(), csv.getvalue(), over_csv.getvalue())

    want, want_over, want_text = cell()
    monkeypatch.setattr(eventlog, "ROW_BLOCK", rows)
    monkeypatch.setattr(eventlog, "_MERGE_BLOCK", rows)
    got, got_over, got_text = cell()
    assert got_text == want_text
    assert got_over == want_over
    assert got.audit_violations == want.audit_violations
    assert got.log.protocol == want.log.protocol
    np.testing.assert_array_equal(got.log.kinds, want.log.kinds)
    for part in ("beacons", "messages", "receptions"):
        for field, col in vars(getattr(want.log, part)).items():
            if isinstance(col, np.ndarray):
                assert getattr(getattr(got.log, part), field).dtype == col.dtype
                np.testing.assert_array_equal(
                    getattr(getattr(got.log, part), field), col, err_msg=field
                )
            else:
                assert getattr(getattr(got.log, part), field) == col, field
    for field, col in vars(want.observations).items():
        np.testing.assert_array_equal(getattr(got.observations, field), col)

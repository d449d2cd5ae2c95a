"""Linkability scoring, anonymity sizes, and overhead accounting."""

import io

import pytest

from decoymix.adversary import (
    Chain, ChainLink, LinkCandidateSet, Observations, ObsRow, build_tracks, flat_tracks,
)
from decoymix.core import CAM_WIRE_BYTES
from decoymix.engine import Transition, run
from decoymix.eventlog import RECEPTION_COUNTERS
from decoymix.metrics import (
    MEMBERSHIP_CHECK_MS,
    PEER_QUERY_BYTES,
    RSU_SIGN_MS,
    RSU_VERIFY_MS,
    VEHICLE_SIGN_MS,
    VEHICLE_VERIFY_MS,
    OverheadReport,
    anonymity_set_sizes,
    build_linkability_report,
    correct_prefix_links,
    empirical_cdf,
    linked_set_size_counts,
    overhead,
    scored_sets,
    success_rate,
    tracked_distance,
    write_linkability_csv,
    write_overhead_csv,
)
from decoymix.roads import make_grid
from decoymix.scenario import ScenarioConfig, ZoneSpec

import test_golden


def cset(entering, candidates, truth):
    return LinkCandidateSet("z", entering, frozenset(candidates), truth)


def test_success_rate_worked_instance():
    # credits 1, 1/2, 0 (miss), 1/3, 0 (empty) over five transitions
    sets = [
        cset("a", {"a2"}, "a2"),
        cset("b", {"b2", "x"}, "b2"),
        cset("c", {"y", "z2"}, "c2"),
        cset("d", {"d2", "u", "w"}, "d2"),
        cset("e", set(), "e2"),
    ]
    assert success_rate(sets) == pytest.approx(11 / 30, abs=1e-12)


def test_success_rate_all_singletons_is_one():
    sets = [cset(f"p{i}", {f"q{i}"}, f"q{i}") for i in range(7)]
    assert success_rate(sets) == 1.0


def test_success_rate_all_empty_is_zero():
    sets = [cset(f"p{i}", set(), f"q{i}") for i in range(4)]
    assert success_rate(sets) == 0.0


def test_success_rate_of_no_changes_is_none():
    assert success_rate([]) is None


def test_success_rate_requires_truth():
    with pytest.raises(ValueError):
        success_rate([LinkCandidateSet("z", "a", frozenset({"b"}), None)])


def test_success_rate_invariant_under_relabeling():
    sets = [
        cset("a", {"a2", "x"}, "a2"),
        cset("b", {"b2"}, "b2"),
    ]
    relabeled = [
        cset("K", {"K2", "J"}, "K2"),
        cset("L", {"L2"}, "L2"),
    ]
    assert success_rate(sets) == success_rate(relabeled)


# ---------------------------------------------------------------------------
# chains and tracked distance


def straight_track(pid, x0, x1, t0=0.0):
    rows = (
        ObsRow(t0, pid, x0, 0.0, 10.0, 0.0, 4.5, "e0"),
        ObsRow(t0 + 1.0, pid, x1, 0.0, 10.0, 0.0, 4.5, "e0"),
    )
    return flat_tracks(build_tracks(Observations.from_rows(rows)))[pid]


def test_correct_prefix_counts_leading_matches():
    truth = {("z1", "p0"): "p1", ("z2", "p1"): "p2"}
    ch = Chain(
        ("p0", "p1", "p2", "p3"),
        (
            ChainLink("z1", "p0", "p1", 1),
            ChainLink("z2", "p1", "p2", 2),
            ChainLink("z3", "p2", "p3", 2),
        ),
    )
    assert correct_prefix_links(ch, truth) == 2
    assert correct_prefix_links(Chain(("p9",), ()), truth) == 0


def test_correct_prefix_stops_at_first_miss():
    truth = {("z1", "p0"): "OTHER", ("z2", "p1"): "p2"}
    ch = Chain(
        ("p0", "p1", "p2"),
        (ChainLink("z1", "p0", "p1", 1), ChainLink("z2", "p1", "p2", 1)),
    )
    assert correct_prefix_links(ch, truth) == 0


def test_tracked_distance_two_chains():
    tracks = {
        "a": straight_track("a", 0.0, 1000.0),
        "b": straight_track("b", 0.0, 3000.0),
    }
    chains = [Chain(("a",), ()), Chain(("b",), ())]
    td = tracked_distance(chains, tracks, {})
    assert td.average_m == pytest.approx(2000.0)
    assert td.histogram_km == {1: 1, 3: 1}
    assert td.per_chain_m == [1000.0, 3000.0]


def test_tracked_distance_truncates_to_correct_prefix():
    tracks = {
        "p0": straight_track("p0", 0.0, 1000.0),
        "p1": straight_track("p1", 1200.0, 1500.0, t0=10.0),
        "p2": straight_track("p2", 9000.0, 9999.0, t0=20.0),
    }
    truth = {("z1", "p0"): "p1", ("z2", "p1"): "WRONG"}
    ch = Chain(
        ("p0", "p1", "p2"),
        (ChainLink("z1", "p0", "p1", 1), ChainLink("z2", "p1", "p2", 1)),
    )
    td = tracked_distance([ch], tracks, truth)
    # 1000 on p0, 200 m jump, 300 on p1; p2 never credited
    assert td.per_chain_m[0] == pytest.approx(1500.0)
    assert td.histogram_km == {2: 1}


def test_tracked_distance_zero_goes_to_bucket_zero():
    rows = (ObsRow(0.0, "a", 5.0, 5.0, 0.0, 0.0, 4.5, "e0"),)
    tracks = flat_tracks(build_tracks(Observations.from_rows(rows)))
    td = tracked_distance([Chain(("a",), ())], tracks, {})
    assert td.histogram_km == {0: 1}
    assert td.average_m == 0.0


def test_tracked_distance_empty():
    td = tracked_distance([], {}, {})
    assert td.average_m is None
    assert td.histogram_km == {}


def test_linked_set_size_counts():
    truth = {
        ("z", "a"): "b", ("z", "b"): "c", ("z", "c"): "d", ("z", "d"): "e",
        ("z", "x"): "y",
    }
    mk = lambda *ids: Chain(
        tuple(ids),
        tuple(ChainLink("z", ids[i], ids[i + 1], 1) for i in range(len(ids) - 1)),
    )
    chains = [
        mk("a", "b"),              # 1 correct link -> pair
        mk("b", "c", "d"),         # 2 -> triple
        mk("a", "b", "c", "d", "e"),  # 4 -> 4+
        mk("x", "q"),              # wrong follow -> uncounted
        Chain(("lone",), ()),      # no links -> uncounted
    ]
    assert linked_set_size_counts(chains, truth) == {"2": 1, "3": 1, "4+": 1}


# ---------------------------------------------------------------------------
# anonymity set sizes


def ev(kind, t, zone, **kw):
    return {"type": kind, "t": t, "zone": zone, **kw}


def test_anonymity_single_member_episode():
    events = [
        ev("join_request", 10.0, "z-a"),
        ev("zone_exit", 20.0, "z-a"),
    ]
    assert anonymity_set_sizes(events) == [1]


def test_anonymity_overlapping_members_one_episode():
    events = [
        ev("join_request", 10.0, "z-a"),
        ev("join_request", 15.0, "z-a"),
        ev("zone_exit", 20.0, "z-a"),
        ev("zone_exit", 25.0, "z-a"),
        # disjoint second episode
        ev("join_request", 100.0, "z-a"),
        ev("zone_exit", 110.0, "z-a"),
    ]
    assert anonymity_set_sizes(events) == [2, 1]


def test_anonymity_decoy_started_at_episode_end_counts():
    # sparse-traffic padding fires exactly when the lone member leaves
    events = [
        ev("join_request", 10.0, "z-a"),
        ev("zone_exit", 20.0, "z-a"),
        ev("decoy_start", 20.0, "z-a", chaff="c1"),
        ev("decoy_end", 80.0, "z-a", chaff="c1"),
    ]
    assert anonymity_set_sizes(events) == [2]


def test_anonymity_decoy_outside_episode_ignored():
    events = [
        ev("decoy_start", 1.0, "z-a", chaff="c0"),
        ev("decoy_end", 5.0, "z-a", chaff="c0"),
        ev("join_request", 10.0, "z-a"),
        ev("zone_exit", 20.0, "z-a"),
    ]
    assert anonymity_set_sizes(events) == [1]


def test_anonymity_open_stream_and_other_zone():
    events = [
        ev("join_request", 10.0, "z-a"),
        ev("decoy_start", 12.0, "z-a", chaff="c1"),  # never ends
        ev("zone_exit", 20.0, "z-a"),
        ev("join_request", 11.0, "z-b"),
        ev("zone_exit", 13.0, "z-b"),
    ]
    assert sorted(anonymity_set_sizes(events)) == [1, 2]


def test_empirical_cdf():
    assert empirical_cdf([1, 2, 2, 4]) == [(1, 0.25), (2, 0.75), (4, 1.0)]
    assert empirical_cdf([]) == []


def test_anonymity_from_run_sparse_padding():
    g = make_grid(2, 2, 1000.0)
    zone = ZoneSpec("z-a", 1000.0, 0.0, 100.0)
    from decoymix.mobility import Trip
    trip = Trip("veh-a", 0.0, ("j0_0__j0_1", "j0_1__j1_1"), (13.89, 13.89), 4.5)
    base = ScenarioConfig(
        graph=g, zones=(zone,), trips=(trip,), rng_seed=5, duration_s=240.0,
    )
    # sparse padding disabled entirely: the lone member stands alone
    off = run(base)
    assert anonymity_set_sizes(off.events) == [1]
    # enabling the decoy system (relay share ~0) arms the sparse rule
    on = run(base.replaced(relay_fraction=1e-9))
    assert anonymity_set_sizes(on.events) == [2]


# ---------------------------------------------------------------------------
# overhead


def test_overhead_advert_only_rate():
    events = [
        {"type": "advert", "t": float(s), "tx": "rsu:z-a", "zone": "z-a",
         "bytes": 164, "first_verifiers": []}
        for s in range(600)
    ]
    rep = overhead(events, 600.0)
    assert rep.avg_rate_kb_per_s("rsu:z-a") == pytest.approx(0.164, abs=1e-12)
    # one ECDSA signature per advert at the roadside unit rate
    assert rep.avg_ms_per_s("rsu:z-a") == pytest.approx(0.3, abs=1e-12)


def test_overhead_beacon_rate_at_five_hz():
    n = 600 * 5
    events = [
        {"type": "beacon", "t": i * 0.2, "tx": "veh-a", "bytes": CAM_WIRE_BYTES + 140}
        for i in range(n)
    ]
    rep = overhead(events, 600.0)
    assert rep.avg_rate_kb_per_s("veh-a") == pytest.approx(2.45, abs=1e-12)


def test_overhead_single_membership_check():
    events = [
        {"type": "reception_summary", "t": 3.0, "entity": "veh-a",
         "rx_beacons": 1, "rx_bytes": 490, "checks": 1, "verifies": 0,
         "discard_chaff": 0, "unknown_pending": 0, "peer_queries": 0,
         "peer_unanswered": 0},
    ]
    rep = overhead(events, 10.0)
    ms = rep.ms_by_second("veh-a")
    assert ms == {3: pytest.approx(MEMBERSHIP_CHECK_MS, abs=1e-20)}
    assert rep.total_bytes("veh-a") == 0  # receptions cost no airtime


def test_overhead_join_legs_and_retire():
    events = [
        {"type": "join_request", "t": 1.0, "tx": "veh-a", "rx": "rsu:z-a",
         "zone": "z-a", "bytes": 156},
        {"type": "join_response", "t": 1.0, "tx": "rsu:z-a", "rx": "veh-a",
         "zone": "z-a", "bytes": 506},
        {"type": "retire", "t": 5.0, "tx": "rsu:z-a", "chaff": "c1",
         "zone": "z-a", "bytes": 156},
    ]
    rep = overhead(events, 10.0)
    assert rep.total_bytes("veh-a") == 156
    assert rep.total_bytes("rsu:z-a") == 506 + 156
    ms = rep.ms_by_second
    assert ms("veh-a") == {1: pytest.approx(3.0 + 3.5)}  # sign req, verify resp
    assert ms("rsu:z-a") == {1: pytest.approx(0.4 + 0.3), 5: pytest.approx(0.3)}
    assert ms("pca") == {5: pytest.approx(0.4)}


def test_overhead_peer_queries_bill_the_requester():
    events = [
        {"type": "reception_summary", "t": 7.0, "entity": "veh-b",
         "rx_beacons": 0, "rx_bytes": 0, "checks": 0, "verifies": 0,
         "discard_chaff": 0, "unknown_pending": 0, "peer_queries": 2,
         "peer_unanswered": 1},
    ]
    rep = overhead(events, 10.0)
    assert rep.total_bytes("veh-b") == 2 * 156
    assert rep.ms_by_second("veh-b") == {7: pytest.approx(6.0)}


def test_overhead_filter_delivery_verification():
    events = [
        {"type": "filter_delivered", "t": 2.0, "vehicle": "veh-a",
         "zone": "z-a", "epoch": 0, "via": "rsu", "latency_s": 1.0},
        {"type": "filter_delivered", "t": 4.0, "vehicle": "veh-a",
         "zone": "z-b", "epoch": 0, "via": "peer", "latency_s": None},
    ]
    rep = overhead(events, 10.0)
    ms = rep.ms_by_second("veh-a")
    assert ms == {2: pytest.approx(3.5), 4: pytest.approx(3.5)}


def test_overhead_recompute_is_bit_identical():
    res = one_zone_scenario_run()
    a = overhead(res.events, res.config.duration_s)
    b = overhead(res.events, res.config.duration_s)
    assert a.to_json() == b.to_json()
    entities = sorted(set(a.signs) | set(a.verifies) | set(a.checks))
    assert entities
    assert [a.ms_by_second(e) for e in entities] == [
        b.ms_by_second(e) for e in entities
    ]
    buf_a, buf_b = io.StringIO(), io.StringIO()
    write_overhead_csv(a, buf_a)
    write_overhead_csv(b, buf_b)
    assert buf_a.getvalue() == buf_b.getvalue()



# ---------------------------------------------------------------------------
# overhead against the dict-of-dict fold


def _bump(table, ent, sec, n):
    if n:
        row = table.setdefault(ent, {})
        row[sec] = row.get(sec, 0) + n


def reference_ledgers(events):
    """The overhead ledgers folded one event dict at a time into
    {ledger: {entity: {second: count}}}, nonzero counts only: the
    reference for OverheadReport's table."""
    led = {name: {} for name in ("bytes", "signs", "verifies", "checks")}
    for e in events:
        sec = int(e["t"])
        kind = e["type"]
        tx = e.get("tx")
        if tx is not None and "bytes" in e:
            _bump(led["bytes"], tx, sec, e["bytes"])
        if kind in ("beacon", "beacon_encrypted", "advert", "chunk",
                    "join_request", "join_response", "retire", "peer_filter"):
            _bump(led["signs"], tx, sec, 1)
        if kind == "advert":
            for v in e["first_verifiers"]:
                _bump(led["verifies"], v, sec, 1)
        elif kind in ("join_request", "join_response"):
            _bump(led["verifies"], e["rx"], sec, 1)
        elif kind == "retire":
            _bump(led["verifies"], "pca", sec, 1)
        elif kind == "filter_delivered":
            _bump(led["verifies"], e["vehicle"], sec, 1)
        elif kind == "reception_summary":
            ent = e["entity"]
            _bump(led["verifies"], ent, sec, e["verifies"])
            _bump(led["checks"], ent, sec, e["checks"])
            q = e["peer_queries"]
            _bump(led["bytes"], ent, sec, q * PEER_QUERY_BYTES)
            _bump(led["signs"], ent, sec, q)
    return led


def reference_ms_by_second(led, ent):
    infra = ent.startswith("rsu:") or ent == "pca"
    sign_ms = RSU_SIGN_MS if infra else VEHICLE_SIGN_MS
    verify_ms = RSU_VERIFY_MS if infra else VEHICLE_VERIFY_MS
    signs, verifies, checks = (
        led[name].get(ent, {}) for name in ("signs", "verifies", "checks")
    )
    return {
        sec: (
            signs.get(sec, 0) * sign_ms
            + verifies.get(sec, 0) * verify_ms
            + checks.get(sec, 0) * MEMBERSHIP_CHECK_MS
        )
        for sec in sorted(set(signs) | set(verifies) | set(checks))
    }


def assert_matches_reference(rep, events, duration_s):
    """The report's table against the reference fold, exactly: every
    ledger per entity, and each entity's bytes and milliseconds."""
    led = reference_ledgers(events)
    entities = sorted(set().union(*led.values()))
    assert rep.entities == entities
    for name, view in (("bytes", rep.bytes_by_entity_second), ("signs", rep.signs),
                       ("verifies", rep.verifies), ("checks", rep.checks)):
        assert list(view) == sorted(led[name])
        assert {ent: view[ent] for ent in view} == led[name]
    for ent in entities:
        ms = reference_ms_by_second(led, ent)
        assert rep.total_bytes(ent) == sum(led["bytes"].get(ent, {}).values())
        assert rep.ms_by_second(ent) == ms
        assert rep.avg_ms_per_s(ent) == sum(ms.values()) / duration_s


def _sweep_cell_config(tmp_path):
    base = ScenarioConfig.from_file(test_golden.sweep_scenario(tmp_path))
    return base.replaced(rng_seed=1, relay_fraction=1.0)


@pytest.mark.parametrize("make_config", [
    _sweep_cell_config,
    lambda _: test_golden.crossing_config(),
    lambda _: test_golden.grid_cell_config(),
    lambda _: test_golden.multi_zone_config(),
    lambda _: test_golden.relay0_config(),
], ids=["sweep-cell", "crossing", "grid-cell", "multi-zone", "relay0"])
def test_overhead_table_matches_the_dict_fold(tmp_path, make_config):
    cfg = make_config(tmp_path)
    result = run(cfg)
    log = result.log
    rep = overhead(log.protocol, cfg.duration_s, log.beacons, log.receptions,
                   log.messages)
    assert_matches_reference(rep, result.events, cfg.duration_s)


def test_overhead_table_matches_the_dict_fold_on_edge_cells():
    def summary(t, ent, **counts):
        row = {"type": "reception_summary", "t": t, "entity": ent}
        row.update({name: counts.get(name, 0) for name in RECEPTION_COUNTERS})
        return row

    events = [
        # bytes but nothing signed, verified or checked
        {"type": "relay_hop", "t": 2.5, "tx": "veh-b", "bytes": 99},
        # checks only
        summary(1.0, "veh-c", checks=3),
        # an advert heard first by three vehicles
        {"type": "advert", "t": 4.0, "tx": "rsu:z", "zone": "z", "bytes": 164,
         "first_verifiers": ["veh-c", "veh-a", "veh-d"]},
        # a row of zero counters counts nothing
        summary(5.0, "veh-z"),
        summary(4.0, "veh-a", verifies=2, checks=1, peer_queries=1),
    ]
    rep = overhead(events, 10.0)
    assert_matches_reference(rep, events, 10.0)
    assert rep.entities == ["rsu:z", "veh-a", "veh-b", "veh-c", "veh-d"]
    assert rep.ms_by_second("veh-b") == {}
    assert rep.avg_ms_per_s("veh-b") == 0.0
    assert rep.total_bytes("veh-z") == 0 and rep.ms_by_second("veh-z") == {}
    buf = io.StringIO()
    write_overhead_csv(rep, buf)
    assert [line.split(",")[0] for line in buf.getvalue().splitlines()[1:]] == (
        rep.entities
    )

def one_zone_scenario_run():
    g = make_grid(3, 3, 1000.0)
    zones = (ZoneSpec("z-a", 1000.0, 1000.0, 100.0),)
    cfg = ScenarioConfig(
        graph=g, zones=zones, n_vehicles=12, arrival_rate_per_s=0.2,
        rng_seed=11, duration_s=180.0, relay_fraction=0.5,
    )
    return run(cfg)


# ---------------------------------------------------------------------------
# report assembly


def test_build_linkability_report_scores_and_slices():
    transitions = [
        Transition("v3", "z-b", "c", "c2", 4000.0, 4040.0, True, True),
        Transition("v1", "z-a", "a", "a2", 100.0, 140.0, True, True),
        Transition("v2", "z-a", "b", "b2", 200.0, 230.0, True, True),
        Transition("v4", "z-b", "d", "d2", 300.0, 340.0, False, True),
        # the new id is never heard leaving, so nothing could link it
        Transition("v5", "z-a", "e", "e2", 500.0, 540.0, True, False),
    ]
    sets = [
        LinkCandidateSet("z-a", "a", frozenset({"a2"}), None),
        LinkCandidateSet("z-a", "b", frozenset({"b2", "x"}), None),
        LinkCandidateSet("z-a", "e", frozenset({"x"}), None),
        LinkCandidateSet("z-b", "d", frozenset({"d2"}), None),
        # no set produced for ("z-b", "c"): counts as an empty set
    ]
    # v4's entry and v5's exit were never observed, so only three changes
    # score, in (zone, old id) order, each with its truth
    assert scored_sets(transitions, sets) == [
        LinkCandidateSet("z-a", "a", frozenset({"a2"}), "a2"),
        LinkCandidateSet("z-a", "b", frozenset({"b2", "x"}), "b2"),
        LinkCandidateSet("z-b", "c", frozenset(), "c2"),
    ]
    rep = build_linkability_report(transitions, sets, [], {}, [])
    assert rep.n_transitions == 3
    assert rep.success_rate == pytest.approx((1.0 + 0.5 + 0.0) / 3)
    assert rep.per_zone == {
        "z-a": pytest.approx(0.75), "z-b": pytest.approx(0.0),
    }
    assert rep.per_hour == {0: pytest.approx(0.75), 1: pytest.approx(0.0)}
    assert rep.linked_set_counts == {"2": 0, "3": 0, "4+": 0}


def test_build_linkability_report_no_observable_transitions():
    transitions = [
        Transition("v1", "z-a", "a", "a2", 100.0, 140.0, False, False),
    ]
    rep = build_linkability_report(transitions, [], [], {}, [])
    assert rep.n_transitions == 0
    assert rep.success_rate is None


def test_linkability_csv_stable():
    sets = [LinkCandidateSet("z-a", "a", frozenset({"a2"}), "a2")]
    transitions = [Transition("v1", "z-a", "a", "a2", 10.0, 20.0, True, True)]
    rep = build_linkability_report(transitions, sets, [], {}, [])
    buf = io.StringIO()
    write_linkability_csv({"base": rep}, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0].startswith("label,n_transitions,success_rate")
    assert lines[1].startswith("base,1,1.000000")


def test_report_json_round_trips():
    import json as _json

    sets = [LinkCandidateSet("z-a", "a", frozenset({"a2", "x"}), "a2")]
    transitions = [Transition("v1", "z-a", "a", "a2", 10.0, 20.0, True, True)]
    rep = build_linkability_report(transitions, sets, [], {}, [
        ev("join_request", 10.0, "z-a"), ev("zone_exit", 20.0, "z-a"),
    ])
    doc = _json.loads(rep.to_json())
    assert doc["success_rate"] == pytest.approx(0.5)
    assert doc["anonymity_set_cdf"] == [[1, 1.0]]

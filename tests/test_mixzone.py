from __future__ import annotations

import pytest

from decoymix.core import Credential, CredentialKind, sign
from decoymix.errors import AuthFailure, DecryptionDenied, StaleRequest
from decoymix.mixzone import MixZoneController, make_join_payload
from decoymix.roads import traverse_time_bounds

SESSION_KEY = b"k" * 32
FILTERS = (("zone_x", 3, 120),)


def _cred(tag: int, kind=CredentialKind.PSEUDONYM, holder="v"):
    return Credential(tag.to_bytes(2, "little") * 8, kind, "pca", holder, 0.0, 1e6)


def _chaff_pool(n, start=5000):
    return [
        _cred(start + i, CredentialKind.CHAFF_PSEUDONYM, holder=None)
        for i in range(n)
    ]


def _controller(grid4, zone_j1_1, relay_fraction, pool=None, **kw):
    bounds = traverse_time_bounds(zone_j1_1, grid4, 1.39)
    return MixZoneController(
        "z1",
        zone_j1_1,
        grid4,
        SESSION_KEY,
        pool if pool is not None else _chaff_pool(16),
        relay_fraction,
        bounds,
        beacon_interval_s=0.5,
        run_seed=99,
        sparse_threshold=2,
        rsu_range_m=600.0,
        **kw,
    )


def _join(ctrl, cred, now, length=4.5, pos=(550.0, 500.0), ts=None):
    payload = make_join_payload(length, now if ts is None else ts)
    return ctrl.handle_join(
        sign(payload, cred, now=now), cred, pos, now, FILTERS
    )


def test_join_baseline_serves_key_and_filters_without_chaff(grid4, zone_j1_1):
    ctrl = _controller(grid4, zone_j1_1, 0.0)
    requester = _cred(1)
    sealed = _join(ctrl, requester, now=10.0)
    with pytest.raises(DecryptionDenied):
        sealed.open(_cred(2).id)
    body = sealed.open(requester.id)
    assert body.session_key == SESSION_KEY
    assert body.chaff is None and body.peer_length_m is None
    assert body.filters == FILTERS
    # key 32 + filter bytes + envelope overhead 16
    assert sealed.wire_size == 32 + 120 + 16


def test_join_rejects_stale_and_forged(grid4, zone_j1_1):
    ctrl = _controller(grid4, zone_j1_1, 0.0)
    cred = _cred(3)
    with pytest.raises(StaleRequest):
        _join(ctrl, cred, now=100.0, ts=94.9)
    env = sign(make_join_payload(4.5, 50.0), cred, now=50.0)
    object.__setattr__(env, "signature_tag", b"\x00" * 16)
    with pytest.raises(AuthFailure):
        ctrl.handle_join(env, cred, (550.0, 500.0), 50.0, FILTERS)


def test_two_relays_swap_declared_lengths(grid4, zone_j1_1):
    ctrl = _controller(grid4, zone_j1_1, 1.0)
    a, b = _cred(10), _cred(11)
    sealed_a = _join(ctrl, a, now=1.0, length=4.5)
    sealed_b = _join(ctrl, b, now=2.0, length=12.0)
    body_a = sealed_a.open(a.id)
    body_b = sealed_b.open(b.id)
    assert body_a.chaff is not None and body_b.chaff is not None
    # the response to b carries a's length; a's pending assignment is updated
    assert body_b.peer_length_m == 4.5
    by_requester = {
        asg.requester_id: asg.peer_length_m for asg in ctrl.assignments.values()
    }
    assert by_requester == {a.id: 12.0, b.id: 4.5}
    # chaff adds its wire size to the response
    assert sealed_b.wire_size == 32 + 140 + 120 + 16


def test_relay_pool_exhaustion_serves_without_chaff(grid4, zone_j1_1):
    ctrl = _controller(grid4, zone_j1_1, 1.0, pool=_chaff_pool(1))
    first = _join(ctrl, _cred(20), now=1.0)
    second = _join(ctrl, _cred(21), now=2.0)
    assert first.open(_cred(20).id).chaff is not None
    assert second.open(_cred(21).id).chaff is None
    assert any(kind == "chaff_pool_empty" for _, kind, _ in ctrl.events)


def test_assigned_pseudonym_lookup(grid4, zone_j1_1):
    ctrl = _controller(grid4, zone_j1_1, 1.0)
    cred = _cred(30)
    body = _join(ctrl, cred, now=1.0).open(cred.id)
    assert ctrl.assigned_pseudonym(body.chaff.id) == cred.id
    assert ctrl.assigned_pseudonym(b"\x77" * 16) is None


def test_decoy_exits_uniform_over_non_relay_exits(grid4, zone_j1_1):
    north = "j1_1__j2_1"
    others = {"j1_1__j0_1", "j1_1__j1_0", "j1_1__j1_2"}
    ctrl = _controller(grid4, zone_j1_1, 1.0, pool=_chaff_pool(1000))
    counts: dict[str, int] = {}
    for i in range(1000):
        cred = _cred(100 + i)
        now = 1.0 + i
        body = _join(ctrl, cred, now=now).open(cred.id)
        ctrl.note_exit(cred.id, north, 10.0, now + 20.0, sparse_enabled=False)
        plan = ctrl.launch_relay_decoy(body.chaff.id, north, now + 20.0)
        assert plan.exit_edge_id != north
        counts[plan.exit_edge_id] = counts.get(plan.exit_edge_id, 0) + 1
    assert set(counts) == others
    assert all(c >= 280 for c in counts.values())


def test_decoy_speed_fallback_is_half_limit(grid4, zone_j1_1):
    ctrl = _controller(grid4, zone_j1_1, 1.0)
    cred = _cred(40)
    body = _join(ctrl, cred, now=1.0).open(cred.id)
    plan = ctrl.launch_relay_decoy(body.chaff.id, "j1_1__j2_1", 21.0)
    assert plan.speed_mps == pytest.approx(13.89 / 2.0)


def test_decoy_speed_sampled_from_exit_history(grid4, zone_j1_1):
    ctrl = _controller(grid4, zone_j1_1, 1.0, pool=_chaff_pool(400))
    # seed exit history on every non-north edge, distinct speed per edge
    speeds = {"j1_1__j0_1": 7.25, "j1_1__j1_0": 8.5, "j1_1__j1_2": 9.75}
    warm = []
    for i, (edge, speed) in enumerate(sorted(speeds.items())):
        cred = _cred(600 + i)
        _join(ctrl, cred, now=float(i))
        ctrl.note_exit(cred.id, edge, speed, float(i) + 20.0, sparse_enabled=False)
        warm.append(edge)
    for i in range(50):
        cred = _cred(700 + i)
        now = 100.0 + i
        body = _join(ctrl, cred, now=now).open(cred.id)
        plan = ctrl.launch_relay_decoy(body.chaff.id, "j1_1__j2_1", now + 20.0)
        assert plan.speed_mps == pytest.approx(speeds[plan.exit_edge_id])


def test_decoy_dwell_respects_bounds_and_causality(grid4, zone_j1_1):
    bounds = traverse_time_bounds(zone_j1_1, grid4, 1.39)
    ctrl = _controller(grid4, zone_j1_1, 1.0, pool=_chaff_pool(200))
    for i in range(100):
        cred = _cred(900 + i)
        now = 1.0 + 3 * i
        body = _join(ctrl, cred, now=now).open(cred.id)
        exit_time = now + 20.0
        ctrl.note_exit(cred.id, "j1_1__j2_1", 10.0, exit_time, sparse_enabled=False)
        plan = ctrl.launch_relay_decoy(body.chaff.id, "j1_1__j2_1", exit_time)
        dwell = plan.start_time_s - now
        assert bounds[0] <= dwell <= bounds[1]
        # the phantom exits only after its transmitter left the zone
        assert plan.start_time_s >= exit_time


def test_sparse_rule_one_two_three_members(grid4, zone_j1_1):
    # lone member: one RSU stream of the member's own length
    ctrl = _controller(grid4, zone_j1_1, 0.0)
    solo = _cred(50)
    _join(ctrl, solo, now=1.0, length=7.5)
    plan = ctrl.note_exit(solo.id, "j1_1__j1_2", 9.0, 21.0, sparse_enabled=True)
    assert plan is not None and plan.source == "rsu"
    assert plan.length_m == 7.5
    assert plan.exit_edge_id != "j1_1__j1_2"

    # two simultaneous members: two streams
    ctrl = _controller(grid4, zone_j1_1, 0.0)
    a, b = _cred(51), _cred(52)
    _join(ctrl, a, now=1.0)
    _join(ctrl, b, now=1.5)
    plans = [
        ctrl.note_exit(a.id, "j1_1__j1_2", 9.0, 20.0, sparse_enabled=True),
        ctrl.note_exit(b.id, "j1_1__j2_1", 9.0, 21.0, sparse_enabled=True),
    ]
    assert all(p is not None for p in plans)

    # three simultaneous members exceed the threshold: zero streams
    ctrl = _controller(grid4, zone_j1_1, 0.0)
    creds = [_cred(53), _cred(54), _cred(55)]
    for i, c in enumerate(creds):
        _join(ctrl, c, now=1.0 + 0.2 * i)
    for i, c in enumerate(creds):
        assert (
            ctrl.note_exit(c.id, "j1_1__j1_2", 9.0, 20.0 + i, sparse_enabled=True)
            is None
        )


def test_sparse_skips_member_covered_by_relay_decoy(grid4, zone_j1_1):
    ctrl = _controller(grid4, zone_j1_1, 1.0)
    cred = _cred(60)
    _join(ctrl, cred, now=1.0)
    assert ctrl.note_exit(cred.id, "j1_1__j1_2", 9.0, 21.0, sparse_enabled=True) is None


def test_decoy_lengths_are_submultiset_of_member_lengths(grid4, zone_j1_1):
    ctrl = _controller(grid4, zone_j1_1, 1.0, pool=_chaff_pool(64))
    lengths = [4.5, 12.0, 7.5, 4.5, 12.0]
    creds = [_cred(70 + i) for i in range(len(lengths))]
    chaff_ids = []
    for i, (cred, length) in enumerate(zip(creds, lengths)):
        body = _join(ctrl, cred, now=1.0 + i, length=length).open(cred.id)
        chaff_ids.append(body.chaff.id)
    emitted = []
    for i, (cred, chaff_id) in enumerate(zip(creds, chaff_ids)):
        exit_time = 25.0 + i
        sparse = ctrl.note_exit(
            cred.id, "j1_1__j2_1", 10.0, exit_time, sparse_enabled=True
        )
        if sparse is not None:
            emitted.append(sparse.length_m)
        emitted.append(ctrl.launch_relay_decoy(chaff_id, "j1_1__j2_1", exit_time).length_m)
    pool = list(lengths)
    for value in emitted:
        assert value in pool
        pool.remove(value)

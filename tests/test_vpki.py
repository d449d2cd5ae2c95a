from __future__ import annotations

import random

import pytest

from decoymix.core import sign
from decoymix.errors import (
    AlreadyRetired,
    AuthFailure,
    FilterSaturated,
    NeverAssigned,
    NotRegistered,
    UnknownChaff,
)
from decoymix.vpki import CredentialAuthority


def _authority(seed=1, capacity=1000):
    ca = CredentialAuthority(seed, filter_capacity=capacity, filter_target_fp=1e-20)
    ca.register_vehicle("veh_a")
    ca.register_vehicle("veh_b")
    ca.register_rsu("rsu_1")
    ca.register_rsu("rsu_2")
    return ca


class _StubRsu:
    def __init__(self, table):
        self.table = table

    def assigned_pseudonym(self, chaff_id):
        return self.table.get(chaff_id)


def test_issue_batch_shares_one_window():
    ca = _authority()
    batch = ca.issue_pseudonyms("veh_a", 5, 0.0, 3600.0)
    assert len(batch) == 5
    assert all(c.valid_from == 0.0 and c.valid_to == 3600.0 for c in batch)
    assert len({c.id for c in batch}) == 5


def test_two_vehicles_batches_share_no_id():
    ca = _authority()
    a = {c.id for c in ca.issue_pseudonyms("veh_a", 40, 0.0, 3600.0)}
    b = {c.id for c in ca.issue_pseudonyms("veh_b", 40, 0.0, 3600.0)}
    assert not a & b


def test_unregistered_vehicle_rejected():
    ca = _authority()
    with pytest.raises(NotRegistered):
        ca.issue_pseudonyms("ghost", 1, 0.0, 10.0)
    with pytest.raises(NotRegistered):
        ca.provision_chaff("ghost_rsu", 1, 0.0, 10.0)


def test_provision_fills_filter_and_bumps_epoch():
    ca = _authority()
    before = ca.filter_for("rsu_1").epoch
    batch = ca.provision_chaff("rsu_1", 52, 0.0, 3600.0)
    filt = ca.filter_for("rsu_1")
    assert all(filt.contains(c.id) for c in batch)
    assert filt.epoch == before + 1


def test_chaff_sets_of_distinct_rsus_disjoint():
    ca = _authority()
    a = {c.id for c in ca.provision_chaff("rsu_1", 60, 0.0, 3600.0)}
    b = {c.id for c in ca.provision_chaff("rsu_2", 60, 0.0, 3600.0)}
    assert not a & b
    # neither filter claims an id it was not provisioned
    assert not any(ca.filter_for("rsu_2").contains(cid) for cid in a)
    assert not any(ca.filter_for("rsu_1").contains(cid) for cid in b)


def test_overfull_provision_raises_and_rolls_back():
    ca = _authority(capacity=1000)
    with pytest.raises(FilterSaturated):
        ca.provision_chaff("rsu_1", 2000, 0.0, 3600.0)
    # the partial batch was rolled back; filter stays usable and consistent
    assert ca.filter_for("rsu_1").item_count == 0
    batch = ca.provision_chaff("rsu_1", 10, 0.0, 3600.0)
    assert len(batch) == 10


def test_retire_removes_and_logs():
    ca = _authority()
    chaff = ca.provision_chaff("rsu_1", 3, 0.0, 3600.0)
    target = chaff[1]
    req = sign(b"retire", target, now=100.0)
    ca.retire_chaff(req, now=100.0)
    assert not ca.filter_for("rsu_1").contains(target.id)
    assert ca._retired_at == {target.id: 100.0}


def test_retire_twice_raises():
    ca = _authority()
    target = ca.provision_chaff("rsu_1", 1, 0.0, 3600.0)[0]
    ca.retire_chaff(sign(b"x", target, now=5.0), now=5.0)
    with pytest.raises(AlreadyRetired):
        ca.retire_chaff(sign(b"x", target, now=6.0), now=6.0)


def test_retire_unknown_and_forged():
    ca = _authority()
    real = ca.provision_chaff("rsu_1", 1, 0.0, 3600.0)[0]
    fake = ca.issue_pseudonyms("veh_a", 1, 0.0, 3600.0)[0]
    with pytest.raises(UnknownChaff):
        ca.retire_chaff(sign(b"x", fake, now=1.0), now=1.0)
    forged = sign(b"x", real, now=1.0)
    object.__setattr__(forged, "signature_tag", b"\x00" * 16)
    with pytest.raises(AuthFailure):
        ca.retire_chaff(forged, now=1.0)


def test_resolution_chain_walks_to_long_term_id():
    ca = _authority()
    pseud = ca.issue_pseudonyms("veh_b", 1, 0.0, 3600.0)[0]
    chaff = ca.provision_chaff("rsu_1", 2, 0.0, 3600.0)
    rsus = {
        "rsu_1": _StubRsu({chaff[0].id: pseud.id}),
        "rsu_2": _StubRsu({}),
    }
    assert ca.resolve_chaff(chaff[0].id, rsus) == "veh_b"
    with pytest.raises(NeverAssigned):
        ca.resolve_chaff(chaff[1].id, rsus)
    with pytest.raises(UnknownChaff):
        ca.resolve_chaff(b"\x99" * 16, rsus)


def test_id_bytes_pass_chi_square_sanity():
    # pooled bytes of issued ids should be uniform over 0..255
    ca = _authority(seed=2024)
    ids = [c.id for c in ca.issue_pseudonyms("veh_a", 400, 0.0, 1.0)]
    ids += [c.id for c in ca.provision_chaff("rsu_1", 400, 0.0, 1.0)]
    counts = [0] * 256
    for cid in ids:
        for byte in cid:
            counts[byte] += 1
    n = sum(counts)
    expected = n / 256
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    # 255 dof: mean 255, sd ~22.6; 400 is beyond 6 sigma
    assert chi2 < 400.0


def test_ids_unlinkable_across_holders():
    # prefix bytes must not correlate with the holder
    ca = _authority(seed=7)
    a = [c.id[0] for c in ca.issue_pseudonyms("veh_a", 300, 0.0, 1.0)]
    b = [c.id[0] for c in ca.issue_pseudonyms("veh_b", 300, 0.0, 1.0)]
    assert abs(sum(a) / len(a) - sum(b) / len(b)) < 25.0

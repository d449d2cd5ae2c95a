from __future__ import annotations

import random

import pytest

from decoymix.chaff_filter import ChaffFilter
from decoymix.core import Credential, CredentialKind, sign
from decoymix.errors import (
    AlreadyRetired,
    AuthFailure,
    FilterSaturated,
    NeverAssigned,
    NotRegistered,
    UnknownChaff,
)
from decoymix.vpki import ID_BYTES, CredentialAuthority


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


def _provision_id_by_id(ca, rsu_id, count, valid_from, valid_to):
    """The reference for provision_chaff: one _fresh_id draw and one
    filter insert per id, a failed batch rolled back id by id."""
    filt = ca.filter_for(rsu_id)
    batch = []
    try:
        for _ in range(count):
            cred = Credential(
                ca._fresh_id(), CredentialKind.CHAFF_PSEUDONYM, "pca", None,
                valid_from, valid_to,
            )
            filt.insert(cred.id)
            ca._chaff_rsu[cred.id] = rsu_id
            ca._chaff_credentials[cred.id] = cred
            batch.append(cred)
    except Exception:
        for cred in batch:
            filt.remove(cred.id)
            del ca._chaff_rsu[cred.id]
            del ca._chaff_credentials[cred.id]
        raise
    filt.epoch += 1
    return batch


def _filters(ca):
    return [
        (ca.filter_for(r).serialize(), ca.filter_for(r).item_count)
        for r in ("rsu_1", "rsu_2")
    ]


@pytest.mark.parametrize("capacity,count", [(2000, 2000), (1900, 1900)])
def test_bulk_minting_matches_minting_id_by_id(monkeypatch, capacity, count):
    # two RSUs of 2,000 chaff each at capacity 2,000, as the grid4 cell
    # provisions them, where a few ids take a kick chain; at 1,900 the
    # table is 93% full and many do
    bulk, ref = _authority(capacity=capacity), _authority(capacity=capacity)
    for rsu in ("rsu_1", "rsu_2"):
        want = _provision_id_by_id(ref, rsu, count, 0.0, 3600.0)
        inserts = []
        insert = ChaffFilter.insert
        monkeypatch.setattr(
            ChaffFilter, "insert", lambda f, cid: (inserts.append(cid), insert(f, cid))
        )
        got = bulk.provision_chaff(rsu, count, 0.0, 3600.0)
        monkeypatch.undo()
        assert got == want
        # only the ids whose buckets are both full go through insert
        assert 0 < len(inserts) < (count // 100 if capacity == 2000 else count // 2)
    assert _filters(bulk) == _filters(ref)
    assert [bulk.filter_for(r).item_count for r in ("rsu_1", "rsu_2")] == [count] * 2
    assert bulk._rng.random() == ref._rng.random()


def test_bulk_minting_rolls_back_as_minting_id_by_id():
    bulk, ref = _authority(capacity=1000), _authority(capacity=1000)
    bulk.provision_chaff("rsu_2", 10, 0.0, 3600.0)
    _provision_id_by_id(ref, "rsu_2", 10, 0.0, 3600.0)
    with pytest.raises(FilterSaturated):
        bulk.provision_chaff("rsu_1", 2000, 0.0, 3600.0)
    with pytest.raises(FilterSaturated):
        _provision_id_by_id(ref, "rsu_1", 2000, 0.0, 3600.0)
    assert _filters(bulk) == _filters(ref)
    assert bulk._chaff_rsu == ref._chaff_rsu
    # the draws up to the failed id are taken, no more
    assert bulk._rng.random() == ref._rng.random()


class _IdStream(random.Random):
    """Bytes from a fixed list of ids, in order; its state is the read
    position."""

    def __init__(self, ids):
        super().__init__(0)
        self.blob, self.pos = b"".join(ids), 0

    def randbytes(self, n):
        self.pos += n
        return self.blob[self.pos - n:self.pos]

    def getstate(self):
        return self.pos

    def setstate(self, state):
        self.pos = state


@pytest.mark.parametrize("repeat", ["in-batch", "issued"])
def test_a_repeated_id_falls_back_to_minting_id_by_id(repeat):
    a, b, c, d, e = (bytes([i]) * ID_BYTES for i in range(1, 6))
    # the first draw of 4 ids holds a twice, or an id issued before
    stream = [a, b, a, c, d, e] if repeat == "in-batch" else [e, a, b, e, c, d]
    bulk, ref = _authority(), _authority()
    for ca in (bulk, ref):
        ca._rng = _IdStream(stream)
        if repeat == "issued":
            ca.issue_pseudonyms("veh_a", 1, 0.0, 10.0)
    got = bulk.provision_chaff("rsu_1", 4, 0.0, 10.0)
    want = _provision_id_by_id(ref, "rsu_1", 4, 0.0, 10.0)
    assert [c.id for c in got] == [c.id for c in want] == [a, b, c, d]
    # the pseudonym's draw, if any, then five: one is drawn again
    assert bulk._rng.pos == ref._rng.pos == (6 if repeat == "issued" else 5) * ID_BYTES
    assert _filters(bulk) == _filters(ref)


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

from __future__ import annotations

import math
import random

import pytest

from decoymix.chaff_filter import (
    BUCKET_CAPACITY,
    ChaffFilter,
    bucket_count_for,
    deletable_size_bytes,
    digest_list_size,
    fingerprint_bits_for,
    new_filter,
    paper_reported_size_bytes,
)
from decoymix.errors import DeserializeError, FilterSaturated, RemoveAbsent


def _ids(count: int, seed: int) -> list[bytes]:
    rng = random.Random(seed)
    return [rng.randbytes(16) for _ in range(count)]


# size formulas


def test_paper_size_model_frozen_values():
    # hand-computed: ceil(n * ln(1/p) / ln^2(2) / 8)
    assert paper_reported_size_bytes(1000, 1e-25) == 14977
    assert paper_reported_size_bytes(500, 1e-25) == 7489
    assert paper_reported_size_bytes(5000, 1e-25) == 74884
    assert paper_reported_size_bytes(20000, 1e-30) == 359440


def test_paper_size_model_rejects_bad_arguments():
    with pytest.raises(ValueError):
        paper_reported_size_bytes(0, 1e-3)
    with pytest.raises(ValueError):
        paper_reported_size_bytes(10, 1.0)


def test_sizing_monotone_in_n_and_inverse_p():
    for size_bytes in (paper_reported_size_bytes, deletable_size_bytes):
        sizes_n = [size_bytes(n, 1e-9) for n in (100, 1000, 10000)]
        assert sizes_n[0] < sizes_n[1] < sizes_n[2]
        sizes_p = [size_bytes(2000, p) for p in (1e-3, 1e-9, 1e-25)]
        assert sizes_p[0] < sizes_p[1] < sizes_p[2]


def test_digest_list_size_frozen_values():
    assert digest_list_size(5000, "SHA256") == 160_000
    assert digest_list_size(0, "SHA1") == 0
    assert digest_list_size(3, "sha512") == 192
    with pytest.raises(ValueError):
        digest_list_size(3, "MD5")


def test_deletable_model_matches_actual_serialization():
    f = new_filter(1000, 1e-3)
    assert deletable_size_bytes(1000, 1e-3) == f.serialized_size() == len(f.serialize())


# construction


def test_new_filter_derived_parameters():
    f = new_filter(1000, 1e-3)
    assert f.fingerprint_bits == 13
    assert f.bucket_count == 512
    assert f.bucket_capacity == BUCKET_CAPACITY
    assert f.item_count == 0


def test_fingerprint_bits_cover_target_rate():
    for p in (0.5, 1e-3, 1e-9, 1e-25):
        assert fingerprint_bits_for(p) >= math.ceil(math.log2(1.0 / p))


def test_empty_filter_contains_nothing():
    f = new_filter(1000, 1e-3)
    assert not any(f.contains(i) for i in _ids(200, 1))


def test_minimal_filter_is_valid():
    f = new_filter(1, 0.5)
    cid = b"z" * 16
    f.insert(cid)
    assert f.contains(cid)


# membership behavior


def test_insert_then_contains():
    f = new_filter(1000, 1e-3)
    cid = _ids(1, 2)[0]
    f.insert(cid)
    assert f.contains(cid)
    assert f.item_count == 1


def test_insert_remove_returns_to_prior_state():
    f = new_filter(1000, 1e-3)
    cid = _ids(1, 3)[0]
    before = f.serialize()
    f.insert(cid)
    f.remove(cid)
    assert not f.contains(cid)
    assert f.serialize() == before


def test_no_false_negatives_while_inserted():
    f = new_filter(5000, 1e-3)
    members = _ids(4000, 4)
    for m in members:
        f.insert(m)
    assert all(f.contains(m) for m in members)


def test_remove_absent_raises():
    f = new_filter(100, 1e-3)
    with pytest.raises(RemoveAbsent):
        f.remove(b"a" * 16)


def test_saturation_raises_and_rolls_back():
    f = new_filter(1, 0.5)  # one bucket, four slots
    members: list[bytes] = []
    rng = random.Random(5)
    with pytest.raises(FilterSaturated):
        for _ in range(100):
            cid = rng.randbytes(16)
            f.insert(cid)
            members.append(cid)
    # everything inserted before the failure must still be present
    assert all(f.contains(m) for m in members)


def test_alt_index_is_an_involution():
    f = new_filter(1000, 1e-3)
    rng = random.Random(6)
    for _ in range(500):
        idx = rng.randrange(f.bucket_count)
        fp = rng.randrange(1, 1 << f.fingerprint_bits)
        assert f._alt_index(f._alt_index(idx, fp), fp) == idx


def test_fingerprint_never_zero():
    f = new_filter(1000, 1e-3)
    assert all(f._fingerprint(i) != 0 for i in _ids(5000, 7))


def test_empirical_fpr_small_scale():
    f = new_filter(2000, 1e-2)
    for m in _ids(2000, 8):
        f.insert(m)
    probes = _ids(20000, 9)
    hits = sum(f.contains(p) for p in probes)
    assert hits / len(probes) <= 2e-2


# serialization


def test_serialize_empty_length_is_header_plus_slots():
    f = new_filter(1000, 1e-3)
    # 16-byte header + ceil(512 buckets * 4 slots * 13 bits / 8)
    assert len(f.serialize()) == 3344


def test_round_trip_behaves_identically():
    f = new_filter(1000, 1e-3, epoch=7)
    members = _ids(800, 10)
    for m in members:
        f.insert(m)
    g = ChaffFilter.deserialize(f.serialize())
    assert g.epoch == 7
    assert g.item_count == f.item_count
    probes = members[:500] + _ids(500, 11)
    assert [g.contains(p) for p in probes] == [f.contains(p) for p in probes]
    assert g.serialize() == f.serialize()


def test_deserialize_rejects_malformed_bytes():
    blob = new_filter(100, 1e-3).serialize()
    with pytest.raises(DeserializeError):
        ChaffFilter.deserialize(blob[:10])
    with pytest.raises(DeserializeError):
        ChaffFilter.deserialize(blob[:-1])
    with pytest.raises(DeserializeError):
        ChaffFilter.deserialize(blob + b"\x00")
    with pytest.raises(DeserializeError):
        ChaffFilter.deserialize(b"XX" + blob[2:])
    bad_count = blob[:10] + (99).to_bytes(4, "little") + blob[14:]
    with pytest.raises(DeserializeError):
        ChaffFilter.deserialize(bad_count)


def test_membership_pure_function_of_state():
    f = new_filter(500, 1e-3)
    cid = _ids(1, 12)[0]
    f.insert(cid)
    assert [f.contains(cid) for _ in range(5)] == [True] * 5

from __future__ import annotations

import hashlib
import random

import pytest

from decoymix.core import Credential, CredentialKind, sign, stable_bytes, stable_u64, verify
from decoymix.errors import SigningWithExpiredCredential


def _cred(n: int = 1, *, valid_from: float = 0.0, valid_to: float = 3600.0) -> Credential:
    return Credential(
        id=bytes([n]) * 16,
        kind=CredentialKind.PSEUDONYM,
        issuer="pca",
        holder=f"v{n}",
        valid_from=valid_from,
        valid_to=valid_to,
    )


def test_sign_verify_round_trip():
    p1 = _cred(1)
    env = sign(b"hello", p1)
    assert verify(env, p1)


def test_verify_wrong_signer_fails():
    env = sign(b"hello", _cred(1))
    assert not verify(env, _cred(2))


def test_sign_with_expired_credential_raises():
    p = _cred(1, valid_from=0.0, valid_to=10.0)
    with pytest.raises(SigningWithExpiredCredential):
        sign(b"hello", p, now=10.1)


def test_verify_checks_validity_window_when_time_given():
    p = _cred(1, valid_from=0.0, valid_to=10.0)
    env = sign(b"hello", p, now=5.0)
    assert verify(env, p, now=9.9)
    assert not verify(env, p, now=10.1)


def test_sign_verify_property_random_payloads():
    rng = random.Random(20260813)
    for _ in range(200):
        payload = rng.randbytes(rng.randrange(0, 64))
        signer = _cred(rng.randrange(1, 200))
        env = sign(payload, signer)
        assert verify(env, signer)
        tampered = payload + b"x"
        assert not verify(sign(tampered, signer), signer) or tampered != env.payload


def test_credential_validity_window_ordering_enforced():
    with pytest.raises(ValueError):
        _cred(1, valid_from=5.0, valid_to=5.0)


def test_stable_hashes_share_one_digest():
    digest = hashlib.sha256(b"7\x1fsession\x1fz-a").digest()
    assert stable_bytes(7, "session", "z-a", n=32) == digest
    assert stable_bytes(7, "session", "z-a") == digest[:16]
    assert stable_u64(7, "session", "z-a") == int.from_bytes(digest[:8], "little")

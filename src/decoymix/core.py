"""Shared domain vocabulary: credentials, signed envelopes, wire sizes and
platform-stable hashing.

Crypto is simulated. Signatures are recomputable digests over (signer id,
payload); sealing (see mixzone.SealedJoinResponse) is key-gated access to the
stored plaintext. The simulation only needs to know who can read or validate
what; the cost of real primitives enters through the overhead cost model, not
here.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass

from .errors import SigningWithExpiredCredential

# Wire-size constants, bytes.
PSEUDONYM_WIRE_BYTES = 140
CAM_WIRE_BYTES = 350
ENCRYPTION_OVERHEAD_BYTES = 16
SESSION_KEY_BYTES = 32


class CredentialKind(enum.Enum):
    PSEUDONYM = "pseudonym"
    CHAFF_PSEUDONYM = "chaff_pseudonym"
    LONG_TERM = "long_term"


@dataclass(frozen=True)
class Credential:
    """A short-lived pseudonymous certificate, a chaff twin of one, or a
    long-term certificate. ``holder`` is None while a chaff credential sits
    unassigned in an RSU pool."""

    id: bytes
    kind: CredentialKind
    issuer: str
    holder: str | None
    valid_from: float
    valid_to: float
    wire_size: int = PSEUDONYM_WIRE_BYTES

    def __post_init__(self) -> None:
        if len(self.id) != 16:
            raise ValueError("credential id must be 16 bytes")
        if not self.valid_from < self.valid_to:
            raise ValueError("valid_from must precede valid_to")
        if self.wire_size <= 0:
            raise ValueError("wire_size must be positive")

    def is_valid_at(self, now: float) -> bool:
        return self.valid_from <= now <= self.valid_to


@dataclass(frozen=True)
class SignedEnvelope:
    payload: bytes
    signer: bytes
    signature_tag: bytes


def _signature_tag(payload: bytes, signer_id: bytes) -> bytes:
    return hashlib.sha256(signer_id + b"|" + payload).digest()[:16]


def sign(payload: bytes, signer: Credential, now: float | None = None) -> SignedEnvelope:
    """Sign payload under a credential.

    now is the current simulation time; when given, signing with a credential
    outside its validity window raises SigningWithExpiredCredential.
    """
    if now is not None and not signer.is_valid_at(now):
        raise SigningWithExpiredCredential(
            f"credential {signer.id.hex()} not valid at t={now}"
        )
    return SignedEnvelope(payload, signer.id, _signature_tag(payload, signer.id))


def verify(env: SignedEnvelope, signer: Credential, now: float | None = None) -> bool:
    """True iff env was signed under this credential and, when now is given,
    the credential is valid at verification time."""
    if env.signer != signer.id:
        return False
    if now is not None and not signer.is_valid_at(now):
        return False
    return env.signature_tag == _signature_tag(env.payload, signer.id)


def stable_bytes(*parts: object, n: int = 16) -> bytes:
    """The first n bytes of the sha256 of the parts' joined text.

    Used wherever the simulation needs a platform-stable hash: credential
    ids and session keys, seeding per-entity random streams, deriving
    link-layer ids. Never used for the chaff filter (which has its own
    arithmetic mixer).
    """
    text = "\x1f".join(str(p) for p in parts).encode()
    return hashlib.sha256(text).digest()[:n]


def stable_u64(*parts: object) -> int:
    """Deterministic 64-bit value from arbitrary parts (see stable_bytes)."""
    return int.from_bytes(stable_bytes(*parts, n=8), "little")

"""Credential back end: registration ledger, pseudonym and chaff issuance,
per-RSU decoy filters, and the identity resolution chain.

One authority object stands in for the issuing and resolution roles; ticket
protocols are collapsed to a registration ledger since only unlinkable ids
and aligned lifetimes matter downstream. Chaff-to-requester assignments live
at the RSU, so resolution queries the RSU directory rather than a local copy.
"""
from __future__ import annotations

import random
from typing import Mapping, Protocol

from .chaff_filter import ChaffFilter, new_filter
from .core import Credential, CredentialKind, SignedEnvelope, verify
from .errors import (
    AlreadyRetired,
    AuthFailure,
    NeverAssigned,
    NotRegistered,
    UnknownChaff,
)


# a credential id's length
ID_BYTES = 16


class AssignmentSource(Protocol):
    """What an RSU must answer during resolution."""

    def assigned_pseudonym(self, chaff_id: bytes) -> bytes | None: ...


class CredentialAuthority:
    """Issues pseudonyms and chaff, owns per-RSU filters, resolves identities."""

    def __init__(
        self,
        rng_seed: int,
        filter_capacity: int,
        filter_target_fp: float,
    ) -> None:
        self._rng = random.Random(rng_seed)
        self._filter_capacity = filter_capacity
        self._filter_target_fp = filter_target_fp
        self._vehicles: set[str] = set()
        self._rsus: set[str] = set()
        self._issued: dict[bytes, str] = {}
        self._chaff_rsu: dict[bytes, str] = {}
        self._chaff_credentials: dict[bytes, Credential] = {}
        self._retired_at: dict[bytes, float] = {}
        self._filters: dict[str, ChaffFilter] = {}

    def register_vehicle(self, long_term_id: str) -> None:
        self._vehicles.add(long_term_id)

    def register_rsu(self, rsu_id: str) -> None:
        self._rsus.add(rsu_id)
        if rsu_id not in self._filters:
            self._filters[rsu_id] = new_filter(
                self._filter_capacity, self._filter_target_fp
            )

    def _fresh_id(self) -> bytes:
        while True:
            cid = self._rng.randbytes(ID_BYTES)
            if cid not in self._issued and cid not in self._chaff_rsu:
                return cid

    def issue_pseudonyms(
        self, vehicle: str, count: int, valid_from: float, valid_to: float
    ) -> list[Credential]:
        """Mint `count` pseudonyms with one shared validity window."""
        if vehicle not in self._vehicles:
            raise NotRegistered(f"vehicle {vehicle} has no registration")
        batch = []
        for _ in range(count):
            cred = Credential(
                self._fresh_id(),
                CredentialKind.PSEUDONYM,
                "pca",
                vehicle,
                valid_from,
                valid_to,
            )
            self._issued[cred.id] = vehicle
            batch.append(cred)
        return batch

    def provision_chaff(
        self, rsu_id: str, count: int, valid_from: float, valid_to: float
    ) -> list[Credential]:
        """Mint chaff for one RSU and fold the ids into that RSU's filter.

        The batch is atomic: a filter saturation rolls back the partial batch
        before the error propagates. The filter epoch advances once per batch.

        The ids come from one draw of count ids' bytes, the same bytes as
        count draws of one id, and are hashed in one pass. Where an id of
        the draw repeats or is already issued, the batch is minted id by
        id instead, as _fresh_id draws again past such an id; a failed
        batch leaves the draws up to its failed id taken, as id by id.
        """
        if rsu_id not in self._rsus:
            raise NotRegistered(f"RSU {rsu_id} has no registration")
        filt = self._filters[rsu_id]
        state = self._rng.getstate()
        blob = self._rng.randbytes(ID_BYTES * count)
        ids = [blob[i:i + ID_BYTES] for i in range(0, len(blob), ID_BYTES)]
        if len(set(ids)) < count or any(
            cid in self._issued or cid in self._chaff_rsu for cid in ids
        ):
            self._rng.setstate(state)
            ids = located = None
        else:
            located = filt.locate_many(blob, ID_BYTES)
        batch: list[Credential] = []
        try:
            for i in range(count):
                cred = Credential(
                    self._fresh_id() if ids is None else ids[i],
                    CredentialKind.CHAFF_PSEUDONYM,
                    "pca",
                    None,
                    valid_from,
                    valid_to,
                )
                if ids is None or not filt.place(*located[i]):
                    filt.insert(cred.id)
                self._chaff_rsu[cred.id] = rsu_id
                self._chaff_credentials[cred.id] = cred
                batch.append(cred)
        except Exception:
            for cred in batch:
                filt.remove(cred.id)
                del self._chaff_rsu[cred.id]
                del self._chaff_credentials[cred.id]
            if ids is not None:
                self._rng.setstate(state)
                self._rng.randbytes(ID_BYTES * (len(batch) + 1))
            raise
        filt.epoch += 1
        return batch

    def retire_chaff(self, request: SignedEnvelope, now: float) -> None:
        """Remove one chaff id from circulation on the holder's signed request."""
        chaff_id = request.signer
        if chaff_id not in self._chaff_rsu:
            raise UnknownChaff(f"no chaff ledger entry for {chaff_id.hex()}")
        if chaff_id in self._retired_at:
            raise AlreadyRetired(f"chaff {chaff_id.hex()} already retired")
        cred = self._chaff_credentials[chaff_id]
        if not verify(request, cred, now=now):
            raise AuthFailure("retire request signature does not verify")
        rsu_id = self._chaff_rsu[chaff_id]
        filt = self._filters[rsu_id]
        filt.remove(chaff_id)
        filt.epoch += 1
        self._retired_at[chaff_id] = now

    def resolve_chaff(
        self, chaff_id: bytes, rsus: Mapping[str, AssignmentSource]
    ) -> str:
        """Walk the resolution chain: chaff -> RSU -> pseudonym -> long-term id."""
        rsu_id = self._chaff_rsu.get(chaff_id)
        if rsu_id is None:
            raise UnknownChaff(f"no chaff ledger entry for {chaff_id.hex()}")
        pseudonym_id = rsus[rsu_id].assigned_pseudonym(chaff_id)
        if pseudonym_id is None:
            raise NeverAssigned(f"chaff {chaff_id.hex()} was never handed out")
        return self._issued[pseudonym_id]

    def filter_for(self, rsu_id: str) -> ChaffFilter:
        return self._filters[rsu_id]

"""Deletable membership filter over chaff-credential fingerprints.

The structure is a cuckoo-style table (Fan et al. style partial-key hashing):
each credential id maps to a short fingerprint and two candidate buckets, the
second derived from the first by XOR with a hash of the fingerprint, so items
can be relocated and deleted without knowing the original id. Buckets hold
four fingerprint slots; inserts relocate along a kick chain of at most 500
displacements before declaring the filter saturated.

Three size formulas live here as well, for comparison only: the classical
single-bit-array formula that reproduces the published size table, the native
size of this deletable structure, and the size of a plain digest list. The
simulation itself always ships the actual serialized filter.
"""

from __future__ import annotations

import math
import random
import struct

from .errors import DeserializeError, FilterSaturated, RemoveAbsent

BUCKET_CAPACITY = 4
MAX_KICKS = 500
TARGET_LOAD_FACTOR = 0.95

_M64 = (1 << 64) - 1

_HEADER = struct.Struct("<2sBBHIIH")  # magic, version, fp bits, bucket cap, buckets, items, epoch
_MAGIC = b"CF"
_VERSION = 1

DIGEST_BYTES = {
    "SHA1": 20,
    "SHA224": 28,
    "SHA256": 32,
    "SHA384": 48,
    "SHA512": 64,
}


def _mix64(x: int) -> int:
    """splitmix64 finalizer; platform-stable integer mixing."""
    x = (x + 0x9E3779B97F4A7C15) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


def _id_hash(cred_id: bytes) -> int:
    """Fold an opaque credential id into one well-mixed 64-bit value."""
    h = 0
    for off in range(0, len(cred_id), 8):
        chunk = int.from_bytes(cred_id[off : off + 8], "little")
        h = _mix64(h ^ chunk)
    return h


def paper_reported_size_bytes(n: int, p: float) -> int:
    """Classical single-bit-array sizing: ceil(n * ln(1/p) / ln^2(2) / 8)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0, 1)")
    return math.ceil(n * math.log(1.0 / p) / (math.log(2.0) ** 2) / 8.0)


def fingerprint_bits_for(p: float) -> int:
    return math.ceil(math.log2(1.0 / p) + math.log2(2 * BUCKET_CAPACITY))


def bucket_count_for(n_capacity: int) -> int:
    need = n_capacity / (TARGET_LOAD_FACTOR * BUCKET_CAPACITY)
    m = 1
    while m < need:
        m <<= 1
    return m


def deletable_size_bytes(n: int, p: float) -> int:
    """Serialized size of an (empty or full) deletable filter built for
    capacity n at target false positive rate p."""
    if n < 1:
        raise ValueError("n must be >= 1")
    slots = bucket_count_for(n) * BUCKET_CAPACITY
    return _HEADER.size + (slots * fingerprint_bits_for(p) + 7) // 8


def digest_list_size(n: int, hash_name: str) -> int:
    """Bytes needed to publish n credential digests instead of a filter."""
    if n < 0:
        raise ValueError("n must be >= 0")
    try:
        return n * DIGEST_BYTES[hash_name.upper()]
    except KeyError:
        raise ValueError(f"unknown hash {hash_name!r}") from None


class ChaffFilter:
    """Deletable fingerprint table; see module docstring for the scheme."""

    def __init__(
        self,
        fingerprint_bits: int,
        bucket_count: int,
        target_fpr: float,
        issuer: str = "",
        epoch: int = 0,
        kick_seed: int = 0,
    ) -> None:
        if bucket_count & (bucket_count - 1):
            raise ValueError("bucket_count must be a power of two")
        if not 1 <= fingerprint_bits <= 255:
            raise ValueError("fingerprint_bits out of range")
        self.fingerprint_bits = fingerprint_bits
        self.bucket_count = bucket_count
        self.bucket_capacity = BUCKET_CAPACITY
        self.target_fpr = target_fpr
        self.issuer = issuer
        self.epoch = epoch
        self.item_count = 0
        self._fp_mask = (1 << fingerprint_bits) - 1
        self._index_mask = bucket_count - 1
        self._buckets: list[list[int]] = [[] for _ in range(bucket_count)]
        # Eviction choices come from a filter-local stream so that runs are
        # reproducible; membership never touches it.
        self._rng = random.Random(kick_seed)

    # fingerprint and bucket derivation

    def _fingerprint(self, cred_id: bytes) -> int:
        fp = _id_hash(cred_id) & self._fp_mask
        return fp if fp != 0 else 1  # zero marks an empty slot on the wire

    def _primary_index(self, cred_id: bytes) -> int:
        return _mix64(_id_hash(cred_id) ^ 0xC2B2AE3D27D4EB4F) & self._index_mask

    def _alt_index(self, index: int, fp: int) -> int:
        return index ^ (_mix64(fp * 0x5BD1E995) & self._index_mask)

    # operations

    def contains(self, cred_id: bytes) -> bool:
        fp = self._fingerprint(cred_id)
        i1 = self._primary_index(cred_id)
        if fp in self._buckets[i1]:
            return True
        return fp in self._buckets[self._alt_index(i1, fp)]

    def insert(self, cred_id: bytes) -> None:
        fp = self._fingerprint(cred_id)
        i1 = self._primary_index(cred_id)
        i2 = self._alt_index(i1, fp)
        for idx in (i1, i2):
            if len(self._buckets[idx]) < self.bucket_capacity:
                self._buckets[idx].append(fp)
                self.item_count += 1
                return
        # Both candidate buckets full: relocate along a kick chain. Track the
        # displacements so a saturated insert can be rolled back; a failed
        # insert must not create false negatives for items already present.
        undo: list[tuple[int, int, int]] = []
        idx = self._rng.choice((i1, i2))
        for _ in range(MAX_KICKS):
            slot = self._rng.randrange(self.bucket_capacity)
            fp, self._buckets[idx][slot] = self._buckets[idx][slot], fp
            undo.append((idx, slot, fp))
            idx = self._alt_index(idx, fp)
            if len(self._buckets[idx]) < self.bucket_capacity:
                self._buckets[idx].append(fp)
                self.item_count += 1
                return
        for bidx, slot, old in reversed(undo):
            self._buckets[bidx][slot] = old
        raise FilterSaturated(
            f"kick chain exceeded {MAX_KICKS} relocations at {self.item_count} items"
        )

    def remove(self, cred_id: bytes) -> None:
        fp = self._fingerprint(cred_id)
        i1 = self._primary_index(cred_id)
        for idx in (i1, self._alt_index(i1, fp)):
            bucket = self._buckets[idx]
            if fp in bucket:
                bucket.remove(fp)
                self.item_count -= 1
                return
        raise RemoveAbsent(f"fingerprint for {cred_id.hex()} not present")

    # serialization: 16-byte header then slot fingerprints bit-packed
    # little-endian, empty slots as zero (live fingerprints are never zero).

    def serialize(self) -> bytes:
        header = _HEADER.pack(
            _MAGIC,
            _VERSION,
            self.fingerprint_bits,
            self.bucket_capacity,
            self.bucket_count,
            self.item_count,
            self.epoch,
        )
        fb = self.fingerprint_bits
        packed = 0
        pos = 0
        for bucket in self._buckets:
            for fp in bucket:
                packed |= fp << (pos * fb)
                pos += 1
            pos += self.bucket_capacity - len(bucket)
        nbytes = (self.bucket_count * self.bucket_capacity * fb + 7) // 8
        return header + packed.to_bytes(nbytes, "little")

    @classmethod
    def deserialize(cls, blob: bytes) -> "ChaffFilter":
        if len(blob) < _HEADER.size:
            raise DeserializeError("shorter than header")
        magic, version, fp_bits, bucket_cap, bucket_count, item_count, epoch = (
            _HEADER.unpack_from(blob)
        )
        if magic != _MAGIC:
            raise DeserializeError("bad magic")
        if version != _VERSION:
            raise DeserializeError(f"unsupported version {version}")
        if bucket_cap != BUCKET_CAPACITY:
            raise DeserializeError(f"unsupported bucket capacity {bucket_cap}")
        if bucket_count == 0 or bucket_count & (bucket_count - 1):
            raise DeserializeError("bucket count not a power of two")
        if not 1 <= fp_bits <= 255:
            raise DeserializeError("fingerprint bits out of range")
        slots = bucket_count * bucket_cap
        nbytes = (slots * fp_bits + 7) // 8
        if len(blob) != _HEADER.size + nbytes:
            raise DeserializeError(
                f"expected {_HEADER.size + nbytes} bytes, got {len(blob)}"
            )
        # Reconstruct the nominal target rate from the fingerprint width.
        target = (2 * bucket_cap) / (1 << fp_bits)
        out = cls(fp_bits, bucket_count, target, epoch=epoch)
        packed = int.from_bytes(blob[_HEADER.size :], "little")
        mask = (1 << fp_bits) - 1
        found = 0
        for pos in range(slots):
            fp = (packed >> (pos * fp_bits)) & mask
            if fp:
                bucket = out._buckets[pos // bucket_cap]
                if len(bucket) >= bucket_cap:
                    raise DeserializeError("overfull bucket")
                bucket.append(fp)
                found += 1
        if found != item_count:
            raise DeserializeError(
                f"header claims {item_count} items, payload holds {found}"
            )
        out.item_count = found
        return out

    def serialized_size(self) -> int:
        return _HEADER.size + (
            self.bucket_count * self.bucket_capacity * self.fingerprint_bits + 7
        ) // 8


def new_filter(
    n_capacity: int,
    p: float,
    issuer: str = "",
    epoch: int = 0,
    kick_seed: int = 0,
) -> ChaffFilter:
    """Empty filter sized for n_capacity items at target false positive p."""
    if n_capacity < 1:
        raise ValueError("n_capacity must be >= 1")
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0, 1)")
    return ChaffFilter(
        fingerprint_bits=fingerprint_bits_for(p),
        bucket_count=bucket_count_for(n_capacity),
        target_fpr=p,
        issuer=issuer,
        epoch=epoch,
        kick_seed=kick_seed,
    )

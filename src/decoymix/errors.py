"""Exception types shared across the package.

Grouped here because several of them cross module boundaries (for example
FilterSaturated is raised by the filter and propagated by the credential
authority).
"""


class DecoymixError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(DecoymixError):
    """Scenario or manifest validation failed."""


class AuditFailure(DecoymixError):
    """A run broke one of the invariants its audits check."""


# crypto envelopes

class SigningWithExpiredCredential(DecoymixError):
    """Attempt to sign with a credential outside its validity window."""


class DecryptionDenied(DecoymixError):
    """Attempt to open an encrypted envelope with the wrong key."""


# chaff filter

class FilterSaturated(DecoymixError):
    """Insert failed: relocation chain exceeded the kick budget."""


class RemoveAbsent(DecoymixError):
    """Remove failed: fingerprint not present in the filter."""


class DeserializeError(DecoymixError):
    """Serialized filter bytes are malformed."""


# road network / mobility

class OffNetwork(DecoymixError):
    """Position does not snap to any edge within tolerance."""


class SynthesisFailed(DecoymixError):
    """Could not draw a connected origin/destination pair within budget."""


# credential authority

class NotRegistered(DecoymixError):
    """Vehicle has no long-term registration."""


class UnknownChaff(DecoymixError):
    """Credential id was never provisioned as chaff."""


class AlreadyRetired(DecoymixError):
    """Chaff credential was already removed from its filter."""


class NeverAssigned(DecoymixError):
    """Chaff credential was provisioned but never handed to a relay."""


# mix-zone protocol

class AuthFailure(DecoymixError):
    """Join request signature does not verify under a valid pseudonym."""


class StaleRequest(DecoymixError):
    """Join request timestamp is too far from the zone clock."""


class NoResponder(DecoymixError):
    """No neighbour holds the requested filter at a newer epoch."""

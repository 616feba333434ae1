"""Exception hierarchy of the selective-deletion blockchain library.

All library-specific failures derive from :class:`SelectiveDeletionError`, so
applications can catch a single base class.  More specific subclasses exist
for the situations the paper reasons about explicitly: broken hash chains,
rejected deletion requests (authorization or semantic cohesion), schema
violations, and consensus/synchronisation failures.
"""

from __future__ import annotations


class SelectiveDeletionError(Exception):
    """Base class for all errors raised by the library."""


class ChainIntegrityError(SelectiveDeletionError):
    """The hash chain or block ordering is inconsistent.

    Raised by validation when a previous-hash link is broken, a block number
    is out of order, or a recomputed block hash differs from the stored one
    (Section IV-A: direct deletion "destroys the hash chain").
    """


class SchemaError(SelectiveDeletionError):
    """An entry does not satisfy the configured entry schema (Section V)."""


class AuthorizationError(SelectiveDeletionError):
    """A signed action is not permitted for the signing participant.

    Covers forged signatures, users trying to delete entries of other users,
    and role violations (Section IV-D1).
    """


class DeletionError(SelectiveDeletionError):
    """A deletion request is malformed or references a non-existent entry."""


class ConsensusError(SelectiveDeletionError):
    """The quorum could not reach agreement (marker shift, summary hash)."""


class SynchronisationError(ConsensusError):
    """An anchor node computed a diverging summary block (Section IV-B).

    The paper notes that a divergent summary hash "would result in a fork in
    the blockchain and thus split the network"; the simulator raises this
    error when it detects that situation.
    """


class StorageError(SelectiveDeletionError):
    """A storage backend failed to persist or load chain data."""


class ConfigurationError(SelectiveDeletionError):
    """The chain configuration is internally inconsistent."""

"""Semantic-cohesion layer (Section IV-D2).

The Bell-LaPadula model as the chain's automatic semantic-cohesion checker.
The authorization rule of Section IV-D1 — owners delete their own entries,
the quorum's master signature deletes any — is one function,
:func:`repro.core.deletion.authorize_deletion`, fed by ``Blockchain.admins``.
"""

from repro.authz.bell_lapadula import BellLaPadulaModel, SecurityLevel

__all__ = ["BellLaPadulaModel", "SecurityLevel"]

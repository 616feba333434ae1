"""Authorization and semantic-cohesion layer (Section IV-D1 / IV-D2).

Role-based access control with the quorum's master signature, and the
Bell-LaPadula model as the chain's automatic semantic-cohesion checker.
"""

from repro.authz.bell_lapadula import BellLaPadulaModel, SecurityLevel
from repro.authz.roles import (
    DEFAULT_ROLE_PERMISSIONS,
    AccessController,
    Permission,
    Role,
)

__all__ = [
    "BellLaPadulaModel",
    "SecurityLevel",
    "DEFAULT_ROLE_PERMISSIONS",
    "AccessController",
    "Permission",
    "Role",
]

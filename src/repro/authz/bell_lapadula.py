"""Bell-LaPadula-style automatic cohesion / access model.

Section IV-D2 suggests that an automatic approach to deciding deletions
*"could be designed based on the principle of Bell-LaPadula model or
Brewer-Nash Model"*.  This module implements the Bell-LaPadula side: entries
and subjects carry security levels, reads follow *no read up*, and deletions
are only granted to subjects whose clearance dominates the entry's
classification.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Optional

from repro.core.chain import Blockchain, CohesionChecker
from repro.core.entry import EntryReference


class SecurityLevel(IntEnum):
    """Linearly ordered classification levels."""

    PUBLIC = 0
    INTERNAL = 1
    CONFIDENTIAL = 2
    SECRET = 3


@dataclass
class BellLaPadulaModel:
    """Mandatory access control with the simple-security property."""

    subject_clearance: dict[str, SecurityLevel] = field(default_factory=dict)
    object_classification: dict[tuple[int, int], SecurityLevel] = field(default_factory=dict)
    default_clearance: SecurityLevel = SecurityLevel.PUBLIC
    default_classification: SecurityLevel = SecurityLevel.PUBLIC

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #

    def clear_subject(self, subject: str, level: SecurityLevel) -> None:
        """Assign a clearance level to a subject."""
        self.subject_clearance[subject] = level

    def classify_entry(self, reference: EntryReference, level: SecurityLevel) -> None:
        """Assign a classification level to an entry."""
        self.object_classification[(reference.block_number, reference.entry_number)] = level

    def clearance_of(self, subject: str) -> SecurityLevel:
        """Clearance of a subject (default when unregistered)."""
        return self.subject_clearance.get(subject, self.default_clearance)

    def classification_of(self, reference: EntryReference) -> SecurityLevel:
        """Classification of an entry (default when unregistered)."""
        return self.object_classification.get(
            (reference.block_number, reference.entry_number), self.default_classification
        )

    # ------------------------------------------------------------------ #
    # The simple-security property and the deletion rule
    # ------------------------------------------------------------------ #

    def may_read(self, subject: str, reference: EntryReference) -> bool:
        """Simple security property: no read up."""
        return self.clearance_of(subject) >= self.classification_of(reference)

    def may_delete(self, subject: str, reference: EntryReference) -> bool:
        """Deletion rule: the subject's clearance must dominate the entry.

        Deleting is modelled as an administrative read-and-destroy, so the
        subject must be allowed to read the entry; writing-down concerns do
        not apply because nothing is disclosed to lower levels.
        """
        return self.may_read(subject, reference)

    # ------------------------------------------------------------------ #
    # Chain integration
    # ------------------------------------------------------------------ #

    def as_cohesion_checker(self) -> CohesionChecker:
        """Cohesion checker enforcing the deletion rule on the chain.

        The requesting subject is the author of the deletion request; the
        target's classification comes from the registered levels.
        """

        def checker(target: EntryReference, chain: Blockchain, requester: str) -> tuple[bool, str]:
            located = chain.find_entry(target)
            if located is None:
                return False, f"target {target} not found"
            subject: Optional[str] = requester or located[1].author
            if self.may_delete(subject, target):
                return True, f"clearance of {subject!r} dominates the entry classification"
            return False, (
                f"clearance of {subject!r} is below the classification of {target}"
            )

        return checker

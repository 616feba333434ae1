"""Known-bad fixture for the lint gate.

Every statement below violates a determinism, frozen-object or
unused-import rule on purpose.  CI runs ``python -m repro lint tests/fixtures/lint_bad.py`` and
asserts a **nonzero** exit: if this file ever passes, the gate is broken.
The directory is excluded from default scans (see
``repro.lint.project.EXCLUDED_PARTS``), so the repo-wide pass stays clean.
"""

import json  # REPRO-S602
import random
import time


def wall_clock_timestamp() -> int:
    return int(time.time())  # REPRO-D101


def jittered_delay() -> float:
    return random.uniform(1.0, 20.0)  # REPRO-D102


def order_peers(peers: list) -> list:
    return sorted(peers, key=lambda peer: hash(peer))  # REPRO-D103


def digest_peers(peers: set, hash_many) -> str:
    return hash_many(peer for peer in set(peers))  # REPRO-D104


def mutate_frozen(block, entries) -> None:
    object.__setattr__(block, "entries", entries)  # REPRO-F301


def muted_without_reason() -> int:
    return hash("tie-break")  # repro: allow[REPRO-D103]

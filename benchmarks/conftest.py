"""Shared helpers for the ``bench_*.py`` files.

Besides timing (pytest-benchmark), each file asserts the *shape* of one of
the paper's claims — who wins, by roughly what factor — and prints the
regenerated rows.  The files that own a committed ``BENCH_*.json`` run
through :mod:`sweep`.
"""

from __future__ import annotations

from repro.core import Blockchain, ChainConfig
from repro.core.schema import default_log_schema


def make_paper_chain() -> Blockchain:
    """A chain configured exactly like the paper's evaluation prototype."""
    return Blockchain(ChainConfig.paper_evaluation(), schema=default_log_schema())


def login(user: str, detail: str = "") -> dict:
    """Login entry in the paper's D/K/S format."""
    record = f"Login {user}" if not detail else f"Login {user} {detail}"
    return {"D": record, "K": user, "S": f"sig_{user}"}

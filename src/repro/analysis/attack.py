"""51 %-attack model (Section V-B1, Fig. 9).

The paper argues that deleting old sequences removes their confirmations, so
an attacker could rewrite the newest summary block with a single block's
work — unless every new summary block also embeds (at least the Merkle root
of) a middle sequence ω_{l_β/2}.  With that redundancy *"each entry that is
longer than l_β/2 in the blockchain has at least l_β/2 confirmations at each
time"*, so the attacker must redo at least l_β/2 blocks of work.

This module provides both the analytic model (confirmation depth and attack
cost as a function of chain length and redundancy policy) and a Monte-Carlo
race simulation of an attacker with a given hash-power share trying to
out-mine the honest quorum over that many blocks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.config import RedundancyPolicy

#: Blocks produced per Monte-Carlo trial before the attacker is declared beaten.
MAX_STEPS = 10_000


@dataclass(frozen=True)
class ConfirmationProfile:
    """Confirmation depth an entry enjoys under a redundancy policy."""

    chain_length: int
    redundancy: RedundancyPolicy
    confirmations: int
    blocks_to_rewrite: int


def confirmation_depth(chain_length: int, redundancy: RedundancyPolicy) -> ConfirmationProfile:
    """Confirmations protecting the oldest data after it was summarised.

    * Without redundancy, the oldest data lives only in the newest summary
      block — one block of work suffices to rewrite it.
    * With middle-sequence redundancy (Merkle root or full copy), at least
      ``chain_length // 2`` blocks confirm it (Fig. 9).
    """
    if chain_length < 1:
        raise ValueError("chain_length must be positive")
    if redundancy is RedundancyPolicy.NONE:
        confirmations = 1
    else:
        confirmations = max(1, chain_length // 2)
    return ConfirmationProfile(
        chain_length=chain_length,
        redundancy=redundancy,
        confirmations=confirmations,
        blocks_to_rewrite=confirmations,
    )


def analytic_success_probability(attacker_share: float, blocks_to_rewrite: int) -> float:
    """Catch-up probability of an attacker with ``attacker_share`` hash power.

    Uses the classic Nakamoto random-walk bound: with attacker share q and
    honest share p, the probability of ever catching up from z blocks behind
    is ``(q/p)^z`` for q < p, and 1 otherwise.
    """
    if not 0.0 <= attacker_share <= 1.0:
        raise ValueError("attacker_share must be within [0, 1]")
    if blocks_to_rewrite < 0:
        raise ValueError("blocks_to_rewrite must be non-negative")
    q = attacker_share
    p = 1.0 - q
    if q >= p:
        return 1.0
    if blocks_to_rewrite == 0:
        return 1.0
    return (q / p) ** blocks_to_rewrite


@dataclass(frozen=True)
class AttackOutcome:
    """Result of a Monte-Carlo 51 %-attack simulation."""

    attacker_share: float
    blocks_to_rewrite: int
    trials: int
    successes: int

    @property
    def success_rate(self) -> float:
        """Empirical success probability."""
        return self.successes / self.trials if self.trials else 0.0


def simulate_attack(
    *,
    attacker_share: float,
    blocks_to_rewrite: int,
    trials: int = 2000,
    seed: int = 1337,
    rng: Optional[random.Random] = None,
) -> AttackOutcome:
    """Monte-Carlo race between the attacker and the honest quorum.

    In each step one block is produced; it belongs to the attacker with
    probability ``attacker_share``.  The attacker starts ``blocks_to_rewrite``
    blocks behind and wins a trial upon catching up within ``MAX_STEPS``.

    The race is driven by an explicit generator: either the caller's ``rng``
    (shared across calls, e.g. one scenario-seeded stream for a whole
    adversarial cross-check) or a fresh ``random.Random(seed)``.
    """
    if not 0.0 <= attacker_share <= 1.0:
        raise ValueError("attacker_share must be within [0, 1]")
    if blocks_to_rewrite < 0 or trials <= 0:
        raise ValueError("blocks_to_rewrite must be >= 0 and trials positive")
    if rng is None:
        rng = random.Random(seed)
    successes = 0
    for _ in range(trials):
        deficit = blocks_to_rewrite
        for _ in range(MAX_STEPS):
            if deficit <= 0:
                break
            if rng.random() < attacker_share:
                deficit -= 1
            else:
                deficit += 1
            if deficit > blocks_to_rewrite + 200:
                break  # hopeless; stop early
        if deficit <= 0:
            successes += 1
    return AttackOutcome(
        attacker_share=attacker_share,
        blocks_to_rewrite=blocks_to_rewrite,
        trials=trials,
        successes=successes,
    )


def attack_resistance_table(
    chain_lengths: Sequence[int],
    attacker_shares: Sequence[float],
    *,
    trials: int = 1000,
    seed: int = 7,
    rng: Optional[random.Random] = None,
) -> list[dict[str, float]]:
    """Sweep chain length x attacker share x redundancy policy.

    This regenerates the qualitative content of Fig. 9: without redundancy
    the success probability is independent of chain length (one block to
    rewrite); with redundancy it falls off sharply as the chain grows.

    With ``rng`` the whole sweep draws from one caller-owned stream; without
    it every cell reuses ``random.Random(seed)``, keeping cells independent
    of sweep order.
    """
    rows: list[dict[str, float]] = []
    for chain_length in chain_lengths:
        for share in attacker_shares:
            for policy in (RedundancyPolicy.NONE, RedundancyPolicy.MIDDLE_MERKLE_ROOT):
                profile = confirmation_depth(chain_length, policy)
                outcome = simulate_attack(
                    attacker_share=share,
                    blocks_to_rewrite=profile.blocks_to_rewrite,
                    trials=trials,
                    seed=seed,
                    rng=rng,
                )
                rows.append(
                    {
                        "chain_length": float(chain_length),
                        "attacker_share": share,
                        "redundancy": 0.0 if policy is RedundancyPolicy.NONE else 1.0,
                        "blocks_to_rewrite": float(profile.blocks_to_rewrite),
                        "analytic_success": analytic_success_probability(
                            share, profile.blocks_to_rewrite
                        ),
                        "simulated_success": outcome.success_rate,
                    }
                )
    return rows

"""Lost-coin recovery analysis (Section V-A, "Recovery").

The paper lists as an achieved enhancement that the concept *"offers the
possibility to make lost coins usable again.  It means not for a single user,
but for the entire blockchain system to prevent a system shutdown in long
term"* — referring to the millions of bitcoins whose keys are gone forever.

On a selective-deletion chain, transfers whose receiving wallet is known to
be lost can be given an expiry (temporary entries) or be deleted by the
quorum once a recovery policy allows it; the burned value returns to the
system (e.g. to a community fund) instead of being locked forever.  This
module quantifies that opportunity: it scans a chain of coin transfers,
computes the balance locked in lost wallets, and reports how much of it has
already been freed by expiry/deletion versus how much is still recoverable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.core.chain import Blockchain


@dataclass(frozen=True)
class RecoveryReport:
    """Outcome of a lost-coin recovery analysis."""

    total_minted: int
    locked_in_lost_wallets: int
    already_freed: int
    recoverable: int
    lost_wallets: tuple[str, ...]

    @property
    def locked_fraction(self) -> float:
        """Fraction of all transferred value sitting in lost wallets."""
        if self.total_minted == 0:
            return 0.0
        return self.locked_in_lost_wallets / self.total_minted


def _wallet_balances(transfer_entries: Iterable[Mapping]) -> dict[str, int]:
    """Net balance per wallet from a stream of transfer entry payloads."""
    balances: dict[str, int] = {}
    for data in transfer_entries:
        sender = str(data.get("K", ""))
        receiver = str(data.get("receiver", ""))
        amount = int(data.get("amount", 0))
        if not receiver or amount <= 0:
            continue
        balances[sender] = balances.get(sender, 0) - amount
        balances[receiver] = balances.get(receiver, 0) + amount
    return balances


def analyze_lost_coins(
    chain: Blockchain,
    lost_wallets: Iterable[str],
) -> RecoveryReport:
    """Quantify the value locked in lost wallets on the living chain.

    Parameters
    ----------
    chain:
        The chain holding coin-transfer entries (``receiver`` / ``amount``
        fields as produced by :class:`repro.workloads.coins.CoinTransferWorkload`).
    lost_wallets:
        Wallets whose keys are considered irrecoverably lost.
    """
    lost = tuple(sorted(set(lost_wallets)))
    transfer_entries = [
        dict(entry.data)
        for _, entry in chain.iter_entries()
        if not entry.is_deletion_request and "receiver" in entry.data
    ]
    balances = _wallet_balances(transfer_entries)
    total_moved = sum(int(data.get("amount", 0)) for data in transfer_entries)
    locked = sum(max(0, balances.get(wallet, 0)) for wallet in lost)
    return RecoveryReport(
        total_minted=total_moved,
        locked_in_lost_wallets=locked,
        already_freed=0,
        recoverable=locked,
        lost_wallets=lost,
    )


def recoverable_after_deletion(
    chain_before: Blockchain,
    chain_after: Blockchain,
    lost_wallets: Iterable[str],
) -> RecoveryReport:
    """Compare lost-wallet exposure before and after a clean-up cycle.

    ``chain_before`` and ``chain_after`` are snapshots of the same logical
    chain; the difference in locked value is reported as already freed.
    """
    before = analyze_lost_coins(chain_before, lost_wallets)
    after = analyze_lost_coins(chain_after, lost_wallets)
    freed = max(0, before.locked_in_lost_wallets - after.locked_in_lost_wallets)
    return RecoveryReport(
        total_minted=after.total_minted,
        locked_in_lost_wallets=after.locked_in_lost_wallets,
        already_freed=freed,
        recoverable=after.locked_in_lost_wallets,
        lost_wallets=after.lost_wallets,
    )

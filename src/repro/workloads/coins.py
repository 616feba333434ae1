"""Cryptocurrency transfer workload.

The ``coin-economy`` scenario drives it to model the recovery discussion of
Section V-A: coins whose keys are lost forever can be reclaimed for the
system once their originating entries expire.  A transfer that spends the
output of an earlier transfer names it in ``spends``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro.workloads.base import EventKind, Workload, WorkloadEvent


@dataclass(frozen=True)
class Transfer:
    """One coin transfer, possibly spending an earlier transfer."""

    transfer_id: int
    sender: str
    receiver: str
    amount: int
    spends: Optional[int] = None  # id of the transfer whose output is consumed

    def to_entry_data(self) -> dict:
        """Entry payload in the paper's D/K/S structure plus typed fields."""
        description = f"transfer #{self.transfer_id}: {self.sender} -> {self.receiver} ({self.amount})"
        return {
            "D": description,
            "K": self.sender,
            "S": f"sig_{self.sender}",
            "transfer_id": self.transfer_id,
            "receiver": self.receiver,
            "amount": self.amount,
            "spends": self.spends,
        }


class CoinTransferWorkload(Workload):
    """Random transfer graph over a fixed set of wallets."""

    name = "coin-transfers"

    def __init__(
        self,
        *,
        num_transfers: int = 100,
        num_wallets: int = 8,
        spend_probability: float = 0.6,
        lost_wallet_fraction: float = 0.1,
        seed: int = 23,
    ) -> None:
        super().__init__(seed=seed)
        if num_transfers < 0 or num_wallets < 2:
            raise ValueError("invalid coin workload parameters")
        if not 0.0 <= spend_probability <= 1.0 or not 0.0 <= lost_wallet_fraction <= 1.0:
            raise ValueError("probabilities must be within [0, 1]")
        self.num_transfers = num_transfers
        self.num_wallets = num_wallets
        self.spend_probability = spend_probability
        self.lost_wallet_fraction = lost_wallet_fraction

    def wallet(self, index: int) -> str:
        """Deterministic wallet name."""
        return f"WALLET{index:02d}"

    def lost_wallets(self) -> set[str]:
        """Wallets whose keys are considered lost (Section V-A recovery)."""
        if self.lost_wallet_fraction <= 0:
            return set()
        count = max(1, int(self.num_wallets * self.lost_wallet_fraction))
        return {self.wallet(index) for index in range(self.num_wallets - count, self.num_wallets)}

    def transfers(self) -> list[Transfer]:
        """Materialise the transfer graph (deterministic for the seed)."""
        rng = self.fresh_rng()
        transfers: list[Transfer] = []
        for transfer_id in range(self.num_transfers):
            sender = self.wallet(rng.randrange(self.num_wallets))
            receiver = self.wallet(rng.randrange(self.num_wallets))
            while receiver == sender:
                receiver = self.wallet(rng.randrange(self.num_wallets))
            spends: Optional[int] = None
            if transfers and rng.random() < self.spend_probability:
                spends = transfers[rng.randrange(len(transfers))].transfer_id
            transfers.append(
                Transfer(
                    transfer_id=transfer_id,
                    sender=sender,
                    receiver=receiver,
                    amount=rng.randrange(1, 1000),
                    spends=spends,
                )
            )
        return transfers

    def events(self) -> Iterator[WorkloadEvent]:
        """One entry per transfer."""
        for transfer in self.transfers():
            yield WorkloadEvent(
                kind=EventKind.ENTRY,
                author=transfer.sender,
                data=transfer.to_entry_data(),
            )

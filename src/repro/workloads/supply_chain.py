"""Industry-4.0 supply-chain workload (Section VI).

*"In the area of Industry 4.0, the production of a good can be recorded along
the entire supply chain.  As soon as the minimum best-before date has been
exceeded or the data has expired, the new technology can be used to
automatically clean up the blockchain."*

Every product runs through a sequence of production stages; each stage is one
entry.  Entries carry a best-before expiry (a temporary-entry bound, Section
IV-D4), so expired products vanish from the chain without any deletion
request.
"""

from __future__ import annotations

from typing import Iterator

from repro.workloads.base import EventKind, Workload, WorkloadEvent


class SupplyChainWorkload(Workload):
    """Product tracking with best-before expiry per entry."""

    name = "supply-chain"
    #: Production stages of one product.
    stages = ("raw-material", "assembly", "quality-check", "packaging", "shipping")

    def __init__(
        self,
        *,
        num_products: int = 50,
        shelf_life_ticks: int = 200,
        stations: int = 5,
        seed: int = 7,
    ) -> None:
        super().__init__(seed=seed)
        if num_products < 0 or shelf_life_ticks <= 0 or stations < 1:
            raise ValueError("invalid supply-chain workload parameters")
        self.num_products = num_products
        self.shelf_life_ticks = shelf_life_ticks
        self.stations = stations

    def station(self, index: int) -> str:
        """Name of the production station signing a stage entry."""
        return f"STATION{index % self.stations:02d}"

    def events(self) -> Iterator[WorkloadEvent]:
        """One entry per product per stage, tagged with a best-before time."""
        rng = self.fresh_rng()
        tick = 0
        for product_index in range(self.num_products):
            product_id = f"PRODUCT-{product_index:05d}"
            best_before = tick + self.shelf_life_ticks + rng.randrange(self.shelf_life_ticks)
            for stage_index, stage in enumerate(self.stages):
                station = self.station(product_index + stage_index)
                yield WorkloadEvent(
                    kind=EventKind.ENTRY,
                    author=station,
                    data={
                        "D": f"{product_id} {stage}",
                        "K": station,
                        "S": f"sig_{station}",
                        "product": product_id,
                        "stage": stage,
                    },
                    expires_at_time=best_before,
                )
                tick += 1
            if rng.random() < 0.2:
                yield WorkloadEvent(kind=EventKind.IDLE, idle_ticks=3)
                tick += 3

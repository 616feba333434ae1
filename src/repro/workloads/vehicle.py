"""Vehicle life-cycle workload (Section VI).

*"In the field of vehicle maintenance, the life cycle of each car can be
documented centrally, so that manipulations are excluded, e.g. on the mileage
or accidents.  After a vehicle is taken out of service, the blockchain as
database is cleaned up to handle the data amount."*

Each vehicle produces maintenance entries (mileage readings, inspections,
repairs) authored by workshops; when a vehicle is decommissioned the
registration authority requests deletion of all its entries.
"""

from __future__ import annotations

from typing import Iterator

from repro.workloads.base import EventKind, Workload, WorkloadEvent

#: Maintenance event types recorded for a vehicle.
MAINTENANCE_KINDS = ("mileage-reading", "inspection", "repair", "accident-report")


class VehicleLifecycleWorkload(Workload):
    """Maintenance logs per vehicle, with decommissioning deletions."""

    name = "vehicle-lifecycle"

    def __init__(
        self,
        *,
        num_vehicles: int = 20,
        events_per_vehicle: int = 10,
        decommission_fraction: float = 0.3,
        workshops: int = 4,
        seed: int = 11,
    ) -> None:
        super().__init__(seed=seed)
        if num_vehicles < 0 or events_per_vehicle < 1 or workshops < 1:
            raise ValueError("invalid vehicle workload parameters")
        if not 0.0 <= decommission_fraction <= 1.0:
            raise ValueError("decommission_fraction must be within [0, 1]")
        self.num_vehicles = num_vehicles
        self.events_per_vehicle = events_per_vehicle
        self.decommission_fraction = decommission_fraction
        self.workshops = workshops

    def vin(self, index: int) -> str:
        """Deterministic vehicle identification number."""
        return f"VIN{index:06d}"

    def workshop(self, index: int) -> str:
        """Workshop identity used as the entry author."""
        return f"WORKSHOP{index % self.workshops:02d}"

    def events(self) -> Iterator[WorkloadEvent]:
        """Maintenance entries per vehicle; decommissioned ones are marked.

        Deletion targets depend on the concrete block numbers, which only the
        driver knows; the workload therefore marks decommissioning with an
        ``IDLE``-free tagged entry (``stage == "decommissioned"``) that the
        example application translates into deletion requests for all of the
        vehicle's previous entries.
        """
        rng = self.fresh_rng()
        for vehicle_index in range(self.num_vehicles):
            vin = self.vin(vehicle_index)
            mileage = 0
            for event_index in range(self.events_per_vehicle):
                mileage += rng.randrange(500, 5000)
                kind = MAINTENANCE_KINDS[rng.randrange(len(MAINTENANCE_KINDS))]
                workshop = self.workshop(vehicle_index + event_index)
                yield WorkloadEvent(
                    kind=EventKind.ENTRY,
                    author=workshop,
                    data={
                        "D": f"{vin} {kind} at {mileage} km",
                        "K": workshop,
                        "S": f"sig_{workshop}",
                        "vin": vin,
                        "mileage": mileage,
                        "maintenance": kind,
                    },
                )
            if rng.random() < self.decommission_fraction:
                authority = "REGISTRATION-AUTHORITY"
                yield WorkloadEvent(
                    kind=EventKind.ENTRY,
                    author=authority,
                    data={
                        "D": f"{vin} decommissioned",
                        "K": authority,
                        "S": f"sig_{authority}",
                        "vin": vin,
                        "maintenance": "decommissioned",
                    },
                )

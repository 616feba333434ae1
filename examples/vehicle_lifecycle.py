#!/usr/bin/env python3
"""Vehicle life-cycle documentation (Section VI).

Workshops log every maintenance event (mileage, inspections, repairs) so that
odometer fraud is impossible; when a vehicle is decommissioned, the
registration authority — holding the quorum's master signature — requests
deletion of all of that vehicle's records, and the chain cleans itself up
over the following summarisation cycles.

Run with::

    python examples/vehicle_lifecycle.py
"""

from collections import defaultdict

from repro import (
    Blockchain,
    ChainConfig,
    EntryReference,
    LengthUnit,
    LocalLedgerClient,
    RetentionPolicy,
    ShrinkStrategy,
)
from repro.analysis import render_statistics
from repro.workloads import EventKind, VehicleLifecycleWorkload


def main() -> None:
    config = ChainConfig(
        sequence_length=4,
        retention=RetentionPolicy(unit=LengthUnit.SEQUENCES, max_length=4),
        shrink_strategy=ShrinkStrategy.TO_LIMIT,
    )
    chain = Blockchain(config, admins=("REGISTRATION-AUTHORITY",))

    workload = VehicleLifecycleWorkload(
        num_vehicles=12, events_per_vehicle=6, decommission_fraction=0.5, seed=11
    )

    ledger = LocalLedgerClient(chain)
    positions: dict[str, list[EntryReference]] = defaultdict(list)
    decommissioned: list[str] = []

    for event in workload:
        assert event.kind is EventKind.ENTRY
        receipt = ledger.submit(event.data, event.author)
        vin = event.data.get("vin", "")
        if event.data.get("maintenance") == "decommissioned":
            decommissioned.append(vin)
            # The authority asks the chain to forget the whole vehicle history.
            for reference in positions[vin]:
                if ledger.find_entry(reference) is not None:
                    ledger.request_deletion(reference, "REGISTRATION-AUTHORITY")
        else:
            positions[vin].append(receipt.reference)

    # Let the retention machinery run a few more cycles so marked records expire.
    for _ in range(20):
        ledger.submit(
            {"D": "periodic audit heartbeat", "K": "AUDITOR", "S": "sig_AUDITOR"}, "AUDITOR"
        )

    print("Vehicle life-cycle ledger")
    print("-------------------------")
    print(f"vehicles tracked:        {workload.num_vehicles}")
    print(f"vehicles decommissioned: {len(decommissioned)}")

    for vin in decommissioned[:3]:
        remaining = sum(1 for ref in positions[vin] if chain.find_entry(ref) is not None)
        print(f"  {vin}: {remaining} of {len(positions[vin])} maintenance records still on the chain")

    still_tracked = [vin for vin in positions if vin not in decommissioned]
    sample = still_tracked[0] if still_tracked else None
    if sample:
        retrievable = sum(1 for ref in positions[sample] if chain.find_entry(ref) is not None)
        print(f"  {sample} (active): {retrievable} of {len(positions[sample])} records retrievable")

    print()
    print(render_statistics(chain))
    chain.validate()
    print("\nchain validated: decommissioned vehicles were forgotten, active ones kept.")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Logging and auditing scenario of the paper's evaluation (Section V).

Reproduces the console outputs of Figs. 6, 7 and 8: terminal logins of
ALPHA, BRAVO and CHARLIE are logged to a blockchain replicated across three
anchor nodes, BRAVO requests deletion of one login record, and over the next
summarisation cycles both the record and the deletion request itself vanish
from every replica — which stays synchronised the whole time.

Run with::

    python examples/logging_audit.py
"""

from repro.analysis import render_chain, render_events, render_statistics
from repro.core import ChainConfig, EntryReference
from repro.core.schema import default_log_schema
from repro.network import NetworkSimulator


def main() -> None:
    simulator = NetworkSimulator(
        anchor_count=3,
        client_ids=["ALPHA", "BRAVO", "CHARLIE"],
        config=ChainConfig.paper_evaluation(),
        schema=default_log_schema(),
    )
    chain = simulator.producer.chain

    # --- Fig. 6: three logins ------------------------------------------------
    for user in ("ALPHA", "BRAVO", "CHARLIE"):
        simulator.submit_entry(user, {"D": f"Login {user}", "K": user, "S": f"sig_{user}"})
    print(render_chain(chain, header="Fig. 6 — three logins, two empty summary blocks"))
    simulator.kernel.run()  # announcements are one-way: let them land
    print(f"replicas in sync: {simulator.sync_check().in_sync}\n")

    # --- Fig. 7: BRAVO requests deletion of (block 3, entry 1) ---------------
    simulator.submit_deletion("BRAVO", EntryReference(3, 1))
    simulator.submit_entry("ALPHA", {"D": "Login ALPHA", "K": "ALPHA", "S": "sig_ALPHA"})
    print(render_chain(chain, header="Fig. 7 — sequences merged, BRAVO's entry not copied"))
    print(f"genesis marker: block {chain.genesis_marker}")
    simulator.kernel.run()  # announcements are one-way: let them land
    print(f"replicas in sync: {simulator.sync_check().in_sync}\n")

    # --- Fig. 8: one cycle ahead, the deletion request itself is gone --------
    while chain.genesis_marker <= 6:
        simulator.submit_entry("CHARLIE", {"D": "Login CHARLIE", "K": "CHARLIE", "S": "sig_CHARLIE"})
    print(render_chain(chain, header="Fig. 8 — one cycle ahead, deletion request forgotten"))
    assert all(not entry.is_deletion_request for _, entry in chain.iter_entries())
    assert chain.find_entry(EntryReference(3, 1)) is None

    print()
    print(render_statistics(chain))
    print()
    print(render_events(chain, kinds=["marker-shift", "deletion-requested"]))
    report = simulator.finalize()
    print(
        f"\nnetwork: {report.transport['delivered']} messages delivered, "
        f"{report.transport['bytes_transferred']} bytes, "
        f"{report.divergences_detected} divergences detected"
    )


if __name__ == "__main__":
    main()

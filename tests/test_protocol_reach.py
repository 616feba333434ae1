"""Every wire kind is reached by the scenario catalogue.

A ``MessageKind`` no catalogue scenario ever delivers is protocol surface
nobody measures: its handler, its client verb and its payload schema ship
untested by any driver.  This census runs every catalogue entry at smoke
size and counts what the transport actually delivers, so an unreached kind
fails the suite the day it is added instead of being found by a census
someone reruns by hand.
"""

from collections import Counter

from repro.network.message import MessageKind
from repro.network.scenarios import run_scenario, scenario_names
from repro.network.transport import InMemoryTransport


def test_every_message_kind_is_delivered_by_some_catalogue_scenario(monkeypatch):
    delivered: Counter = Counter()
    account = InMemoryTransport._account_delivery

    def counting(self, message, latency_ms):
        delivered[message.kind] += 1
        account(self, message, latency_ms)

    monkeypatch.setattr(InMemoryTransport, "_account_delivery", counting)
    for name in scenario_names():
        run_scenario(name, smoke=True, seed=7)

    unreached = sorted(kind.value for kind in MessageKind if not delivered[kind])
    assert not unreached, (
        f"no catalogue scenario delivers {unreached}: reach the kind from a "
        f"scenario or delete it from the protocol"
    )

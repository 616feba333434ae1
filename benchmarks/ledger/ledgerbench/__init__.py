"""The wall-clock benchmark of the ledger and its simulator.

``run.py`` is the entry point; the modules here hold its parts:

* :mod:`ledgerbench.declarations` — workload, metric and interaction tables
  (the single source ``BENCHMARK.json`` and the README are written from),
* :mod:`ledgerbench.timing` — the one wall-clock read and the order statistics,
* :mod:`ledgerbench.workloads` — the six workloads and their correctness checks,
* :mod:`ledgerbench.layers` — cProfile self-time attribution to layers,
* :mod:`ledgerbench.probes` — direct timed calls into single layers,
* :mod:`ledgerbench.report` — result schema, rendering and ``--compare``.

Nothing under ``src/repro`` knows about this package: layers are measured
from outside, by timing calls into their public functions and by a profiler
the harness starts itself.
"""

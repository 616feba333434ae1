"""Static analysis for the reproduction's determinism and protocol invariants.

``python -m repro lint`` runs every registered rule over the tree and exits
nonzero on any unsuppressed finding.  The dynamic checks (seed-trace digests,
convergence fuzzing) sample the behaviour space; this pass proves the
invariants line-by-line — wall-clock and entropy confinement, ordering
discipline ahead of hashing, message-kind registry/dispatch consistency,
frozen-object discipline, documentation sync, and a library without dead
surface (every public definition reached, every import used).

See ``docs/ARCHITECTURE.md`` ("Static analysis") for the rule catalogue.
"""

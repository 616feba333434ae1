"""Determinism rules (``REPRO-D1xx``).

The reproduction's core guarantee — replicas byte-identical per seed,
summaries a pure function of chain content (Section IV-B of the paper) —
survives only if no code path reads ambient nondeterminism.  These rules
forbid the four hazard classes wholesale:

* wall-clock reads outside the one sanctioned module (``core/clock.py``),
* unseeded or OS-backed randomness outside ``crypto/``,
* builtin ``hash()`` / ``id()`` (both vary per process: ``hash`` through
  ``PYTHONHASHSEED``, ``id`` through allocation order) anywhere their value
  could feed ordering, tie-breaks or dedup counts,
* iteration over unordered collections flowing into hashing, canonical
  serialisation or kernel scheduling without a ``sorted(...)`` wrapper.

The dynamic checks (seed-trace digests, convergence fuzzing) sample the
behaviour space; these rules check every line, including paths no scenario
exercises.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from repro.lint.base import Finding, Rule, register
from repro.lint.project import FileContext

#: The module allowed to read the wall clock: every other component must go
#: through an injected :class:`repro.core.clock.Clock`.
CLOCK_MODULE_SUFFIX = "repro/core/clock.py"

#: Package whose modules may use OS entropy (key generation is *meant* to
#: differ per run unless a seed is injected).
CRYPTO_PACKAGE_FRAGMENT = "repro/crypto/"

#: Wall-clock reads: ``module attribute`` call chains that return the current
#: time of the host machine.
WALL_CLOCK_CALLS = {
    ("time", "time"),
    ("time", "time_ns"),
    ("time", "monotonic"),
    ("time", "monotonic_ns"),
    ("time", "perf_counter"),
    ("time", "perf_counter_ns"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
    ("date", "today"),
}

#: Ambient-entropy calls that are nondeterministic regardless of arguments.
OS_ENTROPY_CALLS = {
    ("os", "urandom"),
    ("os", "getrandom"),
    ("uuid", "uuid1"),
    ("uuid", "uuid4"),
    ("secrets", "token_bytes"),
    ("secrets", "token_hex"),
    ("secrets", "token_urlsafe"),
    ("secrets", "randbelow"),
    ("secrets", "choice"),
}

#: Deterministic sinks: functions whose output must not depend on iteration
#: order.  Name form (``canonical_json(...)``) and attribute form
#: (``kernel.schedule(...)``) are both recognised.
ORDER_SENSITIVE_SINKS = {
    "canonical_json",
    "hash_hex",
    "sha256_hex",
    "hash_many",
    "hash_pair",
    "schedule",
    "schedule_at",
    "every",
}


def _dotted(node: ast.AST) -> Optional[tuple[str, str]]:
    """``("module", "attr")`` for ``module.attr`` / ``pkg.module.attr``."""
    if not isinstance(node, ast.Attribute):
        return None
    value = node.value
    if isinstance(value, ast.Name):
        return (value.id, node.attr)
    if isinstance(value, ast.Attribute) and isinstance(value.value, ast.Name):
        # datetime.datetime.now(...) — match on the inner module name.
        return (value.attr, node.attr)
    return None


def _from_imports(ctx: FileContext) -> set[tuple[str, str]]:
    """``(module, name)`` pairs pulled in via ``from module import name``."""
    return {
        (node.module, alias.asname or alias.name)
        for node in ctx.nodes(ast.ImportFrom)
        if node.module
        for alias in node.names
    }


@register
class WallClockRule(Rule):
    """Wall-clock reads outside ``core/clock.py``."""

    rule_id = "REPRO-D101"
    title = "wall-clock read outside core/clock.py"
    rationale = (
        "block timestamps, expiry and idle decisions must come from the injected "
        "Clock so every replica computes them identically"
    )
    example = "stamp = int(time.time())"

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        if ctx.rel_path.endswith(CLOCK_MODULE_SUFFIX):
            return
        from_imports = _from_imports(ctx)
        for node in ctx.nodes(ast.Call):
            chain = _dotted(node.func)
            if chain in WALL_CLOCK_CALLS:
                yield self.finding(
                    ctx,
                    node.lineno,
                    f"wall-clock read {chain[0]}.{chain[1]}() — route time through an "
                    "injected repro.core.clock.Clock",
                )
            elif isinstance(node.func, ast.Name):
                name = node.func.id
                for module, attr in WALL_CLOCK_CALLS:
                    if name == attr and (module, attr) in from_imports:
                        yield self.finding(
                            ctx,
                            node.lineno,
                            f"wall-clock read {attr}() (imported from {module}) — route "
                            "time through an injected repro.core.clock.Clock",
                        )
                        break


@register
class UnseededRandomRule(Rule):
    """Unseeded or OS-backed randomness outside ``crypto/``."""

    rule_id = "REPRO-D102"
    title = "unseeded randomness outside crypto/"
    rationale = (
        "every stochastic choice must replay identically per seed; the module-level "
        "random functions share hidden OS-seeded state"
    )
    example = "delay = random.uniform(1, 20)"

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        if CRYPTO_PACKAGE_FRAGMENT in ctx.rel_path:
            return
        for node in ctx.nodes(ast.Call):
            chain = _dotted(node.func)
            if chain is None:
                continue
            if chain in OS_ENTROPY_CALLS:
                yield self.finding(
                    ctx,
                    node.lineno,
                    f"OS entropy {chain[0]}.{chain[1]}() — inject a seeded "
                    "random.Random instead",
                )
            elif chain[0] == "random":
                if chain[1] == "Random":
                    if not node.args and not node.keywords:
                        yield self.finding(
                            ctx,
                            node.lineno,
                            "random.Random() without a seed — pass an explicit seed "
                            "so runs replay identically",
                        )
                elif chain[1] not in ("SystemRandom",):
                    yield self.finding(
                        ctx,
                        node.lineno,
                        f"module-level random.{chain[1]}() uses shared unseeded state — "
                        "use a seeded random.Random instance",
                    )
                else:
                    yield self.finding(
                        ctx,
                        node.lineno,
                        "random.SystemRandom draws OS entropy — inject a seeded "
                        "random.Random instead",
                    )


@register
class HashIdRule(Rule):
    """Builtin ``hash()`` / ``id()`` outside ``__hash__`` methods."""

    rule_id = "REPRO-D103"
    title = "builtin hash()/id() outside __hash__"
    rationale = (
        "hash() varies with PYTHONHASHSEED and id() with allocation order; neither "
        "may feed ordering, tie-breaks or dedup counts"
    )
    example = "targets.sort(key=lambda n: hash(n))"

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ctx.nodes(ast.Call):
            if not (isinstance(node.func, ast.Name) and node.func.id in ("hash", "id")):
                continue
            # Delegating to hash() over the identity tuple is the idiom
            # *inside* __hash__ — consistency with __eq__ is all that
            # matters there, not cross-process stability.
            function = ctx.enclosing(node, ast.FunctionDef, ast.AsyncFunctionDef)
            if function is not None and function.name == "__hash__":
                continue
            yield self.finding(
                ctx,
                node.lineno,
                f"builtin {node.func.id}() is process-specific — derive ordering, "
                "tie-breaks and counts from stable content instead",
            )


def _is_unordered(node: ast.AST) -> bool:
    """True for expressions producing unordered (or order-fragile) iterables."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in ("set", "frozenset"):
            return True
        if isinstance(node.func, ast.Attribute) and node.func.attr == "values":
            return True
    return False


def _is_sorted_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "sorted"
    )


def _contains_unordered(node: ast.AST) -> bool:
    """True when an unordered source sits in ``node`` outside any sorted()."""
    if _is_sorted_call(node):
        return False
    if _is_unordered(node):
        return True
    return any(_contains_unordered(child) for child in ast.iter_child_nodes(node))


def _is_sink_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    if isinstance(node.func, ast.Name):
        return node.func.id in ORDER_SENSITIVE_SINKS
    if isinstance(node.func, ast.Attribute):
        return node.func.attr in ORDER_SENSITIVE_SINKS
    return False


@register
class UnsortedIterationRule(Rule):
    """Unordered iteration feeding a deterministic sink without ``sorted``."""

    rule_id = "REPRO-D104"
    title = "unordered iteration reaching a deterministic sink"
    rationale = (
        "set iteration order varies per process; anything hashed, canonically "
        "serialised or scheduled from it must pass through sorted(...) first"
    )
    example = "digest = hash_many(peer for peer in set(peers))"

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        comprehensions = (ast.ListComp, ast.GeneratorExp, ast.SetComp, ast.DictComp)
        for node in ctx.nodes(ast.Call, ast.For, *comprehensions):
            if _is_sink_call(node):
                # An unordered source anywhere in the sink's arguments —
                # unless a sorted(...) wrapper stands between them.
                for arg in list(node.args) + [kw.value for kw in node.keywords]:
                    if _contains_unordered(arg):
                        yield self.finding(
                            ctx,
                            node.lineno,
                            "unordered iterable reaches an order-sensitive sink — "
                            "wrap the source in sorted(...)",
                        )
                        break
            elif isinstance(node, ast.For) and _is_unordered(node.iter):
                if any(_is_sink_call(inner) for inner in ctx.nodes(ast.Call, within=node)):
                    yield self.finding(
                        ctx,
                        node.lineno,
                        "loop over an unordered iterable feeds an order-sensitive "
                        "sink — iterate sorted(...) instead",
                    )
            elif isinstance(node, comprehensions):
                if any(
                    _is_unordered(generator.iter) for generator in node.generators
                ) and any(_is_sink_call(inner) for inner in ctx.nodes(ast.Call, within=node)):
                    yield self.finding(
                        ctx,
                        node.lineno,
                        "comprehension over an unordered iterable feeds an "
                        "order-sensitive sink — iterate sorted(...) instead",
                    )

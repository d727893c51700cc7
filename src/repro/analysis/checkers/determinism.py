"""RPR010-013 — determinism in the simulation core.

Checkpoint/resume and ``--jobs`` 1-vs-N equivalence are byte-identical
guarantees: the same spec must produce the same artifact bytes on every
run.  Anything in the simulation core (``cache/``, ``buffers/``,
``core/``, ``system/``, ``workloads/``, ``extensions/``, ``mrc/``) that
reads the
wall clock, an unseeded RNG, the OS entropy pool, or iterates a hash-
randomised ``set`` into results can break that silently — on a machine
you do not own, months later.  (The observability layer *is* allowed to
read the clock: timestamps are telemetry, not results, and live in
``obs/`` which this checker does not visit.)
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, Optional, Set

from repro.analysis.core import Checker, ModuleInfo, Violation, dotted_name

#: Wall-clock reads banned from the simulation core.
_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "date.today",
    "datetime.date.today",
}

#: OS entropy / uuid reads that can never be seeded.
_ENTROPY_CALLS = {
    "os.urandom",
    "os.getrandom",
    "uuid.uuid1",
    "uuid.uuid4",
    "secrets.token_bytes",
    "secrets.token_hex",
    "secrets.token_urlsafe",
    "secrets.randbelow",
    "secrets.choice",
}

#: ``numpy.random`` attributes that are *constructors taking a seed*,
#: not draws from the legacy global generator.
_NP_RANDOM_OK = {
    "Generator",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
    "MT19937",
    "SeedSequence",
    "default_rng",
}


def _set_expression(node: ast.AST) -> bool:
    """A set display, set comprehension, or bare ``set(...)`` call."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        callee = dotted_name(node.func)
        if callee in {"set", "frozenset"}:
            return True
    return False


class DeterminismChecker(Checker):
    name = "determinism"
    codes: Dict[str, str] = {
        "RPR010": "wall-clock read in simulation core "
        "(breaks byte-identical replay)",
        "RPR011": "unseeded RNG in simulation core "
        "(seed it, or thread a seeded generator through)",
        "RPR012": "OS entropy / uuid in simulation core "
        "(cannot be seeded, cannot be replayed)",
        "RPR013": "iteration over a set feeds results "
        "(hash-randomised order; wrap in sorted())",
    }
    tags: Optional[FrozenSet[str]] = frozenset({"simcore"})

    def check_module(self, module: ModuleInfo) -> Iterator[Violation]:
        random_aliases = _module_aliases(module.tree, "random")
        numpy_aliases = _module_aliases(module.tree, "numpy") | {"np"}
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(
                    module, node, random_aliases, numpy_aliases
                )
            elif isinstance(node, (ast.For, ast.comprehension)):
                iterable = node.iter
                if _set_expression(iterable) and not _wrapped_sorted(iterable):
                    yield module.violation(
                        self,
                        "RPR013",
                        iterable,
                        "iterating a set: order is hash-randomised across "
                        "processes, so anything derived from it is not "
                        "reproducible — iterate sorted(...) instead",
                    )

    def _check_call(
        self,
        module: ModuleInfo,
        node: ast.Call,
        random_aliases: Set[str],
        numpy_aliases: Set[str],
    ) -> Iterator[Violation]:
        name = dotted_name(node.func)
        if name is None:
            return
        if name in _CLOCK_CALLS:
            yield module.violation(
                self,
                "RPR010",
                node,
                f"{name}() read in simulation core: results must not "
                f"depend on the wall clock (telemetry belongs in obs/)",
            )
            return
        if name in _ENTROPY_CALLS:
            yield module.violation(
                self,
                "RPR012",
                node,
                f"{name}() in simulation core: OS entropy cannot be "
                f"seeded, so runs cannot be reproduced",
            )
            return
        parts = name.split(".")
        # random.Random() / np.random.default_rng() with no seed argument.
        if parts[-1] in {"Random", "default_rng"} and not node.args:
            yield module.violation(
                self,
                "RPR011",
                node,
                f"{name}() constructed without a seed",
            )
            return
        # Draws from the `random` module's hidden global generator.
        if (
            len(parts) == 2
            and parts[0] in random_aliases
            and parts[1] not in {"Random", "SystemRandom"}
        ):
            yield module.violation(
                self,
                "RPR011",
                node,
                f"{name}() draws from the process-global random state; "
                f"use a random.Random(seed) instance",
            )
            return
        # Draws from numpy's legacy global generator (np.random.<fn>).
        if (
            len(parts) == 3
            and parts[0] in numpy_aliases
            and parts[1] == "random"
            and parts[2] not in _NP_RANDOM_OK
        ):
            yield module.violation(
                self,
                "RPR011",
                node,
                f"{name}() draws from numpy's legacy global generator; "
                f"use np.random.Generator(np.random.PCG64(seed))",
            )


def _module_aliases(tree: ast.Module, module_name: str) -> Set[str]:
    """Names the module is imported as (``import random as rnd`` -> rnd)."""
    aliases: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == module_name:
                    aliases.add(alias.asname or alias.name)
    return aliases


class SetOrderConstructorChecker(Checker):
    """The constructor half of RPR013: ``list(set(..))`` and friends."""

    name = "determinism-set-order"
    codes: Dict[str, str] = {
        "RPR013": "set order fed into an ordered container",
    }
    tags: Optional[FrozenSet[str]] = frozenset({"simcore"})

    def check_module(self, module: ModuleInfo) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = dotted_name(node.func)
            if callee in {"list", "tuple", "enumerate"} and node.args:
                if _set_expression(node.args[0]):
                    yield module.violation(
                        self,
                        "RPR013",
                        node,
                        f"{callee}() over a set: order is hash-randomised; "
                        f"use sorted(...)",
                    )


def _wrapped_sorted(node: ast.AST) -> bool:
    """True when the iterable is already ``sorted(...)`` (never, for a raw
    set expression, but kept for symmetry with future chain handling)."""
    return isinstance(node, ast.Call) and dotted_name(node.func) == "sorted"

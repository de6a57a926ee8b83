"""Spans around ramseylb's layer boundaries, recorded from outside the package.

The tracer replaces functions where the calling module binds them (for
example ``ramseylb.moment.build_field_coloring``), so the package itself
is unchanged.  Every span has a name, a parent, the request that caused
it, and its start and end.  Hot leaf functions (coin flips, seed
derivation, rank) are called up to a few hundred thousand times per
round; they are aggregated per parent span as a call count and a total
time instead of one span per call, which keeps memory small and still
lets the parent's self time subtract them.

Spans stay in memory until ``write`` is called at the end of a run.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

SPAN = "span"
LEAF = "leaf"


def _colored_pairs(result) -> int:
    return math.comb(result.n, 2)


def _found(result) -> int:
    return len(result)


def _attempts(result) -> int:
    # A certificate records the winning attempt index; a failure lists
    # one entry per failed attempt.  Both equal the attempts run by the
    # sequential path, which is the only one traced.
    return getattr(result, "attempt", None) or len(result.failures)


def _mc_trials(result) -> int:
    return result.trials


@dataclass(frozen=True)
class Target:
    """One binding to wrap: ``owner`` is a module path, or ``module:Class``."""

    owner: str
    attr: str
    name: str
    kind: str = SPAN
    measure: Callable | None = None


TARGETS = (
    # isotropic: ground-set enumeration and sampling
    Target("ramseylb", "enumerate_isotropic", "isotropic.enumerate"),
    Target("ramseylb.cli", "enumerate_isotropic", "isotropic.enumerate"),
    Target("ramseylb.moment", "enumerate_isotropic", "isotropic.enumerate"),
    Target("ramseylb.cli", "sample_distinct", "isotropic.sample"),
    Target("ramseylb.moment", "sample_distinct", "isotropic.sample"),
    Target("ramseylb.moment", "bernoulli_subset", "isotropic.sample"),
    # coloring: construction, text format, per-color adjacency
    Target("ramseylb.cli", "build_field_coloring", "coloring.build", measure=_colored_pairs),
    Target("ramseylb.moment", "build_field_coloring", "coloring.build", measure=_colored_pairs),
    Target("ramseylb.cli", "build_two_color", "coloring.build", measure=_colored_pairs),
    Target("ramseylb.cli", "build_paley", "coloring.build", measure=_colored_pairs),
    Target("ramseylb.coloring:EdgeColoring", "to_text", "coloring.to_text"),
    Target("ramseylb.coloring:EdgeColoring", "from_text", "coloring.from_text"),
    Target("ramseylb.coloring:EdgeColoring", "color_class_bitsets", "coloring.bitsets"),
    # rng: leaves
    Target("ramseylb.coloring", "pair_coin", "rng.pair_coin", LEAF),
    Target("ramseylb.moment", "pair_coin", "rng.pair_coin", LEAF),
    Target("ramseylb.cli", "derive_seed", "rng.derive_seed", LEAF),
    Target("ramseylb.moment", "derive_seed", "rng.derive_seed", LEAF),
    Target("ramseylb.coloring", "derive_seed", "rng.derive_seed", LEAF),
    # cliques and field
    Target("ramseylb.cli", "max_monochromatic_clique", "cliques.max_clique"),
    Target("ramseylb.moment", "max_monochromatic_clique", "cliques.max_clique"),
    Target("ramseylb", "enumerate_potential_cliques", "cliques.potential", measure=_found),
    Target("ramseylb.moment", "enumerate_potential_cliques", "cliques.potential", measure=_found),
    Target("ramseylb.cliques", "rank", "field.rank", LEAF),
    # compose
    Target("ramseylb.cli", "blowup_product", "compose.blowup"),
    # moment: witness search, certificates, estimators
    Target("ramseylb.cli", "find_witness", "moment.find_witness", measure=_attempts),
    Target("ramseylb.cli", "reverify_text", "moment.reverify"),
    Target("ramseylb", "monte_carlo_mono_count", "moment.mc", measure=_mc_trials),
    Target("ramseylb", "exact_mono_expectation", "moment.exact"),
    # bounds: the cli reaches these through the module object
    Target("ramseylb.bounds", "baseline_bound", "bounds.table"),
    Target("ramseylb.bounds", "new_bound", "bounds.table"),
    Target("ramseylb.bounds", "field_bound", "bounds.table"),
)


class TargetMissing(RuntimeError):
    """A wrapped name no longer exists, so its metric would silently read 0."""


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    obj = importlib.import_module(module_name)
    if class_name:
        obj = getattr(obj, class_name, None)
        if obj is None:
            raise TargetMissing(f"{owner} does not exist")
    return obj


@dataclass
class Tracer:
    """Spans of one run.  ``spans[i]`` is ``[name, parent, request, round, start, end, qty]``."""

    targets: tuple[Target, ...] = TARGETS
    spans: list[list] = field(default_factory=list)
    # (parent span id, leaf name) -> [calls, seconds]
    leaves: dict[tuple[int, str], list] = field(default_factory=dict)
    round: int = -1
    _stack: list[int] = field(default_factory=list)
    _request: int = -1
    _saved: list[tuple[object, str, object]] = field(default_factory=list)

    @property
    def active(self) -> bool:
        return bool(self._saved)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every target; raise TargetMissing before wrapping anything
        if one of them cannot be found."""
        resolved = []
        for tg in self.targets:
            owner = _resolve(tg.owner)
            try:
                raw = inspect.getattr_static(owner, tg.attr)
            except AttributeError:
                raise TargetMissing(f"{tg.owner}.{tg.attr} does not exist") from None
            resolved.append((owner, tg, raw))
        for owner, tg, raw in resolved:
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, tg))
            else:
                wrapped = self._wrap(raw, tg)
            self._saved.append((owner, tg.attr, raw))
            setattr(owner, tg.attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def _wrap(self, fn: Callable, tg: Target) -> Callable:
        if tg.kind == LEAF:
            return self._wrap_leaf(fn, tg.name)
        name, measure = tg.name, tg.measure
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, self._request, self.round, 0.0, 0.0, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[4] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[5] = time.perf_counter()
                stack.pop()
            if measure is not None:
                rec[6] = measure(result)
            return result

        return wrapper

    def _wrap_leaf(self, fn: Callable, name: str) -> Callable:
        leaves, stack = self.leaves, self._stack

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                key = (stack[-1] if stack else -1, name)
                acc = leaves.get(key)
                if acc is None:
                    leaves[key] = [1, dt]
                else:
                    acc[0] += 1
                    acc[1] += dt

        return wrapper

    # -- spans opened by the benchmark itself -----------------------------

    @contextlib.contextmanager
    def span(self, name: str, request: bool = False):
        """A span around benchmark code; ``request=True`` starts a new request id."""
        if not self.active:
            yield
            return
        if request:
            self._request += 1
        rec = [name, self._stack[-1] if self._stack else -1, self._request, self.round,
               time.perf_counter(), 0.0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[5] = time.perf_counter()
            self._stack.pop()

    # -- aggregation and output -------------------------------------------

    def aggregate(self, round_index: int) -> dict[str, list]:
        """Per span name for one round: [calls, inclusive s, self s, slowest s, qty]."""
        ids = [i for i, s in enumerate(self.spans) if s[3] == round_index]
        child_time: dict[int, float] = {}
        for i in ids:
            s = self.spans[i]
            child_time[s[1]] = child_time.get(s[1], 0.0) + (s[5] - s[4])
        agg: dict[str, list] = {}
        idset = set(ids)
        for (parent, name), (calls, total) in self.leaves.items():
            if parent in idset:
                child_time[parent] = child_time.get(parent, 0.0) + total
                a = agg.setdefault(name, [0, 0.0, 0.0, 0.0, 0])
                a[0] += calls
                a[1] += total
                a[2] += total
        for i in ids:
            name, _, _, _, start, end, qty = self.spans[i]
            dur = end - start
            a = agg.setdefault(name, [0, 0.0, 0.0, 0.0, 0])
            a[0] += 1
            a[1] += dur
            a[2] += dur - child_time.get(i, 0.0)
            a[3] = max(a[3], dur)
            a[4] += qty
        return agg

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="ascii") as fh:
            for i, (name, parent, request, rnd, start, end, qty) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": parent, "request": request, "round": rnd,
                                     "name": name, "start": start, "end": end, "qty": qty}) + "\n")
            for (parent, name), (calls, total) in sorted(self.leaves.items()):
                fh.write(json.dumps({"leaf": name, "parent": parent, "calls": calls,
                                     "seconds": total}) + "\n")

"""In-memory spans and counts at the package's layer boundaries.

The package modules bind each other's functions with ``from ... import``,
so a function is wrapped in every module namespace that holds it; calls
between modules then pass through the wrapper too.  Nothing is wrapped
unless ``install`` is called, so the untraced run times the package
exactly as users call it.
"""

from __future__ import annotations

import json
from collections import Counter
from importlib import import_module
from time import perf_counter

import numpy as np

import stepslab
from stepslab import cli, medium, mobius, resolvent, scattering

# The package re-exports a function named monodromy; fetch the module itself.
monodromy = import_module("stepslab.monodromy")

_NAMESPACES = (stepslab, medium, monodromy, scattering, resolvent, mobius, cli)

#: Functions given a span: (home module, name, position of lam, position of k).
SPANNED = (
    (monodromy, "find_bands", None, None),
    (monodromy, "transfer_power", 1, 2),
    (scattering, "transmission_sq", 1, 2),
    (scattering, "reflection_k", 1, 2),
    (scattering, "perfect_transmission_frequencies", None, 2),
    (scattering, "reflection_half_infinite", 1, None),
    (resolvent, "q_recursion", 1, 2),
    (resolvent, "chain_determinants", 1, 2),
    (resolvent, "find_resonances", None, 1),
    (resolvent, "count_zeros_rectangle", None, 1),
    (resolvent, "audit_count", None, 1),
    (resolvent, "reflection_via_q", 1, 2),
    (resolvent, "convergence_study", None, None),
    (resolvent, "resonances_k1", None, None),
    (mobius, "fixed_points", None, None),
    (mobius, "iterate_limit", None, None),
    (mobius, "mobius_map", None, None),
    (mobius, "r1", None, None),
    (medium, "transparency_frequencies", None, None),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "n", "k", "out", "err",
                 "array", "index")

    def __init__(self, name, parent, op, n, k, array, index):
        self.name, self.parent, self.op = name, parent, op
        self.n, self.k, self.array, self.index = n, k, array, index
        self.start = self.end = 0.0
        self.out = self.err = None

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {s: getattr(self, s) for s in self.__slots__}


class Tracer:
    """Records spans (name, start, end, parent, op id) and call counts.

    ``active`` is switched off around output checks so that the checks'
    own calls into the package are not attributed to a layer.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.active = False
        self.op: int | None = None
        self._stack: list[Span] = []
        self._undo: list[tuple] = []

    # -- recording -----------------------------------------------------
    def _open(self, name, n=None, k=None, array=False) -> Span:
        parent = self._stack[-1].index if self._stack else None
        span = Span(name, parent, self.op, n, k, array, len(self.spans))
        self.spans.append(span)
        self._stack.append(span)
        span.start = perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()

    def begin_op(self, name: str) -> Span:
        """Open the root span of one op execution; its index is the op id
        that every span under it carries."""
        self.op = len(self.spans)
        return self._open(name)

    def end_op(self, span: Span) -> None:
        self._close(span)
        self.op = None

    def _spanned(self, name, fn, lam_pos, k_pos):
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            lam = args[lam_pos] if lam_pos is not None and lam_pos < len(args) else None
            k = args[k_pos] if k_pos is not None and k_pos < len(args) else None
            span = self._open(name, int(np.size(lam)) if lam is not None else None, k,
                              isinstance(lam, np.ndarray) and lam.ndim > 0)
            try:
                out = fn(*args, **kwargs)
            except BaseException as err:
                span.err = type(err).__name__
                raise
            finally:
                self._close(span)
            if isinstance(out, list):
                span.out = len(out)
            return out
        wrapper.__wrapped__ = fn
        return wrapper

    # The two counted functions take two positional arguments and are called
    # up to millions of times per pass, so their wrappers stay minimal.
    def _count_scalar_lam(self, name, fn):
        counts = self.counts

        def wrapper(cell, lam):
            if self.active and not isinstance(lam, np.ndarray):
                counts[name] += 1
            return fn(cell, lam)
        wrapper.__wrapped__ = fn
        return wrapper

    def _count_calls(self, name, fn):
        counts = self.counts

        def wrapper(obj, z):
            if self.active:
                counts[name] += 1
            return fn(obj, z)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------
    def _replace(self, home, name, wrapper_of) -> None:
        orig = getattr(home, name)
        wrapper = wrapper_of(orig)
        for mod in _NAMESPACES:
            if getattr(mod, name, None) is orig:
                self._undo.append((mod, name, orig))
                setattr(mod, name, wrapper)

    def install(self) -> None:
        """Wrap every boundary function in every namespace that binds it."""
        for home, name, lam_pos, k_pos in SPANNED:
            label = f"{home.__name__.rsplit('.', 1)[-1]}.{name}"
            self._replace(home, name,
                          lambda fn: self._spanned(label, fn, lam_pos, k_pos))
        self._replace(monodromy, "lyapunov",
                      lambda fn: self._count_scalar_lam("monodromy.lyapunov.scalar_calls", fn))
        orig_apply = mobius.MobiusMap.apply
        self._undo.append((mobius.MobiusMap, "apply", orig_apply))
        mobius.MobiusMap.apply = self._count_calls("mobius.MobiusMap.apply.calls", orig_apply)

    def uninstall(self) -> None:
        for obj, name, orig in reversed(self._undo):
            setattr(obj, name, orig)
        self._undo.clear()

    def dump(self, path, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "counts": dict(self.counts),
                       "spans": [s.as_dict() for s in self.spans]}, fh)


def self_seconds(span: Span, children: list[Span]) -> float:
    """Span duration minus the part of it covered by its direct children."""
    covered, cursor = 0.0, span.start
    for c in sorted(children, key=lambda c: c.start):
        lo, hi = max(c.start, cursor), min(c.end, span.end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return span.seconds - covered

"""Output checks for the benchmark's operations.

Every check applies all of its rules and returns a Verdict listing each
rule the output broke, with a one-line description.  A known defect
(workloads.py) excuses named rules only, so an op that carries one still
fails the run when it breaks any other rule.  ``stats`` carries the
numbers the traced run aggregates into per-layer metrics.  The rules are
the package's own structural facts, so a silent NaN or a short root list
fails an op instead of passing unnoticed.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from stepslab import (DeterminantOverflowError, Window, default_im_floor,
                      find_bands, find_resonances, lyapunov, transmission_sq,
                      transparency_frequencies)

#: |r|^2 + t - 1 on the real axis.
UNITARITY_TOL = 1e-8
#: |F| - 1 at a band edge.
EDGE_TOL = 1e-9
#: 1 - t at a perfect-transmission frequency.
PEAK_TOL = 1e-9
#: |d Q - 1| at a resonance (the solver's own tolerance).
RESIDUAL_TOL = 1e-10
#: Newton roots closer than this are one root (the solver's own radius).
DEDUP_RADIUS = 1e-6

_NAN_FIELDS = {"nan", "-nan", "inf", "-inf"}


@dataclass
class Verdict:
    #: (rule, description) for every rule the output broke.
    failures: list[tuple[str, str]] = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def rules(self) -> set[str]:
        return {rule for rule, _ in self.failures}

    @property
    def reason(self) -> str | None:
        return "; ".join(msg for _, msg in self.failures) or None


def failed(rule: str, msg: str) -> Verdict:
    return Verdict([(rule, msg)])


def check_sweep(t, r) -> Verdict:
    """Real-axis sweep: finite, 0 < t <= 1 and ||r|^2 + t - 1| <= 1e-8.

    Non-finite points and points with t == 0 are reported under their own
    rules; range and unitarity are checked on every other point.
    """
    t, r = np.asarray(t), np.asarray(r)
    finite = np.isfinite(t) & np.isfinite(r)
    nonfinite = int(np.count_nonzero(~np.isfinite(t)) + np.count_nonzero(~np.isfinite(r)))
    zero = finite & (t == 0.0)
    rest = finite & ~zero
    err = np.abs(np.abs(r[rest]) ** 2 + t[rest] - 1.0)
    stats = {"elements": t.size + r.size, "nonfinite": nonfinite,
             "unitarity_err": float(err.max()) if err.size else 0.0}
    verdict = Verdict([], stats)
    if nonfinite:
        verdict.failures.append(
            ("nonfinite", f"{nonfinite} of {t.size + r.size} outputs not finite"))
    if np.any(zero):
        verdict.failures.append(("t_zero", f"t = 0 at {int(np.count_nonzero(zero))} points"))
    out_of_range = int(np.count_nonzero((t[rest] <= 0.0) | (t[rest] > 1.0)))
    if out_of_range:
        verdict.failures.append(("t_range", f"t outside (0, 1] at {out_of_range} points"))
    if stats["unitarity_err"] > UNITARITY_TOL:
        verdict.failures.append(("unitarity", f"unitarity error {stats['unitarity_err']:.3g}"))
    return verdict


def check_bands(cell, bands) -> Verdict:
    """Every located edge satisfies |F| = 1 to 1e-9 (clipped ends excepted)."""
    if not bands:
        return failed("no_bands", "no bands found")
    edges = [b.lo for b in bands] + [b.hi for b in bands if b.hi_type is not None]
    err = max(abs(abs(float(lyapunov(cell, e))) - 1.0) for e in edges)
    if err > EDGE_TOL:
        return failed("edge", f"edge |F| off by {err:.3g}")
    return Verdict()


def check_perfect_transmission(cell, band, k: int, roots) -> Verdict:
    """k - 1 roots in the band plus its interior transparency frequencies,
    each with t >= 1 - 1e-9."""
    extra = [x for x in transparency_frequencies(cell, band.hi)
             if band.lo + 1e-9 < x < band.hi - 1e-9]
    want = k - 1 + len(extra)
    verdict = Verdict()
    if len(roots) != want:
        verdict.failures.append(("count", f"{len(roots)} roots, expected {want}"))
    if any(not band.lo <= x <= band.hi for x in roots):
        verdict.failures.append(("outside", "root outside the band"))
    if len(roots):
        t_min = float(np.min(transmission_sq(cell, np.asarray(roots, dtype=float), k)))
        if t_min < 1.0 - PEAK_TOL:
            verdict.failures.append(("peak", f"min transmission {t_min!r} at a root"))
    return verdict


def check_resonances(cell, k: int, window: Window, found) -> Verdict:
    """k - 1 or k roots per complete band, residual <= 1e-10, Im < 0, and
    every root assigned to a band."""
    bands = find_bands(cell, window.re_max)
    complete = [b for b in bands if b.hi_type is not None
                and b.lo >= window.re_min and b.hi <= window.re_max]
    per_band = Counter(r.band_index for r in found)
    missing = sum(max(0, k - 1 - per_band[b.index]) for b in complete)
    stats = {"roots": len(found), "missing": missing,
             "newton_iters": sum(r.newton_iters for r in found)}
    verdict = Verdict([], stats)
    for rule, wrong in (("roots_short", lambda n: n < k - 1), ("roots_excess", lambda n: n > k)):
        bad = [f"band {b.index}: {per_band[b.index]}" for b in complete
               if wrong(per_band[b.index])]
        if bad:
            verdict.failures.append(
                (rule, f"per-band counts off ({', '.join(bad)}; want {k - 1} or {k})"))
    rules = (("residual", "residual above 1e-10", lambda r: r.residual > RESIDUAL_TOL),
             ("im", "root with Im >= 0", lambda r: r.lam.imag >= 0.0),
             ("unassigned", "root assigned to no band", lambda r: r.band_index is None))
    for rule, msg, broken in rules:
        n = sum(map(broken, found))
        if n:
            verdict.failures.append((rule, f"{n} roots: {msg}"))
    return verdict


class NewtonReference:
    """Newton root sets that audit counts are compared against.

    Each (cell, k, re_max) set is computed once per process, in the
    check phase and so outside every timed region.
    """

    def __init__(self):
        self._roots: dict = {}

    def roots(self, cell, k: int, re_max: float) -> list[complex]:
        key = (cell, k, re_max)
        if key not in self._roots:
            window = Window(0.0, re_max, default_im_floor(cell))
            self._roots[key] = [r.lam for r in find_resonances(cell, k, window)]
        return self._roots[key]

    def count(self, cell, k: int, re_max: float, rect) -> int:
        """Distinct roots inside rect = (re_lo, re_hi, im_lo, im_hi), with
        mirror roots -conj(lam) added where the rectangle crosses Re = 0."""
        re_lo, re_hi, im_lo, im_hi = rect
        pts = list(self.roots(cell, k, re_max))
        pts += [-z.conjugate() for z in pts if z.real > DEDUP_RADIUS]
        inside: list[complex] = []
        for z in pts:
            if re_lo < z.real < re_hi and im_lo < z.imag < im_hi:
                if all(abs(z - w) > DEDUP_RADIUS for w in inside):
                    inside.append(z)
        return len(inside)


def check_audit(outcome, reference: int | None) -> Verdict:
    """The argument-principle count equals the Newton count in the same
    rectangle.  ``outcome`` is the count or the exception raised."""
    overflow = isinstance(outcome, DeterminantOverflowError)
    stats = {"overflow": int(overflow), "agree": 0}
    if isinstance(outcome, BaseException):
        return Verdict([("overflow" if overflow else "error",
                         f"{type(outcome).__name__}: {outcome}")], stats)
    if outcome != reference:
        return Verdict([("count_mismatch", f"audit counts {outcome}, Newton finds {reference}")],
                       stats)
    stats["agree"] = 1
    return Verdict([], stats)


def check_probe_values(values) -> Verdict:
    """Scalar reflection probes: every value finite and |r| <= 1 (+1e-9)."""
    vals = np.asarray(values, dtype=complex)
    finite = np.isfinite(vals)
    verdict = Verdict()
    if not np.all(finite):
        verdict.failures.append(
            ("nonfinite", f"{int(np.count_nonzero(~finite))} probe values not finite"))
    top = float(np.max(np.abs(vals[finite]), initial=0.0))
    if top > 1.0 + 1e-9:
        verdict.failures.append(("modulus", f"probe modulus {top!r} above 1"))
    return verdict


def check_cli(code: int, path, fixed_points_cell=None) -> Verdict:
    """Exit 0 and no nan field; for fixed-points, kind is elliptic exactly
    where |F| < 1."""
    if code != 0:
        return failed("exit", f"exit code {code}")
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    bad = sum(any(v.strip().lower() in _NAN_FIELDS for v in row.values() if v) for row in rows)
    verdict = Verdict()
    if bad:
        verdict.failures.append(("nan_field", f"{bad} of {len(rows)} rows hold a nan field"))
    if fixed_points_cell is not None:
        kinds = ("elliptic", "hyperbolic", "parabolic")
        wrong = sum((row["kind"] == "elliptic")
                    != (abs(float(lyapunov(fixed_points_cell, float(row["lambda"])))) < 1.0)
                    for row in rows if row["kind"] in kinds)
        if wrong:
            verdict.failures.append(("kind", f"{wrong} rows with kind inconsistent with |F| < 1"))
    return verdict

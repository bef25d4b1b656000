"""Resonance spectrum of the finite slab.

Resonances are the lower-half-plane poles of the meromorphically
continued resolvent, equivalently of the slab reflection coefficient.
They solve d * Q(lam) = 1 where Q is the terminal value of a bounded
linear-fractional recursion over the 2k interfaces, and they are the zeros
of the entire slab denominator den, the root-finding target.  The
interface-chain determinant (``chain_determinants``), den times a known
nonvanishing factor from the same O(log k) kernel call, is the
argument-principle counter; it grows like (b1+b2)^(2k) e^{|Im lam| b1 k} and
raises DeterminantOverflowError past 1e300.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (ContourThroughZeroError, DeterminantOverflowError,
                     EmptyWindowWarning, InvalidRangeError, RecursionPoleError)
from .medium import UnitCell
from .monodromy import (_EDGE_LOCATION_TOL, Band, _cell_count, _half_angles, _larger_multiplier,
                        _offset, find_bands)
from .scattering import (_blockwise, _closed_s_n, _quotient, _slab_terms, _validate_band,
                         perfect_transmission_frequencies, reflection_k)

_NEWTON_MAX_ITER = 50

#: Steps in a row without halving its best |step| that stop a run short of its step bound.
_STALL_STEPS = 16

#: Halvings of ln(depth) that put a seed where den's two Bloch waves balance, to about 1%.
_BALANCE_HALVINGS = 12

#: A run is a root candidate when its last Newton step |den/den'| is at most the merge
#: radius times this.
_STEP_SHARE = 0.01

#: Most cells one search may take: a band's k - 1 transmission peaks and its markers cost
#: about 80 B each at once (peak RSS 238 MB at k = 2**21 and 1.37 GB at 2**24, narrow window).
_MAX_CELLS = 1 << 24

#: Most seeds, markers in the window (2k + 1 per whole band), that one search may run: about
#: 600 B each with their roots (peak RSS 111 MB for 131 073 seeds, 2.52 GB for 2**22 - 1).
_MAX_SEEDS = 1 << 22

#: Points on the circle, of half the merge radius, on which den must wind once about a root.
_CIRCLE_POINTS = 16

#: A contour count starts from at most 2**17 points per side, and gives up once refinement
#: has added as many samples again (4 * 2**17) or one step has been halved 40 times.
_CONTOUR_MAX_SIDE = 1 << 17
_CONTOUR_MAX_HALVINGS = 40

#: Distance of an audit contour's vertical sides from the band edges.
_AUDIT_MARGIN = 0.05


@dataclass(frozen=True)
class Window:
    """Rectangular search region Re in [re_min, re_max], Im in [im_min, 0)."""

    re_min: float
    re_max: float
    im_min: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.re_min, self.re_max))) or math.isnan(self.im_min):
            raise InvalidRangeError(f"window bounds must be numbers, re bounds finite: {self}")
        if self.re_min < 0.0:
            raise InvalidRangeError(f"re_min must be >= 0, got {self.re_min}")
        if self.re_max <= self.re_min:
            raise InvalidRangeError(f"window ill ordered: [{self.re_min}, {self.re_max}]")
        if self.im_min >= 0.0:
            raise InvalidRangeError(f"im_min must be negative, got {self.im_min}")


@dataclass(frozen=True)
class Resonance:
    """One scattering pole with solver metadata: ``residual`` is the final Newton step
    |den/den'| at lam, a location error only where it lies above den's rounding."""

    lam: complex
    residual: float
    band_index: int | None
    newton_iters: int


def default_im_floor(cell: UnitCell) -> float:
    """Default search depth -1/(b2 x2), the one-cell depth ln|d|/(b2 x2) at |d| = 1/e.  Weak
    contrast can put every small-k root below it: UnitCell(1.5134323549576634, 1.8507482821005143,
    0.7988427563170095), |d| = 0.10, has none above -0.676 in bands 1 and 2 at k = 2."""
    return -1.0 / (cell.b2 * cell.x2)


@_blockwise
def q_recursion(cell: UnitCell, lam, k: int):
    """Terminal recursion value Q over the 2k interfaces of a k-cell slab.

    Starting from Q = d * exp(2i lam b2 x2), each additional cell applies
    an odd step with phase exp(2i lam b1 (1-x2)) and contrast -d, then an
    even step with phase exp(2i lam b2 x2) and contrast +d, which ends at
    Q = (d - r_k)/(1 - d r_k).  For Im lam >= 0 |Q| < 1.  Accepts scalar
    or array lam; the check of Q's pole applies to scalars only.
    """
    d = cell.contrast
    num, den, _ = _slab_terms(cell, lam, k)
    return _quotient(d * den - num, den - d * num,
                     lambda: RecursionPoleError(lam, 2 * k))


@_blockwise
def _chain_terms(cell: UnitCell, lam, k: int):
    """The chain determinant -(4 b1 b2)^k e^{i lam b1 k} 2^e den / 2 from one kernel call,
    with r_k = num/den and the k-cell scale 2**e.  The real scale enters the exponent as a
    log, so only the finished product can overflow."""
    _, den, e = _slab_terms(cell, lam, k)
    log_scale = k * math.log(4.0 * cell.b1 * cell.b2) + (e - 1) * math.log(2.0)
    with np.errstate(over="ignore", invalid="ignore"):
        return -np.exp(log_scale + 1j * lam * cell.b1 * k) * den


def chain_determinants(cell: UnitCell, lam, k: int):
    """Boundary-matching determinant of the (2k+1)-step interface chain.

    The chain alternates b1, b2, b1, ..., b1 with interfaces at
    0, x2, 1, 1+x2, ..., k-1, k-1+x2.  The determinant is entire in lam
    and vanishes exactly at the resonances: it is the slab denominator den
    of the O(log k) kernel times a known zero-free factor (``_chain_terms``).
    Returns a complex for scalar lam and an array otherwise.  Raises when
    its largest magnitude over the batch is above 1e300 or not finite (the
    determinant grows like (b1+b2)^(2k), and like e^{|Im lam| b1 k} below
    the axis).
    """
    lam = np.asarray(lam, dtype=complex)
    value = _chain_terms(cell, lam, k)
    peak = float(np.max(np.abs(value)))
    if not math.isfinite(peak) or peak > 1e300:
        del lam, value  # the error's traceback keeps this frame alive
        raise DeterminantOverflowError(
            f"chain determinant of {k} cells overflows (peak {peak}); use find_resonances")
    return complex(value) if lam.ndim == 0 else value


def resonances_k1(cell: UnitCell, re_max: float, re_min: float = 0.0) -> list[Resonance]:
    """Closed-form one-cell resonances with Re(lam) in [re_min, re_max].

    The one-cell condition d^2 exp(2i lam b2 x2) = 1 puts all roots on the line Im(lam) =
    ln|d|/(b2 x2) at Re(lam) = m*pi/(b2 x2), m = 0, 1, 2, ..., windowed and labelled as by
    ``find_resonances``, with slack _EDGE_LOCATION_TOL.  A homogeneous cell has no resonances.
    """
    if cell.homogeneous:
        return []
    if re_max < re_min or re_min < 0.0:
        raise InvalidRangeError(f"bad window [{re_min}, {re_max}]")
    d = cell.contrast
    depth = math.log(abs(d)) / (cell.b2 * cell.x2)
    spacing = math.pi / (cell.b2 * cell.x2)
    bands = find_bands(cell, re_max + spacing)
    out = []
    m = int(math.floor(re_min / spacing))
    while m * spacing <= re_max + _EDGE_LOCATION_TOL:
        re = m * spacing
        if re >= re_min - _EDGE_LOCATION_TOL:
            lam = complex(re, depth)
            step = abs(_resonance_condition(cell, lam, 1))
            out.append(Resonance(lam, step, _assign_band(bands, re), 0))
        m += 1
    return out


def _assign_band(bands: list[Band], re: float) -> int | None:
    for b in bands:
        if b.contains(re, _EDGE_LOCATION_TOL):
            return b.index
    return None


@_blockwise
def _resonance_condition(cell: UnitCell, lam, k: int):
    """Newton's step den/den' on the entire slab denominator den = u S - 2v, whose zeros are
    the resonances, from one kernel evaluation (the 2**e scale cancels in the quotient)."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        _, den, dden, _ = _slab_terms(cell, lam, k, slope=True)
        return den / dden


@_blockwise
def _wave_ratio(cell: UnitCell, lam, k: int):
    """ln r, r the modulus of den's subdominant Bloch wave over its dominant one in
    den (mu - 1/mu) = mu^k (S - 2/mu) - mu^-k (S - 2 mu), mu the multiplier of larger modulus
    (``_larger_multiplier``): ln|S - 2 mu| - ln|S - 2/mu| - 2k ln|mu|.  den vanishes only where
    r = 1, the seeds' depth (``_seeds``).  No Chebyshev power, so it costs the same at every k."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lam, lib, half = _half_angles(cell, lam)
        s, _ = _closed_s_n(cell, lam, lib, half)
        mu = _larger_multiplier(*_offset(cell, lib, half), lib)
        return (np.log(np.abs(s - 2.0 * mu)) - np.log(np.abs(s - 2.0 / mu))
                - 2.0 * k * np.log(np.abs(mu)))


def _seeds(cell: UnitCell, k: int, re: np.ndarray, im_min: float) -> np.ndarray:
    """One Newton seed per real part, where ``_wave_ratio`` changes sign on its vertical line:
    _BALANCE_HALVINGS halvings of ln(depth) over [1e-16, floor], floor the window's capped at
    twice the one-cell depth 2 max(1, -ln|d|)/(b2 x2), so that an unbounded window works.  NaN
    counts as below the roots; a line with no sign change ends by the bracket end it points to."""
    one_cell = 2.0 * max(1.0, -math.log(abs(cell.contrast))) / (cell.b2 * cell.x2)
    lo = np.full(re.shape, math.log(1e-16))
    hi = np.full(re.shape, math.log(min(-im_min, one_cell)))
    for _ in range(_BALANCE_HALVINGS):
        mid = 0.5 * (lo + hi)
        above = _wave_ratio(cell, re - 1j * np.exp(mid), k) > 0.0
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    return re - 1j * np.exp(0.5 * (lo + hi))


def _newton_batch(cell: UnitCell, k: int, seeds: np.ndarray, tol: float):
    """Vectorized Newton on den, the entire denominator of r_k, each step den/den' from one
    kernel call (``_resonance_condition``), with two stops.

    Runs whose step is not finite are dropped.  A run whose step |den/den'| has fallen to
    tol is polished down to its rounding: it stops at its first step that does not halve its
    best, or that would move it by at most 4 ulps.  Short of tol, a run stalls once
    _STALL_STEPS steps in a row have not brought |step| below half its best so far, and
    stops there or at _NEWTON_MAX_ITER.  Returns the last iterates, the size of the step
    each would take next and their step counts.
    """
    z = seeds.astype(complex)
    step = _resonance_condition(cell, z, k)
    alive = np.isfinite(step)
    iters = np.zeros(z.shape, dtype=int)
    met = np.zeros(z.shape, dtype=bool)
    best, stall = np.abs(step), np.zeros(z.shape, dtype=int)
    for it in range(1, _NEWTON_MAX_ITER + 1):
        idx = np.nonzero(alive)[0]
        if idx.size == 0:
            break
        znew = z[idx] - step[idx]
        snew = _resonance_condition(cell, znew, k)
        ok = np.isfinite(snew)
        good = idx[ok]
        z[good] = znew[ok]
        step[good] = snew[ok]
        iters[good] = it
        alive[idx[~ok]] = False
        size = np.abs(snew[ok])
        met[good[size <= tol]] = True
        stall[good] = np.where(size < 0.5 * best[good], 0, stall[good] + 1)
        best[good] = np.fmin(best[good], size)
        # a run within tol has reached its rounding at its first step that does not halve
        # its best, or that would move it by at most 4 ulps
        done = met[good] & (size <= 4.0 * math.ulp(1.0) * np.abs(z[good]))
        alive[good[done | (stall[good] >= np.where(met[good], 1, _STALL_STEPS))]] = False
    return z, np.abs(step), iters


def _winds_once(cell: UnitCell, k: int, roots: np.ndarray, radius: float) -> np.ndarray:
    """Whether den winds exactly once on the circle of the given radius about each root:
    _CIRCLE_POINTS samples from one kernel call, every phase step below pi/2 and the phase
    total 2 pi (the argument principle applied to one root; den is entire)."""
    ring = radius * np.exp(2j * math.pi * np.arange(_CIRCLE_POINTS) / _CIRCLE_POINTS)
    den = _slab_den(cell, roots[:, None] + ring, k)
    with np.errstate(divide="ignore", invalid="ignore"):
        steps = np.angle(np.roll(den, -1, axis=1) / den)
    clear = np.all(np.abs(steps) < 0.5 * math.pi, axis=1)
    return clear & (np.abs(np.sum(steps, axis=1) - 2.0 * math.pi) < 1.0)


@_blockwise
def _slab_den(cell: UnitCell, lam, k: int):
    """den = u S - 2v up to its positive scale 2**e, which leaves its phase alone."""
    return _slab_terms(cell, lam, k)[1]


def find_resonances(cell: UnitCell, k: int, window: Window) -> list[Resonance]:
    """All resonances of the k-cell slab inside the window.

    Bands are scanned to re_max + 2 pi/tau, which covers every band the window touches, since
    each lies in a Bragg interval [n pi/tau, (n+1) pi/tau] (``find_bands``).  A band's markers
    are its two edges, its k - 1 perfect-transmission frequencies (at k = 1 its transparency
    frequencies), which sit right above the resonances, and the midpoint of every pair of
    neighbours; those from the last below re_min to the first past re_max each get one seed,
    where den's two Bloch waves balance (``_seeds``), the line on which every root lies.  The
    seeds run Newton together on the slab denominator den (``_newton_batch``).  Runs in the
    window whose last step |den/den'| is at most _STEP_SHARE of the merge radius, 1/20 of the
    smallest spacing of neighbouring edges and peaks of those whole bands, which follows the
    roots' spacing down to its 1/k^2 crowding at the edges, are deduplicated greedily in the
    order of that step within the radius; each survivor must wind den once on a circle of half
    the radius (``_winds_once``).  A root's band is the first within _EDGE_LOCATION_TOL of its
    real part, the one slack of the window's and the bands' bounds.  Kept roots have Im < 0,
    exactly: den has no zero on the real axis, where |t_k|^2 > 0, nor above it.  MemoryError is
    raised before any k-sized array where k exceeds _MAX_CELLS, and before any seed where the
    window holds more than _MAX_SEEDS markers.
    """
    _cell_count(k)
    if cell.homogeneous:
        return []
    bands = find_bands(cell, window.re_max + 2.0 * math.pi / cell.transit_time)
    re_lo, re_hi = window.re_min - _EDGE_LOCATION_TOL, window.re_max + _EDGE_LOCATION_TOL
    bands_in = [b for b in bands if b.hi > re_lo and b.lo < re_hi]
    if not bands_in:
        warnings.warn("window intersects no spectral band", EmptyWindowWarning, stacklevel=2)
        return []
    if k > _MAX_CELLS:
        raise MemoryError(f"{k} cells exceed the {_MAX_CELLS} one search may take")

    re_parts: list[np.ndarray] = []
    spacing = math.inf
    for b in bands_in:
        marks = np.array([b.lo, *perfect_transmission_frequencies(cell, b, k), b.hi])
        spacing = min(spacing, float(np.min(np.diff(marks))))
        marks = np.sort(np.concatenate([marks, 0.5 * (marks[:-1] + marks[1:])]))
        first = max(int(np.searchsorted(marks, window.re_min)) - 1, 0)
        re_parts.append(marks[first:np.searchsorted(marks, window.re_max, "right") + 1])
        if sum(map(len, re_parts)) > _MAX_SEEDS:
            raise MemoryError(f"more than {_MAX_SEEDS} seeds in the window at {k} cells")

    # kept roots lie more than the radius apart, so their circles of half the radius are
    # disjoint and each certified root is a distinct zero of den
    radius = spacing / 20.0
    bound = _STEP_SHARE * radius
    seeds = _seeds(cell, k, np.concatenate(re_parts), window.im_min)
    roots, resid, iters = _newton_batch(cell, k, seeds, bound)

    order = np.argsort(resid, kind="stable")
    z = roots[order]
    inside = ((resid[order] <= bound) & (z.imag < 0.0)
              & (z.imag >= window.im_min - _EDGE_LOCATION_TOL)
              & (z.real >= re_lo) & (z.real <= re_hi))
    # kept roots binned by real part at twice the radius: one within the radius of a
    # candidate sits in the candidate's bin or a neighbouring one
    kept: list[tuple[complex, float, int]] = []
    bins: dict[float, list[complex]] = {}
    cand, z = order[inside], z[inside]
    for i, lam, key in zip(cand.tolist(), z.tolist(),
                           np.floor(z.real / (2.0 * radius)).tolist()):
        for other in [*bins.get(key - 1, ()), *bins.get(key, ()), *bins.get(key + 1, ())]:
            if abs(lam - other) <= radius:
                break
        else:
            bins.setdefault(key, []).append(lam)
            kept.append((lam, float(resid[i]), int(iters[i])))

    once = _winds_once(cell, k, np.array([t[0] for t in kept], dtype=complex), 0.5 * radius)
    kept = sorted((t for t, ok in zip(kept, once) if ok), key=lambda t: (t[0].real, t[0].imag))
    return [Resonance(lam, r, _assign_band(bands, lam.real), it) for lam, r, it in kept]


#: Slab reflection through the interface recursion, r = (d - Q)/(1 - d Q).
#: That quotient reduces to ``reflection_k``'s num/den, so it is divided once:
#: its poles are exactly the resonances, and it stays regular at Q's own poles.
reflection_via_q = reflection_k


def count_zeros_rectangle(cell: UnitCell, k: int, re_lo: float, re_hi: float,
                          im_lo: float, im_hi: float) -> int:
    """Number of resonances in a rectangle by the argument principle.

    Accumulates the phase winding of ``chain_determinants``, the entire
    interface-chain determinant (den times a zero-free factor), along the
    rectangle boundary.  The start grid puts max(256, 16 k) points on each
    side per band period (pi over the transit time) the rectangle spans,
    which resolves the resonance spacing.  Only the steps whose phase
    increment is ambiguous (at least pi/2) are then bisected, and only the
    new midpoints are evaluated, until every step is below pi/2; the total
    must be within 0.01 of an integer.  Being entire, the determinant has
    no poles to corrupt the count, unlike the recursion quotient.  A zero
    on or next to the contour raises ContourThroughZeroError once a step
    has been halved 40 times or the refinement has added 4 * 2**17 samples
    to the start grid (at most 2**17 points per side).
    """
    if not (re_lo < re_hi and im_lo < im_hi):
        raise InvalidRangeError("contour rectangle is ill ordered")
    if not all(map(math.isfinite, (re_lo, re_hi, im_lo, im_hi))):
        raise InvalidRangeError("contour rectangle is not finite")
    periods = math.ceil((re_hi - re_lo) * cell.transit_time / math.pi)
    n = min(max(256, 16 * _cell_count(k)) * periods, _CONTOUR_MAX_SIDE)
    corners = np.array([re_lo + 1j * im_lo, re_hi + 1j * im_lo, re_hi + 1j * im_hi,
                        re_lo + 1j * im_hi, re_lo + 1j * im_lo])
    # integer positions, 2**40 to a start step: a step halved 40 times has length 1
    unit = 1 << _CONTOUR_MAX_HALVINGS

    def at(pos):  # contour points at integer sample positions
        return np.interp(pos / (n * unit), np.arange(5), corners)

    pos = np.arange(4 * n + 1, dtype=np.int64) * unit
    try:
        vals = chain_determinants(cell, at(pos), k)
        while True:
            if np.min(np.abs(vals)) == 0.0:
                raise ContourThroughZeroError("determinant vanishes on the counting contour")
            steps = np.angle(vals[1:] / vals[:-1])
            bad = np.flatnonzero(np.abs(steps) >= 0.5 * math.pi)
            if bad.size == 0:
                break
            if (pos.size + bad.size > 4 * (n + _CONTOUR_MAX_SIDE) + 1
                    or np.min(pos[bad + 1] - pos[bad]) < 2):
                raise ContourThroughZeroError(
                    "phase winding failed to stabilize; a zero lies on or next to the contour")
            mid = (pos[bad] + pos[bad + 1]) // 2
            pos = np.insert(pos, bad + 1, mid)
            vals = np.insert(vals, bad + 1, chain_determinants(cell, at(mid), k))
    except DeterminantOverflowError:
        pos = vals = steps = bad = mid = None  # the error's traceback keeps this frame alive
        raise
    total = float(np.sum(steps)) / (2.0 * math.pi)
    nearest = round(total)
    if abs(total - nearest) >= 0.01:
        raise ContourThroughZeroError(f"phase winding {total} is not an integer")
    return int(nearest)


def audit_count(cell: UnitCell, k: int, band: Band, im_floor: float | None = None) -> int:
    """Newton-independent resonance count for one band.

    Counts zeros inside [band.lo - margin, band.hi + margin] x
    [im_floor, band.width/k] by the argument principle, with margin
    _AUDIT_MARGIN.  The top side lies above the real axis: the determinant
    is den times a zero-free factor, and den has no zeros in the closed
    upper half plane, so the count is that of the lower half of the
    rectangle, while the shallow near-edge roots (depth about k^-3) stay
    width/k from the contour and the start grid needs no refinement there.
    If the contour passes too close to a zero the margin is widened and the
    count retried, at most five times.
    """
    top = band.width / _cell_count(k)
    if im_floor is None:
        im_floor = default_im_floor(cell)
    last: ContourThroughZeroError | None = None
    for attempt in range(5):
        margin = _AUDIT_MARGIN * (1.0 + 0.17 * attempt)
        try:
            return count_zeros_rectangle(cell, k, band.lo - margin, band.hi + margin,
                                         im_floor, top)
        except ContourThroughZeroError as err:
            last = err
    raise last


class ConvergenceRow(NamedTuple):
    k: int
    count: int
    max_im: float | None
    min_im: float | None


def convergence_study(cell: UnitCell, band: Band, k_list: list[int],
                      im_floor: float | None = None) -> list[ConvergenceRow]:
    """Depth of the band's resonances as the slab grows.

    For each k, k = 1 included, ``find_resonances`` searches the band widened by
    _EDGE_LOCATION_TOL, and the roots labelled with the band's index are counted and their
    extreme imaginary parts recorded; max_im must climb toward zero as k increases.  The root
    under a touching point belongs to the lower band.  A two-step cell's band must be whole,
    edges at |F| = 1 (BandMismatchError); the window is checked before any k is searched.
    """
    for k in k_list:
        _cell_count(k)
    if any(nxt < prev for prev, nxt in zip(k_list, k_list[1:])):
        raise ValueError("k_list must be non-decreasing")
    if not cell.homogeneous:
        _validate_band(cell, band)
    if im_floor is None:
        im_floor = default_im_floor(cell)
    window = Window(max(band.lo - _EDGE_LOCATION_TOL, 0.0), band.hi + _EDGE_LOCATION_TOL, im_floor)
    rows = []
    for k in k_list:
        ims = [r.lam.imag for r in find_resonances(cell, k, window) if r.band_index == band.index]
        rows.append(ConvergenceRow(k, len(ims), max(ims, default=None), min(ims, default=None)))
    return rows

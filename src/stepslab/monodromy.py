"""Cell propagator, dispersion function, Bloch multipliers and bands.

The propagator of Cauchy data (psi, a*psi'/lambda) across one cell is a
unimodular 2x2 matrix whose entries are entire in the frequency lambda.
Half its trace is the dispersion function F(lambda): real frequencies
with |F| < 1 form the spectral bands of the infinite periodic medium,
|F| > 1 the gaps, and |F| = 1 the band edges.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidRangeError
from .medium import UnitCell

#: Bisection tolerance for band edge locations (absolute, in lambda); a real
#: frequency whose first-order distance to |F| = 1 is within it is on an edge, and a
#: gap is open where its side is positive this far to one side of its Bragg frequency.
_EDGE_LOCATION_TOL = 1e-12


@dataclass(frozen=True)
class MonodromyMatrix:
    """Propagator over one period in the (psi, a*psi'/lambda) basis.

    Entries may be scalars or equally shaped numpy arrays (one matrix per
    frequency).  The determinant is 1 for every frequency.
    """

    alpha: complex
    beta: complex
    gamma: complex
    delta: complex

    @property
    def det(self):
        return self.alpha * self.delta - self.beta * self.gamma

    @property
    def trace(self):
        return self.alpha + self.delta

    def as_array(self) -> np.ndarray:
        """2x2 complex array; scalar entries only."""
        return np.array([[self.alpha, self.beta], [self.gamma, self.delta]], dtype=complex)


class Regime(Enum):
    BAND = "band"
    GAP = "gap"
    NONDEGENERATE_EDGE = "nondegenerate_edge"
    DEGENERATE_EDGE = "degenerate_edge"


class EdgeType(Enum):
    DEGENERATE = "degenerate"
    NONDEGENERATE = "nondegenerate"


@dataclass(frozen=True)
class BlochData:
    """Dispersion function, multiplier pair and regime at one frequency.

    ``mu_plus`` is the multiplier selected by continuity from the upper
    half plane: contractive for Im lambda > 0, unimodular on bands,
    the in-disk real root on gaps, sign(F) on edges, and the expanding
    continuation for Im lambda < 0.  ``regime`` is None off the real axis.
    """

    lyapunov: complex
    mu_plus: complex
    mu_minus: complex
    regime: Regime | None


@dataclass(frozen=True)
class Band:
    """Maximal interval of real frequencies with |F| < 1.

    ``hi_type`` is None when the band was clipped by the scan limit
    rather than terminated by an actual edge.
    """

    lo: float
    hi: float
    lo_type: EdgeType | None
    hi_type: EdgeType | None
    index: int

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, x: float, tol: float = 0.0) -> bool:
        return self.lo - tol <= x <= self.hi + tol


def _arith(lam):
    """(lam, lib): one real frequency as a float with ``math``, one complex frequency as a
    complex with ``cmath``, anything else as an array with numpy.  The kernel takes its
    arithmetic from lib, so one frequency pays no numpy overhead on 0-d values.  Where
    a sine or exponential leaves the floating-point range (an infinite lam, or |Im lam|
    tau beyond about 700) math and cmath raise OverflowError or ValueError; numpy gives
    inf or NaN there, and none of the kernel's results is finite."""
    if isinstance(lam, (float, int)):
        return float(lam), math
    if isinstance(lam, complex):
        return complex(lam), cmath
    lam = np.asarray(lam)
    if lam.ndim:
        return lam, np
    return (complex(lam), cmath) if np.iscomplexobj(lam) else (float(lam), math)


def monodromy(cell: UnitCell, lam) -> MonodromyMatrix:
    """One-cell propagator at frequency lam (scalar or array, any complex).

    Entries are real for real lam.  det = 1 identically.
    """
    return MonodromyMatrix(*_entries(cell, _half_angles(cell, lam)[2]))


def lyapunov(cell: UnitCell, lam):
    """Dispersion function F(lam), half the propagator trace.

    F(lam) = ((rho+1)/2) cos(lam*tau) - ((rho-1)/2) cos(lam*skew) with
    tau the cell transit time and skew the layer transit-time difference;
    rho - 1 and rho + 1 are the cell's own quotients, which do not cancel.
    """
    return 0.5 * (cell.mismatch_plus_one * np.cos(lam * cell.transit_time)
                  - cell.mismatch_minus_one * np.cos(lam * cell.transit_skew))


def _half_angles(cell: UnitCell, lam):
    """(lam, lib, half) with lam and lib from ``_arith`` and half = (sin a, cos a, sin b, cos b)
    at a = lam tau/2, b = lam skew/2: all the trigonometry the slab terms need at real lam.
    A complex lam takes them from real functions of each angle's parts (``_complex_sin_cos``)."""
    lam, lib = _arith(lam)
    a, b = 0.5 * lam * cell.transit_time, 0.5 * lam * cell.transit_skew
    if lib is cmath or lib is np and lam.dtype.kind == "c":
        return lam, lib, (*_complex_sin_cos(a), *_complex_sin_cos(b))
    return lam, lib, (lib.sin(a), lib.cos(a), lib.sin(b), lib.cos(b))


def _complex_sin_cos(z):
    """(sin z, cos z) from x = Re z and y = Im z: sin z = sin x cosh y + i cos x sinh y and
    cos z = cos x cosh y - i sin x sinh y, with ``math`` for one complex and numpy for an array,
    about half the cost of complex sin and cos.  Each part is within a few eps cosh y; past
    |y| of about 710 ``math`` raises OverflowError and numpy gives infinite parts."""
    x, y = z.real, z.imag
    if isinstance(z, complex):
        s, c, sh, ch = math.sin(x), math.cos(x), math.sinh(y), math.cosh(y)
        return complex(s * ch, c * sh), complex(c * ch, -(s * sh))
    s, c, sh, ch = np.sin(x), np.cos(x), np.sinh(y), np.cosh(y)
    sin, cos = np.empty(z.shape, complex), np.empty(z.shape, complex)
    sin.real, sin.imag, cos.real, cos.imag = s * ch, c * sh, c * ch, -(s * sh)
    return sin, cos


def _entries(cell: UnitCell, half):
    """(alpha, beta, gamma, delta) of the one-cell propagator from ``_half_angles``'s half,
    the full angles lam tau = 2a and lam skew = 2b by cos 2x = c^2 - s^2, sin 2x = 2 s c."""
    sa, ca, sb, cb = half
    b1, b2 = cell.b1, cell.b2
    cs, ss, cd, sd = ca * ca - sa * sa, 2.0 * sa * ca, cb * cb - sb * sb, 2.0 * sb * cb
    p, m = b2 + b1, b2 - b1
    return ((p * cs + m * cd) / (2.0 * b2), (p * ss + m * sd) / 2.0,
            -(p * ss - m * sd) / (2.0 * b1 * b2), (p * cs - m * cd) / (2.0 * b1))


def _sides(cell: UnitCell, half):
    """(F - 1, -F - 1) from ``_half_angles``'s half, by the identities of ``_offset``."""
    minus, plus = cell.mismatch_minus_one, cell.mismatch_plus_one
    sa, ca, sb, cb = half
    return minus * (sb * sb) - plus * (sa * sa), minus * (cb * cb) - plus * (ca * ca)


def _offset(cell: UnitCell, lib, half, slope: bool = False):
    """sign(Re F) and g = sign(Re F) F - 1 from ``_half_angles``'s (lib, half), at full
    precision near F = +-1: F - 1 = (rho-1) sin^2(lam skew/2) - (rho+1) sin^2(lam tau/2),
    -F - 1 likewise with cos^2.  With ``slope``, also dg/dlam = sign(Re F) F' from the same
    sines and cosines.  One frequency is computed with ``math`` or ``cmath`` and plain
    branches, an array with numpy."""
    below, above = _sides(cell, half)
    if lib is np:
        sign = np.copysign(1.0, np.real(below - above))
        g = np.where(sign > 0.0, below, above)
    else:
        sign = math.copysign(1.0, (below - above).real)
        g = below if sign > 0.0 else above
    if not slope:
        return sign, g
    # F' = ((rho-1) skew sin 2b - (rho+1) tau sin 2a) / 2, sin 2x = 2 sin x cos x
    sa, ca, sb, cb = half
    df = (cell.mismatch_minus_one * cell.transit_skew * sb * cb
          - cell.mismatch_plus_one * cell.transit_time * sa * ca)
    return sign, g, sign * df


def _cell_count(k):
    """k, if it is a positive integer (bool is not); ValueError otherwise."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError(f"cell count must be a positive integer, got {k!r}")
    return k


def chebyshev_pair(sign, g, k: int):
    """(U_{k-1}(f), U_{k-2}(f)) = 2**e (u, v) at f = sign (1 + g); M^k = 2**e (u M - v I).

    Binary doubling of U_j = 2f U_{j-1} - U_{j-2} (U_0 = 1, U_{-1} = 0) in O(log k),
    rescaled by exact powers of two so that nothing overflows.  It carries
    D = U_{n-1} - U_{n-2} and g (Reinsch's form), accurate at the band edges, and
    U_{n-2} itself, accurate where |f| >> 1 and U_{n-1} - D cancels.

    The levels run in blocks of r, the last one possibly shorter, and a rescale ends
    each block: it divides (u, D, v) by the power of two 2**x that puts
    S = |u| + |D| in [1/2, 1), and sets e to e 2**j + x after a block of j levels
    (a level squares the scale).  r is the largest r >= 1 with
    2**r (L + 4 + 2 log2(H + 3)) <= 500, L the number of levels and H = max |2g|;
    r = 1 where H is not finite or no r meets the rule.  Between rescales each value is a
    per-level rescaled one times a power of two, the same for all of one frequency's
    values; such a factor commutes with every product, sum and rounding, so the
    output is bitwise that of a rescale at every level, while nothing leaves the
    normal range.  Two bounds keep log2 S within +-500 inside a block (S in [1/2, 2]
    at its start):
    - up: a level takes S to at most 2 (H + 3)**2 S**2 (the bit step included);
    - down: with 1 + g = cos t, b = |Im t|, U_{n-1} = sum_m e^{i(n-1-2m)t},
      T_n = cos nt = D + g U_{n-1} and D**2 + 2gU(D - U) = 1, the unscaled S at
      index n obeys e^{nb} / (3 (1 + |g|)) <= S <= (2 + |g|) n e^{nb}.  The growth
      e^{nb} cancels between index 2**j n + (appended bits) and the 2**j-th power
      of S at index n, so j levels lose at most 2**j log2((2 + |g|) n) +
      log2(3 (1 + |g|)) bits below that power: about log2 n + log2(2 + |g|) per
      level, compounded (one level alone can lose 2 log2 n, where T_n = 0).
    An intermediate would have to fall 2**520 below S to round differently from the
    per-level rescale.  From H = 2**500 (r = 1), where the bit step's 2g u could reach
    H**2, a rescale precedes the bit step too; a power of two, it changes no bit either.

    Scalar (sign, g) stay Python numbers, rescaled by ``math.frexp`` with e a
    Python int; arrays use ``np.frexp`` with an int64 e.
    """
    _cell_count(k)
    h = 2.0 * g
    u = d = 1.0 + 0.0 * h
    v = 0.0 * h
    if isinstance(h, np.ndarray):
        frexp, e, h_max = np.frexp, np.int64(0), np.max(np.abs(h), initial=0.0)
    else:  # hypot: abs of a complex past the float range raises
        frexp, e, h_max = math.frexp, 0, math.hypot(h.real, h.imag)
    def rescale(u, d, v):  # (u, D, v) 2**-x with S in [1/2, 1), and x
        t = abs(u) + abs(d)
        s, x = frexp(t)
        s /= t  # exactly 2**-x
        return u * s, d * s, v * s, x
    levels = bin(k)[3:]
    # frexp(x)[1] - 1 = floor(log2 x), and -1 at x = 0 (h_max infinite) or NaN
    r = max(1, math.frexp(500.0 / (len(levels) + 4 + 2 * math.log2(h_max + 3.0)))[1] - 1)
    for at in range(0, len(levels), r):
        block, x = levels[at:at + r], 0
        for bit in block:
            hu = h * u  # U_{2n-1} = 2U(gU + D), D_{2n-1} = 2gU^2 + D^2, U_{2n-2} = D(U + V)
            # named, not temporary, right factors: NumPy would otherwise multiply a long
            # array's temporary in place, swap the operands and change the last bit
            w, p = hu + 2.0 * d, u + v
            u, d, v = u * w, hu * u + d * d, d * p
            if bit == "1":  # D_n = D + 2gU, U_n = U + D_n, V_n = U
                if h_max >= 2.0 ** 500:  # then r = 1: one level per block
                    u, d, v, x = rescale(u, d, v)
                d = d + h * u
                u, v = u + d, u
        u, d, v, ex = rescale(u, d, v)
        e = e * 2 ** len(block) + x + ex
    # U_j(f) = sign**j U_j(sign f)
    return (u, v * sign, e) if k % 2 else (u * sign, v, e)


def transfer_power(cell: UnitCell, lam, k: int) -> MonodromyMatrix:
    """Propagator over k cells: M^k = U_{k-1}(F) M - U_{k-2}(F) I.

    Never forms matrix products or an explicit Bloch phase; the O(log k)
    ``chebyshev_pair`` is branch free in all of the complex plane.  A part
    of an entry beyond the floating-point range comes out infinite, never NaN,
    and without an overflow warning.
    """
    _, lib, half = _half_angles(cell, lam)
    alpha, beta, gamma, delta = _entries(cell, half)
    u, v, e = chebyshev_pair(*_offset(cell, lib, half), k)
    entries = np.array([u * alpha - v, u * beta, u * gamma, u * delta - v])
    # 2**e part by part: an infinite real scale times a complex entry is NaN
    with np.errstate(over="ignore"):  # an infinite part is the documented result
        for part in (entries.real, entries.imag) if np.iscomplexobj(entries) else (entries,):
            np.ldexp(part, e, out=part)
    return MonodromyMatrix(*entries)


def _regime(cell: UnitCell, lam: float, sign: float, g: float, dg: float) -> Regime:
    """The regime at one real frequency lam from ``_offset``'s (sign, g, g').  Where
    |g| > tol |g'| + 4 eps (rho + 1) (tol = _EDGE_LOCATION_TOL: farther than tol from
    |F| = 1 in lam to first order, and g above its rounding) the sign of g decides.  Nearer,
    |lam| (F is even) faces gap m, m pi/tau the end of its Bragg interval with
    (-1)^m = sign(F).  An open gap (``_gap_open``) makes lam a non-degenerate edge; a
    closed gap is a touching point of two bands, so lam is a degenerate edge within tol of
    m pi/tau, where ``find_bands`` reports both its edges, and a band point elsewhere."""
    if abs(g) > _EDGE_LOCATION_TOL * abs(dg) + 4.0 * math.ulp(1.0) * cell.mismatch_plus_one:
        return Regime.BAND if g < 0.0 else Regime.GAP
    n = math.floor(abs(lam) * cell.transit_time / math.pi)
    m = n if sign == (-1.0) ** n else n + 1
    if _gap_open(cell, m):
        return Regime.NONDEGENERATE_EDGE
    x = math.pi / cell.transit_time * m
    if x - _EDGE_LOCATION_TOL <= abs(lam) <= x + _EDGE_LOCATION_TOL:
        return Regime.DEGENERATE_EDGE
    return Regime.BAND


def _larger_multiplier(sign, g, lib):
    """sign (1 + g +- sqrt(g (g + 2))), the Bloch multiplier of larger modulus (the first on
    a tie), from the band offset of ``_offset``: cmath for one frequency, numpy for an array."""
    root = lib.sqrt(g * (g + 2.0))
    plus, minus = 1.0 + g + root, 1.0 + g - root
    if lib is np:
        return sign * np.where(abs(plus) >= abs(minus), plus, minus)
    return sign * (plus if abs(plus) >= abs(minus) else minus)


def _multiplier(cell: UnitCell, lam, lib, half):
    """(mu_plus, regime) at one frequency from ``_half_angles``'s (lam, lib, half), with
    mu = sign (1 + g +- sqrt(g (g + 2))) on the band offset, so nothing cancels near F = +-1.
    Real lam: ``_regime``, then F - i sgn(F') sqrt(1 - F^2) on a band, the root inside the
    disk on a gap, sign on an edge.  Complex lam: regime None and the root of smaller
    modulus above the axis, of larger modulus below (the continuation across the bands)."""
    sign, g, dg = _offset(cell, lib, half, slope=True)
    if lib is cmath:
        big = _larger_multiplier(sign, g, lib)
        return (1.0 / big if lam.imag > 0.0 else big), None
    regime = _regime(cell, lam, sign, g, dg)
    if regime is Regime.BAND:  # a band point next to a touching point may have g rounded above 0
        root = math.copysign(math.sqrt(max(0.0, -g * (g + 2.0))), dg)
        return complex(sign * (1.0 + g), -sign * root), regime
    if regime is Regime.GAP:
        return 1.0 / complex(sign * (1.0 + g + math.sqrt(g * (g + 2.0)))), regime
    return complex(sign), regime


def bloch(cell: UnitCell, lam) -> BlochData:
    """Dispersion function, multipliers and spectral regime at one frequency.

    One half-angle evaluation gives the entries (``_entries``) and mu_plus and the regime
    (``_multiplier``; the regime is None at complex frequencies); mu_minus is returned as
    1/mu_plus so the product is exactly 1.
    """
    lam = complex(lam)
    at, lib, half = _half_angles(cell, lam.real if lam.imag == 0.0 else lam)
    alpha, _, _, delta = _entries(cell, half)
    mu_plus, regime = _multiplier(cell, at, lib, half)
    return BlochData(complex(0.5 * (alpha + delta)), mu_plus, 1.0 / mu_plus, regime)


def _bisect(fn, a, b):
    """Roots of fn in the brackets [a, b] (arrays; fn maps an array of points,
    one per bracket, to values), each halved to _EDGE_LOCATION_TOL or, above 8192, one ulp.

    An exact zero at an end or a midpoint is returned as is; a bracket whose
    ends have the same sign raises ValueError.
    """
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    fa, fb = fn(a), fn(b)
    if np.any(fa * fb > 0.0):
        raise ValueError("bisection bracket does not change sign")
    b[fa == 0.0] = a[fa == 0.0]  # a zero end closes its bracket onto itself
    a[fb == 0.0] = b[fb == 0.0]
    tol = np.maximum(_EDGE_LOCATION_TOL, np.spacing(np.maximum(abs(a), abs(b))))
    while np.any(wide := b - a > tol):
        mid = 0.5 * (a + b)
        fm = fn(mid)
        left = fa * fm < 0.0
        b = np.where(wide & (left | (fm == 0.0)), mid, b)
        right = wide & ~left
        a, fa = np.where(right, mid, a), np.where(right, fm, fa)
    return 0.5 * (a + b)


def _side(cell: UnitCell, x, m):
    """(-1)^m F - 1 at the frequencies x (an array), one m (an int array) for each."""
    return np.where(m % 2 == 1, *_sides(cell, _half_angles(cell, x)[2])[::-1])


def _gap_open(cell: UnitCell, m):
    """Whether gap m (an int or an int array), about the Bragg frequency x = m pi/tau where
    (-1)^m F >= 1, is open: its side (-1)^m F - 1 is positive at x and at x - d or x + d,
    d = _EDGE_LOCATION_TOL or one ulp of x if larger.  So a closed gap, a touching point of two
    bands that no derivative decides, has both edges within d of x, however off centre x lies;
    x -+ d close one whose side rounds above 0 at x (39 pi/tau on (3.8, 1, 0.8))."""
    x = math.pi / cell.transit_time * m
    d = np.maximum(_EDGE_LOCATION_TOL, np.spacing(x))
    side = _side(cell, np.stack([x - d, x, x + d]), m) > 0.0
    return side[1] & (side[0] | side[2])


def find_bands(cell: UnitCell, lambda_max: float) -> list[Band]:
    """All bands in (0, lambda_max], edges located to 1e-12 and classified.

    At the Bragg frequency n pi/tau, (-1)^n F = ((rho+1) - (rho-1)(-1)^n cos(n pi skew/tau))/2
    is at least 1, so band n + 1 lies alone in [n pi/tau, (n+1) pi/tau], where (-1)^n F falls
    from at least 1 to at most -1: it runs from gap n's upper edge to gap n + 1's lower edge.
    An open gap's (``_gap_open``) two edges, one in each neighbouring Bragg interval, are
    bisected on its side and are non-degenerate; both edges of a closed gap are m pi/tau and
    degenerate.  An upper edge past lambda_max is clipped to it and typed None.
    A homogeneous cell has no interfaces and is reported as a single clipped band.
    """
    if not 0.0 < lambda_max < math.inf:
        raise InvalidRangeError(f"lambda_max must be finite and positive, got {lambda_max}")
    if cell.homogeneous:
        return [Band(0.0, lambda_max, EdgeType.DEGENERATE, None, 1)]

    m = np.arange(math.ceil(lambda_max * cell.transit_time / math.pi) + 2)
    step = math.pi / cell.transit_time
    lo, hi, gap_open = step * m, step * m, _gap_open(cell, m)
    at = m[gap_open]
    lo[gap_open], hi[gap_open] = np.split(_bisect(
        lambda x: _side(cell, x, np.concatenate([at, at])), step * np.concatenate([at - 1, at]),
        step * np.concatenate([at, at + 1])), 2)
    types = [EdgeType.NONDEGENERATE if o else EdgeType.DEGENERATE for o in gap_open.tolist()]
    # band m + 1 runs in the m-th Bragg interval, from gap m to gap m + 1
    return [Band(a, min(b, lambda_max), types[i], types[i + 1] if b <= lambda_max else None, i + 1)
            for i, (a, b) in enumerate(zip(hi[:-1].tolist(), lo[1:].tolist())) if a < lambda_max]

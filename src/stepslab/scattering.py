"""Reflection and transmission of the k-cell slab and the half-infinite medium.

Left incidence throughout: psi = exp(i lam b1 x) + r exp(-i lam b1 x) on
the left of the slab, a pure transmitted wave on the right.
"""

from __future__ import annotations

import cmath
import functools
import math
import warnings

import numpy as np

from .errors import (BandMismatchError, BoundaryValueWarning,
                     EdgeDegeneracyError, PoleProximityError)
from .medium import UnitCell, transparency_frequencies
from .monodromy import (Band, Regime, _arith, _bisect, _cell_count, _half_angles, _multiplier,
                        _offset, chebyshev_pair, lyapunov)

#: Denominator-to-numerator ratio below which a quotient is treated as a
#: pole hit (below double-precision meaningfulness).
_POLE_RTOL = 1e-13


def _blockwise(fn):
    """Run fn(cell, lam, k) on blocks of at most 4096 frequencies; bounds its temporaries.
    fn returns an array shaped like lam, or a tuple of them."""
    size = 1 << 12

    @functools.wraps(fn)
    def blocked(cell, lam, k):
        if isinstance(lam, (float, int, complex)) or np.size(lam) <= size:
            return fn(cell, lam, k)
        flat = np.ravel(lam)
        parts = [fn(cell, flat[i:i + size], k) for i in range(0, flat.size, size)]

        def join(blocks):
            return np.concatenate(blocks).reshape(np.shape(lam))
        return tuple(map(join, zip(*parts))) if isinstance(parts[0], tuple) else join(parts)
    return blocked


def _quotient(num, den, pole_error):
    """num/den; for one frequency, raise pole_error() when den is negligible."""
    if not isinstance(den, np.ndarray):
        if abs(den) <= _POLE_RTOL * abs(num):
            raise pole_error()
        return complex(num) / complex(den)
    with np.errstate(divide="ignore", invalid="ignore"):
        return num / den


def _closed_s_n(cell: UnitCell, lam, lib, half, slope: bool = False):
    """(S, N) of the one-cell entries, S = a + d + i(b1 g - b/b1) and N = d - a - i(b1 g + b/b1),
    in closed form: 2 b1 b2 S = (b1+b2)^2 E - (b2-b1)^2 E' and 2 b1 b2 N = (b2^2-b1^2)(E - E')
    with E = e^{-i lam tau}, E' = e^{i lam skew}, which do not cancel deep in the lower half
    plane as the entries do.  With ``slope``, returns (S, N, S'), S' the derivative in lam.

    lam, lib and half come from ``_half_angles``: Python numbers for one frequency, numpy
    for an array.  At real lam, E = (cos a - i sin a)^2 and E' = (cos b + i sin b)^2 from
    the half angles in real arithmetic, so one frequency and an array agree bitwise; at
    complex lam by exp, since those products of sizes e^{|Im lam| tau/2} cancel below the axis."""
    b1, b2 = cell.b1, cell.b2
    tau, skew = cell.transit_time, cell.transit_skew
    if lib is cmath or lib is np and lam.dtype.kind == "c":
        fwd, back = lib.exp(-1j * lam * tau), lib.exp(1j * lam * skew)
    else:
        sa, ca, sb, cb = half
        fwd, back = ca * ca - sa * sa - 2j * (ca * sa), cb * cb - sb * sb + 2j * (cb * sb)
    s = ((b1 + b2) ** 2 * fwd - (b2 - b1) ** 2 * back) / (2.0 * b1 * b2)
    n = (b2 * b2 - b1 * b1) * (fwd - back) / (2.0 * b1 * b2)
    if not slope:
        return s, n
    ds = -1j * ((b1 + b2) ** 2 * tau * fwd + (b2 - b1) ** 2 * skew * back) / (2.0 * b1 * b2)
    return s, n, ds


def _slab_terms(cell: UnitCell, lam, k: int, slope: bool = False):
    """(u N, u S - 2v, e): r_k = u N / (u S - 2v) from the k-cell entries 2**e (u M - v I).
    With ``slope``, returns (num, den, den', e), den' the derivative in lam.

    One frequency runs in Python arithmetic (``math`` or ``cmath``), an array in numpy;
    a real lam takes E and E' from the half angles that also give F, a complex lam
    (complex dtype, even with zero imaginary parts) from exp.

    den' = u'S + uS' - 2v' from the values by (F^2 - 1) U_n' = n F U_n - (n + 1) U_{n-1},
    F = sign x, x = 1 + g, F' = sign g': u' = ((k - 1) x u - sign k v) c, c = g'/(g (g + 2))
    ((k^2 - 1)/3 u g' where x rounds to 1), v' = sign ((k - 1) u - x sign k v) c.  Both lose
    about eps/(|g| k) near F = +-1, so for |g| < 1 den' = u'(S - 2 sign) + 2 sign w' + uS',
    w' = (u - sign v)' = ((k - 1) u + sign k v) g'/(2 + g) free of that loss, S - 2 sign small
    where it is worst (lam near 0, touching points).  The roots, den = 0, do not move."""
    lam, lib, half = _half_angles(cell, lam)
    s, n, *ds = _closed_s_n(cell, lam, lib, half, slope)
    sign, g, *dg = _offset(cell, lib, half, slope)
    del half  # four arrays fewer in cache during the doubling loop
    u, v, e = chebyshev_pair(sign, g, k)
    if not slope:
        return u * n, u * s - 2.0 * v, e
    x, dg, ku, t = 1.0 + g, dg[0], (k - 1) * u, k * (sign * v)
    one = x == 1.0  # F rounds to sign: g (g + 2) is 0 or below its rounding
    pick = np.where if lib is np else lambda c, a, b: a if c else b
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        c = dg / (g * (g + 2.0) + one)
        du = pick(one, ((k * k - 1) / 3.0) * u * dg, (x * ku - t) * c)
        near = du * (s - 2.0 * sign) + 2.0 * sign * ((ku + t) * (dg / (2.0 + g)))
        far = du * s - 2.0 * sign * ((ku - x * t) * c)
        return u * n, u * s - 2.0 * v, pick(abs(g) < 1.0, near, far) + u * ds[0], e


@_blockwise
def reflection_k(cell: UnitCell, lam, k: int):
    """Slab reflection coefficient from the k-cell propagator entries.

    r_k = (d_k - a_k - i(b1 g_k + b_k/b1)) / (d_k + a_k + i(b1 g_k - b_k/b1))
    with (a_k, b_k, g_k, d_k) the entries of the k-cell propagator (see
    ``_slab_terms``).  The quotient is analytic in the closed upper half
    plane and meromorphic below it, with poles exactly at the resonances.
    Accepts scalar or array lam; the pole check applies to scalars only.
    """
    num, den, _ = _slab_terms(cell, lam, k)
    return _quotient(num, den, lambda: PoleProximityError(lam))


@_blockwise
def transmission_sq(cell: UnitCell, lam, k: int):
    """Transmission probability |t_k|^2 at real frequencies.

    |t_k|^2 = 4 / (|U_{k-1}(F) N|^2 + 4), computed as tau / (|num|^2 + tau)
    with tau = 4 * 2**(-2e), lies in [0, 1] for every real frequency, band
    edges included (0 below the floating-point range).  Real arithmetic only,
    Python floats for one frequency and numpy for an array: |N| =
    |b2^2 - b1^2| |sin(a + b)| / (b1 b2), since |E - E'| = 2 |sin(a + b)|, from
    the sines and cosines of a = lam tau/2, b = lam skew/2 that also give F.
    """
    lam, lib = _arith(lam)
    if lib is not math and np.any(np.imag(lam) != 0.0):
        raise ValueError("transmission probability is defined for real frequencies")
    lam, lib, half = _half_angles(cell, lam.real)
    u, _, e = chebyshev_pair(*_offset(cell, lib, half), k)
    sa, ca, sb, cb = half
    b1, b2 = cell.b1, cell.b2
    num = (b2 * b2 - b1 * b1) / (b1 * b2) * u * (sa * cb + ca * sb)
    tau = lib.ldexp(4.0, -2 * e)
    return tau / (num * num + tau)


def perfect_transmission_frequencies(cell: UnitCell, band: Band, k: int) -> list[float]:
    """The k-1 in-band frequencies of unit transmission, plus any one-cell
    transparency frequency that falls inside the band, for every k >= 1.

    The k-1 roots solve U_{k-1}(F(lam)) = 0, i.e. F(lam) = cos(m*pi/k) for
    m = 1..k-1 on the band where F is monotone between -1 and +1; all are
    located by one bisection over the array of targets.  U_0 = 1 has no
    zeros, so at k = 1 only the transparency frequencies remain.
    """
    _cell_count(k)
    f_lo, f_hi = _validate_band(cell, band)
    target = np.cos(np.arange(1, k) * math.pi / k)
    target = target[(f_lo - target) * (f_hi - target) <= 0.0]
    roots = _bisect(lambda x: lyapunov(cell, x) - target, np.full(target.size, band.lo),
                    np.full(target.size, band.hi), 1e-12)

    extra = [lam0 for lam0 in transparency_frequencies(cell, band.hi)
             if band.lo + 1e-9 < lam0 < band.hi - 1e-9 and np.all(abs(roots - lam0) > 1e-9)]
    return sorted(roots.tolist() + extra)


def reflection_half_infinite(cell: UnitCell, lam):
    """Reflection coefficient of the half-infinite periodic medium.

    r = N / (S - 2 mu_plus), the limit of r_k = N / (S - 2 U_{k-2}/U_{k-1}),
    with mu_plus (``_multiplier``) and S, N from one set of half angles.  On
    gaps |r| = 1.  At real frequencies strictly inside a band the upper-boundary
    limit is returned and a BoundaryValueWarning is issued, since the finite-slab
    coefficients converge to it only in an averaged sense there.
    """
    lam = complex(lam)
    at, lib, half = _half_angles(cell, lam.real if lam.imag == 0.0 else lam)
    mu_plus, regime = _multiplier(cell, at, lib, half)
    if regime is Regime.DEGENERATE_EDGE:
        raise EdgeDegeneracyError(f"reflection limit indeterminate at degenerate edge {lam}")
    s, n = _closed_s_n(cell, at, lib, half)
    value = _quotient(n, s - 2.0 * mu_plus, lambda: EdgeDegeneracyError(
        f"reflection limit indeterminate at {lam}"))
    if regime is Regime.BAND:
        warnings.warn("in-band value is the upper-half-plane boundary limit",
                      BoundaryValueWarning, stacklevel=2)
    return value


def _validate_band(cell: UnitCell, band: Band):
    """(F(lo), F(hi)) of a band whose edges have |F| = 1 and midpoint |F| < 1;
    BandMismatchError otherwise."""
    if band.lo >= band.hi:
        raise BandMismatchError(f"band interval ill ordered: {band}")
    f_lo, f_hi, f_mid = lyapunov(cell, np.array([band.lo, band.hi, 0.5 * (band.lo + band.hi)]))
    if abs(abs(f_lo) - 1.0) > 1e-6 or abs(abs(f_hi) - 1.0) > 1e-6:
        raise BandMismatchError(f"band edges do not satisfy |F| = 1 for this cell: {band}")
    if abs(f_mid) >= 1.0:
        raise BandMismatchError(f"band midpoint is not inside a band for this cell: {band}")
    return f_lo, f_hi

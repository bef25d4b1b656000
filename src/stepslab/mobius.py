"""The unit-disk automorphism that adds one cell to the slab.

At real frequencies, appending one cell maps the slab reflection
coefficient through a linear-fractional automorphism of the unit disk,
for every two-step cell.  Its matrix is the one-cell scattering matrix
built from the slab kernel's S and N (``scattering._closed_s_n``), and
its fixed points N/(S - 2 mu) come from the Bloch multipliers
(``monodromy._multiplier``).  They classify the frequency: elliptic
inside bands (the reflection sequence keeps rotating), hyperbolic inside
gaps and parabolic at non-degenerate edges (the sequence converges to a
unit-modulus limit, the half-infinite reflection coefficient).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import EdgeDegeneracyError, HomogeneousCellError
from .medium import UnitCell
from .monodromy import (Regime, _arith, _half_angles, _multiplier, _offset, _regime,
                        chebyshev_pair)
from .scattering import _closed_s_n


class FixedPointKind(Enum):
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"


#: The map's half trace is F, so its kind is the frequency's regime.
_KIND = {Regime.BAND: FixedPointKind.ELLIPTIC, Regime.GAP: FixedPointKind.HYPERBOLIC,
         Regime.NONDEGENERATE_EDGE: FixedPointKind.PARABOLIC}


@dataclass(frozen=True)
class MobiusMap:
    """One-cell update z -> (conj(S) z + N) / (conj(N) z + S).

    S and N are the one-cell entries of ``scattering._closed_s_n``; on the
    real axis |S|^2 - |N|^2 = 4, so ``w = (conj S, N, conj N, S)/2`` is
    unimodular and maps the open unit disk onto itself.  Iterating from 0
    reproduces the slab reflection coefficients: apply(r_k) = r_{k+1} with r_0 = 0,
    since r_k = N/(S - 2 U_{k-2}/U_{k-1}).
    """

    w: tuple[complex, complex, complex, complex]

    def apply(self, z):
        a, b, c, e = self.w
        return (a * z + b) / (c * z + e)


def mobius_map(cell: UnitCell, lam: float) -> MobiusMap:
    """The one-cell update map at a real frequency, for every cell."""
    s, n = _closed_s_n(cell, *_half_angles(cell, float(lam)))
    return MobiusMap((0.5 * s.conjugate(), 0.5 * n, 0.5 * n.conjugate(), 0.5 * s))


def r1(cell: UnitCell, lam):
    """One-cell reflection coefficient r1 = d (1 - eta)/(1 - d^2 eta), eta = exp(2i lam b2 x2).

    Valid for every cell and equal to the propagator-route value N/S at k = 1.
    For real frequencies |r1| <= 2|d|/(1 + d^2) < 1, with equality mid-gap.
    """
    lam, lib = _arith(lam)
    d = cell.contrast
    eta = (np.exp if lib is np else cmath.exp)(2j * lam * cell.b2 * cell.x2)
    return d * (1.0 - eta) / (1.0 - d * d * eta)


def r1_modulus_bound(cell: UnitCell) -> float:
    """Sharp bound on |r1| over real frequencies: 2|d|/(1 + d^2)."""
    d = abs(cell.contrast)
    return 2.0 * d / (1.0 + d * d)


@dataclass(frozen=True)
class FixedPointAnalysis:
    """Fixed points of the one-cell map and their Burckel class."""

    z1: complex
    z2: complex
    kind: FixedPointKind


def fixed_points(cell: UnitCell, lam: float) -> FixedPointAnalysis:
    """Solve apply(z) = z and classify the map.

    The roots are z = N/(S - 2 mu) at the two Bloch multipliers mu, the limits of
    r_k = N/(S - 2 U_{k-2}/U_{k-1}).  z1 = N/(S - 2 mu_plus), with S, N and mu_plus
    (``monodromy._multiplier``) from one set of half angles, is the expression of
    ``scattering.reflection_half_infinite``, bit for bit.  Elliptic roots satisfy
    |z1| < 1 < |z2| and z2 = 1/conj(z1); at a one-cell transparency frequency N = 0,
    the map is a rotation and its roots are z1 = 0 and z2 = complex(math.inf).
    Hyperbolic and parabolic roots are unimodular, N/(S - 2 mu) at mu_plus and
    1/mu_plus, and z1 is the one of larger real part; a parabolic root is double.
    The kind is the regime of ``_multiplier`` (the half trace is F); a degenerate
    edge raises EdgeDegeneracyError.
    """
    if cell.contrast == 0.0:
        raise HomogeneousCellError("the one-cell map of a homogeneous cell is a pure rotation")
    at, lib, half = _half_angles(cell, float(lam))
    mu, regime = _multiplier(cell, at, lib, half)
    kind = _KIND.get(regime)
    if kind is None:
        raise EdgeDegeneracyError(f"fixed points indeterminate at the degenerate edge {lam}")
    s, n = _closed_s_n(cell, at, lib, half)
    if kind is FixedPointKind.ELLIPTIC:
        z1 = n / (s - 2.0 * mu)
        return FixedPointAnalysis(z1, 1.0 / z1.conjugate() if z1 else complex(math.inf), kind)
    z1, z2 = sorted((n / (s - 2.0 * m) for m in (mu, 1.0 / mu)), key=lambda z: -z.real)
    return FixedPointAnalysis(z1, z2, kind)


@dataclass(frozen=True)
class IterateResult:
    converged: bool
    value: complex
    kind: FixedPointKind | None


def iterate_limit(cell: UnitCell, lam: float, z0: complex,
                  max_iter: int = 10_000) -> IterateResult:
    """Iterate the one-cell map max_iter = N times from z0 and report the limit.

    z_{N-1} and z_N come from the powers W^n = U_{n-1} W - U_{n-2} I of the
    map's matrix, with W's S and N, U's argument (sign, g) and the kind
    (``monodromy._regime``) from one ``monodromy._half_angles`` call, so nothing
    cancels near the edges; |z_N - z_{N-1}| < 1e-10 counts as converged.
    Hyperbolic and parabolic frequencies converge to a unimodular fixed point (the
    half-infinite reflection coefficient); elliptic frequencies keep rotating and
    are reported unconverged with z_N.  At a degenerate edge of a two-step cell
    (within 1e-12 of a touching point of two bands) W is taken as the +-I it is
    there and z0 is returned at once; next to it the point is a band point and is
    iterated.  The kind is None at a degenerate edge and for a homogeneous cell.
    """
    if abs(z0) >= 1.0:
        raise ValueError(f"start point must lie inside the unit disk, got |z0|={abs(z0)}")
    at, lib, half = _half_angles(cell, float(lam))
    sign, g, dg = _offset(cell, lib, half, slope=True)
    regime = _regime(cell, at, sign, g, dg)
    if regime is Regime.DEGENERATE_EDGE and cell.contrast != 0.0:
        return IterateResult(True, complex(z0), None)
    kind = None if cell.contrast == 0.0 else _KIND[regime]
    s, n = _closed_s_n(cell, at, lib, half)
    f = sign * (1.0 + g)
    u, v, _ = chebyshev_pair(sign, g, max_iter)
    # z_n is the action of U_{n-1} 2W - 2U_{n-2} I on z0, 2W = [[conj S, N], [conj N, S]];
    # U_{N-3} = 2f U_{N-2} - U_{N-1}
    z_prev, z_last = (((p * s.conjugate() - 2.0 * q) * z0 + p * n)
                      / (p * n.conjugate() * z0 + p * s - 2.0 * q)
                      for p, q in ((v, 2.0 * f * v - u), (u, v)))
    return IterateResult(bool(abs(z_last - z_prev) < 1e-10), complex(z_last), kind)

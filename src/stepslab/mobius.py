"""The unit-disk automorphism that adds one cell to the slab.

At real frequencies, appending one cell maps the slab reflection
coefficient through a linear-fractional automorphism of the unit disk.
Its fixed points classify the frequency: elliptic inside bands (the
reflection sequence keeps rotating), hyperbolic inside gaps and
parabolic at non-degenerate edges (the sequence converges to a
unit-modulus limit, the half-infinite reflection coefficient).

The closed forms below require equal layer transit times
(b2 x2 == b1 (1 - x2)); the general case is covered by the direct slab
formulas in :mod:`stepslab.scattering`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (EdgeDegeneracyError, HomogeneousCellError,
                     NotCommensurateError)
from .medium import UnitCell, is_commensurate
from .monodromy import Regime, _arith, _band_offset, _regime, chebyshev_pair

#: |eta - 1| below this marks the map as the identity (at a degenerate edge).
_ETA_TOL = 1e-12


class FixedPointKind(Enum):
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"


#: The map's half trace is F, so its kind is the frequency's regime.
_KIND = {Regime.BAND: FixedPointKind.ELLIPTIC, Regime.GAP: FixedPointKind.HYPERBOLIC,
         Regime.NONDEGENERATE_EDGE: FixedPointKind.PARABOLIC}


@dataclass(frozen=True)
class MobiusMap:
    """One-cell update z -> s(eta * s(eta * z)) with s(q) = (d - q)/(1 - d q).

    ``s`` is the involutive disk automorphism of one interface and
    ``eta = exp(2i lam b2 x2)`` the round-trip phase of one layer; for
    real frequencies |eta| = 1 and the composition maps the open unit
    disk onto itself.  Iterating from 0 reproduces the slab reflection
    coefficients: apply(r_k) = r_{k+1} with r_0 = 0.  ``w`` is its unimodular matrix.
    """

    eta: complex
    w: tuple[complex, complex, complex, complex]

    def apply(self, z):
        a, b, c, e = self.w
        return (a * z + b) / (c * z + e)


def mobius_map(cell: UnitCell, lam: float) -> MobiusMap:
    """The one-cell update map at a real frequency (commensurate cells only)."""
    if not is_commensurate(cell):
        raise NotCommensurateError(
            "map requires equal layer transit times: b2*x2 == b1*(1 - x2)")
    lam = float(lam)
    d = cell.contrast
    eta = cmath.exp(2j * lam * cell.b2 * cell.x2)
    # [[-1, d], [-d, 1]] diag(eta, 1) [[-1, d], [-d, 1]] diag(eta, 1) / ((1 - d^2) eta)
    norm = (1.0 - d * d) * eta
    w = (eta * (eta - d * d) / norm, d * (1.0 - eta) / norm,
         d * eta * (eta - 1.0) / norm, (1.0 - d * d * eta) / norm)
    return MobiusMap(eta, w)


def r1(cell: UnitCell, lam):
    """One-cell reflection coefficient, r1 = d (1 - eta)/(1 - d^2 eta).

    Valid for every cell (no commensurability needed) and identical to
    the propagator-route value at k = 1.  For real frequencies
    |r1| <= 2|d|/(1 + d^2) < 1, with equality mid-gap.
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
    """Fixed points of the one-cell map and their Burckel class.

    ``discriminant`` is cos^2(lam b2 x2) - d^2: positive inside bands,
    negative inside gaps, zero at non-degenerate edges.  ``kind`` comes
    from the regime, not from the sign of the discriminant.
    """

    z1: complex
    z2: complex
    kind: FixedPointKind
    discriminant: float


def fixed_points(cell: UnitCell, lam: float) -> FixedPointAnalysis:
    """Solve apply(z) = z in closed form and classify the map.

    z = (cos(phi) +- sqrt(cos^2(phi) - d^2)) * exp(-i phi) / d with
    phi = lam b2 x2.  Elliptic roots satisfy |z1| < 1 < |z2| and
    z1 * conj(z2) = 1; hyperbolic and parabolic roots are unimodular, and
    z1 is the one of larger real part.
    The kind is the regime of ``monodromy._regime`` (the half trace is F);
    a degenerate edge raises EdgeDegeneracyError.
    """
    if not is_commensurate(cell):
        raise NotCommensurateError(
            "fixed points require equal layer transit times: b2*x2 == b1*(1 - x2)")
    if cell.contrast == 0.0:
        raise HomogeneousCellError("the one-cell map of a homogeneous cell is a pure rotation")
    lam = float(lam)
    kind = _KIND.get(_regime(cell, *_band_offset(cell, lam, slope=True)[1:]))
    if kind is None:
        raise EdgeDegeneracyError(f"fixed points indeterminate at the degenerate edge {lam}")
    d = cell.contrast
    phi = lam * cell.b2 * cell.x2
    c = math.cos(phi)
    disc = c * c - d * d
    root = cmath.sqrt(complex(disc))
    rot = cmath.exp(-1j * phi) / d
    key = abs if kind is FixedPointKind.ELLIPTIC else (lambda z: -z.real)
    z1, z2 = sorted(((c + root) * rot, (c - root) * rot), key=key)
    return FixedPointAnalysis(z1, z2, kind, disc)


@dataclass(frozen=True)
class IterateResult:
    converged: bool
    value: complex
    kind: FixedPointKind | None


def iterate_limit(cell: UnitCell, lam: float, z0: complex,
                  max_iter: int = 10_000) -> IterateResult:
    """Iterate the one-cell map max_iter = N times from z0 and report the limit.

    z_{N-1} and z_N come from the powers W^n = U_{n-1} W - U_{n-2} I of the
    map's matrix, with U's argument (sign, g) and the kind (``monodromy._regime``)
    from one ``monodromy._band_offset`` call, so nothing cancels near the edges;
    |z_N - z_{N-1}| < 1e-10 counts as converged.  Hyperbolic and parabolic
    frequencies converge to a unimodular fixed point (the half-infinite
    reflection coefficient); elliptic frequencies keep rotating and are
    reported unconverged with z_N.  Where W is the identity (|eta - 1| <
    1e-12) z0 is returned at once.  The kind is None at a degenerate edge
    and for a homogeneous cell.
    """
    if abs(z0) >= 1.0:
        raise ValueError(f"start point must lie inside the unit disk, got |z0|={abs(z0)}")
    fmap = mobius_map(cell, lam)
    if abs(fmap.eta - 1.0) < _ETA_TOL:
        return IterateResult(True, complex(z0), None)
    sign, g, dg = _band_offset(cell, lam, slope=True)
    kind = None if cell.contrast == 0.0 else _KIND.get(_regime(cell, g, dg))
    a, b, c, e = fmap.w
    f = sign * (1.0 + g)
    u, v, _ = chebyshev_pair(sign, g, max_iter)
    # z_n is the action of U_{n-1} W - U_{n-2} I on z0; U_{N-3} = 2f U_{N-2} - U_{N-1}
    z_prev, z_last = (((p * a - q) * z0 + p * b) / (p * c * z0 + p * e - q)
                      for p, q in ((v, 2.0 * f * v - u), (u, v)))
    return IterateResult(bool(abs(z_last - z_prev) < 1e-10), complex(z_last), kind)

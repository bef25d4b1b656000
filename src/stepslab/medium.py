"""Two-step unit cells for piecewise-constant wave media.

A cell of length one carries inverse wave speed b2 on [0, x2) and b1 on
[x2, 1).  A slab made of k identical cells, embedded in a uniform b1
background, is the scatterer studied by the rest of the package.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

#: Relative tolerance of the equal-transit-time test.  Double precision
#: cannot meaningfully distinguish finer, and every downstream
#: periodicity check uses the same tolerance.
COMMENSURATE_RTOL = 1e-12


@dataclass(frozen=True)
class UnitCell:
    """One period of the medium: slowness b2 on [0, x2), b1 on [x2, 1)."""

    b1: float
    b2: float
    x2: float

    def __post_init__(self):
        if not (0.0 < self.b1 < math.inf and 0.0 < self.b2 < math.inf):
            raise ValueError(
                f"slownesses must be finite and positive, got b1={self.b1}, b2={self.b2}")
        if not 0.0 < self.x2 < 1.0:
            raise ValueError(f"interface position must lie in (0, 1), got x2={self.x2}")

    @functools.cached_property
    def contrast(self) -> float:
        """Single-interface reflection amplitude (b2 - b1)/(b2 + b1), in (-1, 1)."""
        return (self.b2 - self.b1) / (self.b2 + self.b1)

    @functools.cached_property
    def mismatch(self) -> float:
        """(b1^2 + b2^2) / (2 b1 b2); at least 1, equal to 1 iff b1 == b2."""
        return (self.b1 * self.b1 + self.b2 * self.b2) / (2.0 * self.b1 * self.b2)

    @functools.cached_property
    def mismatch_minus_one(self) -> float:
        """mismatch - 1 = (b2 - b1)^2 / (2 b1 b2), without the cancellation of
        subtracting 1 when b1 and b2 are close."""
        return (self.b2 - self.b1) ** 2 / (2.0 * self.b1 * self.b2)

    @functools.cached_property
    def mismatch_plus_one(self) -> float:
        """mismatch + 1 = (b1 + b2)^2 / (2 b1 b2)."""
        return (self.b1 + self.b2) ** 2 / (2.0 * self.b1 * self.b2)

    @functools.cached_property
    def transit_time(self) -> float:
        """Travel time across one cell, x2*b2 + (1 - x2)*b1."""
        return self.x2 * self.b2 + (1.0 - self.x2) * self.b1

    @functools.cached_property
    def transit_skew(self) -> float:
        """Difference of the layer travel times, x2*b2 - (1 - x2)*b1."""
        return self.x2 * self.b2 - (1.0 - self.x2) * self.b1

    @property
    def homogeneous(self) -> bool:
        """True when b1 == b2 (no interfaces, zero contrast)."""
        return self.b1 == self.b2


def is_commensurate(cell: UnitCell) -> bool:
    """True when the two layers have equal transit times: b2*x2 == b1*(1 - x2).

    Under this condition the band spectrum and the resonance spectrum are
    periodic in frequency with period ``spectral_period(cell)``, and the
    one-cell transparency frequencies become degenerate band edges.
    """
    inner = cell.b2 * cell.x2
    outer = cell.b1 * (1.0 - cell.x2)
    return abs(inner - outer) <= COMMENSURATE_RTOL * max(inner, outer)


def spectral_period(cell: UnitCell) -> float:
    """Frequency period pi/(b2*x2); meaningful when the cell is commensurate."""
    return math.pi / (cell.b2 * cell.x2)


def transparency_frequencies(cell: UnitCell, lambda_max: float) -> list[float]:
    """Frequencies m*pi/(x2*b2), m >= 1, up to lambda_max.

    A single cell transmits perfectly at these frequencies, so a slab of
    any number of cells does as well.
    """
    if lambda_max <= 0.0:
        return []
    step = math.pi / (cell.x2 * cell.b2)
    return [m * step for m in range(1, int(lambda_max / step) + 1) if m * step <= lambda_max]


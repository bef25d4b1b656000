"""Band structure, transmission and complex scattering resonances of
finite periodic two-step media in one dimension.

The scatterer is a slab of k identical two-step cells embedded in a
uniform background.  The package computes the band spectrum of the
corresponding infinite periodic medium, reflection and transmission of
the finite slab and of the half-infinite medium, the slab's complex
resonance spectrum, and the unit-disk iteration linking successive slab
sizes.
"""

from .errors import (BandMismatchError, BoundaryValueWarning, ContourError,
                     ContourThroughZeroError, DeterminantOverflowError,
                     EdgeDegeneracyError, EmptyWindowWarning,
                     HomogeneousCellError, InvalidRangeError,
                     PoleProximityError, RecursionPoleError,
                     StepslabError)
from .medium import (UnitCell, is_commensurate, spectral_period,
                     transparency_frequencies)
from .mobius import (FixedPointAnalysis, FixedPointKind, IterateResult,
                     MobiusMap, fixed_points, iterate_limit, mobius_map, r1,
                     r1_modulus_bound)
from .monodromy import (Band, BlochData, EdgeType, MonodromyMatrix, Regime,
                        bloch, find_bands, lyapunov, monodromy,
                        transfer_power)
from .resolvent import (ConvergenceRow, Resonance, Window, audit_count,
                        chain_determinants, convergence_study,
                        count_zeros_rectangle, default_im_floor,
                        find_resonances, q_recursion, reflection_via_q,
                        resonances_k1)
from .scattering import (perfect_transmission_frequencies,
                         reflection_half_infinite, reflection_k,
                         transmission_sq)

__version__ = "0.1.0"

__all__ = [
    "UnitCell", "is_commensurate", "spectral_period", "transparency_frequencies",
    "MonodromyMatrix", "BlochData", "Band", "EdgeType", "Regime",
    "monodromy", "lyapunov",
    "bloch", "transfer_power", "find_bands",
    "reflection_k", "transmission_sq", "perfect_transmission_frequencies",
    "reflection_half_infinite",
    "Window", "Resonance", "ConvergenceRow",
    "q_recursion", "chain_determinants", "resonances_k1",
    "find_resonances", "audit_count", "count_zeros_rectangle",
    "reflection_via_q", "convergence_study", "default_im_floor",
    "MobiusMap", "FixedPointAnalysis", "FixedPointKind", "IterateResult",
    "mobius_map", "r1", "r1_modulus_bound", "fixed_points", "iterate_limit",
    "StepslabError", "InvalidRangeError", "EdgeDegeneracyError",
    "BandMismatchError", "PoleProximityError", "RecursionPoleError",
    "DeterminantOverflowError", "HomogeneousCellError",
    "ContourError", "ContourThroughZeroError",
    "BoundaryValueWarning", "EmptyWindowWarning",
    "__version__",
]

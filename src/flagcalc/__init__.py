"""flagcalc: exact computation with curves and surfaces in the flag threefold.

Everything runs over Q(i) with no floating point: scalars are Gaussian
rationals and surfaces are sparse bihomogeneous forms.  The ruling
resultant is an integer Bezout determinant; interpolation ranks and kernels
are taken mod a 61-bit prime where a one-sided bound proves them exact, and
from fraction-free elimination otherwise.
"""

from .binforms import BinaryForm, bf_gcd
from .biforms import BiForm, incidence_form, reduce_mod_incidence
from .errors import (
    DegenerateConicError,
    EmptySystemError,
    FlagcalcError,
    PreconditionError,
    SchemaError,
)
from .flag import (
    Conic,
    FlagCurve,
    FlagPoint,
    ProjPoint,
    conic_param,
    conics_disjoint,
    contains_conic,
    curve_bidegree,
    is_j_invariant,
    j_conic,
    j_pullback,
    restrict_to_conic,
    twistor_fiber_of,
)
from .gaussian import GaussianRational
from .invariants import (
    c1_squared,
    c2,
    chow_triple,
    miyaoka_conic_bound,
    ruling_curve_bound,
    surface_invariant_report,
    surface_pair_intersection_bidegree,
)
from .linsys import (
    condition_matrix,
    conic_singularity_witness,
    h0_flag,
    h0_hirzebruch,
    surface_family,
    surface_through_conics,
    system_dimension,
)
from .ruled import (
    RuledSurfaceSpec,
    smoothness_profile,
    twistor_circle_samples,
    twistor_ruled_surface,
)
from .sampling import SplitMix64

__version__ = "0.1.0"

__all__ = [
    "BinaryForm",
    "BiForm",
    "Conic",
    "DegenerateConicError",
    "EmptySystemError",
    "FlagCurve",
    "FlagPoint",
    "FlagcalcError",
    "GaussianRational",
    "PreconditionError",
    "ProjPoint",
    "RuledSurfaceSpec",
    "SchemaError",
    "SplitMix64",
    "bf_gcd",
    "c1_squared",
    "c2",
    "chow_triple",
    "condition_matrix",
    "conic_param",
    "conic_singularity_witness",
    "conics_disjoint",
    "contains_conic",
    "curve_bidegree",
    "h0_flag",
    "h0_hirzebruch",
    "incidence_form",
    "is_j_invariant",
    "j_conic",
    "j_pullback",
    "miyaoka_conic_bound",
    "reduce_mod_incidence",
    "restrict_to_conic",
    "ruling_curve_bound",
    "smoothness_profile",
    "surface_family",
    "surface_invariant_report",
    "surface_pair_intersection_bidegree",
    "surface_through_conics",
    "system_dimension",
    "twistor_circle_samples",
    "twistor_fiber_of",
    "twistor_ruled_surface",
]

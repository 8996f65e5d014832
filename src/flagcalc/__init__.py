"""flagcalc: exact computation with curves and surfaces in the flag threefold.

Everything runs over Q(i) with no floating point: scalars are Gaussian
rationals and surfaces are sparse bihomogeneous forms.  The ruling
resultant is an integer Bezout determinant; interpolation ranks and kernels
are taken mod a 61-bit prime where a one-sided bound proves them exact, and
from fraction-free elimination otherwise.

Public names load on first use: importing the package runs no submodule,
and the first lookup of ``flagcalc.BiForm`` imports ``flagcalc.biforms``.
"""

__version__ = "0.1.0"

# submodule -> the public names it defines (PEP 562 lazy loading)
_EXPORTS = {
    "binforms": ("BinaryForm", "bf_gcd"),
    "biforms": ("BiForm", "incidence_form", "reduce_mod_incidence"),
    "errors": (
        "DegenerateConicError",
        "EmptySystemError",
        "FlagcalcError",
        "PreconditionError",
        "SchemaError",
    ),
    "flag": (
        "Conic",
        "FlagPoint",
        "ProjPoint",
        "conics_disjoint",
        "contains_conic",
        "is_j_invariant",
        "j_conic",
        "j_pullback",
        "restrict_to_conic",
        "singular_points_on_conic",
        "twistor_fiber_of",
    ),
    "gaussian": ("GaussianRational",),
    "invariants": (
        "c1_squared",
        "c2",
        "chow_triple",
        "h0_flag",
        "h0_hirzebruch",
        "miyaoka_conic_bound",
        "ruling_curve_bound",
        "surface_invariant_report",
        "surface_pair_intersection_bidegree",
    ),
    "linsys": (
        "condition_matrix",
        "surface_family",
        "surface_through_conics",
        "system_dimension",
    ),
    "ruled": (
        "RuledSurfaceSpec",
        "twistor_circle_samples",
        "twistor_ruled_surface",
    ),
    "sampling": ("SplitMix64",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value

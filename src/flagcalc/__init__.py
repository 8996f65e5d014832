"""flagcalc: exact computation with curves and surfaces in the flag threefold.

Everything runs over Q(i) with no floating point: scalars are Gaussian
rationals and surfaces are sparse bihomogeneous forms.  The ruling
resultant is an integer Bezout determinant; interpolation ranks and
kernels come from F_p, each proved exact by a bound or a certificate.

Each name is imported from the module that defines it
(``from flagcalc.biforms import BiForm``); importing the package runs no
submodule.
"""

__version__ = "0.1.0"

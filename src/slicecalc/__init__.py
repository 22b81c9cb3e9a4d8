"""Exact computer algebra for quaternionic and Clifford slice analysis.

The package computes with slice functions over exact rational arithmetic:
stems and their induced functions, the slice-wise and global Cauchy-Riemann
operators, the constructive polyanalytic decomposition, and a verification
CLI that replays the theory's identities and counterexamples at desk scale.
"""

from .algebra import (
    QUATERNION,
    AlgebraElement,
    AlgebraSignature,
    ImaginaryUnit,
    canonical_units,
    clifford,
    sample_units,
    stereographic_unit,
)
from .multipoly import CoordPoly, RationalFn, coord_im, coord_s, coord_x, coord_xbar
from .slicefn import (
    CircularDomain,
    PointFunction,
    SliceFunction,
    SliceWitness,
    extract_stem,
    extract_stem_exact,
    is_slice,
    representation_eval,
)
from .stem import StemFunction
from .operators import (
    SlicePlanePoly,
    dbar_slice,
    g_op,
    restrict_slice_function,
    restrict_to_slice,
    thetabar,
)
from .polyanalytic import (
    ClassificationReport,
    classify,
    counterexample_suite,
    decompose,
    per_slice_decomposition,
    poly_order,
)
from .named import builtin_function

__version__ = "0.1.0"

__all__ = [
    "QUATERNION",
    "AlgebraElement",
    "AlgebraSignature",
    "CircularDomain",
    "ClassificationReport",
    "CoordPoly",
    "ImaginaryUnit",
    "PointFunction",
    "RationalFn",
    "SliceFunction",
    "SlicePlanePoly",
    "SliceWitness",
    "StemFunction",
    "builtin_function",
    "canonical_units",
    "classify",
    "clifford",
    "coord_im",
    "coord_s",
    "coord_x",
    "coord_xbar",
    "counterexample_suite",
    "dbar_slice",
    "decompose",
    "extract_stem",
    "extract_stem_exact",
    "g_op",
    "is_slice",
    "per_slice_decomposition",
    "poly_order",
    "representation_eval",
    "restrict_slice_function",
    "restrict_to_slice",
    "sample_units",
    "stereographic_unit",
    "thetabar",
]

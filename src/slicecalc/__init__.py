"""Exact computer algebra for quaternionic and Clifford slice analysis.

The package computes with slice functions over exact rational arithmetic:
stems and their induced functions, the slice-wise and global Cauchy-Riemann
operators, the constructive polyanalytic decomposition, and a verification
CLI that replays the theory's identities and counterexamples at desk scale.
Each name is imported from its own module, e.g. ``slicecalc.polyanalytic.classify``.
"""

__version__ = "0.1.0"

"""simtree: exact enumeration of simplicial spanning trees.

Simplicial matrix-tree theorems over arbitrary-dimensional complexes with
exact integer/rational arithmetic, weighted tree enumerators as multivariate
Laurent polynomials, and the full spectral theory of shifted complexes.
"""

from .complexes import SimplicialComplex, is_shifted, shifted_from_generators
from .exactlinalg import HomologySummary, homology, is_apc
from .laurent import LaurentPoly, canonical_string
from .trees import (
    TreeCount,
    enumerate_ssts,
    find_sst,
    is_sst,
    pi,
    tau_via_alternating_product,
    tau_via_reduced_laplacian,
)
from .weighted import weighted_oracle, weighted_tau, weighted_tau_at_points
from .shifted import (
    SpectrumMultiset,
    ZPolynomial,
    critical_pairs,
    ferrers_tau,
    hear_shape,
    shifted_spectrum,
    shifted_tau_coarse,
    shifted_tau_fine,
    threshold_tau,
    unweighted_spectrum_duval_reiner,
    z_poly,
)

__version__ = "0.1.0"

__all__ = [
    "SimplicialComplex",
    "HomologySummary",
    "LaurentPoly",
    "SpectrumMultiset",
    "TreeCount",
    "ZPolynomial",
    "canonical_string",
    "critical_pairs",
    "enumerate_ssts",
    "ferrers_tau",
    "find_sst",
    "hear_shape",
    "homology",
    "is_apc",
    "is_shifted",
    "is_sst",
    "pi",
    "shifted_from_generators",
    "shifted_spectrum",
    "shifted_tau_coarse",
    "shifted_tau_fine",
    "tau_via_alternating_product",
    "tau_via_reduced_laplacian",
    "threshold_tau",
    "unweighted_spectrum_duval_reiner",
    "weighted_oracle",
    "weighted_tau",
    "weighted_tau_at_points",
    "z_poly",
]

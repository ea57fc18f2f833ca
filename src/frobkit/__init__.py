"""Exact-arithmetic construction and verification of Frobenius manifolds
from unfolding data: truncated rational power series, graded Jacobi
algebras, connection pencils with pairings, universal unfoldings, and two
independent germ constructors."""

from .germ import (FrobeniusGermData, InitialData, compare_germs,
                   euler_check, frobenius_via_unfolding, h2_reconstruct,
                   initial_from_filtration, normalize_germ,
                   potential_integrate, wdvv_check)
from .jacobi import (JacobiAlgebra, NotIsolatedError, RfClass, WeightSystem,
                     XPoly, build_jacobi, h2_generation_check,
                     jacobian_piece, multiply_rf)
from .pencil import (ConnectionPencil, GCCertificate, PairingMatrix,
                     flatness_residual, gc_check, ic_check, is_flat,
                     pairing_extension_check, pencil_to_ftype,
                     potential_matrix, reduced_flatness_check,
                     structure_connection)
from .series import SeriesMatrix, TruncSeries
from .structures import (FiltrationData, FrobeniusTypeStructure,
                         RejectionError, check_ftype_axioms, shift_example,
                         filtration_to_ftype, ftype_to_filtration,
                         jacobi_to_filtration)
from .unfold import UnfoldProblem, solve, universal_unfold

__all__ = [
    "FrobeniusGermData", "InitialData", "compare_germs", "euler_check",
    "frobenius_via_unfolding", "h2_reconstruct", "initial_from_filtration",
    "normalize_germ", "potential_integrate", "wdvv_check",
    "JacobiAlgebra", "NotIsolatedError", "RfClass", "WeightSystem", "XPoly",
    "build_jacobi", "h2_generation_check", "jacobian_piece", "multiply_rf",
    "ConnectionPencil", "PairingMatrix", "flatness_residual", "is_flat",
    "pairing_extension_check", "pencil_to_ftype", "potential_matrix",
    "reduced_flatness_check", "structure_connection",
    "SeriesMatrix", "TruncSeries",
    "FiltrationData", "FrobeniusTypeStructure", "RejectionError",
    "check_ftype_axioms", "shift_example", "filtration_to_ftype",
    "ftype_to_filtration", "jacobi_to_filtration",
    "GCCertificate", "UnfoldProblem", "gc_check", "ic_check", "solve",
    "universal_unfold",
]

__version__ = "0.1.0"

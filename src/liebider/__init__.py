"""Exact construction and decomposition of Lie biderivations on triangular algebras.

The package builds finite-dimensional triangular algebras over the rationals
(upper triangular, block upper triangular, poset incidence algebras), solves
the full solution space of bilinear-map laws (Lie biderivation, associative
biderivation, one-sided Lie derivations) as exact nullspaces, and decomposes
every Lie biderivation into inner + extremal + central parts, with the
supporting component identities verified exactly.
"""

from .linalg import (
    Inconsistent,
    RowReducer,
    SparseMatrix,
    SpanChecker,
    canonical_basis,
    nullspace,
    nullspace_from_reducer,
    rref,
    solve,
)
from .algebra import (
    Element,
    FiniteAlgebra,
    MixedAlgebras,
    center_basis,
    is_commutative,
    lie_bracket,
    multiply,
)
from .triangular import (
    BadSplit,
    ConstructionError,
    HypothesisReport,
    Disconnected,
    NotInProjection,
    Poset,
    SingleBlock,
    TriangularAlgebra,
    bimodule_hom_basis,
    block_upper_triangular,
    hypothesis_report,
    incidence_algebra,
    peirce,
    standard_form_check,
    tau,
    tau_inv,
    upper_triangular,
)
from .bider import (
    BilinearMap,
    MapLaw,
    NotCentral,
    NotVanishing,
    constraint_matrix,
    law_residual,
    lemma31_residual,
    make_central,
    make_extremal,
    make_inner,
    solve_space,
)
from .decomp import (
    Decomposition,
    LemmaReport,
    NoCentralLambda,
    NotLieBider,
    ResidualNotCentral,
    decompose,
    lemma_suite,
    verify_decomposition,
)

__version__ = "0.1.0"

__all__ = [
    "Inconsistent", "RowReducer", "SparseMatrix", "SpanChecker",
    "canonical_basis", "nullspace", "nullspace_from_reducer", "rref", "solve",
    "Element", "FiniteAlgebra", "MixedAlgebras", "center_basis",
    "is_commutative", "lie_bracket", "multiply",
    "BadSplit", "ConstructionError", "Disconnected", "HypothesisReport",
    "NotInProjection", "Poset", "SingleBlock",
    "TriangularAlgebra", "bimodule_hom_basis", "block_upper_triangular",
    "hypothesis_report", "incidence_algebra", "peirce", "standard_form_check",
    "tau", "tau_inv", "upper_triangular",
    "BilinearMap", "MapLaw", "NotCentral", "NotVanishing", "constraint_matrix",
    "law_residual", "lemma31_residual", "make_central", "make_extremal",
    "make_inner", "solve_space",
    "Decomposition", "LemmaReport", "NoCentralLambda", "NotLieBider",
    "ResidualNotCentral", "decompose", "lemma_suite", "verify_decomposition",
]

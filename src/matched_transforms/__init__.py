"""Group-matched transform toolkit.

Finite permutation actions on signal indices, the fixed orthonormal bases
matched to them (Fourier, cosine, Walsh-Hadamard, Haar, and syntheses from
an action's generators), diagnostics that verify a basis diagonalizes every
invariant covariance, and a search that recovers the symmetry group of a
given covariance from scratch.
"""

from .errors import (
    DegeneracyMismatchError,
    DimensionError,
    InputError,
    NotMultiplicityFreeError,
    NumericError,
    StructuralMismatchError,
    ToolkitError,
    UndefinedResidualError,
)
from .groups import (
    GroupAction,
    Permutation,
    closure_enumerate,
    from_generators,
    make_boolean,
    make_cyclic,
    make_dihedral,
    make_dyadic_wreath,
    make_hybrid,
    make_product,
    make_trivial,
    make_wreath,
    pair_orbits,
    parse_group_spec,
    parse_permutation,
    reynolds_project,
)
from .numkernel import herm_eig, random_psd
from .transforms import (
    IntTransform,
    SynthesizedBasis,
    UnitaryTransform,
    anf_coefficients,
    arithmetic_matrix,
    best_polarity,
    compose_direct,
    dct2_matrix,
    dft_matrix,
    even_extension_isometry,
    fp_rm_matrix,
    haar_matrix,
    hartley_matrix,
    rm_matrix,
    semidirect_dct_cascade,
    synthesize_matched,
    wht_matrix,
    wreath_matrix,
)
from .diagnostics import (
    MatchReport,
    circle_check,
    coloring_alpha,
    dct_fold_cov,
    residual_delta,
    sample_invariant_cov,
    subspace_match,
)
from .discovery import (
    CandidateBasis,
    DiscoveryResult,
    LibraryMatch,
    LibraryReport,
    discover_sequential,
    match_library,
)
from .matrixio import (
    ReportDocument,
    parse_matrix,
    read_matrix_file,
    render_matrix,
    write_matrix_file,
)
from .rng import normal_rows

__version__ = "0.1.0"

__all__ = [
    "CandidateBasis", "DegeneracyMismatchError",
    "DimensionError", "DiscoveryResult", "GroupAction",
    "InputError", "IntTransform", "LibraryMatch",
    "LibraryReport", "MatchReport", "NotMultiplicityFreeError", "NumericError",
    "Permutation",
    "ReportDocument", "StructuralMismatchError",
    "SynthesizedBasis", "ToolkitError", "UndefinedResidualError",
    "UnitaryTransform", "anf_coefficients",
    "arithmetic_matrix", "best_polarity",
    "circle_check", "closure_enumerate", "coloring_alpha", "compose_direct",
    "dct2_matrix", "dct_fold_cov", "dft_matrix",
    "discover_sequential",
    "even_extension_isometry", "fp_rm_matrix", "from_generators",
    "haar_matrix", "hartley_matrix", "herm_eig",
    "make_boolean", "make_cyclic", "make_dihedral", "make_dyadic_wreath",
    "make_hybrid", "make_product", "make_trivial", "make_wreath", "match_library",
    "normal_rows", "pair_orbits", "parse_group_spec",
    "parse_matrix", "parse_permutation", "random_psd", "read_matrix_file",
    "render_matrix", "residual_delta", "reynolds_project", "rm_matrix",
    "sample_invariant_cov", "semidirect_dct_cascade",
    "subspace_match", "synthesize_matched", "wht_matrix",
    "wreath_matrix", "write_matrix_file",
]

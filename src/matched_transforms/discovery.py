"""Symmetry discovery: which index permutations commute with a covariance?

The continuous relaxation looks for directions A minimizing ||[R, A]||_F
over a candidate span.  The span is orthonormalized first, so this is a
Hermitian eigenproblem for the quadratic form <[R, B_i], [R, B_j]>_F, which
equals the double-commutator form Tr(B_i* [R, [R, B_j]]).  Near-null
directions are rounded to permutations by an exact assignment,
residual-checked, and either accepted as generators (their closure joins
the deflation span) or deflated as continuous directions and retried.
The search stops once the smallest eigenvalue shows that no direction
below the residual tolerance remains outside the deflation span.  Rejected
directions are deflated whole, so permutations with components along them
can be missed: that stop does not prove the group complete.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BasisError,
    DimensionError,
    InputError,
    SearchExhausted,
    UndefinedResidualError,
)
from .diagnostics import coloring_alpha, residual_delta
from .groups import (
    ClosureResult,
    GroupAction,
    Permutation,
    closure_enumerate,
    from_generators,
)
from .numkernel import _check_hermitian, as_cmatrix, herm_eig, hungarian_max

_RANK_TOL = 1e-10  # relative singular-value cutoff for the deflated span


@dataclass(frozen=True)
class CandidateBasis:
    """A spanning set of search directions, stored as a (d, M, M) stack.

    The Gram matrix must be positive definite (smallest eigenvalue above
    1e-10 * max entry), i.e. the directions are numerically independent.
    """

    stack: np.ndarray

    def __post_init__(self):
        stack = np.asarray(self.stack, dtype=np.complex128)
        if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or stack.shape[0] == 0:
            raise BasisError(f"expected a (d, M, M) stack, got shape {stack.shape}")
        if not np.all(np.isfinite(stack)):
            raise BasisError("basis has non-finite entries")
        flat = stack.reshape(stack.shape[0], -1)
        gram = flat.conj() @ flat.T
        gram = (gram + gram.conj().T) / 2.0
        floor = 1e-10 * float(np.max(np.abs(gram)))
        if float(np.linalg.eigvalsh(gram)[0]) <= floor:
            raise BasisError("basis directions are numerically dependent")
        stack = stack.copy()
        stack.flags.writeable = False
        object.__setattr__(self, "stack", stack)

    @classmethod
    def _from_trusted(cls, stack: np.ndarray) -> "CandidateBasis":
        # internal fast path: a complex128 stack known to be independent
        basis = object.__new__(cls)
        stack.flags.writeable = False
        object.__setattr__(basis, "stack", stack)
        return basis

    @classmethod
    def matrix_units(cls, degree: int) -> "CandidateBasis":
        """All degree^2 matrix units E_ab, row-major in (a, b)."""
        if degree < 1:
            raise DimensionError("degree must be >= 1")
        # orthonormal by construction: the Gram check would only
        # eigendecompose the degree^2 x degree^2 identity
        units = np.eye(degree * degree, dtype=np.complex128)
        return cls._from_trusted(units.reshape(degree * degree, degree, degree))

    @classmethod
    def cyclic_shifts(cls, degree: int) -> "CandidateBasis":
        """The degree shift matrices {P_tau^k}: a cheap structured search
        span for circulant-suspected inputs."""
        if degree < 1:
            raise DimensionError("degree must be >= 1")
        shift = Permutation(tuple((j + 1) % degree for j in range(degree)))
        stack = np.empty((degree, degree, degree), dtype=np.complex128)
        mat = np.eye(degree, dtype=np.complex128)
        for k in range(degree):
            stack[k] = mat
            mat = shift.to_matrix() @ mat
        return cls(stack)

    @property
    def degree(self) -> int:
        return self.stack.shape[1]

    @property
    def size(self) -> int:
        return self.stack.shape[0]


@dataclass(frozen=True)
class DiscoveryResult:
    """Accepted generators with their residuals, the closure order (None when
    enumeration overflowed the cap), the invariant energy fraction of the
    discovered action, and loop accounting."""

    generators: tuple
    residuals: tuple
    group_order: int | None
    order_exceeded_cap: bool
    alpha: float
    iterations: int
    rejected_count: int
    stop_reason: str


def _commutator_form(r_arr: np.ndarray, mats: np.ndarray) -> np.ndarray:
    # Hermitian matrix of <[R, B_i], [R, B_j]>_F over a (d, M, M) stack
    comm = np.matmul(r_arr, mats) - np.matmul(mats, r_arr)
    cv = comm.reshape(mats.shape[0], -1)
    form = cv.conj() @ cv.T
    return (form + form.conj().T) / 2.0


def dc_gevp_step(r, basis: CandidateBasis, deflation_span=()) -> tuple:
    """Smallest constrained direction: minimize ||[R, A]||_F^2 over unit-norm
    A in span(basis) orthogonal (Frobenius) to every deflation matrix.

    Returns (lambda_min, A) with ||A||_F = 1; lambda_min equals
    delta(A, R)^2 ||R||_F^2.  A's phase is canonical: its largest-magnitude
    coefficient over the orthonormalized span is real positive.  Raises
    SearchExhausted when deflation has consumed the span.
    """
    r_arr = _check_hermitian(as_cmatrix(r, square=True))
    stack = basis.stack
    m = r_arr.shape[0]
    if stack.shape[1] != m:
        raise DimensionError("basis degree does not match the matrix")
    flat = stack.reshape(stack.shape[0], -1)
    if len(deflation_span):
        defl = np.stack(
            [np.asarray(d, dtype=np.complex128).reshape(-1) for d in deflation_span]
        )
        if defl.shape[1] != m * m:
            raise DimensionError("deflation matrices must match the degree")
        # orthonormal rows spanning the deflated directions (rank-revealing)
        _, s_d, vt_d = np.linalg.svd(defl, full_matrices=False)
        keep = s_d > max(_RANK_TOL * s_d[0], 1e-14)
        q_defl = vt_d[keep]
        flat = flat - (flat @ q_defl.conj().T) @ q_defl
    _, s, vt = np.linalg.svd(flat, full_matrices=False)
    if s.size == 0 or s[0] <= 1e-12:
        raise SearchExhausted("deflation span covers the whole candidate basis")
    rank = int(np.sum(s > max(_RANK_TOL * s[0], 1e-14)))
    if rank == 0:
        raise SearchExhausted("deflation span covers the whole candidate basis")
    q = vt[:rank]
    q_mats = q.reshape(rank, m, m)
    eig = herm_eig(_commutator_form(r_arr, q_mats))
    coeff = eig.vectors[:, 0]
    peak = coeff[int(np.argmax(np.abs(coeff)))]
    coeff = coeff / (peak / abs(peak))
    direction = np.tensordot(coeff, q_mats, axes=(0, 0))
    return max(float(eig.values[0]), 0.0), direction


def round_to_permutation(a) -> Permutation:
    """Nearest permutation in the trace sense: maximize Re tr(P^T A)."""
    arr = as_cmatrix(a, square=True)
    perm, _ = hungarian_max(arr.real)
    return perm


def discover_sequential(
    r,
    tau: float = 1e-8,
    max_iters: int | None = None,
    basis: CandidateBasis | None = None,
    enumeration_cap: int = 10**4,
) -> DiscoveryResult:
    """Recover a generating set of the symmetries of R.

    Loop: deflate the identity, the closure of everything accepted so far
    (accepted generators only, once the closure overflows the cap), and all
    previously rejected continuous directions; take the smallest
    double-commutator direction; round it to a permutation; accept iff its
    residual is <= tau and it is new.  Stops when lambda_min rises above
    tau^2 ||R||_F^2 (no acceptable permutation remains outside the span),
    when the span is exhausted, or after max_iters (default 4 * degree)
    steps, whichever is first; the last case reports stop_reason
    "saturated" (the bound never certified emptiness).
    """
    if enumeration_cap < 1:
        raise InputError("cap must be >= 1")
    r_arr = _check_hermitian(as_cmatrix(r, square=True))
    m = r_arr.shape[0]
    r_norm = float(np.linalg.norm(r_arr))
    if r_norm == 0.0:
        raise UndefinedResidualError("discovery is undefined for the zero matrix")
    if not tau > 0:
        raise UndefinedResidualError("tau must be positive")
    if basis is None:
        basis = CandidateBasis.matrix_units(m)
    if basis.degree != m:
        raise DimensionError("basis degree does not match the matrix")
    if max_iters is None:
        max_iters = 4 * m
    identity = Permutation.identity(m)
    accepted: list = []
    residuals: list = []
    # the group elements known so far: the whole closure of `accepted`, or
    # only the identity and `accepted` once the closure overflows the cap
    closure = ClosureResult([identity], 1, False)
    known = closure.elements
    rejected_dirs: list = []
    bound = tau * tau * r_norm * r_norm
    iterations = 0
    rejected_count = 0
    stop_reason = "saturated"
    while iterations < max_iters:
        deflation = [p.to_matrix() for p in known] + rejected_dirs
        try:
            lam, direction = dc_gevp_step(r_arr, basis, deflation)
        except SearchExhausted:
            stop_reason = "exhausted"
            break
        iterations += 1
        if lam > bound:
            stop_reason = "spectral-bound"
            break
        candidate = round_to_permutation(direction)
        delta = residual_delta(candidate, r_arr)
        if delta <= tau and candidate not in set(known):
            accepted.append(candidate)
            residuals.append(delta)
            closure = closure_enumerate(
                from_generators(accepted, "discovered"), cap=enumeration_cap
            )
            known = [identity] + accepted if closure.overflowed else closure.elements
        else:
            rejected_count += 1
            rejected_dirs.append(direction)
    discovered = from_generators(accepted or [identity], "discovered")
    alpha = coloring_alpha(discovered, r_arr)
    return DiscoveryResult(
        generators=tuple(accepted),
        residuals=tuple(residuals),
        group_order=None if closure.overflowed else closure.count,
        order_exceeded_cap=closure.overflowed,
        alpha=alpha,
        iterations=iterations,
        rejected_count=rejected_count,
        stop_reason=stop_reason,
    )


@dataclass(frozen=True)
class LibraryMatch:
    """One ranked library entry: worst-generator residual and group data."""

    name: str
    score: float
    alpha: float
    group_order: int | None
    order_exceeded_cap: bool


@dataclass(frozen=True)
class LibraryReport:
    """Ranked matches plus one warning string per skipped library entry."""

    matches: tuple
    warnings: tuple


def match_library(r, library, enumeration_cap: int = 10**4) -> LibraryReport:
    """Rank candidate actions by their worst-generator residual on R.

    Entries whose degree does not match R are skipped with a warning
    record, not an error.  Scores are compared after quantization to 1e-12
    so floating-point near-ties resolve by the preference rules: larger
    group order first (more structure when both fit), then name.
    """
    if enumeration_cap < 1:
        raise InputError("cap must be >= 1")
    r_arr = as_cmatrix(r, square=True)
    actions = tuple(library)
    if not actions:
        raise DimensionError("library must contain at least one action")
    entries = []
    warnings = []
    for action in actions:
        if action.degree != r_arr.shape[0]:
            warnings.append(
                f"skipped {action.name}: degree {action.degree} does not match "
                f"the matrix degree {r_arr.shape[0]}"
            )
            continue
        score = max(residual_delta(g, r_arr) for g in action.generators)
        closure = closure_enumerate(action, cap=enumeration_cap)
        entries.append(
            LibraryMatch(
                name=action.name,
                score=score,
                alpha=coloring_alpha(action, r_arr),
                group_order=None if closure.overflowed else closure.count,
                order_exceeded_cap=closure.overflowed,
            )
        )
    def rank_key(e: LibraryMatch):
        quantized = int(round(e.score / 1e-12))
        order = e.group_order if e.group_order is not None else enumeration_cap + 1
        return (quantized, -order, e.name)
    return LibraryReport(tuple(sorted(entries, key=rank_key)), tuple(warnings))

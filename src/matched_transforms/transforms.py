"""Orthogonal/unitary transform kernels tied to index symmetries.

Each builder returns the dense matrix matched to one family of invariant
covariances, built from one base matrix per node kind (Fourier for cyclic
nodes, real Helmert for symmetric and binary ones) and the composition
rules: Haar is the wreath basis of binary nodes, and the cosine cascade
the semidirect rule applied to the DFT.  The DFT and Walsh-Hadamard
kernels are the character tables of Z_m and (Z_2)^n, read from one table
of roots of unity.  Integer counterparts (Reed-Muller triangle,
fixed-polarity variants, the arithmetic-transform inverse pair) are
Kronecker powers of 2x2 blocks.  The matched-basis synthesizer applies
the same rules to an action given only by its generators: the character
table grouped by orbits for an affine action (the semidirect rule, real
for a self-paired one), the wreath composition of two factors' bases for
an imprimitive one, and otherwise seeded generic elements of the
commutant.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import (
    DegenerateSampleError,
    DimensionError,
    InputError,
    NotMultiplicityFreeError,
    NumericError,
)
from .groups import (
    GroupAction,
    Permutation,
    _branching_name,
    _check_degree,
    _check_log2_degree,
    _affine_coordinates,
    _character_orbits,
    _normalize_branching,
    _wreath_splits,
    pair_orbits,
)
from .numkernel import as_cmatrix, herm_eig, random_psd
from .rng import _splitmix64, normal_rows

UNITARITY_TOL = 1e-10
DIAGONAL_TOL = 1e-8  # synthesized U must diagonalize a second sample to this
COMMUTATOR_TOL = 1e-9  # invariant samples of a multiplicity-free action commute


@dataclass(frozen=True)
class UnitaryTransform:
    """A unitary matrix whose columns are labeled analysis directions."""

    matrix: np.ndarray
    group_name: str
    column_labels: tuple

    def __post_init__(self):
        mat = as_cmatrix(self.matrix)
        _check_unitary(mat)
        labels = tuple(str(l) for l in self.column_labels)
        if len(labels) != mat.shape[0]:
            raise DimensionError("need exactly one label per column")
        # keep a C-ordered copy of our own, but convert a real input only once
        mat = mat.copy() if np.may_share_memory(mat, self.matrix) else np.ascontiguousarray(mat)
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "column_labels", labels)

    @classmethod
    def _from_trusted(cls, matrix: np.ndarray, group_name: str,
                      column_labels: tuple) -> "UnitaryTransform":
        # internal fast path for a basis unitary by construction (a closed
        # form, or characters): no Gram check, and the caller hands the
        # array over; the stored bytes are those the checked path stores
        u = object.__new__(cls)
        mat = np.ascontiguousarray(matrix, dtype=np.complex128)
        mat.flags.writeable = False
        object.__setattr__(u, "matrix", mat)
        object.__setattr__(u, "group_name", group_name)
        object.__setattr__(u, "column_labels", column_labels)
        return u

    @property
    def degree(self) -> int:
        return self.matrix.shape[0]


def _check_unitary(u: np.ndarray) -> None:
    gram_err = _gram_error(u)
    if not gram_err <= UNITARITY_TOL:  # a NaN fails too
        raise NumericError(f"columns are not orthonormal: error {gram_err:.3e}")


def _gram_error(u: np.ndarray) -> float:
    """max |(U* U - I)_jk| over the entries, in real arithmetic.

    Re(U* U) is the symmetric product S^T S of the stacked S = [Re U; Im U],
    and Im(U* U) = X - X^T with X = (Re U)^T Im U: two real products where
    the complex Gram matrix takes four.  A real U needs only (Re U)^T Re U.
    """
    m = u.shape[0]
    if not u.imag.any():
        re = np.ascontiguousarray(u.real)
        gram, im = re.T @ re, 0.0
    else:
        s = np.concatenate([u.real, u.imag])
        gram, im = s.T @ s, s[:m].T @ s[m:]
        del s
        im -= im.T  # numpy buffers the overlapping transpose
    gram[np.diag_indices(m)] -= 1.0
    # |z|^2 = Re^2 + Im^2 entrywise; the square root of the largest is taken once
    np.square(gram, out=gram)
    gram += np.square(im)
    return float(np.sqrt(np.max(gram)))


def _bareiss_det(matrix: np.ndarray) -> int:
    """Exact integer determinant by fraction-free elimination."""
    a = np.array([[int(x) for x in row] for row in matrix], dtype=object)
    n = a.shape[0]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k, k] == 0:
            nz = np.nonzero(a[k + 1 :, k])[0]
            if nz.size == 0:
                return 0
            r = k + 1 + int(nz[0])
            a[[k, r]] = a[[r, k]]
            sign = -sign
        pivot = a[k, k]
        for i in range(k + 1, n):
            a[i, k + 1 :] = (a[i, k + 1 :] * pivot - a[i, k] * a[k, k + 1 :]) // prev
            a[i, k] = 0
        prev = pivot
    return sign * int(a[n - 1, n - 1])


@dataclass(frozen=True)
class IntTransform:
    """An integer transform matrix, unimodular over the integers.

    modulus is None for transforms over Z and 2 for GF(2) self-inverse
    kernels.  The |det| = 1 invariant is verified at construction up to
    size 64.
    """

    matrix: np.ndarray
    modulus: int | None
    name: str

    def __post_init__(self):
        mat = np.asarray(self.matrix)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] == 0:
            raise DimensionError(f"expected a square matrix, got shape {mat.shape}")
        if not np.issubdtype(mat.dtype, np.integer):
            raise InputError("entries must be integers")
        if self.modulus not in (None, 2):
            raise InputError("modulus must be None or 2")
        if self.modulus == 2 and not np.all((mat == 0) | (mat == 1)):
            raise InputError("mod-2 transforms must have 0/1 entries")
        mat = mat.astype(np.int64).copy()
        if mat.shape[0] <= 64 and abs(_bareiss_det(mat)) != 1:
            raise NumericError("transform matrix is not unimodular")
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    @property
    def degree(self) -> int:
        return self.matrix.shape[0]


# ---------------------------------------------------------------------------
# closed-form kernels

def _characters(coords: np.ndarray, d: tuple, order=None) -> np.ndarray:
    """The character table of A = Z_d[0] + Z_d[1] + ... on M points with
    coordinates c(p) in A: U[p, k] = M^-1/2 chi_k(c(p)),
    chi_k(x) = exp(2 pi i sum_i k_i x_i / d_i), characters k numbered in
    mixed radix over d, the first coordinate most significant.  Column j
    holds character order[j] (by default, character j).  Each entry is read
    from a table of L-th roots of unity, L = lcm(d), at the integer phase
    sum_i c_i(p) k_i L/d_i mod L; for L = 2 the table is exactly +-1.
    Distinct characters are orthogonal, so U is unitary when c is a
    bijection onto A."""
    m = coords.shape[0]
    lcm = int(np.lcm.reduce(d))
    # each term c_i k_i lcm/d_i is an integer below M lcm, so the phases are
    # integers far under 2^53 and a float64 (BLAS) product is exact
    scaled = coords * (lcm / np.array(d))
    chars = np.indices(d, dtype=np.float64).reshape(len(d), m)
    if order is not None:
        chars = chars[:, order]
    if lcm == 2:
        table = np.array([1, -1], dtype=np.complex128)
    else:
        table = np.exp(2j * np.pi * np.arange(lcm) / lcm)
    table /= np.sqrt(m)
    u = np.empty((m, m), dtype=np.complex128)
    rows = max(1, (1 << 17) // m)
    for at in range(0, m, rows):
        phase = (scaled[at : at + rows] @ chars).astype(np.int64)
        np.remainder(phase, lcm, out=phase)
        np.take(table, phase, out=u[at : at + rows])
    return u


def _fourier(m: int) -> np.ndarray:
    """(F)_{jk} = exp(2 pi i j k / m) / sqrt(m), the cyclic node's base:
    the character table of Z_m."""
    return _characters(np.arange(m)[:, None], (m,))


def _kron_all(blocks) -> np.ndarray:
    """Kronecker product of the blocks, first block most significant."""
    return reduce(np.kron, blocks)


def dft_matrix(m: int) -> UnitaryTransform:
    """Discrete Fourier kernel (U)_{jk} = exp(2 pi i j k / m) / sqrt(m)."""
    _check_degree(m)
    mat = _fourier(m)
    return UnitaryTransform._from_trusted(mat, f"cyclic:{m}", tuple(f"freq={k}" for k in range(m)))


def hartley_matrix(m: int) -> UnitaryTransform:
    """Real cas kernel (cos + sin)(2 pi j k / m) / sqrt(m) = Re F + Im F."""
    _check_degree(m)
    mat = _fourier(m)
    mat.real += mat.imag
    mat.imag = 0.0
    return UnitaryTransform._from_trusted(mat, f"cyclic:{m}", tuple(f"cas={k}" for k in range(m)))


def dct2_matrix(m: int) -> UnitaryTransform:
    """Orthonormal DCT-II: sqrt(2/m) w_k cos(pi (2j+1) k / (2m)), w_0 = 1/sqrt(2)."""
    _check_degree(m)
    # read from a table of 4m cosines at the integer phase (2j+1) k mod 4m,
    # so no entry drifts as (2j+1) k grows
    table = np.sqrt(2.0 / m) * np.cos(np.pi * np.arange(4 * m) / (2 * m))
    mat = table[(2 * np.arange(m)[:, None] + 1) * np.arange(m) % (4 * m)]
    mat[:, 0] /= np.sqrt(2.0)
    return UnitaryTransform._from_trusted(mat, f"dihedral:{m}", tuple(f"k={t}" for t in range(m)))


def wht_matrix(n: int) -> UnitaryTransform:
    """Walsh-Hadamard kernel (Hadamard order): (-1)^{<j,k>} / 2^{n/2}, the
    character table of (Z_2)^n on the bits of j, most significant first."""
    _check_log2_degree(n)
    bits = (2,) * n
    mat = _characters(np.indices(bits).reshape(n, -1).T, bits)
    return UnitaryTransform._from_trusted(
        mat, f"boolean:{n}", tuple(f"mask={k}" for k in range(1 << n))
    )


def haar_matrix(levels: int) -> UnitaryTransform:
    """Orthonormal Haar wavelet matrix on 2^levels points: the wreath basis
    of `levels` binary nodes.

    Column 0 (scale=0) is the scaling vector 2^{-L/2}; the wavelet at scale
    s (1 = coarsest) and position p has support [a, a + 2h) with
    a = p * 2^{L-s+1}, h = 2^{L-s}, value +2^{(s-L-1)/2} on the first half
    and the negative on the second.  Columns are ordered scale-major, then
    position, and labeled scale=s,pos=p.
    """
    _check_log2_degree(levels)
    return _wreath_transform(((2, "cyclic"),) * levels, f"dyadic-wreath:{levels}")


# ---------------------------------------------------------------------------
# integer transforms

_RM_LOWER = np.array([[1, 0], [1, 1]], dtype=np.int64)
_RM_UPPER = np.array([[1, 1], [0, 1]], dtype=np.int64)
_ARITH = np.array([[1, 0], [-1, 1]], dtype=np.int64)


def rm_matrix(n: int) -> IntTransform:
    """Reed-Muller triangle R_n = R_1^{tensor n}: entry (S, T) = [T subset S].
    Self-inverse mod 2."""
    _check_log2_degree(n)
    return IntTransform(_kron_all([_RM_LOWER] * n), 2, f"reed-muller:{n}")


def fp_rm_matrix(polarity) -> IntTransform:
    """Fixed-polarity Reed-Muller matrix: variable l (bit n-1-l of the index)
    uses the lower-triangular factor when polarity[l] = 0 and the
    upper-triangular one when polarity[l] = 1.  Self-inverse mod 2."""
    bits = tuple(int(b) for b in polarity)
    if not bits or any(b not in (0, 1) for b in bits):
        raise InputError("polarity must be a nonempty 0/1 sequence")
    _check_log2_degree(len(bits))
    out = _kron_all([_RM_UPPER if b else _RM_LOWER for b in bits])
    name = "fixed-polarity-rm:" + "".join(str(b) for b in bits)
    return IntTransform(out, 2, name)


def arithmetic_matrix(n: int) -> IntTransform:
    """Arithmetic-transform kernel A_n = A_1^{tensor n}; A_n R_n = I over Z."""
    _check_log2_degree(n)
    return IntTransform(_kron_all([_ARITH] * n), None, f"arithmetic:{n}")


def anf_coefficients(truth_table, polarity=None) -> np.ndarray:
    """Mod-2 coefficient vector of a Boolean function's polynomial form.

    Equals fp_rm_matrix(polarity).matrix @ truth_table mod 2, evaluated by
    the per-variable two-point recurrence so large n stays feasible.
    polarity defaults to all zeros (positive-polarity form).
    """
    f = np.asarray(truth_table)
    if f.ndim != 1 or f.size < 2 or (f.size & (f.size - 1)):
        raise InputError("truth table length must be a power of two, >= 2")
    n = f.size.bit_length() - 1
    bits = (0,) * n if polarity is None else tuple(int(b) for b in polarity)
    if len(bits) != n or any(b not in (0, 1) for b in bits):
        raise InputError(f"polarity must be {n} bits of 0/1")
    t = (f.astype(np.int64) % 2).reshape((2,) * n)
    for axis, b in enumerate(bits):
        lo = np.take(t, 0, axis=axis)
        hi = np.take(t, 1, axis=axis)
        mixed = (lo + hi) % 2
        if b == 0:
            t = np.stack([lo, mixed], axis=axis)
        else:
            t = np.stack([mixed, hi], axis=axis)
    return t.reshape(-1)


def best_polarity(truth_table) -> tuple:
    """Exhaustive fixed-polarity search minimizing coefficient weight.

    Returns (polarity bits, coefficients, weight); ties go to the smallest
    polarity read as an integer (bits left to right = binary expansion).
    """
    f = np.asarray(truth_table)
    if f.ndim != 1 or f.size < 2 or (f.size & (f.size - 1)):
        raise InputError("truth table length must be a power of two, >= 2")
    n = f.size.bit_length() - 1
    best = None
    for v in range(1 << n):
        bits = tuple((v >> (n - 1 - l)) & 1 for l in range(n))
        coeffs = anf_coefficients(f, bits)
        weight = int(coeffs.sum())
        if best is None or weight < best[2]:
            best = (bits, coeffs, weight)
    return best


# ---------------------------------------------------------------------------
# composition and structured constructions

def compose_direct(u: UnitaryTransform, v: UnitaryTransform) -> UnitaryTransform:
    """Kronecker product transform for the direct-product action on a grid."""
    _check_degree(u.degree * v.degree)
    mat = np.kron(u.matrix, v.matrix)
    labels = tuple(
        f"{a}*{b}" for a in u.column_labels for b in v.column_labels
    )
    return UnitaryTransform._from_trusted(mat, f"product:({u.group_name},{v.group_name})", labels)


def even_extension_isometry(m: int) -> np.ndarray:
    """2m x m isometry S with columns (e_j + e_{2m-1-j}) / sqrt(2)."""
    _check_degree(2 * m, lo=2)
    s = np.zeros((2 * m, m), dtype=np.complex128)
    j = np.arange(m)
    s[j, j] = 1.0 / np.sqrt(2.0)
    s[2 * m - 1 - j, j] = 1.0 / np.sqrt(2.0)
    return s


def semidirect_dct_cascade(m: int) -> UnitaryTransform:
    """Two-stage real basis on 2m points: DFT over the 2m-cycle, then the
    2x2 Hadamard inside each conjugate-frequency pair, giving cosine/sine
    columns (sine columns are phase-normalized to be real).  Restricting the
    cosine block to the even-extension subspace reproduces the DCT-II
    columns up to per-column sign.  Column order: dc, cos/sin per frequency,
    then the alternating Nyquist column.
    """
    _check_degree(2 * m, lo=4)
    # the 2x2 Hadamard on the conjugate pair (F_k, F_{2m-k}) gives
    # sqrt(2) Re F_k and sqrt(2) Im F_k.  F's float view interleaves Re and
    # Im, so its first 2m + 1 columns less Im F_0 = 0 are the columns in
    # order; F is freed before _from_trusted makes the real copy complex
    mat = np.delete(_fourier(2 * m).view(np.float64)[:, : 2 * m + 1], 1, axis=1)
    mat[:, 1:-1] *= np.sqrt(2.0)
    labels = ["dc"] + [f"{part}={k}" for k in range(1, m) for part in ("cos", "sin")]
    return UnitaryTransform._from_trusted(mat, f"dihedral:{m}", tuple(labels + ["nyquist"]))


def wreath_matrix(branching) -> UnitaryTransform:
    """Matched basis for a root-first wreath branching (same list layout as
    make_wreath).

    Built by recursion on the tree: the inner transform is applied in every
    child block, and the node's base transform (DFT for cyclic nodes of
    width K > 2, the real Helmert difference basis for symmetric and binary
    nodes) mixes the K block-constant directions.  Columns come out
    scale-major: scale 0 is the global constant, scale 1 the root's
    non-trivial block mixes, scale s+1 the per-block copies of inner
    scale-s columns, blocks left to right.
    """
    branching = _normalize_branching(branching)
    degree = 1
    for k, _ in branching:
        degree *= k
    _check_degree(degree)
    return _wreath_transform(branching, _branching_name(branching))


def _wreath_transform(branching, name: str) -> UnitaryTransform:
    """The wreath recursion's basis with columns labeled scale=s,pos=p."""
    mat, scales = _branching_basis(branching)
    counters: dict = {}
    labels = []
    for s in scales:
        idx = counters.get(s, 0)
        counters[s] = idx + 1
        labels.append(f"scale={s},pos={idx}")
    return UnitaryTransform._from_trusted(mat, name, tuple(labels))


def _node_base(k: int, kind: str) -> np.ndarray:
    # Z_2 = S_2: a binary node of either kind takes the real Helmert base
    if kind == "cyclic" and k > 2:
        return _fourier(k)
    base = np.zeros((k, k), dtype=np.complex128)
    base[:, 0] = 1.0 / np.sqrt(k)
    for col in range(1, k):
        base[:col, col] = 1.0
        base[col, col] = -col
        base[:, col] /= np.sqrt(col * (col + 1))
    return base


def _branching_basis(branching) -> tuple:
    """A root-first branching's basis and each column's scale: the root's
    node base is the block action's basis, the rest of the tree the block
    stabilizer's, and inner scale s becomes scale s + 1."""
    k, kind = branching[0]
    base = _node_base(k, kind)
    scales = [0] + [1] * (k - 1)
    if len(branching) == 1:
        return base, scales
    inner, inner_scales = _branching_basis(branching[1:])
    inner_scales = np.array(inner_scales)
    groups = [np.flatnonzero(inner_scales == s) for s in range(1, inner_scales.max() + 1)]
    for s, members in enumerate(groups, start=1):
        scales += [s + 1] * (k * members.size)
    points = np.arange(k * inner.shape[0]).reshape(k, -1)
    return _wreath_recurse(base, inner, groups, points), scales


def _wreath_recurse(top: np.ndarray, inner: np.ndarray, groups: list,
                    points: np.ndarray) -> np.ndarray:
    """The wreath rule's basis on b blocks of w points.

    top (b x b) is the block action's basis and inner (w x w) the block
    stabilizer's, its constant column first; groups are runs of inner's
    other columns.  points[a, p] is the point that local point p of block a
    names.  The block-constant columns top (x) inner[:, 0] come first, then,
    group by group, the copies of the group's columns in block 0, 1, ...
    The entries are written a block at a time.
    """
    b, w = points.shape
    out = np.zeros((b * w, b * w), dtype=np.complex128)
    for a, rows in enumerate(points):
        out[rows, :b] = top[a] * inner[:, :1]  # rows of top (x) inner[:, 0]
    col = b
    for members in groups:
        n = members.size
        copy = inner[:, members]
        for a, rows in enumerate(points):
            out[rows, col + a * n : col + (a + 1) * n] = copy
        col += b * n
    return out


# ---------------------------------------------------------------------------
# matched-basis synthesis

@dataclass(frozen=True)
class SynthesizedBasis:
    """A matched basis: the characters of an affine action grouped by
    orbit, the wreath rule's composition of its two factors' bases, or a
    basis recovered from seeded invariant samples.

    degeneracy_pattern lists eigenspace sizes sorted ascending;
    data_dependent marks the trivial-action fallback (plain KLT of the
    sample, no seed-independence guarantee).  certificate is the accepted
    ratio ||R2 U - U diag(U* R2 U)||_F / ||R2||_F and attempts the number of
    sample pairs drawn to reach it.  The trivial action's KLT and the
    semidirect route draw no sample (None and 0); the semidirect route is
    proved by exact integer checks instead.  The wreath route's split is
    proved by exact integer checks too; it reports the largest certificate
    and the total attempts of the factors that were sampled, None and 0
    when none was.  `mtf synthesize` prints both in its text and JSON
    reports alike.
    """

    transform: UnitaryTransform
    degeneracy_pattern: tuple
    data_dependent: bool
    certificate: float | None
    attempts: int


def _derived_seed(seed: int, index: int) -> int:
    # deterministic sub-seed: the (index+1)-th splitmix64 output of seed
    return int(_splitmix64(seed, index + 1)[-1])


def _draw(orbits, seed: int, paired: bool) -> tuple:
    """Generic invariant Hermitian R = h[orbit_id] as float64 (Re R, Im R),
    h_o = (z_o + conj z_{o^T}) / 2 with z_o the rng module's per-orbit normal.
    Im R is kept only for a paired action; a self-paired one has h real."""
    count, ids, t = orbits.orbit_count, orbits.orbit_id, orbits.transpose
    lanes = int(np.ceil(np.sqrt(count)))
    x = normal_rows(seed, lanes, 2 * lanes).ravel()[: 2 * count]
    re, im = x[0::2], x[1::2]
    return ((re + re[t]) / 2)[ids], (((im - im[t]) / 2)[ids] if paired else None)


def _gap_cut(values: np.ndarray, count: int) -> np.ndarray:
    """Sizes of the min(count, len) runs that the widest gaps cut an
    ascending list into."""
    m = values.size
    widest = np.argsort(np.diff(values), kind="stable")[m - min(count, m) :]
    return np.diff(np.concatenate(([0], np.sort(widest) + 1, [m])))


def _conjugate_blocks(values: np.ndarray, v: np.ndarray, imag: np.ndarray,
                      sizes: np.ndarray) -> list:
    """Resolve each cluster of Re R1 (a run of `sizes` columns of V) into
    eigenvectors of R1 = Re R1 + i Im R1.

    On a cluster's span, R1 is the d x d Hermitian block
    diag(values_c) + i V_c^T (Im R1) V_c.  Clusters of one size are solved by
    one stacked eigh.  Returns one (columns, eigenvalues, W) per size d > 1:
    columns is (blocks, d), W is (blocks, d, d) with U_c = V_c W_c.
    """
    starts = np.cumsum(sizes) - sizes
    bv = imag @ v
    blocks = []
    for d in np.flatnonzero(np.bincount(sizes)[2:]) + 2:
        cols = starts[sizes == d][:, None] + np.arange(d)
        k = v[:, cols].transpose(1, 2, 0) @ bv[:, cols].transpose(1, 0, 2)
        h = 0.5j * (k - k.transpose(0, 2, 1))
        h += values[cols][:, :, None] * np.eye(d)
        w_values, w = np.linalg.eigh(h)
        blocks.append((cols, w_values, w))
    return blocks


def _residual_sq(a: np.ndarray, b: np.ndarray) -> float:
    """sum_k ||b_k - d_k a_k||^2 over the rows, with d_k = conj(a_k) . b_k."""
    d = np.einsum("ij,ij->i", a.conj(), b)
    b = b - d[:, None] * a
    return float(np.vdot(b, b).real)


def _rotate_and_certify(values: np.ndarray, vt: np.ndarray, p: np.ndarray, q,
                        blocks: list) -> tuple:
    """R1's eigenvalues in ascending order, the rows of U^T = diag(W_c^T) V^T
    in the same order, and the one-sided residual ||R2 U - U diag(U* R2 U)||_F.

    p + i q holds the rows of (R2 V)^T; q is None when Im R2 is dropped, and
    then there are no blocks and U = V.  Cluster c's rows of V^T and of
    (R2 V)^T are rotated by W_c^T, a chunk of same-size clusters at a time;
    the other rows are eigenvectors of R1 already.  For a unitary U the
    residual equals ||offdiag(U* R2 U)||_F, and it needs only R2 V.
    """
    m = values.size
    rows = max(1, m // 16)  # a chunk's temporaries stay near one real M x M
    if q is None:
        residual = sum(_residual_sq(vt[at : at + rows], p[at : at + rows])
                       for at in range(0, m, rows))
        return values, vt, np.sqrt(residual)
    values = values.copy()
    single = np.ones(m, dtype=bool)
    for cols, w_values, _ in blocks:
        values[cols] = w_values
        single[cols] = False
    order = np.argsort(values, kind="stable")
    where = np.empty_like(order)
    where[order] = np.arange(m)
    ut = np.empty((m, m), dtype=np.complex128)
    residual = 0.0
    for cols, _, w in blocks:
        step = max(1, rows // cols.shape[1])
        for at in range(0, cols.shape[0], step):
            idx = cols[at : at + step]
            wt = w[at : at + step].transpose(0, 2, 1)
            a = (wt @ vt[idx]).reshape(-1, m)
            b = (wt @ (p[idx] + 1j * q[idx])).reshape(-1, m)
            residual += _residual_sq(a, b)
            ut[where[idx.ravel()]] = a
    single = np.flatnonzero(single)
    for at in range(0, single.size, rows):
        idx = single[at : at + rows]
        residual += _residual_sq(vt[idx], p[idx] + 1j * q[idx])
        ut[where[idx]] = vt[idx]
    return values[order], ut, np.sqrt(residual)


def _norm(re: np.ndarray, im) -> float:
    """||re + i im||_F without forming the complex matrix."""
    return float(np.hypot(np.linalg.norm(re), 0.0 if im is None else np.linalg.norm(im)))


def _certified_eigenbasis(name: str, orbits, classes: int, seed: int, attempt: int):
    """One attempt of synthesize_matched: the certificate ratio, R1's
    ascending eigenvalues and the rows of U^T in that order, or None when U
    does not diagonalize R2 but the two samples commute.  Each sample is
    freed once used: R1 after its eigenvectors and conjugate blocks, R2
    after its products with them; a failed certificate draws the pair again
    from the same seeds for the commutator."""
    paired = classes < orbits.orbit_count
    seeds = (_derived_seed(seed, 2 * attempt), _derived_seed(seed, 2 * attempt + 1))
    re1, im1 = _draw(orbits, seeds[0], paired)
    eig = herm_eig(re1)
    del re1
    blocks = []
    if paired:
        blocks = _conjugate_blocks(eig.values, eig.vectors, im1, _gap_cut(eig.values, classes))
    del im1
    re2, im2 = _draw(orbits, seeds[1], paired)
    r2_norm = _norm(re2, im2)
    # (R2 V)^T = V^T R2^T = V^T (Re R2) - i V^T (Im R2)
    vt = eig.vectors.T
    p = vt @ re2
    del re2
    q = None
    if im2 is not None:
        q = vt @ im2
        del im2
        np.negative(q, out=q)
    values, ut, residual = _rotate_and_certify(eig.values, vt, p, q, blocks)
    ratio = float(residual / r2_norm)
    if ratio <= DIAGONAL_TOL:
        return ratio, values, ut
    del eig, vt, p, q, ut
    re1, im1 = _draw(orbits, seeds[0], paired)
    re2, im2 = _draw(orbits, seeds[1], paired)
    r1, r2 = (re1, re2) if im1 is None else (re1 + 1j * im1, re2 + 1j * im2)
    comm = float(np.linalg.norm(r1 @ r2 - r2 @ r1))
    if comm > COMMUTATOR_TOL * _norm(re1, im1) * r2_norm:
        raise NotMultiplicityFreeError(
            f"action {name} has a non-commutative commutant"
        )
    return None


def _cluster_labels(sizes) -> tuple:
    return tuple(f"cluster={c},col={i}" for c, size in enumerate(sizes) for i in range(size))


def _sampled(orbits, seed: int, name: str) -> tuple:
    """The sampled route: see synthesize_matched.  Returns (U, eigenspace
    sizes in column order, certificate, attempts, labels), labels a
    function that makes the column labels."""
    classes = orbits.transpose_class_count()
    for attempt in range(5):
        found = _certified_eigenbasis(name, orbits, classes, seed, attempt)
        if found is None:
            continue
        ratio, values, ut = found
        _check_unitary(ut.T)
        # orbit_count <= M here: the certificate means a multiplicity-free action
        sizes = _gap_cut(values, orbits.orbit_count)
        return ut.T, sizes, ratio, attempt + 1, lambda: _cluster_labels(sizes)
    raise DegenerateSampleError(
        f"could not certify a stable cluster structure for {name} after 5 samples"
    )


def _fold_conjugates(u: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> None:
    """Make a character table real in place, a block of rows at a time.

    cos and sin are the columns holding chi_k and chi_-k for the conjugate
    pairs, k the smaller: they become sqrt(2) Re chi_k and sqrt(2) Im chi_k
    (Im chi_k = -Im chi_-k), an orthonormal basis of the same span.  The
    other columns are self-conjugate characters, real up to the rounding
    of the roots of unity, and keep their real part."""
    m = u.shape[0]
    rows = max(1, (1 << 17) // m)
    for at in range(0, m, rows):
        block = u[at : at + rows]
        block.real[:, cos] *= np.sqrt(2.0)
        block.real[:, sin] = block.imag[:, sin] * -np.sqrt(2.0)
        block.imag = 0.0


def _semidirect(images: list, m: int):
    """The semidirect route, or None: the characters of A, grouped by the
    orbits of H (`_affine_coordinates`, `_character_orbits`), orbits in
    order of their smallest character and characters ascending within
    each, filled in that order; with H = 1 each character is its own
    orbit, in order.  When H != 1 and every orbit holds the conjugate -k
    of each of its characters k (the self-paired case), the basis is made
    real (`_fold_conjugates`): labels cos=(k) and sin=(k) for a pair,
    char=(k) for a self-conjugate character."""
    found = _affine_coordinates(images, m)
    if found is None:
        return None
    coords, d, linear = found
    chars = np.indices(d).reshape(len(d), m)
    kinds = np.zeros(m, dtype=np.int64)  # per column: 0 char, 1 cos, 2 sin
    if not linear:
        order = number = np.arange(m)
    else:
        smallest = _character_orbits(d, linear)
        order = np.argsort(smallest, kind="stable")
        number = (np.cumsum(smallest == np.arange(m)) - 1)[smallest]
        conjugate = np.ravel_multi_index(tuple(-chars % np.array(d)[:, None]), d)
        if np.array_equal(smallest[conjugate], smallest):
            kinds = np.sign(conjugate[order] - order) % 3  # +1 cos, -1 -> 2 sin
    u = _characters(coords, d, order)
    if kinds.any():
        _fold_conjugates(u, np.flatnonzero(kinds == 1), np.flatnonzero(kinds == 2))

    def labels():
        names, first = ("char", "cos", "sin"), chars.T.tolist()
        pair = np.where(kinds == 2, conjugate[order], order) if kinds.any() else order
        return tuple(f"{names[t]}=({','.join(map(str, first[k]))}),orbit={o}"
                     for t, k, o in zip(kinds.tolist(), pair.tolist(), number[order].tolist()))

    return u, np.bincount(number), None, 0, labels


def _compose(k_route: tuple, h_route: tuple, points: np.ndarray) -> tuple:
    """The wreath rule's basis from the block action K's and the block
    stabilizer H's routes (`_wreath_recurse`).  The eigenspaces are K's,
    then b copies of each of H's but the constant one; the certificate is
    the largest of the factors' and the attempts their sum."""
    b, _ = points.shape
    top, top_sizes, top_ratio, top_attempts, _ = k_route
    inner, inner_sizes, inner_ratio, inner_attempts, _ = h_route
    # the constant vector is the one column of H's basis off every other;
    # it goes first, then H's other eigenspaces in order
    const = int(np.argmax(np.abs(inner.sum(axis=0))))
    ends = np.cumsum(inner_sizes)
    others = [np.arange(end - size, end) for size, end in zip(inner_sizes, ends)
              if not end - size <= const < end]
    inner = inner[:, np.concatenate([[const]] + others)]
    starts = 1 + np.cumsum([0] + [g.size for g in others])
    groups = [np.arange(at, at + g.size) for at, g in zip(starts, others)]
    u = _wreath_recurse(top, inner, groups, points)
    sizes = np.concatenate([top_sizes, [b * g.size for g in groups]]).astype(np.int64)
    ratios = [r for r in (top_ratio, inner_ratio) if r is not None]
    return (u, sizes, max(ratios, default=None), top_attempts + inner_attempts,
            lambda: _cluster_labels(sizes))


def _wreath(images: list, m: int, seed: int, name: str, orbits=None, tried=None):
    """The wreath route as (rank, build), build() giving the basis, or
    None.  `_wreath_splits` gives the block systems to try (with no pair
    partition, the first minimal one; with the partition orbits, up to
    _BLOCK_CANDIDATES of them) and the rank bounds (Schreier bounds, or
    orbits' orbit_count).  Each factor takes its route (`_factor_route`),
    which gives its rank, and rank(H) + rank(K) - 1 must equal a bound;
    only then is a held factor routed, by build().  tried, when given,
    keeps the factor routes of a split the Schreier bounds did not prove,
    by its points, for the attempt on the partition to take up again."""
    for points, k_images, h_images, counts in _wreath_splits(images, m, orbits):
        (b, w), key = points.shape, points.tobytes()
        routes = tried.pop(key, None) if tried else None
        top, inner = routes or (_factor_route(k_images, b, seed, name),
                                _factor_route(h_images, w, seed, name))
        rank = top[0] + inner[0] - 1
        if rank in counts:
            return rank, lambda: _compose(top[1](), inner[1](), points)
        if tried is not None and orbits is None:
            tried[key] = top, inner
    return None


def _factor_route(images: list, m: int, seed: int, name: str) -> tuple:
    """A wreath factor's route as (rank, build): a further wreath split
    first, as the factors of an iterated wreath are wreaths themselves,
    then the semidirect route; otherwise the factor is held as its own
    pair partition, whose orbit count is its rank, and routed on it
    (`_partitioned`) only when build() is called."""
    tried = {}
    found = _wreath(images, m, seed, name, tried=tried)
    if found is not None:
        return found
    found = _semidirect(images, m)
    if found is not None:
        return found[1].size, lambda: found
    action = GroupAction(name, m, tuple(Permutation._from_trusted(g) for g in images))
    partition = pair_orbits(action)
    return partition.orbit_count, lambda: _partitioned(images, m, lambda: partition, seed, name,
                                                       tried)


def _partitioned(images: list, m: int, orbits, seed: int, name: str, tried: dict) -> tuple:
    """The routes once no exact one applies: the wreath route on the pair
    partition orbits() gives, else the sampled route on it.  The partition
    is dropped once a split is proved, before the M x M basis is built."""
    partition = orbits()
    found = _wreath(images, m, seed, name, partition, tried)
    tried.clear()  # a split the partition did not give again is dropped too
    if found is None:
        return _sampled(partition, seed, name)
    del partition
    return found[1]()


def _synthesized(name: str, found: tuple) -> SynthesizedBasis:
    # every route's basis is unitary by construction or Gram-checked where
    # it was sampled, a factor at a time
    u, sizes, certificate, attempts, labels = found
    return SynthesizedBasis(UnitaryTransform._from_trusted(u, name, labels()),
                            tuple(sorted(sizes.tolist())), False, certificate, attempts)


def synthesize_matched(action: GroupAction, seed: int) -> SynthesizedBasis:
    """The matched basis of a multiplicity-free action: a U that diagonalizes
    every invariant matrix.  Four routes, tried in this order: the trivial
    action's KLT, the semidirect route, which builds U with no sample and
    no eigensolve, the wreath route, which samples only the factors that
    need it, and the sampled route.

    The trivial action has no fixed basis: the KLT of random_psd(M, seed) is
    returned flagged data_dependent.

    The semidirect route takes an affine action A x| H on any numbering of
    the points: A regular abelian with coordinates c in
    Z_d1 + ... + Z_dn, and every generator g acting as
    c(g(p)) = L_g c(p) + c(g(0)) mod d (`_affine_coordinates`).  Its
    commutant is the H-invariant convolutions on A, so every such action is
    multiplicity-free, and its eigenspaces are the spans of the H-orbits on
    A's characters (`_character_orbits`).  U is the character table
    (`_characters`, the one dft_matrix and wht_matrix are built from) with
    its columns grouped by orbit, labels char=(k1,...),orbit=o, and the
    pattern is the orbit sizes.  H = 1 is the regular abelian case (cyclic,
    boolean, products of cyclic groups): cyclic:m gives dft_matrix(m)
    byte for byte.  When every orbit holds the conjugate of each of its
    characters, as for every self-paired action (dihedral, AGL(1, p)), U is
    real: each pair chi_k, chi_-k becomes sqrt(2) Re chi_k and
    sqrt(2) Im chi_k, labels cos=(k),orbit=o and sin=(k),orbit=o
    (`_fold_conjugates`).  A is proposed from the generators and their
    products in pairs; the proof is not a sample but exact integer checks,
    and an action that fails them costs O(kM) integer work.

    The wreath route takes an imprimitive action whose orbitals are those
    of H wr K, with K its action on a block system and H the block
    stabilizer's action on one block (`_wreath`).  A block system is the
    minimal one holding point 0 and a point x of a small orbit of the
    stabilizer of 0 (`_wreath_splits`).  By the Krasner-Kaloujnine
    embedding the rank of the action is at least rank(H) + rank(K) - 1,
    and a rank bound equal to that proves the orbitals those of H wr K.
    First the bounds are the orbit counts of subgroups of the stabilizer
    of 0, generated by Schreier generators (`_rank_bounds`), and only the
    first proper block is tried; no pair partition of the action is
    computed.  Once no exact route applies, the bound is the orbit count
    of the action's pair partition, computed anyway for sampling, and x is
    taken from the smallest orbits of its row 0, up to _BLOCK_CANDIDATES
    of them.  Each factor takes an exact route if one applies (a further
    wreath split, then the semidirect route), which gives its rank, or is
    held as its own pair partition, whose orbit count is its rank
    (`_factor_route`); a held factor is routed on that partition, and
    sampled if nothing proves it, only once the split is proved.  U
    composes the factors' bases with `_wreath_recurse`, as wreath_matrix
    does; labels are cluster=c,col=i with c numbering the eigenspaces in
    column order.

    Otherwise U is the eigenbasis of a generic invariant matrix R1,
    certified data-independent against a second one, R2 (`_sampled`).
    Each draw takes one seeded coefficient per pair orbit (`_draw`), on a
    partition computed once per call and shared with the wreath route on
    it.  U is found in real arithmetic.
    Permutations are real, so Re R1 is invariant too, and the real
    symmetric invariant matrices form a commutative algebra whose dimension
    s is the number of classes {o, o^T} of pair orbits.  The real eigensolve
    of Re R1 (V) has s eigenspaces; each is an eigenspace of R1 or the sum
    of one and its conjugate.  When every orbit is its own transpose
    (s == orbit_count, the self-paired case) both draws are real and U = V.
    Otherwise Re R1's
    spectrum is cut into s clusters at its s - 1 widest gaps, each cluster
    of size d > 1 is resolved by a d x d Hermitian block
    (`_conjugate_blocks`), and the columns are sorted by R1's eigenvalue.
    R2 is drawn once R1's blocks are built.  U is accepted when the
    one-sided residual ||R2 U - U diag(U* R2 U)||_F, which equals
    ||offdiag(U* R2 U)||_F for a unitary U, is <= DIAGONAL_TOL ||R2||_F
    (`_rotate_and_certify`); that ratio is reported as the certificate.  If
    not, the commutator decides: ||R1 R2 - R2 R1||_F > COMMUTATOR_TOL
    ||R1||_F ||R2||_F means the commutant is not commutative
    (NotMultiplicityFreeError); otherwise R1's spectrum merged eigenvalues
    by accident and a fresh pair is drawn, at most 5 attempts.  An accepted
    U's columns are split into exactly orbit_count clusters (the
    commutant's dimension) at the widest gaps of R1's spectrum; they give
    the labels cluster=c,col=i and degeneracy_pattern.
    """
    if all(g.is_identity() for g in action.generators):
        eig = herm_eig(random_psd(action.degree, seed))
        transform = UnitaryTransform(
            eig.vectors, action.name,
            tuple(f"klt={k}" for k in range(action.degree)),
        )
        return SynthesizedBasis(transform, (1,) * action.degree, True, None, 0)
    images, m = [g.as_array() for g in action.generators], action.degree
    found, tried = _semidirect(images, m), {}
    if found is None:
        wreath = _wreath(images, m, seed, action.name, tried=tried)
        found = (_partitioned(images, m, lambda: pair_orbits(action), seed, action.name, tried)
                 if wreath is None else wreath[1]())
    return _synthesized(action.name, found)

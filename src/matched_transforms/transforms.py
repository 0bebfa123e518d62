"""Orthogonal/unitary transform kernels tied to index symmetries.

Each builder returns the dense matrix matched to one family of invariant
covariances, built from one base matrix per node kind (Fourier for cyclic
nodes, real Helmert for symmetric and binary ones) and the composition
rules, one function each: haar_matrix and wreath_matrix fold the wreath
rule (`_compose`) over their trees, Haar's nodes all binary, and the
cosine cascade is the semidirect rule applied to the DFT.  The DFT and
Walsh-Hadamard kernels are the character tables of Z_m and (Z_2)^n, read
from one table of roots of unity.  Integer counterparts (Reed-Muller
triangle, fixed-polarity variants, the arithmetic-transform inverse pair)
are Kronecker powers of 2x2 blocks.  The matched-basis synthesizer
applies the same rules to an action given only by its generators: the
character table grouped by orbits for an affine action (the semidirect
rule, real for a self-paired one), the wreath composition of two
factors' bases for an imprimitive one, and otherwise the eigenspaces of
the orbital algebra, read from its integer intersection numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import (
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
    make_dihedral,
    pair_orbits,
)
from .numkernel import as_cmatrix, herm_eig, random_psd
from .rng import normal_rows

UNITARITY_TOL = 1e-10
DIAGONAL_TOL = 1e-8  # the orbital route's largest trace(E_j - U_j U_j*) / m_j
MULTIPLICITY_TOL = 1e-6  # distance of an eigenspace's computed dimension from an integer


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


_POLARITY_BITS = {0: 0, 1: 1, "0": 0, "1": 1}


def _polarity_bits(polarity) -> tuple:
    """A polarity as a tuple of 0/1 ints.  Each entry must equal 0 or 1 or
    be the character '0' or '1', so (1, 0, 1) and "101" are both taken."""
    try:
        return tuple(_POLARITY_BITS[b] for b in polarity)
    except (KeyError, TypeError):  # 0.5 or "x" is no key, a list entry no key at all
        raise InputError(f"polarity entries must be 0/1 or '0'/'1', got {polarity!r}") from None


def fp_rm_matrix(polarity) -> IntTransform:
    """Fixed-polarity Reed-Muller matrix: variable l (bit n-1-l of the index)
    uses the lower-triangular factor when polarity[l] = 0 and the
    upper-triangular one when polarity[l] = 1.  Self-inverse mod 2."""
    bits = _polarity_bits(polarity)
    if not bits:
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
    bits = (0,) * n if polarity is None else _polarity_bits(polarity)
    if len(bits) != n:
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
    """Real basis on 2m points: the semidirect route's basis of the
    dihedral action on the 2m-cycle, the DFT with each conjugate-frequency
    pair (F_k, F_{2m-k}) turned into the cosine/sine columns sqrt(2) Re F_k
    and sqrt(2) Im F_k.  Restricting the cosine block to the even-extension
    subspace reproduces the DCT-II columns up to per-column sign.  Column
    order: dc, cos/sin per frequency, then the alternating Nyquist column.
    """
    _check_degree(2 * m, lo=4)
    u = _semidirect([g.as_array() for g in make_dihedral(m).generators], 2 * m)[0]
    labels = ["dc"] + [f"{part}={k}" for k in range(1, m) for part in ("cos", "sin")]
    return UnitaryTransform._from_trusted(u, f"dihedral:{m}", tuple(labels + ["nyquist"]))


def wreath_matrix(branching) -> UnitaryTransform:
    """Matched basis for a root-first wreath branching (same list layout as
    make_wreath).

    The wreath rule (`_compose`) folded over the tree, leaf level first:
    each node's base transform (DFT for cyclic nodes of width K > 2, the
    real Helmert difference basis for symmetric and binary nodes) mixes
    its K blocks' constant directions, and the subtree's basis is copied
    into every block.  Columns come out scale-major: scale 0 is the global
    constant, scale 1 the root's non-trivial block mixes, scale s+1 the
    per-block copies of inner scale-s columns, blocks left to right.
    """
    branching, _ = _normalize_branching(branching)
    return _wreath_transform(branching, _branching_name(branching))


def _wreath_transform(branching, name: str) -> UnitaryTransform:
    """The tree's basis with columns labeled scale=s,pos=p.  A node of
    width k is the route of its base with eigenspaces [1, k - 1], and
    scale s is the composed basis's eigenspace s."""
    def node(k, kind):
        return _node_base(k, kind), np.array([1, k - 1]), None, None

    u, sizes, _, _ = node(*branching[-1])
    for k, kind in reversed(branching[:-1]):
        points = np.arange(k * u.shape[0]).reshape(k, -1)
        u, sizes, _, _ = _compose(node(k, kind), (u, sizes, None, None), points)
    labels = tuple(f"scale={s},pos={p}" for s, n in enumerate(sizes.tolist()) for p in range(n))
    return UnitaryTransform._from_trusted(u, name, labels)


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


# ---------------------------------------------------------------------------
# matched-basis synthesis

@dataclass(frozen=True)
class SynthesizedBasis:
    """A matched basis: the characters of an affine action grouped by
    orbit, the wreath rule's composition of its two factors' bases, or the
    eigenspaces of the orbital algebra.

    degeneracy_pattern lists eigenspace sizes sorted ascending;
    data_dependent marks the trivial-action fallback (plain KLT of the
    sample, no seed-independence guarantee).  certificate is the orbital
    route's largest trace(E_j - U_j U_j*) / m_j over the eigenspaces it
    factors, E_j the primitive idempotent of rank m_j and U_j its columns:
    the residual is PSD, so its norm is at most its trace.  The trivial
    action's KLT and the semidirect route, proved by exact integer checks,
    report None.  The wreath route's split is proved by exact integer checks too;
    it reports the largest certificate of its factors, None when every
    factor took an exact route.  `mtf synthesize` prints it in its text and
    JSON reports alike.
    """

    transform: UnitaryTransform
    degeneracy_pattern: tuple
    data_dependent: bool
    certificate: float | None


def _orbital_algebra(orbits, name: str) -> tuple:
    """The orbital route's r x r work (see synthesize_matched): the
    coefficients e[j, i] of the primitive idempotents E_j = sum_i e[j, i] A_i,
    real when they all are, and E_j's multiplicity m_j, in order of m_j."""
    ids, r, m, t = orbits.orbit_id, orbits.orbit_count, orbits.degree, orbits.transpose
    first = ids[0].astype(np.intp)  # the orbital of (0, z)
    valency = np.bincount(first, minlength=r)
    if not valency.all():
        raise NotMultiplicityFreeError(f"action {name} is intransitive")
    # c_{i^T} = conj c_i makes the scaled regular representation Hermitian
    lanes = int(np.ceil(np.sqrt(r)))
    x = normal_rows(0, lanes, 2 * lanes).ravel()[: 2 * r]
    re, im = x[0::2], x[1::2]
    weight = ((re + re[t]) / 2 + 0.5j * (im - im[t]))[first]
    y = np.empty(r, dtype=np.intp)
    y[first[::-1]] = np.arange(m - 1, -1, -1)  # (0, y_k) lies in orbital k
    lhs = np.empty((r, r), dtype=np.complex128)
    step = max(1, (1 << 20) // m)
    for at in range(0, r, step):
        cols = ids[:, y[at : at + step]]  # the orbital of (z, y_k)
        # p_ij^k counts the z with (first[z], cols[z, k]) = (i, j)
        if not np.array_equal(np.sort(first[:, None] * r + cols, axis=0),
                              np.sort(cols * r + first[:, None], axis=0)):
            raise NotMultiplicityFreeError(f"action {name} has a non-commutative commutant")
        # (sum_i c_i L_i)[k, j] = sum_i c_i p_ij^k
        flat = (cols + r * np.arange(cols.shape[1])).ravel()
        w = np.broadcast_to(weight[:, None], cols.shape).ravel()
        size = cols.shape[1] * r
        lhs[at : at + step] = (np.bincount(flat, w.real, size)
                               + 1j * np.bincount(flat, w.imag, size)).reshape(-1, r)
    root = np.sqrt(valency)
    v = herm_eig(lhs * root[:, None] / root).vectors
    mult = m * np.abs(v[0]) ** 2
    sizes = np.rint(mult).astype(np.int64)
    if not (np.max(np.abs(mult - sizes)) <= MULTIPLICITY_TOL and sizes.min() >= 1
            and sizes.sum() == m):
        raise NumericError(f"action {name}: the multiplicities are not integers summing to {m}")
    order = np.argsort(sizes, kind="stable")
    e = (v[:, order] * v[0, order].conj()).T / root
    e = (e + e[:, t].conj()) / 2  # each E_j Hermitian exactly, real when self-paired
    return (e if e.imag.any() else e.real), sizes[order]


def _cluster_labels(sizes) -> tuple:
    return tuple(f"cluster={c},col={i}" for c, size in enumerate(sizes) for i in range(size))


def _orbital(orbits, name: str) -> tuple:
    """The orbital route: see synthesize_matched.  Returns (U, eigenspace
    sizes in column order, certificate, labels), labels a function that
    makes the column labels."""
    e, sizes = _orbital_algebra(orbits, name)
    ids, m = orbits.orbit_id, orbits.degree
    # the largest eigenspace, last, as the others' complement when that is cheaper
    rest = m - sizes[-1] if m * (m - sizes[-1]) < sizes[-1] ** 2 else m
    u = np.empty((m, m), dtype=e.dtype)
    certificate, col = 0.0, 0
    for j, size in enumerate(sizes.tolist()):
        if col == rest:
            break
        coef, d = e[j].conj(), np.full(m, e[j, 0].real)  # the Schur diagonal, E_j's to start
        lt = np.empty((size, m), dtype=e.dtype)  # L^T: each new column of L a contiguous row
        for s in range(size):  # pivoted Cholesky, E_j = L L*
            p = int(np.argmax(d))
            if not d[p] > 0:
                raise NumericError(f"action {name}: eigenspace {j} has rank {s} < {size}")
            # E_j[:, p] = conj(E_j[p, :]), gathered from row p
            lt[s] = (coef[ids[p]] - lt[:s, p].conj() @ lt[:s]) / np.sqrt(d[p])
            d -= np.abs(lt[s]) ** 2
        certificate = max(certificate, float(np.abs(d).sum()) / size)
        u[:, col : col + size] = lt.T
        col += size
    if not certificate <= DIAGONAL_TOL:
        raise NumericError(f"action {name}: U misses the eigenspaces by {certificate:.3e}")
    if rest < m:
        # the Householder QR of the other columns gives Q = I - V T V*, T
        # from the reflectors' scales (compact WY, as LAPACK's larft): Q's
        # last columns, I - V T V[rest:]*, span the complement
        h, tau = np.linalg.qr(u[:, :rest], mode="raw")
        v = np.tril(h.T, -1)
        v[np.diag_indices(rest)] = 1.0
        g, t = v.conj().T @ v, np.zeros((rest, rest), dtype=u.dtype)
        for i in range(rest):
            t[:i, i] = -tau[i] * (t[:i, :i] @ g[:i, i])
            t[i, i] = tau[i]
        u[:, rest:] = -(v @ (t @ v[rest:].conj().T))
        u[rest:, rest:][np.diag_indices(m - rest)] += 1.0
    _check_unitary(u)
    return u, sizes, certificate, lambda: _cluster_labels(sizes)


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

    return u, np.bincount(number), None, labels


def _compose(k_route: tuple, h_route: tuple, points: np.ndarray) -> tuple:
    """The wreath rule's basis on b blocks of w points, from the block
    action K's and the block stabilizer H's routes; points[a, p] is the
    point that local point p of block a names.  The block-constant columns
    top (x) h come first, h H's constant column (the one column whose
    entries do not sum to 0, wherever H's route put it); then, for each of
    H's other eigenspaces in order, its copies in block 0, 1, ...  The
    entries are written a block at a time, each copy from a column slice.
    The eigenspaces are K's, then the b-fold copies; the certificate is the
    largest of the factors'."""
    b, w = points.shape
    top, top_sizes, top_ratio, _ = k_route
    inner, inner_sizes, inner_ratio, _ = h_route
    const = int(np.argmax(np.abs(inner.sum(axis=0))))
    u = np.zeros((b * w, b * w), dtype=np.complex128)
    for a, rows in enumerate(points):
        u[rows, :b] = top[a] * inner[:, const : const + 1]  # rows of top (x) h
    sizes, col = list(top_sizes), b
    for end, n in zip(np.cumsum(inner_sizes).tolist(), inner_sizes.tolist()):
        if end - n <= const < end:
            continue
        for a, rows in enumerate(points):
            u[rows, col + a * n : col + (a + 1) * n] = inner[:, end - n : end]
        sizes.append(b * n)
        col += b * n
    sizes = np.array(sizes, dtype=np.int64)
    ratios = [r for r in (top_ratio, inner_ratio) if r is not None]
    return u, sizes, max(ratios, default=None), lambda: _cluster_labels(sizes)


def _wreath(images: list, m: int, name: str, orbits=None, tried=None):
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
        top, inner = routes or (_factor_route(k_images, b, name),
                                _factor_route(h_images, w, name))
        rank = top[0] + inner[0] - 1
        if rank in counts:
            return rank, lambda: _compose(top[1](), inner[1](), points)
        if tried is not None and orbits is None:
            tried[key] = top, inner
    return None


def _factor_route(images: list, m: int, name: str) -> tuple:
    """A wreath factor's route as (rank, build): a further wreath split
    first, as the factors of an iterated wreath are wreaths themselves,
    then the semidirect route; otherwise the factor is held as its own
    pair partition, whose orbit count is its rank, and routed on it
    (`_partitioned`) only when build() is called."""
    tried = {}
    found = _wreath(images, m, name, tried=tried)
    if found is not None:
        return found
    found = _semidirect(images, m)
    if found is not None:
        return found[1].size, lambda: found
    action = GroupAction(name, m, tuple(Permutation._from_trusted(g) for g in images))
    partition = pair_orbits(action)
    return partition.orbit_count, lambda: _partitioned(images, m, partition, name, tried)


def _partitioned(images: list, m: int, partition, name: str, tried: dict) -> tuple:
    """The routes once the Schreier bounds prove nothing: the wreath route
    on the pair partition, else the orbital route on it.  Once a split is
    proved, the action's own partition is dropped before its M x M basis
    is built; a held factor's partition, w^2 labels, stays alive in
    `_factor_route`'s build closure until the parent's (bw)^2 basis is
    composed."""
    found = _wreath(images, m, name, partition, tried)
    tried.clear()  # a split the partition did not give again is dropped too
    if found is None:
        return _orbital(partition, name)
    del partition
    return found[1]()


def _synthesized(name: str, found: tuple) -> SynthesizedBasis:
    # every route's basis is unitary by construction or Gram-checked where
    # the orbital route built it, a factor at a time
    u, sizes, certificate, labels = found
    return SynthesizedBasis(UnitaryTransform._from_trusted(u, name, labels()),
                            tuple(sorted(sizes.tolist())), False, certificate)


def synthesize_matched(action: GroupAction, seed: int) -> SynthesizedBasis:
    """The matched basis of a multiplicity-free action: a U that diagonalizes
    every invariant matrix.  Four routes, tried in this order: the trivial
    action's KLT, the semidirect route, which builds U with no sample and
    no eigensolve, the wreath route, which eigensolves only the factors
    that need it, and the orbital route.  Only the KLT reads the seed.

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
    computed.  Once those bounds prove nothing, the bound is the orbit
    count of the action's pair partition, computed anyway for the orbital
    route, and x is taken from the smallest orbits of its row 0, up to
    _BLOCK_CANDIDATES of them.  Each factor takes a route with no pair
    partition if one applies (a further wreath split, then the semidirect
    route), which gives its rank, or is held as its own pair partition,
    whose orbit count is its rank (`_factor_route`); a held factor is
    routed on that partition, by the orbital route if no split proves it,
    only once the split is proved.  U composes the factors' bases with
    `_compose`, the rule haar_matrix and wreath_matrix fold over their
    trees; labels are cluster=c,col=i with c numbering the eigenspaces in
    column order.

    Otherwise the orbital route (`_orbital`) reads the action's pair
    partition, computed once per call and shared with the wreath route on
    it.  The orbitals O_0 (the diagonal) ... O_{r-1} span the commutant,
    with A_i A_j = sum_k p_ij^k A_k for their indicator matrices A_i.  The
    intersection numbers p_ij^k = #{z : (0, z) in O_i, (z, y_k) in O_j},
    (0, y_k) in O_k, are integers read from row 0 and one column per
    orbital (`_orbital_algebra`).  The action is multiplicity-free exactly
    when every orbital meets row 0 (it is transitive) and p_ij^k = p_ji^k
    for all i, j and k (its commutant is commutative); otherwise
    NotMultiplicityFreeError is raised, before any M x M floating work.
    Scaled by diag(sqrt(k_i)), k_i = |O_i in row 0|, the left products
    (L_i)_kj = p_ij^k are normal and L_i* = L_(i^T).  One r x r Hermitian
    eigensolve of a fixed combination sum_i c_i L_i (c from
    normal_rows(0, ...) with c_(i^T) = conj c_i, so independent of the
    seed) gives unit vectors v_j, v_j(i) = conj(P_j(i)) v_j(0) / sqrt(k_i),
    P_j(i) the eigenvalue of A_i on the eigenspace E_j.  The multiplicities
    m_j = M |v_j(0)|^2 = M / sum_i |P_j(i)|^2 / k_i must be within
    MULTIPLICITY_TOL of integers that sum to M, else NumericError; they are
    the pattern.  The projection onto E_j is the primitive idempotent
    E_j = sum_i e_j(i) A_i, e_j(i) = v_j(i) conj(v_j(0)) / sqrt(k_i),
    averaged with its adjoint so that E_j is Hermitian exactly and real
    exactly when the action is self-paired (Bannai & Ito 1984, section 2.3).
    No M x M eigensolve runs: U holds each E_j's pivoted Cholesky factor,
    E_j = L L* with exactly m_j pivots (Higham 1990), whose columns are
    orthonormal as E_j is a projection.  Each pivot column is gathered
    from one row of the pair partition, E_j[:, p] = conj(e_j(orbit_id[p])),
    so E_j costs O(M m_j^2).  The eigenspaces come in order of size, and
    the largest, last, is instead the orthogonal complement of the others
    by one Householder QR when M (M - m_max) < m_max^2.  So U is real for
    a self-paired action (boolean, dyadic-wreath, dihedral, J(n, 2)).  U
    passes the Gram check, and certificate, the largest sum of a
    factorization's final Schur diagonal (the trace of E_j - L L*, in
    magnitude) over m_j, must be <= DIAGONAL_TOL, else NumericError.  The
    columns are labelled cluster=c,col=i with c numbering the eigenspaces
    in column order.
    """
    if all(g.is_identity() for g in action.generators):
        # random_psd is Hermitian bit for bit: no check or symmetrized copy
        _, vectors = np.linalg.eigh(random_psd(action.degree, seed))
        transform = UnitaryTransform(
            vectors, action.name,
            tuple(f"klt={k}" for k in range(action.degree)),
        )
        return SynthesizedBasis(transform, (1,) * action.degree, True, None)
    images, m = [g.as_array() for g in action.generators], action.degree
    found, tried = _semidirect(images, m), {}
    if found is None:
        wreath = _wreath(images, m, action.name, tried=tried)
        found = (_partitioned(images, m, pair_orbits(action), action.name, tried)
                 if wreath is None else wreath[1]())
    return _synthesized(action.name, found)

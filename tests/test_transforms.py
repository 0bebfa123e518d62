import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matched_transforms import (
    DimensionError,
    InputError,
    NotMultiplicityFreeError,
    NumericError,
    Permutation,
    anf_coefficients,
    arithmetic_matrix,
    best_polarity,
    compose_direct,
    dct2_matrix,
    dft_matrix,
    discover_sequential,
    even_extension_isometry,
    fp_rm_matrix,
    from_generators,
    haar_matrix,
    hartley_matrix,
    make_boolean,
    make_cyclic,
    make_dihedral,
    make_dyadic_wreath,
    make_product,
    make_trivial,
    make_wreath,
    normal_rows,
    pair_orbits,
    parse_group_spec,
    random_psd,
    residual_delta,
    reynolds_project,
    rm_matrix,
    sample_invariant_cov,
    semidirect_dct_cascade,
    subspace_match,
    synthesize_matched,
    wht_matrix,
    wreath_matrix,
)
from matched_transforms import groups, transforms
from matched_transforms.transforms import IntTransform, UnitaryTransform

from helpers import (
    affine_line,
    catalog_actions,
    closure_set,
    compose,
    det_exact,
    hamming_action,
    hybrid_generators,
    images_of,
    is_invariant,
    johnson_action,
    orbital_basis,
    orbitals_commute,
    pair_orbit_labels,
    random_action,
    reader_of,
    relabel,
    sampled_basis,
    traced_peak,
)


def unitarity_error(u):
    m = u.matrix
    return np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0])))


def haar_closed_form(levels):
    """Haar matrix from haar_matrix's docstring, independent of the wreath
    recursion: column 0 is 2^{-L/2}, and the wavelet at scale s, position p
    is +2^{(s-L-1)/2} on [a, a + h) and the negative on [a + h, a + 2h),
    with h = 2^{L-s} and a = 2ph."""
    m = 1 << levels
    cols = [np.full(m, 2.0 ** (-levels / 2.0))]
    for s in range(1, levels + 1):
        h = 1 << (levels - s)
        amp = 2.0 ** ((s - levels - 1) / 2.0)
        for p in range(1 << (s - 1)):
            col = np.zeros(m)
            col[2 * p * h : (2 * p + 1) * h] = amp
            col[(2 * p + 1) * h : (2 * p + 2) * h] = -amp
            cols.append(col)
    return np.column_stack(cols)


def offdiag_rel(u, r):
    """||offdiag(U* R U)||_F / ||R||_F."""
    d = u.matrix.conj().T @ r @ u.matrix
    return np.linalg.norm(d - np.diag(np.diag(d))) / np.linalg.norm(r)


@pytest.mark.parametrize("build, size", [
    (dft_matrix, 0), (dct2_matrix, 4097), (hartley_matrix, -1),
    (even_extension_isometry, 0), (semidirect_dct_cascade, 1), (wreath_matrix, [(4097, "cyclic")]),
    (wht_matrix, 0), (haar_matrix, 13), (rm_matrix, -2), (arithmetic_matrix, 10**17),
    (fp_rm_matrix, (0,) * 13),
    # checked on the 2m points they build, and on the Kronecker product's degree
    (even_extension_isometry, 2049), (semidirect_dct_cascade, 2049),
    pytest.param(lambda sizes: compose_direct(*map(dft_matrix, sizes)), (65, 64),
                 id="compose_direct-65x64"),
])
def test_kernel_size_outside_the_degree_ceiling(build, size):
    # the kernels share the group constructors' degree checks
    with pytest.raises(InputError, match="outside"):
        build(size)


class TestDft:
    def test_m1(self):
        assert np.allclose(dft_matrix(1).matrix, [[1.0]])

    def test_m2_is_h1(self):
        expected = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
        assert np.allclose(dft_matrix(2).matrix, expected)

    def test_m4_entry(self):
        assert abs(dft_matrix(4).matrix[1, 1] - 0.5j) < 1e-14

    @pytest.mark.parametrize("m", [1, 2, 3, 8, 16, 33])
    def test_unitary(self, m):
        assert unitarity_error(dft_matrix(m)) <= 1e-10

    def test_diagonalizes_circulant_eigenvalue_formula(self):
        for m in (4, 8, 16):
            r = sample_invariant_cov(make_cyclic(m), seed=m)
            u = dft_matrix(m).matrix
            d = u.conj().T @ r @ u
            off = d - np.diag(np.diag(d))
            assert np.max(np.abs(off)) <= 1e-10 * np.linalg.norm(r)
            lam = np.fft.ifft(r[0]) * m
            assert np.max(np.abs(np.diag(d) - lam)) <= 1e-10 * np.max(np.abs(lam))


class TestHartley:
    def test_m1(self):
        assert np.allclose(hartley_matrix(1).matrix, [[1.0]])

    def test_m4_entry(self):
        assert abs(hartley_matrix(4).matrix[1, 1] - 0.5) < 1e-14

    def test_real_orthogonal_m16(self):
        u = hartley_matrix(16)
        assert np.max(np.abs(u.matrix.imag)) == 0.0
        assert unitarity_error(u) <= 1e-12

    def test_diagonalizes_real_symmetric_circulant(self):
        m = 8
        r = sample_invariant_cov(make_cyclic(m), seed=5)
        r = (r + r.T) / 2.0  # symmetrize the lags: real symmetric circulant
        r = r.real
        u = hartley_matrix(m).matrix.real
        d = u.T @ r @ u
        off = d - np.diag(np.diag(d))
        assert np.max(np.abs(off)) <= 1e-10 * np.linalg.norm(r)


class TestDct2:
    def test_dc_column(self):
        for m in (2, 5, 8):
            col = dct2_matrix(m).matrix[:, 0]
            assert np.allclose(col, np.full(m, 1.0 / np.sqrt(m)))

    def test_m2_values(self):
        expected = np.array(
            [[1 / np.sqrt(2), np.cos(np.pi / 4)], [1 / np.sqrt(2), np.cos(3 * np.pi / 4)]]
        )
        assert np.allclose(dct2_matrix(2).matrix.real, expected)

    @pytest.mark.parametrize("m", [1, 2, 8, 17])
    def test_orthogonal(self, m):
        assert unitarity_error(dct2_matrix(m)) <= 1e-12


class TestWht:
    def test_n1(self):
        expected = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
        assert np.allclose(wht_matrix(1).matrix, expected)

    def test_n2_entry(self):
        assert abs(wht_matrix(2).matrix[3, 3] - 0.5) < 1e-14

    def test_kron_form_equals_closed_form(self):
        h1 = wht_matrix(1).matrix
        tensor = h1
        for _ in range(3):
            tensor = np.kron(tensor, h1)
        assert np.max(np.abs(tensor - wht_matrix(4).matrix)) <= 1e-14

    def test_unitary(self):
        assert unitarity_error(wht_matrix(5)) <= 1e-10


class TestHaar:
    def test_l1_columns(self):
        u = haar_matrix(1).matrix.real
        assert np.allclose(u[:, 0], [1 / np.sqrt(2), 1 / np.sqrt(2)])
        assert np.allclose(u[:, 1], [1 / np.sqrt(2), -1 / np.sqrt(2)])

    def test_l2_coarsest_wavelet(self):
        assert np.allclose(haar_matrix(2).matrix[:, 1].real, [0.5, 0.5, -0.5, -0.5])

    def test_l3_orthonormal(self):
        assert unitarity_error(haar_matrix(3)) <= 1e-12

    def test_scaling_column_constant(self):
        assert np.allclose(haar_matrix(3).matrix[:, 0].real, np.full(8, 2.0**-1.5))

    @pytest.mark.parametrize("levels", range(1, 7))
    def test_matches_closed_form(self, levels):
        u = haar_matrix(levels).matrix
        assert not np.any(u.imag)
        assert np.max(np.abs(u.real - haar_closed_form(levels))) <= 1e-15

    def test_column_labels_scale_major(self):
        labels = haar_matrix(3).column_labels
        assert labels[0] == "scale=0,pos=0"
        assert labels[1] == "scale=1,pos=0"
        assert labels[-1] == "scale=3,pos=3"

    def test_diagonalizes_wreath_invariant_cov(self):
        for level in (2, 3, 4):
            r = sample_invariant_cov(make_dyadic_wreath(level), seed=level + 10)
            u = haar_matrix(level).matrix
            d = u.conj().T @ r @ u
            off = d - np.diag(np.diag(d))
            assert np.max(np.abs(off)) <= 1e-9 * np.linalg.norm(r)
            pattern = subspace_match(r, haar_matrix(level)).degeneracy_pattern
            assert pattern == (1,) + tuple(2**s for s in range(level))


class TestIntegerTransforms:
    def test_rm_n1(self):
        assert np.array_equal(rm_matrix(1).matrix, [[1, 0], [1, 1]])

    def test_rm_subset_rule_row(self):
        assert np.array_equal(rm_matrix(2).matrix[3], [1, 1, 1, 1])

    def test_rm_self_inverse_mod2(self):
        for n in range(1, 9):
            r = rm_matrix(n).matrix
            assert np.array_equal((r @ r) % 2, np.eye(r.shape[0], dtype=np.int64))

    def test_fprm_single_upper(self):
        assert np.array_equal(fp_rm_matrix([1]).matrix, [[1, 1], [0, 1]])

    def test_fprm_zero_polarity_is_rm(self):
        assert np.array_equal(fp_rm_matrix([0, 0]).matrix, rm_matrix(2).matrix)

    def test_fprm_self_inverse_mod2(self):
        r = fp_rm_matrix([1, 0]).matrix
        assert np.array_equal((r @ r) % 2, np.eye(4, dtype=np.int64))

    def test_arith_n1(self):
        assert np.array_equal(arithmetic_matrix(1).matrix, [[1, 0], [-1, 1]])

    def test_a1_r1_identity(self):
        out = arithmetic_matrix(1).matrix @ rm_matrix(1).matrix
        assert np.array_equal(out, np.eye(2, dtype=np.int64))

    def test_an_rn_identity_exact(self):
        for n in range(1, 9):
            out = arithmetic_matrix(n).matrix @ rm_matrix(n).matrix
            assert np.array_equal(out, np.eye(2**n, dtype=np.int64))

    def test_unimodular_dets(self):
        for n in range(1, 9):
            assert det_exact(rm_matrix(n)) == 1
            assert det_exact(arithmetic_matrix(n)) == 1

    def test_non_unimodular_rejected(self):
        with pytest.raises(NumericError):
            IntTransform(np.array([[2]]), None, "bad")

    def test_zero_pivot_swaps_rows(self):
        # every builder's matrix has non-zero pivots; this one needs a swap
        assert transforms._bareiss_det(np.array([[0, 1], [1, 0]])) == -1
        assert IntTransform(np.array([[0, 1], [1, 0]]), None, "swap").degree == 2

    def test_zero_pivot_column_rejected(self):
        # no row below the zero pivot to swap in: the determinant is 0
        with pytest.raises(NumericError, match="not unimodular"):
            IntTransform(np.array([[0, 1], [0, 1]]), None, "bad")

    def test_mod2_requires_binary_entries(self):
        with pytest.raises(InputError):
            IntTransform(np.array([[1, 0], [-1, 1]]), 2, "bad")


class TestAnf:
    def test_zero_function(self):
        assert np.array_equal(anf_coefficients(np.zeros(8, dtype=int)), np.zeros(8, dtype=int))

    def test_and_gate_single_monomial(self):
        # truth table of x0*x1 over index bits: only index 3 (both bits set) is 1
        f = np.array([0, 0, 0, 1])
        coeffs = anf_coefficients(f)
        assert np.array_equal(coeffs, [0, 0, 0, 1])

    def test_matches_matrix_route(self):
        f = np.array([0, 1, 1, 1, 0, 0, 1, 0])
        for polarity in [(0, 0, 0), (1, 0, 1), (1, 1, 1)]:
            via_matrix = (fp_rm_matrix(polarity).matrix @ f) % 2
            assert np.array_equal(anf_coefficients(f, polarity), via_matrix)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 1), min_size=8, max_size=8))
    def test_double_application_restores(self, bits):
        f = np.array(bits)
        assert np.array_equal(anf_coefficients(anf_coefficients(f)), f)

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            anf_coefficients(np.array([0, 1, 0, 1]), (0,))


class TestPolarityCheck:
    """fp_rm_matrix and anf_coefficients share one polarity check: entries
    equal to 0 or 1, or the characters '0' and '1'."""

    @pytest.mark.parametrize("polarity", ["10", (1, 0), [1.0, 0], np.array([1, 0]), (True, 0)],
                             ids=["text", "tuple", "float", "array", "bool"])
    def test_accepted_forms_agree(self, polarity):
        f = np.array([0, 1, 1, 0])
        assert fp_rm_matrix(polarity).name == "fixed-polarity-rm:10"
        assert np.array_equal(anf_coefficients(f, polarity), anf_coefficients(f, (1, 0)))

    @pytest.mark.parametrize("bad", [0.5, 2, "x", " ", None, [0, 1]])
    @pytest.mark.parametrize("call", [
        fp_rm_matrix, lambda p: anf_coefficients(np.zeros(4, dtype=int), p),
    ], ids=["fp_rm_matrix", "anf_coefficients"])
    def test_rejected_entries(self, call, bad):
        # 0.5 was truncated to 0 and "x" raised a bare ValueError
        with pytest.raises(InputError, match="polarity entries must be 0/1"):
            call([bad, 1])

    @pytest.mark.parametrize("polarity", ["1x1", 5, None, ""])
    def test_rejected_polarities(self, polarity):
        with pytest.raises(InputError, match="polarity"):
            fp_rm_matrix(polarity)


class TestBestPolarity:
    def test_constant_zero(self):
        bits, coeffs, weight = best_polarity(np.zeros(4, dtype=int))
        assert weight == 0
        assert bits == (0, 0)

    def test_negated_variable(self):
        # f = NOT x0 on one variable: one monomial at polarity [1], two at [0]
        f = np.array([1, 0])
        bits, coeffs, weight = best_polarity(f)
        assert bits == (1,)
        assert weight == 1
        assert int(anf_coefficients(f, (0,)).sum()) == 2

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 1), min_size=8, max_size=8))
    def test_never_worse_than_positive_polarity(self, bits):
        f = np.array(bits)
        _, _, weight = best_polarity(f)
        assert weight <= int(anf_coefficients(f).sum())


class TestCompose:
    def test_dft2_squared_is_wht2(self):
        out = compose_direct(dft_matrix(2), dft_matrix(2))
        assert np.max(np.abs(out.matrix - wht_matrix(2).matrix)) <= 1e-14

    def test_identity_factor(self):
        u = dft_matrix(3)
        one = UnitaryTransform(np.eye(1), "trivial:1", ("only",))
        assert np.allclose(compose_direct(u, one).matrix, u.matrix)

    def test_diagonalizes_product_invariant_cov(self):
        from matched_transforms import make_product

        act = make_product(make_cyclic(3), make_cyclic(4))
        r = sample_invariant_cov(act, seed=17)
        u = compose_direct(dft_matrix(3), dft_matrix(4)).matrix
        d = u.conj().T @ r @ u
        off = d - np.diag(np.diag(d))
        assert np.max(np.abs(off)) <= 1e-10 * np.linalg.norm(r)


def _digests(transform):
    """SHA-256 of the matrix as complex128 (signed zeros made +0) and of
    its labels."""
    return (hashlib.sha256((transform.matrix.astype(np.complex128) + 0.0).tobytes()).hexdigest(),
            hashlib.sha256("\n".join(transform.column_labels).encode()).hexdigest())


# Haar and trees of binary and symmetric nodes are built from sqrt, division
# and multiplication alone, each correctly rounded, so their bytes are fixed
_HAAR_DIGESTS = [
    (1, "b8a0541aa80b1a09f1847692e688d8f59e6f7b27904794cb34e3a00547af4cc1",
     "e70b31196255628124a3bfb6ade8c11969b9d2d9070f8b834d208ee302f47179"),
    (2, "3a8e8c29d515198e53124782b86350c5b5e44621a88916aa1b5495942381753f",
     "e6684f57ef2399089f7fcf923195c545648b7579a55641bde27666d87a6951d6"),
    (3, "3339d566941920d6bc59f8722fcdb06683ce86b9a0060e883c77c8d349bdeaf4",
     "92e38f3bd44f842f14343c70025aefd4f6068f32de408ec09f15d35344b61cd3"),
    (4, "559b86f9a9a8bc513727752c0543aab1b0e19677fb2e1bbc4a3ab44ffe7b197e",
     "02c656a07b7ce56a299f1a81e6811235f074720f17849e8c04e230b0d35c4453"),
    (5, "218f62289d91bcd6899ed54884891f9e640fe125ec2a61f12e522ac124dc0f37",
     "3cb4af353279a9480fab952fc935e6c50db35d98e87c52cd5fd825dff06d504f"),
    (6, "b37f77cc4a64be462c5d1f9a49f5b5d07c76894662e54c26d66bf2de26a01ed9",
     "9af97b762dbc404de1f9944e95841343927bada481f4d37e59a321002828c856"),
    (7, "a5bd212bff3cbc6c6e4f394bf6fcfababd822eaed3622faa057ec5d0822a92e1",
     "f0926bb07f826aff97ecc39f39a431ebdc92228d3554e77ed979d4717c10720e"),
    (8, "98b9e36095db1d720cb9a48b9da5771a33bcbc749ab3a30846c1fd1386903c67",
     "c9d3c9d3cd154866d18860a6cbe552e661881207691c4bd2dabb0d3ef0d38270"),
    (9, "74bb3f86aa65c6acb3e2532360c3c35213d4c30e180bb3fa659fad086e193ffb",
     "6b87da0c38f74453866b4f200e4aa5307daa558c611644daca18a8fbc9504136"),
    (10, "309e84bb15e23b5cd705b02ef2730cc84aeb9bbc6fed9c887c2eeea6fd654954",
     "1d3ac1e7e8020ec6598cbae67325a4ef01ac1b2e83d713a81e87f2ec506f84d9"),
]
_HELMERT_TREE_DIGESTS = [
    ("3s", "d2ac3b73b8de96357b441eb0dbb61ed0b8ec839a96302061b3681c02f76fa693",
     "961de4b741c723648abd1a9693db1399f55f6c4fd6e2a87dd0cf55a5822acc79"),
    ("2c,3s", "828447f7d99fa6fa5a5b5a885a6b9b84795ba23cd4cb46786e95e5d220ed4b0b",
     "8bf2aaf9fd69a45d211b65937601968b8388dd6eeb55ced10cdb6237480ee972"),
    ("3s,2c", "99e88db237a3296c4ec9914e1e6dafd49cff33d5f06d2e8c28d97b9aa023a17f",
     "a027c63cf7cb24c0a518c6ea1e1dda7396cfd7f6741310cbdb7892bdb97c578d"),
    ("4s,3s", "73b3f51e4560abaff05917e2d5b8d45af8e7e835a43308289177fea26614cf14",
     "755de183d66de8599d58d6ced133e2573048c3728ad9d16d4728a256c1bbe519"),
    ("2s,2s,6s", "6bbb40a0614deb90a2d9f1badc86aa7eb0f56dba6f5345ef2217978394e03396",
     "5f9c823c44949812238239248d01f3cf84aad78216cc13f81367ba19381112a7"),
    ("5s,2c,3s", "ce8e6cc124dbf4fc61d64145c4866be2e145cd62f7504887951e596907867c65",
     "b5a15b65a07fe8c93b96022faff257a83a7d0207d8d54da8cc51dae156325642"),
    ("2c,4s,2s,4s", "5995abc0b2bdc0a91d4036f9111f58a4e797773bb5322614781213254be08741",
     "db5bda1ee9eee640cd958da09052a0af1c67d8cd40bf4b6d80fb763ebf2bb947"),
]


def _branching(text):
    return [(int(x[:-1]), "cyclic" if x[-1] == "c" else "symmetric") for x in text.split(",")]


class TestWreathMatrix:
    @pytest.mark.parametrize("levels, matrix, labels", _HAAR_DIGESTS)
    def test_haar_bytes_pinned(self, levels, matrix, labels):
        u = haar_matrix(levels)
        assert u.matrix.dtype == np.float64
        assert _digests(u) == (matrix, labels)

    @pytest.mark.parametrize("tree, matrix, labels", _HELMERT_TREE_DIGESTS)
    def test_helmert_tree_bytes_pinned(self, tree, matrix, labels):
        u = wreath_matrix(_branching(tree))
        assert u.matrix.dtype == np.float64
        assert _digests(u) == (matrix, labels)

    @pytest.mark.parametrize("columns, sizes", [([1, 0, 2, 3], [1, 1, 2]),
                                                ([1, 2, 3, 0], [1, 2, 1])])
    def test_compose_finds_the_constant_column_anywhere(self, columns, sizes):
        # no catalog or relabelled action gives H's basis with its constant
        # column off first: move it, with its eigenspace, and compose again
        top = (transforms._node_base(3, "cyclic"), np.array([1, 2]), None, None)
        inner = haar_matrix(2).matrix
        points = np.random.default_rng(7).permutation(12).reshape(3, 4)
        plain = transforms._compose(top, (inner, np.array([1, 1, 2]), 1e-12, None), points)
        moved = transforms._compose(top, (inner[:, columns], np.array(sizes), 1e-12, None),
                                    points)
        assert plain[0].tobytes() == moved[0].tobytes()
        assert plain[1].tolist() == moved[1].tolist() == [1, 2, 3, 6]
        assert plain[2] == moved[2] == 1e-12

    def test_l1_is_h1(self):
        out = wreath_matrix([(2, "cyclic")])
        assert np.max(np.abs(out.matrix - dft_matrix(2).matrix)) <= 1e-12

    def test_dyadic_equals_haar_spans(self):
        level = 3
        u = wreath_matrix([(2, "cyclic")] * level)
        r = sample_invariant_cov(make_dyadic_wreath(level), seed=23)
        rep = subspace_match(r, u)
        assert rep.min_match >= 1.0 - 1e-9
        assert rep.degeneracy_pattern == subspace_match(r, haar_matrix(level)).degeneracy_pattern

    def test_binary_cyclic_nodes_exactly_real(self):
        # Z_2 = S_2: a binary node takes the real Helmert base, not the
        # 2-point DFT with its exp(i pi) roundoff
        assert not np.any(wreath_matrix([(2, "cyclic")] * 3).matrix.imag)

    def test_mixed_branching_diagonalizes(self):
        branching = [(3, "symmetric"), (2, "cyclic")]
        act = make_wreath(branching)
        r = sample_invariant_cov(act, seed=29)
        u = wreath_matrix(branching).matrix
        d = u.conj().T @ r @ u
        off = d - np.diag(np.diag(d))
        assert np.max(np.abs(off)) <= 1e-9 * np.linalg.norm(r)

    def test_symmetric_node_diagonalizes(self):
        branching = [(4, "symmetric"), (3, "symmetric")]
        act = make_wreath(branching)
        r = sample_invariant_cov(act, seed=31)
        u = wreath_matrix(branching).matrix
        d = u.conj().T @ r @ u
        off = d - np.diag(np.diag(d))
        assert np.max(np.abs(off)) <= 1e-9 * np.linalg.norm(r)

    def test_unknown_kind_rejected(self):
        with pytest.raises(InputError):
            wreath_matrix([(2, "alternating")])


class TestCascadeAndFold:
    def test_dc_columns_constant(self):
        for m in (2, 8):
            casc = semidirect_dct_cascade(m)
            assert np.allclose(casc.matrix[:, 0].real, np.full(2 * m, 1 / np.sqrt(2 * m)))

    def test_cascade_folds_to_dct2(self):
        for m in (2, 8):
            casc = semidirect_dct_cascade(m)
            s = even_extension_isometry(m)
            dct = dct2_matrix(m).matrix
            folded = s.conj().T @ casc.matrix
            norms = np.linalg.norm(folded, axis=0)
            live = folded[:, norms > 1e-9] / norms[norms > 1e-9]
            # every restricted cascade column is a DCT-II column up to sign,
            # and together they cover all M of them
            overlaps = np.abs(dct.conj().T @ live)
            assert np.min(np.max(overlaps, axis=0)) >= 1.0 - 1e-9
            assert np.min(np.max(overlaps, axis=1)) >= 1.0 - 1e-9

    def test_even_extension_m1(self):
        s = even_extension_isometry(1)
        assert np.allclose(s[:, 0], [1 / np.sqrt(2), 1 / np.sqrt(2)])

    def test_even_extension_isometry_m8(self):
        s = even_extension_isometry(8)
        assert np.max(np.abs(s.conj().T @ s - np.eye(8))) <= 1e-14

    def test_cascade_unitary(self):
        assert unitarity_error(semidirect_dct_cascade(8)) <= 1e-10

    def test_cascade_peak_memory(self):
        # the semidirect route writes the real cos/sin columns straight into
        # one float64 table, a block of rows at a time: no second M x M array
        u, peak = traced_peak(lambda: semidirect_dct_cascade(512))
        assert u.matrix.dtype == np.float64
        assert peak <= 1.3 * u.matrix.nbytes


class TestClassicalKernelsAreRouteBases:
    """The cosine cascade is the semidirect route's basis of the dihedral
    action and Haar the wreath route's basis of the dyadic wreath, byte for
    byte."""

    @pytest.mark.parametrize("m", [2, 3, 8, 63])
    def test_cascade_is_the_dihedral_basis(self, m):
        basis = synthesize_matched(make_dihedral(m), seed=1).transform
        cascade = semidirect_dct_cascade(m)
        assert cascade.matrix.tobytes() == basis.matrix.tobytes()
        assert cascade.group_name == basis.group_name == f"dihedral:{m}"
        assert cascade.column_labels[0] == "dc" and cascade.column_labels[-1] == "nyquist"
        assert cascade.column_labels[1:3] == ("cos=1", "sin=1")

    @pytest.mark.parametrize("levels", range(1, 10))
    def test_haar_is_the_dyadic_wreath_basis(self, levels):
        basis = synthesize_matched(make_dyadic_wreath(levels), seed=1).transform
        assert basis.matrix.tobytes() == haar_matrix(levels).matrix.tobytes()

    def test_d4_on_4_points_takes_the_rule_its_generators_name(self):
        # D_4 on 4 points is both affine and Z_2 wr Z_2.  dihedral:2's
        # rotation grows A = Z_4, so the semidirect route proves it before
        # a split is tried; dyadic-wreath:2's block swap and inner swap
        # grow no A, so the wreath split comes first and gives Haar's node
        dihedral = synthesize_matched(make_dihedral(2), seed=1)
        assert dihedral.certificate is None
        assert dihedral.transform.column_labels[:3] == (
            "char=(0),orbit=0", "cos=(1),orbit=1", "sin=(1),orbit=1")
        wreath = synthesize_matched(make_dyadic_wreath(2), seed=1)
        assert wreath.certificate is None
        assert all(l.startswith("cluster=") for l in wreath.transform.column_labels)
        assert dihedral.degeneracy_pattern == wreath.degeneracy_pattern == (1, 1, 2)


class TestSynthesize:
    def test_cyclic8_matches_dft(self):
        basis = synthesize_matched(make_cyclic(8), seed=1)
        r = sample_invariant_cov(make_cyclic(8), seed=99)
        rep = subspace_match(r, basis.transform)
        assert rep.min_match >= 1.0 - 1e-9
        rep_dft = subspace_match(r, dft_matrix(8))
        assert rep_dft.min_match >= 1.0 - 1e-9

    def test_dyadic_wreath4_pattern(self):
        basis = synthesize_matched(make_dyadic_wreath(4), seed=2)
        assert basis.degeneracy_pattern == (1, 1, 2, 4, 8)
        assert not basis.data_dependent

    @pytest.mark.parametrize("spec, seed, pattern", [
        ("cyclic:256", 29368336776423751, (1,) * 256),
        ("dihedralM:1024", 1, (1, 1) + (2,) * 511),
        ("boolean:10", 1, (1,) * 1024),
    ])
    def test_pattern_is_the_irreducible_dimensions(self, spec, seed, pattern):
        # the sampled route's first sample had near-coincident eigenvalues
        # on these seeds; the orbital route reads the pattern from integers
        # and needs no seed (these actions take the character route in
        # synthesize_matched)
        action = parse_group_spec(spec)
        assert orbital_basis(action).degeneracy_pattern == pattern
        assert sampled_basis(action, seed).degeneracy_pattern == pattern

    @pytest.mark.parametrize("m", [4, 256])
    def test_trivial_action_is_klt(self, m):
        # random_psd is Hermitian bit for bit, so numpy's eigh of it is the
        # KLT with no symmetrized copy: the same bytes
        basis = synthesize_matched(make_trivial(m), seed=3)
        assert basis.data_dependent
        assert basis.degeneracy_pattern == (1,) * m
        r = random_psd(m, 3)
        assert np.array_equal(r, r.conj().T)
        assert basis.transform.matrix.tobytes() == np.linalg.eigh(r)[1].tobytes()

    def test_seed_independence(self):
        b1 = synthesize_matched(make_boolean(3), seed=4)
        b2 = synthesize_matched(make_boolean(3), seed=57)
        r = sample_invariant_cov(make_boolean(3), seed=200)
        assert subspace_match(r, b1.transform).min_match >= 1.0 - 1e-8
        assert subspace_match(r, b2.transform).min_match >= 1.0 - 1e-8

    def test_non_multiplicity_free_rejected(self):
        # one swap acting on 4 points: trivial(2) x swap(2), commutant dim 10
        act = from_generators([Permutation((0, 1, 3, 2))], "padded-swap")
        with pytest.raises(NotMultiplicityFreeError):
            synthesize_matched(act, seed=5)

    @pytest.mark.parametrize("action", catalog_actions() + [
        # conjugate pairs inside blocks of size > 2 and non-abelian factors
        parse_group_spec("hybrid:3,4"),
        parse_group_spec("wreath:4c,3c"),
        parse_group_spec("product:(cyclic:5,dihedralM:4)"),
    ], ids=lambda a: a.name)
    def test_catalog_family(self, action):
        r3 = sample_invariant_cov(action, seed=500)
        for seed in range(1, 6):
            basis = synthesize_matched(action, seed=seed)
            assert sum(basis.degeneracy_pattern) == action.degree
            if all(g.is_identity() for g in action.generators):
                assert basis.data_dependent
                continue
            assert not basis.data_dependent
            assert offdiag_rel(basis.transform, r3) <= 1e-8

    @pytest.mark.parametrize("spec", [
        "boolean:3", "dyadic-wreath:3", "dihedral:4", "dihedralM:5", "wreath:3s,2c",
        "boolean:9",
    ])
    def test_self_paired_basis_is_real(self, spec):
        # every orbit is its own transpose: the orbital route's basis is the
        # real eigenvectors of Re R, and the semidirect and wreath routes
        # fold each conjugate pair of characters into real columns
        action = parse_group_spec(spec)
        orbits = pair_orbits(action)
        assert np.array_equal(orbits.transpose, np.arange(orbits.orbit_count))
        r3 = sample_invariant_cov(action, seed=500)
        for basis in (synthesize_matched(action, seed=3), orbital_basis(action)):
            assert not basis.transform.matrix.imag.any()
            assert offdiag_rel(basis.transform, r3) <= 1e-8

    @pytest.mark.parametrize("action", catalog_actions(), ids=lambda a: a.name)
    def test_orbit_average_is_the_invariant_sample(self, action):
        # sample_invariant_cov(action, s) is the orbit average of
        # random_psd(M, s), byte for byte
        orbits = pair_orbits(action)
        for s in (1, 2, 7191089600892374487):
            ours = orbits.average(random_psd(action.degree, s))
            ref = sample_invariant_cov(action, s)
            assert ours.dtype == ref.dtype and ours.shape == ref.shape
            assert ours.tobytes() == ref.tobytes()

    def test_one_orbit_partition_per_call(self, monkeypatch):
        calls = []

        partition = transforms._pair_partition

        def counted(reader):
            calls.append(reader.m)
            return partition(reader)

        monkeypatch.setattr(transforms, "_pair_partition", counted)
        # synthesize_matched takes the character route for cyclic:6
        synthesize_matched(make_cyclic(6), seed=7)
        assert calls == []
        # J(6,2) takes the orbital route, on one partition of its 15 points
        synthesize_matched(johnson_action(6), seed=7)
        assert calls == [15]

    def test_psd_draw_only_for_the_trivial_action(self, monkeypatch):
        calls = []

        class PsdDrawn(Exception):
            pass

        def refuse(degree, seed):
            calls.append(degree)
            raise PsdDrawn

        monkeypatch.setattr(transforms, "random_psd", refuse)
        for action in catalog_actions() + [johnson_action(6)]:
            if all(g.is_identity() for g in action.generators):
                with pytest.raises(PsdDrawn):
                    synthesize_matched(action, seed=3)
                assert calls == [action.degree]
            else:
                synthesize_matched(action, seed=3)
        assert len(calls) == 1

    @pytest.mark.parametrize("action", [
        parse_group_spec("product:(cyclic:2,trivial:2)"),
        parse_group_spec("product:(boolean:2,trivial:3)"),
        parse_group_spec("product:(dihedralM:8,trivial:2)"),
        from_generators([Permutation((0, 1, 3, 2))], "padded-swap"),
    ], ids=lambda a: a.name)
    def test_not_multiplicity_free_raises_on_every_seed(self, action):
        for seed in range(1, 21):
            with pytest.raises(NotMultiplicityFreeError):
                synthesize_matched(action, seed)


def is_abelian_and_transitive(action) -> bool:
    """From the enumerated closure: every element commutes with every
    generator, and the images of point 0 cover every point."""
    elements = np.stack([p.as_array() for p in closure_set(action)])
    gens = np.stack([g.as_array() for g in action.generators])
    # (x g)(i) = x[g[i]] against (g x)(i) = g[x[i]]
    commutes = all(np.array_equal(elements[:, g], g[elements]) for g in gens)
    return commutes and np.unique(elements[:, 0]).size == action.degree


@st.composite
def generator_sets(draw):
    """1-3 generators on m <= 7 points, each a random permutation or a
    translation of a fixed regular abelian group on the same points."""
    m = draw(st.integers(2, 7))
    radices = draw(st.sampled_from([d for d in ((m,), (2, m // 2), (2, 2, m // 4))
                                    if np.prod(d) == m and min(d) > 1]))
    points = np.arange(m).reshape(radices)
    rename = np.array(draw(st.permutations(range(m))))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            images = np.array(draw(st.permutations(range(m))))
        else:
            shift = tuple(draw(st.integers(0, r - 1)) for r in radices)
            moved = np.roll(points, shift, range(len(radices)))
            images = np.empty(m, dtype=np.int64)
            images[rename[points.ravel()]] = rename[moved.ravel()]
        gens.append(Permutation(images))
    return from_generators(gens, "drawn")


class TestCharacterRoute:
    """Regular abelian actions get their character basis without sampling;
    numpy's spectrum of one invariant sample is the oracle."""

    @pytest.mark.parametrize("spec", [
        "cyclic:2", "cyclic:6", "cyclic:64", "boolean:1", "boolean:3", "boolean:6",
        "product:(cyclic:3,cyclic:4)", "product:(cyclic:4,cyclic:6)",
        "product:(cyclic:2,boolean:2)", "product:(product:(cyclic:2,cyclic:3),cyclic:5)",
    ])
    @pytest.mark.parametrize("seed", [None, 1, 2])
    def test_oracles(self, spec, seed, monkeypatch):
        action = parse_group_spec(spec)
        if seed is not None:
            action = relabel(action, seed)
        sampled = sampled_basis(action, seed=3)

        def refuse(*args):
            raise AssertionError("the character route eigensolved")

        # the character route eigensolves nothing and partitions no pairs
        monkeypatch.setattr(transforms, "herm_eig", refuse)
        monkeypatch.setattr(transforms, "_pair_partition", refuse)
        basis = synthesize_matched(action, seed=3)
        assert basis.certificate is None
        assert not basis.data_dependent
        assert all(l.startswith("char=(") for l in basis.transform.column_labels)
        assert basis.degeneracy_pattern == sampled.degeneracy_pattern == (1,) * action.degree
        assert transforms._gram_error(basis.transform.matrix) <= 1e-10
        r3 = sample_invariant_cov(action, seed=500)
        assert offdiag_rel(basis.transform, r3) <= 1e-8

    @pytest.mark.parametrize("m", [1, 2, 5, 8, 64, 1024])
    def test_cyclic_columns_are_conjugate_dft_columns(self, m):
        # char=(k) is chi_k(p) = exp(2 pi i k p / m), read from the table
        # dft_matrix is read from, so U is the DFT byte for byte; its columns
        # are those of the conjugate DFT, reordered k -> -k
        basis = synthesize_matched(make_cyclic(m), seed=1)
        if m == 1:
            assert basis.data_dependent
            return
        assert basis.transform.column_labels == tuple(f"char=({k}),orbit={k}" for k in range(m))
        u, f = basis.transform.matrix, dft_matrix(m).matrix
        assert np.array_equal(u, f) and u.tobytes() == f.tobytes()
        assert np.allclose(u[:, -np.arange(m) % m], f.conj(), atol=1e-15)

    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_boolean_columns_are_exactly_walsh_columns(self, n):
        # lcm(d) = 2: the entries are exactly +-c with c = 2^(-n/2), so U is real
        basis = synthesize_matched(make_boolean(n), seed=1)
        u = basis.transform.matrix
        assert not u.imag.any()
        (magnitude,) = np.unique(np.abs(u.real))
        assert magnitude == pytest.approx(2.0 ** (-n / 2), rel=1e-15)
        # each column is a Walsh column: |U* W| is a permutation matrix
        overlap = np.abs(u.conj().T @ wht_matrix(n).matrix)
        assert np.allclose(np.max(overlap, axis=1), 1.0)

    @given(generator_sets())
    @settings(max_examples=150, deadline=None)
    def test_route_taken_iff_abelian_and_transitive(self, action):
        # the semidirect route with H = 1: every orbit one character
        try:
            basis = synthesize_matched(action, seed=2)
        except NotMultiplicityFreeError:
            basis = None
        taken = (basis is not None and not basis.data_dependent
                 and basis.transform.column_labels[0].startswith("char=(")
                 and basis.degeneracy_pattern == (1,) * action.degree)
        assert taken == is_abelian_and_transitive(action)


def refuse(*args):
    raise AssertionError("eigensolved on an exact route")


def spy_partitions_and_solves(monkeypatch):
    """Record the degree of every pair partition synthesis computes and of
    every orbital route it runs, in two lists."""
    calls, solved = [], []
    orbital, partition = transforms._orbital, transforms._pair_partition

    def counted(reader):
        calls.append(reader.m)
        return partition(reader)

    def recorded(orbits, name):
        solved.append(orbits.degree)
        return orbital(orbits, name)

    monkeypatch.setattr(transforms, "_pair_partition", counted)
    monkeypatch.setattr(transforms, "_orbital", recorded)
    return calls, solved


def spy_proposals(monkeypatch) -> list:
    """Record the degree of every A that synthesis proposes."""
    degrees, proposal = [], transforms._proposal

    def spied(images):
        degrees.append(images[0].size)
        return proposal(images)

    monkeypatch.setattr(transforms, "_proposal", spied)
    return degrees


def relabelled(actions):
    """Each action, then its relabel copies with seeds 1 and 2."""
    return [a if seed is None else relabel(a, seed) for a in actions for seed in (None, 1, 2)]


class TestSemidirectRoute:
    """Affine actions A x| H get A's characters grouped by the H-orbits,
    with no sample and no eigensolve; numpy's spectrum of one invariant
    sample is the oracle."""

    @pytest.mark.parametrize("action", relabelled([
        parse_group_spec("dihedral:4"), parse_group_spec("dihedralM:5"),
        parse_group_spec("dihedralM:8"), parse_group_spec("dihedral:128"),
        parse_group_spec("dihedralM:256"), parse_group_spec("product:(cyclic:5,dihedralM:4)"),
        parse_group_spec("product:(dihedralM:4,dihedralM:6)"),
        parse_group_spec("product:(boolean:2,dihedral:3)"),
        affine_line(7, 3), affine_line(13, 2), affine_line(31, 3),
        hamming_action(3), hamming_action(4),
    ]), ids=lambda a: a.name)
    def test_oracles(self, action, monkeypatch):
        sampled = sampled_basis(action, seed=3)
        for name in ("_orbital", "_pair_partition", "herm_eig"):
            monkeypatch.setattr(transforms, name, refuse)
        basis = synthesize_matched(action, seed=3)
        assert basis.certificate is None
        assert not basis.data_dependent
        assert basis.degeneracy_pattern == sampled.degeneracy_pattern
        assert all(l.startswith(("char=(", "cos=(", "sin=("))
                   for l in basis.transform.column_labels)
        # real exactly when the action is self-paired, as the oracle's basis is
        assert basis.transform.matrix.imag.any() == (not sampled.real)
        assert transforms._gram_error(basis.transform.matrix) <= 1e-10
        r3 = sample_invariant_cov(action, seed=500)
        assert offdiag_rel(basis.transform, r3) <= 1e-8

    @pytest.mark.parametrize("m", [5, 8, 64])
    def test_dihedral_columns_are_dft_columns_paired(self, m):
        # H = {1, -1}: the orbits are {k, -k}, in order of their smallest
        # character, each filled from the DFT's own table and folded into
        # sqrt(2) Re F_k and sqrt(2) Im F_k; k = 0 and m/2 keep Re F_k
        basis = synthesize_matched(parse_group_spec(f"dihedralM:{m}"), seed=1)
        f = dft_matrix(m).matrix
        labels, columns = [], []
        for k in range(m // 2 + 1):
            if 2 * k % m == 0:
                labels.append(f"char=({k}),orbit={k}")
                columns.append(f[:, k].real)
            else:
                labels += [f"cos=({k}),orbit={k}", f"sin=({k}),orbit={k}"]
                columns += [f[:, k].real * np.sqrt(2.0), f[:, m - k].imag * -np.sqrt(2.0)]
        assert basis.transform.column_labels == tuple(labels)
        expected = np.stack(columns, axis=1)
        assert basis.transform.matrix.dtype == np.float64
        assert basis.transform.matrix.tobytes() == expected.tobytes()
        assert np.allclose(expected[:, 2::2][:, : (m - 1) // 2],
                           np.sqrt(2.0) * f[:, 1 : (m + 1) // 2].imag, atol=1e-15)

    def test_hamming_orbits_are_weights(self):
        # S_n permutes the characters' bits: one orbit per Hamming weight
        basis = synthesize_matched(hamming_action(5), seed=1)
        assert basis.degeneracy_pattern == (1, 1, 5, 5, 10, 10)

    @pytest.mark.parametrize("action", [
        johnson_action(6), parse_group_spec("hybrid:4,3"), parse_group_spec("wreath:5s"),
        parse_group_spec("product:(dyadic-wreath:3,cyclic:3)"),
    ], ids=lambda a: a.name)
    def test_other_actions_fall_through(self, action):
        assert not synthesize_matched(action, seed=1).transform.column_labels[0].startswith("char=")


class TestWreathRoute:
    """Imprimitive actions whose orbitals are those of H wr K get the
    wreath rule's composition of their factors' bases; numpy's eigenbasis
    of one invariant sample is the oracle."""

    @pytest.mark.parametrize("action", relabelled([
        parse_group_spec(spec) for spec in (
            "dyadic-wreath:3", "dyadic-wreath:5", "dyadic-wreath:8", "wreath:3s,2c",
            "wreath:4c,3c", "wreath:2s,4c", "wreath:4s,4c,4c", "wreath:4c,4c,4c,4c",
            "hybrid:4,3", "hybrid:3,4", "hybrid:8,8", "hybrid:16,16")
    ]), ids=lambda a: a.name)
    def test_oracles(self, action, monkeypatch):
        sampled = sampled_basis(action, seed=3)
        proved = transforms._wreath(reader_of(action), action.name)
        calls, _ = spy_partitions_and_solves(monkeypatch)
        basis = synthesize_matched(action, seed=3)
        # the action's own pair partition is computed once, and only when
        # the Schreier bounds prove no split; every other one is a held
        # factor's, of smaller degree
        assert calls.count(action.degree) == (0 if proved else 1)
        assert max(calls, default=0) <= action.degree
        assert basis.certificate is None or calls
        assert basis.degeneracy_pattern == sampled.degeneracy_pattern
        assert all(l.startswith("cluster=") for l in basis.transform.column_labels)
        assert transforms._gram_error(basis.transform.matrix) <= 1e-10
        r3 = sample_invariant_cov(action, seed=500)
        assert offdiag_rel(basis.transform, r3) <= 1e-8
        if basis.certificate is None:
            # every factor took a route with no eigensolve
            monkeypatch.setattr(transforms, "_orbital", refuse)
            monkeypatch.setattr(transforms, "herm_eig", refuse)
        else:
            assert 0.0 <= basis.certificate <= transforms.DIAGONAL_TOL
        # no route reads the seed
        again = synthesize_matched(action, seed=4)
        assert again.transform.matrix.tobytes() == basis.transform.matrix.tobytes()

    @pytest.mark.parametrize("action, held", [
        (action, False) for action in relabelled([parse_group_spec(spec) for spec in (
            "dyadic-wreath:3", "dyadic-wreath:9", "wreath:3s,2c", "wreath:4c,3c",
            "wreath:2s,4c", "wreath:3c,2s,3c", "hybrid:4,3")])
    ] + [
        (parse_group_spec("wreath:4c,4c,4c,4c"), False),
        # this numbering's first block, {0, 2} inside a Z_4 leaf group,
        # fails the check; the next candidate passes and is proved
        (relabel(parse_group_spec("wreath:4c,4c,4c,4c"), 1), False),
    ] + [
        # an S_k factor with k >= 4 has neither route without a pair
        # partition: it is held as its own pair partition, of the factor's
        # degree, and takes the orbital route
        (parse_group_spec(spec) if seed is None else relabel(parse_group_spec(spec), seed), True)
        for spec, seeds in (("wreath:4s,4c,4c", (None, 1, 2)), ("hybrid:3,4", (None, 1, 2)),
                            ("hybrid:8,8", (None,)), ("wreath:5s,2c", (None, 1, 2)),
                            ("hybrid:16,16", (None, 1)))
        for seed in seeds
    ], ids=lambda v: getattr(v, "name", str(v)))
    def test_schreier_proof_reads_no_pair_partition_of_the_action(self, action, held,
                                                                  monkeypatch):
        # the Schreier bounds prove the split, so the action's own pair
        # orbits are never computed; only a held factor reads its own
        calls, solved = spy_partitions_and_solves(monkeypatch)
        basis = synthesize_matched(action, seed=3)
        assert action.degree not in calls and set(solved) <= set(calls)
        assert bool(calls) == bool(solved) == held
        assert (basis.certificate is None) == (not held)
        r3 = sample_invariant_cov(action, seed=500)
        assert offdiag_rel(basis.transform, r3) <= 1e-8

    @pytest.mark.parametrize("action, last, held", [
        # the other numberings of the S_k actions above, which a bound read
        # to 64 rows did not prove: read by `_wreath_splits`' rule, it does
        (relabel(parse_group_spec(spec), seed), False, True) for spec, seed in (
            ("hybrid:8,8", 1), ("hybrid:8,8", 2), ("hybrid:16,16", 2), ("hybrid:16,16", 3))
    ] + [
        # proved at the last row, G_0's orbits, by the check on block 0's
        # rows; an S_3 block action is affine, an S_4 one is held.  Listed
        # leaf level first, the hybrid's generators reach the last row
        (from_generators(hybrid_generators(w, k), f"hybrid:{w},{k} leaf first"), True, held)
        for w, k, held in ((4, 3, False), (3, 4, True), (2, 4, True), (3, 3, False))
    ] + [
        # the catalog lists them root first, and all but hybrid:2,4 (8
        # points) are proved before the last row
        (parse_group_spec(spec), spec == "hybrid:2,4", held) for spec, held in (
            ("hybrid:4,3", False), ("hybrid:3,4", True), ("hybrid:2,4", True),
            ("hybrid:3,3", False))
    ], ids=lambda v: getattr(v, "name", str(v)))
    def test_partition_candidates(self, action, last, held, monkeypatch):
        # the one wreath attempt proves the split, at the last row or
        # before it, and no pair partition of the action is computed; only
        # held factors are partitioned and take the orbital route
        m, reader = action.degree, reader_of(action)
        assert transforms._wreath(reader, action.name) is not None
        assert (reader.done == m) == last
        sampled = sampled_basis(action, seed=3)
        calls, solved = spy_partitions_and_solves(monkeypatch)
        basis = synthesize_matched(action, seed=3)
        assert m not in calls and set(solved) <= set(calls) and max(calls, default=0) < m
        assert bool(solved) == (basis.certificate is not None) == held
        assert basis.degeneracy_pattern == sampled.degeneracy_pattern
        r3 = sample_invariant_cov(action, seed=500)
        assert offdiag_rel(basis.transform, r3) <= 1e-8

    @pytest.mark.parametrize("spec, numbering, degrees", [
        ("hybrid:8,8", 1, [8]),
        ("wreath:4s,4c,4c", 2, [4]),
    ])
    def test_partition_routes_only_the_proved_split(self, spec, numbering, degrees,
                                                    monkeypatch):
        # no block that fails the check has a factor routed or partitioned:
        # both splits are proved on the bound, and only the held S_8 or S_4
        # factor is partitioned.  The basis is the composition of the split
        # the route proves
        action = relabel(parse_group_spec(spec), numbering)
        calls, _ = spy_partitions_and_solves(monkeypatch)
        basis = synthesize_matched(action, seed=3)
        assert calls == degrees
        u, sizes, certificate, labels = transforms._wreath(reader_of(action), action.name)[1]()
        assert basis.transform.matrix.tobytes() == u.tobytes()
        assert basis.transform.column_labels == labels()
        assert (basis.degeneracy_pattern, basis.certificate) == (
            tuple(sorted(sizes.tolist())), certificate)

    @pytest.mark.parametrize("spec, degrees", [
        ("product:(hybrid:8,8,cyclic:4)", [256]),
        ("product:(wreath:4s,4c,cyclic:3)", [48]),
        ("product:(hybrid:4,3,cyclic:3)", [36]),
    ])
    def test_partition_routes_no_failed_split(self, spec, degrees, monkeypatch):
        # a block that fails the check, on the Schreier bounds or on the
        # partition, has no factor routed, so no held factor of it is
        # partitioned
        calls, _ = spy_partitions_and_solves(monkeypatch)
        synthesize_matched(parse_group_spec(spec), seed=3)
        assert calls == degrees

    @pytest.mark.parametrize("seed, filled", [(1, 402), (2, 443), (3, 694)])
    def test_relabelled_iterated_wreath_reads_no_pair_partition(self, seed, filled, monkeypatch):
        # the check passes over the blocks inside a Z_4 leaf group at degree
        # 4096, so no pair partition is computed under any of these
        # numberings.  The action's reader has filled only some of its 4096
        # table rows when the split is proved: from the 6 leftmost-node
        # generators each row gives few Schreier generators, so the bound
        # reaches the rank only at 64 or 128 rows, and is read on until it
        # settles (`_wreath_splits`) before a candidate is drawn
        action = relabel(parse_group_spec("wreath:4c,4c,4c,4c,4c,4c"), seed)
        readers, reader = [], transforms._SchreierReader
        monkeypatch.setattr(transforms, "_SchreierReader",
                            lambda images, m: readers.append(reader(images, m)) or readers[-1])
        calls, _ = spy_partitions_and_solves(monkeypatch)
        basis = synthesize_matched(action, seed=3)
        assert calls == [] and basis.certificate is None
        assert readers[0].m == action.degree and readers[0].filled == filled

    @pytest.mark.parametrize("spec", ["hybrid:8,64", "hybrid:16,64"])
    @pytest.mark.parametrize("numbering", [None, 1, 2, 3])
    def test_partitions_do_not_depend_on_the_numbering(self, spec, numbering, monkeypatch):
        # candidates are drawn from a settled bound (`_wreath_splits`), so a
        # relabelled copy proves its split with no pair partition of the
        # action, as the catalog numbering does: only the held S_64 factor
        # is partitioned
        action = parse_group_spec(spec)
        if numbering is not None:
            action = relabel(action, numbering)
        calls, _ = spy_partitions_and_solves(monkeypatch)
        synthesize_matched(action, seed=3)
        assert calls == [64]

    @pytest.mark.parametrize("spec, numbering, partitions, blocks", [
        # the relabelled hybrids' bounds settle on G_0's orbits, whose
        # single points are point 0's block: the blocks grown are inside
        # it, and the split is proved with no pair partition of the action
        ("hybrid:16,256", 1, 0, 1), ("hybrid:16,256", 2, 0, 3), ("hybrid:64,64", 2, 0, 2),
        # no split: the attempt reads the bound to its last row, and the pair
        # partition the orbital route takes relabels its labels
        ("product:(dyadic-wreath:6,cyclic:16)", None, 1, 8),
        ("product:(hybrid:8,8,cyclic:4)", None, 1, 8),
    ])
    def test_one_reader_per_action(self, spec, numbering, partitions, blocks, monkeypatch):
        # the wreath attempt and the held pair partition share one reader:
        # its moved entries, forest and minimal blocks are built once at
        # the action's degree
        action = parse_group_spec(spec)
        if numbering is not None:
            action = relabel(action, numbering)
        m, degrees, grown = action.degree, {}, []
        for name in ("_moved_entries", "_schreier_forest", "_minimal_block"):
            def spied(*args, _name=name, _f=getattr(groups, name)):
                if _name == "_minimal_block" and args[0].m == m:
                    grown.append(args[1])
                degrees.setdefault(_name, []).append(args[0].m if _name == "_minimal_block"
                                                     else args[1])
                return _f(*args)

            monkeypatch.setattr(groups, name, spied)
        calls, _ = spy_partitions_and_solves(monkeypatch)
        synthesize_matched(action, seed=3)
        assert calls.count(m) == partitions
        assert {name: d.count(m) for name, d in degrees.items()} == {
            "_moved_entries": 1, "_schreier_forest": 1, "_minimal_block": blocks}
        if numbering is not None:
            # relabel renames point i s(i): point 0's block is s of the
            # catalog block of s^-1(0)
            w = int(spec.split(":")[1].split(",")[0])
            s = np.random.default_rng(numbering).permutation(m)
            first = int(np.flatnonzero(s == 0)[0]) // w * w
            assert set(grown) <= set(s[first : first + w].tolist())

    def test_blocks_grow_only_from_a_settled_bound(self, monkeypatch):
        # J(12, 2) is primitive, so every minimal block holds over half the
        # points.  Its bound leaves 56 orbits at 4 rows and 37, 22 and 3 at
        # 8, 16 and 32; read on until it settles before candidates are
        # drawn, it has G_0's three orbits by then, and at most two blocks
        # are grown
        action = relabel(johnson_action(12), 2)
        grown, minimal_block = [], groups._minimal_block

        def spied(reader, x):
            grown.append(x)
            return minimal_block(reader, x)

        monkeypatch.setattr(groups, "_minimal_block", spied)
        synthesize_matched(action, seed=3)
        assert 0 < len(grown) <= 2

    @pytest.mark.parametrize("action", [
        parse_group_spec("product:(dyadic-wreath:6,cyclic:16)"), johnson_action(12),
    ], ids=lambda a: a.name)
    def test_proposal_runs_once_per_action(self, action, monkeypatch):
        # the route chain proposes an A at most once at the action's own
        # degree; these two grow none from their generators and pass no
        # split, so they reach the proposal
        degrees = spy_proposals(monkeypatch)
        synthesize_matched(action, seed=3)
        assert degrees.count(action.degree) == 1

    @pytest.mark.parametrize("action", relabelled([parse_group_spec(spec) for spec in (
        "dyadic-wreath:5", "hybrid:4,3", "wreath:4s,4s,4s", "dihedral:6", "dihedralM:9",
        "product:(cyclic:3,dihedralM:4)")] + [hamming_action(4), affine_line(7, 3)]),
        ids=lambda a: a.name)
    def test_no_proposal_at_the_action_degree(self, action, monkeypatch):
        # a wreath-type action is split before any A is proposed, and an
        # affine one whose generators grow A is proved from them; only a
        # held factor, of smaller degree, may propose one
        degrees = spy_proposals(monkeypatch)
        synthesize_matched(action, seed=3)
        assert action.degree not in degrees

    @pytest.mark.parametrize("numbering", [None, 1, 2])
    def test_failed_splits_solve_nothing(self, numbering, monkeypatch):
        # no block system of this product passes; the factors of the
        # failed splits are neither routed nor partitioned, and the whole
        # action takes the orbital route on its own partition, under any
        # numbering
        action = parse_group_spec("product:(dyadic-wreath:6,cyclic:16)")
        if numbering is not None:
            action = relabel(action, numbering)
        calls, solved = spy_partitions_and_solves(monkeypatch)
        basis = synthesize_matched(action, seed=3)
        assert calls == solved == [action.degree] and basis.certificate is not None

    @pytest.mark.parametrize("spec, held", [
        ("dyadic-wreath:4", False), ("hybrid:4,3", False), ("hybrid:3,4", True),
        ("wreath:5s,2c", True),
    ])
    def test_an_orbital_factor_reports_its_certificate(self, spec, held):
        basis = synthesize_matched(parse_group_spec(spec), seed=3)
        assert (basis.certificate is not None) == held

    @pytest.mark.parametrize("action", [
        parse_group_spec("dihedral:6"), johnson_action(6), parse_group_spec("wreath:5s"),
        parse_group_spec("product:(dyadic-wreath:3,cyclic:3)"),
        make_product(parse_group_spec("wreath:3s,2c"), parse_group_spec("cyclic:2")),
    ], ids=lambda a: a.name)
    def test_other_actions_fall_through(self, action):
        # dihedral:m is imprimitive, but its rotation grows A, so the
        # semidirect route proves it before a split is tried
        basis = synthesize_matched(action, seed=1)
        label = basis.transform.column_labels[0]
        assert label.startswith("char=") or basis.certificate is not None


def regular_action(action):
    """A small group's left regular action on its own elements."""
    elements = sorted(closure_set(action), key=lambda p: p.images)
    index = {p: i for i, p in enumerate(elements)}
    gens = [Permutation([index[compose(g, x)] for x in elements]) for g in action.generators]
    return from_generators(gens, f"regular({action.name})")


def discovered_hamming(n: int):
    """hamming:n's matched group from the generators discovery returns."""
    result = discover_sequential(sample_invariant_cov(hamming_action(n), seed=5))
    assert result.stop_reason == "complete"
    return from_generators(result.generators, f"discovered(hamming:{n})")


class TestOrbitalRoute:
    """Actions no route without a pair partition proves take their
    eigenspaces from the orbital algebra's integer intersection numbers;
    numpy's spectrum of one invariant sample is the oracle."""

    @pytest.mark.parametrize("action", relabelled([
        johnson_action(12), johnson_action(46), parse_group_spec("hybrid:4,3"),
        parse_group_spec("hybrid:3,4"), parse_group_spec("wreath:5s"),
        parse_group_spec("product:(dyadic-wreath:3,cyclic:3)"),
        parse_group_spec("product:(hybrid:4,3,cyclic:3)"),
        parse_group_spec("product:(dyadic-wreath:6,cyclic:16)"),
        discovered_hamming(4), discovered_hamming(6),
    ]), ids=lambda a: a.name)
    def test_oracles(self, action):
        # synthesize_matched, and the orbital route alone where another
        # route proves the action
        basis = synthesize_matched(action, seed=3)
        bases = [basis] if basis.certificate is not None else [basis, orbital_basis(action)]
        oracle = sampled_basis(action, seed=3)
        r3 = sample_invariant_cov(action, seed=500)
        for b in bases:
            assert b.degeneracy_pattern == oracle.degeneracy_pattern
            assert not b.data_dependent
            assert transforms._gram_error(b.transform.matrix) <= 1e-10
            assert offdiag_rel(b.transform, r3) <= 1e-8
        assert 0.0 <= bases[-1].certificate <= transforms.DIAGONAL_TOL
        # no route reads the seed: the same bytes on every one
        again = synthesize_matched(action, seed=4).transform.matrix
        assert again.tobytes() == basis.transform.matrix.tobytes()

    @pytest.mark.parametrize("spec", [
        "cyclic:6", "hybrid:4,3", "wreath:4c,3c", "hybrid:3,4", "product:(hybrid:4,3,cyclic:3)",
        "boolean:3", "hybrid:2,4",
    ])
    def test_columns_are_eigenvectors_at_the_known_values(self, spec):
        # E_j = sum_i e_j(i) A_i is Hermitian, invariant and idempotent, with
        # trace m_j, and the E_j sum to I; U's columns, eigenspaces in the
        # same order (by size), hold an orthonormal basis of each E_j's range
        action = parse_group_spec(spec)
        orbits = pair_orbits(action)
        e, mult = transforms._orbital_algebra(orbits, action.name)
        assert tuple(mult.tolist()) == sampled_basis(action, 3).degeneracy_pattern
        u = orbital_basis(action).transform.matrix
        total, col = 0.0, 0
        for j in range(mult.size):
            ej = e[j][orbits.orbit_id]
            assert np.array_equal(ej, ej.conj().T)
            assert is_invariant(ej, action, 1e-12)
            assert np.allclose(ej @ ej, ej, rtol=0, atol=1e-12)
            assert np.trace(ej).real == pytest.approx(mult[j], abs=1e-9)
            block = u[:, col : col + mult[j]]
            assert np.allclose(ej @ block, block, rtol=0, atol=1e-12)
            total, col = total + ej, col + mult[j]
        assert np.allclose(total, np.eye(action.degree), rtol=0, atol=1e-12)
        # real exactly when the action is self-paired
        paired = not np.array_equal(orbits.transpose, np.arange(orbits.orbit_count))
        assert np.iscomplexobj(e) == u.imag.any() == paired

    @pytest.mark.parametrize("action", catalog_actions() + [
        parse_group_spec("hybrid:3,4"),
        parse_group_spec("wreath:4c,3c"),
        parse_group_spec("cyclic:64"),
        parse_group_spec("boolean:6"),
    ], ids=lambda a: a.name)
    def test_certificate_is_the_full_residual(self, action):
        # the largest trace(E_j - U_j U_j*) / m_j over the eigenspaces the
        # route factored, E_j and the residual formed in full, U_j E_j's
        # columns.  A PSD residual's norm is at most its trace.  The orbital
        # route is called directly: affine and wreath actions take other
        # routes in synthesize_matched
        if all(g.is_identity() for g in action.generators):
            assert synthesize_matched(action, seed=11).certificate is None
            return
        orbits = pair_orbits(action)
        e, mult = transforms._orbital_algebra(orbits, action.name)
        basis = orbital_basis(action)
        u, m, factored = basis.transform.matrix, action.degree, mult.size
        if m * (m - mult[-1]) < mult[-1] ** 2:
            factored -= 1  # the complement, which no factorization reads
        ratios, col = [], 0
        for j in range(factored):
            block = u[:, col : col + mult[j]]
            residual = e[j][orbits.orbit_id] - block @ block.conj().T
            ratios.append(np.sum(np.abs(np.diag(residual))) / mult[j])
            assert np.linalg.norm(residual) <= np.trace(residual).real + 1e-11
            col += mult[j]
        assert basis.certificate == pytest.approx(max(ratios), rel=0, abs=1e-13)
        assert basis.certificate <= transforms.DIAGONAL_TOL

    @pytest.mark.parametrize("action, complement", [
        (johnson_action(12), True),  # sizes 1, 11, 54
        (parse_group_spec("wreath:3c,4s"), True),  # 1, 1, 1, 9, complex
        (parse_group_spec("product:(dyadic-wreath:3,cyclic:3)"), False),
    ], ids=lambda v: getattr(v, "name", str(v)))
    def test_largest_eigenspace_is_the_complement_when_cheaper(self, action, complement,
                                                               monkeypatch):
        # one Householder QR when M (M - m_max) < m_max^2, and the only
        # eigensolve is the r x r one
        orbits, m = pair_orbits(action), action.degree
        eigh, qr = np.linalg.eigh, np.linalg.qr
        solved, factored = [], []

        def spy_eigh(a, *args, **kwargs):
            solved.append(a.shape)
            return eigh(a, *args, **kwargs)

        def spy_qr(a, *args, **kwargs):
            factored.append(a.shape)
            return qr(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", spy_eigh)
        monkeypatch.setattr(np.linalg, "qr", spy_qr)
        u, sizes, _, _ = transforms._orbital(orbits, action.name)
        assert solved == [(orbits.orbit_count,) * 2]
        big = sizes[-1]
        assert big == sizes.max() and (m * (m - big) < big ** 2) == complement
        assert factored == ([(m, m - big)] if complement else [])
        # the last columns span the largest eigenspace either way
        e, _ = transforms._orbital_algebra(orbits, action.name)
        last = e[-1][orbits.orbit_id]
        assert np.allclose(last @ u[:, m - big :], u[:, m - big :], rtol=0, atol=1e-12)
        assert transforms._gram_error(u) <= transforms.UNITARITY_TOL

    @pytest.mark.parametrize("action", [
        # intransitive
        parse_group_spec("product:(cyclic:2,trivial:2)"),
        from_generators([Permutation((0, 1, 3, 2))], "padded-swap"),
        # transitive with a non-commutative commutant: the regular actions
        # of S_3 and D_4
        regular_action(parse_group_spec("dihedralM:3")),
        regular_action(parse_group_spec("dihedralM:4")),
    ], ids=lambda a: a.name)
    def test_not_multiplicity_free_before_any_floating_work(self, action, monkeypatch):
        # the integer checks decide; no eigensolve runs
        assert not orbitals_commute(pair_orbit_labels(action))
        monkeypatch.setattr(transforms, "herm_eig", refuse)
        with pytest.raises(NotMultiplicityFreeError):
            orbital_basis(action)

    @pytest.mark.parametrize("perturb, message", [
        # E_0 = J/m has rank 1, so a second column of it finds no pivot
        (lambda e, sizes: (e, sizes + [1, -1, 0]), "eigenspace 0 has rank 1 < 2"),
        # E_1 + 1e-3 E_2 has rank 14, so 5 columns leave E_2's part behind;
        # a scaled E_1 would keep its rank and fail the Gram check instead
        (lambda e, sizes: (e + 1e-3 * np.outer([0, 1, 0], e[2]), sizes),
         "U misses the eigenspaces by"),
    ], ids=["rank", "certificate"])
    def test_numeric_guards(self, perturb, message, monkeypatch):
        action = johnson_action(6)  # eigenspaces of sizes 1, 5, 9
        orbits = pair_orbits(action)
        e, sizes = transforms._orbital_algebra(orbits, action.name)
        assert sizes.tolist() == [1, 5, 9]
        monkeypatch.setattr(transforms, "_orbital_algebra", lambda *_: perturb(e, sizes))
        with pytest.raises(NumericError, match=message):
            transforms._orbital(orbits, action.name)

    def test_merged_combination_raises(self, monkeypatch):
        # with every coefficient 1 the combination is the all-ones matrix,
        # whose eigenvalue 0 mixes J(6,2)'s eigenspaces of sizes 5 and 9:
        # the route raises rather than cut a pattern
        monkeypatch.setattr(transforms, "normal_rows",
                            lambda seed, rows, cols: np.ones((rows, cols)))
        with pytest.raises(NumericError):
            orbital_basis(johnson_action(6))


@st.composite
def random_actions(draw):
    return random_action(draw(st.integers(2, 7)), draw(st.integers(1, 3)),
                         draw(st.integers(0, 2**32 - 1)))


class TestRandomActions:
    """Random generating sets, outside every catalog family."""

    @given(random_actions())
    @settings(max_examples=80, deadline=None)
    def test_routes_agree_with_the_sampled_route(self, action):
        # NotMultiplicityFreeError exactly when the orbital indicator
        # matrices, from a pure-Python flood fill, do not commute
        if all(g.is_identity() for g in action.generators):
            assert synthesize_matched(action, seed=2).data_dependent
            return
        labels = pair_orbit_labels(action)
        if not orbitals_commute(labels):
            with pytest.raises(NotMultiplicityFreeError):
                synthesize_matched(action, seed=2)
            return
        basis = synthesize_matched(action, seed=2)
        assert len(basis.degeneracy_pattern) == int(labels.max()) + 1
        assert sum(basis.degeneracy_pattern) == action.degree
        sampled = sampled_basis(action, 2)
        assert basis.degeneracy_pattern == sampled.degeneracy_pattern
        r3 = sample_invariant_cov(action, seed=500)
        assert offdiag_rel(basis.transform, r3) <= 1e-8


class TestTrustedKernels:
    """Closed-form kernels skip the constructor's Gram check; the full
    check runs here instead, and the stored bytes are the checked path's."""

    @pytest.mark.parametrize("build, sizes", [
        (dft_matrix, (1, 2, 3, 7, 8, 64, 99, 256, 511, 1024)),
        (hartley_matrix, (1, 2, 3, 7, 8, 64, 99, 256, 511, 1024)),
        (dct2_matrix, (1, 2, 3, 7, 8, 64, 99, 256, 511, 1024)),
        (wht_matrix, range(1, 11)),
        (haar_matrix, range(1, 11)),
        (semidirect_dct_cascade, (2, 3, 4, 31, 32, 255, 512)),
        (wreath_matrix, ([(3, "symmetric")], [(3, "symmetric"), (5, "cyclic")],
                         [(4, "cyclic"), (3, "symmetric"), (5, "cyclic")],
                         [(7, "cyclic"), (9, "symmetric"), (11, "cyclic")],
                         [(2, "cyclic")] * 10, [(4, "symmetric")] * 5)),
        (lambda pair: compose_direct(*pair), (
            (dft_matrix(3), wht_matrix(2)), (dft_matrix(32), dft_matrix(32)),
            (hartley_matrix(31), dct2_matrix(33)), (haar_matrix(3), dft_matrix(125)))),
    ], ids=["dft", "hartley", "dct2", "wht", "haar", "cascade", "wreath", "compose"])
    def test_full_gram_check(self, build, sizes):
        for size in sizes:
            kernel = build(size)
            assert transforms._gram_error(kernel.matrix) <= transforms.UNITARITY_TOL
            checked = UnitaryTransform(kernel.matrix, kernel.group_name, kernel.column_labels)
            assert checked.matrix.dtype == kernel.matrix.dtype
            assert checked.matrix.tobytes() == kernel.matrix.tobytes()
            assert checked.column_labels == kernel.column_labels
            assert kernel.matrix.flags.c_contiguous and not kernel.matrix.flags.writeable

    def test_dft_at_the_degree_ceiling(self):
        kernel = dft_matrix(4096)
        assert transforms._gram_error(kernel.matrix) <= transforms.UNITARITY_TOL


class TestExactPhases:
    """The character table reduces each phase jk mod m in integers before
    reading its root of unity, so no entry drifts as jk grows."""

    @pytest.mark.parametrize("build, m", [(dft_matrix, 4096), (hartley_matrix, 1024)],
                             ids=["dft", "hartley"])
    def test_fourier_kernels_match_reduced_phases(self, build, m):
        u = build(m).matrix
        k = np.arange(m)
        for at in range(0, m, 256):
            j = np.arange(at, min(m, at + 256))[:, None]
            f = np.exp(2j * np.pi * ((j * k) % m) / m) / np.sqrt(m)
            expected = f if build is dft_matrix else f.real + f.imag
            assert np.max(np.abs(u[at : at + 256] - expected)) <= 1e-15

    def test_dct2_matches_reduced_phases(self):
        m = 4096
        u = dct2_matrix(m).matrix
        k = np.arange(m)
        for at in range(0, m, 256):
            j = np.arange(at, min(m, at + 256))[:, None]
            expected = np.sqrt(2.0 / m) * np.cos(np.pi * ((2 * j + 1) * k % (4 * m)) / (2 * m))
            expected[:, 0] /= np.sqrt(2.0)
            assert np.max(np.abs(u[at : at + 256] - expected)) <= 1e-15

    @pytest.mark.parametrize("n", [1, 2, 5, 10])
    def test_wht_is_exactly_the_walsh_sign_table(self, n):
        # Hadamard order: (-1)^popcount(j & k) / 2^(n/2), no rounding at all
        j = np.arange(1 << n)
        parity = np.bitwise_count(j[:, None] & j[None, :]) & 1
        assert np.array_equal(wht_matrix(n).matrix, np.where(parity, -1.0, 1.0) / np.sqrt(1 << n))


class TestUnitaryTransformType:
    def test_rejects_nonunitary(self):
        with pytest.raises(NumericError):
            UnitaryTransform(np.ones((2, 2)), "bad", ("a", "b"))

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_real_nonorthonormal_columns_rejected(self, dtype):
        # real entries take the real Gram product: a column norm off by
        # 1e-8 or two columns 1e-8 from orthogonal must still be caught
        q = dct2_matrix(8).matrix.real.copy()
        stretched = q.copy()
        stretched[:, 3] *= 1.0 + 1e-8
        sheared = q.copy()
        sheared[:, 5] += 1e-8 * q[:, 2]
        for bad in (stretched, sheared):
            with pytest.raises(NumericError):
                UnitaryTransform(bad.astype(dtype), "bad", tuple(range(8)))

    @pytest.mark.parametrize("eps, bad", [(1e-6, True), (1e-12, False)])
    @pytest.mark.parametrize("defect", ["imaginary", "real"])
    def test_gram_defect_of_one_part(self, eps, bad, defect):
        # columns e1 and (e2 + c eps e1)/norm, c = i or 1: the Gram matrix's
        # only off-diagonal entry is c eps / norm.  U is complex in both
        # cases (the real defect rides on an overall factor i), so both go
        # through the complex check
        c = 1j if defect == "imaginary" else 1.0
        u = np.eye(3, dtype=np.complex128)
        u[0, 1] = c * eps
        u[:, 1] /= np.linalg.norm(u[:, 1])
        if defect == "real":
            u *= 1j
        gram = u.conj().T @ u
        off = gram - np.diag(np.diag(gram))
        assert abs(off[0, 1]) > 0.9 * eps
        assert not (off.real if defect == "imaginary" else off.imag).any()
        if bad:
            with pytest.raises(NumericError):
                UnitaryTransform(u, "bad", ("a", "b", "c"))
        else:
            UnitaryTransform(u, "ok", ("a", "b", "c"))

    @pytest.mark.parametrize("dtype, stored", [
        (np.float64, np.float64), (np.int64, np.float64), (np.float32, np.float64),
        (np.complex128, np.complex128), (np.complex64, np.complex128)])
    def test_real_input_stays_real(self, dtype, stored):
        # a complex input stays complex, even with every imaginary part 0
        u = UnitaryTransform(np.eye(3, dtype=dtype)[::-1], "flip", tuple(range(3)))
        assert u.matrix.dtype == stored
        assert np.array_equal(u.matrix, np.eye(3)[::-1])

    def test_label_count_enforced(self):
        with pytest.raises(DimensionError):
            UnitaryTransform(np.eye(2), "x", ("only-one",))

    def test_matrix_readonly(self):
        u = dft_matrix(4)
        with pytest.raises(ValueError):
            u.matrix[0, 0] = 0.0


def _self_paired(action) -> bool:
    """Every orbital is its own transpose: the invariant matrices are real
    symmetric, and a real orthogonal matched basis exists."""
    transpose = pair_orbits(action).transpose
    return bool(np.array_equal(transpose, np.arange(transpose.size)))


class TestRealStorage:
    """A basis is stored as float64 exactly when its action is self-paired,
    at half the bytes of complex128: the semidirect, wreath and orbital
    routes, the kernels they reproduce and the trivial action's KLT, which
    is complex.  The Hartley and DCT-II kernels and the even extension are
    real whatever group they are named after."""

    @pytest.mark.parametrize("kernel", [
        dft_matrix(1), dft_matrix(2), dft_matrix(3), dft_matrix(64), wht_matrix(1),
        wht_matrix(5), haar_matrix(1), haar_matrix(5), semidirect_dct_cascade(2),
        semidirect_dct_cascade(9), wreath_matrix([(3, "symmetric"), (5, "cyclic")]),
        wreath_matrix([(2, "cyclic"), (4, "symmetric")]), wreath_matrix([(4, "cyclic")]),
        compose_direct(wht_matrix(2), haar_matrix(2)), compose_direct(dft_matrix(3), wht_matrix(2)),
    ], ids=lambda kernel: kernel.group_name)
    def test_kernel_is_real_iff_its_action_is_self_paired(self, kernel):
        real = _self_paired(parse_group_spec(kernel.group_name))
        assert kernel.matrix.dtype == (np.float64 if real else np.complex128)

    @pytest.mark.parametrize("build, size", [
        (hartley_matrix, 1), (hartley_matrix, 2), (hartley_matrix, 7), (dct2_matrix, 1),
        (dct2_matrix, 8), (lambda m: even_extension_isometry(m), 5)])
    def test_real_kernels_off_their_group(self, build, size):
        built = build(size)
        assert getattr(built, "matrix", built).dtype == np.float64

    @pytest.mark.parametrize("action", relabelled([parse_group_spec(spec) for spec in (
        "cyclic:2", "cyclic:6", "dihedral:5", "dihedralM:8", "boolean:3", "dyadic-wreath:4",
        "hybrid:4,3", "wreath:3s,2c", "wreath:4c,3c", "wreath:2s,4c",
        "product:(cyclic:3,cyclic:4)", "product:(dihedralM:6,boolean:2)",
        "product:(hybrid:4,3,cyclic:3)", "product:(dyadic-wreath:3,cyclic:4)", "trivial:4",
    )] + [johnson_action(7), hamming_action(4), affine_line(7, 3)]))
    def test_route_basis_is_real_iff_self_paired(self, action):
        u = synthesize_matched(action, seed=1).transform.matrix
        assert u.dtype == (np.float64 if _self_paired(action) else np.complex128)

    def test_wht_peak_memory(self):
        # the +-1 table is filled as float64 a block of rows at a time,
        # straight into the result: no complex table and no buffered block
        u, peak = traced_peak(lambda: wht_matrix(10))
        assert u.matrix.dtype == np.float64
        assert peak <= 1.3 * u.matrix.nbytes

    def test_dihedral_synthesis_peak_memory(self):
        action = parse_group_spec("dihedralM:1024")
        basis, peak = traced_peak(lambda: synthesize_matched(action, seed=1))
        assert basis.transform.matrix.dtype == np.float64
        assert peak <= 1.3 * basis.transform.matrix.nbytes

    @pytest.mark.parametrize("build", [lambda: wht_matrix(10).matrix,
                                       lambda: dft_matrix(1024).matrix], ids=["real", "complex"])
    def test_gram_check_holds_no_m_by_m_array(self, build):
        # a block of rows of U* U at a time; a float64 U is never given an
        # M x M imaginary part of zeros to test
        u = build()
        err, peak = traced_peak(lambda: transforms._gram_error(u))
        assert err <= transforms.UNITARITY_TOL
        assert peak <= 0.75 * u.nbytes

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matched_transforms import (
    DegeneracyMismatchError,
    DimensionError,
    InputError,
    NotMultiplicityFreeError,
    NumericError,
    Permutation,
    StructuralMismatchError,
    UndefinedResidualError,
    circle_check,
    coloring_alpha,
    dct2_matrix,
    dct_fold_cov,
    dft_matrix,
    from_generators,
    haar_matrix,
    herm_eig,
    make_boolean,
    make_cyclic,
    make_dihedral,
    make_dyadic_wreath,
    make_trivial,
    random_psd,
    residual_delta,
    reynolds_project,
    sample_invariant_cov,
    subspace_match,
    synthesize_matched,
    wht_matrix,
)
from matched_transforms.diagnostics import CLUSTER_REL_GAP
from matched_transforms.transforms import UnitaryTransform

from helpers import (
    catalog_actions,
    is_invariant,
    johnson_action,
    orbital_basis,
    reference_subspace_match,
)


class TestSampleInvariantCov:
    def test_cyclic_output_is_circulant(self):
        m = 6
        r = sample_invariant_cov(make_cyclic(m), seed=3)
        for i in range(m):
            for j in range(m):
                assert abs(r[i, j] - r[0, (j - i) % m]) <= 1e-12

    def test_trivial_action_passthrough(self):
        r = sample_invariant_cov(make_trivial(5), seed=7)
        assert np.allclose(r, random_psd(5, 7), atol=1e-14)

    def test_hermitian_psd_and_invariant(self):
        for action in catalog_actions():
            r = sample_invariant_cov(action, seed=11)
            assert np.max(np.abs(r - r.conj().T)) <= 1e-12
            assert np.min(herm_eig(r).values) >= -1e-10 * np.linalg.norm(r)
            assert is_invariant(r, action, tol=1e-12)


class TestResidualDelta:
    def test_identity_is_zero(self):
        r = random_psd(4, 1)
        ident = Permutation(tuple(range(4)))
        assert residual_delta(ident, r) == 0.0

    def test_swap_on_diag12_hand_value(self):
        r = np.diag([1.0, 2.0])
        swap = Permutation((1, 0))
        assert abs(residual_delta(swap, r) - 1.0 / np.sqrt(5.0)) <= 1e-14

    def test_generators_on_invariant_sample(self):
        for action in catalog_actions():
            r = sample_invariant_cov(action, seed=13)
            for g in action.generators:
                assert residual_delta(g, r) <= 1e-12

    def test_zero_matrix_rejected(self):
        with pytest.raises(UndefinedResidualError):
            residual_delta(Permutation((1, 0)), np.zeros((2, 2)))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            residual_delta(Permutation((1, 0)), np.eye(3))


class TestColoringAlpha:
    def test_swap_on_diag12_hand_value(self):
        act = from_generators([Permutation((1, 0))], "swap")
        assert abs(coloring_alpha(act, np.diag([1.0, 2.0])) - 0.9) <= 1e-14

    def test_invariant_gives_one(self):
        act = make_cyclic(5)
        r = sample_invariant_cov(act, seed=2)
        assert coloring_alpha(act, r) == pytest.approx(1.0, abs=1e-12)

    def test_trivial_group_gives_one(self):
        r = random_psd(6, 9)
        assert coloring_alpha(make_trivial(6), r) == pytest.approx(1.0, abs=1e-14)

    def test_range_and_noninvariance(self):
        act = make_cyclic(4)
        r = np.diag([1.0, 2.0, 3.0, 4.0])
        a = coloring_alpha(act, r)
        assert 0.0 <= a < 1.0
        assert max(residual_delta(g, r) for g in act.generators) > 1e-6

    def test_zero_matrix_rejected(self):
        with pytest.raises(UndefinedResidualError):
            coloring_alpha(make_cyclic(3), np.zeros((3, 3)))


def _identity_basis(m):
    return UnitaryTransform(np.eye(m), f"trivial:{m}", tuple(f"e{i}" for i in range(m)))


class TestEigenClusters:
    """subspace_match's clustering: a split wherever consecutive ascending
    eigenvalues differ by more than CLUSTER_REL_GAP times their range."""

    def test_all_equal_single_cluster(self):
        rep = subspace_match(np.eye(3), _identity_basis(3))
        assert rep.degeneracy_pattern == (3,)
        assert rep.min_match == 1.0

    def test_gap_rule_splits(self):
        rep = subspace_match(np.diag([0.0, 1e-12, 5.0]), _identity_basis(3))
        assert rep.degeneracy_pattern == (2, 1)

    def test_loose_tol_merges(self):
        # gaps of 4e-7 sit below 1e-6 of the range 8e-7 + 1; 1e-5 does not
        r = np.diag([1.0, 1.0 + 4e-7, 1.0 + 8e-7, 2.0])
        assert CLUSTER_REL_GAP == 1e-6
        assert subspace_match(r, _identity_basis(4)).degeneracy_pattern == (3, 1)
        r = np.diag([1.0, 1.0 + 1e-5, 2.0])
        assert subspace_match(r, _identity_basis(3)).degeneracy_pattern == (1, 1, 1)

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            subspace_match(np.zeros((0, 0)), dft_matrix(1))

    def test_partition_property(self):
        # every column lands in one cluster; clusters are reported by their
        # first column, whatever the order of the eigenvalues
        vals = np.array([2.0, 7.0, 1.0, 2.0, 1.0, 1.0])
        rep = subspace_match(np.diag(vals), _identity_basis(6))
        assert rep.degeneracy_pattern == (2, 1, 3)
        assert rep.min_match == 1.0


def _outcome(call):
    try:
        return call()
    except (StructuralMismatchError, DegeneracyMismatchError) as exc:
        return type(exc), str(exc)


@st.composite
def _match_inputs(draw):
    """A Hermitian matrix with forced degenerate eigenvalues (small integers,
    some nudged below the gap rule) and a basis that is its eigenbasis
    shuffled, rotated inside clusters, mixed across clusters or random."""
    m = draw(st.integers(1, 9))
    lam = np.array(draw(st.lists(st.integers(0, 4), min_size=m, max_size=m)), dtype=float)
    if draw(st.booleans()):
        lam = lam + 1e-9 * np.array(draw(st.lists(st.integers(-1, 1), min_size=m, max_size=m)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))[0]
    r = (q * lam) @ q.conj().T
    mode = draw(st.sampled_from(["shuffled", "rotated", "mixed", "random"]))
    u = q.copy()
    if mode == "rotated":
        for value in np.unique(np.round(lam)):
            idx = np.flatnonzero(np.round(lam) == value)
            z = rng.normal(size=(idx.size, idx.size)) + 1j * rng.normal(size=(idx.size, idx.size))
            u[:, idx] = u[:, idx] @ np.linalg.qr(z)[0]
    elif mode == "mixed" and m >= 2:
        i, j = rng.choice(m, size=2, replace=False)
        u[:, [i, j]] = u[:, [i, j]] @ (np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0))
    elif mode == "random":
        u = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))[0]
    perm = rng.permutation(m)
    return r, UnitaryTransform(u[:, perm], f"trivial:{m}", tuple(f"c{k}" for k in perm))


class TestSubspaceMatchOracle:
    @settings(max_examples=150, deadline=None)
    @given(_match_inputs())
    def test_matches_reference_loop(self, case):
        r, u = case
        rep = _outcome(lambda: subspace_match(r, u))
        got = rep if isinstance(rep, tuple) else (rep.min_match, rep.degeneracy_pattern)
        assert got == _outcome(lambda: reference_subspace_match(r, u))

    def test_degeneracy_mismatch_message(self):
        # every column's quotient is 1, so cluster 0 (eigenvalue 0) gets none
        mix = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, np.sqrt(2.0)], [1.0, -1.0, 0.0]])
        u = UnitaryTransform(mix / np.sqrt(2.0), "trivial:3", ("a", "b", "c"))
        r = np.diag([0.0, 1.0, 2.0])
        expected = (DegeneracyMismatchError,
                    "cluster 0 has dimension 1 but received 0 predicted columns")
        assert _outcome(lambda: subspace_match(r, u)) == expected
        assert _outcome(lambda: reference_subspace_match(r, u)) == expected


class TestSubspaceMatch:
    def test_self_match(self):
        r = random_psd(6, 21)
        eig = herm_eig(r)
        u = UnitaryTransform(eig.vectors, "trivial:6", tuple(f"c{i}" for i in range(6)))
        rep = subspace_match(r, u)
        assert rep.min_match >= 1.0 - 1e-12

    def test_table_rows(self):
        cases = [
            (sample_invariant_cov(make_cyclic(16), 1), dft_matrix(16)),
            (sample_invariant_cov(make_boolean(4), 1), wht_matrix(4)),
            (dct_fold_cov(8, 1), dct2_matrix(8)),
            (sample_invariant_cov(make_dyadic_wreath(5), 1), haar_matrix(5)),
        ]
        for r, u in cases:
            assert subspace_match(r, u).min_match >= 1.0 - 1e-6

    def test_wreath_degeneracy_pattern(self):
        r = sample_invariant_cov(make_dyadic_wreath(5), seed=1)
        rep = subspace_match(r, haar_matrix(5))
        assert rep.degeneracy_pattern == (1, 1, 2, 4, 8, 16)

    def test_within_cluster_rotation_invariance(self):
        r = sample_invariant_cov(make_dyadic_wreath(3), seed=8)
        u = haar_matrix(3)
        base = subspace_match(r, u)
        # rotate the scale-2 pair (columns 2,3) by a random unitary
        rng = np.random.default_rng(0)
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q = np.linalg.qr(z)[0]
        rotated = u.matrix.astype(np.complex128)  # Haar is real; the rotation is not
        rotated[:, 2:4] = rotated[:, 2:4] @ q
        rep = subspace_match(r, UnitaryTransform(rotated, u.group_name, u.column_labels))
        assert abs(rep.min_match - base.min_match) <= 1e-9

    def test_column_permutation_invariance(self):
        r = sample_invariant_cov(make_cyclic(8), seed=14)
        u = dft_matrix(8)
        perm = [3, 0, 7, 1, 5, 2, 6, 4]
        shuffled = UnitaryTransform(
            u.matrix[:, perm], u.group_name, tuple(u.column_labels[i] for i in perm)
        )
        assert abs(subspace_match(r, shuffled).min_match - subspace_match(r, u).min_match) <= 1e-12

    def test_structural_mismatch(self):
        # predicted column mixing two well-separated eigenspaces lands in a gap
        r = np.diag([1.0, 10.0])
        mix = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        u = UnitaryTransform(mix, "trivial:2", ("a", "b"))
        with pytest.raises(StructuralMismatchError):
            subspace_match(r, u)

    def test_degeneracy_mismatch(self):
        # dct2 columns each sit inside single circulant eigenspaces of a
        # cyclic sample, but split the conjugate pairs 1-and-1
        r = sample_invariant_cov(make_cyclic(4), seed=4).real
        r = (r + r.T) / 2.0
        with pytest.raises((DegeneracyMismatchError, StructuralMismatchError)):
            subspace_match(r, dct2_matrix(4))

    def test_non_hermitian_rejected(self):
        arr = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NumericError):
            subspace_match(arr, dft_matrix(2))


class TestMultiplicityFreeProbe:
    """synthesize_matched's multiplicity-free test: a transitive action
    whose intersection numbers are symmetric.  Cyclic, dihedral and
    dyadic-wreath actions take the semidirect and wreath routes in
    synthesize_matched, so their cases call the orbital route."""

    def test_cyclic8_true(self):
        assert not orbital_basis(make_cyclic(8)).data_dependent

    def test_dyadic_wreath3_true(self):
        assert not orbital_basis(make_dyadic_wreath(3)).data_dependent

    def test_dihedral_on_2m_true(self):
        assert not orbital_basis(make_dihedral(4)).data_dependent

    def test_padded_swap_false(self):
        act = from_generators([Permutation((1, 0, 2, 3))], "swap-x-trivial")
        for seed in (1, 2):
            with pytest.raises(NotMultiplicityFreeError):
                synthesize_matched(act, seed)

    def test_seed_independent(self):
        # J(6,2) takes the orbital route, which reads no seed
        action = johnson_action(6)
        u = synthesize_matched(action, 5).transform.matrix
        for seed in (6, 10, 11, 97, 98):
            assert synthesize_matched(action, seed).transform.matrix.tobytes() == u.tobytes()


class TestDctFoldCov:
    def test_real_symmetric(self):
        r = dct_fold_cov(8, 5)
        assert np.max(np.abs(r.imag)) <= 1e-12
        assert np.max(np.abs(r - r.T)) <= 1e-12

    def test_psd(self):
        r = dct_fold_cov(6, 2)
        assert np.min(herm_eig(r).values) >= -1e-10 * np.linalg.norm(r)

    def test_dct2_diagonalizes(self):
        for m in (2, 5, 8):
            r = dct_fold_cov(m, 6)
            u = dct2_matrix(m).matrix
            d = u.conj().T @ r @ u
            off = d - np.diag(np.diag(d))
            assert np.max(np.abs(off)) <= 1e-9 * np.linalg.norm(r)

    def test_match_report(self):
        assert subspace_match(dct_fold_cov(8, 1), dct2_matrix(8)).min_match >= 1.0 - 1e-6


class TestCircleCheck:
    def test_n4_pattern(self):
        rep = circle_check(4, seed=1)
        assert rep.degeneracy_pattern == (1, 2, 1)
        assert rep.min_match >= 1.0 - 1e-6

    def test_n64_pattern(self):
        rep = circle_check(64, seed=1)
        assert len(rep.degeneracy_pattern) == 33
        assert rep.degeneracy_pattern == (1,) + (2,) * 31 + (1,)
        assert rep.min_match >= 1.0 - 1e-6

    def test_odd_rejected(self):
        with pytest.raises(InputError):
            circle_check(7, seed=1)


class TestDftEigenvalueFormula:
    @pytest.mark.parametrize("m", [4, 8, 16])
    def test_diag_equals_first_row_dft(self, m):
        r = sample_invariant_cov(make_cyclic(m), seed=m + 1)
        u = dft_matrix(m).matrix
        diag = np.diag(u.conj().T @ r @ u)
        lam = np.fft.ifft(r[0]) * m
        assert np.max(np.abs(diag - lam)) <= 1e-10 * np.max(np.abs(lam))

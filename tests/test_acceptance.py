"""End-to-end acceptance gate.

One test per criterion; each prints a single PASS line when its assertions
hold, so `pytest -v` shows one pass/fail row per criterion.
"""

import time

import numpy as np
import pytest

from matched_transforms import (
    NotMultiplicityFreeError,
    Permutation,
    anf_coefficients,
    arithmetic_matrix,
    circle_check,
    closure_enumerate,
    coloring_alpha,
    dct2_matrix,
    dct_fold_cov,
    dft_matrix,
    discover_sequential,
    fp_rm_matrix,
    from_generators,
    haar_matrix,
    hartley_matrix,
    make_boolean,
    make_cyclic,
    make_dihedral,
    make_dyadic_wreath,
    make_hybrid,
    make_product,
    make_trivial,
    pair_orbits,
    random_psd,
    residual_delta,
    reynolds_project,
    rm_matrix,
    sample_invariant_cov,
    subspace_match,
    synthesize_matched,
    wht_matrix,
)

from helpers import brute_force_matched_group, catalog_actions, closure_set, is_invariant


def report(n, label):
    print(f"[criterion {n}] {label}: PASS")


def test_criterion_1_table_reproduction():
    start = time.monotonic()
    cases = [
        ("cyclic:16", lambda s: sample_invariant_cov(make_cyclic(16), s), dft_matrix(16)),
        ("boolean:4", lambda s: sample_invariant_cov(make_boolean(4), s), wht_matrix(4)),
        ("dihedral-folded:8", lambda s: dct_fold_cov(8, s), dct2_matrix(8)),
        ("dyadic-wreath:5", lambda s: sample_invariant_cov(make_dyadic_wreath(5), s), haar_matrix(5)),
    ]
    for name, sampler, predicted in cases:
        for seed in range(1, 21):
            rep = subspace_match(sampler(seed), predicted)
            assert rep.min_match >= 1.0 - 1e-6, (name, seed, rep.min_match)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    report(1, f"four pipelines x 20 seeds match >= 1-1e-6 in {elapsed:.1f}s")


def test_criterion_2_circle_discretization():
    start = time.monotonic()
    rep = circle_check(64, seed=1)
    assert rep.degeneracy_pattern == (1,) + (2,) * 31 + (1,)
    assert rep.min_match >= 1.0 - 1e-6
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(2, "N=64 pattern [1, 2x31, 1] with Fourier match >= 1-1e-6")


def test_criterion_3_dft_eigenvalue_formula():
    for m in (4, 8, 16):
        r = sample_invariant_cov(make_cyclic(m), seed=m + 2)
        u = dft_matrix(m).matrix
        d = u.conj().T @ r @ u
        lam = np.fft.ifft(r[0]) * m
        assert np.max(np.abs(np.diag(d) - lam)) <= 1e-10 * np.max(np.abs(lam))
        off = d - np.diag(np.diag(d))
        assert np.max(np.abs(off)) <= 1e-10 * np.linalg.norm(r)
    report(3, "diag(U*RU) = DFT of row 0 at 1e-10 for M in {4,8,16}")


def test_criterion_4_integer_transform_identities():
    for n in range(1, 9):
        size = 2**n
        rn = rm_matrix(n).matrix
        an = arithmetic_matrix(n).matrix
        assert np.array_equal(an @ rn, np.eye(size, dtype=np.int64))
        assert np.array_equal((rn @ rn) % 2, np.eye(size, dtype=np.int64))
    rng = np.random.default_rng(2026)
    for _ in range(20):
        bits = tuple(int(b) for b in rng.integers(0, 2, size=6))
        f = fp_rm_matrix(bits).matrix
        assert np.array_equal((f @ f) % 2, np.eye(64, dtype=np.int64))
    report(4, "A_n R_n = I and R_n^2 = I mod 2 (n<=8); 20 polarities self-inverse at n=6")


def test_criterion_5_orbit_count_laws():
    for level in range(1, 7):
        assert pair_orbits(make_dyadic_wreath(level)).orbit_count == level + 1
    for m in (1, 2, 3, 5, 8, 12):
        assert pair_orbits(make_cyclic(m)).orbit_count == m
    for level in range(1, 5):
        closure = closure_enumerate(make_dyadic_wreath(level), cap=10**6)
        assert not closure.overflowed
        assert closure.count == 2 ** (2**level - 1)
    report(5, "pair orbits L+1 (L<=6) and M (cyclic); closure 2^(2^L-1) (L<=4)")


def test_criterion_6_discovery_oracle_equivalence():
    start = time.monotonic()
    actions = (
        [make_cyclic(m) for m in range(2, 9)]
        + [make_boolean(n) for n in range(1, 4)]
        + [make_dihedral(m, degree_m=True) for m in range(3, 7)]
    )
    for action in actions:
        r = sample_invariant_cov(action, seed=7)
        result = discover_sequential(r, tau=1e-8)
        gens = list(result.generators) or [Permutation.identity(action.degree)]
        discovered = closure_set(from_generators(gens, "discovered"))
        oracle = brute_force_matched_group(r)
        assert discovered == oracle, action.name
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    report(6, f"closure equals exhaustive S_M matched group for 14 actions in {elapsed:.1f}s")


def test_criterion_7_no_symmetry_soundness():
    for seed in range(1, 11):
        r = random_psd(6, seed)
        result = discover_sequential(r, tau=1e-8)
        assert result.generators == ()
        assert brute_force_matched_group(r) == {Permutation.identity(6)}
    report(7, "10 generic PSD inputs at M=6: zero generators, S6 oracle identity-only")


def test_criterion_8_property_suites():
    # unitarity of every kernel
    kernels = [
        dft_matrix(12), hartley_matrix(12), dct2_matrix(12), wht_matrix(3),
        haar_matrix(3),
    ]
    for u in kernels:
        m = u.matrix
        assert np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))) <= 1e-10

    # Reynolds idempotence and generator-invariance
    for action in catalog_actions():
        x = random_psd(action.degree, 5)
        p1 = reynolds_project(x, action)
        p2 = reynolds_project(p1, action)
        assert np.max(np.abs(p1 - p2)) <= 1e-12 * max(1.0, np.linalg.norm(p1))
        assert is_invariant(p1, action, tol=1e-12)

    # hand values
    assert abs(residual_delta(Permutation((1, 0)), np.diag([1.0, 2.0])) - 5**-0.5) <= 1e-14
    swap = from_generators([Permutation((1, 0))], "swap")
    assert abs(coloring_alpha(swap, np.diag([1.0, 2.0])) - 0.9) <= 1e-14

    # subspace-match rotation invariance within a cluster
    r = sample_invariant_cov(make_dyadic_wreath(3), seed=8)
    u = haar_matrix(3)
    base = subspace_match(r, u).min_match
    rng = np.random.default_rng(1)
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q = np.linalg.qr(z)[0]
    rotated = u.matrix.astype(np.complex128)  # Haar is real; the rotation is not
    rotated[:, 2:4] = rotated[:, 2:4] @ q
    from matched_transforms.transforms import UnitaryTransform

    rep = subspace_match(r, UnitaryTransform(rotated, u.group_name, u.column_labels))
    assert abs(rep.min_match - base) <= 1e-9

    # commutant nesting: dihedral-invariant implies cyclic-invariant
    r = sample_invariant_cov(make_dihedral(5, degree_m=True), seed=3)
    assert is_invariant(r, make_cyclic(5), tol=1e-12)

    # multiplicity-free test outcomes (synthesize_matched's intersection
    # numbers); cyclic:8 takes the semidirect route and hybrid:4,3 the
    # wreath route, both proved without an eigensolve, while
    # hybrid:4,3 x cyclic:3, a paired non-abelian product with a wreath
    # factor, takes the orbital route with its certificate and conjugate
    # pairs
    padded = from_generators([Permutation((1, 0, 2, 3))], "padded-swap")
    hybrid = make_hybrid(4, 3)
    sampled = make_product(hybrid, make_cyclic(3))
    for seed in (1, 2):
        assert not synthesize_matched(make_cyclic(8), seed).data_dependent
        exact = synthesize_matched(hybrid, seed)
        assert not exact.data_dependent and exact.certificate is None
        assert not synthesize_matched(make_dyadic_wreath(3), seed).data_dependent
        certified = synthesize_matched(sampled, seed)
        assert not certified.data_dependent and certified.certificate is not None
        assert certified.certificate <= 1e-8
        with pytest.raises(NotMultiplicityFreeError):
            synthesize_matched(padded, seed)

    # seed-independence of synthesize_matched
    b1 = synthesize_matched(make_cyclic(6), seed=11)
    b2 = synthesize_matched(make_cyclic(6), seed=12)
    probe_cov = sample_invariant_cov(make_cyclic(6), seed=300)
    assert subspace_match(probe_cov, b1.transform).min_match >= 1.0 - 1e-8
    assert subspace_match(probe_cov, b2.transform).min_match >= 1.0 - 1e-8
    for action in (hybrid, sampled):
        h1 = synthesize_matched(action, seed=11)
        h2 = synthesize_matched(action, seed=12)
        probe_cov = sample_invariant_cov(action, seed=300)
        assert subspace_match(probe_cov, h1.transform).min_match >= 1.0 - 1e-8
        assert subspace_match(probe_cov, h2.transform).min_match >= 1.0 - 1e-8

    report(8, "unitarity, Reynolds, hand values, rotation/nesting, multiplicity-free check, synthesis")

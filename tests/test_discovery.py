import dataclasses
import json
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matched_transforms import (
    CandidateBasis,
    DimensionError,
    DiscoveryResult,
    InputError,
    NumericError,
    Permutation,
    UndefinedResidualError,
    closure_enumerate,
    coloring_alpha,
    dft_matrix,
    discover_sequential,
    from_generators,
    herm_eig,
    make_boolean,
    make_cyclic,
    make_dihedral,
    make_dyadic_wreath,
    make_hybrid,
    make_trivial,
    match_library,
    pair_orbits,
    parse_group_spec,
    random_psd,
    residual_delta,
    reynolds_project,
    sample_invariant_cov,
    subspace_match,
)

import matched_transforms
from matched_transforms import discovery

from helpers import (
    all_permutations,
    brute_force_matched_group,
    catalog_actions,
    closure_set,
    hamming_action,
    johnson_action,
    reference_edge_colours,
    reference_refine,
    random_action,
    reference_row_ranks,
    relabel,
)
from matched_transforms.numkernel import _check_hermitian


def discovered_closure(result: DiscoveryResult, degree: int) -> set:
    gens = list(result.generators) or [Permutation.identity(degree)]
    return closure_set(from_generators(gens, "discovered"))


class TestDiscoverSequential:
    def test_rejected_leaves_on_a_cubic_graph(self):
        # R = 3I + A for a 3-regular graph on 8 points, drawn by stub
        # pairing: refinement leaves cells whose individualization gives
        # leaves that break an edge colour, and the search rejects them
        rng = np.random.default_rng(0)
        graphs = []
        while len(graphs) < 2:
            stubs = rng.permutation(np.repeat(np.arange(8), 3)).reshape(-1, 2)
            a = np.zeros((8, 8))
            np.add.at(a, (stubs[:, 0], stubs[:, 1]), 1)
            a += a.T
            if not np.any(stubs[:, 0] == stubs[:, 1]) and a.max() == 1:
                graphs.append(a)
        r = 3 * np.eye(8) + graphs[1]
        result = discover_sequential(r)
        assert result.rejected_count > 0 and result.stop_reason == "complete"
        assert result.group_order == 4
        assert discovered_closure(result, 8) == brute_force_matched_group(r)

    def test_cyclic6_matches_brute_force(self):
        r = sample_invariant_cov(make_cyclic(6), seed=1)
        result = discover_sequential(r)
        assert result.group_order == 6
        assert discovered_closure(result, 6) == brute_force_matched_group(r)
        assert all(d <= 1e-8 for d in result.residuals)
        assert result.alpha == pytest.approx(1.0, abs=1e-9)
        assert result.stop_reason == "complete"

    def test_no_symmetry_finds_nothing(self):
        r = random_psd(5, 4)
        result = discover_sequential(r)
        assert result.generators == ()
        assert result.group_order == 1
        # refinement alone makes the partition discrete: no leaf to test
        assert result.iterations == 0 and result.rejected_count == 0
        assert result.trace == ()
        assert result.stop_reason == "complete"
        oracle = brute_force_matched_group(r)
        assert oracle == {Permutation.identity(5)}

    def test_boolean3_contains_xor_generators(self):
        r = sample_invariant_cov(make_boolean(3), seed=2)
        result = discover_sequential(r)
        closure = discovered_closure(result, 8)
        for g in make_boolean(3).generators:
            assert residual_delta(g, r) <= 1e-10
            assert g in closure
        assert closure == brute_force_matched_group(r)
        assert result.group_order == 8

    def test_dyadic_wreath2_matches_brute_force(self):
        r = sample_invariant_cov(make_dyadic_wreath(2), seed=5)
        result = discover_sequential(r)
        assert result.group_order == 8
        assert discovered_closure(result, 4) == brute_force_matched_group(r)

    def test_dihedral_m4_matches_brute_force(self):
        r = sample_invariant_cov(make_dihedral(4, degree_m=True), seed=6)
        result = discover_sequential(r)
        assert result.group_order == 8
        assert discovered_closure(result, 4) == brute_force_matched_group(r)

    def test_hybrid_3_2_matches_brute_force(self):
        r = sample_invariant_cov(make_hybrid(3, 2), seed=7)
        result = discover_sequential(r)
        assert discovered_closure(result, 6) == brute_force_matched_group(r)
        assert result.group_order == 18

    def test_soundness_reasserted(self):
        r = sample_invariant_cov(make_cyclic(8), seed=8)
        result = discover_sequential(r, tau=1e-8)
        assert result.generators
        for g in result.generators:
            assert residual_delta(g, r) <= 1e-8

    def test_cyclic_shift_basis_recovers_the_cycle(self):
        r = sample_invariant_cov(make_cyclic(8), seed=3)
        result = discover_sequential(r, basis=CandidateBasis.cyclic_shifts(8))
        assert result.group_order == 8
        closure = discovered_closure(result, 8)
        assert closure == closure_set(make_cyclic(8))

    def test_identity_input_discovers_full_symmetric_group(self):
        result = discover_sequential(np.eye(4))
        assert result.group_order == 24
        assert discovered_closure(result, 4) == brute_force_matched_group(np.eye(4))
        assert result.alpha == pytest.approx(1.0, abs=1e-12)

    def test_enumeration_cap_overflow(self):
        # a complete search proves its order exactly, and the cap only
        # decides whether that order is flagged as exceeding it
        result = discover_sequential(np.eye(4), enumeration_cap=10)
        assert result.order_exceeded_cap
        assert result.group_order == 24
        # the generators found must still give all of S_M at every cap and BLAS
        # thread count.  The thread count is fixed at interpreter start, so
        # each count runs in its own process.
        probe = textwrap.dedent("""
            import json
            import numpy as np
            from matched_transforms import discover_sequential
            out = {}
            for m, cap in ((4, 2), (4, 10), (5, 10), (5, 30)):
                res = discover_sequential(np.eye(m), enumeration_cap=cap)
                out[f"{m},{cap}"] = {
                    "generators": [list(g.images) for g in res.generators],
                    "exceeded": res.order_exceeded_cap,
                }
            print(json.dumps(out))
        """)
        src = os.path.dirname(os.path.dirname(matched_transforms.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        for blas_threads in (1, 2):
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
                env[var] = str(blas_threads)
            proc = subprocess.run([sys.executable, "-c", probe], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            for key, found in json.loads(proc.stdout).items():
                m = int(key.split(",")[0])
                assert found["exceeded"], (blas_threads, key)
                gens = [Permutation(images) for images in found["generators"]]
                closure = closure_set(from_generators(gens, "discovered"))
                expected = {Permutation(row) for row in all_permutations(m)}
                assert closure == expected, (blas_threads, key)

    def test_max_iters_saturates(self, monkeypatch):
        # S_4 needs one leaf per base level, three in all
        assert discover_sequential(np.eye(4)).iterations == 3
        # a quarter leaf per point is a budget of one leaf at M = 4
        monkeypatch.setattr(discovery, "LEAVES_PER_POINT", 0.25)
        result = discover_sequential(np.eye(4))
        assert result.iterations == 1
        assert result.stop_reason == "saturated"
        # the order reported is that of the subgroup the generators generate
        closure = discovered_closure(result, 4)
        assert result.group_order == len(closure) < 24

    def test_coarse_colors_report_only_passing_generators(self):
        # at tau = 0.6 the entries 0, 0.5 and 1 chain into one colour, so the
        # swap preserves the colours but has delta = 1/sqrt(1.5) > tau
        r = np.array([[0.0, 0.5], [0.5, 1.0]])
        result = discover_sequential(r, tau=0.6)
        assert result.stop_reason == "coarse-colors"
        assert result.iterations == 1 and result.rejected_count == 0
        assert result.generators == () and result.group_order == 1
        assert residual_delta(Permutation((1, 0)), r) > 0.6

    def test_coarse_colors_closure_past_the_cap_has_no_order(self):
        # entries 0, 0.05, ..., 1 chain into one colour at tau = 0.06, so the
        # search finds S_14; its swaps inside the graded 11-point block or
        # inside the identity block pass delta <= tau, and one between them
        # fails.  The passing ones generate S_11 x S_3, whose order is known
        # only by closure, and that closure overflows the cap
        p = np.arange(11)
        r = np.eye(14)
        r[:11, :11] = (p[:, None] + p[None, :]) / 20
        result = discover_sequential(r, tau=0.06)
        assert result.stop_reason == "coarse-colors"
        assert result.group_order is None and result.order_exceeded_cap
        assert 0 < len(result.generators) < 13

    def test_basis_does_not_narrow_the_search(self):
        r = sample_invariant_cov(make_dihedral(8, degree_m=True), seed=1)
        narrowed = discover_sequential(r, basis=CandidateBasis.cyclic_shifts(8))
        assert narrowed.group_order == discover_sequential(r).group_order == 16

    def test_zero_matrix_rejected(self):
        with pytest.raises(UndefinedResidualError):
            discover_sequential(np.zeros((3, 3)))

    def test_bad_tau_rejected(self):
        # tau = inf would merge every entry into one colour and report the
        # symmetric group whatever R is
        for tau in (0.0, -1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(InputError, match="tau must be finite and > 0"):
                discover_sequential(sample_invariant_cov(make_cyclic(8), 1), tau=tau)

    def test_basis_degree_mismatch(self):
        with pytest.raises(DimensionError):
            discover_sequential(np.eye(3), basis=CandidateBasis.cyclic_shifts(4))


_SCALE_CALLS = {
    "residual_delta": lambda r: residual_delta(Permutation((1, 0)), r),
    "coloring_alpha": lambda r: coloring_alpha(parse_group_spec("cyclic:2"), r),
    "match_library": lambda r: match_library(r, [parse_group_spec("cyclic:2")]),
    "discover_sequential": discover_sequential,
}


@pytest.mark.parametrize("call", sorted(_SCALE_CALLS))
@pytest.mark.parametrize("scale, word", [(1e300, "large"), (1e-300, "small")])
def test_scale_outside_float64_rejected(call, scale, word):
    # the Frobenius norm overflows or underflows although every entry is a
    # finite nonzero float64; no call may return nan or mistake R for zero
    with pytest.raises(InputError, match=f"matrix scale is too {word}"):
        _SCALE_CALLS[call](np.diag([scale, 2 * scale]))


# (input, error, message) of each call on NaN, wrong-degree and zero input,
# as the checks gave them before discovery validated R once per call
_BAD_INPUT = {
    "residual_delta": [
        (np.array([[np.nan, 0], [0, 1]]), NumericError, "non-finite"),
        (np.eye(3), DimensionError, "permutation degree does not match the matrix"),
        (np.zeros((2, 2)), UndefinedResidualError, "residual is undefined for the zero matrix"),
    ],
    "coloring_alpha": [
        (np.array([[np.nan, 0], [0, 1]]), NumericError, "non-finite"),
        (np.eye(3), DimensionError, "matrix shape does not match the action degree"),
        (np.zeros((2, 2)), UndefinedResidualError, "alpha is undefined for the zero matrix"),
    ],
    "match_library": [
        (np.array([[np.nan, 0], [0, 1]]), NumericError, "non-finite"),
        (np.zeros((2, 2)), UndefinedResidualError, "residual is undefined for the zero matrix"),
    ],
}


@pytest.mark.parametrize("call, case", [
    (call, k) for call, cases in sorted(_BAD_INPUT.items()) for k in range(len(cases))
])
def test_bad_input_rejected(call, case):
    r, error, message = _BAD_INPUT[call][case]
    with pytest.raises(error, match=message):
        _SCALE_CALLS[call](r)


_MATRIX_CALLS = {
    **_SCALE_CALLS,
    "reynolds_project": lambda r: reynolds_project(r, parse_group_spec("cyclic:2")),
    "subspace_match": lambda r: subspace_match(r, dft_matrix(2)),
    "herm_eig": herm_eig,
}


@pytest.mark.parametrize("call", sorted(_MATRIX_CALLS))
@pytest.mark.parametrize("r, error", [
    (np.ones((2, 3)), DimensionError),
    (np.array([[np.nan, 0], [0, 1]]), NumericError),
], ids=["non-square", "nan"])
def test_one_validator_per_matrix_entry_point(call, r, error):
    # every entry point validates R through as_cmatrix, so a fault raises
    # the same class whichever call is handed it
    with pytest.raises(error):
        _MATRIX_CALLS[call](r)


def test_match_library_skips_wrong_degrees_before_any_check_of_r():
    # a library with no action of R's degree warns on each entry and raises
    # nothing, even for the zero matrix
    for r in (np.eye(3), np.zeros((3, 3))):
        report = match_library(r, [parse_group_spec("cyclic:2"), parse_group_spec("cyclic:4")])
        assert report.matches == ()
        assert report.warnings == (
            "skipped cyclic:2: degree 2 does not match the matrix degree 3",
            "skipped cyclic:4: degree 4 does not match the matrix degree 3",
        )


# Degree-8 catalog families: the seven of the benchmark plus a product.
_CATALOG8 = (
    "cyclic:8", "dihedralM:8", "boolean:3", "dyadic-wreath:3", "hybrid:2,4",
    "wreath:4s,2c", "wreath:2s,4c", "product:(cyclic:2,cyclic:4)",
)


class TestClosureAgainstOracle:
    @pytest.mark.parametrize("spec, seed", [
        # the first five stopped on a proper subgroup under the former
        # double-commutator search
        ("dyadic-wreath:3", 1),  # 64 of 128
        ("hybrid:2,4", 2),  # 192 of 384
        ("wreath:4s,2c", 2),  # 192 of 384
        ("wreath:2s,4c", 13),  # 16 of 32
        ("dihedralM:8", 13),  # 8 of 16
        ("product:(cyclic:2,cyclic:4)", 1),
    ])
    def test_closure_equals_brute_force(self, spec, seed):
        r = sample_invariant_cov(parse_group_spec(spec), seed)
        result = discover_sequential(r)
        assert discovered_closure(result, 8) == brute_force_matched_group(r), result.stop_reason

    @pytest.mark.parametrize("seed", range(1, 6))
    @pytest.mark.parametrize("spec", _CATALOG8)
    def test_catalog_seeds(self, spec, seed):
        r = sample_invariant_cov(parse_group_spec(spec), seed)
        result = discover_sequential(r)
        oracle = brute_force_matched_group(r)
        assert result.stop_reason == "complete"
        assert discovered_closure(result, 8) == oracle
        assert result.group_order == len(oracle)
        assert all(d <= 1e-8 for d in result.residuals)

    @pytest.mark.parametrize("spec", [
        "dyadic-wreath:4", "dyadic-wreath:5", "dyadic-wreath:6", "hybrid:4,4",
        "hybrid:8,8", "wreath:3s,3s,2c", "boolean:6", "dihedralM:64",
    ])
    def test_order_above_degree_8_equals_sympy(self, spec):
        combinatorics = pytest.importorskip("sympy.combinatorics")

        def sympy_order(perms):
            return combinatorics.PermutationGroup(
                [combinatorics.Permutation(list(p.images)) for p in perms]).order()

        action = parse_group_spec(spec)
        r = sample_invariant_cov(action, 1)
        result = discover_sequential(r, enumeration_cap=10**30)
        assert result.stop_reason == "complete"
        expected = sympy_order(action.generators)
        assert result.group_order == expected
        assert sympy_order(result.generators) == expected
        assert all(d <= 1e-8 for d in result.residuals)

    def test_noise(self):
        # Hermitian noise of relative norm 1e-7, tau = 100 times that
        exact = sample_invariant_cov(parse_group_spec("dyadic-wreath:3"), 1)
        rng = np.random.default_rng(1)
        noise = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        noise = noise + noise.conj().T
        noise *= 1e-7 * np.linalg.norm(exact) / np.linalg.norm(noise)
        result = discover_sequential(exact + noise, tau=1e-5)
        assert result.stop_reason == "complete"
        assert discovered_closure(result, 8) == brute_force_matched_group(exact)
        assert all(d <= 1e-5 for d in result.residuals)


class TestRandomGroups:
    """Discovery on groups outside every catalog family: the closure of
    the discovered generators is the brute-force matched group of one
    invariant sample.  That group is the 2-closure of G, which can be
    larger than G, so the oracle is the brute force, not G."""

    @staticmethod
    def check(action):
        r = sample_invariant_cov(action, 5)
        result = discover_sequential(r)
        oracle = brute_force_matched_group(r)
        assert result.stop_reason == "complete"
        assert discovered_closure(result, action.degree) == oracle
        assert result.group_order == len(oracle)
        assert result.order_exceeded_cap == (len(oracle) > 10**4)

    @given(st.integers(2, 7), st.integers(1, 3), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_closure_is_the_brute_force_group(self, m, k, seed):
        self.check(random_action(m, k, seed))

    @pytest.mark.parametrize("k, seed", [(1, 5), (2, 3), (2, 0)])
    def test_degree_8(self, k, seed):
        # (2, 0) generates S_8, past the enumeration cap
        self.check(random_action(8, k, seed))


def colour_partition(r: np.ndarray, tau: float) -> tuple:
    """R's colour classes at gap tau (`_edge_colours`), numbered as
    PairOrbitPartition numbers orbits: (ids, count, transpose), ids by first
    appearance in a row-major scan, transpose[c] the class of the transpose
    of class c's first pair."""
    colours = discovery._edge_colours(r, tau)
    _, first, inverse = np.unique(colours, return_index=True, return_inverse=True)
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(first.size)
    ids = rank[inverse].reshape(colours.shape)
    return ids, first.size, ids.T.ravel()[np.sort(first)]


_ORACLE_ACTIONS = catalog_actions() + [parse_group_spec(spec) for spec in (
    "cyclic:64", "dihedral:32", "dihedralM:64", "boolean:6", "dyadic-wreath:6",
    "wreath:4s,4c,4c", "hybrid:8,8", "product:(cyclic:4,dyadic-wreath:4)")]


class TestColourPartitionOracle:
    """A complete stop's generators have R's colour classes as their pair
    orbits: an invariant sample is coloured by its orbitals, and the
    search returns the group of every colour-preserving permutation."""

    @pytest.mark.parametrize("action", _ORACLE_ACTIONS + [
        relabel(a, 1) for a in _ORACLE_ACTIONS
    ] + [
        random_action(7, 2, 1), random_action(8, 1, 5), hamming_action(4), hamming_action(7),
        johnson_action(6), johnson_action(16),
    ], ids=lambda a: a.name)
    def test_pair_orbits_are_the_colour_classes(self, action):
        m, tau = action.degree, 1e-8
        r = sample_invariant_cov(action, 3)
        result = discover_sequential(r, tau=tau)
        assert result.stop_reason == "complete"
        orbits = pair_orbits(from_generators(
            result.generators or (Permutation.identity(m),), "discovered"))
        ids, count, transpose = colour_partition(r, tau)
        assert orbits.orbit_count == count
        assert np.array_equal(orbits.orbit_id, ids)
        assert np.array_equal(orbits.transpose, transpose)


class TestTrace:
    def test_one_record_per_base_level(self):
        r = sample_invariant_cov(parse_group_spec("wreath:4s,2c"), 2)
        result = discover_sequential(r)
        assert result.trace
        assert math.prod(level.orbit_length for level in result.trace) == result.group_order
        assert sum(level.leaves for level in result.trace) == result.iterations
        assert all(level.nodes >= level.leaves >= 0 and level.seconds >= 0.0
                   for level in result.trace)
        assert all(1 <= level.orbit_length <= level.cell_size for level in result.trace)
        points = [level.point for level in result.trace]
        assert len(set(points)) == len(points)

    def test_saturated_levels_above_are_unsearched(self, monkeypatch):
        monkeypatch.setattr(discovery, "LEAVES_PER_POINT", 0.25)
        result = discover_sequential(np.eye(4))
        assert [level.point for level in result.trace] == [0, 1, 2]
        assert [level.cell_size for level in result.trace] == [4, 3, 2]
        assert [level.orbit_length for level in result.trace] == [1, 1, 2]
        assert result.trace[0].nodes == 0 and result.trace[0].leaves == 0


@st.composite
def _integer_hermitian(draw):
    # small-integer entries give many equal edge colours; a circulant gives
    # non-trivial cells, which individualization then splits
    m = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.integers(-2, 3, (2, m, m))
    a = values[0] + 1j * values[1] if draw(st.booleans()) else values[0].astype(float)
    if draw(st.booleans()):
        a = a[0][(np.arange(m)[None, :] - np.arange(m)[:, None]) % m]
    return a + a.conj().T, rng.permutation(m), draw(st.sampled_from([1e-8, 0.2, 0.5]))


def _searched_fields(result: DiscoveryResult) -> DiscoveryResult:
    # every field but the seconds of each search level
    levels = tuple(dataclasses.replace(level, seconds=0.0) for level in result.trace)
    return dataclasses.replace(result, trace=levels)


class TestRowSignatures:
    """R is symmetrized exactly, so a vertex's row pairs fix its column
    pairs: refining on the rows alone, with raw edge codes and one byte-row
    sort, gives the ranks of the reference that signs both halves."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_row_ranks_equal_lexsort_ranks(self, rows, width, seed):
        # values up to 2^60 with repeated rows and columns: the byte order
        # must rank as the numbers compare, not as their low bytes do
        rng = np.random.default_rng(seed)
        sig = rng.integers(0, 2 ** int(rng.integers(1, 61)), (rows, width))
        sig = sig[rng.integers(0, rows, rows)][:, rng.integers(0, width, width)]
        assert np.array_equal(discovery._row_ranks(sig), reference_row_ranks(sig))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 40), st.integers(512, 1100), st.integers(0, 2**32 - 1))
    def test_wide_row_ranks_equal_lexsort_ranks(self, rows, width, seed):
        # rows as wide as a refinement signature at M >= 512, equal but for
        # one late column, so the rank turns on bytes far into the row
        rng = np.random.default_rng(seed)
        sig = np.repeat(rng.integers(0, 2**60, (1, width)), rows, axis=0)
        late = rng.integers(0, 2**60, 3)[rng.integers(0, 3, rows)]
        sig[:, -int(rng.integers(1, width + 1))] = late
        assert np.array_equal(discovery._row_ranks(sig), reference_row_ranks(sig))

    def test_single_point(self):
        edges = discovery._edge_colours(np.array([[2.0 + 0j]]), 1e-8)
        assert np.array_equal(discovery._row_ranks(np.array([[7, 1]])), [0])
        assert np.array_equal(discovery._refine(edges, np.zeros(1, dtype=np.int64)), [0])
        result = discover_sequential(np.array([[2.0]]))
        assert result.stop_reason == "complete" and result.group_order == 1
        assert result.generators == () and result.trace == ()

    @settings(max_examples=150, deadline=None)
    @given(_integer_hermitian())
    def test_refine_equals_reference(self, case):
        r, s, tau = case
        for matrix in (r, r[np.ix_(s, s)]):
            edges = discovery._edge_colours(_check_hermitian(matrix), tau)
            dense = reference_edge_colours(_check_hermitian(matrix), tau)
            _, start = np.unique(np.diagonal(edges), return_inverse=True)
            colours = reference_refine(dense, start)
            assert np.array_equal(discovery._refine(edges, start), colours)
            for v in range(0, matrix.shape[0], 3):
                split = discovery._individualize(colours, v)
                assert np.array_equal(discovery._refine(edges, split),
                                      reference_refine(dense, split))

    def test_individualize_keeps_ranks_dense(self):
        # a vertex's cell splits into the rest of the cell and, right after
        # it, the vertex; a singleton cell is left as it is, leaving no rank unused
        assert discovery._individualize(np.array([1, 0, 1]), 0).tolist() == [2, 0, 1]
        assert discovery._individualize(np.array([2, 0, 1]), 0).tolist() == [2, 0, 1]
        assert discovery._individualize(np.array([0, 1, 1, 2]), 3).tolist() == [0, 1, 1, 2]

    @pytest.mark.parametrize("action", [
        *catalog_actions(), *(parse_group_spec(spec) for spec in (
            "cyclic:64", "dihedralM:32", "boolean:6", "dyadic-wreath:6", "hybrid:8,8",
            "wreath:4s,4c,4c")),
    ], ids=lambda a: a.name)
    def test_search_equals_reference_search(self, action, monkeypatch):
        for copy in (action, relabel(action, 1), relabel(action, 2)):
            r = sample_invariant_cov(copy, 3)
            result = discover_sequential(r)
            with monkeypatch.context() as patch:
                patch.setattr(discovery, "_edge_colours", reference_edge_colours)
                patch.setattr(discovery, "_refine", reference_refine)
                expected = discover_sequential(r)
            assert _searched_fields(result) == _searched_fields(expected)


class TestMatchLibrary:
    def library(self, m):
        return [
            make_trivial(m),
            make_cyclic(m),
            make_dihedral(m, degree_m=True),
        ]

    def test_complex_circulant_ranks_cyclic_first(self):
        r = sample_invariant_cov(make_cyclic(8), seed=1)
        report = match_library(r, self.library(8))
        assert report.matches[0].name == "cyclic:8"
        assert report.matches[0].score <= 1e-12
        by_name = {e.name: e for e in report.matches}
        assert by_name["dihedralM:8"].score > 1e-6
        assert not report.warnings

    def test_real_symmetric_circulant_prefers_dihedral(self):
        r = sample_invariant_cov(make_cyclic(8), seed=2)
        r = ((r + r.T) / 2.0).real
        report = match_library(r, self.library(8))
        assert report.matches[0].name == "dihedralM:8"
        assert report.matches[0].score <= 1e-10
        assert report.matches[1].name == "cyclic:8"

    def test_identity_prefers_largest_order(self):
        report = match_library(np.eye(6), self.library(6))
        assert all(e.score <= 1e-14 for e in report.matches)
        orders = [e.group_order for e in report.matches]
        assert orders == sorted(orders, reverse=True)
        assert report.matches[0].name == "dihedralM:6"

    def test_degree_mismatch_warns_and_skips(self):
        r = sample_invariant_cov(make_cyclic(4), seed=1)
        report = match_library(r, [make_cyclic(4), make_cyclic(5)])
        assert len(report.matches) == 1
        assert len(report.warnings) == 1
        assert "degree 5" in report.warnings[0]

    def test_alpha_reported(self):
        r = sample_invariant_cov(make_cyclic(4), seed=1)
        report = match_library(r, [make_cyclic(4), make_trivial(4)])
        by_name = {e.name: e for e in report.matches}
        assert by_name["cyclic:4"].alpha == pytest.approx(1.0, abs=1e-9)
        assert by_name["trivial:4"].alpha == pytest.approx(1.0, abs=1e-12)

    def test_empty_library_rejected(self):
        with pytest.raises(DimensionError):
            match_library(np.eye(3), [])

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matched_transforms import (
    DimensionError,
    GroupAction,
    InputError,
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
    random_psd,
    reynolds_project,
    transforms,
)

from matched_transforms import groups
from matched_transforms.groups import (
    _BLOCK_CANDIDATES,
    _affine_coordinates,
    _blocks_hold_one_label,
    _character_orbits,
    _hook_and_compress,
    _linear_parts,
    _minimal_block,
    _proposal,
    _regular_abelian_coordinates,
    _smith_form,
    _wreath_splits,
)

from helpers import (
    affine_line, catalog_actions, closure_set, compose, every_node_generators, hamming_action,
    hybrid_generators, images_of, is_invariant, johnson_action, permutation_matrix, random_action, reader_of,
    relabel, traced_peak,
)

CATALOG = catalog_actions()


def first_appearance_ids(reps, m):
    """Label equal representatives by first appearance in a row-major scan."""
    ids = {}
    return np.array([ids.setdefault(int(x), len(ids)) for x in reps]).reshape(m, m)


def closure_pair_orbit_ids(action):
    """Reference orbit ids from the enumerated group: the orbit of (i, j) is
    {(g(i), g(j)) : g in G}, represented by its smallest pair index."""
    m = action.degree
    imgs = np.array([g.images for g in closure_set(action)])
    reps = (imgs[:, :, None] * m + imgs[:, None, :]).min(axis=0).ravel()
    return first_appearance_ids(reps, m)


def scipy_pair_orbit_ids(action):
    """Reference orbit ids from scipy's weak connected components of the
    pair graph (every pair joined to its image under every generator)."""
    sparse = pytest.importorskip("scipy.sparse")
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    m = action.degree
    n = m * m
    idx = np.arange(n)
    dst = np.concatenate([
        (np.asarray(g.images)[:, None] * m + np.asarray(g.images)[None, :]).ravel()
        for g in action.generators
    ])
    src = np.tile(idx, len(action.generators))
    graph = sparse.coo_matrix((np.ones(src.size), (src, dst)), shape=(n, n))
    _, labels = csgraph.connected_components(graph, directed=True, connection="weak")
    return first_appearance_ids(labels, m)


@st.composite
def generator_sets(draw):
    """1-4 generators of degree <= 12: identities, arbitrary permutations and
    single cycles through every point in a drawn order."""
    m = draw(st.integers(1, 12))
    gens = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["identity", "permutation", "long-cycle"]))
        if kind == "identity":
            images = list(range(m))
        elif kind == "permutation":
            images = draw(st.permutations(range(m)))
        else:
            order = draw(st.permutations(range(m)))
            images = [0] * m
            for a, b in zip(order, order[1:] + order[:1]):
                images[a] = b
        gens.append(Permutation(images))
    return from_generators(gens, "drawn")


class TestPermutation:
    def test_identity_matrix(self):
        assert np.array_equal(permutation_matrix(Permutation.identity(3)).real, np.eye(3))

    def test_swap_matrix(self):
        p = Permutation((1, 0))
        assert np.array_equal(permutation_matrix(p).real, np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_cycle_matrix_column_rule(self):
        # 0 -> 1 -> 2 -> 0: P e_j = e_{images[j]}
        p = Permutation((1, 2, 0))
        mat = permutation_matrix(p).real
        assert mat[1, 0] == 1 and mat[2, 1] == 1 and mat[0, 2] == 1
        assert np.sum(mat) == 3

    def test_matrix_exactly_unitary(self):
        p = Permutation((3, 1, 0, 2))
        mat = permutation_matrix(p)
        assert np.array_equal(mat.conj().T @ mat, np.eye(4).astype(complex))

    def test_rejects_non_bijection(self):
        with pytest.raises(InputError):
            Permutation((0, 0, 1))

    def test_rejects_non_integer_images(self):
        # truncated, these would pass as the identity of degree 2
        with pytest.raises(InputError):
            Permutation([0.5, 1.7])

    def test_rejects_two_dimensional_array(self):
        with pytest.raises(InputError):
            Permutation(np.array([[0, 1], [1, 0]]))

    def test_equal_and_hash_across_input_types(self):
        swap = (1, 0, 2, 3)
        cycle = Permutation((1, 2, 3, 0))
        forms = [
            Permutation(list(swap)),
            Permutation(swap),
            compose(Permutation(range(4)), Permutation(swap)),
            Permutation(swap).inverse(),
            compose(compose(cycle, cycle.inverse()), Permutation(swap)),
        ] + [Permutation(np.array(swap, dtype=dt)) for dt in (np.uint8, np.int32, np.int64)]
        for p in forms:
            assert p == forms[0] and hash(p) == hash(forms[0])
        assert Permutation(range(4)) == Permutation.identity(4) == compose(cycle, cycle.inverse())
        assert hash(Permutation(range(4))) == hash(compose(cycle.inverse(), cycle))
        assert cycle != forms[0] and cycle != cycle.images

    def test_images_are_python_ints(self):
        for p in (Permutation(np.array([2, 0, 1], dtype=np.uint8)),
                  Permutation((2, 0, 1)).inverse()):
            assert type(p.images) is tuple
            assert all(type(i) is int for i in p.images)
            assert type(p(0)) is int

    def test_array_is_int64_and_read_only(self):
        source = np.array([2, 0, 1], dtype=np.int32)
        p = Permutation(source)
        source[0] = 0  # the constructor keeps its own copy
        for q in (p, p.inverse(), compose(p, p), Permutation.identity(3)):
            arr = q.as_array()
            assert arr.dtype == np.int64
            with pytest.raises(ValueError):
                arr[0] = 1
        assert p.images == (2, 0, 1)

    def test_cycle_string(self):
        assert Permutation.identity(4).cycle_string() == "()"
        assert Permutation((1, 2, 0, 3)).cycle_string() == "(0 1 2)"
        assert Permutation((1, 0, 3, 2)).cycle_string() == "(0 1)(2 3)"

    @settings(max_examples=50, deadline=None)
    @given(st.permutations(list(range(6))), st.permutations(list(range(6))))
    def test_compose_matches_matrix_product(self, a, b):
        pa, pb = Permutation(tuple(a)), Permutation(tuple(b))
        lhs = permutation_matrix(compose(pa, pb))
        assert np.array_equal(lhs, permutation_matrix(pa) @ permutation_matrix(pb))

    @settings(max_examples=50, deadline=None)
    @given(st.permutations(list(range(7))))
    def test_inverse(self, a):
        p = Permutation(tuple(a))
        assert compose(p, p.inverse()).is_identity()
        assert compose(p.inverse(), p).is_identity()


class TestParsePermutation:
    def test_image_list(self):
        assert parse_permutation("1 0 2").images == (1, 0, 2)

    def test_cycles_with_degree(self):
        p = parse_permutation("(0 1)(2 3)", degree=5)
        assert p.images == (1, 0, 3, 2, 4)

    def test_cycle_roundtrip(self):
        p = Permutation((2, 0, 1, 4, 3))
        assert parse_permutation(p.cycle_string(), degree=5) == p

    def test_identity_cycles(self):
        assert parse_permutation("()", degree=3).is_identity()

    def test_bad_input(self):
        with pytest.raises(InputError):
            parse_permutation("(0 1")
        with pytest.raises(InputError):
            parse_permutation("0 0 1")

    @pytest.mark.parametrize("text, point", [
        ("(0 1)(0 1)", 0), ("(0 1 2)(2 1 0)", 2), ("(0 1)(1 2)", 1), ("(2)(1 2)", 2),
        ("(0 1 0)", 0),
    ])
    def test_cycles_must_be_disjoint(self, text, point):
        # a product of cycles that share a point is not read as one
        # permutation: the first point seen again is named
        with pytest.raises(InputError, match=rf"point {point} appears twice"):
            parse_permutation(text, degree=3)

    @pytest.mark.parametrize("text", ["(a b)", "1,x", "0 1.5"])
    def test_non_integer_entries(self, text):
        with pytest.raises(InputError, match="must be integers"):
            parse_permutation(text, degree=3)


class TestConstructors:
    def test_cyclic_m1(self):
        act = make_cyclic(1)
        assert act.degree == 1 and act.generators[0].is_identity()

    def test_cyclic_shift_images(self):
        assert make_cyclic(4).generators[0].images == (1, 2, 3, 0)

    def test_cyclic_closure_order(self):
        assert closure_enumerate(make_cyclic(6), cap=100).count == 6

    def test_dihedral_reflection_images(self):
        act = make_dihedral(2)
        sigma = act.generators[1]
        assert sigma.images == (3, 2, 1, 0)

    def test_dihedral_closure_order_4m(self):
        # full dihedral group of the 2M-cycle: order 4M
        assert closure_enumerate(make_dihedral(2), cap=100).count == 8
        assert closure_enumerate(make_dihedral(6), cap=100).count == 24

    def test_dihedral_degree_m_variant(self):
        act = make_dihedral(3, degree_m=True)
        assert act.degree == 3
        assert closure_enumerate(act, cap=100).count == 6

    def test_boolean_n1(self):
        act = make_boolean(1)
        assert act.degree == 2 and act.generators[0].images == (1, 0)

    def test_boolean_xor_images(self):
        assert make_boolean(2).generators[0].images == (1, 0, 3, 2)

    def test_boolean_closure_order(self):
        assert closure_enumerate(make_boolean(3), cap=100).count == 8

    def test_dyadic_wreath_l1(self):
        act = make_dyadic_wreath(1)
        assert act.degree == 2 and len(act.generators) == 1

    def test_dyadic_wreath_l2_order(self):
        act = make_dyadic_wreath(2)
        assert len(act.generators) == 2
        assert closure_enumerate(act, cap=1000).count == 8

    def test_dyadic_wreath_generator_count(self):
        # one swap per level, that of its leftmost node
        assert len(make_dyadic_wreath(5).generators) == 5

    @pytest.mark.parametrize("spec", [f"dyadic-wreath:{l}" for l in range(1, 11)] + [
        "wreath:4s,2c", "wreath:2s,4c", "wreath:3s,2c", "wreath:3c,2s,3c", "wreath:4c,4c,4c,4c",
        "wreath:4c,4c,4c,4c,4c", "wreath:4s,4s,4s,4s", "wreath:3s,3s", "hybrid:2,2",
        "hybrid:4,3", "hybrid:3,4", "hybrid:2,5", "hybrid:16,16", "hybrid:8,32"])
    def test_leftmost_node_generators_give_the_every_node_group(self, spec):
        # H wr K is generated by K's generators and H's on one block, and
        # S_k by a k-cycle and a swap of neighbours in it, so each level's
        # leftmost node, its block rotation plus one block swap at a
        # symmetric node with k > 2, generates what every node's generators
        # do: the same pair orbits, and the same group where it can be
        # listed.  A hybrid is held to its three generators listed leaf
        # level first as well
        head, levels = spec.split(":")
        if head == "dyadic-wreath":
            branching = [(2, "cyclic")] * int(levels)
        elif head == "hybrid":
            w, k = (int(x) for x in levels.split(","))
            branching = [(k, "symmetric"), (w, "cyclic")]
        else:
            branching = [(int(e[:-1]), {"c": "cyclic", "s": "symmetric"}[e[-1]])
                         for e in levels.split(",")]
        action = parse_group_spec(spec)
        references = [from_generators(every_node_generators(branching), spec)]
        if head == "hybrid":
            references.append(from_generators(hybrid_generators(w, k), spec))
        assert len(action.generators) == sum(1 + (kind == "symmetric" and k > 2)
                                             for k, kind in branching)
        ours = pair_orbits(action)
        for reference in references:
            theirs = pair_orbits(reference)
            assert ours.orbit_count == theirs.orbit_count
            assert ours.orbit_id.tobytes() == theirs.orbit_id.tobytes()
            assert ours.transpose.tobytes() == theirs.transpose.tobytes()
            if action.degree <= 16:
                assert closure_set(action) == closure_set(reference)

    @pytest.mark.parametrize("spec, count", [
        ("wreath:4s,4s,4s,4s,4s,4s", 12), ("wreath:256s,16c", 3), ("wreath:2s,2s", 2),
        ("hybrid:16,256", 3), ("hybrid:5,3", 3), ("hybrid:7,2", 2), ("dihedral:1", 1),
        ("dihedralM:2", 1), ("dihedral:2", 2), ("dihedralM:3", 2)])
    def test_generator_counts(self, spec, count):
        # one block rotation per level, one more block swap per symmetric
        # level with k > 2; on 2 points the dihedral shift is its reflection
        assert len(parse_group_spec(spec).generators) == count

    @pytest.mark.parametrize("w, k", [(2, 2), (3, 2), (4, 3), (2, 5), (16, 16), (64, 64)])
    def test_hybrid_is_the_wreath_of_its_blocks(self, w, k):
        # hybrid:W,K is wreath:Ks,Wc under another name: the same generators
        # in the same order, the hybrid's three permutations root first
        hybrid, wreath = parse_group_spec(f"hybrid:{w},{k}"), parse_group_spec(f"wreath:{k}s,{w}c")
        assert hybrid.name == f"hybrid:{w},{k}" and hybrid.degree == wreath.degree == w * k
        assert hybrid.generators == wreath.generators
        shift0, swap01, cycle = hybrid_generators(w, k)
        assert hybrid.generators == ((cycle, swap01, shift0) if k > 2 else (cycle, shift0))
        assert (swap01 == cycle) == (k == 2)

    @pytest.mark.parametrize("m", [1, 2, 3, 8, 2048])
    def test_dihedral_is_dihedral_m_on_twice_the_points(self, m):
        dihedral, doubled = parse_group_spec(f"dihedral:{m}"), parse_group_spec(f"dihedralM:{2 * m}")
        assert dihedral.name == f"dihedral:{m}" and dihedral.degree == 2 * m
        assert dihedral.generators == doubled.generators

    def test_catalog_generators_are_distinct(self):
        # no catalog constructor lists one permutation twice; products are
        # left out, since a trivial factor lifts its identity generator
        specs = [f"{head}:{m}" for head in ("trivial", "cyclic", "dihedral") for m in (1, 2, 3, 8)]
        specs += [f"dihedralM:{m}" for m in (2, 3, 4, 9)]
        specs += [f"boolean:{n}" for n in (1, 2, 5)] + [f"dyadic-wreath:{l}" for l in (1, 2, 5)]
        specs += [f"hybrid:{w},{k}" for w in (2, 3, 5) for k in (2, 3, 4)]
        specs += ["wreath:2s", "wreath:3s", "wreath:2s,2s", "wreath:4s,2s,3c", "wreath:2c,5s",
                  "wreath:3c,3c", "wreath:4s,4s,4s"]
        for spec in specs:
            gens = parse_group_spec(spec).generators
            assert len(set(gens)) == len(gens), spec

    @pytest.mark.parametrize("level", [1, 2, 3, 4])
    def test_dyadic_wreath_order_formula(self, level):
        cap = 1 << (1 << level)
        res = closure_enumerate(make_dyadic_wreath(level), cap=cap)
        assert res.count == 2 ** (2**level - 1)

    @pytest.mark.parametrize("make", [make_boolean, make_dyadic_wreath])
    def test_huge_exponent_rejected_before_building(self, make):
        # 2^(10^16) points: neither 2^n nor an n-long level list can be built
        with pytest.raises(InputError, match="outside"):
            make(10**16)

    def test_dyadic_wreath_l5_overflow(self):
        res = closure_enumerate(make_dyadic_wreath(5), cap=10**6)
        assert res.overflowed and res.count > 10**6

    def test_wreath_single_level_is_dyadic(self):
        a = make_wreath([(2, "cyclic")])
        b = make_dyadic_wreath(1)
        assert [g.images for g in a.generators] == [g.images for g in b.generators]

    def test_wreath_two_level_order(self):
        assert closure_enumerate(make_wreath([(2, "cyclic"), (2, "cyclic")]), cap=100).count == 8

    def test_wreath_symmetric_pair_orbits(self):
        assert pair_orbits(make_wreath([(3, "symmetric"), (2, "symmetric")])).orbit_count == 3

    def test_hybrid_small_order(self):
        act = make_hybrid(2, 2)
        assert act.degree == 4
        assert closure_enumerate(act, cap=100).count == 8

    def test_hybrid_paper_parameters(self):
        act = make_hybrid(8, 4)
        assert act.degree == 32 and len(act.generators) == 3

    def test_hybrid_pair_orbits(self):
        assert pair_orbits(make_hybrid(4, 3)).orbit_count == 5

    def test_hybrid_closure_order(self):
        # |Z_W wreath S_K| = W^K * K!
        assert closure_enumerate(make_hybrid(4, 3), cap=10**4).count == 4**3 * 6

    def test_product_trivial_blocks(self):
        act = make_product(make_trivial(2), make_cyclic(3))
        images = act.generators[-1].images
        assert images == (1, 2, 0, 4, 5, 3)

    def test_product_closure_order(self):
        assert closure_enumerate(make_product(make_cyclic(2), make_cyclic(2)), cap=10).count == 4

    def test_product_pair_orbits(self):
        act = make_product(make_cyclic(3), make_cyclic(4))
        assert pair_orbits(act).orbit_count == 12

    def test_from_generators_trivial(self):
        act = from_generators([Permutation.identity(4)], "t")
        assert closure_enumerate(act, cap=10).count == 1

    def test_from_generators_cycle(self):
        act = from_generators([Permutation((1, 2, 3, 4, 0))], "c5")
        assert closure_set(act) == closure_set(make_cyclic(5))

    def test_from_generators_degree_mismatch(self):
        with pytest.raises(InputError):
            from_generators([Permutation((1, 0)), Permutation((0, 1, 2))], "bad")

    def test_generators_are_bijections(self):
        for act in CATALOG:
            for g in act.generators:
                assert sorted(g.images) == list(range(act.degree))


class TestPairOrbits:
    def test_trivial_all_singletons(self):
        part = pair_orbits(make_trivial(3))
        assert part.orbit_count == 9

    def test_dyadic_wreath_three_levels(self):
        assert pair_orbits(make_dyadic_wreath(3)).orbit_count == 4

    @pytest.mark.parametrize("level", [1, 2, 4, 5, 6])
    def test_dyadic_wreath_l_plus_1(self, level):
        assert pair_orbits(make_dyadic_wreath(level)).orbit_count == level + 1

    def test_cyclic_lag_classes(self):
        part = pair_orbits(make_cyclic(5))
        assert part.orbit_count == 5
        lag = (np.arange(5)[None, :] - np.arange(5)[:, None]) % 5
        # same lag iff same orbit
        for a in range(5):
            ids = part.orbit_id[lag == a]
            assert len(set(ids.tolist())) == 1

    def test_orbit_ids_first_appearance_order(self):
        part = pair_orbits(make_cyclic(4))
        seen = []
        for i in range(4):
            for j in range(4):
                v = int(part.orbit_id[i, j])
                if v not in seen:
                    seen.append(v)
        assert seen == list(range(part.orbit_count))

    def test_peak_memory(self):
        # 1 MiB of orbit ids: the pairs are joined a chunk at a time over
        # M labels, never as edge lists over all M^2 pairs
        act = make_dyadic_wreath(9)
        _, peak = traced_peak(lambda: pair_orbits(act))
        assert peak <= 16 * 2**20

    def test_orbit_ids_are_int32(self):
        # ids stay below MAX_DEGREE^2 < 2^31; int32 halves what synthesis
        # holds through its eigendecomposition
        assert pair_orbits(make_cyclic(4)).orbit_id.dtype == np.int32

    @pytest.mark.parametrize("act", CATALOG, ids=lambda a: a.name)
    def test_transpose_by_brute_force(self, act):
        part = pair_orbits(act)
        ids = part.orbit_id
        for i in range(act.degree):
            for j in range(act.degree):
                assert part.transpose[ids[i, j]] == ids[j, i]
        # self-paired iff every orbit is its own transpose
        self_paired = np.array_equal(part.transpose, np.arange(part.orbit_count))
        assert self_paired == np.array_equal(ids, ids.T)

    @pytest.mark.parametrize("spec, self_paired", [
        ("boolean:3", True), ("dyadic-wreath:4", True), ("dihedral:4", True),
        ("dihedralM:5", True), ("dihedralM:6", True), ("wreath:3s,2c", True),
        ("hybrid:2,4", True),
        ("cyclic:6", False), ("cyclic:3", False), ("hybrid:4,3", False),
        ("product:(cyclic:3,cyclic:4)", False), ("product:(cyclic:3,boolean:2)", False),
        ("wreath:3c,2s", False), ("wreath:4c,3c", False), ("wreath:2c,3c", False),
    ])
    def test_self_paired_families(self, spec, self_paired):
        part = pair_orbits(parse_group_spec(spec))
        assert np.array_equal(part.transpose, np.arange(part.orbit_count)) == self_paired

    def test_orbit_count_equals_distinct_projected_values(self):
        from matched_transforms.rng import normal_rows

        for act in CATALOG:
            if act.degree > 64:
                continue
            n = act.degree
            generic = normal_rows(13, n, n + (n % 2)).astype(float)[:, :n]
            proj = reynolds_project(generic, act)
            distinct = len(np.unique(np.round(proj.real, 9)))
            assert distinct == pair_orbits(act).orbit_count


class TestPairOrbitOracles:
    @pytest.mark.parametrize("act", CATALOG, ids=lambda a: a.name)
    def test_matches_enumerated_closure(self, act):
        part = pair_orbits(act)
        expected = closure_pair_orbit_ids(act)
        assert np.array_equal(part.orbit_id, expected)
        assert part.orbit_count == int(expected.max()) + 1

    @pytest.mark.parametrize("m, generators", [
        (40, [[[3, 17]], [[5, 9, 30]]]),  # 35 of the 40 points fixed by both
        (24, [[], [[0, 23]]]),  # the identity next to one transposition
        (16, [[[0, 4], [1, 5], [2, 6], [3, 7]]]),  # one block swap
    ])
    def test_generators_fixing_most_points(self, m, generators):
        # most points are fixed, so there are many point orbits, each with
        # its own labels, and few joins; the enumerated closure uses no
        # Schreier tree
        gens = []
        for cycles in generators:
            images = list(range(m))
            for cycle in cycles:
                for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                    images[a] = b
            gens.append(Permutation(images))
        act = from_generators(gens, "sparse")
        part = pair_orbits(act)
        assert np.array_equal(part.orbit_id, closure_pair_orbit_ids(act))
        assert part.orbit_count == int(part.orbit_id.max()) + 1

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("act", CATALOG, ids=lambda a: a.name)
    def test_relabelled_catalog_matches_enumerated_closure(self, act, seed):
        # the Schreier trees depend on how the points are numbered; the
        # first-appearance ids and the transpose map must not
        moved = relabel(act, seed)
        part = pair_orbits(moved)
        expected = closure_pair_orbit_ids(moved)
        assert np.array_equal(part.orbit_id, expected)
        assert part.orbit_count == int(expected.max()) + 1
        assert np.array_equal(part.transpose[part.orbit_id], part.orbit_id.T)

    @pytest.mark.parametrize("spec", [
        "dyadic-wreath:6", "boolean:6", "hybrid:4,3", "wreath:3c,3s,2c",
        "product:(dihedralM:8,boolean:3)",
    ])
    def test_matches_scipy_components(self, spec):
        act = parse_group_spec(spec)
        part = pair_orbits(act)
        assert np.array_equal(part.orbit_id, scipy_pair_orbit_ids(act))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_intransitive_transpose_map(self, seed):
        # point orbits {0, 1, 2} and {3, 4}: orbit 1's first row is row 3
        act = from_generators([Permutation((1, 2, 0, 3, 4)), Permutation((0, 1, 2, 4, 3))],
                              "two-orbits")
        for a in (act, relabel(act, seed)):
            part = pair_orbits(a)
            assert np.array_equal(part.orbit_id, closure_pair_orbit_ids(a))
            assert np.array_equal(part.transpose[part.orbit_id], part.orbit_id.T)

    @pytest.mark.parametrize("m, generators", [
        (400, [[[3, 17]], [[5, 9, 30]]]),
        (384, [[[0, 100, 200]], [[1, 101]], [list(range(2, 380, 2))]]),
    ])
    def test_sparse_generators_on_many_points(self, m, generators):
        # too many pairs for one gather of every pair: each generator's
        # moved rows and the moved columns of its fixed rows are read on
        # their own, over labels offset by point orbit
        gens = []
        for cycles in generators:
            images = list(range(m))
            for cycle in cycles:
                for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                    images[a] = b
            gens.append(Permutation(images))
        act = from_generators(gens, "sparse")
        for a in (act, relabel(act, 4)):
            part = pair_orbits(a)
            assert np.array_equal(part.orbit_id, scipy_pair_orbit_ids(a))
            assert np.array_equal(part.transpose[part.orbit_id], part.orbit_id.T)

    @pytest.mark.parametrize("spec", [
        "dyadic-wreath:6", "boolean:6", "hybrid:4,3", "wreath:3c,3s,2c",
        "product:(dihedralM:8,boolean:3)", "product:(cyclic:5,trivial:3)",
        "product:(dyadic-wreath:5,trivial:3)",
    ])
    def test_relabelled_matches_scipy_components(self, spec):
        act = relabel(parse_group_spec(spec), 5)
        part = pair_orbits(act)
        assert np.array_equal(part.orbit_id, scipy_pair_orbit_ids(act))
        assert np.array_equal(part.transpose[part.orbit_id], part.orbit_id.T)

    @given(generator_sets())
    @settings(max_examples=60, deadline=None)
    def test_matches_scipy_on_drawn_generators(self, act):
        part = pair_orbits(act)
        expected = scipy_pair_orbit_ids(act)
        assert np.array_equal(part.orbit_id, expected)
        assert part.orbit_count == int(expected.max()) + 1

    @pytest.mark.parametrize("m", [2, 64, 1024])
    @pytest.mark.parametrize("shuffle", [False, True])
    def test_single_cycle_ends_in_few_rounds(self, m, shuffle):
        order = np.arange(m, dtype=np.int32)
        if shuffle:
            order = np.random.default_rng(m).permutation(order)
        labels, rounds = _hook_and_compress(m, [(order, np.roll(order, -1))])
        assert np.array_equal(labels, np.zeros(m))
        # each round at least halves the roots on a cycle; the natural order
        # hooks everything in the first round and the second finds no edge
        assert rounds <= (2 + int(np.log2(m)) if shuffle else 2)


def quaternion_action():
    """Q8 acting on itself by left multiplication: regular, not abelian.
    Element s*u is numbered 4*[s < 0] + u for u = 1, i, j, k."""
    # u * v = sign * w for the unit quaternions u, v
    table = {(0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
             (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
             (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
             (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0)}

    def left(u):
        images = []
        for x in range(8):
            sign, w = table[u, x % 4]
            images.append(w + 4 * ((sign < 0) != (x >= 4)))
        return Permutation(images)

    return from_generators([left(1), left(2)], "quaternion")


class TestRegularAbelianCoordinates:
    """Detection and coordinates of regular abelian actions in integer
    arithmetic, checked against closures, sympy and adversarial groups."""

    @pytest.mark.parametrize("rows", [
        [[6]], [[-4]], [[2, 0], [0, 3]], [[4, 0], [-2, 2]], [[2, 0], [-1, 4]],
        [[2, 0, 0], [0, 2, 0], [-1, -1, 4]], [[3, 0, 0], [-2, 5, 0], [-1, -4, 6]],
        [[0, 2], [3, 0]], [[12, 18, 6], [0, 4, -8], [5, 1, 7]],
    ])
    def test_smith_form(self, rows):
        normalforms = pytest.importorskip("sympy.matrices.normalforms")
        sympy = pytest.importorskip("sympy")
        d, v = _smith_form(rows)
        expected = normalforms.invariant_factors(sympy.Matrix(rows))
        assert d == [abs(int(x)) for x in expected]
        assert all(b % a == 0 for a, b in zip(d, d[1:]))
        assert abs(int(sympy.Matrix(v).det())) == 1
        # a v = u^-1 diag(d): column k of a v is divisible by d[k]
        av = np.array(rows, dtype=object) @ np.array(v, dtype=object)
        assert all(x % d_k == 0 for row in av.tolist() for x, d_k in zip(row, d))

    @pytest.mark.parametrize("spec, invariants", [
        ("cyclic:2", (2,)), ("cyclic:12", (12,)), ("boolean:4", (2, 2, 2, 2)),
        ("product:(cyclic:3,cyclic:4)", (12,)), ("product:(cyclic:4,cyclic:6)", (2, 12)),
        ("product:(cyclic:2,boolean:2)", (2, 2, 2)),
        ("product:(cyclic:9,product:(cyclic:3,cyclic:6))", (3, 3, 18)),
    ])
    @pytest.mark.parametrize("seed", [None, 1, 2])
    def test_coordinates(self, spec, invariants, seed):
        act = parse_group_spec(spec)
        if seed is not None:
            act = relabel(act, seed)
        m, images = act.degree, images_of(act)
        coords, d, grown = _regular_abelian_coordinates(images, m)
        # the orbit grows from at most log2(m) generators, and every
        # generator is a translation: no linear part
        assert 0 < len(grown) <= np.log2(m) and all(any(g is h for h in images) for g in grown)
        assert _linear_parts(images, coords, d, grown) == []
        assert d == invariants and int(np.prod(d)) == m
        assert not coords[0].any() and np.all((coords >= 0) & (coords < d))
        assert len({tuple(c) for c in coords.tolist()}) == m
        # every group element, not only each generator, is a translation
        for p in closure_set(act):
            shift = coords[p(0)]
            assert np.array_equal(coords[p.as_array()], (coords + shift) % d)

    @pytest.mark.parametrize("action", [
        parse_group_spec("trivial:4"), parse_group_spec("dihedralM:5"),
        parse_group_spec("dihedralM:4"), parse_group_spec("hybrid:2,2"),
        parse_group_spec("dyadic-wreath:3"), parse_group_spec("wreath:3s,2c"),
        parse_group_spec("product:(cyclic:4,trivial:2)"),
        parse_group_spec("product:(cyclic:2,dihedralM:3)"),
        quaternion_action(), relabel(quaternion_action(), 3),
    ], ids=lambda a: a.name)
    def test_rejects_other_actions(self, action):
        # not regular abelian: the orbit of 0 does not grow to every point,
        # or `_linear_parts` finds a generator that is not a translation
        images = images_of(action)
        found = _regular_abelian_coordinates(images, action.degree)
        assert found is None or _linear_parts(images, *found) != []

    @pytest.mark.parametrize("action", [quaternion_action(), relabel(quaternion_action(), 3)],
                             ids=lambda a: a.name)
    def test_only_the_translation_check_rejects_q8(self, action):
        # Q8 is regular and every orbit step succeeds on it: only the
        # check that the elements that grew the orbit are translations
        # can reject it
        images = images_of(action)
        coords, d, grown = _regular_abelian_coordinates(images, action.degree)
        assert _linear_parts(grown, coords, d, grown) is None

    @pytest.mark.parametrize("spec", ["dyadic-wreath:12", "dihedralM:4096"])
    def test_rejection_builds_no_m_by_m_array(self, spec):
        # 16 MiB is M^2 bytes at M = 4096: no M x M array of any dtype fits
        act = parse_group_spec(spec)
        images = images_of(act)

        def regular_abelian():
            found = _regular_abelian_coordinates(images, act.degree)
            return found is not None and _linear_parts(images, *found) == []

        found, peak = traced_peak(regular_abelian)
        assert not found
        assert peak < 16 * 2**20


def affine_coordinates(images: list, m: int):
    """The semidirect route's two attempts: A grown from the generators,
    then from the elements `_proposal` keeps."""
    return (_affine_coordinates(images, m, images)
            or _affine_coordinates(images, m, _proposal(images)))


class TestAffineCoordinates:
    """The semidirect route's proof, checked against enumerated closures."""

    @pytest.mark.parametrize("action", [
        parse_group_spec(spec) if seed is None else relabel(parse_group_spec(spec), seed)
        for spec in ("dihedral:4", "dihedralM:5", "dihedralM:8", "cyclic:12",
                     "product:(cyclic:3,dihedralM:4)", "product:(boolean:2,dihedral:3)")
        for seed in (None, 1, 2)
    ] + [affine_line(7, 3), affine_line(11, 2), hamming_action(3), relabel(hamming_action(3), 1)],
        ids=lambda a: a.name)
    def test_every_element_is_affine(self, action):
        m = action.degree
        coords, d, linear = affine_coordinates(images_of(action), m)
        d = np.array(d)
        assert int(np.prod(d)) == m and not coords[0].any()
        assert len({tuple(c) for c in coords.tolist()}) == m
        elements = closure_set(action)
        # every translation of A is in the group, and every element is
        # affine: x(p) has coordinates L c(p) + c(x(0)), L from the units
        perms = {p.as_array().tobytes() for p in elements}
        at = {tuple(c): p for p, c in enumerate(coords.tolist())}
        for shift in coords:
            t = np.array([at[tuple((c + shift) % d)] for c in coords.tolist()])
            assert t.tobytes() in perms
        units = [at[tuple(e)] for e in np.eye(d.size, dtype=np.int64).tolist()]
        for x in elements:
            x = x.as_array()
            lin = (coords[x[units]] - coords[x[0]]) % d
            assert np.array_equal((coords @ lin + coords[x[0]]) % d, coords[x])
        # |G| = |A| |H|, H the linear parts' closure
        assert len(elements) % m == 0

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_character_orbits_of_the_hamming_scheme(self, n):
        # S_n permutes the bits of the characters: an orbit per weight,
        # named by its smallest character
        coords, d, linear = affine_coordinates(images_of(hamming_action(n)), 1 << n)
        smallest = _character_orbits(d, linear)
        k = np.arange(1 << n)
        weight = np.bitwise_count(k)
        assert np.array_equal(smallest, (1 << weight) - 1)

    @pytest.mark.parametrize("action", [
        johnson_action(5), parse_group_spec("hybrid:4,3"), parse_group_spec("wreath:5s"),
        parse_group_spec("dyadic-wreath:3"), parse_group_spec("product:(dyadic-wreath:3,cyclic:3)"),
        parse_group_spec("product:(cyclic:4,trivial:2)"), parse_group_spec("trivial:4"),
    ], ids=lambda a: a.name)
    def test_rejects_other_actions(self, action):
        assert affine_coordinates(images_of(action), action.degree) is None

    @pytest.mark.parametrize("spec", ["dyadic-wreath:12", "hybrid:64,64"])
    def test_rejection_builds_no_m_by_m_array(self, spec):
        act = parse_group_spec(spec)
        images = images_of(act)
        found, peak = traced_peak(lambda: affine_coordinates(images, act.degree))
        assert found is None
        assert peak < 16 * 2**20

    def test_a_generator_past_the_paired_ones_fails_the_affine_check(self, monkeypatch):
        # the proposal multiplies only the first _PAIRED_GENERATORS, eight
        # copies of cyclic:8's shift, and keeps the shift and its square;
        # in both attempts the shift alone grows A = Z_8 and passes as a
        # translation, and the ninth generator, the transposition (1 2),
        # is not affine on it
        shift = images_of(make_cyclic(8))[0]
        swap = parse_permutation("(1 2)", 8).as_array()
        images = [shift] * 8 + [swap]
        assert groups._PAIRED_GENERATORS == 8
        proposed = _proposal(images)
        assert [c.tobytes() for c in proposed] == [shift.tobytes(), shift[shift].tobytes()]
        grown, results, linear_parts = [], [], groups._linear_parts

        def spied(images, coords, d, translations):
            grown.append([g.tobytes() for g in translations])
            results.append(linear_parts(images, coords, d, translations))
            return results[-1]

        monkeypatch.setattr(groups, "_linear_parts", spied)
        assert _affine_coordinates(images, 8, images) is None
        assert _affine_coordinates(images, 8, proposed) is None
        assert grown == [[shift.tobytes()]] * 2 and results == [None, None]


def proved_split(action):
    """The split the wreath route should prove: the first that the one
    attempt of `_wreath_splits` yields, with its factors' own pair
    partitions, or None.  On these actions the first split it yields is
    the proved one, so its factors' own pair orbits must give
    rank(H) + rank(K) - 1 = orbit_count, and proves() must say so."""
    orbits = pair_orbits(action)
    for points, k_images, h_images, proves in _wreath_splits(reader_of(action)):
        k_orbits, h_orbits = (pair_orbits(from_generators([Permutation(x) for x in images],
                                                          "factor"))
                              for images in (k_images, h_images))
        rank = k_orbits.orbit_count + h_orbits.orbit_count - 1
        assert rank == orbits.orbit_count and proves(rank)
        return points, k_images, k_orbits, h_images, h_orbits
    return None


class TestPartitionSplits:
    """The wreath route's block systems and its proof, checked against
    each factor's own pair orbits and the action's pair partition."""

    @pytest.mark.parametrize("action", [
        parse_group_spec(spec) if seed is None else relabel(parse_group_spec(spec), seed)
        for spec in ("dyadic-wreath:3", "dyadic-wreath:6", "wreath:3s,2c", "wreath:4c,3c",
                     "wreath:2s,4c", "hybrid:4,3", "hybrid:3,4", "wreath:3c,2s,3c")
        for seed in (None, 1, 2)
    ], ids=lambda a: a.name)
    def test_factors(self, action):
        orbits = pair_orbits(action)
        points, k_images, k_orbits, h_images, h_orbits = proved_split(action)
        b, w = points.shape
        assert np.array_equal(np.sort(points.ravel()), np.arange(action.degree))
        assert points[0, 0] == 0 and np.all(np.diff(points[0]) > 0)
        # every generator maps blocks onto blocks, and the orbitals are
        # those of H wr K
        blocks = {frozenset(r) for r in points.tolist()}
        for g in images_of(action):
            assert {frozenset(r) for r in g[points].tolist()} == blocks
        assert orbits.orbit_count == k_orbits.orbit_count + h_orbits.orbit_count - 1
        assert (k_orbits.degree, h_orbits.degree) == (b, w)
        # the route proves a split of the same rank, its factors' ranks
        # read from their own routes
        rank, _ = transforms._wreath(reader_of(action), action.name)
        assert rank == orbits.orbit_count

    @pytest.mark.parametrize("spec, width", [
        ("dyadic-wreath:4", 2), ("hybrid:4,3", 4), ("wreath:2s,4c", 4), ("hybrid:6,3", 6),
    ])
    def test_block_system_that_passes(self, spec, width):
        # hybrid:4,3 and wreath:2s,4c have blocks of 2 inside their blocks
        # of 4, which fail the block check and are never split
        assert proved_split(parse_group_spec(spec))[0].shape[1] == width

    @pytest.mark.parametrize("action", [
        parse_group_spec("dihedral:6"), parse_group_spec("dihedralM:12"),
        parse_group_spec("cyclic:12"), parse_group_spec("boolean:4"), johnson_action(6),
        parse_group_spec("product:(dyadic-wreath:2,cyclic:3)"),
        parse_group_spec("product:(cyclic:3,trivial:2)"), parse_group_spec("wreath:5s"),
    ], ids=lambda a: a.name)
    def test_rejects_other_actions(self, action):
        # the one attempt reads a transitive action's bound to its last
        # row, G_0's orbits, before it gives up
        assert proved_split(action) is None
        reader = reader_of(action)
        assert transforms._wreath(reader, action.name) is None
        m = action.degree
        transitive = reader.tree[2].count(-1) == 1
        composite = any(m % w == 0 for w in range(2, m))
        assert reader.done == (m if transitive and composite else 0)


def closure_of(images, name="factor"):
    return {p.as_array().tobytes() for p in
            closure_set(from_generators([Permutation(x) for x in images], name))}


def reference_blocks(elements, m, x):
    """The components of the graph with edges {g(0), g(x)} over the group
    elements, each point labelled by its component's smallest point."""
    labels = list(range(m))

    def root(p):
        while labels[p] != p:
            p = labels[p]
        return p

    for g in elements:
        a, b = root(int(g[0])), root(int(g[x]))
        labels[max(a, b)] = min(a, b)
    return np.array([root(p) for p in range(m)])


SPLIT_ACTIONS = [
    a if seed is None else relabel(a, seed)
    for a in (parse_group_spec(spec) for spec in (
        "dyadic-wreath:3", "wreath:4c,3c", "wreath:3s,2c", "hybrid:4,3", "hybrid:3,3",
        "dihedral:6", "cyclic:12", "dihedralM:9"))
    for seed in (None, 1)
] + [johnson_action(5), random_action(6, 2, 1), random_action(7, 1, 2)]


class TestWreathSplits:
    """The wreath route's block systems, factors and rank bounds, checked
    against the enumerated group."""

    @pytest.mark.parametrize("action", SPLIT_ACTIONS, ids=lambda a: a.name)
    def test_minimal_blocks(self, action):
        m = action.degree
        elements = [p.as_array() for p in closure_set(action)]
        reader = reader_of(action)
        for x in range(1, m):
            expected = reference_blocks(elements, m, x)
            labels = _minimal_block(reader, x)
            if 2 * np.count_nonzero(expected == 0) > m:
                assert labels is None
            else:
                assert np.array_equal(labels, expected)

    @pytest.mark.parametrize("action", SPLIT_ACTIONS, ids=lambda a: a.name)
    def test_rank_bounds(self, action):
        # each bound is at least the rank and never grows; with every row of
        # the Schreier tree read, the bound is the rank (Schreier's lemma)
        m = action.degree
        reader = reader_of(action)
        if reader.tree[2].count(-1) != 1:
            # intransitive: no block system, and no bound is read
            assert list(_wreath_splits(reader)) == []
            return
        _, counts = doubling_bounds(reader)
        rank = pair_orbits(action).orbit_count
        assert all(c >= rank for c in counts) and counts == sorted(counts, reverse=True)
        assert counts[-1] == rank

    @pytest.mark.parametrize("action", [
        # more generators than rows: read by row
        from_generators(every_node_generators([(2, "cyclic")] * 7), "dyadic-wreath:7 every node"),
        relabel(parse_group_spec("hybrid:16,64"), 1),  # fewer: read by generator
        relabel(parse_group_spec("hybrid:4,3"), 1),
    ], ids=lambda a: a.name)
    def test_joined_rows_give_the_stabilizer_orbits(self, action):
        # every tree row, read in batches of 64 by whichever loop the join
        # picks, gives G_0's orbits, row 0 of the pair partition
        m, reader = action.degree, reader_of(action)
        for at in range(64, m + 64, 64):
            labels = reader.read(min(at, m))
        row = pair_orbits(action).orbit_id[0]
        first = {}
        expected = [first.setdefault(int(o), x) for x, o in enumerate(row)]
        assert labels.tolist() == expected

    def test_bounds_outlive_later_batches(self, monkeypatch):
        # the union-find writes into its labels, so a bound held while later
        # batches are read must be a copy: copies keep their own orbits, the
        # arrays read returns do not; the bounds run to the last row, 256,
        # where they are G_0's orbits
        action = relabel(parse_group_spec("hybrid:16,16"), 1)
        m, reader = action.degree, reader_of(action)
        returned, read = [], reader.read
        monkeypatch.setattr(reader, "read", lambda count: returned.append(read(count)) or
                            returned[-1])
        bounds, counts = doubling_bounds(reader)
        assert [int(np.count_nonzero(b == np.arange(m))) for b in bounds] == counts == [
            225, 209, 17, 17, 17, 17, 17, 17, 17]
        assert [int(np.count_nonzero(b == np.arange(m))) for b in returned] != counts
        # the attempt checks its blocks on a bound that is a copy, never
        # on the reader's own labels
        reader, rows = reader_of(action), []
        check = groups._blocks_hold_one_label
        monkeypatch.setattr(groups, "_blocks_hold_one_label", lambda r, labels: rows.append(
            np.shares_memory(r, reader.labels)) or check(r, labels))
        list(_wreath_splits(reader))
        assert rows and not any(rows)

    def test_proves_reads_on_past_a_settled_bound(self):
        # seven words in wreath:3s,3s,3s's generators: the bound's count
        # holds at 5 over 1, 2 and 4 rows, above the rank 4, and the first
        # block passes the check on it; proves() reads on to 8 rows, where
        # the count falls to the rank
        words = [
            [9, 10, 11, 12, 13, 14, 15, 16, 17, 0, 1, 2, 3, 4, 5, 6, 7, 8] + list(range(18, 27)),
            [12, 13, 14, 15, 16, 17, 9, 10, 11] + list(range(18, 27)) + [5, 4, 3, 6, 7, 8, 0, 1, 2],
            [6, 7, 8, 0, 1, 2, 3, 4, 5] + list(range(18, 27)) + list(range(9, 18)),
            [24, 25, 26, 21, 22, 23, 18, 19, 20, 3, 4, 5, 0, 1, 2, 6, 7, 8] + list(range(9, 18)),
            [12, 13, 14, 10, 11, 9, 15, 16, 17] + list(range(18, 27)) + [3, 4, 5, 6, 7, 8, 0, 1, 2],
            [9, 10, 11, 12, 13, 14, 15, 16, 17, 4, 5, 3, 6, 7, 8, 0, 1, 2] + list(range(18, 27)),
            [12, 13, 14, 15, 16, 17, 9, 10, 11, 1, 0, 2, 3, 4, 5, 6, 7, 8] + list(range(18, 27)),
        ]
        action = from_generators([Permutation(w) for w in words], "words(wreath:3s,3s,3s)")
        reader, rank = reader_of(action), pair_orbits(action).orbit_count
        assert rank == pair_orbits(parse_group_spec("wreath:3s,3s,3s")).orbit_count == 4
        *_, proves = next(_wreath_splits(reader))
        assert reader.done == 4
        assert proves(rank) and reader.done == 8

    @pytest.mark.parametrize("action", SPLIT_ACTIONS, ids=lambda a: a.name)
    def test_splits(self, action):
        # one attempt: the distinct proper minimal blocks of up to
        # _BLOCK_CANDIDATES points of the smallest orbits of a bound, each
        # split only when it passes the check, and at most once.  On a
        # bound before the last row the check puts every other block inside
        # one orbit of G_0; on the last, G_0's orbits, it runs on block 0's
        # rows, where it proves the rank, so every split of G_0's
        # candidates with the rank rank(H) + rank(K) - 1 = rank(G) is
        # yielded at some row, and every split yielded there has that rank
        m = action.degree
        elements = [p.as_array() for p in closure_set(action)]
        if {int(g[0]) for g in elements} != set(range(m)):
            assert list(_wreath_splits(reader_of(action))) == []
            return
        g0 = g0_orbits(elements)
        rank = closure_rank(elements, m)
        systems = {reference_blocks(elements, m, x).tobytes() for x in range(1, m)}
        reader, splits, last = reader_of(action), [], []
        for split in _wreath_splits(reader):
            splits.append(split)
            last.append(reader.done == m)
        assert reader.done == m
        expected = [l.tobytes() for l in candidate_systems(g0, elements, m)
                    if sum(factor_ranks(elements, l)) - 1 == rank]
        yielded = [block_labels(s[0]) for s in splits]
        assert len({l.tobytes() for l in yielded}) == len(yielded)
        assert set(expected) <= {l.tobytes() for l in yielded}
        for labels, at_last in zip(yielded, last):
            assert labels.tobytes() in systems and one_orbit_per_block(g0, labels)
            assert not at_last or sum(factor_ranks(elements, labels)) - 1 == rank
        for points, k_images, h_images, proves in splits:
            b, w = points.shape
            assert 1 < w < m and points[0, 0] == 0
            assert np.array_equal(np.sort(points.ravel()), np.arange(m))
            block_of = np.empty(m, dtype=np.int64)
            block_of[points] = np.arange(b)[:, None]
            local = np.empty(m, dtype=np.int64)
            local[points] = np.arange(w)
            # K is the group's action on the blocks, H the block
            # stabilizer's on block 0, in local numbering
            on_blocks = {block_of[g[points[:, 0]]].tobytes() for g in elements}
            assert closure_of(k_images) == on_blocks
            on_block0 = {local[g[points[0]]].tobytes() for g in elements
                         if block_of[g[0]] == 0}
            assert closure_of(h_images) == on_block0
            # proves() accepts the split's rank exactly when it is the
            # enumerated group's
            split_rank = sum(factor_ranks(elements, block_labels(points))) - 1
            assert proves(split_rank) == (split_rank == rank)

    @pytest.mark.parametrize("action", [
        relabel(parse_group_spec("hybrid:8,8"), 1),
        relabel(parse_group_spec("wreath:4s,4c,4c"), 2),
        parse_group_spec("product:(hybrid:8,8,cyclic:4)"),
        parse_group_spec("product:(wreath:4s,4c,cyclic:3)"),
        parse_group_spec("product:(dyadic-wreath:3,cyclic:3)"),
        # its 16-point block inside the 64-point one fails the check
        relabel(parse_group_spec("hybrid:64,4"), 1),
    ], ids=lambda a: a.name)
    def test_only_checked_blocks_are_split(self, action, monkeypatch):
        # synthesis builds a block's factors only after it passes the check
        passed, failed, split = set(), [], []
        check, build = groups._blocks_hold_one_label, groups._split

        def checked(rows, labels):
            ok = check(rows, labels)
            if ok:
                passed.add(labels.tobytes())
            else:
                failed.append(labels)
            return ok

        def built(reader, labels):
            split.append(labels.tobytes())
            return build(reader, labels)

        monkeypatch.setattr(groups, "_blocks_hold_one_label", checked)
        monkeypatch.setattr(groups, "_split", built)
        transforms.synthesize_matched(action, 3)
        assert failed and set(split) <= passed


def doubling_bounds(reader) -> tuple:
    """The rank bounds `_wreath_splits` reads, as (bounds, counts): the
    labels `read` joins over 1, 1, 2, 4, ... tree rows through the last,
    each a copy, and the orbits each leaves when it is read."""
    m, bounds, counts = reader.m, [], []
    while reader.done < m:
        bounds.append(reader.read(min(m, 2 * reader.done or 1)).copy())
        counts.append(int(np.count_nonzero(bounds[-1] == np.arange(m))))
    return bounds, counts


def g0_orbits(elements) -> np.ndarray:
    """Each point's smallest image under G_0, the stabilizer of point 0:
    its G_0 orbit, named by the orbit's smallest point."""
    return np.min([g for g in elements if g[0] == 0], axis=0)


def one_orbit_per_block(orbit, labels) -> bool:
    """Whether every block but block 0 lies inside one orbit."""
    return all(len({orbit[p] for p in np.flatnonzero(labels == r)}) == 1
               for r in set(labels.tolist()) - {0})


def candidate_systems(orbit, elements, m: int) -> list:
    """The distinct proper block systems of the first _BLOCK_CANDIDATES
    points of the smallest orbits (ties by smallest point, 0's skipped),
    in the order tried; none while over half the points are their own
    orbit."""
    _, reps, sizes = np.unique(orbit, return_index=True, return_counts=True)
    if 2 * np.count_nonzero(sizes == 1) > m:
        return []
    systems = {}
    for x in reps[np.argsort(sizes, kind="stable")][1 : 1 + _BLOCK_CANDIDATES].tolist():
        labels = reference_blocks(elements, m, x)
        if 2 * np.count_nonzero(labels == 0) <= m:
            systems.setdefault(labels.tobytes(), labels)
    return list(systems.values())


def block_labels(points) -> np.ndarray:
    """Each point labelled by its block's smallest point."""
    labels = np.empty(points.size, dtype=np.int64)
    labels[points] = points.min(axis=1)[:, None]
    return labels


def factor_ranks(elements, labels) -> tuple:
    """(rank(H), rank(K)) from the enumerated group: H the elements that
    map block 0 onto itself, on block 0, and K every element's action on
    the blocks; labels names each point's block by its smallest point."""
    m = labels.size
    reps = np.flatnonzero(labels == np.arange(m))
    points = np.array([np.flatnonzero(labels == r) for r in reps])
    b, w = points.shape
    block_of = np.searchsorted(reps, labels)
    local = np.empty(m, dtype=np.int64)
    local[points] = np.arange(w)
    return (closure_rank([local[g[points[0]]] for g in elements if labels[g[0]] == 0], w),
            closure_rank([block_of[g[reps]] for g in elements], b))


def closure_rank(rows, n: int) -> int:
    """The orbital count of a group given as all its image arrays on n
    points: the orbit of (i, j) is {(g(i), g(j))}, named by its smallest
    pair index."""
    rows = np.array(rows)
    return np.unique((rows[:, :, None] * n + rows[:, None, :]).min(axis=0)).size


class TestBlockRowsProof:
    """The wreath route's proof on the pair partition, against ranks read
    from the enumerated group alone, with no route."""

    @pytest.mark.parametrize("action", SPLIT_ACTIONS + [
        a if seed is None else relabel(a, seed)
        for a in (parse_group_spec("product:(hybrid:4,3,cyclic:3)"),
                  parse_group_spec("product:(dyadic-wreath:3,cyclic:3)"))
        for seed in (None, 1, 2)
    ], ids=lambda a: a.name)
    def test_block_rows_decide_the_rank(self, action):
        # on every block system of a minimal block, the rows of block 0
        # pass exactly when rank(H) + rank(K) - 1 = rank(G)
        m = action.degree
        elements = [p.as_array() for p in closure_set(action)]
        if {int(g[0]) for g in elements} != set(range(m)):
            assert list(_wreath_splits(reader_of(action))) == []
            return
        ids = closure_pair_orbit_ids(action)
        rank = int(ids.max()) + 1
        systems = {l.tobytes(): l for l in (reference_blocks(elements, m, x)
                                            for x in range(1, m))}
        for labels in systems.values():
            if np.all(labels == 0):
                continue
            h_rank, k_rank = factor_ranks(elements, labels)
            assert _blocks_hold_one_label(ids[labels == 0], labels) == (
                h_rank + k_rank - 1 == rank)

    @pytest.mark.parametrize("action", [
        a if seed is None else relabel(a, seed)
        for a in SPLIT_ACTIONS + [parse_group_spec("product:(hybrid:4,3,cyclic:3)")]
        for seed in (None, 1, 2)
    ], ids=lambda a: a.name)
    def test_a_proved_split_has_every_other_block_in_one_orbit_of_g0(self, action):
        # why the check may run on a rank bound before any factor is built:
        # on every block system with rank(H) + rank(K) - 1 = rank(G), every
        # other block lies inside one orbit of G_0; all from the enumerated
        # group, no route
        m = action.degree
        elements = [p.as_array() for p in closure_set(action)]
        if {int(g[0]) for g in elements} != set(range(m)):
            return
        rank, g0 = closure_rank(elements, m), g0_orbits(elements)
        systems = {l.tobytes(): l for l in (reference_blocks(elements, m, x)
                                            for x in range(1, m))}
        for labels in systems.values():
            if not np.all(labels == 0) and sum(factor_ranks(elements, labels)) - 1 == rank:
                assert one_orbit_per_block(g0, labels)
                assert _blocks_hold_one_label(g0[None], labels)


class TestReynolds:
    def test_trivial_unchanged(self):
        r = random_psd(4, 1)
        assert np.allclose(reynolds_project(r, make_trivial(4)), r)

    def test_swap_average(self):
        act = from_generators([Permutation((1, 0))], "swap")
        out = reynolds_project(np.diag([1.0, 2.0]), act)
        assert np.allclose(out, np.diag([1.5, 1.5]))

    def test_matches_explicit_group_average(self):
        act = make_dyadic_wreath(2)
        r = random_psd(4, 5)
        elements = closure_set(act)
        acc = np.zeros_like(r)
        for p in elements:
            mat = permutation_matrix(p)
            acc += mat @ r @ mat.conj().T
        acc /= len(elements)
        assert np.max(np.abs(acc - reynolds_project(r, act))) <= 1e-12

    @pytest.mark.parametrize("act", CATALOG, ids=lambda a: a.name)
    def test_idempotent_and_invariant(self, act):
        r = random_psd(act.degree, 11)
        once = reynolds_project(r, act)
        twice = reynolds_project(once, act)
        assert np.max(np.abs(once - twice)) <= 1e-12
        assert is_invariant(once, act, 1e-10)

    def test_degree_mismatch_rejected(self):
        with pytest.raises(DimensionError, match="does not match the action degree"):
            reynolds_project(np.eye(3), make_cyclic(2))

    def test_preserves_hermitian_psd(self):
        act = make_cyclic(6)
        r = random_psd(6, 3)
        out = reynolds_project(r, act)
        assert np.max(np.abs(out - out.conj().T)) < 1e-14
        assert np.min(np.linalg.eigvalsh(out)) >= -1e-12


class TestIsInvariant:
    def test_trivial_always(self):
        assert is_invariant(random_psd(3, 2), make_trivial(3), 1e-12)

    def test_circulant(self):
        r = reynolds_project(random_psd(6, 4), make_cyclic(6))
        assert is_invariant(r, make_cyclic(6), 1e-12)

    def test_diag_swap_false(self):
        act = from_generators([Permutation((1, 0))], "swap")
        assert not is_invariant(np.diag([1.0, 2.0]), act, 1e-6)


class TestCommutantNesting:
    def test_dihedral_invariance_implies_cyclic(self):
        m = 5
        act = make_dihedral(m)
        r = reynolds_project(random_psd(2 * m, 9), act)
        assert is_invariant(r, make_cyclic(2 * m), 1e-10)


class TestClosure:
    def test_partial_overflow_count(self):
        res = closure_enumerate(make_cyclic(10), cap=4)
        assert res.overflowed and res.count == 5

    def test_count_above_degree_256(self):
        # images above 255 are held as uint16
        res = closure_enumerate(parse_group_spec("dihedralM:300"), cap=10**4)
        assert not res.overflowed and res.count == 600


class TestGroupSpecLanguage:
    @pytest.mark.parametrize(
        "spec,degree,order",
        [
            ("trivial:3", 3, 1),
            ("cyclic:5", 5, 5),
            ("dihedral:3", 6, 12),
            ("dihedralM:4", 4, 8),
            ("boolean:2", 4, 4),
            ("dyadic-wreath:2", 4, 8),
            ("wreath:2c,2c", 4, 8),
            ("hybrid:2,2", 4, 8),
            ("product:(cyclic:2,cyclic:3)", 6, 6),
        ],
    )
    def test_specs(self, spec, degree, order):
        act = parse_group_spec(spec)
        assert act.degree == degree
        assert closure_enumerate(act, cap=100).count == order

    def test_perms_file(self, tmp_path):
        path = tmp_path / "gens.txt"
        path.write_text("1 0 2\n0 2 1\n")
        act = parse_group_spec(f"perms:{path}")
        assert act.degree == 3
        assert closure_enumerate(act, cap=10).count == 6

    def test_bad_specs(self):
        for spec in ["", "cyclic", "cyclic:", "nope:3", "product:(cyclic:2)", "wreath:2x"]:
            with pytest.raises(InputError):
                parse_group_spec(spec)

    def test_product_of_a_spec_with_commas(self):
        # a piece without ':' belongs to the spec before it
        act = parse_group_spec("product:(hybrid:4,3,cyclic:3)")
        ref = make_product(make_hybrid(4, 3), make_cyclic(3))
        assert act.name == ref.name and act.degree == ref.degree
        assert act.generators == ref.generators

    def test_nested_product(self):
        act = parse_group_spec("product:(product:(cyclic:2,cyclic:2),cyclic:2)")
        assert act.degree == 8
        assert closure_enumerate(act, cap=100).count == 8

"""Shared oracles for the test suite: brute-force group facts computed
without the library's own search machinery, numpy's spectrum of one
invariant sample (the oracle every synthesis route is held to), the
orbital route on its own, a loop-by-loop reference for subspace_match's
clustering and column assignment, a reference for discovery's refinement
that signs both rows and columns, a scalar reference for the rng stream,
and actions outside the catalog families."""

import itertools
from typing import NamedTuple

import numpy as np

from matched_transforms import (
    DegeneracyMismatchError,
    Permutation,
    StructuralMismatchError,
    from_generators,
    make_boolean,
    make_cyclic,
    make_dihedral,
    make_dyadic_wreath,
    make_hybrid,
    make_product,
    make_trivial,
    make_wreath,
    residual_delta,
    sample_invariant_cov,
    transforms,
)
from matched_transforms.discovery import _value_ranks
from matched_transforms.numkernel import as_cmatrix, herm_eig
from matched_transforms.transforms import _bareiss_det


def catalog_actions() -> list:
    """One representative of every constructor family, small degrees."""
    return [
        make_trivial(5),
        make_cyclic(6),
        make_dihedral(4),
        make_dihedral(5, degree_m=True),
        make_boolean(3),
        make_dyadic_wreath(3),
        make_wreath([(3, "symmetric"), (2, "cyclic")]),
        make_hybrid(4, 3),
        make_product(make_cyclic(3), make_cyclic(4)),
    ]


def all_permutations(m: int) -> np.ndarray:
    """(m!, m) array of every image tuple of S_m; m <= 8."""
    if m > 8:
        raise ValueError("factorial blowup")
    return np.array(list(itertools.permutations(range(m))), dtype=np.int64)


def brute_force_matched_group(r: np.ndarray, tol: float = 1e-10) -> set:
    """Every permutation of S_m commuting with r: normalized commutator
    residual <= tol, checked exhaustively (vectorized over all of S_m)."""
    r = np.asarray(r, dtype=np.complex128)
    m = r.shape[0]
    perms = all_permutations(m)
    invs = np.argsort(perms, axis=1)
    # (P R)[i, :] = R[sigma^{-1}(i), :];  (R P)[:, j] = R[:, sigma(j)]
    left = r[invs, :]
    right = r.T[perms].transpose(0, 2, 1)
    norms = np.linalg.norm((left - right).reshape(perms.shape[0], -1), axis=1)
    scale = np.sqrt(m) * np.linalg.norm(r)
    hits = np.nonzero(norms <= tol * scale)[0]
    return {Permutation(tuple(int(x) for x in perms[i])) for i in hits}


def closure_set(action) -> set:
    """Exact element set of a small action's closure: a breadth-first search
    over image arrays, one vectorized product per frontier, deduplicated as
    raw bytes."""
    m = action.degree
    gens = np.stack([g.as_array() for g in action.generators])
    frontier = np.arange(m, dtype=np.int64)[None, :]
    seen = {frontier.tobytes()}
    while frontier.size:
        products = frontier[:, gens].reshape(-1, m)
        fresh = set(products.view(np.dtype((np.void, 8 * m))).ravel().tolist()) - seen
        seen |= fresh
        frontier = np.frombuffer(b"".join(fresh), dtype=np.int64).reshape(-1, m)
    return {Permutation(np.frombuffer(key, dtype=np.int64)) for key in seen}


def is_invariant(r, action, tol: float) -> bool:
    """Every generator's commutation residual delta is <= tol."""
    return max(residual_delta(g, r) for g in action.generators) <= tol


def relabel(action, seed: int):
    """The action conjugated by a seeded random permutation s of its points:
    point i is renamed s(i), so each generator g becomes s g s^-1."""
    m = action.degree
    s = np.random.default_rng(seed).permutation(m)
    gens = []
    for g in action.generators:
        images = np.empty(m, dtype=np.int64)
        images[s] = s[g.as_array()]
        gens.append(Permutation(images))
    return from_generators(gens, f"relabel({action.name},{seed})")


def random_action(m: int, k: int, seed: int):
    """k seeded random permutations of S_m as an action."""
    rng = np.random.default_rng(seed)
    gens = [Permutation(rng.permutation(m)) for _ in range(k)]
    return from_generators(gens, f"random({m},{k},{seed})")


def affine_line(p: int, root: int):
    """AGL(1, p) on Z_p: x -> x + 1 and x -> root * x, root a primitive root."""
    x = np.arange(p)
    return from_generators([Permutation((x + 1) % p), Permutation(root * x % p)],
                           f"AGL(1,{p})")


def hamming_action(n: int):
    """(Z_2)^n x| S_n on 2^n points: every bit flip j -> j XOR 2^l and the
    transpositions of adjacent bits."""
    j = np.arange(1 << n)
    gens = [j ^ (1 << l) for l in range(n)]
    for l in range(n - 1):
        differ = ((j >> l) ^ (j >> (l + 1))) & 1
        gens.append(j ^ (differ * (3 << l)))
    return from_generators([Permutation(g) for g in gens], f"hamming:{n}")


def johnson_action(n: int):
    """S_n on the 2-subsets of {0..n-1} (the Johnson scheme J(n, 2)),
    generated by a transposition and an n-cycle."""
    pairs = list(itertools.combinations(range(n), 2))
    index = {p: i for i, p in enumerate(pairs)}
    gens = []
    for images in ([1, 0] + list(range(2, n)), list(range(1, n)) + [0]):
        gens.append(Permutation([index[tuple(sorted((images[a], images[b])))]
                                 for a, b in pairs]))
    return from_generators(gens, f"J({n},2)")


def pair_orbit_labels(action) -> np.ndarray:
    """Orbit label of every ordered pair, by a breadth-first flood fill
    over the pairs in pure Python: (i, j) is joined to (g(i), g(j)) for
    every generator g.  Labels number the orbits by first appearance in a
    row-major scan."""
    m = action.degree
    images = [g.images for g in action.generators]
    label = [[-1] * m for _ in range(m)]
    count = 0
    for i in range(m):
        for j in range(m):
            if label[i][j] >= 0:
                continue
            label[i][j] = count
            queue = [(i, j)]
            for a, b in queue:
                for g in images:
                    if label[g[a]][g[b]] < 0:
                        label[g[a]][g[b]] = count
                        queue.append((g[a], g[b]))
            count += 1
    return np.array(label, dtype=np.int64)


def orbitals_commute(labels: np.ndarray) -> bool:
    """The orbital indicator matrices A_o = [labels == o] commute pairwise,
    checked in int64."""
    count = int(labels.max()) + 1
    mats = [(labels == o).astype(np.int64) for o in range(count)]
    return all(np.array_equal(a @ b, b @ a) for a in mats for b in mats)


_MASK64 = (1 << 64) - 1


def reference_splitmix64(seed: int, count: int) -> list:
    """splitmix64's first `count` outputs, one Python int at a time."""
    state, out = seed & _MASK64, []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        out.append(z ^ (z >> 31))
    return out


def reference_xoshiro(state: list, steps: int) -> list:
    """xoshiro256**'s first `steps` outputs from the four state words, one
    Python int at a time."""
    def rotl(x, k):
        return ((x << k) | (x >> (64 - k))) & _MASK64

    s0, s1, s2, s3 = state
    out = []
    for _ in range(steps):
        out.append((rotl((s1 * 5) & _MASK64, 7) * 9) & _MASK64)
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = rotl(s3, 45)
    return out


def compose(a, b):
    """a after b, composed on the image arrays: compose(a, b)(i) = a(b(i))."""
    return Permutation(a.as_array()[b.as_array()])


def permutation_matrix(p) -> np.ndarray:
    """Complex permutation matrix P with P[p(j), j] = 1, so P e_j = e_{p(j)}."""
    m = np.zeros((p.degree, p.degree), dtype=np.complex128)
    m[p.as_array(), np.arange(p.degree)] = 1.0
    return m


def det_exact(transform) -> int:
    """Exact determinant of an IntTransform's matrix over the integers, by
    the fraction-free elimination its constructor runs up to size 64."""
    return _bareiss_det(transform.matrix)


def reference_subspace_match(r, predicted, rel_tol: float = 1e-6) -> tuple:
    """(min_match, degeneracy_pattern) of subspace_match, computed with a
    greedy gap clustering over the argsorted eigenvalues and a Python scan
    over columns x clusters; raises the same errors with the same messages."""
    arr = as_cmatrix(r)
    eig = herm_eig(arr)
    order = np.argsort(eig.values, kind="stable")
    sorted_vals = eig.values[order]
    slack = rel_tol * float(sorted_vals[-1] - sorted_vals[0])
    clusters = [[int(order[0])]]
    for pos in range(1, sorted_vals.size):
        if sorted_vals[pos] - sorted_vals[pos - 1] > slack:
            clusters.append([])
        clusters[-1].append(int(order[pos]))
    u = predicted.matrix
    rayleigh = np.real(np.einsum("ij,ij->j", u.conj(), arr @ u))
    assigned = [[] for _ in clusters]
    for col, rho in enumerate(rayleigh):
        best, best_dist = -1, np.inf
        for c_idx, members in enumerate(clusters):
            lo = float(np.min(eig.values[members]))
            hi = float(np.max(eig.values[members]))
            dist = max(lo - rho, rho - hi, 0.0)
            if dist < best_dist:
                best, best_dist = c_idx, dist
        if best_dist > slack:
            raise StructuralMismatchError(
                f"column {col} (label {predicted.column_labels[col]!r}) has "
                f"Rayleigh quotient {rho:.6g} inside a spectral gap"
            )
        assigned[best].append(col)
    for c_idx, members in enumerate(clusters):
        if len(assigned[c_idx]) != len(members):
            raise DegeneracyMismatchError(
                f"cluster {c_idx} has dimension {len(members)} but received "
                f"{len(assigned[c_idx])} predicted columns"
            )
    scores, pattern = [], []
    for c_idx in sorted(range(len(clusters)), key=lambda c: min(assigned[c])):
        overlap = eig.vectors[:, clusters[c_idx]].conj().T @ u[:, assigned[c_idx]]
        scores.append(float(np.linalg.svd(overlap, compute_uv=False)[-1]))
        pattern.append(len(clusters[c_idx]))
    return min(scores), tuple(pattern)



def reference_edge_colours(r_arr: np.ndarray, tau: float) -> np.ndarray:
    """discovery._edge_colours relabelled to dense ranks: the (Re cluster,
    Im cluster) pairs numbered in lexicographic order."""
    gap = tau * float(np.max(np.abs(r_arr)))
    re = _value_ranks(r_arr.real.ravel(), gap)
    im = _value_ranks(r_arr.imag.ravel(), gap)
    _, colours = np.unique(re * (int(im.max()) + 1) + im, return_inverse=True)
    return colours.reshape(r_arr.shape)


def reference_row_ranks(sig: np.ndarray) -> np.ndarray:
    """Rank of each row of an integer array among its distinct rows in
    lexicographic order, by a lexsort over every column."""
    order = np.lexsort(sig.T[::-1])
    ordered = sig[order]
    ranks = np.empty(sig.shape[0], dtype=np.int64)
    steps = np.any(ordered[1:] != ordered[:-1], axis=1)
    ranks[order] = np.concatenate(([0], np.cumsum(steps)))
    return ranks


def reference_refine(edges: np.ndarray, colours: np.ndarray) -> np.ndarray:
    """discovery._refine computed from both halves of every signature: the
    edge codes relabelled to dense ranks, and each vertex signed by its old
    colour, its sorted (edge, neighbour colour) row pairs and its sorted
    column pairs."""
    _, dense = np.unique(edges, return_inverse=True)
    edges = dense.reshape(edges.shape)
    edges_t = np.ascontiguousarray(edges.T)
    cells = int(colours.max()) + 1
    while True:
        colours = reference_row_ranks(np.hstack([
            colours[:, None],
            np.sort(edges * cells + colours, axis=1),
            np.sort(edges_t * cells + colours, axis=1),
        ]))
        split = int(colours.max()) + 1
        if split == cells:
            return colours
        cells = split


def images_of(action) -> list:
    """The generators' image arrays."""
    return [g.as_array() for g in action.generators]


class SampledBasis(NamedTuple):
    """Whether sampled_basis's sample is real, and its sorted cluster sizes."""

    real: bool
    degeneracy_pattern: tuple


def sampled_basis(action, seed: int) -> SampledBasis:
    """An oracle for synthesize_matched that shares none of its routes:
    numpy's eigenvalues of one generic invariant sample,
    sample_invariant_cov, taken real when its imaginary part is roundoff (a
    self-paired action, whose eigenbasis is then real too), cut into
    clusters wherever the next one is more than 1e-8 max|eigenvalue| away."""
    r = sample_invariant_cov(action, seed)
    real = np.max(np.abs(r.imag)) <= 1e-12 * np.max(np.abs(r))
    values = np.linalg.eigvalsh(r.real if real else r)
    cuts = np.flatnonzero(np.diff(values) > 1e-8 * np.max(np.abs(values))) + 1
    sizes = np.diff(np.concatenate(([0], cuts, [values.size])))
    return SampledBasis(bool(real), tuple(sorted(sizes.tolist())))


def orbital_basis(action):
    """synthesize_matched's orbital route alone, on the action's own pair
    partition.  The partition is read through the transforms module, so a
    spy set on it there sees it."""
    orbits = transforms.pair_orbits(action)
    return transforms._synthesized(action.name, transforms._orbital(orbits, action.name))

"""Shared oracles for the test suite: brute-force group facts computed
without the library's own search machinery, a loop-by-loop reference for
subspace_match's clustering and column assignment, and a reference for
discovery's refinement that signs both rows and columns."""

import itertools

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

"""Shared oracles for the test suite: brute-force group facts computed
without the library's own search machinery."""

import itertools

import numpy as np

from matched_transforms import (
    Permutation,
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


def permutation_matrix(p) -> np.ndarray:
    """Complex permutation matrix P with P[p(j), j] = 1, so P e_j = e_{p(j)}."""
    m = np.zeros((p.degree, p.degree), dtype=np.complex128)
    m[p.as_array(), np.arange(p.degree)] = 1.0
    return m


def det_exact(transform) -> int:
    """Exact determinant of an IntTransform's matrix over the integers, by
    the fraction-free elimination its constructor runs up to size 64."""
    return _bareiss_det(transform.matrix)

"""Symmetry discovery: which index permutations commute with a covariance?

A permutation p commutes with R exactly when R[p(i), p(j)] = R[i, j] for
every i, j.  So the matched group of R is the automorphism group of the
complete digraph whose edge (i, j) is coloured by R[i, j].
`discover_sequential` computes that group exactly by individualization and
refinement, the search of nauty and Traces (McKay & Piperno, "Practical
graph isomorphism, II", J. Symb. Comput. 60, 2014):

* Edge colours: the real and imaginary parts of R's entries are clustered
  separately, splitting at gaps larger than tau * max|R|.
* Refinement: vertex colours start from the diagonal and split by the
  sorted (edge colour, neighbour colour) pairs of each row until no cell
  splits.  Rows suffice: R is symmetrized exactly, so Re R[j, i] =
  Re R[i, j] and Im R[j, i] = -Im R[i, j] bit for bit, and the clusters of
  a list closed under negation mirror each other.  So the colour of (j, i)
  is a fixed bijection of the colour of (i, j), a vertex's row pairs fix
  its column pairs, and a lexicographic order never reaches the columns.
* Search: individualizing the first vertex of the first non-singleton cell
  until the partition is discrete gives a base and a reference leaf.  For
  each level, deepest first, a depth-first search below every vertex of the
  base point's cell that is not yet in its orbit looks for a leaf whose map
  from the reference leaf preserves every edge colour.  A node whose cell
  sizes differ from the reference node at its depth is pruned.

The generators found form a strong generating set relative to the base, so
the group order is the product of the basic orbit lengths.  The search is
exponential in the worst case (Cai, Fuerer & Immerman 1992).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InputError
from .diagnostics import _coloring_alpha, _nonzero_norm, _residual_delta
from .groups import Permutation, _hook_and_compress, closure_enumerate, from_generators
from .numkernel import _check_hermitian, as_cmatrix

LEAVES_PER_POINT = 4  # the search's leaf budget is this many leaves per point of R


@dataclass(frozen=True)
class CandidateBasis:
    """The degree of a search basis, which `discover_sequential` checks
    against R.  It exists only because the benchmark harness (perfbench)
    passes `CandidateBasis.cyclic_shifts(M)` as `basis=`; ROADMAP item 1
    moves the harness off it."""

    degree: int

    @classmethod
    def cyclic_shifts(cls, degree: int) -> "CandidateBasis":
        if degree < 1:
            raise DimensionError("degree must be >= 1")
        return cls(degree)


@dataclass(frozen=True)
class SearchLevel:
    """One base level of the exact search: the base point, the size of the
    cell it was individualized from, the length of its orbit under the
    generators found, the search nodes refined and leaves tested below the
    level, and the seconds spent there."""

    point: int
    cell_size: int
    orbit_length: int
    nodes: int
    leaves: int
    seconds: float


@dataclass(frozen=True)
class DiscoveryResult:
    """Reported generators with their residuals, the group order (exact
    whenever the search produced it; None only when a coarse-colors closure
    overflows the enumeration cap), whether that order exceeds the cap, the
    invariant energy fraction of the discovered action, search accounting,
    and one `SearchLevel` per base level in base order."""

    generators: tuple
    residuals: tuple
    group_order: int | None
    order_exceeded_cap: bool
    alpha: float
    iterations: int
    rejected_count: int
    stop_reason: str
    trace: tuple


# ---------------------------------------------------------------------------
# exact search

def _value_ranks(values: np.ndarray, gap: float) -> np.ndarray:
    # rank of each value among the sorted values, neighbours within gap
    # merged; equal values get equal ranks in any order, so no stable sort
    order = np.argsort(values)
    ranks = np.empty(values.size, dtype=np.int64)
    ranks[order] = np.concatenate(([0], np.cumsum(np.diff(values[order]) > gap)))
    return ranks


def _edge_colours(r_arr: np.ndarray, tau: float) -> np.ndarray:
    # re * (imax + 1) + im is monotone in (re, im), so it orders the colours
    # as their dense ranks would; the codes stay below M^4 <= 2^48
    gap = tau * float(np.max(np.abs(r_arr)))
    re = _value_ranks(r_arr.real.ravel(), gap)
    im = _value_ranks(r_arr.imag.ravel(), gap)
    return (re * (int(im.max()) + 1) + im).reshape(r_arr.shape)


def _row_ranks(sig: np.ndarray) -> np.ndarray:
    # rank of each row of a non-negative integer array among its distinct rows,
    # in lexicographic order: big-endian bytes sort as the numbers do, and
    # equal rows are found as native integers, which compare faster
    rows = np.ascontiguousarray(sig, dtype=">i8")
    order = rows.view(np.dtype((np.void, rows.strides[0]))).ravel().argsort()
    rows = rows.view(np.int64)[order]
    ranks = np.empty(order.size, dtype=np.int64)
    ranks[order] = np.concatenate(([0], (rows[1:] != rows[:-1]).any(axis=1).cumsum()))
    return ranks


def _refine(edges: np.ndarray, colours: np.ndarray) -> np.ndarray:
    # Colours are dense ranks.  A vertex's old colour leads its signature,
    # so cells only split and keep their order; the ranks depend on the
    # colouring alone, not on the vertex numbering.  Edge codes < 2^48 and
    # cells <= MAX_DEGREE = 2^12 keep edges * cells + colours below 2^60.
    m = colours.size
    cells = int(colours.max()) + 1
    # a discrete colouring (each of the ranks 0..m-1 once) is equitable: it
    # needs no confirming pass, nor does one that a pass makes discrete
    if cells == m:
        return colours
    sig, codes = np.empty((m, m + 1), dtype=">i8"), np.empty((m, m), dtype=np.int64)
    while True:
        np.multiply(edges, cells, out=codes)
        codes += colours
        codes.sort(axis=1)
        sig[:, 0], sig[:, 1:] = colours, codes
        colours = _row_ranks(sig)
        split = int(colours.max()) + 1
        if split in (cells, m):
            return colours
        cells = split


def _individualize(colours: np.ndarray, v: int) -> np.ndarray:
    # v becomes a singleton cell placed right after the rest of its cell; a
    # singleton stays as it is, so the ranks stay dense
    if np.count_nonzero(colours == colours[v]) == 1:
        return colours
    out = colours + (colours > colours[v])
    out[v] += 1
    return out


def _automorphism_search(edges: np.ndarray, max_leaves: int) -> tuple:
    """Strong generators (image arrays) of the colour automorphism group,
    one SearchLevel per base level, leaves tested, leaves rejected, and
    whether the leaf budget ran out before the search finished."""
    m = edges.shape[0]
    # first path: path[k] is the reference node at depth k, targets[k] the cell of base[k]
    path = [_refine(edges, _row_ranks(np.diagonal(edges)[:, None]))]
    base, targets = [], []
    while int(path[-1].max()) + 1 < m:
        node = path[-1]
        targets.append(int(np.argmax(np.bincount(node) > 1)))
        base.append(int(np.flatnonzero(node == targets[-1])[0]))
        path.append(_refine(edges, _individualize(node, base[-1])))
    shapes = [np.bincount(node).tobytes() for node in path]
    leaf_order = path[-1]
    depth_n = len(base)
    generators: list = []
    # the point orbits of the generators found, each labelled by its smallest point
    points, orbits = np.arange(m), np.arange(m, dtype=np.int32)
    orbit_len = [1] * depth_n
    nodes = [0] * depth_n
    tried = [0] * depth_n
    seconds = [0.0] * depth_n
    leaves = rejected = 0
    saturated = False
    for k in reversed(range(depth_n)):
        start = time.perf_counter()
        for w in np.flatnonzero(path[k] == targets[k]):
            if orbits[w] == orbits[base[k]]:
                continue
            # depth first below w: (parent node, vertex to individualize, parent depth)
            todo = [(path[k], int(w), k)]
            while todo:
                parent, v, depth = todo.pop()
                node = _refine(edges, _individualize(parent, v))
                nodes[k] += 1
                if np.bincount(node).tobytes() != shapes[depth + 1]:
                    continue
                if depth + 1 < depth_n:
                    members = np.flatnonzero(node == targets[depth + 1])
                    todo.extend((node, u, depth + 1) for u in members[::-1].tolist())
                    continue
                if leaves >= max_leaves:
                    saturated = True
                    break
                leaves += 1
                tried[k] += 1
                gamma = np.argsort(node)[leaf_order]
                if (edges[gamma][:, gamma] == edges).all():
                    generators.append(gamma)
                    orbits, _ = _hook_and_compress(m, [(points, gamma)], orbits)
                    break
                rejected += 1
            if saturated:
                break
        orbit_len[k] = int(np.count_nonzero(orbits == orbits[base[k]]))
        seconds[k] = time.perf_counter() - start
        if saturated:
            break
    levels = tuple(
        SearchLevel(base[k], int(np.count_nonzero(path[k] == targets[k])), orbit_len[k],
                    nodes[k], tried[k], seconds[k])
        for k in range(depth_n)
    )
    return generators, levels, leaves, rejected, saturated


def discover_sequential(
    r,
    tau: float = 1e-8,
    basis: CandidateBasis | None = None,
    enumeration_cap: int = 10**4,
) -> DiscoveryResult:
    """Recover a generating set of the matched group of R by the exact
    search of the module docstring, with colour gap tau * max|R|.

    Every reported generator has residual_delta <= tau.  `iterations`
    counts the leaves tested (the candidate permutations), at most
    LEAVES_PER_POINT * degree; `rejected_count` counts those whose map
    does not preserve every edge colour.

    stop_reason "complete": the search finished, the generators generate
    the whole colour automorphism group and its order is the product of
    the basic orbit lengths.  "saturated": the leaf budget ran out; the
    generators generate a subgroup, and its order is reported.
    "coarse-colors": a colour-preserving generator failed
    residual_delta <= tau, so the colours merged entries that differ by
    more than tau allows; only the passing generators are reported, with
    the order of their closure, counted up to enumeration_cap.
    order_exceeded_cap is True when the order exceeds enumeration_cap;
    group_order is None only when that closure overflows the cap.

    tau must be finite and > 0, else InputError.  `basis` is checked
    against the degree of R but does not narrow the search.
    """
    if not (math.isfinite(tau) and tau > 0):
        raise InputError(f"tau must be finite and > 0, got {tau!r}")
    if enumeration_cap < 1:
        raise InputError("cap must be >= 1")
    r_arr = _check_hermitian(as_cmatrix(r))
    m = r_arr.shape[0]
    r_norm = _nonzero_norm(r_arr, "discovery")
    if basis is not None and basis.degree != m:
        raise DimensionError("basis degree does not match the matrix")
    images, levels, iterations, rejected_count, saturated = _automorphism_search(
        _edge_colours(r_arr, tau), LEAVES_PER_POINT * m
    )
    accepted: list = []
    residuals: list = []
    for g in images:
        candidate = Permutation._from_trusted(g)
        delta = _residual_delta(candidate, r_arr, r_norm)
        if delta <= tau:
            accepted.append(candidate)
            residuals.append(delta)
    discovered = from_generators(accepted or [Permutation.identity(m)], "discovered")
    if len(accepted) < len(images):
        stop_reason = "coarse-colors"
        closure = closure_enumerate(discovered, cap=enumeration_cap)
        order = None if closure.overflowed else closure.count
    else:
        stop_reason = "saturated" if saturated else "complete"
        order = math.prod(level.orbit_length for level in levels)
    return DiscoveryResult(
        generators=tuple(accepted),
        residuals=tuple(residuals),
        group_order=order,
        order_exceeded_cap=order is None or order > enumeration_cap,
        alpha=_coloring_alpha(discovered, r_arr, r_norm),
        iterations=iterations,
        rejected_count=rejected_count,
        stop_reason=stop_reason,
        trace=levels,
    )


@dataclass(frozen=True)
class LibraryMatch:
    """One ranked library entry: worst-generator residual and group data."""

    name: str
    score: float
    alpha: float
    group_order: int | None
    order_exceeded_cap: bool


@dataclass(frozen=True)
class LibraryReport:
    """Ranked matches plus one warning string per skipped library entry."""

    matches: tuple
    warnings: tuple


def match_library(r, library, enumeration_cap: int = 10**4) -> LibraryReport:
    """Rank candidate actions by their worst-generator residual on R.

    The score is the largest delta over the action's generators: 0 exactly
    when R is invariant; on any other R it depends on the generating set.
    Entries whose degree does not match R are skipped with a warning
    record, not an error.  Scores are compared after quantization to 1e-12
    so floating-point near-ties resolve by the preference rules: larger
    group order first (more structure when both fit), then name.
    """
    if enumeration_cap < 1:
        raise InputError("cap must be >= 1")
    r_arr = as_cmatrix(r)
    actions = tuple(library)
    if not actions:
        raise DimensionError("library must contain at least one action")
    entries = []
    warnings = []
    r_norm = None  # checked at the first action of R's degree
    for action in actions:
        if action.degree != r_arr.shape[0]:
            warnings.append(
                f"skipped {action.name}: degree {action.degree} does not match "
                f"the matrix degree {r_arr.shape[0]}"
            )
            continue
        r_norm = r_norm or _nonzero_norm(r_arr, "residual")
        score = max(_residual_delta(g, r_arr, r_norm) for g in action.generators)
        closure = closure_enumerate(action, cap=enumeration_cap)
        entries.append(
            LibraryMatch(
                name=action.name,
                score=score,
                alpha=_coloring_alpha(action, r_arr, r_norm),
                group_order=None if closure.overflowed else closure.count,
                order_exceeded_cap=closure.overflowed,
            )
        )
    def rank_key(e: LibraryMatch):
        quantized = int(round(e.score / 1e-12))
        order = e.group_order if e.group_order is not None else enumeration_cap + 1
        return (quantized, -order, e.name)
    return LibraryReport(tuple(sorted(entries, key=rank_key)), tuple(warnings))

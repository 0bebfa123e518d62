"""Finite permutation actions on signal index sets.

A GroupAction is a generating set of permutations of {0..M-1}; everything
downstream (invariant averaging, matched transforms, discovery) consumes
actions through the two primitives here: the partition of ordered index
pairs into orbits, and the breadth-first closure that counts the group's
elements.  Orbit averaging is what keeps large groups tractable: projecting
a covariance onto the invariant algebra never enumerates group elements.
Matched-basis synthesis also reads structure off an action here: the
coordinates of an affine action A x| H, with A grown from the generators
or from the elements `_proposal` keeps and proved by one exact integer
check (`_linear_parts`), and the two factors of an imprimitive one for a
minimal block system,
with bounds on its rank against which the caller proves the wreath rule
(`_wreath_splits`).
"""

from __future__ import annotations

import operator
import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionError, InputError
from .numkernel import as_cmatrix

MAX_DEGREE = 4096  # dense-matrix scale ceiling for the whole toolkit
# product specs nest at most this deep: each level with non-trivial factors
# at least doubles the degree, so 12 levels already reach MAX_DEGREE
MAX_SPEC_DEPTH = 32


class Permutation:
    """A bijection of {0..n-1}, stored as a read-only int64 array of images."""

    __slots__ = ("_array",)

    def __init__(self, images):
        if isinstance(images, np.ndarray) and images.dtype.kind in "iu":
            arr = images.astype(np.int64)
        else:
            try:
                arr = np.array([operator.index(i) for i in images], dtype=np.int64)
            except (TypeError, OverflowError) as exc:
                raise InputError(f"permutation images must be integers: {exc}") from exc
        if arr.ndim != 1:
            raise InputError(f"permutation images must be 1-d, got shape {arr.shape}")
        n = arr.size
        if n == 0:
            raise InputError("empty permutation")
        if not np.array_equal(np.sort(arr), np.arange(n)):
            raise InputError(f"images are not a bijection of 0..{n - 1}")
        arr.flags.writeable = False
        self._array = arr

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(np.arange(degree))

    @classmethod
    def _from_trusted(cls, array: np.ndarray) -> "Permutation":
        # internal fast path: array is an int64 bijection the caller hands over
        p = object.__new__(cls)
        array.flags.writeable = False
        p._array = array
        return p

    @property
    def images(self) -> tuple:
        return tuple(self._array.tolist())

    @property
    def degree(self) -> int:
        return self._array.size

    def as_array(self) -> np.ndarray:
        return self._array

    def __call__(self, i: int) -> int:
        return int(self._array[i])

    def inverse(self) -> "Permutation":
        inv = np.empty(self.degree, dtype=np.int64)
        inv[self._array] = np.arange(self.degree)
        return Permutation._from_trusted(inv)

    def is_identity(self) -> bool:
        return np.array_equal(self._array, np.arange(self.degree))

    def cycle_string(self) -> str:
        """Disjoint-cycle notation; fixed points omitted; identity is '()'."""
        images = self._array.tolist()
        seen = [False] * len(images)
        parts = []
        for start in range(len(images)):
            if seen[start] or images[start] == start:
                seen[start] = True
                continue
            cyc = [start]
            seen[start] = True
            j = images[start]
            while j != start:
                cyc.append(j)
                seen[j] = True
                j = images[j]
            parts.append("(" + " ".join(str(x) for x in cyc) + ")")
        return "".join(parts) if parts else "()"

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and np.array_equal(self._array, other._array)

    def __hash__(self) -> int:
        return hash(self._array.tobytes())

    def __repr__(self) -> str:
        return f"Permutation({self.cycle_string()}, degree={self.degree})"


def _parse_ints(tokens) -> list:
    try:
        return [int(t) for t in tokens]
    except ValueError as exc:
        raise InputError(f"permutation entries must be integers: {exc}") from exc


def parse_permutation(text: str, degree: int | None = None) -> Permutation:
    """Parse disjoint cycles '(0 1 2)(4 5)' (degree required) or an image list."""
    text = text.strip()
    if "(" in text:
        if degree is None:
            raise InputError("cycle notation needs an explicit degree")
        images, used = list(range(degree)), set()
        body = text.replace(")", ")\x00").split("\x00")
        for chunk in body:
            chunk = chunk.strip()
            if not chunk:
                continue
            if not (chunk.startswith("(") and chunk.endswith(")")):
                raise InputError(f"malformed cycle chunk: {chunk!r}")
            entries = chunk[1:-1].replace(",", " ").split()
            cyc = _parse_ints(entries)
            if any(not 0 <= c < degree for c in cyc):
                raise InputError(f"cycle entry out of range 0..{degree - 1}: {chunk}")
            for c in cyc:
                if c in used:
                    raise InputError(f"point {c} appears twice; cycles must be disjoint")
                used.add(c)
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                images[a] = b
        return Permutation(images)
    entries = text.replace(",", " ").split()
    if not entries:
        raise InputError("empty permutation text")
    images = _parse_ints(entries)
    if degree is not None and len(images) != degree:
        raise InputError(f"expected {degree} images, got {len(images)}")
    return Permutation(images)


@dataclass(frozen=True)
class GroupAction:
    """A named generating set of permutations acting on {0..degree-1}."""

    name: str
    degree: int
    generators: tuple = field()

    def __post_init__(self):
        gens = tuple(self.generators)
        if not gens:
            raise InputError("an action needs at least one generator")
        for g in gens:
            if g.degree != self.degree:
                raise InputError("generator degree does not match the action")
        object.__setattr__(self, "generators", gens)


@dataclass(frozen=True)
class PairOrbitPartition:
    """Orbits of the diagonal action on ordered index pairs.

    orbit_id[i, j] is the orbit label of (i, j); labels run 0..orbit_count-1
    in order of first appearance under a row-major scan; transpose[o] = o^T.
    """

    degree: int
    orbit_id: np.ndarray
    orbit_count: int
    transpose: np.ndarray

    def average(self, r: np.ndarray) -> np.ndarray:
        """Replace each entry of the degree x degree complex matrix r by the
        mean of r over its pair orbit."""
        # bincount and the gather each cast int32 ids to intp; cast once
        ids = self.orbit_id.ravel().astype(np.intp)
        counts = np.bincount(ids, minlength=self.orbit_count)
        sums = np.bincount(ids, weights=r.real.ravel(), minlength=self.orbit_count)
        sums = sums + 1j * np.bincount(ids, weights=r.imag.ravel(), minlength=self.orbit_count)
        means = sums / counts
        return means[ids].reshape(self.degree, self.degree)


@dataclass(frozen=True)
class ClosureResult:
    """Closure count: the group order, or, when overflowed, the first count
    past the cap."""

    count: int
    overflowed: bool


# ---------------------------------------------------------------------------
# constructors

def _check_degree(degree: int, lo: int = 1):
    if degree < lo or degree > MAX_DEGREE:
        raise InputError(f"degree {degree} outside {lo}..{MAX_DEGREE}")


def _check_log2_degree(n: int):
    # checked before 2^n or an n-long list is built, so huge n fails fast
    if n < 1 or n >= MAX_DEGREE.bit_length():
        raise InputError(f"degree 2^{n} outside 2..{MAX_DEGREE}")


def make_trivial(degree: int) -> GroupAction:
    """The trivial action: single identity generator."""
    _check_degree(degree)
    return GroupAction(f"trivial:{degree}", degree, (Permutation.identity(degree),))


def make_cyclic(m: int) -> GroupAction:
    """Z_m acting by index shift j -> j+1 (mod m)."""
    _check_degree(m)
    shift = Permutation((np.arange(m) + 1) % m)
    return GroupAction(f"cyclic:{m}", m, (shift,))


def make_dihedral(m: int, degree_m: bool = False) -> GroupAction:
    """Dihedral action by shift j -> j+1 and reflection j -> n-1-j on n
    points: dihedral:m on n = 2m (closure order 4m), dihedralM:m with
    degree_m=True on n = m (closure order 2m).  On 2 points the shift is the
    reflection, and it is emitted once."""
    n = m if degree_m else 2 * m
    _check_degree(n, lo=2)
    rot = Permutation((np.arange(n) + 1) % n)
    refl = Permutation(np.arange(n)[::-1])
    name = f"dihedralM:{m}" if degree_m else f"dihedral:{m}"
    return GroupAction(name, n, (rot, refl) if n > 2 else (rot,))


def make_boolean(n: int) -> GroupAction:
    """(Z_2)^n acting on 2^n points by XOR; generator l is j -> j XOR 2^l."""
    _check_log2_degree(n)
    m = 1 << n
    gens = tuple(Permutation(np.arange(m) ^ (1 << l)) for l in range(n))
    return GroupAction(f"boolean:{n}", m, gens)


_NODE_KINDS = ("cyclic", "symmetric")


def _normalize_branching(branching) -> tuple:
    """(branching as (k, kind) pairs, the tree's degree), the degree checked."""
    out, degree = [], 1
    for entry in branching:
        k, kind = entry
        k = int(k)
        if k < 2:
            raise InputError("every branching factor must be >= 2")
        kind = str(kind)
        if kind not in _NODE_KINDS:
            raise InputError(f"unknown node kind {kind!r} (want cyclic|symmetric)")
        out.append((k, kind))
        degree *= k
    if not out:
        raise InputError("empty branching list")
    _check_degree(degree)
    return tuple(out), degree


def _branching_name(branching) -> str:
    return "wreath:" + ",".join(f"{k}{kind[0]}" for k, kind in branching)


def make_wreath(branching) -> GroupAction:
    """Iterated wreath action on a rooted tree of uniform branching.

    branching is root-first: entry 0 = (child count, node kind) at the root
    (level 1), the last entry is the level adjacent to the leaves.  H wr K is
    generated by K's generators on the blocks and H's generators on one block
    (Dixon & Mortimer, Permutation Groups, 1996, sec. 2.6), so the iterated
    wreath is generated by each level's leftmost node: the rotation of its k
    child blocks, and for a symmetric node with k > 2 the swap of its first
    two blocks as well, since a k-cycle and a transposition of neighbours in
    it generate S_k.  Generators are emitted level by level from the root,
    rotation first: 6 for wreath:4c,4c,4c,4c,4c,4c, 12 for
    wreath:4s,4s,4s,4s,4s,4s.
    """
    branching, degree = _normalize_branching(branching)
    gens = []
    span = degree  # leaf span of the leftmost node at the current level
    for k, kind in branching:
        width = span // k  # leaf span of each child block
        images = np.arange(degree)
        images[:span] = (np.arange(span) + width) % span
        gens.append(Permutation(images))
        if kind == "symmetric" and k > 2:
            images = np.arange(degree)
            images[: 2 * width] = np.roll(images[: 2 * width], width)
            gens.append(Permutation(images))
        span = width
    return GroupAction(_branching_name(branching), degree, tuple(gens))


def make_dyadic_wreath(levels: int) -> GroupAction:
    """Binary-tree action on 2^levels leaves: the left/right subtree swap of
    each level's leftmost node (root = level 1), `levels` generators in all,
    which generate every node's swap (see make_wreath)."""
    _check_log2_degree(levels)
    base = make_wreath([(2, "cyclic")] * levels)
    return GroupAction(f"dyadic-wreath:{levels}", base.degree, base.generators)


def make_hybrid(w: int, k: int) -> GroupAction:
    """K blocks of W samples under Z_W wr S_K (order W^K * K!): the
    action of wreath:Ks,Wc, whose generators are the block K-cycle, the
    (0 1) block swap when K > 2, and the cyclic shift inside block 0."""
    if w < 2 or k < 2:
        raise InputError("hybrid needs W >= 2 and K >= 2")
    base = make_wreath([(k, "symmetric"), (w, "cyclic")])
    return GroupAction(f"hybrid:{w},{k}", base.degree, base.generators)


def make_product(left: GroupAction, right: GroupAction) -> GroupAction:
    """Direct product acting on the index grid (i, j) -> i*n + j."""
    m, n = left.degree, right.degree
    degree = m * n
    _check_degree(degree)
    grid = np.arange(degree).reshape(m, n)
    gens = []
    for g in left.generators:
        gens.append(Permutation(grid[g.as_array(), :].ravel()))
    for h in right.generators:
        gens.append(Permutation(grid[:, h.as_array()].ravel()))
    return GroupAction(f"product:({left.name},{right.name})", degree, tuple(gens))


def from_generators(perms, name: str) -> GroupAction:
    """Wrap an explicit generating set as a named action."""
    perms = tuple(perms)
    if not perms:
        raise InputError("need at least one generator")
    return GroupAction(name, perms[0].degree, perms)


# ---------------------------------------------------------------------------
# orbit machinery

def _hook_and_compress(n: int, edges: list, labels=None) -> tuple:
    """Connected components of {0..n-1} by Shiloach-Vishkin hook-and-compress.

    edges is a list of (src, dst) int32 index arrays, joined into one edge
    set.  labels, when given, is a flat labelling joined in place (every
    entry its class's smallest element); it defaults to the singletons.
    Each round reads the labels of every live edge's ends, drops the edges
    whose ends share a label, hooks the larger label onto the smaller
    (np.minimum.at, so a label hooked from several edges takes the
    smallest), then jumps pointers until every label is a root.  Labels
    only ever decrease, so every component ends labelled by its smallest
    index.  Returns (labels, rounds).
    """
    if labels is None:
        labels = np.arange(n, dtype=np.int32)
    if not edges:
        return labels, 0
    src = np.concatenate([e[0] for e in edges])
    dst = np.concatenate([e[1] for e in edges])
    rounds = 0
    while src.size:
        rounds += 1
        a, b = labels[src], labels[dst]
        keep = a != b
        src, dst = src[keep], dst[keep]
        if not src.size:
            break
        a, b = a[keep], b[keep]
        np.minimum.at(labels, np.maximum(a, b), np.minimum(a, b))
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped
    return labels, rounds


_CHUNK = 1 << 17  # pair entries handled per numpy call in pair_orbits
_FLUSH = 1 << 12  # label pairs held, at least, before pair_orbits joins them


def _moved_entries(images: list, m: int) -> tuple:
    """(point, generator, image) for every point a generator moves, sorted
    by point, a chunk of generators at a time; first[p]:first[p + 1] are
    point p's entries.  Returns (src, gen, dst, first) as arrays."""
    points = np.arange(m)
    # points[:0] keeps an empty generator list valid
    src, gen, dst = [points[:0]], [points[:0]], [points[:0]]
    step = max(1, _CHUNK // m)
    for at in range(0, len(images), step):
        chunk = np.stack(images[at : at + step])
        g, p = np.nonzero(chunk != points)
        src.append(p)
        gen.append(g + at)
        dst.append(chunk[g, p])
    src = np.concatenate(src)
    order = np.argsort(src, kind="stable")
    src, gen, dst = src[order], np.concatenate(gen)[order], np.concatenate(dst)[order]
    return src, gen, dst, np.searchsorted(src, np.arange(m + 1))


def _schreier_forest(entries: tuple, m: int) -> tuple:
    """Breadth-first Schreier trees of an action on m points, one per orbit.

    Each orbit's tree is grown from its smallest point, orbits in order of
    that point, along the generators that move each point (entries, the
    action's `_moved_entries`).  Returns (order, parent, via) as lists:
    order holds the points in the order they were reached, each root first
    in its orbit; the tree edge into j is generator via[j] applied to
    parent[j] (both -1 at a root).
    """
    _, gen, dst, first = entries
    gen, dst, first = gen.tolist(), dst.tolist(), first.tolist()
    via, parent, queue = [-2] * m, [-1] * m, []
    for b in range(m):
        if via[b] != -2:
            continue
        via[b] = -1
        at = len(queue)
        queue.append(b)
        while at < len(queue):  # the queue grows while it is read
            i = queue[at]
            at += 1
            for e in range(first[i], first[i + 1]):
                j = dst[e]
                if via[j] == -2:
                    via[j], parent[j] = gen[e], i
                    queue.append(j)
    return queue, parent, via


class _SchreierReader:
    """An action's Schreier data, from its generators' image arrays on m
    points, each part built once: the moved entries (`_moved_entries`), the
    breadth-first forest (`_schreier_forest`), and on first use the entries
    by generator (`by_gen`, for `_image`), the minimal blocks grown from 0
    (`blocks`, by point) and an (m, m) int32 table of pair labels: (i, j) is
    labelled a*m + t_i^-1(j), a numbering i's point orbit (bases[a] its root
    b) and t_i the generators' product along the tree path from b to i.  The
    labels of (i, j) and (g i, g j) are x and s(x) for the Schreier
    generator s = t_{g(i)}^-1 g t_i of the stabilizer G_b: joined over the
    first tree rows (`read`) they give the orbits of a subgroup of G_b
    (`_wreath_splits`), and over every row G_b's, so the pair orbits
    (`_pair_partition`; Schreier's lemma, Seress 2003, section 4.1)."""

    def __init__(self, images: list, m: int):
        self.images, self.m, self.blocks, self.table = images, m, {}, None
        self.entries = _moved_entries(images, m)
        self.tree = _schreier_forest(self.entries, m)
        # the rows joined so far, and a label per point of each root's row
        self.done, self.labels = 0, np.arange(self.tree[2].count(-1) * m, dtype=np.int32)

    @cached_property
    def by_gen(self) -> tuple:
        """The entries sorted by generator: the keys g*m + p and images g(p)."""
        src, gen, dst, _ = self.entries
        keys = gen * self.m + src
        order = np.argsort(keys, kind="stable")
        return keys[order], dst[order]

    def read(self, count: int) -> np.ndarray:
        """The labels joined over the table's first count rows, on from those
        joined before: `join`'s pairs are held until there are _FLUSH of them
        (or as many as labels, up to _CHUNK), then joined by one union-find."""
        labels, pending, held = self.labels, [], 0
        for u, v in self.join(self.done, count):
            a, b = np.take(labels, u), np.take(labels, v)
            join = a != b
            if not join.any():
                continue
            pending.append((a[join], b[join]))
            held += pending[-1][0].size
            if held >= min(_CHUNK, max(labels.size, _FLUSH)):
                labels, _ = _hook_and_compress(labels.size, pending, labels)
                pending, held = [], 0
        self.labels, _ = _hook_and_compress(labels.size, pending, labels)
        self.done = max(self.done, count)
        return self.labels

    def inverses(self, count: int) -> np.ndarray:
        """The table, its rows t_i^-1 filled for the first count points in
        breadth-first order, each from its parent's through
        t_{g(i)}^-1 g = t_i^-1, a scatter that never forms g^-1, into row
        at[i]."""
        m, (queue, parent, via) = self.m, self.tree
        t, todo = self.table, queue[self.filled : count]
        up, rows = parent, todo  # the rows of each point's parent and of todo's points
        if self.ordered:
            rows = range(self.filled, count)
            up = dict(zip(todo, self.at[[parent[j] for j in todo]].tolist()))
        for i, j in zip(rows, todo):
            if via[j] < 0:
                t[i] = np.arange(len(self.bases) * m, (len(self.bases) + 1) * m)
                self.bases.append(j)
            else:
                t[i, self.images[via[j]]] = t[up[j]]
        self.filled = max(self.filled, count)
        return t

    def join(self, lo: int, hi: int):
        """Yield (u, v) label arrays, a chunk at a time, holding the labels of
        (i, j) and (g i, g j) for every generator g that moves the pair and
        every point i of table rows lo:hi, and maybe equal labels too: by
        generator (`_generator_pairs`) or by row, whichever are fewer, or in
        one gather when every row's pairs are few.  Unless the first join
        reads every row, point i's row at[i] is its breadth-first place
        (ordered), so the first rows touch few of the table's huge pages."""
        m, images = self.m, self.images
        src, gen, dst, first = self.entries
        if lo >= hi:
            return
        if self.table is None:
            self.table, self.filled, self.bases = np.empty((m, m), np.int32), 0, []
            self.ordered = hi - lo < m
            self.order = np.array(self.tree[0]) if self.ordered else np.arange(m)
            self.at = np.argsort(self.order) if self.ordered else self.order
        points, at = self.order[lo:hi], self.at
        if self.ordered:  # fill the table as far as the rows and their images
            reached = at[np.append(points, dst[_entries_of(first, points)[1]])]
        t = self.inverses(int(reached.max()) + 1 if self.ordered else m)
        if not self.ordered and 0 < len(images) * m * m <= _CHUNK:
            gs = np.stack(images)
            v = t[gs[:, :, None], gs[:, None, :]]
            yield np.broadcast_to(t, v.shape), v
        elif len(images) <= hi - lo:
            for k, g in enumerate(images):
                yield from self._generator_pairs(g, self.via[g] != k, lo, hi)
        else:
            for r, i in zip(range(lo, hi), points.tolist()):
                u, start, end = t[r], first[i], first[i + 1]
                movers, moved = gen[start:end], dst[start:end]
                fixes = np.ones(len(images), dtype=bool)
                fixes[movers] = False
                keep = fixes[gen]
                yield u[src[keep]], u[dst[keep]]
                for g, gi in zip(movers.tolist(), moved.tolist()):
                    yield u, t[at[gi]][images[g]]

    @cached_property
    def via(self) -> np.ndarray:
        """The generator of each point's tree edge, -1 at a root."""
        return np.array(self.tree[2])

    def _generator_pairs(self, g: np.ndarray, untree: np.ndarray, lo: int, hi: int):
        """`join`'s pairs for generator g on table rows lo:hi, in chunks:
        untree marks the points i whose tree edge is not g from i (one that
        is keeps its pairs' labels)."""
        m, t, at = self.m, self.table, self.at
        points = self.order[lo:hi]
        moved = g != np.arange(m)
        # moved rows x all columns
        live = points[(moved & untree)[points]]
        step = max(1, _CHUNK // m)
        for start in range(0, live.size, step):
            rr = live[start : start + step]
            u, v = t[at[rr]], np.take(t[at[g[rr]]], g, axis=1)
            join = u != v
            if join.any():
                yield u[join], v[join]
        # fixed rows x the moved columns, read in slabs of rows with the
        # moved rows made equal; g permutes the moved columns, so v is a
        # column permutation of u
        support = np.flatnonzero(moved)
        if support.size in (0, m):
            return
        shift = np.searchsorted(support, g[support])
        step = max(1, _CHUNK // support.size)
        for start in range(lo, hi, step):
            end = min(start + step, hi)
            u = np.take(t[start:end], support, axis=1)
            v = u[:, shift]
            rows = moved[self.order[start:end]]
            v[rows] = u[rows]
            yield u, v


def _pair_partition(reader: _SchreierReader) -> PairOrbitPartition:
    """The pair orbits of reader's action: its labels read on over every
    tree row, then its table relabelled into point order by the rank of
    each class's smallest label a*M + x, the class's first pair (b, x) in a
    row-major scan (b its orbit's first row), whose transpose gives o^T."""
    m, labels = reader.m, reader.read(reader.m)
    table, bases, reader.table = reader.table, np.array(reader.bases), None
    is_root = labels == np.arange(labels.size, dtype=np.int32)
    rank = (np.cumsum(is_root, dtype=np.int32) - 1)[labels]
    ids = np.empty_like(table) if reader.ordered else table
    step = max(1, _CHUNK // m)
    for at in range(0, m, step):  # a block of rows at a time
        ids[reader.order[at : at + step]] = rank[table[at : at + step]]
    roots = np.flatnonzero(is_root)
    return PairOrbitPartition(m, ids, roots.size, ids[roots % m, bases[roots // m]])


def pair_orbits(action: GroupAction) -> PairOrbitPartition:
    """Partition ordered index pairs into orbits of the diagonal action.

    Each pair is labelled by its image in its point orbit's first row,
    through a breadth-first Schreier tree (`_SchreierReader`): at most
    (point orbits) * M labels, never M^2.  The labels of p and g.p are
    joined for every generator g and pair p that g moves, a chunk at a time
    (`_pair_partition`); on a regular action no label merges.
    """
    images = [g.as_array() for g in action.generators if not g.is_identity()]
    return _pair_partition(_SchreierReader(images, action.degree))


def _smith_form(a: list) -> tuple:
    """Smith normal form of a nonsingular square integer matrix, given as
    rows of Python ints: (d, v) with u a v = diag(+-d) for some unimodular
    u, positive d[0] | d[1] | ..., and v the unimodular column transform.
    Each step moves the smallest nonzero entry of the trailing block to the
    pivot and reduces its row and column by it (Cohen 1993, section 2.4.4).
    """
    n = len(a)
    a = [list(row) for row in a]
    v = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(n):
        while True:
            _, i, j = min((abs(a[i][j]), i, j) for i in range(k, n)
                          for j in range(k, n) if a[i][j])
            a[k], a[i] = a[i], a[k]
            for row in a + v:
                row[k], row[j] = row[j], row[k]
            p = a[k][k]
            for i in range(k + 1, n):
                q = a[i][k] // p
                a[i] = [x - q * y for x, y in zip(a[i], a[k])]
            for j in range(k + 1, n):
                q = a[k][j] // p
                for row in a + v:
                    row[j] -= q * row[k]
            if any(a[i][k] for i in range(k + 1, n)) or any(a[k][k + 1 :]):
                continue  # a remainder is left: it is the next, smaller pivot
            bad = [i for i in range(k + 1, n) if any(x % p for x in a[i][k + 1 :])]
            if not bad:
                break
            a[k] = [x + y for x, y in zip(a[k], a[bad[0]])]
    return [abs(a[k][k]) for k in range(n)], v


def _regular_abelian_coordinates(images: list, m: int):
    """Coordinates for the abelian group A that images grow from point 0,
    or None when they grow no orbit of all m points.

    images are image arrays on m points.  Returns (c, d, grown): c[p] is
    point p's coordinate vector in A = Z_d[0] + Z_d[1] + ... (d[0] | d[1] |
    ..., each > 1, product m), with c[0] = 0, and grown lists the elements
    that grew the orbit.  The orbit of point 0 is grown one element at a
    time: an element g that takes 0 outside it is kept, with its relative
    order r (g^r(0) is the q-th orbit point), and the orbit becomes itself,
    then g of it, ..., then g^(r-1) of it, so point i of the orbit has
    exponent i in mixed radix over the kept orders.  Each kept element
    multiplies the orbit by r >= 2, so at most log2(m) are kept.  Their
    relations g^r = (exponents of q) form a triangular integer matrix whose
    Smith form gives A, and c = (exponents) v mod d.  All of this is exact
    integer arithmetic, O(m) per element.  The orbit must cover all m
    points without overlap; the rest is a guess that `_linear_parts`
    proves: when every grown element g satisfies c(g(p)) = c(p) + c(g(0))
    mod d for every p, they generate the translation group of A acting
    regularly.
    """
    order = np.zeros(1, dtype=np.int64)  # the orbit of 0, in exponent order
    index = np.full(m, -1, dtype=np.int64)
    index[0] = 0
    radices, relations, grown = [], [], []
    for g in images:
        if index[g[0]] >= 0:
            continue
        blocks = [order]
        while True:
            image = g[blocks[-1]]
            q = int(index[image[0]])
            if q >= 0:
                break
            if (len(blocks) + 1) * order.size > m:
                return None
            blocks.append(image)
        row = []
        for r in radices:
            q, digit = divmod(q, r)
            row.append(-digit)
        radices.append(len(blocks))
        relations.append(row + [len(blocks)])
        grown.append(g)
        order = np.concatenate(blocks)
        index[order] = np.arange(order.size)
        if np.count_nonzero(index >= 0) != order.size:
            return None  # the translates of the orbit overlap
    if order.size != m or m == 1:
        return None
    t = len(radices)
    d, v = _smith_form([row + [0] * (t - len(row)) for row in relations])
    keep = [(k, d_k) for k, d_k in enumerate(d) if d_k > 1]
    # reduced in Python ints: v's entries may exceed int64 before the mod
    v = np.array([[row[k] % d_k for k, d_k in keep] for row in v], dtype=np.int64)
    d = np.array([d_k for _, d_k in keep])
    strides = np.cumprod([1] + radices[:-1])
    exponents = np.arange(m)[:, None] // strides % radices
    coords = np.empty((m, d.size), dtype=np.int64)
    coords[order] = exponents @ v % d
    return coords, tuple(d.tolist()), grown


_PAIRED_GENERATORS = 8  # the affine proposal multiplies the first this many in pairs


def _cycle_through_zero(g: np.ndarray) -> int:
    """Length of a permutation's cycle through point 0."""
    images, length, x = g.tolist(), 1, g[0]
    while x:
        x = images[x]
        length += 1
    return length


def _commuting(c: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """Which rows g of stack commute with c, as image arrays: g c = c g."""
    return np.all(stack[:, c] == c[stack], axis=1)


def _proposal(images: list) -> list:
    """Elements proposed to grow a normal regular abelian A, from the
    generators' image arrays: of the generators and the products in pairs
    of the first _PAIRED_GENERATORS of them, those that fix no point and
    commute with their conjugates g c g^-1 by those generators, as
    elements of a normal abelian A do; longest cycle through 0 first, each
    kept if it commutes with those kept before."""
    paired, points = np.stack(images[:_PAIRED_GENERATORS]), np.arange(images[0].size)
    candidates = images + [g[h] for g in paired for h in paired]
    free = {c.tobytes(): c for c in candidates if c[0] != 0 and np.all(c != points)}
    kept = []
    for c in sorted(free.values(), key=_cycle_through_zero, reverse=True):
        if kept and not _commuting(c, np.stack(kept)).all():
            continue
        stuck = paired[~_commuting(c, paired)]
        conjugates = np.empty_like(stuck)  # g c g^-1 takes g(x) to g(c(x))
        np.put_along_axis(conjugates, stuck, stuck[:, c], axis=1)
        if _commuting(c, conjugates).all():
            kept.append(c)
    return kept


def _affine_coordinates(images: list, m: int, candidates: list):
    """Coordinates for an affine action A x| H, with A grown from
    candidates, or None.

    images are the generators' image arrays on m points, and candidates
    image arrays of elements of the group: the generators themselves, or
    those `_proposal` keeps.  `_regular_abelian_coordinates` grows the
    orbit of 0 from the candidates and gives coordinates c, with c[0] = 0,
    for the A they would generate.  Nothing of it is trusted:
    `_linear_parts` checks that the elements that grew the orbit are
    translations, c(g(p)) = c(p) + c(g(0)) mod d for every p, so A is
    regular abelian and lies in the group, and that every generator acts
    affinely, c(g(p)) = L_g c(p) + c(g(0)) mod d, with L_g read off the
    points whose coordinates are unit vectors and well defined on A
    (d_j L_g e_j = 0 mod d).  Then each generator normalizes A, so the
    group is A x| H with H = <L_g>.  Returns (c, d, linear): linear lists
    the L_g that are not the identity, as integer arrays whose row j is
    L_g e_j; it is empty exactly when the action is regular abelian
    (H = 1).  All of this is integer work, O(m) per candidate and per
    generator.
    """
    found = _regular_abelian_coordinates(candidates, m)
    linear = None if found is None else _linear_parts(images, *found)
    return None if linear is None else found[:2] + (linear,)


def _linear_parts(images: list, coords: np.ndarray, d: tuple, grown: list):
    """Each generator's L_g for the coordinates c, or None when an element
    of grown is not a translation or a generator is not affine
    (`_affine_coordinates`).  A translation needs no L_g, so a generator
    among grown is checked once, as a translation."""
    d = np.array(d)
    if any(np.any((coords[g] - coords - coords[g[0]]) % d) for g in grown):
        return None
    rest = [g for g in images if not any(g is h for h in grown)]
    if not rest:
        return []  # every generator grew A: the action is regular abelian
    strides = np.cumprod(np.concatenate(([1], d[:0:-1])))[::-1]
    at = np.empty(coords.shape[0], dtype=np.int64)
    at[coords @ strides] = np.arange(coords.shape[0])
    units = at[strides]  # the points with coordinates e_0, e_1, ...
    identity = np.eye(d.size, dtype=np.int64)
    linear = []
    for g in rest:
        shift = coords[g[0]]
        lin = (coords[g[units]] - shift) % d
        translation = np.array_equal(lin, identity)
        image = coords if translation else coords @ lin
        if np.any(lin * d[:, None] % d) or np.any((coords[g] - image - shift) % d):
            return None
        if not translation:
            linear.append(lin)
    return linear


def _character_orbits(d: tuple, linear: list) -> np.ndarray:
    """The orbits of H = <L> on the characters of A = Z_d[0] + Z_d[1] + ...

    chi_k o L = chi_k' with k'_j = sum_i k_i L[j, i] d_j / d_i mod d_j, an
    integer map because L is well defined on A.  Characters are numbered in
    mixed radix over d, the first coordinate most significant, and joined
    to their images under each L by a union-find.  Returns, per character,
    the smallest character of its orbit."""
    d = np.array(d)
    m = int(np.prod(d))
    strides = np.cumprod(np.concatenate(([1], d[:0:-1])))[::-1]
    chars = np.indices(tuple(d)).reshape(d.size, m).T
    edges = [(np.arange(m), (chars @ (lin.T * d // d[:, None]) % d) @ strides)
             for lin in linear]
    return _hook_and_compress(m, edges)[0]


def _image(by_gen: tuple, m: int, g: np.ndarray, points: np.ndarray) -> np.ndarray:
    """g(p) for arrays of generator numbers and points (broadcast), read
    from a reader's `by_gen` table: p itself when g does not move it."""
    keys, images = by_gen
    query = g * m + points
    at = np.minimum(np.searchsorted(keys, query), keys.size - 1)
    return np.where(keys[at] == query, images[at], points)


def _distinct(x: np.ndarray) -> np.ndarray:
    # np.unique(x) for non-negative integers, without the masked-array check that imports numpy.ma
    x = np.sort(x)
    return x[np.diff(x, prepend=-1) != 0]


def _split(reader: _SchreierReader, labels: np.ndarray) -> tuple:
    """The wreath rule's two factors of reader's action for a block system,
    labels[p] the smallest point of p's block: blocks numbered by their
    smallest point reps[a], and block the sorted points of point 0's block.

    A generator acts as the identity on every block that holds none of the
    points it moves, so only the (generator, block) pairs that the moved
    entries name are read, and the reader's `by_gen` gives the images: K's
    image of block a is the block of g(reps[a]), and H's Schreier
    generators are the rows of points[a] mapped by g and read in local
    numbering.  A breadth-first Schreier tree on the blocks names a group
    element t_a that takes block 0 to block a; points[a, p] = t_a(block[p]).
    Returns (points, K's images, H's images), each list of images without
    repeats."""
    m, block, by_gen = labels.size, np.flatnonzero(labels == 0), reader.by_gen
    reps = np.flatnonzero(labels == np.arange(m))
    block_of, w, b = np.searchsorted(reps, labels), block.size, reps.size
    src, gen, _, _ = reader.entries
    pairs = _distinct(gen * b + block_of[src])
    gens, blocks = pairs // b, pairs % b
    targets = block_of[_image(by_gen, m, gens, reps[blocks])]
    # the generators that move blocks, each with its moved blocks in order;
    # each distinct block permutation is kept once, at its first generator
    moving = targets != blocks
    moved, targets = blocks[moving], targets[moving]
    movers, starts = np.unique(gens[moving], return_index=True)
    ends = np.append(starts[1:], moved.size)
    kept = {}
    for i, (lo, hi) in enumerate(zip(starts.tolist(), ends.tolist())):
        kept.setdefault(moved[lo:hi].tobytes() + targets[lo:hi].tobytes(), i)
    row = np.full(movers.size, -1)
    row[list(kept.values())] = np.arange(len(kept))
    row = np.repeat(row, ends - starts)
    k_table = np.tile(np.arange(b), (len(kept), 1))
    k_table[row[row >= 0], moved[row >= 0]] = targets[row >= 0]
    k_images, movers = list(k_table), movers[list(kept.values())]
    queue, parent, via = _schreier_forest(_moved_entries(k_images, b), b)
    points = np.empty((b, w), dtype=np.int64)
    points[0] = block
    for a in queue[1:]:
        points[a] = reader.images[movers[via[a]]][points[parent[a]]]
    local = np.empty(m, dtype=np.int64)
    local[points] = np.arange(w)
    schreier = local[_image(by_gen, m, gens[:, None], points[blocks])]
    schreier = schreier[np.any(schreier != np.arange(w), axis=1)]
    h_images = list({row.tobytes(): row for row in schreier}.values())
    return points, k_images, h_images


def _entries_of(first: np.ndarray, pts: np.ndarray) -> tuple:
    """For each point pts[n], the indices of its entries first[p]:first[p + 1],
    concatenated, with the position n each comes from."""
    counts = first[pts + 1] - first[pts]
    owner = np.repeat(np.arange(pts.size), counts)
    starts = np.cumsum(counts) - counts
    return owner, np.repeat(first[pts] - starts, counts) + np.arange(owner.size)


def _minimal_block(reader: _SchreierReader, x: int):
    """Atkinson's algorithm: the finest block system of reader's action in
    which points 0 and x share a block, as labels (each point labelled by
    its block's smallest point), or None when that block holds more than
    half the points, so all of them.

    Every pair joined is mapped by every generator and the image pairs
    joined in turn, until no image pair is new.  Only the generators that
    move p or q move the pair (p, q): the moved entries of p and q name
    them, and the reader's `by_gen` gives the other point's image."""
    m, by_gen = reader.m, reader.by_gen
    _, gen, dst, first = reader.entries
    labels = np.arange(m, dtype=np.int32)
    p, q = np.zeros(1, dtype=np.int64), np.full(1, x, dtype=np.int64)
    while p.size:
        labels, _ = _hook_and_compress(m, [(p, q)], labels)
        if 2 * np.count_nonzero(labels == 0) > m:
            return None
        n_p, e_p = _entries_of(first, p)
        n_q, e_q = _entries_of(first, q)
        p, q = (np.concatenate([dst[e_p], _image(by_gen, m, gen[e_q], p[n_q])]),
                np.concatenate([_image(by_gen, m, gen[e_p], q[n_p]), dst[e_q]]))
        # each new pair once: a pair moved by two generators comes twice
        joined = _distinct(np.minimum(p, q) * m + np.maximum(p, q))
        p, q = joined // m, joined % m
        keep = labels[p] != labels[q]
        p, q = p[keep], q[keep]
    return labels


_BLOCK_CANDIDATES = 8  # points `_wreath_splits` tries for a block with point 0


def _blocks_hold_one_label(rows: np.ndarray, labels: np.ndarray) -> bool:
    """The wreath route's one block check: in each of rows (orbit labels of
    the points), the columns of every block but block 0 hold one label;
    labels[p] is the smallest point of p's block.  On the pair orbits of
    the rows of block 0 it proves the rank is rank(H) + rank(K) - 1, as an
    element taking a point of block a to 0 maps each pair of blocks onto
    one through block 0.  On a rank bound as one row it must pass before
    the bound can prove a split: a split puts every other block inside
    one orbit of G_0, and a bound whose count is the rank has G_0's."""
    out = labels != 0
    return bool(np.all(rows[:, out] == rows[:1, labels[out]]))


def _wreath_splits(reader: _SchreierReader):
    """Yield the wreath rule's two factors of reader's transitive action,
    one block system at a time: (points, K's images, H's images, proves).

    One attempt is one loop over a bound on the rank: the orbits of the
    Schreier generators of G_0, the stabilizer of point 0, that the
    reader's labels join (`read`) from tree rows in breadth-first order,
    in batches of 1, 1, 2, 4, ... rows, each kept as a copy.  They generate
    a subgroup of G_0, so the bound's orbit count is at least the rank, and
    at the last row the bound is G_0's orbits.  Each pass reads the bound
    on until its count has held over two doublings.  Then x runs over the
    first _BLOCK_CANDIDATES points of the bound's smallest orbits; each
    distinct proper block holding 0 and x (`_minimal_block`, grown when
    first reached, kept in the reader's `blocks` and shared by x's orbit)
    gets `_split` when it passes `_blocks_hold_one_label` on the bound,
    once per attempt.  At the last row the check runs on the rows of block
    0, the same joined labels, and is the proof; that pass is the last, and
    every other ends by reading one more batch.  proves(rank) reads the
    bound on while its count exceeds rank, and tells whether they are
    equal.  No block is tried when intransitive or of prime degree, nor
    while over half the points are their own orbit: they all lie in block
    0, which holds at most half."""
    m = reader.m
    if all(m % w for w in range(2, int(m**0.5) + 1)):
        return  # a block's size divides m: a prime degree has no proper block
    if reader.tree[2].count(-1) != 1:
        return  # intransitive: the tree has a root per point orbit
    counts, bound, yielded = [], None, set()

    def read_on():
        nonlocal bound
        bound = reader.read(min(m, 2 * reader.done or 1)).copy()  # read writes its labels
        counts.append(np.count_nonzero(bound == np.arange(m)))  # one root per orbit

    def proves(rank: int) -> bool:
        while counts[-1] > rank and reader.done < m:
            read_on()
        return counts[-1] == rank

    while True:
        while reader.done < m and (len(counts) < 3 or counts[-3] > counts[-1]):
            read_on()
        last, checked = reader.done == m, set(yielded)
        _, reps, sizes = np.unique(bound, return_index=True, return_counts=True)
        drawn = reps[np.argsort(sizes, kind="stable")][1 : 1 + _BLOCK_CANDIDATES]  # 0's is first
        for x in drawn.tolist() if 2 * np.count_nonzero(sizes == 1) <= m else []:
            x = next((y for y in reader.blocks if bound[y] == bound[x]), x)
            if x not in reader.blocks:
                reader.blocks[x] = _minimal_block(reader, x)
            labels = reader.blocks[x]
            if labels is None or labels.tobytes() in checked:
                continue
            checked.add(labels.tobytes())
            rows = bound[None] if reader.done < m else (  # block 0's pair labels
                reader.labels[reader.table[reader.at[labels == 0]]])
            if _blocks_hold_one_label(rows, labels):
                yielded.add(labels.tobytes())
                yield _split(reader, labels) + (proves,)
        if last:
            return
        read_on()


def reynolds_project(r: np.ndarray, action: GroupAction) -> np.ndarray:
    """Average a matrix over the group: replace each entry by its pair-orbit
    mean.  Equals the explicit average over all group elements, but never
    enumerates the group."""
    r = as_cmatrix(r)
    if r.shape[0] != action.degree:
        raise DimensionError("matrix shape does not match the action degree")
    return pair_orbits(action).average(r)


def closure_enumerate(action: GroupAction, cap: int) -> ClosureResult:
    """Count the group's elements by a breadth-first closure of the
    generators, stopping at the first count that exceeds `cap`."""
    if cap < 1:
        raise InputError("cap must be >= 1")
    m = action.degree
    dtype = np.uint8 if m <= 256 else np.uint16  # MAX_DEGREE < 2^16
    gens = [g.as_array().astype(dtype) for g in action.generators]
    frontier = np.arange(m, dtype=dtype)[None, :]
    seen = {frontier[0].tobytes()}
    while True:
        fresh = []
        for g in gens:
            for row in frontier[:, g]:
                key = row.tobytes()
                if key not in seen:
                    seen.add(key)
                    if len(seen) > cap:
                        return ClosureResult(len(seen), True)
                    fresh.append(row)
        if not fresh:
            return ClosureResult(len(seen), False)
        frontier = np.stack(fresh)


# ---------------------------------------------------------------------------
# group spec mini-language

def _split_specs(text: str) -> list:
    """Split a list of group specs at its commas outside parentheses, then
    join each piece without a ':' back onto the spec before it, so
    hybrid:2,4 and wreath:4s,2c stay whole; empty pieces are dropped."""
    specs, depth, cur = [], 0, []
    for ch in text + ",":
        if ch == "(":
            depth += 1
            if depth >= MAX_SPEC_DEPTH:
                raise InputError(f"group spec nests deeper than {MAX_SPEC_DEPTH} levels")
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise InputError(f"unbalanced parentheses in {text!r}")
        if ch != "," or depth:
            cur.append(ch)
            continue
        piece, cur = "".join(cur).strip(), []
        if specs and piece and ":" not in piece:
            specs[-1] += "," + piece
        elif piece:
            specs.append(piece)
    if depth != 0:
        raise InputError(f"unbalanced parentheses in {text!r}")
    return specs


def parse_group_spec(spec: str) -> GroupAction:
    """Build an action from a compact spec string.

    Forms: trivial:M, cyclic:M, dihedral:M (acts on 2M points),
    dihedralM:M, boolean:n, dyadic-wreath:L, wreath:K1c,K2s,...,
    hybrid:W,K, product:(spec,spec), perms:<path> (one image list per line).
    """
    spec = spec.strip()
    head, sep, rest = spec.partition(":")
    head = head.strip()
    rest = rest.strip()
    if not sep or not rest:
        raise InputError(f"malformed group spec {spec!r}")
    try:
        if head == "trivial":
            return make_trivial(int(rest))
        if head == "cyclic":
            return make_cyclic(int(rest))
        if head == "dihedral":
            return make_dihedral(int(rest))
        if head == "dihedralM":
            return make_dihedral(int(rest), degree_m=True)
        if head == "boolean":
            return make_boolean(int(rest))
        if head == "dyadic-wreath":
            return make_dyadic_wreath(int(rest))
        if head == "wreath":
            branching = []
            for item in rest.split(","):
                item = item.strip()
                if len(item) < 2 or item[-1] not in ("c", "s"):
                    raise InputError(f"bad wreath level {item!r} (want e.g. 2c or 3s)")
                branching.append(
                    (int(item[:-1]), "cyclic" if item[-1] == "c" else "symmetric")
                )
            return make_wreath(branching)
        if head == "hybrid":
            w_text, k_text = (x.strip() for x in rest.split(","))
            return make_hybrid(int(w_text), int(k_text))
        if head == "product":
            if not (rest.startswith("(") and rest.endswith(")")):
                raise InputError(f"product spec needs parentheses: {spec!r}")
            inner = _split_specs(rest[1:-1])
            if len(inner) != 2:
                raise InputError(f"product takes exactly two factor specs: {spec!r}")
            return make_product(parse_group_spec(inner[0]), parse_group_spec(inner[1]))
        if head == "perms":
            path = rest
            if not os.path.exists(path):
                raise InputError(f"permutation file not found: {path}")
            with open(path, "r", encoding="utf-8") as fh:
                lines = [ln.strip() for ln in fh if ln.strip()]
            if not lines:
                raise InputError(f"no permutations in {path}")
            perms = [parse_permutation(ln) for ln in lines]
            return from_generators(perms, f"perms:{path}")
    except (ValueError, TypeError) as exc:
        if isinstance(exc, InputError):
            raise
        raise InputError(f"malformed group spec {spec!r}: {exc}") from exc
    raise InputError(f"unknown group spec head {head!r}")

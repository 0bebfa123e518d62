"""Diagnostics: does a covariance commute with a group, and does a proposed
basis diagonalize it?

The residual delta (`residual_delta`) measures how far one permutation is
from commuting with R; alpha (`coloring_alpha`) is the share of R's energy
in the invariant algebra.  `subspace_match` scores a predicted basis for
`mtf verify` and `circle_check`: eigendecompose the covariance, split the
ascending eigenvalues at gaps wider than CLUSTER_REL_GAP of their range,
assign each predicted column to the nearest cluster by Rayleigh quotient,
and score each cluster by the smallest singular value of the
empirical/predicted overlap (Q_emp* Q_pred).  A score of 1 means the
predicted columns span the eigenspaces exactly; the score is invariant to
rotations inside a degenerate cluster, the only freedom a matched basis has.
Synthesis certifies its own basis (`transforms.synthesize_matched`) and
does not call it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegeneracyMismatchError,
    DimensionError,
    InputError,
    StructuralMismatchError,
    UndefinedResidualError,
)
from .groups import GroupAction, Permutation, make_dihedral, pair_orbits, reynolds_project
from .numkernel import as_cmatrix, frobenius_norm, herm_eig, random_psd
from .transforms import (
    UnitaryTransform,
    dft_matrix,
    even_extension_isometry,
    semidirect_dct_cascade,
)

CLUSTER_REL_GAP = 1e-6  # eigenvalues split where a gap exceeds this share of their range


@dataclass(frozen=True)
class MatchReport:
    """The smallest per-cluster overlap score, and the cluster sizes in
    order of the first predicted column landing in each cluster."""

    min_match: float
    degeneracy_pattern: tuple


def sample_invariant_cov(action: GroupAction, seed: int) -> np.ndarray:
    """Seeded Hermitian PSD sample projected onto the invariant algebra."""
    return reynolds_project(random_psd(action.degree, seed), action)


def residual_delta(perm: Permutation, r) -> float:
    """Normalized commutation residual ||P R - R P||_F / (||P||_F ||R||_F)."""
    arr = as_cmatrix(r)
    if arr.shape[0] != perm.degree:
        raise DimensionError("permutation degree does not match the matrix")
    return _residual_delta(perm, arr, _nonzero_norm(arr, "residual"))


def coloring_alpha(action: GroupAction, r) -> float:
    """Invariant energy fraction alpha = 1 - ||R - P_G(R)||_F^2 / ||R||_F^2."""
    arr = as_cmatrix(r)
    if arr.shape[0] != action.degree:
        raise DimensionError("matrix shape does not match the action degree")
    return _coloring_alpha(action, arr, _nonzero_norm(arr, "alpha"))


def _nonzero_norm(arr: np.ndarray, what: str) -> float:
    # ||R||_F for the cores below, which take R validated once per caller
    norm = frobenius_norm(arr)
    if norm == 0.0:
        raise UndefinedResidualError(f"{what} is undefined for the zero matrix")
    return norm


def _residual_delta(perm: Permutation, arr: np.ndarray, r_norm: float) -> float:
    # P R - R P without forming P
    comm = np.take(arr, perm.inverse().as_array(), axis=0)
    comm -= np.take(arr, perm.as_array(), axis=1)
    return float(np.linalg.norm(comm) / (np.sqrt(perm.degree) * r_norm))


def _coloring_alpha(action: GroupAction, arr: np.ndarray, r_norm: float) -> float:
    diff = arr - pair_orbits(action).average(arr)
    return 1.0 - float(np.linalg.norm(diff)) ** 2 / r_norm**2


def subspace_match(r, predicted: UnitaryTransform) -> MatchReport:
    """Score how well the predicted columns span the eigenspaces of r, as
    the module docstring describes.  A column farther than the gap rule's
    slack from every cluster raises StructuralMismatchError; a cluster
    given more or fewer columns than its dimension, DegeneracyMismatchError."""
    arr = as_cmatrix(r)
    if arr.shape[0] != predicted.degree:
        raise DimensionError("transform degree does not match the matrix")
    eig = herm_eig(arr)
    values = eig.values
    slack = CLUSTER_REL_GAP * float(values[-1] - values[0])
    # the values ascend, so each cluster is a run between gaps above slack
    bounds = np.concatenate(([0], np.flatnonzero(np.diff(values) > slack) + 1, [values.size]))
    lo, hi = values[bounds[:-1]], values[bounds[1:] - 1]
    u = predicted.matrix
    rayleigh = np.real(np.einsum("ij,ij->j", u.conj(), arr @ u))
    # distance from each column's quotient to each cluster's [lo, hi]
    dist = np.subtract.outer(rayleigh, hi)
    np.maximum(dist, lo - rayleigh[:, None], out=dist)
    np.maximum(dist, 0.0, out=dist)
    best = np.argmin(dist, axis=1)  # the first minimum, as a strict < scan
    stray = np.flatnonzero(dist.min(axis=1) > slack)
    if stray.size:
        col = int(stray[0])
        raise StructuralMismatchError(
            f"column {col} (label {predicted.column_labels[col]!r}) has "
            f"Rayleigh quotient {rayleigh[col]:.6g} inside a spectral gap"
        )
    sizes = np.diff(bounds)
    counts = np.bincount(best, minlength=sizes.size)
    short = np.flatnonzero(counts != sizes)
    if short.size:
        c_idx = int(short[0])
        raise DegeneracyMismatchError(
            f"cluster {c_idx} has dimension {sizes[c_idx]} but received "
            f"{counts[c_idx]} predicted columns"
        )
    columns = np.split(np.argsort(best, kind="stable"), bounds[1:-1])
    min_match = min(
        float(np.linalg.svd(eig.vectors[:, a:b].conj().T @ u[:, cols], compute_uv=False)[-1])
        for a, b, cols in zip(bounds[:-1], bounds[1:], columns)
    )
    # report the cluster sizes in order of their first predicted column
    order = np.argsort([cols[0] for cols in columns])
    return MatchReport(min_match, tuple(sizes[order].tolist()))


def dct_fold_cov(m: int, seed: int) -> np.ndarray:
    """Reflection-symmetric covariance on m points: sample an invariant
    covariance of the doubled-index dihedral action and compress it onto
    the even-extension subspace, R = S* R~ S.  Real symmetric up to
    floating-point noise."""
    action = make_dihedral(m)
    big = sample_invariant_cov(action, seed)
    s = even_extension_isometry(m)
    folded = s.conj().T @ big @ s
    return (folded + folded.conj().T) / 2.0


def circle_check(n: int = 64, seed: int = 1) -> MatchReport:
    """End-to-end check on the n-point circle: build a circulant with a
    deliberately well-separated spectrum (eigenvalue 1 + k/n at frequency
    pair {k, n-k}), then verify the real Fourier basis hits every
    eigenspace.  Expected degeneracy pattern: 1, then 2 per frequency pair,
    then 1 for Nyquist.  The spectrum is fixed by construction, so `seed`
    has no effect; it is kept for interface uniformity."""
    if n < 4 or n % 2:
        raise InputError("need even n >= 4")
    freqs = np.arange(n)
    folded = np.minimum(freqs, n - freqs)
    lam = 1.0 + folded / n
    four = dft_matrix(n).matrix
    r = (four * lam) @ four.conj().T
    r = (r + r.conj().T) / 2.0
    return subspace_match(r, semidirect_dct_cascade(n // 2))

"""Diagnostics: does a covariance commute with a group, and does a proposed
basis diagonalize it?

The residual delta (`residual_delta`) measures how far one permutation is
from commuting with R; alpha (`coloring_alpha`) is the share of R's energy
in the invariant algebra.  `subspace_match` scores a predicted basis for
`mtf verify` and `circle_check`: eigendecompose the covariance, group
eigenvalues into clusters, assign each predicted column to a cluster by its
Rayleigh quotient, and score each cluster by the smallest singular value of
the empirical/predicted overlap.  A score of 1 means the predicted columns
span the eigenspaces exactly; the score is invariant to rotations inside a
degenerate cluster, which is the only freedom a matched basis has.
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
from .groups import GroupAction, Permutation, make_dihedral, reynolds_project
from .numkernel import as_cmatrix, eigen_clusters, frobenius_norm, herm_eig, random_psd
from .transforms import (
    UnitaryTransform,
    dft_matrix,
    even_extension_isometry,
    semidirect_dct_cascade,
)


@dataclass(frozen=True)
class MatchReport:
    """Per-cluster subspace overlap scores, ordered by the first predicted
    column landing in each cluster; degeneracy_pattern lists cluster sizes
    in the same order."""

    per_cluster_match: tuple
    min_match: float
    degeneracy_pattern: tuple


def sample_invariant_cov(action: GroupAction, seed: int) -> np.ndarray:
    """Seeded Hermitian PSD sample projected onto the invariant algebra."""
    return reynolds_project(random_psd(action.degree, seed), action)


def residual_delta(perm: Permutation, r) -> float:
    """Normalized commutation residual ||P R - R P||_F / (||P||_F ||R||_F)."""
    arr = as_cmatrix(r, square=True)
    if arr.shape[0] != perm.degree:
        raise DimensionError("permutation degree does not match the matrix")
    r_norm = frobenius_norm(arr)
    if r_norm == 0.0:
        raise UndefinedResidualError("residual is undefined for the zero matrix")
    # P R - R P without forming P
    comm = arr[perm.inverse().as_array(), :] - arr[:, perm.as_array()]
    return float(np.linalg.norm(comm) / (np.sqrt(perm.degree) * r_norm))


def coloring_alpha(action: GroupAction, r) -> float:
    """Invariant energy fraction alpha = 1 - ||R - P_G(R)||_F^2 / ||R||_F^2."""
    arr = as_cmatrix(r, square=True)
    if arr.shape[0] != action.degree:
        raise DimensionError("matrix shape does not match the action degree")
    r_norm_sq = frobenius_norm(arr) ** 2
    if r_norm_sq == 0.0:
        raise UndefinedResidualError("alpha is undefined for the zero matrix")
    diff = arr - reynolds_project(arr, action)
    return 1.0 - float(np.linalg.norm(diff)) ** 2 / r_norm_sq


def subspace_match(r, predicted: UnitaryTransform, rel_tol: float = 1e-6) -> MatchReport:
    """Score how well the predicted columns span the eigenspaces of r.

    Each predicted column must land inside one eigenvalue cluster (Rayleigh
    quotient within rel_tol * spectral range of the cluster's value span),
    and each cluster must receive exactly as many columns as its dimension;
    the per-cluster score is the smallest singular value of Q_emp* Q_pred.
    """
    arr = as_cmatrix(r, square=True)
    if arr.shape[0] != predicted.degree:
        raise DimensionError("transform degree does not match the matrix")
    eig = herm_eig(arr)
    cset = eigen_clusters(eig.values, rel_tol)
    spread = float(eig.values[-1] - eig.values[0])
    slack = rel_tol * spread
    u = predicted.matrix
    rayleigh = np.real(np.einsum("ij,ij->j", u.conj(), arr @ u))
    assigned: list = [[] for _ in cset.clusters]
    for col, rho in enumerate(rayleigh):
        best, best_dist = -1, np.inf
        for c_idx, (_, members) in enumerate(cset.clusters):
            lo = float(np.min(eig.values[list(members)]))
            hi = float(np.max(eig.values[list(members)]))
            dist = max(lo - rho, rho - hi, 0.0)
            if dist < best_dist:
                best, best_dist = c_idx, dist
        if best_dist > slack:
            raise StructuralMismatchError(
                f"column {col} (label {predicted.column_labels[col]!r}) has "
                f"Rayleigh quotient {rho:.6g} inside a spectral gap"
            )
        assigned[best].append(col)
    for c_idx, (_, members) in enumerate(cset.clusters):
        if len(assigned[c_idx]) != len(members):
            raise DegeneracyMismatchError(
                f"cluster {c_idx} has dimension {len(members)} but received "
                f"{len(assigned[c_idx])} predicted columns"
            )
    # report clusters in order of their first predicted column
    order = sorted(range(len(cset.clusters)), key=lambda c: min(assigned[c]))
    scores = []
    pattern = []
    for c_idx in order:
        members = list(cset.clusters[c_idx][1])
        q_emp = eig.vectors[:, members]
        q_pred = u[:, assigned[c_idx]]
        overlap = q_emp.conj().T @ q_pred
        sigma = np.linalg.svd(overlap, compute_uv=False)
        scores.append(float(sigma[-1]))
        pattern.append(len(members))
    return MatchReport(tuple(scores), float(min(scores)), tuple(pattern))


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


def circle_check(n: int = 64, seed: int = 1, rel_tol: float = 1e-6) -> MatchReport:
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
    return subspace_match(r, semidirect_dct_cascade(n // 2), rel_tol)

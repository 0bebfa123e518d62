"""Dense linear-algebra kernels with explicit numeric contracts.

Factorizations are backed by LAPACK through numpy.  What this module owns
are the contracts: ascending Hermitian eigenvalues with orthonormal vectors
(reconstruction residual <= 1e-9 * ||A||_F), real in, real out (a real
symmetric input is solved by real LAPACK and gives float64 vectors; a
complex input gives complex128 ones), the float64 scale check of the
Frobenius norm, and a seeded PSD sampler whose stream is fixed by the
recipe in rng.py (same seed, same bytes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InputError, NumericError
from .rng import normal_rows

HERM_CHECK_TOL = 1e-8  # allowed relative asymmetry of "Hermitian" inputs


def _as_matrix(a, dtype) -> np.ndarray:
    arr = np.asarray(a, dtype=dtype)
    if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
        raise DimensionError(f"expected a non-empty 2-d matrix, got shape {arr.shape}")
    if arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NumericError("matrix has non-finite entries")
    return arr


def as_cmatrix(a) -> np.ndarray:
    """Validate and convert to a non-empty square finite complex128 array."""
    return _as_matrix(a, np.complex128)


def field_dtype(arr: np.ndarray) -> type:
    """Real in, real out: float64 for a boolean, integer or floating array,
    complex128 for any other."""
    return np.float64 if arr.dtype.kind in "biuf" else np.complex128


def as_matrix(a) -> np.ndarray:
    """Validate as as_cmatrix does, converting to `field_dtype`."""
    arr = np.asarray(a)
    return _as_matrix(arr, field_dtype(arr))


def frobenius_norm(a: np.ndarray) -> float:
    """||a||_F, which every residual and energy fraction divides by.

    Raises InputError when it overflows float64, or underflows to 0 while
    some entry is nonzero; it is 0 only for the zero matrix."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(a))
    if not np.isfinite(norm):
        raise InputError("matrix scale is too large: its Frobenius norm overflows float64")
    if norm == 0.0 and np.any(a):
        raise InputError("matrix scale is too small: its Frobenius norm underflows to 0")
    return norm


def _check_hermitian(a: np.ndarray) -> np.ndarray:
    """Reject asymmetry beyond tolerance, then symmetrize exactly.

    The result, (a + a*) / 2, is the one M x M temporary: a block of rows
    at a time, the block and the adjoint's matching rows are reduced to
    their largest modulus and asymmetry and summed into it."""
    m = a.shape[0]
    out = np.empty_like(a)
    scale = asym = 0.0
    rows = max(1, (1 << 16) // m)
    for at in range(0, m, rows):
        block, adjoint = a[at : at + rows], a[:, at : at + rows].conj().T
        scale = max(scale, float(np.max(np.abs(block))))
        asym = max(asym, float(np.max(np.abs(block - adjoint))))
        np.add(block, adjoint, out=out[at : at + rows])
        out[at : at + rows] /= 2.0
    if asym > HERM_CHECK_TOL * max(scale, 1e-300):
        raise NumericError(
            f"input is not Hermitian: max asymmetry {asym:.3e} vs scale {scale:.3e}"
        )
    return out


@dataclass(frozen=True)
class HermEigResult:
    """Eigenvalues in ascending order; vectors[:, k] belongs to values[k]."""

    values: np.ndarray
    vectors: np.ndarray


def herm_eig(a) -> HermEigResult:
    """Full eigendecomposition of a Hermitian matrix (symmetrized internally).

    Real in, real out: an input of real dtype is solved as real symmetric
    and gives float64 values and vectors; a complex input gives complex128
    vectors.  A complex input is never narrowed, whatever its imaginary part.
    """
    herm = _check_hermitian(as_matrix(a))
    values, vectors = np.linalg.eigh(herm)
    return HermEigResult(values, vectors)


def random_psd(degree: int, seed: int) -> np.ndarray:
    """Seeded Hermitian PSD sample A A* from i.i.d. standard complex
    Gaussian entries; deterministic per the documented stream."""
    if degree < 1:
        raise DimensionError("degree must be >= 1")
    # a[:, k] = z[:, 2k] + i z[:, 2k + 1], read in place from the draws
    a = normal_rows(seed, degree, 2 * degree).view(np.complex128)
    a /= np.sqrt(2.0)
    h = a @ a.conj().T
    del a
    h += h.conj().T
    h /= 2.0
    return h

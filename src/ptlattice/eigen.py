"""Dense non-symmetric eigendecomposition, and the one solve of a model.

Thin contract layer over LAPACK's geev (via numpy), which performs the
standard balance -> Hessenberg -> shifted QR pipeline: dgeev for float64
input, zgeev for everything else.  The wrapper pins the package-wide
conventions: unit-norm right eigenvectors, deterministic ordering by
(Re E, Im E), and a per-pair residual guarantee
||H v - E v||_2 <= 1e-8 * ||H||_F.  The eigenvalue-only path keeps the
ordering and checks the trace instead: |sum E - tr H| <= 100 eps L ||H||_F.

:func:`solve` builds a model's H and diagonalizes it.  When H is
PT-symmetric under site inversion (P conj(H) P == H exactly), it solves
the real matrix R = U^dagger H U in the PK-invariant basis
(e_j + e_{L+1-j})/sqrt2, i(e_j - e_{L+1-j})/sqrt2 (plus the middle site
for odd L) with dgeev: real eigenvalues come out with Im exactly 0 and
complex ones in exact conjugate pairs, at a third to a quarter of
zgeev's work (Bender & Boettcher, PRL 80, 5243 (1998); Mostafazadeh,
arXiv:math-ph/0107001).  Other models take the complex path.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .lattice import ModelSpec, _matrix_is_pt_symmetric, build_hamiltonian

__all__ = [
    "Spectrum",
    "EigensolverError",
    "eig",
    "eigvals",
    "solve",
    "frobenius_norm",
    "RESIDUAL_FACTOR",
    "TRACE_FACTOR",
]

RESIDUAL_FACTOR = 1e-8
TRACE_FACTOR = 100.0
_SQRT2 = float(np.sqrt(2.0))

# (get, set) thread-count symbols of the ILP64 OpenBLAS that numpy wheels
# bundle: scipy-openblas in numpy 2.x, openblas64_ in numpy 1.x.
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
)


class EigensolverError(RuntimeError):
    """Raised when the QR iteration fails or the residual contract is violated."""


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues with unit-norm right eigenvectors and per-pair residuals.

    ``eigenvectors[:, k]`` is the right eigenvector of ``eigenvalues[k]``.
    An eigenvalue-only solve leaves ``eigenvectors`` and ``residuals`` None.
    ``real_basis`` is True when the solve ran on the real PT form of H.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None
    residuals: np.ndarray | None
    real_basis: bool = False

    @property
    def dimension(self) -> int:
        return len(self.eigenvalues)

    def vector(self, k: int) -> np.ndarray:
        if self.eigenvectors is None:
            raise ValueError("eigenvalue-only spectrum has no eigenvectors")
        return self.eigenvectors[:, k]


def frobenius_norm(H: np.ndarray) -> float:
    """Frobenius norm, used as the scale for residual and classification cuts."""
    return float(np.linalg.norm(np.asarray(H)))


def _checked_matrix(H: np.ndarray) -> np.ndarray:
    """float64 input stays real (dgeev); anything else becomes complex128."""
    H = np.asarray(H)
    H = np.ascontiguousarray(H, dtype=np.float64 if H.dtype == np.float64 else np.complex128)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {H.shape}")
    if H.shape[0] < 1:
        raise ValueError("empty matrix")
    if not np.all(np.isfinite(H)):
        raise ValueError("matrix contains non-finite entries")
    return H


def eig(H: np.ndarray) -> Spectrum:
    """Full eigendecomposition with sorted output and residual check.

    Eigenvalues are sorted by ascending real part, ties by ascending
    imaginary part.  Repeated calls on identical input are bit-identical.
    """
    H = _checked_matrix(H)
    try:
        values, vectors = np.linalg.eig(H)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"QR iteration did not converge: {exc}") from exc
    values = values.astype(np.complex128, copy=False)
    order = np.lexsort((values.imag, values.real))
    values = values[order]
    vectors = vectors[:, order].astype(np.complex128, copy=False)
    vectors = vectors / np.linalg.norm(vectors, axis=0, keepdims=True)
    residuals = _checked_residuals(H, values, vectors, frobenius_norm(H))
    return Spectrum(eigenvalues=values, eigenvectors=vectors, residuals=residuals)


def _checked_residuals(
    H: np.ndarray, values: np.ndarray, vectors: np.ndarray, scale: float
) -> np.ndarray:
    """||H v - E v||_2 per pair; raises unless each is <= 1e-8 * scale."""
    gap = H @ vectors
    gap -= vectors * values
    residuals = np.linalg.norm(gap, axis=0)
    tol = RESIDUAL_FACTOR * scale
    if scale > 0 and np.max(residuals) > tol:
        worst = int(np.argmax(residuals))
        raise EigensolverError(
            f"residual contract violated: ||Hv-Ev|| = {residuals[worst]:.3e} "
            f"> {tol:.3e} at eigenvalue index {worst}"
        )
    return residuals


def eigvals(H: np.ndarray) -> np.ndarray:
    """Eigenvalues only, in :func:`eig`'s (Re E, Im E) order.

    Skips the eigenvectors and the residual product.  The check is the
    trace: |sum E - tr H| <= TRACE_FACTOR * eps * L * ||H||_F.  The values
    may differ from ``eig(H).eigenvalues`` in the last bits.
    """
    H = _checked_matrix(H)
    try:
        values = np.linalg.eigvals(H)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"QR iteration did not converge: {exc}") from exc
    values = values.astype(np.complex128, copy=False)
    values = values[np.lexsort((values.imag, values.real))]
    miss = abs(np.sum(values) - np.trace(H))
    tol = TRACE_FACTOR * np.finfo(float).eps * H.shape[0] * frobenius_norm(H)
    if miss > tol:
        raise EigensolverError(f"trace check failed: |sum E - tr H| = {miss:.3e} > {tol:.3e}")
    return values


def _real_pt_form(H: np.ndarray) -> np.ndarray:
    """R = U^dagger H U of a PT-symmetric H, in O(L^2) from its upper rows.

    Basis order: m = L // 2 vectors (e_a + e_a')/sqrt2, the middle site when
    L is odd, then m vectors i(e_a - e_a')/sqrt2, with a' = L-1-a.  With
    T[a, b] = H[a, b] and S[a, b] = H[a, b'], PT symmetry (H[a', b'] =
    conj H[a, b]) turns each block into a real combination of T and S.
    """
    L = H.shape[0]
    m, minus = L // 2, L - L // 2
    T = H[:m, :m]
    S = H[:m, ::-1][:, :m]
    R = np.empty((L, L))
    np.add(T.real, S.real, out=R[:m, :m])
    np.subtract(S.imag, T.imag, out=R[:m, minus:])
    np.add(T.imag, S.imag, out=R[minus:, :m])
    np.subtract(T.real, S.real, out=R[minus:, minus:])
    if L % 2:
        col, row = H[:m, m], H[m, :m]
        R[:m, m] = _SQRT2 * col.real
        R[minus:, m] = _SQRT2 * col.imag
        R[m, :m] = _SQRT2 * row.real
        R[m, minus:] = -_SQRT2 * row.imag
        R[m, m] = H[m, m].real
    return R


def _site_basis(W: np.ndarray) -> np.ndarray:
    """U W: vectors in the basis of :func:`_real_pt_form` back on the sites."""
    L = W.shape[0]
    m = L // 2
    plus, minus = W[:m], W[L - m :]
    V = np.empty(W.shape, np.complex128)
    V[:m] = (plus + 1j * minus) / _SQRT2
    V[::-1][:m] = (plus - 1j * minus) / _SQRT2
    if L % 2:
        V[m] = W[m]
    return V


def solve(spec: ModelSpec, vectors: bool = True) -> tuple[Spectrum, float]:
    """Build the model's H and diagonalize it; returns the spectrum and
    ||H||_F of the site-basis H, the scale of every classification cut.

    A PT-symmetric H is solved through :func:`eig` (or :func:`eigvals`
    when ``vectors`` is False) on its real form R.  The vectors are mapped
    back to the sites, normalized, and their residuals checked against H
    itself.  Any other H goes through the same functions unchanged.
    ``vectors=False`` returns no eigenvectors.
    """
    H = build_hamiltonian(spec)
    scale = frobenius_norm(H)
    if not _matrix_is_pt_symmetric(H, 0.0):
        spectrum = eig(H) if vectors else Spectrum(eigvals(H), None, None)
        return spectrum, scale
    R = _real_pt_form(H)
    if not vectors:
        del H  # the largest array of a size-doubled chain; not needed any more
        return Spectrum(eigvals(R), None, None, real_basis=True), scale
    real = eig(R)
    values, V = real.eigenvalues, _site_basis(real.eigenvectors)
    del R, real  # only H and the mapped vectors are needed from here on
    V /= np.linalg.norm(V, axis=0, keepdims=True)
    residuals = _checked_residuals(H, values, V, scale)
    return Spectrum(values, V, residuals, real_basis=True), scale


@functools.cache
def _openblas_thread_controls():
    """(get, set) thread-count functions of numpy's bundled OpenBLAS, or None."""
    root = Path(np.__file__).resolve().parent
    bundled = [*root.parent.glob("numpy.libs/*openblas*"), *root.glob(".dylibs/*openblas*")]
    for lib_path in sorted(bundled):
        try:
            lib = ctypes.CDLL(str(lib_path))
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


# The BLAS thread count is process-wide, so concurrent pins share it: the
# first to enter saves the count, the last to leave restores it.
_pin_lock = threading.Lock()
_pin_depth = 0
_pin_saved = 0


@contextlib.contextmanager
def _single_threaded_blas():
    """Run the body with OpenBLAS on one thread; yields 1, or None when no
    OpenBLAS thread control was found (then nothing is changed).

    For callers that run eigensolves on a thread pool of their own: each
    BLAS call starting its own threads would oversubscribe the cores.
    """
    global _pin_depth, _pin_saved
    controls = _openblas_thread_controls()
    if controls is None:
        yield None
        return
    get, set_ = controls
    with _pin_lock:
        if _pin_depth == 0:
            _pin_saved = get()
            set_(1)
        _pin_depth += 1
    try:
        yield 1
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0:
                set_(_pin_saved)

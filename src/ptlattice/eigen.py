"""Dense complex non-symmetric eigendecomposition.

Thin contract layer over LAPACK's zgeev (via numpy), which performs the
standard balance -> Hessenberg -> shifted QR pipeline.  The wrapper pins the
package-wide conventions: unit-norm right eigenvectors, deterministic
ordering by (Re E, Im E), and a per-pair residual guarantee
||H v - E v||_2 <= 1e-8 * ||H||_F.  The eigenvalue-only path keeps the
ordering and checks the trace instead: |sum E - tr H| <= 100 eps L ||H||_F.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "Spectrum",
    "EigensolverError",
    "eig",
    "eigvals",
    "frobenius_norm",
    "RESIDUAL_FACTOR",
    "TRACE_FACTOR",
]

RESIDUAL_FACTOR = 1e-8
TRACE_FACTOR = 100.0

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
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residuals: np.ndarray

    @property
    def dimension(self) -> int:
        return len(self.eigenvalues)

    def vector(self, k: int) -> np.ndarray:
        return self.eigenvectors[:, k]


def frobenius_norm(H: np.ndarray) -> float:
    """Frobenius norm, used as the scale for residual and classification cuts."""
    return float(np.linalg.norm(np.asarray(H)))


def _checked_matrix(H: np.ndarray) -> np.ndarray:
    H = np.ascontiguousarray(H, dtype=np.complex128)
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
    order = np.lexsort((values.imag, values.real))
    values = values[order]
    vectors = vectors[:, order]
    vectors = vectors / np.linalg.norm(vectors, axis=0, keepdims=True)
    residuals = np.linalg.norm(H @ vectors - vectors * values, axis=0)
    scale = frobenius_norm(H)
    tol = RESIDUAL_FACTOR * scale
    if scale > 0 and np.max(residuals) > tol:
        worst = int(np.argmax(residuals))
        raise EigensolverError(
            f"residual contract violated: ||Hv-Ev|| = {residuals[worst]:.3e} "
            f"> {tol:.3e} at eigenvalue index {worst}"
        )
    return Spectrum(eigenvalues=values, eigenvectors=vectors, residuals=residuals)


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
    values = values[np.lexsort((values.imag, values.real))]
    miss = abs(np.sum(values) - np.trace(H))
    tol = TRACE_FACTOR * np.finfo(float).eps * H.shape[0] * frobenius_norm(H)
    if miss > tol:
        raise EigensolverError(f"trace check failed: |sum E - tr H| = {miss:.3e} > {tol:.3e}")
    return values


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

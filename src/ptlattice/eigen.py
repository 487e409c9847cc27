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

:func:`solve_stack` solves same-size models in one LAPACK call per
path, on the stack of their real forms R and on the stack of the other H,
with or without eigenvectors; :func:`solve` is a stack of one.  numpy's
generalized ufuncs hold the GIL unless the call's loop is longer than
500 (here n * L), so a single small call runs serially even on a thread
pool.  Each member keeps its own sort, normalization and checks and gives
the bits a call of its own would give.

Eigenvectors are read only by the per-state metrics of ``ptlattice
spectrum`` (``state_metrics_rows``), the scale-free fit of ``ptlattice
scaling`` (``fit_scale_free``) and criterion 2's position curves
(``mean_position_curve``).  Every other solve (sweeps, the criterion, the
size-doubling test, the non-Bloch audit) is values-only.
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
    "solve_stack",
    "frobenius_norm",
    "RESIDUAL_FACTOR",
    "TRACE_FACTOR",
]

RESIDUAL_FACTOR = 1e-8
TRACE_FACTOR = 100.0
_SQRT2 = float(np.sqrt(2.0))
_EPS = float(np.finfo(float).eps)

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

    def vector(self, k: int | np.ndarray | slice) -> np.ndarray:
        """Eigenvector k; an index array or a slice gives those columns."""
        if self.eigenvectors is None:
            raise ValueError("eigenvalue-only spectrum has no eigenvectors")
        return self.eigenvectors[:, k]


def frobenius_norm(H: np.ndarray) -> float:
    """Frobenius norm, used as the scale for residual and classification cuts."""
    return float(np.linalg.norm(np.asarray(H)))


def _checked_matrix(H: np.ndarray, stack: bool = False) -> np.ndarray:
    """float64 input stays real (dgeev); anything else becomes complex128.

    With ``stack`` a (n, L, L) stack of matrices is accepted too."""
    H = np.asarray(H)
    H = np.ascontiguousarray(H, dtype=np.float64 if H.dtype == np.float64 else np.complex128)
    if H.ndim not in ((2, 3) if stack else (2,)) or H.shape[-1] != H.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {H.shape}")
    if H.size < 1:
        raise ValueError("empty matrix")
    finite = np.isfinite(H).all(axis=(-2, -1))
    if not finite.all():
        where = "" if H.ndim == 2 else f" (stack member {int(np.argmin(finite))})"
        raise ValueError(f"matrix contains non-finite entries{where}")
    return H


def eig(H: np.ndarray) -> Spectrum:
    """Full eigendecomposition with sorted output and residual check.

    Eigenvalues are sorted by ascending real part, ties by ascending
    imaginary part.  Repeated calls on identical input are bit-identical.
    """
    H = _checked_matrix(H)
    values, vectors = _sorted_pairs(*_converged(np.linalg.eig, H))
    residuals = _checked_residuals(H, values, vectors, frobenius_norm(H))
    return Spectrum(eigenvalues=values, eigenvectors=vectors, residuals=residuals)


def _converged(routine, H: np.ndarray):
    """routine(H) for a LAPACK-backed numpy routine, a QR failure raised as
    EigensolverError."""
    try:
        return routine(H)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"QR iteration did not converge: {exc}") from exc


def _sorted_pairs(values: np.ndarray, vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One matrix's eigenpairs in (Re E, Im E) order, vectors unit-norm."""
    values = values.astype(np.complex128, copy=False)
    order = np.lexsort((values.imag, values.real))
    vectors = vectors[:, order].astype(np.complex128, copy=False)
    return values[order], vectors / np.linalg.norm(vectors, axis=0, keepdims=True)


def _checked_residuals(
    H: np.ndarray, values: np.ndarray, vectors: np.ndarray, scale: float
) -> np.ndarray:
    """||H v - E v||_2 per pair; raises unless each is <= 1e-8 * scale (a
    NaN residual fails too); an empty set of pairs passes."""
    gap = H @ vectors
    gap -= vectors * values
    residuals = np.linalg.norm(gap, axis=0)
    tol = RESIDUAL_FACTOR * scale
    if scale > 0 and not np.max(residuals, initial=0.0) <= tol:
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
    may differ from ``eig(H).eigenvalues`` in the last bits (seen from
    L of about 106 on; below that they agreed bit for bit).

    A stack H of shape (n, L, L) is solved in one LAPACK call and gives
    shape (n, L), each row equal bit for bit to ``eigvals(H[k])``.  Every
    member is checked, and one that fails (non-finite entries, no QR
    convergence, a failed trace check) fails the whole call.
    """
    H = _checked_matrix(H, stack=True)
    values = _converged(np.linalg.eigvals, H).astype(np.complex128, copy=False)
    values = np.take_along_axis(values, np.lexsort((values.imag, values.real), axis=-1), -1)
    miss = abs(values.sum(axis=-1) - H.trace(axis1=-2, axis2=-1))
    norms = np.linalg.norm(H, axis=(-2, -1))
    tol = TRACE_FACTOR * _EPS * H.shape[-1] * norms
    if (miss > tol).any():
        k = int(np.argmax(miss - tol))
        where = "" if H.ndim == 2 else f" (stack member {k})"
        raise EigensolverError(
            f"trace check failed{where}: |sum E - tr H| = {np.ravel(miss)[k]:.3e} "
            f"> {np.ravel(tol)[k]:.3e}"
        )
    return values


def _real_pt_form(H: np.ndarray, R: np.ndarray | None = None) -> np.ndarray:
    """R = U^dagger H U of a PT-symmetric H, in O(L^2) from its upper rows,
    written into ``R`` when given.

    Basis order: m = L // 2 vectors (e_a + e_a')/sqrt2, the middle site when
    L is odd, then m vectors i(e_a - e_a')/sqrt2, with a' = L-1-a.  With
    T[a, b] = H[a, b] and S[a, b] = H[a, b'], PT symmetry (H[a', b'] =
    conj H[a, b]) turns each block into a real combination of T and S.
    """
    L = H.shape[0]
    m, minus = L // 2, L - L // 2
    T = H[:m, :m]
    S = H[:m, ::-1][:, :m]
    if R is None:
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
    It is :func:`solve_stack` on a stack of one."""
    return solve_stack([spec], vectors)[0]


def solve_stack(specs: list[ModelSpec], vectors: bool = True) -> list[tuple[Spectrum, float]]:
    """:func:`solve` of same-size models, one LAPACK call per stack: the
    real forms R of the PT-symmetric H, and the other H.  Each ``(Spectrum,
    ||H||_F)`` equals bit for bit a solve of its spec alone; one failing
    member fails the whole call.  A PT member's vectors are mapped back to
    the sites, normalized again and checked against H itself, once.
    """
    L = specs[0].L
    if any(spec.L != L for spec in specs):
        raise ValueError("solve_stack needs models of one size")
    stacks: dict[bool, np.ndarray] = {}
    members: dict[bool, list[int]] = {True: [], False: []}
    scales, hamiltonians = [], []
    for k, spec in enumerate(specs):
        H = build_hamiltonian(spec)
        scales.append(frobenius_norm(H))
        pt = _matrix_is_pt_symmetric(H, 0.0)
        if pt not in stacks:
            stacks[pt] = np.empty((len(specs), L, L), np.float64 if pt else np.complex128)
        slot = stacks[pt][len(members[pt])]
        if pt:
            _real_pt_form(H, slot)
        else:
            slot[...] = H
        members[pt].append(k)
        if vectors:
            hamiltonians.append(H if pt else slot)  # a PT member's slot holds R
        del H, slot  # a size-doubled chain's H is the largest array here
    out: list[tuple[Spectrum, float] | None] = [None] * len(specs)
    for pt in list(stacks):
        stack = stacks.pop(pt)[: len(members[pt])]
        if not vectors:
            for k, row in zip(members[pt], eigvals(stack)):
                out[k] = (Spectrum(row, None, None, real_basis=pt), scales[k])
            continue
        raw = _converged(np.linalg.eig, _checked_matrix(stack, stack=True))
        del stack  # R is not read again; the non-PT H stay referenced
        pairs = [_sorted_pairs(*member) for member in zip(*raw)]
        del raw
        for k in members[pt]:
            values, V = pairs.pop(0)  # each W is released once mapped
            if pt:
                V = _site_basis(V)
                V /= np.linalg.norm(V, axis=0, keepdims=True)
            residuals = _checked_residuals(hamiltonians[k], values, V, scales[k])
            out[k] = (Spectrum(values, V, residuals, real_basis=pt), scales[k])
    return out


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

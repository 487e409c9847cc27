"""Projected effective Hamiltonians and analytic PT-breaking thresholds.

Near a PT transition only a few unperturbed levels are relevant; projecting
the boundary perturbation onto them gives small blocks whose eigenvalues
predict the transition.  The two-level block on the flux ring yields a
closed-form threshold g_c; an odd-dimensional block of evenly spaced levels
can acquire an emergent chiral symmetry that pins the middle level to the
real axis and suppresses PT breaking entirely.

Every flux-ring block is built from two rules, each written once: the
unperturbed levels 2t cos(k + theta) (``_levels``) and the plane-wave matrix
element of the end pair g e^{+-i phi}, (2g/L) cos(phi + (k_a - k_b)(L - 1)/2)
(``_coupling``).  :func:`project_perturbation` over :func:`ring_plane_waves`
gives the same elements numerically.  Block eigenvalues come from
:func:`ptlattice.eigen.eigvals`, trace-checked and sorted by (Re E, Im E).
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .eigen import eigvals
from .lattice import PerturbationTerm
from .nonbloch import _Ring

__all__ = [
    "EffectiveBlock",
    "project_perturbation",
    "eff_h_pbc",
    "threshold_pbc",
    "threshold_pbc_printed",
    "eff_h_obc",
    "multiband_block",
    "chiral_symmetry_check",
    "ring_plane_waves",
    "ring_multiband_projection",
]

_ORTHO_TOL = 1e-10
_CHIRAL_TOL = 1e-10

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass(frozen=True)
class EffectiveBlock:
    """A k x k projected Hamiltonian block.

    For k=2 the decomposition (delta12, d0, dx, dy, dz) satisfies
    matrix = d0*I + (delta12 + g*dz)*sz + g*dx*sx + i*g*dy*sy
    with the coupling strength g recorded alongside.
    """

    dimension: int
    matrix: np.ndarray
    gap_decomposition: tuple[float, float, float, float, float] | None = None
    coupling: float = 0.0

    def reassembled(self) -> np.ndarray:
        if self.gap_decomposition is None:
            raise ValueError("no gap decomposition stored")
        delta12, d0, dx, dy, dz = self.gap_decomposition
        g = self.coupling
        return (
            d0 * np.eye(2)
            + (delta12 + g * dz) * _SZ
            + g * dx * _SX
            + 1j * g * dy * _SY
        )

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues in (Re E, Im E) order, trace-checked by :func:`eigvals`."""
        return eigvals(self.matrix)


def project_perturbation(
    vectors: Sequence[np.ndarray], V: Sequence[PerturbationTerm]
) -> np.ndarray:
    """Matrix of <psi_a| V |psi_b> over an orthonormal set of vectors."""
    basis = np.column_stack([np.asarray(v, dtype=complex) for v in vectors])
    k = basis.shape[1]
    gram = basis.conj().T @ basis
    if np.max(np.abs(gram - np.eye(k))) > _ORTHO_TOL:
        raise ValueError("input vectors are not orthonormal within 1e-10")
    out = np.zeros((k, k), dtype=complex)
    for p in V:
        out += p.amplitude * np.outer(
            basis[p.site_i - 1].conj(), basis[p.site_j - 1]
        )
    return out


def _levels(momenta: np.ndarray, theta: float, t: float) -> np.ndarray:
    """Unperturbed ring levels 2t cos(k + theta) under flux theta per bond."""
    return 2.0 * t * np.cos(momenta + theta)


def _coupling(
    L: int, phi: float, g: float, k_a: np.ndarray, k_b: np.ndarray
) -> np.ndarray:
    """<k_a| V |k_b> of V = g e^{i phi}|1><1| + g e^{-i phi}|L><L| between the
    plane waves of :func:`ring_plane_waves`, for every k_a (rows) and k_b
    (columns): (2g/L) cos(phi + (k_a - k_b)(L - 1)/2)."""
    return (2.0 * g / L) * np.cos(phi + np.subtract.outer(k_a, k_b) * ((L - 1) / 2.0))


def eff_h_pbc(
    n: int,
    L: int,
    theta: float,
    phi: float,
    g: float,
    t: float,
    order: int = 1,
) -> EffectiveBlock:
    """Two-level block for the nearly degenerate ring pair (k_n, k_{L-n}).

    Valid for |theta| < pi/L, where the flux splitting 2t sin(k_n) sin(theta)
    per level is small against the gap to the next pair.

    ``order=1`` projects the boundary perturbation onto the pair.  Coupling
    through the other L - 2 plane waves is dropped, so the eigenvalues are
    off by O(g^2/L): the best block is 0.05/L from the full ring spectrum at
    g = 0.5, Phi = L*theta = 0.3, phi = pi/2.  :func:`threshold_pbc` is the
    threshold of this first-order block.

    ``order=2`` adds the Loewdin (second-order Schrieffer-Wolff) term
    P V Q (Ebar - Q H0 Q)^-1 Q V P, with Ebar the mean of the two
    unperturbed levels 2t cos(k_n +- theta).  On that same ring the best
    block matches the full spectrum within 5/L^2.  The corrected block has
    no Pauli decomposition (``gap_decomposition`` is None).
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    if not 1 <= n < L / 2:
        raise ValueError("mode index must satisfy 1 <= n < L/2")
    k = 2.0 * math.pi * n / L
    sign = (-1) ** (L + 1)
    delta12 = -2.0 * t * math.sin(k) * math.sin(theta)
    d0 = 2.0 * t * math.cos(k) * math.cos(theta) + (2.0 * g / L) * math.cos(phi)
    dx = sign * (2.0 / L) * math.cos(k) * math.cos(phi)
    dy = sign * (2.0 / L) * math.sin(k) * math.sin(phi)

    momenta = 2.0 * math.pi * np.arange(L) / L
    energies = _levels(momenta, theta, t)
    if 2.0 * g / L > 0.5 * abs(energies[n] - energies[n + 1]):
        warnings.warn(
            "projected coupling exceeds half the gap to the nearest excluded "
            "level; two-level truncation is unreliable here",
            RuntimeWarning,
            stacklevel=2,
        )

    pair = np.array([n, L - n])
    levels = np.diag(energies[pair]).astype(np.complex128)
    matrix = levels + _coupling(L, phi, g, momenta[pair], momenta[pair])
    if order == 2:
        others = np.delete(np.arange(L), pair)
        v_out = _coupling(L, phi, g, momenta[pair], momenta[others])
        v_in = _coupling(L, phi, g, momenta[others], momenta[pair])
        e_bar = 2.0 * t * math.cos(k) * math.cos(theta)  # mean of the pair's levels
        denom = e_bar - energies[others]
        return EffectiveBlock(
            dimension=2, matrix=matrix + (v_out / denom) @ v_in, coupling=g
        )
    return EffectiveBlock(
        dimension=2,
        matrix=matrix,
        gap_decomposition=(delta12, d0, dx, dy, 0.0),
        coupling=g,
    )


def _pair_momenta(L: int) -> np.ndarray:
    n = np.arange(1, (L + 1) // 2)
    return 2.0 * math.pi * n / L


def _flux_sine(theta: float) -> float:
    """sin(theta) of a finite flux theta with sin(theta) >= 0, else ValueError."""
    if not math.isfinite(theta):
        raise ValueError(f"flux theta must be finite, got {theta}")
    sin_theta = math.sin(theta)
    if sin_theta < 0:
        raise ValueError(f"requires sin(theta) >= 0, got theta = {theta}")
    return sin_theta


def threshold_pbc(L: int, theta: float, phi: float, t: float) -> float:
    """Smallest g at which some two-level block discriminant

        (2 t sin(k_n) sin(theta))^2 + (2g/L)^2 (cos^2 k cos^2 phi - sin^2 k sin^2 phi)

    turns negative: g_c = t L sin(theta) * min |sin k| / sqrt(-A) over modes
    with A < 0.  Returns inf when no mode can break (A >= 0 everywhere).
    These are the first-order blocks of :func:`eff_h_pbc`.  t, phi and L
    must pass the ring record's checks (:class:`~ptlattice.nonbloch._Ring`).
    """
    sin_theta = _flux_sine(theta)
    _Ring(t, theta, phi, L)
    k = _pair_momenta(L)
    A = np.cos(k) ** 2 * math.cos(phi) ** 2 - np.sin(k) ** 2 * math.sin(phi) ** 2
    mask = A < 0
    if not np.any(mask):
        return math.inf
    ratios = np.abs(np.sin(k[mask])) / np.sqrt(-A[mask])
    return float(t * L * sin_theta * np.min(ratios))


def threshold_pbc_printed(L: int, theta: float, phi: float, t: float) -> float:
    """Threshold from (g_c/(tL))^2 = sin(theta) * min_+ of
    -2 sin^2 k / (cos 2k + cos 2phi), kept verbatim for comparison; it
    disagrees with :func:`threshold_pbc` by a power of sin(theta)."""
    sin_theta = _flux_sine(theta)
    _Ring(t, theta, phi, L)
    k = _pair_momenta(L)
    denom = np.cos(2 * k) + math.cos(2 * phi)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = -2.0 * np.sin(k) ** 2 / denom
    vals = vals[np.isfinite(vals) & (vals > 0)]
    if len(vals) == 0:
        return math.inf
    return float(t * L * math.sqrt(sin_theta * np.min(vals)))


def eff_h_obc(
    delta12: float, g: float, d: tuple[float, float, float]
) -> tuple[complex, complex]:
    """Eigenvalue pair of (delta12 + g dz) sz + g dx sx + i g dy sy:
    +- sqrt((delta12 + g dz)^2 + (g dx)^2 - (g dy)^2)."""
    dx, dy, dz = d
    radicand = (delta12 + g * dz) ** 2 + (g * dx) ** 2 - (g * dy) ** 2
    root = cmath.sqrt(radicand)
    return (root, -root)


def multiband_block(w: int, deltaE: float, V_projected: np.ndarray) -> EffectiveBlock:
    """Evenly spaced (2w+1)-level ladder plus a projected perturbation."""
    V_projected = np.asarray(V_projected, dtype=complex)
    dim = 2 * w + 1
    if V_projected.shape != (dim, dim):
        raise ValueError(
            f"projected perturbation must be {dim}x{dim}, got {V_projected.shape}"
        )
    ladder = np.diag(np.arange(-w, w + 1, dtype=float) * deltaE)
    return EffectiveBlock(dimension=dim, matrix=ladder + V_projected)


def chiral_symmetry_check(block: EffectiveBlock, tol: float = _CHIRAL_TOL) -> bool:
    """True iff index inversion about the middle level anticommutes with the
    block: P~ H P~ = -H within tol.

    When the symmetry holds, the eigenvalue multiset is confirmed to be
    symmetric under negation with one value pinned at zero — the mechanism
    that protects the middle level from PT breaking.
    """
    dim = block.dimension
    if dim % 2 == 0:
        raise ValueError("chiral check needs an odd-dimensional block")
    H = block.matrix
    flipped = H[::-1, ::-1]
    if np.max(np.abs(flipped + H)) > tol:
        return False
    evals = np.sort_complex(block.eigenvalues())
    negated = np.sort_complex(-evals)
    if np.max(np.abs(evals - negated)) > 100 * tol or np.min(np.abs(evals)) > 100 * tol:
        raise RuntimeError(
            "chiral symmetry holds but the eigenvalue pairing check failed"
        )
    return True


def ring_plane_waves(L: int, momenta: Sequence[float]) -> list[np.ndarray]:
    """Normalized plane waves e^{i k x}/sqrt(L) on sites centered about the
    chain midpoint, x_j = j - (L+1)/2.

    The centered coordinate fixes the relative phases between levels so
    that boundary couplings take the real sin/cos forms used by the
    projected blocks.
    """
    x = np.arange(1, L + 1) - (L + 1) / 2.0
    return [np.exp(1j * k * x) / math.sqrt(L) for k in momenta]


def ring_multiband_projection(
    L: int, n: int, w: int, theta: float, phi: float, g: float, t: float
) -> EffectiveBlock:
    """Multiband block around the ring level k_n under flux theta per bond.

    The 2w+1 unperturbed levels nearest in energy to E(k_n + theta) are
    relabeled l = -w..w in ascending energy order; their plane waves are
    projected onto the boundary perturbation
    g e^{i phi}|1><1| + g e^{-i phi}|L><L|.  Near theta = 0.25 * 2pi/L the
    levels are evenly spaced and the block becomes (approximately) chiral.

    It is exactly chiral only when a level sits at E = 0, which at
    theta = pi/(2L) happens for L = 4n + 1.  At even L the middle level is
    at -2t sin(pi/(2L)), the two outer couplings have magnitudes
    (2g/L) cos(pi/L) and 2g/L, and ||P~ H P~ + H|| = (2g/L)(1 - cos(pi/L)),
    at most g pi^2/L^3.
    """
    momenta = 2.0 * math.pi * np.arange(1, L + 1) / L
    energies = _levels(momenta, theta, t)
    order = np.argsort(energies)
    pos = int(np.flatnonzero(order == n - 1)[0])
    if pos - w < 0 or pos + w >= L:
        raise ValueError("window extends past the spectrum edge")
    window = order[pos - w : pos + w + 1]
    level_e = energies[window]
    deltaE = float((level_e[-1] - level_e[0]) / (2 * w)) if w > 0 else 0.0
    # The construction assumes evenly spaced levels; residual unevenness of
    # the true spacings is dropped along with the constant E(k_n + theta).
    k = momenta[window]
    return multiband_block(w, deltaE, _coupling(L, phi, g, k, k))

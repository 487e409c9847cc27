"""Generalized-Bloch treatment of finite chains.

Eigenstates of a finite chain with boundary-localized perturbations are
superpositions of the 2M roots beta of the bulk characteristic equation
at fixed energy; the admissible energies are the zeros of a 2M x 2M
boundary determinant.  This module solves the characteristic equation,
builds the boundary matrices for open and flux-threaded periodic chains
in an overflow-safe scaled form, and implements two solvers for the
PT-breaking structure on the ring: an exact unitary (|beta| = 1) ansatz
scan and an asymptotic large-L solver for the broken branch
beta = exp(i*gamma + delta/L).  The scan's broken intervals come from the
exact, solve-free count of the ring's real levels in ``ring_equation``,
which also holds the curves of its boundary equation (Yokomizo & Murakami,
PRL 123, 066404 (2019)); the ring record :class:`_Ring` is here.

The oracle is batched: N energies take one values-only :func:`eigvals`
call on the stack of companion matrices, array-wide Newton steps, and one
(N, 2M, 2M) stack of boundary matrices.  ``ptlattice nonbloch`` audits a
whole spectrum that way; :func:`characteristic_roots` and
:func:`boundary_determinant` are the same code on a stack of one.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .eigen import eigvals
from .lattice import (
    TWO_PI,
    Boundary,
    HoppingSet,
    ModelSpec,
    _closing_bonds,
    _field,
    _integer,
    _items,
    _number,
    apply_gauge_transform,
)
from .ring_equation import _quadratic, _real_state_counts, _ring_circle, _ring_re_k

__all__ = [
    "BetaRootSet",
    "BoundaryDeterminant",
    "UnitaryScanResult",
    "characteristic_roots",
    "boundary_determinant",
    "unitary_scan",
    "asymptotic_broken_solver",
    "asymptotic_energy",
]

_RESIDUAL_TOL = 1e-9
# relative root gap taken as coincident: Newton leaves band-edge double roots
# 2e-9 to 1.1e-8 apart, while ring spectra keep gaps of 1e-2
_EP_ROOT_TOL = 1e-6
_POLE_TOL = 1e-14
_TIE_TOL = 1e-12  # relative |beta| gap below which two roots tie
# column norm, relative to the norm of the magnitudes of the terms it sums,
# at or below which one root alone solves the boundary rows; 0.05 or more
# off the spectrum of 1000 random models the ratio stays above 1.2e-3
_ONE_ROOT_TOL = 1e-6
_N_G = 501  # g/t grid of the broken-interval count


@dataclass(frozen=True)
class _Ring:
    """A flux ring's hopping t, flux theta per bond, end phase phi and size
    L, whose values are checked here alone; g stays out, as sweeps and the
    real-level count vary it."""

    t: float
    theta: float
    phi: float
    L: int

    def __post_init__(self):
        if not (math.isfinite(self.t) and self.t > 0):
            raise ValueError(f"t must be finite and positive, got {self.t}")
        for key in ("theta", "phi"):
            if not math.isfinite(value := getattr(self, key)):
                raise ValueError(f"{key} must be finite, got {value}")
        object.__setattr__(self, "L", _integer(self.L, "L"))
        if self.L < 3:
            raise ValueError(f"L must be at least 3, got {self.L}")

    @property
    def cosines(self) -> tuple[float, float]:
        """(cos(phi), cos(theta L)), the ring's part of every count row."""
        return math.cos(self.phi), math.cos(self.theta * self.L)


@dataclass(frozen=True)
class BetaRootSet:
    """All 2M roots of the bulk dispersion at a fixed energy.

    Roots are sorted ascending by |beta|, ties (magnitudes within a
    relative 1e-12 of the previous root) broken by ascending phase in
    [0, 2pi).
    """

    energy: complex
    roots: tuple[complex, ...]
    hoppings: HoppingSet

    def dispersion_residual(self) -> float:
        """Max |E(beta) - E| over the stored roots."""
        values = _dispersion(self.hoppings, np.array(self.roots))
        return float(np.max(np.abs(values - self.energy)))

    def pairing_defect(self) -> float:
        """Distance of the root multiset from closure under b -> 1/conj(b).

        Vanishes (up to roundoff) for real energies.
        """
        roots = np.array(self.roots)
        mapped = 1.0 / np.conj(roots)
        return float(max(np.min(np.abs(roots - m)) for m in mapped))


@dataclass(frozen=True)
class BoundaryDeterminant:
    """Scaled boundary determinant; true det = value * exp(log_scale).

    Columns of the boundary matrix are pre-scaled by |beta|^(-L/2) so the
    evaluation stays finite for |beta| far from 1 at large L; ``value`` is
    zero iff the true determinant is zero.  A column that cancels to 1e-6 of
    the magnitudes of the terms it sums has its norm reported as 0: that
    root alone solves the boundary rows, as each eigenstate of a clean ring.

    ``ill_conditioned`` marks two roots within a relative 1e-6, as at the
    double roots of band critical values.  Out of scope: the fourfold root
    beta = -1 at t2 = t1/4, E = -1.5 t1, left about 1e-4 apart, unflagged.
    """

    value: complex
    log_scale: float
    column_norms: tuple[float, ...]
    ill_conditioned: bool

    @property
    def normalized_magnitude(self) -> float:
        """|value| divided by the product of scaled column norms, and 0 when
        a column norm is 0 (one root alone solves the boundary rows)."""
        return float(_normalized_magnitude(self.value, np.array(self.column_norms)))


@dataclass(frozen=True)
class UnitaryScanResult:
    """Outcome of the |beta| = 1 ansatz scan over gamma.

    ``g_plus``/``g_minus`` hold the two branches of g/t as functions of
    gamma (NaN where the discriminant is negative or at removable poles);
    ``broken_g_intervals`` are the runs of the 501-point g grid where the
    ring has fewer than L real levels (:func:`_real_state_counts`).
    """

    gamma_grid: np.ndarray
    g_plus: np.ndarray
    g_minus: np.ndarray
    discriminant_negative: np.ndarray
    broken_g_intervals: tuple[tuple[float, float], ...]

    def csv_rows(self) -> list[tuple[float, float, float, int]]:
        return [
            (float(g), float(p), float(m), int(d))
            for g, p, m, d in zip(
                self.gamma_grid, self.g_plus, self.g_minus, self.discriminant_negative
            )
        ]


def characteristic_roots(h: HoppingSet, E: complex) -> BetaRootSet:
    """All 2M roots beta of sum_n t_n b^(M+n) + conj(t_n) b^(M-n) = E b^M.

    Roots come from the companion matrix of the monic polynomial and are
    polished by a few Newton steps; a stack of one in :func:`_root_stack`.
    """
    E = complex(E)
    roots = _root_stack(h, np.array([E]))[0]
    return BetaRootSet(energy=E, roots=tuple(roots.tolist()), hoppings=h)


def _dispersion(h: HoppingSet, roots: np.ndarray) -> np.ndarray:
    """E(beta) = sum_n t_n beta^n + conj(t_n) beta^(-n), elementwise."""
    return sum(t * roots**n + t.conjugate() * roots ** (-n) for n, t in h.items())


def _root_stack(h: HoppingSet, energies: np.ndarray) -> np.ndarray:
    """(N, 2M) roots of the characteristic polynomial at N energies, each
    row as :func:`characteristic_roots` orders it.

    One :func:`eigvals` call on the (N, 2M, 2M) stack of companion matrices,
    three Newton steps against the unreduced polynomial p, each taken only
    where it does not raise |p|, then the residual check
    |E(beta) - E| <= 1e-9 (1 + |E|) on every row.
    """
    energies = np.asarray(energies, dtype=np.complex128)
    finite = np.isfinite(energies)
    if not finite.all():
        k = int(np.argmin(finite))
        raise ValueError(f"energy must be finite, got {complex(energies[k])} at index {k}")
    M = h.max_range
    N = len(energies)
    # coeffs[:, d] multiplies beta^d, d = 0..2M
    base = np.zeros(2 * M + 1, dtype=complex)
    for n, t in h.items():
        base[M + n] += t
        base[M - n] += np.conj(t)
    coeffs = np.empty((N, 2 * M + 1), dtype=complex)
    coeffs[:] = base
    coeffs[:, M] -= energies
    monic = coeffs / coeffs[:, 2 * M :]

    companion = np.zeros((N, 2 * M, 2 * M), dtype=complex)
    companion.reshape(N, -1)[:, 2 * M :: 2 * M + 1] = 1.0  # the subdiagonal
    companion[:, :, -1] = -monic[:, : 2 * M]
    roots = eigvals(companion)

    # Newton polish against the original (unreduced) polynomial p; p and
    # p' (padded with a leading zero) are evaluated together by Horner's
    # rule, in np.polyval's order.
    polys = np.zeros((2, N, 2 * M + 1), dtype=complex)
    polys[0] = coeffs[:, ::-1]
    polys[1, :, 1:] = polys[0, :, :-1] * np.arange(2 * M, 0, -1)
    columns = [polys[..., d, None] for d in range(2 * M + 1)]

    def p_dp(x: np.ndarray) -> np.ndarray:
        out = columns[0]
        for c in columns[1:]:
            out = out * x + c
        return out

    at_roots = p_dp(roots)
    for _ in range(3):
        p, dp = at_roots
        step = roots - np.divide(p, dp, out=np.zeros_like(p), where=dp != 0)
        at_step = p_dp(step)
        # at a double root p' vanishes with p, and a step can throw a root far
        # off: a step is taken only where it does not raise |p|
        keep = abs(at_step[0]) <= abs(p)
        roots = np.where(keep, step, roots)
        at_roots = np.where(keep, at_step, at_roots)

    residual = abs(_dispersion(h, roots) - energies[:, None]).max(axis=1)
    bad = ~(residual <= _RESIDUAL_TOL * (1.0 + abs(energies)))  # NaN fails too
    if bad.any():
        k = int(np.argmax(bad))
        tol = _RESIDUAL_TOL * (1.0 + abs(energies[k]))
        raise RuntimeError(
            f"root residual {residual[k]:.3e} exceeds {tol:.3e} "
            f"at E={complex(energies[k])}"
        )
    return _sorted_roots(roots)


def _sorted_roots(roots: np.ndarray) -> np.ndarray:
    """Each row sorted by |beta|; a root whose magnitude is within _TIE_TOL
    (relative) of the previous one ties with it, and ties go by ascending
    phase in [0, 2pi)."""
    rows = np.arange(len(roots))[:, None]
    roots = roots[rows, np.argsort(abs(roots), axis=1, kind="stable")]
    mags = abs(roots)
    tied = mags[:, 1:] - mags[:, :-1] <= _TIE_TOL * mags[:, :-1]
    if not tied.any():
        return roots
    tie_group = np.zeros(mags.shape, dtype=np.intp)
    np.cumsum(~tied, axis=1, out=tie_group[:, 1:])
    return roots[rows, np.lexsort((np.angle(roots) % TWO_PI, tie_group), axis=-1)]


def boundary_determinant(spec: ModelSpec, beta_set: BetaRootSet) -> BoundaryDeterminant:
    """Scaled determinant of the boundary-condition matrix at beta_set.energy.

    The eigenvector ansatz psi_j = sum_s c_s beta_s^j satisfies the bulk
    equation everywhere; the rows of the boundary matrix are the residual
    equations at the M leftmost and M rightmost sites, including any
    boundary-localized perturbation entries and, on a ring, the wrap-around
    hops carrying the total flux phase exp(+-i*theta*L).  The determinant
    vanishes exactly when the energy is an eigenvalue of the full model.
    A stack of one in :func:`_boundary_stack`.
    """
    if len(beta_set.roots) != 2 * spec.hoppings.max_range:
        raise ValueError("root set does not match the hopping range")
    value, log_scale, norms, ill = _boundary_stack(spec, np.array([beta_set.roots], complex))
    return BoundaryDeterminant(
        value=complex(value[0]),
        log_scale=float(log_scale[0]),
        column_norms=tuple(norms[0].tolist()),
        ill_conditioned=bool(ill[0]),
    )


def _boundary_coefficients(spec: ModelSpec) -> tuple[np.ndarray, np.ndarray]:
    """(p, C) with row r of the boundary matrix = sum_k C[r, k] beta^p[k, 0]:
    the residual equations at sites 1..M and L-M+1..L, in that order.  Each
    range-n bond i -> j closing a ring (``lattice._closing_bonds``) is
    missing from the bulk equation in row i (-t beta^(i+n)) and row j
    (-conj(t) beta^(j-n)); on a ring it is there: t beta^j in row i,
    conj(t) beta^i in row j, read through :func:`apply_gauge_transform`
    (bare bulk t, the flux on closing bonds); an open chain is read as
    given.  Perturbations follow."""
    M = spec.hoppings.max_range
    L = spec.L
    periodic = spec.boundary is Boundary.PERIODIC
    spec = apply_gauge_transform(spec) if periodic else spec
    rows = {s: r for r, s in enumerate([*range(1, M + 1), *range(L - M + 1, L + 1)])}

    terms: list[tuple[int, int, complex]] = []  # (row, power, coefficient)
    for n, t, i, j in _closing_bonds(spec):
        terms += [(rows[i], i + n, -t), (rows[j], j - n, -np.conj(t))]
        if periodic:
            terms += [(rows[i], j, t), (rows[j], i, np.conj(t))]
    for p in spec.perturbations:
        if p.site_i not in rows:
            raise ValueError(
                f"perturbation row {p.site_i} lies outside the boundary "
                f"sites 1..{M} and {L - M + 1}..{L}"
            )
        terms.append((rows[p.site_i], p.site_j, p.amplitude))

    powers = sorted({p for _, p, _ in terms})
    C = np.zeros((2 * M, len(powers)), dtype=complex)
    for r, p, c in terms:
        C[r, powers.index(p)] += c
    powers = np.array(powers, dtype=float)[:, None]
    return powers, C


def _boundary_stack(
    spec: ModelSpec, roots: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Scaled boundary matrices of N root sets, as (value, log_scale,
    column_norms, ill_conditioned) arrays of shapes (N,), (N,), (N, 2M), (N,).

    Column s of a matrix is C beta_s^p |beta_s|^(-L/2) (see
    :func:`_boundary_coefficients`), computed in log form; row k of each
    array is :func:`boundary_determinant` of ``roots[k]``.  A column norm
    at most _ONE_ROOT_TOL times || |C| |beta_s^p| ||, the norm of the
    magnitudes of the terms the column sums, is reported as 0.  One
    RuntimeWarning, with the count, covers every ill-conditioned row.
    """
    N, n_roots = roots.shape
    if not roots.all():
        k = int(np.argmin(roots.all(axis=1)))
        raise ValueError(f"zero beta root in root set {k}")
    # coincident pairs; each root also matches itself once
    mags = np.abs(roots)
    close = np.abs(roots[:, :, None] - roots[:, None, :]) < _EP_ROOT_TOL * mags[:, :, None]
    ill = close.sum(axis=(1, 2)) > n_roots
    if ill.any():
        warnings.warn(
            f"coincident beta roots at {int(ill.sum())} of {N} energies: boundary "
            "matrix is ill-conditioned (exceptional-point vicinity)",
            RuntimeWarning,
            stacklevel=3,
        )

    powers, C = _boundary_coefficients(spec)
    log_abs = np.log(mags)
    half_L = 0.5 * spec.L
    # (N, P, 2M): beta_s^p |beta_s|^(-L/2) for each power p
    scaled = np.exp(powers * np.log(roots)[:, None] - half_L * log_abs[:, None])
    F = C @ scaled
    norms = np.linalg.norm(F, axis=1)
    norms[norms <= _ONE_ROOT_TOL * np.linalg.norm(abs(C) @ abs(scaled), axis=1)] = 0.0
    return np.linalg.det(F), half_L * log_abs.sum(axis=1), norms, ill


def _normalized_magnitude(value: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """|value| over the product of ``norms`` along the last axis, as
    :func:`_boundary_stack` returns them: 0 where a column norm is 0, inf
    where only the product underflows to 0.  |value| is hypot(Re, Im), as
    Python's abs takes it."""
    prod = np.prod(norms, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        magnitude = np.where(prod == 0, math.inf, np.hypot(value.real, value.imag) / prod)
    return np.where((norms == 0).any(axis=-1), 0.0, magnitude)


def _spectrum_audit(spec: ModelSpec, energies: np.ndarray) -> tuple[float, float, int]:
    """The oracle on a whole spectrum in one batched pass: the largest
    normalized boundary determinant (see
    :attr:`BoundaryDeterminant.normalized_magnitude`) over the ``energies``
    whose boundary matrix is well conditioned, the largest over those whose
    matrix is ill-conditioned, and how many are ill-conditioned.  A maximum
    over no energies is 0.

    The two maxima are kept apart because coincident roots make the
    determinant a difference of nearly equal columns: at the band-edge
    double roots of a clean ring it reads about 1e-7 from roundoff alone,
    while every other row reads 0.
    """
    value, _, norms, ill = _boundary_stack(spec, _root_stack(spec.hoppings, energies))
    magnitude = _normalized_magnitude(value, norms)
    return (
        float(np.max(magnitude[~ill], initial=0.0)),
        float(np.max(magnitude[ill], initial=0.0)),
        int(np.count_nonzero(ill)),
    )


def unitary_scan(params: dict, gamma_resolution: int) -> UnitaryScanResult:
    """Scan the unit-circle ansatz beta = e^(i*gamma) over gamma in [0, 2pi].

    On the circle the ring equation is a quadratic in r = g/t
    (:func:`_ring_circle`), whose solution branches G(gamma) are
    reported on the ``gamma_resolution`` grid.  r gives a real spectrum
    only with L real levels: crossings of r = G(gamma), gamma in (0, pi),
    plus real-beta bound states.  ``broken_g_intervals`` are the g ranges
    of g_range's 501-point grid where the exact count
    (:func:`_real_state_counts`) finds fewer; they do not depend on
    ``gamma_resolution``.  :class:`_Ring` checks ``t``, ``theta``,
    ``phi`` and ``L``; ``g_range`` must be finite with lo < hi and
    ``gamma_resolution`` an integer >= 1000.
    """
    gamma_resolution = _integer(gamma_resolution, "gamma_resolution")
    if gamma_resolution < 1000:
        raise ValueError("gamma_resolution must be at least 1000")
    t, theta, phi = (_field(params, key, _number) for key in ("t", "theta", "phi"))
    ring = _Ring(t, theta, phi, _field(params, "L"))
    g_range = _items(params, "g_range", _number)
    if not (len(g_range) == 2 and all(map(math.isfinite, g_range)) and g_range[0] < g_range[1]):
        raise ValueError(f"g_range needs two finite numbers, lo < hi, got {g_range}")
    g_lo, g_hi = g_range

    gamma = np.linspace(0.0, 2.0 * math.pi, gamma_resolution)
    A, B, C = _ring_circle(gamma, ring.L, ring.cosines[1])
    pole = np.abs(A) < _POLE_TOL
    a = np.cos(ring.phi) * B
    disc = a**2 - A * C
    neg = disc < 0

    with np.errstate(divide="ignore", invalid="ignore"):
        sq = np.sqrt(np.where(neg, np.nan, disc))
        g_plus = np.where(pole, np.nan, (a + sq) / A)
        g_minus = np.where(pole, np.nan, (a - sq) / A)

    intervals = _broken_intervals(ring, g_lo / ring.t, g_hi / ring.t)
    return UnitaryScanResult(
        gamma_grid=gamma,
        g_plus=g_plus,
        g_minus=g_minus,
        discriminant_negative=neg,
        broken_g_intervals=intervals,
    )


def _broken_intervals(ring: _Ring, lo: float, hi: float) -> tuple[tuple[float, float], ...]:
    """Runs of the _N_G-point r = g/t grid on [lo, hi] with fewer than L
    real levels (:func:`_real_state_counts`, a batch of this one ring), each
    as its first and last r."""
    rs = np.linspace(lo, hi, _N_G)
    counts, _ = _real_state_counts(ring.L, rs, *ring.cosines)
    broken = counts < ring.L
    # runs of broken points start at even and end after odd edges
    edges = np.flatnonzero(np.diff(np.concatenate(([0], broken, [0]))))
    return tuple(
        (float(rs[a]), float(rs[b - 1])) for a, b in zip(edges[::2], edges[1::2])
    )


def _sign_changes(values: np.ndarray) -> np.ndarray:
    """One flag per pair of consecutive nonzero samples of ``values``, True
    where their signs differ.  Exact zeros are skipped, so a root on a
    sample counts once and a touch not at all."""
    signs = np.sign(values)
    signs = signs[signs != 0]
    return signs[1:] != signs[:-1]


def _sign_change_roots(f, grid: np.ndarray, xtol: float) -> np.ndarray:
    """Ascending roots of the elementwise function f on ``grid`` where its
    samples change sign.  A zero sample is a root exactly when its nonzero
    neighbours change sign, and counts once (:func:`_sign_changes`); a
    touch is no root.  Every other sign change is bisected, all brackets at
    once, to a width of at most ``xtol`` and reported at its midpoint."""
    values = f(grid)
    nonzero = np.flatnonzero(values)
    k = np.flatnonzero(_sign_changes(values))
    left, right = nonzero[k], nonzero[k + 1]
    roots = grid[left + 1]  # the first zero sample, where one lies between
    bisect = right == left + 1
    lo, hi = grid[left[bisect]], grid[right[bisect]]
    sign_lo = np.sign(values[left[bisect]])
    for _ in range(math.ceil(math.log2(np.max(hi - lo, initial=xtol) / xtol))):
        mid = 0.5 * (lo + hi)
        side = np.sign(f(mid)) * sign_lo  # 0 at an exact root: both ends move
        lo = np.where(side >= 0, mid, lo)
        hi = np.where(side <= 0, mid, hi)
    roots[bisect] = 0.5 * (lo + hi)
    return roots


def _ring_parameters(spec: ModelSpec) -> tuple[_Ring, float]:
    """(:class:`_Ring`, g) of a flux ring: a periodic chain with one real,
    positive range-1 hopping t and either no perturbation (g = 0,
    phi = 0) or exactly g e^(i*phi)|1><1| + g e^(-i*phi)|L><L|, with the
    site-L amplitude the exact conjugate of the site-1 amplitude (the exact
    PT test of :func:`~ptlattice.eigen.solve`).  g and phi are read from the
    site-1 term.  Any other model raises ValueError."""
    if spec.boundary is not Boundary.PERIODIC:
        raise ValueError("the ring theory needs a periodic chain, got an open one")
    ranges = [n for n, _ in spec.hoppings.items()]
    if ranges != [1]:
        raise ValueError(f"the ring theory needs one range-1 hopping, got ranges {ranges}")
    t = spec.hoppings.amplitude(1)
    if t.imag != 0 or not (math.isfinite(t.real) and t.real > 0):
        raise ValueError(f"the ring theory needs a real, positive hopping, got t = {t}")
    g, phi = 0.0, 0.0
    if spec.perturbations:
        ends = {(p.site_i, p.site_j): p.amplitude for p in spec.perturbations}
        if len(spec.perturbations) != 2 or set(ends) != {(1, 1), (spec.L, spec.L)}:
            raise ValueError(
                "the ring theory needs perturbations g e^(i phi)|1><1| + "
                f"g e^(-i phi)|L><L| with L = {spec.L}, got terms at "
                f"{[(p.site_i, p.site_j) for p in spec.perturbations]}"
            )
        first = ends[(1, 1)]
        if ends[(spec.L, spec.L)] != first.conjugate():
            raise ValueError(
                f"the ring theory needs the site-{spec.L} amplitude to be the exact "
                f"conjugate of the site-1 amplitude {first}, got {ends[(spec.L, spec.L)]}"
            )
        g, phi = abs(first), cmath.phase(first)
    return _Ring(t.real, spec.flux_theta, phi, spec.L), g


def asymptotic_broken_solver(spec: ModelSpec) -> list[tuple[float, float]]:
    """Large-L solutions beta = exp(i*gamma + delta/L) of the ring
    boundary equation, to leading order in 1/L.

    ``spec`` must be a flux ring as :func:`_ring_parameters` checks it.
    Off-circle solutions (sinh(delta) != 0) of the ring equation
    need Re K(gamma) = 0 (:func:`_ring_re_k`).  Its roots are the sign
    changes of Re K on a 10L-point gamma grid over (0, pi), refined
    together by bisection to a width of 1e-14 (see
    :func:`_sign_change_roots`); the imaginary part then fixes delta in
    closed form through cosh(delta) = 2 cos(theta L) sin(gamma) / Im K.
    Returns (gamma, delta) pairs by ascending gamma, +delta before -delta.
    Empty when the model is PT-unbroken.
    """
    ring, g = _ring_parameters(spec)
    r, L = g / ring.t, ring.L
    cos_phi, cos_theta_L = ring.cosines

    def re_k(gm: np.ndarray) -> np.ndarray:
        return _quadratic(_ring_re_k(gm, L), r, cos_phi)

    grid = np.linspace(1e-9, math.pi - 1e-9, 10 * L)
    gamma = _sign_change_roots(re_k, grid, 1e-14)
    flux = 2.0 * cos_theta_L * np.sin(gamma)
    im_k = _quadratic(_ring_circle(gamma, L, cos_theta_L), r, cos_phi) + flux
    with np.errstate(divide="ignore", invalid="ignore"):
        rhs = flux / im_k
    keep = np.isfinite(rhs) & (rhs > 1.0 + 1e-12)
    delta = np.arccosh(rhs[keep])
    return [
        pair
        for gm, d in zip(gamma[keep].tolist(), delta.tolist())
        for pair in ((gm, d), (gm, -d))
    ]


def asymptotic_energy(t: float, gamma: float, delta: float, L: int) -> complex:
    """Energy of the asymptotic solution beta = exp(i*gamma + delta/L)."""
    beta = cmath.exp(1j * gamma + delta / L)
    return t * (beta + 1.0 / beta)

"""Bloch band structure and the equal-energy-point criterion.

For an open chain with a boundary perturbation, complex eigenvalues of the
continuous spectrum can only appear at energies where the unperturbed band
E(k) is attained by more than one pair of +-k points: two standing waves at
the same energy are needed to form the pair of states that coalesces at an
exceptional point.  This module evaluates E(k), counts equal-energy
solutions, extracts the permitted energy window, and checks a full model
against it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .analysis import _continuum, classify_spectrum
from .eigen import solve
from .lattice import TWO_PI, Boundary, HoppingSet, ModelSpec
from .nonbloch import _dispersion, characteristic_roots

__all__ = [
    "PTWindow",
    "CriterionReport",
    "band_energy",
    "equal_energy_points",
    "pt_breaking_window",
    "criterion_check",
]

_UNIT_TOL = 1e-4  # ||beta| - 1| below which a root is a real momentum
_ENERGY_TOL = 1e-9  # relative |E(k) - eps| for an equal-energy momentum
_MERGE_TOL = 1e-3  # momenta closer than this (rad) are one tangency
_CRITICAL_TOL = 1e-12  # critical energies closer than this x bandwidth are one


@dataclass(frozen=True)
class PTWindow:
    """Energy intervals where E(k) = eps has at least two pairs of
    solutions; PT breaking of the continuous spectrum is confined to them."""

    intervals: tuple[tuple[float, float], ...]
    multiplicity: tuple[int, ...]


@dataclass(frozen=True)
class CriterionReport:
    window: PTWindow
    complex_energies_inside: bool
    violations: tuple[tuple[int, float, float], ...]  # (index, Re E, Im E)

    def to_json(self) -> str:
        return json.dumps(
            {
                "window": [[lo, hi] for lo, hi in self.window.intervals],
                "violations": [
                    {"index": i, "reE": re, "imE": im}
                    for i, re, im in self.violations
                ],
            }
        )


def band_energy(h: HoppingSet, k: float) -> float:
    """E(k), the dispersion E(beta) at beta = e^{ik}; real by construction.
    A one-element array takes numpy's array path, as the band's callers do."""
    return float(_dispersion(h, np.exp(1j * np.array([k])))[0].real)


def _unimodular_phases(roots) -> np.ndarray:
    """Phases in [0, 2pi) of the roots within _UNIT_TOL of the unit circle."""
    roots = np.asarray(roots)
    return np.angle(roots[np.abs(np.abs(roots) - 1.0) < _UNIT_TOL]) % TWO_PI


def equal_energy_points(h: HoppingSet, epsilon: float) -> list[float]:
    """All k in [0, 2pi) with E(k) = epsilon, sorted: the phases of the
    unimodular roots beta = e^{ik} of the characteristic polynomial.

    A tangency (epsilon a critical value of the band) is a multiple root that
    roundoff splits, by ~1e-8 for a double and ~1e-4 for a triple root; it
    counts as one k.  Roots with ||beta| - 1| < 1e-4 and |E(k) - epsilon| <=
    1e-9 (1 + |epsilon|) are kept, momenta within 1e-3 rad of each other
    (going round the circle) merge into their mean, and a k just below 2pi
    is reported as 0.
    """
    tol = _ENERGY_TOL * (1.0 + abs(epsilon))
    ks = _unimodular_phases(characteristic_roots(h, epsilon).roots)
    ks = sorted(ks[abs(_dispersion(h, np.exp(1j * ks)).real - epsilon) <= tol].tolist())
    clusters: list[list[float]] = []
    for k in ks:
        if clusters and k - clusters[-1][-1] < _MERGE_TOL:
            clusters[-1].append(k)
        else:
            clusters.append([k])
    if len(clusters) > 1 and clusters[0][0] + TWO_PI - clusters[-1][-1] < _MERGE_TOL:
        clusters[0] = [k - TWO_PI for k in clusters.pop()] + clusters[0]
    points = (float(np.mean(c)) % TWO_PI for c in clusters)
    return sorted(0.0 if TWO_PI - k < _MERGE_TOL else k for k in points)


def _critical_values(h: HoppingSet) -> list[float]:
    """Sorted distinct band energies at the critical momenta.

    dE/dk is itself the band of the hoppings i*n*t_n, so the critical
    momenta are the unimodular roots of that set's characteristic
    polynomial at zero energy (the degree-2M slope polynomial
    sum_n n (t_n beta^(M+n) - conj(t_n) beta^(M-n)), times i).  One
    critical energy reached at several momenta is evaluated once per
    momentum, with different roundoff: sorted energies within 1e-12 times
    the bandwidth of the previous kept one are that one.
    """
    slope = HoppingSet(tuple((n, 1j * n * t) for n, t in h.items()))
    critical_k = _unimodular_phases(characteristic_roots(slope, 0.0).roots)
    energies = np.sort(_dispersion(h, np.exp(1j * critical_k)).real).tolist()
    tol = _CRITICAL_TOL * (energies[-1] - energies[0])
    distinct = energies[:1]
    for e in energies[1:]:
        if e - distinct[-1] > tol:
            distinct.append(e)
    return distinct


def pt_breaking_window(h: HoppingSet) -> PTWindow:
    """Energy intervals between band critical values where E(k) = eps has
    multiplicity >= 4, probed at interval midpoints."""
    critical_vals = _critical_values(h)
    intervals: list[tuple[float, float]] = []
    mults: list[int] = []
    for lo, hi in zip(critical_vals, critical_vals[1:]):
        mid = 0.5 * (lo + hi)
        count = len(equal_energy_points(h, mid))
        if count >= 4:
            intervals.append((float(lo), float(hi)))
            mults.append(count)
    return PTWindow(intervals=tuple(intervals), multiplicity=tuple(mults))


def criterion_check(spec: ModelSpec) -> CriterionReport:
    """Check that every continuous-spectrum complex eigenvalue of the open
    chain has Re E inside the permitted window (widened by 5*bandwidth/L
    for finite-size shifts).  Bound states are excluded.

    The spectrum is solved without eigenvectors.  Only the complex states
    outside the widened window take the continuum rule (the c_beta cut, then
    the size-doubling test on the 2L chain): a state inside it is never a
    violation, and the rule decides each state on its own, so the report is
    the one the rule on every complex state gives.
    """
    if spec.boundary is not Boundary.OPEN:
        raise ValueError("criterion applies to open chains")
    window = pt_breaking_window(spec.hoppings)
    critical_vals = _critical_values(spec.hoppings)
    tol = 5.0 * (critical_vals[-1] - critical_vals[0]) / spec.L
    spectrum, scale = solve(spec, vectors=False)
    values = spectrum.eigenvalues
    outside = [
        i
        for i in classify_spectrum(spectrum, scale).complex_indices
        if not any(lo - tol <= values[i].real <= hi + tol for lo, hi in window.intervals)
    ]
    violations = tuple(
        (i, float(values[i].real), float(values[i].imag))
        for i in _continuum(spec, spectrum, outside, scaling=True)
    )
    return CriterionReport(
        window=window,
        complex_energies_inside=not violations,
        violations=violations,
    )

"""Spectra of 1D tight-binding chains with local non-Hermitian perturbations.

The package assembles dense Hamiltonians for open or periodic chains with
arbitrary-range hopping and local (boundary) non-Hermitian terms, computes
full complex spectra, and derives the diagnostics used to study PT symmetry
breaking and scale-free localization: complex-eigenvalue fractions, per-state
localization measures, non-Bloch boundary determinants, band-structure
criteria and projected effective Hamiltonians.
"""

from .lattice import (
    Boundary,
    HoppingSet,
    ModelSpec,
    PerturbationTerm,
    apply_gauge_transform,
    build_hamiltonian,
    is_pt_symmetric,
)
from .eigen import EigensolverError, Spectrum, eig, frobenius_norm, solve
from .analysis import (
    ScaleFreeFit,
    SpectrumClassification,
    classify_spectrum,
    detect_bound_states,
    fit_decay_constant,
    fit_scale_free,
    mean_position,
)
from .nonbloch import (
    BetaRootSet,
    UnitaryScanResult,
    asymptotic_broken_solver,
    boundary_determinant,
    characteristic_roots,
    unitary_scan,
)
from .bands import (
    PTWindow,
    band_energy,
    criterion_check,
    equal_energy_points,
    pt_breaking_window,
)
from .effective import (
    EffectiveBlock,
    chiral_symmetry_check,
    eff_h_obc,
    eff_h_pbc,
    multiband_block,
    project_perturbation,
    threshold_pbc,
)
from .sweep import (
    AxisSpec,
    Metric,
    PhaseGrid,
    SweepConfig,
    run_sweep,
    threshold_extract,
)

__all__ = [
    "Boundary",
    "HoppingSet",
    "ModelSpec",
    "PerturbationTerm",
    "apply_gauge_transform",
    "build_hamiltonian",
    "is_pt_symmetric",
    "EigensolverError",
    "Spectrum",
    "eig",
    "frobenius_norm",
    "solve",
    "SpectrumClassification",
    "ScaleFreeFit",
    "classify_spectrum",
    "detect_bound_states",
    "fit_decay_constant",
    "fit_scale_free",
    "mean_position",
    "BetaRootSet",
    "UnitaryScanResult",
    "characteristic_roots",
    "boundary_determinant",
    "unitary_scan",
    "asymptotic_broken_solver",
    "PTWindow",
    "band_energy",
    "equal_energy_points",
    "pt_breaking_window",
    "criterion_check",
    "EffectiveBlock",
    "project_perturbation",
    "eff_h_pbc",
    "eff_h_obc",
    "multiband_block",
    "chiral_symmetry_check",
    "threshold_pbc",
    "Metric",
    "AxisSpec",
    "SweepConfig",
    "PhaseGrid",
    "run_sweep",
    "threshold_extract",
]

__version__ = "0.1.0"

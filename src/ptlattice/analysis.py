"""Per-state diagnostics derived from a spectrum.

Covers the complex-eigenvalue fraction P_com, eigenvalue-resolved position
measures, exponential decay-constant fits for scale-free localization, and
the separation of isolated bound states from the continuous spectrum.

Every fit is one rule, :func:`_slopes`: the closed-form least-squares
slopes of the columns of a matrix against one abscissa.  The decay
constants of all states come from one such call on the eigenvector matrix,
and the position measures from one pass over its (states x sites)
weights.  The per-vector functions (:func:`fit_decay_constant`,
:func:`localization_constant`, :func:`mean_position`,
:func:`half_asymmetry`) are stacks of one.

The one bound-state rule reads eigenvalues only: a state is bound when
c_beta = L min |ln|beta|| over the characteristic roots at its energy
(:func:`_c_beta`) exceeds ``C_BOUND_CUT``.  :func:`detect_bound_states`
applies it to every state, :func:`_continuum` to complex candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .eigen import Spectrum, solve
from .lattice import ModelSpec
from .nonbloch import _root_stack

__all__ = [
    "SpectrumClassification",
    "ScaleFreeFit",
    "classify_spectrum",
    "mean_position",
    "half_asymmetry",
    "default_fit_window",
    "fit_decay_constant",
    "localization_constant",
    "detect_bound_states",
    "bound_states_by_scaling",
    "continuous_complex_indices",
    "fit_scale_free",
    "mean_position_curve",
    "self_similarity_deviation",
    "state_metrics_rows",
    "STATE_METRICS_COLUMNS",
    "IMAG_CUT_FACTOR",
    "C_BOUND_CUT",
]

IMAG_CUT_FACTOR = 1e-8
C_BOUND_CUT = 10.0
_MIN_FIT_SITES = 10  # fewest sites in a fit_decay_constant window
_SCALING_FACTOR = 2  # see bound_states_by_scaling
_IM_RATIO = 2.0 ** -0.5

# Floor for log-amplitude fits; bound states underflow mid-chain.
_AMP_FLOOR = 1e-300


@dataclass(frozen=True)
class SpectrumClassification:
    """Real/complex split of a spectrum at the cut |Im E| > tol_imag.

    ``near_cut`` counts eigenvalues with 0 < |Im E| <= tol_imag.  On a
    solve in the real PT basis, where real eigenvalues have Im exactly 0,
    these are near-exceptional pairs that the cut calls real; on a complex
    solve roundoff puts most real eigenvalues there.
    """

    p_com: float
    n_com: int
    complex_indices: tuple[int, ...]
    tol_imag: float
    near_cut: int


@dataclass(frozen=True)
class ScaleFreeFit:
    """Decay-constant and Im-E scaling fits across a family of sizes."""

    sizes: tuple[int, ...]
    c_estimates: tuple[float, ...]
    c_mean: float
    c_relative_spread: float
    im_scaling_exponent: float
    status: str = "ok"


def classify_spectrum(
    spectrum: Spectrum, scale: float, tol_imag: float | None = None
) -> SpectrumClassification:
    """Split eigenvalues into real and complex at tol_imag = 1e-8 * scale.
    scale must be finite and positive, and an explicit tol_imag finite and
    non-negative."""
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError(f"scale must be finite and positive (pass the Frobenius norm), got {scale}")
    tol = IMAG_CUT_FACTOR * scale if tol_imag is None else float(tol_imag)
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol_imag must be finite and non-negative, got {tol_imag}")
    values = spectrum.eigenvalues
    im = np.abs(values.imag)
    complex_idx = tuple(np.flatnonzero(im > tol).tolist())
    n_com = len(complex_idx)
    return SpectrumClassification(
        p_com=n_com / len(values),
        n_com=n_com,
        complex_indices=complex_idx,
        tol_imag=tol,
        near_cut=int(np.count_nonzero((im > 0) & (im <= tol))),
    )


def _positions(V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """mean_position and half_asymmetry of each column of V.

    The weights |v_j|^2 / sum |v|^2 form a (states x sites) array with
    contiguous rows, so that each row sums in numpy's pairwise order, as a
    1-D vector does."""
    W = np.abs(np.ascontiguousarray(V.T)) ** 2
    total = W.sum(axis=1, keepdims=True)
    if np.any(total == 0):
        raise ValueError("zero vector")
    W = W / total
    L = W.shape[1]
    j = np.arange(1, L + 1)
    return (W * j).sum(axis=1), (W * np.abs(j - L / 2)).sum(axis=1)


def mean_position(v: np.ndarray) -> float:
    """Probability-weighted mean site index, in [1, L]."""
    return float(_positions(np.asarray(v)[:, None])[0][0])


def half_asymmetry(v: np.ndarray) -> float:
    """Mean distance from the chain midpoint L/2; detects inversion-symmetric
    localization that mean_position cannot see."""
    return float(_positions(np.asarray(v)[:, None])[1][0])


def default_fit_window(L: int, max_range: int) -> tuple[int, int]:
    """Middle 60% of sites, at least max(M, 5) away from either edge."""
    margin = max(max_range, 5)
    lo = max(int(0.2 * L) + 1, margin + 1)
    hi = min(int(0.8 * L), L - margin)
    return lo, hi


def _slopes(x: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Least-squares slopes of the columns of Y (or of a vector Y) against x."""
    dx = x - x.mean()
    return (dx @ Y) / (dx @ dx)


def _log_slopes(amps: np.ndarray, lo: int, L: int) -> np.ndarray:
    """Slope of log(amps) of each column on the sites lo, lo+1, ..., times L."""
    return _slopes(np.arange(lo, lo + len(amps), dtype=float), np.log(amps)) * L


def _decay_constants(V: np.ndarray, window: tuple[int, int], edge_margin: int) -> np.ndarray:
    """fit_decay_constant of each column of V; NaN for a column with a zero
    amplitude in the window.  A bad window raises ValueError."""
    L = V.shape[0]
    lo, hi = window
    if not (1 <= lo < hi <= L):
        raise ValueError(f"window {window} not within [1, {L}]")
    if hi - lo + 1 < _MIN_FIT_SITES:
        raise ValueError(f"window must contain at least {_MIN_FIT_SITES} sites")
    if lo <= edge_margin or hi > L - edge_margin:
        raise ValueError(
            f"window {window} touches the outermost {edge_margin} sites"
        )
    amps = np.abs(V[lo - 1 : hi])
    zero = np.any(amps == 0, axis=0)
    amps[:, zero] = 1.0
    c = _log_slopes(amps, lo, L)
    c[zero] = np.nan
    return c


def fit_decay_constant(
    v: np.ndarray, window: tuple[int, int], edge_margin: int = 1
) -> float:
    """Least-squares slope of log|v_j| vs j over a 1-based window, scaled by L.

    The returned c satisfies |v_j| ~ exp(c*j/L) on the window.  Windows that
    touch the outermost ``edge_margin`` sites are rejected (boundary layers
    carry the sub-dominant beta branch).
    """
    c = float(_decay_constants(np.asarray(v)[:, None], window, edge_margin)[0])
    if math.isnan(c):
        raise ValueError("window contains zero amplitudes")
    return c


def _half_windows(L: int, max_range: int) -> tuple[tuple[int, int], ...] | None:
    """The two half-chain windows of the |c| fit, 1-based, each at least
    max(M, 5) sites from the chain's ends and its midpoint; None when one
    holds fewer than ``_MIN_FIT_SITES`` sites (chains of fewer than about
    40 sites), where |c| and c_beta are NaN and no state is bound."""
    margin = max(max_range, 5)
    half = L // 2
    windows = ((margin + 1, half - margin), (half + margin, L - margin))
    if any(hi - lo + 1 < _MIN_FIT_SITES for lo, hi in windows):
        return None
    return windows


def _localization_constants(V: np.ndarray, max_range: int) -> np.ndarray:
    """localization_constant of each column of V: all NaN when
    :func:`_half_windows` gives none."""
    L = V.shape[0]
    windows = _half_windows(L, max_range)
    if windows is None:
        return np.full(V.shape[1], np.nan)
    left, right = (
        np.abs(_log_slopes(np.maximum(np.abs(V[lo - 1 : hi]), _AMP_FLOOR), lo, L))
        for lo, hi in windows
    )
    return np.maximum(left, right)


def localization_constant(v: np.ndarray, max_range: int = 1) -> float:
    """Max |c| over the two half-chain windows.

    Bound states pinned to one edge, or decaying symmetrically from both
    edges, both show a large half-window |c|; scale-free profiles give
    |c| ~ O(1) on either half.  NaN when a half-window is shorter than 10
    sites (chains of fewer than about 40 sites).  A measurement, not the
    bound-state rule (:func:`detect_bound_states`).
    """
    return float(_localization_constants(np.asarray(v)[:, None], max_range)[0])


def detect_bound_states(spectrum: Spectrum, spec: ModelSpec) -> list[int]:
    """Indices of the states of ``spec`` localized with a size-independent
    decay length: those whose :func:`_c_beta` exceeds ``C_BOUND_CUT`` (a
    NaN c_beta, on a short chain, is not bound).  It reads eigenvalues
    only, so the spectrum may be values-only."""
    return np.flatnonzero(_c_beta(spec, spectrum.eigenvalues) > C_BOUND_CUT).tolist()


def bound_states_by_scaling(
    spec: ModelSpec, spectrum: Spectrum, candidates: Sequence[int]
) -> list[int]:
    """Subset of candidate complex states whose Im E is size-independent.

    The model is rebuilt on a chain ``_SCALING_FACTOR`` (2) times longer
    (total flux kept fixed for periodic chains) and classified by
    :func:`classify_spectrum`.  A candidate is a bound state when a complex
    eigenvalue with the same Im-E sign persists at the larger size with at
    least ``_IM_RATIO`` of its imaginary part; continuous-spectrum imaginary
    parts shrink like 1/L and fail that test.  The cut 1/sqrt(2) is the
    geometric midpoint between the bound ratio (1) and the scale-free ratio
    (1/2), so a marginal mode at the bound-state formation point lands on
    the bound side.  This refines the fixed c_beta > C_BOUND_CUT cut near
    bound-state onset, where the emerging bound mode is still spatially
    extended at the original size.
    """
    if not candidates:
        return []
    big_spectrum, big_scale = solve(spec.resized(_SCALING_FACTOR * spec.L), vectors=False)
    big = big_spectrum.eigenvalues
    big_complex = big[list(classify_spectrum(big_spectrum, big_scale).complex_indices)]
    if big_complex.size == 0:
        return []
    idx = np.asarray(candidates, dtype=np.intp)
    e = spectrum.eigenvalues[idx]
    # (candidates x big complex) distances, infinite across an Im-E sign
    dist = np.where(
        np.sign(big_complex.imag) == np.sign(e.imag)[:, None],
        np.abs(big_complex - e[:, None]),
        np.inf,
    )
    nearest = big_complex[np.argmin(dist, axis=1)]
    persists = np.isfinite(dist.min(axis=1))
    persists &= np.abs(nearest.imag) >= _IM_RATIO * np.abs(e.imag)
    return idx[persists].tolist()


def _c_beta(spec: ModelSpec, energies: np.ndarray) -> np.ndarray:
    """c_beta = L min_s |ln|beta_s(E)|| of each energy, over the 2M roots of
    the model's characteristic polynomial; NaN, like |c|, where
    :func:`_half_windows` gives none.

    A continuum state has a root beta = e^{i gamma + delta/L}, so c_beta =
    |delta| stays O(1) as L grows; a bound state's roots all keep
    |ln|beta|| >= kappa > 0, so its c_beta grows like kappa L (Yokomizo &
    Murakami, PRL 123, 066404 (2019))."""
    energies = np.asarray(energies, dtype=np.complex128)
    if _half_windows(spec.L, spec.max_range) is None:
        return np.full(energies.shape, np.nan)
    roots = _root_stack(spec.hoppings, energies)
    return spec.L * np.abs(np.log(np.abs(roots))).min(axis=1)


def _continuum(
    spec: ModelSpec, spectrum: Spectrum, candidates: Sequence[int], scaling: bool = False
) -> list[int]:
    """The continuum rule: ``candidates``, complex indices of a
    classification (all of ``complex_indices`` or a subset of them), minus
    the bound states among them, those with :func:`_c_beta` above
    ``C_BOUND_CUT``.  It reads eigenvalues only.  With ``scaling`` the
    survivors also take the size-doubling test of
    :func:`bound_states_by_scaling`.  Both tests decide each state on its
    own, so a subset gives the full result restricted to it."""
    idx = np.asarray(candidates, dtype=np.intp)
    if idx.size == 0:
        return []
    c = _c_beta(spec, spectrum.eigenvalues[idx])
    remaining = idx[~(c > C_BOUND_CUT)]
    if scaling and remaining.size:
        bound = bound_states_by_scaling(spec, spectrum, remaining.tolist())
        remaining = remaining[~np.isin(remaining, bound)]
    return remaining.tolist()


def continuous_complex_indices(
    spec: ModelSpec,
    spectrum: Spectrum,
    scale: float,
    scaling_check: bool = False,
) -> list[int]:
    """Complex-eigenvalue indices with bound states removed; the spectrum
    may be values-only.

    A complex state is bound when its c_beta = L min |ln|beta|| over the
    characteristic roots at its energy exceeds ``C_BOUND_CUT``.  With
    ``scaling_check`` that cut is refined by the size-doubling test of
    :func:`bound_states_by_scaling`.
    """
    idx = classify_spectrum(spectrum, scale).complex_indices
    return _continuum(spec, spectrum, idx, scaling_check)


def _select_fit_state(spec: ModelSpec, spectrum: Spectrum, scale: float) -> int | None:
    """State used for the scale-free decay fit: the one at the median
    imaginary part of the full spectrum, provided it is complex and not a
    bound state.  It reads eigenvalues only.

    The maximal-Im-E state sits closest to bound-state formation and keeps
    size-dependent corrections; the median state is representative of the
    continuum bulk.  Im parts within the classification cut are ties, broken
    by Re E, so roundoff cannot choose between mirror partners at +-Re E.
    """
    cls = classify_spectrum(spectrum, scale)
    allowed = _continuum(spec, spectrum, cls.complex_indices)
    if not allowed:
        return None
    values = spectrum.eigenvalues
    order = np.argsort(values.imag, kind="stable")
    tied = np.concatenate(([0], np.cumsum(np.diff(values.imag[order]) > cls.tol_imag)))
    by_im = order[np.lexsort((values.real[order], tied))]
    # the eligible rank nearest the median, walking outward: half, half + 1,
    # half - 1, half + 2, ...
    ranks = np.flatnonzero(np.isin(by_im, allowed))
    half = len(by_im) // 2
    walk = 2 * np.abs(ranks - half) - (ranks > half)
    return int(by_im[ranks[np.argmin(walk)]])


def fit_scale_free(
    model_family: Callable[[int], ModelSpec], sizes: Sequence[int]
) -> ScaleFreeFit:
    """Fit the scale-free decay constant c and the max-|Im E| size scaling.

    For each size the model is diagonalized, a representative complex
    eigenstate is selected and its decay constant fitted on the default
    middle window; |psi_j| ~ exp(c*j/L) with c independent of L signals
    scale-free localization, and the representative state's |Im E| ~ 1/L
    fixes the exponent.  (The extreme-Im state is not used for the exponent:
    near bound-state formation it carries strong finite-size corrections.
    At the onset itself (gain g = t at the end of an open chain) the
    band-centre mode has the largest Im E and a c that grows like ln L.
    Below the onset every |c| stays under ln((t + g)/(t - g))/2.)
    A size whose default window holds fewer than 10 sites (L < 20 when
    M <= 5) raises ValueError naming it, before any size is solved.
    """
    sizes = tuple(int(s) for s in sizes)
    if len(sizes) < 3 or any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("need at least 3 strictly increasing sizes")
    specs = [model_family(L) for L in sizes]
    windows = [default_fit_window(spec.L, spec.max_range) for spec in specs]
    for spec, (lo, hi) in zip(specs, windows):
        if hi - lo + 1 < _MIN_FIT_SITES:
            raise ValueError(
                f"size L = {spec.L} is too short for the scale-free fit: its window "
                f"({lo}, {hi}) holds {max(hi - lo + 1, 0)} sites, fewer than {_MIN_FIT_SITES}"
            )
    cs, max_ims = [], []
    for spec, window in zip(specs, windows):
        spectrum, scale = solve(spec)
        pick = _select_fit_state(spec, spectrum, scale)
        if pick is None:
            return ScaleFreeFit(
                sizes=sizes,
                c_estimates=(),
                c_mean=0.0,
                c_relative_spread=0.0,
                im_scaling_exponent=0.0,
                status="no complex states",
            )
        cs.append(fit_decay_constant(spectrum.vector(pick), window, spec.max_range))
        max_ims.append(abs(float(spectrum.eigenvalues[pick].imag)))
    cs_arr = np.array(cs)
    c_mean = float(cs_arr.mean())
    spread = float((cs_arr.max() - cs_arr.min()) / abs(c_mean)) if c_mean else float("inf")
    exponent = float(_slopes(np.log(sizes), np.log(max_ims)))
    return ScaleFreeFit(
        sizes=sizes,
        c_estimates=tuple(float(c) for c in cs),
        c_mean=c_mean,
        c_relative_spread=spread,
        im_scaling_exponent=exponent,
    )


def mean_position_curve(spectrum: Spectrum) -> np.ndarray:
    """Normalized mean positions <x>_n / L with states sorted by ascending
    Im E (ties by Re E)."""
    values = spectrum.eigenvalues
    order = np.lexsort((values.real, values.imag))
    return _positions(spectrum.vector(order))[0] / spectrum.dimension


def self_similarity_deviation(curves: dict[int, np.ndarray]) -> float:
    """Max pointwise distance between rescaled mean-position curves.

    Every curve is compared against the largest-size curve on its own
    fractional index grid (linear interpolation).

    The collapse is uniform only below the bound-state onset.  At the onset
    (gain g = t on an open chain) the band-centre mode's decay constant
    grows like ln L, so its distance from the largest-size curve falls only
    as ln(L_max/L) and dominates the maximum.
    """
    if len(curves) < 2:
        raise ValueError("need at least two sizes")
    L_ref = max(curves)
    ref = curves[L_ref]
    f_ref = (np.arange(L_ref) + 0.5) / L_ref
    worst = 0.0
    for L, curve in curves.items():
        if L == L_ref:
            continue
        f = (np.arange(L) + 0.5) / L
        worst = max(worst, float(np.max(np.abs(curve - np.interp(f, f_ref, ref)))))
    return worst


STATE_METRICS_COLUMNS = (
    "index", "re_e", "im_e", "mean_position", "half_asymmetry", "c_fit", "is_bound"
)


def state_metrics_rows(spec: ModelSpec, spectrum: Spectrum) -> list[tuple]:
    """Per-state metric rows for CSV export, one tuple per state in the
    order of :data:`STATE_METRICS_COLUMNS`.  ``c_fit`` is NaN where a window
    amplitude is at most eps max |psi|: one rounding unit, no correct digit."""
    V = spectrum.vector(slice(None))
    window = default_fit_window(spec.L, spec.max_range)
    try:
        c_fit = _decay_constants(V, window, spec.max_range)
    except ValueError:
        c_fit = np.full(spectrum.dimension, np.nan)
    else:
        amps, eps = np.abs(V), np.finfo(float).eps
        c_fit[amps[window[0] - 1 : window[1]].min(axis=0) <= eps * amps.max(axis=0)] = np.nan
    bound = np.zeros(spectrum.dimension, dtype=int)
    bound[detect_bound_states(spectrum, spec)] = 1
    values = spectrum.eigenvalues
    columns = (values.real, values.imag, *_positions(V), c_fit, bound)
    return list(zip(range(spectrum.dimension), *(col.tolist() for col in columns)))

"""Per-state diagnostics derived from a spectrum.

Covers the complex-eigenvalue fraction P_com, eigenvalue-resolved position
measures, exponential decay-constant fits for scale-free localization, and
the separation of isolated bound states from the continuous spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .eigen import Spectrum, solve
from .lattice import ModelSpec

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
    An explicit tol_imag must be finite and non-negative."""
    if scale <= 0:
        raise ValueError("scale must be positive (pass the Frobenius norm)")
    tol = IMAG_CUT_FACTOR * scale if tol_imag is None else float(tol_imag)
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol_imag must be finite and non-negative, got {tol_imag}")
    values = spectrum.eigenvalues
    im = np.abs(values.imag)
    complex_idx = tuple(int(i) for i in np.flatnonzero(im > tol))
    n_com = len(complex_idx)
    return SpectrumClassification(
        p_com=n_com / len(values),
        n_com=n_com,
        complex_indices=complex_idx,
        tol_imag=tol,
        near_cut=int(np.count_nonzero((im > 0) & (im <= tol))),
    )


def _weights(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v)
    w = np.abs(v) ** 2
    total = w.sum()
    if total == 0:
        raise ValueError("zero vector")
    return w / total


def mean_position(v: np.ndarray) -> float:
    """Probability-weighted mean site index, in [1, L]."""
    w = _weights(v)
    return float(np.sum(w * np.arange(1, len(w) + 1)))


def half_asymmetry(v: np.ndarray) -> float:
    """Mean distance from the chain midpoint L/2; detects inversion-symmetric
    localization that mean_position cannot see."""
    w = _weights(v)
    j = np.arange(1, len(w) + 1)
    return float(np.sum(w * np.abs(j - len(w) / 2)))


def default_fit_window(L: int, max_range: int) -> tuple[int, int]:
    """Middle 60% of sites, at least max(M, 5) away from either edge."""
    margin = max(max_range, 5)
    lo = max(int(0.2 * L) + 1, margin + 1)
    hi = min(int(0.8 * L), L - margin)
    return lo, hi


def fit_decay_constant(
    v: np.ndarray, window: tuple[int, int], edge_margin: int = 1
) -> float:
    """Least-squares slope of log|v_j| vs j over a 1-based window, scaled by L.

    The returned c satisfies |v_j| ~ exp(c*j/L) on the window.  Windows that
    touch the outermost ``edge_margin`` sites are rejected (boundary layers
    carry the sub-dominant beta branch).
    """
    v = np.asarray(v)
    L = len(v)
    lo, hi = window
    if not (1 <= lo < hi <= L):
        raise ValueError(f"window {window} not within [1, {L}]")
    if hi - lo + 1 < 10:
        raise ValueError("window must contain at least 10 sites")
    if lo <= edge_margin or hi > L - edge_margin:
        raise ValueError(
            f"window {window} touches the outermost {edge_margin} sites"
        )
    amps = np.abs(v[lo - 1 : hi])
    if np.any(amps == 0):
        raise ValueError("window contains zero amplitudes")
    return float(_log_slope(amps, lo, L))


def _log_slope(amps: np.ndarray, lo: int, L: int) -> float:
    """Least-squares slope of log(amps) on the sites lo, lo+1, ..., times L."""
    j = np.arange(lo, lo + len(amps), dtype=float)
    return np.polyfit(j, np.log(amps), 1)[0] * L


def localization_constant(v: np.ndarray, max_range: int = 1) -> float:
    """Max |c| over the two half-chain windows.

    Bound states pinned to one edge, or decaying symmetrically from both
    edges, both show a large half-window |c|; scale-free profiles give
    |c| ~ O(1) on either half.  NaN when a half-window is shorter than 10
    sites (chains of fewer than about 40 sites), so that
    :func:`detect_bound_states` flags nothing there.
    """
    v = np.asarray(v)
    L = len(v)
    margin = max(max_range, 5)
    half = L // 2
    best = 0.0
    for lo, hi in ((margin + 1, half - margin), (half + margin, L - margin)):
        if hi - lo + 1 < 10:
            return float("nan")
        amps = np.maximum(np.abs(v[lo - 1 : hi]), _AMP_FLOOR)
        best = max(best, abs(_log_slope(amps, lo, L)))
    return best


def _is_bound(v: np.ndarray, max_range: int) -> bool:
    """The fixed cut |c| > C_BOUND_CUT; a NaN |c| (short chain) is not bound."""
    return localization_constant(v, max_range) > C_BOUND_CUT


def detect_bound_states(spectrum: Spectrum, max_range: int = 1) -> list[int]:
    """Indices of states localized with a size-independent decay length:
    those whose half-window |c| exceeds ``C_BOUND_CUT``."""
    return [k for k in range(spectrum.dimension) if _is_bound(spectrum.vector(k), max_range)]


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
    the bound side.  This refines the fixed |c| > C_BOUND_CUT cut near
    bound-state onset, where the emerging bound mode is still spatially
    extended at the original size.
    """
    if not candidates:
        return []
    big_spectrum, big_scale = solve(spec.resized(_SCALING_FACTOR * spec.L), vectors=False)
    big = big_spectrum.eigenvalues
    big_complex = big[list(classify_spectrum(big_spectrum, big_scale).complex_indices)]
    out = []
    for k in candidates:
        e = spectrum.eigenvalues[k]
        same_sign = big_complex[np.sign(big_complex.imag) == np.sign(e.imag)]
        if len(same_sign) == 0:
            continue
        nearest = same_sign[np.argmin(np.abs(same_sign - e))]
        if abs(nearest.imag) >= _IM_RATIO * abs(e.imag):
            out.append(int(k))
    return out


def _continuum(
    spectrum: Spectrum,
    cls: SpectrumClassification,
    max_range: int,
    scaling_spec: ModelSpec | None = None,
) -> list[int]:
    """The continuum rule: the complex indices of ``cls`` minus the bound
    states among them.  The |c| cut runs on the complex states only; with
    ``scaling_spec`` the survivors also take the size-doubling test of
    :func:`bound_states_by_scaling` on that model."""
    remaining = [i for i in cls.complex_indices if not _is_bound(spectrum.vector(i), max_range)]
    if scaling_spec is not None and remaining:
        bound = set(bound_states_by_scaling(scaling_spec, spectrum, remaining))
        remaining = [i for i in remaining if i not in bound]
    return remaining


def continuous_complex_indices(
    spec: ModelSpec,
    spectrum: Spectrum,
    scale: float,
    scaling_check: bool = False,
) -> list[int]:
    """Complex-eigenvalue indices with bound states removed.

    With ``scaling_check`` the fixed-|c| cut is refined by the size-doubling
    test of :func:`bound_states_by_scaling`.
    """
    cls = classify_spectrum(spectrum, scale)
    return _continuum(spectrum, cls, spec.max_range, spec if scaling_check else None)


def _select_fit_state(spectrum: Spectrum, scale: float, max_range: int) -> int | None:
    """State used for the scale-free decay fit: the one at the median
    imaginary part of the full spectrum, provided it is complex and not a
    bound state.

    The maximal-Im-E state sits closest to bound-state formation and keeps
    size-dependent corrections; the median state is representative of the
    continuum bulk.  Im parts within the classification cut are ties, broken
    by Re E, so roundoff cannot choose between mirror partners at +-Re E.
    """
    cls = classify_spectrum(spectrum, scale)
    allowed = set(_continuum(spectrum, cls, max_range))
    if not allowed:
        return None
    values = spectrum.eigenvalues
    order = np.argsort(values.imag, kind="stable")
    tied = np.concatenate(([0], np.cumsum(np.diff(values.imag[order]) > cls.tol_imag)))
    by_im = [int(i) for i in order[np.lexsort((values.real[order], tied))]]
    half = len(by_im) // 2
    # walk outward from the median until an eligible state is found
    for off in range(len(by_im)):
        for k in (half + off, half - off):
            if 0 <= k < len(by_im) and by_im[k] in allowed:
                return by_im[k]
    return None


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
    """
    sizes = tuple(int(s) for s in sizes)
    if len(sizes) < 3 or any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("need at least 3 strictly increasing sizes")
    cs, max_ims = [], []
    for L in sizes:
        spec = model_family(L)
        spectrum, scale = solve(spec)
        pick = _select_fit_state(spectrum, scale, spec.max_range)
        if pick is None:
            return ScaleFreeFit(
                sizes=sizes,
                c_estimates=(),
                c_mean=0.0,
                c_relative_spread=0.0,
                im_scaling_exponent=0.0,
                status="no complex states",
            )
        window = default_fit_window(L, spec.max_range)
        cs.append(fit_decay_constant(spectrum.vector(pick), window, spec.max_range))
        max_ims.append(abs(float(spectrum.eigenvalues[pick].imag)))
    cs_arr = np.array(cs)
    c_mean = float(cs_arr.mean())
    spread = float((cs_arr.max() - cs_arr.min()) / abs(c_mean)) if c_mean else float("inf")
    exponent = float(np.polyfit(np.log(sizes), np.log(max_ims), 1)[0])
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
    L = spectrum.dimension
    return np.array(
        [mean_position(spectrum.vector(int(i))) for i in order]
    ) / L


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
    order of :data:`STATE_METRICS_COLUMNS`."""
    window = default_fit_window(spec.L, spec.max_range)
    bound = set(detect_bound_states(spectrum, spec.max_range))
    rows = []
    for k in range(spectrum.dimension):
        v = spectrum.vector(k)
        try:
            c_fit = fit_decay_constant(v, window, spec.max_range)
        except ValueError:
            c_fit = float("nan")
        e = spectrum.eigenvalues[k]
        rows.append(
            (k, e.real, e.imag, mean_position(v), half_asymmetry(v), c_fit, int(k in bound))
        )
    return rows

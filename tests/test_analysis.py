import math

import numpy as np
import pytest

from ptlattice import (
    Boundary,
    HoppingSet,
    ModelSpec,
    PerturbationTerm,
    build_hamiltonian,
    classify_spectrum,
    detect_bound_states,
    eig,
    fit_decay_constant,
    fit_scale_free,
    frobenius_norm,
    mean_position,
)
from ptlattice import analysis
from ptlattice.analysis import (
    _select_fit_state,
    bound_states_by_scaling,
    continuous_complex_indices,
    default_fit_window,
    half_asymmetry,
    localization_constant,
)
from ptlattice.eigen import solve
from ptlattice.nonbloch import _root_stack
from conftest import flux_ring, gain_chain, nnn_chain, random_model


def test_mean_position_uniform():
    v = np.ones(99, complex) / math.sqrt(99)
    assert mean_position(v) == pytest.approx(50.0)


def test_mean_position_delta():
    v = np.zeros(20, complex)
    v[6] = 1.0
    assert mean_position(v) == pytest.approx(7.0)


def test_mean_position_exponential_profile():
    L = 100
    j = np.arange(1, L + 1)
    v = np.exp(2.0 * j / L).astype(complex)
    v /= np.linalg.norm(v)
    # |v|^2 weights give the closed-form mean of j * e^{4j/L}
    w = np.abs(v) ** 2
    expected = float(np.sum(j * w))
    m = mean_position(v)
    assert m == pytest.approx(expected, abs=1e-10)
    assert m > 70.0


def test_half_asymmetry_uniform():
    v = np.ones(100, complex) / 10.0
    assert half_asymmetry(v) == pytest.approx(25.0, abs=1.0)


def test_half_asymmetry_center_delta():
    v = np.zeros(100, complex)
    v[49] = 1.0
    assert half_asymmetry(v) < 1.0


def test_half_asymmetry_orders_profiles():
    L = 100
    j = np.arange(1, L + 1)
    flat = np.ones(L, complex) / math.sqrt(L)
    skew = np.exp(3.0 * j / L).astype(complex)
    skew /= np.linalg.norm(skew)
    assert half_asymmetry(skew) > half_asymmetry(flat)


def test_fit_decay_constant_exact_exponential():
    L = 200
    j = np.arange(1, L + 1)
    v = np.exp(2.0 * j / L).astype(complex)
    v /= np.linalg.norm(v)
    c = fit_decay_constant(v, default_fit_window(L, 1))
    assert c == pytest.approx(2.0, abs=1e-8)


def test_fit_decay_constant_plane_wave():
    L = 200
    j = np.arange(1, L + 1)
    v = np.exp(1j * 0.7 * j) / math.sqrt(L)
    c = fit_decay_constant(v, default_fit_window(L, 1))
    assert abs(c) < 1e-8


def test_fit_decay_constant_rejects_bad_window():
    v = np.ones(50, complex)
    with pytest.raises(ValueError):
        fit_decay_constant(v, (30, 35))  # fewer than 10 sites
    with pytest.raises(ValueError):
        fit_decay_constant(v, (45, 60))  # beyond chain end


def test_localization_constant_symmetric_bound_state():
    L = 100
    j = np.arange(1, L + 1)
    v = np.exp(-0.5 * np.abs(j - 1)).astype(complex)
    v /= np.linalg.norm(v)
    c = localization_constant(v)
    # decay constant 0.5 per site maps to c = 0.5 * L
    assert c == pytest.approx(0.5 * L, rel=0.1)


def test_classify_real_spectrum():
    H = build_hamiltonian(nnn_chain(40, 1.0, 0.1, 0.5))
    cls = classify_spectrum(eig(H), frobenius_norm(H))
    assert cls.p_com == 0.0
    assert cls.n_com == 0
    assert list(cls.complex_indices) == []


def test_classify_counts_conjugate_pairs():
    H = build_hamiltonian(gain_chain(40, g=1.5))
    cls = classify_spectrum(eig(H), frobenius_norm(H))
    assert cls.n_com == len(cls.complex_indices)
    assert cls.n_com % 2 == 0 or cls.n_com == 1
    assert cls.p_com == pytest.approx(cls.n_com / 40)


def test_classify_explicit_tolerance():
    H = np.diag([0.0, 1.0, 2.0 + 1e-6j]).astype(complex)
    loose = classify_spectrum(eig(H), 1.0, tol_imag=1e-3)
    tight = classify_spectrum(eig(H), 1.0, tol_imag=1e-9)
    assert loose.n_com == 0
    assert tight.n_com == 1


def test_classify_rejects_a_meaningless_tolerance():
    H = np.diag([0.0, 1.0, 2.0 + 1e-6j]).astype(complex)
    for bad in (-1.0, -1e-300, math.nan, math.inf):
        with pytest.raises(ValueError, match="tol_imag"):
            classify_spectrum(eig(H), 1.0, tol_imag=bad)
    assert classify_spectrum(eig(H), 1.0, tol_imag=0.0).n_com == 1


def test_detect_bound_states_above_onset():
    spec = gain_chain(100, g=1.5)
    spectrum = eig(build_hamiltonian(spec))
    idx = detect_bound_states(spectrum, spec)
    assert len(idx) == 1
    # the rule reads eigenvalues only, so a values-only solve gives it too
    assert detect_bound_states(solve(spec, vectors=False)[0], spec) == idx
    e = spectrum.eigenvalues[idx[0]]
    assert e.imag == pytest.approx(1.5 - 1.0 / 1.5, rel=0.02)


def test_detect_bound_states_below_onset():
    spec = gain_chain(100, g=0.9)
    spectrum = eig(build_hamiltonian(spec))
    assert detect_bound_states(spectrum, spec) == []
    assert detect_bound_states(solve(spec, vectors=False)[0], spec) == []


def test_detect_bound_states_two_sided():
    spec = nnn_chain(100, 1.0, 0.1, 3.0)
    spectrum = eig(build_hamiltonian(spec))
    idx = detect_bound_states(spectrum, spec)
    assert len(idx) == 2


# criterion 5's open chains (L = 100, t1 = 1), among them the two L = 100
# chains of the obc_criterion benchmark, and its two L = 400 chains
_CONTINUUM_MODELS = (
    [(100, t2, float(g)) for t2 in (0.05, 0.1, 0.2) for g in np.linspace(0.0, 2.0, 21)]
    + [(100, 0.5, float(g)) for g in np.linspace(0.05, 2.0, 40)]
    + [(400, 0.5, g) for g in (0.3, 1.0)]
)


def test_continuum_is_complex_minus_bound_states():
    # the c_beta cut runs on the complex states only; on these chains it
    # must agree with a fit to the eigenvectors: the complex indices minus
    # the states whose half-window |c| exceeds the cut
    seen_bound = 0
    for L, t2, g in _CONTINUUM_MODELS:
        spec = nnn_chain(L, 1.0, t2, g)
        spectrum, scale = solve(spec)
        c = analysis._localization_constants(spectrum.eigenvectors, spec.max_range)
        bound = set(np.flatnonzero(c > analysis.C_BOUND_CUT).tolist())
        cls = classify_spectrum(spectrum, scale)
        want = [i for i in cls.complex_indices if i not in bound]
        assert continuous_complex_indices(spec, spectrum, scale) == want, (L, t2, g)
        # the rule reads eigenvalues only, so a values-only solve gives it too
        values_only, _ = solve(spec, vectors=False)
        assert continuous_complex_indices(spec, values_only, scale) == want, (L, t2, g)
        seen_bound += len(set(cls.complex_indices) & bound)
    assert seen_bound > 0  # the cut removed complex states somewhere


@pytest.mark.parametrize("L, bound", [(100, 3e-3), (400, 8e-4)])
def test_c_beta_is_the_scale_free_constant(L, bound):
    # gain chain, r = g/t = 0.9: the root beta = e^{i gamma + delta/L} of a
    # scale-free state has, to leading order in 1/L,
    # delta(gamma) = 1/4 ln[(1 + r^2 + 2r sin gamma) / (1 + r^2 - 2r sin gamma)];
    # c_beta approaches |delta| like 1/L (median 2.7e-3 at L = 100, 6.6e-4
    # at L = 400)
    r = 0.9
    spec = gain_chain(L, 1.0, r)
    values = solve(spec, vectors=False)[0].eigenvalues
    gamma = np.angle(_root_stack(spec.hoppings, values)[:, -1])
    delta = 0.25 * np.log((1 + r * r + 2 * r * np.sin(gamma)) / (1 + r * r - 2 * r * np.sin(gamma)))
    assert np.median(np.abs(analysis._c_beta(spec, values) - np.abs(delta))) < bound


@pytest.mark.parametrize("M", [1, 2, 3])
def test_c_beta_and_c_are_nan_at_the_same_sizes(M):
    # both bound-state rules read the one short-chain rule: a half-window of
    # 10 sites exists from L = 40 on (M <= 5), so L = 39 gives no verdict
    hoppings = HoppingSet(tuple((n, 1.0 / n) for n in range(1, M + 1)))
    for L, short in ((39, True), (40, False)):
        spec = ModelSpec(L, Boundary.OPEN, hoppings, 0.0, (PerturbationTerm(1, 1, 1.5j),))
        spectrum, _ = solve(spec)
        c_beta = analysis._c_beta(spec, spectrum.eigenvalues)
        c = analysis._localization_constants(spectrum.eigenvectors, M)
        assert np.isnan(c_beta).all() == np.isnan(c).all() == short, L
        assert np.isnan(c_beta).any() == np.isnan(c).any() == short, L


@pytest.mark.parametrize("L, g", [(100, 0.3), (100, 1.0), (400, 1.0)])
def test_scaling_check_refines_the_continuum(L, g):
    spec = nnn_chain(L, 1.0, 0.5, g)
    spectrum, scale = solve(spec)
    remaining = continuous_complex_indices(spec, spectrum, scale)
    extra = set(bound_states_by_scaling(spec, spectrum, remaining))
    refined = continuous_complex_indices(spec, spectrum, scale, scaling_check=True)
    assert refined == [i for i in remaining if i not in extra]


def test_fit_scale_free_matches_profile():
    fit = fit_scale_free(lambda L: gain_chain(L, g=1.0), [100, 200, 400])
    assert fit.status == "ok"
    assert fit.c_relative_spread < 0.05
    assert fit.im_scaling_exponent == pytest.approx(-1.0, abs=0.15)


@pytest.mark.parametrize("L", [60, 120, 240])
def test_fit_state_independent_of_solve(L):
    # the median-Im state has a mirror partner at -Re E whose Im agrees to
    # roundoff; the complex and the real-basis solve must pick the same one
    spec = flux_ring(L, 0.5 / L, 0.8)
    H = build_hamiltonian(spec)
    site = eig(H)
    real, scale = solve(spec)
    a = site.eigenvalues[_select_fit_state(spec, site, frobenius_norm(H))]
    b = real.eigenvalues[_select_fit_state(spec, real, scale)]
    assert abs(a - b) < 1e-10


def test_fit_scale_free_requires_complex_states():
    fit = fit_scale_free(lambda L: gain_chain(L, g=0.0), [100, 200, 400])
    assert fit.status != "ok"


def test_fit_scale_free_names_a_size_too_short(monkeypatch):
    def no_solve(spec, vectors=True):
        raise AssertionError("solved before the sizes were checked")

    monkeypatch.setattr(analysis, "solve", no_solve)
    # the middle-60 % window holds 10 sites from L = 20 on (M <= 5); L = 19 has 9
    assert default_fit_window(20, 2) == (6, 15)
    with pytest.raises(ValueError, match=r"^size L = 19 .* window \(6, 14\) holds 9 sites"):
        fit_scale_free(lambda L: nnn_chain(L, 1.0, 0.5, 0.5), [19, 40, 80])
    with pytest.raises(ValueError, match=r"^size L = 3 .* window \(6, -2\) holds 0 sites"):
        fit_scale_free(lambda L: gain_chain(L, g=1.0), [3, 20, 40])


def test_fit_scale_free_validates_sizes():
    with pytest.raises(ValueError):
        fit_scale_free(lambda L: gain_chain(L, g=1.0), [100, 200])
    with pytest.raises(ValueError):
        fit_scale_free(lambda L: gain_chain(L, g=1.0), [400, 200, 100])


# Reference: the per-state np.polyfit rule that the stacked closed-form
# slope replaced.  One call per window and state.
def _polyfit_c(amps, lo, L):
    return np.polyfit(np.arange(lo, lo + len(amps), dtype=float), np.log(amps), 1)[0] * L


def _reference_localization_constant(v, max_range):
    L = len(v)
    margin = max(max_range, 5)
    half = L // 2
    best = 0.0
    for lo, hi in ((margin + 1, half - margin), (half + margin, L - margin)):
        if hi - lo + 1 < 10:
            return math.nan
        best = max(best, abs(_polyfit_c(np.maximum(np.abs(v[lo - 1 : hi]), 1e-300), lo, L)))
    return best


def _reference_c_fit(v, spec):
    L, margin = spec.L, spec.max_range
    lo, hi = default_fit_window(L, margin)
    if not (1 <= lo < hi <= L) or hi - lo + 1 < 10 or lo <= margin or hi > L - margin:
        return math.nan
    amps = np.abs(v[lo - 1 : hi])
    # a zero, or any amplitude within one rounding unit of max |v|, gives NaN
    floor = np.finfo(float).eps * np.max(np.abs(v))
    return math.nan if np.min(amps) <= floor else _polyfit_c(amps, lo, L)


# seeded random chains and rings as drawn (L <= 40: short-chain NaN |c|) and
# resized to L = 120, the benchmark-like NNN chains and flux rings, and the
# gain chain whose window holds an exactly zero amplitude in one state
_STACKED_FIT_MODELS = (
    [random_model(seed) for seed in range(12)]
    + [random_model(seed).resized(120) for seed in range(12)]
    + [nnn_chain(100, 1.0, 0.5, g) for g in (0.3, 1.0, 3.0)]
    + [flux_ring(60, 0.4 / 60, 0.8), gain_chain(400, 1.0, 1.5)]
)


@pytest.mark.parametrize("k", range(len(_STACKED_FIT_MODELS)))
def test_stacked_fits_match_per_state_polyfit(k):
    spec = _STACKED_FIT_MODELS[k]
    spectrum, scale = solve(spec)
    V = spectrum.eigenvectors
    states = range(spectrum.dimension)
    ref_c = np.array([_reference_localization_constant(V[:, i], spec.max_range) for i in states])
    ref_fit = np.array([_reference_c_fit(V[:, i], spec) for i in states])
    rows = analysis.state_metrics_rows(spec, spectrum)
    c = analysis._localization_constants(V, spec.max_range)
    c_fit = np.array([row[5] for row in rows])

    assert np.array_equal(np.isnan(c), np.isnan(ref_c))
    assert np.array_equal(np.isnan(c_fit), np.isnan(ref_fit))
    np.testing.assert_allclose(c, ref_c, rtol=0, atol=1e-11, equal_nan=True)
    np.testing.assert_allclose(c_fit, ref_fit, rtol=0, atol=1e-11, equal_nan=True)

    # the c_beta rule agrees with the |c| cut on these models
    ref_bound = [i for i in states if ref_c[i] > analysis.C_BOUND_CUT]
    assert detect_bound_states(spectrum, spec) == ref_bound
    assert [row[6] for row in rows] == [int(i in ref_bound) for i in states]
    # the continuum's c_beta cut agrees with the |c| cut on these models
    complex_idx = classify_spectrum(spectrum, scale).complex_indices
    want = [i for i in complex_idx if not ref_c[i] > analysis.C_BOUND_CUT]
    assert analysis._continuum(spec, spectrum, complex_idx) == want

    # position measures: each stacked row sums as the per-vector 1-D sum does
    for i in states:
        w = np.abs(V[:, i]) ** 2
        w = w / w.sum()
        j = np.arange(1, spec.L + 1)
        assert rows[i][3] == float(np.sum(w * j)) == mean_position(V[:, i])
        assert rows[i][4] == float(np.sum(w * np.abs(j - spec.L / 2))) == half_asymmetry(V[:, i])
    order = np.lexsort((spectrum.eigenvalues.real, spectrum.eigenvalues.imag))
    want_curve = np.array([rows[i][3] for i in order]) / spec.L
    assert np.array_equal(analysis.mean_position_curve(spectrum), want_curve)


def test_stacked_fit_nan_patterns():
    # the L = 400 gain chain above onset has one state with an exactly zero
    # amplitude in its window: NaN c_fit there, and only there
    spec = gain_chain(400, 1.0, 1.5)
    spectrum, _ = solve(spec)
    rows = analysis.state_metrics_rows(spec, spectrum)
    assert sum(math.isnan(row[5]) for row in rows) == 1
    # chains too short for a half-window: every |c| is NaN and nothing is bound
    short = nnn_chain(30, 1.0, 0.5, 3.0)
    spectrum, _ = solve(short)
    assert np.isnan(analysis._localization_constants(spectrum.eigenvectors, 2)).all()
    assert detect_bound_states(spectrum, short) == []
    assert math.isnan(localization_constant(spectrum.vector(0), 2))


def test_c_fit_is_nan_at_the_roundoff_floor():
    # the window of this bound pair sits at 1.3e-17 max |psi|: its c_fit was
    # +-1.29 from the dense vectors and -23.0 from an inverse-iteration vector
    spec = nnn_chain(400, 1.0, 0.05, 1.5)
    spectrum, _ = solve(spec)
    rows = analysis.state_metrics_rows(spec, spectrum)
    nan = [row[0] for row in rows if math.isnan(row[5])]
    assert nan == [row[0] for row in rows if row[6]] and len(nan) == 2
    # fit_decay_constant keeps fitting such a vector
    window = default_fit_window(spec.L, spec.max_range)
    assert math.isfinite(fit_decay_constant(spectrum.vector(nan[0]), window, spec.max_range))


def test_per_vector_fits_are_stacks_of_one():
    v = np.exp(-0.05 * np.arange(1, 101)).astype(complex)
    V = np.stack([v, v[::-1], np.ones(100)], axis=1)
    window = default_fit_window(100, 1)
    # a stack of one and a wider stack take different BLAS kernels, so they
    # agree to roundoff, not bit for bit
    np.testing.assert_allclose(
        [fit_decay_constant(V[:, i], window) for i in range(3)],
        analysis._decay_constants(V, window, 1),
        rtol=1e-13, atol=1e-13,
    )
    np.testing.assert_allclose(
        [localization_constant(V[:, i]) for i in range(3)],
        analysis._localization_constants(V, 1),
        rtol=1e-13, atol=1e-13,
    )
    assert localization_constant(v) == pytest.approx(5.0)
    v[50] = 0.0
    with pytest.raises(ValueError, match="zero amplitudes"):
        fit_decay_constant(v, window)
    with pytest.raises(ValueError, match="zero vector"):
        mean_position(np.zeros(10))

import math

import numpy as np
import pytest

from ptlattice import (
    build_hamiltonian,
    classify_spectrum,
    detect_bound_states,
    eig,
    fit_decay_constant,
    fit_scale_free,
    frobenius_norm,
    mean_position,
)
from ptlattice.analysis import (
    _select_fit_state,
    bound_states_by_scaling,
    continuous_complex_indices,
    default_fit_window,
    half_asymmetry,
    localization_constant,
)
from ptlattice.eigen import solve
from conftest import flux_ring, gain_chain, nnn_chain


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
    idx = detect_bound_states(spectrum, max_range=spec.max_range)
    assert len(idx) == 1
    e = spectrum.eigenvalues[idx[0]]
    assert e.imag == pytest.approx(1.5 - 1.0 / 1.5, rel=0.02)


def test_detect_bound_states_below_onset():
    spec = gain_chain(100, g=0.9)
    spectrum = eig(build_hamiltonian(spec))
    assert detect_bound_states(spectrum, max_range=spec.max_range) == []


def test_detect_bound_states_two_sided():
    spec = nnn_chain(100, 1.0, 0.1, 3.0)
    spectrum = eig(build_hamiltonian(spec))
    idx = detect_bound_states(spectrum, max_range=spec.max_range)
    assert len(idx) == 2


# criterion 5's open chains (L = 100, t1 = 1), among them the two L = 100
# chains of the obc_criterion benchmark, and its two L = 400 chains
_CONTINUUM_MODELS = (
    [(100, t2, float(g)) for t2 in (0.05, 0.1, 0.2) for g in np.linspace(0.0, 2.0, 21)]
    + [(100, 0.5, float(g)) for g in np.linspace(0.05, 2.0, 40)]
    + [(400, 0.5, g) for g in (0.3, 1.0)]
)


def test_continuum_is_complex_minus_bound_states():
    # the |c| cut runs on the complex states only; the result must be the
    # complex indices minus detect_bound_states over all states
    seen_bound = 0
    for L, t2, g in _CONTINUUM_MODELS:
        spec = nnn_chain(L, 1.0, t2, g)
        spectrum, scale = solve(spec)
        bound = set(detect_bound_states(spectrum, spec.max_range))
        cls = classify_spectrum(spectrum, scale)
        want = [i for i in cls.complex_indices if i not in bound]
        assert continuous_complex_indices(spec, spectrum, scale) == want, (L, t2, g)
        seen_bound += len(set(cls.complex_indices) & bound)
    assert seen_bound > 0  # the cut removed complex states somewhere


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
    a = site.eigenvalues[_select_fit_state(site, frobenius_norm(H), spec.max_range)]
    b = real.eigenvalues[_select_fit_state(real, scale, spec.max_range)]
    assert abs(a - b) < 1e-10


def test_fit_scale_free_requires_complex_states():
    fit = fit_scale_free(lambda L: gain_chain(L, g=0.0), [100, 200, 400])
    assert fit.status != "ok"


def test_fit_scale_free_validates_sizes():
    with pytest.raises(ValueError):
        fit_scale_free(lambda L: gain_chain(L, g=1.0), [100, 200])
    with pytest.raises(ValueError):
        fit_scale_free(lambda L: gain_chain(L, g=1.0), [400, 200, 100])

import cmath
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ptlattice import (
    BetaRootSet,
    Boundary,
    HoppingSet,
    ModelSpec,
    PerturbationTerm,
    boundary_determinant,
    build_hamiltonian,
    characteristic_roots,
    classify_spectrum,
    eig,
    frobenius_norm,
    solve,
    unitary_scan,
    asymptotic_broken_solver,
)
from ptlattice.analysis import default_fit_window, fit_decay_constant, localization_constant
from ptlattice import nonbloch
from ptlattice.nonbloch import (
    _boundary_stack,
    _normalized_magnitude,
    _root_stack,
    _spectrum_audit,
    asymptotic_energy,
)
from conftest import flux_ring, gain_chain, nnn_chain, not_rings, random_model


NN = HoppingSet(terms=((1, 1.0 + 0j),))


def test_roots_nearest_neighbor_zero_energy():
    rs = characteristic_roots(NN, 0.0)
    got = sorted(np.round(rs.roots, 10), key=lambda b: (abs(b), cmath.phase(b)))
    assert np.allclose(sorted(r.imag for r in got), [-1.0, 1.0], atol=1e-10)
    assert np.allclose([abs(r) for r in got], [1.0, 1.0], atol=1e-10)


def test_roots_nearest_neighbor_real_energy():
    # beta + 1/beta = 2.5 has roots 0.5 and 2.0
    rs = characteristic_roots(NN, 2.5)
    assert np.allclose(sorted(abs(b) for b in rs.roots), [0.5, 2.0], atol=1e-10)
    assert rs.dispersion_residual() < 1e-12


def test_roots_with_second_neighbor():
    h = HoppingSet(terms=((1, 1.0 + 0j), (2, 0.4 + 0j)))
    rs = characteristic_roots(h, 1.3 + 0.2j)
    assert len(rs.roots) == 4
    assert rs.dispersion_residual() < 1e-9


def test_pairing_defect_vanishes_for_real_energy():
    h = HoppingSet(terms=((1, 1.0 + 0j), (2, 0.4 + 0j)))
    rs = characteristic_roots(h, 1.3 + 0j)
    assert rs.pairing_defect() < 1e-8
    rs2 = characteristic_roots(h, 1.3 + 0.5j)
    assert rs2.pairing_defect() > 1e-3


def test_roots_sorted_by_magnitude():
    rs = characteristic_roots(NN, 2.5)
    mags = [abs(b) for b in rs.roots]
    assert mags == sorted(mags)


@settings(max_examples=40, deadline=None)
@given(
    er=st.floats(-2.0, 2.0),
    ei=st.floats(-1.0, 1.0),
    t2r=st.floats(-0.8, 0.8),
    t2i=st.floats(-0.5, 0.5),
)
def test_roots_satisfy_dispersion_property(er, ei, t2r, t2i):
    terms = [(1, 1.0 + 0j)]
    if abs(t2r) + abs(t2i) > 1e-3:
        terms.append((2, complex(t2r, t2i)))
    h = HoppingSet(terms=tuple(terms))
    E = complex(er, ei)
    try:
        rs = characteristic_roots(h, E)
    except RuntimeError:
        # degenerate roots at band edges are legitimately rejected
        assume(False)
    assert len(rs.roots) == 2 * h.max_range
    assert rs.dispersion_residual() < 1e-9 * (1 + abs(E))
    # |product of roots| equals |conj(t_M)/t_M| = 1 from the polynomial form
    M = h.max_range
    tM = h.amplitude(M)
    prod = np.prod(rs.roots)
    assert abs(abs(prod) - abs(np.conj(tM) / tM)) < 1e-5


@pytest.mark.parametrize("t2", [0.0, 0.5], ids=["nn", "t2=0.5"])
def test_root_ties_ordered_by_phase(t2):
    # at real E conjugate roots have equal |beta| (on the band, a pair on
    # the unit circle): roundoff in |beta| must not decide their order
    h = HoppingSet(terms=((1, 1.0 + 0j), (2, t2 + 0j)) if t2 else ((1, 1.0 + 0j),))
    ties = 0
    for E in np.linspace(-1.9, 1.9, 381):
        roots = characteristic_roots(h, float(E)).roots
        mags = [abs(b) for b in roots]
        for (a, b), (ma, mb) in zip(zip(roots, roots[1:]), zip(mags, mags[1:])):
            if abs(ma - mb) < 1e-12:
                ties += 1
                assert cmath.phase(a) % (2 * math.pi) < cmath.phase(b) % (2 * math.pi), E
            else:
                assert ma < mb, E
    assert ties >= 381


@pytest.mark.filterwarnings("ignore:coincident beta roots:RuntimeWarning")
@pytest.mark.parametrize("ep_tol", [nonbloch._EP_ROOT_TOL, 0.3], ids=["ep_tol", "wide_ep_tol"])
@pytest.mark.parametrize(
    "spec",
    [flux_ring(24, 0.4, 0.8), nnn_chain(30, 1.0, 0.5, 0.3), gain_chain(40, g=1.2)],
    ids=["flux_ring", "nnn_chain", "gain_chain"],
)
def test_batched_oracle_matches_single_energy_calls(spec, ep_tol, monkeypatch):
    # a wide coincidence tolerance flags the energies near the band edges
    monkeypatch.setattr(nonbloch, "_EP_ROOT_TOL", ep_tol)
    rng = np.random.default_rng(5)
    energies = np.concatenate(
        [
            eig(build_hamiltonian(spec)).eigenvalues,
            rng.uniform(-2.5, 2.5, 8) + 1j * rng.uniform(-1, 1, 8),
        ]
    )
    roots = _root_stack(spec.hoppings, energies)
    value, log_scale, norms, ill = _boundary_stack(spec, roots)
    worst = 0.0
    for k, E in enumerate(energies):
        rs = characteristic_roots(spec.hoppings, complex(E))
        det = boundary_determinant(spec, rs)
        assert rs.roots == tuple(roots[k].tolist())
        assert det.value == complex(value[k])
        assert det.log_scale == float(log_scale[k])
        assert det.column_norms == tuple(norms[k].tolist())
        assert det.ill_conditioned == bool(ill[k])
        if k < spec.L:
            worst = max(worst, det.normalized_magnitude)
    got, n_ill = _spectrum_audit(spec, energies[: spec.L])
    assert got == pytest.approx(worst, rel=1e-12)
    assert n_ill == int(ill[: spec.L].sum())
    if ep_tol == 0.3:
        assert 0 < n_ill < spec.L


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
def test_root_stack_names_non_finite_energy(bad):
    energies = np.array([0.3, 0.5 + 0.1j, bad, 1.0])
    with pytest.raises(ValueError, match="at index 2"):
        _root_stack(NN, energies)
    with pytest.raises(ValueError, match="finite"):
        characteristic_roots(NN, bad)


def test_root_residual_failure_names_energy(monkeypatch):
    exact = nonbloch._dispersion

    def off_on_row_2(h, roots):
        value = exact(h, roots)
        value[2] += 1e-3
        return value

    monkeypatch.setattr(nonbloch, "_dispersion", off_on_row_2)
    with pytest.raises(RuntimeError, match=re.escape("at E=(0.7+0.1j)")):
        _root_stack(NN, np.array([0.3, 0.5, 0.7 + 0.1j, 1.0]))


def test_band_edge_roots_ill_conditioned_on_own_row():
    # the exact root set at the band edge E = 2 is the double root beta = 1;
    # the other rows are the roots at E = 2.5 and E = 0
    spec = flux_ring(24, 0.4, 0.8)
    roots = np.array([[0.5, 2.0], [1.0, 1.0], [1j, -1j]], dtype=complex)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        *_, ill = _boundary_stack(spec, roots)
    assert ill.tolist() == [False, True, False]
    assert len(caught) == 1 and issubclass(caught[0].category, RuntimeWarning)
    assert "at 1 of 3 energies" in str(caught[0].message)
    with pytest.warns(RuntimeWarning, match="at 1 of 1"):
        det = boundary_determinant(spec, BetaRootSet(2.0, (1.0, 1.0), spec.hoppings))
    assert det.ill_conditioned


@pytest.mark.parametrize(
    "spec, critical",
    [(gain_chain(40, g=1.2), [-2.0, 2.0]), (nnn_chain(30, 1.0, 0.5, 0.3), [-1.5, -1.0, 3.0])],
    ids=["nn", "t2=0.5"],
)
def test_band_critical_values_ill_conditioned(spec, critical):
    # the polished double roots at a band critical value lie 2e-9 to 1.1e-8
    # apart; the coincidence test must still see them
    for E in critical:
        with pytest.warns(RuntimeWarning, match="at 1 of 1"):
            det = boundary_determinant(spec, characteristic_roots(spec.hoppings, E))
        assert det.ill_conditioned, E
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not boundary_determinant(spec, characteristic_roots(spec.hoppings, 0.1)).ill_conditioned


def test_boundary_determinant_unperturbed_ring_zeros():
    # with g = 0 the determinant vanishes exactly at the ring eigenvalues
    from ptlattice import Boundary, ModelSpec

    L, theta = 12, 0.3
    spec = ModelSpec(L=L, boundary=Boundary.PERIODIC, hoppings=NN, flux_theta=theta)
    H = build_hamiltonian(spec)
    vals = eig(H).eigenvalues
    for E in vals[:4]:
        rs = characteristic_roots(spec.hoppings, complex(E))
        det = boundary_determinant(spec, rs)
        # at an exact Bloch eigenvalue a whole residual column vanishes,
        # so compare raw determinant values instead of the normalized form
        assert abs(det.value) < 1e-10
    off = complex(vals[0]) + 0.05
    rs = characteristic_roots(spec.hoppings, off)
    assert abs(boundary_determinant(spec, rs).value) > 1e-3


def test_boundary_determinant_detects_bound_root():
    # open chain with single gain ig: above onset the root pair {g/t, t/g}
    # solves the boundary problem at E = i(g - t^2/g)
    from conftest import gain_chain

    g = 1.5
    spec = gain_chain(40, g=g)
    E = 1j * (g - 1.0 / g)
    rs = characteristic_roots(spec.hoppings, E)
    det = boundary_determinant(spec, rs)
    # E is the infinite-chain limit; finite-size corrections are O((t/g)^L)
    assert det.normalized_magnitude < 1e-5


def test_boundary_determinant_matches_diagonalization():
    L = 30
    spec = flux_ring(L, 0.4, 0.8, phi=math.pi / 2)
    H = build_hamiltonian(spec)
    vals = eig(H).eigenvalues
    norm = frobenius_norm(H)
    for E in vals[::5]:
        rs = characteristic_roots(spec.hoppings, complex(E))
        det = boundary_determinant(spec, rs)
        assert det.normalized_magnitude < 1e-6
    rng = np.random.default_rng(11)
    for _ in range(10):
        E = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        if np.min(np.abs(vals - E)) < 0.05:
            continue
        rs = characteristic_roots(spec.hoppings, E)
        det = boundary_determinant(spec, rs)
        assert det.normalized_magnitude > 1e-3


def test_unitary_scan_hermitian_case_unbroken():
    res = unitary_scan(
        {"t": 1.0, "g_range": (0.0, 2.0), "theta": 0.4, "phi": 0.0, "L": 40}, 2000
    )
    assert list(res.broken_g_intervals) == []


def test_unitary_scan_matches_diagonalization():
    # at theta = 0.3, phi = pi/4 one real eigenstate below the broken
    # interval is a real-beta bound state, off the unit circle
    L = 40
    gs = np.linspace(0.0, 1.5, 101)
    cell = 1.5 / 500
    for theta, phi in ((0.5, math.pi / 2), (0.3, math.pi / 4)):
        res = unitary_scan(
            {"t": 1.0, "g_range": (0.0, 1.5), "theta": theta, "phi": phi, "L": L}, 2000
        )
        assert res.broken_g_intervals, "expected a broken interval"

        def broken(g):
            spec = flux_ring(L, theta, g, phi=phi)
            H = build_hamiltonian(spec)
            return classify_spectrum(eig(H), frobenius_norm(H)).p_com > 0

        def in_scan(g):
            return any(lo - cell <= g <= hi + cell for lo, hi in res.broken_g_intervals)

        for g in gs:
            near_edge = any(
                min(abs(g - lo), abs(g - hi)) <= 2 * cell
                for lo, hi in res.broken_g_intervals
            )
            if near_edge:
                continue
            assert broken(g) == in_scan(g), f"mismatch at g={g}, theta={theta}, phi={phi}"


def _reference_axis_count(g, t, theta, phi, L, n_kappa=2000):
    """Real-beta bound states on a kappa grid rebuilt for each g: the
    count the shared kappa grid of unitary_scan must reproduce."""
    kappa_max = math.log(3.0 * (1.0 + abs(g) / t))
    kappa = np.linspace(1e-6, kappa_max, n_kappa)
    count = 0
    for sign in (1.0, -1.0):
        b = sign * np.exp(kappa)
        binv = 1.0 / b
        far = binv ** (2 * L)
        d = (
            g**2 * (binv - far * b)
            - 2.0 * g * t * math.cos(phi) * (1.0 - far)
            + t**2 * (1.0 + far - 2.0 * math.cos(theta * L) * binv**L) * (b - binv)
        )
        count += int(np.sum(d[:-1] * d[1:] < 0))
    return count


def _reference_intervals(t, theta, phi, L, lo, hi, n_gamma):
    gs = np.linspace(lo, hi, 501)
    gamma = np.linspace(1e-9, math.pi - 1e-9, n_gamma)
    s_pole = np.sin(gamma * (L - 1))
    s_L = np.sin(gamma * L)
    constant = 2.0 * t**2 * (np.cos(gamma * L) - math.cos(theta * L)) * np.sin(gamma)
    broken = np.zeros(len(gs), dtype=bool)
    for i, g in enumerate(gs * t):
        q = g**2 * s_pole - 2.0 * g * t * math.cos(phi) * s_L + constant
        on_circle = int(np.sum(q[:-1] * q[1:] < 0))
        # the axis count only matters while the circle count is short
        broken[i] = on_circle < L and on_circle + _reference_axis_count(
            g, t, theta, phi, L
        ) < L
    edges = np.flatnonzero(np.diff(np.concatenate(([0], broken, [0]))))
    return [(float(gs[a]), float(gs[b - 1])) for a, b in zip(edges[::2], edges[1::2])]


@pytest.mark.parametrize("L", [40, 41])
@pytest.mark.parametrize("theta", [0.3, 0.4])
def test_unitary_scan_matches_per_g_kappa_grid(L, theta):
    for phi in (0.0, math.pi / 4, math.pi / 2, math.pi):
        res = unitary_scan(
            {"t": 1.0, "g_range": (0.0, 2.0), "theta": theta, "phi": phi, "L": L}, 2000
        )
        want = _reference_intervals(1.0, theta, phi, L, 0.0, 2.0, max(2000, 50 * L))
        assert list(res.broken_g_intervals) == want, f"phi={phi}"


def test_crossings_through_sampled_roots():
    from ptlattice.nonbloch import _crossings

    def count(d):
        # at g = 0 the determinant is its constant term C
        d = np.array(d)
        return _crossings((np.ones_like(d), np.ones_like(d), d), 0.0, 1.0, 0.0)

    # a crossing through an exact-zero sample counts once, a touch not at all
    assert count([2.0, 1.0, 0.0, -1.0, -2.0]) == 1
    assert count([1.0, 0.0, 0.0, -1.0, 0.0, -3.0, 4.0]) == 2
    assert count([-1.0, 0.0, -1.0]) == 0
    assert count([0.0, 0.0, 0.0]) == 0


@pytest.mark.parametrize(
    "t, g_range, match",
    [
        pytest.param(1.0, (1.5, 0.0), "g_range", id="g_range0"),
        pytest.param(1.0, (0.0, float("nan")), "g_range", id="g_range1"),
        pytest.param(1.0, (1.0, 1.0), "g_range", id="g_range2"),
        # a negative t once gave the t = 1 intervals negated, high end first
        pytest.param(-1.0, (0.0, 1.5), "t must", id="t_negative"),
        pytest.param(float("nan"), (0.0, 1.5), "t must", id="t_nan"),
    ],
)
def test_unitary_scan_rejects_bad_g_range(t, g_range, match):
    with pytest.raises(ValueError, match=match):
        unitary_scan(
            {"t": t, "g_range": g_range, "theta": 0.3, "phi": 1.0, "L": 20}, 1000
        )


def test_unitary_scan_grid_shape():
    res = unitary_scan(
        {"t": 1.0, "g_range": (0.0, 1.0), "theta": 0.3, "phi": 1.0, "L": 20}, 1000
    )
    assert len(res.gamma_grid) == len(res.g_plus) == len(res.g_minus)
    assert len(res.discriminant_negative) == len(res.gamma_grid)


def test_sign_change_roots_zero_on_a_sample():
    from ptlattice.nonbloch import _sign_change_roots

    grid = np.linspace(-2.0, 2.0, 5)
    # a crossing through an exact-zero sample is one root, on the sample
    assert _sign_change_roots(lambda x: x, grid, 1e-14).tolist() == [0.0]
    flat = _sign_change_roots(lambda x: np.where(abs(x) <= 1.0, 0.0, x), grid, 1e-14)
    assert flat.tolist() == [-1.0]
    # a touch is no root
    assert len(_sign_change_roots(lambda x: x**2, grid, 1e-14)) == 0
    # sign changes between samples are bisected to the tolerance, ascending
    roots = _sign_change_roots(lambda x: (x - 0.3) * (x + 1.7), grid, 1e-14)
    assert len(roots) == 2
    assert abs(roots - [-1.7, 0.3]).max() <= 1e-14


_BROKEN_RINGS = [
    (L, theta_L, g)
    for theta_L in (0.3, 0.5, 1.0)
    for g in (0.8, 1.2)
    for L in (50, 100, 200, 400)
]


@pytest.mark.parametrize("L, theta_L, g", _BROKEN_RINGS)
def test_asymptotic_count_matches_dense_n_com(L, theta_L, g):
    t, phi = 1.0, math.pi / 2
    spec = flux_ring(L, theta_L / L, g, phi=phi, t=t)
    sols = asymptotic_broken_solver(spec)
    spectrum, scale = solve(spec, vectors=False)
    assert len(sols) == classify_spectrum(spectrum, scale).n_com
    gamma = np.array([gm for gm, _ in sols])
    B = (
        2 * t**2 * np.sin(gamma * L) * np.sin(gamma)
        - g**2 * np.cos(gamma * (L - 1))
        + 2 * g * t * math.cos(phi) * np.cos(gamma * L)
    )
    assert np.all(np.abs(B) <= 1e-12 * (t**2 + g**2))


def test_asymptotic_solutions_come_in_pairs():
    sols = asymptotic_broken_solver(flux_ring(100, 0.5, 0.8, phi=math.pi / 2))
    assert sols
    deltas = sorted(d for g, d in sols)
    # deltas appear as +/- pairs
    for d in deltas:
        assert any(abs(d + e) < 1e-9 for e in deltas)


def test_asymptotic_empty_without_gain():
    sols = asymptotic_broken_solver(flux_ring(60, 0.5, 0.0, phi=math.pi / 2))
    assert sols == []


def test_asymptotic_energies_match_spectrum():
    L, theta, phi, g = 100, 0.5, math.pi / 2, 0.8
    spec = flux_ring(L, theta, g, phi=phi)
    sols = asymptotic_broken_solver(spec)
    vals = eig(build_hamiltonian(spec)).eigenvalues
    matched = 0
    for gamma, delta in sols:
        E = asymptotic_energy(1.0, gamma, delta, L)
        if np.min(np.abs(vals - E)) < 10.0 / L:
            matched += 1
    assert matched >= 0.9 * len(sols)


def test_asymptotic_delta_matches_profile_decay():
    # the decay rate of a scale-free state agrees with |delta| to ~20%
    L, theta, phi, g = 100, 0.5, math.pi / 2, 0.8
    spec = flux_ring(L, theta, g, phi=phi)
    sols = asymptotic_broken_solver(spec)
    spectrum = eig(build_hamiltonian(spec))
    vals = spectrum.eigenvalues
    gamma, delta = max(sols, key=lambda s: abs(s[1]))
    E = asymptotic_energy(1.0, gamma, delta, L)
    k = int(np.argmin(np.abs(vals - E)))
    c = localization_constant(spectrum.vector(k))
    assert abs(c) == pytest.approx(abs(delta), rel=0.25)


@pytest.mark.parametrize("theta_L, g", [(0.5, 0.8), (1.0, 1.2)])
def test_asymptotic_delta_median_decay_error_at_L400(theta_L, g):
    # c = delta for the scale-free states; the median error falls like 1/L
    L = 400
    spec = flux_ring(L, theta_L / L, g)
    spectrum, _ = solve(spec)
    window = default_fit_window(L, 1)
    errors = []
    for gamma, delta in asymptotic_broken_solver(spec):
        E = asymptotic_energy(1.0, gamma, delta, L)
        k = int(np.argmin(np.abs(spectrum.eigenvalues - E)))
        c = fit_decay_constant(spectrum.vector(k), window)
        errors.append(abs(abs(c) - abs(delta)) / abs(delta))
    assert errors
    assert np.median(errors) < 0.05


@pytest.mark.parametrize("name", sorted(not_rings()))
def test_asymptotic_solver_rejects_non_rings(name):
    spec, reason = not_rings()[name]
    with pytest.raises(ValueError, match=reason):
        asymptotic_broken_solver(spec)


def test_asymptotic_empty_without_perturbation():
    spec = replace(flux_ring(60, 0.5, 0.8), perturbations=())
    assert nonbloch._ring_parameters(spec)["g"] == 0.0
    assert asymptotic_broken_solver(spec) == []


def test_ring_phase_read_from_site_1():
    spec = flux_ring(100, 0.5, 0.8, phi=1.0)
    flipped = replace(spec, perturbations=spec.perturbations[::-1])
    ring = nonbloch._ring_parameters(flipped)
    assert ring == nonbloch._ring_parameters(spec)
    assert ring["phi"] == pytest.approx(1.0, abs=1e-15)
    assert ring["g"] == pytest.approx(0.8, abs=1e-15)
    sols = asymptotic_broken_solver(flipped)
    assert sols and sols == asymptotic_broken_solver(spec)


def _long_range_ring(M: int, L: int) -> ModelSpec:
    """Ring with hoppings up to range M, flux, gain/loss at the ends and two
    off-diagonal terms in boundary rows."""
    hoppings = {2: ((1, 1.0), (2, 0.4 + 0.2j)), 3: ((1, 1.0), (2, 0.3 - 0.1j), (3, 0.2 + 0.15j))}
    perts = (
        PerturbationTerm(1, 1, 0.5j),
        PerturbationTerm(L, L, -0.5j),
        PerturbationTerm(2, L - 1, 0.3 + 0.2j),
        PerturbationTerm(L, 2, -0.25 + 0.1j),
    )
    return ModelSpec(
        L=L,
        boundary=Boundary.PERIODIC,
        hoppings=HoppingSet(hoppings[M]),
        flux_theta=0.37,
        perturbations=perts,
    )


@pytest.mark.parametrize("M", [2, 3])
@pytest.mark.parametrize("size", ["2M+1", "2M+2", "24"])
def test_boundary_determinant_on_long_range_rings(M, size):
    # every closing bond of ranges 2 and 3 enters two boundary rows
    L = {"2M+1": 2 * M + 1, "2M+2": 2 * M + 2, "24": 24}[size]
    spec = _long_range_ring(M, L)
    vals = eig(build_hamiltonian(spec)).eigenvalues

    def magnitude(E):
        return boundary_determinant(spec, characteristic_roots(spec.hoppings, E)).normalized_magnitude

    assert max(magnitude(complex(E)) for E in vals) < 1e-10
    rng = np.random.default_rng(L)
    off = []
    while len(off) < 20:
        E = complex(rng.uniform(-3, 3), rng.uniform(-1.5, 1.5))
        if np.min(np.abs(vals - E)) >= 0.1:
            off.append(magnitude(E))
    assert min(off) > 1e-3


def test_oracle_reads_an_open_chain_without_flux():
    # build_hamiltonian gives an open chain no flux, so theta must not
    # reach the boundary rows of its off-diagonal corner terms either
    def chain(theta):
        return ModelSpec(
            L=20,
            boundary=Boundary.OPEN,
            hoppings=NN,
            flux_theta=theta,
            perturbations=(PerturbationTerm(1, 20, 0.6), PerturbationTerm(20, 1, 0.6)),
        )

    plain, threaded = chain(0.0), chain(0.5)
    assert np.array_equal(build_hamiltonian(plain), build_hamiltonian(threaded))
    values = solve(plain, vectors=False)[0].eigenvalues
    for spec in (plain, threaded):
        assert _spectrum_audit(spec, values)[0] <= 1e-10
    for E in [*values[:3], 0.3 + 0.2j]:
        rs = characteristic_roots(NN, complex(E))
        assert boundary_determinant(plain, rs) == boundary_determinant(threaded, rs)


def _probe_energies(values: np.ndarray, rng: np.random.Generator, n: int = 10) -> np.ndarray:
    """n energies in the spectrum's bounding box grown by 1, each at least
    0.05 from every eigenvalue (criterion 6's probe rule)."""
    lo = complex(values.real.min(), values.imag.min()) - (1 + 1j)
    hi = complex(values.real.max(), values.imag.max()) + (1 + 1j)
    probes = []
    while len(probes) < n:
        E = complex(rng.uniform(lo.real, hi.real), rng.uniform(lo.imag, hi.imag))
        if np.min(np.abs(values - E)) >= 0.05:
            probes.append(E)
    return np.array(probes)


@pytest.mark.filterwarnings("ignore:coincident beta roots:RuntimeWarning")
def test_oracle_on_random_models():
    # the spectrum of every model, flux on open chains and clean rings
    # included, zeroes the boundary determinant; energies off it do not
    failures = []
    for seed in range(1000):
        spec = random_model(seed)
        values = solve(spec, vectors=False)[0].eigenvalues
        energies = np.concatenate([values, _probe_energies(values, np.random.default_rng(seed))])
        value, _, norms, ill = _boundary_stack(spec, _root_stack(spec.hoppings, energies))
        magnitude = _normalized_magnitude(value, norms)
        on, off = magnitude[: spec.L][~ill[: spec.L]], magnitude[spec.L :]
        if np.max(on, initial=0.0) > 1e-9:
            failures.append(f"seed {seed}: {np.max(on):.3e} on the spectrum of {spec}")
        if not np.min(off) > 1e-6:
            failures.append(f"seed {seed}: {np.min(off):.3e} off the spectrum of {spec}")
    assert not failures, "\n".join(failures)

import cmath
import hashlib
import math
import re
import warnings
from dataclasses import replace
from types import SimpleNamespace

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
from ptlattice import nonbloch, ring_equation
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
    worst = {False: 0.0, True: 0.0}
    for k, E in enumerate(energies):
        rs = characteristic_roots(spec.hoppings, complex(E))
        det = boundary_determinant(spec, rs)
        assert rs.roots == tuple(roots[k].tolist())
        assert det.value == complex(value[k])
        assert det.log_scale == float(log_scale[k])
        assert det.column_norms == tuple(norms[k].tolist())
        assert det.ill_conditioned == bool(ill[k])
        if k < spec.L:
            worst[det.ill_conditioned] = max(worst[det.ill_conditioned], det.normalized_magnitude)
    got, got_ill, n_ill = _spectrum_audit(spec, energies[: spec.L])
    assert got == pytest.approx(worst[False], rel=1e-12)
    assert got_ill == pytest.approx(worst[True], rel=1e-12)
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


@pytest.mark.parametrize(
    "L, g, n_complex, n_edge", [(100, 0.3, 28, 10), (400, 0.3, 104, 34), (400, 1.0, 72, 26)]
)
def test_roots_at_band_edge_complex_energies(L, g, n_complex, n_edge):
    # Re E = -1.5 is the band minimum at t2 = 0.5.  Near it a complex
    # eigenvalue has a root with L |ln|beta|| down to 0.0035, and the root
    # polish must still pass its residual check on every state
    spec = nnn_chain(L, 1.0, 0.5, g)
    spectrum, scale = solve(spec, vectors=False)
    energies = spectrum.eigenvalues[list(classify_spectrum(spectrum, scale).complex_indices)]
    assert len(energies) == n_complex
    assert np.count_nonzero(np.abs(energies.real + 1.5) < 0.05) == n_edge
    roots = _root_stack(spec.hoppings, energies)
    assert roots.shape == (n_complex, 4)
    assert L * np.min(np.abs(np.log(np.abs(roots)))) < 0.025


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


def test_boundary_determinant_rejects_an_interior_perturbation():
    # an open NN chain has boundary rows at sites 1 and L only
    doc = {**gain_chain(20).to_json_dict(), "perturbations": [{"i": 5, "j": 5, "re": 0.0, "im": 0.5}]}
    spec = ModelSpec.from_json_dict(doc)
    roots = characteristic_roots(spec.hoppings, 0.3 + 0.1j)
    with pytest.raises(ValueError, match=r"^perturbation row 5 lies outside the boundary sites 1\.\.1 and 20\.\.20$"):
        boundary_determinant(spec, roots)


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


@pytest.mark.parametrize("theta, phi", [(0.3, math.pi / 2), (0.5, math.pi / 2), (0.3, math.pi / 4)])
def test_unitary_scan_in_units_of_t(theta, phi):
    def intervals(t):
        params = {"t": t, "g_range": (0.0, 1.5 * t), "theta": theta, "phi": phi, "L": 40}
        return unitary_scan(params, 2000).broken_g_intervals

    assert intervals(1.0) and intervals(2.5) == intervals(1.0)


def test_crossings_through_sampled_roots():
    from ptlattice.nonbloch import _sign_changes

    def count(d):
        return int(np.count_nonzero(_sign_changes(np.array(d))))

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
        pytest.param(1.0, (0.0, 1e150), r"\|g/t\| <= 1e\+100", id="g_range_beyond_the_count"),
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


@pytest.mark.parametrize(
    "key, value, match",
    [
        pytest.param("theta", math.nan, "theta must be finite, got nan", id="theta_nan"),
        pytest.param("theta", math.inf, "theta must be finite, got inf", id="theta_inf"),
        pytest.param("phi", math.nan, "phi must be finite, got nan", id="phi_nan"),
        pytest.param("phi", -math.inf, "phi must be finite, got -inf", id="phi_-inf"),
        pytest.param("L", 2.5, "L must be an integer, got 2.5", id="L_fraction"),
        pytest.param("L", math.inf, "L must be an integer, got inf", id="L_inf"),
        pytest.param("L", 0, "L must be at least 3, got 0", id="L_0"),
        pytest.param("L", -3, "L must be at least 3, got -3", id="L_-3"),
    ],
)
def test_unitary_scan_rejects_invalid_ring_values(key, value, match):
    # NaN theta or phi once read as "never broken", and L = 2.5 as L = 2
    params = {"t": 1.0, "g_range": (0.0, 1.5), "theta": 0.3, "phi": 1.0, "L": 20, key: value}
    with pytest.raises(ValueError, match=match):
        unitary_scan(params, 1000)


_SCAN_PARAMS = {"t": 1.0, "g_range": (0.0, 1.5), "theta": 0.3, "phi": 1.0, "L": 20}


@pytest.mark.parametrize(
    "resolution", [1500.5, math.nan, True, [2000]], ids=["fraction", "nan", "bool", "list"]
)
def test_unitary_scan_rejects_a_non_integer_gamma_resolution(resolution):
    # these once raised TypeError, or for True read as 1
    with pytest.raises(ValueError, match="^gamma_resolution must be an integer"):
        unitary_scan(_SCAN_PARAMS, resolution)


def test_unitary_scan_reads_gamma_resolution_as_the_cli_does():
    # the CLI's gamma_resolution key accepts 2000.0; the Python API once raised TypeError
    want = unitary_scan(_SCAN_PARAMS, 2000)
    got = unitary_scan(_SCAN_PARAMS, 2000.0)
    np.testing.assert_array_equal(got.g_plus, want.g_plus)
    assert got.broken_g_intervals == want.broken_g_intervals
    # a string is no number, as the config reader has it
    with pytest.raises(ValueError, match="^gamma_resolution must be an integer, got '2000'"):
        unitary_scan(_SCAN_PARAMS, "2000")


def test_unitary_scan_grid_shape():
    res = unitary_scan(
        {"t": 1.0, "g_range": (0.0, 1.0), "theta": 0.3, "phi": 1.0, "L": 20}, 1000
    )
    assert len(res.gamma_grid) == len(res.g_plus) == len(res.g_minus)
    assert len(res.discriminant_negative) == len(res.gamma_grid)


# L = 400: the grid-bound count once began the interval at 0.609, where the
# dense spectrum is real (n_com 0 at g = 0.606 and 0.609, 42 at 0.6105 and
# 66 at 0.612, near_cut 0 at all four)
@pytest.mark.parametrize("L, want", [(100, ((1.302, 1.5),)), (400, ((0.612, 1.5),))])
def test_unitary_scan_on_the_benchmark_rings(L, want):
    # the two rings of perfbench's ring_theory workload, pinned exactly
    ring, _ = nonbloch._ring_parameters(flux_ring(L, 0.3, 0.8))
    assert unitary_scan({**vars(ring), "g_range": (0.0, 1.5)}, 2000).broken_g_intervals == want


def test_unitary_scan_reports_no_spurious_intervals():
    # theta L near 0, Hermitian or not, once gave intervals from g = 0 where
    # the dense spectrum is real: two circle roots in one gamma cell cancelled
    assert unitary_scan(
        {"t": 1.0, "g_range": (0.0, 2.0), "theta": 0.0, "phi": 0.0, "L": 25}, 2000
    ).broken_g_intervals == ()
    for L in (24, 100):
        params = {"t": 1.0, "g_range": (0.0, 0.005), "theta": 1e-3 / L, "phi": math.pi / 2, "L": L}
        intervals = unitary_scan(params, 2000).broken_g_intervals
        assert intervals
        # the first g of the scan's grid where the dense spectrum is complex
        for g in np.linspace(0.0, 0.005, nonbloch._N_G):
            spectrum, scale = solve(flux_ring(L, 1e-3 / L, g, phi=math.pi / 2), vectors=False)
            if classify_spectrum(spectrum, scale).n_com > 0:
                break
        assert intervals[0][0] >= g


# sha256 of the array bytes, recorded before the ring equation got one
# builder per curve; no benchmark workload or CLI path runs the asymptotic
# solver, so this is the check that its bisection keeps its bits
_RING_THEORY_BITS = {
    100: {
        "g_plus": "7c6614408de6259e33491d8f864f53f445523128275f24dc06e712fe737d1071",
        "g_minus": "45610dfb327cc3868732ac08a9bbfc84dadfe4f9a59d15c029e3dd4c6669b23b",
        "discriminant_negative": "c62a70507b4d9f951f3b4a781d0a3704cbb1dd15a1959dcb3233a8c129c9937d",
        "solver": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    },
    400: {
        "g_plus": "02f376e276488018497ae18a43059ae930b0d39e29ee7e6062891172b27ba8eb",
        "g_minus": "0fed28417b858ebe6994cfd519d114c60358dcbc5611a74d154d657e5afb64ee",
        "discriminant_negative": "bb2e719aaaf5c91a510e30001fb7c53107d4ad8ac69e80fdfa1caa1b05bb77eb",
        "solver": (242, "dbf3fe1f9b9d1088a0b2cb014b7d95c8a25b0f78916677cc7d26397be0d5a1b4"),
    },
}


def _sha256(array: np.ndarray) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


@pytest.mark.parametrize("L", [100, 400])
def test_ring_theory_outputs_keep_their_bits(L):
    # the two rings of perfbench's ring_theory workload
    spec = flux_ring(L, 0.3, 0.8)
    want = _RING_THEORY_BITS[L]
    ring, _ = nonbloch._ring_parameters(spec)
    scan = unitary_scan({**vars(ring), "g_range": (0.0, 1.5)}, 2000)
    for name in ("g_plus", "g_minus", "discriminant_negative"):
        assert _sha256(getattr(scan, name)) == want[name], name
    sols = asymptotic_broken_solver(spec)
    assert (len(sols), _sha256(np.array(sols, dtype=float))) == want["solver"]


@pytest.mark.parametrize("seed", range(20))
def test_ring_builders_match_the_complex_equation(seed):
    # K = e^(i gamma L) (r^2 e^(-i gamma) - 2 r cos(phi) + 2i sin(gamma))
    rng = np.random.default_rng(seed)
    L = int(rng.integers(3, 501))
    theta, phi = rng.uniform(-math.pi, math.pi, size=2)
    r = rng.uniform(0.0, 3.0)
    gamma = rng.uniform(0.0, 2.0 * math.pi, size=200)
    cos_phi, cos_theta_L = math.cos(phi), math.cos(theta * L)
    bracket = r * r * np.exp(-1j * gamma) - 2.0 * r * cos_phi + 2j * np.sin(gamma)
    K = np.exp(1j * gamma * L) * bracket
    # relative to the size of the terms the curves sum
    scale = r * r + 2.0 * r * abs(cos_phi) + 2.0 + 2.0 * abs(cos_theta_L)
    re_k = ring_equation._quadratic(ring_equation._ring_re_k(gamma, L), r, cos_phi)
    circle = ring_equation._quadratic(ring_equation._ring_circle(gamma, L, cos_theta_L), r, cos_phi)
    np.testing.assert_allclose(re_k, K.real, rtol=0.0, atol=1e-12 * scale)
    np.testing.assert_allclose(
        circle, K.imag - 2.0 * cos_theta_L * np.sin(gamma), rtol=0.0, atol=1e-12 * scale
    )


def _assert_ring_count(theta, phi, L, lo, hi, picks=12):
    """The blocked count on the _N_G-point grid equals, at ``picks`` seeded
    r, the count of that r alone from sure signs over every cell, and the
    dense n_com wherever the dense call is not near its cut."""
    rs = np.linspace(lo, hi, nonbloch._N_G)
    cos_phi, cos_theta_L = math.cos(phi), math.cos(theta * L)
    counts, near = ring_equation._real_state_counts(L, rs, cos_phi, cos_theta_L)
    chain = ring_equation._ring_chain(L, max(abs(lo), abs(hi)), cos_theta_L)
    for k in np.random.default_rng(L).choice(len(rs), picks, replace=False):
        r = float(rs[k])
        assert (counts[k], near[k]) == ring_equation._sure_count(chain, cos_phi, r), r
        # r < 0 is the ring with |r| and phase phi + pi
        spec = flux_ring(L, theta, abs(r), phi=phi + (math.pi if r < 0 else 0.0))
        cls = classify_spectrum(*solve(spec, vectors=False))
        if cls.near_cut == 0 and not near[k]:
            assert L - counts[k] == cls.n_com, r


_HERMITIAN_THETA_L = (0.0, 1e-3, math.pi - 1e-3, math.pi, 2.0 * math.pi)


@pytest.mark.parametrize(
    "theta, phi, L, lo, hi",
    [
        pytest.param(0.3, math.pi / 2, 100, 0.0, 1.5, id="ring_theory_L100"),
        pytest.param(0.3, math.pi / 2, 400, 0.0, 1.5, id="ring_theory_L400"),
        *(
            pytest.param(theta_L / L, 0.0, L, 0.0, 2.0, id=f"hermitian_L{L}_thetaL{theta_L:.4g}")
            for L in (25, 40)
            for theta_L in _HERMITIAN_THETA_L
        ),
        pytest.param(0.3, math.pi / 4, 40, -1.5, 0.5, id="negative_lo"),
        pytest.param(0.5, math.pi, 41, -2.0, -0.5, id="negative_range"),
    ],
)
def test_blocked_count_on_rings(theta, phi, L, lo, hi):
    _assert_ring_count(theta, phi, L, lo, hi)
    if phi == 0.0:  # Hermitian: every level is real, degenerate pairs included
        rs = np.linspace(lo, hi, 41)
        counts, _ = ring_equation._real_state_counts(L, rs, math.cos(phi), math.cos(theta * L))
        assert (counts == L).all()


@pytest.mark.parametrize("seed", range(120))
def test_blocked_count_on_random_rings(seed):
    rng = np.random.default_rng(seed)
    L = int(rng.integers(3, 151))
    theta, phi = rng.uniform(-math.pi, math.pi, size=2)
    lo = rng.uniform(-2.0, 1.5)
    _assert_ring_count(theta, phi, L, lo, lo + rng.uniform(0.05, 2.5), picks=4)


def _random_rows(seed):
    """A seeded batch of flux rings of one size L in 6..80: a few rings
    (theta, phi), each with a few g/t of either sign and one g = 0 row,
    read with phi = 0 as ``nonbloch._ring_parameters`` reads it."""
    rng = np.random.default_rng(seed)
    L = int(rng.integers(6, 81))
    rows = []
    for theta, phi in rng.uniform(-math.pi, math.pi, size=(int(rng.integers(2, 5)), 2)):
        cos_phi, cos_theta_L = math.cos(phi), math.cos(theta * L)
        rs = rng.uniform(-2.0, 2.0, int(rng.integers(1, 12)))
        rows += [(r, cos_phi, cos_theta_L) for r in rs]
        rows.append((0.0, 1.0, cos_theta_L))
    rng.shuffle(rows)
    return L, np.array(rows).T


@pytest.mark.parametrize("cells", [ring_equation._CELLS, 64], ids=["cells", "small_cells"])
@pytest.mark.parametrize("seed", range(8))
def test_batched_count_equals_each_ring_alone(seed, cells, monkeypatch):
    L, rows = _random_rows(seed)
    alone = [ring_equation._real_state_counts(L, *row[:, None]) for row in rows.T]
    # 64 cells give passes of one row and refine at most 4 cells (or one
    # pass's) at once, so that the rings of the batch are counted and refined apart
    monkeypatch.setattr(ring_equation, "_CELLS", cells)
    counts, near = ring_equation._real_state_counts(L, *rows)
    assert counts.tolist() == [int(count[0]) for count, _ in alone]
    assert near.tolist() == [bool(n[0]) for _, n in alone]


def _synthetic_curves(kind, rs, rng):
    """(A, B, C) curves whose D = r^2 A - 2 r cos(phi) B + C (phi = 0 or
    pi) hits exact zeros, double roots or poles."""
    n = 200
    on_grid = rs[rng.integers(0, len(rs), n)]
    sign = rng.choice([-1.0, 1.0], n)
    if kind == "constant_zeros":  # D = C at every r, zero on many samples
        c = rng.integers(-2, 3, n).astype(float)
        return [(np.zeros(n), np.zeros(n), c)]
    if kind == "zeros_on_grid":  # D = +-(r^2 - r_j^2): exactly 0 at r = +-r_j
        return [(sign, np.zeros(n), -sign * (on_grid * on_grid))]
    if kind == "double_roots":  # D = +-(r - r0)^2, r0 on and off the grid
        r0 = np.where(rng.random(n) < 0.5, on_grid, rng.uniform(rs[0], rs[-1], n))
        return [(sign, sign * r0, sign * (r0 * r0))]
    if kind == "near_double_roots":  # r0 and C a few ulps off: roundoff flips D
        eps = np.finfo(float).eps
        r0 = on_grid * (1.0 + rng.integers(-4, 5, n) * eps)
        return [(sign, sign * r0, sign * (r0 * r0 * (1.0 + rng.integers(-3, 4, n) * eps)))]
    if kind == "poles":  # A = 0 on half the samples: D linear there
        a = np.where(rng.random(n) < 0.5, 0.0, rng.normal(size=n))
        b = rng.normal(size=n)
        return [(a, b, 2.0 * on_grid * b - a * on_grid * on_grid)]
    # small integers: exact zeros wherever r is a multiple of 1/2
    return [tuple(rng.integers(-2, 3, (3, n)).astype(float)) for _ in range(3)]


def _assert_block_certificate(curves, rs, phi):
    """A sample that _block_extremes calls sure over a block keeps that
    float sign, nonzero, at every r of the block: the claim that lets the
    count skip a cell for the whole block.  Each curve stands in for D and
    for D' at once."""
    cos_phi = math.cos(phi)
    for a, b, c in curves:
        terms = np.array([(a, b, c), (a, b, c), (abs(a), abs(b), abs(c))])
        chain = SimpleNamespace(terms=terms, u=a, steep=np.ones(len(a)))
        for start in range(0, len(rs), ring_equation._BLOCK):
            block = rs[start : start + ring_equation._BLOCK + 1]
            tol = ring_equation._ROUNDING * ring_equation._bound(terms[2], max(abs(block[0]), abs(block[-1])), cos_phi)
            extremes = ring_equation._block_extremes(chain, block[0], block[-1], cos_phi, tol)
            for margin, keep in extremes:
                sure = margin > 0
                d = ring_equation._quadratic((a, b, c), block[:, None], cos_phi)
                assert (np.sign(d[:, sure]) == keep[sure]).all()


def test_count_stops_at_its_bound():
    # at r = 1e150 the bounds on |D''| overflowed on this 100-site ring, and
    # the count found 102 real levels
    L, theta, phi = 100, 0.3 / 100, math.pi / 2
    with pytest.raises(ValueError, match=r"needs \|g/t\| <= 1e\+100, got 1e\+150"):
        ring_equation._real_state_counts(L, np.array([0.0, 1e150]), math.cos(phi), math.cos(0.3))
    rs = np.array([-1e100, 1e100])
    counts, _ = ring_equation._real_state_counts(L, rs, math.cos(phi), math.cos(0.3))
    dense = [classify_spectrum(*solve(flux_ring(L, theta, g, phi=phi), vectors=False)) for g in rs]
    assert counts.tolist() == [L - cls.n_com for cls in dense]


def _small_ring_counts(cells, monkeypatch):
    """The count on a small ring's 81 r with each block's rows cut to
    ``cells`` (r, cell) entries."""
    monkeypatch.setattr(ring_equation, "_CELLS", cells)
    rs = np.linspace(0.0, 2.0, 81)
    return ring_equation._real_state_counts(12, rs, math.cos(1.0), math.cos(0.05 * 12))


@pytest.mark.parametrize("cells", [ring_equation._CELLS, 50], ids=["cells", "small_cells"])
@pytest.mark.parametrize("phi", [0.0, math.pi])
@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize(
    "kind",
    ["constant_zeros", "zeros_on_grid", "double_roots", "near_double_roots", "poles", "integers"],
)
def test_blocked_count_on_synthetic_curves(kind, seed, phi, cells, monkeypatch):
    rng = np.random.default_rng(seed)
    # 81 points on [-2, 2]: 0, +-1/2, +-1, ... lie on the grid
    rs = np.linspace(-2.0, 2.0, 81)
    _assert_block_certificate(_synthetic_curves(kind, rs, rng), rs, phi)
    # 50 cells split every block into rows of one r: the count does not move
    want = _small_ring_counts(ring_equation._CELLS, monkeypatch)
    got = _small_ring_counts(cells, monkeypatch)
    assert all(np.array_equal(x, y) for x, y in zip(got, want))


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


@pytest.mark.parametrize("L, theta_L, g", [(50, 0.3, 0.8), (100, 1.0, 1.2), (200, 0.5, 0.8)])
def test_asymptotic_solver_in_units_of_t(L, theta_L, g):
    t = 2.5
    spec = flux_ring(L, theta_L / L, t * g, t=t)
    sols = asymptotic_broken_solver(spec)
    assert sols and sols == asymptotic_broken_solver(flux_ring(L, theta_L / L, g))
    spectrum, scale = solve(spec, vectors=False)
    assert len(sols) == classify_spectrum(spectrum, scale).n_com


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
    assert nonbloch._ring_parameters(spec)[1] == 0.0
    assert asymptotic_broken_solver(spec) == []


def test_ring_phase_read_from_site_1():
    spec = flux_ring(100, 0.5, 0.8, phi=1.0)
    flipped = replace(spec, perturbations=spec.perturbations[::-1])
    ring, g = nonbloch._ring_parameters(flipped)
    assert (ring, g) == nonbloch._ring_parameters(spec)
    assert ring.phi == pytest.approx(1.0, abs=1e-15)
    assert g == pytest.approx(0.8, abs=1e-15)
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


def test_oracle_at_the_double_roots_of_a_clean_ring():
    # a clean ring without flux has E = -2t in its spectrum at even L, where
    # beta = -1 is a double root; a Newton step there, divided by p' ~ 1e-15,
    # once threw the pair 0.1 away and the root residual check failed
    ring = replace(flux_ring(24, 0.0, 0.0), perturbations=())
    values = solve(ring, vectors=False)[0].eigenvalues
    with pytest.warns(RuntimeWarning, match="coincident beta roots at 2 of 24"):
        worst, worst_ill, ill = _spectrum_audit(ring, values)
    assert worst <= 1e-9
    assert worst_ill <= 1e-9
    assert ill == 2


@pytest.mark.parametrize("L", [100, 200])
def test_audit_maximum_skips_the_ill_conditioned_rows(L):
    # on a clean ring without flux only the rows at E = +-2 (double roots
    # beta = +-1) carry a roundoff determinant, about 7e-8 at L = 100; every
    # well-conditioned row reads 0, and that is the audit's maximum
    ring = replace(flux_ring(L, 0.0, 0.0), perturbations=())
    values = solve(ring, vectors=False)[0].eigenvalues
    with pytest.warns(RuntimeWarning, match=f"coincident beta roots at 2 of {L}"):
        worst, worst_ill, ill = _spectrum_audit(ring, values)
        value, _, norms, rows_ill = _boundary_stack(ring, _root_stack(ring.hoppings, values))
    magnitude = _normalized_magnitude(value, norms)
    assert ill == 2
    assert worst == 0.0
    assert worst_ill == np.max(magnitude[rows_ill])
    assert np.all(magnitude[~rows_ill] == 0.0)


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

import cmath
import math

import numpy as np
import pytest

from ptlattice import (
    PerturbationTerm,
    build_hamiltonian,
    chiral_symmetry_check,
    eff_h_obc,
    eff_h_pbc,
    eig,
    multiband_block,
    project_perturbation,
    threshold_pbc,
)
from ptlattice.effective import (
    EffectiveBlock,
    _coupling,
    ring_multiband_projection,
    ring_plane_waves,
    threshold_pbc_printed,
)
from conftest import flux_ring


def test_reassembled_matches_matrix():
    block = eff_h_pbc(n=10, L=100, theta=0.02, phi=1.1, g=0.3, t=1.0)
    assert np.max(np.abs(block.reassembled() - block.matrix)) < 1e-12


def test_projection_empty_perturbation_is_zero():
    vecs = ring_plane_waves(10, [0.0, 2 * math.pi / 10])
    out = project_perturbation(vecs, [])
    assert np.max(np.abs(out)) == 0.0


def test_projection_rejects_non_orthonormal():
    v = np.ones(6, complex) / math.sqrt(6)
    with pytest.raises(ValueError):
        project_perturbation([v, v], [PerturbationTerm(1, 1, 1j)])


def test_projection_boundary_entry_magnitude():
    # for the boundary pair g e^{+-i phi} at sites 1 and L, every matrix
    # element of the projection onto plane waves has magnitude <= 2g/L
    L, g, phi = 20, 0.7, 0.9
    ks = [2 * math.pi * n / L for n in (3, L - 3)]
    vecs = ring_plane_waves(L, ks)
    V = (
        PerturbationTerm(1, 1, g * cmath.exp(1j * phi)),
        PerturbationTerm(L, L, g * cmath.exp(-1j * phi)),
    )
    out = project_perturbation(vecs, V)
    assert np.max(np.abs(out)) <= 2 * g / L + 1e-12
    assert np.min(np.abs(out)) > 0


@pytest.mark.parametrize("L", [10, 41, 100])
@pytest.mark.parametrize("phi", [0.0, 0.7, math.pi / 2, 2.5])
def test_closed_form_coupling_matches_projection(L, phi):
    # the closed-form plane-wave coupling against the numerical projection:
    # the pair, the pair against the other L - 2 waves, and a window
    g, n = 0.6, L // 4
    ks = 2 * math.pi * np.arange(L) / L
    V = (
        PerturbationTerm(1, 1, g * cmath.exp(1j * phi)),
        PerturbationTerm(L, L, g * cmath.exp(-1j * phi)),
    )
    full = project_perturbation(ring_plane_waves(L, ks), V)
    pair = [n, L - n]
    window = list(range(n - 2, n + 3))
    for a, b in ((pair, pair), (pair, np.delete(np.arange(L), pair)), (window, window)):
        closed = _coupling(L, phi, g, ks[a], ks[b])
        assert np.max(np.abs(closed - full[np.ix_(a, b)])) < 1e-13
    block = eff_h_pbc(n=n, L=L, theta=0.1 / L, phi=phi, g=g, t=1.0)
    assert block.matrix.dtype == np.complex128
    assert np.max(np.abs(block.reassembled() - block.matrix)) < 1e-13


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "L, Phi, phi, above",
    [
        (100, 0.3, math.pi / 2, 2.6839482836e-4),
        (101, 0.6, 1.2, 5.314083043e-4),
        (40, 0.2, 2.0, 4.473235211e-4),
    ],
)
def test_threshold_is_where_first_order_blocks_break(L, Phi, phi, above):
    theta = Phi / L
    g_c = threshold_pbc(L, theta, phi, 1.0)

    def max_im(g):
        blocks = [eff_h_pbc(n, L, theta, phi, g, 1.0) for n in range(1, (L + 1) // 2)]
        return max(np.max(np.abs(b.eigenvalues().imag)) for b in blocks)

    assert max_im(0.999 * g_c) == 0.0
    assert max_im(1.001 * g_c) == pytest.approx(above, rel=1e-6)


def test_block_eigenvalues_sorted():
    block = eff_h_pbc(n=2, L=40, theta=0.001, phi=math.pi / 2, g=0.5, t=1.0)
    vals = block.eigenvalues()
    assert list(vals) == sorted(vals, key=lambda e: (e.real, e.imag))


def test_eff_h_pbc_unperturbed_eigenvalues():
    L, n, theta = 100, 10, 0.02
    block = eff_h_pbc(n=n, L=L, theta=theta, phi=0.0, g=0.0, t=1.0)
    k = 2 * math.pi * n / L
    expected = sorted([2 * math.cos(k + theta), 2 * math.cos(k - theta)])
    got = sorted(block.eigenvalues().real)
    assert np.allclose(got, expected, atol=1e-12)


def test_eff_h_pbc_zero_flux_antihermitian_coupling():
    # at theta = 0, phi = pi/2 the block is d0*I + i(2g/L) sin(k) sy up to sign
    L, n, g = 100, 10, 0.4
    block = eff_h_pbc(n=n, L=L, theta=0.0, phi=math.pi / 2, g=g, t=1.0)
    delta12, d0, dx, dy, dz = block.gap_decomposition
    assert delta12 == 0.0
    assert dx == pytest.approx(0.0, abs=1e-15)
    k = 2 * math.pi * n / L
    assert abs(dy) == pytest.approx((2 / L) * abs(math.sin(k)))
    evals = block.eigenvalues()
    assert np.allclose(sorted(evals.imag), sorted([-g * abs(dy), g * abs(dy)]), atol=1e-12)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("L", [100, 400])
def test_eff_h_pbc_second_order_matches_ring(L):
    # best second-order block against the full ring is within 5/L^2
    Phi, phi, g = 0.3, math.pi / 2, 0.5
    theta = Phi / L
    vals = eig(build_hamiltonian(flux_ring(L, theta, g, phi=phi))).eigenvalues
    best = math.inf
    for n in range(1, L // 2):
        err, used = 0.0, vals
        for p in eff_h_pbc(n, L, theta, phi, g, 1.0, order=2).eigenvalues():
            j = int(np.argmin(np.abs(used - p)))
            err = max(err, float(np.abs(used[j] - p)))
            used = np.delete(used, j)
        best = min(best, err)
    assert best < 5.0 / L**2


def test_eff_h_pbc_default_is_first_order():
    args = dict(n=10, L=100, theta=0.003, phi=1.1, g=0.4, t=1.0)
    default = eff_h_pbc(**args)
    first = eff_h_pbc(**args, order=1)
    assert default.matrix.tobytes() == first.matrix.tobytes()
    assert default.gap_decomposition == first.gap_decomposition
    assert eff_h_pbc(**args, order=2).gap_decomposition is None


def test_eff_h_pbc_rejects_unknown_order():
    with pytest.raises(ValueError):
        eff_h_pbc(n=10, L=100, theta=0.003, phi=1.1, g=0.4, t=1.0, order=3)


def test_eff_h_pbc_validates_mode_index():
    with pytest.raises(ValueError):
        eff_h_pbc(n=0, L=100, theta=0.0, phi=0.0, g=0.1, t=1.0)
    with pytest.raises(ValueError):
        eff_h_pbc(n=50, L=100, theta=0.0, phi=0.0, g=0.1, t=1.0)


def test_eff_h_pbc_warns_when_coupling_exceeds_gap():
    with pytest.warns(RuntimeWarning):
        eff_h_pbc(n=2, L=10, theta=0.01, phi=0.5, g=5.0, t=1.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_eff_h_pbc_gap_warning_reads_the_gap_magnitude():
    # with t < 0 the gap to the next level is still |2t| |cos(k + theta) - cos(k' + theta)|
    eff_h_pbc(n=10, L=100, theta=0.003, phi=1.1, g=0.01, t=-1.0)


def test_threshold_closed_form_at_phi_half_pi():
    # at phi = pi/2 the discriminant gives g_c = t L sin(theta) exactly
    for L, theta in ((100, 0.005), (60, 0.01)):
        assert threshold_pbc(L, theta, math.pi / 2, 1.0) == pytest.approx(
            L * math.sin(theta)
        )


def test_threshold_zero_at_zero_flux():
    assert threshold_pbc(100, 0.0, math.pi / 2, 1.0) == 0.0


def test_threshold_infinite_for_real_perturbation():
    assert threshold_pbc(100, 0.01, 0.0, 1.0) == math.inf


def test_threshold_rejects_negative_flux():
    with pytest.raises(ValueError):
        threshold_pbc(100, -0.3, math.pi / 2, 1.0)


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("threshold", [threshold_pbc, threshold_pbc_printed])
def test_threshold_rejects_non_finite_flux(threshold, theta):
    with pytest.raises(ValueError, match="flux theta must be finite"):
        threshold(24, theta, math.pi / 2, 1.0)


def test_threshold_printed_form_differs():
    L, theta, phi = 100, 0.3 / 100, math.pi / 2
    a = threshold_pbc(L, theta, phi, 1.0)
    b = threshold_pbc_printed(L, theta, phi, 1.0)
    assert b > 5 * a  # the verbatim form overestimates by ~1/sqrt(sin theta)


def test_threshold_matches_observed_onset():
    # full-model onset of complex eigenvalues agrees with the prediction
    from ptlattice import classify_spectrum, frobenius_norm

    L, Phi = 100, 0.3
    theta = Phi / L
    g_c = threshold_pbc(L, theta, math.pi / 2, 1.0)

    def p_com(g):
        H = build_hamiltonian(flux_ring(L, theta, g, phi=math.pi / 2))
        return classify_spectrum(eig(H), frobenius_norm(H)).p_com

    assert p_com(0.9 * g_c) == 0.0
    assert p_com(1.1 * g_c) > 0.0


def test_eff_h_obc_pure_gain_pair():
    plus, minus = eff_h_obc(0.0, 0.5, (0.0, 1.0, 0.0))
    assert plus == pytest.approx(0.5j)
    assert minus == pytest.approx(-0.5j)


def test_eff_h_obc_threshold_third():
    # delta12 = 1, d = (0, 3, 0): radicand 1 - 9 g^2 vanishes at g = 1/3
    below = eff_h_obc(1.0, 0.3, (0.0, 3.0, 0.0))
    at = eff_h_obc(1.0, 1.0 / 3.0, (0.0, 3.0, 0.0))
    above = eff_h_obc(1.0, 0.4, (0.0, 3.0, 0.0))
    assert abs(below[0].imag) < 1e-12 and below[0].real > 0
    assert abs(at[0]) < 1e-7
    assert above[0].imag != 0 and abs(above[0].real) < 1e-12


def test_eff_h_obc_zero_gap_breaks_immediately():
    plus, _ = eff_h_obc(0.0, 1e-3, (0.0, 1.0, 0.0))
    assert plus.imag > 0


def test_multiband_block_ladder():
    block = multiband_block(1, 0.5, np.zeros((3, 3)))
    assert np.allclose(np.diag(block.matrix).real, [-0.5, 0.0, 0.5])
    with pytest.raises(ValueError):
        multiband_block(1, 0.5, np.zeros((4, 4)))


def test_chiral_check_diagonal():
    block = EffectiveBlock(dimension=3, matrix=np.diag([-1.0, 0.0, 1.0]).astype(complex))
    assert chiral_symmetry_check(block)


def test_chiral_check_symmetric_coupling_fails():
    m = np.zeros((3, 3), complex)
    m[0, 1] = m[1, 0] = m[1, 2] = m[2, 1] = 0.3
    m += np.diag([-1.0, 0.0, 1.0])
    # flipping leaves the coupling invariant rather than negating it
    assert not chiral_symmetry_check(EffectiveBlock(dimension=3, matrix=m))


def test_chiral_check_needs_odd_dimension():
    with pytest.raises(ValueError):
        chiral_symmetry_check(EffectiveBlock(dimension=2, matrix=np.eye(2, dtype=complex)))


def test_ring_multiband_chiral_at_commensurate_size():
    # L = 4n + 1 with theta = 0.25 * 2pi/L puts the level ladder exactly
    # evenly spaced and the projected block is chiral to machine precision
    L = 101
    n = (L - 1) // 4
    theta = 0.25 * 2 * math.pi / L
    block = ring_multiband_projection(L, n, 1, theta, math.pi / 2, 0.5, 1.0)
    assert chiral_symmetry_check(block, tol=1e-10)


def test_ring_multiband_window_validation():
    with pytest.raises(ValueError):
        ring_multiband_projection(10, 1, 8, 0.01, math.pi / 2, 0.1, 1.0)

import math

import numpy as np
import pytest

from ptlattice import (
    Boundary,
    HoppingSet,
    ModelSpec,
    build_hamiltonian,
    eig,
    eigen,
    frobenius_norm,
)
from ptlattice.eigen import (
    RESIDUAL_FACTOR,
    EigensolverError,
    _checked_matrix,
    _real_pt_form,
    eigvals,
    solve,
    solve_stack,
)
from ptlattice.lattice import is_pt_symmetric
from ptlattice.sweep import apply_parameter
from conftest import flux_ring, gain_chain, nnn_chain, pt_variant, random_model


def _ring(L):
    return build_hamiltonian(
        ModelSpec(L=L, boundary=Boundary.PERIODIC, hoppings=HoppingSet(terms=((1, 1.0 + 0j),)))
    )


def _chain(L):
    return build_hamiltonian(
        ModelSpec(L=L, boundary=Boundary.OPEN, hoppings=HoppingSet(terms=((1, 1.0 + 0j),)))
    )


def test_pauli_x():
    spec = eig(np.array([[0, 1], [1, 0]], complex))
    assert np.allclose(spec.eigenvalues, [-1.0, 1.0], atol=1e-12)


def test_ring_of_four():
    vals = eig(_ring(4)).eigenvalues
    assert np.allclose(np.sort(vals.real), [-2, 0, 0, 2], atol=1e-12)
    assert np.max(np.abs(vals.imag)) < 1e-12


def test_open_chain_of_three():
    vals = eig(_chain(3)).eigenvalues
    assert np.allclose(np.sort(vals.real), [-math.sqrt(2), 0, math.sqrt(2)], atol=1e-12)


def test_frobenius_examples():
    assert frobenius_norm(np.zeros((4, 4), complex)) == 0.0
    assert frobenius_norm(np.eye(3, dtype=complex)) == pytest.approx(math.sqrt(3))
    assert frobenius_norm(_ring(4)) == pytest.approx(math.sqrt(8))


def test_trace_invariant():
    rng = np.random.default_rng(3)
    H = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    vals = eig(H).eigenvalues
    assert np.sum(vals) == pytest.approx(np.trace(H), abs=1e-10)


def test_hermitian_input_gives_real_eigenvalues():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(20, 20)) + 1j * rng.normal(size=(20, 20))
    H = A + A.conj().T
    vals = eig(H).eigenvalues
    assert np.max(np.abs(vals.imag)) <= 1e-10 * frobenius_norm(H)


def test_pt_spectrum_conjugate_pairs():
    H = build_hamiltonian(flux_ring(30, 0.4, 1.2, phi=math.pi / 2))
    vals = eig(H).eigenvalues
    dist = np.abs(vals[:, None] - np.conj(vals)[None, :])
    assert np.max(dist.min(axis=1)) < 1e-8 * frobenius_norm(H)


def test_deterministic():
    H = build_hamiltonian(gain_chain(40, g=1.5))
    s1 = eig(H)
    s2 = eig(H)
    assert np.array_equal(s1.eigenvalues, s2.eigenvalues)
    assert np.array_equal(s1.eigenvectors, s2.eigenvectors)


def test_sorted_by_real_then_imag():
    H = build_hamiltonian(flux_ring(16, 0.3, 1.0))
    vals = eig(H).eigenvalues
    keys = list(zip(np.round(vals.real, 12), np.round(vals.imag, 12)))
    assert keys == sorted(keys)


def test_vectors_are_normalized_eigenvectors():
    H = build_hamiltonian(gain_chain(15, g=1.5))
    spec = eig(H)
    for k in range(spec.dimension):
        v = spec.vector(k)
        assert np.linalg.norm(v) == pytest.approx(1.0)
        resid = np.linalg.norm(H @ v - spec.eigenvalues[k] * v)
        assert resid < 1e-10 * frobenius_norm(H)


def test_rejects_non_square():
    from ptlattice import EigensolverError

    with pytest.raises((EigensolverError, ValueError)):
        eig(np.zeros((3, 4), complex))


@pytest.mark.parametrize(
    "spec",
    [flux_ring(100, 0.01, 0.8, phi=math.pi / 2), nnn_chain(200, 1.0, 0.5, 0.8)],
    ids=["ring", "nnn_chain"],
)
def test_eigvals_matches_eig(spec):
    # same values in the same (Re, Im) order; a conjugate pair whose real
    # parts differ in the last bits may come out swapped, so each value is
    # matched to its nearest counterpart
    H = build_hamiltonian(spec)
    values = eigvals(H)
    full = eig(H).eigenvalues
    assert len(values) == len(full)
    assert np.array_equal(np.lexsort((values.imag, values.real)), np.arange(len(values)))
    dist = np.abs(values[:, None] - full[None, :])
    tol = 1e-12 * frobenius_norm(H)
    assert np.max(dist.min(axis=1)) <= tol
    assert np.max(dist.min(axis=0)) <= tol


def test_eigvals_rejects_bad_input():
    with pytest.raises(ValueError):
        eigvals(np.zeros((3, 4), complex))
    H = np.eye(3, dtype=complex)
    H[1, 2] = np.nan
    with pytest.raises(ValueError):
        eigvals(H)
    H[1, 2] = np.inf
    with pytest.raises(ValueError):
        eigvals(H)


def test_eigvals_trace_check(monkeypatch):
    H = build_hamiltonian(flux_ring(20, 0.1, 0.5))
    true = np.linalg.eigvals(H)
    monkeypatch.setattr(np.linalg, "eigvals", lambda A: true + 1e-9)
    with pytest.raises(EigensolverError, match="trace"):
        eigvals(H)


def _stack(dtype, n, L, seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, L, L))
    if dtype is complex:
        A = A + 1j * rng.normal(size=(n, L, L))
    return A


@pytest.mark.parametrize("L", [1, 7, 100])
@pytest.mark.parametrize("dtype", [float, complex])
def test_eigvals_stack_is_per_matrix_bit_for_bit(dtype, L):
    stack = _stack(dtype, 6, L, seed=L)
    values = eigvals(stack)
    assert values.shape == (6, L) and values.dtype == np.complex128
    for k in range(6):
        assert np.array_equal(values[k], eigvals(stack[k]))
    # a stack of one is the same call as a single matrix
    assert np.array_equal(eigvals(stack[2:3])[0], values[2])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_eigvals_stack_rejects_non_finite_member(bad):
    stack = _stack(complex, 4, 7, seed=1)
    stack[2, 3, 1] = bad
    with pytest.raises(ValueError, match="stack member 2"):
        eigvals(stack)
    with pytest.raises(ValueError):
        eigvals(np.zeros((2, 3, 4)))


def test_eigvals_stack_trace_check(monkeypatch):
    stack = _stack(float, 5, 20, seed=2)
    true = np.linalg.eigvals(stack)
    true[3, 0] += 1e-9  # one member off by more than its trace tolerance
    monkeypatch.setattr(np.linalg, "eigvals", lambda A: true)
    with pytest.raises(EigensolverError, match="trace check failed \\(stack member 3\\)"):
        eigvals(stack)


def test_solve_stack_mixes_pt_and_other_models():
    L = 30
    specs = [
        flux_ring(L, 0.5 / L, 0.8),
        gain_chain(L, g=1.5),  # not PT-symmetric: the complex stack
        nnn_chain(L, 1.0, 0.5, 0.4),
        flux_ring(L, 0.2 / L, 0.0),
    ]
    solved = solve_stack(specs, vectors=False)
    assert [s.real_basis for s, _ in solved] == [True, False, True, True]
    for spec, (spectrum, scale) in zip(specs, solved):
        H = build_hamiltonian(spec)
        assert spectrum.eigenvectors is None and spectrum.residuals is None
        assert scale == frobenius_norm(H)
        alone = eigvals(_real_pt_form(H) if spectrum.real_basis else H)
        assert np.array_equal(spectrum.eigenvalues, alone)
        single, single_scale = solve(spec, vectors=False)
        assert np.array_equal(single.eigenvalues, alone) and single_scale == scale
    for spec, result in zip(specs, solve_stack(specs)):
        _same_solve(result, solve(spec))
    with pytest.raises(ValueError, match="one size"):
        solve_stack([flux_ring(L, 0.1, 0.5), flux_ring(L + 1, 0.1, 0.5)])


def _nearest_distance(a, b):
    dist = np.abs(a[:, None] - b[None, :])
    return max(np.max(dist.min(axis=1)), np.max(dist.min(axis=0)))


def _same_solve(a, b):
    (spectrum, scale), (other, other_scale) = a, b
    assert scale == other_scale and spectrum.real_basis == other.real_basis
    assert np.array_equal(spectrum.eigenvalues, other.eigenvalues)
    for name in ("eigenvectors", "residuals"):
        mine, theirs = getattr(spectrum, name), getattr(other, name)
        assert (mine is None and theirs is None) or np.array_equal(mine, theirs)


def test_random_pt_models_through_both_solve_paths():
    pt = [m for m in map(pt_variant, map(random_model, range(1000))) if is_pt_symmetric(m, 0.0)]
    assert len(pt) >= 990  # 995 here; the rest miss exact symmetry by a rounding
    groups: dict[int, list] = {}
    for spec in pt:
        spectrum, scale = solve(spec)
        assert spectrum.real_basis
        site = eig(build_hamiltonian(spec)).eigenvalues
        assert _nearest_distance(spectrum.eigenvalues, site) <= 1e-9 * scale
        groups.setdefault(spec.L, []).append(spec)
    for specs in groups.values():
        for vectors in (True, False):
            for spec, result in zip(specs, solve_stack(specs, vectors)):
                _same_solve(result, solve(spec, vectors))


def test_eig_real_matrix_stays_real():
    rng = np.random.default_rng(11)
    A = rng.normal(size=(40, 40))
    assert _checked_matrix(A).dtype == np.float64
    assert _checked_matrix(A.astype(int)).dtype == np.complex128
    real = eig(A)
    full = eig(A.astype(complex))
    vals = real.eigenvalues
    assert vals.dtype == np.complex128 and real.eigenvectors.dtype == np.complex128
    assert np.array_equal(np.lexsort((vals.imag, vals.real)), np.arange(len(vals)))
    # dgeev returns exact conjugate pairs
    assert np.array_equal(np.sort_complex(vals), np.sort_complex(vals.conj()))
    assert _nearest_distance(vals, full.eigenvalues) <= 1e-12 * frobenius_norm(A)
    assert np.max(real.residuals) <= RESIDUAL_FACTOR * frobenius_norm(A)


PT_SPECS = [
    flux_ring(100, 0.5 / 100, 0.8),
    flux_ring(101, 0.5 / 101, 0.8),
    nnn_chain(200, 1.0, 0.5, 0.5),
]
PT_IDS = ["ring_even", "ring_odd", "nnn_chain"]


@pytest.mark.parametrize("spec", PT_SPECS, ids=PT_IDS)
def test_solve_real_pt_basis(spec):
    H = build_hamiltonian(spec)
    spectrum, scale = solve(spec)
    assert spectrum.real_basis
    assert scale == frobenius_norm(H)
    vals = spectrum.eigenvalues
    # real eigenvalues have Im exactly 0; complex ones come in exact pairs
    pairs = vals[vals.imag != 0]
    assert len(pairs) > 0
    assert np.array_equal(np.sort_complex(pairs), np.sort_complex(pairs.conj()))
    assert np.array_equal(np.lexsort((vals.imag, vals.real)), np.arange(len(vals)))
    assert _nearest_distance(vals, eig(H).eigenvalues) <= 1e-12 * scale
    # residual contract on the site-basis H
    V = spectrum.eigenvectors
    assert np.allclose(np.linalg.norm(V, axis=0), 1.0, atol=1e-14)
    residuals = np.linalg.norm(H @ V - V * vals, axis=0)
    assert np.max(residuals) <= RESIDUAL_FACTOR * scale
    assert np.allclose(residuals, spectrum.residuals, rtol=0, atol=1e-15 * scale)

    values_only, scale_only = solve(spec, vectors=False)
    assert values_only.real_basis and values_only.eigenvectors is None
    assert scale_only == scale
    assert _nearest_distance(values_only.eigenvalues, vals) <= 1e-12 * scale
    with pytest.raises(ValueError):
        values_only.vector(0)


def test_solve_non_pt_is_the_complex_solve():
    spec = gain_chain(40, g=1.5)  # gain on one site only
    H = build_hamiltonian(spec)
    spectrum, scale = solve(spec)
    reference = eig(H)
    assert not spectrum.real_basis
    assert scale == frobenius_norm(H)
    assert np.array_equal(spectrum.eigenvalues, reference.eigenvalues)
    assert np.array_equal(spectrum.eigenvectors, reference.eigenvectors)
    assert np.array_equal(spectrum.residuals, reference.residuals)
    values_only, _ = solve(spec, vectors=False)
    assert not values_only.real_basis
    assert np.array_equal(values_only.eigenvalues, eigvals(H))


def test_solve_real_path_on_criterion_models():
    # a silent fall-back to the complex path would show only in timings
    L = 100
    ring = flux_ring(L, 0.2 / L, 1.0)  # criterion 4's sweep
    for theta in (0.2 / L, 0.6 / L, 1.0 / L):
        for g in (0.0, 0.75, 1.5):
            point = apply_parameter(apply_parameter(ring, "flux_theta", theta), "g", g)
            assert solve(point)[0].real_basis
    chain = nnn_chain(L, 1.0, 0.5, 0.3)  # the benchmark's open-chain criterion model
    assert solve(chain)[0].real_basis
    assert solve(chain.resized(2 * L), vectors=False)[0].real_basis


@pytest.mark.parametrize(
    "spec", [gain_chain(40, g=1.5), nnn_chain(60, 1.0, 0.5, 0.5)], ids=["complex", "real_pt"]
)
def test_solve_names_a_vector_that_breaks_the_residual_contract(spec, monkeypatch):
    sorted_pairs = eigen._sorted_pairs

    def one_wrong_vector(values, vectors):
        values, vectors = sorted_pairs(values, vectors)
        vectors = vectors.copy()
        vectors[:, 7] = 1.0 / math.sqrt(len(values))
        return values, vectors

    monkeypatch.setattr(eigen, "_sorted_pairs", one_wrong_vector)
    with pytest.raises(EigensolverError, match=r"residual contract violated: .* at eigenvalue index 7$"):
        solve(spec)

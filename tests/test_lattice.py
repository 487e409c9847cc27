import cmath
import math
from dataclasses import replace

import numpy as np
import pytest

from ptlattice import (
    Boundary,
    HoppingSet,
    ModelSpec,
    PerturbationTerm,
    apply_gauge_transform,
    build_hamiltonian,
    eig,
    is_pt_symmetric,
)
from ptlattice.lattice import _closing_bonds, _matrix_is_pt_symmetric
from conftest import flux_ring, gain_chain, nnn_chain, random_model


def test_two_site_chain():
    spec = ModelSpec(
        L=3, boundary=Boundary.OPEN, hoppings=HoppingSet(terms=((1, 1.0 + 0j),))
    )
    H = build_hamiltonian(spec)
    assert np.array_equal(H, np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], complex))


def test_single_gain_entry():
    spec = ModelSpec(
        L=3,
        boundary=Boundary.OPEN,
        hoppings=HoppingSet(terms=((1, 1.0 + 0j),)),
        perturbations=(PerturbationTerm(1, 1, 2j),),
    )
    H = build_hamiltonian(spec)
    expected = np.array([[2j, 1, 0], [1, 0, 1], [0, 1, 0]], complex)
    assert np.array_equal(H, expected)


def test_periodic_flux_phases():
    spec = ModelSpec(
        L=4,
        boundary=Boundary.PERIODIC,
        hoppings=HoppingSet(terms=((1, 1.0 + 0j),)),
        flux_theta=math.pi / 8,
    )
    H = build_hamiltonian(spec)
    ph = np.exp(1j * math.pi / 8)
    assert H[0, 1] == pytest.approx(ph)
    assert H[1, 0] == pytest.approx(np.conj(ph))
    assert H[3, 0] == pytest.approx(ph)
    assert H[0, 3] == pytest.approx(np.conj(ph))


def test_open_boundary_has_no_wrap():
    spec = ModelSpec(
        L=6, boundary=Boundary.OPEN, hoppings=HoppingSet(terms=((1, 1.0 + 0j),))
    )
    H = build_hamiltonian(spec)
    assert H[5, 0] == 0 and H[0, 5] == 0


def test_hermitian_without_perturbations():
    spec = nnn_chain(20, 1.0, 0.5, 0.0)
    spec = ModelSpec(L=20, boundary=Boundary.OPEN, hoppings=spec.hoppings)
    H = build_hamiltonian(spec)
    assert np.max(np.abs(H - H.conj().T)) == 0


def test_linear_in_perturbations():
    base = gain_chain(10, g=0.0)
    h0 = build_hamiltonian(ModelSpec(L=10, boundary=Boundary.OPEN, hoppings=base.hoppings))
    extra = (PerturbationTerm(1, 1, 1j), PerturbationTerm(10, 10, -1j))
    h2 = build_hamiltonian(
        ModelSpec(L=10, boundary=Boundary.OPEN, hoppings=base.hoppings, perturbations=extra)
    )
    diff = h2 - h0
    assert diff[0, 0] == 1j and diff[9, 9] == -1j
    assert np.count_nonzero(diff) == 2


def test_rejects_short_chain():
    with pytest.raises(ValueError):
        ModelSpec(
            L=4,
            boundary=Boundary.OPEN,
            hoppings=HoppingSet(terms=((1, 1.0 + 0j), (2, 0.5 + 0j))),
        )


def test_rejects_site_out_of_range():
    with pytest.raises(ValueError):
        ModelSpec(
            L=5,
            boundary=Boundary.OPEN,
            hoppings=HoppingSet(terms=((1, 1.0 + 0j),)),
            perturbations=(PerturbationTerm(6, 1, 1j),),
        )


def test_hopping_set_validation():
    with pytest.raises(ValueError):
        HoppingSet(terms=((1, 0j),))
    with pytest.raises(ValueError):
        HoppingSet(terms=((1, 1.0 + 0j), (1, 2.0 + 0j)))
    with pytest.raises(ValueError):
        HoppingSet(terms=((0, 1.0 + 0j),))


_NN = HoppingSet(((1, 1.0),))

# id: (builder, field named in the message, rejected value)
_NON_INTEGER_CASES = {
    "range_fraction": (lambda: HoppingSet(((1.5, 1.0),)), "hopping range", 1.5),
    "second_range_fraction": (lambda: HoppingSet(((1, 1.0), (1.5, 0.5))), "hopping range", 1.5),
    "range_bool": (lambda: HoppingSet(((True, 1.0),)), "hopping range", True),
    "range_none": (lambda: HoppingSet(((None, 1.0),)), "hopping range", None),
    "L_fraction": (lambda: ModelSpec(L=10.5, boundary=Boundary.OPEN, hoppings=_NN), "L", 10.5),
    "L_inf": (lambda: ModelSpec(L=math.inf, boundary=Boundary.OPEN, hoppings=_NN), "L", math.inf),
    "site_i_fraction": (lambda: PerturbationTerm(1.5, 1, 0.5j), "perturbation site i", 1.5),
    "site_j_fraction": (lambda: PerturbationTerm(1, 2.5, 0.5j), "perturbation site j", 2.5),
}


@pytest.mark.parametrize("case", sorted(_NON_INTEGER_CASES))
def test_python_built_models_take_the_integer_checks(case):
    # the JSON path always made these checks; a model built in Python skipped them
    build, field, value = _NON_INTEGER_CASES[case]
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
        build()


def test_integral_floats_become_ints_in_python_built_models():
    h = HoppingSet(((2.0, 0.5), (1, 1.0)))
    perturbation = PerturbationTerm(1.0, 10.0, 1j)
    spec = ModelSpec(L=10.0, boundary=Boundary.OPEN, hoppings=h, perturbations=(perturbation,))
    assert h.terms == ((1, 1.0 + 0j), (2, 0.5 + 0j))
    assert all(type(n) is int for n, _ in h.terms)
    assert type(spec.L) is int and spec.L == 10
    p = spec.perturbations[0]
    assert (type(p.site_i), type(p.site_j), p.site_i, p.site_j) == (int, int, 1, 10)
    assert spec == ModelSpec.from_json(spec.to_json())


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
def test_non_finite_values_are_rejected(bad):
    with pytest.raises(ValueError, match="hopping amplitude of range 2 must be finite"):
        HoppingSet(terms=((1, 1.0), (2, bad)))
    with pytest.raises(ValueError, match=r"perturbation amplitude at \(3,1\) must be finite"):
        PerturbationTerm(3, 1, bad)
    if isinstance(bad, float):
        with pytest.raises(ValueError, match="flux_theta must be finite"):
            ModelSpec(L=8, boundary=Boundary.OPEN, hoppings=HoppingSet(((1, 1.0),)), flux_theta=bad)


def _random_rings(count: int) -> list[ModelSpec]:
    """Periodic random models and flux rings, perturbations removed."""
    rings = [flux_ring(L, theta, 0.0) for L in (3, 4, 7, 24, 101) for theta in (0.0, 0.3, 2.9)]
    seeds = iter(range(10**6))
    while len(rings) < count:
        spec = random_model(next(seeds))
        if spec.boundary is Boundary.PERIODIC:
            rings.append(spec)
    return [replace(spec, perturbations=()) for spec in rings]


def test_closing_bonds_are_the_far_off_diagonal_entries():
    # L > 2M keeps every bulk bond within M of the diagonal, so the entries
    # H[i, j] (1-based) with i - j > M are exactly the bonds that close the ring
    for spec in _random_rings(200):
        M = spec.max_range
        assert spec.L > 2 * M
        closing = _closing_bonds(spec)
        # listed by range, then by site, each once
        keys = [(n, a) for n, _, a, _ in closing]
        assert keys == sorted(set(keys))
        bonds = sorted((a, b) for _, _, a, b in closing)
        rows, cols = np.nonzero(build_hamiltonian(spec))
        far = rows - cols > M
        assert bonds == sorted(zip((rows[far] + 1).tolist(), (cols[far] + 1).tolist()))
        # and their conjugates are the entries with j - i > M
        far = cols - rows > M
        assert bonds == sorted(zip((cols[far] + 1).tolist(), (rows[far] + 1).tolist()))


def test_gauge_transform_identity_at_zero_flux():
    spec = flux_ring(10, 0.0, 0.5)
    assert apply_gauge_transform(spec) is spec


def test_gauge_transform_wrap_phase():
    spec = ModelSpec(
        L=6,
        boundary=Boundary.PERIODIC,
        hoppings=HoppingSet(terms=((1, 1.0 + 0j),)),
        flux_theta=math.pi / 6,
    )
    H = build_hamiltonian(apply_gauge_transform(spec))
    # bulk bonds bare
    assert H[0, 1] == pytest.approx(1.0)
    # wrap bond carries the whole flux e^{i theta L} = e^{i pi}
    assert H[5, 0] == pytest.approx(np.exp(1j * math.pi))


def test_gauge_transform_preserves_spectrum():
    rng = np.random.default_rng(7)
    theta = float(rng.uniform(0, 2 * math.pi))
    spec = flux_ring(20, theta, 0.7, phi=0.9)
    e1 = eig(build_hamiltonian(spec)).eigenvalues
    e2 = eig(build_hamiltonian(apply_gauge_transform(spec))).eigenvalues
    dist = np.abs(e1[:, None] - e2[None, :])
    assert np.max(dist.min(axis=1)) < 1e-10
    assert np.max(dist.min(axis=0)) < 1e-10


def test_gauge_transform_rejects_open():
    with pytest.raises(ValueError):
        apply_gauge_transform(gain_chain(10))


def test_pt_symmetry_cases():
    assert not is_pt_symmetric(gain_chain(10, g=1.0))
    assert is_pt_symmetric(nnn_chain(10, 1.0, 0.5, 0.8))
    assert is_pt_symmetric(flux_ring(10, 0.1, 0.5, phi=0.7))


@pytest.mark.parametrize("L", [10, 11, 201])
def test_pt_symmetry_tolerance(L):
    # the upper-rows comparison sees a defect in the lower half too
    H = build_hamiltonian(flux_ring(L, 0.1, 0.5, phi=0.7))
    assert _matrix_is_pt_symmetric(H, 0.0)
    H[-1, -1] += 1e-13
    assert not _matrix_is_pt_symmetric(H, 0.0)
    assert _matrix_is_pt_symmetric(H, 1e-12)
    H[L // 2, 0] += 1e-3j
    assert not _matrix_is_pt_symmetric(H, 1e-12)


def test_json_round_trip():
    spec = flux_ring(12, 0.05, 0.3, phi=1.1)
    again = ModelSpec.from_json(spec.to_json())
    assert again == spec


def test_flux_stored_mod_2pi():
    spec = ModelSpec(
        L=8,
        boundary=Boundary.PERIODIC,
        hoppings=HoppingSet(terms=((1, 1.0 + 0j),)),
        flux_theta=2 * math.pi + 0.25,
    )
    assert spec.flux_theta == pytest.approx(0.25)


def test_resized_identity():
    for spec in (gain_chain(50), nnn_chain(60, 1.0, 0.5, 0.8), flux_ring(101, 0.3, 0.5)):
        assert spec.resized(spec.L) == spec


def test_resized_pins_perturbations_and_flux():
    ring = flux_ring(101, 0.3, 0.5)
    big = ring.resized(202)
    assert [(p.site_i, p.site_j) for p in big.perturbations] == [(1, 1), (202, 202)]
    assert big.L * big.flux_theta == pytest.approx(ring.L * ring.flux_theta, rel=1e-15)
    assert big == flux_ring(202, 0.3 * 101 / 202, 0.5)
    assert gain_chain(50, g=1.5).resized(100) == gain_chain(100, g=1.5)
    assert nnn_chain(60, 1.0, 0.5, 0.8).resized(120) == nnn_chain(120, 1.0, 0.5, 0.8)


def test_resized_moves_right_edge_bonds():
    hop = HoppingSet(terms=((1, 1.0 + 0j),))
    small = ModelSpec(
        L=20,
        boundary=Boundary.OPEN,
        hoppings=hop,
        perturbations=(PerturbationTerm(1, 2, 0.3j), PerturbationTerm(19, 20, -0.3j)),
    )
    expected = ModelSpec(
        L=40,
        boundary=Boundary.OPEN,
        hoppings=hop,
        perturbations=(PerturbationTerm(1, 2, 0.3j), PerturbationTerm(39, 40, -0.3j)),
    )
    assert small.resized(40) == expected


_HOPPINGS = {
    1: ((1, 0.8 - 0.3j),),
    2: ((1, 1.0), (2, 0.4 + 0.2j)),
    3: ((1, 1.0), (2, -0.3 + 0.1j), (3, 0.2 + 0.15j)),
}


@pytest.mark.parametrize("boundary", list(Boundary))
@pytest.mark.parametrize("M", sorted(_HOPPINGS))
@pytest.mark.parametrize("size", ["2M+1", "2M+2", "40"])
def test_build_hamiltonian_matches_elementwise_reference(boundary, M, size):
    L = {"2M+1": 2 * M + 1, "2M+2": 2 * M + 2, "40": 40}[size]
    theta = 0.37
    spec = ModelSpec(
        L=L,
        boundary=boundary,
        hoppings=HoppingSet(_HOPPINGS[M]),
        flux_theta=theta,
        perturbations=(PerturbationTerm(1, 1, 0.5j), PerturbationTerm(L, 2, 0.2 - 0.1j)),
    )
    periodic = boundary is Boundary.PERIODIC
    H = np.zeros((L, L), complex)
    for n, t in spec.hoppings.items():
        hop = t * cmath.exp(1j * n * theta) if periodic else t
        for i in range(L if periodic else L - n):
            H[i, (i + n) % L] += hop
            H[(i + n) % L, i] += np.conj(hop)
    H[0, 0] += 0.5j
    H[L - 1, 1] += 0.2 - 0.1j
    assert np.array_equal(build_hamiltonian(spec), H)

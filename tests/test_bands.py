import math

import numpy as np
import pytest

from ptlattice import (
    Boundary,
    HoppingSet,
    analysis,
    band_energy,
    bands,
    classify_spectrum,
    criterion_check,
    eigen,
    equal_energy_points,
    pt_breaking_window,
    solve,
)
from ptlattice.analysis import continuous_complex_indices
from ptlattice.bands import _critical_values
from conftest import nnn_chain, random_model


NN = HoppingSet(terms=((1, 1.0 + 0j),))


def _nnn(t2):
    return HoppingSet(terms=((1, 1.0 + 0j), (2, complex(t2))))


def test_band_energy_matches_the_cosine_sum():
    # the band is the dispersion E(beta) at beta = e^{ik}; against the sum
    # of 2 Re(t_n e^{ikn}) it may differ only by roundoff
    rng = np.random.default_rng(7)
    for _ in range(200):
        M = int(rng.integers(1, 4))
        h = HoppingSet(tuple((n, complex(*rng.normal(size=2))) for n in range(1, M + 1)))
        tol = 1e-13 * (1.0 + sum(abs(t) for _, t in h.items()))
        for k in rng.uniform(0.0, 2.0 * math.pi, 9):
            reference = sum(2.0 * (t * np.exp(1j * k * n)).real for n, t in h.items())
            assert abs(band_energy(h, float(k)) - reference) <= tol


def test_band_energy_examples():
    assert band_energy(NN, 0.0) == pytest.approx(2.0)
    assert band_energy(NN, math.pi) == pytest.approx(-2.0)
    assert band_energy(NN, math.pi / 2) == pytest.approx(0.0, abs=1e-12)
    h = _nnn(0.5)
    assert band_energy(h, 0.0) == pytest.approx(2.0 + 1.0)
    assert band_energy(h, math.pi) == pytest.approx(-2.0 + 1.0)


def test_equal_energy_points_nearest_neighbor():
    ks = equal_energy_points(NN, 0.0)
    assert len(ks) == 2
    assert np.allclose(sorted(ks), [math.pi / 2, 3 * math.pi / 2], atol=1e-9)


def test_equal_energy_points_four_solutions():
    # for t2 = 0.5 the band is non-monotonic and epsilon = -1.2 is hit 4 times
    ks = equal_energy_points(_nnn(0.5), -1.2)
    assert len(ks) == 4
    for k in ks:
        assert band_energy(_nnn(0.5), k) == pytest.approx(-1.2, abs=1e-9)


def test_equal_energy_points_outside_band():
    assert equal_energy_points(NN, 5.0) == []


@pytest.mark.parametrize(
    "h, eps, expected",
    [
        (NN, 2.0, [0.0]),
        (NN, -2.0, [math.pi]),
        (_nnn(0.5), 3.0, [0.0]),
        (_nnn(0.5), -1.0, [math.pi / 2, math.pi, 3 * math.pi / 2]),
        (_nnn(0.5), -1.5, [2 * math.pi / 3, 4 * math.pi / 3]),
    ],
    ids=["nn-top", "nn-bottom", "t2=0.5-top", "t2=0.5-local-max", "t2=0.5-min"],
)
def test_equal_energy_points_tangency(h, eps, expected):
    # at a critical value the double root splits by roundoff; it counts once
    assert equal_energy_points(h, eps) == pytest.approx(expected, abs=1e-6)


def test_equal_energy_points_triple_root():
    # t2 = 1/4: E(k) = -1.5 + O((k - pi)^4), a triple root split by ~1e-4 rad
    ks = equal_energy_points(_nnn(0.25), -1.5)
    assert len(ks) == 1
    assert abs(ks[0] - math.pi) < 1e-3


def test_window_empty_for_small_t2():
    for t2 in (0.05, 0.1, 0.2):
        win = pt_breaking_window(_nnn(t2))
        assert win.intervals == ()


@pytest.mark.parametrize("t2", [0.3, 0.5, 0.75, 1.0, 2.0])
def test_window_for_large_t2(t2):
    # interior minimum -1/(4 t2) - 2 t2 at cos k = -1/(4 t2); local maximum
    # 2 t2 - 2 at k = pi
    win = pt_breaking_window(_nnn(t2))
    assert len(win.intervals) == 1
    lo, hi = win.intervals[0]
    assert lo == pytest.approx(-1.0 / (4.0 * t2) - 2.0 * t2, abs=1e-10)
    assert hi == pytest.approx(2.0 * t2 - 2.0, abs=1e-10)
    assert win.multiplicity[0] >= 4


def test_window_degenerate_at_quarter():
    # t2 = 0.25 is the marginal value: the extra extremum just appears
    win = pt_breaking_window(_nnn(0.25))
    if win.intervals:
        lo, hi = win.intervals[0]
        assert hi - lo < 1e-6


def test_equal_energy_counts_even():
    h = _nnn(0.5)
    for eps in np.linspace(-1.4, 2.9, 17):
        ks = equal_energy_points(h, eps)
        assert len(ks) % 2 == 0


def test_criterion_check_real_inside_window():
    report = criterion_check(nnn_chain(100, 1.0, 0.5, 0.8))
    lo, hi = report.window.intervals[0]
    assert (lo, hi) == pytest.approx((-1.5, -1.0), abs=1e-9)
    assert report.violations == ()
    assert report.complex_energies_inside


def test_criterion_check_no_window_no_complex():
    report = criterion_check(nnn_chain(100, 1.0, 0.1, 1.5))
    assert report.window.intervals == ()
    assert report.violations == ()
    assert report.complex_energies_inside


def test_criterion_check_rejects_periodic():
    from conftest import flux_ring

    with pytest.raises(ValueError):
        criterion_check(flux_ring(20, 0.3, 0.5))


def test_report_json_round_trip():
    import json

    report = criterion_check(nnn_chain(60, 1.0, 0.5, 0.8))
    blob = json.loads(report.to_json())
    assert "window" in blob and "violations" in blob


def _out_of_window(spec, values, indices):
    """The indices whose Re E lies outside every window interval widened by
    5 * bandwidth / L."""
    intervals = pt_breaking_window(spec.hoppings).intervals
    critical = _critical_values(spec.hoppings)
    tol = 5.0 * (critical[-1] - critical[0]) / spec.L
    return [
        i for i in indices if not any(lo - tol <= values[i].real <= hi + tol for lo, hi in intervals)
    ]


def _reference_violations(spec):
    """The continuum rule, size-doubling test included, on every complex
    state, then the states outside the widened window."""
    spectrum, scale = solve(spec)
    values = spectrum.eigenvalues
    continuum = continuous_complex_indices(spec, spectrum, scale, scaling_check=True)
    return tuple(
        (i, float(values[i].real), float(values[i].imag))
        for i in _out_of_window(spec, values, continuum)
    )


@pytest.mark.parametrize("t2", [0.05, 0.1, 0.2, 0.5])
def test_criterion_violations_match_the_rule_on_every_complex_state_nnn(t2):
    # the criterion-5 grid: refining only the out-of-window states must
    # give the report that refining all of them gives
    for g in np.linspace(0.0, 2.0, 21):
        spec = nnn_chain(100, 1.0, t2, float(g))
        assert criterion_check(spec).violations == _reference_violations(spec), g


def test_criterion_violations_match_the_rule_on_every_complex_state_random():
    specs = [s for s in map(random_model, range(400)) if s.boundary is Boundary.OPEN]
    assert len(specs) >= 190
    with_violations = 0
    for spec in specs:
        violations = criterion_check(spec).violations
        assert violations == _reference_violations(spec), spec
        with_violations += bool(violations)
    # the comparison is not trivially between empty reports
    assert with_violations > 50


# open random models at their native L = 40 whose report gains one state
# from the eigenvalue rule: (seed, index, energy).  Each is an extended
# standing wave whose nodes fall in the half-windows, so the vector fit reads
# |c| > 10, while its c_beta is below 1
_GAINED_VIOLATIONS = [
    (133, 2, -5.0568764804 - 0.0011521709j),
    (330, 37, 3.6313192436 + 0.0006769007j),
    (923, 2, -7.5024837127 + 0.0086367415j),
    (1809, 2, -5.2373472207 + 0.0438617285j),
    (2856, 2, -3.8908600119 - 0.0004626352j),
]


@pytest.mark.parametrize(
    "seed, index, energy", _GAINED_VIOLATIONS, ids=[str(v[0]) for v in _GAINED_VIOLATIONS]
)
def test_criterion_gains_the_standing_waves_that_the_vector_fit_calls_bound(seed, index, energy):
    spec = random_model(seed)
    assert spec.L == 40 and spec.boundary is Boundary.OPEN
    dense, scale = solve(spec)
    outside = _out_of_window(
        spec, dense.eigenvalues, classify_spectrum(dense, scale).complex_indices
    )
    # the report of the eigenvector rule: the |c| cut, then size-doubling
    c = analysis._localization_constants(dense.vector(outside), spec.max_range)
    kept = [i for i, ci in zip(outside, c) if not ci > analysis.C_BOUND_CUT]
    by_vectors = set(kept) - set(analysis.bound_states_by_scaling(spec, dense, kept))
    report = criterion_check(spec)
    assert [v[0] for v in report.violations] == sorted(by_vectors | {index})
    assert index not in by_vectors
    assert abs(dense.eigenvalues[index] - energy) < 1e-9
    assert analysis._localization_constants(dense.vector([index]), spec.max_range)[0] > 10
    assert analysis._c_beta(spec, dense.eigenvalues[[index]])[0] < 1


def test_critical_values_merge_across_a_rounding_midpoint(monkeypatch):
    # one critical energy evaluated twice, an ulp either side of a 12-digit
    # rounding midpoint, is one critical value
    x = float("0.1234567890125")
    twins = [np.nextafter(x, 0.0), np.nextafter(x, 1.0)]
    assert round(twins[0], 12) != round(twins[1], 12)
    energies = np.array([-3.0, twins[1], 1.0, twins[0]], dtype=complex)
    monkeypatch.setattr(bands, "_dispersion", lambda h, roots: energies)
    assert _critical_values(NN) == [-3.0, twins[0], 1.0]


@pytest.fixture
def scaling_calls(monkeypatch):
    """The candidates of every size-doubling test run, in call order."""
    calls = []
    original = analysis.bound_states_by_scaling

    def record(spec, spectrum, candidates):
        calls.append(list(candidates))
        return original(spec, spectrum, candidates)

    monkeypatch.setattr(analysis, "bound_states_by_scaling", record)
    return calls


def test_criterion_skips_the_size_doubling_test_inside_the_window(scaling_calls):
    # every complex state of this chain lies inside the widened window
    report = criterion_check(nnn_chain(400, 1.0, 0.5, 0.3))
    assert report.violations == ()
    assert scaling_calls == []


@pytest.mark.parametrize("t2, g", [(0.05, 1.0), (0.5, 0.9)])
def test_criterion_refines_only_out_of_window_candidates(scaling_calls, t2, g):
    # t2 = 0.05 has an empty window; at t2 = 0.5 the window is (-1.5, -1).
    # Two complex states lie outside it and pass the c_beta cut; only the
    # size-doubling test removes them from the report
    spec = nnn_chain(100, 1.0, t2, g)
    spectrum, scale = solve(spec)
    outside = _out_of_window(
        spec, spectrum.eigenvalues, classify_spectrum(spectrum, scale).complex_indices
    )
    c = analysis._c_beta(spec, spectrum.eigenvalues[outside])
    candidates = [i for i, ci in zip(outside, c) if not ci > analysis.C_BOUND_CUT]
    assert len(candidates) == 2
    report = criterion_check(spec)
    assert scaling_calls == [candidates]
    assert report.violations == ()


def _models_with_few_out_of_window_states():
    """Models with 1 to 4 complex states outside the widened window, whose
    report reads them: two chains whose two such states the size-doubling
    test removes, and seven open random models, five of them with
    violations."""
    chains = [nnn_chain(100, 1.0, 0.5, 0.9), nnn_chain(60, 1.0, 0.05, 1.0)]
    return chains + [random_model(seed) for seed in (8, 15, 19, 39, 61, 66, 124)]


def _models_with_many_out_of_window_states():
    """Three open random models at L = 120 with violations, each with more
    than 4 complex states outside the widened window."""
    return [random_model(seed).resized(120) for seed in (1, 4, 8)]


def _reports_without_vector_solves(monkeypatch, specs):
    """The reports of `criterion_check` with the dense eigensolver and every
    linear solve made to raise; no solve may ask for eigenvectors."""
    flags = []
    solve_stack = eigen.solve_stack

    def record(specs, vectors=True):
        flags.append(vectors)
        return solve_stack(specs, vectors)

    def no_vectors(*args, **kwargs):
        raise AssertionError("criterion_check solved for eigenvectors")

    with monkeypatch.context() as m:
        m.setattr(eigen, "solve_stack", record)
        m.setattr(np.linalg, "eig", no_vectors)
        m.setattr(np.linalg, "solve", no_vectors)
        reports = [criterion_check(spec) for spec in specs]
    assert flags and not any(flags)
    return reports


# The next three tests keep the names of the checks of the inverse-iteration
# path, its dense fallback and its 4-state cap; `criterion_check` now takes
# one values-only path on the same models, so each checks that path.


def test_criterion_solves_no_eigenvectors_when_inverse_iteration_succeeds(monkeypatch):
    reports = _reports_without_vector_solves(monkeypatch, _models_with_few_out_of_window_states())
    assert sum(bool(r.violations) for r in reports) == 5


def test_criterion_falls_back_to_the_dense_solve(monkeypatch):
    # the values-only report is the dense reference's, bit for bit
    specs = _models_with_few_out_of_window_states()
    references = [_reference_violations(spec) for spec in specs]
    reports = _reports_without_vector_solves(monkeypatch, specs)
    assert [r.violations for r in reports] == references
    assert sum(map(bool, references)) == 5


def test_criterion_solves_all_vectors_for_many_out_of_window_states(monkeypatch):
    # at L = 120 the values-only solve differs from the dense one in the
    # last bits: the report has the dense reference's states, with energies
    # within 1e-14 ||H||_F
    specs = _models_with_many_out_of_window_states()
    references = [_reference_violations(spec) for spec in specs]
    scales = [solve(spec, vectors=False)[1] for spec in specs]
    reports = _reports_without_vector_solves(monkeypatch, specs)
    assert all(references)
    for report, reference, scale in zip(reports, references, scales):
        assert [v[0] for v in report.violations] == [v[0] for v in reference]
        got, want = (np.array([complex(re, im) for _, re, im in v]) for v in (report.violations, reference))
        assert np.max(np.abs(got - want)) <= 1e-14 * scale


@pytest.mark.parametrize("t2", [0.05, 0.2, 0.5, 0.8])
@pytest.mark.parametrize("g", [0.3, 1.0])
def test_criterion_matches_the_dense_rule_at_L_400(t2, g):
    # at L = 400 the values-only solve and the dense one differ in the last
    # bits: the window and the violating states are the same, and each
    # violation energy agrees to 1e-12 ||H||_F
    spec = nnn_chain(400, 1.0, t2, g)
    report = criterion_check(spec)
    dense, scale = solve(spec)
    values = dense.eigenvalues
    read = _out_of_window(spec, values, classify_spectrum(dense, scale).complex_indices)
    # the rule on the dense solve's states outside the widened window (the
    # L <= 100 tests above check that these are the states that matter)
    reference = analysis._continuum(spec, dense, read, scaling=True)
    assert report.window == pt_breaking_window(spec.hoppings)
    assert [v[0] for v in report.violations] == reference
    for i, re, im in report.violations:
        assert abs(complex(re, im) - values[i]) <= 1e-12 * scale

"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line before asserting, so the verdicts
survive in captured output even when a criterion fails.
"""

import math

import numpy as np
import pytest

from ptlattice import (
    AxisSpec,
    Metric,
    SweepConfig,
    boundary_determinant,
    build_hamiltonian,
    characteristic_roots,
    chiral_symmetry_check,
    classify_spectrum,
    criterion_check,
    detect_bound_states,
    eff_h_obc,
    eff_h_pbc,
    eig,
    fit_scale_free,
    frobenius_norm,
    run_sweep,
    threshold_extract,
    threshold_pbc,
    unitary_scan,
)
from ptlattice.analysis import (
    continuous_complex_indices,
    mean_position_curve,
    self_similarity_deviation,
)
from ptlattice.sweep import write_grid_csv
from conftest import flux_ring, gain_chain, nnn_chain


def _verdict(n, ok, detail):
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return ok


def test_criterion_01_exact_spectra():
    # open chain baseline
    H = build_hamiltonian(gain_chain(50, g=0.0))
    got = np.sort(eig(H).eigenvalues.real)
    want = np.sort([2 * math.cos(m * math.pi / 51) for m in range(1, 51)])
    err_obc = float(np.max(np.abs(got - want)))

    theta = 0.37
    Hp = build_hamiltonian(flux_ring(50, theta, 0.0))
    got_p = np.sort_complex(eig(Hp).eigenvalues)
    want_p = np.sort_complex(
        np.array([2 * np.cos(2 * math.pi * n / 50 + theta) for n in range(50)], complex)
    )
    dist = np.abs(got_p[:, None] - want_p[None, :])
    err_pbc = float(max(np.max(dist.min(axis=0)), np.max(dist.min(axis=1))))

    ok = err_obc < 1e-10 and err_pbc < 1e-10
    assert _verdict(1, ok, f"spectrum errors obc={err_obc:.2e} pbc={err_pbc:.2e} (tol 1e-10)")


def _position_curves(g, sizes):
    return {
        L: mean_position_curve(eig(build_hamiltonian(gain_chain(L, g=g))))
        for L in sizes
    }


def test_criterion_02_scale_free_localization():
    sizes = [100, 200, 400, 800]
    fit = fit_scale_free(lambda L: gain_chain(L, g=1.0), sizes)
    spread_ok = fit.status == "ok" and fit.c_relative_spread < 0.05
    slope_ok = abs(fit.im_scaling_exponent - (-1.0)) <= 0.1

    # uniform collapse below the bound-state onset g = t, where every
    # decay constant obeys |c| <= ln((t + g)/(t - g))/2
    dev = self_similarity_deviation(_position_curves(0.9, sizes))
    similar_ok = dev <= 0.02

    # at the onset g = t the band-centre mode's c grows like ln L, so its
    # distance to the largest size falls only as ln(L_max/L); the collapse
    # there is checked to converge rather than to a fixed bound
    critical = _position_curves(1.0, sizes)
    devs_critical = [
        self_similarity_deviation({L: critical[L], sizes[-1]: critical[sizes[-1]]})
        for L in sizes[:-1]
    ]
    converging = all(b < a for a, b in zip(devs_critical, devs_critical[1:]))

    ok = spread_ok and slope_ok and similar_ok and converging
    assert _verdict(
        2,
        ok,
        f"c spread={fit.c_relative_spread:.4f} (<0.05), "
        f"im exponent={fit.im_scaling_exponent:.4f} (-1.0±0.1), "
        f"self-similarity dev at g=0.9={dev:.4f} (<=0.02), "
        f"at g=1.0 by size={[round(d, 4) for d in devs_critical]} (decreasing)",
    )


def test_criterion_03_bound_state_onset():
    below_spec = gain_chain(100, g=0.9)
    below = eig(build_hamiltonian(below_spec))
    none_below = detect_bound_states(below, below_spec) == []

    above_spec = gain_chain(100, g=1.5)
    above = eig(build_hamiltonian(above_spec))
    idx = detect_bound_states(above, above_spec)
    one_above = len(idx) == 1
    rel = math.inf
    if one_above:
        predicted = 1j * (1.5 - 1.0 / 1.5)
        rel = abs(above.eigenvalues[idx[0]] - predicted) / abs(predicted)

    ok = none_below and one_above and rel < 0.02
    assert _verdict(
        3,
        ok,
        f"g=0.9 bound states={0 if none_below else 'some'}, "
        f"g=1.5 count={len(idx)}, eigenvalue rel err={rel:.4f} (<0.02)",
    )


def test_criterion_04_pbc_threshold_sweep():
    L = 100
    base = flux_ring(L, 0.2 / L, 1.0, phi=math.pi / 2)
    config = SweepConfig(
        base_model=base,
        axis1=AxisSpec("flux_theta", 0.2 / L, 1.0 / L, 40),
        axis2=AxisSpec("g", 0.0, 1.5, 60),
        metric=Metric.PCOM,
    )
    grid = run_sweep(config, threads=4)
    onsets = threshold_extract(grid)
    worst = 0.0
    missing = 0
    for theta, onset in onsets:
        predicted = L * math.sin(theta)
        if onset is None:
            missing += 1
            continue
        worst = max(worst, abs(onset - predicted) / predicted)
    ok = missing == 0 and worst < 0.10
    assert _verdict(
        4, ok, f"onset rel err worst={worst:.4f} (<0.10), columns without onset={missing}"
    )


def test_criterion_05_obc_criterion():
    L = 100
    gs = np.linspace(0.0, 2.0, 21)
    leaks = {}
    for t2 in (0.05, 0.1, 0.2):
        n_complex = 0
        for g in gs:
            spec = nnn_chain(L, 1.0, t2, float(g))
            H = build_hamiltonian(spec)
            spectrum = eig(H)
            idx = continuous_complex_indices(
                spec, spectrum, frobenius_norm(H), scaling_check=True
            )
            n_complex += len(idx)
        leaks[t2] = n_complex
    small_ok = all(v == 0 for v in leaks.values())

    breaks_at_small_g = False
    for g in np.linspace(0.05, 1.0, 20):
        spec = nnn_chain(L, 1.0, 0.5, float(g))
        H = build_hamiltonian(spec)
        idx = continuous_complex_indices(spec, eig(H), frobenius_norm(H), scaling_check=True)
        if idx:
            breaks_at_small_g = True
            break

    violations = 0
    for g in gs[1:]:
        report = criterion_check(nnn_chain(L, 1.0, 0.5, float(g)))
        violations += len(report.violations)

    ok = small_ok and breaks_at_small_g and violations == 0
    assert _verdict(
        5,
        ok,
        f"small-t2 complex counts={leaks}, t2=0.5 breaks at g<=1: {breaks_at_small_g}, "
        f"window violations={violations}",
    )


def test_criterion_06_boundary_determinant_oracle():
    rng = np.random.default_rng(2024)
    worst_on, best_off, n_off = 0.0, math.inf, 0
    for spec in (gain_chain(40, g=1.2), flux_ring(40, 0.4, 0.8, phi=math.pi / 2)):
        H = build_hamiltonian(spec)
        vals = eig(H).eigenvalues
        for E in vals:
            det = boundary_determinant(spec, characteristic_roots(spec.hoppings, complex(E)))
            worst_on = max(worst_on, det.normalized_magnitude)
        while n_off < 100:
            E = complex(rng.uniform(-2.5, 2.5), rng.uniform(-1.0, 1.0))
            if np.min(np.abs(vals - E)) < 0.05:
                continue
            det = boundary_determinant(spec, characteristic_roots(spec.hoppings, E))
            best_off = min(best_off, det.normalized_magnitude)
            n_off += 1
    ok = worst_on < 1e-6 and best_off > 1e-3
    assert _verdict(
        6,
        ok,
        f"max det at eigenvalues={worst_on:.2e} (<1e-6), "
        f"min det off spectrum={best_off:.2e} (>1e-3)",
    )


def test_criterion_07_unitary_scan_consistency():
    L, phi = 40, math.pi / 2
    worst = 0.0
    for theta in (0.3, 0.5):
        g_lo, g_hi = 0.0, 1.5
        res = unitary_scan(
            {"t": 1.0, "g_range": (g_lo, g_hi), "theta": theta, "phi": phi, "L": L}, 2000
        )
        cell = (g_hi - g_lo) / 500
        gs = np.linspace(g_lo, g_hi, 501)
        broken = np.array(
            [
                classify_spectrum(
                    eig(build_hamiltonian(flux_ring(L, theta, float(g), phi=phi))),
                    frobenius_norm(build_hamiltonian(flux_ring(L, theta, float(g), phi=phi))),
                ).p_com
                > 0
                for g in gs
            ]
        )
        edges = np.flatnonzero(np.diff(broken.astype(int)))
        diag_intervals = []
        starts = [gs[e + 1] for e in edges[::2]]
        ends = [gs[e] for e in edges[1::2]]
        for s, e in zip(starts, ends + [gs[-1]] * (len(starts) - len(ends))):
            diag_intervals.append((s, e))
        scan_intervals = list(res.broken_g_intervals)
        assert len(scan_intervals) == len(diag_intervals)
        for (a, b), (c, d) in zip(scan_intervals, diag_intervals):
            worst = max(worst, abs(a - c), abs(b - d))
    ok = worst <= cell + 1e-12
    assert _verdict(
        7, ok, f"interval endpoint mismatch={worst:.4g} (<= one grid cell {cell:.4g})"
    )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_criterion_08_effective_theory():
    # second-order two-level block against the nearest pair of full-model
    # eigenvalues (the first-order block is off by O(1/L), not O(1/L^2));
    # small mode indices trigger the truncation warning by design
    L, Phi, phi, g = 200, 0.3, math.pi / 2, 0.5
    theta = Phi / L
    H = build_hamiltonian(flux_ring(L, theta, g, phi=phi))
    vals = eig(H).eigenvalues
    best = math.inf
    for n in range(1, L // 2):
        block = eff_h_pbc(n=n, L=L, theta=theta, phi=phi, g=g, t=1.0, order=2)
        pred = block.eigenvalues()
        err = 0.0
        used = vals.copy()
        for p in pred:
            j = int(np.argmin(np.abs(used - p)))
            err = max(err, float(np.abs(used[j] - p)))
            used = np.delete(used, j)
        best = min(best, err)
    pbc_ok = best < 5.0 / L**2

    # zero-gap block breaks at any g > 0
    plus, _ = eff_h_obc(0.0, 0.05, (0.0, 1.0, 0.0))
    predicts_breaking = plus.imag > 0

    # confirmed on a degeneracy point of the t2 = 0.5 band: a chain with the
    # boundary potential tuned so the projected gap closes goes complex at
    # g = 0.05
    spec = nnn_chain(100, 1.0, 0.5, 0.05)
    Hc = build_hamiltonian(spec)
    idx = continuous_complex_indices(spec, eig(Hc), frobenius_norm(Hc), scaling_check=True)
    confirmed = len(idx) > 0

    ok = pbc_ok and predicts_breaking and confirmed
    assert _verdict(
        8,
        ok,
        f"second-order two-level eigenvalue error={best:.4g} (<{5.0 / L**2:.4g}), "
        f"zero-gap block Im>0 at g=0.05: {predicts_breaking}, "
        f"full model complex at g=0.05: {confirmed}",
    )


def test_criterion_09_chiral_stability():
    L = 100
    theta = 0.25 * 2 * math.pi / L
    phi, g_block = math.pi / 2, 0.5
    from ptlattice.effective import ring_multiband_projection

    # a ring level sits exactly at E = 0 only for L = 4n + 1, where the
    # projected block is exactly chiral
    L_odd = 4 * 25 + 1
    block_odd = ring_multiband_projection(
        L_odd, L_odd // 4, 1, 0.25 * 2 * math.pi / L_odd, phi, g_block, 1.0
    )
    chiral_ok = chiral_symmetry_check(block_odd)
    # at even L the outer couplings differ by (2g/L)(1 - cos(pi/L)), which
    # is at most g pi^2 / L^3
    block = ring_multiband_projection(L, L // 4, 1, theta, phi, g_block, 1.0)
    even_bound = g_block * math.pi**2 / L**3
    near_chiral_ok = chiral_symmetry_check(block, tol=even_bound)

    # P_com of the extensive spectrum: isolated bound states excluded,
    # as in the open-chain criterion
    all_real = True
    for g in np.linspace(0.0, 2.0, 21):
        spec = flux_ring(L, theta, float(g), phi=phi)
        H = build_hamiltonian(spec)
        idx = continuous_complex_indices(
            spec, eig(H), frobenius_norm(H), scaling_check=True
        )
        if idx:
            all_real = False
            break

    ok = chiral_ok and near_chiral_ok and all_real
    assert _verdict(
        9,
        ok,
        f"chiral_symmetry_check at L={L_odd}: {chiral_ok}, "
        f"at L={L} within {even_bound:.4g}: {near_chiral_ok}, "
        f"P_com=0 over g in [0,2]: {all_real}",
    )


def test_criterion_10_determinism(tmp_path):
    base = flux_ring(40, 0.2, 0.5, phi=math.pi / 2)
    config = SweepConfig(
        base_model=base,
        axis1=AxisSpec("flux_theta", 0.05, 0.3, 4),
        axis2=AxisSpec("g", 0.0, 1.2, 8),
        metric=Metric.PCOM,
    )
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_grid_csv(run_sweep(config, threads=1), p1)
    write_grid_csv(run_sweep(config, threads=5), p2)
    ok = p1.read_bytes() == p2.read_bytes()
    assert _verdict(10, ok, f"CSV grids bit-identical across thread counts: {ok}")

import hashlib
import json
import math
import re
import threading
from dataclasses import replace as dc_replace

import numpy as np
import pytest

from ptlattice import (
    AxisSpec,
    Boundary,
    Metric,
    ModelSpec,
    PhaseGrid,
    SweepConfig,
    run_sweep,
    threshold_extract,
)
from ptlattice import ring_equation, sweep
from ptlattice.analysis import classify_spectrum, detect_bound_states
from ptlattice.cli import main
from ptlattice.eigen import EigensolverError, _openblas_thread_controls, solve, solve_stack
from ptlattice.lattice import is_pt_symmetric
from ptlattice.nonbloch import _ring_parameters
from ptlattice.sweep import (
    _csv_line,
    _first_onset,
    apply_parameter,
    config_hash,
    uncertain_onsets,
    write_grid_csv,
)
from conftest import flux_ring, nnn_chain, not_rings

needs_openblas = pytest.mark.skipif(
    _openblas_thread_controls() is None, reason="no OpenBLAS thread control found in numpy"
)


def _small_config():
    base = flux_ring(20, 0.1, 0.5, phi=math.pi / 2)
    return SweepConfig(
        base_model=base,
        axis1=AxisSpec("flux_theta", 0.05, 0.2, 3),
        axis2=AxisSpec("g", 0.0, 1.2, 5),
        metric=Metric.PCOM,
    )


def _dense_config():
    """_small_config's grid on its ring with a second-neighbour hopping
    t2 = 0.01, which the ring count does not read: every point is solved."""
    cfg = _small_config()
    return dc_replace(cfg, base_model=apply_parameter(cfg.base_model, "t2", 0.01))


def test_axis_spec_validation():
    with pytest.raises(ValueError):
        AxisSpec("unknown", 0.0, 1.0, 5)
    with pytest.raises(ValueError):
        AxisSpec("g", 0.0, 1.0, 1)


def test_axis_values_are_linear():
    ax = AxisSpec("g", 0.0, 1.0, 5)
    assert np.allclose(ax.values, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_apply_parameter_paths():
    spec = flux_ring(10, 0.2, 0.5, phi=0.7)
    s2 = apply_parameter(spec, "flux_theta", 0.4)
    assert s2.flux_theta == pytest.approx(0.4)
    s3 = apply_parameter(spec, "g", 1.5)
    assert all(abs(p.amplitude) == pytest.approx(1.5) for p in s3.perturbations)
    # phases preserved under g scaling
    import cmath

    assert sorted(round(cmath.phase(p.amplitude), 9) for p in s3.perturbations) == sorted(
        round(cmath.phase(p.amplitude), 9) for p in spec.perturbations
    )
    s4 = apply_parameter(spec, "phi", 1.2)
    phases = sorted(cmath.phase(p.amplitude) for p in s4.perturbations)
    assert phases == pytest.approx([-1.2, 1.2])
    s5 = apply_parameter(spec, "t2", 0.3)
    assert s5.hoppings.amplitude(2) == 0.3
    s6 = apply_parameter(s5, "t2", 0.0)
    assert s6.hoppings.max_range == 1
    with pytest.raises(ValueError):
        apply_parameter(spec, "nonsense", 1.0)


def test_apply_parameter_rejects_zero_base_amplitude():
    spec = flux_ring(10, 0.2, 0.0, phi=0.7)
    with pytest.raises(ValueError):
        apply_parameter(spec, "g", 1.0)


def test_phi_axis_keeps_a_phi_zero_ring_pt_symmetric():
    # the site-L amplitude g - 0j once read as a phase >= 0, so both ends
    # came out e^(+i phi) and the swept ring was no longer PT-symmetric
    swept = apply_parameter(flux_ring(10, 0.2, 0.5, phi=0.0), "phi", 1.0)
    assert is_pt_symmetric(swept)
    assert _ring_parameters(swept)[0].phi == 1.0


@pytest.mark.parametrize("end", [{"re": 0.5, "im": 0.0}, {"re": 0.5}], ids=["im_plus_zero", "no_im"])
def test_phi_axis_keeps_a_real_ended_ring_pt_symmetric(end):
    # ends written as real numbers carry Im = +0.0 at both sites, which once
    # gave both ends e^(+i phi)
    ring = ModelSpec.from_json_dict(
        {
            "L": 10,
            "boundary": "periodic",
            "hoppings": [{"range": 1, "re": 1.0}],
            "flux_theta": 0.2,
            "perturbations": [{"i": 1, "j": 1, **end}, {"i": 10, "j": 10, **end}],
        }
    )
    assert _ring_parameters(ring)[0].phi == 0.0
    swept = apply_parameter(ring, "phi", 1.0)
    assert is_pt_symmetric(swept)
    assert _ring_parameters(swept)[0].phi == 1.0


@pytest.mark.parametrize("path", ["g", "phi"])
def test_apply_parameter_needs_a_perturbation(path):
    spec = dc_replace(flux_ring(10, 0.2, 0.5), perturbations=())
    with pytest.raises(ValueError, match=f"parameter '{path}'"):
        apply_parameter(spec, path, 1.0)


@pytest.mark.parametrize("parameter", ["bogus", None])
def test_axis_rejects_an_unknown_parameter(parameter):
    match = re.escape(f"parameter must be one of {sweep.PARAMETER_PATHS}, got {parameter!r}")
    with pytest.raises(ValueError, match=match):
        AxisSpec(parameter, 0.0, 1.0, 2)


@pytest.mark.parametrize("path", ["g", "phi"])
def test_scan_over_a_missing_perturbation_exits_1(tmp_path, capsys, path):
    # a g or phi axis on a model with no perturbation once gave a constant grid
    doc = {
        "base_model": dc_replace(flux_ring(16, 0.1, 0.5), perturbations=()).to_json_dict(),
        "axis1": {"parameter": "flux_theta", "min": 0.05, "max": 0.15, "steps": 2},
        "axis2": {"parameter": path, "min": 0.0, "max": 1.0, "steps": 4},
        "metric": "PCom",
    }
    cfg = tmp_path / "scan.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main(["scan", "--config", str(cfg), "--out", str(out)]) == 1
    assert f"parameter '{path}'" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_scan_over_one_parameter_twice_exits_1(tmp_path, capsys):
    # axis2 once overwrote axis1: every grid row was the same, under a
    # g,g,value header
    doc = {
        "base_model": flux_ring(24, 0.4, 0.8).to_json_dict(),
        "axis1": {"parameter": "g", "min": 0.2, "max": 0.5, "steps": 2},
        "axis2": {"parameter": "g", "min": 0.2, "max": 1.0, "steps": 3},
        "metric": "PCom",
    }
    cfg = tmp_path / "scan.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main(["scan", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "axis1 and axis2 both sweep 'g'" in err
    assert list(out.iterdir()) == []


def test_sweep_deterministic_across_thread_counts():
    cfg = _small_config()
    g1 = run_sweep(cfg, threads=1)
    g4 = run_sweep(cfg, threads=4)
    assert np.array_equal(g1.values, g4.values)


def test_sweep_zero_gain_column_is_real(tmp_path):
    cfg = _small_config()
    grid = run_sweep(cfg, threads=2)
    # axis2 starts at g = 0 where the ring is Hermitian
    assert np.all(grid.values[:, 0] == 0.0)
    assert np.all(grid.values >= 0.0)


def test_sweep_cache_resume(tmp_path):
    cfg = _small_config()
    g1 = run_sweep(cfg, threads=2, cache_dir=tmp_path)
    cache = tmp_path / f"sweep_{config_hash(cfg)}.csv"
    assert cache.exists()
    n_lines = len(cache.read_text().splitlines())
    assert n_lines == 3 * 5
    g2 = run_sweep(cfg, threads=2, cache_dir=tmp_path)
    assert np.array_equal(g1.values, g2.values)
    assert len(cache.read_text().splitlines()) == n_lines  # nothing recomputed


@pytest.mark.parametrize("torn", ["0,1", "0,1,0.2"])
def test_sweep_cache_torn_last_line(tmp_path, torn):
    # an interrupted write leaves a last line without its newline; that point
    # is recomputed and the next append does not join onto the fragment
    cfg = _small_config()
    fresh = run_sweep(cfg, threads=1)
    cache = tmp_path / f"sweep_{config_hash(cfg)}.csv"
    run_sweep(cfg, threads=1, cache_dir=tmp_path)
    lines = cache.read_text().splitlines()
    kept = [line for line in lines if not line.startswith("0,1,")]
    cache.write_text("\n".join(kept) + "\n" + torn)
    resumed = run_sweep(cfg, threads=2, cache_dir=tmp_path)
    assert np.array_equal(resumed.values, fresh.values)
    assert sorted(cache.read_text().splitlines()) == sorted(lines)

    cache.write_text("\n".join(kept) + "\n" + torn)
    doc = tmp_path / "scan.json"
    doc.write_text(json.dumps(cfg.to_json_dict()))
    assert main(["scan", "--config", str(doc), "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("bad", ["0,1", "0,1,abc", "x,y,z", "-1,0,0.5", "99,0,0.5"])
def test_sweep_cache_malformed_line(tmp_path, bad):
    # a complete line that is not an in-grid int,int,float point is skipped;
    # the missing point is recomputed and appended after it
    cfg = _small_config()
    fresh = run_sweep(cfg, threads=1)
    cache = tmp_path / f"sweep_{config_hash(cfg)}.csv"
    run_sweep(cfg, threads=1, cache_dir=tmp_path)
    lines = cache.read_text().splitlines()
    kept = [line for line in lines if not line.startswith("0,1,")]
    cache.write_text("\n".join([*kept, bad]) + "\n")
    resumed = run_sweep(cfg, threads=2, cache_dir=tmp_path)
    assert np.array_equal(resumed.values, fresh.values)
    assert sorted(line for line in cache.read_text().splitlines() if line != bad) == sorted(lines)

    cache.write_text("\n".join(["0,0,0", *kept, bad]) + "\n")
    doc = tmp_path / "scan.json"
    doc.write_text(json.dumps(cfg.to_json_dict()))
    assert main(["scan", "--config", str(doc), "--out", str(tmp_path)]) == 0


def test_sweep_cache_later_line_wins(tmp_path):
    cfg = _small_config()
    fresh = run_sweep(cfg, threads=1, cache_dir=tmp_path)
    cache = tmp_path / f"sweep_{config_hash(cfg)}.csv"
    cache.write_text("0,0,0.75\n" + cache.read_text())
    assert np.array_equal(run_sweep(cfg, threads=1, cache_dir=tmp_path).values, fresh.values)


@needs_openblas
def test_sweep_restores_blas_threads(monkeypatch):
    get, set_ = _openblas_thread_controls()
    original = get()
    try:
        set_(2)
        before = get()
        run_sweep(_dense_config(), threads=2)
        assert get() == before

        def broken(config, points):
            raise RuntimeError("worker failure")

        monkeypatch.setattr(sweep, "_chunk_metrics", broken)
        with pytest.raises(RuntimeError, match="worker failure"):
            run_sweep(_dense_config(), threads=2)
        assert get() == before
    finally:
        set_(original)


@needs_openblas
@pytest.mark.parametrize("threads", [1, 2])
def test_sweep_workers_see_one_blas_thread(monkeypatch, threads):
    get, _ = _openblas_thread_controls()
    seen = []

    def probe(config, points):
        seen.extend(get() for _ in points)
        return [(0.0, 0)] * len(points)

    monkeypatch.setattr(sweep, "_chunk_metrics", probe)
    grid = run_sweep(_dense_config(), threads=threads)
    assert seen == [1] * 15
    assert grid.provenance["workers"] == threads
    assert grid.provenance["blas_threads"] == 1


@needs_openblas
def test_concurrent_sweeps_restore_blas_threads(monkeypatch):
    # the pin is process-wide: overlapping sweeps keep it until the last ends
    get, set_ = _openblas_thread_controls()
    original = get()
    inside = []
    gate = threading.Barrier(2, timeout=30)

    def probe(config, points):
        if (config.axis1.min, config.axis2.min) in points:
            gate.wait()
        inside.extend(get() for _ in points)
        return [(0.0, 0)] * len(points)

    monkeypatch.setattr(sweep, "_chunk_metrics", probe)
    try:
        set_(2)
        runners = [threading.Thread(target=run_sweep, args=(_dense_config(), 1)) for _ in range(2)]
        for t in runners:
            t.start()
        for t in runners:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in runners)
        assert inside == [1] * 30
        assert get() == 2
    finally:
        set_(original)


def test_sweep_provenance(tmp_path):
    cfg = _dense_config()
    grid = run_sweep(cfg, threads=3, cache_dir=tmp_path)
    assert grid.provenance["workers"] == 3
    expected = None if _openblas_thread_controls() is None else 1
    assert grid.provenance["blas_threads"] == expected
    resumed = run_sweep(cfg, threads=3, cache_dir=tmp_path)
    assert resumed.provenance["workers"] == 0
    assert resumed.provenance["blas_threads"] is None


def _ring_config(metric, pt=True, L=60):
    base = flux_ring(L, 0.3 / L, 0.5)
    if not pt:  # gain e^{i phi} on site 1 only
        doc = base.to_json_dict()
        doc["perturbations"] = doc["perturbations"][:1]
        base = ModelSpec.from_json_dict(doc)
    return SweepConfig(
        base_model=base,
        axis1=AxisSpec("flux_theta", 0.2 / L, 1.0 / L, 3),
        axis2=AxisSpec("g", 0.0, 1.5, 7),
        metric=Metric(metric),
    )


def _per_point_reference(config):
    """The grid and near-cut points from one vector solve(spec) per point."""
    values = np.empty((config.axis1.steps, config.axis2.steps))
    near = []
    for i, v1 in enumerate(config.axis1.values):
        for j, v2 in enumerate(config.axis2.values):
            spec = apply_parameter(config.base_model, config.axis1.parameter, v1)
            spectrum, scale = solve(apply_parameter(spec, config.axis2.parameter, v2))
            cls = classify_spectrum(spectrum, scale)
            if config.metric is Metric.MAX_IM_E:
                values[i, j] = np.max(np.abs(spectrum.eigenvalues.imag))
            elif config.metric is Metric.PCOM:
                values[i, j] = cls.n_com / spec.L
            else:
                values[i, j] = 1.0 if cls.n_com > 0 else 0.0
            if cls.near_cut > 0:
                near.append([i, j])
    return values, near


@pytest.mark.parametrize("threads", [1, 2, 5])
@pytest.mark.parametrize("metric", ["PCom", "MaxImE", "ThresholdCompare"])
@pytest.mark.parametrize("pt", [True, False], ids=["pt_ring", "non_pt_ring"])
def test_values_only_sweep_matches_per_point_solve(pt, metric, threads):
    # L = 60: stacks of 9, so the 21 points make chunks of 9, 9 and 3
    config = _ring_config(metric, pt)
    grid = run_sweep(config, threads=threads)
    values, near = _per_point_reference(config)
    assert grid.provenance["stack"] == 9
    assert np.array_equal(grid.values, values)
    if metric == "MaxImE":
        assert "near_cut_points" not in grid.provenance
    else:
        assert grid.provenance["near_cut_points"] == near


@pytest.mark.parametrize("metric", ["PCom", "ThresholdCompare"])
def test_open_chain_sweep_counts_continuum(metric):
    # each point: complex eigenvalues minus detect_bound_states over all
    # states, the eigenvector rule, which agrees with the sweep's c_beta cut
    # on these chains
    config = SweepConfig(
        base_model=nnn_chain(40, 1.0, 0.5, 0.5),
        axis1=AxisSpec("t2", 0.05, 0.6, 3),
        axis2=AxisSpec("g", 0.0, 1.6, 5),
        metric=Metric(metric),
    )
    grid = run_sweep(config, threads=2)
    assert grid.provenance["stack"] == 13  # the 15 solves make chunks of 13 and 2
    for i, v1 in enumerate(config.axis1.values):
        for j, v2 in enumerate(config.axis2.values):
            spec = apply_parameter(config.base_model, "t2", v1)
            spectrum, scale = solve(apply_parameter(spec, "g", v2))
            bound = set(detect_bound_states(spectrum, spec.max_range))
            complex_idx = classify_spectrum(spectrum, scale).complex_indices
            p_com = len([k for k in complex_idx if k not in bound]) / spec.L
            want = p_com if metric == "PCom" else float(p_com > 0)
            assert grid.values[i, j] == want, (v1, v2)
    assert grid.values.max() > 0


def test_stack_size():
    def stack(L, metric="PCom", chain=False):
        base = nnn_chain(L, 1.0, 0.5, 0.3) if chain else flux_ring(L, 0.1, 0.5)
        axes = AxisSpec("t2", 0.0, 0.5, 2), AxisSpec("g", 0.0, 1.0, 2)
        return sweep._stack_size(SweepConfig(base, *axes, Metric(metric)))

    assert [stack(L) for L in (20, 100, 167, 250, 500, 501, 800)] == [26, 6, 3, 3, 2, 1, 1]
    # ceil(501/L) for every metric and boundary, with eigenvectors or without
    for metric in ("PCom", "ThresholdCompare", "MaxImE"):
        assert stack(100, metric) == stack(100, metric, chain=True) == 6


def test_sweep_solves_no_eigenvectors(monkeypatch):
    # the open-chain continuum rule of PCom and ThresholdCompare reads
    # eigenvalues only, so no chunk asks for vectors
    flags = []

    def record(specs, vectors=True):
        flags.append(vectors)
        return solve_stack(specs, vectors=vectors)

    monkeypatch.setattr(sweep, "solve_stack", record)
    axes = AxisSpec("t2", 0.0, 0.5, 2), AxisSpec("g", 0.2, 1.0, 3)
    for base in (flux_ring(20, 0.1, 0.5), nnn_chain(40, 1.0, 0.5, 0.5)):
        for metric in Metric:
            flags.clear()
            run_sweep(SweepConfig(base, *axes, metric), threads=1)
            assert flags == [False], (base.boundary, metric)


def test_sweep_near_cut_points(monkeypatch, tmp_path):
    # ||H||_F of the ring depends on g alone, so the patched classification
    # reports near-cut eigenvalues in the column j = 3 only
    cfg = _dense_config()
    assert run_sweep(cfg, threads=1).provenance["near_cut_points"] == []
    marked = solve(apply_parameter(cfg.base_model, "g", float(cfg.axis2.values[3])))[1]
    original = sweep.classify_spectrum

    def classify(spectrum, scale, tol_imag=None):
        near = int(math.isclose(scale, marked, rel_tol=1e-12))
        return dc_replace(original(spectrum, scale, tol_imag), near_cut=near)

    monkeypatch.setattr(sweep, "classify_spectrum", classify)
    grid = run_sweep(cfg, threads=2, cache_dir=tmp_path)
    assert grid.provenance["near_cut_points"] == [[0, 3], [1, 3], [2, 3]]
    # cached points are not re-solved, so only the dropped one is listed
    cache = tmp_path / f"sweep_{config_hash(cfg)}.csv"
    cache.write_text("".join(f"{l}\n" for l in cache.read_text().splitlines() if l[:4] != "1,3,"))
    resumed = run_sweep(cfg, threads=2, cache_dir=tmp_path)
    assert resumed.provenance["near_cut_points"] == [[1, 3]]
    assert np.array_equal(resumed.values, grid.values)


def test_sweep_resumes_cache_cut_mid_chunk(tmp_path):
    config = _ring_config("MaxImE")
    fresh = run_sweep(config, threads=1)
    cache = tmp_path / f"sweep_{config_hash(config)}.csv"
    run_sweep(config, threads=2, cache_dir=tmp_path)
    lines = cache.read_text().splitlines()
    assert len(lines) == 21
    cache.write_text("\n".join(lines[:13]) + "\n")  # 9 + 4 of the second chunk of 9
    resumed = run_sweep(config, threads=2, cache_dir=tmp_path)
    assert np.array_equal(resumed.values, fresh.values)
    assert cache.read_text().splitlines() == lines


def test_config_hash_stability():
    cfg = _small_config()
    h1 = config_hash(cfg)
    h2 = config_hash(SweepConfig.from_json_dict(cfg.to_json_dict()))
    assert h1 == h2 and len(h1) == 16
    other = SweepConfig(
        base_model=cfg.base_model,
        axis1=cfg.axis1,
        axis2=AxisSpec("g", 0.0, 1.3, 5),
        metric=cfg.metric,
    )
    assert config_hash(other) != h1


def test_threshold_extract_synthetic():
    ax1 = AxisSpec("flux_theta", 0.0, 1.0, 2)
    ax2 = AxisSpec("g", 0.0, 1.0, 5)
    values = np.array(
        [
            [0.0, 0.0, 0.1, 0.3, 0.5],
            [0.0, 0.0, 0.0, 0.0, 0.0],
        ]
    )
    grid = PhaseGrid(axis1=ax1, axis2=ax2, metric=Metric.PCOM, values=values, provenance={})
    onsets = threshold_extract(grid)
    assert onsets[0] == (0.0, pytest.approx(0.375))  # midpoint of 0.25 and 0.5
    assert onsets[1] == (1.0, None)


def test_uncertain_onsets_synthetic():
    ax1 = AxisSpec("flux_theta", 0.0, 3.0, 4)
    ax2 = AxisSpec("g", 0.0, 1.0, 4)
    nan = math.nan
    values = np.array(
        [
            [0.0, nan, 0.1, 0.3],  # onset after a failed point
            [0.0, 0.1, nan, 0.3],  # failed point after the onset
            [0.0, nan, 0.0, 0.0],  # no onset, but a failed point
            [0.0, 0.0, 0.0, 0.0],
        ]
    )
    grid = PhaseGrid(axis1=ax1, axis2=ax2, metric=Metric.PCOM, values=values, provenance={})
    assert uncertain_onsets(grid) == [0.0, 2.0]
    assert [onset for _, onset in threshold_extract(grid)] == [
        pytest.approx(0.5),
        pytest.approx(1 / 6),
        None,
        None,
    ]


def _failing_at(monkeypatch, points):
    """Make _chunk_metrics raise EigensolverError on any chunk that holds
    one of the given (i, j) points, as one bad matrix fails its stack."""
    cfg = _dense_config()
    bad = {(float(cfg.axis1.values[i]), float(cfg.axis2.values[j])) for i, j in points}
    original = sweep._chunk_metrics

    def flaky(config, chunk):
        if bad.intersection(chunk):
            raise EigensolverError("QR iteration did not converge")
        return original(config, chunk)

    monkeypatch.setattr(sweep, "_chunk_metrics", flaky)
    return cfg


def test_sweep_records_failed_points(monkeypatch, tmp_path):
    # row 1 breaks at j = 3, so a failure at j = 1 may hide its onset;
    # row 2 also breaks at j = 3, before its failure at j = 4
    cfg = _failing_at(monkeypatch, [(1, 1), (2, 4)])
    grid = run_sweep(cfg, threads=2)
    assert grid.provenance["nan_points"] == [[1, 1], [2, 4]]
    assert len(grid.diagnostics) == 2
    assert uncertain_onsets(grid) == [float(cfg.axis1.values[1])]
    assert [onset for _, onset in threshold_extract(grid)] == [
        onset for _, onset in threshold_extract(run_sweep(_dense_config(), threads=1))
    ]

    out = tmp_path / "o"
    config = tmp_path / "scan.json"
    config.write_text(json.dumps(cfg.to_json_dict()))
    assert main(["scan", "--config", str(config), "--out", str(out)]) == 0
    sidecar = json.loads(next(out.glob("grid_*.json")).read_text())
    assert sidecar["provenance"]["nan_points"] == [[1, 1], [2, 4]]
    assert sidecar["onset_uncertain"] == [float(cfg.axis1.values[1])]
    onset_lines = next(out.glob("onset_*.csv")).read_text().splitlines()
    assert onset_lines[0] == "flux_theta,onset_g"
    assert len(onset_lines) == 4


def test_grid_csv_round_trip(tmp_path):
    cfg = _small_config()
    grid = run_sweep(cfg, threads=2)
    p = tmp_path / "grid.csv"
    write_grid_csv(grid, p)
    lines = p.read_text().splitlines()
    assert lines[0] == "flux_theta,g,value"
    assert len(lines) == 1 + 3 * 5
    vals = np.array([float(l.split(",")[2]) for l in lines[1:]]).reshape(3, 5)
    assert np.array_equal(vals, grid.values)


def test_grid_sidecar(tmp_path):
    # the grid fields of the scan sidecar, merged with the run envelope's
    # extra keys and written as every sidecar is
    cfg = _small_config()
    grid = run_sweep(cfg, threads=2)
    p = tmp_path / "grid.json"
    sweep._write_json(p, {**sweep._grid_fields(grid), "note": "x"})
    doc = json.loads(p.read_text())
    assert doc["metric"] == "PCom"
    assert doc["provenance"]["config_hash"] == config_hash(cfg)
    assert doc["note"] == "x"
    assert doc["axis1"] == cfg.axis1.to_json_dict()
    assert doc["diagnostics"] == list(grid.diagnostics)
    assert p.read_text().endswith("}\n")


def test_first_onset_matches_threshold_extract():
    # the same onset rule, bit for bit, on each flux column of a g sweep;
    # in two of the four columns g_j - step/2 differs from the midpoint by 1 ulp
    L = 24
    cfg = SweepConfig(
        base_model=flux_ring(L, 0.1 / L, 0.5),
        axis1=AxisSpec("flux_theta", 0.1 / L, 1.5 / L, 4),
        axis2=AxisSpec("g", 0.0, 2.0, 41),
        metric=Metric.THRESHOLD_COMPARE,
    )
    onsets = threshold_extract(run_sweep(cfg, threads=1))
    assert all(onset is not None for _, onset in onsets)
    for theta, onset in onsets:
        spec = apply_parameter(cfg.base_model, "flux_theta", theta)
        assert _first_onset(spec, 0.0, 2.0, 41) == onset


def _refusing(monkeypatch, *names):
    """Replace each sweep.name with a function that fails the test when called."""

    def refuse(*args, **kwargs):
        raise AssertionError("the count path solved or pooled")

    for name in names:
        monkeypatch.setattr(sweep, name, refuse)


def test_first_onset_at_lo_and_none(monkeypatch):
    spec = flux_ring(24, 0.1 / 24, 0.5)  # g_c near 0.1
    _refusing(monkeypatch, "solve_stack", "_chunk_metrics")
    assert _first_onset(spec, 1.0, 2.0, 41) == 1.0
    assert _first_onset(spec, 0.0, 0.05, 41) is None


@pytest.mark.parametrize("name", ["t2_ring", "open_nnn_chain"])
def test_first_onset_rejects_a_model_that_is_no_flux_ring(name):
    spec, reason = not_rings()[name]
    with pytest.raises(ValueError, match="ring theory needs") as exc:
        _first_onset(spec, 0.0, 2.0, 41)
    assert reason in str(exc.value)


def test_csv_line():
    row = (3, np.float64(0.1), math.nan, math.inf, "no onset")
    assert _csv_line(row) == "3,0.10000000000000001,nan,inf,no onset\n"


def test_sweep_diagnostics_in_grid_order(monkeypatch):
    # L > 500 makes one point per chunk (the stub solves nothing); the chunk
    # of g-index 1 fails only after the one of g-index 7 has failed and the
    # next chunk has run
    cfg = SweepConfig(
        base_model=nnn_chain(501, 1.0, 0.0, 0.5),
        axis1=AxisSpec("t2", 0.1, 0.2, 2),
        axis2=AxisSpec("g", 0.0, 1.0, 10),
        metric=Metric.PCOM,
    )
    g1, g7, g8 = (float(cfg.axis2.values[j]) for j in (1, 7, 8))
    v1 = float(cfg.axis1.values[0])

    def diagnostics(threads):
        later_failed = threading.Event()

        def stub(config, points):
            ((a, g),) = points
            if a == v1 and g == g1 and threads > 1:
                assert later_failed.wait(timeout=30)
            if a == v1 and g == g8:
                later_failed.set()
            if a == v1 and g in (g1, g7):
                raise EigensolverError(f"failure at g = {g}")
            return [(0.0, 0)]

        monkeypatch.setattr(sweep, "_chunk_metrics", stub)
        return run_sweep(cfg, threads=threads).diagnostics

    serial = diagnostics(1)
    assert [d.split(":")[0] for d in serial] == ["point (0,1)", "point (0,7)"]
    assert diagnostics(2) == serial


def _dense_reference(config):
    """(values, near_cut_points) of config from the dense path,
    _chunk_metrics, one axis-1 row at a time: the reference the ring count
    must equal bit for bit."""
    values, near = np.empty((config.axis1.steps, config.axis2.steps)), []
    for i, v1 in enumerate(config.axis1.values):
        metrics = sweep._chunk_metrics(config, [(float(v1), float(v2)) for v2 in config.axis2.values])
        values[i] = [value for value, _ in metrics]
        near += [[i, j] for j, (_, n) in enumerate(metrics) if n > 0]
    return values, near


_COUNTED_GRIDS = {
    # perfbench's ring_scan grid: criterion 4's axes at 4 x 60
    "ring_scan": (flux_ring(100, 0.2 / 100, 1.0), ("flux_theta", 0.2 / 100, 1.0 / 100, 4), ("g", 0.0, 1.5, 60)),
    "criterion_10": (flux_ring(40, 0.2, 0.5), ("flux_theta", 0.05, 0.3, 4), ("g", 0.0, 1.2, 8)),
    "phi_axis": (flux_ring(30, 0.3 / 30, 0.6), ("phi", 0.0, math.pi, 7), ("g", 0.0, 2.0, 9)),
}


@pytest.mark.parametrize("metric", ["PCom", "ThresholdCompare"])
@pytest.mark.parametrize("name", sorted(_COUNTED_GRIDS))
def test_ring_count_matches_the_dense_path(name, metric):
    base, axis1, axis2 = _COUNTED_GRIDS[name]
    config = SweepConfig(base, AxisSpec(*axis1), AxisSpec(*axis2), Metric(metric))
    grid = run_sweep(config, threads=2)
    assert grid.provenance["path"] == "count"
    values, near = _dense_reference(config)
    assert np.array_equal(grid.values, values)
    assert grid.provenance["near_cut_points"] == near == []


@pytest.mark.parametrize("seed", range(60))
def test_ring_count_matches_the_dense_path_on_random_rings(seed):
    rng = np.random.default_rng(seed)
    L = int(rng.integers(6, 81))
    theta, phi = rng.uniform(-math.pi, math.pi, size=2)
    g_lo = rng.uniform(0.0, 1.5)
    config = SweepConfig(
        flux_ring(L, theta, 1.0, phi=phi),
        AxisSpec("flux_theta", theta, theta + rng.uniform(0.1, 1.0) / L, 2),
        AxisSpec("g", g_lo, g_lo + rng.uniform(0.1, 1.5), 5),
        Metric.PCOM,
    )
    grid = run_sweep(config, threads=1)
    values, near = _dense_reference(config)
    clear = np.ones(values.shape, dtype=bool)
    for i, j in near:
        clear[i, j] = False
    assert clear.any()
    assert np.array_equal(grid.values[clear], values[clear])


_ONSET_THETAS = (0.2 / 100, 0.6 / 100, 1.0 / 100)


@pytest.mark.parametrize(
    "theta, phi",
    [pytest.param(theta, math.pi / 2, id=f"{theta:g}") for theta in _ONSET_THETAS]
    + [
        pytest.param(theta, phi, id=f"{theta:g}-{phi:g}")
        for phi in (0.7, 1.1)
        for theta in _ONSET_THETAS
    ],
)
def test_first_onset_counts_a_ring_as_the_dense_scan_does(theta, phi, monkeypatch):
    # the three flux values of perfbench's ring_theory effective task; at
    # phi = 0.7 and 1.1 some of the rebuilt points' g or phi differ from the
    # ring's in the last bit
    from ptlattice.effective import threshold_pbc

    spec = apply_parameter(flux_ring(100, 0.3, 0.8, phi=phi), "flux_theta", theta)
    g_pred = threshold_pbc(100, theta, phi, 1.0)
    gs = np.linspace(0.0, 2.0 * g_pred, 41)
    broken = [
        classify_spectrum(*solve(apply_parameter(spec, "g", float(g)), vectors=False)).n_com > 0
        for g in gs
    ]
    j = broken.index(True)
    _refusing(monkeypatch, "solve_stack", "_chunk_metrics")
    assert _first_onset(spec, 0.0, 2.0 * g_pred, 41) == sweep._onset_at(gs, j)


def test_ring_count_calls_a_degenerate_pair_real_and_near_the_cut():
    # theta L = 0, phi = 0 and g = 0: the clean ring's doubly degenerate levels
    config = SweepConfig(
        flux_ring(24, 0.0, 0.5, phi=0.0),
        AxisSpec("flux_theta", 0.0, 0.05, 2),
        AxisSpec("g", 0.0, 0.5, 3),
        Metric.PCOM,
    )
    grid = run_sweep(config, threads=1)
    assert grid.values[0, 0] == 0.0
    assert [0, 0] in grid.provenance["near_cut_points"]
    assert np.array_equal(grid.values, _dense_reference(config)[0])


def test_ring_count_builds_no_matrix_and_starts_no_pool(monkeypatch, tmp_path):
    _refusing(monkeypatch, "_chunk_metrics", "ThreadPoolExecutor", "solve_stack")
    cfg = _small_config()
    grid = run_sweep(cfg, threads=3, cache_dir=tmp_path)
    assert grid.provenance["path"] == "count"
    assert (grid.provenance["workers"], grid.provenance["blas_threads"]) == (0, None)
    cache = tmp_path / f"sweep_{config_hash(cfg)}.csv"
    assert len(cache.read_text().splitlines()) == 15
    assert run_sweep(cfg, threads=3, cache_dir=tmp_path).provenance["path"] == "count"
    assert _first_onset(cfg.base_model, 0.0, 2.0, 41) is not None


def _counting(monkeypatch, module, name):
    """Calls of module.name, which keeps working, as a list of their arguments."""
    calls, original = [], getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize(
    "grid, blocks",
    [
        # 4 rings of 60 g, the g = 0 point of each (read with phi = 0) among
        # them: 2 blocks each, where a g = 0 ring of its own would add 4
        (_COUNTED_GRIDS["ring_scan"], 8),
        # 3 rings of phi, 2 g > 0 each, and the g = 0 column in the last one
        ((flux_ring(24, 0.4, 0.8), ("phi", 0.5, 2.5, 3), ("g", 0.0, 1.0, 3)), 3),
    ],
    ids=["ring_scan", "phi_g"],
)
def test_ring_count_makes_one_call_per_ring_size(grid, blocks, monkeypatch):
    calls = _counting(monkeypatch, sweep, "_real_state_counts")
    extremes = _counting(monkeypatch, ring_equation, "_block_extremes")
    base, axis1, axis2 = grid
    config = SweepConfig(base, AxisSpec(*axis1), AxisSpec(*axis2), Metric.PCOM)
    assert run_sweep(config).provenance["path"] == "count"
    assert [(L, len(r)) for L, r, *_ in calls] == [(base.L, axis1[3] * axis2[3])]
    assert len(extremes) == blocks


def test_first_onset_reads_the_ring_once_and_builds_no_model(monkeypatch):
    spec = flux_ring(24, 0.1 / 24, 0.5)
    built = _counting(monkeypatch, sweep, "apply_parameter")
    read = _counting(monkeypatch, sweep, "_ring_parameters")
    assert _first_onset(spec, 0.0, 2.0, 41) is not None
    assert (len(built), len(read)) == (0, 1)


def test_a_ring_grid_beyond_the_count_bound_is_solved():
    # the count's curvature bounds overflowed at g/t = 5e149 and 1e150 on
    # this 100-site ring: it found 102 real levels, and P_com read -0.02
    config = SweepConfig(
        flux_ring(100, 0.3 / 100, 1.0),
        AxisSpec("flux_theta", 0.3 / 100, 0.5 / 100, 2),
        AxisSpec("g", 0.0, 1e150, 3),
        Metric.PCOM,
    )
    grid = run_sweep(config, threads=1)
    assert grid.provenance["path"] == "dense"
    assert np.array_equal(grid.values, _dense_reference(config)[0])
    assert grid.values.min() >= 0.0


def test_point_specs_build_each_axis_1_model_once_per_row(monkeypatch):
    base, axis1, axis2 = _COUNTED_GRIDS["ring_scan"]
    config = SweepConfig(base, AxisSpec(*axis1), AxisSpec(*axis2), Metric.PCOM)
    points = [(float(v1), float(v2)) for v1 in config.axis1.values for v2 in config.axis2.values]
    expected = [
        apply_parameter(apply_parameter(base, "flux_theta", v1), "g", v2) for v1, v2 in points
    ]
    calls = _counting(monkeypatch, sweep, "apply_parameter")
    assert list(sweep._point_specs(config, points)) == expected
    assert len(calls) == 4 + 240
    calls.clear()
    assert run_sweep(config).provenance["path"] == "count"
    assert len(calls) == 4 + 240


# sha256 of criterion 4's count grid, recorded when every ring of a grid got
# its own count call
_CRITERION_04_GRID = "402136f028dde9f70c58c7516e3f6ebb2bf502b7188dc29110ac620a6e45eb97"


def test_criterion_04_count_grid_keeps_its_bits():
    L = 100
    config = SweepConfig(
        flux_ring(L, 0.2 / L, 1.0, phi=math.pi / 2),
        AxisSpec("flux_theta", 0.2 / L, 1.0 / L, 40),
        AxisSpec("g", 0.0, 1.5, 60),
        Metric.PCOM,
    )
    grid = run_sweep(config)
    assert grid.provenance["path"] == "count"
    assert hashlib.sha256(grid.values.tobytes()).hexdigest() == _CRITERION_04_GRID
    assert grid.provenance["near_cut_points"] == []


@pytest.mark.parametrize(
    "axis1, metric",
    [(AxisSpec("t2", 0.0, 0.5, 2), "PCom"), (AxisSpec("g", 0.0, 1.0, 2), "MaxImE")],
    ids=["t2_axis", "max_im_e"],
)
def test_rings_off_the_count_stay_dense(axis1, metric):
    axes = (axis1, AxisSpec("phi", 0.0, 1.0, 2)) if axis1.parameter == "g" else (axis1, AxisSpec("g", 0.0, 1.0, 2))
    grid = run_sweep(SweepConfig(flux_ring(20, 0.1, 0.5), *axes, Metric(metric)), threads=1)
    assert grid.provenance["path"] == "dense"
    assert grid.provenance["workers"] == 1


def test_dense_sweep_csv_identical_across_thread_counts(tmp_path):
    # criterion 10's identity on the dense path, which its ring grid no
    # longer takes
    config = SweepConfig(
        base_model=nnn_chain(40, 1.0, 0.5, 0.5),
        axis1=AxisSpec("t2", 0.05, 0.6, 4),
        axis2=AxisSpec("g", 0.0, 1.6, 8),
        metric=Metric.PCOM,
    )
    p1, p5 = tmp_path / "a.csv", tmp_path / "b.csv"
    one = run_sweep(config, threads=1)
    write_grid_csv(one, p1)
    write_grid_csv(run_sweep(config, threads=5), p5)
    assert one.provenance["path"] == "dense"
    assert one.values.max() > 0
    assert p1.read_bytes() == p5.read_bytes()

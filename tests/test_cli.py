import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import ptlattice
from ptlattice.cli import main
from ptlattice.eigen import EigensolverError
from conftest import flux_ring, gain_chain, nnn_chain, not_rings


def _write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


@pytest.fixture
def model_config(tmp_path):
    return _write(tmp_path, "model.json", gain_chain(50, g=1.5).to_json_dict())


def test_spectrum_success(tmp_path, model_config, capsys):
    out = tmp_path / "out"
    rc = main(["spectrum", "--config", model_config, "--out", str(out)])
    assert rc == 0
    assert (out / "spectrum.csv").exists()
    sidecar = json.loads((out / "spectrum.json").read_text())
    assert sidecar["n_com"] >= 1
    assert "p_com" in capsys.readouterr().out


def test_spectrum_hermitian_all_real(tmp_path, capsys):
    cfg = _write(tmp_path, "m.json", gain_chain(50, g=0.0).to_json_dict())
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    sidecar = json.loads((out / "spectrum.json").read_text())
    assert sidecar["p_com"] == 0.0


def test_spectrum_sidecar_health(tmp_path):
    # 100 eigenvalues have Im != 0, two of them at or below the cut
    cfg = _write(tmp_path, "m.json", nnn_chain(200, 1.0, 0.5, 0.5).to_json_dict())
    out = tmp_path / "o"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    sidecar = json.loads((out / "spectrum.json").read_text())
    assert sidecar["real_pt_basis"] is True
    assert sidecar["n_com"] == 98
    assert sidecar["near_cut"] == 2

    cfg = _write(tmp_path, "g.json", gain_chain(50, g=1.5).to_json_dict())
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    assert json.loads((out / "spectrum.json").read_text())["real_pt_basis"] is False


def test_spectrum_short_open_chain(tmp_path):
    # half-window fits need about 40 sites; shorter chains flag no bound state
    cfg = _write(tmp_path, "m.json", gain_chain(30).to_json_dict())
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "spectrum.csv").read_text().splitlines()[1:]
    assert len(rows) == 30
    assert all(row.split(",")[-1] == "0" for row in rows)


def test_missing_config_is_exit_1(tmp_path, capsys):
    rc = main(["spectrum", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert rc == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, match",
    [
        pytest.param(["spectrum"], "--config", id="no_config"),
        pytest.param(["bogus", "--config", "m.json"], "invalid choice", id="unknown_subcommand"),
        pytest.param(
            ["spectrum", "--config", "m.json", "--threads", "abc"], "--threads", id="threads_abc"
        ),
    ],
)
def test_argument_errors_exit_1(tmp_path, capsys, argv, match):
    # argparse's own exit code 2 is the contract's numerical failure
    assert main([*argv, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and match in err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage" in capsys.readouterr().out


@pytest.mark.parametrize(
    "subcommand, doc, key",
    [
        ("scaling", {"model": gain_chain(50).to_json_dict(), "sizes": 5}, "sizes"),
        ("effective", {"model": flux_ring(60, 0.01, 0.5).to_json_dict(), "thetas": 0.01}, "thetas"),
        ("nonbloch", {"model": flux_ring(24, 0.4, 0.8).to_json_dict(), "g_range": 1.5}, "g_range"),
    ],
)
def test_number_list_keys_reject_scalars(tmp_path, capsys, subcommand, doc, key):
    cfg = _write(tmp_path, "c.json", doc)
    out = tmp_path / "o"
    assert main([subcommand, "--config", cfg, "--out", str(out)]) == 1
    assert f"config key '{key}'" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("value", [[2000], None, float("inf")], ids=["list", "null", "infinity"])
def test_gamma_resolution_must_be_a_number(tmp_path, capsys, value):
    doc = {"model": flux_ring(24, 0.4, 0.8).to_json_dict(), "gamma_resolution": value}
    cfg = _write(tmp_path, "n.json", doc)
    out = tmp_path / "o"
    assert main(["nonbloch", "--config", cfg, "--out", str(out)]) == 1
    assert "config key 'gamma_resolution'" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def _scan_doc() -> dict:
    return {
        "base_model": flux_ring(16, 0.1, 0.5, phi=math.pi / 2).to_json_dict(),
        "axis1": {"parameter": "flux_theta", "min": 0.05, "max": 0.15, "steps": 2},
        "axis2": {"parameter": "g", "min": 0.0, "max": 1.0, "steps": 4},
        "metric": "PCom",
    }


def _bad_axis_scan(tmp_path) -> str:
    doc = _scan_doc()
    doc["axis1"]["parameter"] = "bogus"
    return _write(tmp_path, "c.json", doc)


def _not_json(tmp_path) -> str:
    p = tmp_path / "c.json"
    p.write_text("{not json")
    return str(p)


@pytest.mark.parametrize(
    "subcommand, make_config, match",
    [
        ("spectrum", _not_json, "invalid JSON"),
        ("scan", _bad_axis_scan, "unknown parameter path 'bogus'"),
    ],
    ids=["not_json", "unknown_parameter_path"],
)
def test_malformed_config_exits_1(tmp_path, capsys, subcommand, make_config, match):
    out = tmp_path / "o"
    assert main([subcommand, "--config", make_config(tmp_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and match in err
    assert list(out.glob("*")) == []


def test_numerical_failure_exits_2(tmp_path, capsys, model_config, monkeypatch):
    def fail(*args, **kwargs):
        raise EigensolverError("eig did not converge")

    monkeypatch.setattr("ptlattice.cli.solve", fail)
    assert main(["spectrum", "--config", model_config, "--out", str(tmp_path / "o")]) == 2
    assert "numerical failure: eig did not converge" in capsys.readouterr().err


def test_invalid_model_is_exit_1(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.json", {"L": 1})
    rc = main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 1


def test_override_round_trip(tmp_path):
    cfg = _write(tmp_path, "m.json", gain_chain(50, g=0.5).to_json_dict())
    out = tmp_path / "o"
    rc = main(
        ["spectrum", "--config", cfg, "--out", str(out), "--override", "L=60"]
    )
    assert rc == 0
    sidecar = json.loads((out / "spectrum.json").read_text())
    assert sidecar["config"]["L"] == 60
    assert sidecar["overrides"] == ["L=60"]
    n_rows = len((out / "spectrum.csv").read_text().splitlines()) - 1
    assert n_rows == 60


def test_bad_override_is_exit_1(tmp_path, capsys):
    cfg = _write(tmp_path, "m.json", gain_chain(50, g=0.5).to_json_dict())
    rc = main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o"), "--override", "L40"])
    assert rc == 1


def test_override_into_a_nested_object(tmp_path):
    doc = {"model": gain_chain(50, g=1.0).to_json_dict(), "sizes": [50, 100, 200]}
    cfg = _write(tmp_path, "s.json", doc)
    out = tmp_path / "o"
    assert main(["scaling", "--config", cfg, "--out", str(out), "--override", "model.L=80"]) == 0
    sidecar = json.loads((out / "scaling.json").read_text())
    assert sidecar["config"]["model"]["L"] == 80
    assert sidecar["overrides"] == ["model.L=80"]


def test_override_keeps_a_non_json_value_as_a_string(tmp_path):
    cfg = _write(tmp_path, "scan.json", _scan_doc())
    out = tmp_path / "o"
    assert main(["scan", "--config", cfg, "--out", str(out), "--override", "metric=MaxImE"]) == 0
    sidecar = json.loads(next(out.glob("grid_*.json")).read_text())
    assert sidecar["metric"] == sidecar["config"]["metric"] == "MaxImE"


def test_override_into_a_non_object_exits_1(tmp_path, capsys):
    cfg = _write(tmp_path, "scan.json", _scan_doc())
    out = tmp_path / "o"
    assert main(["scan", "--config", cfg, "--out", str(out), "--override", "metric.x=1"]) == 1
    assert "'metric' is not an object" in capsys.readouterr().err
    assert not out.exists()


def test_tol_imag_flag(tmp_path):
    cfg = _write(tmp_path, "m.json", gain_chain(50, g=1.5).to_json_dict())
    out = tmp_path / "o"
    assert main(["spectrum", "--config", cfg, "--out", str(out), "--tol-imag", "10.0"]) == 0
    sidecar = json.loads((out / "spectrum.json").read_text())
    assert sidecar["n_com"] == 0
    assert sidecar["tol_imag"] == 10.0


@pytest.mark.parametrize("tol", ["-1", "nan"])
def test_meaningless_tol_imag_exits_1(tmp_path, capsys, tol):
    cfg = _write(tmp_path, "m.json", gain_chain(50, g=1.5).to_json_dict())
    out = tmp_path / "o"
    assert main(["spectrum", "--config", cfg, "--out", str(out), "--tol-imag", tol]) == 1
    assert capsys.readouterr().err.startswith("config error")
    assert not (out / "spectrum.json").exists()


def test_scan_writes_grid_and_onsets(tmp_path):
    doc = {
        "base_model": flux_ring(16, 0.1, 0.5, phi=math.pi / 2).to_json_dict(),
        "axis1": {"parameter": "flux_theta", "min": 0.05, "max": 0.15, "steps": 2},
        "axis2": {"parameter": "g", "min": 0.0, "max": 1.0, "steps": 4},
        "metric": "PCom",
    }
    cfg = _write(tmp_path, "scan.json", doc)
    out = tmp_path / "o"
    assert main(["scan", "--config", cfg, "--out", str(out), "--threads", "2"]) == 0
    grids = list(out.glob("grid_*.csv"))
    onsets = list(out.glob("onset_*.csv"))
    assert len(grids) == 1 and len(onsets) == 1
    assert len(grids[0].read_text().splitlines()) == 1 + 2 * 4


def test_scan_outputs_reproducible(tmp_path):
    doc = {
        "base_model": flux_ring(16, 0.1, 0.5, phi=math.pi / 2).to_json_dict(),
        "axis1": {"parameter": "flux_theta", "min": 0.05, "max": 0.15, "steps": 2},
        "axis2": {"parameter": "g", "min": 0.0, "max": 1.0, "steps": 4},
        "metric": "PCom",
    }
    cfg = _write(tmp_path, "scan.json", doc)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["scan", "--config", cfg, "--out", str(out1), "--threads", "1"]) == 0
    assert main(["scan", "--config", cfg, "--out", str(out2), "--threads", "4"]) == 0
    g1 = next(out1.glob("grid_*.csv")).read_text()
    g2 = next(out2.glob("grid_*.csv")).read_text()
    assert g1 == g2


def test_criterion_prints_window(tmp_path, capsys):
    from conftest import nnn_chain

    cfg = _write(tmp_path, "m.json", nnn_chain(60, 1.0, 0.5, 0.8).to_json_dict())
    out = tmp_path / "o"
    assert main(["criterion", "--config", cfg, "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "PT-breaking window" in text
    assert (out / "criterion.json").exists()


def test_criterion_lists_window_violations(tmp_path, capsys):
    # one gain site and nearest-neighbour hopping: no equal-energy window, so
    # every complex state of the continuum is a violation
    cfg = _write(tmp_path, "m.json", gain_chain(60, g=0.5).to_json_dict())
    out = tmp_path / "o"
    assert main(["criterion", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "criterion.json").read_text())
    assert report["window"] == []
    assert len(report["violations"]) == 60
    assert [v["index"] for v in report["violations"]] == list(range(60))
    assert all(set(v) == {"index", "reE", "imE"} and v["imE"] != 0 for v in report["violations"])
    text = capsys.readouterr().out
    assert "PT-breaking window: empty" in text
    assert "inside window: False (60 violations)" in text


def test_criterion_rejects_ring(tmp_path, capsys):
    cfg = _write(tmp_path, "m.json", flux_ring(20, 0.1, 0.5).to_json_dict())
    rc = main(["criterion", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 1  # boundary mismatch is reported as a config error


def test_scaling_subcommand(tmp_path, capsys):
    doc = {"model": gain_chain(50, g=1.0).to_json_dict(), "sizes": [50, 100, 200]}
    cfg = _write(tmp_path, "s.json", doc)
    out = tmp_path / "o"
    assert main(["scaling", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "scaling.csv").exists()
    sidecar = json.loads((out / "scaling.json").read_text())
    assert sidecar["status"] == "ok"


def test_nonbloch_subcommand(tmp_path, capsys):
    doc = {
        "model": flux_ring(24, 0.4, 0.8, phi=math.pi / 2).to_json_dict(),
        "gamma_resolution": 1200,
        "g_range": [0.0, 1.5],
    }
    cfg = _write(tmp_path, "n.json", doc)
    out = tmp_path / "o"
    assert main(["nonbloch", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "unitary_scan.csv").exists()
    sidecar = json.loads((out / "nonbloch.json").read_text())
    assert sidecar["max_normalized_boundary_det"] < 1e-6
    assert sidecar["ill_conditioned"] == 0


def test_nonbloch_audits_a_clean_ring(tmp_path):
    # each eigenstate of a clean ring is one plane wave: one column of the
    # boundary matrix cancels on its own, and the audit must read that as 0
    ring = replace(flux_ring(24, 0.4, 0.0), perturbations=())
    cfg = _write(tmp_path, "n.json", {"model": ring.to_json_dict()})
    out = tmp_path / "o"
    assert main(["nonbloch", "--config", cfg, "--out", str(out)]) == 0
    assert json.loads((out / "nonbloch.json").read_text())["max_normalized_boundary_det"] < 1e-9


@pytest.mark.parametrize("g_range", [[1.5, 0.0], [0.0, float("nan")]])
def test_nonbloch_bad_g_range_exits_1(tmp_path, capsys, g_range):
    doc = {
        "model": flux_ring(24, 0.4, 0.8, phi=math.pi / 2).to_json_dict(),
        "g_range": g_range,
    }
    cfg = _write(tmp_path, "n.json", doc)
    out = tmp_path / "o"
    assert main(["nonbloch", "--config", cfg, "--out", str(out)]) == 1
    assert "g_range" in capsys.readouterr().err
    assert not (out / "nonbloch.json").exists()


def test_effective_subcommand(tmp_path, capsys):
    doc = {
        "model": flux_ring(60, 0.005, 0.5, phi=math.pi / 2).to_json_dict(),
        "thetas": [0.005],
    }
    cfg = _write(tmp_path, "e.json", doc)
    out = tmp_path / "o"
    assert main(["effective", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "thresholds.csv").read_text().splitlines()
    assert lines[0].startswith("theta,phi,g_c_predicted")
    assert len(lines) == 2


# subcommand: (config, {CSV file pattern: header line})
_OUTPUTS = {
    "spectrum": (
        gain_chain(30).to_json_dict(),
        {"spectrum.csv": "index,re_e,im_e,mean_position,half_asymmetry,c_fit,is_bound"},
    ),
    "scan": (_scan_doc(), {"grid_*.csv": "flux_theta,g,value", "onset_*.csv": "flux_theta,onset_g"}),
    "scaling": ({"model": gain_chain(50).to_json_dict(), "sizes": [50, 100, 200]}, {"scaling.csv": "L,c"}),
    "criterion": (nnn_chain(60, 1.0, 0.5, 0.8).to_json_dict(), {}),
    "nonbloch": (
        {"model": flux_ring(24, 0.4, 0.8).to_json_dict(), "gamma_resolution": 1200, "g_range": [0.0, 1.5]},
        {"unitary_scan.csv": "gamma,G_plus,G_minus,discriminant_negative"},
    ),
    "effective": (
        {"model": flux_ring(60, 0.005, 0.5).to_json_dict(), "thetas": [0.005]},
        {"thresholds.csv": "theta,phi,g_c_predicted,g_c_printed_form,g_c_observed,relative_error"},
    ),
}


@pytest.mark.parametrize("subcommand", sorted(_OUTPUTS))
def test_output_file_formats(tmp_path, subcommand):
    # CSV header lines are part of the CLI contract; every sidecar (all JSON
    # but criterion.json) is sorted, indented by two and ends in a newline
    doc, headers = _OUTPUTS[subcommand]
    cfg = _write(tmp_path, "c.json", doc)
    out = tmp_path / "o"
    assert main([subcommand, "--config", cfg, "--out", str(out)]) == 0
    for pattern, header in headers.items():
        (path,) = out.glob(pattern)
        assert path.read_text().splitlines()[0] == header
    sidecars = [p for p in out.glob("*.json") if p.name != "criterion.json"]
    assert len(sidecars) == 1
    text = sidecars[0].read_text()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


_RING_CONFIGS = {"nonbloch": {"g_range": [0.0, 1.5]}, "effective": {"thetas": [0.005]}}


@pytest.mark.parametrize("name", sorted(not_rings()))
@pytest.mark.parametrize("subcommand", sorted(_RING_CONFIGS))
def test_ring_subcommands_reject_non_rings(tmp_path, capsys, subcommand, name):
    spec, reason = not_rings()[name]
    cfg = _write(tmp_path, "c.json", {"model": spec.to_json_dict(), **_RING_CONFIGS[subcommand]})
    out = tmp_path / "o"
    assert main([subcommand, "--config", cfg, "--out", str(out)]) == 1
    assert reason in capsys.readouterr().err
    assert list(out.iterdir()) == []  # no sidecar, no CSV


@pytest.mark.parametrize("key, value", [("t", 2.0), ("phi", 0.3)])
def test_effective_rejects_t_and_phi_keys(tmp_path, capsys, key, value):
    doc = {
        "model": flux_ring(60, 0.005, 0.5).to_json_dict(),
        "thetas": [0.005],
        key: value,
    }
    cfg = _write(tmp_path, "e.json", doc)
    out = tmp_path / "o"
    assert main(["effective", "--config", cfg, "--out", str(out)]) == 1
    assert f"key '{key}'" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_import_loads_no_scipy():
    # the child finds the package where this process found it
    src = str(Path(ptlattice.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    code = (
        "import sys, ptlattice, ptlattice.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("where", ["config", "out"])
def test_file_errors_exit_1(tmp_path, capsys, model_config, where):
    # --config naming a directory, --out naming an existing file
    blocker = tmp_path / "file"
    blocker.write_text("")
    config, out = (str(tmp_path), tmp_path / "o") if where == "config" else (model_config, blocker)
    assert main(["spectrum", "--config", config, "--out", str(out)]) == 1
    assert "config error" in capsys.readouterr().err


def _with(doc: dict, path: str, value) -> dict:
    """A copy of doc with the value at a dotted path (list indices as numbers) replaced."""
    doc = json.loads(json.dumps(doc))
    *parents, last = (int(k) if k.isdigit() else k for k in path.split("."))
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    return doc


_RING = flux_ring(24, 0.4, 0.8).to_json_dict()
_CHAIN = gain_chain(50).to_json_dict()
_INTEGER_CASES = {
    "L_fraction": ("spectrum", _CHAIN, "L", 10.7),
    "L_infinity": ("spectrum", _RING, "L", float("inf")),
    "L_bool": ("spectrum", _RING, "L", True),
    "range_bool": ("spectrum", _RING, "hoppings.0.range", True),
    "range_fraction": ("spectrum", _RING, "hoppings.0.range", 1.5),
    "site_fraction": ("spectrum", _RING, "perturbations.0.i", 1.5),
    "site_bool": ("spectrum", _RING, "perturbations.0.j", True),
    "steps_fraction": ("scan", _scan_doc(), "axis1.steps", 3.9),
    "steps_infinity": ("scan", _scan_doc(), "axis2.steps", float("inf")),
    "axis_min_nan": ("scan", _scan_doc(), "axis2.min", float("nan")),
    "sizes_fraction": ("scaling", {"model": _CHAIN, "sizes": [60, 90, 120]}, "sizes.2", 120.5),
    "gamma_resolution_fraction": ("nonbloch", {"model": _RING}, "gamma_resolution", 2000.5),
}


@pytest.mark.parametrize("case", sorted(_INTEGER_CASES))
def test_integer_keys_reject_fractions_bools_and_non_finite(tmp_path, capsys, case):
    subcommand, doc, path, value = _INTEGER_CASES[case]
    cfg = _write(tmp_path, "c.json", _with(doc, path, value))
    assert main([subcommand, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    match = "finite min and max" if math.isnan(value) else f"must be an integer, got {value!r}"
    assert "config error" in err and match in err


def test_integral_float_size_runs(tmp_path):
    cfg = _write(tmp_path, "c.json", {**_CHAIN, "L": 60.0})
    out = tmp_path / "o"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    assert len((out / "spectrum.csv").read_text().splitlines()) == 61

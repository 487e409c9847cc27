import csv
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import ptlattice
from ptlattice import Boundary, ModelSpec
from ptlattice.analysis import (
    C_BOUND_CUT,
    default_fit_window,
    detect_bound_states,
    localization_constant,
)
from ptlattice.cli import main
from ptlattice.eigen import EigensolverError, solve
from ptlattice.nonbloch import unitary_scan
from ptlattice.sweep import PARAMETER_PATHS, SweepConfig, config_hash, run_sweep
from conftest import flux_ring, gain_chain, nnn_chain, not_rings, random_model


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


def test_spectrum_long_open_chain(tmp_path):
    # every state's c_fit comes from one stacked slope fit
    cfg = _write(tmp_path, "m.json", nnn_chain(400, 1.0, 0.5, 1.0).to_json_dict())
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    with (out / "spectrum.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 400
    assert not any(math.isnan(float(row["c_fit"])) for row in rows)
    assert sum(int(row["is_bound"]) for row in rows) == 2


def test_spectrum_is_bound_reads_c_beta_not_the_vector_fit(tmp_path):
    # state 2 of this open chain is an extended standing wave: its half-window
    # |c| reads 11.86, above the cut, but its c_beta is 0.014, so it is not bound
    spec = random_model(133)
    cfg = _write(tmp_path, "m.json", spec.to_json_dict())
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    with (out / "spectrum.csv").open() as fh:
        is_bound = [int(row["is_bound"]) for row in csv.DictReader(fh)]
    assert is_bound[2] == 0
    spectrum, _ = solve(spec)
    assert localization_constant(spectrum.vector(2), spec.max_range) > C_BOUND_CUT
    assert is_bound == [int(i in detect_bound_states(spectrum, spec)) for i in range(spec.L)]


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
    assert f"config error: {key} must be a list, got " in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("value", [[2000], None, float("inf")], ids=["list", "null", "infinity"])
def test_gamma_resolution_must_be_a_number(tmp_path, capsys, value):
    doc = {"model": flux_ring(24, 0.4, 0.8).to_json_dict(), "gamma_resolution": value}
    cfg = _write(tmp_path, "n.json", doc)
    out = tmp_path / "o"
    assert main(["nonbloch", "--config", cfg, "--out", str(out)]) == 1
    assert "config error: gamma_resolution must be an integer, got " in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "subcommand, key, value, message",
    [
        ("spectrum", "L", "60", "L must be an integer, got '60'"),
        ("spectrum", "flux_theta", " 0.5 ", "flux_theta must be a number, got ' 0.5 '"),
        ("nonbloch", "gamma_resolution", "2000", "gamma_resolution must be an integer, got '2000'"),
        ("scan", "axis1.min", "0.05", "axis1.min must be a number, got '0.05'"),
    ],
    ids=["L", "flux_theta", "gamma_resolution", "axis1.min"],
)
def test_numeric_strings_are_config_errors(tmp_path, capsys, subcommand, key, value, message):
    # float(" 0.5 ") once read these strings as numbers
    ring = flux_ring(24, 0.4, 0.8).to_json_dict()
    doc = {"spectrum": ring, "nonbloch": {"model": ring}, "scan": _scan_doc()}[subcommand]
    *parents, last = key.split(".")
    target = doc
    for part in parents:
        target = target[part]
    target[last] = value
    cfg = _write(tmp_path, "c.json", doc)
    out = tmp_path / "o"
    assert main([subcommand, "--config", cfg, "--out", str(out)]) == 1
    assert f"config error: {message}" in capsys.readouterr().err
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


def _config(doc):
    return lambda tmp_path: _write(tmp_path, "c.json", doc)


@pytest.mark.parametrize(
    "subcommand, make_config, match",
    [
        ("spectrum", _not_json, "invalid JSON"),
        ("scan", _bad_axis_scan, "axis1.parameter must be one of ('flux_theta', 'g', 'phi', 't2'), got 'bogus'"),
        ("spectrum", _config([gain_chain(50).to_json_dict()]), ": top level must be an object\n"),
        (
            "scaling",
            _config({"model": gain_chain(50).to_json_dict()}),
            "config error: scaling config needs keys 'model' and 'sizes'\n",
        ),
        (
            "nonbloch",
            _config({"g_range": [0.0, 1.5]}),
            "config error: nonbloch config needs key 'model'\n",
        ),
        (
            "effective",
            _config({"model": flux_ring(24, 0.4, 0.8).to_json_dict()}),
            "config error: effective config needs keys 'model' and 'thetas'\n",
        ),
        (
            "nonbloch",
            _config({"model": flux_ring(24, 0.4, 0.8).to_json_dict(), "gamma_resolution": 999}),
            "config error: gamma_resolution must be at least 1000\n",
        ),
    ],
    ids=[
        "not_json",
        "unknown_parameter_path",
        "not_an_object",
        "scaling_without_sizes",
        "nonbloch_without_model",
        "effective_without_thetas",
        "gamma_resolution_999",
    ],
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


def _ring_doc(**model_edits) -> dict:
    return {"model": {**flux_ring(24, 0.4, 0.8).to_json_dict(), **model_edits}}


def test_override_into_a_top_level_list_entry(tmp_path):
    cfg = _write(tmp_path, "m.json", gain_chain(50, g=0.5).to_json_dict())
    out = tmp_path / "o"
    assert main(["spectrum", "--config", cfg, "--out", str(out), "--override", "hoppings.0.re=2.0"]) == 0
    sidecar = json.loads((out / "spectrum.json").read_text())
    assert sidecar["config"]["hoppings"][0]["re"] == 2.0
    assert sidecar["overrides"] == ["hoppings.0.re=2.0"]


def test_override_into_a_list_entry(tmp_path):
    out = tmp_path / "o"
    cfg = _write(tmp_path, "c.json", _ring_doc())
    assert main(["nonbloch", "--config", cfg, "--out", str(out), "--override", "model.hoppings.0.re=1.5"]) == 0
    sidecar = json.loads((out / "nonbloch.json").read_text())
    assert sidecar["config"]["model"]["hoppings"] == [{"range": 1, "re": 1.5, "im": 0.0}]


def test_override_takes_the_path_of_a_config_error(tmp_path, capsys):
    # the dotted path a config error names can be pasted into --override
    bad = _ring_doc()
    bad["model"]["hoppings"][0]["range"] = True
    cfg = _write(tmp_path, "c.json", bad)
    assert main(["nonbloch", "--config", cfg, "--out", str(tmp_path / "a")]) == 1
    message = capsys.readouterr().err
    path = "model.hoppings.0.range"
    assert f"config error: {path} must be an integer, got True\n" in message
    assert main(["nonbloch", "--config", cfg, "--out", str(tmp_path / "b"), "--override", f"{path}=1"]) == 0


@pytest.mark.parametrize(
    "override, match",
    [
        ("model.hoppings.1.re=2", "'model.hoppings.1' is not an entry of a list of 1"),
        ("model.hoppings.-1.re=2", "'model.hoppings.-1' is not an entry of a list of 1"),
        ("model.hoppings.re=2", "'model.hoppings.re' is not an entry of a list of 1"),
        ("model.hoppings.0.re.x=2", "'model.hoppings.0.re' is not an object or a list"),
        ("model.perturbations.2=5", "'model.perturbations.2' is not an entry of a list of 2"),
    ],
)
def test_override_outside_a_list_exits_1(tmp_path, capsys, override, match):
    out = tmp_path / "o"
    cfg = _write(tmp_path, "c.json", _ring_doc())
    assert main(["nonbloch", "--config", cfg, "--out", str(out), "--override", override]) == 1
    key = override.split("=")[0]
    assert f"config error: override path {key!r}: {match}\n" in capsys.readouterr().err
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


@pytest.mark.parametrize("command", ["spectrum", "criterion"])
def test_an_overflowing_norm_is_blamed_on_scale(tmp_path, capsys, command):
    # ||H||_F of the +-1e155i ends overflows to inf; no --tol-imag is given
    ends = [{"i": 1, "j": 1, "re": 0.0, "im": 1e155}, {"i": 24, "j": 24, "re": 0.0, "im": -1e155}]
    model = {"L": 24, "boundary": "open", "hoppings": [{"range": 1, "re": 1.0}], "perturbations": ends}
    cfg = _write(tmp_path, "m.json", model)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "config error: scale must be finite and positive (pass the Frobenius norm), got inf\n" in err


# t2 x g on the open L = 100 NNN chain: its 6 points solve eigenvectors,
# in one stack of ceil(501/L) = 6
_OPEN_CHAIN_SCAN = {
    "base_model": nnn_chain(100, 1.0, 0.05, 1.0).to_json_dict(),
    "axis1": {"parameter": "t2", "min": 0.05, "max": 0.5, "steps": 2},
    "axis2": {"parameter": "g", "min": 0.0, "max": 1.0, "steps": 3},
    "metric": "PCom",
}


def test_scan_writes_grid_and_onsets(tmp_path):
    for name, doc, stack in (("ring", _scan_doc(), 32), ("chain", _OPEN_CHAIN_SCAN, 6)):
        cfg = _write(tmp_path, f"{name}.json", doc)
        out = tmp_path / name
        assert main(["scan", "--config", cfg, "--out", str(out), "--threads", "2"]) == 0
        grids = list(out.glob("grid_*.csv"))
        onsets = list(out.glob("onset_*.csv"))
        assert len(grids) == 1 and len(onsets) == 1
        steps = doc["axis1"]["steps"] * doc["axis2"]["steps"]
        assert len(grids[0].read_text().splitlines()) == 1 + steps
        key = config_hash(SweepConfig.from_json_dict(doc))
        sidecar = json.loads((out / f"grid_{key}.json").read_text())
        assert sidecar["metric"] == "PCom"
        provenance = sidecar["provenance"]
        assert provenance["config_hash"] == key
        assert provenance["stack"] == stack and provenance["nan_points"] == []


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_scan_rejects_threads_below_1(tmp_path, capsys, threads):
    # checked before the cache is read: a rerun whose points are all cached
    # starts no pool, and must fail as a fresh run does
    cfg = _write(tmp_path, "scan.json", _scan_doc())
    out = tmp_path / "o"
    for cached in (False, True):
        if cached:
            run_sweep(SweepConfig.from_json_dict(_scan_doc()), threads=1, cache_dir=out)
        assert main(["scan", "--config", cfg, "--out", str(out), "--threads", threads]) == 1
        assert capsys.readouterr().err == f"config error: threads must be at least 1, got {threads}\n"
        assert list(out.glob("grid_*")) == []


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
    assert sidecar["max_normalized_boundary_det_ill_conditioned"] == 0.0
    assert sidecar["ill_conditioned"] == 0


def test_nonbloch_writes_no_csv_when_the_audit_fails(tmp_path, capsys, monkeypatch):
    # the scan's CSV is written only once the solve and the audit have succeeded
    def failing_audit(spec, energies):
        raise RuntimeError("audit failed")

    monkeypatch.setattr("ptlattice.cli._spectrum_audit", failing_audit)
    cfg = _write(tmp_path, "n.json", {"model": flux_ring(24, 0.4, 0.8).to_json_dict()})
    out = tmp_path / "o"
    assert main(["nonbloch", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "numerical failure: audit failed\n"
    assert list(out.iterdir()) == []


def test_nonbloch_audits_a_clean_ring(tmp_path):
    # each eigenstate of a clean ring is one plane wave: one column of the
    # boundary matrix cancels on its own, and the audit must read that as 0
    ring = replace(flux_ring(24, 0.4, 0.0), perturbations=())
    cfg = _write(tmp_path, "n.json", {"model": ring.to_json_dict()})
    out = tmp_path / "o"
    assert main(["nonbloch", "--config", cfg, "--out", str(out)]) == 0
    assert json.loads((out / "nonbloch.json").read_text())["max_normalized_boundary_det"] < 1e-9


def test_nonbloch_audit_reports_ill_conditioned_rows_apart(tmp_path):
    # without flux the clean ring has E = +-2, where beta = +-1 is a double
    # root; at L = 100 those two rows read about 7e-8 from roundoff (0 at
    # L = 24), and the audit's maximum must come from the well-conditioned
    # rows alone
    for L in (24, 100):
        ring = replace(flux_ring(L, 0.0, 0.0), perturbations=())
        cfg = _write(tmp_path, "n.json", {"model": ring.to_json_dict()})
        out = tmp_path / str(L)
        with pytest.warns(RuntimeWarning, match=f"coincident beta roots at 2 of {L} "):
            assert main(["nonbloch", "--config", cfg, "--out", str(out)]) == 0
        sidecar = json.loads((out / "nonbloch.json").read_text())
        assert sidecar["ill_conditioned"] == 2
        assert sidecar["max_normalized_boundary_det"] < 1e-9
        assert sidecar["max_normalized_boundary_det_ill_conditioned"] >= 0.0


@pytest.mark.parametrize(
    "g_range", [[1.5, 0.0], [0.0, float("nan")], [0.0, 1.0, 2.0], [1.0]]
)
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


def test_nonbloch_g_range_beyond_the_count_exits_1(tmp_path, capsys):
    doc = {"model": flux_ring(100, 0.3 / 100, 0.8).to_json_dict(), "g_range": [0.0, 1e150]}
    cfg = _write(tmp_path, "n.json", doc)
    out = tmp_path / "o"
    assert main(["nonbloch", "--config", cfg, "--out", str(out)]) == 1
    assert "needs |g/t| <= 1e+100, got 1e+150" in capsys.readouterr().err
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


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("via", ["config", "override"])
def test_effective_rejects_non_finite_theta(tmp_path, capsys, literal, via):
    doc = {"model": flux_ring(24, 0.4 / 24, 0.8).to_json_dict(), "thetas": [0.01]}
    if via == "config":
        path = tmp_path / "e.json"
        path.write_text(json.dumps(doc).replace("[0.01]", f"[{literal}]"))
        extra = []
    else:
        path = _write(tmp_path, "e.json", doc)
        extra = ["--override", f"thetas=[{literal}]"]
    out = tmp_path / "o"
    assert main(["effective", "--config", str(path), "--out", str(out), *extra]) == 1
    assert "config error: flux theta must be finite" in capsys.readouterr().err
    assert not (out / "thresholds.csv").exists()


# case: (edit of _scan_doc(), expected message)
_SCAN_CONFIG_ERRORS = {
    "no_metric": (lambda d: d.pop("metric"), "metric is missing"),
    "no_axis2": (lambda d: d.pop("axis2"), "axis2 is missing"),
    "no_base_model": (lambda d: d.pop("base_model"), "base_model is missing"),
    "no_axis1_steps": (lambda d: d["axis1"].pop("steps"), "axis1.steps is missing"),
    "axis1_min_string": (lambda d: d["axis1"].update(min="a"), "axis1.min must be a number, got 'a'"),
    "axis1_number": (lambda d: d.update(axis1=5), "axis1 must be an object, got 5"),
    "axis1_parameter_bogus": (
        lambda d: d["axis1"].update(parameter="bogus"),
        f"axis1.parameter must be one of {PARAMETER_PATHS}, got 'bogus'",
    ),
    "axis2_parameter_null": (
        lambda d: d["axis2"].update(parameter=None),
        f"axis2.parameter must be one of {PARAMETER_PATHS}, got None",
    ),
}


@pytest.mark.parametrize("case", sorted(_SCAN_CONFIG_ERRORS))
def test_scan_config_errors_name_the_json_path(tmp_path, capsys, case):
    edit, match = _SCAN_CONFIG_ERRORS[case]
    doc = _scan_doc()
    edit(doc)
    out = tmp_path / "o"
    assert main(["scan", "--config", _write(tmp_path, "c.json", doc), "--out", str(out)]) == 1
    assert f"config error: {match}\n" in capsys.readouterr().err
    assert list(out.glob("grid_*.csv")) == []


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
    # but criterion.json) is sorted, indented by two, ends in a newline and
    # carries the run's config, overrides and version
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
    sidecar = json.loads(text)
    assert sidecar["config"] == doc
    assert sidecar["overrides"] == []
    assert sidecar["version"] == ptlattice.__version__


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


_DELETE = object()


def _with(doc: dict, path: str, value) -> dict:
    """A copy of doc with the value at a dotted path (list indices as numbers)
    replaced, or removed when value is _DELETE."""
    doc = json.loads(json.dumps(doc))
    *parents, last = (int(k) if k.isdigit() else k for k in path.split("."))
    target = doc
    for key in parents:
        target = target[key]
    if value is _DELETE:
        del target[last]
    else:
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


# subcommand: (config, dotted path of its model)
_MODEL_DOCS = {
    "spectrum": (_CHAIN, ""),
    "criterion": (_CHAIN, ""),
    "scaling": ({"model": _CHAIN, "sizes": [50, 60, 70]}, "model."),
    "scan": (_scan_doc(), "base_model."),
    "nonbloch": ({"model": _RING}, "model."),
    "effective": ({"model": _RING, "thetas": [0.01]}, "model."),
}
# model field: expected message (perturbation 0 sits at (1, 1) in every model)
_NON_FINITE_FIELDS = {
    "flux_theta": "flux_theta must be finite",
    "hoppings.0.re": "hopping amplitude of range 1 must be finite",
    "perturbations.0.im": "perturbation amplitude at (1,1) must be finite",
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", sorted(_NON_FINITE_FIELDS))
@pytest.mark.parametrize("subcommand", sorted(_MODEL_DOCS))
def test_non_finite_model_values_exit_1(tmp_path, capsys, subcommand, field, value):
    # JSON NaN and +-Infinity in a model are config errors on every
    # subcommand, including those that never read the value
    doc, prefix = _MODEL_DOCS[subcommand]
    cfg = _write(tmp_path, "c.json", _with(doc, prefix + field, value))
    out = tmp_path / "o"
    assert main([subcommand, "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and _NON_FINITE_FIELDS[field] in err
    assert list(out.iterdir()) == []


def _model_cases(reader, prefix):
    # a missing key, null, the wrong container, a non-object entry, a bool for a number
    edits = [("L", _DELETE), ("perturbations.0.im", None), ("hoppings", {"range": 1}),
             ("hoppings.0", 1), ("hoppings.0.re", True), ("flux_theta", False)]
    doc = {"": _CHAIN, "model.": {"model": _RING}, "base_model.": _scan_doc()}[prefix]
    return [(reader, doc, prefix + path, value) for path, value in edits]


_UNITARY_PARAMS = {"t": 1.0, "g_range": [0.0, 1.5], "theta": 0.3, "phi": 1.0, "L": 20}


def _unitary_scan(params):
    return unitary_scan(params, 1000)


_SCALING = {"model": _CHAIN, "sizes": [50, 60, 70]}
_EFFECTIVE = {"model": _RING, "thetas": [0.01]}
# (reader: a subcommand, or a Python call; valid config; dotted path; value or _DELETE)
_READER_CASES = [
    *_model_cases("spectrum", ""),
    *_model_cases("nonbloch", "model."),
    *_model_cases("scan", "base_model."),
    *_model_cases(ModelSpec.from_json_dict, ""),
    ("scan", _scan_doc(), "axis1.steps", _DELETE),
    ("scan", _scan_doc(), "axis2.min", None),
    ("scan", _scan_doc(), "axis1", [0.0, 1.0]),
    ("scan", _scan_doc(), "axis1.max", True),
    ("scan", _scan_doc(), "axis2.steps", True),
    ("nonbloch", {"model": _RING}, "gamma_resolution", None),
    ("nonbloch", {"model": _RING}, "gamma_resolution", [2000]),
    ("nonbloch", {"model": _RING}, "gamma_resolution", True),
    ("nonbloch", {"model": _RING}, "g_range", None),
    ("nonbloch", {"model": _RING}, "g_range", {"lo": 0.0, "hi": 1.5}),
    ("nonbloch", {"model": _RING, "g_range": [0.0, 1.5]}, "g_range.1", True),
    ("scaling", _SCALING, "sizes", _DELETE),
    ("scaling", _SCALING, "sizes", None),
    ("scaling", _SCALING, "sizes", 50),
    ("scaling", _SCALING, "sizes.1", True),
    ("effective", _EFFECTIVE, "thetas", _DELETE),
    ("effective", _EFFECTIVE, "thetas", None),
    ("effective", _EFFECTIVE, "thetas", {"theta": 0.01}),
    ("effective", _EFFECTIVE, "thetas.0", False),
    (_unitary_scan, _UNITARY_PARAMS, "t", _DELETE),
    (_unitary_scan, _UNITARY_PARAMS, "phi", None),
    (_unitary_scan, _UNITARY_PARAMS, "g_range", 1.5),
    (_unitary_scan, _UNITARY_PARAMS, "g_range.0", True),
    (_unitary_scan, _UNITARY_PARAMS, "theta", True),
    (_unitary_scan, _UNITARY_PARAMS, "L", True),
]


def _reader_id(case) -> str:
    reader, _, path, value = case
    name = reader if isinstance(reader, str) else reader.__qualname__.lstrip("_")
    return f"{name}-{path}-{'missing' if value is _DELETE else json.dumps(value)}"


@pytest.mark.parametrize("case", _READER_CASES, ids=map(_reader_id, _READER_CASES))
def test_every_config_reader_names_the_dotted_path(tmp_path, capsys, case):
    # each JSON value is read by lattice._field: a bad one exits 1 from the CLI
    # and raises ValueError (never TypeError or KeyError) from the Python API
    reader, doc, path, value = case
    doc = _with(doc, path, value)
    if callable(reader):
        with pytest.raises(ValueError, match=f"^{re.escape(path)} "):
            reader(doc)
        return
    out = tmp_path / "o"
    assert main([reader, "--config", _write(tmp_path, "c.json", doc), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    # a missing required subcommand key keeps _model_config's message
    assert err.startswith(f"config error: {path} ") or f"needs keys 'model' and '{path}'" in err
    assert list(out.iterdir()) == []


def test_integral_float_size_runs(tmp_path):
    cfg = _write(tmp_path, "c.json", {**_CHAIN, "L": 60.0})
    out = tmp_path / "o"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    assert len((out / "spectrum.csv").read_text().splitlines()) == 61


@pytest.mark.parametrize(
    "flag, value, reader, other",
    [("--tol-imag", "1e-3", "spectrum", "criterion"), ("--threads", "2", "scan", "spectrum")],
)
def test_flag_is_read_by_one_subcommand(tmp_path, capsys, model_config, flag, value, reader, other):
    # a flag the subcommand would ignore is an error, not a silent no-op
    out = tmp_path / "o"
    assert main([other, "--config", model_config, "--out", str(out), flag, value]) == 1
    assert capsys.readouterr().err == f"config error: {flag} is read only by {reader}, not by {other}\n"
    assert not out.exists()
    config = _write(tmp_path, "scan.json", _scan_doc()) if reader == "scan" else model_config
    assert main([reader, "--config", config, "--out", str(out), flag, value]) == 0


def test_residual_contract_failure_exits_2(tmp_path, capsys, model_config, monkeypatch):
    # with no tolerance every roundoff residual breaks the contract
    monkeypatch.setattr("ptlattice.eigen.RESIDUAL_FACTOR", 0.0)
    out = tmp_path / "o"
    assert main(["spectrum", "--config", model_config, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("numerical failure: residual contract violated")
    assert list(out.iterdir()) == []


def test_spectrum_writes_nan_c_fit_on_a_short_chain(tmp_path):
    # at L = 12 the fit window keeps 2 sites, fewer than the 10 a fit needs
    cfg = _write(tmp_path, "m.json", gain_chain(12).to_json_dict())
    out = tmp_path / "o"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    rows = [line.split(",") for line in (out / "spectrum.csv").read_text().splitlines()[1:]]
    assert len(rows) == 12
    assert all(row[5] == "nan" for row in rows)


def test_scaling_names_the_size_that_is_too_short(tmp_path, capsys):
    # the middle-60 % window holds 10 sites from L = 20 on; at L = 19 it holds 9
    doc = {"model": gain_chain(19, g=1.0).to_json_dict(), "sizes": [19, 40, 80]}
    out = tmp_path / "o"
    assert main(["scaling", "--config", _write(tmp_path, "s.json", doc), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "config error: size L = 19 is too short for the scale-free fit: "
        "its window (6, 14) holds 9 sites, fewer than 10\n"
    )
    assert list(out.iterdir()) == []


def _random_model_doc(command: str, spec: ModelSpec) -> dict:
    model = spec.to_json_dict()
    if command == "scan":
        axis2 = "g" if spec.perturbations else "t2"
        return {
            "base_model": model,
            "axis1": {"parameter": "flux_theta", "min": 0.0, "max": 1.0, "steps": 2},
            "axis2": {"parameter": axis2, "min": 0.0, "max": 1.0, "steps": 2},
            "metric": "PCom",
        }
    if command == "scaling":
        return {"model": model, "sizes": [spec.L, spec.L + 1, spec.L + 2]}
    if command == "effective":
        return {"model": model, "thetas": [0.1]}
    return {"model": model} if command == "nonbloch" else model


def _expected_exit(command: str, spec: ModelSpec) -> int:
    if command == "criterion":  # open chains only
        return int(spec.boundary is Boundary.PERIODIC)
    if command == "scan":  # a t2 axis needs L > 4
        return int(not spec.perturbations and spec.L <= 2 * max(spec.max_range, 2))
    if command == "scaling":  # the smallest size's window needs 10 sites
        lo, hi = default_fit_window(spec.L, spec.max_range)
        return int(hi - lo + 1 < 10)
    return int(command != "spectrum")  # no random model is a flux ring


@pytest.mark.parametrize(
    "command", ["spectrum", "criterion", "scan", "scaling", "nonbloch", "effective"]
)
def test_every_subcommand_on_random_models(tmp_path, capsys, command):
    # each run succeeds or is refused as a config error: no traceback, no exit 2
    for seed in range(300):
        spec = random_model(seed)
        cfg = _write(tmp_path, f"{seed}.json", _random_model_doc(command, spec))
        threads = ["--threads", "1"] if command == "scan" else []
        code = main([command, "--config", cfg, "--out", str(tmp_path / str(seed)), *threads])
        err = capsys.readouterr().err
        assert code == _expected_exit(command, spec), (seed, err)
        assert err == "" if code == 0 else err.startswith("config error: "), (seed, err)

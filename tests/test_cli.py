import json
import math

import pytest

from ptlattice.cli import main
from conftest import flux_ring, gain_chain, nnn_chain


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


def test_tol_imag_flag(tmp_path):
    cfg = _write(tmp_path, "m.json", gain_chain(50, g=1.5).to_json_dict())
    out = tmp_path / "o"
    assert main(["spectrum", "--config", cfg, "--out", str(out), "--tol-imag", "10.0"]) == 0
    sidecar = json.loads((out / "spectrum.json").read_text())
    assert sidecar["n_com"] == 0
    assert sidecar["tol_imag"] == 10.0


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

"""Command-line front end.

Every capability is a subcommand taking a JSON config and writing CSV/JSON
outputs into a directory.  Exit codes: 0 success, 1 config error, 2
numerical failure.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    classify_spectrum,
    fit_scale_free,
    state_metrics_rows,
)
from .bands import criterion_check
from .eigen import EigensolverError, solve
from .lattice import ModelSpec
from .nonbloch import _spectrum_audit, unitary_scan
from .sweep import (
    SweepConfig,
    apply_parameter,
    config_hash,
    run_sweep,
    threshold_extract,
    uncertain_onsets,
    write_grid_csv,
    write_grid_sidecar,
)
from .effective import threshold_pbc, threshold_pbc_printed

__all__ = ["main"]


class ConfigError(Exception):
    """Invalid configuration; message names the offending JSON path."""


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _apply_overrides(doc: dict, overrides: list[str]) -> dict:
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form K=V")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        target = doc
        parts = key.split(".")
        for part in parts[:-1]:
            if not isinstance(target.get(part), dict):
                raise ConfigError(f"override path {key!r}: {part!r} is not an object")
            target = target[part]
        target[parts[-1]] = value
    return doc


def _load_config(path: str, overrides: list[str]) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path}: top level must be an object")
    return _apply_overrides(doc, overrides)


def _model_from(doc: dict, path: str = "") -> ModelSpec:
    try:
        return ModelSpec.from_json_dict(doc)
    except (KeyError, TypeError, ValueError) as exc:
        where = path or "<root>"
        raise ConfigError(f"config path {where}: {exc}") from exc


def _sidecar(out: Path, name: str, doc: dict, overrides: list[str]) -> None:
    doc = dict(doc)
    doc["overrides"] = overrides
    doc["version"] = __version__
    (out / name).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _cmd_spectrum(doc: dict, out: Path, args) -> None:
    spec = _model_from(doc)
    spectrum, scale = solve(spec)
    cls = classify_spectrum(spectrum, scale, args.tol_imag)
    rows = state_metrics_rows(spec, spectrum)
    with (out / "spectrum.csv").open("w") as fh:
        fh.write("index,re_e,im_e,mean_position,half_asymmetry,c_fit,is_bound\n")
        for r in rows:
            fh.write(
                f"{r['index']},{_fmt(r['re_e'])},{_fmt(r['im_e'])},"
                f"{_fmt(r['mean_position'])},{_fmt(r['half_asymmetry'])},"
                f"{_fmt(r['c_fit'])},{r['is_bound']}\n"
            )
    _sidecar(
        out,
        "spectrum.json",
        {
            "config": doc,
            "p_com": cls.p_com,
            "n_com": cls.n_com,
            "tol_imag": cls.tol_imag,
            "real_pt_basis": spectrum.real_basis,
            "near_cut": cls.near_cut,
        },
        args.override,
    )
    print(f"p_com = {cls.p_com:.6g} ({cls.n_com} complex eigenvalues)")


def _cmd_scan(doc: dict, out: Path, args) -> None:
    try:
        config = SweepConfig.from_json_dict(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"scan config: {exc}") from exc
    grid = run_sweep(config, threads=args.threads, cache_dir=out)
    key = config_hash(config)
    onsets, uncertain = [], []
    if grid.metric.value != "MaxImE":
        onsets, uncertain = threshold_extract(grid), uncertain_onsets(grid)
    write_grid_csv(grid, out / f"grid_{key}.csv")
    write_grid_sidecar(
        grid,
        out / f"grid_{key}.json",
        {"config": doc, "overrides": args.override, "onset_uncertain": uncertain},
    )
    with (out / f"onset_{key}.csv").open("w") as fh:
        fh.write(f"{config.axis1.parameter},onset_{config.axis2.parameter}\n")
        for v1, onset in onsets:
            fh.write(f"{_fmt(v1)},{'no onset' if onset is None else _fmt(onset)}\n")
    print(f"grid written: grid_{key}.csv ({grid.values.shape[0]}x{grid.values.shape[1]})")


def _cmd_scaling(doc: dict, out: Path, args) -> None:
    if "model" not in doc or "sizes" not in doc:
        raise ConfigError("scaling config needs keys 'model' and 'sizes'")
    base = _model_from(doc["model"], "model")
    sizes = [int(s) for s in doc["sizes"]]

    fit = fit_scale_free(base.resized, sizes)
    with (out / "scaling.csv").open("w") as fh:
        fh.write("L,c\n")
        for L, c in zip(fit.sizes, fit.c_estimates):
            fh.write(f"{L},{_fmt(c)}\n")
    _sidecar(
        out,
        "scaling.json",
        {
            "config": doc,
            "status": fit.status,
            "c_mean": fit.c_mean,
            "c_relative_spread": fit.c_relative_spread,
            "im_scaling_exponent": fit.im_scaling_exponent,
        },
        args.override,
    )
    print(
        f"status={fit.status} c_mean={fit.c_mean:.6g} "
        f"spread={fit.c_relative_spread:.3g} "
        f"im_exponent={fit.im_scaling_exponent:.4g}"
    )


def _cmd_criterion(doc: dict, out: Path, args) -> None:
    spec = _model_from(doc)
    report = criterion_check(spec)
    (out / "criterion.json").write_text(report.to_json() + "\n")
    _sidecar(out, "criterion_config.json", {"config": doc}, args.override)
    window = ", ".join(f"({lo:.6g}, {hi:.6g})" for lo, hi in report.window.intervals)
    print(f"PT-breaking window: {window or 'empty'}")
    print(
        "all continuous-spectrum complex energies inside window: "
        f"{report.complex_energies_inside} ({len(report.violations)} violations)"
    )


def _first_pert_phase(spec: ModelSpec) -> float:
    if not spec.perturbations:
        return 0.0
    return cmath.phase(spec.perturbations[0].amplitude)


def _cmd_nonbloch(doc: dict, out: Path, args) -> None:
    if "model" not in doc:
        raise ConfigError("nonbloch config needs key 'model'")
    spec = _model_from(doc["model"], "model")
    resolution = int(doc.get("gamma_resolution", 2000))
    g_range = [float(x) for x in doc.get("g_range", [0.0, 2.0])]
    t = abs(spec.hoppings.amplitude(1))
    g = abs(spec.perturbations[0].amplitude) if spec.perturbations else 0.0
    params = {
        "t": t,
        "g_range": g_range,
        "theta": spec.flux_theta,
        "phi": _first_pert_phase(spec),
        "L": spec.L,
    }
    result = unitary_scan(params, resolution)
    with (out / "unitary_scan.csv").open("w") as fh:
        fh.write("gamma,G_plus,G_minus,discriminant_negative\n")
        for gm, p, m, d in result.csv_rows():
            fh.write(f"{_fmt(gm)},{_fmt(p)},{_fmt(m)},{d}\n")

    spectrum, _ = solve(spec, vectors=False)
    worst, ill = _spectrum_audit(spec, spectrum.eigenvalues)
    _sidecar(
        out,
        "nonbloch.json",
        {
            "config": doc,
            "g": g,
            "broken_g_intervals": [list(iv) for iv in result.broken_g_intervals],
            "max_normalized_boundary_det": worst,
            "ill_conditioned": ill,
        },
        args.override,
    )
    print(f"broken g/t intervals: {list(result.broken_g_intervals)}")
    print(f"max normalized boundary determinant over spectrum: {worst:.3e}")


def _observed_onset(spec: ModelSpec, g_max: float, steps: int = 41) -> float | None:
    for g in np.linspace(0.0, g_max, steps):
        spectrum, scale = solve(apply_parameter(spec, "g", float(g)), vectors=False)
        if classify_spectrum(spectrum, scale).n_com > 0:
            if g == 0:
                return 0.0
            return float(g - g_max / (steps - 1) / 2)
    return None


def _cmd_effective(doc: dict, out: Path, args) -> None:
    if "model" not in doc or "thetas" not in doc:
        raise ConfigError("effective config needs keys 'model' and 'thetas'")
    base = _model_from(doc["model"], "model")
    thetas = [float(x) for x in doc["thetas"]]
    t = float(doc.get("t", abs(base.hoppings.amplitude(1))))
    phi = float(doc.get("phi", _first_pert_phase(base)))
    rows = []
    for theta in thetas:
        g_pred = threshold_pbc(base.L, theta, phi, t)
        g_printed = threshold_pbc_printed(base.L, theta, phi, t)
        spec = apply_parameter(base, "flux_theta", theta)
        g_obs = (
            _observed_onset(spec, 2.0 * g_pred)
            if math.isfinite(g_pred) and g_pred > 0
            else None
        )
        rel = (
            abs(g_obs - g_pred) / g_pred
            if g_obs is not None and math.isfinite(g_pred) and g_pred > 0
            else math.nan
        )
        rows.append((theta, phi, g_pred, g_printed, g_obs, rel))
    with (out / "thresholds.csv").open("w") as fh:
        fh.write(
            "theta,phi,g_c_predicted,g_c_printed_form,g_c_observed,relative_error\n"
        )
        for theta, ph, g_pred, g_printed, g_obs, rel in rows:
            obs = "no onset" if g_obs is None else _fmt(g_obs)
            fh.write(
                f"{_fmt(theta)},{_fmt(ph)},{_fmt(g_pred)},{_fmt(g_printed)},"
                f"{obs},{_fmt(rel)}\n"
            )
    _sidecar(out, "thresholds.json", {"config": doc}, args.override)
    for theta, ph, g_pred, g_printed, g_obs, rel in rows:
        print(
            f"theta={theta:.6g} g_c={g_pred:.8g} (printed form {g_printed:.8g}) "
            f"observed={g_obs if g_obs is not None else 'no onset'}"
        )


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "scan": _cmd_scan,
    "scaling": _cmd_scaling,
    "criterion": _cmd_criterion,
    "nonbloch": _cmd_nonbloch,
    "effective": _cmd_effective,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ptlattice",
        description="Spectral toolkit for locally perturbed non-Hermitian chains",
    )
    parser.add_argument("subcommand", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", default="./out", help="output directory")
    parser.add_argument("--threads", type=int, default=None)
    parser.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="K=V",
        help="override a config key (dotted path), repeatable",
    )
    parser.add_argument(
        "--tol-imag",
        type=float,
        default=None,
        help="absolute Im-E cut for the real/complex classification",
    )
    args = parser.parse_args(argv)

    try:
        doc = _load_config(args.config, args.override)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _COMMANDS[args.subcommand](doc, out, args)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (EigensolverError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

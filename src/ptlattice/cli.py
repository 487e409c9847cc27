"""Command-line front end.

Every capability is a subcommand taking a JSON config and writing CSV/JSON
outputs into a directory; each ``_cmd_*`` returns its sidecar's name and
fields, and ``main`` writes it with the shared config, overrides and version.
Exit codes: 0 success, 1 config error (a ValueError, which names the dotted
path of a bad config value), 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import __version__
from .analysis import (
    STATE_METRICS_COLUMNS,
    classify_spectrum,
    fit_scale_free,
    state_metrics_rows,
)
from .bands import criterion_check
from .eigen import EigensolverError, solve
from .lattice import ModelSpec, _field, _integer, _items, _number
from .nonbloch import _ring_parameters, _spectrum_audit, unitary_scan
from .sweep import (
    Metric,
    SweepConfig,
    _first_onset,
    _grid_fields,
    _write_json,
    _write_table,
    apply_parameter,
    config_hash,
    run_sweep,
    threshold_extract,
    uncertain_onsets,
    write_grid_csv,
)
from .effective import threshold_pbc, threshold_pbc_printed

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """Argument errors are config errors (exit 1), not argparse's exit 2,
    which is the code of a numerical failure."""

    def error(self, message: str):
        raise ValueError(message)


def _or_no_onset(onset: float | None) -> float | str:
    return "no onset" if onset is None else onset


def _apply_overrides(doc: dict, overrides: list[str]) -> dict:
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"override {item!r} is not of the form K=V")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        target = doc
        parts = key.split(".")
        for part in parts[:-1]:
            if not isinstance(target.get(part), dict):
                raise ValueError(f"override path {key!r}: {part!r} is not an object")
            target = target[part]
        target[parts[-1]] = value
    return doc


def _load_config(path: str, overrides: list[str]) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ValueError(f"config file {path}: cannot read it ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file {path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"config file {path}: top level must be an object")
    return _apply_overrides(doc, overrides)


def _model_config(doc: dict, command: str, *keys: str) -> ModelSpec:
    """The model under doc['model'], once doc has 'model' and every one of keys."""
    keys = ("model", *keys)
    if any(key not in doc for key in keys):
        noun = "key" if len(keys) == 1 else "keys"
        raise ValueError(f"{command} config needs {noun} {' and '.join(map(repr, keys))}")
    return ModelSpec.from_json_dict(doc["model"], "model")


def _cmd_spectrum(doc: dict, out: Path, args) -> tuple[str, dict]:
    spec = ModelSpec.from_json_dict(doc)
    spectrum, scale = solve(spec)
    cls = classify_spectrum(spectrum, scale, args.tol_imag)
    _write_table(out / "spectrum.csv", STATE_METRICS_COLUMNS, state_metrics_rows(spec, spectrum))
    print(f"p_com = {cls.p_com:.6g} ({cls.n_com} complex eigenvalues)")
    return "spectrum.json", {
        "p_com": cls.p_com,
        "n_com": cls.n_com,
        "tol_imag": cls.tol_imag,
        "real_pt_basis": spectrum.real_basis,
        "near_cut": cls.near_cut,
    }


def _cmd_scan(doc: dict, out: Path, args) -> tuple[str, dict]:
    config = SweepConfig.from_json_dict(doc)
    grid = run_sweep(config, threads=args.threads, cache_dir=out)
    key = config_hash(config)
    onsets, uncertain = [], []
    if grid.metric is not Metric.MAX_IM_E:
        onsets, uncertain = threshold_extract(grid), uncertain_onsets(grid)
    write_grid_csv(grid, out / f"grid_{key}.csv")
    header = (config.axis1.parameter, f"onset_{config.axis2.parameter}")
    rows = ((v1, _or_no_onset(onset)) for v1, onset in onsets)
    _write_table(out / f"onset_{key}.csv", header, rows)
    print(f"grid written: grid_{key}.csv ({grid.values.shape[0]}x{grid.values.shape[1]})")
    return f"grid_{key}.json", {**_grid_fields(grid), "onset_uncertain": uncertain}


def _cmd_scaling(doc: dict, out: Path, args) -> tuple[str, dict]:
    base = _model_config(doc, "scaling", "sizes")
    sizes = _items(doc, "sizes", _integer)

    fit = fit_scale_free(base.resized, sizes)
    _write_table(out / "scaling.csv", ("L", "c"), zip(fit.sizes, fit.c_estimates))
    print(
        f"status={fit.status} c_mean={fit.c_mean:.6g} "
        f"spread={fit.c_relative_spread:.3g} "
        f"im_exponent={fit.im_scaling_exponent:.4g}"
    )
    return "scaling.json", {
        "status": fit.status,
        "c_mean": fit.c_mean,
        "c_relative_spread": fit.c_relative_spread,
        "im_scaling_exponent": fit.im_scaling_exponent,
    }


def _cmd_criterion(doc: dict, out: Path, args) -> tuple[str, dict]:
    spec = ModelSpec.from_json_dict(doc)
    report = criterion_check(spec)
    (out / "criterion.json").write_text(report.to_json() + "\n")
    window = ", ".join(f"({lo:.6g}, {hi:.6g})" for lo, hi in report.window.intervals)
    print(f"PT-breaking window: {window or 'empty'}")
    print(
        "all continuous-spectrum complex energies inside window: "
        f"{report.complex_energies_inside} ({len(report.violations)} violations)"
    )
    return "criterion_config.json", {}


def _cmd_nonbloch(doc: dict, out: Path, args) -> tuple[str, dict]:
    spec = _model_config(doc, "nonbloch")
    resolution = _field(doc, "gamma_resolution", _integer, 2000)
    g_range = _field(doc, "g_range", default=(0.0, 2.0))
    ring = _ring_parameters(spec)
    result = unitary_scan({**ring, "g_range": g_range}, resolution)
    spectrum, _ = solve(spec, vectors=False)
    worst, worst_ill, ill = _spectrum_audit(spec, spectrum.eigenvalues)
    header = ("gamma", "G_plus", "G_minus", "discriminant_negative")
    _write_table(out / "unitary_scan.csv", header, result.csv_rows())
    print(f"broken g/t intervals: {list(result.broken_g_intervals)}")
    print(f"max normalized boundary determinant over spectrum: {worst:.3e}")
    return "nonbloch.json", {
        "g": ring["g"],
        "broken_g_intervals": [list(iv) for iv in result.broken_g_intervals],
        "max_normalized_boundary_det": worst,
        "max_normalized_boundary_det_ill_conditioned": worst_ill,
        "ill_conditioned": ill,
    }


def _cmd_effective(doc: dict, out: Path, args) -> tuple[str, dict]:
    base = _model_config(doc, "effective", "thetas")
    for key in ("t", "phi"):
        if key in doc:
            raise ValueError(
                f"effective config key {key!r} is not accepted: t and phi come from the model"
            )
    thetas = _items(doc, "thetas", _number)
    ring = _ring_parameters(base)
    t, phi = ring["t"], ring["phi"]
    rows = []
    for theta in thetas:
        g_pred = threshold_pbc(base.L, theta, phi, t)
        g_printed = threshold_pbc_printed(base.L, theta, phi, t)
        g_obs, rel = None, math.nan
        if math.isfinite(g_pred) and g_pred > 0:
            spec = apply_parameter(base, "flux_theta", theta)
            g_obs = _first_onset(spec, "g", 0.0, 2.0 * g_pred, 41)
            if g_obs is not None:
                rel = abs(g_obs - g_pred) / g_pred
        rows.append((theta, phi, g_pred, g_printed, _or_no_onset(g_obs), rel))
    header = ("theta", "phi", "g_c_predicted", "g_c_printed_form", "g_c_observed", "relative_error")
    _write_table(out / "thresholds.csv", header, rows)
    for theta, _, g_pred, g_printed, g_obs, _ in rows:
        print(
            f"theta={theta:.6g} g_c={g_pred:.8g} (printed form {g_printed:.8g}) "
            f"observed={g_obs}"
        )
    return "thresholds.json", {}


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "scan": _cmd_scan,
    "scaling": _cmd_scaling,
    "criterion": _cmd_criterion,
    "nonbloch": _cmd_nonbloch,
    "effective": _cmd_effective,
}

# flags that one subcommand alone reads (argparse dest -> subcommand)
_FLAG_READERS = {"tol_imag": "spectrum", "threads": "scan"}


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(
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
    try:
        args = parser.parse_args(argv)
        for flag, reader in _FLAG_READERS.items():
            if getattr(args, flag) is not None and args.subcommand != reader:
                option = "--" + flag.replace("_", "-")
                raise ValueError(f"{option} is read only by {reader}, not by {args.subcommand}")
        doc = _load_config(args.config, args.override)
        out = Path(args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ValueError(f"output directory {out}: cannot create it ({exc})") from exc
        name, fields = _COMMANDS[args.subcommand](doc, out, args)
        envelope = {"config": doc, "overrides": args.override, "version": __version__}
        _write_json(out / name, {**fields, **envelope})
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (EigensolverError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

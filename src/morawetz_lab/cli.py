"""Command-line surface: experiment dispatch, CSV/JSON emission, gnuplot output.

Every run writes ``results.csv`` (fixed, versioned header; full provenance
columns) and ``manifest.json`` (resolved config echo, versions, tolerances,
wall time, summary values) into the output directory; some commands add
two-column ``.dat`` files for gnuplot.  Identical config and seed produce a
byte-identical CSV.  Exit status: 0 success, 2 configuration error,
3 numerical-accuracy failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import local_smoothing_functional, lp_level_range, lp_project
from .cutoff import default_cutoff
from .elastic import (
    ElasticPropagator,
    ElasticState,
    LameParams,
    elastic_energy,
    halfwave_sampler,
)
from .errors import AccuracyError, ConfigurationError, MorawetzLabError
from .harness import (
    DataFamily,
    RegionQuery,
    classify_region,
    decomposition_check,
    frequency_constant_scan,
    scale_covariance_test,
)
from .kernel import MAX_DISTANCES, decay_fit
from .spectral import GridSpec, VectorField, forward_values
from .weights import (
    SPACETIME_POWER,
    SPATIAL_POWER,
    QuadratureConfig,
    WeightSpec,
    a2_scan,
    default_cube_family,
    singular_cell_report,
)

CSV_SCHEMA_VERSION = "v2"


@dataclass(frozen=True)
class RunConfig:
    """Resolved invocation: command, validated option map, output dir, seed."""

    command: str
    options: dict
    out_dir: Path
    seed: int


# option name -> (type, default); None default means required
_SPECS: dict[str, dict] = {
    "evolve": {
        "n": (int, 2),
        "grid": (int, 64),
        "box": (float, 20.0),
        "horizon": (float, 6.0),
        "samples": (int, 49),
        "lame-lambda": (float, 1.0),
        "lame-mu": (float, 1.0),
        "width": (float, 1.0),
    },
    "scan-ratio": {
        "n": (int, 2),
        "weight": (str, "spatial"),
        "alpha": (float, None),
        "s": (float, None),
        "family": (str, "gaussian"),
        "width": (float, 0.75),
        "carrier": (float, 2.0),
        "lambdas": (str, "0.5,1,2"),
        "grid": (int, 128),
        "box": (float, 20.0),
        "horizon": (float, 12.0),
        "samples": (int, 97),
        "propagator": (str, "scalar"),
        "speed": (float, 1.0),
        "lame-lambda": (float, 1.0),
        "lame-mu": (float, 1.0),
        "refinement": (int, 24),
    },
    "kernel-decay": {
        "n": (int, 2),
        "k": (int, 0),
        "regime": (str, "oncone"),
        "tau": (float, 0.0),
        "dmin": (float, 10.0),
        "dmax": (float, 1000.0),
        "points": (int, 13),
        "rtol": (float, 1e-8),
    },
    "a2-scan": {
        "n-total": (int, 3),
        "alphas": (str, "0,0.9,1.8,2.7"),
        "side": (float, 1.0),
    },
    "lp-check": {
        "grid": (int, 32),
        "box": (float, 3.141592653589793),
        "n": (int, 2),
    },
    "report": {},
}


def _parse_config_file(path: Path) -> dict[str, str]:
    if not path.exists():
        raise ConfigurationError(f"config file {path} does not exist")
    out: dict[str, str] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        out[key] = value
    return out


def _resolve(command: str, flag_options: dict[str, str], config_file: str | None,
             out_dir: str, seed: int) -> RunConfig:
    spec = _SPECS[command]
    raw: dict[str, str] = {}
    if config_file:
        raw.update(_parse_config_file(Path(config_file)))
    raw.update(flag_options)
    unknown = sorted(set(raw) - set(spec))
    if unknown:
        raise ConfigurationError(f"unknown option(s) for {command}: {', '.join(unknown)}")
    options: dict = {}
    for key, (typ, default) in spec.items():
        if key in raw:
            try:
                options[key] = typ(raw[key])
            except ValueError as exc:
                raise ConfigurationError(f"option {key!r}: cannot parse {raw[key]!r}") from exc
            if typ is float and not math.isfinite(options[key]):
                raise ConfigurationError(f"option {key!r} must be finite, got {raw[key]!r}")
        elif default is None:
            raise ConfigurationError(f"option {key!r} is required for {command}")
        else:
            options[key] = default
    return RunConfig(command=command, options=options, out_dir=Path(out_dir), seed=int(seed))


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, schema: str, header: list[str], rows: list[list]) -> None:
    with path.open("w", newline="") as handle:
        handle.write(f"# morawetz-lab {schema}/{CSV_SCHEMA_VERSION}\n")
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_manifest(cfg: RunConfig, summary: dict, tolerances: dict, wall: float) -> None:
    manifest = {
        "command": cfg.command,
        "config": {k: cfg.options[k] for k in sorted(cfg.options)},
        "seed": cfg.seed,
        "package_version": __version__,
        "numpy_version": np.__version__,
        "tolerances": tolerances,
        "summary": summary,
        "wall_time_s": wall,
    }
    (cfg.out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _check_finite(command: str, result) -> None:
    """Exit 3 (``AccuracyError``) on a non-finite number in ``result``."""
    try:
        json.dumps(result, allow_nan=False)
    except ValueError:
        raise AccuracyError(f"{command}: a result is not finite (nan or inf)") from None


def _weight_kind(name: str) -> str:
    table = {"spatial": SPATIAL_POWER, "spacetime": SPACETIME_POWER}
    if name not in table:
        raise ConfigurationError(f"weight must be one of {sorted(table)}, got {name!r}")
    return table[name]


def _provenance_header() -> list[str]:
    return ["n", "N", "box", "horizon", "samples", "refinement", "margin"]


def _run_evolve(cfg: RunConfig) -> dict:
    o = cfg.options
    grid = GridSpec(o["n"], o["grid"], o["box"], o["samples"], o["horizon"])
    params = LameParams(o["lame-lambda"], o["lame-mu"])
    family = DataFamily(kind="gaussian", width=o["width"], scalar=False)
    margin = grid.wraparound_margin(family.support_radius(), params.max_speed)
    if margin <= 0:
        raise ConfigurationError(f"wrap-around margin {margin:.3g} <= 0; enlarge box")
    member = family.member(grid)
    prop = ElasticPropagator(ElasticState(member.f, member.g), params)
    e0 = None
    rows = []
    for t in grid.time_nodes():
        u, ut = prop.pair(float(t))
        e = elastic_energy(u, ut, params)
        e0 = e if e0 is None else e0
        drift = abs(e - e0) / e0 if e0 else 0.0
        l2 = float(np.sqrt(grid.dx**grid.dim * np.sum(np.abs(u.values) ** 2)))
        if not (math.isfinite(e) and math.isfinite(l2)):
            raise AccuracyError(f"at t = {t:.6g} the energy ({e}) or the L2 norm ({l2}) "
                                "is not finite; the data overflow the float range")
        rows.append([float(t), e, drift, l2,
                     grid.dim, grid.points_per_axis, grid.half_width, grid.time_horizon,
                     grid.time_samples, 0, margin])
    _write_csv(cfg.out_dir / "results.csv", "evolve",
               ["t", "energy", "energy_drift_rel", "l2_displacement"] + _provenance_header(),
               rows)
    max_drift = max(r[2] for r in rows)
    return {"energy_initial": rows[0][1], "max_energy_drift_rel": max_drift}


def _run_scan_ratio(cfg: RunConfig) -> dict:
    o = cfg.options
    grid = GridSpec(o["n"], o["grid"], o["box"], o["samples"], o["horizon"])
    quad = QuadratureConfig(singular_cell_refinement=o["refinement"])
    kind = _weight_kind(o["weight"])
    query = RegionQuery(alpha=o["alpha"], s=o["s"], n=o["n"], weight_kind=kind)
    try:
        lambdas = [float(x) for x in o["lambdas"].split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigurationError(f"cannot parse lambdas {o['lambdas']!r}") from exc
    if o["family"] == "gaussian":
        family = DataFamily(kind="gaussian", width=o["width"])
    elif o["family"] == "modulated":
        family = DataFamily(kind="modulated", width=o["width"], carrier=o["carrier"])
    else:
        raise ConfigurationError(f"unknown family {o['family']!r}")
    if o["propagator"] == "scalar":
        propagation = o["speed"]
    elif o["propagator"] == "elastic":
        family = dataclasses.replace(family, scalar=False)
        propagation = LameParams(o["lame-lambda"], o["lame-mu"])
    else:
        raise ConfigurationError(f"unknown propagator {o['propagator']!r}")

    result = scale_covariance_test(family, query, grid, lambdas, propagation, quad)
    rows = []
    for r in result.records:
        rows.append([query.alpha, query.s, r.lam, r.numerator, r.denominator, r.ratio,
                     grid.dim, grid.points_per_axis, grid.half_width, grid.time_horizon,
                     grid.time_samples, r.refinement, r.margin])
    _write_csv(cfg.out_dir / "results.csv", "scan-ratio",
               ["alpha", "s", "lambda", "numerator", "denominator", "ratio"]
               + _provenance_header(), rows)
    dat = ["# log2(lambda)  log2(ratio)"]
    for r in result.records:
        dat.append(f"{_fmt(float(np.log2(r.lam)))} {_fmt(float(np.log2(r.ratio)))}")
    (cfg.out_dir / "ratio-scaling.dat").write_text("\n".join(dat) + "\n")
    return {
        "region": classify_region(query),
        "fitted_slope": result.slope,
        "slope_stderr": result.stderr,
        "slope_ci95": 1.96 * result.stderr,
        "analytic_target": result.target,
        "dropped_lambdas": [list(d) for d in result.dropped],
        "margin_min": min(r.margin for r in result.records),
        # the origin cell of the weight the members shared (cached, not rebuilt)
        "singular_cell": singular_cell_report(WeightSpec(kind, query.alpha), grid, quad),
    }


def _run_kernel_decay(cfg: RunConfig) -> dict:
    o = cfg.options
    if not (o["dmin"] > 0 and o["dmax"] > 0):
        raise ConfigurationError("kernel-decay needs positive dmin and dmax")
    if not 3 <= o["points"] <= MAX_DISTANCES:  # before the distances are allocated
        raise ConfigurationError(f"kernel-decay needs 3 to {MAX_DISTANCES} points")
    distances = np.logspace(np.log10(o["dmin"]), np.log10(o["dmax"]), o["points"])
    fit = decay_fit(o["regime"], o["k"], o["n"], distances, tau=o["tau"], rtol=o["rtol"])
    _check_finite("kernel-decay", [fit.slope, fit.intercept, fit.r2, list(fit.values)])
    rows = []
    for d, v in zip(fit.distances, fit.values):
        rows.append([fit.regime, o["n"], o["k"], d, v, o["rtol"]])
    _write_csv(cfg.out_dir / "results.csv", "kernel-decay",
               ["regime", "n", "k", "distance", "abs_value", "rtol"], rows)
    dat = ["# log10(distance)  log10(|I_k|)"]
    for d, v in zip(fit.distances, fit.values):
        dat.append(f"{_fmt(float(np.log10(d)))} {_fmt(float(np.log10(max(v, 1e-300))))}")
    (cfg.out_dir / "kernel-decay.dat").write_text("\n".join(dat) + "\n")
    return {"slope": fit.slope, "intercept": fit.intercept, "r2": fit.r2,
            "sample_decades": fit.sample_range, "below_floor": fit.below_floor,
            "integrand_nodes": fit.nodes, "integrand_calls": fit.calls}


def _run_a2_scan(cfg: RunConfig) -> dict:
    o = cfg.options
    try:
        alphas = [float(x) for x in o["alphas"].split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigurationError(f"cannot parse alphas {o['alphas']!r}") from exc
    if not alphas:
        raise ConfigurationError(f"no alpha in {o['alphas']!r}")
    rows_out = []
    rows = a2_scan(alphas, o["n-total"], default_cube_family(o["n-total"], o["side"]))
    for row in rows:
        rows_out.append([row.alpha, row.label, ";".join(_fmt(c) for c in row.center),
                         row.side, row.product])
    _write_csv(cfg.out_dir / "results.csv", "a2-scan",
               ["alpha", "cube", "center", "side", "product"], rows_out)
    sup: dict[float, float] = {}
    for row in rows:
        sup[row.alpha] = max(sup.get(row.alpha, 1.0), row.product)
    alphas_sorted = sorted(sup)
    monotone = all(sup[a] < sup[b] for a, b in zip(alphas_sorted, alphas_sorted[1:]))
    return {"max_product_per_alpha": {repr(a): sup[a] for a in alphas_sorted},
            "monotone_in_alpha": monotone}


def _run_lp_check(cfg: RunConfig) -> dict:
    o = cfg.options
    cutoff = default_cutoff()
    t = np.logspace(np.log10(2.0**-10), np.log10(2.0**10), 1000)
    deviation = float(np.max(cutoff.partition_deviation(t)))

    grid = GridSpec(o["n"], o["grid"], o["box"])
    rng = np.random.default_rng(cfg.seed)
    f = (rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)).astype(
        np.complex128
    )
    recon = np.zeros_like(f)
    for k in lp_level_range(grid):
        recon += lp_project(f, k, grid)
    mean_removed = f - forward_values(f, grid).flat[0] / (2 * grid.half_width) ** grid.dim
    recon_err = float(np.max(np.abs(recon - mean_removed)) / np.max(np.abs(f)))

    proj = lp_project(lp_project(f, 2, grid), 0, grid)
    annihilation = float(np.max(np.abs(proj)) / np.max(np.abs(f)))

    _check_finite("lp-check", [deviation, recon_err, annihilation])
    rows = [
        ["partition_deviation", deviation, 1e-12, deviation < 1e-12],
        ["reconstruction_error", recon_err, 1e-10, recon_err < 1e-10],
        ["annihilation_two_apart", annihilation, 1e-12, annihilation < 1e-12],
    ]
    _write_csv(cfg.out_dir / "results.csv", "lp-check",
               ["check", "value", "threshold", "pass"], rows)
    return {row[0]: row[1] for row in rows}


def _report_frequency_scan() -> dict:
    # frequency-localized constants over two dyadic levels; the associated
    # growth exponent s and its implied p are reported, never asserted
    grid = GridSpec(2, 64, 14.0, 33, 5.0)
    query = RegionQuery(alpha=2.0, s=0.5, n=2, weight_kind=SPACETIME_POWER)
    scan = frequency_constant_scan((0, 1), query, grid)
    return {
        "levels": list(scan.levels),
        "constants": list(scan.constants),
        "fitted_slope": scan.slope,
        "dilation_target": scan.dilation_target,
        "reference_growth_exponent": scan.reference_exponent,
        "implied_p": scan.implied_p,
        "lemma_range_ok": scan.lemma_range_ok,
    }


def _report_decomposition(seed: int) -> dict:
    grid = GridSpec(2, 32, 12.0, 17, 3.0)
    params = LameParams(1.0, 1.0)
    rng = np.random.default_rng(seed)
    envelope = DataFamily(width=1.0).member(grid).f
    fv = (rng.standard_normal((2,) + grid.shape) * envelope).astype(np.complex128)
    f = VectorField(grid, fv)
    g = VectorField(grid, np.zeros_like(fv))
    state = ElasticState(f, g)
    check = decomposition_check(state, params, RegionQuery(1.0, 0.5, 2, SPATIAL_POWER))
    return {
        "hs_pythagoras_gap": check.hs_pythagoras_gap,
        "triangle_slack": check.triangle_slack,
        "ratio_solenoidal": check.ratio_solenoidal,
        "ratio_potential": check.ratio_potential,
    }


def _report_local_smoothing() -> dict:
    values = {}
    for N in (32, 64):
        grid = GridSpec(2, N, 10.0, 17, 3.0)
        profile = DataFamily(width=math.sqrt(0.5)).member(grid).f
        values[N] = local_smoothing_functional(halfwave_sampler(profile, grid, 1.0))
    return {
        "value": values[64],
        "refinement_change_rel": abs(values[64] - values[32]) / values[64],
    }


def _run_report(cfg: RunConfig) -> dict:
    # small battery at desk scale; one summary per sub-experiment
    sub = {}
    base = cfg.out_dir
    for name, command, opts in (
        ("lp", "lp-check", {}),
        ("a2", "a2-scan", {"alphas": "0,0.9,1.8", "n-total": "3"}),
        ("kernel", "kernel-decay", {"points": "9", "dmax": "1000.0"}),
        ("ratio", "scan-ratio", {"alpha": "2.0", "s": "0.5", "grid": "64", "box": "14.0",
                                 "horizon": "6.0", "samples": "49", "width": "0.6"}),
    ):
        sub_cfg = _resolve(command, opts, None, str(base / name), cfg.seed)
        sub_cfg.out_dir.mkdir(parents=True, exist_ok=True)
        sub[name] = _RUNNERS[command](sub_cfg)
    sub["frequency"] = _report_frequency_scan()
    sub["decomposition"] = _report_decomposition(cfg.seed)
    sub["local-smoothing"] = _report_local_smoothing()
    _check_finite("report", sub)
    rows = [[name, json.dumps(val, sort_keys=True)] for name, val in sorted(sub.items())]
    _write_csv(cfg.out_dir / "results.csv", "report", ["experiment", "summary"], rows)
    return {"experiments": sorted(sub)}


_RUNNERS = {
    "evolve": _run_evolve,
    "scan-ratio": _run_scan_ratio,
    "kernel-decay": _run_kernel_decay,
    "a2-scan": _run_a2_scan,
    "lp-check": _run_lp_check,
    "report": _run_report,
}


def execute(cfg: RunConfig) -> int:
    """Run one command, writing results.csv and manifest.json; returns exit status."""
    start = time.perf_counter()
    try:
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        summary = _RUNNERS[cfg.command](cfg)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except AccuracyError as exc:
        achieved = f" (achieved {exc.achieved:.2e})" if exc.achieved is not None else ""
        print(f"numerical accuracy failure: {exc}{achieved}", file=sys.stderr)
        return 3
    except MorawetzLabError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    wall = time.perf_counter() - start
    tolerances = {k: v for k, v in cfg.options.items() if k in ("refinement", "rtol")}
    _write_manifest(cfg, summary, tolerances, wall)
    for key in sorted(summary):
        print(f"{key}: {summary[key]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="morawetz-lab",
        description="weighted space-time estimates for elastic and scalar waves, at desk scale",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command, spec in _SPECS.items():
        sub = subparsers.add_parser(command)
        for key, (typ, default) in spec.items():
            sub.add_argument(f"--{key}", type=str, default=None, metavar=typ.__name__)
        sub.add_argument("--config", type=str, default=None, help="key = value file")
        sub.add_argument("--out", type=str, default=f"results/{command}")
        sub.add_argument("--seed", type=int, default=0)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    flag_options = {
        key: getattr(args, key.replace("-", "_"))
        for key in _SPECS[args.command]
        if getattr(args, key.replace("-", "_")) is not None
    }
    try:
        cfg = _resolve(args.command, flag_options, args.config, args.out, args.seed)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    return execute(cfg)


if __name__ == "__main__":
    sys.exit(main())

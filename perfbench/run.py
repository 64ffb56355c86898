"""Benchmark of ``morawetz_lab``: seeded closed-loop experiments, checked and timed.

Run from the repository root, e.g.

    python3 perfbench/run.py --workload scan_ratio_3d --seed 1 --seconds 25 --trace 0

It imports the package from ``src/`` of the same checkout, draws every
experiment's parameters from ``--seed``, runs one untimed warm-up
experiment, then runs experiments one after another (closed loop, one
client) until the next one would end past ``--seconds``, and checks each,
the warm-up too, against its acceptance tolerance.  The workloads are
defined in ``workloads.py``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` traces every other
experiment (``tracing.py``) and prints the per-layer metrics, with
``trace.overhead`` = traced / untraced median experiment time.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the full record, with provenance, every
experiment and every span, goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import asdict
from pathlib import Path

from stats import headroom, spread_points, tail_percentile

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_RUNS = 9  # set-ups per run; setup_s is their median
# The warm-up experiment takes the middle of every parameter range, whatever
# the seed.  peak_rss_mb is read right after it, a fixed amount of work: the
# package's weight caches keep each experiment's grid (and its memo arrays)
# alive, so the resident set grows with the number of experiments that fit
# in a run.
WARMUP_POINT = 0.5
MIN_EXPERIMENTS = 2  # a trace run needs one traced and one untraced experiment
MAX_EXPERIMENTS = 256  # inputs drawn up front, during set-up

# end-to-end metrics in the result line (BENCHMARK.json "end_to_end"); the
# printed table adds exp_s_tail, fail_frac and tol_headroom_min
GATED = ("setup_s", "exp_per_min", "exp_s_p50", "peak_rss_mb")
LAYER_UNITS = {
    "spectral.fft_calls": "count",
    "spectral.fft_s": "s",
    "spectral.fft_mb": "MB_computed",
    "sampler.nodes": "count",
    "sampler.self_s": "s",
    "weights.build_calls": "count",
    "weights.build_s": "s",
    "weights.gauss_boxes": "count",
    "weights.quad_self_s": "s",
    "weights.pointwise_s": "s",
    "weights.a2_calls": "count",
    "weights.a2_s": "s",
    "weights.a2_gauss_boxes": "count",
    "kernel.value_calls": "count",
    "kernel.value_s": "s",
    "kernel.integrand_evals": "count",
    "kernel.doublings": "count",
    "analysis.hs_norm_s": "s",
    "analysis.lp_project_s": "s",
    "harness.member_s": "s",
    "harness.busy_frac": "ratio",
    "cli.write_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only import the package and draw the inputs, then exit")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    # numpy reads the BLAS thread count when it loads: pin it before any
    # import of numpy, so np.polyfit adds no threads beyond the workload's
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import morawetz_lab
    from workloads import WORKLOADS

    if Path(morawetz_lab.__file__).resolve().parent != ROOT / "src" / "morawetz_lab":
        print(f"morawetz_lab was imported from {morawetz_lab.__file__}, not from this "
              "checkout's src/", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    os.environ["MORAWETZ_LAB_THREADS"] = str(workload.threads)
    # the seed shifts a low-discrepancy sequence, so every run spreads its
    # experiments evenly over the parameter ranges: a run's median cost does
    # not hang on which values one seed happens to draw
    offset = float(np.random.default_rng(args.seed).random())
    params = [workload.draw(u) for u in spread_points(MAX_EXPERIMENTS, offset)]
    warmup_params = workload.draw(WARMUP_POINT)
    if args.setup_probe:
        return 0

    setup_walls = [_setup_probe(args) for _ in range(SETUP_RUNS)]
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    records = []
    tmp = OUT / f"tmp-{os.getpid()}"
    try:
        warmup = _experiment(workload, -1, warmup_params, tmp / "warmup", None)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        start = time.perf_counter()
        for idx, p in enumerate(params):
            if len(records) >= MIN_EXPERIMENTS:
                expected = statistics.median(r["wall_s"] for r in records)
                if time.perf_counter() - start + expected > args.seconds:
                    break
            traced = tracer is not None and idx % 2 == 0
            records.append(_experiment(workload, idx, p, tmp / f"exp{idx}",
                                       tracer if traced else None))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    window = time.perf_counter() - start

    provenance = _provenance(args, workload.threads, np.__version__)
    failed = sum(not r["ok"] for r in [warmup] + records)
    if tracer is None:
        metrics = _end_to_end(records, setup_walls, window, peak_rss_mb)
        gated = {k: metrics[k] for k in GATED}
    else:
        metrics = _per_layer(records, tracer)
        gated = metrics

    OUT.mkdir(exist_ok=True)
    result = {
        "provenance": provenance,
        "window_s": window,
        "setup_walls_s": setup_walls,
        "metrics": metrics,
        "warmup": warmup,
        "experiments": records,
        "spans": [asdict(sp) for sp in tracer.spans] if tracer else [],
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1, default=str) + "\n")

    print("provenance: " + json.dumps(provenance, sort_keys=True))
    print(f"{args.workload}: warm-up, then {len(records)} experiments in {window:.2f} s, closed "
          f"loop, one client, MORAWETZ_LAB_THREADS={workload.threads}; {failed} failed; "
          f"record in {path}")
    for name, m in metrics.items():
        note = f"  ({m['note']})" if "note" in m else ""
        print(f"  {name:<24} {m['value']!s:>22} {m['unit']:<12}{note}")
    line = {
        "correct": failed == 0,
        "attempted": 1 + len(records),
        "failed": failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in gated.items()},
    }
    print(json.dumps(line))
    return 0


def _setup_probe(args) -> float:
    """Wall time of a fresh process that imports the package and draws the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    t0 = time.perf_counter()
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def _experiment(workload, idx: int, params: dict, out: Path, tracer) -> dict:
    out.mkdir(parents=True)
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        with tracer.experiment(idx) if tracer is not None else nullcontext():
            checks = workload.run(params, out)
        error = None
    except Exception:  # a failed experiment is counted, and the loop goes on
        checks, error = [], traceback.format_exc()
        print(error, file=sys.stderr)
    wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
    shutil.rmtree(out)
    return {
        "experiment": idx,
        "params": params,
        "traced": tracer is not None,
        "wall_s": wall,
        "ok": error is None and all(c.ok for c in checks),
        "checks": [asdict(c) for c in checks],
        "error": error,
    }


def _end_to_end(records: list[dict], setup_walls: list[float], window: float,
                peak_rss_mb: float) -> dict:
    walls = [r["wall_s"] for r in records]
    passed = sum(r["ok"] for r in records)
    heads = [headroom(c["error"], c["tolerance"])
             for r in records for c in r["checks"] if c["tolerance"] is not None]
    tail = tail_percentile(walls)
    if tail is None:
        tail_metric = {"value": None, "unit": "s",
                       "note": f"undefined: needs 11 experiments or more, {len(walls)} ran"}
    else:
        pct, value, n = tail
        tail_metric = {"value": value, "unit": "s",
                       "note": f"p{pct:.1f} of {n}, ten samples beyond"}
    return {
        "setup_s": {"value": statistics.median(setup_walls), "unit": "s",
                    "note": f"median of {len(setup_walls)} set-ups"},
        "exp_per_min": {"value": 60.0 * passed / window, "unit": "1/min"},
        "exp_s_p50": {"value": statistics.median(walls), "unit": "s",
                      "note": f"median of {len(walls)}"},
        "exp_s_tail": tail_metric,
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB",
                        "note": "over set-up and the warm-up experiment"},
        "fail_frac": {"value": (len(records) - passed) / len(records), "unit": "ratio"},
        "tol_headroom_min": {"value": min(heads) if heads else None, "unit": "ratio",
                             "note": f"min of 1 - |error|/tolerance over {len(heads)} checks"},
    }


def _per_layer(records: list[dict], tracer) -> dict:
    traced = [r for r in records if r["traced"]]
    untraced = [r for r in records if not r["traced"]]
    values = tracer.layer_metrics([r["experiment"] for r in traced])
    values["trace.overhead"] = (statistics.median(r["wall_s"] for r in traced)
                                / statistics.median(r["wall_s"] for r in untraced))
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_UNITS.items()}


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return ""


def _provenance(args, threads: int, numpy_version: str) -> dict:
    cpu = next((line.split(":", 1)[1].strip() for line in _read(Path("/proc/cpuinfo")).splitlines()
                if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        caches[f"L{level} {kind}"] = size
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": _commit(),
        "threads": {"MORAWETZ_LAB_THREADS": threads, "OPENBLAS_NUM_THREADS": 1,
                    "OMP_NUM_THREADS": 1},
    }


def _commit() -> str:
    """The checkout's commit, read from .git without running git; 'unknown' outside git."""
    git = ROOT / ".git"
    head = _read(git / "HEAD")
    if not head.startswith("ref: "):
        return head or "unknown"
    ref = head[len("ref: "):]
    loose = _read(git / ref)
    if loose:
        return loose
    packed = (line.split()[0] for line in _read(git / "packed-refs").splitlines()
              if line.endswith(" " + ref))
    return next(packed, "unknown")


if __name__ == "__main__":
    sys.exit(main())

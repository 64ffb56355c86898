"""The names the benchmark's tracer wraps exist, and it puts them all back.

``perfbench/tracing.py`` replaces functions of the package at module
boundaries while a traced benchmark run lasts; a renamed or removed one
would break those runs, so it fails here first.
"""

from pathlib import Path

from morawetz_lab import DataFamily, GridSpec, elastic
from morawetz_lab.harness import RegionQuery, compute_ratio, frequency_constant_scan
from morawetz_lab.weights import SPACETIME_POWER

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_patches_and_restores_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    tracer = Tracer()
    try:
        tracer.install()  # a missing name raises here; what was patched is put back
        saved = list(tracer._saved)
        assert saved
        for owner, attr, original in saved:
            assert getattr(owner, attr) is not original, attr
    finally:
        tracer.uninstall()
    for owner, attr, original in saved:
        assert getattr(owner, attr) is original, attr


def test_traced_runs_equal_untraced_ones_and_fold(monkeypatch):
    # a traced run is the measured program: the same bits from the same
    # passes of ``WaveSampler.spectrum``, folded to (M + 1) / 2 nodes for
    # radial data
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    radial = GridSpec(3, 32, 8.0, 17, 3.0)
    member = DataFamily(width=0.9).member(radial)
    ratio_query = RegionQuery(2.0, 0.5, 3, SPACETIME_POWER)
    scan_grid = GridSpec(2, 64, 14.0, 33, 5.0)
    scan_query = RegionQuery(2.0, 0.5, 2, SPACETIME_POWER)
    calls = []
    spectrum = elastic.WaveSampler.spectrum

    def counted(self, t, out=None):
        calls[-1] += 1
        return spectrum(self, t, out)

    monkeypatch.setattr(elastic.WaveSampler, "spectrum", counted)

    def run():
        calls.append(0)
        ratio = compute_ratio(member, ratio_query, 1.0, radial).ratio
        calls.append(0)
        return ratio, frequency_constant_scan((0, 1), scan_query, scan_grid).constants

    untraced = run()
    tracer = Tracer()
    tracer.install()
    try:
        traced = run()
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert any(sp.name == "weights.quadrature" for sp in tracer.spans)
    assert calls[2:] == calls[:2] and calls[0] == (17 + 1) // 2

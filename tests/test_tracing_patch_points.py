"""The names the benchmark's tracer wraps exist, and it puts them all back.

``perfbench/tracing.py`` replaces functions of the package at module
boundaries while a traced benchmark run lasts; a renamed or removed one
would break those runs, so it fails here first.
"""

from pathlib import Path

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

"""Outside-in tracing of ``morawetz_lab``: spans and counters at module boundaries.

``Tracer.install`` replaces functions of the package's modules with wrappers
that record a span per call (name, start, end, parent span, experiment id,
thread) or bump a counter; ``uninstall`` puts the originals back.  Nothing
inside the package changes.  Spans stay in memory until the run writes them
out.

Wrapped boundaries, by layer:

* ``spectral.fft``: ``forward_values`` / ``inverse_values`` as imported by
  ``harness``, ``elastic`` and ``analysis``; bytes in plus bytes out are
  counted from the array sizes (computed, not measured traffic).
* ``sampler``: one time node of the scalar half-wave closure made by
  ``harness._scalar_halfwave_sampler``, or of ``ElasticPropagator.displacement``.
* ``weights.build``: the ring-patch and spatial weight-array builders.  Their
  ``lru_cache`` is rebuilt around the traced function with the same size, so
  each cache miss is one span and ``cache_info()`` counts the misses.
* ``weights.quadrature`` (``weighted_spacetime_norm``), ``weights.pointwise``
  (``_spacetime_pointwise``), ``weights.a2`` (``a2_product``); ``_gauss_box``
  calls are counted, inside ``a2_product`` apart from the rest.
* ``kernel.value`` (``kernel_value``); ``_panelled_gauss`` passes and their
  integrand nodes are counted.
* ``analysis.hs_norm`` and ``analysis.lp_project`` as imported by ``harness``.
* ``harness.member`` (``DataFamily.member``), ``harness.map`` and one
  ``harness.task`` per item of ``_map_ordered``, parented across threads.
* ``cli.write``: CSV and manifest writers, and ``.dat`` files written through
  ``cli.Path``.
"""

from __future__ import annotations

import functools
import itertools
import pathlib
import statistics
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

from morawetz_lab import analysis, cli, elastic, harness, kernel, weights

from stats import self_time, union_length


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    experiment: int
    thread: int
    workers: int | None = None  # harness.map only: the pool's worker cap


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()  # (experiment, counter name) -> total
        self.experiment_id = -1
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []
        self._caches: list = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[Span]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str, parent: int | None = None, workers: int | None = None):
        """Time a block; the parent defaults to the innermost open span of this thread."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1].id
        sp = Span(next(self._ids), name, time.perf_counter(), 0.0, parent,
                  self.experiment_id, threading.get_ident(), workers)
        stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(sp)

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[(self.experiment_id, name)] += n

    @contextmanager
    def experiment(self, idx: int):
        """Root span of one experiment; weight builds are read from cache_info()."""
        self.experiment_id = idx
        misses = self._cache_misses()
        with self.span("experiment"):
            yield
        self.count("weights.build_calls", self._cache_misses() - misses)

    def _cache_misses(self) -> int:
        return sum(cache.cache_info().misses for cache in self._caches)

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _timed(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def _sampled(self, sample):
        def wrapper(*args):
            self.count("sampler.nodes")
            with self.span("sampler"):
                return sample(*args)

        return wrapper

    def install(self) -> None:
        def fft(fn):
            def wrapper(values, grid):
                with self.span("spectral.fft"):
                    out = fn(values, grid)
                self.count("spectral.fft_bytes", values.nbytes + out.nbytes)
                return out

            return wrapper

        for module in (harness, elastic, analysis):
            for attr in ("forward_values", "inverse_values"):
                self._patch(module, attr, fft(getattr(module, attr)))

        halfwave = harness._scalar_halfwave_sampler
        self._patch(harness, "_scalar_halfwave_sampler",
                    lambda *a, **k: self._sampled(halfwave(*a, **k)))
        self._patch(elastic.ElasticPropagator, "displacement",
                    self._sampled(elastic.ElasticPropagator.displacement))

        self._caches = []
        for attr in ("_spatial_weight_array", "_spacetime_ring_patch"):
            cached = getattr(weights, attr)
            rebuilt = functools.lru_cache(maxsize=cached.cache_parameters()["maxsize"])(
                self._timed(cached.__wrapped__, "weights.build"))
            self._caches.append(rebuilt)
            self._patch(weights, attr, rebuilt)

        gauss_box = weights._gauss_box

        def counted_gauss_box(*args):
            stack = self._stack()
            inside_a2 = bool(stack) and stack[-1].name == "weights.a2"
            self.count("weights.a2_gauss_boxes" if inside_a2 else "weights.gauss_boxes")
            return gauss_box(*args)

        self._patch(weights, "_gauss_box", counted_gauss_box)
        self._patch(harness, "weighted_spacetime_norm",
                    self._timed(harness.weighted_spacetime_norm, "weights.quadrature"))
        self._patch(weights, "_spacetime_pointwise",
                    self._timed(weights._spacetime_pointwise, "weights.pointwise"))
        self._patch(weights, "a2_product", self._timed(weights.a2_product, "weights.a2"))

        self._patch(kernel, "kernel_value", self._timed(kernel.kernel_value, "kernel.value"))
        panelled = kernel._panelled_gauss
        nodes_per_panel = len(kernel._GL_X)

        def counted_panelled(f, a, b, panels):
            self.count("kernel.panel_passes")
            self.count("kernel.integrand_evals", panels * nodes_per_panel)
            return panelled(f, a, b, panels)

        self._patch(kernel, "_panelled_gauss", counted_panelled)

        self._patch(harness, "hs_norm", self._timed(harness.hs_norm, "analysis.hs_norm"))
        self._patch(harness, "lp_project", self._timed(harness.lp_project, "analysis.lp_project"))
        self._patch(harness.DataFamily, "member",
                    self._timed(harness.DataFamily.member, "harness.member"))

        map_ordered = harness._map_ordered

        def traced_map(fn, items):
            with self.span("harness.map", workers=harness.worker_count()) as parent:
                def task(item):
                    with self.span("harness.task", parent=parent.id):
                        return fn(item)

                return map_ordered(task, items)

        self._patch(harness, "_map_ordered", traced_map)

        for attr in ("_write_csv", "_write_manifest"):
            self._patch(cli, attr, self._timed(getattr(cli, attr), "cli.write"))

        tracer = self

        class TracedPath(type(pathlib.Path())):
            def write_text(self, *args, **kwargs):
                with tracer.span("cli.write"):
                    return super().write_text(*args, **kwargs)

        self._patch(cli, "Path", TracedPath)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self._caches = []

    # -- per-layer metrics ---------------------------------------------------

    def layer_metrics(self, experiments: list[int]) -> dict[str, float]:
        """Per-experiment layer metrics over the traced ``experiments``.

        Counts are those of the first traced experiment, which the seed alone
        fixes, so they repeat exactly between runs; times are medians over
        the traced experiments.
        """
        by_exp: dict[int, list[Span]] = defaultdict(list)
        for sp in self.spans:
            by_exp[sp.experiment].append(sp)
        first = experiments[0]
        firsts = by_exp[first]

        def n(name: str) -> int:
            return self.counts[(first, name)]

        def calls(name: str) -> int:
            return sum(sp.name == name for sp in firsts)

        metrics: dict[str, float] = {
            "spectral.fft_calls": calls("spectral.fft"),
            "spectral.fft_mb": n("spectral.fft_bytes") / 1e6,
            "sampler.nodes": n("sampler.nodes"),
            "weights.build_calls": n("weights.build_calls"),
            "weights.gauss_boxes": n("weights.gauss_boxes"),
            "weights.a2_calls": calls("weights.a2"),
            "weights.a2_gauss_boxes": n("weights.a2_gauss_boxes"),
            "kernel.value_calls": calls("kernel.value"),
            "kernel.integrand_evals": n("kernel.integrand_evals"),
            "kernel.doublings": n("kernel.panel_passes") - calls("kernel.value"),
        }
        per_exp = [_experiment_times(by_exp[e]) for e in experiments]
        for key in per_exp[0]:
            metrics[key] = statistics.median(times[key] for times in per_exp)
        return metrics


def _experiment_times(spans: list[Span]) -> dict[str, float]:
    by_id = {sp.id: sp for sp in spans}
    children: dict[int, list[Span]] = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append(sp)

    def outermost(name: str) -> float:
        """Summed duration of ``name`` spans not nested in another ``name`` span."""
        total = 0.0
        for sp in spans:
            if sp.name != name:
                continue
            up = by_id.get(sp.parent)
            while up is not None and up.name != name:
                up = by_id.get(up.parent)
            if up is None:
                total += sp.end - sp.start
        return total

    def own(name: str, keep: tuple[str, ...] = ()) -> float:
        """Summed self time of ``name`` spans; children named in ``keep`` count as self."""
        return sum(
            (self_time(sp.start, sp.end,
                       [(c.start, c.end) for c in children[sp.id] if c.name not in keep])
             for sp in spans if sp.name == name),
            0.0,
        )

    maps = [sp for sp in spans if sp.name == "harness.map"]
    capacity = sum((sp.end - sp.start) * sp.workers for sp in maps)
    root = next(sp for sp in spans if sp.name == "experiment")
    layers = [(sp.start, sp.end) for sp in spans if sp is not root]
    return {
        "spectral.fft_s": outermost("spectral.fft"),
        "sampler.self_s": own("sampler"),
        "weights.build_s": outermost("weights.build"),
        "weights.quad_self_s": own("weights.quadrature", keep=("weights.pointwise",)),
        "weights.pointwise_s": outermost("weights.pointwise"),
        "weights.a2_s": outermost("weights.a2"),
        "kernel.value_s": outermost("kernel.value"),
        "analysis.hs_norm_s": outermost("analysis.hs_norm"),
        "analysis.lp_project_s": outermost("analysis.lp_project"),
        "harness.member_s": outermost("harness.member"),
        "harness.busy_frac": outermost("harness.task") / capacity if capacity else 0.0,
        "cli.write_s": outermost("cli.write"),
        "trace.coverage": union_length(layers) / (root.end - root.start),
    }

"""Outside-in tracing of qaelab: spans recorded around the package's functions.

Nothing inside ``src/`` knows about tracing.  The tracer rebinds module and
class attributes (``qaelab.core.apply_q``, ``qaelab.iqae.binomial_confidence``,
``qaelab.bench.run_mci``, ...) to wrappers, so every call the package makes
through those names is recorded, and restores the originals on exit.  A
function is wrapped where its callers look it up: ``measure_flag`` is
imported into ``mlqae`` and ``iqae`` by name, so both copies are rebound.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

from qaelab import bench, core, iqae, mlqae


@contextmanager
def rebound(replacements):
    """Rebind ``(owner, attr, make_wrapper)`` triples for the ``with`` body.

    ``make_wrapper(original)`` returns the replacement.  Every original is
    put back, in reverse order, however the body exits.
    """
    saved = []
    try:
        for owner, attr, make_wrapper in replacements:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, make_wrapper(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval its children cover.

    ``spans`` holds ``[name, start, end, parent]`` records, ``parent`` being
    the index of the enclosing span or -1; children appear after their
    parent, in start order.
    """
    children: list[list[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    result = []
    for index, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for child in children[index]:
            lo = max(spans[child][1], reach)
            hi = min(spans[child][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(end - start - covered)
    return result


class Tracer:
    """Keeps spans and counters in memory while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _spanned(self, name, observe=None):
        """Wrapper factory recording one span per call; ``observe(args,
        result, error)`` derives counters from the call."""

        def make(original):
            @functools.wraps(original)
            def traced(*args, **kwargs):
                index = len(self.spans)
                span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
                self.spans.append(span)
                self._stack.append(index)
                error = result = None
                span[1] = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                    return result
                except BaseException as exc:
                    error = exc
                    raise
                finally:
                    span[2] = time.perf_counter()
                    self._stack.pop()
                    if observe is not None:
                        observe(args, result, error)

            return traced

        return make

    def _counted(self, name, predicate=None):
        """Wrapper factory that only counts calls (those passing ``predicate``)."""

        def make(original):
            @functools.wraps(original)
            def counted(*args, **kwargs):
                if predicate is None or predicate(*args):
                    self.counts[name] += 1
                return original(*args, **kwargs)

            return counted

        return make

    def _count_points(self, args, result, error):
        self.counts["mlqae.log_likelihood.points"] += int(np.size(args[1]))

    def _count_samples(self, args, result, error):
        config = args[0]
        self.counts["mci.samples"] += config.samples * config.repetitions

    def _iqae_outcome(self, args, result, error):
        if isinstance(error, iqae.IterationCapError):
            self.counts["iqae.cap_hits"] += 1
            result = error.report
        if result is not None and not result.a_lo <= args[0].a <= result.a_hi:
            self.counts["iqae.interval_misses"] += 1

    def sites(self):
        """Every rebinding the traced phase installs."""
        span = self._spanned
        return [
            (bench, "run_sweep", span("bench.run_sweep")),
            (bench, "derive_rng", span("bench.derive_rng")),
            (bench, "summarize", span("bench.summarize")),
            (bench, "emit_csv", span("bench.emit_csv")),
            (bench.ExperimentConfig, "oracle", span("core.oracle_build")),
            (bench, "run_mlqae", span("mlqae.run")),
            (bench, "run_iqae", span("iqae.run", self._iqae_outcome)),
            (bench, "run_mci", span("mci.run_mci", self._count_samples)),
            (mlqae, "measure_flag", span("core.measure_flag")),
            (iqae, "measure_flag", span("core.measure_flag")),
            (core.StatevectorBackend, "flag_probability", span("core.sv_probability")),
            (core, "prepare_a", span("core.prepare_a")),
            (core, "apply_q", span("core.apply_q")),
            (core.AnalyticBackend, "flag_probability",
             self._counted("core.analytic_probability.calls")),
            (mlqae, "maximize_likelihood", span("mlqae.maximize_likelihood")),
            (mlqae, "log_likelihood", span("mlqae.log_likelihood", self._count_points)),
            (iqae, "binomial_confidence", span("iqae.binomial_confidence")),
            (iqae, "find_next_k", span("iqae.find_next_k")),
            (iqae, "invert_to_theta", span("iqae.invert_to_theta")),
            (iqae.ConfidenceInterval, "intersect",
             self._counted("iqae.intersect_collapses", _disjoint)),
        ]

    def installed(self):
        """Context manager: the tracer's wrappers, removed again on exit."""
        return rebound(self.sites())

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: number of calls, total seconds and self seconds."""
        totals: dict[str, dict[str, float]] = {}
        for span, own in zip(self.spans, self_times(self.spans)):
            entry = totals.setdefault(span[0], {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += span[2] - span[1]
            entry["self_s"] += own
        return totals


def _disjoint(interval, other) -> bool:
    """``ConfidenceInterval.intersect`` collapses onto an edge: no overlap."""
    return other.theta_hi < interval.theta_lo or other.theta_lo > interval.theta_hi

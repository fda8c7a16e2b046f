"""Span recording from outside the program, and the per-layer metrics.

A :class:`SpanRecorder` wraps public functions of the layers under test
(plus ``os.fsync``) during traced episodes only; untraced episodes run
the unmodified program.  Each span records its name, start, end, the span
that called it and the id of the benchmark op it belongs to.  Spans are
kept in memory and written out as JSON lines when the run ends.  A
layer's self time is its span minus the spans it directly caused.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

#: (module, attribute path, span name, quantity) for every wrapped
#: callable.  Span names are ``<module>.<function>`` with the ``repro.``
#: prefix dropped.  The quantity is what a span records besides time:
#: ``"bytes"`` written during the call, or the ``"rows"`` (models) of the
#: batch it evaluates.
TARGETS: tuple[tuple[str, str, str, str], ...] = (
    ("repro.ci.repository", "ModelRepository.commit", "ci.repository.ModelRepository.commit", ""),
    ("repro.ci.repository", "ModelRepository.commit_many", "ci.repository.ModelRepository.commit_many", ""),
    ("repro.ci.persistence", "EventJournal.append", "ci.persistence.EventJournal.append", ""),
    ("repro.ci.persistence", "EventJournal.compact", "ci.persistence.EventJournal.compact", "bytes"),
    ("repro.ci.persistence", "encode_model", "ci.persistence.encode_model", ""),
    ("repro.ci.persistence", "SnapshotStore.save", "ci.persistence.SnapshotStore.save", "bytes"),
    ("repro.ci.persistence", "SnapshotStore.prune", "ci.persistence.SnapshotStore.prune", ""),
    ("repro.ci.persistence", "SnapshotStore.load_latest", "ci.persistence.SnapshotStore.load_latest", ""),
    ("repro.reliability.storage", "retention_anchor", "reliability.storage.retention_anchor", ""),
    ("repro.ci.service", "CIService.snapshot", "ci.service.CIService.snapshot", ""),
    ("repro.ci.service", "CIService.export_state", "ci.service.CIService.export_state", ""),
    ("repro.ci.service", "CIService.restore", "ci.service.CIService.restore", ""),
    ("repro.core.engine", "CIEngine.submit", "core.engine.CIEngine.submit", ""),
    ("repro.core.engine", "CIEngine.submit_many", "core.engine.CIEngine.submit_many", ""),
    ("repro.core.evaluation", "ConditionEvaluator.evaluate_batch", "core.evaluation.ConditionEvaluator.evaluate_batch", "rows"),
    ("repro.core.testset", "Testset.predict_with", "core.testset.Testset.predict_with", ""),
    ("repro.core.estimators.api", "SampleSizeEstimator.plan", "core.estimators.SampleSizeEstimator.plan", ""),
    ("repro.stats.tight_bounds", "tight_sample_size", "stats.tight_bounds.tight_sample_size", ""),
    ("repro.fleet.gateway", "CIFleet.enqueue", "fleet.gateway.CIFleet.enqueue", ""),
    ("repro.fleet.gateway", "CIFleet.service", "fleet.gateway.CIFleet.service", ""),
    ("repro.fleet.intake", "IntakeQueue.append", "fleet.intake.IntakeQueue.append", ""),
    ("repro.fleet.intake", "IntakeQueue.ack", "fleet.intake.IntakeQueue.ack", ""),
    ("repro.fleet.intake", "IntakeQueue.compact", "fleet.intake.IntakeQueue.compact", ""),
    ("repro.fleet.admission", "AdmissionPolicy.admit", "fleet.admission.AdmissionPolicy.admit", ""),
    ("os", "fsync", "os.fsync", ""),
)


def read_io() -> dict[str, int]:
    """This process's ``/proc/self/io`` counters (``rchar``, ``wchar``, ...)."""
    with open("/proc/self/io", "rb") as handle:
        raw = handle.read()
    counters = {}
    for line in raw.splitlines():
        key, _, value = line.partition(b":")
        counters[key.decode()] = int(value)
    # The read above is itself counted in rchar by the next read; report
    # its length so callers can take exact deltas.
    counters["own_read"] = len(raw)
    return counters


class SpanRecorder:
    """In-memory span log fed by wrappers around :data:`TARGETS`.

    Spans are recorded only between :meth:`begin_op` and :meth:`end_op`,
    so set-up and correctness checks stay out of the trace.
    """

    def __init__(self) -> None:
        # Each span: [op, name, start, end, parent_index, quantity]
        self.spans: list[list[Any]] = []
        self.ops: list[tuple[int, float, float]] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._op_start = 0.0
        self._undo: list[Callable[[], None]] = []

    # -- op boundaries --------------------------------------------------------
    def begin_op(self, op: int) -> None:
        self._op = op
        self._op_start = time.perf_counter()

    def end_op(self) -> None:
        self.ops.append((self._op, self._op_start, time.perf_counter()))
        self._op = None
        self._stack.clear()

    # -- wrapping ---------------------------------------------------------------
    def _wrapper(self, original: Callable, name: str, quantity: str) -> Callable:
        spans, stack = self.spans, self._stack
        perf_counter = time.perf_counter

        def traced(*args, **kwargs):
            if self._op is None:
                return original(*args, **kwargs)
            index = len(spans)
            span = [self._op, name, 0.0, 0.0, stack[-1] if stack else None, 0]
            spans.append(span)
            stack.append(index)
            if quantity == "rows":
                span[5] = args[1].new_prediction_matrix.shape[0]
            written = read_io()["wchar"] if quantity == "bytes" else 0
            span[2] = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                if quantity == "bytes":
                    span[5] = read_io()["wchar"] - written
                stack.pop()

        traced.__wrapped__ = original
        return traced

    def install(self) -> "SpanRecorder":
        for module_name, path, name, quantity in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                self._wrap_member(getattr(module, owner_name), attr, name, quantity)
            else:
                self._wrap_function(module, attr, name, quantity)
        return self

    def _wrap_member(self, owner: type, attr: str, name: str, quantity: str) -> None:
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            replacement = classmethod(self._wrapper(raw.__func__, name, quantity))
        else:
            replacement = self._wrapper(raw, name, quantity)
        setattr(owner, attr, replacement)
        self._undo.append(lambda: setattr(owner, attr, raw))

    def _wrap_function(self, module, attr: str, name: str, quantity: str) -> None:
        # Modules that imported the function by name hold their own
        # reference: rebind it everywhere it is bound.
        original = getattr(module, attr)
        replacement = self._wrapper(original, name, quantity)
        holders = [module] + [
            other
            for key, other in list(sys.modules.items())
            if key.startswith("repro") and getattr(other, attr, None) is original
        ]
        for holder in holders:
            setattr(holder, attr, replacement)
            self._undo.append(lambda holder=holder: setattr(holder, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def write(self, path: Path) -> None:
        """Write every span as one JSON line (times in seconds)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for op, name, start, end, parent, quantity in self.spans:
                record = {"op": op, "name": name, "start": start, "end": end, "parent": parent}
                if quantity:
                    record["quantity"] = quantity
                handle.write(json.dumps(record) + "\n")


class SpanStats:
    """Per-name totals over a span log: calls, time, self time, quantity."""

    def __init__(self, spans: list[list[Any]]):
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.quantity: dict[str, int] = defaultdict(int)
        self.top_level_seconds = 0.0
        child_seconds = [0.0] * len(spans)
        for index in range(len(spans) - 1, -1, -1):
            op, name, start, end, parent, quantity = spans[index]
            duration = end - start
            self.calls[name] += 1
            self.quantity[name] += quantity
            self.self_seconds[name] += duration - child_seconds[index]
            if parent is None:
                self.top_level_seconds += duration
            else:
                child_seconds[parent] += duration
            if not self._has_ancestor(spans, parent, name):
                self.seconds[name] += duration
        self._spans = spans

    @staticmethod
    def _has_ancestor(spans, parent, name) -> bool:
        while parent is not None:
            if spans[parent][1] == name:
                return True
            parent = spans[parent][4]
        return False

    def seconds_under(self, name: str, ancestor: str) -> float:
        """Total time of ``name`` spans called (transitively) from ``ancestor``."""
        total = 0.0
        for op, span_name, start, end, parent, _ in self._spans:
            if span_name == name and self._has_ancestor(self._spans, parent, ancestor):
                total += end - start
        return total


def _per(value: float, count: float) -> float:
    """``value / count``, or 0 when nothing was counted."""
    return value / count if count else 0.0


def _ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def layer_metrics(
    spans: list[list[Any]],
    *,
    ops: int,
    builds: int,
    op_seconds: float,
    counters: dict[str, int],
) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced pass: name -> (value, unit).

    ``counters`` carries the pass's exact counts: plan- and stats-cache
    hits/misses, fleet lookups/hydrations/evictions/rejections and
    ``read_bytes``.  Per-build figures divide by builds recorded, per-op
    figures by ops attempted, per-submit figures by fleet submissions; a
    layer the workload never reaches reads 0.
    """
    stats = SpanStats(spans)
    submits = counters["fleet_lookups"]
    fleet_service = "fleet.gateway.CIFleet.service"

    def ms(seconds: float, count: int) -> float:
        return _per(seconds * 1e3, count)

    journal = "ci.persistence.EventJournal"
    snapshots = "ci.persistence.SnapshotStore"
    commit_self = (
        stats.self_seconds["ci.repository.ModelRepository.commit"]
        + stats.self_seconds["ci.repository.ModelRepository.commit_many"]
    )
    evict_seconds = stats.seconds_under(
        "ci.service.CIService.snapshot", fleet_service
    ) + stats.seconds_under("fleet.intake.IntakeQueue.compact", fleet_service)
    evaluate = "core.evaluation.ConditionEvaluator.evaluate_batch"
    evaluate_metric = "core.evaluation.evaluate_batch"
    plan = "core.estimators.SampleSizeEstimator.plan"
    tight = "stats.tight_bounds.tight_sample_size"
    metrics = {
        f"{journal}.append.calls_per_build": (_per(stats.calls[f"{journal}.append"], builds), "1/build"),
        f"{journal}.append.ms_per_build": (ms(stats.seconds[f"{journal}.append"], builds), "ms/build"),
        "ci.persistence.encode_model.ms_per_build": (
            ms(stats.seconds["ci.persistence.encode_model"], builds), "ms/build"
        ),
        "ci.persistence.fsyncs_per_build": (_per(stats.calls["os.fsync"], builds), "1/build"),
        f"{journal}.compact.ms_per_build": (ms(stats.seconds[f"{journal}.compact"], builds), "ms/build"),
        f"{journal}.compact.bytes_rewritten": (_per(stats.quantity[f"{journal}.compact"], builds), "B/build"),
        f"{snapshots}.save.ms_per_build": (ms(stats.seconds[f"{snapshots}.save"], builds), "ms/build"),
        f"{snapshots}.save.bytes": (_per(stats.quantity[f"{snapshots}.save"], builds), "B/build"),
        f"{snapshots}.prune.ms_per_build": (ms(stats.seconds[f"{snapshots}.prune"], builds), "ms/build"),
        "reliability.storage.retention_anchor.ms_per_build": (
            ms(stats.seconds["reliability.storage.retention_anchor"], builds), "ms/build"
        ),
        "ci.persistence.read_bytes_per_build": (_per(counters["read_bytes"], builds), "B/build"),
        f"{snapshots}.load_latest.ms_per_op": (ms(stats.seconds[f"{snapshots}.load_latest"], ops), "ms/op"),
        "ci.service.CIService.snapshot.ms_per_build": (
            ms(stats.seconds["ci.service.CIService.snapshot"], builds), "ms/build"
        ),
        "ci.service.CIService.export_state.ms_per_snapshot": (
            ms(stats.seconds["ci.service.CIService.export_state"], stats.calls["ci.service.CIService.snapshot"]),
            "ms/snapshot",
        ),
        "ci.service.CIService.restore.ms_per_op": (ms(stats.seconds["ci.service.CIService.restore"], ops), "ms/op"),
        "ci.service.self_ms_per_build": (ms(commit_self, builds), "ms/build"),
        "core.engine.CIEngine.submit.ms_per_build": (
            ms(stats.seconds["core.engine.CIEngine.submit"], builds), "ms/build"
        ),
        "core.engine.CIEngine.submit_many.ms_per_build": (
            ms(stats.seconds["core.engine.CIEngine.submit_many"], builds), "ms/build"
        ),
        f"{evaluate_metric}.models_per_call": (_per(stats.quantity[evaluate], stats.calls[evaluate]), "models/call"),
        f"{evaluate_metric}.ms_per_build": (ms(stats.seconds[evaluate], builds), "ms/build"),
        "core.testset.Testset.predict_with.ms_per_build": (
            ms(stats.seconds["core.testset.Testset.predict_with"], builds), "ms/build"
        ),
        f"{plan}.calls": (_per(stats.calls[plan], ops), "1/op"),
        f"{plan}.ms_per_op": (ms(stats.seconds[plan], ops), "ms/op"),
        "core.estimators.plan_cache.hit_ratio": (
            _ratio(counters["plan_cache_hits"], counters["plan_cache_misses"]), "ratio"
        ),
        f"{tight}.calls": (_per(stats.calls[tight], ops), "1/op"),
        f"{tight}.ms_per_op": (ms(stats.seconds[tight], ops), "ms/op"),
        "stats.cache.hit_ratio": (_ratio(counters["stats_cache_hits"], counters["stats_cache_misses"]), "ratio"),
        "fleet.gateway.lru_hit_ratio": (
            _ratio(submits - counters["hydrations"], counters["hydrations"]), "ratio"
        ),
        "fleet.gateway.hydrations_per_submit": (_per(counters["hydrations"], submits), "1/submit"),
        "fleet.gateway.evictions_per_submit": (_per(counters["evictions"], submits), "1/submit"),
        "fleet.gateway.hydrate.ms_per_submit": (
            ms(stats.seconds_under("ci.service.CIService.restore", fleet_service), submits), "ms/submit"
        ),
        "fleet.gateway.evict.ms_per_submit": (ms(evict_seconds, submits), "ms/submit"),
        "fleet.gateway.CIFleet.enqueue.self_ms_per_submit": (
            ms(stats.self_seconds["fleet.gateway.CIFleet.enqueue"], submits), "ms/submit"
        ),
        "fleet.admission.AdmissionPolicy.admit.rejections": (float(counters["rejections"]), "count"),
        "unattributed_ms_per_op": (ms(op_seconds - stats.top_level_seconds, ops), "ms/op"),
    }
    for call in ("append", "ack", "compact"):
        name = f"fleet.intake.IntakeQueue.{call}"
        metrics[f"{name}.ms_per_submit"] = (ms(stats.seconds[name], submits), "ms/submit")
    return metrics

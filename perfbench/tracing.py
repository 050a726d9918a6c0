"""Span recorder and the timing wrappers the traced run installs.

The traced run measures ``repro`` from outside: :func:`install` replaces
each public layer-boundary function listed in :data:`TARGETS` with a
wrapper that records a span (metric name, start, end, parent span,
thread) and bumps counters.  Nothing under ``src/`` changes.

A name imported with ``from x import y`` is its own binding, so the
wrapper is written into *every* loaded ``repro.*`` module attribute that
holds the original object, and into the scenario-family registry, whose
entries hold worker functions by reference.  Methods are replaced on
their class, which covers every instance.

Self time is a span's duration minus the time its child spans cover;
spans nest per thread (the serve job pool runs jobs on several
threads), so each thread keeps its own stack.  Spans stay in memory and
are written once, by :meth:`Recorder.dump`, when the process ends.

What the wrappers cannot see: work inside processes the program starts
itself.  The serve shard fan-out runs part of a large job in forked
worker processes; their spans die with them, so that work shows only
as the enclosing job's ``serve.compute_s``.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import os
import sys
import threading
from collections import Counter
from time import perf_counter_ns
from typing import Any

#: ``(module, attribute, metric)``: the public function (or
#: ``Class.method``) to time and the per-layer metric its self time
#: adds to.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.api.plan", "plan_scenarios", "api.plan_s"),
    ("repro.campaign.spec", "compile_campaign", "api.plan_s"),
    ("repro.campaign.resolve", "resolve_spec", "api.plan_s"),
    ("repro.api.workloads", "Workload.resolve_params", "api.plan_s"),
    ("repro.engine.engine", "run_batch", "engine.self_s"),
    ("repro.engine.cached", "run_cached_batch", "engine.self_s"),
    ("repro.engine.context", "build_context", "context.build_s"),
    ("repro.tasks.generation", "generate_task_set", "tasks.generate_s"),
    ("repro.npr.qmax_fp", "fp_blocking_tolerances", "npr.qmax_s"),
    ("repro.npr.qmax_fp", "fp_max_npr_lengths", "npr.qmax_s"),
    ("repro.npr.qmax_edf", "edf_max_npr_lengths", "npr.qmax_s"),
    (
        "repro.core.floating_npr",
        "floating_npr_delay_bound",
        "kernel.alg1_s",
    ),
    ("repro.engine.sweeps", "evaluate_bound_batch", "kernel.batch_s"),
    ("repro.engine.sweeps", "evaluate_study_batch", "kernel.batch_s"),
    (
        "repro.core.state_of_the_art",
        "state_of_the_art_delay_bound",
        "eq4.soa_s",
    ),
    ("repro.sched.crpd_rta", "delay_aware_rta", "sched.rta_s"),
    ("repro.sched.edf_delay_aware", "edf_delay_aware", "sched.edf_s"),
    ("repro.sim.simulator", "FloatingNPRSimulator.run", "sim.run_s"),
    ("repro.sim.validation", "validate_simulation", "sim.validate_s"),
    ("repro.engine.sinks", "as_record", "sinks.encode_s"),
    ("repro.engine.sinks", "record_line", "sinks.encode_s"),
    ("repro.store.keys", "scenario_key", "store.key_s"),
    ("repro.store.backend", "ResultStore.get", "store.get_s"),
    ("repro.store.backend", "ResultStore.__contains__", "store.get_s"),
    ("repro.store.backend", "ResultStore.put", "store.put_s"),
    ("repro.store.backend", "ResultStore.commit", "store.commit_s"),
)

#: Calls counted on top of the span: metric -> counter name.
CALL_COUNTERS = {
    "kernel.alg1_s": "kernel.alg1_calls",
    "context.build_s": "context.builds",
    "store.commit_s": "store.commits",
}


class Recorder:
    """In-memory spans, counters and per-job samples of one process."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, int, int, int]] = []
        self.self_ns: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.samples: dict[str, list[float]] = {}
        self.marks: dict[Any, int] = {}
        self.submissions: list[tuple[Any, str]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    def _stack(self) -> list[list[int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def sample(self, name: str, seconds: float) -> None:
        with self._lock:
            self.samples.setdefault(name, []).append(seconds)

    def timed(self, fn, metric: str, after=None):
        """``fn`` wrapped in a span; ``after(args, result)`` runs on
        success (counters that need the arguments or the result)."""
        counter = CALL_COUNTERS.get(metric)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                span_id = self._next_id
                self._next_id += 1
            parent = stack[-1][1] if stack else -1
            frame = [0, span_id]  # child ns, own id
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                with self._lock:
                    self.self_ns[metric] += duration - frame[0]
                    self.spans.append(
                        (span_id, parent, metric, threading.get_ident(),
                         start, end)
                    )
                    if counter is not None:
                        self.counts[counter] += 1
            if after is not None:
                with self._lock:
                    after(args, result)
            return result

        return wrapper

    def dump(self, path: str) -> None:
        """Write spans, self times, counters and samples as JSON."""
        pid = os.getpid()
        events = [
            {
                "name": metric,
                "cat": metric.split(".")[0],
                "ph": "X",
                "ts": start / 1000.0,
                "dur": (end - start) / 1000.0,
                "pid": pid,
                "tid": tid,
                "args": {"id": span_id, "parent": parent},
            }
            for span_id, parent, metric, tid, start, end in self.spans
        ]
        deduped = submitted = 0
        for job, dedup in self.submissions:
            submitted += job.total
            deduped += job.total if dedup in ("inflight", "replay") else job.cached
        payload = {
            "self_s": {k: v / 1e9 for k, v in self.self_ns.items()},
            "counts": dict(self.counts),
            "samples": self.samples,
            "dedup": [deduped, submitted],
            "events": events,
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)


class _CountingProxy:
    """Stands in for a callable object, counting calls; every other
    attribute (``cache_clear`` …) is the original's."""

    def __init__(self, target, rec: Recorder, name: str) -> None:
        self._target = target
        self._rec = rec
        self._name = name

    def __call__(self, *args, **kwargs):
        with self._rec._lock:
            self._rec.counts[self._name] += 1
        return self._target(*args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._target, attr)


def _rebind(original, replacement) -> None:
    """Point every ``repro.*`` binding of ``original`` at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
    from repro.engine import registry

    for family_name in registry.family_names():
        family = registry.get_family(family_name)
        changes = {
            field.name: replacement
            for field in dataclasses.fields(family)
            if getattr(family, field.name) is original
        }
        if changes:
            registry.register_family(
                dataclasses.replace(family, **changes), replace=True
            )


def _serve_hooks(rec: Recorder) -> None:
    """Per-job serve samples: queue wait, compute, emit."""
    from repro.serve import jobs, server

    registry_submit = jobs.JobRegistry.submit

    def submit(self, job_id, request, loop):
        job, dedup = registry_submit(self, job_id, request, loop)
        rec.submissions.append((job, dedup))
        if dedup in ("new", "restart"):
            rec.marks[("submit", job.id, job.attempt)] = perf_counter_ns()
        return job, dedup

    jobs.JobRegistry.submit = submit

    append_line = jobs.Job.append_line

    def first_line(self, line):
        rec.marks.setdefault(("line", self.id, self.attempt), perf_counter_ns())
        return append_line(self, line)

    jobs.Job.append_line = first_line

    run_job = server.AnalysisServer._run_job
    claims = server.AnalysisServer._acquire_claims

    def acquire_claims(self, job, keys):
        start = perf_counter_ns()
        try:
            return claims(self, job, keys)
        finally:
            rec.marks[("claims", job.id, job.attempt)] = perf_counter_ns() - start

    def timed_job(self, job):
        start = perf_counter_ns()
        try:
            return run_job(self, job)
        finally:
            end = perf_counter_ns()
            waited = rec.marks.get(("claims", job.id, job.attempt), 0)
            submitted = rec.marks.get(("submit", job.id, job.attempt), start)
            rec.sample("serve.queue_wait_s", (start - submitted + waited) / 1e9)
            rec.sample("serve.compute_s", (end - start - waited) / 1e9)

    server.AnalysisServer._acquire_claims = rec.timed(
        acquire_claims, "serve.claims_s"
    )
    server.AnalysisServer._run_job = rec.timed(timed_job, "serve.job_s")

    stream = server.AnalysisServer._stream

    # Coroutines interleave on the loop thread, so stream spans are
    # kept out of the per-thread nesting: they only yield samples.
    async def timed_stream(self, job, reader, writer, cursor):
        start = perf_counter_ns()
        try:
            return await stream(self, job, reader, writer, cursor)
        finally:
            first = rec.marks.get(("line", job.id, job.attempt))
            if first is not None:
                rec.sample(
                    "serve.emit_s", (perf_counter_ns() - max(start, first)) / 1e9
                )

    server.AnalysisServer._stream = timed_stream
    _rebind(
        server.encode_frame,
        _CountingProxy(server.encode_frame, rec, "serve.frames"),
    )


def _count_lanes(rec: Recorder):
    def after(args, result):
        rec.counts["kernel.batch_lanes"] += len(result)

    return after


def _count_cached(rec: Recorder):
    def after(args, result):
        rec.counts["store.served"] += result.cached
        rec.counts["store.looked_up"] += result.total

    return after


def install(rec: Recorder, serve: bool) -> None:
    """Wrap every :data:`TARGETS` entry, plus the serve job hooks when
    the process is going to run the server."""
    modules = ["repro.cli", "repro.api", "repro.campaign", "repro.engine"]
    modules += ["repro.sim", "repro.experiments"]
    if serve:
        modules.append("repro.serve.server")
    for module_name in modules:
        importlib.import_module(module_name)
    if serve:
        _serve_hooks(rec)
    for module_name, attribute, metric in TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, method = attribute.rpartition(".")
        after = None
        if metric == "kernel.batch_s":
            after = _count_lanes(rec)
        elif attribute == "run_cached_batch":
            after = _count_cached(rec)
        elif attribute == "record_line":
            after = lambda args, result: rec.counts.update(["sinks.records"])
        if owner_name:
            owner = getattr(module, owner_name)
            setattr(owner, method, rec.timed(getattr(owner, method), metric, after))
        else:
            original = getattr(module, attribute)
            _rebind(original, rec.timed(original, metric, after))
    from repro.engine import context

    _rebind(
        context.get_context,
        _CountingProxy(context.get_context, rec, "context.lookups"),
    )

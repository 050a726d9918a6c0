#!/usr/bin/env python3
"""The repro benchmark: user workloads on the default backend.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it needs ``src/repro``).  Each
workload drives the program the way a user does: the ``repro`` CLI
(``python3 -m repro``, no ``--backend`` flag) or ``ServeClient`` against
a ``repro serve`` process.  A run repeats whole rounds of the workload
until ``--seconds`` have passed, checks every output, and prints a
report followed by one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, with times adjusted for
the machine's speed by the runs of ``reference.py`` around every round
(see :data:`REFERENCE_NOMINAL_S`).  ``--trace 1`` alternates
traced and untraced rounds and reports the per-layer metrics (from the
wrappers of ``tracing.py``) plus the tracing overhead; it also writes a
Chrome trace-event file of the first traced round under
``perfbench/traces/``.  Stores, requests and outputs live in a temporary
directory under ``perfbench/.tmp/`` that is removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = ("sweep-resume", "serve-overlap")

#: Setup probes per run (after one untimed warm-up that fills the
#: bytecode cache, which users pay once, not per command).
SETUP_PROBES = 9

#: Wall time of ``reference.py`` at the machine's nominal speed (its
#: typical time on the 2-vCPU VM the bounds were set on).  Each
#: round's times are divided by ``slowdown`` = (reference time measured
#: around the round) / this value, and its rates multiplied by it.
REFERENCE_NOMINAL_S = 0.22

PER_LAYER = (
    "api.plan_s", "engine.self_s", "context.build_s", "context.builds",
    "context.hit_ratio", "tasks.generate_s", "npr.qmax_s", "kernel.alg1_s",
    "kernel.alg1_calls", "kernel.batch_s", "kernel.batch_lanes", "eq4.soa_s",
    "sched.rta_s", "sched.edf_s", "sim.run_s", "sim.validate_s",
    "sinks.encode_s", "sinks.records", "store.key_s", "store.get_s",
    "store.put_s", "store.commit_s", "store.commits", "store.hit_ratio",
    "serve.queue_wait_s", "serve.compute_s", "serve.emit_s", "serve.frames",
    "serve.dedup_ratio", "trace.overhead_pct",
)


@dataclass
class Command:
    """One finished program process."""

    wall: float
    code: int
    rss_mb: float
    spans: dict | None


@dataclass
class Round:
    """What one round of a workload measured and found."""

    wall: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    values: dict[str, list[float]] = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)
    slowdown: float = 1.0

    def add(self, name: str, *values: float) -> None:
        self.values.setdefault(name, []).extend(values)


class Bench:
    """Process launching and bookkeeping shared by the workloads."""

    def __init__(self, seed: int, seconds: int, trace: bool, tmp: Path) -> None:
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tmp = tmp
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        self.env["PYTHONPATH"] = str(SRC)
        self._counter = 0

    def path(self, stem: str) -> Path:
        self._counter += 1
        return self.tmp / f"{self._counter:05d}-{stem}"

    def argv(self, args: list[str], traced: bool) -> tuple[list[str], Path | None]:
        if not traced:
            return [sys.executable, "-m", "repro", *args], None
        spans = self.path("spans.json")
        return [sys.executable, str(BENCH / "traced.py"), str(spans), *args], spans

    def spawn(self, argv: list[str]):
        import subprocess

        log = open(self.path("log.txt"), "wb")
        try:
            return subprocess.Popen(
                argv, cwd=self.tmp, env=self.env, stdout=log,
                stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
            ), log
        except BaseException:
            log.close()
            raise

    @staticmethod
    def reap(proc, log, timeout: float) -> tuple[int, float]:
        """Wait for ``proc`` (killing it after ``timeout`` seconds);
        returns its exit code and peak RSS in MB."""
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            log.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage.ru_maxrss / 1024.0

    def run(self, args: list[str], traced: bool = False, timeout: float = 150.0) -> Command:
        argv, spans_path = self.argv(args, traced)
        start = time.perf_counter()
        proc, log = self.spawn(argv)
        code, rss = self.reap(proc, log, timeout)
        wall = time.perf_counter() - start
        spans = None
        if spans_path is not None and spans_path.exists():
            spans = json.loads(spans_path.read_text())
            spans_path.unlink()
        if code != 0:
            sys.stderr.write(f"command failed ({code}): repro {' '.join(args)}\n")
        return Command(wall, code, rss, spans)

    def setup_probe(self, args: list[str]) -> float:
        """Interpreter start, imports and request resolve of one CLI
        command, without executing it."""
        start = time.perf_counter()
        proc, log = self.spawn([sys.executable, str(BENCH / "probe.py"), *args])
        code, _ = self.reap(proc, log, 60.0)
        if code != 0:
            raise RuntimeError(f"setup probe failed ({code}): repro {' '.join(args)}")
        return time.perf_counter() - start

    def reference(self) -> float:
        """Wall time of one run of the fixed ``reference.py``."""
        start = time.perf_counter()
        proc, log = self.spawn([sys.executable, str(BENCH / "reference.py")])
        code, _ = self.reap(proc, log, 60.0)
        if code != 0:
            raise RuntimeError(f"reference program failed ({code})")
        return time.perf_counter() - start

    def setup_samples(self, args: list[str]) -> list[tuple[float, float]]:
        """``(probe seconds, slowdown)`` pairs; the slowdown comes from
        the references run just before and after the probe."""
        if self.trace:
            return []
        self.setup_probe(args)
        samples = []
        before = self.reference()
        for _ in range(SETUP_PROBES):
            probe = self.setup_probe(args)
            after = self.reference()
            samples.append((probe, (before + after) / 2 / REFERENCE_NOMINAL_S))
            before = after
        return samples


def read_lines(path: Path) -> list[str]:
    return path.read_text().splitlines() if path.exists() else []


# ----------------------------------------------------------------------
# sweep-resume
# ----------------------------------------------------------------------


def eq4_inputs(knots: int) -> dict[str, tuple[float, float]]:
    """``(C, max f)`` of each benchmark function at ``knots``."""
    from repro.engine.sweeps import benchmark_function

    return {
        name: (f.wcet, f.max_value())
        for name in inputs.FIG4_FUNCTIONS
        for f in [benchmark_function(name, knots=knots)]
    }


class SweepResume:
    RESUMES = 2

    def __init__(self, bench: Bench) -> None:
        self.bench = bench
        self.size = 3 * inputs.SWEEP_POINTS
        self.eq4 = eq4_inputs(inputs.SWEEP_KNOTS)

    def args(self, store: Path, out: Path) -> list[str]:
        return [
            "sweep", "--points", str(inputs.SWEEP_POINTS),
            "--knots", str(inputs.SWEEP_KNOTS),
            "--store", str(store), "--out", str(out),
        ]

    def setup(self) -> list[float]:
        return self.bench.setup_samples(self.args(self.bench.tmp / "probe.sqlite", self.bench.tmp / "probe.jsonl"))

    def round(self, round_no: int, traced: bool) -> Round:
        bench, result = self.bench, Round()
        store, cold_out = bench.path("sweep.sqlite"), bench.path("cold.jsonl")
        start = time.perf_counter()
        cold = bench.run(self.args(store, cold_out), traced)
        resumes, resume_outs = [], []
        for _ in range(self.RESUMES):
            out = bench.path("resume.jsonl")
            resumes.append(bench.run([*self.args(store, out), "--resume"], traced))
            resume_outs.append(out)
        result.wall = time.perf_counter() - start
        result.attempted = self.size * (1 + self.RESUMES)
        result.spans = [c.spans for c in [cold, *resumes] if c.spans]
        result.add("peak_rss_mb", max(c.rss_mb for c in [cold, *resumes]))
        if cold.code != 0:
            result.failed = result.attempted
            return result
        reference = cold_out.read_bytes()
        result.add("scenarios_per_s", self.size / cold.wall)
        result.problems += checks.check_sweep(
            checks.parse_lines(reference.decode().splitlines()),
            inputs.SWEEP_POINTS, inputs.FIG4_FUNCTIONS, self.eq4,
        )
        for command, out in zip(resumes, resume_outs):
            if command.code != 0:
                result.failed += self.size
                continue
            result.add("job_latency_s", command.wall)
            result.problems += checks.check_identical(reference, out.read_bytes(), "resume")
        for path in (store, cold_out, *resume_outs):
            path.unlink(missing_ok=True)
        return result


# ----------------------------------------------------------------------
# serve-overlap
# ----------------------------------------------------------------------


def request_key(request: dict) -> str:
    return json.dumps(request, sort_keys=True)


class ServeOverlap:
    """Two closed-loop clients against one ``repro serve`` per round
    (fresh store, default ``workers``)."""

    def __init__(self, bench: Bench) -> None:
        self.bench = bench
        self.sequences = inputs.serve_sequences(bench.seed)
        distinct = {
            scenario
            for sequence in self.sequences
            for request in sequence
            for scenario in inputs.request_scenarios(request)
        }
        self.distinct = len(distinct)
        self.streams: dict[str, list[str]] = {}
        self.eq4: dict[int, dict[str, tuple[float, float]]] = {}
        from repro.store import package_fingerprint

        self.fingerprint = package_fingerprint("repro")

    def setup(self) -> list[float]:
        return []  # one server start per round, sampled in round()

    def start_server(self, traced: bool):
        from repro.store import ResultStore

        bench = self.bench
        ready, store = bench.path("ready.txt"), bench.path("serve.sqlite")
        # An empty store, created before the server starts: two jobs
        # that create the same store file at once can fail with
        # "database is locked" (see CHANGES.md), so no job does.
        ResultStore(store, fingerprint=self.fingerprint).close()
        args = ["serve", "--store", str(store), "--port", "0", "--ready-file", str(ready)]
        argv, spans = bench.argv(args, traced)
        start = time.perf_counter()
        proc, log = bench.spawn(argv)
        deadline = time.monotonic() + 60.0
        while not ready.exists() or not ready.read_text().endswith("\n"):
            if proc.poll() is not None or time.monotonic() > deadline:
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
                log.close()
                raise RuntimeError("repro serve did not start")
            time.sleep(0.002)
        setup = time.perf_counter() - start
        host, port = ready.read_text().split()
        return proc, log, spans, setup, host, int(port)

    def client(self, host: str, port: int, sequence: list[dict], out: list) -> None:
        from repro.api.wire import request_from_wire
        from repro.serve import ServeClient, ServeError

        try:
            client = ServeClient(host, port)
        except (OSError, ServeError) as exc:
            out.extend(("error", request, repr(exc)) for request in sequence)
            return
        with client:
            for request in sequence:
                wire = {"version": 1, **request}
                submitted = time.perf_counter()
                first = None
                lines = []
                try:
                    for line in client.submit(request_from_wire(wire)):
                        if first is None:
                            first = time.perf_counter()
                        lines.append(line)
                except (OSError, ServeError) as exc:
                    out.append(("error", request, repr(exc)))
                    continue
                done = time.perf_counter()
                out.append(("ok", request, lines, done - submitted, (first or done) - submitted))

    def round(self, round_no: int, traced: bool) -> Round:
        from repro.serve import ServeClient

        result = Round()
        proc, log, spans_path, setup, host, port = self.start_server(traced)
        try:
            outcomes: list[list] = [[], []]
            threads = [
                threading.Thread(target=self.client, args=(host, port, seq, out))
                for seq, out in zip(self.sequences, outcomes)
            ]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            result.wall = time.perf_counter() - start
            with ServeClient(host, port) as client:
                computed = client.status()["scenarios_computed"]
        finally:
            proc.send_signal(signal.SIGINT)
            code, rss = self.bench.reap(proc, log, 30.0)
        if code != 0:
            result.problems.append(f"repro serve exited with {code}")
        result.add("setup_s", setup)
        result.add("peak_rss_mb", rss)
        if spans_path is not None and spans_path.exists():
            result.spans.append(json.loads(spans_path.read_text()))
        records = 0
        for outcome in outcomes[0] + outcomes[1]:
            result.attempted += 1
            if outcome[0] != "ok":
                result.failed += 1
                sys.stderr.write(f"serve job failed: {outcome[2]}\n")
                continue
            _, request, lines, latency, first = outcome
            records += len(lines)
            result.add("job_latency_s", latency)
            result.add("first_record_s", first)
            result.problems += self.check_stream(request, lines)
        result.problems += checks.check_computed(computed, self.distinct)
        result.add("scenarios_per_s", records / result.wall)
        result.add("jobs_per_s", result.attempted / result.wall)
        return result

    def check_stream(self, request: dict, lines: list[str]) -> list[str]:
        """Grid size and the family's output properties of one served
        job, and equality with earlier submissions of the request."""
        scenarios = inputs.request_scenarios(request)
        family = scenarios[0][0]
        what = f"serve {family} job"
        records = checks.parse_lines(lines)
        if family == "bound":
            knots = scenarios[0][3]
            if knots not in self.eq4:
                self.eq4[knots] = eq4_inputs(knots)
            grid = [scenario[1:3] for scenario in scenarios]
            problems = checks.check_grid(records, grid, what)
            problems += checks.check_bound(records, self.eq4[knots], what)
        elif family == "sim":
            problems = checks.check_sim(records, len(scenarios), what)
        else:
            methods = inputs.TASKSET_DEFAULTS[family]["methods"]
            problems = checks.check_acceptance(records, methods, len(scenarios), what)
        key = request_key(request)
        reference = self.streams.setdefault(key, lines)
        if lines != reference:
            problems.append("serve stream differs between two submissions of one request")
        return problems

    def verify_solo(self) -> list[str]:
        """Every streamed job against the same request run alone
        through ``Workbench``."""
        from repro.api import ExecutionOptions, RunRequest, SinkSpec, Workbench
        from repro.api.wire import request_from_wire

        problems = []
        for key, lines in self.streams.items():
            request = request_from_wire({"version": 1, **json.loads(key)})
            out = self.bench.path("solo.jsonl")
            options = ExecutionOptions(sinks=(SinkSpec(str(out)),), results_dir=str(self.bench.tmp))
            Workbench().run(RunRequest(request.workload, request.params, options))
            if read_lines(out) != lines:
                problems.append(f"served stream of {key[:80]}... differs from a solo Workbench run")
        return problems


# ----------------------------------------------------------------------
# measurement and report
# ----------------------------------------------------------------------


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: list[float], p: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(p * len(ordered)))]


def measure(bench: Bench, workload) -> tuple[list, list[Round], list[Round]]:
    """Whole rounds until ``bench.seconds`` have passed.  Untimed
    reference runs bracket every round of an untraced run (see
    :data:`REFERENCE_NOMINAL_S`)."""
    setup = workload.setup()
    plain: list[Round] = []
    traced: list[Round] = []
    before = 0.0 if bench.trace else bench.reference()
    start = time.perf_counter()
    elapsed = 0.0
    round_no = 0
    while round_no == 0 or elapsed < bench.seconds:
        if bench.trace:
            for is_traced in ((False, True) if round_no % 2 == 0 else (True, False)):
                (traced if is_traced else plain).append(workload.round(round_no, is_traced))
            elapsed = time.perf_counter() - start
        else:
            result = workload.round(round_no, False)
            elapsed = time.perf_counter() - start
            after = bench.reference()
            result.slowdown = (before + after) / 2 / REFERENCE_NOMINAL_S
            before = after
            plain.append(result)
        round_no += 1
    return setup, plain, traced


def end_to_end(
    setup: list[tuple[float, float]], rounds: list[Round], adjust: bool = True
) -> dict[str, float]:
    """Medians of the rounds' samples; with ``adjust``, times divided
    and rates multiplied by each sample's slowdown."""

    def samples(name: str, rate: bool = False) -> list[float]:
        factor = (lambda r: r.slowdown if rate else 1.0 / r.slowdown) if adjust else (lambda r: 1.0)
        return [v * factor(r) for r in rounds for v in r.values.get(name, [])]

    if setup:
        setup_s = median([probe / (slowdown if adjust else 1.0) for probe, slowdown in setup])
    else:
        setup_s = median(samples("setup_s"))
    return {
        "setup_s": setup_s,
        "scenarios_per_s": median(samples("scenarios_per_s", rate=True)),
        "job_latency_p50_s": median(samples("job_latency_s")),
        "peak_rss_mb": median([v for r in rounds for v in r.values.get("peak_rss_mb", [])]),
    }


def per_layer(plain: list[Round], traced: list[Round]) -> dict[str, float]:
    self_s: dict[str, float] = {}
    counts: dict[str, float] = {}
    samples: dict[str, list[float]] = {}
    deduped = submitted = 0
    for r in traced:
        for spans in r.spans:
            for name, value in spans["self_s"].items():
                self_s[name] = self_s.get(name, 0.0) + value
            for name, value in spans["counts"].items():
                counts[name] = counts.get(name, 0) + value
            for name, values in spans["samples"].items():
                samples.setdefault(name, []).extend(values)
            deduped += spans["dedup"][0]
            submitted += spans["dedup"][1]
    rounds = max(1, len(traced))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics = {}
    for name in PER_LAYER:
        if name in ("context.hit_ratio", "store.hit_ratio", "serve.dedup_ratio", "trace.overhead_pct"):
            continue
        if name.startswith("serve.") and name != "serve.frames":
            metrics[name] = median(samples.get(name, []))
        elif name.endswith("_s"):
            metrics[name] = self_s.get(name, 0.0) / rounds
        else:
            metrics[name] = counts.get(name, 0) / rounds
    lookups = counts.get("context.lookups", 0)
    metrics["context.hit_ratio"] = ratio(lookups - counts.get("context.builds", 0), lookups)
    metrics["store.hit_ratio"] = ratio(counts.get("store.served", 0), counts.get("store.looked_up", 0))
    metrics["serve.dedup_ratio"] = ratio(deduped, submitted)
    # Traced and untraced rounds run in pairs on the same inputs.
    metrics["trace.overhead_pct"] = 100.0 * median(
        [ratio(t.wall - p.wall, p.wall) for p, t in zip(plain, traced)]
    )
    return {name: metrics[name] for name in PER_LAYER}


UNITS = {
    "setup_s": "s", "scenarios_per_s": "scenarios/s", "job_latency_p50_s": "s",
    "peak_rss_mb": "MB", "resume_s": "s", "jobs_per_s": "jobs/s",
    "first_record_p50_s": "s", "job_latency_p90_s": "s", "trace.overhead_pct": "%",
    "slowdown": "x",
}


def unit_of(name: str) -> str:
    name = name.removeprefix("raw ")
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def workload_extras(name: str, rounds: list[Round]) -> dict[str, float]:
    """The issue-level metrics that exist on one workload only; printed
    in the report, not in the JSON line."""
    latencies = [v for r in rounds for v in r.values.get("job_latency_s", [])]
    if name == "sweep-resume":
        return {"resume_s": median(latencies)}
    if name != "serve-overlap":
        return {}
    extras = {
        "jobs_per_s": median([v for r in rounds for v in r.values.get("jobs_per_s", [])]),
        "first_record_p50_s": median([v for r in rounds for v in r.values.get("first_record_s", [])]),
    }
    if len(latencies) >= 100:
        extras["job_latency_p90_s"] = percentile(latencies, 0.9)
    return extras


def write_chrome_trace(name: str, seed: int, rounds: list[Round]) -> Path | None:
    if not rounds or not rounds[0].spans:
        return None
    events = [event for spans in rounds[0].spans for event in spans["events"]]
    directory = BENCH / "traces"
    directory.mkdir(exist_ok=True)
    path = directory / f"{name}-seed{seed}.json"
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
    return path


def run(args: argparse.Namespace, tmp: Path) -> dict:
    bench = Bench(args.seed, args.seconds, bool(args.trace), tmp)
    factories = {"sweep-resume": SweepResume, "serve-overlap": ServeOverlap}
    workload = factories[args.workload](bench)
    setup, plain, traced = measure(bench, workload)
    rounds = plain + traced
    problems = [p for r in rounds for p in r.problems]
    if isinstance(workload, ServeOverlap):
        problems += workload.verify_solo()
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    if bench.trace:
        metrics = per_layer(plain, traced)
        trace_file = write_chrome_trace(args.workload, args.seed, traced)
    else:
        metrics = end_to_end(setup, plain)
        trace_file = None
    print(f"workload {args.workload}  seed {args.seed}  rounds {len(plain)} untraced, {len(traced)} traced")
    shown = dict(metrics)
    if not bench.trace:
        raw = end_to_end(setup, plain, adjust=False)
        shown.update({f"raw {name}": raw[name] for name in ("setup_s", "scenarios_per_s", "job_latency_p50_s")})
        shown["slowdown"] = median([r.slowdown for r in plain])
        shown.update(workload_extras(args.workload, plain))
    for name, value in shown.items():
        print(f"  {name:<22} {value:>14.6g} {unit_of(name)}")
    if trace_file is not None:
        print(f"  chrome trace: {trace_file.relative_to(ROOT)}")
    print(f"  operations attempted {attempted}, failed {failed}, check problems {len(problems)}")
    for problem in problems[:20]:
        print(f"  CHECK FAILED: {problem}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    (BENCH / ".tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=BENCH / ".tmp"))
    try:
        result = run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

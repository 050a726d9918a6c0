"""Self-test of the benchmark's output checks.

Usage (from the root of a source checkout)::

    python3 perfbench/selftest.py

Produces tiny real outputs with the program, shows that every check
accepts them, then feeds each check deliberately corrupted copies and
shows that it rejects every one.  Exits 0 when all checks behave.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
import tempfile
from pathlib import Path

import checks
import inputs
import run as bench_run

FAILURES: list[str] = []


def expect(name: str, problems: list[str], should_fail: bool, reason: str = "") -> None:
    """``should_fail``: the check must reject, with a problem that
    mentions ``reason`` (so the intended rule fired, not another)."""
    ok = bool(problems) == should_fail and (
        not should_fail or any(reason in problem for problem in problems)
    )
    verdict = "rejected" if problems else "accepted"
    print(f"  {'ok  ' if ok else 'FAIL'} {name}: {verdict}")
    if not ok:
        FAILURES.append(name)


def corrupt(records: list[dict], index: int, **changes) -> list[dict]:
    out = copy.deepcopy(records)
    out[index].update(changes)
    return out


def sweep_checks(bench: bench_run.Bench) -> None:
    points = 6
    eq4 = bench_run.eq4_inputs(inputs.SWEEP_KNOTS)
    store, cold, resumed = bench.path("s.sqlite"), bench.path("cold.jsonl"), bench.path("resume.jsonl")
    args = ["sweep", "--points", str(points), "--knots", str(inputs.SWEEP_KNOTS), "--store", str(store)]
    bench.run([*args, "--out", str(cold)])
    bench.run([*args, "--out", str(resumed), "--resume"])
    records = checks.parse_lines(bench_run.read_lines(cold))

    def check(recs):
        return checks.check_sweep(recs, points, inputs.FIG4_FUNCTIONS, eq4)

    print("sweep-resume")
    expect("real sweep output", check(records), False)
    soa = checks.number(records[4]["state_of_the_art"])
    expect("algorithm1 raised above Eq. 4", check(corrupt(records, 4, algorithm1=soa + 1.0)), True, "> state_of_the_art")
    expect("state_of_the_art off by one max f", check(corrupt(records, 4, state_of_the_art=soa + eq4[records[4]["function"]][1])), True, "!= Eq. 4")
    expect("converged flipped on a finite Eq. 4", check(corrupt(records, 2, converged=False)), True, "converged=False")
    later = records[-1]
    expect("preemptions rising with Q", check(corrupt(records, len(records) - 1, preemptions=later["preemptions"] + 1000)), True, "preemptions rose")
    expect("record dropped", check(records[:-1]), True, "grid has")
    expect("q moved off the grid", check(corrupt(records, 0, q=12.5)), True, "not grid point")
    reference = cold.read_bytes()
    expect("real resume output", checks.check_identical(reference, resumed.read_bytes(), "resume"), False)
    dropped = b"".join(resumed.read_bytes().splitlines(keepends=True)[:-1])
    expect("resumed stream with a dropped record", checks.check_identical(reference, dropped, "resume"), True, "differs")


def study_checks(bench: bench_run.Bench) -> None:
    spec = {
        "family": "edf-study",
        "axes": {"utilization": {"grid": [0.3]}, "seed": {"seeds": {"base": 5, "count": 2}}},
        "defaults": {"methods": inputs.EDF_METHODS},
    }
    path, out = bench.path("edf.json"), bench.path("edf.jsonl")
    path.write_text(json.dumps(spec))
    bench.run(["campaign", str(path), "--out", str(out)])
    records = checks.parse_lines(bench_run.read_lines(out))
    methods = inputs.EDF_METHODS

    def check(recs):
        return checks.check_acceptance(recs, methods, 2, "edf-study")

    print("study / edf-study verdicts")
    expect("real edf-study output", check(records), False)
    assert all(records[0]["accepted"]), "low-utilization set expected accepted by every test"
    expect("algorithm1 verdict flipped (eq4 still accepts)", check(corrupt(records, 0, accepted=[True, True, False])), True, "eq4 accepts")
    expect("oblivious verdict flipped (algorithm1 accepts)", check(corrupt(records, 0, accepted=[False, True, True])), True, "oblivious rejects")
    expect("accepted without admission", check(corrupt(records, 0, admitted=False)), True, "without an NPR")
    expect("verdict list shortened", check(corrupt(records, 1, accepted=[True, True])), True, "does not match")
    expect("record dropped", check(records[:1]), True, "grid has")


def sim_checks(bench: bench_run.Bench) -> None:
    spec = {
        "family": "sim",
        "axes": {"utilization": {"grid": [0.5]}, "seed": {"seeds": {"base": 5, "count": 2}}},
        "defaults": {"policy": "fp"},
    }
    path, out = bench.path("sim.json"), bench.path("sim.jsonl")
    path.write_text(json.dumps(spec))
    bench.run(["campaign", str(path), "--out", str(out)])
    records = checks.parse_lines(bench_run.read_lines(out))
    print("sim")
    expect("real sim output", checks.check_sim(records, 2), False)
    expect("bound_respected false", checks.check_sim(corrupt(records, 0, bound_respected=False), 2), True, "not respected")
    expect("max_tightness above 1", checks.check_sim(corrupt(records, 1, max_tightness=1.25), 2), True, "> 1")
    expect("record dropped", checks.check_sim(records[1:], 2), True, "grid has")


def serve_checks(bench: bench_run.Bench) -> None:
    serve = bench_run.ServeOverlap(bench)
    result = serve.round(0, False)
    print("serve-overlap")
    expect("real served round", result.problems + serve.verify_solo(), False)
    key, lines = next(iter(serve.streams.items()))
    request = json.loads(key)
    expect("served job with a dropped record", serve.check_stream(request, lines[:-1]), True, "grid has")
    changed = [lines[0].replace("true", "false", 1) if "true" in lines[0] else lines[0] + " ", *lines[1:]]
    serve.streams[key] = changed
    expect("served job differing from the solo Workbench run", serve.verify_solo(), True, "solo Workbench")
    serve.streams[key] = lines
    expect("real scenarios_computed", checks.check_computed(serve.distinct, serve.distinct), False)
    expect("scenarios_computed one short", checks.check_computed(serve.distinct - 1, serve.distinct), True, "distinct")


def main() -> int:
    if not (bench_run.SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {bench_run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(bench_run.SRC))
    (bench_run.BENCH / ".tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=bench_run.BENCH / ".tmp"))
    try:
        bench = bench_run.Bench(seed=1, seconds=1, trace=False, tmp=tmp)
        sweep_checks(bench)
        study_checks(bench)
        sim_checks(bench)
        serve_checks(bench)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("all checks behave" if not FAILURES else f"{len(FAILURES)} check(s) misbehave")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())

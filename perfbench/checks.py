"""Output checks: properties every correct output must have.

Each check takes parsed JSONL records (plus what the benchmark itself
generated: grid sizes, methods, the Eq. 4 inputs) and returns a list of
problems; an empty list means the output passed.  None of them compares
against a stored copy of earlier output.  ``selftest.py`` feeds each
check corrupted outputs to show that it rejects them.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping, Sequence

from inputs import sweep_q_grid

Record = Mapping[str, object]


def parse_lines(lines: Sequence[str]) -> list[dict]:
    return [json.loads(line) for line in lines]


def number(value: object) -> float:
    """A record float; non-finite values travel as ``"inf"``/``"nan"``."""
    return float(value)  # type: ignore[arg-type]


def eq4_bound(wcet: float, max_f: float, q: float, cap: int = 100_000) -> float:
    """Eq. 4 by its own fixed-point loop: ``C' = C + ceil(C'/Q) max f``
    from ``C' = C``; the cumulative delay ``C' - C``, or ``inf`` where
    ``max f >= Q`` admits no fixed point."""
    if max_f == 0.0:
        return 0.0
    if max_f >= q:
        return math.inf
    c_prime = wcet
    for _ in range(cap):
        updated = wcet + math.ceil(c_prime / q) * max_f
        if updated == c_prime:
            return c_prime - wcet
        c_prime = updated
    return math.nan


def check_count(records: Sequence[Record], expected: int, what: str) -> list[str]:
    if len(records) != expected:
        return [f"{what}: {len(records)} records, grid has {expected}"]
    return []


def check_bound(
    records: Sequence[Record],
    eq4_inputs: Mapping[str, tuple[float, float]],
    what: str,
) -> list[str]:
    """Bound records (Q ascending per function): Algorithm 1 <= Eq. 4,
    convergence where Eq. 4 is finite, Eq. 4 recomputed from each
    function's ``(C, max f)``, and preemptions non-increasing in Q."""
    problems = []
    last_preemptions: dict[str, tuple[float, int]] = {}
    for index, record in enumerate(records):
        where = f"{what} record {index}"
        function, q = record["function"], number(record["q"])
        alg1 = number(record["algorithm1"])
        soa = number(record["state_of_the_art"])
        if not alg1 <= soa:
            problems.append(f"{where}: algorithm1 {alg1} > state_of_the_art {soa}")
        if math.isfinite(soa) and record["converged"] is not True:
            problems.append(f"{where}: Eq. 4 finite but converged={record['converged']}")
        if function in eq4_inputs:
            expected = eq4_bound(*eq4_inputs[function], q)
            if soa != expected:
                problems.append(f"{where}: state_of_the_art {soa} != Eq. 4 {expected}")
        else:
            problems.append(f"{where}: unknown function {function!r}")
        preemptions = int(record["preemptions"])  # type: ignore[arg-type]
        previous = last_preemptions.get(function)
        if previous is not None and q > previous[0] and preemptions > previous[1]:
            problems.append(
                f"{where}: preemptions rose from {previous[1]} to {preemptions} as Q grew"
            )
        last_preemptions[function] = (q, preemptions)
    return problems


def check_grid(records: Sequence[Record], grid: Sequence[tuple[str, float]], what: str) -> list[str]:
    """Record count and ``(function, q)`` of every record, in order."""
    problems = check_count(records, len(grid), what)
    for index, (record, point) in enumerate(zip(records, grid)):
        if (record["function"], number(record["q"])) != tuple(point):
            problems.append(f"{what} record {index}: not grid point {point}")
            break
    return problems


def check_sweep(
    records: Sequence[Record],
    points: int,
    functions: Sequence[str],
    eq4_inputs: Mapping[str, tuple[float, float]],
) -> list[str]:
    """``repro sweep`` records: the Q-major grid, then :func:`check_bound`."""
    grid = [(f, q) for q in sweep_q_grid(points) for f in functions]
    return check_grid(records, grid, "sweep") + check_bound(records, eq4_inputs, "sweep")


def check_identical(reference: bytes, other: bytes, what: str) -> list[str]:
    if reference != other:
        return [f"{what}: output differs from the reference bytes"]
    return []


def check_acceptance(
    records: Sequence[Record], methods: Sequence[str], expected: int, what: str
) -> list[str]:
    """Study verdicts: any acceptance implies ``admitted``; every set
    Eq. 4 accepts, Algorithm 1 accepts; every set Algorithm 1 accepts,
    the delay-oblivious test accepts."""
    problems = check_count(records, expected, what)
    for index, record in enumerate(records):
        where = f"{what} record {index}"
        verdicts = record["accepted"]
        if not isinstance(verdicts, list) or len(verdicts) != len(methods):
            problems.append(f"{where}: accepted {verdicts!r} does not match {list(methods)}")
            continue
        accepted = dict(zip(methods, verdicts))
        if any(verdicts) and record["admitted"] is not True:
            problems.append(f"{where}: accepted without an NPR assignment")
        if accepted.get("eq4") and not accepted.get("algorithm1"):
            problems.append(f"{where}: eq4 accepts a set algorithm1 rejects")
        if accepted.get("algorithm1") and not accepted.get("oblivious"):
            problems.append(f"{where}: algorithm1 accepts a set oblivious rejects")
    return problems


def check_sim(records: Sequence[Record], expected: int, what: str = "sim") -> list[str]:
    """Theorem 1 in the simulator: no job's observed delay exceeds its
    bound, so every record has ``bound_respected`` and tightness <= 1."""
    problems = check_count(records, expected, what)
    for index, record in enumerate(records):
        if record["bound_respected"] is not True:
            problems.append(f"{what} record {index}: bound not respected")
        if not number(record["max_tightness"]) <= 1.0:
            problems.append(f"{what} record {index}: max_tightness {record['max_tightness']} > 1")
    return problems


def check_computed(computed: int, distinct: int) -> list[str]:
    """Scenario-level dedup: the server computes each distinct scenario
    of all submitted requests exactly once."""
    if computed != distinct:
        return [f"server computed {computed} scenarios; the requests hold {distinct} distinct ones"]
    return []

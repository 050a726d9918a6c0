"""Seeded inputs of every workload: the sweep grid and serve requests.

Everything the program receives is generated here from the run's
``--seed``, so the same seed always yields the same request sequences.
Nothing here imports ``repro``: the benchmark writes plain wire-shaped
request mappings, as a user would.
"""

from __future__ import annotations

import hashlib
import random

#: ``repro sweep`` grid of the ``sweep-resume`` workload: 3 x points
#: scenarios.  The sweep command takes no seeded input, so this grid is
#: the same for every seed.
SWEEP_POINTS = 120
SWEEP_KNOTS = 32

#: Fig. 4 constants the sweep's Q grid is built from (``default_q_grid``:
#: log-spaced from ``max f + 2`` to ``C / 2``).
FIG4_WCET = 4000.0
FIG4_MAX = 10.0
FIG4_FUNCTIONS = ("gaussian1", "gaussian2", "bimodal")

EDF_METHODS = ["oblivious", "eq4", "algorithm1"]
FP_METHODS = ["oblivious", "busquets", "petters", "eq4", "algorithm1"]


def derive(seed: int, *parts: object) -> int:
    """A 63-bit seed derived from ``seed`` and a label (stable across
    Python versions and processes, unlike ``hash``)."""
    digest = hashlib.sha256(repr((seed, *parts)).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def sweep_q_grid(points: int) -> list[float]:
    """The Q values ``repro sweep --points N`` evaluates, computed here
    from the published recipe (log spacing between the divergence
    threshold ``max f + 2`` and ``C / 2``)."""
    q_min, q_max = FIG4_MAX + 2.0, FIG4_WCET / 2.0
    ratio = (q_max / q_min) ** (1.0 / (points - 1))
    return [q_min * ratio**k for k in range(points)]


# ----------------------------------------------------------------------
# serve-overlap
# ----------------------------------------------------------------------

#: Jobs per client per round, in the order the first client submits them.
SERVE_KINDS = (
    "bound", "study", "edf", "sweep", "sim", "bound",
    "study", "edf", "sim", "bound", "study", "sweep",
)
SERVE_SWEEPS = ({"points": 8, "knots": 24}, {"points": 8, "knots": 40})
SERVE_BOUND_KNOTS = 32
SERVE_Q_PER_HALF = 10
SERVE_SETS_PER_HALF = 2
SERVE_UTILIZATIONS = (0.4, 0.6, 0.8)

#: Fixed fields of the task-set families, beside the swept ``seed``.
TASKSET_DEFAULTS = {
    "study": {"n_tasks": 5, "q_fraction": 0.5, "delay_height": 0.05, "methods": FP_METHODS},
    "edf-study": {"n_tasks": 5, "q_fraction": 0.5, "delay_height": 0.05, "methods": EDF_METHODS},
    "sim": {"n_tasks": 4, "q_fraction": 0.5, "delay_height": 0.05, "policy": "fp"},
}
KIND_FAMILY = {"study": "study", "edf": "edf-study", "sim": "sim"}


def _campaign(family: str, axes: dict, defaults: dict) -> dict:
    return {
        "workload": "campaign",
        "params": {"spec": {"family": family, "axes": axes, "defaults": defaults}},
    }


def _bound_request(function: str, qs: list[float]) -> dict:
    return _campaign(
        "bound", {"q": {"grid": qs}}, {"function": function, "knots": SERVE_BOUND_KNOTS}
    )


def _taskset_request(family: str, utilization: float, seeds: list[int]) -> dict:
    return _campaign(
        family,
        {"seed": {"grid": seeds}},
        {"utilization": utilization, **TASKSET_DEFAULTS[family]},
    )


def serve_sequences(seed: int) -> tuple[list[dict], list[dict]]:
    """The two clients' job sequences.

    Every bound and task-set job takes half its grid from a pool it
    shares with one job of the other client and half from a pool of its
    own; both clients submit the same two sweeps (whole-job duplicates).
    So about half of each client's scenarios also occur in the other
    client's jobs.  The second client runs its jobs in a shuffled order.
    """
    rng = random.Random(derive(seed, "serve"))
    used_qs: set[float] = set()
    used_seeds: set[int] = set()

    def fresh(draw, used: set, count: int) -> list:
        values: list = []
        while len(values) < count:
            value = draw()
            if value not in used:
                used.add(value)
                values.append(value)
        return values

    def qs(count: int) -> list[float]:
        return fresh(lambda: round(rng.uniform(13.0, 1900.0), 3), used_qs, count)

    def seeds(count: int) -> list[int]:
        return fresh(lambda: rng.randrange(1, 2**31), used_seeds, count)

    first: list[dict] = []
    second: list[dict] = []
    sweeps = iter(SERVE_SWEEPS)
    for kind in SERVE_KINDS:
        if kind == "sweep":
            request = {"workload": "sweep", "params": dict(next(sweeps))}
            first.append(request)
            second.append(request)
        elif kind == "bound":
            function = rng.choice(FIG4_FUNCTIONS)
            shared = qs(SERVE_Q_PER_HALF)
            for client in (first, second):
                client.append(_bound_request(function, sorted(shared + qs(SERVE_Q_PER_HALF))))
        else:
            family = KIND_FAMILY[kind]
            utilization = rng.choice(SERVE_UTILIZATIONS)
            shared = seeds(SERVE_SETS_PER_HALF)
            for client in (first, second):
                client.append(
                    _taskset_request(family, utilization, shared + seeds(SERVE_SETS_PER_HALF))
                )
    rng.shuffle(second)
    return first, second


def request_scenarios(request: dict) -> list[tuple]:
    """The scenario identities a serve request evaluates, in stream
    order, as tuples of the family and the fields that vary between the
    benchmark's requests (the others are fixed per family)."""
    params = request["params"]
    if request["workload"] == "sweep":
        return [
            ("bound", function, q, params["knots"])
            for q in sweep_q_grid(params["points"])
            for function in FIG4_FUNCTIONS
        ]
    spec = params["spec"]
    defaults = spec["defaults"]
    if spec["family"] == "bound":
        return [
            ("bound", defaults["function"], float(q), defaults["knots"])
            for q in spec["axes"]["q"]["grid"]
        ]
    return [
        (spec["family"], defaults["utilization"], seed_value)
        for seed_value in spec["axes"]["seed"]["grid"]
    ]

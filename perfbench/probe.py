"""Set-up probe: everything a ``repro`` command does before it computes.

Usage: ``python3 perfbench/probe.py <repro arguments...>``

Starts the interpreter, imports the CLI, parses the arguments and
resolves the request into its scenario plan (for ``sweep`` and
``campaign``), then exits without evaluating anything.  Its wall time
is the benchmark's ``setup_s`` for the CLI workloads.
"""

from __future__ import annotations

import sys

from repro.api import RunRequest
from repro.api.plan import PLANNABLE_WORKLOADS, plan_scenarios
from repro.cli import build_parser


def main(argv: list[str]) -> int:
    args = build_parser().parse_args(argv)
    workload = args.workload
    params = {
        param.name: getattr(args, param.name)
        for param in workload.parameters
        if not param.hidden and getattr(args, param.name) is not None
    }
    request = RunRequest.make(workload.name, **params)
    resolved = workload.resolve_params(request.params_dict())
    if workload.name in PLANNABLE_WORKLOADS:
        plan_scenarios(workload.name, resolved)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

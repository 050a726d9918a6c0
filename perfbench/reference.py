"""Fixed machine-speed reference: the same pure-Python work every time.

The benchmark runs this program before every round and after the last
one, and rescales each round's wall times by how long this program took
around it (see ``REFERENCE_NOMINAL_S`` in ``run.py``).  It imports
nothing from ``repro``, so no change to the program can move it; only
the machine's speed does.  The work mixes what the analysis code does:
float arithmetic and ``ceil``, small objects, dict and list churn, and
sorting.
"""

from __future__ import annotations

import math


class Point:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: int) -> None:
        self.a = a
        self.b = b


def work(n: int = 120_000) -> float:
    total = 0.0
    table: dict[int, Point] = {}
    window: list[tuple[int, float]] = []
    for i in range(n):
        point = Point(i * 0.5, i % 7)
        total += math.ceil(point.a / (point.b + 1.5)) * 0.25
        table[i % 1013] = point
        window.append((point.b, point.a))
        if len(window) > 512:
            window.sort()
            del window[:256]
    return total


if __name__ == "__main__":
    print(work())

"""Fixed calibration program for the benchmark's timings.

The host's speed drifts by a third over minutes, far more than any bound
worth setting, and the drift slows this program as much as it slows a
`shnirel` invocation: both are CPython code doing small-integer, tuple and
dict work. run.py runs this program next to each invocation and divides
the invocation's times by its times. It imports nothing from `shnirel`,
so no change to the library can move it.

Exits 1 unless the number of pairs found equals EXPECTED.
"""

import sys
from math import isqrt

EXPECTED = 1170


def work() -> int:
    n = 80_000
    flags = bytearray([1]) * n
    flags[0] = flags[1] = 0
    for p in range(2, isqrt(n - 1) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, n, p)))
    pool = [(a, b) for a in range(1, 200) for b in range(0, a)
            if (a + b) % 2 and a * a + b * b < n and flags[a * a + b * b]]
    index = {p: i for i, p in enumerate(pool)}
    hits = 0
    for re in range(10, 100):
        for im in range(0, re, 2):
            for a, b in pool:
                if a >= re:
                    break
                if (re - a, im - b) in index:
                    hits += 1
                    break
    return hits


if __name__ == "__main__":
    sys.exit(0 if work() == EXPECTED else 1)

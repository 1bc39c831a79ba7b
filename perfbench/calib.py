"""Machine-speed reference for the benchmark's timings.

The benchmark runs on shared machines whose speed drifts by tens of
percent within seconds, because other tenants load the same cores.  Every
timed op therefore sits between two runs of a fixed pure-Python reference
loop, and its time is reported at the reference speed:

    scaled = measured * REF_S / (mean of the two reference times)

Memory and counts are not scaled.

The loop is benchmark code, so a change to motivecalc moves only the
measured numerator.  REF_S is about the loop's time on the machine
described in NOTES.md when nothing else loads it, so scaled numbers read
as that machine's unloaded wall times.
"""

from time import perf_counter

REF_S = 0.006


def reference() -> float:
    """Time of one run of the reference loop, in seconds."""
    t0 = perf_counter()
    d: dict[int, int] = {}
    parts = []
    for i in range(30_000):
        d[i & 127] = d.get(i & 127, 0) + i * i
        parts.append(str(i))
    "".join(parts)
    return perf_counter() - t0


class Clock:
    """Reference runs around consecutive timed calls; the run after one
    call is the run before the next."""

    def __init__(self):
        self._ref = reference()

    def factor(self) -> float:
        """Scale for the call timed since the previous factor() call."""
        after = reference()
        f = 2 * REF_S / (self._ref + after)
        self._ref = after
        return f

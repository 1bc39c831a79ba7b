"""One set-up probe: `import motivecalc` plus the first Atlas() and
GMScenario(), timed in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/probe.py

Before the clock starts, the process holds only what every interpreter
start loads, plus calib, which imports nothing but time.perf_counter.  So
the time covers every module motivecalc pulls in, standard ones such as
dataclasses, json and re included.  Prints the time scaled to the
reference speed and the raw time, in seconds.
"""

from time import perf_counter

import calib

clock = calib.Clock()
t0 = perf_counter()
import motivecalc  # noqa: E402

motivecalc.Atlas()
motivecalc.GMScenario()
raw = perf_counter() - t0
print(raw * clock.factor(), raw)

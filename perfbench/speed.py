"""Correct pass times for the drift of a shared host's CPU speed.

On a host shared with other tenants, the speed of the benchmark's CPU
swings by a quarter or more over seconds to minutes, in step for any
interpreter-bound code.  So a pass is interleaved with reference work of
the same kind as its own, in the same kind of process: CHUNK, a fixed
piece of interpreter work (integers, tuples, dicts and Fractions, like the
audit's own), in the benchmark process for in-process audits, and a fresh
interpreter that runs this file, which runs CHUNK CHILD_CHUNKS times, for
CLI commands.  A pass's speed factor is the reference's nominal time over
its mean time during the pass: times multiplied by it are the seconds the
pass would take on a host where the reference takes its nominal time, its
typical time on the 2-vCPU Intel Xeon (Python 3.11) the benchmark was
tuned on.  The reference is not the program's code, so a change to the
program moves corrected times as it moves raw ones.
"""

import signal
from fractions import Fraction
from time import perf_counter

TICK_S = 0.1
NOMINAL_S = 0.002          # CHUNK
CHILD_CHUNKS = 5
CHILD_NOMINAL_S = 0.075    # an interpreter that runs this file


def chunk():
    table = {}
    total = 0
    for i in range(2000):
        key = (i, i * 7 % 13, i % 5)
        table[key] = table.get(key, 0) + 1
        total += key[0] * key[1] - key[2]
    frac = Fraction(0)
    for i in range(300):
        frac += Fraction(i % 7, i % 11 + 1)
    return total, frac


class Sampler:
    """Reference times; each pass runs inside the sampler as a context."""

    def __init__(self, nominal):
        self.nominal = nominal
        self.samples = []
        self.first = 0

    def __enter__(self):
        self.first = len(self.samples)
        return self

    def __exit__(self, *exc):
        pass

    def factor(self):
        """The nominal time over the mean reference time of the last pass."""
        window = self.samples[self.first:]
        return self.nominal * len(window) / sum(window)


class Ticker(Sampler):
    """Times CHUNK on every SIGALRM during a pass.  Python runs the handler
    between bytecodes of the main thread, so the samples interleave with
    the audit itself.  clock() is perf_counter() less the time spent in the
    handler, so operation times taken with it exclude the sampling."""

    def __init__(self):
        super().__init__(NOMINAL_S)
        self.spent = 0.0

    def _tick(self, signum, frame):
        start = perf_counter()
        chunk()
        end = perf_counter()
        self.samples.append(end - start)
        self.spent += perf_counter() - start

    def clock(self):
        return perf_counter() - self.spent

    def __enter__(self):
        super().__enter__()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if len(self.samples) == self.first:  # a pass shorter than a tick
            self._tick(None, None)


if __name__ == "__main__":
    for _ in range(CHILD_CHUNKS):
        chunk()

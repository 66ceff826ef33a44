"""Machine-speed probe, for scaling measured times to a reference speed.

On virtual machines whose cores are shared with other guests, the same
code runs up to 2x slower from one second to the next, and slow spells last
from seconds to minutes. Raw times of runs made a few minutes apart then
differ by 25-50%, whatever the benchmark does. So every run also times a
fixed probe, code that has nothing to do with privsel but is built like
it (scalar closures and math calls, dict updates, small and large numpy
FFTs), at the moments the workload runs. A measured interval is reported
in reference seconds: each stretch of it between two probes counts
REFERENCE_S / p seconds per second, p being the mean time of those two
probes. A change to privsel moves the interval and leaves the probe
alone, so it shows in full. The raw times are reported as well.

Work that is mostly interpreter start and import (set-up, and every call
of `python -m privsel.cli`) does not move with that in-process probe:
when the machine sped up by a third, the import-bound calls sped up with
it and the probe barely moved. Such work is scaled by an import probe
instead: a fresh interpreter that imports the third-party modules privsel
1.0.0 imports (numpy and five scipy subpackages) and nothing of privsel.
A smaller probe (numpy and scipy.special alone) drifted 20% against the CLI
calls within minutes, so the probe does the same kind of work as the calls
it scales. It is a fixed list: if privsel stops importing one of them, its
calls get faster and the probe does not, so the gain shows.
"""

from __future__ import annotations

import bisect
import math
import signal
import subprocess
import sys
import time

import numpy as np

# probe time in the fast state of a 2-core Xeon (Sapphire Rapids) KVM guest
REFERENCE_S = 0.020
SAMPLE_INTERVAL_S = 0.25
# a round import-probe time, below the 1.47-2.1 s measured on the same guest
REFERENCE_IMPORT_S = 1.20
IMPORT_PROBE_MODULES = ("numpy", "scipy.special", "scipy.integrate", "scipy.optimize",
                        "scipy.stats", "scipy.signal")

_SMALL = np.random.default_rng(0).random(1 << 12)
_LARGE = np.random.default_rng(1).random(1 << 18)


def probe():
    """Seconds the fixed probe takes now."""
    start = time.perf_counter()

    def clipped(e, a=0.3):
        return min(1.0, max(0.0, math.exp(-e * a) * 0.5))

    acc, table = 0.0, {}
    for i in range(12000):
        acc += clipped(i * 1e-4)
        table[i & 255] = acc
    for _ in range(200):
        float(np.min(np.exp(_SMALL[:336]) - acc))
    np.fft.irfft(np.fft.rfft(_LARGE) ** 2)
    return time.perf_counter() - start


def import_probe(env=None):
    """Seconds a fresh interpreter (with environment `env`) takes to import
    IMPORT_PROBE_MODULES."""
    argv = [sys.executable, "-c", "import " + ", ".join(IMPORT_PROBE_MODULES)]
    start = time.perf_counter()
    subprocess.run(argv, env=env, check=True, capture_output=True, timeout=60)
    return time.perf_counter() - start


class Timeline:
    """Probe times at points of a clock, and intervals of that clock
    converted to reference seconds (those in which `probe` takes
    `reference` seconds)."""

    def __init__(self, clock=time.perf_counter, probe=probe, reference=REFERENCE_S):
        self.clock = clock
        self.probe = probe
        self.reference = reference
        self.times = []
        self.samples = []

    def sample(self):
        t = self.clock()
        p = self.probe()
        self.times.append(t)
        self.samples.append(p)
        return p

    def scaled(self, a, b):
        """Reference seconds of the clock interval [a, b]."""
        t, p = self.times, self.samples
        i = bisect.bisect_right(t, a)
        total, lo = 0.0, a
        while lo < b:
            hi = min(b, t[i]) if i < len(t) else b
            # between probes i-1 and i; before the first or after the last
            # probe, that probe alone
            near = p[max(0, i - 1):i + 1] if 0 < i < len(t) else p[min(i, len(t) - 1):][:1]
            total += (hi - lo) * self.reference * len(near) / sum(near)
            lo = hi
            i += 1
        return total


class Sampler(Timeline):
    """A Timeline sampled every SAMPLE_INTERVAL_S from a timer signal while
    a pass runs. Its clock leaves probe time out, so probes taken inside
    a measured interval do not lengthen it."""

    def __init__(self):
        super().__init__(self._clock)
        self._probe_s = 0.0

    def _clock(self):
        return time.perf_counter() - self._probe_s

    def _tick(self, signum, frame):
        self._probe_s += self.sample()

    def __enter__(self):
        probe()  # warm-up: the first probe of a process runs cold
        self._tick(None, None)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick(None, None)
        return False

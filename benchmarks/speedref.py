"""Reference kernel that samples how fast the host runs right now.

On a shared host the same code can take 1.5 times longer in one half
minute than in the next, and the process's CPU time slows down with its
wall time (no steal is booked; the core itself runs slower). Timing the
program alone then measures the neighbours as much as the program.

`Probe` runs a fixed pure-Python kernel, which uses no qchar code, from a
SIGALRM handler every INTERVAL_S of wall time, so samples fall inside long
calls as well as between short ones: a sparse dict product and a dense
list convolution of 200-bit integers, the two shapes of the qchar kernel.
A call's normalised time is its wall time, less the probe's own time,
times the mean of PASS_S / pass time over the samples taken during it:
the time the call would take on a host on which one pass takes PASS_S.
A change to qchar moves the call's time but not the pass time, so it
moves the normalised time by the same share.
"""

import gc
import random
import signal
import statistics
import time

PASS_S = 1.0e-3     # nominal pass time: about one pass on a quiet 2-vCPU VM
INTERVAL_S = 0.05   # wall time between samples
WARMUP = 5          # samples taken at start(), before any call

_rng = random.Random(5)
_SPARSE_A = {_rng.randrange(400): _rng.randrange(-10**6, 10**6) for _ in range(56)}
_SPARSE_B = {_rng.randrange(400): _rng.randrange(-10**6, 10**6) for _ in range(56)}
_DENSE_A = [_rng.getrandbits(200) for _ in range(42)]
_DENSE_B = [_rng.getrandbits(200) for _ in range(42)]


def one_pass() -> float:
    """Seconds for one pass of the kernel, with the garbage collector off
    so the program's heap does not change the pass's cost."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    sparse = {}
    for ea, ca in _SPARSE_A.items():
        for eb, cb in _SPARSE_B.items():
            if ea + eb < 600:
                sparse[ea + eb] = sparse.get(ea + eb, 0) + ca * cb
    dense = [0] * (len(_DENSE_A) + len(_DENSE_B))
    for i, a in enumerate(_DENSE_A):
        for j, b in enumerate(_DENSE_B):
            dense[i + j] += a * b
    elapsed = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return elapsed


class Probe:
    """Pass-time samples every INTERVAL_S of wall time."""

    def __init__(self):
        self.samples = []    # pass times, in the order taken
        self.spent_s = 0.0   # wall time spent in the probe itself

    def _sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        one_pass()  # untimed: the program has just evicted the kernel's data
        self.samples.append(one_pass())
        self.spent_s += time.perf_counter() - t0

    def start(self) -> None:
        for _ in range(WARMUP):
            self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self, first: int, last: int) -> float:
        """Mean of PASS_S / pass time over samples[first:last]; for a call
        too short to hold a sample, over the samples either side of it."""
        window = self.samples[first:last] or self.samples[max(first - 1, 0):first + 1]
        return statistics.fmean(PASS_S / p for p in window)

"""Host-speed normalisation for the end-to-end times.

On a shared host the same pass can take twice as long for a minute at a
time, and CPU time tracks wall time, so medians over a run do not remove
it.  A fixed pure-Python search, timed in chunks of a quarter millisecond
before, between, after and (from an interval timer) during each measured
call, tracks that drift.  End-to-end times are reported in nominal seconds:

    nominal = median call time * (NOMINAL_CHUNK_S / median chunk) ** elasticity

where a call's time excludes the chunks run inside it.  NOMINAL_CHUNK_S is
the chunk's time on an idle 2-core Python 3.11 host, so on such a host
nominal seconds read as wall seconds.  Not all work slows in proportion to
the chunk, so the caller passes the elasticity of its kind of work: over 50
interleaved calls on a shared 2-core host, while the chunk slowed
0.93x-2.14x, log call time regressed on log chunk time with slope 0.56-0.65
for three solves and 0.80 for a verifier.  The search belongs to the
benchmark, never to the program, so a change to kneser_lab moves the
measured call and leaves the reference alone.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

NOMINAL_CHUNK_S = 0.00025
INTERVAL_S = 0.025  # one chunk per interval inside a call: about 1% of it
_BLOCK = 20  # chunks timed after every measured step
_MAX_CALLS = 1000

# The chunk is a small backtracking 3-colouring search over the disjointness
# graph of 24 fixed 3-subsets: recursion, list indexing and generator
# expressions, like the program's own search and verifiers.  A plain
# arithmetic loop slowed 1.6x where the program slowed 2x on the same host.
_SETS = [m for m in range(1 << 12) if m.bit_count() == 3][:24]
_ADJ = [[j for j, b in enumerate(_SETS) if not a & b] for a in _SETS]
_NODES = 120


def chunk_seconds() -> float:
    """Time one chunk of the fixed reference search."""
    colors = [-1] * len(_SETS)
    nodes = 0

    def dfs(v: int) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > _NODES:
            return True
        if v == len(_SETS):
            return False  # count on: the chunk always visits _NODES nodes
        for c in range(3):
            if all(colors[u] != c for u in _ADJ[v]):
                colors[v] = c
                if dfs(v + 1):
                    return True
                colors[v] = -1
        return False

    t0 = perf_counter()
    dfs(0)
    return perf_counter() - t0


class Meter:
    """Times calls together with reference chunks around, between and in them.

    A block of chunks follows every measured step and also serves as the
    block before the next one.  While a call runs, SIGALRM fires every
    INTERVAL_S and its handler times one chunk; the handler's time is taken
    off the call's.  A call that returns in under repeat_s is called again,
    with a chunk after each call, until repeat_s has passed.
    """

    def __init__(self) -> None:
        self._before = [chunk_seconds() for _ in range(_BLOCK)]
        self._inside: list[tuple[float, float]] = []  # (chunk, handler) seconds

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        chunk = chunk_seconds()
        self._inside.append((chunk, perf_counter() - t0))

    def _timed(self, call):
        mark = len(self._inside)
        t0 = perf_counter()
        out = call()
        elapsed = perf_counter() - t0
        return out, elapsed - sum(h for _, h in self._inside[mark:])

    def time(self, call, repeat_s: float, elasticity: float):
        """Return call()'s first result, its median seconds and nominal seconds."""
        chunks = self._before
        self._inside.clear()
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            out, first = self._timed(call)
            calls = [first]
            start = perf_counter()
            while (first < repeat_s and perf_counter() - start < repeat_s
                   and len(calls) < _MAX_CALLS):
                chunks.append(chunk_seconds())
                calls.append(self._timed(call)[1])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        chunks += [c for c, _ in self._inside]
        self._before = [chunk_seconds() for _ in range(_BLOCK)]
        seconds = statistics.median(calls)
        chunk = statistics.median(chunks + self._before)
        speed = (NOMINAL_CHUNK_S / chunk) ** elasticity
        return out, seconds, seconds * speed

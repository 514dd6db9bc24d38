"""Host-speed probe: puts measured times on a fixed reference speed.

The benchmark runs on a few cores of a shared host, whose speed drifts by
tens of percent within a second and by as much over minutes, as other
tenants load it.  That drift moves every timing of the library by the same
share, so two runs of the same code can differ by more than any useful
regression bound.

``probe`` is a fixed piece of pure Python (tuple, list and dict churn, the
kind of work the library's path code does) that never changes.  A ``Meter``
times the ops of a pass and runs the probe every ``EVERY_S`` seconds of wall
time, from a ``SIGALRM`` handler, so probes land inside long ops as well as
between short ones.  Each op's own time is its span less the probes that ran
inside it, and its factor is ``REF_MS / p``.  For an op that held probes,
``p`` is their mean duration: they sample its span at even times, and its
time adds up the host's slowness over that span.  For an op too short to
hold one, ``p`` is the median duration of the ``NEAREST`` probes run on each
side of it, which a single disturbed probe does not move.  An op's own time
multiplied by its factor is the time it would have taken on a host on which
the probe takes ``REF_MS``: a change to the library moves it, the host's
drift does not.  A pure arithmetic loop tracks the drift much worse than
this mix does.

The set-up time is scaled the same way by ``setup_probe``, which compiles
and runs a small module body, as an import does: the set-up speeds up less
than ``probe`` when the host frees up, and ``setup_probe`` follows it more
closely.

Probes run with the garbage collector off, so that a collection of the
library's objects is not charged to a probe.  This module imports nothing
that the library imports, so that probes can run before the library's
import is timed without taking part of it away.
"""

from __future__ import annotations

import gc
import signal
import time

# About the median duration of either probe on a 2-vCPU shared Xeon host
# with CPython 3.11, the reference host.  A constant: changing it rescales
# every scaled metric.
REF_MS = 2.0
EVERY_S = 0.05  # wall time between two probes
NEAREST = 4  # probes taken on each side of an op

clock = time.perf_counter


def probe() -> int:
    d: dict = {}
    for i in range(1000):
        t = tuple(range(i % 40))
        d[t] = len(t)
        row = [x + 1 for x in t[:10]]
        row.sort(reverse=True)
    return len(d)


SETUP_SOURCE = """
class Node:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def __repr__(self):
        return f"Node({self.a!r}, {self.b!r})"

    def __eq__(self, other):
        return (self.a, self.b) == (other.a, other.b)

    def __hash__(self):
        return hash((self.a, self.b))


def build(n):
    return {Node(i, str(i)): [i] * 3 for i in range(n)}


table = build(40)
"""


def setup_probe() -> None:
    for _ in range(6):
        exec(compile(SETUP_SOURCE, "<setup_probe>", "exec"), {})


def median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    return (ordered[mid] + ordered[~mid]) / 2


def time_probe(work=probe) -> tuple[float, float]:
    """Runs a probe once; its start and end on ``clock``."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = clock()
        work()
        return start, clock()
    finally:
        if enabled:
            gc.enable()


def durations_ms(probes: list[tuple[float, float]]) -> list[float]:
    return [(end - start) * 1e3 for start, end in probes]


def factor(probes: list[tuple[float, float]]) -> float:
    """The factor for work bracketed by these probes."""
    return REF_MS / median(durations_ms(probes))


class Meter:
    """Times the ops of one pass and runs probes among them.

    ``start`` runs ``NEAREST`` probes and starts the timer, ``call`` times
    one op, ``finish`` stops the timer and runs ``NEAREST`` more.  Work timed
    elsewhere goes in with ``record`` while the timer is paused.  Then
    ``ops_ms`` and ``factors`` give each op's own time and its factor.  A
    disabled meter runs no probes and gives factor 1.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[tuple[float, float]] = []  # each op's start and end
        self.given_ms: dict[int, float] = {}  # ops timed elsewhere
        self.probes: list[tuple[float, float]] = []
        self._probing = False

    def _probe(self, *_) -> None:
        if self._probing:  # the timer fired during an explicit probe
            return
        self._probing = True
        try:
            self.probes.append(time_probe())
        finally:
            self._probing = False

    def _timer(self, on: bool) -> None:
        if self.enabled:
            interval = EVERY_S if on else 0
            signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def start(self) -> None:
        if self.enabled:
            for _ in range(NEAREST):
                self._probe()
            signal.signal(signal.SIGALRM, self._probe)
            self._timer(True)

    def finish(self) -> None:
        if self.enabled:
            self._timer(False)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            for _ in range(NEAREST):
                self._probe()

    def pause(self) -> None:
        self._timer(False)

    def resume(self) -> None:
        self._timer(True)

    def call(self, fn, *args):
        start = clock()
        out = fn(*args)
        self.spans.append((start, clock()))
        return out

    def record(self, start: float, end: float, ms: float) -> None:
        """An op of ``ms`` timed elsewhere within [start, end], with the
        timer paused."""
        self.given_ms[len(self.spans)] = ms
        self.spans.append((start, end))

    def _windows(self):
        """Per op: the probes inside it, and those with the nearest on each
        side."""
        lo = 0  # the first probe that starts after the previous op's start
        for start, end in self.spans:
            while lo < len(self.probes) and self.probes[lo][0] < start:
                lo += 1
            hi = lo
            while hi < len(self.probes) and self.probes[hi][1] <= end:
                hi += 1
            yield (self.probes[lo:hi],
                   self.probes[max(0, lo - NEAREST):hi + NEAREST])

    def ops_ms(self) -> list[float]:
        out = []
        for i, ((start, end), (inside, _)) in enumerate(zip(self.spans, self._windows())):
            if i in self.given_ms:
                out.append(self.given_ms[i])
            else:
                out.append((end - start - sum(e - s for s, e in inside)) * 1e3)
        return out

    def factors(self) -> list[float]:
        if not self.enabled:
            return [1.0] * len(self.spans)
        out = []
        for inside, window in self._windows():
            if inside:
                out.append(REF_MS * len(inside) / sum(durations_ms(inside)))
            else:
                out.append(factor(window))
        return out

    def probe_s(self) -> float:
        return sum(end - start for start, end in self.probes)

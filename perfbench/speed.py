"""Machine-speed sampling inside the process under test.

On a shared machine the speed of a CPU changes while a run is in progress:
the same fixed work can take nearly twice as long for stretches of a tenth of
a second to several seconds, on either CPU.  A reference timed before or
after a repetition cannot follow that, so :class:`SpeedSampler` samples the
speed *during* the repetition: a wall-clock timer (``SIGALRM`` every
``PROBE_EVERY_S``) interrupts the bench between two bytecodes, on the thread
and CPU the bench is running on, and times a fixed probe.  The probe runs
once untimed first: timed cold, it would also measure how much of the CPU
caches the bench had taken over (a traced run, with its larger memory
footprint, made a cold probe about 8 % slower than an untraced one on the
same machine state; the warm probe's timings did not differ).

``speed`` is the mean of ``NOMINAL_PROBE_S / probe duration`` over the
samples, the share of the nominal rate the process got on average.  The
bench's work, in nominal seconds, is then ``elapsed * speed``: that is the
figure run.py reports.  The probe allocates no container objects, so it
never triggers a garbage collection of the bench's heap, and the time the
handler takes is recorded so the caller can take it off its own clocks.
"""

from __future__ import annotations

import signal
import time

#: How often the probe runs.  Two probes of 0.08 to 0.15 ms each cost under 2 %.
PROBE_EVERY_S = 0.02
#: The mean timed probe inside bench runs on a 2-CPU 2.0 GHz Xeon VM with
#: CPython 3.11 at its usual load, so that normalised timings read close to
#: wall seconds there.  Any fixed value would do: it only sets their scale.
NOMINAL_PROBE_S = 110e-6
_ITERATIONS = 200


class _Slot:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def bump(self, step: int) -> int:
        self.value = (self.value + step) & 0xFFFF
        return self.value


_SLOTS = tuple(_Slot() for _ in range(16))
_TABLE = {key: key for key in range(97)}


def probe() -> int:
    """Fixed interpreter work: integer arithmetic, dict reads and writes, calls."""
    table = _TABLE
    slots = _SLOTS
    state = 12345
    for i in range(_ITERATIONS):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        key = state % 97
        table[key] = (table[key] + i) & 0xFFFF
        state ^= slots[key & 15].bump(key)
    return state


class SpeedSampler:
    """Times :func:`probe` every ``PROBE_EVERY_S`` seconds of wall time.

    The caller sets :attr:`inside` around the calls it times (the replays);
    samples taken then and at other times are kept apart, as
    ``durations[True]`` and ``durations[False]``.  ``overhead_s`` is the time
    spent in the handler, ``overhead_in_s`` the part of it inside.
    """

    def __init__(self) -> None:
        self.durations = {False: [], True: []}
        self.overhead_s = 0.0
        self.overhead_in_s = 0.0
        self.inside = False

    def _sample(self, signum, frame) -> None:
        clock = time.perf_counter
        start = clock()
        probe()
        warm = clock()
        probe()
        probed = clock()
        self.durations[self.inside].append(probed - warm)
        spent = clock() - start
        self.overhead_s += spent
        if self.inside:
            self.overhead_in_s += spent

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self, inside: bool) -> float:
        """Mean share of the nominal rate over one side's samples (1.0 = nominal)."""
        durations = self.durations[inside] or self.durations[not inside]
        if not durations:
            return 1.0
        return sum(NOMINAL_PROBE_S / d for d in durations) / len(durations)

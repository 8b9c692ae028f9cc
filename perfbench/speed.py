"""The host's speed, sampled while the program runs, and times at a
reference speed.

The machines this benchmark runs on are shared: the speed of a process
swings by up to 2.4x within seconds (README.md, "Noise"), and CPU time
follows wall time, so neither measures the program alone. So the
benchmark times a fixed calibration kernel in short bursts, in the
processes that do the work and before and after each process it starts,
and divides each measured time by the slowdown the bursts saw around it.
The result is in reference seconds: seconds at the speed at which one
burst takes REF_BURST_S. The bursts in a working process take about
REF_BURST_S / INTERVAL_S (1.6%) of its time, inside whatever it is
doing, in every mode.

The kernel is part of the benchmark, not of the program, so a change to
the program cannot speed it up. It is a loop over closures compiled from
a small expression tree, with a dict for its environment, which is how
the program's interpreter spends its time; on the reference machine its
speed tracked the interpreter's to within a few percent over 0.2-second
windows, while a plain arithmetic loop did not.
"""

import bisect
import signal
import time

perf = time.perf_counter

KERNEL_STEPS = 600
REF_BURST_S = 0.0008      # one burst at the reference machine's fast state
INTERVAL_S = 0.05         # CPU time between bursts in a working process
SAMPLE_BURSTS = 5         # bursts of a sample around a spawned process


def _compile():
    def num(value):
        return lambda env: value

    def var(name):
        return lambda env: env[name]

    def binary(fn, left, right):
        return lambda env: fn(left(env), right(env))

    def index(array, at):
        return lambda env: env[array][at(env) % 8]

    add = int.__add__
    mul = int.__mul__
    mod = int.__mod__
    less = int.__lt__
    value = binary(mod, binary(add, binary(mul, var("i"), var("i")),
                               binary(add, var("acc"), index("xs", var("i")))),
                   num(1009))
    test = binary(less, var("i"), var("n"))

    def loop(env):
        while test(env):
            env["acc"] = value(env)
            env["i"] = env["i"] + 1
        return env["acc"]
    return loop


_LOOP = _compile()


def burst() -> float:
    """Seconds one run of the calibration kernel takes now."""
    env = {"i": 0, "acc": 0, "n": KERNEL_STEPS, "xs": list(range(8))}
    start = perf()
    _LOOP(env)
    return perf() - start


def sample() -> tuple:
    """(time, slowdown) from the median of SAMPLE_BURSTS bursts."""
    took = sorted(burst() for _ in range(SAMPLE_BURSTS))
    return perf(), took[SAMPLE_BURSTS // 2] / REF_BURST_S


class Sampler:
    """Slowdown samples of one working process, one burst every
    INTERVAL_S of its CPU time, from a SIGPROF timer. Forked processes
    inherit the handler but not the timer: each arms its own."""

    def __init__(self):
        self.samples = []

    def _on_timer(self, signum, frame):
        took = burst()
        self.samples.append((perf() - took / 2, took / REF_BURST_S))

    def start(self) -> None:
        self.samples = []
        signal.signal(signal.SIGPROF, self._on_timer)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)


class RefClock:
    """Reference seconds between perf_counter readings of one repetition:
    the integral of 1 / slowdown, with the slowdown's inverse interpolated
    linearly between the samples of all its processes and held before the
    first sample and after the last."""

    def __init__(self, samples):
        points = sorted((t, 1.0 / slowdown) for t, slowdown in samples)
        if not points:
            raise ValueError("no speed samples")
        self.times = times = [t for t, _ in points]
        self.rates = rates = [rate for _, rate in points]
        self.area = [0.0]       # integral from the first sample to each
        for k in range(1, len(points)):
            self.area.append(self.area[-1] + (times[k] - times[k - 1])
                             * (rates[k] + rates[k - 1]) / 2)

    def _integral(self, t):
        times, rates = self.times, self.rates
        k = bisect.bisect_right(times, t) - 1
        if k < 0:
            return (t - times[0]) * rates[0]
        if k == len(times) - 1:
            return self.area[k] + (t - times[k]) * rates[k]
        t0, t1, r0, r1 = times[k], times[k + 1], rates[k], rates[k + 1]
        rate = r0 + (r1 - r0) * (t - t0) / (t1 - t0)
        return self.area[k] + (t - t0) * (r0 + rate) / 2

    def seconds(self, start: float, end: float) -> float:
        return self._integral(end) - self._integral(start)


class RunClocks:
    """The reference clocks of one repetition: one per process from its
    own samples, and one from the samples of all its processes. Both
    include the samples taken around the repetition."""

    def __init__(self, outer, samples_by_pid):
        self.all = RefClock(outer + [point for points in
                                     samples_by_pid.values()
                                     for point in points])
        self.own = {pid: RefClock(outer + points)
                    for pid, points in samples_by_pid.items()}

    def of(self, pid) -> RefClock:
        return self.own.get(pid, self.all)

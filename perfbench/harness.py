"""Closed-loop measurement, set-up probes, environment and digests.

One client, one outstanding verdict, no threads: the loop starts the next
verdict only when the previous one has returned.  A run is whole rounds over
the workload's verdict list, at least ``min_rounds`` of them and at least
``min_samples`` timed verdicts, and more while another round still fits in
the run's seconds.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import importlib.util
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

from metrics import quantile
from workloads import Outcome, child_env

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60


@dataclass(frozen=True)
class Spec:
    min_rounds: int = 2
    min_samples: int = 0
    # Percentiles over each verdict's fastest time in the run: the host this
    # was built on changes speed by a quarter and more for seconds at a time,
    # and a verdict timed in two rounds, seconds apart, meets full speed in
    # one of them far more often than a single timing does.
    best_of_rounds: bool = True


SPECS = {
    "decide": Spec(),
    # its median verdict takes a few milliseconds, where noise is largest
    "crosscheck": Spec(min_rounds=3),
    "algebra": Spec(),
    # 37 distinct invocations: the percentiles are over all timed invocations,
    # at least 100 of them, so that ten lie beyond the p90
    "cli": Spec(min_rounds=1, min_samples=100, best_of_rounds=False),
}


# --- host speed ---------------------------------------------------------------------
# The shared host this benchmark was built on changes speed by half and more
# within a minute, on both vCPUs at once (a fixed loop took from 24 ms to
# 36 ms).  A short pure-Python reference probe, the benchmark's own code, runs
# before a verdict whenever PROBE_EVERY_S has passed, and every timing is also
# reported scaled to nominal host speed: multiplied by PROBE_NOMINAL_S over the
# median probe within PROBE_WINDOW_S of it.  Over 4-second windows the probe
# tracked the verdicts' own slowdown with slope 0.9 (decide) and 1.06
# (crosscheck), and scaling cut the spread of their times from 0.19 and 0.12
# to 0.04 (log standard deviation).  A change to coarseact moves scaled times
# exactly as it moves raw ones.

PROBE_NOMINAL_S = 0.0025  # the probe at full speed: 2-vCPU x86 VM, Python 3.11
PROBE_EVERY_S = 0.1
PROBE_WINDOW_S = 2.0


def reference_probe():
    """About 2.5 ms of interpreter work: small-int arithmetic, tuples, a dict."""
    acc = 0
    for i in range(30_000):
        acc += i * i % 7
    d = {}
    for i in range(1500):
        t = (i % 17, i % 13, i)
        d[t[:2]] = d.get(t[:2], 0) + t[2]
    return acc, len(d)


class HostSpeed:
    """Probe times on the run's clock, and the speed factor they give."""

    def __init__(self):
        self.at: list = []  # probe start times, increasing
        self.took: list = []

    def probe(self):
        t0 = time.perf_counter()
        reference_probe()
        self.at.append(t0)
        self.took.append(time.perf_counter() - t0)

    def due(self) -> bool:
        return not self.at or time.perf_counter() - self.at[-1] >= PROBE_EVERY_S

    def factor(self, t: float) -> float:
        """Median probe time near ``t`` over nominal: above 1 on a slow host."""
        lo = bisect.bisect_left(self.at, t - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.at, t + PROBE_WINDOW_S)
        if lo == hi:  # no probe in the window: the nearest ones
            i = bisect.bisect_left(self.at, t)
            lo, hi = max(0, i - 2), min(len(self.at), i + 2)
        return statistics.median(self.took[lo:hi]) / PROBE_NOMINAL_S


@dataclass
class Measurement:
    times: list  # per verdict, its wall seconds in each round
    stamps: list  # per verdict, the clock when each timing started
    host: HostSpeed = field(default_factory=HostSpeed)
    decided: int = 0
    failures: list = field(default_factory=list)  # (verdict, why)
    digests: list = field(default_factory=list)  # first round, in list order

    @property
    def attempted(self) -> int:
        return sum(len(t) for t in self.times)

    @property
    def rounds(self) -> int:
        return len(self.times[0]) if self.times else 0

    def per_verdict(self, scaled: bool = True) -> list:
        if not scaled:
            return self.times
        return [[t / self.host.factor(s) for t, s in zip(ts, ss)]
                for ts, ss in zip(self.times, self.stamps)]

    def samples(self, best_of_rounds: bool, scaled: bool = True) -> list:
        per = self.per_verdict(scaled)
        if best_of_rounds:
            return [min(t) for t in per]
        return [x for t in per for x in t]

    def round_sums(self, scaled: bool = True) -> list:
        """Seconds of verdict work per round (the loop's own work excluded)."""
        per = self.per_verdict(scaled)
        return [sum(t[r] for t in per) for r in range(self.rounds)]


def _run_one(verdict, tracer):
    if tracer is None:
        return verdict.run()
    if verdict.run_traced is not None:
        return verdict.run_traced(tracer)
    with tracer.span(f"verdict.{verdict.kind}"):
        return verdict.run()


def measure(verdicts, seconds: float, min_rounds: int = 1, min_samples: int = 0,
            tracer=None) -> Measurement:
    m = Measurement([[] for _ in verdicts], [[] for _ in verdicts])
    clock = time.perf_counter
    gc.collect()
    start = clock()
    while True:
        round_start = clock()
        for v, times, stamps in zip(verdicts, m.times, m.stamps):
            if m.host.due():
                m.host.probe()
            t0 = clock()
            try:
                result = _run_one(v, tracer)
                error = None
            except Exception as exc:  # a verdict that raises is a failed verdict
                result, error = None, f"{type(exc).__name__}: {exc}"
            times.append(clock() - t0)
            stamps.append(t0)
            outcome = (Outcome(False, error, f"raised {error}") if error
                       else v.judge(result))
            m.decided += outcome.decided
            if outcome.failure:
                m.failures.append((v.name, outcome.failure))
            if m.rounds == 1:
                m.digests.append(outcome.digest)
        round_s = clock() - round_start
        if (m.rounds >= min_rounds and m.attempted >= min_samples
                and clock() - start + round_s > seconds):
            return m


# --- set-up probes, each in a fresh interpreter -----------------------------------


def probe(root: str, code: str) -> float:
    """Run ``code`` in a fresh interpreter; it prints one float."""
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=child_env(root),
                          capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def setup_code(workload: str, seed: int, root: str) -> str:
    if workload == "cli":
        return ("import time\nt0 = time.perf_counter()\nimport coarseact.cli\n"
                "print(time.perf_counter() - t0)\n")
    return (f"import sys, time\nt0 = time.perf_counter()\nsys.path.insert(0, {BENCH_DIR!r})\n"
            f"import workloads\nworkloads.BUILDERS[{workload!r}]({seed!r}, {root!r})\n"
            "print(time.perf_counter() - t0)\n")


def median_probe(root: str, code: str, n: int = SETUP_PROBES) -> float:
    # Not scaled by host speed: start-up in a fresh interpreter did not track
    # the reference probe, and scaling made the set-up medians spread more.
    return statistics.median(probe(root, code) for _ in range(n))


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


# --- environment and digests ------------------------------------------------------


def _git_commit(root: str) -> str | None:
    """HEAD of a git checkout, read from the files; None outside one."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(root, ".git", name)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        return None
    return None


def source_digest(root: str) -> str:
    h = hashlib.sha256()
    src = os.path.join(root, "src", "coarseact")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read() + b"\0")
    return h.hexdigest()


def environment(root: str, seed: int) -> dict:
    import numpy

    from coarseact._kernels import kernel_backend

    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": cores,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernel_backend": kernel_backend(),
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(root),
        "seed": seed,
    }


def digest(parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode("utf-8") + b"\0")
    return h.hexdigest()


def summary(m: Measurement, best_of_rounds: bool) -> dict:
    """Run facts that are not metrics but explain them, raw times included."""
    s = m.samples(best_of_rounds)
    raw = m.samples(best_of_rounds, scaled=False)
    p90 = quantile(s, 0.9)
    factors = [t / PROBE_NOMINAL_S for t in m.host.took]
    return {
        "rounds": m.rounds,
        "percentile_samples": len(s),
        "samples_beyond_p90": sum(1 for x in s if x > p90),
        "raw_verdict_s.p50": quantile(raw, 0.5),
        "raw_verdict_s.p90": quantile(raw, 0.9),
        "raw_round_sums_s": m.round_sums(scaled=False),
        "host_speed_factor": {"probes": len(factors), "min": min(factors),
                              "median": statistics.median(factors), "max": max(factors)},
    }

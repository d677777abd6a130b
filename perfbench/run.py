#!/usr/bin/env python3
"""coarseact benchmark: four closed-loop workloads, one verdict at a time.

Run from the root of a coarseact source tree:

    python3 perfbench/run.py --workload decide --seed 1 --seconds 15 --trace 0

Workloads: decide, crosscheck, algebra, cli (see workloads.py).  The program
is imported from ``src/`` of the tree the script sits in, never from an
installed copy.  The second-to-last line of standard output is a JSON report
(environment, instance and verdict digests, sample counts, failed_ratio and
the first failures); the last line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, from an untraced run.
With ``--trace 1`` they are the per-layer ones, from one traced round next to
one untraced round over the same verdicts.  Exit code 0 means the run
completed, whether or not every verdict was right (see "correct"); 2 means
there was nothing to run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("decide", "crosscheck", "algebra", "cli")


def _source_tree_missing(root: str) -> str | None:
    for rel in ("src/coarseact/__init__.py", "fixtures"):
        if not os.path.exists(os.path.join(root, rel)):
            return rel
    return None


def _wall(argv, root: str, env: dict) -> float:
    t0 = time.perf_counter()
    subprocess.run(argv, cwd=root, env=env, check=True, capture_output=True, timeout=60)
    return time.perf_counter() - t0


def cli_layer(root: str, tracer) -> dict:
    """Start-up parts and per-invocation parse/command medians for ``cli``."""
    import harness
    import workloads

    env = workloads.child_env(root)
    interpreter = statistics.median(
        _wall([sys.executable, "-c", "pass"], root, env) for _ in range(harness.SETUP_PROBES))
    numpy_import = harness.median_probe(
        root, "import time\nt0 = time.perf_counter()\nimport numpy\n"
              "print(time.perf_counter() - t0)\n")
    parse, command = [], []
    for snap in tracer.snapshots:
        incl = {k: v[2] for k, v in snap["stats"].items()}
        p = incl.get("cli.parse_instance", 0.0)
        parse.append(p)
        command.append(incl.get("cli.run_command", 0.0) - p)
    return {
        "interpreter_s": interpreter,
        "import_numpy_s": numpy_import,
        "parse_s": statistics.median(parse),
        "command_s": statistics.median(command),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: str = ROOT,
                 limit: int | None = None):
    """Build, measure and judge one workload; returns (report, result).

    ``limit`` keeps only the first verdicts and runs one round: the tests use
    it for a quick run through the same code.
    """
    import harness
    import metrics
    import workloads
    from tracer import Tracer

    inputs = workloads.BUILDERS[name](seed, root)
    verdicts = inputs.verdicts[:limit] if limit else inputs.verdicts
    spec = harness.SPECS[name]
    if limit is not None:
        spec = harness.Spec(1, 0, spec.best_of_rounds)
    report = {
        "workload": name,
        "trace": trace,
        "env": harness.environment(root, seed),
        "instances": len(inputs.instance_texts),
        "distinct_verdicts": len(verdicts),
        "instance_digest": harness.digest(inputs.instance_texts),
    }
    if not trace:
        setup_s = harness.median_probe(root, harness.setup_code(name, seed, root))
        m = harness.measure(verdicts, seconds, spec.min_rounds, spec.min_samples)
        values = metrics.end_to_end(m, spec.best_of_rounds, setup_s,
                                    harness.peak_rss_mb(name))
        units = metrics.END_TO_END_UNITS
        attempted, failures = m.attempted, m.failures
    else:
        import kernel_cases

        untraced = harness.measure(verdicts, 0)
        tracer = Tracer()
        tracer.install(callers=(workloads,))
        try:
            m = harness.measure(verdicts, 0, tracer=tracer)
        finally:
            tracer.uninstall()
        advisory = (1.0 - m.decided / m.attempted) if name == "crosscheck" else 0.0
        values = metrics.per_layer(
            tracer, len(verdicts), untraced.round_sums(scaled=False)[0],
            m.round_sums(scaled=False)[0], advisory,
            kernel_cases.time_cases(), cli_layer(root, tracer) if name == "cli" else {})
        units = metrics.PER_LAYER_UNITS
        attempted = untraced.attempted + m.attempted
        failures = untraced.failures + m.failures
    report["verdict_digest"] = harness.digest(m.digests)
    report.update(harness.summary(m, spec.best_of_rounds))
    report["failed"] = len(failures)
    report["failed_ratio"] = len(failures) / attempted
    report["failures"] = failures[:5]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    return report, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = _source_tree_missing(ROOT)
    if missing:
        print(f"perfbench: {os.path.join(ROOT, missing)} not found; run from a "
              "coarseact source tree", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import coarseact

    src = os.path.join(ROOT, "src", "coarseact")
    if os.path.dirname(os.path.abspath(coarseact.__file__)) != src:
        print(f"perfbench: imported coarseact from {coarseact.__file__}, not {src}",
              file=sys.stderr)
        return 2
    report, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

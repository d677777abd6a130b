"""Tests of the benchmark itself.  Run: python -m pytest perfbench -q"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _declared(kind: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("workload, trace", [
    ("decide", False), ("crosscheck", True), ("algebra", False), ("cli", True),
])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    report, result = run.run_workload(workload, seed=1, seconds=0, trace=trace, limit=2)
    declared = _declared("per_layer" if trace else "end_to_end")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == declared
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert set(report["env"]) >= {"python", "numpy", "nproc", "numba_importable",
                                  "kernel_backend", "git_commit", "seed"}
    assert len(report["instance_digest"]) == len(report["verdict_digest"]) == 64
    json.dumps(report)


def test_nested_self_times_sum_to_the_root_span():
    inst = workloads.flagships()["hyperbola"]
    tracer = Tracer()
    tracer.install(callers=(workloads,))
    try:
        with tracer.span("verdict.root"):
            workloads.classify(inst, workloads.DECIDE_BUDGET)
            workloads.verify_theorem_weak(inst, workloads.DECIDE_BUDGET)
    finally:
        tracer.uninstall()
    root = tracer.stats["verdict.root"]
    nested = [st for key, st in tracer.stats.items() if key != "verdict.root"]
    assert sum(st.calls for st in nested) > 100
    total_self = root.self_s + sum(st.self_s for st in nested)
    assert total_self == pytest.approx(root.incl_s, rel=1e-9, abs=1e-9)
    assert tracer.get("actions.classify").calls == 2  # the weak verifier reruns it


def test_tracer_restores_every_binding_site():
    import coarseact.actions
    import coarseact.coarse

    before = (coarseact.actions.difference_box, coarseact.coarse.box_intersect,
              workloads.classify)
    tracer = Tracer()
    tracer.install(callers=(workloads,))
    assert coarseact.actions.difference_box is not before[0]
    assert workloads.classify is not before[2]
    tracer.uninstall()
    assert (coarseact.actions.difference_box, coarseact.coarse.box_intersect,
            workloads.classify) == before


def test_injected_wrong_answer_is_counted_as_failed(monkeypatch):
    """The criterion-6 transporter fault: one upper end moved out by one."""
    import coarseact.actions as actions_mod
    from coarseact.boxes import Box
    from coarseact.boxes import difference_box as real_diff

    def fault_transporter_end(target, source):
        out = real_diff(target, source)
        if out.empty or out.upper[0] == float("inf"):
            return out
        return Box(out.lower, (out.upper[0] + 1,) + out.upper[1:])

    monkeypatch.setattr(actions_mod, "difference_box", fault_transporter_end)
    # the first five crosscheck verdicts are the shift flagship's primitives
    report, result = run.run_workload("crosscheck", seed=1, seconds=0, trace=False,
                                      limit=5)
    assert result["failed"] >= 1
    assert report["failed_ratio"] == result["failed"] / result["attempted"] > 0
    assert result["metrics"]["correct_ratio"]["value"] < 1.0
    assert not result["correct"]
    assert any("mismatch" in why for _, why in report["failures"])


def test_refuses_to_run_without_a_source_tree(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "decide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_quantile_is_the_harrell_davis_estimate():
    import metrics

    assert metrics.quantile([0.25] * 40, 0.9) == pytest.approx(0.25)
    assert metrics.quantile(list(range(1, 102)), 0.5) == pytest.approx(51.0)
    xs = [1.0] * 50 + [2.0] * 50  # a gap at the median: the estimate sits in it
    assert 1.0 < metrics.quantile(xs, 0.5) < 2.0
    assert metrics.quantile(xs, 0.1) < metrics.quantile(xs, 0.5) < metrics.quantile(xs, 0.9)

"""Metric names, units and how each is computed.

End-to-end metrics come from an untraced run, with verdict times scaled to
nominal host speed (see harness.py; the report line holds the raw ones).
``verdict_s.p50`` and ``verdict_s.p90`` are Harrell-Davis quantiles over each
verdict's fastest time in the run (for ``cli``, over every timed invocation);
``verdicts_per_s`` is the fastest whole round's verdicts over its seconds of
verdict work.  Per-layer times are raw.

Per-layer metrics come from a separate traced run of one round, next to an
untraced round over the same verdicts; the difference of the two is the
tracing overhead.  Each per-layer metric is reported on every workload (0
where the layer does no such work), so that a change which moves it where it
should not shows.
"""

from __future__ import annotations

import numpy as np

END_TO_END_UNITS = {
    "verdict_s.p50": "s",
    "verdict_s.p90": "s",
    "verdicts_per_s": "1/s",
    "decided_ratio": "ratio",
    "correct_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

CHECKS = ("transporter", "entourage", "neighborhood", "compose", "bounded", "closure")
SWEEPS = ("transporter_sweep", "orbit_pair_sweep", "orbit_compose_sweep")


def _unit(name: str) -> str:
    last = name.rsplit(".", 1)[1]
    if last == "s" or last.endswith("_s"):
        return "s"
    if last.endswith("_ratio") or last == "layer_self_share":
        return "ratio"
    if last == "calls_per_verdict":
        return "1/verdict"
    if last == "bytes_computed":
        return "B"
    return "count"


PER_LAYER_NAMES = (
    ["boxes.self_s", "boxes.calls", "boxes.points_enumerated",
     "bornology.self_s", "bornology.is_bounded.calls",
     "bornology.is_bounded.inconclusive_ratio",
     "actions.self_s", "actions.classify.calls_per_verdict",
     "actions.coset_sample_points.s", "actions.covering_residues.s",
     "actions.lattice_box_feasible.calls", "actions.lattice_box_feasible.undecided_ratio",
     "actions.transporter_bounded.calls",
     "coarse.self_s", "coarse.entourage_membership.calls",
     "coarse.entourage_membership.undecided_ratio", "coarse.neighborhood.calls",
     "coarse.neighborhood.inexact_ratio", "coarse.structure_leq.s",
     "coarse.close_finite_base.s",
     "associated.self_s", "associated.verify_theorem_weak.s",
     "associated.verify_theorem_main.s", "associated.verify_lemma_neighborhood.s",
     "associated.verify_lemma_algebra.s",
     "associated.associated_structure.calls_per_verdict",
     "oracle.self_s"]
    + [f"oracle.check.{c}.s" for c in CHECKS]
    + ["oracle.oracle_neighborhood.s", "oracle.oracle_transporter.s",
       "oracle.naive_closure.s", "oracle.advisory_ratio",
       "kernels.self_s"]
    + [f"kernels.{k}.{m}" for k in SWEEPS
       for m in ("calls", "self_s", "cells", "bytes_computed", "fixed_case_s")]
    + ["cli.self_s", "cli.interpreter_s", "cli.import_numpy_s", "cli.parse_s",
       "cli.command_s",
       "trace.untraced_wall_s", "trace.traced_wall_s", "trace.overhead_s",
       "trace.layer_self_share"]
)
PER_LAYER_UNITS = {name: _unit(name) for name in PER_LAYER_NAMES}


def quantile(xs, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted average of all
    order statistics.  Verdict times cluster by stratum with gaps between the
    clusters; a single order statistic jumps across a gap when one verdict
    moves, this estimate moves by that verdict's weight."""
    x = np.sort(np.asarray(xs, dtype=float))
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    grid = np.linspace(0.0, 1.0, 64 * n + 1)[1:-1]
    logpdf = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
    pdf = np.exp(logpdf - logpdf.max())
    cdf = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2)))
    edges = np.interp(np.arange(n + 1) / n, grid, cdf / cdf[-1])
    return float(np.dot(np.diff(edges), x))


def end_to_end(m, best_of_rounds: bool, setup_s: float, peak_rss_mb: float) -> dict:
    s = m.samples(best_of_rounds)
    return {
        "verdict_s.p50": quantile(s, 0.5),
        "verdict_s.p90": quantile(s, 0.9),
        # the fastest whole round, for the same reason as best_of_rounds
        "verdicts_per_s": max(len(m.times) / w for w in m.round_sums()),
        "decided_ratio": m.decided / m.attempted,
        # the share of verdicts that are right: failed_ratio is 0 when the
        # engine is correct, and a metric that reads 0 has no relative bound
        "correct_ratio": 1.0 - len(m.failures) / m.attempted,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer(tr, n_verdicts: int, untraced_wall: float, traced_wall: float,
              advisory_ratio: float, fixed_cases: dict, cli: dict) -> dict:
    """``tr`` is the uninstalled Tracer of the traced round."""
    g = tr.get
    own = tr.layer_self()
    out = {
        "boxes.self_s": own["boxes"],
        "boxes.calls": tr.layer_calls("boxes"),
        "boxes.points_enumerated": tr.points,
        "bornology.self_s": own["bornology"],
        "bornology.is_bounded.calls": g("bornology.is_bounded").calls,
        "bornology.is_bounded.inconclusive_ratio": _ratio(
            g("bornology.is_bounded").events, g("bornology.is_bounded").calls),
        "actions.self_s": own["actions"],
        "actions.classify.calls_per_verdict": g("actions.classify").calls / n_verdicts,
        "actions.coset_sample_points.s": g("actions.coset_sample_points").incl_s,
        "actions.covering_residues.s": g("actions.covering_residues").incl_s,
        "actions.lattice_box_feasible.calls": g("actions.lattice_box_feasible").calls,
        "actions.lattice_box_feasible.undecided_ratio": _ratio(
            g("actions.lattice_box_feasible").events, g("actions.lattice_box_feasible").calls),
        "actions.transporter_bounded.calls": g("actions.transporter_bounded").calls,
        "coarse.self_s": own["coarse"],
        "coarse.entourage_membership.calls": g("coarse.entourage_membership").calls,
        "coarse.entourage_membership.undecided_ratio": _ratio(
            g("coarse.entourage_membership").events, g("coarse.entourage_membership").calls),
        "coarse.neighborhood.calls": g("coarse.neighborhood").calls,
        "coarse.neighborhood.inexact_ratio": _ratio(
            g("coarse.neighborhood").events, g("coarse.neighborhood").calls),
        "coarse.structure_leq.s": g("coarse.structure_leq").incl_s,
        "coarse.close_finite_base.s": g("coarse.close_finite_base").incl_s,
        "associated.self_s": own["associated"],
        "associated.verify_theorem_weak.s": g("associated.verify_theorem_weak").incl_s,
        "associated.verify_theorem_main.s": g("associated.verify_theorem_main").incl_s,
        "associated.verify_lemma_neighborhood.s":
            g("associated.verify_lemma_neighborhood").incl_s,
        "associated.verify_lemma_algebra.s": g("associated.verify_lemma_algebra").incl_s,
        "associated.associated_structure.calls_per_verdict":
            g("associated.associated_structure").calls / n_verdicts,
        "oracle.self_s": own["oracle"],
        "oracle.oracle_neighborhood.s": g("oracle.oracle_neighborhood").incl_s,
        "oracle.oracle_transporter.s": g("oracle.oracle_transporter").incl_s,
        "oracle.naive_closure.s": g("oracle.naive_closure").incl_s,
        "oracle.advisory_ratio": advisory_ratio,
        "kernels.self_s": own["kernels"],
        "cli.self_s": own["cli"],
        "trace.untraced_wall_s": untraced_wall,
        "trace.traced_wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.layer_self_share": sum(own.values()) / traced_wall,
    }
    for c in CHECKS:
        out[f"oracle.check.{c}.s"] = g(f"verdict.check.{c}").incl_s
    for k in SWEEPS:
        st = g(f"kernels.{k}")
        out[f"kernels.{k}.calls"] = st.calls
        out[f"kernels.{k}.self_s"] = st.self_s
        out[f"kernels.{k}.cells"] = st.cells
        out[f"kernels.{k}.bytes_computed"] = st.nbytes
        out[f"kernels.{k}.fixed_case_s"] = fixed_cases[k]
    for key in ("interpreter_s", "import_numpy_s", "parse_s", "command_s"):
        out[f"cli.{key}"] = cli.get(key, 0.0)
    return {name: out[name] for name in PER_LAYER_NAMES}

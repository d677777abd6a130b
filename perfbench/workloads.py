"""The four benchmark workloads and their unit of work, one *verdict*.

Random instances come from ``oracle.random_instance``, drawn per stratum: the
profile, the lattice dimension or finite label count, and for some strata
whether the space chain's levels are bounded boxes.  Each stratum has a pool,
its first instances in ``random_instance`` seed order, and the benchmark seed
draws a fixed quota from every pool.  Verdict times span four orders of
magnitude and cluster by stratum, so a free random mix moves the median, the
p90 and the throughput from seed to seed by more than any change worth
measuring.  Fixed quotas keep every cluster the same size; where a few
verdicts outweigh the rest, quota equals pool, and the seed varies only the
lighter strata.

Each verdict has a ``run`` step, which is timed, and a ``judge`` step, which is
not: it checks the answer against what is known to be right, decides whether
the verdict was decided, and renders a stable digest of the answer.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

from coarseact.actions import (
    ActionInstance,
    TranslationRule,
    classify,
    lattice_group,
)
from coarseact.associated import (
    associated_structure,
    base_property_check,
    induced_recovery_check,
    verify_lemma_algebra,
    verify_lemma_neighborhood,
    verify_theorem_main,
    verify_theorem_transitive,
    verify_theorem_weak,
)
from coarseact.bornology import (
    AFF_NEG_INF,
    affine,
    chain_bornology,
    cubes_chain,
    level_box,
    maximal_bornology,
)
from coarseact.boxes import NEG_INF, FinitePoints, GroundSpace, UnsupportedVariant, box_set
from coarseact.cli import ParsedInstance, parse_instance, serialize_instance
from coarseact.coarse import (
    associated_connected_structure,
    coarsely_bounded,
    group_right_structure,
    metric_ball_structure,
    structures_equivalent,
)
from coarseact.oracle import cross_check, random_instance
from coarseact.verdicts import Budget
from tracer import TRACE_MARKER

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

DECIDE_BUDGET = Budget(window=64, max_index=8)
ALGEBRA_BUDGET = Budget(window=32, max_index=8)
CROSSCHECK_WINDOW = 32
CLI_TIMEOUT_S = 120


@dataclass(frozen=True)
class Outcome:
    decided: bool
    failure: str | None  # why the answer is wrong; None when it is right
    digest: str  # status plus a stable rendering of the witness


@dataclass
class Verdict:
    name: str
    run: Callable[[], object]
    judge: Callable[[object], Outcome]
    kind: str = "verdict"  # label of the verdict's root span in the traced run
    run_traced: Callable | None = None  # takes a Tracer; replaces run when tracing


@dataclass
class Inputs:
    verdicts: list
    instance_texts: list  # what the instance-set digest is taken over


# --- stable rendering ------------------------------------------------------------

_ADDRESS = re.compile(r" at 0x[0-9a-f]+")


def stable_repr(obj) -> str:
    """repr with sets and dicts sorted and object addresses removed."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        inner = ", ".join(f"{f.name}={stable_repr(getattr(obj, f.name))}"
                          for f in dataclasses.fields(obj))
        return f"{type(obj).__name__}({inner})"
    if isinstance(obj, dict):
        items = sorted(f"{stable_repr(k)}: {stable_repr(v)}" for k, v in obj.items())
        return "{" + ", ".join(items) + "}"
    if isinstance(obj, (set, frozenset)):
        return "{" + ", ".join(sorted(stable_repr(x) for x in obj)) + "}"
    if isinstance(obj, (list, tuple)):
        return "(" + ", ".join(stable_repr(x) for x in obj) + ")"
    return _ADDRESS.sub("", repr(obj))


def instance_text(inst: ActionInstance, parsed: ParsedInstance | None = None) -> str:
    return f"# {inst.name}\n" + serialize_instance(parsed or ParsedInstance(inst))


# --- instances ---------------------------------------------------------------------

Z = GroundSpace.lattice(1)
Z2 = GroundSpace.lattice(2)


def flagships() -> dict:
    """The five flagship instances of acceptance criterion 1."""
    cubes = cubes_chain(Z)
    quadrants = chain_bornology(Z2, [(AFF_NEG_INF, affine(1, 0))] * 2)
    return {
        "shift": ActionInstance("shift", lattice_group(1, cubes), Z,
                                TranslationRule(((1,),)), cubes),
        "hyperbola": ActionInstance("hyperbola", lattice_group(1, cubes), Z2,
                                    TranslationRule(((1,), (-1,))), quadrants),
        "trivial": ActionInstance("trivial", lattice_group(1, cubes), Z,
                                  TranslationRule(((0,),)), cubes),
        "shift_maximal_space": ActionInstance(
            "shift_maximal_space", lattice_group(1, cubes), Z,
            TranslationRule(((1,),)), maximal_bornology(Z)),
        "trivial_maximal_group": ActionInstance(
            "trivial_maximal_group", lattice_group(1, maximal_bornology(Z)), Z,
            TranslationRule(((0,),)), cubes),
    }


def first_coordinate_shift() -> ActionInstance:
    return ActionInstance("first_coordinate_shift", lattice_group(1, cubes_chain(Z)),
                          Z2, TranslationRule(((1,), (0,))), cubes_chain(Z2))


# criterion 1: the flag matrix the flagships must reproduce
FLAGSHIP_FLAGS = {
    "shift": {"b_proper": True, "weakly_b_proper": True, "bi": True},
    "hyperbola": {"b_proper": False, "weakly_b_proper": True, "bi": True},
    "trivial": {"bi": False},
    "shift_maximal_space": {"weakly_b_proper": False},
    "trivial_maximal_group": {"b_proper": True},
}


def in_stratum(inst: ActionInstance, key) -> bool:
    """``key`` is None (any instance), a size (lattice dimension or finite label
    count), or (size, bounded): bounded when level 0 of the space chain is a
    bounded box, which makes orbit-pair neighborhoods finite and exact."""
    size = inst.space.dim if inst.space.is_lattice else len(inst.space.labels)
    if key is None:
        return True
    if isinstance(key, int):
        return size == key
    sb = inst.space_bornology
    bounded = sb.kind == "chain" and level_box(sb, 0).is_bounded()
    return (size, bounded) == key


def draw_instances(strata, seed: int, tag: str) -> list:
    """Seeded draw of ``quota`` instances from the ``pool`` first instances of
    each (profile, key) stratum (see ``in_stratum``)."""
    rng = random.Random(f"{tag}|{seed}")
    out = []
    for profile, key, quota, pool_size in strata:
        pool = []
        s = 0
        while len(pool) < pool_size:
            s += 1
            if s > 100_000:
                raise RuntimeError(f"stratum {profile}/{key} never fills")
            inst = random_instance(s, profile)
            if in_stratum(inst, key):
                pool.append(inst)
        picked = sorted(rng.sample(range(pool_size), quota))
        out += [pool[i] for i in picked]
    return out


def fixture_paths(root: str) -> list:
    d = os.path.join(root, "fixtures")
    return sorted(os.path.join(d, f) for f in os.listdir(d) if f.endswith(".instance"))


def fixture_name(path: str) -> str:
    return os.path.basename(path).rsplit(".", 1)[0]


# --- decide --------------------------------------------------------------------------

DECIDE_STRATA = (
    # (profile, key, quota, pool)
    ("finite", None, 6, 7),
    ("lattice-k1", 1, 6, 7),
    ("lattice-k1", 2, 32, 33),
    ("lattice-k1", 3, 32, 33),
    ("lattice-k2", 1, 4, 5),
    ("lattice-k2", 2, 6, 7),
    ("lattice-k2", 3, 5, 5),
)
MALFORMED_FIXTURES = ("malformed_chain",)


def _decide_run(inst, candidates):
    def run():
        try:
            cls = classify(inst, DECIDE_BUDGET)
        except UnsupportedVariant as exc:  # the engine's documented inconclusive route
            return ("unsupported", str(exc))
        weak = verify_theorem_weak(inst, DECIDE_BUDGET)
        main = verify_theorem_main(inst, candidates, DECIDE_BUDGET)
        return cls, weak, main

    return run


def _decide_judge(flags_expected: dict, expect: dict):
    def judge(result) -> Outcome:
        if result[0] == "unsupported":
            return Outcome(False, None, stable_repr(result))
        cls, weak, main = result
        statuses = [cls.b_proper.status, cls.weakly_b_proper.status, cls.bi.status,
                    weak.status, main.status]
        digest = stable_repr((cls.b_proper, cls.weakly_b_proper, cls.bi,
                              weak.status, weak.conditions, main.status, main.conditions))
        failure = None
        flags = cls.flags()
        for key, want in flags_expected.items():
            if flags[key] != want:
                failure = f"flag {key} is {flags[key]}, expected {want}"
        for which, report in (("weak", weak), ("main", main)):
            want = expect.get(f"theorem_{which}")
            if want is not None and report.status != want:
                failure = f"theorem {which} is {report.status}, expected {want}"
            elif want is None and report.status == "refuted":
                failure = f"theorem {which} refuted"
        want = expect.get("classify")
        if want is not None:
            got = "b_proper" if cls.b_proper.confirmed else "not_b_proper"
            if got != want:
                failure = f"classify is {got}, expected {want}"
        return Outcome("inconclusive" not in statuses, failure, digest)

    return judge


def build_decide(seed: int, root: str) -> Inputs:
    verdicts, texts = [], []

    def add(inst, candidates=(), flags=None, expect=None, parsed=None):
        verdicts.append(Verdict(inst.name, _decide_run(inst, candidates),
                                _decide_judge(flags or {}, expect or {})))
        texts.append(instance_text(inst, parsed))

    for name, inst in flagships().items():
        add(inst, flags=FLAGSHIP_FLAGS[name])
    for path in fixture_paths(root):
        if fixture_name(path) in MALFORMED_FIXTURES:
            continue
        parsed = parse_instance(path)
        add(parsed.action, parsed.candidates, expect=parsed.expect, parsed=parsed)
    for inst in draw_instances(DECIDE_STRATA, seed, "decide"):
        add(inst)
    return Inputs(verdicts, texts)


# --- crosscheck ----------------------------------------------------------------------

CROSSCHECK_STRATA = (
    ("finite", 3, 1, 1),
    ("finite", 4, 1, 1),  # four labels: the largest naive closure
    ("lattice-k1", 1, 5, 6),
    ("lattice-k1", 2, 5, 6),
    ("lattice-k1", 3, 3, 3),
    ("lattice-k2", 1, 1, 1),
    ("lattice-k2", (2, True), 1, 1),  # exact neighborhoods: the oracle sweeps
    ("lattice-k2", (3, False), 1, 1),
)
LATTICE_PRIMITIVES = ("transporter", "entourage", "neighborhood", "compose", "bounded")
FINITE_PRIMITIVES = ("transporter", "entourage", "neighborhood", "compose", "closure")


def crosscheck_primitives(inst: ActionInstance) -> tuple:
    """``closure`` does no work on lattices, ``bounded`` none on finite spaces."""
    return LATTICE_PRIMITIVES if inst.space.is_lattice else FINITE_PRIMITIVES


def _crosscheck_judge(result) -> Outcome:
    (report,) = result
    digest = stable_repr((report.primitive, report.instance, report.mismatches,
                          report.advisory))
    failure = None if report.passed else f"{len(report.mismatches)} oracle mismatches"
    return Outcome(not report.advisory, failure, digest)


def crosscheck_verdict(inst: ActionInstance, primitive: str) -> Verdict:
    return Verdict(
        f"{inst.name}.{primitive}",
        lambda: cross_check([inst], primitives=(primitive,), window=CROSSCHECK_WINDOW),
        _crosscheck_judge,
        kind=f"check.{primitive}",
    )


def build_crosscheck(seed: int, root: str) -> Inputs:
    instances = list(flagships().values()) + draw_instances(CROSSCHECK_STRATA, seed,
                                                             "crosscheck")
    verdicts = [crosscheck_verdict(inst, p)
                for inst in instances for p in crosscheck_primitives(inst)]
    return Inputs(verdicts, [instance_text(inst) for inst in instances])


# --- algebra -------------------------------------------------------------------------

ALGEBRA_STRATA = (
    ("lattice-k1", 1, 24, 26),
    ("lattice-k1", 2, 24, 26),
    ("lattice-k1", 3, 24, 26),
    ("finite", None, 20, 22),
)


def _lemma_triple(inst, rng):
    """Criterion-8-style (B, B', x): small boxes near the origin, or label sets."""
    if not inst.space.is_lattice:
        labels = inst.space.labels
        b = FinitePoints(frozenset(rng.sample(labels, rng.randint(1, len(labels)))))
        b2 = FinitePoints(frozenset(rng.sample(labels, rng.randint(1, len(labels)))))
        return b, b2, rng.choice(labels)
    d = inst.space.dim
    lo = tuple(rng.randint(-4, 2) for _ in range(d))
    b = box_set(*((v, v + rng.randint(0, 3)) for v in lo))
    lo2 = tuple(rng.randint(-4, 2) for _ in range(d))
    b2 = box_set(*((v, v + rng.randint(0, 3)) for v in lo2))
    return b, b2, tuple(rng.randint(-5, 5) for _ in range(d))


def _lemma_judge(result) -> Outcome:
    statuses = [v.status for v in result]
    failure = None
    if any(s == "refuted" for s in statuses):
        failure = f"lemma refuted: {statuses}"
    return Outcome(all(s != "inconclusive" for s in statuses), failure,
                   stable_repr(result))


def _lemma_verdict(inst, b, b2, x) -> Verdict:
    return Verdict(
        f"lemma.{inst.name}",
        lambda: (verify_lemma_neighborhood(inst, b, x, ALGEBRA_BUDGET),
                 verify_lemma_algebra(inst, b, b2, ALGEBRA_BUDGET)),
        _lemma_judge,
    )


def _identity_verdict(name, run, expected: tuple) -> Verdict:
    """``run`` returns (Verdicts, error): the statuses must equal ``expected``
    and ``error``, from a witness test made in ``run``, must be None."""

    def judge(result) -> Outcome:
        verdicts, extra = result
        statuses = tuple(v.status for v in verdicts)
        failure = None
        if statuses != expected:
            failure = f"statuses {statuses}, expected {expected}"
        elif extra:
            failure = extra
        return Outcome(all(s != "inconclusive" for s in statuses), failure,
                       stable_repr(verdicts))

    return Verdict(name, run, judge)


def _hyperbola_family_error(v) -> str | None:
    """Criterion 3: the refutation family is x=(2m+1, -2m-1), y=(0, -4m-2), z=0."""
    if not v.refuted:
        return None
    family = {w["m"]: w for w in v.witness["family"]}
    for m in range(9):
        w = family.get(m)
        want = ((2 * m + 1, -2 * m - 1), (0, -4 * m - 2), (0, 0))
        if w is None or (w["x"], w["y"], w["z"]) != want:
            return f"base-property witness for m={m} is {w!r}"
    return None


TRANSITIVE_CONDITIONS = ("coarsely_transitive", "equi_controlled", "inclusion",
                         "reverse_inclusion")


def identity_verdicts() -> list:
    """The criterion-3/4/5 structure identities, one verdict each."""
    f = flagships()
    shift, hyperbola, trivmax = f["shift"], f["hyperbola"], f["trivial_maximal_group"]
    fcs = first_coordinate_shift()
    b = DECIDE_BUDGET

    def base_property():
        v = base_property_check(hyperbola, b)
        return (v,), _hyperbola_family_error(v)

    def equivalent(inst, other):
        return lambda: ((structures_equivalent(associated_structure(inst, b), other(), b),),
                        None)

    def transitive(inst, space):
        def run():
            r = verify_theorem_transitive(inst, metric_ball_structure(space), b)
            ct = r.conditions.get("coarsely_transitive")
            error = None
            if ct is not None and ct.refuted and ct.witness.get("direction") is None:
                error = "coarse-transitivity refutation has no direction"
            return tuple(r.conditions[c] for c in TRANSITIVE_CONDITIONS if c in r.conditions), error

        return run

    def recovery(inst):
        def run():
            v = induced_recovery_check(inst, b)
            assoc = associated_structure(inst, b)
            probes = []
            for n in (0, 2, 5):
                lvl = level_box(inst.space_bornology, n)
                cb = coarsely_bounded(assoc, box_set(*zip(lvl.lower, lvl.upper)), b)
                probes.append(cb.outcome)
            escape = coarsely_bounded(assoc, box_set((NEG_INF, 0)), b).outcome
            want = ["bounded"] * 3 + ["unbounded"]
            error = None if probes + [escape] == want else f"probes {probes + [escape]}"
            return (v,), error

        return run

    return [
        _identity_verdict("c3.base_property.hyperbola", base_property, ("refuted",)),
        _identity_verdict("c4.shift.metric_ball",
                          equivalent(shift, lambda: metric_ball_structure(Z)), ("confirmed",)),
        _identity_verdict("c4.shift.group_right",
                          equivalent(shift, lambda: group_right_structure(shift.group)),
                          ("confirmed",)),
        _identity_verdict("c4.trivial_maximal_group.connected",
                          equivalent(trivmax,
                                     lambda: associated_connected_structure(cubes_chain(Z))),
                          ("confirmed",)),
        _identity_verdict("c4.transitive.shift", transitive(shift, Z), ("confirmed",) * 4),
        _identity_verdict("c4.transitive.first_coordinate_shift", transitive(fcs, Z2),
                          ("refuted", "confirmed", "confirmed", "not_applicable")),
        _identity_verdict("c5.recovery.shift", recovery(shift), ("confirmed",)),
        _identity_verdict("c5.recovery.trivial_maximal_group", recovery(trivmax),
                          ("confirmed",)),
    ]


def build_algebra(seed: int, root: str) -> Inputs:
    rng = random.Random(f"algebra-sets|{seed}")
    verdicts, texts = [], []
    for inst in draw_instances(ALGEBRA_STRATA, seed, "algebra"):
        b, b2, x = _lemma_triple(inst, rng)
        verdicts.append(_lemma_verdict(inst, b, b2, x))
        texts.append(instance_text(inst) + stable_repr((b, b2, x)) + "\n")
    for v in identity_verdicts():
        verdicts.append(v)
        texts.append(v.name + "\n")
    return Inputs(verdicts, texts)


# --- cli -----------------------------------------------------------------------------

CLI_COMMANDS = (("axioms",), ("classify",), ("theorem", "weak"), ("theorem", "main"))
CLOSURE_FIXTURES = ("cyclic_rotation",)


def expected_exit(fixture: str, command: tuple) -> int:
    """3 for the malformed fixture; 2 where the affine fixture routes through
    the window oracle only (classify and theorems); 0 otherwise."""
    if fixture in MALFORMED_FIXTURES:
        return 3
    if fixture == "reflect_shift" and command[0] in ("classify", "theorem"):
        return 2
    return 0


def child_env(root: str) -> dict:
    """Environment for a child interpreter: the tree's ``src`` first on the path,
    and a fixed hash seed, because the CLI's machine output is digested."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def cli_argvs(root: str, seed: int) -> list:
    """(fixture, command argv) for every invocation, in seeded order."""
    calls = []
    for path in fixture_paths(root):
        name = fixture_name(path)
        rel = os.path.relpath(path, root)
        for cmd in CLI_COMMANDS:
            calls.append((name, cmd, [*cmd, rel, "--format", "machine"]))
        if name in CLOSURE_FIXTURES:
            calls.append((name, ("closure",), ["closure", rel, "--format", "machine"]))
    random.Random(f"cli|{seed}").shuffle(calls)
    return calls


def run_cli(root: str, argv: list, prefix=("-m", "coarseact.cli")):
    return subprocess.run([sys.executable, *prefix, *argv], cwd=root, env=child_env(root),
                          capture_output=True, text=True, timeout=CLI_TIMEOUT_S)


def run_cli_traced(root: str, argv: list, tracer):
    """The same command through ``cli_child.py``, which runs it with the
    tracer installed and reports its spans on a marked stderr line."""
    proc = run_cli(root, argv, prefix=(os.path.join(BENCH_DIR, "cli_child.py"),))
    kept = []
    for line in proc.stderr.splitlines(keepends=True):
        if line.startswith(TRACE_MARKER):
            tracer.merge(json.loads(line[len(TRACE_MARKER):]))
        else:
            kept.append(line)
    proc.stderr = "".join(kept)
    return proc


def _cli_judge(fixture: str, command: tuple):
    want = expected_exit(fixture, command)

    def judge(proc) -> Outcome:
        failure = None
        if "Traceback (most recent call last)" in proc.stderr:
            failure = "traceback"
        elif proc.returncode != want:
            failure = f"exit {proc.returncode}, expected {want}"
        return Outcome(proc.returncode != 2, failure,
                       f"exit={proc.returncode}\n{proc.stdout}")

    return judge


def build_cli(seed: int, root: str) -> Inputs:
    verdicts = []
    for fixture, command, argv in cli_argvs(root, seed):
        verdicts.append(Verdict(
            " ".join((fixture, *command)),
            lambda argv=argv: run_cli(root, argv),
            _cli_judge(fixture, command),
            run_traced=lambda tracer, argv=argv: run_cli_traced(root, argv, tracer),
        ))
    texts = []
    for path in fixture_paths(root):
        with open(path, encoding="utf-8") as fh:
            texts.append(f"# {fixture_name(path)}\n{fh.read()}")
    texts += [v.name for v in verdicts]
    return Inputs(verdicts, texts)


BUILDERS = {
    "decide": build_decide,
    "crosscheck": build_crosscheck,
    "algebra": build_algebra,
    "cli": build_cli,
}

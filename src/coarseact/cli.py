"""Instance files, command dispatch, and report emission.

The instance format is a bracketed-section text file; keys are lowercase
tokens, values are integers, signed integer tuples, the tokens inf/-inf, or
affine index expressions a*m+b.  Unknown keys are parse errors.  Exit codes:
0 pass/Confirmed, 1 refuted, 2 inconclusive at budget, 3 usage/parse error.
"""

from __future__ import annotations

import argparse
import itertools
import re
import sys
import time
from dataclasses import dataclass, field

from .boxes import FinitePoints, GeometryError, GroundSpace, UnsupportedVariant
from .bornology import (
    AFF_NEG_INF,
    AFF_POS_INF,
    AffineEnd,
    BornologySpec,
    bornology_axiom_check,
    chain_bornology,
    finite_base_bornology,
    level_box,
    maximal_bornology,
)
from .actions import (
    ActionInstance,
    AffineRule,
    PermutationRule,
    TranslationRule,
    action_bornological_check,
    action_homomorphism_check,
    classify,
    finite_group,
    group_bornological_check,
    group_table_check,
    is_signed_permutation,
    lattice_group,
)
from .verdicts import Budget

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3


class ParseError(ValueError):
    def __init__(self, message, line=None, column=None):
        loc = f" (line {line}, column {column})" if line is not None else ""
        super().__init__(message + loc)
        self.line = line
        self.column = column


_SECTION_RE = re.compile(r"^\[([a-z0-9_.]+)\]$")
_KEY_RE = re.compile(r"^([a-z][a-z0-9_]*)\s*=\s*(.+)$")
_AFFINE_RE = re.compile(r"^(-?\d+)\*m([+-]\d+)$")

_KEYS = {
    "space": {"kind", "dim", "size"},
    "group": {"kind", "rank", "size"} | {f"mul{i}" for i in range(8)},
    "action": {"kind"}
    | {f"row{i}" for i in range(3)}
    | {f"arow{i}" for i in range(3)}
    | {f"perm{i}" for i in range(8)},
    "bornology": {"kind"}
    | {f"lower{i}" for i in range(3)}
    | {f"upper{i}" for i in range(3)}
    | {f"base{i}" for i in range(8)},
    "candidate": {"kind"},
    "expect": {"theorem_weak", "theorem_main", "theorem_transitive", "classify"},
}


@dataclass
class ParsedInstance:
    action: ActionInstance
    candidates: list = field(default_factory=list)  # (name, structure)
    expect: dict = field(default_factory=dict)
    sections: dict = field(default_factory=dict)


def _parse_value(raw: str, line: int, column: int):
    raw = raw.strip()
    if raw == "inf":
        return AFF_POS_INF
    if raw == "-inf":
        return AFF_NEG_INF
    m = _AFFINE_RE.match(raw)
    if m:
        return AffineEnd(int(m.group(1)), int(m.group(2)))
    if raw.startswith("(") and raw.endswith(")"):
        inner = raw[1:-1].strip()
        if not inner:
            return ()
        parts = [p.strip() for p in inner.split(",")]
        try:
            return tuple(int(p) for p in parts if p)
        except ValueError:
            raise ParseError(f"bad tuple value {raw!r}", line, column)
    try:
        return int(raw)
    except ValueError:
        if re.fullmatch(r"[a-z][a-z0-9_]*", raw):
            return raw
        raise ParseError(f"unparseable value {raw!r}", line, column)


def _read_sections(text: str) -> dict:
    sections = {}
    current = None
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        m = _SECTION_RE.match(line.strip())
        if m:
            name = m.group(1)
            if name in sections:
                raise ParseError(f"duplicate section [{name}]", lineno, 1)
            sections[name] = {}
            current = name
            continue
        m = _KEY_RE.match(line.strip())
        if not m:
            raise ParseError(f"unparseable line {line.strip()!r}", lineno, 1)
        if current is None:
            raise ParseError("key before any section", lineno, 1)
        key, raw = m.group(1), m.group(2)
        column = rawline.index("=") + 2
        family = _key_family(current)
        if key not in _KEYS[family]:
            raise ParseError(f"unknown key {key!r} in [{current}]", lineno, 1)
        if key in sections[current]:
            raise ParseError(f"duplicate key {key!r} in [{current}]", lineno, 1)
        sections[current][key] = (_parse_value(raw, lineno, column), lineno)
    return sections


def _key_family(section: str) -> str:
    if section.startswith("bornology."):
        return "bornology"
    if section.startswith("coarse.candidate."):
        return "candidate"
    if section == "expect":
        return "expect"
    if section in ("space", "group", "action"):
        return section
    raise ParseError(f"unknown section [{section}]")


def _get(sections, section, key, default=None, required=False):
    sec = sections.get(section, {})
    if key not in sec:
        if required:
            raise ParseError(f"missing key {key!r} in [{section}]")
        return default
    return sec[key][0]


def _get_int(sections, section, key) -> int:
    value = _get(sections, section, key, required=True)
    if not isinstance(value, int):
        raise ParseError(f"[{section}] {key} must be an integer")
    return value


def _get_row(sections, section, key) -> tuple:
    row = _get(sections, section, key, required=True)
    if isinstance(row, int):
        return (row,)
    if not isinstance(row, tuple):
        raise ParseError(f"[{section}] {key} must be an integer tuple")
    return row


def _parse_space(sections) -> GroundSpace:
    kind = _get(sections, "space", "kind", required=True)
    if kind == "lattice":
        return GroundSpace.lattice(_get_int(sections, "space", "dim"))
    if kind == "finite":
        size = _get_int(sections, "space", "size")
        return GroundSpace.finite(tuple(range(size)))
    raise ParseError(f"unknown space kind {kind!r}")


def _parse_bornology(sections, section, space: GroundSpace) -> BornologySpec:
    kind = _get(sections, section, "kind", required=True)
    if kind == "maximal":
        return maximal_bornology(space)
    if kind == "chain":
        if not space.is_lattice:
            raise ParseError(f"[{section}] chain bornology needs a lattice space")
        shape = []
        for i in range(space.dim):
            lo = _coerce_end(_get(sections, section, f"lower{i}", required=True))
            hi = _coerce_end(_get(sections, section, f"upper{i}", required=True))
            shape.append((lo, hi))
        spec = chain_bornology(space, shape)
        _validate_chain_levels(spec, section)
        return spec
    if kind == "base":
        if space.is_lattice:
            raise ParseError(f"[{section}] finite base needs a finite space")
        base = []
        i = 0
        while True:
            elem = _get(sections, section, f"base{i}")
            if elem is None:
                break
            if not isinstance(elem, tuple):
                elem = (elem,)
            bad = [p for p in elem if p not in space.labels]
            if bad:
                raise ParseError(f"[{section}] base{i} has unknown elements {bad}")
            base.append(FinitePoints(frozenset(elem)))
            i += 1
        if not base:
            raise ParseError(f"[{section}] base bornology needs base0")
        return finite_base_bornology(space, tuple(base))
    raise ParseError(f"unknown bornology kind {kind!r}")


def _coerce_end(v) -> AffineEnd:
    if isinstance(v, AffineEnd):
        return v
    if isinstance(v, int):
        return AffineEnd(0, v)
    raise ParseError(f"bad interval end {v!r}")


def _validate_chain_levels(spec: BornologySpec, section: str):
    # a chain whose upper end dips below its lower end at small m is flagged
    # as the malformed-emptiness case unless it stabilizes to non-empty levels
    for m in (0, 1):
        lvl = level_box(spec, m)
        if lvl.empty and not level_box(spec, m + 8).empty:
            report = bornology_axiom_check(spec)
            if not report.passed:
                raise ParseError(
                    f"[{section}] chain monotonicity/emptiness fails at index {m}"
                )


def parse_instance_text(text: str, name: str = "instance") -> ParsedInstance:
    """Parse and build an instance; a geometry error raised while building it
    (say, ``dim = 0``) is a ParseError like any other invalid value."""
    sections = _read_sections(text)
    try:
        return _build_instance(sections, name)
    except UnsupportedVariant:
        raise
    except GeometryError as exc:
        raise ParseError(f"invalid instance: {exc}") from exc


def _build_instance(sections, name: str) -> ParsedInstance:
    for needed in ("space", "group", "action", "bornology.x", "bornology.l"):
        if needed not in sections:
            raise ParseError(f"missing section [{needed}]")
    space = _parse_space(sections)
    sb = _parse_bornology(sections, "bornology.x", space)

    gkind = _get(sections, "group", "kind", required=True)
    if gkind == "lattice":
        rank = _get_int(sections, "group", "rank")
        gspace = GroundSpace.lattice(rank)
        gb = _parse_bornology(sections, "bornology.l", gspace)
        group = lattice_group(rank, gb)
    elif gkind == "finite":
        size = _get_int(sections, "group", "size")
        mul = []
        for i in range(size):
            row = _get(sections, "group", f"mul{i}", required=True)
            if (not isinstance(row, tuple) or len(row) != size
                    or not all(0 <= j < size for j in row)):
                raise ParseError(f"mul{i} must be a tuple of {size} indices in 0..{size - 1}")
            mul.append(row)
        gspace = GroundSpace.finite(tuple(range(size)))
        gb = _parse_bornology(sections, "bornology.l", gspace)
        group = finite_group(tuple(range(size)), tuple(mul), gb)
    else:
        raise ParseError(f"unknown group kind {gkind!r}")

    akind = _get(sections, "action", "kind", required=True)
    if akind in ("translation", "affine"):
        if not space.is_lattice or gkind != "lattice":
            raise ParseError(f"{akind} actions need lattice space and group")
        rows = []
        for r in range(space.dim):
            row = _get_row(sections, "action", f"row{r}")
            if len(row) != group.rank:
                raise ParseError(f"row{r} must have {group.rank} entries")
            rows.append(row)
        if akind == "translation":
            rule = TranslationRule(tuple(rows))
        else:
            arows = []
            for r in range(space.dim):
                arows.append(_get_row(sections, "action", f"arow{r}"))
            if not is_signed_permutation(tuple(arows)):
                raise ParseError("arow matrix must be a signed permutation")
            rule = AffineRule(tuple(arows), tuple(rows))
    elif akind == "permutation":
        if space.is_lattice or gkind != "finite":
            raise ParseError("permutation actions need finite space and group")
        perms = []
        for i in range(len(group.elements)):
            img = _get(sections, "action", f"perm{i}", required=True)
            if not isinstance(img, tuple) or len(img) != len(space.labels):
                raise ParseError(f"perm{i} must be a tuple of {len(space.labels)} images")
            perms.append(tuple(zip(space.labels, img)))
        rule = PermutationRule(tuple(perms))
    else:
        raise ParseError(f"unknown action kind {akind!r}")

    inst = ActionInstance(name, group, space, rule, sb)
    _semantic_validate(inst)

    candidates = []
    for sec in sorted(sections):
        if not sec.startswith("coarse.candidate."):
            continue
        cname = sec.split(".", 2)[2]
        ckind = _get(sections, sec, "kind", required=True)
        candidates.append((cname, _build_candidate(ckind, inst)))
    expect = {}
    if "expect" in sections:
        expect = {k: v[0] for k, v in sections["expect"].items()}
    return ParsedInstance(inst, candidates, expect, sections)


def _build_candidate(ckind: str, inst: ActionInstance):
    from .coarse import (
        associated_connected_structure,
        group_right_structure,
        metric_ball_structure,
    )

    if ckind == "metric_ball":
        if not inst.space.is_lattice:
            raise ParseError("metric_ball candidates need a lattice space")
        return metric_ball_structure(inst.space)
    if ckind == "group_right":
        cs = group_right_structure(inst.group)
        if cs.space != inst.space:
            raise ParseError("group_right candidates need the group to be the ground space")
        return cs
    if ckind == "connected_pairs":
        return associated_connected_structure(inst.space_bornology)
    raise ParseError(f"unknown candidate kind {ckind!r}")


def _semantic_validate(inst: ActionInstance):
    for label, spec in (("bornology.x", inst.space_bornology),
                        ("bornology.l", inst.group.bornology)):
        report = bornology_axiom_check(spec)
        if not report.passed:
            failing = report.failures()[0]
            raise ParseError(f"[{label}] fails axiom {failing.name!r} "
                             f"(witness {failing.witness!r})")
    table = group_table_check(inst.group)
    if not table.passed:
        raise ParseError(f"group table invalid: {table.failures()[0].name}")
    hom = action_homomorphism_check(inst)
    if not hom.passed:
        raise ParseError(f"action rule invalid: {hom.failures()[0].name}")
    grp = group_bornological_check(inst.group)
    if not grp.passed:
        raise ParseError(f"group is not bornological: {grp.failures()[0].witness!r}")
    act = action_bornological_check(inst)
    if not act.passed:
        raise ParseError(f"action is not bornological: {act.failures()[0].witness!r}")


def parse_instance(path: str) -> ParsedInstance:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    name = path.rsplit("/", 1)[-1].rsplit(".", 1)[0]
    return parse_instance_text(text, name=name)


# --- serialization ------------------------------------------------------------


def serialize_instance(parsed: ParsedInstance) -> str:
    """Canonical text form; parse(serialize(parse(f))) == parse(f)."""
    inst = parsed.action
    out = []
    if inst.space.is_lattice:
        out += ["[space]", "kind = lattice", f"dim = {inst.space.dim}", ""]
    else:
        out += ["[space]", "kind = finite", f"size = {len(inst.space.labels)}", ""]
    if inst.group.is_lattice:
        out += ["[group]", "kind = lattice", f"rank = {inst.group.rank}", ""]
    else:
        out.append("[group]")
        out.append("kind = finite")
        out.append(f"size = {len(inst.group.elements)}")
        for i, row in enumerate(inst.group.mul):
            out.append(f"mul{i} = {_fmt_tuple(row)}")
        out.append("")
    out.append("[action]")
    if inst.is_window_only:
        out.append("kind = affine")
        for r, row in enumerate(inst.rule.point_matrix):
            out.append(f"arow{r} = {_fmt_tuple(row)}")
        for r, row in enumerate(inst.matrix):
            out.append(f"row{r} = {_fmt_tuple(row)}")
    elif inst.is_translation:
        out.append("kind = translation")
        for r, row in enumerate(inst.matrix):
            out.append(f"row{r} = {_fmt_tuple(row)}")
    else:
        out.append("kind = permutation")
        for i, perm in enumerate(inst.rule.perms):
            images = tuple(img for _, img in perm)
            out.append(f"perm{i} = {_fmt_tuple(images)}")
    out.append("")
    out += _fmt_bornology("bornology.x", inst.space_bornology)
    out += _fmt_bornology("bornology.l", inst.group.bornology)
    for name, _ in parsed.candidates:
        kind = _candidate_kind(parsed, name)
        out += [f"[coarse.candidate.{name}]", f"kind = {kind}", ""]
    if parsed.expect:
        out.append("[expect]")
        for k in sorted(parsed.expect):
            out.append(f"{k} = {parsed.expect[k]}")
        out.append("")
    return "\n".join(out).rstrip() + "\n"


def _candidate_kind(parsed: ParsedInstance, name: str) -> str:
    sec = parsed.sections.get(f"coarse.candidate.{name}", {})
    if "kind" in sec:
        return sec["kind"][0]
    return "metric_ball"


def _fmt_tuple(t) -> str:
    return "(" + ", ".join(str(int(x)) for x in t) + ")"


def _fmt_end(e: AffineEnd) -> str:
    if e.inf > 0:
        return "inf"
    if e.inf < 0:
        return "-inf"
    if e.coeff == 0:
        return str(e.offset)
    sign = "+" if e.offset >= 0 else "-"
    return f"{e.coeff}*m{sign}{abs(e.offset)}"


def _fmt_bornology(section: str, spec: BornologySpec) -> list:
    out = [f"[{section}]"]
    if spec.kind == "chain":
        out.append("kind = chain")
        for i, (lo, hi) in enumerate(spec.shape):
            out.append(f"lower{i} = {_fmt_end(lo)}")
            out.append(f"upper{i} = {_fmt_end(hi)}")
    elif spec.base:
        out.append("kind = base")
        for i, elem in enumerate(spec.base):
            out.append(f"base{i} = {_fmt_tuple(tuple(sorted(elem.points)))}")
    else:
        out.append("kind = maximal")
    out.append("")
    return out


# --- reports ------------------------------------------------------------------


def _emit(lines, fmt: str):
    for key, value in lines:
        if fmt == "machine":
            print(f"{key}={value}")
        else:
            print(f"{key:<28} {value}")


def _flatten_verdict(prefix, v):
    rows = [(f"{prefix}.status", v.status)]
    if v.detail:
        rows.append((f"{prefix}.detail", v.detail))
    if v.witness is not None:
        rows.append((f"{prefix}.witness", _stable_repr(v.witness)))
    return rows


def _stable_repr(obj) -> str:
    return repr(obj).replace("\n", " ")


# --- commands -----------------------------------------------------------------


def _cmd_axioms(parsed: ParsedInstance, args) -> int:
    rows = []
    ok = True
    for label, report in (
        ("bornology.x", bornology_axiom_check(parsed.action.space_bornology)),
        ("bornology.l", bornology_axiom_check(parsed.action.group.bornology)),
        ("group", group_bornological_check(parsed.action.group)),
        ("action", action_bornological_check(parsed.action)),
    ):
        for item in report.items:
            rows.append((f"{label}.{item.name}", "pass" if item.passed else
                         f"fail witness={_stable_repr(item.witness)}"))
            ok = ok and item.passed
    _emit(rows, args.format)
    return EXIT_OK if ok else EXIT_REFUTED


def _cmd_classify(parsed: ParsedInstance, args) -> int:
    budget = Budget(window=args.window, max_index=args.max_index)
    cls = classify(parsed.action, budget)
    rows = []
    for name, v in (("b_proper", cls.b_proper),
                    ("weakly_b_proper", cls.weakly_b_proper),
                    ("bi", cls.bi)):
        rows.append((name, "yes" if v.confirmed else "no"))
        if not v.confirmed:
            rows.append((f"{name}.witness", _stable_repr(v.witness)))
    _emit(rows, args.format)
    expected = parsed.expect.get("classify")
    if expected is not None:
        got = "b_proper" if cls.b_proper.confirmed else "not_b_proper"
        if expected not in (got,):
            return EXIT_REFUTED
    return EXIT_OK


def _cmd_theorem(parsed: ParsedInstance, args) -> int:
    from .associated import (
        verify_theorem_main,
        verify_theorem_transitive,
        verify_theorem_weak,
    )

    budget = Budget(window=args.window, max_index=args.max_index)
    which = args.which
    if which == "weak":
        report = verify_theorem_weak(parsed.action, budget)
    elif which == "main":
        report = verify_theorem_main(parsed.action, parsed.candidates, budget)
    else:
        if not parsed.candidates:
            print("theorem transitive needs a [coarse.candidate.*] section",
                  file=sys.stderr)
            return EXIT_USAGE
        report = verify_theorem_transitive(parsed.action, parsed.candidates[0][1], budget)
    rows = [("theorem", report.theorem), ("status", report.status)]
    if report.detail:
        rows.append(("detail", report.detail))
    for name in sorted(report.conditions):
        rows.extend(_flatten_verdict(f"condition.{name}", report.conditions[name]))
    _emit(rows, args.format)
    if report.status == "confirmed":
        return EXIT_OK
    if report.status == "inconclusive":
        return EXIT_INCONCLUSIVE
    expected = parsed.expect.get(f"theorem_{which}")
    if report.status in ("refuted", "not_applicable") and expected == report.status:
        return EXIT_OK
    return EXIT_REFUTED


def _cmd_closure(parsed: ParsedInstance, args) -> int:
    inst = parsed.action
    if inst.space.is_lattice:
        print("closure needs a finite-space instance", file=sys.stderr)
        return EXIT_USAGE
    from .coarse import associated_orbit_structure

    closure = associated_orbit_structure(inst)
    rows = [("maximal_relations", len(closure.maximal))]
    for i, rel in enumerate(closure.maximal):
        rows.append((f"relation{i}", _stable_repr(sorted(rel))))
    _emit(rows, args.format)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(closure_dot(closure))
    return EXIT_OK


def closure_dot(closure) -> str:
    """One node per ground element of a FiniteClosure, one edge per pair per
    maximal relation."""
    lines = ["digraph closure {"]
    for x in closure.space.labels:
        lines.append(f'  "n{x}" [label="{x}"];')
    for i, rel in enumerate(closure.maximal):
        for x, y in sorted(rel, key=lambda p: (str(p[0]), str(p[1]))):
            lines.append(f'  "n{x}" -> "n{y}" [rel={i}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _cmd_crosscheck(parsed_list, args) -> int:
    from .oracle import PRIMITIVES, cross_check

    budget = Budget(window=args.window, max_index=args.max_index)
    rows = []
    bad = 0
    for inst, prim in itertools.product((p.action for p in parsed_list), PRIMITIVES):
        start = time.perf_counter()
        (r,) = cross_check([inst], (prim,), window=min(args.window, 32), budget=budget)
        seconds = time.perf_counter() - start
        status = "pass" if r.passed else f"FAIL({len(r.mismatches)})"
        rows.append((f"{r.instance}.{r.primitive}", status))
        rows.append((f"{r.instance}.{r.primitive}.advisory", len(r.advisory)))
        rows.append((f"{r.instance}.{r.primitive}.seconds", f"{seconds:.6f}"))
        rows += [(f"{r.instance}.{r.primitive}.{side}_seconds", f"{r.seconds[side]:.6f}")
                 for side in ("symbolic", "oracle")]
        bad += 0 if r.passed else 1
        for m in r.mismatches[:2]:
            rows.append((f"{r.instance}.{r.primitive}.mismatch", _stable_repr(m)))
    _emit(rows, args.format)
    return EXIT_OK if bad == 0 else EXIT_REFUTED


def _cmd_random(args) -> int:
    from .oracle import random_instance

    inst = random_instance(args.seed, args.profile)
    parsed = ParsedInstance(inst)
    sys.stdout.write(serialize_instance(parsed))
    return EXIT_OK


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--window", type=_non_negative_int, default=64)
    common.add_argument("--max-index", dest="max_index", type=_non_negative_int, default=8)
    common.add_argument("--format", choices=("text", "machine"), default="text")
    ap = argparse.ArgumentParser(prog="coarseact")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("axioms", parents=[common])
    p.add_argument("file")
    p = sub.add_parser("classify", parents=[common])
    p.add_argument("file")
    p = sub.add_parser("theorem", parents=[common])
    p.add_argument("which", choices=("weak", "main", "transitive"))
    p.add_argument("file")
    p = sub.add_parser("closure", parents=[common])
    p.add_argument("file")
    p.add_argument("--dot")
    p = sub.add_parser("crosscheck", parents=[common])
    p.add_argument("files", nargs="+")
    p = sub.add_parser("random", parents=[common])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--profile", required=True)
    return ap


def run_command(argv) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit:
        return EXIT_USAGE
    try:
        if args.command == "random":
            return _cmd_random(args)
        if args.command == "crosscheck":
            parsed = [parse_instance(f) for f in args.files]
            return _cmd_crosscheck(parsed, args)
        parsed = parse_instance(args.file)
        if args.command == "axioms":
            return _cmd_axioms(parsed, args)
        if args.command == "classify":
            return _cmd_classify(parsed, args)
        if args.command == "theorem":
            return _cmd_theorem(parsed, args)
        if args.command == "closure":
            return _cmd_closure(parsed, args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UnsupportedVariant as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    return EXIT_USAGE


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()

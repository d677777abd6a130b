import contextlib
import io
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarseact.actions import ActionInstance, TranslationRule, lattice_group
from coarseact.bornology import affine, chain_bornology, cubes_chain
from coarseact.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_REFUTED,
    EXIT_USAGE,
    ParsedInstance,
    ParseError,
    parse_instance,
    parse_instance_text,
    run_command,
    serialize_instance,
)

from conftest import Z, budget_slice_instance

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fixture(name):
    return os.path.join(FIXTURES, name)


def run(argv, capsys):
    code = run_command(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParsing:
    def test_shift_fixture(self):
        parsed = parse_instance(fixture("shift.instance"))
        inst = parsed.action
        assert inst.space.dim == 1
        assert inst.matrix == ((1,),)
        assert [name for name, _ in parsed.candidates] == ["metric", "rightinvariant"]

    def test_hyperbola_fixture(self):
        inst = parse_instance(fixture("hyperbola.instance")).action
        assert inst.matrix == ((1,), (-1,))
        lo, hi = inst.space_bornology.shape[0]
        assert lo.inf == -1 and hi.coeff == 1

    def test_round_trip_all_fixtures(self):
        for name in sorted(os.listdir(FIXTURES)):
            if not name.endswith(".instance") or name.startswith("malformed"):
                continue
            p1 = parse_instance(fixture(name))
            text = serialize_instance(p1)
            p2 = parse_instance_text(text, name=p1.action.name)
            assert p2.action == p1.action, name
            assert serialize_instance(p2) == text, name

    def test_malformed_chain_names_the_failure(self):
        with pytest.raises(ParseError) as exc:
            parse_instance(fixture("malformed_chain.instance"))
        assert "index 0" in str(exc.value)

    def test_unknown_key_rejected(self):
        text = "[space]\nkind = lattice\ndim = 1\nwobble = 3\n"
        with pytest.raises(ParseError) as exc:
            parse_instance_text(text)
        assert "wobble" in str(exc.value)
        assert "line 4" in str(exc.value)

    def test_duplicate_key_rejected(self):
        text = "[space]\nkind = lattice\nkind = finite\n"
        with pytest.raises(ParseError):
            parse_instance_text(text)


class TestCommands:
    def test_classify_hyperbola_exit_zero(self, capsys):
        code, out, _ = run(["classify", fixture("hyperbola.instance")], capsys)
        assert code == EXIT_OK
        assert "b_proper" in out and "no" in out

    def test_theorem_main_shift_confirmed(self, capsys):
        code, out, _ = run(
            ["theorem", "main", fixture("shift.instance"), "--format", "machine"],
            capsys,
        )
        assert code == EXIT_OK
        assert "status=confirmed" in out

    def test_theorem_missing_file(self, capsys):
        code, _, err = run(["theorem", "main", fixture("missing.instance")], capsys)
        assert code == EXIT_USAGE
        assert "parse error" in err

    def test_malformed_file_exit(self, capsys):
        code, _, err = run(["axioms", fixture("malformed_chain.instance")], capsys)
        assert code == EXIT_USAGE

    def test_machine_format_stable(self, capsys):
        argv = ["classify", fixture("shift.instance"), "--format", "machine"]
        _, out1, _ = run(argv, capsys)
        _, out2, _ = run(argv, capsys)
        assert out1 == out2

    def test_exit_codes_match_reports(self, capsys):
        # expected refutations declared via [expect] exit 0; surprises exit 1
        code, out, _ = run(
            ["theorem", "weak", fixture("trivial.instance"), "--format", "machine"],
            capsys,
        )
        assert code == EXIT_OK and "status=confirmed" in out

    def test_wrong_expectation_exits_one(self, capsys, tmp_path):
        from coarseact.cli import EXIT_REFUTED

        text = open(fixture("hyperbola.instance")).read()
        text = text.replace("theorem_weak = confirmed", "classify = b_proper")
        text = text.replace("theorem_main = confirmed\n", "")
        f = tmp_path / "wrong.instance"
        f.write_text(text)
        code, _, _ = run(["classify", str(f)], capsys)
        assert code == EXIT_REFUTED

    def test_transitive_needs_candidate(self, capsys):
        code, _, err = run(
            ["theorem", "transitive", fixture("trivial.instance")], capsys
        )
        assert code == EXIT_USAGE

    def test_transitive_not_applicable_exits(self, capsys, tmp_path):
        # the trivial action is not coarsely transitive, so the recovery
        # theorem does not apply; only an expectation of that exits 0
        text = open(fixture("trivial.instance")).read()
        text += "\n[coarse.candidate.m]\nkind = metric_ball\n"
        f = tmp_path / "trivial_candidate.instance"
        f.write_text(text)
        code, out, _ = run(["theorem", "transitive", str(f), "--format", "machine"], capsys)
        assert "\nstatus=not_applicable\n" in out and code == EXIT_REFUTED
        f.write_text(text.replace("[expect]\n", "[expect]\ntheorem_transitive = not_applicable\n"))
        code, _, _ = run(["theorem", "transitive", str(f)], capsys)
        assert code == EXIT_OK

    def test_transitive_with_candidate(self, capsys):
        code, out, _ = run(
            ["theorem", "transitive", fixture("shift.instance"), "--format", "machine"],
            capsys,
        )
        assert code == EXIT_OK
        assert "reverse_inclusion.status=confirmed" in out

    def test_crosscheck_fixture(self, capsys):
        code, out, _ = run(
            ["crosscheck", fixture("shift.instance"), "--window", "12",
             "--format", "machine"],
            capsys,
        )
        assert code == EXIT_OK
        assert "shift.transporter=pass" in out

    def test_crosscheck_times_each_report(self, capsys):
        # seconds, symbolic_seconds and oracle_seconds rows follow each
        # advisory row; output compares without them
        argv = ["crosscheck", fixture("shift.instance"), "--window", "12",
                "--format", "machine"]
        outs = []
        for _ in range(2):
            code, out, _ = run(argv, capsys)
            assert code == EXIT_OK
            lines = out.splitlines()
            timed = [i for i, line in enumerate(lines) if ".seconds=" in line]
            assert len(timed) == 6
            for i in timed:
                assert lines[i - 1].endswith(".advisory=0")
                key = lines[i - 1].split(".advisory=")[0]
                parts = [line.split("=") for line in lines[i:i + 3]]
                assert [k for k, _ in parts] == [f"{key}.seconds", f"{key}.symbolic_seconds",
                                                 f"{key}.oracle_seconds"]
                total, symbolic, oracle = (float(v) for _, v in parts)
                assert min(symbolic, oracle) >= 0 and symbolic + oracle <= total + 1e-5
            outs.append([line for line in lines if "seconds=" not in line])
        assert outs[0] == outs[1]

    def test_crosscheck_counts_advisory_notes(self, capsys, tmp_path):
        # truncated symbolic neighborhoods are advisory: counted, exit code unchanged
        # (seed 2: an unbounded point transporter with a nonzero shift generator)
        _, text, _ = run(["random", "--seed", "2", "--profile", "lattice-k1"], capsys)
        f = tmp_path / "r2.instance"
        f.write_text(text)
        code, out, _ = run(["crosscheck", str(f), "--window", "12", "--format", "machine"],
                           capsys)
        assert code == EXIT_OK
        assert "\nr2.neighborhood=pass\nr2.neighborhood.advisory=3\n" in out
        assert "\nr2.transporter.advisory=0\n" in out

    def test_random_round_trips(self, capsys):
        code, out, _ = run(["random", "--seed", "4", "--profile", "lattice-k1"], capsys)
        assert code == EXIT_OK
        parsed = parse_instance_text(out)
        assert parsed.action.space.is_lattice

    def test_random_repeatable(self, capsys):
        _, out1, _ = run(["random", "--seed", "9", "--profile", "finite"], capsys)
        _, out2, _ = run(["random", "--seed", "9", "--profile", "finite"], capsys)
        assert out1 == out2


class TestInputContract:
    @pytest.mark.parametrize("argv", [
        ["theorem", "main", "shift.instance", "--max-index", "-3"],
        ["classify", "shift.instance", "--window", "-5"],
        ["axioms", "shift.instance", "--window", "ten"],
    ])
    def test_negative_budget_flags_exit_usage(self, argv):
        argv = [fixture(a) if a.endswith(".instance") else a for a in argv]
        proc = subprocess.run(
            [sys.executable, "-m", "coarseact.cli", *argv, "--format", "machine"],
            capture_output=True, text=True,
        )
        assert proc.returncode == EXIT_USAGE
        assert "Traceback" not in proc.stderr
        assert "non-negative integer" in proc.stderr
        assert "status=" not in proc.stdout

    @pytest.mark.parametrize("key", ["dim", "rank"])
    def test_zero_lattice_dimension_exits_usage(self, key, tmp_path):
        # GroundSpace.lattice(0) raises GeometryError while the instance is
        # built; that must be a usage error, not a traceback with exit 1
        with open(fixture("shift.instance"), encoding="utf-8") as fh:
            text = fh.read()
        assert f"\n{key} = 1\n" in text
        bad = tmp_path / f"{key}0.instance"
        bad.write_text(text.replace(f"\n{key} = 1\n", f"\n{key} = 0\n"))
        for argv in (["classify"], ["theorem", "main"]):
            proc = subprocess.run(
                [sys.executable, "-m", "coarseact.cli", *argv, str(bad)],
                capture_output=True, text=True,
            )
            assert proc.returncode == EXIT_USAGE
            assert "Traceback" not in proc.stderr
            assert proc.stderr.strip().splitlines() == [
                "parse error: invalid instance: lattice dimension must be >= 1"
            ]

    @pytest.mark.parametrize("old,new,message", [
        ("dim = 2", "dim = inf", "[space] dim must be an integer"),
        ("dim = 2", "dim = (1,2)", "[space] dim must be an integer"),
        ("rank = 1", "rank = x", "[group] rank must be an integer"),
        ("row0 = (1)", "row0 = 2*m+1", "[action] row0 must be an integer tuple"),
    ])
    def test_scalar_of_wrong_type_exits_usage(self, old, new, message, capsys, tmp_path):
        # a value of the wrong type must be refused before int(...) or len(...)
        bad = tmp_path / "bad.instance"
        bad.write_text(_hyperbola_text().replace(f"\n{old}\n", f"\n{new}\n"))
        for argv in (["axioms"], ["classify"], ["theorem", "main"]):
            code, out, err = run([*argv, str(bad)], capsys)
            assert code == EXIT_USAGE
            assert err.splitlines() == [f"parse error: {message}"]
            assert out == ""

    def test_group_table_index_out_of_range_exits_usage(self, capsys, tmp_path):
        with open(fixture("cyclic_rotation.instance"), encoding="utf-8") as fh:
            text = fh.read()
        bad = tmp_path / "bad.instance"
        bad.write_text(text.replace("mul1 = (1, 2, 0)", "mul1 = (5, 2, 0)"))
        code, _, err = run(["axioms", str(bad)], capsys)
        assert code == EXIT_USAGE
        assert err.splitlines() == ["parse error: mul1 must be a tuple of 3 indices in 0..2"]

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_single_value_mutation_keeps_exit_contract(self, data, tmp_path_factory):
        # replace one value of the hyperbola fixture by any value the
        # grammar accepts; every command must end in an exit code, not raise
        lines = _hyperbola_text().splitlines()
        keyed = [i for i, line in enumerate(lines) if " = " in line and not line.startswith("#")]
        i = data.draw(st.sampled_from(keyed))
        value = data.draw(_VALUES)
        key = lines[i].split(" = ", 1)[0]
        lines[i] = f"{key} = {value}"
        path = tmp_path_factory.mktemp("fuzz") / "mutated.instance"
        path.write_text("\n".join(lines) + "\n")
        argv = data.draw(st.sampled_from(
            [["axioms"], ["classify"], ["theorem", "weak"], ["theorem", "main"]]))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = run_command([*argv, str(path)])
        assert code in (0, 1, 2, 3)


    def test_theorem_main_on_random_rank_two_instance(self, capsys, tmp_path):
        # seed 16 draws point transporters whose rank-2 bounding box is empty
        _, text, _ = run(["random", "--seed", "16", "--profile", "lattice-k2"], capsys)
        f = tmp_path / "r16.instance"
        f.write_text(text)
        proc = subprocess.run([sys.executable, "-m", "coarseact.cli", "theorem", "main", str(f)],
                              capture_output=True, text=True)
        assert proc.returncode == EXIT_OK
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("name", ["cyclic_rotation", "first_coordinate_shift"])
    @pytest.mark.parametrize("ckind", ["metric_ball", "group_right", "connected_pairs"])
    def test_candidate_kinds_keep_exit_contract(self, name, ckind, tmp_path):
        # neither fixture's group is its ground space, so a group_right
        # candidate is a usage error there, not a refutation
        with open(fixture(f"{name}.instance"), encoding="utf-8") as fh:
            text = fh.read()
        cut = min(i for i in (text.find("[coarse.candidate"), text.find("[expect]"), len(text))
                  if i >= 0)
        path = tmp_path / f"{name}.instance"
        path.write_text(f"{text[:cut]}\n[coarse.candidate.c]\nkind = {ckind}\n")
        for which in ("main", "transitive"):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                code = run_command(["theorem", which, str(path)])
            assert code in (0, 1, 2, 3), (which, err.getvalue())
            if ckind == "group_right":
                assert code == EXIT_USAGE and "group_right" in err.getvalue()

    def test_theorem_transitive_is_budget_monotone(self, tmp_path):
        # a larger (window, max_index) may only turn inconclusive into decided:
        # seeded lattice instances whose space chains start as late as level
        # 25, and the shift on a chain whose levels 0..19 are empty
        start = time.perf_counter()
        budgets = (("16", "4"), ("64", "8"), ("128", "40"))
        late = chain_bornology(Z, [(affine(-1, 20), affine(1, -20))])
        instances = [ActionInstance("late", lattice_group(1, cubes_chain(Z)), Z,
                                    TranslationRule(((1,),)), late)]
        instances += filter(None, map(budget_slice_instance, range(40)))
        assert len(instances) > 12
        for a in instances:
            text = serialize_instance(ParsedInstance(a))
            for ckind in ("connected_pairs", "metric_ball"):
                path = tmp_path / f"{a.name}-{ckind}.instance"
                path.write_text(f"{text}\n[coarse.candidate.c]\nkind = {ckind}\n")
                statuses = []
                for window, top in budgets:
                    with contextlib.redirect_stdout(io.StringIO()) as out, \
                            contextlib.redirect_stderr(io.StringIO()):
                        code = run_command(["theorem", "transitive", str(path), "--window",
                                            window, "--max-index", top, "--format", "machine"])
                    assert code in (0, 1, 2, 3), (a.name, ckind, top)
                    rows = [r for r in out.getvalue().splitlines() if r.startswith("status=")]
                    statuses.append(rows[0] if rows else code)
                decided = [s for s in statuses if s != "status=inconclusive"]
                assert decided == statuses[len(statuses) - len(decided):], (a.name, ckind, statuses)
                assert len(set(decided)) <= 1, (a.name, ckind, statuses)
                if a.name == "late" and ckind == "connected_pairs":
                    assert statuses == ["status=refuted"] * 3
        assert time.perf_counter() - start < 5

    def test_random_instances_keep_exit_contract(self, tmp_path):
        # every exact command on random instances of each profile ends in an
        # exit code, and closure answers on finite spaces only; seeds 16, 63,
        # 166 and 428 draw rank-2 cells with no integer point
        start = time.perf_counter()
        for profile in ("finite", "lattice-k1", "lattice-k2"):
            for seed in (*range(1, 9), 16, 63, 166, 428):
                path = tmp_path / f"{profile}-{seed}.instance"
                with contextlib.redirect_stdout(io.StringIO()) as out:
                    assert run_command(["random", "--seed", str(seed),
                                        "--profile", profile]) == EXIT_OK
                path.write_text(out.getvalue())
                for argv in (["axioms"], ["classify"], ["theorem", "weak"],
                             ["theorem", "main"], ["closure"]):
                    with contextlib.redirect_stdout(io.StringIO()), \
                            contextlib.redirect_stderr(io.StringIO()):
                        code = run_command([*argv, str(path)])
                    assert code in (0, 1, 2, 3), (profile, seed, argv)
                    if argv == ["closure"]:
                        assert code == (EXIT_OK if profile == "finite" else EXIT_USAGE)
        assert time.perf_counter() - start < 5


def _hyperbola_text() -> str:
    with open(fixture("hyperbola.instance"), encoding="utf-8") as fh:
        return fh.read()


_SMALL = st.integers(-3, 3)
_VALUES = st.one_of(
    _SMALL.map(str),
    st.sampled_from(["inf", "-inf", "x", "lattice", "finite", "chain", "maximal", "base"]),
    st.lists(_SMALL, max_size=3).map(lambda t: "(" + ", ".join(map(str, t)) + ")"),
    st.tuples(_SMALL, _SMALL).map(lambda ab: f"{ab[0]}*m{ab[1]:+d}"),
)

_NUMPY_PROBE = (
    "import runpy, sys\n"
    "try:\n"
    "    runpy.run_module('coarseact.cli', run_name='__main__', alter_sys=True)\n"
    "finally:\n"
    "    print('numpy loaded' if 'numpy' in sys.modules else 'numpy absent',"
    " file=sys.stderr)\n"
)


_MODULE_PROBE = (
    "import runpy, sys\n"
    "try:\n"
    "    if sys.argv[1:]:\n"
    "        runpy.run_module('coarseact.cli', run_name='__main__', alter_sys=True)\n"
    "    else:\n"
    "        import coarseact\n"
    "finally:\n"
    "    print(' '.join(sorted(m for m in sys.modules if m.startswith('coarseact'))),"
    " file=sys.stderr)\n"
)


def _loaded_modules(argv):
    """(exit code, coarseact modules loaded) of one fresh interpreter that
    runs the CLI on argv, or only imports the package if argv is empty."""
    argv = [fixture(a) if a.endswith(".instance") else a for a in argv]
    proc = subprocess.run([sys.executable, "-c", _MODULE_PROBE, *argv],
                          capture_output=True, text=True)
    return proc.returncode, set(proc.stderr.splitlines()[-1].split())


class TestStartupImports:
    """The exact commands never need numpy; only the oracle, the lattice
    lemma verifiers and rank-1 membership batches import it.  The package
    imports no submodule, and a command loads coarse, associated and oracle
    only when it runs them."""

    def test_package_import_loads_no_submodule(self):
        assert _loaded_modules([]) == (0, {"coarseact"})

    @pytest.mark.parametrize("command", ["axioms", "classify"])
    def test_commands_without_candidates_skip_coarse(self, command):
        code, loaded = _loaded_modules([command, "hyperbola.instance"])
        assert code == EXIT_OK
        # the CLI itself runs as __main__, so it is not listed
        assert loaded == {"coarseact", "coarseact.verdicts", "coarseact.boxes",
                          "coarseact.bornology", "coarseact.actions"}

    @pytest.mark.parametrize("argv", [
        ["theorem", "main", "shift.instance"],  # builds its candidates
        ["closure", "cyclic_rotation.instance"],
    ])
    def test_commands_load_coarse_where_they_run_it(self, argv):
        code, loaded = _loaded_modules(argv)
        assert code == EXIT_OK
        assert "coarseact.coarse" in loaded

    @pytest.mark.parametrize("argv", [
        ["axioms", "hyperbola.instance"],
        ["classify", "hyperbola.instance"],
        ["theorem", "weak", "shift.instance"],
        ["theorem", "main", "hyperbola.instance"],
        # the candidate and minimality path: structure_leq decides it
        # symbolically and asks no membership question (see the scalar probe)
        ["theorem", "main", "shift.instance"],
        ["theorem", "main", "cyclic_rotation.instance"],
        ["closure", "cyclic_rotation.instance"],
    ])
    def test_exact_commands_load_no_numpy(self, argv):
        argv = [fixture(a) if a.endswith(".instance") else a for a in argv]
        proc = subprocess.run([sys.executable, "-c", _NUMPY_PROBE, *argv],
                              capture_output=True, text=True)
        assert proc.returncode == EXIT_OK
        assert proc.stdout
        assert proc.stderr.splitlines()[-1] == "numpy absent"

    def test_scalar_membership_loads_no_numpy(self):
        # one rank-1 orbit-pair question takes the scalar test, not the batch kernel
        code = (
            "import sys\n"
            "from coarseact.boxes import box_set\n"
            "from coarseact.cli import parse_instance\n"
            "from coarseact.coarse import OrbitPair, entourage_membership\n"
            f"a = parse_instance({fixture('shift.instance')!r}).action\n"
            "e = OrbitPair(a, box_set((0, 3)))\n"
            "print(entourage_membership(e, ((0,), (2,))), entourage_membership(e, ((0,), (5,))))\n"
            "print('numpy' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.stdout.split() == ["True", "False", "False"], proc.stderr

    def test_package_import_loads_no_numpy(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, coarseact; print('numpy' in sys.modules)"],
            capture_output=True, text=True,
        )
        assert proc.stdout.strip() == "False"


class TestDot:
    def test_closure_dot_output(self, capsys, tmp_path):
        dot = tmp_path / "out.dot"
        code, out, _ = run(
            ["closure", fixture("cyclic_rotation.instance"), "--dot", str(dot)],
            capsys,
        )
        assert code == EXIT_OK
        text = dot.read_text()
        assert text.startswith("digraph closure {")
        # one node per ground element
        for x in range(4):
            assert f'"n{x}" [label="{x}"];' in text
        # deterministic: regenerate and compare
        code, _, _ = run(
            ["closure", fixture("cyclic_rotation.instance"), "--dot", str(dot)],
            capsys,
        )
        assert dot.read_text() == text


class TestAffineRules:
    def test_parse_and_round_trip(self):
        p = parse_instance(fixture("reflect_shift.instance"))
        assert p.action.is_window_only
        text = serialize_instance(p)
        assert parse_instance_text(text, p.action.name).action == p.action

    def test_exact_paths_decline(self, capsys):
        code, _, err = run(["classify", fixture("reflect_shift.instance")], capsys)
        assert code == EXIT_INCONCLUSIVE
        assert "window oracle" in err

    def test_window_oracle_enumerates(self):
        from coarseact.boxes import box_set
        from coarseact.oracle import oracle_transporter

        p = parse_instance(fixture("reflect_shift.instance"))
        got, notes, _ = oracle_transporter(p.action, box_set((2, 3)), box_set((5, 6)), 10, 12)
        assert got == [(7,), (8,), (9,)]
        assert any("window-oracle" in n for n in notes)

    def test_orbit_pair_paths_decline(self):
        from coarseact.associated import verify_lemma_algebra, verify_lemma_neighborhood
        from coarseact.boxes import FinitePoints, UnsupportedVariant, box_set
        from coarseact.coarse import OrbitPair, entourage_members, neighborhood

        a = parse_instance(fixture("reflect_shift.instance")).action
        b = box_set((0, 1))
        calls = (
            lambda: entourage_members(OrbitPair(a, b), [((0,), (1,))]),
            lambda: neighborhood(OrbitPair(a, b), FinitePoints(frozenset({(0,)}))),
            lambda: verify_lemma_neighborhood(a, b, (0,)),
            lambda: verify_lemma_algebra(a, b, b),
        )
        for call in calls:
            with pytest.raises(UnsupportedVariant, match="window oracle"):
                call()

    def test_rejects_non_signed_permutation(self):
        text = parse_instance(fixture("reflect_shift.instance"))
        bad = serialize_instance(text).replace("arow0 = (-1)", "arow0 = (2)")
        with pytest.raises(ParseError):
            parse_instance_text(bad)


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "coarseact.cli", "classify",
             fixture("shift.instance")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "b_proper" in proc.stdout

import os
import subprocess
import sys

import pytest

from coarseact.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_USAGE,
    ParseError,
    parse_instance,
    parse_instance_text,
    run_command,
    serialize_instance,
)

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

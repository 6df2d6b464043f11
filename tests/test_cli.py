"""CLI tests: argument handling, exit codes, JSON schemas, golden outputs."""

from __future__ import annotations

import dataclasses
import json
import os
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import clusterkit.cli
import clusterkit.presets
from clusterkit.analysis import InternalInvariantError
from clusterkit.cli import build_parser, main
from clusterkit.constructions import ConstructionError
from clusterkit.laurent import LaurentPoly, NotDivisible, parse_poly, render_poly
from clusterkit.presets import a3_matrix
from clusterkit.seeds import Seed, parse_matrix

GOLDEN = Path(__file__).parent / "golden"

A3_TEXT = "3 3 3\n0 -1 0; 1 0 -1; 0 1 0\n"
LAMPE_TEXT = "2 2 2\n0 -2; 2 0\n"


@pytest.fixture
def a3_file(tmp_path):
    path = tmp_path / "a3.txt"
    path.write_text(A3_TEXT)
    return str(path)


@pytest.fixture
def lampe_file(tmp_path):
    path = tmp_path / "lampe.txt"
    path.write_text(LAMPE_TEXT)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- golden outputs -----------------------------------------------------------


def test_mutate_golden(capsys, a3_file):
    code, out, _ = run(capsys, "mutate", "--matrix", a3_file, "--word", "1,3", "--json")
    assert code == 0
    assert json.loads(out) == json.loads((GOLDEN / "a3_mutate_word13.json").read_text())


def test_mutate_human_readable(capsys, a3_file):
    code, out, _ = run(capsys, "mutate", "--matrix", a3_file, "--word", "1,3")
    assert code == 0
    assert "y1 = x1^-1*x2 + x1^-1" in out
    assert "y3 = x2*x3^-1 + x3^-1" in out


def test_factoriality_golden(capsys, lampe_file):
    code, out, _ = run(capsys, "factoriality", "--matrix", lampe_file, "--field", "C", "--json")
    assert code == 0
    assert json.loads(out) == json.loads((GOLDEN / "lampe_factoriality_c.json").read_text())


def test_explore_golden(capsys, a3_file):
    code, out, _ = run(capsys, "explore", "--matrix", a3_file, "--max-depth", "64", "--json")
    assert code == 0
    assert json.loads(out) == json.loads((GOLDEN / "a3_explore.json").read_text())


def test_staircase_golden(capsys, a3_file):
    code, out, _ = run(capsys, "staircase", "--matrix", a3_file, "--json")
    assert code == 0
    assert json.loads(out) == json.loads((GOLDEN / "a3_staircase.json").read_text())


def test_verify_all_golden_byte_for_byte(capsys):
    # the whole verification bundle: every preset's checks, details and identity counts
    code, out, _ = run(capsys, "verify", "--json")
    assert code == 0
    assert out == (GOLDEN / "verify_all.json").read_text(encoding="utf-8")


def test_python_dash_m_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": str(Path(clusterkit.cli.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "clusterkit", "verify", "--name", "a3", "--json"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["ok"] is True


# -- verdicts are data, exit 0 ---------------------------------------------------


def test_factoriality_with_a_large_prime_column_gcd_finishes(capsys, tmp_path):
    # trial division up to d itself took about 5 * 10^8 steps for the first prime, and
    # trial division up to the odd part's square root about 2^62 for the second; the
    # last gcd is 2^5 times the prime 2^61 - 1
    for d, odd in [(1000000007, 1000000007), (2**127 - 1, 2**127 - 1), (2**5 * (2**61 - 1), 2**61 - 1)]:
        path = tmp_path / "prime.txt"
        path.write_text(f"2 2 2\n0 {d}; -{d} 0\n")
        start = time.perf_counter()
        code, out, _ = run(capsys, "factoriality", "--matrix", str(path), "--json")
        assert time.perf_counter() - start < 1.0, d
        assert code == 0
        data = json.loads(out)
        assert data["status"] == "not_factorial"
        assert data["witness"]["d"] == d and data["witness"]["odd_factor"] == odd


def test_factoriality_inconclusive_still_exit_zero(capsys, lampe_file):
    code, out, _ = run(capsys, "factoriality", "--matrix", lampe_file, "--field", "Q", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "inconclusive"
    assert data["rank"] == 2


def test_check_laurent_both_verdicts(capsys, a3_file):
    code, out, _ = run(capsys, "check-laurent", "--matrix", a3_file, "--expr", "x1", "--json")
    assert code == 0 and json.loads(out)["member"] is True
    code, out, _ = run(
        capsys, "check-laurent", "--matrix", a3_file, "--expr", "1", "--den", "1 + x2", "--json"
    )
    assert code == 0 and json.loads(out)["member"] is False


def test_upper_bound_command(capsys, a3_file):
    code, out, _ = run(
        capsys,
        "upper-bound",
        "--matrix",
        a3_file,
        "--expr",
        "1 + x2",
        "--word1",
        "",
        "--word2",
        "1,3",
        "--json",
    )
    assert code == 0 and json.loads(out)["member"] is True


@pytest.mark.parametrize(
    "expr, den, quotient",
    [("x1^-1", "x2", "x1^-1*x2^-1"), ("x1^-1 + x3", "x2^-1", "x1^-1*x2 + x2*x3")],
)
def test_laurent_denominator_gives_the_verdict_of_the_quotient(capsys, a3_file, expr, den, quotient):
    def verdicts(*arg):
        out = []
        for word in ("", "1", "2", "1,3"):
            code, text, err = run(capsys, "check-laurent", "--matrix", a3_file, "--word", word, *arg, "--json")
            assert code == 0, err
            out.append(json.loads(text)["member"])
            code, text, err = run(
                capsys, "upper-bound", "--matrix", a3_file, "--word1", "", "--word2", word, *arg, "--json"
            )
            assert code == 0, err
            out.append(json.loads(text)["member"])
        return out

    expected = verdicts("--expr", quotient)
    assert True in expected and False in expected
    assert verdicts("--expr", expr, "--den", den) == expected


# -- presets and verification -----------------------------------------------------


def test_preset_verify_acyclic_n3(capsys):
    code, out, _ = run(capsys, "preset", "--name", "acyclic-n3", "--verify", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["matrix"]["rows"][0] == [0, 2, 0]
    assert all(check["ok"] for check in data["checks"])


def test_preset_without_verify(capsys):
    code, out, _ = run(capsys, "preset", "--name", "lie-rank2")
    assert code == 0
    assert "6 6 8" in out


def test_verify_single_preset(capsys):
    code, out, _ = run(capsys, "verify", "--name", "a3")
    assert code == 0
    assert "[ok]" in out and "FAIL" not in out


def _raising(exc):
    def boom(*args):
        raise exc("planted failure")

    return boom


@pytest.mark.parametrize(
    "name, construction, exc",
    [
        ("type-a-m3", "type_a_chain", ConstructionError),
        ("acyclic-n3", "acyclic_staircase", NotDivisible),
        ("lie-rank2", "lie_preset", InternalInvariantError),
    ],
)
def test_preset_internal_error_is_one_failed_check(capsys, monkeypatch, name, construction, exc):
    monkeypatch.setattr(clusterkit.presets, construction, _raising(exc))
    code, out, _ = run(capsys, "verify", "--name", name)
    assert code == 1
    assert out == f"[FAIL] {name}: verification runs to completion\n"


def _with_counts(real, key, value):
    def tampered(*args):
        res = real(*args)
        return dataclasses.replace(res, identity_counts={**res.identity_counts, key: value})

    return tampered


def _lie_with_coefficient(real, value):
    def tampered():
        lp = real()
        last = lp.stages[-1]
        # the public constructor refuses a coefficient that is no int, so forge it on the trusted path
        forged = LaurentPoly._from_canonical(8, LaurentPoly.const(8, 1)._keys, (value,))
        bad = Seed(last.matrix, (forged,) + last.cluster[1:], last.word)
        return dataclasses.replace(lp, stages=lp.stages[:-1] + (bad,))

    return tampered


def _lie_with_half_coefficient(real):
    return _lie_with_coefficient(real, Fraction(1, 2))


def _lie_with_float_coefficient(real):
    return _lie_with_coefficient(real, 2.0)


def _lie_with_bool_coefficient(real):
    return _lie_with_coefficient(real, True)


def _lie_missing_stage(real):
    def tampered():
        lp = real()
        return dataclasses.replace(lp, stages=lp.stages[:-1])

    return tampered


@pytest.mark.parametrize(
    "name, construction, tamper, failing",
    [
        ("type-a-m4", "type_a_chain", lambda f: _with_counts(f, "shifted", 9), "chain identities hold for m=4"),
        ("type-a-m5", "type_a_chain", lambda f: _with_counts(f, "stage1_recurrence", 3), "chain identities hold for m=5"),
        ("acyclic-n3", "acyclic_staircase", lambda f: _with_counts(f, "matrix_shapes", 2), "intermediate matrices match the block shapes"),
        ("lie-rank2", "lie_preset", _lie_missing_stage, "six-stage schedule runs to completion"),
        ("lie-rank2", "lie_preset", _lie_with_half_coefficient, "all entries are integer Laurent polynomials"),
        ("lie-rank2", "lie_preset", _lie_with_float_coefficient, "all entries are integer Laurent polynomials"),
        ("lie-rank2", "lie_preset", _lie_with_bool_coefficient, "all entries are integer Laurent polynomials"),
    ],
)
def test_preset_checks_recompute_their_claims(capsys, monkeypatch, name, construction, tamper, failing):
    real = getattr(clusterkit.presets, construction)
    monkeypatch.setattr(clusterkit.presets, construction, tamper(real))
    code, out, _ = run(capsys, "verify", "--name", name)
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("[FAIL]")] == [f"[FAIL] {name}: {failing}"]


@pytest.mark.parametrize("exc", [ConstructionError, NotDivisible, InternalInvariantError])
def test_internal_error_is_one_line_exit_one(capsys, monkeypatch, a3_file, exc):
    monkeypatch.setattr(clusterkit.cli, "apply_word", _raising(exc))
    code, out, err = run(capsys, "mutate", "--matrix", a3_file, "--word", "1")
    assert code == 1 and out == ""
    assert err == f"internal error: {exc.__name__}: planted failure\n"


# -- parsing and exit code 2 --------------------------------------------------------


def test_matrix_json_input(capsys, tmp_path):
    path = tmp_path / "a3.json"
    path.write_text(json.dumps({"n": 3, "p": 3, "m": 3, "rows": [[0, -1, 0], [1, 0, -1], [0, 1, 0]]}))
    code, out, _ = run(capsys, "mutate", "--matrix", str(path), "--word", "1", "--json")
    assert code == 0
    assert json.loads(out)["cluster"][0] == "x1^-1*x2 + x1^-1"


@pytest.mark.parametrize("field", ["rows", "n"])
@pytest.mark.parametrize("value", [1.5, True, "3"])
def test_non_integer_json_matrix_is_input_error(capsys, tmp_path, field, value):
    data = {"n": 2, "p": 2, "m": 2, "rows": [[0, 1], [-1, 0]]}
    if field == "rows":
        data["rows"][0][1] = value
    else:
        data["n"] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "mutate", "--matrix", str(path), "--word", "1")
    assert code == 2 and out == ""
    assert "must be an integer" in err


def test_bad_poly_is_input_error(capsys, a3_file):
    code, _, err = run(capsys, "check-laurent", "--matrix", a3_file, "--expr", "x0")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("expr", ["x1^4000000000", "x2^-1073741825", "x1^1073741824*x3"])
def test_exponent_out_of_range_is_input_error(capsys, a3_file, expr):
    # exponents are stored in 32-bit slots: the text is refused, never wrapped
    code, out, err = run(capsys, "check-laurent", "--matrix", a3_file, "--word", "1,3", "--expr", expr)
    assert code == 2 and out == ""
    assert "outside the exponent range -1073741824..1073741823" in err


@pytest.mark.parametrize("option", ["--expr=-", "--den=-", "--den=\u2212"])
def test_lone_sign_is_input_error(capsys, a3_file, option):
    # a lone sign was read as the zero polynomial: a member, or a zero denominator
    args = [option] if option.startswith("--expr") else ["--expr", "x1", option]
    code, out, err = run(capsys, "check-laurent", "--matrix", a3_file, *args)
    assert code == 2 and out == ""
    assert "found the end of the text" in err and "zero polynomial" not in err


@pytest.mark.parametrize("command", ["check-laurent", "upper-bound"])
@pytest.mark.parametrize("den", ["0", "x1 - x1"])
def test_zero_denominator_is_input_error(capsys, a3_file, command, den):
    code, out, err = run(capsys, command, "--matrix", a3_file, "--expr", "x1", "--den", den)
    assert code == 2 and out == ""
    assert "zero polynomial" in err and "Traceback" not in err


def test_bad_matrix_is_input_error(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 2\n0 1; -1 0\n")
    code, _, err = run(capsys, "mutate", "--matrix", str(path))
    assert code == 2 and "header" in err


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "mutate", "--matrix", "/nonexistent/matrix.txt")
    assert code == 2


def test_directory_as_matrix_is_input_error(capsys, tmp_path):
    code, out, err = run(capsys, "mutate", "--matrix", str(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


# integers are ASCII digits with an optional sign: int() would read each of
# these as a number (10, 1, 3, 2)
@pytest.mark.parametrize(
    "text, message",
    [
        ("2 2 2\n0 1_0; -1 0\n", "non-integer matrix entry"),
        ("2 2 2\n0 \u0661; -1 0\n", "non-integer matrix entry"),
        ("\u0663 3 3\n0 -1 0; 1 0 -1; 0 1 0\n", "header must contain three integers"),
    ],
)
def test_non_ascii_integer_in_matrix_is_input_error(capsys, tmp_path, text, message):
    path = tmp_path / "m.txt"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "mutate", "--matrix", str(path), "--word", "1")
    assert code == 2 and out == ""
    assert message in err and err.count("\n") == 1


@pytest.mark.parametrize("word", ["\u0662", "1_0", "\uff12", "1,\u0663"])
def test_non_ascii_integer_in_word_is_input_error(capsys, a3_file, word):
    code, out, err = run(capsys, "mutate", "--matrix", a3_file, "--word", word)
    assert code == 2 and out == ""
    assert "bad mutation word" in err and err.count("\n") == 1


def test_word_letters_may_carry_spaces(capsys, a3_file):
    code, out, _ = run(capsys, "mutate", "--matrix", a3_file, "--word", "1, 3", "--json")
    assert code == 0 and json.loads(out)["word"] == [1, 3]


@pytest.mark.parametrize(
    "option, value", [("--max-depth", "\u0663"), ("--max-seeds", "1_0"), ("--max-depth", "\uff13")]
)
def test_non_ascii_integer_option_is_usage_error(capsys, a3_file, option, value):
    with pytest.raises(SystemExit) as exc:
        main(["explore", "--matrix", a3_file, option, value])
    assert exc.value.code == 2
    assert f"argument {option}: invalid" in capsys.readouterr().err


def test_signed_integer_option_is_accepted(capsys, a3_file):
    code, out, _ = run(capsys, "explore", "--matrix", a3_file, "--max-depth", "+64", "--json")
    assert code == 0 and json.loads(out)["finite"] is True


def test_invalid_seed_is_input_error(capsys, tmp_path):
    path = tmp_path / "disconnected.txt"
    path.write_text("2 2 4\n0 0; 0 0; 1 0; 0 1\n")
    code, _, err = run(capsys, "explore", "--matrix", str(path))
    assert code == 2 and "connect" in err


def test_factoriality_rejects_invalid_matrix(capsys, tmp_path):
    path = tmp_path / "disconnected.txt"
    path.write_text("2 2 3\n0 1; -1 0; 0 0\n")
    code, out, err = run(capsys, "factoriality", "--matrix", str(path))
    assert code == 2 and out == ""
    assert "connect" in err


@pytest.mark.parametrize("text", ["0 0 0\n", "3 3 2\n0 1 1; -1 0 1\n"])
def test_factoriality_reports_profile_without_enough_variables(capsys, tmp_path, text):
    # m = 0 and n > m used to stop validation with "list index out of range"
    path = tmp_path / "m.txt"
    path.write_text(text)
    code, out, err = run(capsys, "factoriality", "--matrix", str(path))
    assert code == 2 and out == ""
    assert "profile: need m >= p >= n >= 1" in err and err.count("\n") == 1


def test_out_of_range_word_is_input_error(capsys, a3_file):
    code, _, err = run(capsys, "mutate", "--matrix", a3_file, "--word", "9")
    assert code == 2


def test_usage_error_exits_two(a3_file):
    with pytest.raises(SystemExit) as exc:
        main(["mutate"])  # missing --matrix
    assert exc.value.code == 2


def test_one_parser_serves_every_call_in_a_process(capsys, monkeypatch, a3_file):
    # main builds its parser on its first call and reuses it: after an argparse
    # error, each call prints exactly what a fresh process prints
    monkeypatch.setenv("COLUMNS", "80")  # the usage text wraps at the terminal width
    monkeypatch.setattr(clusterkit.cli, "_parser", None)
    built = []

    def counted():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(clusterkit.cli, "build_parser", counted)
    env = {**os.environ, "PYTHONPATH": str(Path(clusterkit.cli.__file__).parents[1])}
    calls = [
        ["mutate", "--matrix", a3_file, "--max-depth", "3"],
        ["verify", "--json"],
        ["mutate", "--matrix", a3_file, "--word", "1,3", "--json"],
    ]
    codes = []
    for argv in calls:
        fresh = subprocess.run(
            [sys.executable, "-m", "clusterkit", *argv], env=env, capture_output=True, text=True, timeout=60
        )
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        assert (code, out.out, out.err) == (fresh.returncode, fresh.stdout, fresh.stderr)
        codes.append(code)
    assert codes == [2, 0, 0]
    assert built == [1]


def test_importing_the_cli_builds_no_parser():
    env = {**os.environ, "PYTHONPATH": str(Path(clusterkit.cli.__file__).parents[1])}
    probe = "import clusterkit.cli as cli; print(cli._parser is None)"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert done.stdout == "True\n", done.stderr


# -- the README's command-line examples -----------------------------------------

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_cli_example() -> tuple[dict[str, str], list[list[str]]]:
    """The heredoc files and the clusterkit argument lists of README's "Command line" block."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    files, commands = {}, []
    lines = iter(block.splitlines())
    for line in lines:
        if line.startswith("cat > "):
            name = shlex.split(line, comments=True)[2]
            files[name] = "".join(f"{body}\n" for body in iter(lines.__next__, "EOF"))
        elif line.startswith("clusterkit "):
            commands.append(shlex.split(line, comments=True)[1:])
    return files, commands


def test_readme_command_line_examples_exit_zero(capsys, monkeypatch, tmp_path):
    files, commands = readme_cli_example()
    assert sorted(files) == ["a3.txt", "lampe.txt"]
    assert len(commands) == 9
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    failed = [argv for argv in commands if run(capsys, *argv)[0] != 0]
    assert failed == []


def test_readme_wire_format_examples_parse():
    section = README.read_text(encoding="utf-8").split("## Wire formats", 1)[1].split("\n## ", 1)[0]
    matrix_text = section.split("```\n", 1)[1].split("```", 1)[0]
    matrix_json = re.search(r"or JSON: `([^`]+)`", section)[1]
    assert parse_matrix(matrix_text) == parse_matrix(matrix_json) == a3_matrix()
    examples = re.findall(r"`([^`]+)`", section.split("Examples:", 1)[1].split(".", 1)[0])
    assert examples == ["x1^-1*x2 + x1^-1", "2*x1*x2^2", "-x1 + 3", "0"]
    for text in examples:
        assert render_poly(parse_poly(text)) == text

"""
The command-line surface: polynomial parsing, degree fitting, the three
subcommands' exit codes and outputs, the bytes of every encoded family, and
report determinism.
"""

import ast
import hashlib
import json
import math
import random
import tomllib
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

import proofbench.cfrege as cfrege
import proofbench.cli as cli
import proofbench.encoder as encoder
from proofbench.cli import (
    UsageError,
    _sample_with_status,
    fit_degree,
    main,
    parse_poly,
)
from proofbench.core import CheckReport, emit_dimacs, parse_dimacs, parse_gates
from proofbench.encoder import build_php, build_sat

PAIR_DIMACS = "p cnf 1 2\n1 0\n-1 0\n"
PAIR_PROOF = "A 0\nA 1\nR 0 1 1 :\n"


# ---------------------------------------------------------------------------
# small helpers


def test_parse_poly_forms():
    assert parse_poly("4s") == (0, 4)
    assert parse_poly("s^2+1") == (1, 0, 1)
    assert parse_poly("3s^3+2s") == (0, 2, 0, 3)
    assert parse_poly("7") == (7,)
    assert parse_poly("2+3") == (5,)
    assert parse_poly("s + s") == (0, 2)
    for bad in ("", "x", "s^", "4*s"):
        with pytest.raises(UsageError):
            parse_poly(bad)


def test_fit_degree_recovers_exponents():
    xs = [1.0, 2.0, 4.0, 8.0]
    assert math.isclose(fit_degree(xs, [x**2 for x in xs]), 2.0)
    assert math.isclose(fit_degree(xs, [5 * x for x in xs]), 1.0)
    assert fit_degree(xs, [0, 0, 0, 0]) == 0.0  # zero-safe
    with pytest.raises(ValueError, match="distinct"):
        fit_degree([8.0, 8.0, 8.0], [1, 2, 3])


# ---------------------------------------------------------------------------
# encode


def test_encode_php_round_trip(tmp_path, capsys):
    out = tmp_path / "php.dimacs"
    assert main(["encode", "php", "--pigeons", "2", "--holes", "1", "--out", str(out)]) == 0
    assert "wrote" in capsys.readouterr().out
    text = out.read_text()
    assert parse_dimacs(text) == build_php(2, 1)
    # byte-stable across invocations
    main(["encode", "php", "--pigeons", "2", "--holes", "1", "--out", str(out)])
    assert out.read_text() == text
    assert emit_dimacs(parse_dimacs(text)) == text


def test_encode_prf_defaults_dimensions_from_cnf(tmp_path):
    src = tmp_path / "pair.dimacs"
    src.write_text(PAIR_DIMACS)
    out = tmp_path / "prf.dimacs"
    vmap = tmp_path / "prf.map"
    rc = main(
        ["encode", "prf", "--m", "3", "--cnf", str(src), "--out", str(out), "--map", str(vmap)]
    )
    assert rc == 0
    f = parse_dimacs(out.read_text())
    assert f.n == 3 * (3 * 1 + 2 + 3)  # m(3n+k+m)
    assert len(vmap.read_text().splitlines()) == f.n


def test_encode_sat_emits_circuit(tmp_path):
    out = tmp_path / "sat.gates"
    vmap = tmp_path / "sat.map"
    assert main(["encode", "sat", "--n", "1", "--k", "1", "--out", str(out), "--map", str(vmap)]) == 0
    assert parse_gates(out.read_text()) == build_sat(1, 1)
    assert len(vmap.read_text().splitlines()) == 2 * 1 * 1 + 1


def test_encode_clique_color_writes_both_sides(tmp_path):
    a, b, vmap = (tmp_path / x for x in ("clique.dimacs", "color.dimacs", "edges.map"))
    rc = main(
        ["encode", "clique-color", "--k", "1", "--vertices", "3",
         "--out", str(a), "--out2", str(b), "--map", str(vmap)]
    )
    assert rc == 0
    fa, fb = parse_dimacs(a.read_text()), parse_dimacs(b.read_text())
    assert fa.n == fb.n
    assert vmap.read_text().splitlines() == ["1 e[1,2]", "2 e[1,3]", "3 e[2,3]"]
    rc = main(["encode", "clique-color", "--k", "1", "--vertices", "3", "--out", str(a)])
    assert rc == 2  # missing --out2


# sha256 prefixes of --out and --map (and clique-color's --out2) for each
# family; "a.cnf" is (x1 | -x2)(x2 | x3)(-x1 | -x3)(-x3).
ENCODE_BYTES = [
    (["prf", "--m", "3", "--n", "2", "--k", "2"], "767905d1eaa2b41b", "530cfe9e06d69c3f"),
    (["prf", "--m", "4", "--cnf", "a.cnf"], "04ea9eda3bbf8056", "91373904937cbc61"),
    (["sat", "--n", "3", "--k", "4"], "45e77b61dfc5a8cd", "34d5687fa85f0726"),
    (["rfn", "--m", "2", "--n", "2", "--k", "2"], "a9dd2a42c08b60dc", "0fec71f2933b9002"),
    (["rfn", "--m", "3", "--n", "3", "--k", "3"], "2032d36e292e7870", "225d24c2b8adaf75"),
    (["lrfn", "--m", "4", "--cnf", "a.cnf"], "e2ee00192423530e", "9d27f470ab3252b5"),
    (["con", "--m", "3", "--n", "2"], "5bc0774a534a5862", "6ab1d102e68b4f7c"),
    (["am", "--cnf", "a.cnf", "--p", "s"], "8628bc4b98160118", "1e59365d46bd4995"),
    (["php", "--pigeons", "3", "--holes", "2"], "66dc4a4c38ac63a4", "3f8f32a134b4f7ad"),
    (["clique-color", "--k", "2", "--vertices", "3", "--out2", "out2"], "7db622d284fb24d1", "f7371abb7cb4adea"),
    (["strongly-friendly", "--n", "1"], "44347723bb51c703", "9a9e277f1963b27d"),
]


@pytest.mark.parametrize("argv,out_hash,map_hash", ENCODE_BYTES)
def test_encode_bytes_are_pinned(tmp_path, monkeypatch, argv, out_hash, map_hash):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.cnf").write_text("p cnf 3 4\n1 -2 0\n2 3 0\n-1 -3 0\n-3 0\n")
    assert main(["encode"] + argv + ["--out", "out", "--map", "map"]) == 0
    digest = lambda name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()[:16]
    assert (digest("out"), digest("map")) == (out_hash, map_hash)
    if argv[0] == "clique-color":
        assert digest("out2") == "e1f5aee256dc3495"


def test_encode_to_stdout(capsys):
    assert main(["encode", "php", "--pigeons", "2", "--holes", "2", "--out", "-"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("p cnf ") and "wrote" not in out


def test_encode_usage_errors(tmp_path, capsys):
    assert main(["encode", "php", "--pigeons", "2", "--out", str(tmp_path / "x")]) == 2
    assert main(["encode", "prf", "--m", "2", "--n", "1", "--k", "1"]) == 2  # no --out
    assert main(["encode", "lrfn", "--m", "2", "--cnf", str(tmp_path / "nope"), "--out", "-"]) == 2
    assert "error:" in capsys.readouterr().err
    with pytest.raises(SystemExit) as e:
        main(["encode", "nosuchfamily", "--out", "-"])
    assert e.value.code == 2


def test_encode_rejects_mismatched_dimensions(tmp_path, capsys):
    src = tmp_path / "pair.dimacs"
    src.write_text(PAIR_DIMACS)
    rc = main(
        ["encode", "prf", "--m", "2", "--n", "3", "--k", "1",
         "--cnf", str(src), "--out", str(tmp_path / "x")]
    )
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["encode", "prf", "--m", "0", "--n", "1", "--k", "1", "--out", "OUT"],
        ["encode", "php", "--pigeons", "0", "--holes", "1", "--out", "OUT"],
        ["encode", "clique-color", "--k", "0", "--vertices", "2", "--out", "OUT", "--out2", "OUT"],
        ["encode", "con", "--m", "1", "--n", "-1", "--out", "OUT"],
        ["experiment", "lrfn-nontaut", "--count", "1", "--m", "8,8", "--n", "2", "--k", "2"],
        ["experiment", "lrfn-nontaut", "--n", "x"],
        ["experiment", "am-roundtrip", "--n", "x"],
        ["experiment", "lrfn-nontaut", "--count", "0", "--m", "2,3"],
        ["experiment", "lrfn-nontaut", "--count", "-1", "--m", "2,3"],
        ["experiment", "am-roundtrip", "--count", "0"],
        ["experiment", "rfn-cf-sizes", "--max", "0"],
        ["experiment", "lrfn-nontaut", "--n", "0", "--count", "2", "--m", "2,3"],
        ["experiment", "lrfn-nontaut", "--k", "0", "--count", "2", "--m", "2,3"],
        ["experiment", "lrfn-nontaut", "--count", "2", "--m", "2,0"],
        ["experiment", "lrfn-nontaut", "--count", "2", "--m", "3..2"],
        ["experiment", "am-roundtrip", "--n", "0"],
        ["experiment", "lowerbound-trend", "--n", "0", "--max-lines", "10"],
        ["experiment", "lowerbound-trend", "--n", "0..2"],
        ["experiment", "am-roundtrip", "--workers", "0"],
        ["experiment", "rfn-cf-sizes", "--workers", "-1"],
    ],
)
def test_bad_parameter_is_exit_two(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main([str(out) if a == "OUT" else a for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


DEGREE_0 = "budget polynomial must have degree >= 1"


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(
            ["lrfn-nontaut", "--count", "50", "--m", "8,8", "--n", "2", "--k", "2"],
            "--m ladder needs at least two distinct values",
            id="lrfn-m-ladder",
        ),
        pytest.param(
            ["lrfn-nontaut", "--count", "1", "--m", "2,4", "--n", "7", "--k", "3"],
            "--n must be at most 3 times the smallest --m",
            id="lrfn-n-above-3m",
        ),
        pytest.param(["am-roundtrip", "--p", "7", "--count", "4", "--n", "2"], DEGREE_0, id="am-p-degree-0"),
        pytest.param(["am-roundtrip", "--q", "5", "--count", "4", "--n", "2"], DEGREE_0, id="am-q-degree-0"),
    ],
)
def test_suite_values_are_checked_before_any_work(monkeypatch, capsys, argv, message):
    def reached(*args, **kwargs):
        raise AssertionError("sampled or ran tasks before the values were checked")

    monkeypatch.setattr(cli, "_sample_with_status", reached)
    monkeypatch.setattr(cli, "_run_tasks", reached)
    assert main(["experiment"] + argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "abc"])
def test_bad_max_seconds_is_named_before_any_work(monkeypatch, capsys, value):
    def reached(*args, **kwargs):
        raise AssertionError("sampled or ran tasks before the clock cap was checked")

    monkeypatch.setattr(cli, "_sample_with_status", reached)
    monkeypatch.setattr(cli, "_run_tasks", reached)
    monkeypatch.setenv("PROOFBENCH_MAX_SECONDS", value)
    assert main(["experiment", "am-roundtrip", "--count", "1", "--n", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: PROOFBENCH_MAX_SECONDS must be") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["lrfn-nontaut", "--n", "0", "--count", "2", "--m", "2,3"], "n"),
        (["lrfn-nontaut", "--n", "2", "--k", "-1", "--m", "2,3"], "k"),
        (["lrfn-nontaut", "--n", "2", "--m", "4,0,8"], "m"),
        (["am-roundtrip", "--n", "0", "--count", "2"], "n"),
        (["lowerbound-trend", "--n", "0", "--max-lines", "10"], "n"),
        (["lowerbound-trend", "--n", "2,0,3", "--max-lines", "5"], "n"),
        (["lowerbound-trend", "--max-lines", "-3"], "max-lines"),
        (["lowerbound-trend", "--max-lines", "5,0"], "max-lines"),
        (["am-roundtrip", "--workers", "0"], "workers"),
    ],
)
def test_option_below_one_is_named_before_any_work(monkeypatch, capsys, argv, flag):
    def reached(*args, **kwargs):
        raise AssertionError("sampled or ran tasks before the options were checked")

    monkeypatch.setattr(cli, "_sample_with_status", reached)
    monkeypatch.setattr(cli, "_run_tasks", reached)
    assert main(["experiment"] + argv) == 2
    assert capsys.readouterr().err == f"error: --{flag} must be at least 1\n"


@pytest.mark.parametrize(
    "argv, flag, text",
    [
        (["lrfn-nontaut", "--n", "x"], "n", "x"),
        (["lrfn-nontaut", "--m", "4,y"], "m", "4,y"),
        (["lowerbound-trend", "--max-lines", "3,x"], "max-lines", "3,x"),
    ],
)
def test_malformed_value_names_its_option(capsys, argv, flag, text):
    assert main(["experiment"] + argv) == 2
    assert capsys.readouterr().err == f"error: --{flag}: bad value '{text}'\n"


@pytest.mark.parametrize(
    "argv", [["lrfn-nontaut", "--p", "s"], ["rfn-cf-sizes", "--count", "0"]]
)
def test_suite_refuses_options_it_does_not_read(argv):
    with pytest.raises(SystemExit) as e:
        main(["experiment"] + argv)
    assert e.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["php", "--pigeons", "2", "--holes", "1", "--m", "3"],
        ["sat", "--n", "1", "--k", "1", "--cnf", "x"],
        ["rfn", "--m", "1", "--n", "1", "--k", "1", "--p", "s"],
        ["con", "--m", "1", "--n", "1", "--k", "1"],
    ],
)
def test_family_refuses_options_it_does_not_read(argv):
    with pytest.raises(SystemExit) as e:
        main(["encode"] + argv + ["--out", "-"])
    assert e.value.code == 2
    # (family, option) and (suite, option) pairs that a parser accepts
    assert sum(len(options) for _, options in cli.FAMILIES.values()) == 43
    assert sum(len(options) for _, options in cli.EXPERIMENTS.values()) == 21


@pytest.mark.parametrize(
    "argv, usage",
    [
        (["experiment", "lrfn-nontaut", "--p", "s"], "usage: proofbench experiment lrfn-nontaut "),
        (["encode", "php", "--pigeons", "2", "--holes", "1", "--m", "3"], "usage: proofbench encode php "),
    ],
)
def test_unread_option_is_reported_against_its_own_parser(capsys, argv, usage):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(usage)
    assert err.endswith(f"error: unrecognized arguments: {' '.join(argv[-2:])}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["prf", "--m", "x", "--n", "1", "--k", "1", "--out", "-"], "--m: bad value 'x'"),
        (["php", "--pigeons", "2", "--out", "-"], "encode php needs --holes"),
        (["prf", "--m", "2", "--out", "-"], "encode prf needs --n and --k, or --cnf"),
        (["clique-color", "--k", "1", "--vertices", "3", "--out", "-"], "encode clique-color needs --out2"),
        (["lrfn", "--m", "2", "--cnf", "bad.cnf", "--out", "-"], "--cnf: line 2: bad number 'x'"),
    ],
)
def test_encode_option_errors_name_the_option(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.cnf").write_text("p cnf 1 1\nx 0\n")
    assert main(["encode"] + argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_strongly_friendly_refuses_sizes_it_cannot_build(monkeypatch, capsys):
    def reached(*args, **kwargs):
        raise AssertionError("built or counted part of the circuit before the size check")

    monkeypatch.setattr(encoder, "build_prf_template", reached)
    monkeypatch.setattr(encoder, "_prf_circuit", reached)
    # the lower bound from the inner download slots refuses before the
    # inner clauses are counted
    monkeypatch.setattr(encoder, "_prf_clauses", reached)
    for n in ("2", "60"):
        assert main(["encode", "strongly-friendly", "--n", n, "--out", "-"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


# Public names that no program calls but that stay, with the reason.
NO_PROGRAM_CALLER = {
    "parse_gates": "the documented reader of the gate lists that `encode` writes",
}


def _names_read(paths) -> set[str]:
    """Every name and attribute that the code in ``paths`` reads."""
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def _package_definitions(pkg: Path) -> list[tuple[str, str]]:
    """``(qualified name, name)`` for each def and class of the package, and
    each method, property and annotated field of those classes."""
    names = []
    for path in sorted(pkg.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.append((f"{path.stem}.{node.name}", node.name))
            for m in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(m, ast.FunctionDef):
                    names.append((f"{path.stem}.{node.name}.{m.name}", m.name))
                elif isinstance(m, ast.AnnAssign) and isinstance(m.target, ast.Name):
                    names.append((f"{path.stem}.{node.name}.{m.target.id}", m.target.id))
    return names


def _program_files() -> tuple[Path, list[Path]]:
    pkg = Path(cli.__file__).parent
    return pkg, sorted(pkg.glob("*.py")) + sorted((pkg.parents[1] / "perfbench").glob("*.py"))


def test_every_public_name_has_a_program_caller():
    # Library code that only tests call belongs in the tests.  Programs are
    # the package itself, the benchmark and the acceptance criteria; the
    # console-script entry point counts as a use.
    pkg, programs = _program_files()
    root = pkg.parents[1]
    scripts = tomllib.loads((root / "pyproject.toml").read_text())["project"]["scripts"]
    used = {target.rsplit(":", 1)[1] for target in scripts.values()}
    used |= _names_read(programs + [root / "tests" / "test_acceptance.py"])
    unused = [
        qual
        for qual, name in _package_definitions(pkg)
        if not name.startswith("_") and name not in used and name not in NO_PROGRAM_CALLER
    ]
    assert unused == []


def test_every_private_helper_has_a_program_caller():
    # A private def, class, method or field that neither the package nor
    # the benchmark reads is dead code; tests do not count as callers.
    pkg, programs = _program_files()
    used = _names_read(programs)
    dead = [
        qual
        for qual, name in _package_definitions(pkg)
        if name.startswith("_") and not name.startswith("__") and name not in used
    ]
    assert dead == []


def _functions_spelling(text: str) -> set[str]:
    """The package functions with a string constant that contains ``text``."""
    pkg = Path(cli.__file__).parent
    return {
        f"{path.stem}.{fn.name}"
        for path in sorted(pkg.glob("*.py"))
        for fn in ast.walk(ast.parse(path.read_text()))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and text in node.value
    }


def test_gate_rule_is_written_once():
    # The trusted base applies one gate rule: only one function may spell
    # out its refusals, so no second copy can drift from it.
    assert _functions_spelling("unknown kind") == {"core.check_cone"}


def test_number_rule_is_written_once():
    # The three readers share one number rule: only one function may refuse
    # a number that no emitter writes, so no second rule can drift from it.
    assert _functions_spelling("bad number") == {"core.read_number"}


def test_option_reader_is_written_once():
    # Every encode and experiment option goes through one reader: only one
    # function may refuse a malformed value, so no second parser can drift.
    assert _functions_spelling("bad value") == {"cli._read_options"}


def test_experiment_record_path_is_written_once():
    # Every suite is a (plan, task, summary) declaration: only cmd_experiment
    # builds a report, times it and runs the tasks, so no suite keeps a
    # second record path.
    assert _functions_spelling("wall_clock_s") == {"cli.cmd_experiment"}
    tree = ast.parse(Path(cli.__file__).read_text())
    callers = {
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_run_tasks"
    }
    assert callers == {"cmd_experiment"}
    functions = [fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)]
    assert [name for name in functions if name.startswith("_exp_")] == []


def test_generated_proofs_have_one_checked_exit():
    # A generator whose own proof fails its check is an internal error:
    # only core.checked turns a failing report into a RuntimeError, so every
    # generator has one exit and one message.
    pkg = Path(cli.__file__).parent
    found = {
        f"{path.stem}.{fn.name}"
        for path in sorted(pkg.glob("*.py"))
        for fn in ast.walk(ast.parse(path.read_text()))
        if isinstance(fn, ast.FunctionDef)
        and any(isinstance(node, ast.Attribute) and node.attr == "ok" for node in ast.walk(fn))
        and any(
            isinstance(node, ast.Raise)
            and getattr(getattr(node.exc, "func", None), "id", None) == "RuntimeError"
            for node in ast.walk(fn)
        )
    }
    assert found == {"core.checked"}


def test_package_has_no_assert():
    # python -O strips assert statements, so every guard must raise
    pkg = Path(cli.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(pkg.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


# ---------------------------------------------------------------------------
# check


def _write_pair(tmp_path):
    src = tmp_path / "pair.dimacs"
    src.write_text(PAIR_DIMACS)
    return src


def test_check_valid(tmp_path, capsys):
    src = _write_pair(tmp_path)
    prf = tmp_path / "p.res"
    prf.write_text(PAIR_PROOF)
    assert main(["check", "--cnf", str(src), "--proof", str(prf)]) == 0
    assert capsys.readouterr().out == "valid, 3 lines\n"


def test_check_invalid_is_exit_one(tmp_path, capsys):
    src = _write_pair(tmp_path)
    prf = tmp_path / "p.res"
    prf.write_text("A 0\nA 1\nR 0 1 1 : 1\n")  # claims a non-empty final line
    assert main(["check", "--cnf", str(src), "--proof", str(prf)]) == 1
    assert capsys.readouterr().out.startswith("invalid at step 2:")


def test_check_weakening_mode_flag(tmp_path):
    src = _write_pair(tmp_path)
    prf = tmp_path / "p.res"
    prf.write_text("A 0\nA 1\nR 0 1 1 : -1\nR 0 2 1 :\n")  # line 2 weakens {} to {-1}
    assert main(["check", "--cnf", str(src), "--proof", str(prf)]) == 1
    assert main(["check", "--cnf", str(src), "--proof", str(prf), "--mode", "weakening"]) == 0


def test_check_parse_and_io_errors_are_exit_two(tmp_path, capsys):
    src = _write_pair(tmp_path)
    prf = tmp_path / "p.res"
    prf.write_text("R 0 1\n")  # malformed resolution line
    assert main(["check", "--cnf", str(src), "--proof", str(prf)]) == 2
    assert main(["check", "--cnf", str(tmp_path / "missing"), "--proof", str(prf)]) == 2
    assert capsys.readouterr().err.count("error:") == 2


def test_check_refuses_crlf_line_ends(tmp_path, capsys):
    src = tmp_path / "pair.dimacs"
    src.write_bytes(PAIR_DIMACS.replace("\n", "\r\n").encode())
    prf = tmp_path / "p.res"
    prf.write_text(PAIR_PROOF)
    assert main(["check", "--cnf", str(src), "--proof", str(prf)]) == 2
    assert capsys.readouterr().err.startswith("error: line 1: ")


@pytest.mark.parametrize(
    "text, lineno",
    [
        ("A x\n", 1),
        ("A 0\nR 0 y 1 : 1\n", 2),
        ("A 0\nA 1\nR 0 1 1_0 :\n", 3),
        ("A +0\n", 1),
    ],
)
def test_check_parse_error_names_the_line(tmp_path, capsys, text, lineno):
    src = _write_pair(tmp_path)
    prf = tmp_path / "p.res"
    prf.write_text(text)
    assert main(["check", "--cnf", str(src), "--proof", str(prf)]) == 2
    assert f"error: line {lineno}: bad number" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# experiments


def _load_report(path):
    with open(path) as fh:
        return json.load(fh)


def _stable(report: dict) -> dict:
    return {k: v for k, v in report.items() if k not in ("generated_at", "wall_clock_s")}


def test_experiment_report_volatile_keys_only(tmp_path, capsys):
    args = [
        "experiment", "lrfn-nontaut", "--count", "2", "--n", "2", "--k", "2",
        "--m", "4,6", "--seed", "3",
    ]
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(args + ["--report", str(r1)]) == 0
    assert main(args + ["--report", str(r2)]) == 0
    assert "ok, report in" in capsys.readouterr().out
    a, b = _load_report(r1), _load_report(r2)
    assert set(a) == {"experiment", "parameters", "records", "aggregate",
                      "generated_at", "wall_clock_s"}
    assert _stable(a) == _stable(b)
    assert a["aggregate"]["valid"] == a["aggregate"]["total"] == 4
    assert a["aggregate"]["fits"]["degree_in_m"] <= 3.0


# sha256 prefix of each suite's report, minus the two volatile fields
EXPERIMENT_REPORTS = [
    (["lrfn-nontaut", "--count", "2", "--n", "2", "--k", "2", "--m", "4,8"], "f7645e8f096c8462"),
    (["am-roundtrip", "--count", "2", "--n", "2"], "91bb21714b5b631f"),
    (["lowerbound-trend", "--n", "1,2", "--max-lines", "5,5"], "002b0aad7c0737da"),
    (["rfn-cf-sizes", "--max", "3"], "600058091dab6021"),
]


@pytest.mark.parametrize("argv, pin", EXPERIMENT_REPORTS)
def test_experiment_reports_are_pinned(capsys, argv, pin):
    assert main(["experiment"] + argv) == 0
    stable = json.dumps(_stable(json.loads(capsys.readouterr().out)), sort_keys=True)
    assert hashlib.sha256(stable.encode()).hexdigest()[:16] == pin


@pytest.mark.parametrize(
    "argv", [argv for argv, _ in EXPERIMENT_REPORTS], ids=[argv[0] for argv, _ in EXPERIMENT_REPORTS]
)
def test_experiment_workers_match_serial(tmp_path, argv):
    args = ["experiment"] + argv
    r1, r2 = tmp_path / "w1.json", tmp_path / "w2.json"
    assert main(args + ["--workers", "1", "--report", str(r1)]) == 0
    assert main(args + ["--workers", "2", "--report", str(r2)]) == 0
    a, b = _load_report(r1), _load_report(r2)
    assert _stable(a) == _stable(b)


@pytest.mark.parametrize(
    "argv, tasks",
    [(["rfn-cf-sizes", "--max", "1"], 1), (["lowerbound-trend", "--n", "1,2", "--max-lines", "5,5"], 2)],
    ids=["rfn-cf-sizes", "lowerbound-trend"],
)
def test_experiment_starts_no_more_workers_than_tasks(monkeypatch, tmp_path, argv, tasks):
    started = []
    spawn = ProcessPoolExecutor._spawn_process

    def counted(pool):
        started.append(pool)
        return spawn(pool)

    monkeypatch.setattr(ProcessPoolExecutor, "_spawn_process", counted)
    report = tmp_path / "r.json"
    assert main(["experiment"] + argv + ["--workers", "3", "--report", str(report)]) == 0
    assert len(started) <= tasks and len(_load_report(report)["records"]) == tasks


def test_experiment_lowerbound_trend_smallest_point(tmp_path):
    r = tmp_path / "t.json"
    rc = main(
        ["experiment", "lowerbound-trend", "--n", "1", "--max-lines", "11",
         "--report", str(r)]
    )
    assert rc == 0
    rep = _load_report(r)
    # the search target is the refutation-existence instance, not the pair
    assert rep["records"][0]["vars"] == 6 and rep["records"][0]["clauses"] == 9
    assert rep["aggregate"]["values"] == [11]
    assert rep["records"][0]["search"] == "found"
    assert rep["records"][0]["valid"] is True
    assert rep["records"][0]["dpll_valid"] is True


def test_experiment_rfn_cf_sizes_small_grid(tmp_path):
    r = tmp_path / "g.json"
    assert main(["experiment", "rfn-cf-sizes", "--max", "2", "--report", str(r)]) == 0
    rep = _load_report(r)
    sizes = {(x["m"], x["n"], x["k"]): x["lines"] for x in rep["records"]}
    assert sizes[(1, 1, 1)] == 561 and sizes[(2, 2, 2)] == 5681
    assert all(x["valid"] for x in rep["records"])
    assert rep["aggregate"]["max_ratio_to_bound_shape"] <= 360


def test_experiment_defaults_run(capsys):
    # lowerbound-trend's defaults are criterion 5's ladder
    assert main(["experiment", "lowerbound-trend"]) == 0
    assert json.loads(capsys.readouterr().out)["aggregate"]["values"] == [11, 11, 11]


def test_experiment_json_to_stdout(capsys):
    rc = main(["experiment", "lowerbound-trend", "--n", "1", "--max-lines", "3"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["experiment"] == "lowerbound-trend"


@pytest.mark.parametrize(
    "name, error, args",
    [
        ("refute_prf_nontaut", RuntimeError("generated refutation invalid at step 3: forced"),
         ["lrfn-nontaut", "--count", "1", "--n", "2", "--k", "2", "--m", "4"]),
        ("dpll_refute", TimeoutError("dpll_refute: wall-clock cap reached"),
         ["lowerbound-trend", "--n", "1", "--max-lines", "3"]),
    ],
)
def test_internal_error_is_exit_three(monkeypatch, capsys, name, error, args):
    def broken(*a, **kw):
        raise error

    monkeypatch.setattr(cli, name, broken)
    assert main(["experiment"] + args) == 3
    err = capsys.readouterr().err
    assert err == f"internal error: {error}\n"


def test_rejected_cf_proof_is_exit_three(monkeypatch, capsys):
    # rfn-cf-sizes measures the checked generator's proofs, so a proof that
    # fails cf_check stops the run like any other generator's.
    def reject(proof):
        return CheckReport(False, 7, "rejected", len(proof), 0)

    monkeypatch.setattr(cfrege, "cf_check", reject)
    assert main(["experiment", "rfn-cf-sizes", "--max", "1"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal error: reflection proof invalid at step 7: rejected\n"


def test_exhausted_trend_search_is_exit_three(monkeypatch, capsys):
    # An exhausted minimal-length search is no verdict, so the run stops as
    # a search that hits its cap does, whatever the machine's speed.
    monkeypatch.setattr(cli, "min_refutation_length", lambda *a, **kw: ("exhausted",))
    assert main(["experiment", "lowerbound-trend", "--n", "1..3", "--max-lines", "11"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("internal error: ") and err.count("\n") == 1


def test_exhausted_search_is_resampled(monkeypatch):
    # An exhausted search is no verdict: the CNF is drawn again rather than
    # counted as unsatisfiable.
    real = cli.dpll_sat
    calls = []

    def once_exhausted(f, *a):
        calls.append(f)
        return ("exhausted",) if len(calls) == 1 else real(f, *a)

    monkeypatch.setattr(cli, "dpll_sat", once_exhausted)
    rng = random.Random(5)
    (f,) = _sample_with_status(rng, "unsat", 3, 6)
    assert real(f) == ("unsat",)
    assert len(calls) >= 2 and calls[-1] is f and calls[0] is not f

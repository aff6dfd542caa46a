import json
import subprocess
import sys
from pathlib import Path

import pytest

import smtrace
from smtrace.cli import run
from conftest import GAP_XY_SMT2, GAP01_SMT2, nested_count, nested_text


@pytest.fixture
def gap_xy_path(tmp_path):
    p = tmp_path / "gap_xy.smt2"
    p.write_text(GAP_XY_SMT2)
    return p


def test_compile_then_count(gap_xy_path, tmp_path, capsys):
    out = tmp_path / "gap_xy.nnf"
    assert run(["compile", str(gap_xy_path), "-o", str(out)]) == 0
    stats_text = capsys.readouterr().out
    assert stats_text.startswith("decisions ")
    assert out.exists() and out.with_suffix(".atoms").exists()

    assert run(["count", "--nnf", str(out), "--atoms", str(out.with_suffix(".atoms"))]) == 0
    assert capsys.readouterr().out.strip() == "3"


def test_count_modes(gap_xy_path, capsys):
    assert run(["count", str(gap_xy_path)]) == 0
    assert capsys.readouterr().out.strip() == "3"
    assert run(["count", str(gap_xy_path), "--mode", "agnostic"]) == 0
    assert capsys.readouterr().out.strip() == "4"
    assert run(["count", str(gap_xy_path), "--mode", "eager"]) == 0
    assert capsys.readouterr().out.strip() == "3"


def test_count_weights(gap_xy_path, tmp_path, capsys):
    weights = tmp_path / "w.txt"
    weights.write_text("1 1/2\n-1 1/2\n")
    assert run(["count", str(gap_xy_path), "--weights", str(weights)]) == 0
    # models: atom1 true in two of three captured assignments
    assert capsys.readouterr().out.strip() == "3/2"


@pytest.mark.parametrize("line", ["1 -1/2", "0 1/2", "7 1/3", "1 \u0663/\u0664", "\u0661 1/2", "1 1e-2000000"])
def test_count_rejects_bad_weight_lines(line, tmp_path, capsys):
    src = tmp_path / "ab.smt2"
    src.write_text("(declare-const A Bool)(declare-const B Bool)(assert (or A B))")
    weights = tmp_path / "w.txt"
    weights.write_text(f"2 1/2\n{line}\n")
    assert run(["count", str(src), "--weights", str(weights)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {weights}:2: ")


@pytest.mark.parametrize("case", ["compile", "count", "enumerate", "oracle", "weights", "nnf", "atoms"])
def test_a_file_that_is_not_utf8_is_a_format_error(case, gap_xy_path, tmp_path, capsys):
    """Every file a subcommand reads, if it is not UTF-8 text, exits 2 with
    a message naming it, not with a traceback."""
    graph = tmp_path / "g.nnf"
    assert run(["compile", str(gap_xy_path), "-o", str(graph)]) == 0
    sidecar = graph.with_suffix(".atoms")
    bad = tmp_path / "bad"
    bad.write_bytes(b"1 1/2\n-1 \xfe/2\n" if case == "weights" else b"(declare-const x Real)\n(assert (<= x \xff))\n")
    argv = {
        "compile": ["compile", str(bad), "-o", str(tmp_path / "out.nnf")],
        "count": ["count", str(bad)],
        "enumerate": ["enumerate", str(bad)],
        "oracle": ["oracle", str(bad)],
        "weights": ["count", str(gap_xy_path), "--weights", str(bad)],
        "nnf": ["count", "--nnf", str(bad), "--atoms", str(sidecar)],
        "atoms": ["count", "--nnf", str(graph), "--atoms", str(bad)],
    }[case]
    capsys.readouterr()
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {bad}: not UTF-8 text")


def test_count_rejects_a_second_weight_for_a_literal(gap_xy_path, tmp_path, capsys):
    weights = tmp_path / "w.txt"
    weights.write_text("1 1/2\n-1 1/2\n1 1/3\n")
    assert run(["count", str(gap_xy_path), "--weights", str(weights)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {weights}:3: ")


def test_check_theory_without_atoms(tmp_path, capsys):
    # a variable the sidecar gives no atom counts as propositional
    nnf = tmp_path / "f.nnf"
    atoms = tmp_path / "f.atoms"
    nnf.write_text("nnf 3 2 1\nL 1\nL -1\nO 1 2 0 1\n")
    atoms.write_text("")
    assert run(["check", "--nnf", str(nnf), "--atoms", str(atoms), "--theory"]) == 0
    assert capsys.readouterr().out == "0 violations\n"


def test_check_theory(gap_xy_path, tmp_path, capsys):
    out = tmp_path / "f.nnf"
    run(["compile", str(gap_xy_path), "-o", str(out)])
    capsys.readouterr()
    code = run(
        ["check", "--nnf", str(out), "--atoms", str(out.with_suffix(".atoms")), "--theory"]
    )
    assert code == 0
    assert capsys.readouterr().out.splitlines()[0] == "0 violations"


def test_check_violation_exit_code(tmp_path, capsys):
    nnf = tmp_path / "bad.nnf"
    atoms = tmp_path / "bad.atoms"
    nnf.write_text("nnf 3 2 2\nL 1\nL 2\nO 1 2 0 1\n")
    atoms.write_text("1 bool a\n2 bool b\n")
    assert run(["check", "--nnf", str(nnf), "--atoms", str(atoms)]) == 3
    out = capsys.readouterr().out
    assert out.splitlines()[0] != "0 violations"


@pytest.mark.parametrize(
    "nnf, atoms",
    [
        ("nnf 3 2 1\nL 1\nL -1\nO 1 2 0 0\n", "1 bool A\n"),
        ("nnf 4 4 2\nL 1\nL 2\nA 2 0 1\nO 0 2 2 2\n", "1 bool A\n2 bool B\n"),
    ],
    ids=["or-of-one-literal", "or-of-one-and"],
)
def test_count_refuses_a_graph_that_is_not_deterministic(nnf, atoms, tmp_path, capsys):
    """Each graph has one model, which its Or counts twice: count refuses
    it as check reports it."""
    graph, sidecar = tmp_path / "g.nnf", tmp_path / "g.atoms"
    graph.write_text(nnf)
    sidecar.write_text(atoms)
    assert run(["count", "--nnf", str(graph), "--atoms", str(sidecar)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: not a d-DNNF: determinism at node ")
    assert run(["check", "--nnf", str(graph), "--atoms", str(sidecar)]) == 3


def test_enumerate(gap_xy_path, capsys):
    assert run(["enumerate", str(gap_xy_path), "--max", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert all(len(line.split()) == 3 for line in lines)


def test_oracle(gap_xy_path, capsys):
    assert run(["oracle", str(gap_xy_path)]) == 0
    assert capsys.readouterr().out == "agnostic 4\naware 3\n"


def test_stats_json(gap_xy_path, tmp_path, capsys):
    out = tmp_path / "f.nnf"
    assert run(["compile", str(gap_xy_path), "-o", str(out), "--stats", "json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert set(record) == {
        "decisions",
        "bool_props",
        "theory_props",
        "theory_checks",
        "theory_witness_hits",
        "theory_rows_max",
        "conflicts",
        "learned",
        "components",
        "cache_hits",
        "cache_misses",
        "nodes",
        "edges",
        "wall_ms",
    }


def test_condense_flag(gap_xy_path, tmp_path, capsys):
    out = tmp_path / "f.nnf"
    text = """
    (declare-const x Real)(declare-const y Real)
    (assert (or (< (+ x y) 5) (> (+ x y) 6)))
    (assert (or (< x 3) (> x 5)))
    (assert (or (< y 0) (> y 4)))
    """
    src = tmp_path / "ent.smt2"
    src.write_text(text)
    assert run(["compile", str(src), "-o", str(out), "--condense"]) == 0
    capsys.readouterr()
    # condensed output loses totality, so counting it is rejected
    code = run(["count", "--nnf", str(out), "--atoms", str(out.with_suffix(".atoms"))])
    assert code == 2


def test_pipeline_coherence(gap_xy_path, tmp_path, capsys):
    for mode in ("lazy", "eager", "agnostic"):
        out = tmp_path / f"{mode}.nnf"
        run(["compile", str(gap_xy_path), "-o", str(out), "--mode", mode])
        capsys.readouterr()
        run(["count", str(gap_xy_path), "--mode", mode])
        direct = capsys.readouterr().out.strip()
        run(["count", "--nnf", str(out), "--atoms", str(out.with_suffix(".atoms"))])
        assert capsys.readouterr().out.strip() == direct


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--nnf", "{out}", "--atoms", "{atoms}", "--no-cache"],
        ["oracle", "{path}", "--mode", "eager"],
        ["count", "{path}", "--condense"],
        ["enumerate", "{path}", "--stats", "json"],
    ],
)
def test_flags_a_subcommand_does_not_read_are_usage_errors(argv, gap_xy_path, tmp_path, capsys):
    out = tmp_path / "out.nnf"
    assert run(["compile", str(gap_xy_path), "-o", str(out)]) == 0
    capsys.readouterr()
    fill = {"path": gap_xy_path, "out": out, "atoms": out.with_suffix(".atoms")}
    assert run([a.format(**fill) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err


@pytest.mark.parametrize(
    "extra",
    [
        ["--mode", "eager"],
        ["--mode", "lazy"],
        ["--eager-k", "2"],
        ["--no-components"],
        ["--no-cache"],
        ["--no-learning"],
        ["{path}"],
    ],
)
def test_count_of_a_graph_rejects_compile_flags_and_an_input(extra, gap_xy_path, tmp_path, capsys):
    out = tmp_path / "out.nnf"
    assert run(["compile", str(gap_xy_path), "-o", str(out)]) == 0
    graph = ["count", "--nnf", str(out), "--atoms", str(out.with_suffix(".atoms"))]
    assert run(graph) == 0
    capsys.readouterr()
    assert run(graph + [a.format(path=gap_xy_path) for a in extra]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_usage_errors(capsys, tmp_path, gap_xy_path):
    assert run(["bogus"]) == 1
    assert run(["count"]) == 1  # neither input nor --nnf
    nnf = tmp_path / "x.nnf"
    nnf.write_text("nnf 1 0 1\nL 1\n")
    assert run(["count", "--nnf", str(nnf)]) == 1  # --nnf without --atoms
    capsys.readouterr()
    out = tmp_path / "out.atoms"  # the graph would be its own sidecar
    assert run(["compile", str(gap_xy_path), "-o", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and ".atoms sidecar" in captured.err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "{path}", "--max", "-1"],
        ["enumerate", "{path}", "--max=-2"],
        ["enumerate", "{path}", "--max", "two"],
        ["count", "{path}", "--mode", "eager", "--eager-k", "-1"],
        ["compile", "{path}", "-o", "{out}", "--eager-k", "-5"],
        ["count", "{path}", "--mode", "eager", "--eager-k", "two"],
        ["enumerate", "{path}", "--max", "\u0663"],  # Arabic-Indic digit three
        ["count", "{path}", "--mode", "eager", "--eager-k", "\uff13"],  # fullwidth digit three
    ],
)
def test_negative_or_non_integer_counts_are_usage_errors(argv, gap_xy_path, tmp_path, capsys):
    out = tmp_path / "out.nnf"
    assert run([a.format(path=gap_xy_path, out=out) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "expected a non-negative integer" in captured.err
    assert not out.exists()


def test_zero_counts_are_accepted(gap_xy_path, capsys):
    assert run(["enumerate", str(gap_xy_path), "--max", "0"]) == 0
    assert capsys.readouterr().out == ""
    assert run(["count", str(gap_xy_path), "--mode", "eager", "--eager-k", "0"]) == 0
    capsys.readouterr()


def test_parse_and_format_errors(tmp_path, capsys):
    bad = tmp_path / "bad.smt2"
    bad.write_text("(assert (* x y))")
    assert run(["count", str(bad)]) == 2
    assert run(["count", str(tmp_path / "missing.smt2")]) == 2
    nnf = tmp_path / "bad.nnf"
    nnf.write_text("not an nnf\n")
    atoms = tmp_path / "bad.atoms"
    atoms.write_text("")
    assert run(["check", "--nnf", str(nnf), "--atoms", str(atoms)]) == 2
    capsys.readouterr()


def test_a_quoted_name_survives_compile_and_count(tmp_path, capsys):
    src, out = tmp_path / "q.smt2", tmp_path / "q.nnf"
    src.write_text("(declare-const |p q| Bool)(declare-const x Real)(assert (or |p q| (< x 0)))")
    assert run(["compile", str(src), "-o", str(out)]) == 0
    capsys.readouterr()
    assert run(["count", "--nnf", str(out), "--atoms", str(out.with_suffix(".atoms"))]) == 0
    assert capsys.readouterr().out == "3\n"


def test_compile_refuses_a_name_no_atoms_line_can_hold(tmp_path, capsys):
    src, out = tmp_path / "q.smt2", tmp_path / "q.nnf"
    src.write_text("(declare-const |x\ny| Bool)(assert |x\ny|)")
    assert run(["compile", str(src), "-o", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: symbol 'x\\ny' holds")
    assert not out.exists() and not out.with_suffix(".atoms").exists()


def test_a_declared_constant_is_a_parse_error(tmp_path, capsys):
    src = tmp_path / "t.smt2"
    src.write_text("(declare-const true Bool)(assert (not true))")
    assert run(["count", str(src)]) == 2
    assert "reads as a constant" in capsys.readouterr().err


def test_deeply_nested_valid_input_is_counted(tmp_path, capsys):
    """Conversion keeps its own stacks, so depth alone refuses no valid
    formula: every depth is counted, and exactly."""
    src = tmp_path / "nested.smt2"
    for depth in range(100, 401, 10):
        src.write_text(nested_text(depth))
        assert run(["count", str(src)]) == 0, depth
        assert capsys.readouterr().out == f"{nested_count(depth)}\n", depth


def test_oracle_refuses_too_many_atoms(tmp_path, capsys):
    src = tmp_path / "nested.smt2"
    src.write_text(nested_text(20))
    assert run(["oracle", str(src)]) == 2
    assert capsys.readouterr().err == "error: 41 atoms exceeds the oracle bound 24\n"


def alternating_text(depth: int) -> str:
    """``(or A (not (and B (or A (not ... A)))))``, ``depth`` levels of the
    two steps in turn over the two Booleans A and B."""
    term = "A"
    for i in range(depth):
        term = f"(and B (or A {term}))" if i % 2 else f"(or A (not {term}))"
    return f"(declare-const A Bool)(declare-const B Bool)(assert {term})"


def test_oracle_evaluates_what_the_parser_reads_at_any_depth(tmp_path, capsys):
    """The oracle walks the formula without recursion: from depth 150 to
    400 the parser, the oracle and the compiler all answer, and the oracle's
    aware count is the compiler's."""
    src = tmp_path / "alternating.smt2"
    for depth in range(150, 401, 10):
        src.write_text(alternating_text(depth))
        oracle_code = run(["oracle", str(src)])
        oracle_out = capsys.readouterr().out
        count_code = run(["count", str(src)])
        count_out = capsys.readouterr().out
        assert oracle_code == count_code == 0, depth
        assert oracle_out.splitlines()[1] == f"aware {count_out.strip()}", depth


def test_malformed_command_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.smt2"
    bad.write_text("(())")
    assert run(["count", str(bad)]) == 2
    assert "command head" in capsys.readouterr().err
    deep = tmp_path / "deep.smt2"
    deep.write_text("(" * 400 + ")" * 400)
    assert run(["count", str(deep)]) == 2
    assert len(capsys.readouterr().err) < 100

    src = str(Path(smtrace.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "from smtrace.cli import main; main()", "count", str(bad)],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": src},
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and proc.stderr.startswith("error:")

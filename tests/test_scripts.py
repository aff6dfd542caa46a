"""The scripts under scripts/ run to completion on small arguments."""

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(script, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize(
    "script, args",
    [
        ("sweep.py", ["--instances", "3"]),
        ("component_growth.py", ["--copies", "1"]),
        ("mutants.py", ["--only", "split-dead-without-true", "--timeout", "60"]),
    ],
)
def test_script_runs(script, args, tmp_path):
    proc = _run(script, *args, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


@pytest.mark.parametrize(
    "script, args",
    [
        ("bench_eager.py", ["--instances", "2", "--repeats", "1"]),
        ("bench_scaling.py", ["--sizes", "10", "20", "--real-sizes", "6", "12", "--repeats", "1", "--budget", "5"]),
        ("bench_frontend.py", ["--instances", "2", "--repeats", "1"]),
    ],
)
def test_bench_script_writes_json(script, args, tmp_path):
    out = tmp_path / "bench.json"
    proc = _run(script, *args, "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    assert result
    assert result["clock"] == "scaled"  # timed on the benchmark's scaled clock
    if script == "bench_scaling.py":  # n = 20 and 12 double the sizes before them
        rows = result["runs"] + result["real_chain"]
        median = {(row.get("components"), row["n"]): row["compile_s_median"] for row in rows}
        grown = [row for row in rows if "compile_growth" in row]
        assert [(row.get("components"), row["n"]) for row in grown] == [(True, 20), (False, 20), (None, 12)]
        for row in grown:
            before = median[row.get("components"), row["n"] // 2]
            assert row["compile_growth"] == row["compile_s_median"] / before
        assert proc.stdout.count(" growth ") == 3
        for row in rows:  # at least --repeats (1) runs and 0.5 s of compiles, and no run more
            assert row["repeats"] == len(row["compile_s_runs"]) > 1
            assert sum(row["compile_s_runs"]) >= result["min_compile_s"] == 0.5 > sum(row["compile_s_runs"][:-1])
        assert all(row["finish_s"] > 0 for row in result["runs"])  # each compile ends in one finish
        assert all(row["theory_witness_hits"] > 0 for row in result["real_chain"])
    if script == "bench_frontend.py":  # one record per label, each stage of each group timed
        (record,) = result["runs"].values()
        assert [record[g]["instances"] for g in ("sweep", "real-chain", "bool-chain")] == [4, 3, 3]
        sweep = record["sweep"]
        assert sweep["text_to_cnf_s"] == pytest.approx(sweep["parse_s"] + sweep["cnf_s"])
        assert sweep["parse_s"] > 0 and sweep["cnf_s"] > 0


def test_bench_scaling_skips_components_off_after_its_first_failure(tmp_path):
    out = tmp_path / "bench.json"
    args = ["--sizes", "60", "80", "100", "--real-sizes", "--repeats", "1", "--budget", "0.05"]
    proc = _run("bench_scaling.py", *args, "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    off = [row for row in json.loads(out.read_text())["runs"] if not row["components"]]
    assert [row["n"] for row in off] == [60, 80, 100]
    assert "failure" in off[0]
    assert all("skipped" in row and "split_calls" not in row for row in off[1:])
    assert proc.stdout.count("skipped") == 2


def test_differential_dumps_and_compares(tmp_path):
    out = tmp_path / "a.json"
    args = ["--seeds", "2", "--eager-seeds", "1", "--real-sizes", "6", "--bool-sizes", "20"]
    proc = _run("differential.py", *args, "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    dump = json.loads(out.read_text())
    assert len(dump) == 2 * 2 * 8 + 2 + 2  # sweep configs and the parsed sweep, eager, chains
    assert dump["bool chain/20"]["count"] == 17711  # Fibonacci F(22)
    assert dump["real chain/6"]["count"] == 144
    assert dump["eager/f0"]["count"] == dump["lazy/f0"]["count"]
    for name in ("f0", "f1", "n0", "n1"):  # the rendered text has the formula's models
        assert dump[f"lazy parsed/{name}"]["count"] == dump[f"lazy/{name}"]["count"]
    assert dump["eager/f0"]["atoms"] == dump["lazy/f0"]["atoms"]
    assert dump["eager/f0"]["cnf"] != dump["lazy/f0"]["cnf"]  # with the blocking clauses
    assert all(len(entry[h]) == 64 for entry in dump.values() for h in ("atoms", "cnf", "nnf"))
    assert "wall_ms" not in dump["lazy/n1"]

    same = _run("differential.py", "--compare", str(out), str(out), cwd=tmp_path)
    assert same.returncode == 0, same.stderr
    changed = tmp_path / "b.json"
    dump["lazy/n1"]["edges"] += 1
    dump["lazy/f1"]["edges"] += 3
    dump["lazy/n0"]["edges"] -= 2
    dump["lazy parsed/f1"]["atoms"] = dump["lazy parsed/f0"]["atoms"]
    changed.write_text(json.dumps(dump))
    differ = _run("differential.py", "--compare", str(out), str(changed), cwd=tmp_path)
    assert differ.returncode == 1
    lines = differ.stdout.splitlines()[:-1]
    pairs = [re.match(r"(\S+) +(.+?) +\d+ of \d+ differ", line).groups() for line in lines]
    assert pairs == [("atoms", "lazy parsed"), ("edges", "lazy")]
    assert "3 of 4 differ" in lines[1] and lines[1].endswith("; up 2, down 1")

    # a longer field name widens the field column for every line
    dump["lazy/f0"]["theory_witness_hits"] += 1
    changed.write_text(json.dumps(dump))
    wide = _run("differential.py", "--compare", str(out), str(changed), cwd=tmp_path)
    lines = wide.stdout.splitlines()[:-1]
    assert [line.split()[0] for line in lines] == ["atoms", "edges", "theory_witness_hits"]
    groups = {line.index(" lazy") + 1 for line in lines}
    counts = {re.search(r"\d+ of \d+ differ", line).start() for line in lines}
    assert groups == {len("theory_witness_hits") + 1} and len(counts) == 1, wide.stdout


def test_every_mutant_edits_code_that_occurs_once_in_src():
    """A refactor that moves or duplicates a mutant's code shows up here,
    not as a mutant that no longer applies."""
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    mutants = module.MUTANTS
    sources = {path.name: path.read_text() for path in (ROOT / "src" / "smtrace").glob("*.py")}
    assert len(mutants) >= 6 and len({m.name for m in mutants}) == len(mutants)
    for m in mutants:
        assert m.old != m.new and m.tests, m.name
        assert sources[m.path].count(m.old) == 1, m.name
        assert sum(text.count(m.old) for text in sources.values()) == 1, m.name


def test_loc_counts_the_lines_that_hold_code(tmp_path):
    """Blank lines, comments and docstrings do not count; a line of code
    with a comment does, and so does each line of a string in an
    expression."""
    sample = tmp_path / "sample.py"
    sample.write_text(
        '"""A module docstring,\n'
        'over two lines."""\n'
        "\n"
        "# a comment\n"
        "import os  # code, with a comment\n"
        "\n"
        "def f(x):\n"
        '    "a function docstring"\n'
        "    text = (\n"
        '        """a string\n'
        'over two lines"""\n'
        "    )\n"
        '    "a" "b"  # a string statement too\n'
        "    return x\n"
    )
    other = tmp_path / "other.py"
    other.write_text("x = 1\n")
    proc = _run("loc.py", str(sample), str(other), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["7", str(sample), "1", str(other), "8", "total"]

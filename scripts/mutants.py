#!/usr/bin/env python3
"""Mutation check: does the test suite kill deliberate faults in the source?

Each mutant is a named, exact (old, new) string edit of one file under
``src/smtrace``, with the tier-1 tests expected to catch it.  For each
mutant the script copies ``src/``, ``tests/`` and ``perfbench/`` (which the
tests import the benchmark's texts from) into a temporary directory,
applies the edit there, and runs the mutant's tests with ``pytest -x``
under a per-mutant timeout.  It reports each mutant as killed (a test
failed), survived (every test passed), timed out, or an error (pytest
could not run the tests), with the time taken, and exits 1 if any
survived or was an error.  First the chosen mutants' tests run on an
unedited copy, and the script stops with exit 1 unless they pass there,
since a kill only counts against tests that pass without the edit.  The
checkout itself is never edited.

A mutant that only makes the search slower can outlast any timeout; it is
reported as timed out, not as killed.  ``tests/test_scripts.py`` checks
that every mutant's old string occurs exactly once in ``src/``, so a
refactor that moves the mutated code shows up in tier-1.

    python3 scripts/mutants.py                      # every mutant
    python3 scripts/mutants.py --only cache-key-without-context --timeout 120
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Sequence

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "perfbench")


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/smtrace
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, the quickest to kill first


SPLIT_REFERENCE = (
    "tests/test_compiler.py::test_split_matches_reference_on_random_partial_assignments",
    "tests/test_compiler.py::test_split_from_a_parent_matches_the_reference",
)

MUTANTS = (
    Mutant(
        "split-fill-ignores-true",
        "compiler.py",
        "if not true[ci]:",
        "if True:",
        SPLIT_REFERENCE,
    ),
    Mutant(
        "split-dead-without-no-free",
        "compiler.py",
        "if true[ci] or len(around) == start:",
        "if true[ci]:",
        SPLIT_REFERENCE,
    ),
    Mutant(
        "split-dead-without-true",
        "compiler.py",
        "if true[ci] or len(around) == start:",
        "if len(around) == start:",
        SPLIT_REFERENCE,
    ),
    Mutant(
        "split-stops-with-two-fills-growing",
        "compiler.py",
        "while live > 1:",
        "while live > 2:",
        SPLIT_REFERENCE,
    ),
    Mutant(
        "split-cuts-off-atoms-in-one-clause",
        "compiler.py",
        "not counts[u]",
        "counts[u] < 2",
        ("tests/test_compiler.py::test_split_cuts_free_boolean_atoms_off_at_seeding", *SPLIT_REFERENCE),
    ),
    Mutant(
        "split-cuts-off-free-linear-atoms",
        "compiler.py",
        " and u not in reals:",
        ":",
        ("tests/test_compiler.py::test_split_cuts_free_boolean_atoms_off_at_seeding", *SPLIT_REFERENCE),
    ),
    Mutant(
        "cache-hit-not-counted",
        "compiler.py",
        "self.stats.cache_hits += 1",
        "pass",
        (
            "tests/test_compiler.py::test_boolean_chain_cache_keys_hash_apart",
            "tests/test_compiler.py::test_real_chain_hits_the_projected_cache",
        ),
    ),
    Mutant(
        "propagate-drops-the-implied-literal",
        "compiler.py",
        "queue.append(other)",
        "pass",
        ("tests/test_compiler.py::test_unit_propagate_chain",),
    ),
    Mutant(
        "cache-key-without-context",
        "compiler.py",
        "scope, component.polyhedron.key)",
        "scope)",
        (
            "tests/test_compiler.py::test_cache_key_identity_and_projection",
            "tests/test_compiler.py::test_cache_key_on_projection_with_disequalities",
            "tests/test_identities.py",
        ),
    ),
    Mutant(
        "decide-lowest-count",
        "compiler.py",
        "for level in reversed(index.levels):",
        "for level in index.levels:",
        ("tests/test_compiler.py::test_decide_dlcs_occurrences", "tests/test_compiler.py::test_decide_with_empty_trail_matches_reference"),
    ),
    Mutant(
        "finish-keeps-unreachable",
        "ddnnf.py",
        "            if reachable[nid]:\n                remap[nid] = len(nodes)",
        "            if True:\n                remap[nid] = len(nodes)",
        ("tests/test_ddnnf.py",),
    ),
    Mutant(
        "validator-misses-shared-atoms",
        "ddnnf.py",
        "if seen & mask:",
        "if False:",
        ("tests/test_ddnnf.py",),
    ),
    Mutant(
        "validator-misses-unequal-or-scopes",
        "ddnnf.py",
        "if scopes[node.children[0]] != scopes[node.children[1]]:",
        "if False:",
        ("tests/test_ddnnf.py",),
    ),
    Mutant(
        "fold-or-takes-the-larger-child",
        "ddnnf.py",
        "memo.append(memo[hi] + memo[lo])",
        "memo.append(max(memo[hi], memo[lo]))",
        ("tests/test_ddnnf.py",),
    ),
    Mutant(
        "audit-reads-the-literal-alone",
        "lra.py",
        "audited = {lit, *(self.trail[i] for v in moved if v in over for i in over[v])}",
        "audited = {lit}",
        ("tests/test_lra.py::test_the_extended_witness_audit_reads_the_literals_over_moved_reals",),
    ),
    Mutant(
        "projection-keeps-the-looser-parallel-row",
        "lra.py",
        "(num * old[1], strict) > (old[0] * den, old[2])",
        "(num * old[1], strict) < (old[0] * den, old[2])",
        ("tests/test_lra.py::test_project_trail_tightens_parallel_rows", "tests/test_lra.py"),
    ),
    Mutant(
        "fm-strict-only-when-both-rows-are",
        "lra.py",
        "strict = us or ls",
        "strict = us and ls",
        ("tests/test_lra.py",),
    ),
    Mutant(
        "certificate-ignores-strictness",
        "lra.py",
        "strict = strict or e.strict",
        "strict = strict",
        ("tests/test_lra.py",),
    ),
    Mutant(
        "parser-keeps-the-sides-of-less-than",
        "frontend.py",
        'if op in (">=", "<"):',
        'if op == ">=":',
        ("tests/test_frontend.py",),
    ),
    Mutant(
        "parser-drops-unary-minus",
        "frontend.py",
        "return _scaled(terms[0], -1, 1)",
        "return terms[0]",
        ("tests/test_frontend.py",),
    ),
)


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in COPIED:
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", dest / "pyproject.toml")


def apply(mutant: Mutant, src: Path) -> None:
    """Edit ``src`` (a copy's ``src/smtrace``) with the mutant; its old
    string must occur exactly once in the file."""
    path = src / mutant.path
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: old string occurs {text.count(mutant.old)} times in {mutant.path}")
    path.write_text(text.replace(mutant.old, mutant.new))


def run(tests: Sequence[str], timeout: float, mutant: Mutant | None = None) -> tuple[str, float, str]:
    """(outcome, seconds, last line of pytest's output) of ``tests`` on a
    copy edited by ``mutant``, or unedited without one."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        dest = Path(tmp)
        _copy(dest)
        if mutant is not None:
            apply(mutant, dest / "src" / "smtrace")
        env = dict(os.environ, PYTHONPATH=str(dest / "src"), PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=dest, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, start_new_session=True
        )
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the tests' own subprocesses too
            proc.communicate()
            return "timed out", time.perf_counter() - start, ""
        seconds = time.perf_counter() - start
        lines = out.strip().splitlines()
        last = lines[-1] if lines else ""
        if proc.returncode == 0:
            return "survived", seconds, last
        if proc.returncode == 1:
            return "killed", seconds, last
        return f"error (pytest exit {proc.returncode})", seconds, last


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--only", nargs="+", metavar="NAME", help="run only these mutants")
    ap.add_argument("--timeout", type=float, default=300.0, help="seconds a mutant's tests may take")
    args = ap.parse_args()

    names = {m.name for m in MUTANTS}
    unknown = set(args.only or ()) - names
    if unknown:
        raise SystemExit(f"unknown mutants: {', '.join(sorted(unknown))}")
    chosen = [m for m in MUTANTS if not args.only or m.name in args.only]
    tests = list(dict.fromkeys(t for m in chosen for t in m.tests))
    outcome, seconds, last = run(tests, args.timeout * len(chosen))
    if outcome != "survived":
        sys.exit(f"the tests fail on the unedited copy ({outcome}): {last}")
    print(f"{'(unedited)':<36} {'passed':<10} {seconds:7.1f} s  {last}", flush=True)
    missed = 0
    for m in chosen:
        outcome, seconds, last = run(m.tests, args.timeout, m)
        missed += outcome not in ("killed", "timed out")
        print(f"{m.name:<36} {outcome:<10} {seconds:7.1f} s  {last}", flush=True)
    sys.exit(1 if missed else 0)


if __name__ == "__main__":
    main()

"""Brute-force ground truth for counts and enumeration.

The oracle walks the formula tree over all 2^n total assignments, sharing
only the parser and atom normalization with the compiler; none of the
compiler's propagation or caching machinery is involved.  Theory feasibility
of the assignment's linear literals is decided by the exact solver.
"""

from __future__ import annotations

from itertools import product

from .frontend import Formula, evaluate_formula
from .lra import check_feasible


class TooLargeError(Exception):
    pass


_MAX_ATOMS = 24


def _feasible(f: Formula, assignment: dict[int, bool], memo: dict) -> bool:
    lits = frozenset(a.id if assignment[a.id] else -a.id for a in f.table.atoms if a.is_linear)
    cached = memo.get(lits)
    if cached is None:
        cached = check_feasible(f.table, lits).sat
        memo[lits] = cached
    return cached


def brute_counts(f: Formula) -> tuple[int, int]:
    """(agnostic, aware): Boolean-satisfying assignments, and those whose
    linear literals are additionally theory-feasible."""
    n = len(f.table)
    if n > _MAX_ATOMS:
        raise TooLargeError(f"{n} atoms exceeds the oracle bound {_MAX_ATOMS}")
    memo: dict = {}
    agnostic = aware = 0
    for bits in product((False, True), repeat=n):
        assignment = {i + 1: bits[i] for i in range(n)}
        if evaluate_formula(f.root, assignment):
            agnostic += 1
            if _feasible(f, assignment, memo):
                aware += 1
    return agnostic, aware


def brute_enumerate(f: Formula) -> list[dict[int, bool]]:
    """Theory-aware satisfying assignments in lexicographic atom order."""
    n = len(f.table)
    if n > _MAX_ATOMS:
        raise TooLargeError(f"{n} atoms exceeds the oracle bound {_MAX_ATOMS}")
    memo: dict = {}
    out = []
    for bits in product((False, True), repeat=n):
        assignment = {i + 1: bits[i] for i in range(n)}
        if evaluate_formula(f.root, assignment) and _feasible(f, assignment, memo):
            out.append(assignment)
    return out

import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import settings

import smtrace as st
from smtrace.compiler import WatchedClauses
from smtrace.frontend import AtomTable, FAnd, FLit, FOr, Formula, LinTerm, normalize_comparison
from smtrace.lra import Point

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from inputs import bool_chain_text, real_chain_text, render  # the benchmark's chains and rendering

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


# names only a quoted symbol spells: a parenthesis, whitespace, a comment
# start, nothing at all; and a plain name for comparison
QUOTED_NAMES = ["(", ")", "a b", ";", "x", ""]

GAP_XY_SMT2 = """
(set-logic QF_LRA)
(declare-const x Real)
(declare-const y Real)
(assert (and (or (< x (- y 1)) (> x (+ y 1)))
             (or (not (< x (- y 1))) (> x 20))))
"""

# F = [(x <= 0) or (x >= 1)] and [A or (x <= 0)]
GAP01_SMT2 = """
(declare-const x Real)
(declare-const A Bool)
(assert (and (or (<= x 0) (>= x 1)) (or A (<= x 0))))
"""


@pytest.fixture
def gap_xy():
    return st.parse_smt2(GAP_XY_SMT2)


@pytest.fixture
def gap01():
    return st.parse_smt2(GAP01_SMT2)


def evaluate(term, point):
    """The exact value of a ``LinTerm`` at a point of rationals (absent: 0)."""
    return (term.const + sum(c * Fraction(point.get(v, 0)) for v, c in term.coeffs)) / term.den


def point_of(values):
    """The ``lra.Point`` of a mapping of real ids to rationals."""
    den = math.lcm(*(Fraction(x).denominator for x in values.values()))
    return Point({v: int(Fraction(x) * den) for v, x in values.items()}, den)


def pipeline(formula, mode="lazy", eager_k=None, **cfg_kwargs):
    """parse result -> (graph, db, amap) through the standard pipeline."""
    prop, amap = st.boolean_abstract(formula)
    db = st.to_cnf(prop)
    if mode == "eager":
        db = st.eager_encode(db, amap, eager_k)
    cfg = st.CompileConfig(mode=mode, **cfg_kwargs)
    return st.compile(db, amap, cfg), db, amap


def nested_text(depth: int) -> str:
    """``(and B0 (or A0 (and B1 (or A1 ... A<depth>))))``: valid input whose
    formula is nested two levels per step."""
    decls = "".join(f"(declare-const A{i} Bool)(declare-const B{i} Bool)" for i in range(depth))
    term = f"A{depth}"
    for i in reversed(range(depth)):
        term = f"(and B{i} (or A{i} {term}))"
    return decls + f"(declare-const A{depth} Bool)(assert {term})"


def nested_count(depth: int) -> int:
    """Models of ``nested_text(depth)``: with T(depth) = 1 for the last
    ``A<depth>``, level k holds when B<k> does and either A<k> does, with
    the levels below free, or level k + 1 holds:
    T(k) = 2^(variables below k) + T(k + 1)."""
    count = 1
    for k in reversed(range(depth)):
        count += 2 ** (2 * (depth - k - 1) + 1)
    return count


def bool_chain(n):
    """(db, amap) of the Boolean chain ``A_i or A_{i+1}``, i = 1..n-1."""
    prop, amap = st.boolean_abstract(st.parse_smt2(bool_chain_text(n)))
    return st.to_cnf(prop), amap


def assigned_store(db, amap, assignment):
    """The clause store of ``db`` with ``assignment`` (variable to value)
    assigned."""
    index = WatchedClauses(db, amap)
    for var, val in assignment.items():
        index.assign(var if val else -var)
    return index


def root_split(db, amap, assignment, trail, components=True):
    """The split of the search's root, ``index.root``, whose branch asserted
    ``assignment`` with the theory literals ``trail`` among it."""
    index = assigned_store(db, amap, assignment)
    return st.split_components(index, amap, index.root, index.trail, trail, components)


def entangled_setup():
    """The two-clause interval formula with an extra entangling sum atom.

    Returns (formula, literals dict) where lits["xy"] is the x+y < 5 literal
    whose atom is interned in the same table but not part of the formula.
    """
    table = AtomTable()
    x, y = table.real_var("x"), table.real_var("y")

    def cmp(op, coeffs, rhs):
        return normalize_comparison(
            table, op, LinTerm.make({k: Fraction(v) for k, v in coeffs.items()}), LinTerm.constant(rhs)
        )

    lits = {
        "x<3": cmp("<", {x: 1}, 3),
        "x>5": cmp(">", {x: 1}, 5),
        "y<0": cmp("<", {y: 1}, 0),
        "y>4": cmp(">", {y: 1}, 4),
        "xy": cmp("<", {x: 1, y: 1}, 5),
    }
    root = FAnd(
        (
            FOr((FLit(lits["x<3"]), FLit(lits["x>5"]))),
            FOr((FLit(lits["y<0"]), FLit(lits["y>4"]))),
        )
    )
    return Formula(root, table), lits

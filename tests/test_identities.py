"""Exact identities between the counts of related formulas.

The brute-force oracle stops at 24 atoms, and the acceptance sweep's
instances have at most 8.  An identity between the counts of related
formulas needs no oracle and stays exact at any size: a model the compiler
misses or adds on one side breaks it.  Relations of this kind test model
counters in TestMC (Usman, Wang & Khurshid, ASE 2020) and SMT solvers in
semantic fusion (Winterer, Zhang & Su, PLDI 2020).
"""

import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import smtrace as st
from smtrace.frontend import FNot, FTrue, Formula
from conftest import pipeline

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from inputs import render  # the benchmark's SMT-LIB2 rendering of a formula

SEEDS = range(20)


def _formula(seed):
    """Up to 19 atoms over up to 3 reals, in up to 40 clauses."""
    return st.random_formula(seed, max_atoms=20, max_clauses=40)


def _weights(seed, atoms):
    """Random rational weights, zero included, on both literals of each atom."""
    rng = random.Random(seed)
    w = st.WeightMap()
    for v in range(1, atoms + 1):
        for positive in (True, False):
            w.set(v, positive, Fraction(rng.randint(0, 9), rng.randint(1, 9)))
    return w


@pytest.mark.parametrize("seed", SEEDS)
def test_a_formula_and_its_negation_split_the_table(seed):
    """count(F) + count(not F) = count(true), all three over F's atom table:
    each theory-consistent assignment of the table satisfies exactly one of
    F and not F.  The same holds for weighted counts."""
    f = _formula(seed)
    yes, no, top = (pipeline(Formula(root, f.table))[0] for root in (f.root, FNot(f.root), FTrue()))
    assert st.count(yes) + st.count(no) == st.count(top)
    w = _weights(seed, top.num_atom_vars)
    assert st.weighted_count(yes, w) + st.weighted_count(no, w) == st.weighted_count(top, w)


def _renamed(text, formula):
    """The SMT-LIB2 text with every declared name given a suffix."""
    names = set(formula.table.real_names) | {a.name for a in formula.table.atoms if a.kind == "bool"}
    return re.sub(r"[^\s()]+", lambda m: m.group() + "_g" if m.group() in names else m.group(), text)


@pytest.mark.parametrize("mode, k", [("lazy", None), ("eager", 2)])
def test_a_conjunction_over_disjoint_copies_squares_the_count(mode, k):
    """count(F and G) = count(F)^2 for G a copy of F over fresh reals and
    Booleans, the two texts joined and parsed.  Every infeasible core of the
    conjunction lies within one copy, so eager blocking of cores up to size
    k keeps the identity for any k."""
    atoms = []
    for seed in SEEDS:
        f = _formula(seed)
        text = render(st, f)
        one = st.count(pipeline(st.parse_smt2(text), mode=mode, eager_k=k)[0])
        both = st.parse_smt2(text + _renamed(text, f))
        assert st.count(pipeline(both, mode=mode, eager_k=k)[0]) == one * one, seed
        atoms.append(len(both.table.atoms))
    assert max(atoms) > 24, atoms

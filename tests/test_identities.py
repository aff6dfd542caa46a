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
from smtrace.frontend import FAnd, FNot, FOr, FTrue, Formula
from conftest import pipeline, real_chain_text

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


def test_inclusion_exclusion_on_one_table():
    """count(F or G) + count(F and G) = count(F) + count(G) for F and G
    the two halves of one random formula's clauses, all four over its atom
    table, in lazy mode: the halves share atoms and reals, so the theory
    entangles them.  The same holds for weighted counts."""
    atoms = []
    for seed in SEEDS:
        f = st.random_formula(seed, max_atoms=32, max_clauses=24)
        k = len(f.root.children) // 2
        left, right = FAnd(f.root.children[:k]), FAnd(f.root.children[k:])
        roots = (FOr((left, right)), FAnd((left, right)), left, right)
        either, both, one, other = (pipeline(Formula(root, f.table))[0] for root in roots)
        assert st.count(either) + st.count(both) == st.count(one) + st.count(other), seed
        w = _weights(seed, len(f.table))
        wc = lambda g: st.weighted_count(g, w)
        assert wc(either) + wc(both) == wc(one) + wc(other), seed
        atoms.append(len(f.table))
    assert max(atoms) > 24, atoms


CAP = 1024  # models asked of enumerate_models; 2^10, the table below has at most 10 atoms


@pytest.mark.parametrize("seed", SEEDS)
def test_the_models_of_a_formula_and_its_negation_partition_the_table(seed):
    """The models ``enumerate_models`` gives of F and of not F, capped, are
    disjoint and together the models of true over F's table, whose count
    is within the cap, so no side is cut short."""
    f = st.random_formula(seed, max_atoms=11, max_clauses=20)
    yes, no, top = (pipeline(Formula(root, f.table))[0] for root in (f.root, FNot(f.root), FTrue()))
    assert st.count(top) <= CAP
    models = [{tuple(sorted(m.items())) for m in st.enumerate_models(g, CAP)} for g in (yes, no, top)]
    assert not models[0] & models[1]
    assert models[0] | models[1] == models[2]


def _substituted(text, formula, image):
    """The SMT-LIB2 text with the i-th real x in its assertions replaced by
    the term ``image(x, i)``, also SMT-LIB2 text."""
    index = {name: i for i, name in enumerate(formula.table.real_names)}
    return "\n".join(
        re.sub(r"[^\s()]+", lambda m: image(m.group(), index[m.group()]) if m.group() in index else m.group(), line)
        if line.startswith("(assert")
        else line
        for line in text.splitlines()
    )


_MAPS = {
    "translation": lambda x, i: f"(+ {x} (- (/ {3 * i + 7} 3)))",  # x_i -> x_i - (3i + 7)/3
    "scaling": lambda x, i: f"(* (/ {2 * i + 5} 2) {x})",  # x_i -> (2i + 5) x_i / 2
    "both": lambda x, i: f"(+ (/ {x} {i + 3}) 4)",  # x_i -> x_i / (i + 3) + 4
}


@pytest.mark.parametrize("relation", sorted(_MAPS))
def test_the_count_is_invariant_under_a_translation_or_positive_scaling_of_the_reals(relation):
    """Substituting x + c, or k * x with k > 0, for each real x of the
    text, with c and k chosen per real, maps the theory-consistent
    assignments of the atoms one to one, atom by atom in the same order, so
    the counts and the weighted counts of the two parses are equal.  The map is applied to the SMT-LIB2 text,
    so the parser's arithmetic and normalisation are in the loop; the
    instances include the benchmark's real chain."""
    image = _MAPS[relation]
    formulas = [_formula(seed) for seed in SEEDS]
    texts = [render(st, f) for f in formulas] + [real_chain_text(6)]
    formulas.append(st.parse_smt2(texts[-1]))
    reals = changed = 0
    for seed, (text, f) in enumerate(zip(texts, formulas)):
        one, other = (st.parse_smt2(t) for t in (text, _substituted(text, f, image)))
        assert [a.kind for a in one.table.atoms] == [a.kind for a in other.table.atoms], seed
        changed += [a.term for a in one.table.atoms] != [a.term for a in other.table.atoms]
        g, h = (pipeline(p)[0] for p in (one, other))
        assert st.count(g) == st.count(h), seed
        w = _weights(seed, g.num_atom_vars)
        assert st.weighted_count(g, w) == st.weighted_count(h, w), seed
        reals += len(f.table.real_names)
    # the maps change the rows of almost every table (scaling fixes one that is only x <= 0)
    assert reals > 2 * len(texts) and changed >= len(texts) - 1, (reals, changed)

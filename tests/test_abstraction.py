from dataclasses import dataclass
from itertools import product

import pytest
from hypothesis import assume, given, strategies as hst

import smtrace as st
from smtrace.abstraction import to_cnf, to_dimacs
from smtrace.frontend import (
    AtomTable,
    FAnd,
    FFalse,
    FImplies,
    FLit,
    FNot,
    FOr,
    FTrue,
    Formula,
    Literal,
    evaluate_formula,
)
from conftest import bool_chain_text, real_chain_text


def lit(signed):
    return FLit(Literal(abs(signed), signed > 0))


def prop_formula(root, n):
    """The formula ``root`` over n Boolean atoms, ids 1..n."""
    table = AtomTable()
    for i in range(1, n + 1):
        table.intern_bool(f"b{i}")
    return Formula(root, table)


def test_abstract_gap01(gap01):
    prop, amap = st.boolean_abstract(gap01)
    assert prop.root is gap01.root and amap is gap01.table
    assert isinstance(prop.root, FAnd) and len(prop.root.children) == 2
    left = prop.root.children[0]
    assert isinstance(left, FOr) and left.children == (lit(1), lit(2))
    assert len(amap) == 3
    assert amap.atom(1).kind == "leq" and amap.atom(3).name == "A"


def test_abstract_pure_propositional():
    f = st.parse_smt2("(declare-const A Bool)(declare-const B Bool)(assert (or A (not B)))")
    prop, amap = st.boolean_abstract(f)
    assert prop.root == FOr((lit(1), FNot(lit(2))))
    assert {a.id: a.name for a in amap.atoms} == {1: "A", 2: "B"}


def test_abstract_gap_xy(gap_xy):
    prop, amap = st.boolean_abstract(gap_xy)
    assert len(prop.table) == 3
    assert len(amap) == 3
    assert all(amap.is_linear_var(v) for v in (1, 2, 3))
    assert amap.linear_vars() == [1, 2, 3]
    assert not amap.is_linear_var(0) and not amap.is_linear_var(4)


def test_cnf_already_clausal():
    p = prop_formula(FAnd((FOr((lit(1), lit(-2))), lit(3))), 3)
    db = to_cnf(p)
    assert {frozenset(c) for c in db.clauses} == {frozenset({1, -2}), frozenset({3})}
    assert db.num_vars == 3 and list(db.aux_vars) == []


def test_cnf_tseitin():
    # (A and B) or C: one auxiliary defining the conjunction
    p = prop_formula(FOr((FAnd((lit(1), lit(2))), lit(3))), 3)
    db = to_cnf(p)
    assert db.num_vars == 4 and list(db.aux_vars) == [4]
    expected = {
        frozenset({-4, 1}),
        frozenset({-4, 2}),
        frozenset({4, -1, -2}),
        frozenset({4, 3}),
    }
    assert {frozenset(c) for c in db.clauses} == expected


def test_cnf_false():
    db = to_cnf(prop_formula(FFalse(), 2))
    assert db.clauses == [()]


def test_cnf_true():
    db = to_cnf(prop_formula(FTrue(), 2))
    assert db.clauses == []


def test_cnf_constant_folding():
    p = prop_formula(FAnd((FOr((FTrue(), lit(1))), lit(2))), 2)
    db = to_cnf(p)
    assert {frozenset(c) for c in db.clauses} == {frozenset({2})}


# ---------------------------------------------------------------------------
# reference: the earlier pipeline, which copied the formula tree into a
# propositional tree of its own before negation normal form and Tseitin


class PNode:
    __slots__ = ()


@dataclass(frozen=True)
class PTrue(PNode):
    pass


@dataclass(frozen=True)
class PFalse(PNode):
    pass


@dataclass(frozen=True)
class PLit(PNode):
    lit: int


@dataclass(frozen=True)
class PNot(PNode):
    child: PNode


@dataclass(frozen=True)
class PAnd(PNode):
    children: tuple


@dataclass(frozen=True)
class POr(PNode):
    children: tuple


@dataclass(frozen=True)
class PImplies(PNode):
    left: PNode
    right: PNode


def _walk(node):
    if isinstance(node, FTrue):
        return PTrue()
    if isinstance(node, FFalse):
        return PFalse()
    if isinstance(node, FLit):
        var = node.lit.atom
        return PLit(var if node.lit.positive else -var)
    if isinstance(node, FNot):
        return PNot(_walk(node.child))
    if isinstance(node, FAnd):
        return PAnd(tuple(_walk(c) for c in node.children))
    if isinstance(node, FOr):
        return POr(tuple(_walk(c) for c in node.children))
    if isinstance(node, FImplies):
        return PImplies(_walk(node.left), _walk(node.right))
    raise TypeError(f"not a formula node: {node!r}")


def _reference_nnf(node, neg):
    if isinstance(node, PTrue):
        return PFalse() if neg else PTrue()
    if isinstance(node, PFalse):
        return PTrue() if neg else PFalse()
    if isinstance(node, PLit):
        return PLit(-node.lit) if neg else node
    if isinstance(node, PNot):
        return _reference_nnf(node.child, not neg)
    if isinstance(node, PImplies):
        return _reference_nnf(POr((PNot(node.left), node.right)), neg)
    conj = isinstance(node, PAnd) ^ neg
    gathered = []
    seen = set()
    for child in node.children:
        sub = _reference_nnf(child, neg)
        if isinstance(sub, PTrue):
            if not conj:
                return PTrue()
            continue
        if isinstance(sub, PFalse):
            if conj:
                return PFalse()
            continue
        subs = sub.children if isinstance(sub, PAnd if conj else POr) else (sub,)
        for s in subs:
            if s not in seen:
                seen.add(s)
                gathered.append(s)
    if not gathered:
        return PTrue() if conj else PFalse()
    if len(gathered) == 1:
        return gathered[0]
    return PAnd(tuple(gathered)) if conj else POr(tuple(gathered))


def reference_cnf(root, num_vars):
    """CNF of a formula tree as the earlier copying pipeline built it."""
    root = _reference_nnf(_walk(root), False)
    clauses = []
    defs = {}
    next_var = num_vars

    def add_clause(lits):
        seen = []
        for l in lits:
            if -l in seen:
                return
            if l not in seen:
                seen.append(l)
        clauses.append(tuple(sorted(seen, key=lambda l: (abs(l), l < 0))))

    def define(node):
        nonlocal next_var
        cached = defs.get(node)
        if cached is not None:
            return cached
        reps = [rep(c) for c in node.children]
        next_var += 1
        v = next_var
        defs[node] = v
        if isinstance(node, PAnd):
            for r in reps:
                add_clause([-v, r])
            add_clause([v] + [-r for r in reps])
        else:
            add_clause([-v] + reps)
            for r in reps:
                add_clause([v, -r])
        return v

    def rep(node):
        return node.lit if isinstance(node, PLit) else define(node)

    def emit_clause(or_node):
        add_clause([rep(c) for c in or_node.children])

    if isinstance(root, PFalse):
        clauses.append(())
    elif isinstance(root, PTrue):
        pass
    elif isinstance(root, PLit):
        add_clause([root.lit])
    elif isinstance(root, POr):
        emit_clause(root)
    else:
        for child in root.children:
            if isinstance(child, PLit):
                add_clause([child.lit])
            else:
                emit_clause(child)
    return st.ClauseDb(num_vars=next_var, num_atom_vars=num_vars, clauses=clauses)


def _shape(db):
    return db.num_vars, db.num_atom_vars, db.clauses


def _chain_texts():
    yield from map(real_chain_text, (6, 8, 10))
    yield from map(bool_chain_text, (100, 200, 400))


def test_cnf_matches_reference_pipeline():
    formulas = [st.random_formula(seed) for seed in range(205)]
    formulas += [st.random_nested_formula(seed, depth=4) for seed in range(205)]
    formulas += [st.parse_smt2(text) for text in _chain_texts()]
    assert len(formulas) == 416
    for f in formulas:
        prop, amap = st.boolean_abstract(f)
        assert amap is f.table
        assert _shape(to_cnf(prop)) == _shape(reference_cnf(f.root, len(f.table)))


# ---------------------------------------------------------------------------
# model-count preservation under projection


def _models(node, n):
    return {
        bits
        for bits in product((False, True), repeat=n)
        if evaluate_formula(node, dict(enumerate(bits, 1)))
    }


def _cnf_models(db):
    out = set()
    for bits in product((False, True), repeat=db.num_vars):
        ok = True
        for cl in db.clauses:
            if not any(bits[abs(l) - 1] == (l > 0) for l in cl):
                ok = False
                break
        if ok:
            out.add(bits)
    return out


@hst.composite
def fnodes(draw, depth=3, n_vars=4):
    if depth == 0:
        return lit(draw(hst.integers(1, n_vars)) * draw(hst.sampled_from((1, -1))))
    kind = draw(hst.sampled_from(("lit", "and", "or", "not", "implies", "const")))
    if kind == "lit":
        return lit(draw(hst.integers(1, n_vars)) * draw(hst.sampled_from((1, -1))))
    if kind == "const":
        return draw(hst.sampled_from((FTrue(), FFalse())))
    if kind == "not":
        return FNot(draw(fnodes(depth=depth - 1, n_vars=n_vars)))
    if kind == "implies":
        return FImplies(
            draw(fnodes(depth=depth - 1, n_vars=n_vars)),
            draw(fnodes(depth=depth - 1, n_vars=n_vars)),
        )
    children = tuple(
        draw(fnodes(depth=depth - 1, n_vars=n_vars))
        for _ in range(draw(hst.integers(1, 3)))
    )
    return FAnd(children) if kind == "and" else FOr(children)


@given(fnodes())
def test_tseitin_preserves_projected_models(root):
    n = 4
    p = prop_formula(root, n)
    db = to_cnf(p)
    assert _shape(db) == _shape(reference_cnf(root, n))
    assume(db.num_vars <= 12)  # keep the truth-table check tractable
    direct = _models(root, n)
    cnf_models = _cnf_models(db)
    projected = {m[:n] for m in cnf_models}
    assert projected == direct
    # auxiliaries are functionally determined: one extension per atom model
    assert len(cnf_models) == len(projected)


def test_dimacs_dump(gap01):
    prop, amap = st.boolean_abstract(gap01)
    db = to_cnf(prop)
    text = to_dimacs(db, amap)
    lines = text.splitlines()
    assert lines[0] == "c atom 1 leq 1*x 0"
    assert lines[1] == "c atom 2 leq -1*x 1"
    assert lines[2] == "c atom 3 bool A"
    assert lines[3] == "p cnf 3 2"
    assert lines[4:] == ["1 2 0", "1 3 0"]


@pytest.mark.parametrize(
    "text",
    [
        "(declare-const |x\ny| Bool)(declare-const A Bool)(assert (or |x\ny| A))",
        "(declare-const |x\u2028y| Real)(declare-const A Bool)(assert (or (< |x\u2028y| 0) A))",
    ],
)
def test_dimacs_refuses_a_name_no_line_can_hold(text):
    prop, amap = st.boolean_abstract(st.parse_smt2(text))
    with pytest.raises(ValueError, match="line break"):
        to_dimacs(to_cnf(prop), amap)


def test_dimacs_refuses_a_name_holding_a_bar():
    table = st.AtomTable()
    table.intern_bool("a|b")
    with pytest.raises(ValueError, match="holds a '[|]'"):
        to_dimacs(st.ClauseDb(1, 1, [(1,)]), table)


def test_clausedb_invariants():
    with pytest.raises(ValueError):
        st.ClauseDb(2, 2, [(1, 1)])
    with pytest.raises(ValueError):
        st.ClauseDb(2, 2, [(1, -1)])

import random
from fractions import Fraction
from functools import reduce
from itertools import combinations, product
from operator import or_

import pytest
from hypothesis import given, settings, strategies as hst

import smtrace as st
from smtrace import eager
from smtrace.frontend import EQ, AtomTable, LinTerm, normalize_comparison
from smtrace.lra import Point, check_feasible, literal_holds, witness_satisfies
from conftest import pipeline


def reference_cores(table, atom_ids, k):
    """Every literal set up to size k, by size, combination and polarity,
    with superset pruning: the enumerator before its bounds."""
    atoms = sorted(atom_ids)
    cores = []
    for size in range(1, min(k, len(atoms)) + 1):
        for combo in combinations(atoms, size):
            for pols in product((True, False), repeat=size):
                lits = frozenset(a if p else -a for a, p in zip(combo, pols))
                if any(core <= lits for core in cores):
                    continue
                if not eager.check_feasible(table, lits).sat:
                    cores.append(lits)
    return cores


def _connected(masks):
    """Whether atoms with these real-variable bit masks are connected through
    shared reals."""
    reach, rest = masks[0], masks[1:]
    while rest:
        near = [m for m in rest if m & reach]
        if not near:
            return False
        rest = [m for m in rest if not m & reach]
        for m in near:
            reach |= m
    return True


def one_smaller_calls(table, atom_ids):
    """check_feasible calls of an enumerator that tries candidates in the
    same order within the connectivity, Helly and convexity bounds, if a
    candidate could be decided feasible only at the audited point of a
    feasible subset one literal smaller (the origin at size 1)."""
    atoms = sorted(atom_ids)
    masks = {a: sum(1 << r for r in table.atom(a).term.real_vars) for a in atoms}
    calls, cores, points = 0, [], {frozenset(): Point()}
    for size in range(1, len(atoms) + 1):
        found = {}
        for combo in combinations(atoms, size):
            d = reduce(or_, (masks[a] for a in combo)).bit_count()
            if size > 2 * d + 1 or not _connected([masks[a] for a in combo]):
                continue
            for pols in product((True, False), repeat=size):
                lits = frozenset(a if p else -a for a, p in zip(combo, pols))
                negated_eqs = sum(1 for lit in lits if lit < 0 and table.atom(-lit).kind == EQ)
                if negated_eqs > 1 or (negated_eqs == 0 and size > d + 1) or any(c <= lits for c in cores):
                    continue
                subsets = [(lits - {lit}, lit) for lit in lits]
                point = next((points[sub] for sub, lit in subsets if sub in points and literal_holds(table, lit, points[sub])), None)
                if point is None:
                    calls += 1
                    result = check_feasible(table, lits)
                    if not result.sat:
                        cores.append(lits)
                        continue
                    point = result.witness
                found[lits] = point
        points = found
    return calls


def _cmp(table, op, coeffs, rhs=0):
    lhs = LinTerm.make({table.real_var(v): c for v, c in coeffs.items()})
    return normalize_comparison(table, op, lhs, LinTerm.constant(rhs)).signed


def _triangle_table():
    table = AtomTable()
    ids = [table.real_var(n) for n in ("x", "y", "z")]
    lits = [
        normalize_comparison(table, "<", LinTerm.make({ids[0]: 1}), LinTerm.make({ids[1]: 1})).signed,
        normalize_comparison(table, "<", LinTerm.make({ids[1]: 1}), LinTerm.make({ids[2]: 1})).signed,
        normalize_comparison(table, "<", LinTerm.make({ids[2]: 1}), LinTerm.make({ids[0]: 1})).signed,
    ]
    return table, lits


def test_cores_pair():
    table = AtomTable()
    x = table.real_var("x")
    a = normalize_comparison(table, "<=", LinTerm.make({x: 1}), LinTerm.constant(0)).signed
    b = normalize_comparison(table, ">=", LinTerm.make({x: 1}), LinTerm.constant(1)).signed
    cores = st.enumerate_infeasible_cores(table, [abs(a), abs(b)], k=2)
    assert cores == [frozenset({a, b})]


def test_cores_triangle():
    table, lits = _triangle_table()
    atoms = [abs(l) for l in lits]
    assert st.enumerate_infeasible_cores(table, atoms, k=2) == []
    cores = st.enumerate_infeasible_cores(table, atoms, k=3)
    assert cores == [frozenset(lits)]


def test_eager_encode_gap01(gap01):
    prop, amap = st.boolean_abstract(gap01)
    db = st.to_cnf(prop)
    encoded = st.eager_encode(db, amap)
    added = encoded.clauses[len(db.clauses):]
    assert added == [(-1, -2)]
    g = st.compile(encoded, amap, st.CompileConfig(mode="eager"))
    g_lazy = st.compile(db, amap, st.CompileConfig(mode="lazy"))
    assert st.count(g) == st.count(g_lazy) == 3


def test_eager_blocking_pair():
    f = st.parse_smt2("(declare-const x Real)(assert (or (<= x 0) (>= x 1)))")
    prop, amap = st.boolean_abstract(f)
    db = st.to_cnf(prop)
    encoded = st.eager_encode(db, amap)
    assert encoded.clauses[len(db.clauses):] == [(-1, -2)]
    assert st.count(st.compile(encoded, amap, st.CompileConfig(mode="eager"))) == 2


def test_eager_propositional_unchanged():
    f = st.parse_smt2("(declare-const A Bool)(declare-const B Bool)(assert (or A B))")
    prop, amap = st.boolean_abstract(f)
    db = st.to_cnf(prop)
    encoded = st.eager_encode(db, amap)
    assert encoded.clauses == db.clauses


def test_eager_blocks_cores_in_literal_order():
    """Blocking clauses follow the cores taken by atom, negative literal
    first: int order would put {2, -3} before {1, 2}."""
    f = st.parse_smt2("(declare-const x Real)(assert (or (<= x 0) (>= x 1) (>= x 0)))")
    prop, amap = st.boolean_abstract(f)
    db = st.to_cnf(prop)
    # cores {-1, -3}: x > 0, x < 0; {1, 2}: x <= 0, x >= 1; {2, -3}: x >= 1, x < 0
    assert st.eager_encode(db, amap).clauses[len(db.clauses):] == [(1, 3), (-1, -2), (-2, 3)]


def test_eager_gap_xy(gap_xy):
    prop, amap = st.boolean_abstract(gap_xy)
    db = st.to_cnf(prop)
    encoded = st.eager_encode(db, amap, k=3)
    added = encoded.clauses[len(db.clauses):]
    # the infeasible core holds two negated-atom literals, so the
    # blocking clause is (atom1 or atom2)
    assert (1, 2) in added
    assert st.count(st.compile(encoded, amap, st.CompileConfig(mode="eager"))) == 3


@settings(max_examples=25)
@given(hst.integers(0, 10_000))
def test_eager_k_monotone_and_bounded(seed):
    f = st.random_formula(seed, max_atoms=5, max_clauses=6)
    prop, amap = st.boolean_abstract(f)
    db = st.to_cnf(prop)
    agn, aware = st.brute_counts(f)
    n_linear = len(amap.linear_vars())
    prev = None
    for k in range(0, n_linear + 1):
        encoded = st.eager_encode(db, amap, k)
        c = st.count(st.compile(encoded, amap, st.CompileConfig(mode="eager")))
        assert aware <= c <= agn  # added clauses are theory-entailed
        if prev is not None:
            assert c <= prev  # monotone in k
        prev = c
    assert prev == aware  # complete at k = number of linear atoms


def _linear(formula):
    _, amap = st.boolean_abstract(formula)
    return amap, amap.linear_vars()


@pytest.mark.parametrize(
    "formula",
    [st.random_formula(s) for s in range(0, 40, 3)]
    + [st.random_nested_formula(s) for s in range(0, 40, 3)]
    + [st.random_formula(s, max_atoms=9) for s in range(1000, 1008)]
    + [st.random_formula(103)],  # the sweep's slowest eager instance, 8 linear atoms
)
def test_cores_match_reference(formula):
    amap, linear = _linear(formula)
    for k in (len(linear), 2):
        assert st.enumerate_infeasible_cores(amap, linear, k) == reference_cores(amap, linear, k)


@settings(max_examples=20)
@given(hst.integers(0, 10_000), hst.booleans())
def test_cores_match_reference_random(seed, nested):
    formula = st.random_nested_formula(seed) if nested else st.random_formula(seed, max_atoms=9)
    amap, linear = _linear(formula)
    assert st.enumerate_infeasible_cores(amap, linear, len(linear)) == reference_cores(amap, linear, len(linear))


def test_core_at_helly_limit():
    # d = 3 reals, d + 1 = 4 members, every 3 of them feasible
    table = AtomTable()
    lits = [
        _cmp(table, ">=", {"x": 1}),
        _cmp(table, ">=", {"y": 1}),
        _cmp(table, ">=", {"z": 1}),
        _cmp(table, "<", {"x": 1, "y": 1, "z": 1}),
    ]
    atoms = [abs(l) for l in lits]
    cores = st.enumerate_infeasible_cores(table, atoms, k=4)
    assert frozenset(lits) in cores
    assert cores == reference_cores(table, atoms, 4)
    assert frozenset(lits) not in st.enumerate_infeasible_cores(table, atoms, k=3)


def test_core_at_disequality_limit():
    # d = 1 real, 2d + 1 = 3 members: x <= 0 and x >= 0 entail x = 0
    table = AtomTable()
    lits = [_cmp(table, "<=", {"x": 1}), _cmp(table, ">=", {"x": 1}), _cmp(table, "distinct", {"x": 1})]
    atoms = [abs(l) for l in lits]
    cores = st.enumerate_infeasible_cores(table, atoms, k=3)
    assert cores == reference_cores(table, atoms, 3)
    assert frozenset(lits) in cores


def test_disconnected_parts_give_separate_cores():
    table = AtomTable()
    x_part = [_cmp(table, "<=", {"x": 1}), _cmp(table, ">=", {"x": 1}, 1)]
    y_part = [_cmp(table, "<=", {"y": 1}), _cmp(table, ">=", {"y": 1}, 1)]
    atoms = [abs(l) for l in x_part + y_part]
    cores = st.enumerate_infeasible_cores(table, atoms, k=4)
    assert cores == [frozenset(x_part), frozenset(y_part)] == reference_cores(table, atoms, 4)


def _equality_heavy_table(seed):
    """1-3 reals and 2-7 atoms, most of them equalities and disequalities."""
    rng = random.Random(seed)
    table = AtomTable()
    names = "xyz"[: rng.randint(1, 3)]
    size = rng.randint(2, 7)
    while len(table) < size:
        coeffs = {v: rng.randint(-2, 2) for v in names}
        if any(coeffs.values()):
            _cmp(table, rng.choice(("=", "=", "=", "distinct", "distinct", "<=", "<")), coeffs, rng.randint(-2, 2))
    return table


@pytest.mark.parametrize("seed", range(60))
def test_cores_match_reference_on_equality_heavy_tables(seed):
    table = _equality_heavy_table(seed)
    atoms = table.linear_vars()
    for k in (len(atoms), 3, 4):
        assert st.enumerate_infeasible_cores(table, atoms, k) == reference_cores(table, atoms, k)


def test_half_cores_may_hold_all_but_the_disequality():
    # x - y = 0 and y = 0 entail x = 0 with no inequality: each half-core of
    # x != 0 is both equalities, k - 1 literals of the core
    table = AtomTable()
    lits = [_cmp(table, "=", {"x": 1, "y": -1}), _cmp(table, "=", {"y": 1}), _cmp(table, "distinct", {"x": 1})]
    atoms = [abs(l) for l in lits]
    cores = st.enumerate_infeasible_cores(table, atoms, k=3)
    assert frozenset(lits) in cores
    assert cores == reference_cores(table, atoms, 3)
    assert st.enumerate_infeasible_cores(table, atoms, k=2) == []


def test_every_feasibility_check_refutes_a_core(monkeypatch):
    """Fourier-Motzkin only certifies: it runs once per core, never on a
    feasible candidate."""
    original = eager.check_feasible
    calls = 0

    def refuting(table, lits):
        nonlocal calls
        calls += 1
        result = original(table, lits)
        assert not result.sat, sorted(lits)
        return result

    monkeypatch.setattr(eager, "check_feasible", refuting)
    for seed in range(200):
        for formula in (st.random_formula(seed), st.random_nested_formula(seed)):
            amap, linear = _linear(formula)
            calls = 0
            cores = st.enumerate_infeasible_cores(amap, linear, len(linear))
            assert calls == len(cores)


def test_bounds_save_feasibility_checks(monkeypatch):
    amap, linear = _linear(st.random_formula(27))  # a sweep instance with 7 linear atoms
    assert len(linear) >= 7
    calls = 0
    original = eager.check_feasible

    def counting(table, lits):
        nonlocal calls
        calls += 1
        return original(table, lits)

    monkeypatch.setattr(eager, "check_feasible", counting)
    ref = reference_cores(amap, linear, len(linear))
    ref_calls, calls = calls, 0
    assert st.enumerate_infeasible_cores(amap, linear, len(linear)) == ref
    assert 0 < calls < one_smaller_calls(amap, linear) < ref_calls


def test_no_check_is_decided_by_an_audited_point(monkeypatch):
    """A candidate reaches check_feasible only if no point its enumeration
    has audited, the origin or an earlier witness, satisfies it."""
    original = eager.check_feasible
    points = []

    def auditing(table, lits):
        assert not any(witness_satisfies(table, lits, p) for p in points), sorted(lits)
        result = original(table, lits)
        if result.sat:
            points.append(result.witness)
        return result

    monkeypatch.setattr(eager, "check_feasible", auditing)
    for seed in range(200):
        for formula in (st.random_formula(seed), st.random_nested_formula(seed)):
            amap, linear = _linear(formula)
            points[:] = [Point()]
            st.enumerate_infeasible_cores(amap, linear, len(linear))

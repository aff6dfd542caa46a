import ast
import importlib
import inspect
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as hst

import smtrace as st
from smtrace.frontend import (
    AtomTable,
    FAnd,
    FFalse,
    FOr,
    FTrue,
    LinTerm,
    Literal,
    atom_to_str,
    canonical_eq,
    canonical_leq,
    normalize_comparison,
)
from smtrace.lra import literal_holds
from conftest import GAP_XY_SMT2, GAP01_SMT2, QUOTED_NAMES, evaluate, point_of, render


def term(table, coeffs, const=0):
    return LinTerm.make({table.real_var(k): Fraction(v) for k, v in coeffs.items()}, const)


# ---------------------------------------------------------------------------
# parsing


def test_parse_gap01_example(gap01):
    atoms = st.atoms_of(gap01)
    assert [a.id for a in atoms] == [1, 2, 3]
    # x <= 0, then 1 - x <= 0 (canonical form of x >= 1), then A
    assert atoms[0].kind == "leq" and dict(atoms[0].term.coeffs) == {0: 1} and atoms[0].term.const == 0
    assert atoms[1].kind == "leq" and dict(atoms[1].term.coeffs) == {0: -1} and atoms[1].term.const == 1
    assert atoms[2].kind == "bool" and atoms[2].name == "A"
    assert isinstance(gap01.root, FAnd) and len(gap01.root.children) == 2
    assert all(isinstance(c, FOr) for c in gap01.root.children)


def test_parse_assert_true():
    f = st.parse_smt2("(assert true)")
    assert isinstance(f.root, FTrue)
    assert st.atoms_of(f) == ()


def test_parse_nonlinear_product():
    with pytest.raises(st.UnsupportedFeatureError):
        st.parse_smt2("(declare-const x Real)(declare-const y Real)(assert (* x y))")


def test_parse_gap_xy_atoms(gap_xy):
    assert len(st.atoms_of(gap_xy)) == 3


def test_parse_errors():
    with pytest.raises(st.SmtSyntaxError):
        st.parse_smt2("(assert (and a)")  # unbalanced
    with pytest.raises(st.UndeclaredSymbolError):
        st.parse_smt2("(assert (<= x 0))")
    with pytest.raises(st.UnsupportedFeatureError):
        st.parse_smt2("(set-logic QF_LIA)")
    with pytest.raises(st.UnsupportedFeatureError):
        st.parse_smt2("(declare-const x Real)(assert (forall ((y Real)) (<= x y)))")
    with pytest.raises(st.UnsupportedFeatureError):
        st.parse_smt2("(declare-fun f (Real) Real)(assert true)")
    with pytest.raises(st.UnsupportedFeatureError):
        st.parse_smt2("(declare-const A Bool)(declare-const B Bool)(assert (= A B))")
    with pytest.raises(st.UnsupportedFeatureError):
        st.parse_smt2("(assert (let ((y 1)) true))")
    with pytest.raises(st.SmtSyntaxError):
        st.parse_smt2("(declare-const x Real)(assert (/ x 0))")


@pytest.mark.parametrize("text", ["(())", "((assert true))", "(() true)", "((declare-const x Real))"])
def test_parse_non_symbol_command_head(text):
    with pytest.raises(st.SmtSyntaxError, match="command head"):
        st.parse_smt2(text)


@pytest.mark.parametrize(
    "text",
    [
        "(" * 400 + ")" * 400,
        "(" * 5000 + ")" * 5000,
        "(set-logic " + "(a " * 300 + ")" * 300 + ")",
        "(declare-const (" + "a " * 1000 + ") Bool)",
        "(declare-const x Real)(assert " + "x" * 10_000 + ")",
        "(declare-const " + "q" * 10_000 + " Real)(assert " + "q" * 10_000 + ")",
    ],
    ids=["brackets400", "brackets5000", "logic", "symbol_list", "long_undeclared", "long_real_symbol"],
)
def test_parse_error_messages_are_bounded(text):
    with pytest.raises(st.SmtError) as info:
        st.parse_smt2(text)
    assert len(str(info.value)) <= 100


@pytest.mark.parametrize(
    "text",
    [
        "(assert ((A)))",
        "(declare-const A Bool)(assert (and ((A)) A))",
        "(declare-const x Real)(assert (<= ((x)) 0))",
    ],
    ids=["assert", "bool_arg", "real_arg"],
)
def test_parse_non_symbol_term_head(text):
    with pytest.raises(st.SmtSyntaxError, match="term head must be a symbol"):
        st.parse_smt2(text)


@pytest.mark.parametrize(
    "term, error, message",
    [
        ("(<= x)", st.SmtSyntaxError, "<= expects two arguments"),
        ("(= x)", st.SmtSyntaxError, "= expects two arguments"),
        ("(distinct x)", st.SmtSyntaxError, "distinct expects two arguments"),
        ("(<)", st.SmtSyntaxError, "< expects two arguments"),
        ("(<= x 0 1)", st.UnsupportedFeatureError, "chained <= comparison"),
        ("(distinct x 0 1)", st.UnsupportedFeatureError, "chained distinct comparison"),
    ],
    ids=["leq_one", "eq_one", "distinct_one", "lt_none", "leq_chained", "distinct_chained"],
)
def test_comparison_arity(term, error, message):
    """A comparison of fewer than two arguments is malformed; one of more
    is valid SMT-LIB outside the supported subset."""
    with pytest.raises(error, match=message) as info:
        st.parse_smt2(f"(declare-const x Real)(assert {term})")
    assert type(info.value) is error


def test_parse_rational_and_decimal_literals():
    f = st.parse_smt2("(declare-const x Real)(assert (<= (* 2 x) 0.5))")
    (atom,) = st.atoms_of(f)
    # 2x - 1/2 <= 0 scales to 4x - 1 <= 0
    assert dict(atom.term.coeffs) == {0: 4} and atom.term.const == -1
    g = st.parse_smt2("(declare-const x Real)(assert (<= x (/ 1 2)))")
    (atom2,) = st.atoms_of(g)
    assert dict(atom2.term.coeffs) == {0: 2} and atom2.term.const == -1


def test_atom_order_reads_implications_from_the_right():
    """Atoms are numbered in the order the parser meets them, and ``=>``
    converts its last argument first.  Stored models and weights go by atom
    id, so this order is part of the output."""
    text = """
    (declare-const A Bool)(declare-const B Bool)(declare-const x Real)(declare-const y Real)
    (assert (=> A (or B (<= x 0))))
    (assert (=> (<= y 1) (> y 0) (or A (> x 0))))
    """
    f = st.parse_smt2(text)
    assert [atom_to_str(a, f.table.real_names) for a in st.atoms_of(f)] == [
        "bool B",
        "leq 1*x 0",
        "bool A",
        "leq 1*y 0",
        "leq 1*y -1",
    ]
    assert f.table.real_names == ["x", "y"]


_CMP_HEADS = ("<", ">", "<=", ">=", "=", "distinct")


def _reference_order(text):
    """(leaves, reals) of ``text`` in the documented walk order: each
    assert's arguments left to right, except that an ``=>`` takes its last
    argument first and then the others from right to left.  A leaf is a
    Boolean symbol or a comparison, as text; reals are the Real symbols of
    the comparisons in the order met.  Read with a reader of its own."""
    stack = [[]]
    for tok in re.findall(r"[()]|[^\s()]+", text):
        if tok == "(":
            stack.append([])
        elif tok == ")":
            done = stack.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(tok)
    commands = stack[0]
    sorts = {c[1]: c[2] for c in commands if c[0] == "declare-const"}
    leaves, reals = [], []

    def show(e):
        return e if isinstance(e, str) else "(" + " ".join(map(show, e)) + ")"

    def symbols(e):
        return [e] if isinstance(e, str) else [s for a in e for s in symbols(a)]

    def walk(e):
        if isinstance(e, str):
            if e not in ("true", "false"):
                leaves.append(e)
            return
        head, args = e[0], e[1:]
        if head in _CMP_HEADS:
            leaves.append(show(e))
            reals.extend(s for s in symbols(args) if sorts.get(s) == "Real")
            return
        if head == "=>":
            args = [args[-1]] + args[-2::-1]
        for a in args:
            walk(a)

    for c in commands:
        if c[0] == "assert":
            walk(c[1])
    decls = "".join(show(c) for c in commands if c[0] == "declare-const")
    return decls, leaves, reals


def _atom_key(atom, names):
    """An atom by variable names, so that it reads the same whatever ids its
    reals got: an equality's row is taken with either sign."""
    if atom.kind == "bool":
        return ("bool", atom.name)
    row = tuple(sorted((names[v], c) for v, c in atom.term.coeffs)), atom.term.const
    if atom.kind == "eq":
        negated = tuple((n, -c) for n, c in row[0]), -row[1]
        row = min(row, negated)
    return (atom.kind, row)


def _expected_table(text):
    """The atom keys and real names the reference walk predicts, each
    leaf's atom found by parsing that leaf alone."""
    decls, leaves, reals = _reference_order(text)
    atoms = []
    for leaf in leaves:
        alone = st.parse_smt2(f"{decls}(assert {leaf})")
        for a in st.atoms_of(alone):  # none for a comparison of constants
            atoms.append(_atom_key(a, alone.table.real_names))
    return list(dict.fromkeys(atoms)), list(dict.fromkeys(reals))


_NESTED_IMPLICATIONS = [
    "(assert (=> A (or B (<= x 0))))",
    "(assert (=> (<= y 1) (> y 0) (or A (> x 0))))",
    "(assert (=> (=> A (< x y)) (=> B (and C (<= x 1)))))",
    "(assert (or (=> A (< x y)) (=> (> y 2) B C) (not (=> C (= x 3)))))",
    "(assert (not (=> (and A (<= x 0)) (or (= y 1) (distinct x y)) (=> B (>= (+ x y) 2) A))))",
    "(assert (and (=> C B A (<= (* 2 y) 1) (< x 0))))(assert (=> (> x 0) C))",
    "(assert (=> (<= x x) (or (=> (<= y 5) A) (< (- x y) 1)) (=> (=> B C) (> y 7))))",
]


@pytest.mark.parametrize("body", _NESTED_IMPLICATIONS)
def test_atom_order_matches_a_reference_walk_on_nested_implications(body):
    decls = "".join(f"(declare-const {v} Real)" for v in "xy")
    decls += "".join(f"(declare-const {v} Bool)" for v in "ABC")
    f = st.parse_smt2(decls + body)
    atoms, reals = _expected_table(decls + body)
    assert [_atom_key(a, f.table.real_names) for a in st.atoms_of(f)] == atoms
    assert f.table.real_names == reals


def test_atom_order_matches_a_reference_walk_on_rendered_nested_formulas():
    for seed in range(200):
        text = render(st, st.random_nested_formula(seed))
        f = st.parse_smt2(text)
        atoms, reals = _expected_table(text)
        assert [_atom_key(a, f.table.real_names) for a in st.atoms_of(f)] == atoms, seed
        assert f.table.real_names == reals, seed


def test_parse_determinism():
    for text in (GAP_XY_SMT2, GAP01_SMT2):
        f1, f2 = st.parse_smt2(text), st.parse_smt2(text)
        assert f1.root == f2.root
        assert st.atoms_of(f1) == st.atoms_of(f2)


def test_ignored_commands():
    f = st.parse_smt2('(set-info :source "somewhere")(declare-const A Bool)(assert A)(check-sat)(exit)')
    assert len(st.atoms_of(f)) == 1


@pytest.mark.parametrize("name", QUOTED_NAMES)
def test_quoted_symbols(name):
    """A quoted symbol is a symbol whatever it spells, even a parenthesis,
    and ``|x|`` names the same symbol as ``x``."""
    plain = name if name == "x" else f"|{name}|"
    f = st.parse_smt2(f"(declare-const |{name}| Bool)(assert (or {plain} |{name}|)) ; comment")
    assert [a.name for a in st.atoms_of(f)] == [name]
    assert st.brute_counts(f) == (1, 1)


@pytest.mark.parametrize(
    "decl",
    [
        "(declare-const true Bool)",
        "(declare-const false Bool)",
        "(declare-const |true| Bool)",
        "(declare-const |1| Real)",
        "(declare-const 2.5 Real)",
        "(declare-const -3 Real)",
        "(declare-fun |0.0| () Bool)",
    ],
)
def test_a_name_that_reads_as_a_constant_cannot_be_declared(decl):
    """Every use of such a name would read the constant, so the declared
    symbol could never be used."""
    with pytest.raises(st.SmtSyntaxError, match="reads as a constant"):
        st.parse_smt2(decl + "(assert true)")


@pytest.mark.parametrize(
    "text, message",
    [
        ('(assert "abc)', "unterminated string literal"),
        ("(assert |x)", "unterminated quoted symbol"),
        ('(assert |x "y")', "unterminated quoted symbol"),
        ('(assert "x |y|)', "unterminated string literal"),
    ],
)
def test_unterminated_tokens(text, message):
    with pytest.raises(st.SmtSyntaxError, match=message):
        st.parse_smt2(text)


# ---------------------------------------------------------------------------
# normalize_comparison


def test_normalize_scaling():
    table = AtomTable()
    lit = normalize_comparison(table, "<=", term(table, {"x": 2}), LinTerm.constant(4))
    assert lit.positive
    atom = table.atom(lit.atom)
    assert dict(atom.term.coeffs) == {0: 1} and atom.term.const == -2


def test_normalize_strict_flip():
    table = AtomTable()
    # x < y - 1 becomes the negation of (y - x - 1 <= 0), i.e. not(y <= x + 1)
    lit = normalize_comparison(table, "<", term(table, {"x": 1}), term(table, {"y": 1}, -1))
    assert not lit.positive
    atom = table.atom(lit.atom)
    assert dict(atom.term.coeffs) == {table.real_var("x"): -1, table.real_var("y"): 1}
    assert atom.term.const == -1


def test_normalize_degenerate_diseq():
    """A comparison between constants is its truth value."""
    table = AtomTable()
    x = term(table, {"x": 1})
    assert normalize_comparison(table, "!=", x, x) is False
    assert normalize_comparison(table, "=", x, x) is True
    assert normalize_comparison(table, "<=", LinTerm.constant(0), LinTerm.constant(1)) is True
    assert normalize_comparison(table, "<", LinTerm.constant(3), LinTerm.constant(3)) is False
    assert normalize_comparison(table, ">", x, term(table, {"x": 1}, -1)) is True
    assert len(table) == 0  # constant comparisons never intern atoms


def test_parser_folds_constant_comparisons():
    assert st.parse_smt2("(assert (<= 0 1))").root == FTrue()
    assert st.parse_smt2("(assert (< 3 3))").root == FFalse()
    f = st.parse_smt2("(declare-const x Real)(assert (or (distinct x x) (< 3 3)))")
    assert f.root == FOr((FFalse(), FFalse())) and len(f.table) == 0


def test_merged_atoms_share_id():
    table = AtomTable()
    a = normalize_comparison(table, "<=", term(table, {"x": 2}), LinTerm.constant(4))
    b = normalize_comparison(table, ">=", LinTerm.constant(2), term(table, {"x": 1}))
    c = normalize_comparison(table, ">", term(table, {"x": 1}), LinTerm.constant(2))
    assert a.atom == b.atom == c.atom
    assert a.positive and b.positive and not c.positive


def test_a_repeated_comparison_parses_as_its_first_occurrence():
    """A repeat is read back from the first parse; spelled differently it is
    converted again, and both give one formula over one atom table."""
    decls = "(declare-const x Real)(declare-const y Real)(declare-const A Bool)"
    first = "(assert (or (<= x 0) (< y x) A))"
    repeated = st.parse_smt2(decls + first + "(assert (or (< y x) (not A) (<= x 0) (>= y 1)))")
    respelled = st.parse_smt2(decls + first + "(assert (or (> x y) (not A) (<= (* 1 x) 0) (>= y 1)))")
    assert repeated.root == respelled.root
    assert repeated.table.atoms == respelled.table.atoms
    assert repeated.table.real_names == respelled.table.real_names


def test_negation_involution():
    table = AtomTable()
    lit = normalize_comparison(table, "<", term(table, {"x": 1}), LinTerm.constant(0))
    assert lit.negated().negated() == lit
    assert lit.negated() != lit and lit.negated().atom == lit.atom


@given(hst.integers(1, 50), hst.booleans())
def test_literal_signed_round_trips(atom, positive):
    lit = Literal(atom, positive)
    assert lit.signed == (atom if positive else -atom)
    assert Literal(abs(lit.signed), lit.signed > 0) == lit
    assert lit.negated().signed == -lit.signed


@pytest.mark.parametrize("module", ["lra", "compiler", "eager", "oracle", "ddnnf"])
def test_theory_side_speaks_signed_ints(module):
    """Past the parser a literal is a signed atom id: the theory side neither
    imports ``Literal`` nor finds it in its namespace."""
    mod = importlib.import_module(f"smtrace.{module}")
    tree = ast.parse(inspect.getsource(mod))
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert "Literal" not in imported and not hasattr(mod, "Literal")


def test_atom_rejects_ids_outside_the_table():
    table = AtomTable()
    a, b = table.intern_bool("A"), table.intern_bool("B")
    c = table.intern_linear("leq", term(table, {"x": 1}))
    assert [table.atom(a).name, table.atom(b).name, table.atom(c).kind] == ["A", "B", "leq"]
    for bad in (0, -1, -2, 4):  # atoms[-2 - 1] would be atom 1
        with pytest.raises(IndexError):
            table.atom(bad)


# ---------------------------------------------------------------------------
# properties

_coeff = hst.fractions(min_value=-5, max_value=5, max_denominator=6)


@hst.composite
def linterms(draw, min_vars=0):
    n = draw(hst.integers(min_value=min_vars, max_value=3))
    coeffs = {v: draw(_coeff) for v in range(n)}
    return LinTerm.make(coeffs, draw(_coeff))


@given(linterms(min_vars=1))
def test_canonical_leq_idempotent(t):
    canon = canonical_leq(t)
    if not isinstance(canon, bool):
        assert canonical_leq(canon) == canon


@given(linterms(min_vars=1))
def test_canonical_eq_idempotent(t):
    canon = canonical_eq(t)
    if not isinstance(canon, bool):
        assert canonical_eq(canon) == canon
        assert canon.coeffs[0][1] > 0


def test_semantic_preservation_sweep():
    """1000 random comparisons, each checked on 100 random rational points."""
    rng = random.Random(20240811)
    ops = ("<", ">", "<=", ">=", "=", "!=")
    table = AtomTable()
    for v in ("x", "y", "z"):
        table.real_var(v)

    def rand_term():
        coeffs = {v: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for v in range(3)}
        return LinTerm.make(coeffs, Fraction(rng.randint(-6, 6), rng.randint(1, 3)))

    for _ in range(1000):
        op = rng.choice(ops)
        lhs, rhs = rand_term(), rand_term()
        lit = normalize_comparison(table, op, lhs, rhs)
        for _ in range(100):
            point = point_of({v: Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for v in range(3)})
            lv, rv = evaluate(lhs, point), evaluate(rhs, point)
            expected = {
                "<": lv < rv,
                ">": lv > rv,
                "<=": lv <= rv,
                ">=": lv >= rv,
                "=": lv == rv,
                "!=": lv != rv,
            }[op]
            if isinstance(lit, bool):
                assert lit == expected
            else:
                assert literal_holds(table, lit.signed, point) == expected


def _random_real_term(rng, depth, reals=("x", "y", "z")):
    """(SMT-LIB text, value at a point) of a random linear Real term over
    ``reals``; with no reals the term is a constant."""
    kind = rng.choice(("num", "var") if depth == 0 else ("num", "var", "+", "-", "*", "/"))
    if kind == "var" and reals:
        name = rng.choice(reals)
        return name, lambda p: p[name]
    if kind in ("num", "var"):
        text = rng.choice((str(rng.randint(0, 12)), f"{rng.randint(0, 9)}.{rng.randint(0, 99):02d}"))
        value = Fraction(text)
        return text, lambda p: value
    if kind in ("+", "-"):
        args = [_random_real_term(rng, depth - 1, reals) for _ in range(rng.randint(1, 3))]
        text = f"({kind} {' '.join(t for t, _ in args)})"
        if kind == "+":
            return text, lambda p: sum(f(p) for _, f in args)
        if len(args) == 1:
            return text, lambda p: -args[0][1](p)
        return text, lambda p: args[0][1](p) - sum(f(p) for _, f in args[1:])
    if kind == "*":  # one factor may mention reals, the others are constants
        args = [_random_real_term(rng, depth - 1, reals)]
        args += [_random_real_term(rng, depth - 1, ()) for _ in range(rng.randint(1, 2))]
        rng.shuffle(args)
        text = f"(* {' '.join(t for t, _ in args)})"

        def product(p):
            out = Fraction(1)
            for _, f in args:
                out *= f(p)
            return out

        return text, product
    num, num_value = _random_real_term(rng, depth - 1, reals)
    den, den_value = _random_real_term(rng, depth - 1, ())
    if den_value(None) == 0:
        den, den_value = "(- 7)", lambda p: Fraction(-7)
    return f"(/ {num} {den})", lambda p: num_value(p) / den_value(p)


@given(hst.integers(0, 10_000))
def test_parser_term_conversion_matches_a_fraction_reference(seed):
    """Random comparisons over + - * / with integer and decimal numerals:
    each parsed literal holds exactly where the text's Fraction value says,
    and every atom is a primitive integer row."""
    rng = random.Random(seed)
    ops = {
        "<": Fraction.__lt__,
        ">": Fraction.__gt__,
        "<=": Fraction.__le__,
        ">=": Fraction.__ge__,
        "=": Fraction.__eq__,
        "distinct": Fraction.__ne__,
    }
    for _ in range(5):
        op = rng.choice(sorted(ops))
        (lhs, lhs_value), (rhs, rhs_value) = (_random_real_term(rng, 3) for _ in range(2))
        f = st.parse_smt2(
            "(declare-const x Real)(declare-const y Real)(declare-const z Real)"
            f"(assert ({op} {lhs} {rhs}))"
        )
        for atom in st.atoms_of(f):
            entries = [c for _, c in atom.term.coeffs] + [atom.term.const]
            assert all(type(c) is int for c in entries) and atom.term.den == 1
            assert math.gcd(*entries) == 1
        names = f.table.real_names
        for _ in range(10):
            values = {n: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for n in ("x", "y", "z")}
            if rng.random() < 0.3:
                values = {n: Fraction(0) for n in values}
            expected = ops[op](Fraction(lhs_value(values)), Fraction(rhs_value(values)))
            if isinstance(f.root, (FTrue, FFalse)):
                assert isinstance(f.root, FTrue) == expected
            else:
                point = point_of({rid: values[n] for rid, n in enumerate(names)})
                assert literal_holds(f.table, f.root.lit.signed, point) == expected

"""Fuzzing the two text readers: malformed input may only raise their own
error types, never a bare Python exception."""

import pytest
from hypothesis import given, settings, strategies as hst

import smtrace as st
from smtrace.ddnnf import FormatError, export_nnf, import_nnf

SMT_TOKENS = [
    "(", ")", "(", ")", "assert", "declare-const", "declare-fun", "set-logic", "QF_LRA",
    "check-sat", "Real", "Bool", "Int", "x", "y", "A", "and", "or", "not", "=>", "=",
    "distinct", "<=", "<", ">=", ">", "+", "-", "*", "/", "let", "ite", "0", "1", "-2",
    "3.5", "1/2", ".", "00", "|q|", "true", "false", ";c\n", "\"s\"", "\u00b2", "9" * 5000,
    "|(|", "|)|", "|a b|", "|;|", "|x",
]

NNF_TOKENS = ["nnf", "L", "A", "O", "0", "1", "2", "3", "-1", "-4", "x", "\n", "\n", "\n"]
ATOM_TOKENS = [
    "1", "2", "3", "0", "-1", "leq", "eq", "bool", "1*x", "-2*y", "0*x", "*", "a*x", "3/2*x",
    "5", "-7", "c", "implied", "tagged", "\n", "\n", "\n",
]


def _joined(tokens):
    return hst.lists(hst.sampled_from(tokens), max_size=40).map(" ".join)


@settings(max_examples=300)
@given(hst.one_of(hst.text(max_size=60), _joined(SMT_TOKENS)))
def test_parse_smt2_raises_only_smt_errors(text):
    try:
        st.parse_smt2(text)
    except st.SmtError:
        pass


@pytest.mark.parametrize(
    "text",
    [
        "(declare-const x Real)(assert (<= x \u00b2))",  # a superscript digit
        "(declare-const x Real)(assert (<= x \u0663))",  # an Arabic-Indic three
        "(declare-const x Real)(assert (<= x \uff13))",  # a fullwidth three
        "(declare-const x Real)(assert (<= x " + "9" * 5000 + "))",  # beyond int()'s digit limit
        "(" * 100_000 + ")" * 100_000,
    ],
)
def test_parse_smt2_bad_numerals_and_deep_nesting(text):
    with pytest.raises(st.SmtError):
        st.parse_smt2(text)


@pytest.mark.parametrize(
    "text",
    [
        "(declare-const A Bool)(assert " + "(not " * 3000 + "A" + ")" * 3001,
        "(declare-const x Real)(assert (<= " + "(+ 1 " * 3000 + "x" + ")" * 3000 + " 0))",
    ],
    ids=["not", "sum"],
)
def test_deep_terms_parse_compile_and_count(text):
    """Nesting within the reader's bound converts: 3000 negations of A are
    A, and 3000 additions of 1 to x make the one atom x + 3000 <= 0."""
    f = st.parse_smt2(text)
    assert len(f.table) == 1
    prop, amap = st.boolean_abstract(f)
    assert st.count(st.compile(st.to_cnf(prop), amap)) == 1


def test_parse_smt2_refuses_nesting_past_the_reader_bound():
    """The reader refuses more than 10,000 open parentheses.  That is a
    bound on the input text alone: the parser and the converters walk on
    explicit stacks, so no depth within it, or past it, needs the bound to
    stay safe."""
    deep = "(+ 1 " * 200_000 + "x" + ")" * 200_000
    with pytest.raises(st.UnsupportedFeatureError, match="nested too deeply"):
        st.parse_smt2(f"(declare-const x Real)(assert (<= {deep} 0))")
    with pytest.raises(st.UnsupportedFeatureError, match="nested too deeply"):
        st.parse_smt2("(set-info :source " + "(" * 10_000 + ")" * 10_000 + ")")
    st.parse_smt2("(set-info :source " + "(" * 9_999 + ")" * 9_999 + ")")  # ignored, at the bound


def test_parse_smt2_nesting_within_the_limit():
    f = st.parse_smt2("(declare-const x Real)(assert " + "(or (<= x 0) " * 300 + "(<= x 1)" + ")" * 301)
    prop, amap = st.boolean_abstract(f)
    assert st.count(st.compile(st.to_cnf(prop), amap)) == 2


@settings(max_examples=300)
@given(hst.one_of(hst.text(max_size=60), _joined(NNF_TOKENS)), hst.one_of(hst.text(max_size=40), _joined(ATOM_TOKENS)))
def test_import_nnf_raises_only_format_errors(nnf_text, atoms_text):
    try:
        import_nnf(nnf_text, atoms_text)
    except FormatError:
        pass


@settings(max_examples=100)
@given(hst.integers(0, 10_000), hst.data())
def test_import_nnf_mutated_export(seed, data):
    """One changed token in a real export gives a graph or a FormatError."""
    graph, amap = _compiled(seed)
    nnf_text, atoms_text = export_nnf(graph, amap)
    in_nnf = data.draw(hst.booleans())
    tokens = (nnf_text if in_nnf else atoms_text).split(" ")
    i = data.draw(hst.integers(0, len(tokens) - 1))
    tokens[i] = data.draw(hst.sampled_from(NNF_TOKENS + ATOM_TOKENS + [""]))
    mutated = " ".join(tokens)
    try:
        import_nnf(mutated, atoms_text) if in_nnf else import_nnf(nnf_text, mutated)
    except FormatError:
        pass


def _compiled(seed):
    f = st.random_formula(seed, max_atoms=4, max_clauses=4)
    prop, amap = st.boolean_abstract(f)
    return st.compile(st.to_cnf(prop), amap), amap

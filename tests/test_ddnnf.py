import itertools
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, strategies as hst

import smtrace as st
from smtrace import ddnnf
from smtrace.ddnnf import KAND, KFALSE, KLIT, KOR, KTRUE, GraphBuilder
from conftest import QUOTED_NAMES, bool_chain, pipeline


def or_both(builder, var):
    return builder.or_node(var, builder.lit(var), builder.lit(-var))


@pytest.fixture
def single_or():
    b = GraphBuilder(1, 1)
    return b.finish(or_both(b, 1), None, has_tags=False)


_sparse_masks = hst.sets(hst.integers(0, 900), max_size=8).map(lambda vs: sum(1 << v for v in vs))


@given(hst.one_of(hst.integers(0, 1 << 900), _sparse_masks))
def test_variables_of_lists_the_set_bits_in_order(mask):
    """Sparse masks take the bit-at-a-time path, dense ones the digits."""
    assert ddnnf.variables_of(mask) == [v for v in range(mask.bit_length()) if mask >> v & 1]


# ---------------------------------------------------------------------------
# count


def test_count_or(single_or):
    assert st.count(single_or) == 2


def test_count_false():
    b = GraphBuilder(1, 1)
    g = b.finish(b.false_id, None, has_tags=False)
    assert st.count(g) == 0


def test_count_gap_xy(gap_xy):
    g, _, _ = pipeline(gap_xy)
    assert st.count(g) == 3


def test_count_rejects_non_total():
    b = GraphBuilder(2, 2)
    g = b.finish(b.or_node(1, b.lit(1), b.and_node([b.lit(-1), b.lit(2)])), None, False)
    with pytest.raises(st.NotTotalError):
        st.count(g)


QUERIES = (
    ("count", st.count),
    ("weighted_count", lambda g: st.weighted_count(g, st.WeightMap())),
    ("enumerate_models", st.enumerate_models),
)


@pytest.mark.parametrize("name, query", QUERIES)
def test_totality_gate_runs_once_per_graph(name, query, gap_xy, monkeypatch):
    g, _, _ = pipeline(gap_xy)
    calls = []
    original = ddnnf._scope_violation

    def counted(*args):
        calls.append(args[1])
        return original(*args)

    monkeypatch.setattr(ddnnf, "_scope_violation", counted)
    first = query(g)
    assert len(calls) == len(g.nodes)
    for _ in range(2):
        assert query(g) == first
    assert len(calls) == len(g.nodes)


def test_count_keeps_little_scope_data_alive():
    """The gate's cached scopes are bitmasks; one frozenset per node kept
    tens of MB alive here."""
    db, amap = bool_chain(800)
    g = st.compile(db, amap, st.CompileConfig())
    tracemalloc.start()
    try:
        st.count(g)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g._scopes is not None
    assert kept < 1_000_000


@pytest.mark.parametrize("name, query", QUERIES)
def test_non_total_graph_raises_on_every_query(name, query):
    b = GraphBuilder(2, 2)
    g = b.finish(b.or_node(1, b.lit(1), b.and_node([b.lit(-1), b.lit(2)])), None, False)
    for _ in range(3):
        with pytest.raises(st.NotTotalError):
            query(g)


def test_count_ignores_auxiliaries():
    # var 2 is auxiliary: Or over it sums atom-projected counts
    b = GraphBuilder(2, 1)
    left = b.and_node([b.lit(2), b.lit(1)])
    right = b.and_node([b.lit(-2), b.lit(-1)])
    g = b.finish(b.or_node(2, left, right), None, False)
    assert st.count(g) == 2


# ---------------------------------------------------------------------------
# weighted count


def test_weighted_normalized(single_or):
    w = st.WeightMap()
    w.set(1, True, Fraction(1, 2))
    w.set(1, False, Fraction(1, 2))
    assert st.weighted_count(single_or, w) == 1


def test_weighted_unit_equals_count(gap_xy):
    g, _, _ = pipeline(gap_xy)
    assert st.weighted_count(g, st.WeightMap()) == st.count(g) == 3


def test_weighted_product():
    b = GraphBuilder(2, 2)
    g = b.finish(b.and_node([b.lit(1), b.lit(2)]), None, False)
    w = st.WeightMap()
    w.set(1, True, 2)
    w.set(2, True, 3)
    assert st.weighted_count(g, w) == 6


# mixed denominators; the positive literals of variables 6, 12, ... weigh 0,
# and the negative literals of variables 3, 7, 11, ... have no weight
WEIGHTS = (Fraction(0), Fraction(1), Fraction(1, 3), Fraction(2, 7), Fraction(5, 2), Fraction(3, 10))


def mixed_weights(num_vars):
    w = st.WeightMap()
    for v in range(1, num_vars + 1):
        w.set(v, True, WEIGHTS[v % len(WEIGHTS)])
        if v % 4 != 3:
            w.set(v, False, WEIGHTS[1 + v % (len(WEIGHTS) - 1)])
    return w


@pytest.fixture(scope="module")
def sweep_with_models():
    """(graph, brute-force models) for lazy and eager graphs of sweep seeds
    0-49 of both generators."""
    out = []
    for seed in range(50):
        for f in (st.random_formula(seed), st.random_nested_formula(seed)):
            models = st.brute_enumerate(f)
            for mode in ("lazy", "eager"):
                out.append((pipeline(f, mode=mode)[0], models))
    return out


def test_weighted_count_equals_brute_force_sum(sweep_with_models):
    for g, models in sweep_with_models:
        w = mixed_weights(g.num_atom_vars)
        expected = Fraction(0)
        for model in models:
            term = Fraction(1)
            for var, val in model.items():
                term *= w.weights.get(var if val else -var, 1)
            expected += term
        assert st.weighted_count(g, w) == expected


def test_unit_weights_equal_count(sweep_with_models):
    for g, models in sweep_with_models:
        assert st.weighted_count(g, st.WeightMap()) == st.count(g) == len(models)


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_gap_xy(gap_xy):
    g, _, _ = pipeline(gap_xy)
    # every input comparison is strict, so each is the negation of its atom
    as_b = {(not m[1], not m[2], not m[3]) for m in st.enumerate_models(g)}
    expected = {(False, True, True), (False, True, False), (True, False, True)}
    assert as_b == expected


def test_enumerate_false():
    b = GraphBuilder(1, 1)
    g = b.finish(b.false_id, None, False)
    assert st.enumerate_models(g) == []


def test_enumerate_cap(single_or):
    assert len(st.enumerate_models(single_or, cap=1)) == 1


def test_enumerate_matches_count(gap_xy, gap01):
    for f in (gap_xy, gap01):
        for mode in ("lazy", "agnostic"):
            g, _, _ = pipeline(f, mode=mode)
            models = st.enumerate_models(g)
            assert len(models) == st.count(g)
            assert len({tuple(sorted(m.items())) for m in models}) == len(models)


def reference_models(g, cap=None):
    """Recursive generators that merge a dict at every And level: the
    enumerator before its explicit stacks."""
    st.count(g)  # the same totality gate

    def gen(nid):
        node = g.nodes[nid]
        if node.kind == KTRUE:
            yield {}
        elif node.kind == KLIT:
            var = abs(node.lit)
            yield {var: node.lit > 0} if var <= g.num_atom_vars else {}
        elif node.kind == KOR:
            for c in node.children:
                yield from gen(c)
        elif node.kind == KAND:

            def product(children):
                if not children:
                    yield {}
                    return
                for head in gen(children[0]):
                    for rest in product(children[1:]):
                        merged = dict(head)
                        merged.update(rest)
                        yield merged

            yield from product(node.children)
        else:
            assert node.kind == KFALSE

    it = gen(g.root)
    if cap is not None:
        it = itertools.islice(it, cap)
    return list(it)


def _sweep_graphs():
    for seed in (0, 3, 7, 11, 19, 42):
        for f in (st.random_formula(seed), st.random_nested_formula(seed)):
            for mode in ("lazy", "agnostic"):
                yield pipeline(f, mode=mode)[0]


def test_enumerate_matches_reference_on_sweep():
    for g in _sweep_graphs():
        for cap in (None, 1, 7):
            models = st.enumerate_models(g, cap=cap)
            assert [dict(m) for m in models] == reference_models(g, cap)


@pytest.mark.parametrize("n", [50, 100])
def test_enumerate_matches_reference_on_chain(n):
    db, amap = bool_chain(n)
    g = st.compile(db, amap, st.CompileConfig())
    # the chain has Fibonacci-many models, so every call is capped
    for cap in (1, 7, 1000):
        models = st.enumerate_models(g, cap=cap)
        assert len(models) == cap
        assert [dict(m) for m in models] == reference_models(g, cap)


def test_enumerate_deep_chain_within_recursion_limit():
    db, amap = bool_chain(400)
    g = st.compile(db, amap, st.CompileConfig())
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        models = st.enumerate_models(g, cap=1000)
    finally:
        sys.setrecursionlimit(limit)
    assert len(models) == 1000
    assert len({tuple(m.values()) for m in models}) == 1000
    for m in models:
        assert sorted(m) == list(range(1, 401))
        assert all(m[i] or m[i + 1] for i in range(1, 400))


def test_model_is_a_read_only_mapping(gap01):
    g, _, _ = pipeline(gap01)
    models = st.enumerate_models(g)
    assert len(models) == st.count(g) == 3
    atoms = list(range(1, g.num_atom_vars + 1))
    missing = g.num_atom_vars + 1
    for m in models:
        d = dict(m)
        assert m == d and d == m
        assert len(m) == len(d) == len(atoms)
        assert sorted(m) == atoms
        assert sorted(m.items()) == sorted(d.items())
        assert all(m[v] is d[v] and isinstance(m[v], bool) for v in d)
        assert missing not in m and m.get(missing) is None
        with pytest.raises(KeyError):
            m[missing]
        with pytest.raises(TypeError):
            m[1] = True
    assert models[0] != models[1]


def test_enumerate_true_and_cap_zero(single_or):
    b = GraphBuilder(0, 0)
    assert [dict(m) for m in st.enumerate_models(b.finish(b.true_id, None, False))] == [{}]
    assert st.enumerate_models(single_or, cap=0) == []


# ---------------------------------------------------------------------------
# validation


def test_validate_decomposability_violation():
    b = GraphBuilder(1, 1)
    g = b.finish(b.and_node([b.lit(1), b.lit(1)]), None, False)
    report = st.validate(g)
    assert any(v.kind == "decomposability" for v in report.violations)

    b = GraphBuilder(1, 1)
    g = b.finish(b.and_node([b.lit(1), or_both(b, 1)]), None, False)
    assert any(v.kind == "decomposability" for v in st.validate(g).violations)


def test_validate_determinism_violation():
    b = GraphBuilder(2, 2)
    left = b.and_node([b.lit(1), b.lit(2)])
    right = b.and_node([b.lit(1), b.lit(-2)])
    g = b.finish(b.or_node(1, left, right), None, False)
    report = st.validate(g)
    assert any(v.kind == "determinism" for v in report.violations)


def test_validate_agnostic_gap_xy_theory(gap_xy):
    g, _, _ = pipeline(gap_xy, mode="agnostic")
    report = st.validate(g, level="theory", table=gap_xy.table)
    assert len(report.violations) == 1
    (violation,) = report.violations
    # the one bad captured assignment: all strict comparisons true (atoms false)
    assert violation.assignment == ((1, False), (2, False), (3, False))


def test_validate_lazy_gap_xy_clean(gap_xy):
    g, _, _ = pipeline(gap_xy)
    assert st.validate(g, level="theory", table=gap_xy.table).ok


def test_validate_or_inference_without_decision():
    nnf = "nnf 3 2 1\nL 1\nL -1\nO 0 2 0 1\n"
    atoms = "1 bool a\n"
    g, _ = st.import_nnf(nnf, atoms)
    assert st.validate(g).ok


def random_graph(rng):
    """A GraphBuilder graph over atom variables 1-4 and auxiliaries 5-6,
    with And children that may share atoms (or be the same node), Or
    children whose scopes may differ and Or nodes with no decision."""
    b = GraphBuilder(6, 4)
    pool = [b.lit(v if rng.random() < 0.5 else -v) for v in range(1, 7)]
    pool += [b.true_id, b.false_id]
    for _ in range(rng.randint(1, 10)):
        if rng.random() < 0.5:
            pool.append(b.and_node(rng.choices(pool, k=rng.randint(2, 3))))
        else:
            var = rng.randint(1, 6)
            hi = b.and_node([b.lit(var), rng.choice(pool)])
            lo = b.and_node([b.lit(-var), rng.choice(pool)])
            pool.append(b.or_node(rng.choice([0, var]), hi, lo))
    return b.finish(pool[-1], None, False)


def reference_violations(g):
    """validate's structural report, recomputed on frozenset scopes."""
    scopes = []
    for node in g.nodes:
        if node.kind == KLIT and abs(node.lit) <= g.num_atom_vars:
            scopes.append(frozenset([abs(node.lit)]))
        else:
            scopes.append(frozenset().union(*(scopes[c] for c in node.children)))
    out = []
    for nid, node in enumerate(g.nodes):
        if node.kind == KOR:
            hi, lo = node.children
            candidates = [node.decision] if node.decision else sorted(scopes[hi] & scopes[lo])
            pols = [[ddnnf._top_level_polarity(g, c, var) for c in (hi, lo)] for var in candidates]
            if not any(None not in p and p[0] != p[1] for p in pols):
                out.append(("determinism", nid, None))
            if scopes[hi] != scopes[lo]:
                out.append(("totality", nid, None))
        elif node.kind == KAND:
            seen = frozenset()
            for c in node.children:
                if seen & scopes[c]:
                    out.append(("decomposability", nid, f"And children share atoms {sorted(seen & scopes[c])}"))
                    break
                seen |= scopes[c]
    return out, scopes[g.root]


def test_mask_scopes_match_a_frozenset_reference():
    kinds = set()
    for seed in range(400):
        g = random_graph(random.Random(seed))
        expected, root_scope = reference_violations(g)
        got = [
            (v.kind, v.node, v.message if v.kind == "decomposability" else None)
            for v in st.validate(g).violations
        ]
        assert got == expected, seed
        kinds.update(kind for kind, _, _ in expected)
        if any(kind in ("totality", "decomposability") for kind, _, _ in expected):
            with pytest.raises(st.NotTotalError):
                st.count(g)
        else:
            models = st.enumerate_models(g)
            assert st.count(g) == len(models)
            assert all(list(m) == sorted(root_scope) for m in models)
    assert kinds == {"determinism", "totality", "decomposability"}


def _models_from(g, node_id):
    sub = st.DdnnfGraph(
        nodes=g.nodes, root=node_id, num_vars=g.num_vars, num_atom_vars=g.num_atom_vars
    )
    return {tuple(sorted(m.items())) for m in st.enumerate_models(sub)}


def test_or_children_share_no_models():
    """Determinism is semantic, not just syntactic: child model sets are
    disjoint, including when the decision variable is a Tseitin auxiliary."""
    for seed in range(12):
        f = st.random_formula(seed + 500, max_atoms=6, max_clauses=8)
        g, _, _ = pipeline(f)
        if st.count(g) > 4096:
            continue
        for node in g.nodes:
            if node.kind == "O":
                left, right = (_models_from(g, c) for c in node.children)
                assert not (left & right)


# ---------------------------------------------------------------------------
# condensation


def tagged_trace_graph():
    """Hand-built decision trace with theory-implied literal tags."""
    b = GraphBuilder(3, 3)
    left = b.and_node([b.lit(2), b.lit(-1, implied=True)])
    right = b.and_node([b.lit(-2, implied=True), b.and_node([b.lit(1), b.lit(3)])])
    return b.finish(b.or_node(2, left, right), None, has_tags=True)


def test_condense_drops_tagged_literals():
    g = st.condense(tagged_trace_graph())
    root = g.nodes[g.root]
    assert root.kind == "O"
    kinds = sorted(g.nodes[c].kind for c in root.children)
    assert kinds == ["A", "L"]
    lit_child = next(c for c in root.children if g.nodes[c].kind == "L")
    and_child = next(c for c in root.children if g.nodes[c].kind == "A")
    assert g.nodes[lit_child].lit == 2
    assert sorted(g.nodes[c].lit for c in g.nodes[and_child].children) == [1, 3]


def test_condense_identity_without_tags(gap_xy):
    g, _, _ = pipeline(gap_xy, mode="eager")
    assert not any(n.implied for n in g.nodes)
    h = st.condense(g)
    assert len(h) == len(g) and st.count(h) == st.count(g)


def test_condense_count_rejected():
    g = st.condense(tagged_trace_graph())
    with pytest.raises(st.NotTotalError):
        st.count(g)


def test_condense_requires_tags(single_or):
    with pytest.raises(st.NotTaggedError):
        st.condense(single_or)


# ---------------------------------------------------------------------------
# export / import


def test_export_single_literal_bytes():
    b = GraphBuilder(1, 1)
    g = b.finish(b.lit(1), None, False)
    nnf, _ = st.export_nnf(g)
    assert nnf == "nnf 1 0 1\nL 1\n"


def test_export_conjunction_bytes():
    b = GraphBuilder(2, 2)
    g = b.finish(b.and_node([b.lit(1), b.lit(2)]), None, False)
    nnf, _ = st.export_nnf(g)
    assert nnf == "nnf 3 2 2\nL 1\nL 2\nA 2 0 1\n"


def test_roundtrip_gap_xy(gap_xy):
    g, _, amap = pipeline(gap_xy)
    nnf, atoms = st.export_nnf(g, amap)
    g2, amap2 = st.import_nnf(nnf, atoms)
    assert st.count(g2) == 3
    assert g2.has_tags == g.has_tags
    assert len(amap2) == len(amap)
    assert [st.frontend.atom_to_str(a, amap2.real_names) for a in amap2.atoms] == [
        st.frontend.atom_to_str(a, amap.real_names) for a in amap.atoms
    ]
    nnf2, atoms2 = st.export_nnf(g2, amap2)
    assert nnf2 == nnf and atoms2 == atoms


def test_roundtrip_preserves_validators(gap01):
    g, _, amap = pipeline(gap01)
    g2, amap2 = st.import_nnf(*st.export_nnf(g, amap))
    assert st.validate(g2).ok
    assert st.validate(g2, level="theory", table=amap2).ok


def test_import_format_errors():
    with pytest.raises(st.FormatError):
        st.import_nnf("garbage\n", "")
    with pytest.raises(st.FormatError):
        st.import_nnf("nnf 2 0 1\nL 1\n", "")  # node count mismatch
    with pytest.raises(st.FormatError):
        st.import_nnf("nnf 1 0 1\nL 2\n", "")  # literal out of range
    with pytest.raises(st.FormatError):
        st.import_nnf("nnf 1 0 1\nX 1\n", "")
    with pytest.raises(st.FormatError):
        st.import_nnf("nnf 1 0 1\nL 1\n", "1 frobnicate a\n")
    with pytest.raises(st.FormatError):
        st.import_nnf("nnf 1 0 1\nL 1\n", "2 bool a\n")  # non-contiguous vars
    with pytest.raises(st.FormatError, match="named twice"):
        st.import_nnf("nnf 1 0 1\nL 1\n", "1 leq 1*x 1*x 2\n")
    for constant in ("1 leq 0*x 5\n", "1 eq 0*x 0*y 0\n", "1 eq 0\n"):
        with pytest.raises(st.FormatError, match="constant atom"):
            st.import_nnf("nnf 1 0 1\nL 1\n", constant)
    # an implied tag past the last node, negative, or on an Or line
    for tag in (7, -1, 2):
        with pytest.raises(st.FormatError, match=f"c implied {tag} names no L line"):
            st.import_nnf("nnf 3 2 1\nL 1\nL -1\nO 1 2 0 1\n", f"1 bool a\nc implied {tag}\n")
    # an implied tag with other than one node
    for tag in ("c implied 0 0", "c implied"):
        with pytest.raises(st.FormatError, match="bad implied tag"):
            st.import_nnf("nnf 1 0 1\nL 1\n", f"1 bool a\n{tag}\n")
    # a header edge count the file does not have
    with pytest.raises(st.FormatError, match="header declares 99 edges, found 0"):
        st.import_nnf("nnf 1 99 1\nL 1\n", "1 bool a\n")
    # more sidecar atoms than header variables
    with pytest.raises(st.FormatError, match="sidecar names 2 atoms, header declares 1 variables"):
        st.import_nnf("nnf 3 2 1\nL 1\nL -1\nO 1 2 0 1\n", "1 bool a\n2 bool b\n")
    # every integer field is an ASCII numeral: no other digits, no '_' or '+'
    orr = "nnf 3 2 1\nL 1\nL -1\nO 1 2 0 1\n"
    for nnf, atoms, message in [
        ("nnf 1 0 1\nL \u0661\n", "", "bad literal line"),
        ("nnf 1 0 1\nL +1\n", "", "bad literal line"),
        ("nnf 1 0 \u0661\nL 1\n", "", "bad header"),
        ("nnf 1 0 1_0\nL 1\n", "", "bad header"),
        ("nnf 2 1 1\nL 1\nA \u0661 0\n", "", "bad And line"),
        ("nnf 2 1 1\nL 1\nA 1 \u0660\n", "", "bad child index"),
        (orr.replace("O 1", "O \u0661"), "", "bad Or line"),
        (orr, "1 bool a\nc implied \u0660\n", "bad implied tag"),
        (orr, "\u0661 bool a\n", "bad atom line"),
        (orr, "1 leq \u0662*x 1\n", "bad coefficient"),
        (orr, "1 leq 1*x 1_0\n", "bad constant"),
    ]:
        with pytest.raises(st.FormatError, match=message):
            st.import_nnf(nnf, atoms)


@pytest.mark.parametrize("name", QUOTED_NAMES)
def test_quoted_names_survive_export_and_import(name):
    """A name that is empty or holds whitespace is written between bars, as
    the parser reads it, and read back without them."""
    f = st.parse_smt2(f"(declare-const |{name}| Bool)(declare-const |r {name}| Real)(assert (or |{name}| (< |r {name}| 0)))")
    g, _, amap = pipeline(f)
    g2, amap2 = st.import_nnf(*st.export_nnf(g, amap))
    assert st.count(g2) == st.count(g) == 3
    assert [a.name for a in amap2.atoms if not a.is_linear] == [name]
    assert amap2.real_names == [f"r {name}"]


@pytest.mark.parametrize("sort", ["Bool", "Real"])
@pytest.mark.parametrize("name", ["x\ny", "x\r", "x\u2028y"])
def test_export_refuses_a_name_no_line_can_hold(name, sort):
    use = f"|{name}|" if sort == "Bool" else f"(< |{name}| 0)"
    g, _, amap = pipeline(st.parse_smt2(f"(declare-const |{name}| {sort})(assert {use})"))
    with pytest.raises(st.FormatError, match="line break"):
        st.export_nnf(g, amap)


def test_import_rejects_a_duplicated_atom_line():
    nnf = "nnf 3 2 2\nL 1\nL 2\nA 2 0 1\n"
    with pytest.raises(st.FormatError, match="variable 2 has the atom of variable 1"):
        st.import_nnf(nnf, "1 bool a\n2 bool a\n")
    with pytest.raises(st.FormatError):
        st.import_nnf(nnf, "1 leq 1*x 0\n2 leq 1*x 0\n")
    # the same atom in another form: interned canonically, as the parser does
    for same in ("1 leq 1*x 2\n2 leq 2*x 4\n", "1 eq -1*x 2\n2 eq 1*x -2\n"):
        with pytest.raises(st.FormatError, match="variable 2 has the atom of variable 1"):
            st.import_nnf(nnf, same)


def test_import_interns_sidecar_lines_in_variable_order():
    nnf = "nnf 3 2 2\nL 1\nL -2\nA 2 0 1\n"
    g, amap = st.import_nnf(nnf, "2 leq 1*y -3\n1 bool a\n")
    assert [a.id for a in amap.atoms] == [1, 2]
    assert amap.atom(1).name == "a" and not amap.is_linear_var(1)
    assert amap.is_linear_var(2) and amap.real_names == ["y"]
    assert st.export_nnf(g, amap)[1] == "1 bool a\n2 leq 1*y -3\n"
    assert st.validate(g, level="theory").ok


def test_import_c2d_constants():
    g, _ = st.import_nnf("nnf 1 0 1\nA 0\n", "1 bool a\n")
    assert g.nodes[g.root].kind == "T"
    g, _ = st.import_nnf("nnf 1 0 1\nO 0 0\n", "1 bool a\n")
    assert g.nodes[g.root].kind == "F"

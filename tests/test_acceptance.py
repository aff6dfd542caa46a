"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints one pass/fail line.  Criteria 5-10 share a seeded 200-instance sweep
(at most 8 atoms over at most 3 real variables, at most 12 clauses of width
at most 3).
"""

import itertools
import time
from fractions import Fraction
from itertools import product

import pytest

import smtrace as st
from smtrace.ddnnf import GraphBuilder
from smtrace.frontend import evaluate_formula
from smtrace.lra import check_feasible, verify_certificate, witness_satisfies
from conftest import GAP_XY_SMT2, GAP01_SMT2, entangled_setup, pipeline, root_split

N_INSTANCES = 200


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


class Instance:
    def __init__(self, seed: int):
        self.seed = seed
        self.formula = st.random_formula(seed)
        prop, self.amap = st.boolean_abstract(self.formula)
        self.db = st.to_cnf(prop)
        self.agnostic, self.aware = st.brute_counts(self.formula)
        self.g_lazy = st.compile(self.db, self.amap, st.CompileConfig(mode="lazy"))
        self.g_agnostic = st.compile(self.db, self.amap, st.CompileConfig(mode="agnostic"))
        self.db_eager = st.eager_encode(self.db, self.amap)
        self.g_eager = st.compile(self.db_eager, self.amap, st.CompileConfig(mode="eager"))


@pytest.fixture(scope="module")
def sweep():
    start = time.perf_counter()
    instances = [Instance(seed) for seed in range(N_INSTANCES)]
    elapsed = time.perf_counter() - start
    return instances, elapsed


def test_criterion_1_mode_differential():
    start = time.perf_counter()
    gap_xy = st.parse_smt2(GAP_XY_SMT2)
    g_lazy, _, _ = pipeline(gap_xy)
    g_agn, _, _ = pipeline(gap_xy, mode="agnostic")
    lazy_count, agn_count = st.count(g_lazy), st.count(g_agn)
    agn_report = st.validate(g_agn, level="theory", table=gap_xy.table)
    lazy_report = st.validate(g_lazy, level="theory", table=gap_xy.table)
    elapsed = time.perf_counter() - start
    # the single theory-unsatisfiable captured assignment asserts all three
    # strict comparisons, i.e. all three (non-strict) atoms are false
    bad = [v.assignment for v in agn_report.violations]
    ok = (
        lazy_count == 3
        and agn_count == 4
        and bad == [((1, False), (2, False), (3, False))]
        and lazy_report.ok
        and elapsed < 1.0
    )
    report(1, ok, f"lazy={lazy_count} agnostic={agn_count} violations={bad} in {elapsed:.3f}s")


def test_criterion_2_mixed_example():
    start = time.perf_counter()
    gap01 = st.parse_smt2(GAP01_SMT2)
    oracle = st.brute_counts(gap01)
    compiled = (
        st.count(pipeline(gap01, mode="agnostic")[0]),
        st.count(pipeline(gap01, mode="lazy")[0]),
    )
    elapsed = time.perf_counter() - start
    ok = oracle == compiled == (5, 3) and elapsed < 1.0
    report(2, ok, f"oracle={oracle} compiler={compiled} in {elapsed:.3f}s")


def test_criterion_3_eager_example():
    f = st.parse_smt2("(declare-const x Real)(assert (or (<= x 0) (>= x 1)))")
    prop, amap = st.boolean_abstract(f)
    db = st.to_cnf(prop)
    encoded = st.eager_encode(db, amap)
    added = encoded.clauses[len(db.clauses):]
    eager_count = st.count(st.compile(encoded, amap, st.CompileConfig(mode="eager")))
    lazy_count = st.count(st.compile(db, amap, st.CompileConfig(mode="lazy")))
    ok = added == [(-1, -2)] and eager_count == lazy_count == 2
    report(3, ok, f"added={added} eager={eager_count} lazy={lazy_count}")


def test_criterion_4_entanglement():
    pair, leaves = entangled_setup()
    lits = {name: lit.signed for name, lit in leaves.items()}
    table = pair.table
    state = st.TheoryState(table)
    assert state.assert_literal(lits["xy"]) is None
    assert state.assert_literal(lits["x>5"]) is None
    entailed = state.entails(lits["y<0"])

    prop, amap = st.boolean_abstract(pair)
    db = st.to_cnf(prop)
    assignment = {abs(lits["xy"]): lits["xy"] > 0}
    comps_empty = root_split(db, amap, assignment, [])
    comps_trail = root_split(db, amap, assignment, [lits["xy"]])
    ok = entailed and len(comps_empty) == 2 and len(comps_trail) == 1
    report(
        4,
        ok,
        f"entails(y<0)={entailed} components empty/with trail = "
        f"{len(comps_empty)}/{len(comps_trail)}",
    )


def test_criterion_5_oracle_equivalence(sweep):
    instances, elapsed = sweep
    mismatches = [
        i.seed
        for i in instances
        if (st.count(i.g_lazy), st.count(i.g_eager), st.count(i.g_agnostic))
        != (i.aware, i.aware, i.agnostic)
    ]
    ok = not mismatches and elapsed < 300.0
    report(
        5,
        ok,
        f"{len(instances)} instances, mismatches={mismatches[:5]}, sweep built in {elapsed:.1f}s",
    )


def test_criterion_6_config_invariance(sweep):
    instances, _ = sweep
    start = time.perf_counter()
    bad = []
    flags = list(itertools.product((True, False), repeat=3))
    for inst in instances:
        counts = set()
        for components, cache, learning in flags:
            cfg = st.CompileConfig(mode="lazy", components=components, cache=cache, learning=learning)
            counts.add(st.count(st.compile(inst.db, inst.amap, cfg)))
        if counts != {inst.aware}:
            bad.append(inst.seed)
    elapsed = time.perf_counter() - start
    report(6, not bad, f"8 configs x {len(instances)} instances, bad={bad[:5]} in {elapsed:.1f}s")


def test_criterion_7_validator_soundness(sweep):
    instances, _ = sweep
    structural_bad = []
    theory_bad = []
    for inst in instances:
        for g in (inst.g_lazy, inst.g_eager, inst.g_agnostic):
            if not st.validate(g).ok:
                structural_bad.append(inst.seed)
        for g in (inst.g_lazy, inst.g_eager):
            if st.count(g) <= 4096:
                if not st.validate(g, level="theory", table=inst.formula.table).ok:
                    theory_bad.append(inst.seed)
    ok = not structural_bad and not theory_bad
    report(7, ok, f"structural bad={structural_bad[:5]} theory bad={theory_bad[:5]}")


def _copy_formula_text() -> tuple[str, str]:
    single = """
    (declare-const x Real)(declare-const A Bool)
    (assert (and (or (<= x 0) (>= x 1)) (or A (<= x 0))))
    """
    double = """
    (declare-const x Real)(declare-const A Bool)
    (declare-const x2 Real)(declare-const A2 Bool)
    (assert (and (or (<= x 0) (>= x 1)) (or A (<= x 0))))
    (assert (and (or (<= x2 0) (>= x2 1)) (or A2 (<= x2 0))))
    """
    return single, double


def test_criterion_8_component_effectiveness():
    single_text, double_text = _copy_formula_text()
    single, _, _ = pipeline(st.parse_smt2(single_text))
    bound = len(single) * 2 + 8
    with_components, _, _ = pipeline(st.parse_smt2(double_text))
    without, _, _ = pipeline(
        st.parse_smt2(double_text), components=False, cache=False
    )
    ok = len(with_components) <= bound and len(without) > bound
    report(
        8,
        ok,
        f"single={len(single)} bound={bound} with={len(with_components)} without={len(without)}",
    )


def test_criterion_9_roundtrip(sweep):
    instances, _ = sweep
    bad = []
    for inst in instances:
        for g in (inst.g_lazy, inst.g_eager, inst.g_agnostic):
            g2, _ = st.import_nnf(*st.export_nnf(g, inst.amap))
            if st.count(g2) != st.count(g):
                bad.append(inst.seed)

    b = GraphBuilder(1, 1)
    lit_bytes = st.export_nnf(b.finish(b.lit(1), None, False))[0]
    b = GraphBuilder(2, 2)
    and_bytes = st.export_nnf(b.finish(b.and_node([b.lit(1), b.lit(2)]), None, False))[0]
    fixed_ok = lit_bytes == "nnf 1 0 1\nL 1\n" and and_bytes == "nnf 3 2 2\nL 1\nL 2\nA 2 0 1\n"
    ok = not bad and fixed_ok
    report(9, ok, f"roundtrip bad={bad[:5]}, fixed byte examples ok={fixed_ok}")


def test_criterion_10_certificate_audit(sweep):
    instances, _ = sweep
    sat_seen = unsat_seen = 0
    bad = []
    for inst in instances:
        table = inst.formula.table
        linear = [a for a in table.atoms if a.is_linear]
        n = len(table.atoms)
        checked: set[frozenset] = set()
        for bits in product((False, True), repeat=n):
            assignment = {i + 1: bits[i] for i in range(n)}
            if not evaluate_formula(inst.formula.root, assignment):
                continue
            lits = frozenset(a.id if assignment[a.id] else -a.id for a in linear)
            if lits in checked:
                continue
            checked.add(lits)
            res = check_feasible(table, lits)
            if res.sat:
                sat_seen += 1
                if not witness_satisfies(table, lits, res.witness):
                    bad.append((inst.seed, "witness"))
            else:
                unsat_seen += 1
                if not verify_certificate(table, lits, res.certificate):
                    bad.append((inst.seed, "certificate"))
    ok = not bad and sat_seen > 0 and unsat_seen > 0
    report(10, ok, f"sat={sat_seen} unsat={unsat_seen} audited, bad={bad[:5]}")

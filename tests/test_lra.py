import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, strategies as hst

import smtrace as st
from smtrace import lra
from smtrace.frontend import EQ, LEQ, AtomTable, LinTerm, normalize_comparison
from smtrace.lra import (
    NonTheoryLiteralError,
    NotInfeasibleError,
    Point,
    TheoryState,
    check_feasible,
    literal_holds,
    minimize_core,
    project_trail,
    propagate_candidates,
    verify_certificate,
    witness_satisfies,
)
from conftest import evaluate, point_of


@pytest.fixture
def env():
    table = AtomTable()
    ids = {name: table.real_var(name) for name in ("x", "y", "z")}

    def cmp(op, coeffs, rhs=0):
        lhs = LinTerm.make({ids[k]: Fraction(v) for k, v in coeffs.items()})
        return normalize_comparison(table, op, lhs, LinTerm.constant(rhs)).signed

    return table, cmp


def test_assert_conflict_pair(env):
    table, cmp = env
    s = TheoryState(table)
    le0 = cmp("<=", {"x": 1}, 0)
    ge1 = cmp(">=", {"x": 1}, 1)
    assert s.assert_literal(le0) is None
    conflict = s.assert_literal(ge1)
    assert conflict is not None
    assert conflict.core == frozenset({le0, ge1})
    # state unchanged on conflict
    assert s.trail == [le0]


def test_assert_ok_on_empty(env):
    table, cmp = env
    s = TheoryState(table)
    assert s.assert_literal(cmp("<=", {"x": 1}, 0)) is None


def test_assert_strict_pair_conflict(env):
    table, cmp = env
    s = TheoryState(table)
    b1 = cmp("<", {"x": 1, "y": -1}, -1)  # x < y - 1
    b2 = cmp(">", {"x": 1, "y": -1}, 1)  # x > y + 1
    assert s.assert_literal(b1) is None
    conflict = s.assert_literal(b2)
    assert conflict is not None and conflict.core == frozenset({b1, b2})
    # the certificate combines the two strict rows into a 2 < 0 contradiction
    res = check_feasible(table, [b1, b2])
    assert not res.sat
    total = {}
    for entry in res.certificate.entries:
        for v, c in entry.term.coeffs + ((None, entry.term.const),):
            total[v] = total.get(v, 0) + entry.mult * c
    assert total.pop(None) > 0 and not any(total.values())
    assert all(e.strict for e in res.certificate.entries)


def test_pop_to_level(env):
    table, cmp = env
    s = TheoryState(table)
    s.assert_literal(cmp("<=", {"x": 1}, 0))
    s.pop_to(0)
    assert s.trail == []

    lits = [cmp("<=", {"x": 1}, 0), cmp("<=", {"y": 1}, 5), cmp("<=", {"z": 1}, 2)]
    for lit in lits:
        assert s.assert_literal(lit) is None
    s.pop_to(len(s.trail))  # no-op
    assert len(s.trail) == 3
    s.pop_to(1)
    assert s.trail == [lits[0]]
    assert s.assert_literal(lits[1]) is None  # re-assert works


def test_check_feasible_sum_bound(env):
    table, cmp = env
    lits = [cmp("<", {"x": 1, "y": 1}, 5), cmp(">", {"x": 1}, 5), cmp(">=", {"y": 1}, 0)]
    res = check_feasible(table, lits)
    assert not res.sat
    assert res.core == frozenset(lits)
    assert verify_certificate(table, lits, res.certificate)
    # multipliers 1,1,1 after integer scaling
    mults = sorted(e.mult for e in res.certificate.entries)
    assert mults == [1, 1, 1]
    assert all(type(e.term.const) is int for e in res.certificate.entries)


def test_verify_certificate_rejects_tampered_entries(env):
    """The audit re-adds the cited integer rows: a multiplier that is not a
    positive int, a row the literal does not entail, a missing literal or a
    sum that is not a contradiction fails it."""
    table, cmp = env
    lits = [cmp("<", {"x": 1, "y": 1}, 5), cmp(">", {"x": 1}, 5), cmp(">=", {"y": 1}, 0)]
    cert = check_feasible(table, lits).certificate
    first, *rest = cert.entries
    assert verify_certificate(table, lits, cert)
    for entries in (
        (replace(first, mult=0), *rest),
        (replace(first, mult=Fraction(1)), *rest),
        (replace(first, mult=2), *rest),  # the rows no longer cancel
        (replace(first, strict=not first.strict), *rest),
        (replace(first, term=LinTerm(first.term.coeffs, first.term.const + 1)), *rest),
        (replace(first, source=rest[0].source), *rest),
        (first, rest[0]),  # sums to y < 0, which is no contradiction
    ):
        assert not verify_certificate(table, lits, lra.Certificate(entries=entries))
    assert not verify_certificate(table, lits[1:], cert)


def test_check_feasible_fractional_terms(env):
    """Hand-built atoms with rational coefficients give audited answers, and
    certificate multipliers stay integral."""
    table, _ = env
    x, y = 0, 1

    def atom(kind, coeffs, const=0):
        return table.intern_linear(kind, LinTerm.make(coeffs, const))

    x_le = atom(LEQ, {x: Fraction(1, 3)}, Fraction(-1, 2))  # x <= 3/2
    x_ge = atom(LEQ, {x: Fraction(-1, 2)}, Fraction(3, 4))  # x >= 3/2
    link = atom(EQ, {x: Fraction(2, 5), y: Fraction(-1, 7)})  # y = 14x/5

    lits = [x_le, x_ge, link]
    res = check_feasible(table, lits)
    assert res.sat and witness_satisfies(table, lits, res.witness)
    assert res.witness == {x: Fraction(3, 2), y: Fraction(21, 5)}

    strict = [-x_le, -x_ge]  # x > 3/2 and x < 3/2
    res = check_feasible(table, strict)
    assert not res.sat and res.core == frozenset(strict)
    assert verify_certificate(table, strict, res.certificate)
    assert all(e.mult.denominator == 1 for e in res.certificate.entries)

    ne = -link  # y != 14x/5 against y = 14x/5
    res = check_feasible(table, [link, ne])
    assert not res.sat and res.certificate.diseq == ne
    assert verify_certificate(table, [link, ne], res.certificate)
    for half in (res.certificate.below, res.certificate.above):
        assert all(e.mult.denominator == 1 for e in half.entries)


def test_assert_decided_at_point_runs_no_check(env):
    table, cmp = env
    s = TheoryState(table)
    assert s.assert_literal(cmp(">=", {"x": 1}, 1)) is None
    ge0, ge7 = cmp(">=", {"x": 1}, 0), cmp(">=", {"x": 1}, 7)
    assert witness_satisfies(table, [ge0], s.point)
    assert not witness_satisfies(table, [ge7], s.point)
    checks, hits = s.checks, s.witness_hits

    assert s.assert_literal(ge0) is None
    assert (s.checks, s.witness_hits) == (checks, hits + 1)
    assert witness_satisfies(table, s.trail, s.point)

    assert s.assert_literal(ge7) is None  # violated at the point: one check
    assert (s.checks, s.witness_hits) == (checks + 1, hits + 1)
    assert witness_satisfies(table, s.trail, s.point)

    s.pop_to(2)
    assert not witness_satisfies(table, [ge7], s.point)
    assert witness_satisfies(table, s.trail, s.point)


def test_entails_decided_at_point_runs_no_check(env):
    table, cmp = env
    s = TheoryState(table)
    assert s.assert_literal(cmp(">=", {"x": 1}, 1)) is None
    probe = cmp(">=", {"x": 1}, 9)
    assert witness_satisfies(table, [-probe], s.point)
    checks, hits = s.checks, s.witness_hits
    assert not s.entails(probe)
    assert (s.checks, s.witness_hits) == (checks, hits + 1)


def test_check_feasible_empty(env):
    table, _ = env
    res = check_feasible(table, [])
    assert res.sat and res.witness == {}


def test_check_feasible_unused_constraint(env):
    table, cmp = env
    le0 = cmp("<=", {"x": 1}, 0)
    ge1 = cmp(">=", {"x": 1}, 1)
    y2 = cmp("<=", {"y": 1}, 2)
    res = check_feasible(table, [le0, ge1, y2])
    assert not res.sat
    assert res.core == frozenset({le0, ge1})  # y <= 2 plays no part


def test_entails(env):
    table, cmp = env
    s = TheoryState(table)
    s.assert_literal(cmp("<", {"x": 1, "y": 1}, 5))
    s.assert_literal(cmp(">", {"x": 1}, 5))
    assert s.entails(cmp("<", {"y": 1}, 0))

    s2 = TheoryState(table)
    s2.assert_literal(cmp(">=", {"x": 1}, 1))
    assert s2.entails(-cmp("<=", {"x": 1}, 0))

    s3 = TheoryState(table)
    assert not s3.entails(cmp("<=", {"x": 1}, 0))


def test_entails_assert_coherence(env):
    table, cmp = env
    s = TheoryState(table)
    s.assert_literal(cmp(">=", {"x": 1}, 1))
    lit = -cmp("<=", {"x": 1}, 0)
    assert s.entails(lit)
    conflict = s.assert_literal(-lit)
    assert conflict is not None


def test_minimize_core(env):
    table, cmp = env
    le0 = cmp("<=", {"x": 1}, 0)
    ge1 = cmp(">=", {"x": 1}, 1)
    y2 = cmp("<=", {"y": 1}, 2)
    assert minimize_core(table, {le0, ge1, y2}) == frozenset({le0, ge1})
    assert minimize_core(table, {le0, ge1}) == frozenset({le0, ge1})

    cyc = [
        cmp("<", {"x": 1, "y": -1}),  # x < y
        cmp("<", {"y": 1, "z": -1}),  # y < z
        cmp("<", {"z": 1, "x": -1}),  # z < x
    ]
    assert minimize_core(table, cyc) == frozenset(cyc)
    for lit in cyc:
        rest = frozenset(cyc) - {lit}
        assert check_feasible(table, rest).sat

    with pytest.raises(NotInfeasibleError):
        minimize_core(table, {le0})


def test_literal_order_fixes_rows_and_deletions(env):
    """Literal sets are taken by atom, the negative literal first, not in
    int order: it fixes a certificate's row order and which of two minimal
    cores deletion keeps."""
    table, cmp = env
    le0 = cmp("<=", {"x": 1}, 0)  # atom 1
    lt1 = cmp("<", {"x": 1}, 1)  # not atom 2
    ge5 = cmp(">=", {"x": 1}, 5)  # atom 3
    gt3 = cmp(">", {"x": 1}, 3)  # not atom 4
    assert (le0, lt1, ge5, gt3) == (1, -2, 3, -4)
    assert sorted([gt3, ge5, lt1, le0], key=lra.literal_key) == [le0, lt1, ge5, gt3]
    res = check_feasible(table, [gt3, le0])
    assert [e.source for e in res.certificate.entries] == [le0, gt3]
    # {le0, ge5} and {lt1, ge5} are both minimal; deleting le0 first keeps the second
    assert minimize_core(table, {le0, lt1, ge5}) == frozenset({lt1, ge5})


def test_propagate_candidates(env):
    table, cmp = env
    s = TheoryState(table)
    s.assert_literal(cmp(">=", {"x": 1}, 1))
    le0 = cmp("<=", {"x": 1}, 0)
    out = propagate_candidates(s, [abs(le0)])
    assert out == [-le0]

    s3 = TheoryState(table)
    s3.assert_literal(cmp("<", {"x": 1, "y": 1}, 5))
    s3.assert_literal(cmp(">", {"x": 1}, 5))
    y_neg = cmp("<", {"y": 1}, 0)
    out = propagate_candidates(s3, [abs(y_neg)])
    assert out == [y_neg]


def test_non_theory_literal(env):
    """A propositional atom's literal of either sign, 0 and an id past the
    table are refused, and refusing leaves the trail as it was."""
    table, cmp = env
    le0 = cmp("<=", {"x": 1}, 0)
    b = table.intern_bool("A")
    for lit in (b, -b, 0, len(table) + 1):
        s = TheoryState(table)
        with pytest.raises(NonTheoryLiteralError):
            s.assert_literal(lit)
        assert s.assert_literal(le0) is None
        with pytest.raises(NonTheoryLiteralError):
            s.assert_literal(lit)
        with pytest.raises(NonTheoryLiteralError):
            s.entails(lit)
        assert s.trail == [le0]
        with pytest.raises(NonTheoryLiteralError):
            check_feasible(table, [lit])
        with pytest.raises(NonTheoryLiteralError):
            check_feasible(table, [le0, lit])


def test_equality_and_disequality(env):
    table, cmp = env
    eq = cmp("=", {"x": 1, "y": -1})  # x = y
    res = check_feasible(table, [eq])
    assert res.sat and witness_satisfies(table, [eq], res.witness)

    ne = cmp("!=", {"x": 1})  # x != 0
    res = check_feasible(table, [ne])
    assert res.sat and res.witness[0] != 0

    # pinned to the hyperplane: x <= 0, x >= 0, x != 0
    pinned = [cmp("<=", {"x": 1}), cmp(">=", {"x": 1}), ne]
    res = check_feasible(table, pinned)
    assert not res.sat
    assert res.certificate.diseq == ne
    assert verify_certificate(table, pinned, res.certificate)

    # witness must dodge the hyperplane when the polyhedron is wider
    wide = [cmp(">=", {"x": 1}, -1), cmp("<=", {"x": 1}, 1), ne]
    res = check_feasible(table, wide)
    assert res.sat and res.witness[0] != 0 and abs(res.witness[0]) <= 1

    # two disequalities forcing the walk off both hyperplanes
    ne_y = cmp("!=", {"y": 1})
    res = check_feasible(table, [cmp(">=", {"x": 1}), cmp(">=", {"y": 1}), ne, ne_y])
    assert res.sat and res.witness[0] > 0 and res.witness[1] > 0


# ---------------------------------------------------------------------------
# projection


def test_project_trail_eliminates_to_the_same_key(env):
    table, cmp = env
    x, z = 0, 2
    chain = [cmp("<=", {"x": 1, "y": -1}), cmp("<=", {"y": 1, "z": -1})]  # x <= y <= z
    direct = [cmp("<=", {"x": 1, "z": -1})]  # x <= z
    assert project_trail(table, chain, {x, z}) == project_trail(table, direct, {x, z})
    assert project_trail(table, direct, {x, z}).key == ((((x, 1), (z, -1)), 0, False),)


def test_project_trail_keeps_strictness(env):
    table, cmp = env
    strict = [cmp("<", {"x": 1, "y": -1}), cmp("<=", {"y": 1, "z": -1})]  # x < y <= z
    direct = [cmp("<=", {"x": 1, "z": -1})]
    assert project_trail(table, strict, {0, 2}) != project_trail(table, direct, {0, 2})
    assert project_trail(table, strict, {0, 2}).key == ((((0, 1), (2, -1)), 0, True),)


def test_project_trail_tightens_parallel_rows(env):
    table, cmp = env
    x, y = 0, 1
    rows = [
        cmp("<=", {"x": 1, "y": -1}),  # x - y <= 0
        cmp("<", {"x": 3, "y": -3}),  # 3x - 3y < 0
        cmp("<=", {"x": 2, "y": -2}, -1),  # 2x - 2y + 1 <= 0, the tightest
    ]
    assert project_trail(table, rows, {x, y}).key == ((((x, 2), (y, -2)), 1, False),)
    # at an equal bound the strict row is the tighter one
    assert project_trail(table, rows[:2], {x, y}).key == ((((x, 1), (y, -1)), 0, True),)
    # rows without a kept variable project to nothing
    assert project_trail(table, rows, set()).key == ()


def test_project_trail_keeps_disequalities(env):
    table, cmp = env
    x, z = 0, 2
    lits = [cmp("<=", {"x": 1}), cmp("!=", {"y": 1})]
    # the disequality follows the rows, as its signed id
    assert project_trail(table, lits, {x}).key == ((((x, 1),), 0, False), lits[1])
    assert project_trail(table, lits[:1], {x}).key == ((((x, 1),), 0, False),)
    # x <= y <= z says nothing about x alone, but with x != z it does: the
    # rows are projected onto the disequality's reals too
    chain = [cmp("<=", {"x": 1, "y": -1}), cmp("<=", {"y": 1, "z": -1})]
    ne = cmp("!=", {"x": 1, "z": -1})
    assert project_trail(table, chain, {x}).key == ()
    assert project_trail(table, chain + [ne], {x}).key == ((((x, 1), (z, -1)), 0, False), ne)
    # only inequalities that the elimination finds infeasible have none
    gap = [cmp("<=", {"x": 1, "y": -1}), cmp(">=", {"x": 1, "y": -1}, 1)]  # x <= y <= x - 1
    assert project_trail(table, gap + [ne], {x}) is None


def test_a_pushed_context_answers_for_the_trail_before_it(env):
    """With a projection of the trail set as the context, checks read the
    projection and the literals asserted since.  A refutation cites the
    trail literals behind the projected row, and a witness moves the
    eliminated reals with the kept one."""
    table, cmp = env
    x, z = 0, 2
    trail = [cmp("=", {"x": 1, "y": -1}), cmp("=", {"y": 1, "z": -1}), cmp(">=", {"x": 1})]  # 0 <= x = y = z
    s = TheoryState(table)
    for lit in trail:
        assert s.assert_literal(lit) is None
    context = project_trail(table, trail, {z})
    assert context.key == ((((z, -1),), 0, False),)  # z >= 0
    s.context = (context, len(trail))
    below = cmp("<", {"z": 1}, -1)
    assert s.assert_literal(below).core == frozenset(trail + [below])
    above = cmp(">=", {"z": 1}, 2)
    assert s.assert_literal(above) is None
    assert witness_satisfies(table, s.trail, s.point) and s.point[x] == s.point[z] >= 2
    assert s.entails(cmp(">", {"z": 1}, 1)) and not s.entails(cmp("<=", {"z": 1}, 5))
    s.pop_to(len(trail))
    s.context = (lra.NO_PROJECTION, 0)
    assert s.assert_literal(cmp("<=", {"z": 1}, 1)) is None


def test_the_extended_witness_audit_reads_the_literals_over_moved_reals(env, monkeypatch):
    """The extended witness is audited on the new literal and the trail
    literals over the reals it moved, the set the extension grows: an
    extension that leaves a trail literal false over a real that only the
    back-substitution moved still fails the audit."""
    table, cmp = env
    x, y, z = 0, 1, 2
    trail = [cmp(">=", {"y": 1, "x": -1}), cmp(">=", {"z": 1, "y": -1}), cmp(">=", {"x": 1})]  # 0 <= x <= y <= z
    s = TheoryState(table)
    for lit in trail:
        assert s.assert_literal(lit) is None
    s.context = (project_trail(table, trail, {x}), len(trail))  # y and z are eliminated
    above = cmp(">=", {"x": 1}, 5)
    assert not witness_satisfies(table, [above], s.point)  # so the query extends a witness
    extend = lra._back_substitute

    def corrupted(stages, nums, den, moved=None, mentions=None):
        nums, den = extend(stages, nums, den, moved, mentions)
        if moved is not None:  # the extension of a witness to the whole trail
            assert moved == {x, y, z}
            nums[z] = nums[y] - den  # z = y - 1: only z <= y's literal fails, and x is not over z
        return nums, den

    monkeypatch.setattr(lra, "_back_substitute", corrupted)
    with pytest.raises(AssertionError, match="extended witness audit failed"):
        s.assert_literal(above)
    assert s.trail == trail
    monkeypatch.undo()
    assert s.assert_literal(above) is None
    assert witness_satisfies(table, s.trail, s.point) and s.point[z] >= s.point[y] >= 5


def test_a_stored_witness_answers_the_negation_an_entailment_check_found(env):
    """entails(a) that finds -a feasible stores the witness, so asserting
    -a on the same trail runs no check and pushes that point."""
    table, cmp = env
    s = TheoryState(table)
    assert s.assert_literal(cmp(">=", {"x": 1}, 1)) is None
    assert s.assert_literal(cmp("<=", {"y": 1, "x": -1})) is None  # y <= x
    a = cmp("<=", {"x": 1}, 3)
    assert witness_satisfies(table, [a], s.point)  # so -a needs a check
    assert not s.entails(a)
    checks, hits = s.checks, s.witness_hits
    assert s.assert_literal(-a) is None
    assert (s.checks, s.witness_hits) == (checks, hits + 1)
    assert witness_satisfies(table, s.trail, s.point)


def test_a_stored_witness_above_the_popped_size_is_dropped(env):
    """A witness stored at a trail size that ``pop_to`` removes is never
    read: the literal asserted in its place may fail there."""
    table, cmp = env
    s = TheoryState(table)
    assert s.assert_literal(cmp(">=", {"x": 1}, 1)) is None
    assert s.assert_literal(cmp(">=", {"y": 1}, 5)) is None
    probe = cmp("<=", {"x": 1}, 3)
    assert not s.entails(probe)  # stores a point with x > 3 and y >= 5
    s.pop_to(1)
    assert s.assert_literal(cmp("<=", {"y": 1})) is None  # y <= 0
    checks = s.checks
    assert s.assert_literal(-probe) is None
    assert s.checks == checks + 1
    assert witness_satisfies(table, s.trail, s.point)


def test_a_stored_witness_fails_once_a_later_trail_literal_fails_there(env, monkeypatch):
    """A stored witness answers only while the trail literals asserted
    since hold there: it answers nothing while a literal it fails is on the
    trail, and answers again once that literal is popped.  The top point is
    read first."""
    table, cmp = env
    s = TheoryState(table)
    assert s.assert_literal(cmp(">=", {"x": 1}, 1)) is None
    assert not s.entails(cmp("<=", {"x": 1}, 3))  # stores a point with x > 3
    assert s.assert_literal(cmp("<=", {"x": 1}, 2)) is None  # holds at the top point, fails at the stored one
    ge3 = cmp(">=", {"x": 1}, 3)  # holds at the stored point
    checks, hits = s.checks, s.witness_hits
    assert s.assert_literal(ge3).core == frozenset(s.trail[1:] + [ge3])
    assert (s.checks, s.witness_hits) == (checks + 1, hits)

    holds, reads = lra.literal_holds, []

    def reading(table, lit, point):
        reads.append(point)
        return holds(table, lit, point)

    monkeypatch.setattr(lra, "literal_holds", reading)
    assert s.entails(-ge3)
    assert reads[0] is s.point and s.checks == checks + 2  # the stored point does not answer
    monkeypatch.undo()
    s.pop_to(1)  # pops the literal it failed
    checks = s.checks
    assert s.assert_literal(ge3) is None
    assert s.checks == checks and witness_satisfies(table, s.trail, s.point)


def _row_literal(table, row):
    """A literal that holds exactly where a projected row does."""
    coeffs, const, strict = row
    if strict:  # term < 0  ==  not(-term <= 0)
        return -table.intern_linear(LEQ, LinTerm.make({v: -c for v, c in coeffs}, -const))
    return table.intern_linear(LEQ, LinTerm.make(dict(coeffs), const))


@given(hst.integers(0, 400))
def test_project_trail_preserves_feasibility(seed):
    """For literals L over the kept reals, trail + L and the projected rows
    plus the trail's disequalities plus L are equally feasible.  Trails and
    probes hold inequalities, equalities and disequalities.  Half the
    trails start with an equality z = a*k + b that ties the eliminated real
    z to a kept real k, and a disequality over z; their first probe pins k
    where z meets the disequality's constant, which only the disequality's
    own reals, kept in the projection, can rule out."""
    rng = random.Random(seed)
    table = AtomTable()
    ids = [table.real_var(n) for n in ("x", "y", "z")]
    tie, pin = [], []
    if rng.random() < 0.5:
        k, z = rng.choice(ids[:2]), ids[2]
        a, b, e = rng.choice((-2, -1, 1, 2)), rng.randint(-3, 3), rng.randint(-3, 3)
        other = {rng.choice(ids[:2]): Fraction(rng.choice((0, 1)))}
        tie = [
            normalize_comparison(table, "=", LinTerm.make({z: Fraction(1), k: Fraction(-a)}), LinTerm.constant(b)),
            normalize_comparison(table, "!=", LinTerm.make({z: Fraction(1)}), LinTerm.make(other, e)),
        ]
        pin = [normalize_comparison(table, "=", LinTerm.make({k: Fraction(a)}), LinTerm.make(other, e - b))]
    trail = [lit.signed for lit in tie if not isinstance(lit, bool)] + _random_literals(rng, table, ids, 5 - len(tie))
    if not check_feasible(table, trail).sat:
        return
    keep = set(ids[:2])
    projection = project_trail(table, trail, keep)
    assert projection is not None
    key = projection.key
    rows = [part for part in key if isinstance(part, tuple)]
    diseqs = [part for part in key if isinstance(part, int)]
    assert key == (*rows, *diseqs)
    assert diseqs == sorted((l for l in trail if l < 0 and table.atom(-l).kind == EQ), key=abs)
    shadow = [_row_literal(table, row) for row in rows] + diseqs
    probes = [lit.signed for lit in pin if not isinstance(lit, bool)] + _random_literals(rng, table, ids[:2], 3)
    for k in range(len(probes) + 1):
        extra = probes[:k]
        assert check_feasible(table, trail + extra).sat == check_feasible(table, shadow + extra).sat


# ---------------------------------------------------------------------------
# randomized properties


def _random_literals(rng, table, ids, count):
    lits = []
    for _ in range(count):
        coeffs = {}
        for v in ids:
            c = rng.randint(-2, 2)
            if c:
                coeffs[v] = Fraction(c)
        if not coeffs:
            coeffs[rng.choice(ids)] = Fraction(1)
        lhs = LinTerm.make(coeffs, rng.randint(-3, 3))
        op = rng.choice(("<", ">", "<=", ">=", "=", "!="))
        lit = normalize_comparison(table, op, lhs, LinTerm.constant(rng.randint(-3, 3)))
        if not isinstance(lit, bool):
            lits.append(lit.signed)
    return lits


@given(hst.integers(0, 400))
def test_monotonicity(seed):
    rng = random.Random(seed)
    table = AtomTable()
    ids = [table.real_var(n) for n in ("x", "y", "z")]
    lits = _random_literals(rng, table, ids, 6)
    for k in range(1, len(lits) + 1):
        if not check_feasible(table, lits[:k]).sat:
            assert not check_feasible(table, lits).sat
            break


@given(hst.integers(0, 400))
def test_push_pop_differential(seed):
    """Interleaved asserts and pops answer exactly like a rebuilt state."""
    rng = random.Random(seed)
    table = AtomTable()
    ids = [table.real_var(n) for n in ("x", "y", "z")]
    pool = _random_literals(rng, table, ids, 8)
    if not pool:
        return
    state = TheoryState(table)
    shadow: list = []  # mirror of the trail
    for _ in range(12):
        action = rng.random()
        if action < 0.6 or not shadow:
            lit = rng.choice(pool)
            conflict = state.assert_literal(lit)
            fresh = check_feasible(table, frozenset(shadow) | {lit})
            if conflict is None:
                assert fresh.sat
                shadow.append(lit)
            else:
                assert not fresh.sat
                assert conflict.core == fresh.core
        else:
            target = rng.randint(0, len(shadow))
            state.pop_to(target)
            shadow = shadow[:target]
        assert state.trail == shadow
        assert witness_satisfies(table, state.trail, state.point)
        probe = rng.choice(pool)
        rebuilt = TheoryState(table)
        for l in shadow:
            assert rebuilt.assert_literal(l) is None
        assert state.entails(probe) == rebuilt.entails(probe)


@given(hst.integers(0, 400))
def test_push_pop_differential_on_a_projected_context(seed):
    """On a context projected from a trail prefix onto some reals, as the
    compiler sets one, interleaved asserts, entailment checks and pops over
    those reals answer as a check of the whole trail plus the literal, and
    the top point satisfies the whole trail."""
    rng = random.Random(seed)
    table = AtomTable()
    ids = [table.real_var(n) for n in ("x", "y", "z", "w")]
    state = TheoryState(table)
    for lit in _random_literals(rng, table, ids, 4):
        state.assert_literal(lit)  # a refuted literal leaves the trail as it is
    keep = {v for v in ids if rng.random() < 0.5} or {rng.choice(ids)}
    pool = _random_literals(rng, table, sorted(keep), 8)
    shadow, mark = list(state.trail), len(state.trail)
    state.context = (project_trail(table, shadow, keep), mark)
    for _ in range(12):
        action = rng.random()
        if action < 0.5:
            lit = rng.choice(pool)
            conflict = state.assert_literal(lit)
            assert (conflict is None) == check_feasible(table, shadow + [lit]).sat
            if conflict is None:
                shadow.append(lit)
            else:
                assert verify_certificate(table, shadow + [lit], conflict.certificate)
        elif action < 0.8:
            probe = rng.choice(pool)
            assert state.entails(probe) == (not check_feasible(table, shadow + [-probe]).sat)
        else:
            target = rng.randint(mark, len(shadow))
            state.pop_to(target)
            shadow = shadow[:target]
        assert state.trail == shadow
        assert witness_satisfies(table, state.trail, state.point)


# ---------------------------------------------------------------------------
# integer points and free-real pruning


def test_point_keeps_the_least_denominator():
    p = Point({0: 2, 1: -4, 2: 0}, 6)
    assert (p.nums, p.den) == ({0: 1, 1: -2, 2: 0}, 3)
    assert p == {0: Fraction(1, 3), 1: Fraction(-2, 3), 2: Fraction(0)}
    assert p[1] == Fraction(-2, 3) and p.get(7) is None and len(p) == 3
    assert Point({}, 5).den == 1 and Point() == {}


@hst.composite
def lra_literals(draw, reals=3, max_size=5):
    """(table, literals) over ``reals`` real variables with small coefficients."""
    table = AtomTable()
    ids = [table.real_var(f"r{i}") for i in range(reals)]
    lits = []
    for _ in range(draw(hst.integers(0, max_size))):
        coeffs = {
            v: Fraction(draw(hst.integers(-3, 3)), draw(hst.integers(1, 3)))
            for v in ids
            if draw(hst.booleans())
        }
        op = draw(hst.sampled_from(("<", ">", "<=", ">=", "=", "!=")))
        rhs = Fraction(draw(hst.integers(-4, 4)), draw(hst.integers(1, 2)))
        lit = normalize_comparison(table, op, LinTerm.make(coeffs), LinTerm.constant(rhs))
        if not isinstance(lit, bool):
            lits.append(lit.signed)
    return table, lits


rationals = hst.builds(Fraction, hst.integers(-9, 9), hst.integers(1, 6))


def _reference_holds(table, lit, point):
    """Truth of a literal at a point of Fractions, by evaluating its term."""
    atom = table.atom(abs(lit))
    value = evaluate(atom.term, point)
    holds = value <= 0 if atom.kind == LEQ else value == 0
    return holds == (lit > 0)


@given(lra_literals(), hst.lists(rationals, min_size=3, max_size=3))
def test_literal_holds_matches_the_fraction_reference(case, coords):
    table, lits = case
    values = dict(enumerate(coords))
    point = point_of(values)
    for lit in lits:
        for probe in (lit, -lit):
            assert literal_holds(table, probe, point) == _reference_holds(table, probe, values)


@given(lra_literals(max_size=6))
def test_an_atom_with_a_free_real_is_not_entailed(case):
    """A feasible trail entails neither polarity of an atom with a real the
    trail does not mention, and propagation finds neither."""
    table, lits = case
    for k in range(len(lits)):
        trail = lits[:k]
        if not check_feasible(table, trail).sat:
            break
        mentioned = frozenset().union(*(table.atom(abs(l)).term.real_vars for l in trail))
        for lit in lits[k:]:
            if table.atom(abs(lit)).term.real_vars <= mentioned:
                continue
            for extended in (lit, -lit):
                assert check_feasible(table, trail + [extended]).sat
            state = TheoryState(table)
            for t in trail:
                assert state.assert_literal(t) is None
            assert propagate_candidates(state, [abs(lit)]) == []


def _reference_fm_witness(rows):
    """Fourier-Motzkin with back-substitution over Fractions: the witness
    the solver found before its points became integer, or None if the rows
    are infeasible."""
    live = [(coeffs, const, strict, {i: 1}) for i, (coeffs, const, strict, _) in enumerate(rows)]
    stages = []
    for var in sorted({v for row in rows for v in row[0]}):
        uppers, lowers, live, bad = lra._eliminate(live, var)
        if bad is not None:
            return None
        stages.append((var, uppers, lowers))
    if any(lra._contradictory(const, strict) for _, const, strict, _ in live):
        return None
    witness = {}
    for var, uppers, lowers in reversed(stages):
        lo = hi = None
        for coeffs, const, strict, _ in uppers + lowers:
            c = coeffs[var]
            rest_val = const
            for v, cv in coeffs.items():
                if v != var:
                    rest_val += cv * witness[v]
            bound = Fraction(-rest_val, c)
            if c > 0:
                if hi is None or bound < hi[0] or (bound == hi[0] and strict):
                    hi = (bound, strict)
            elif lo is None or bound > lo[0] or (bound == lo[0] and strict):
                lo = (bound, strict)
        if lo is None and hi is None:
            value = Fraction(0)
        elif lo is None:
            value = hi[0] - 1 if hi[1] else hi[0]
        elif hi is None:
            value = lo[0] + 1 if lo[1] else lo[0]
        elif lo[0] < hi[0]:
            value = (lo[0] + hi[0]) / 2
        else:
            value = lo[0]
        witness[var] = value
    return witness


def _reference_witness(table, lits):
    """The Fraction witness of a feasible literal set, disequalities
    avoided by the same walk as the solver's; None if infeasible."""
    rows, diseqs = lra._split_literals(table, sorted(set(lits), key=lra.literal_key))
    point = _reference_fm_witness(rows)
    if point is None:
        return None
    sides = []
    for below, above in diseqs:
        side = _reference_fm_witness(rows + [below])
        if side is None:
            side = _reference_fm_witness(rows + [above])
        if side is None:
            return None
        sides.append(side)
    terms = [LinTerm(tuple(coeffs.items()), const) for (coeffs, const, _, _), _ in diseqs]
    for j, term in enumerate(terms):
        if evaluate(term, point) != 0:
            continue
        keys = set(point) | set(sides[j])
        for k in range(1, len(diseqs) + 3):
            lam = Fraction(1, k)
            cand = {v: (1 - lam) * point.get(v, 0) + lam * sides[j].get(v, 0) for v in keys}
            if all(evaluate(t, cand) != 0 for t in terms[: j + 1]):
                point = cand
                break
    return point


@given(lra_literals(max_size=6))
def test_witnesses_match_the_fraction_back_substitution(case):
    table, lits = case
    res = check_feasible(table, lits)
    ref = _reference_witness(table, lits)
    assert res.sat == (ref is not None)
    if res.sat:
        assert dict(res.witness) == ref
        assert res.witness.den == math.lcm(*(x.denominator for x in ref.values()))

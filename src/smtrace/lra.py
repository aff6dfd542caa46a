"""Exact theory solver for conjunctions of linear rational arithmetic literals.

A theory literal is a signed atom id, as on the Boolean side: ``a`` asserts
linear atom a of the ``AtomTable`` and ``-a`` its negation.  Literal sets
are put in order by ``literal_key`` (by atom, the negative literal first),
which fixes the row order of every check, and so its witness, certificate
and core.

Feasibility is decided by Fourier-Motzkin elimination, eliminating variables
in ascending id order.  Elimination runs on Python ints: a literal's rows are
read from its atom's integer row as the frontend stored it, and every
derived row is divided, together with its combination vector, by the gcd of
all their entries.  Points are integers too: a ``Point`` holds integer
numerators over one positive denominator, and a literal holds at it when its
atom's row has the right sign there (``literal_holds``, the one evaluator).
Certificates cite integer rows with integer multipliers, so ``Fraction``s
appear only when a caller reads a coordinate of a point.  Equalities are
split into two inequalities.  A disequality t != 0 is handled after the
relaxed polyhedron P is known feasible: the system is infeasible iff P is
contained in the hyperplane t = 0, which is checked as infeasibility of both
P and t < 0 and P and t > 0 (sound by convexity: a convex set not contained
in any of finitely many hyperplanes contains a point avoiding all of them).
The same elimination step projects the inequalities of a conjunction onto
some of its variables; with the conjunction's disequalities kept as
literals, that is the theory context of a component (``project_trail``).
The compiler's cache keys on it, and the search checks on it: each
projected row keeps its combination vector over the rows it was derived
from, and the projection keeps the elimination stages.  Every check runs
on a context (``check_feasible``'s ``context``, by default ``NO_PROJECTION``,
of no literals) and certifies an infeasibility with the rows of the
projected literals, and ``TheoryState`` extends its witness to the
eliminated reals by back-substitution through the stages.
A sub-component's context is projected from its parent's plus the literals
asserted since, so no check or projection reads the whole trail.

Every answer carries evidence.  SAT results return a rational witness that
satisfies each asserted literal exactly; UNSAT results return positive
integer multipliers of integer rows deriving a contradiction (0 < 0 or
c <= 0 with c > 0), or, for the disequality case, a pair of such
certificates showing containment.  Both are re-verified mechanically before
being returned.
"""

from __future__ import annotations

import math
from bisect import insort
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
from typing import AbstractSet, Callable, Iterable, Sequence

from .frontend import EQ, LEQ, Atom, LinTerm


class TheoryError(Exception):
    pass


class NonTheoryLiteralError(TheoryError):
    """A propositional literal was handed to the theory solver."""


class NotInfeasibleError(TheoryError):
    """minimize_core was called on a feasible literal set."""


def literal_key(lit: int) -> tuple[int, bool]:
    """Sort key of a theory literal: by atom, the negative literal first."""
    return (abs(lit), lit > 0)


class Point(Mapping):
    """An immutable rational point: integer numerators ``nums`` (real id ->
    int) over one positive denominator ``den``, the least one.

    It reads as a mapping of real ids to ``Fraction``s, made only when a
    coordinate is read; the solver reads ``nums`` and ``den``.  The
    constructor takes ownership of ``nums``.
    """

    __slots__ = ("nums", "den")

    def __init__(self, nums: dict[int, int] | None = None, den: int = 1) -> None:
        nums = {} if nums is None else nums
        g = math.gcd(den, *nums.values()) if den > 1 else 1
        if g > 1:
            nums = {v: n // g for v, n in nums.items()}
            den //= g
        self.nums = nums
        self.den = den

    def __getitem__(self, var: int) -> Fraction:
        return Fraction(self.nums[var], self.den)

    def __iter__(self):
        return iter(self.nums)

    def __len__(self) -> int:
        return len(self.nums)


@dataclass(frozen=True)
class FarkasEntry:
    """One row of a certificate: mult * (term REL 0) with REL in {<=, <},
    for a positive integer ``mult`` and an integer row ``term`` of the
    literal ``source``."""

    mult: int
    term: LinTerm
    strict: bool
    source: int


@dataclass(frozen=True)
class Certificate:
    """Farkas-style infeasibility evidence.

    Plain case: ``entries`` combine to a constant contradiction.  Disequality
    case: ``diseq`` is a != literal whose hyperplane contains the relaxed
    polyhedron, evidenced by ``below``/``above`` certificates for the two
    strict half-space augmentations.
    """

    entries: tuple[FarkasEntry, ...] = ()
    diseq: int | None = None
    below: "Certificate | None" = None
    above: "Certificate | None" = None

    def sources(self) -> frozenset[int]:
        if self.diseq is not None:
            return self.below.sources() | self.above.sources() | {self.diseq}
        return frozenset(e.source for e in self.entries)


@dataclass
class FeasibilityResult:
    sat: bool
    witness: Point | None = None
    certificate: Certificate | None = None
    rows: int = 0  # the inequality rows the elimination started from

    @property
    def core(self) -> frozenset[int]:
        if self.sat:
            raise ValueError("feasible result has no core")
        return self.certificate.sources()


@dataclass(frozen=True)
class Projection:
    """What a set of trail literals says about some reals (``project_trail``).

    ``key`` is the canonical form that the component cache compares, and
    the only field equality and hashing read.  ``rows`` are the projected
    inequality rows ``(coeffs, const, strict, comb)``, one per direction of
    ``key``, each with its combination vector over the rows of the literals
    it was projected from (``_Row``).  ``stages`` are the Fourier-Motzkin
    stages ``(var, rows)`` that eliminated the other reals of those
    literals, in elimination order, for back-substitution, and
    ``mentions`` maps each real to the ascending positions of the stages
    whose rows mention it; like the rest, it is never changed once the
    projection is made.  ``sources`` are the literals projected.
    """

    key: tuple
    rows: tuple = field(default=(), compare=False)
    stages: tuple = field(default=(), compare=False)
    sources: frozenset[int] = field(default=frozenset(), compare=False)
    mentions: dict = field(default_factory=dict, compare=False)

    @property
    def diseqs(self) -> tuple[int, ...]:
        """The disequalities kept as literals: the key's tail."""
        return self.key[len(self.rows) :]


NO_PROJECTION = Projection(())  # of no literals: what the root of a search starts from


# ---------------------------------------------------------------------------
# constraint assembly

def _contradictory(const: int, strict: bool) -> bool:
    return const > 0 or (strict and const == 0)


# A row ``(coeffs, const, strict, comb)`` reads sum(coeffs[v] * v) + const
# < 0 if strict, else <= 0, over the integers, and is the combination
# sum(comb[key] * row named by key) of literal rows: key 2 * lit + k names
# the k-th row of the literal lit.  A literal's own row is the
# combination {2 * lit + k: 1}.
_Row = tuple[dict[int, int], int, bool, dict[int, int]]


def _literal_rows(table, lit: int) -> tuple[bool, tuple[_Row, ...]]:
    """(is_disequality, rows) of a linear literal, from its atom's integer row
    t as stored: t <= 0 or, negated, -t < 0; t <= 0 and -t <= 0 for an
    equality; the two strict sides t < 0 and -t < 0, which a certificate may
    cite, for a disequality.

    Built once per table and shared between calls, so never mutated.
    """
    entry = table.theory_rows.get(lit)
    if entry is None:
        atom = _linear_atom(table, lit)
        t = atom.term
        below = (dict(t.coeffs), t.const, lit < 0, {2 * lit: 1})
        above = ({v: -c for v, c in t.coeffs}, -t.const, lit < 0, {2 * lit + (atom.kind != LEQ): 1})
        if atom.kind == LEQ:
            entry = False, (below,) if lit > 0 else (above,)
        else:
            entry = lit < 0, (below, above)
        table.theory_rows[lit] = entry
    return entry


def _source(row: _Row) -> int:
    """The literal of a literal row (of any row, one literal it combines)."""
    return next(iter(row[3])) >> 1


def _linear_atom(table, lit: int) -> Atom:
    if not table.is_linear_var(abs(lit)):
        raise NonTheoryLiteralError(f"{lit} is not the literal of a linear atom")
    return table.atoms[abs(lit) - 1]


def _eliminate(live: list, var: int):
    """One Fourier-Motzkin step over integer rows ``(coeffs, const, strict, comb)``.

    Returns ``(uppers, lowers, rest, bad)``.  ``uppers`` and ``lowers`` are the
    rows with a positive and a negative coefficient on ``var``.  ``rest`` holds
    the rows without ``var``, then each upper/lower combination that keeps a
    variable, divided together with its combination vector (``comb``, row
    index -> multiplier) by the gcd of all their entries.  ``bad`` is the
    combination vector of the first contradictory constant combination, which
    ends the step, or None.
    """
    uppers, lowers, rest = [], [], []
    for entry in live:
        c = entry[0].get(var)
        if c is None or c == 0:
            rest.append(entry)
        elif c > 0:
            uppers.append(entry)
        else:
            lowers.append(entry)
    for uc, uk, us, ucomb in uppers:
        for lc, lk, ls, lcomb in lowers:
            mu = -lc[var]  # positive
            ml = uc[var]  # positive
            g = math.gcd(mu, ml)
            mu //= g
            ml //= g
            coeffs: dict[int, int] = {v: mu * c for v, c in uc.items()}
            for v, c in lc.items():
                coeffs[v] = coeffs.get(v, 0) + ml * c
            coeffs = {v: c for v, c in coeffs.items() if c != 0}
            const = mu * uk + ml * lk
            strict = us or ls
            comb: dict[int, int] = {i: mu * m for i, m in ucomb.items()}
            for i, m in lcomb.items():
                comb[i] = comb.get(i, 0) + ml * m
            if not coeffs:
                if _contradictory(const, strict):
                    return uppers, lowers, rest, comb
                continue
            g = math.gcd(const, *coeffs.values(), *comb.values())
            if g > 1:
                coeffs = {v: c // g for v, c in coeffs.items()}
                const //= g
                comb = {i: m // g for i, m in comb.items()}
            rest.append((coeffs, const, strict, comb))
    return uppers, lowers, rest, None


def _eliminate_all(live: list, variables: Iterable[int], stages: list):
    """Eliminate ``variables`` from the rows ``live`` in the given order,
    appending each stage ``(var, rows)`` that has rows to ``stages``.

    Returns ``(rest, bad)``: the rows left and None, or None and the
    combination vector of the first contradictory constant combination.
    """
    for var in variables:
        uppers, lowers, live, bad = _eliminate(live, var)
        if bad is not None:
            return None, bad
        if uppers or lowers:
            stages.append((var, uppers + lowers))
    return live, None


def _fourier_motzkin(live: list):
    """Decide a pure inequality system of rows (``_Row``).

    Rows are eliminated over Python ints: each derived row is kept with its
    combination vector over literal rows (``_Row``) and both are divided by
    the gcd of all their entries.  Returns ``(witness, bad)``, as
    ``_eliminate_all`` does: a ``Point`` over every variable of the rows,
    found by back-substitution (a variable that no stage bounds is 0), and
    None; or None and the combination vector ``bad`` mapping each cited
    literal row's key to a positive integer multiplier.
    """
    variables = sorted({v for row in live for v in row[0]})
    stages: list = []
    live, bad = _eliminate_all(live, variables, stages)
    if bad is not None:
        return None, bad
    for coeffs, const, strict, comb in live:
        # everything left is constant
        if _contradictory(const, strict):
            return None, comb
    return Point(*_back_substitute(stages, dict.fromkeys(variables, 0), 1)), None


def _back_substitute(stages, nums: dict[int, int], den: int, moved: set[int] | None = None, mentions=None):
    """Values for the eliminated variables of ``stages`` (``(var, rows)`` in
    elimination order), the last eliminated first, at the point nums / den.

    Each variable takes a value within the bounds its stage's rows set at
    the values fixed so far, which a feasible elimination guarantees to
    exist.  With ``moved``, the set of variables whose values differ from a
    point that satisfied every stage row, and ``mentions``, the stage
    positions per variable (``Projection.mentions``), only the stages whose
    rows mention a moved variable are visited, a variable still within its
    bounds keeps its value, and one given a new value joins ``moved``.
    Works over ints: a bound (p, q, strict) is p / q with q > 0, compared by
    cross-multiplying.  Returns the new (nums, den), updating nums in place.
    """
    if moved is None:
        todo = list(range(len(stages)))  # stage positions, the next to visit last
    else:
        todo = sorted({p for v in moved for p in mentions.get(v, ())}) if mentions else []
    while todo:
        at = todo.pop()
        var, rows = stages[at]
        lo = hi = None
        for coeffs, const, strict, _ in rows:
            c = coeffs[var]
            rest = const * den  # den * (the row's value at the point, var left out)
            for v, cv in coeffs.items():
                if v != var:
                    rest += cv * nums.get(v, 0)
            if c > 0:  # x <= -rest / (c * den)
                p, q = -rest, c * den
                if hi is None or p * hi[1] < hi[0] * q or (p * hi[1] == hi[0] * q and strict):
                    hi = (p, q, strict)
            else:  # x >= rest / (-c * den)
                p, q = rest, -c * den
                if lo is None or p * lo[1] > lo[0] * q or (p * lo[1] == lo[0] * q and strict):
                    lo = (p, q, strict)
        if moved is not None:
            x = nums.get(var, 0)
            if (hi is None or x * hi[1] < hi[0] * den or (x * hi[1] == hi[0] * den and not hi[2])) and (
                lo is None or x * lo[1] > lo[0] * den or (x * lo[1] == lo[0] * den and not lo[2])
            ):
                continue
            moved.add(var)
            for p in mentions[var]:  # the earlier stages that read var
                if p < at and p not in todo:
                    insort(todo, p)
        if lo is None and hi is None:
            p, q = 0, 1
        elif lo is None:
            p, q = (hi[0] - hi[1] if hi[2] else hi[0]), hi[1]
        elif hi is None:
            p, q = (lo[0] + lo[1] if lo[2] else lo[0]), lo[1]
        elif lo[0] * hi[1] < hi[0] * lo[1]:  # the midpoint
            p, q = lo[0] * hi[1] + hi[0] * lo[1], 2 * lo[1] * hi[1]
        else:
            # feasible elimination guarantees lo == hi with both non-strict
            p, q = lo[0], lo[1]
        g = math.gcd(p, q)
        p, q = p // g, q // g
        if den % q:
            scale = q // math.gcd(den, q)
            for v in nums:
                nums[v] *= scale
            den *= scale
        nums[var] = p * (den // q)
    return nums, den


def _certificate_from(table, comb: Mapping[int, int]) -> Certificate:
    """The certificate citing the literal rows of ``comb``, in the
    ``literal_key`` order of their literals."""
    entries = []
    for key, m in sorted(comb.items(), key=lambda item: (literal_key(item[0] >> 1), item[0] & 1)):
        if m > 0:
            source = key >> 1
            coeffs, const, strict, _ = _literal_rows(table, source)[1][key & 1]
            entries.append(FarkasEntry(m, LinTerm(tuple(coeffs.items()), const), strict, source))
    return Certificate(entries=tuple(entries))


def verify_certificate(table, literals: Iterable[int], cert: Certificate) -> bool:
    """Mechanically re-derive the contradiction claimed by a certificate."""
    lits = set(literals)
    if cert.diseq is not None:
        if cert.diseq not in lits:
            return False
        if cert.diseq > 0 or table.atom(-cert.diseq).kind != EQ:
            return False
        if cert.below is None or cert.above is None:
            return False
        return _verify_plain(table, lits, cert.below, cert.diseq) and _verify_plain(
            table, lits, cert.above, cert.diseq
        )
    return _verify_plain(table, lits, cert, None)


def _verify_plain(table, lits, cert: Certificate, diseq: int | None) -> bool:
    if cert.diseq is not None or not cert.entries:
        return False
    coeffs: dict[int, int] = {}
    const = 0
    strict = False
    for e in cert.entries:
        if not isinstance(e.mult, int) or e.mult <= 0:
            return False
        if e.source != diseq and e.source not in lits:
            return False
        _, allowed = _literal_rows(table, e.source)
        cited = (dict(e.term.coeffs), e.term.const, e.strict)
        if not any(row[:3] == cited for row in allowed):
            return False
        for v, c in e.term.coeffs:
            coeffs[v] = coeffs.get(v, 0) + e.mult * c
        const += e.mult * e.term.const
        strict = strict or e.strict
    return not any(coeffs.values()) and _contradictory(const, strict)


def literal_holds(table, lit: int, point: Point) -> bool:
    """Truth of a linear literal at a point: the sign of its atom's integer
    row there.  The row is read once per table, into ``table.theory_terms``."""
    entry = table.theory_terms.get(lit)
    if entry is None:
        atom = _linear_atom(table, lit)
        entry = table.theory_terms[lit] = (atom.term.coeffs, atom.term.const, atom.kind == LEQ)
    coeffs, const, leq = entry
    nums = point.nums
    value = const * point.den  # den * (the row at the point)
    for v, c in coeffs:
        value += c * nums.get(v, 0)
    return (value <= 0 if leq else value == 0) == (lit > 0)


def witness_satisfies(table, literals: Iterable[int], witness: Point) -> bool:
    return all(literal_holds(table, lit, witness) for lit in literals)


def _split_literals(table, literals: Sequence[int]):
    """Rows of the inequality literals, and the (below, above) strict side
    rows of each disequality, each a literal row (``_Row``)."""
    rows: list[_Row] = []
    diseqs: list[tuple[_Row, _Row]] = []
    for lit in literals:
        diseq, lit_rows = _literal_rows(table, lit)
        if diseq:
            diseqs.append(lit_rows)
        else:
            rows.extend(lit_rows)
    return rows, diseqs


def _avoid_hyperplanes(
    table,
    point: Point,
    diseqs: Sequence[tuple[_Row, _Row]],
    side_points: Sequence[Point],
) -> Point:
    """Move the witness inside the polyhedron off every diseq hyperplane.

    Each step walks along the segment towards a point strictly off one
    hyperplane; by convexity the segment stays feasible, and all previously
    fixed disequalities admit at most one bad step size each.
    """
    lits = [_source(below) for below, _ in diseqs]
    for j, lit in enumerate(lits):
        if literal_holds(table, lit, point):
            continue
        target = side_points[j]
        keys = point.nums.keys() | target.nums.keys()
        for k in range(1, len(diseqs) + 3):
            # (1 - 1/k) * point + (1/k) * target, over k * point.den * target.den
            a, b = (k - 1) * target.den, point.den
            cand = Point(
                {v: a * point.nums.get(v, 0) + b * target.nums.get(v, 0) for v in keys},
                k * point.den * target.den,
            )
            if all(literal_holds(table, l, cand) for l in lits[: j + 1]):
                point = cand
                break
        else:  # pragma: no cover - impossible by the counting argument
            raise AssertionError("failed to avoid disequality hyperplanes")
    return point


def check_feasible(table, literals: Iterable[int], context: Projection = NO_PROJECTION) -> FeasibilityResult:
    """Exact feasibility of a conjunction of linear literals, with evidence.

    The literals are checked together with the rows of ``context``, a
    ``project_trail`` result, by default of no literals.  The context's
    rows enter the elimination with their combination vectors, so a
    certificate cites the rows of the literals the context was projected
    from, and is audited against them and ``literals``; the witness
    satisfies ``literals`` and the context's rows.
    """
    lits = sorted(set(literals), key=literal_key)
    rows, diseqs = _split_literals(table, lits)
    rows = [*context.rows, *rows]

    def refuted(cert: Certificate) -> FeasibilityResult:
        if not verify_certificate(table, context.sources.union(lits), cert):
            raise AssertionError(f"certificate audit failed for {lits}")
        return FeasibilityResult(False, certificate=cert, rows=len(rows))

    witness, bad = _fourier_motzkin(rows)
    if bad is not None:
        return refuted(_certificate_from(table, bad))

    side_points: list[Point] = []
    for below, above in diseqs:
        side, lo_bad = _fourier_motzkin(rows + [below])
        if lo_bad is not None:
            side, hi_bad = _fourier_motzkin(rows + [above])
            if hi_bad is not None:
                return refuted(
                    Certificate(
                        diseq=_source(below),
                        below=_certificate_from(table, lo_bad),
                        above=_certificate_from(table, hi_bad),
                    )
                )
        side_points.append(side)

    if diseqs:
        witness = _avoid_hyperplanes(table, witness, diseqs, side_points)
    if not witness_satisfies(table, lits, witness):
        raise AssertionError(f"witness audit failed for {lits}")
    return FeasibilityResult(True, witness=witness, rows=len(rows))


# ---------------------------------------------------------------------------
# projection


def project_trail(
    table,
    literals: Sequence[int],
    keep: AbstractSet[int],
    context: Projection = NO_PROJECTION,
    kept: frozenset[int] | None = None,
) -> Projection | None:
    """The projection of ``literals``, with the sources of ``context`` that
    it keeps, onto the real variables in ``keep``; None if the elimination
    finds their inequalities infeasible.  The
    compiler passes only feasible literals.

    A disequality is not convex, so it stays as its literal, and the
    inequality rows are projected onto ``keep`` plus the reals of the
    disequalities.  The other variables are eliminated by Fourier-Motzkin in
    ascending id order; none is eliminated if all are kept.  The key holds
    each remaining row as ``(coeffs, const, strict)`` for
    ``sum(c * x) + const < 0`` (``<=`` if not strict) with primitive integer
    entries, then the signed ids of the disequalities in ``literal_key``
    order.  Of parallel rows only the tightest is kept, and the rows are
    sorted.  The eliminated variables occur in no disequality, so for any
    literal set L over ``keep``, ``literals`` plus L is feasible iff the
    projected rows, the disequalities and L are; equal keys thus make
    ``literals`` plus L equally feasible.  Redundant rows are kept, so equal
    projections may still have different keys.

    ``context``, a projection of other literals (its ``sources``; by
    default none) onto reals that include the reals of ``literals``, stands
    for those of its sources in ``kept`` (by default all), which are
    projected too: its rows that combine kept sources are projected with
    the rows of ``literals``, and its stages that do are kept ahead of the
    new ones.  A row or a stage combines the literals of one entangled
    block, which the compiler keeps or drops whole.  Projecting in two
    steps is exact, since the first step keeps every real the second one
    reads.  Only ``literals`` are read one by one, in their order, which
    fixes the order of their rows; when every source is kept, the context's
    stages and ``mentions`` are copied whole.
    """
    kept = context.sources if kept is None else kept
    dropped = context.sources - kept if len(kept) < len(context.sources) else ()
    sources = kept.union(literals)
    live, diseq_rows = _split_literals(table, literals)
    live = [row for row in context.rows if _source(row) not in dropped] + live
    diseqs = [_source(below) for below, _ in diseq_rows] + [lit for lit in context.diseqs if lit not in dropped]
    if dropped:  # the kept stages move up: index them all anew
        stages, mentions, start = [stage for stage in context.stages if _source(stage[1][0]) not in dropped], {}, 0
    else:
        stages, mentions, start = [*context.stages], dict(context.mentions), len(context.stages)
    keep = set(keep).union(*(table.atom(abs(lit)).term.real_vars for lit in diseqs))
    live, bad = _eliminate_all(live, sorted({v for row in live for v in row[0]} - keep), stages)
    if bad is not None:  # infeasible literals: there is nothing to project
        return None
    for at in range(start, len(stages)):
        for v in set().union(*map(itemgetter(0), stages[at][1])):
            mentions[v] = (*mentions.get(v, ()), at)
    # primitive direction -> (num, den, strict, row): the row direction + num/den REL 0
    tightest: dict[tuple[tuple[int, int], ...], tuple[int, int, bool, tuple]] = {}
    for row in live:
        coeffs, const, strict, _ = row
        if not coeffs:
            continue  # a constant row of feasible literals holds
        g = math.gcd(*coeffs.values())
        r = math.gcd(const, g)
        num, den = const // r, g // r
        direction = tuple(sorted((v, c // g) for v, c in coeffs.items()))
        old = tightest.get(direction)
        # a larger constant, then strictness, is tighter
        if old is None or (num * old[1], strict) > (old[0] * den, old[2]):
            tightest[direction] = (num, den, strict, row)
    projected = sorted(
        ((tuple((v, c * den) for v, c in direction), num, strict), row)
        for direction, (num, den, strict, row) in tightest.items()
    )
    return Projection(
        key=(*(key_row for key_row, _ in projected), *sorted(diseqs, key=literal_key)),
        rows=tuple(row for _, row in projected),
        stages=tuple(stages),
        sources=sources,
        mentions=mentions,
    )


# ---------------------------------------------------------------------------
# incremental trail


class TheoryState:
    """Assertion trail of theory literals, popped back to a recorded size,
    checked on a theory context.

    Single-owner: one search uses one state.  Next to each trail entry sits
    an audited point satisfying every literal up to and including that
    entry.  Next to the trail sits a stack of stored witnesses: the point of
    every feasible Fourier-Motzkin query, with the trail size it satisfies.
    A query is answered at the top point, whose size is the trail's, or
    else at the newest stored witness, by one rule: a point of size k
    answers if the literal and the trail literals from position k on hold
    there.  A literal that holds at such a point extends the trail with
    that point, and a literal whose negation holds there is not entailed;
    each such answer counts as a witness hit.  Only the other queries run
    Fourier-Motzkin, each through ``_check``, which counts them and the
    rows each one starts from.

    A query checks ``context``, a projection of the trail's first ``mark``
    literals, with the literals asserted since; the default projects
    nothing at mark 0, so there it is the whole trail.  Each branch of the
    compiler sets its component's projection onto the reals of its atoms,
    where every later literal lives, so the answer is the trail's.  A
    literal the trail refutes is answered with the refutation itself, its
    certificate audited against trail literals (``check_feasible``).  A
    witness is extended to the whole trail: the top point keeps the reals
    the context does not read, and the context's stages move the eliminated
    reals the witness put out of bounds, visiting only the stages that read
    a moved real (``Projection.mentions``).  The extended point is audited
    against the literal and the trail literals over the reals it moved, the
    set ``_back_substitute`` grows, looked up in the per-real lists of trail
    positions; a trail literal over no moved real reads the same values at
    both points, and the top point satisfies it, so this decides what an
    audit of the whole trail would.  Points are never mutated (entries share
    them), so popping the trail pops the points, drops the stored witnesses
    above the new size, and ``pop_to`` stays exact.
    """

    def __init__(self, table, atoms_over: Sequence[Sequence[int]] = ()) -> None:
        """``atoms_over[r]`` lists the atoms over real r that ``ready``
        tracks: it is the mask of those all of whose reals some trail
        literal mentions."""
        self.table = table
        self.trail: list[int] = []
        self._points: list[Point] = [Point()]  # _points[i] satisfies trail[:i]
        self._over: dict[int, list[int]] = {}  # real -> the trail positions of the literals over it
        self._atoms_over = atoms_over
        self._unmentioned = {a: len(table.atoms[a - 1].term.real_vars) for over in atoms_over for a in over}
        self.ready = 0
        self._stored: list[tuple[Point, int]] = []  # (point, the trail size it satisfies)
        self.context: tuple[Projection, int] = (NO_PROJECTION, 0)  # (projection, the trail size it stands for)
        self.checks = 0
        self.rows_max = 0  # the most rows one check started from
        self.witness_hits = 0

    @property
    def point(self) -> Point:
        """The audited point satisfying every trail literal."""
        return self._points[-1]

    def _check(self, lits: frozenset[int], context: Projection = NO_PROJECTION) -> FeasibilityResult:
        self.checks += 1
        result = check_feasible(self.table, lits, context=context)
        self.rows_max = max(self.rows_max, result.rows)
        return result

    def _query(self, lit: int) -> FeasibilityResult:
        """Feasibility of the trail plus ``lit``, checked on ``context``; a
        witness comes back extended to the whole trail, and is stored."""
        context, mark = self.context
        lits = frozenset(self.trail[mark:]).union(context.diseqs, (lit,))
        result = self._check(lits, context)
        if not result.sat:
            return result
        if mark:  # a context of the empty trail projects nothing
            top, local = self.point, result.witness
            den = math.lcm(top.den, local.den)
            scale = den // top.den
            nums = {v: n * scale for v, n in top.nums.items()} if scale > 1 else dict(top.nums)
            moved = set()
            for v in local.nums.keys() | {r for l in lits for r in self.table.atom(abs(l)).term.real_vars}:
                n = local.nums.get(v, 0) * (den // local.den)
                if nums.get(v, 0) != n:
                    nums[v] = n
                    moved.add(v)
            point = Point(*_back_substitute(context.stages, nums, den, moved, context.mentions))
            # a trail literal over no moved real reads the same values at both points, and top satisfies it
            over = self._over
            audited = {lit, *(self.trail[i] for v in moved if v in over for i in over[v])}
            if not witness_satisfies(self.table, audited, point):
                raise AssertionError(f"extended witness audit failed for {lit} on {self.trail}")
            result = FeasibilityResult(True, witness=point, rows=result.rows)
        size, stored = len(self.trail), self._stored
        if stored and stored[-1][1] == size:  # popped with the new one, it would never be read again
            stored.pop()
        stored.append((result.witness, size))
        return result

    def _witness_for(self, lit: int) -> Point | None:
        """The top point or else the newest stored witness, if ``lit`` and
        the trail literals from its size on hold there; the point then
        witnesses the trail extended by ``lit``."""
        table, trail = self.table, self.trail
        for point, size in [(self.point, len(trail)), *self._stored[-1:]]:
            if literal_holds(table, lit, point):
                for l in trail[size:]:
                    if not literal_holds(table, l, point):
                        break
                else:
                    self.witness_hits += 1
                    return point
        return None

    def assert_literal(self, lit: int) -> FeasibilityResult | None:
        """Push ``lit`` onto the trail; or, if the trail plus ``lit`` is
        infeasible, leave the trail as it is and return the refutation,
        whose certificate ``check_feasible`` audited.  Its core holds
        ``lit``, since the trail before it is feasible."""
        point = self._witness_for(lit)
        if point is None:
            result = self._query(lit)
            if not result.sat:
                return result
            point = result.witness
        reals = self.table.atoms[abs(lit) - 1].term.real_vars  # lit is a theory literal: it held or was checked
        atoms_over, unmentioned = self._atoms_over, self._unmentioned
        for r in reals:
            at = self._over.setdefault(r, [])
            at.append(len(self.trail))
            if len(at) == 1 and r < len(atoms_over):  # r is newly mentioned
                for a in atoms_over[r]:
                    unmentioned[a] -= 1
                    if not unmentioned[a]:
                        self.ready |= 1 << a
        self.trail.append(lit)
        self._points.append(point)
        return None

    def pop_to(self, size: int) -> None:
        """Drop the trail entries after the first ``size``."""
        atoms, atoms_over, unmentioned = self.table.atoms, self._atoms_over, self._unmentioned
        for lit in self.trail[size:]:
            for r in atoms[abs(lit) - 1].term.real_vars:
                at = self._over[r]
                at.pop()
                if not at and r < len(atoms_over):  # r is no longer mentioned
                    for a in atoms_over[r]:
                        self.ready &= ~(1 << a)
                        unmentioned[a] += 1
        del self.trail[size:]
        del self._points[size + 1 :]
        stored = self._stored
        while stored and stored[-1][1] > size:
            stored.pop()

    def entails(self, lit: int) -> bool:
        if self._witness_for(-lit) is not None:
            return False
        return not self._query(-lit).sat

    def minimal_core(self, lit: int, refutation: FeasibilityResult) -> frozenset[int]:
        """A minimal infeasible subset of the core of ``refutation``, what
        ``assert_literal`` returned for ``lit`` (``minimize_core``).  The
        first trial, the core itself, is answered by the refutation, whose
        certificate is audited already; a trial without ``lit`` is a subset
        of the feasible trail, answered at the top point after an audit and
        counted as a witness hit; only the others run Fourier-Motzkin."""
        first, point = refutation.core, self.point

        def check(trial: frozenset[int]) -> FeasibilityResult:
            if trial == first:
                return refutation
            if lit in trial:
                return self._check(trial)
            if not witness_satisfies(self.table, trial, point):
                raise AssertionError(f"top point audit failed for {sorted(trial)}")
            self.witness_hits += 1
            return FeasibilityResult(True, witness=point)

        return minimize_core(self.table, first, check=check)


def minimize_core(
    table,
    core: Iterable[int],
    check: Callable[[frozenset[int]], FeasibilityResult] | None = None,
) -> frozenset[int]:
    """Deletion-based minimization: one feasibility call per element, in
    ``literal_key`` order, after one on the whole core.

    ``check`` answers each call, by default with ``check_feasible``;
    ``TheoryState.minimal_core`` passes one that needs Fourier-Motzkin for
    fewer of them.
    """
    if check is None:
        check = lambda fs: check_feasible(table, fs)
    current = frozenset(core)
    if check(current).sat:
        raise NotInfeasibleError("core is feasible")
    for lit in sorted(current, key=literal_key):
        trial = current - {lit}
        if trial and not check(trial).sat:
            current = trial
    return current


def propagate_candidates(state: TheoryState, atoms: Sequence[int]) -> list[int]:
    """Trail-entailed literals over the given atoms.

    Each atom costs at most two entailment checks, one per polarity.  The
    caller picks the atoms: an atom with a real that no trail literal
    mentions is never entailed, so passing it only costs its checks.
    """
    out: list[int] = []
    for aid in atoms:
        if state.entails(aid):
            out.append(aid)
        elif state.entails(-aid):
            out.append(-aid)
    return out

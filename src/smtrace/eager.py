"""Eager strategy: block theory-infeasible literal combinations up front.

Minimal infeasible cores over the linear atoms (one literal per atom, both
polarities considered) are enumerated by increasing size, then by atom
combination, then by polarity, with superset pruning, and negated into
blocking clauses.  The scheme adds clauses but no variables; with k equal to
the number of linear atoms it is complete, so a purely propositional compile
of the result is theory-sound.

Three exact bounds skip candidates that cannot be minimal cores, so the
cores and their order are those of trying every combination:

- Connectivity.  A minimal core's atoms are connected through shared real
  variables: parts over disjoint reals are each feasible (every proper
  subset of a minimal core is), so their points combine into one for the
  union.
- Convexity.  A minimal core holds at most one negated equality.  Without
  its disequalities the core is a proper subset, so a nonempty convex set;
  it lies in the union of their hyperplanes, and a convex set inside
  finitely many hyperplanes lies in one of them, so that disequality alone
  already makes it infeasible.
- Helly's theorem.  With d the number of reals a candidate mentions, a core
  without a disequality is a family of convex sets in R^d, so it has at most
  d + 1 members.  In a core ``C + {t != 0}``, C is feasible and ``C + {t > 0}``
  is not, so by Helly at most d members of C entail ``t <= 0``; likewise
  for ``t >= 0``, so the core has at most 2d + 1 members.

Feasible candidates are mostly decided without Fourier-Motzkin: the audited
point of every feasible candidate of the previous size is kept (that size
only, to bound memory; the empty set starts with the origin), and a set S is
feasible if for some literal l in S the point of S - {l} satisfies l.  That
point satisfies every literal of S - {l}, so evaluating l completes its
audit for S.  Every other candidate runs ``check_feasible``, whose witness
or certificate is audited there.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations, product
from operator import or_

from .abstraction import ClauseDb, learn_theory_clause
from .frontend import EQ, AtomTable
from .lra import Point, check_feasible, literal_holds, literal_key


def _connected(masks: list[int]) -> bool:
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


def _reused_entry(table, points, lits: frozenset[int]):
    """The entry of a stored set ``lits - {l}`` whose point satisfies l, if any.

    Each entry caches the truth of the atoms evaluated at its point."""
    for lit in lits:
        entry = points.get(lits - {lit})
        if entry is None:
            continue
        point, truth = entry
        value = truth.get(abs(lit))
        if value is None:
            value = truth[abs(lit)] = literal_holds(table, abs(lit), point)
        if value == (lit > 0):
            return entry
    return None


def enumerate_infeasible_cores(table, atom_ids, k: int) -> list[frozenset[int]]:
    """All minimal theory-infeasible literal sets of size <= k over the atoms."""
    atoms = sorted(atom_ids)
    masks = {a: sum(1 << r for r in table.atom(a).term.real_vars) for a in atoms}
    choices = {a: (a, -a) for a in atoms}
    is_eq = {a: table.atom(a).kind == EQ for a in atoms}
    top = min(k, len(atoms), 2 * reduce(or_, masks.values(), 0).bit_count() + 1)
    cores: list[tuple[frozenset[int], frozenset[int]]] = []  # (core, its atoms)
    # feasible sets of the previous size -> (audited point, atom truths there);
    # a set decided by reuse shares its subset's entry
    points = {frozenset(): (Point(), {})}
    for size in range(1, top + 1):
        found = {}
        for combo in combinations(atoms, size):
            combo_masks = [masks[a] for a in combo]
            d = reduce(or_, combo_masks).bit_count()
            if size > 2 * d + 1 or not _connected(combo_masks):
                continue
            within = frozenset(combo)
            prior = [core for core, core_atoms in cores if core_atoms <= within]
            eqs = [i for i, a in enumerate(combo) if is_eq[a]]
            for choice in product(*(choices[a] for a in combo)):
                negated_eqs = sum(1 for i in eqs if choice[i] < 0)
                if negated_eqs > 1 or (negated_eqs == 0 and size > d + 1):
                    continue
                lits = frozenset(choice)
                if any(core <= lits for core in prior):
                    continue
                entry = _reused_entry(table, points, lits)
                if entry is None:
                    result = check_feasible(table, lits)
                    if not result.sat:
                        cores.append((lits, within))
                        continue
                    entry = (result.witness, {})
                found[lits] = entry
        points = found
    return [core for core, _ in cores]


def eager_encode(db: ClauseDb, amap: AtomTable, k: int | None = None) -> ClauseDb:
    """Augment the CNF with one blocking clause per infeasible core."""
    linear = amap.linear_vars()
    if k is None:
        k = len(linear)
    if not linear or k < 1:
        return ClauseDb(db.num_vars, db.num_atom_vars, list(db.clauses))
    cores = enumerate_infeasible_cores(amap, linear, k)
    clauses = list(db.clauses)
    for core in sorted(cores, key=lambda core: sorted(map(literal_key, core))):
        clauses.append(learn_theory_clause(core))
    return ClauseDb(db.num_vars, db.num_atom_vars, clauses)
